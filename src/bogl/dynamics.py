"""Time integration of u_t + H u_xx = u u_x on the torus.

In Fourier variables the equation reads  d/dt u_hat = -i|xi|xi u_hat + N(u),
N(u) = F(u u_x) dealiased by the 2/3 rule.  The stiff linear factor is the
free group exp(-i t |xi| xi) and is integrated exactly by a fourth-order
exponential time-differencing Runge-Kutta scheme; the removable 0/0 in the
scheme coefficients is handled by averaging over a circular contour around
each dt*L value (Kassam-Trefethen style, full circle since L is imaginary).
The average is formed for blocks of modes, so the set-up holds O(n) values
and not the 32 n of the whole contour, with each coefficient bit for bit
that of the one-shot form (see _CONTOUR_ROWS).

The march keeps only the half spectrum k = 0..n/2 of the real state (the
negative modes are its conjugates) and evaluates N in the conservative form
F((u^2/2)_x): one inverse and one forward real FFT per stage.  On 2/3-dealiased
state the two forms agree in exact arithmetic: u^2 has modes |k| <= 2n/3, its
aliases land at |k| > n/3, which the mask removes, and on the kept band
F(u u_x) = F((u^2/2)_x).  Data with modes above n/3 differ at aliasing level.

Sign convention: the nonlinearity sits on the RIGHT-hand side as +u u_x.
The mean-zero periodic traveling wave for this convention,

    phi(y) = 4 (rho cos y - rho^2) / (1 - 2 rho cos y + rho^2),
    speed c = (1 - 3 rho^2) / (1 - rho^2),        0 < rho < 1,

is provided as a regression profile (it satisfies -c phi + H phi' =
phi^2/2 - mean(phi^2)/2, which the tests verify by direct substitution).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import (
    RealField,
    SpatialGrid,
    fractional,
    hilbert,
    derivative,
    lebesgue_norm,
    make_grid,
)

__all__ = [
    "SimConfig",
    "Trajectory",
    "IntegrationError",
    "nonlinearity",
    "step",
    "simulate",
    "momentum",
    "energy",
    "rescale",
    "traveling_wave",
]


class IntegrationError(RuntimeError):
    """Raised when the march produces non-finite values.

    time is the time the failing step reached; a lone `step` does not know
    it and reports its step size dt instead.  Exactly one of them is given.
    """

    def __init__(self, time: float | None = None, dt: float | None = None):
        if (time is None) == (dt is None):
            raise ValueError("IntegrationError takes exactly one of time and dt")
        where = f"at t = {time:.6g}" if time is not None else f"in a step of dt = {dt:.6g}"
        super().__init__(f"integration failure (NaN/overflow) {where}")
        self.time = time
        self.dt = dt


@dataclass(frozen=True)
class SimConfig:
    grid: SpatialGrid
    dt: float
    t_end: float
    snapshot_stride: int = 1

    def __post_init__(self):
        for key in ("dt", "t_end"):
            if not np.isfinite(getattr(self, key)):
                raise ValueError(f"{key} must be finite, got {getattr(self, key)}")
        if self.dt <= 0 or self.t_end <= 0:
            raise ValueError("dt and t_end must be positive")
        if self.snapshot_stride < 1:
            raise ValueError("snapshot_stride must be >= 1")
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-12 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")
        if n % self.snapshot_stride != 0:
            raise ValueError("step count must be divisible by snapshot_stride")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass
class Trajectory:
    """Snapshot times and states; momenta and energies are computed from the
    states on first read."""

    times: np.ndarray
    states: list

    @property
    def grid(self) -> SpatialGrid:
        return self.states[0].grid

    @cached_property
    def momenta(self) -> np.ndarray:
        return np.array([momentum(u) for u in self.states])

    @cached_property
    def energies(self) -> np.ndarray:
        return np.array([energy(u) for u in self.states])

    def diagnostics_rows(self) -> list[dict]:
        return [
            {
                "t": float(t),
                "M": float(m),
                "E": float(e),
                "Linf": lebesgue_norm(u, np.inf),
            }
            for t, u, m, e in zip(self.times, self.states, self.momenta, self.energies)
        ]


def _dealias_mask(k: np.ndarray, n: int) -> np.ndarray:
    """Modes kept by the 2/3 rule.  k lists the mode numbers of one layout
    (FFT order or the half spectrum); in both, index n/2 is the Nyquist line."""
    keep = np.abs(k) <= 2.0 / 3.0 * (n // 2) + 1e-9
    keep[n // 2] = False
    return keep


def _full_spectrum(half: np.ndarray, n: int) -> np.ndarray:
    """Hermitian FFT-order coefficients from the half spectrum k = 0..n/2."""
    return np.concatenate([half, np.conj(half[n // 2 - 1 : 0 : -1])])


# Modes per block of the contour average in ETDRK4Stepper, so the set-up
# holds a few (rows x 32) complex arrays and its memory grows like n, not 32 n.
# - At least 512: 512 x 32 complex values are 256 KiB, the size from which
#   numpy reuses a temporary in place, and that path can round differently in
#   the last bit.  Every block has full height (the last one overlaps the one
#   before), so each coefficient equals that of the one-shot (n/2+1) x 32 form
#   bit for bit; blocks of 511 rows do not.
# - 1024 and not 512: glibc's malloc trims its heap above twice the largest
#   block it has freed.  After 256 KiB blocks it trimmed and re-faulted the
#   march's per-step temporaries (n = 16384: 91k against 14k minor faults in
#   1000 steps; n = 65536: 674 against 4 per step), and a step took 10-25 %
#   longer.
_CONTOUR_ROWS = 1024


class ETDRK4Stepper:
    """Precomputed exponential-RK4 coefficients for one (grid, dt) pair.

    State and coefficients live on the half spectrum k = 0..n/2 (rfft
    layout).  The nonlinear term is the dealiased conservative form
    (u^2/2)_x, with i xi/2 and the dealias mask folded into one array; on
    2/3-dealiased state it equals the dealiased u u_x of `nonlinearity`
    (the aliases of u^2 fall outside the kept band).
    """

    def __init__(self, grid: SpatialGrid, dt: float):
        self.grid = grid
        self.dt = dt
        k = np.arange(grid.n // 2 + 1)
        xi = k / grid.period_scale
        lin = -1j * xi * xi  # -i|xi|xi, xi >= 0 here
        self.exp_full = np.exp(dt * lin)
        self.exp_half = np.exp(0.5 * dt * lin)
        # contour average (32 points) around each dt*L removes the 0/0 at
        # small |xi|xi dt; formed _CONTOUR_ROWS modes at a time
        theta = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
        self.q, self.f1, self.f2, self.f3 = (np.empty_like(lin) for _ in range(4))
        last = max(len(lin) - _CONTOUR_ROWS, 0)
        for start in range(0, len(lin), _CONTOUR_ROWS):
            top = min(start, last)  # the last block overlaps the one before
            rows = slice(top, top + _CONTOUR_ROWS)
            lr = dt * lin[rows, None] + theta[None, :]
            elr = np.exp(lr)
            self.q[rows] = dt * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1)
            self.f1[rows] = dt * np.mean(
                (-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1
            )
            self.f2[rows] = dt * np.mean((2.0 + lr + elr * (lr - 2.0)) / lr**3, axis=1)
            self.f3[rows] = dt * np.mean(
                (-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3, axis=1
            )
        self.mask = _dealias_mask(k, grid.n)
        self._half_ddx = np.where(self.mask, 0.5j * xi, 0.0)

    def nonlinear(self, coeff: np.ndarray) -> np.ndarray:
        u = np.fft.irfft(coeff, self.grid.n, norm="forward")
        return self._half_ddx * np.fft.rfft(u * u, norm="forward")

    def advance(self, coeff: np.ndarray) -> np.ndarray:
        n0 = self.nonlinear(coeff)
        e_coeff = self.exp_half * coeff
        a = e_coeff + self.q * n0
        na = self.nonlinear(a)
        b = e_coeff + self.q * na
        nb = self.nonlinear(b)
        c = self.exp_half * a + self.q * (2.0 * nb - n0)
        nc = self.nonlinear(c)
        return (
            self.exp_full * coeff
            + self.f1 * n0
            + self.f2 * 2.0 * (na + nb)
            + self.f3 * nc
        )


_STEPPER_CACHE: dict = {}


def _stepper(grid: SpatialGrid, dt: float) -> ETDRK4Stepper:
    key = (grid.n, grid.period_scale, dt)
    if key not in _STEPPER_CACHE:
        if len(_STEPPER_CACHE) > 64:
            _STEPPER_CACHE.clear()
        _STEPPER_CACHE[key] = ETDRK4Stepper(grid, dt)
    return _STEPPER_CACHE[key]


def nonlinearity(u: RealField) -> RealField:
    """u * u_x dealiased by the 2/3 rule (the right-hand side of the evolution)."""
    grid = u.grid
    ux = derivative(u)
    prod = np.asarray(u.samples) * np.asarray(ux.samples)
    coeff = np.fft.fft(prod) / grid.n
    coeff[~_dealias_mask(grid.k, grid.n)] = 0.0
    return RealField(grid, coeff)


def step(u: RealField, dt: float) -> RealField:
    """One ETDRK4 step; raises IntegrationError on non-finite output."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    n = u.grid.n
    # overflow is reported by the finiteness check, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        out = _stepper(u.grid, dt).advance(u.coefficients[: n // 2 + 1])
    if not np.all(np.isfinite(out)):
        raise IntegrationError(dt=dt)
    return RealField(u.grid, _full_spectrum(out, n))


def momentum(u: RealField) -> float:
    """M(u) = int u^2 dx."""
    s = u.samples
    return float(np.sum(s * s) * u.grid.dx)


def energy(u: RealField) -> float:
    """Conserved energy E(u) = 1/2 int |D^{1/2} u|^2 - 1/6 int u^3.

    The cubic sign is tied to the +u u_x right-hand side: for
    u_t = d/dx(-D u + u^2/2) one has d/dt[1/2 int |D^{1/2}u|^2 + k int u^3]
    = (1/2 + 3k) int (Du) d/dx(u^2), which vanishes only for k = -1/6.
    (The familiar +1/6 belongs to the u -> -u convention.)
    """
    half = fractional(u, "riesz", 0.5).samples
    s = u.samples
    quad = 0.5 * float(np.sum(np.abs(half) ** 2) * u.grid.dx)
    cubic = float(np.sum(s**3) * u.grid.dx) / 6.0
    return quad - cubic


def simulate(u0: RealField, cfg: SimConfig) -> Trajectory:
    """March u0 with a snapshot every snapshot_stride steps."""
    if u0.grid != cfg.grid:
        raise ValueError("initial data does not live on the configured grid")
    n = cfg.grid.n
    stepper = _stepper(cfg.grid, cfg.dt)
    coeff = u0.coefficients[: n // 2 + 1]
    times, states = [0.0], [RealField(cfg.grid, _full_spectrum(coeff, n))]
    # overflow is reported by the finiteness check, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.n_steps + 1):
            coeff = stepper.advance(coeff)
            if not np.all(np.isfinite(coeff)):
                raise IntegrationError(time=k * cfg.dt)
            if k % cfg.snapshot_stride == 0:
                times.append(k * cfg.dt)
                states.append(RealField(cfg.grid, _full_spectrum(coeff, n)))
    return Trajectory(np.array(times), states)


def rescale(u0: RealField, lam: int) -> RealField:
    """Dilation u -> lam*u(lam x) onto the grid with period_scale/lam.

    Exact on the lattice: the rescaled samples are lam times the original
    samples at the same indices, so ||rescale(u)||_L2 = lam^{1/2} ||u||_L2
    holds to rounding.
    """
    lam = int(lam)
    if lam < 1 or (lam & (lam - 1)) != 0:
        raise ValueError(f"scaling factor must be a dyadic integer >= 1, got {lam}")
    new_scale = u0.grid.period_scale / lam
    if new_scale < 1 - 1e-12:
        raise ValueError(
            "scaling factor does not map the lattice (period_scale/lam < 1)"
        )
    grid = make_grid(u0.grid.n, new_scale)
    return RealField.from_samples(grid, lam * u0.samples)


def traveling_wave(grid: SpatialGrid, rho: float) -> tuple[RealField, float]:
    """Mean-zero periodic traveling wave and its speed, for 0 < rho < 1."""
    if not (0 < rho < 1):
        raise ValueError("rho must lie in (0, 1)")
    if grid.period_scale != 1.0:
        raise ValueError("the closed-form profile is 2*pi periodic (period_scale 1)")
    x = grid.x
    profile = 4.0 * (rho * np.cos(x) - rho**2) / (1.0 - 2.0 * rho * np.cos(x) + rho**2)
    speed = (1.0 - 3.0 * rho**2) / (1.0 - rho**2)
    return RealField.from_samples(grid, profile), speed


def steady_residual(profile: RealField, speed: float) -> float:
    """L2 residual of -c phi + H phi' - phi^2/2 + mean(phi^2)/2 = 0."""
    grid = profile.grid
    hpx = hilbert(derivative(profile))
    sq = profile.samples**2
    a = float(np.mean(sq)) / 2.0
    res = -speed * profile.samples + np.asarray(hpx.samples) - sq / 2.0 + a
    return float(np.sqrt(np.sum(res**2) * grid.dx))
