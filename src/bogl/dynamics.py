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

The march is the 2/3-rule Galerkin truncation: it holds only the modes the
rule keeps, k = 0..n//3 of the real state (the negative modes are their
conjugates, the rest are zero), and evaluates N in the conservative form
F((u^2/2)_x): one inverse and one forward real FFT per stage.  On the kept
band the two forms agree in exact arithmetic: u^2 has modes |k| <= 2n/3, its
aliases land at |k| > n/3, which are not kept, and there F(u u_x) =
F((u^2/2)_x).  A datum's modes above n//3 are dropped at t = 0.  The
truncated system conserves int u^2 exactly, so for every datum the march's
drift is that of the time stepping alone.

Sign convention: the nonlinearity sits on the RIGHT-hand side as +u u_x.
The mean-zero periodic traveling wave for this convention,

    phi(y) = 4 (rho cos y - rho^2) / (1 - 2 rho cos y + rho^2),
    speed c = (1 - 3 rho^2) / (1 - rho^2),        0 < rho < 1,

is provided as a regression profile (it satisfies -c phi + H phi' =
phi^2/2 - mean(phi^2)/2, which the tests verify by direct substitution).
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .spectral import (
    RealField,
    SpatialGrid,
    _is_power_of_two,
    fractional,
    lebesgue_norm,
    make_grid,
)

__all__ = [
    "SimConfig",
    "Trajectory",
    "LazyStates",
    "IntegrationError",
    "step",
    "simulate",
    "momentum",
    "energy",
    "rescale",
    "traveling_wave",
]


class IntegrationError(RuntimeError):
    """Raised when the march produces non-finite values; time is the time
    the failing step reached."""

    def __init__(self, time: float):
        super().__init__(f"integration failure (NaN/overflow) at t = {time:.6g}")
        self.time = time


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
        if not np.isfinite(self.t_end / self.dt):  # a subnormal dt, a huge t_end
            raise ValueError(f"t_end/dt = {self.t_end / self.dt} is not a step count")
        n = round(self.t_end / self.dt)
        if abs(n * self.dt - self.t_end) > 1e-12 * max(1.0, self.t_end):
            raise ValueError("t_end must be an integer multiple of dt")
        if n % self.snapshot_stride != 0:
            raise ValueError("step count must be divisible by snapshot_stride")

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)


class LazyStates(Sequence):
    """A read-only sequence whose item i is build(i), made each time it is
    read and not kept, so a loop over it holds one state at a time."""

    def __init__(self, build: Callable[[int], RealField], length: int):
        self._build = build
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        return self._build(range(self._length)[operator.index(index)])


@dataclass
class Trajectory:
    """Snapshot times and states.  states is any sequence of RealFields: a
    list, or a LazyStates (what simulate and experiments.load_trajectory
    return), which builds each state when it is read.  Momenta, energies and
    sup norms are computed in one pass over the states on first read."""

    times: np.ndarray
    states: Sequence

    @cached_property
    def _diagnostics(self) -> np.ndarray:
        """One row (M, E, Linf) per state."""
        return np.array(
            [(momentum(u), energy(u), lebesgue_norm(u, np.inf)) for u in self.states]
        )

    @property
    def momenta(self) -> np.ndarray:
        return self._diagnostics[:, 0]

    @property
    def energies(self) -> np.ndarray:
        return self._diagnostics[:, 1]

    def diagnostics_rows(self) -> list[dict]:
        return [
            {"t": float(t), "M": float(m), "E": float(e), "Linf": float(sup)}
            for t, (m, e, sup) in zip(self.times, self._diagnostics)
        ]


def _full_spectrum(kept: np.ndarray, n: int) -> np.ndarray:
    """Hermitian FFT-order coefficients from the kept modes k = 0..n//3,
    zero elsewhere."""
    full = np.zeros(n, dtype=np.complex128)
    full[: len(kept)] = kept
    full[n - len(kept) + 1 :] = np.conj(kept[:0:-1])
    return full


# Modes per block of the contour average in ETDRK4Stepper, so the set-up
# holds a few (rows x 32) complex arrays and its memory grows like n, not 32 n.
# - At least 512: 512 x 32 complex values are 256 KiB, the size from which
#   numpy reuses a temporary in place, and that path can round differently in
#   the last bit.  Every block has full height (the last one overlaps the one
#   before), so each coefficient equals that of the one-shot (n//3+1) x 32
#   form bit for bit; blocks of 511 rows do not.
# - 1024 and not 512: glibc's malloc trims its heap above twice the largest
#   block it has freed.  After 256 KiB blocks it trimmed and re-faulted the
#   march's per-step temporaries (n = 16384: 91k against 14k minor faults in
#   1000 steps; n = 65536: 674 against 4 per step), and a step took 10-25 %
#   longer.
_CONTOUR_ROWS = 1024


class ETDRK4Stepper:
    """Precomputed exponential-RK4 coefficients for one (grid, dt) pair.

    State and coefficients live on the modes the 2/3 rule keeps, k =
    0..n//3 (the head of the rfft layout; irfft zero-pads the rest).  The
    nonlinear term is the conservative form (u^2/2)_x cut to those modes; it
    equals the dealiased u u_x formed from the samples, the tests'
    `nonlinearity` oracle in tests/oracles.py (the aliases of u^2 fall
    outside the kept band).
    """

    def __init__(self, grid: SpatialGrid, dt: float):
        self.grid = grid
        self.dt = dt
        xi = np.arange(grid.n // 3 + 1) / grid.period_scale
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
        self._half_ddx = 0.5j * xi

    def nonlinear(self, coeff: np.ndarray) -> np.ndarray:
        u = np.fft.irfft(coeff, self.grid.n, norm="forward")
        square = np.fft.rfft(u * u, norm="forward")
        return self._half_ddx * square[..., : len(self._half_ddx)]

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


def step(u: RealField, dt: float) -> RealField:
    """One ETDRK4 step: the last state of a one-step simulate."""
    return simulate(u, SimConfig(u.grid, dt=dt, t_end=dt)).states[-1]


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
    """March u0's modes k = 0..n//3 (the rest are dropped at t = 0) with a
    snapshot every snapshot_stride steps.  Each snapshot is kept as those
    n//3+1 values and becomes a RealField when the trajectory's states are
    read."""
    if u0.grid != cfg.grid:
        raise ValueError("initial data does not live on the configured grid")
    grid, n, stride = cfg.grid, cfg.grid.n, cfg.snapshot_stride
    stepper = _stepper(grid, cfg.dt)
    marks = np.arange(0, cfg.n_steps + 1, stride)
    kept = np.empty((len(marks), n // 3 + 1), dtype=np.complex128)
    coeff = kept[0] = u0.coefficients[: n // 3 + 1]
    # overflow is reported by the finiteness check, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, cfg.n_steps + 1):
            coeff = stepper.advance(coeff)
            if not np.all(np.isfinite(coeff)):
                raise IntegrationError(time=k * cfg.dt)
            if k % stride == 0:
                kept[k // stride] = coeff
    states = LazyStates(lambda i: RealField(grid, _full_spectrum(kept[i], n)), len(marks))
    return Trajectory(marks * cfg.dt, states)


def rescale(u0: RealField, lam: int) -> RealField:
    """Dilation u -> lam*u(lam x) onto the grid with period_scale/lam.

    Exact on the lattice: the rescaled samples are lam times the original
    samples at the same indices, so ||rescale(u)||_L2 = lam^{1/2} ||u||_L2
    holds to rounding.
    """
    if not (float(lam).is_integer() and _is_power_of_two(int(lam))):
        raise ValueError(f"scaling factor must be a dyadic integer >= 1, got {lam}")
    lam = int(lam)
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

