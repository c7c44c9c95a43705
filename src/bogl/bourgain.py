"""Space-time fields on a windowed slab and the dispersive-weighted norms.

A SpaceTimeField carries samples u(x_j, t_m) on spatial grid x window grid
and their 2-D coefficients c(xi, tau) with u = sum c e^{i(xi x + tau t)}.
The modulation variable is sigma = tau + |xi| xi, so the free evolution
populates the sigma = 0 line.  Weights use the bracket <v> = 1 + |v| (the
Sobolev operations in spectral.py use the Bessel bracket instead; both
conventions appear side by side in this problem and are kept per-module).

Norms, with L_x = 2 pi lambda, L_t = t_span, dtau = 2 pi / t_span:

    X^{s,b}:  ( L_x L_t  sum <sigma>^{2b} <xi>^{2s} |c|^2 )^{1/2}
    Z^{s,b}:  ( L_x sum_xi ( dtau sum_tau <sigma>^b <xi>^s |c| )^2 )^{1/2}
    Ztilde:   ||P_lo .||_Z + ( sum_N ||P_N .||_Z^2 )^{1/2}   (spatial shells)
    Y^s    =  X^{s,1/2} + Ztilde^{s,0}

The time localization to [0, T] multiplies samples by the scaled cutoff
window (plateau on the central half of [0, T]), the canonical extension
realizing the localized norms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import Trajectory
from .lp import eta, shell_l2, shell_table
from .reporting import ProbeReport, stream
from .spectral import (
    ComplexField,
    Field,
    SpatialGrid,
    make_grid,
    random_field,
    sobolev_norm,
)

__all__ = [
    "SpaceTimeGrid",
    "SpaceTimeField",
    "lift",
    "x_norm",
    "z_norm",
    "z_tilde_norm",
    "y_norm",
    "spacetime_lebesgue",
    "spacetime_tilde_lebesgue",
    "localize",
    "free_evolution_field",
    "duhamel_field",
    "random_spacetime_field",
    "x_norm_regrouped",
    "ProbeConfig",
    "linear_probes",
]


def _bracket(v: np.ndarray) -> np.ndarray:
    return 1.0 + np.abs(v)


@dataclass(frozen=True)
class SpaceTimeGrid:
    spatial: SpatialGrid
    num_times: int
    t_span: float

    def __post_init__(self):
        m = self.num_times
        if m < 16 or (m & (m - 1)) != 0:
            raise ValueError("num_times must be a power of two >= 16")
        if self.t_span <= 0:
            raise ValueError("t_span must be positive")

    @cached_property
    def times(self) -> np.ndarray:
        return np.arange(self.num_times) * (self.t_span / self.num_times)

    @cached_property
    def tau(self) -> np.ndarray:
        return np.fft.fftfreq(self.num_times, d=1.0 / self.num_times) * (
            2.0 * np.pi / self.t_span
        )

    @cached_property
    def sigma(self) -> np.ndarray:
        """sigma(tau, xi) = tau + |xi| xi, shape (num_times, n)."""
        xi = self.spatial.xi
        return self.tau[:, None] + (np.abs(xi) * xi)[None, :]

    @cached_property
    def window(self) -> np.ndarray:
        """Smooth cutoff over [0, t_span]: plateau on the central half."""
        t = self.times
        return np.asarray(eta(4.0 * (t - self.t_span / 2.0) / self.t_span))

    @property
    def dt(self) -> float:
        return self.t_span / self.num_times

    @property
    def cell(self) -> float:
        return self.spatial.dx * self.dt


class SpaceTimeField:
    """Windowed (x,t) data with its (xi,tau) transform; axis 0 is time."""

    def __init__(self, grid: SpaceTimeGrid, coefficients: np.ndarray):
        coefficients = np.asarray(coefficients, dtype=np.complex128).copy()
        if coefficients.shape != (grid.num_times, grid.spatial.n):
            raise ValueError("coefficient array does not match the grid")
        coefficients[grid.num_times // 2, :] = 0.0
        coefficients[:, grid.spatial.nyquist_index] = 0.0
        self.grid = grid
        self._coeff = coefficients

    @classmethod
    def from_windowed_samples(cls, grid: SpaceTimeGrid, samples) -> "SpaceTimeField":
        samples = np.asarray(samples, dtype=np.complex128)
        windowed = samples * grid.window[:, None]
        coeff = np.fft.fft2(windowed) / (grid.num_times * grid.spatial.n)
        return cls(grid, coeff)

    @classmethod
    def from_raw_samples(cls, grid: SpaceTimeGrid, samples) -> "SpaceTimeField":
        samples = np.asarray(samples, dtype=np.complex128)
        coeff = np.fft.fft2(samples) / (grid.num_times * grid.spatial.n)
        return cls(grid, coeff)

    @property
    def coefficients(self) -> np.ndarray:
        return self._coeff

    @property
    def samples(self) -> np.ndarray:
        return np.fft.ifft2(self._coeff) * (self.grid.num_times * self.grid.spatial.n)

    def spatial_mask(self, mask: np.ndarray) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self._coeff * mask[None, :])

    def __add__(self, other: "SpaceTimeField") -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self._coeff + other._coeff)

    def __sub__(self, other: "SpaceTimeField") -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self._coeff - other._coeff)

    def __mul__(self, scalar) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self._coeff * scalar)

    __rmul__ = __mul__

    def time_slice(self, index: int) -> np.ndarray:
        """Spatial coefficients of the synthesized field at time index."""
        return np.sum(
            self._coeff * np.exp(1j * self.grid.tau * self.grid.times[index])[:, None],
            axis=0,
        )


def lift(traj: Trajectory, win: SpaceTimeGrid) -> SpaceTimeField:
    """Window a trajectory onto the slab; snapshot times must cover win.times."""
    if traj.grid != win.spatial:
        raise ValueError("trajectory grid does not match the window's spatial grid")
    samples = np.zeros((win.num_times, win.spatial.n), dtype=np.complex128)
    for m, t in enumerate(win.times):
        j = int(np.argmin(np.abs(traj.times - t)))
        if abs(traj.times[j] - t) > 1e-9 * max(1.0, win.t_span):
            raise ValueError(f"no trajectory snapshot at window time {t:.6g}")
        samples[m] = traj.states[j].samples
    return SpaceTimeField.from_windowed_samples(win, samples)


def x_norm(f: SpaceTimeField, s: float, b: float) -> float:
    g = f.grid
    w = _bracket(g.sigma) ** (2 * b) * _bracket(g.spatial.xi)[None, :] ** (2 * s)
    total = np.sum(w * np.abs(f.coefficients) ** 2)
    return float(np.sqrt(g.spatial.length * g.t_span * total))


def z_norm(f: SpaceTimeField, s: float, b: float) -> float:
    g = f.grid
    w = _bracket(g.sigma) ** b * _bracket(g.spatial.xi)[None, :] ** s
    dtau = 2.0 * np.pi / g.t_span
    inner = dtau * np.sum(w * np.abs(f.coefficients), axis=0)
    return float(np.sqrt(g.spatial.length * np.sum(inner**2)))


def _shell_summed(f: SpaceTimeField, norm) -> float:
    """norm(P_lo f) + (sum_N norm(P_N f)^2)^{1/2} over the spatial shells."""
    grid = f.grid.spatial
    low = norm(f.spatial_mask(shell_table(grid).low))
    return low + shell_l2(grid, lambda mask: norm(f.spatial_mask(mask)))


def z_tilde_norm(f: SpaceTimeField, s: float, b: float) -> float:
    return _shell_summed(f, lambda piece: z_norm(piece, s, b))


def y_norm(f: SpaceTimeField, s: float) -> float:
    return x_norm(f, s, 0.5) + z_tilde_norm(f, s, 0.0)


def spacetime_lebesgue(f: SpaceTimeField, p) -> float:
    a = np.abs(f.samples)
    if p == np.inf:
        return float(np.max(a))
    return float((np.sum(a**p) * f.grid.cell) ** (1.0 / p))


def spacetime_tilde_lebesgue(f: SpaceTimeField, p) -> float:
    """Shell-summed space-time L^p (spatial Littlewood-Paley blocks)."""
    return _shell_summed(f, lambda piece: spacetime_lebesgue(piece, p))


def localize(f: SpaceTimeField, t_loc: float) -> SpaceTimeField:
    """Multiply by the cutoff scaled to [0, t_loc] (canonical localized extension)."""
    if not (0 < t_loc <= f.grid.t_span):
        raise ValueError("localization time must lie in (0, t_span]")
    t = f.grid.times
    w = np.asarray(eta(4.0 * (t - t_loc / 2.0) / t_loc))
    return SpaceTimeField.from_raw_samples(f.grid, f.samples * w[:, None])


def free_evolution_field(f: Field, win: SpaceTimeGrid) -> SpaceTimeField:
    """Windowed free evolution eta(t) U(t) f, exact mode-by-mode phases."""
    xi = win.spatial.xi
    omega = np.abs(xi) * xi
    phases = np.exp(-1j * np.outer(win.times, omega))
    samples = np.fft.ifft(phases * f.coefficients[None, :], axis=1) * win.spatial.n
    return SpaceTimeField.from_windowed_samples(win, samples)


def duhamel_field(g: SpaceTimeField, win: SpaceTimeGrid) -> SpaceTimeField:
    """eta(t) int_0^t U(t-t') g(t') dt' with exact per-bin phase quadrature.

    For each (xi, tau) bin of g the time integral is (e^{i sigma t}-1)/(i sigma)
    (or t on the resonant line), so no time-marching error enters the probe.
    """
    if g.grid != win:
        raise ValueError("forcing must live on the target window grid")
    xi = win.spatial.xi
    omega = np.abs(xi) * xi
    t = win.times[:, None, None]  # (time, tau, xi) broadcasting
    sig = win.sigma[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        env = np.where(
            np.abs(sig) > 1e-14,
            (np.exp(1j * sig * t) - 1.0) / (1j * sig),
            t * np.ones_like(sig),
        )
    # sum over tau bins: coefficient c(xi,tau) times envelope, then mode phases
    hat_t = np.sum(g.coefficients[None, :, :] * env, axis=1)  # (time, xi)
    hat_t *= np.exp(-1j * np.outer(win.times, omega))
    samples = np.fft.ifft(hat_t, axis=1) * win.spatial.n
    return SpaceTimeField.from_windowed_samples(win, samples)


def random_spacetime_field(
    win: SpaceTimeGrid,
    rng: np.random.Generator,
    xi_decay: float = 1.0,
    sigma_decay: float = 1.5,
    real: bool = False,
    positive_xi_only: bool = False,
    zero_mean_x: bool = False,
) -> SpaceTimeField:
    """Random field with coefficients ~ CN(0,1) <xi>^{-xi_decay} <sigma>^{-sigma_decay};
    positive_xi_only keeps the frequencies xi >= 1."""
    m, n = win.num_times, win.spatial.n
    z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    xi = win.spatial.xi
    shape = _bracket(xi)[None, :] ** (-xi_decay) * _bracket(win.sigma) ** (-sigma_decay)
    coeff = z * shape
    if positive_xi_only:
        coeff[:, xi < 1.0] = 0.0
    if real:
        ml = (-np.arange(m)) % m
        nk = (-np.arange(n)) % n
        coeff = 0.5 * (coeff + np.conj(coeff[np.ix_(ml, nk)]))
    if zero_mean_x:
        coeff[:, xi == 0] = 0.0
    return SpaceTimeField(win, coeff)


def x_norm_regrouped(f: SpaceTimeField, s: float, b: float) -> float:
    """||P_lo f||_X + (sum_N ||P_N f||_X^2)^{1/2}; reported against x_norm."""
    return _shell_summed(f, lambda piece: x_norm(piece, s, b))


# ----------------------------------------------------------------------------
# estimate probes (the bilinear ones are in bilinear.py)
# ----------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeConfig:
    """An estimate probe's lattice on the 2 pi slab, samples, seed and s;
    sample i of the probe `name` draws from reporting.stream(seed, name, i)."""

    n: int = 32
    num_times: int = 32
    samples: int = 100
    seed: int = 0
    s: float = 0.0
    period_scale: float = 1.0

    def window(self) -> SpaceTimeGrid:
        return SpaceTimeGrid(
            make_grid(self.n, self.period_scale), self.num_times, 2.0 * np.pi
        )


def _decay_schedule(i: int) -> float:
    return (0.5, 1.0, 2.0)[i % 3]


# the d of the Duhamel estimate X^{s,-1/2+d} -> X^{s,1/2+d}
_DUHAMEL_DELTA = 0.25


def linear_probes(cfg: ProbeConfig) -> list[ProbeReport]:
    """Empirical ratio reports for the homogeneous, Duhamel, time-factor and
    L4 embedding estimates; sample i draws from the stream ("linear", i)."""
    win = cfg.window()
    env = {
        "n": cfg.n,
        "num_times": cfg.num_times,
        "t_span": win.t_span,
        "s": cfg.s,
        "samples": cfg.samples,
        "seed": cfg.seed,
    }
    homogeneous = ProbeReport(
        "linear_homogeneous",
        "|window U(t)f|_{Y^s} <= C |f|_{H^s}",
        environment=env,
    )
    duhamel_x = ProbeReport(
        "linear_duhamel_x",
        "|window Duhamel(g)|_{X^{s,1/2+d}} <= C |g|_{X^{s,-1/2+d}}",
        environment={**env, "delta": _DUHAMEL_DELTA},
    )
    duhamel_y = ProbeReport(
        "linear_duhamel_y",
        "|window Duhamel(g)|_{Y^s} <= C (|g|_{X^{s,-1/2}} + |g|_{Ztilde^{s,-1}})",
        environment=env,
    )
    time_factor = ProbeReport(
        "linear_time_factor",
        "|u|_{X^{s,b'}_T} <= C T^{b-b'} |u|_{X^{s,b}_T},  b=3/8, b'=1/8",
        environment=env,
    )
    strichartz = ProbeReport(
        "bourgain_strichartz",
        "|u|_{L4} <= C |u|_{tildeL4} <= C |u|_{X^{0,3/8}}",
        environment=env,
    )
    embedding = ProbeReport(
        "embedding_sup_hs",
        "sup_t |u(t)|_{H^s} <= C |u|_{Z^{s,0}}",
        environment=env,
    )

    for i in range(cfg.samples):
        rng = stream(cfg.seed, "linear", i)
        decay = _decay_schedule(i)

        f = random_field(win.spatial, rng, decay=decay, amplitude=1.0)
        hs = sobolev_norm(f, cfg.s)
        if hs == 0:
            homogeneous.skip()
        else:
            lhs = y_norm(free_evolution_field(f, win), cfg.s)
            homogeneous.add(sample=i, lhs=lhs, rhs=hs, ratio=lhs / hs)

        g = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=1.0)
        lam = duhamel_field(g, win)
        rhs_x = x_norm(g, cfg.s, -0.5 + _DUHAMEL_DELTA)
        if rhs_x > 0:
            lhs = x_norm(lam, cfg.s, 0.5 + _DUHAMEL_DELTA)
            duhamel_x.add(sample=i, lhs=lhs, rhs=rhs_x, ratio=lhs / rhs_x)
        else:
            duhamel_x.skip()
        rhs_y = x_norm(g, cfg.s, -0.5) + z_tilde_norm(g, cfg.s, -1.0)
        if rhs_y > 0:
            lhs = y_norm(lam, cfg.s)
            duhamel_y.add(sample=i, lhs=lhs, rhs=rhs_y, ratio=lhs / rhs_y)
        else:
            duhamel_y.skip()

        u = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=1.5, real=True)
        b_hi, b_lo = 0.375, 0.125
        for t_loc in (win.t_span / 2, win.t_span / 4, win.t_span / 8):
            loc = localize(u, t_loc)
            denom = t_loc ** (b_hi - b_lo) * x_norm(loc, cfg.s, b_hi)
            if denom > 0:
                lhs = x_norm(loc, cfg.s, b_lo)
                time_factor.add(
                    sample=i, T=t_loc, lhs=lhs, rhs=denom, ratio=lhs / denom
                )
            else:
                time_factor.skip()

        x38 = x_norm(u, 0.0, 0.375)
        if x38 > 0:
            l4 = spacetime_lebesgue(u, 4)
            tl4 = spacetime_tilde_lebesgue(u, 4)
            strichartz.add(
                sample=i, l4=l4, tilde_l4=tl4, x38=x38,
                ratio=l4 / x38, ratio_tilde=tl4 / x38, ratio_l4_tilde=l4 / tl4,
            )
        else:
            strichartz.skip()

        z0 = z_norm(u, cfg.s, 0.0)
        if z0 > 0:
            sup_h = max(
                sobolev_norm(ComplexField(win.spatial, u.time_slice(m)), cfg.s)
                for m in range(0, win.num_times, max(1, win.num_times // 16))
            )
            embedding.add(sample=i, sup_hs=sup_h, z=z0, ratio=sup_h / z0)
        else:
            embedding.skip()

    return [homogeneous, duhamel_x, duhamel_y, time_factor, strichartz, embedding]
