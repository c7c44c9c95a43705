"""Space-time fields on a windowed slab and the dispersive-weighted norms.

A SpaceTimeField stores coefficients c(tau, xi), axis 0 time, with
u = sum c e^{i(xi x + tau t)}.  That layout is SpaceTimeGrid's alone: its
samples gives the values u(x_j, t_m) and to_slices/from_slices the spatial
coefficients of each time slice, so the norms, lifts and probes reach time
only through the grid's sigma and these three transforms.
The modulation variable is sigma = tau + |xi| xi, so the free evolution
populates the sigma = 0 line.  Weights use the bracket <v> = 1 + |v| (the
Sobolev operations in spectral.py use the Bessel bracket instead; both
conventions appear side by side in this problem and are kept per-module).

Norms, with L_x = 2 pi lambda, L_t = t_span, dtau = 2 pi / t_span:

    X^{s,b}:  ( L_x L_t  sum <sigma>^{2b} <xi>^{2s} |c|^2 )^{1/2}
    Z^{s,b}:  ( L_x sum_xi ( dtau sum_tau <sigma>^b <xi>^s |c| )^2 )^{1/2}
    Ztilde:   ||P_lo .||_Z + ( sum_N ||P_N .||_Z^2 )^{1/2}   (spatial shells)
    Y^s    =  X^{s,1/2} + Ztilde^{s,0}

The Duhamel term is one inverse DFT along tau, since e^{i sigma t} =
e^{i tau t} e^{i |xi| xi t}: no (time, tau, xi) table (duhamel_field).

The time localization to [0, T] multiplies each time slice by the scaled
cutoff window (plateau on the central half of [0, T]), the canonical extension
realizing the localized norms.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .lp import _tilde_sum, eta
from .reporting import ProbeReport, stream
from .spectral import (
    ComplexField,
    Field,
    SpatialGrid,
    _analyze,
    _is_power_of_two,
    _lp_sum,
    _samples,
    make_grid,
    random_field,
    sobolev_norm,
)

__all__ = [
    "SpaceTimeGrid",
    "SpaceTimeField",
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


def _cutoff(t: np.ndarray, t_end: float) -> np.ndarray:
    """Smooth cutoff over [0, t_end]: plateau on the central half."""
    return np.asarray(eta(4.0 * (t - t_end / 2.0) / t_end))


@dataclass(frozen=True)
class SpaceTimeGrid:
    spatial: SpatialGrid
    num_times: int
    t_span: float

    def __post_init__(self):
        m = self.num_times
        if m < 16 or not _is_power_of_two(m):
            raise ValueError("num_times must be a power of two >= 16")
        if not (np.isfinite(self.t_span) and self.t_span > 0):
            raise ValueError(f"t_span must be finite and positive, got {self.t_span}")

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
        return _cutoff(self.times, self.t_span)

    @property
    def dt(self) -> float:
        return self.t_span / self.num_times

    @property
    def cell(self) -> float:
        return self.spatial.dx * self.dt

    def samples(self, coeff: np.ndarray) -> np.ndarray:
        """The values u(x_j, t_m) of a coefficient table; row m is at times[m]."""
        return _samples(coeff)

    def to_slices(self, coeff: np.ndarray) -> np.ndarray:
        """The spatial coefficients of each time slice; row m is at times[m]."""
        return _samples(coeff, axes=(0,))

    def from_slices(self, slices) -> np.ndarray:
        """The coefficient table whose time slices are slices (to_slices's inverse)."""
        return _analyze(np.asarray(slices, dtype=np.complex128), axes=(0,))


class SpaceTimeField:
    """(tau, xi) coefficients of (x, t) data on a window grid; axis 0 is time."""

    def __init__(self, grid: SpaceTimeGrid, coefficients: np.ndarray):
        coefficients = np.asarray(coefficients, dtype=np.complex128).copy()
        if coefficients.shape != (grid.num_times, grid.spatial.n):
            raise ValueError("coefficient array does not match the grid")
        coefficients[grid.num_times // 2, :] = 0.0
        coefficients[:, grid.spatial.n // 2] = 0.0
        self.grid = grid
        self._coeff = coefficients

    @classmethod
    def from_slices(cls, grid: SpaceTimeGrid, slices) -> "SpaceTimeField":
        """The field whose spatial coefficients at times[m] are slices[m]."""
        return cls(grid, grid.from_slices(slices))

    @property
    def coefficients(self) -> np.ndarray:
        return self._coeff

    @property
    def samples(self) -> np.ndarray:
        return self.grid.samples(self._coeff)

    def slices(self) -> np.ndarray:
        """The spatial coefficients of each time slice: row m is at times[m]."""
        return self.grid.to_slices(self._coeff)

    def spatial_mask(self, mask: np.ndarray) -> "SpaceTimeField":
        return SpaceTimeField(self.grid, self._coeff * mask[None, :])


@lru_cache(maxsize=64)
def _weight(grid: SpaceTimeGrid, b: float, s: float) -> np.ndarray:
    """<sigma>^b <xi>^s on the grid, built once (read-only)."""
    w = _bracket(grid.sigma) ** b * _bracket(grid.spatial.xi)[None, :] ** s
    w.flags.writeable = False
    return w


def x_norm(f: SpaceTimeField, s: float, b: float) -> float:
    g = f.grid
    w = _weight(g, 2 * b, 2 * s)
    total = np.sum(w * np.abs(f.coefficients) ** 2)
    return float(np.sqrt(g.spatial.length * g.t_span * total))


def z_norm(f: SpaceTimeField, s: float, b: float) -> float:
    g = f.grid
    w = _weight(g, b, s)
    dtau = 2.0 * np.pi / g.t_span
    inner = dtau * np.sum(w * np.abs(f.coefficients), axis=0)
    return float(np.sqrt(g.spatial.length * np.sum(inner**2)))


def _shell_summed(f: SpaceTimeField, norm) -> float:
    """norm(P_lo f) + (sum_N norm(P_N f)^2)^{1/2} over the spatial shells."""
    return _tilde_sum(f.grid.spatial, lambda mask: norm(f.spatial_mask(mask)))


def z_tilde_norm(f: SpaceTimeField, s: float, b: float) -> float:
    return _shell_summed(f, lambda piece: z_norm(piece, s, b))


def y_norm(f: SpaceTimeField, s: float) -> float:
    return x_norm(f, s, 0.5) + z_tilde_norm(f, s, 0.0)


def spacetime_lebesgue(f: SpaceTimeField, p) -> float:
    return _lp_sum(f.samples, f.grid.cell, p)


def _l2_and_l4(f: SpaceTimeField) -> tuple[float, float]:
    """(|f|_{L2}, |f|_{L4}), both from one synthesis of the samples."""
    samples = f.samples
    return _lp_sum(samples, f.grid.cell, 2), _lp_sum(samples, f.grid.cell, 4)


def spacetime_tilde_lebesgue(f: SpaceTimeField, p) -> float:
    """Shell-summed space-time L^p (spatial Littlewood-Paley blocks)."""
    return _shell_summed(f, lambda piece: spacetime_lebesgue(piece, p))


def localize(f: SpaceTimeField, t_loc: float) -> SpaceTimeField:
    """Multiply by the cutoff scaled to [0, t_loc] (canonical localized extension)."""
    if not (0 < t_loc <= f.grid.t_span):
        raise ValueError("localization time must lie in (0, t_span]")
    w = _cutoff(f.grid.times, t_loc)
    return SpaceTimeField.from_slices(f.grid, f.slices() * w[:, None])


@lru_cache(maxsize=4)
def _phase_table(win: SpaceTimeGrid) -> np.ndarray:
    """The free-group phases exp(-i t |xi| xi) on the (time, xi) lattice of
    the window, built once (read-only)."""
    xi = win.spatial.xi
    table = np.exp(-1j * np.outer(win.times, np.abs(xi) * xi))
    table.flags.writeable = False
    return table


def free_evolution_field(f: Field, win: SpaceTimeGrid) -> SpaceTimeField:
    """Windowed free evolution eta(t) U(t) f, exact mode-by-mode phases."""
    if f.grid != win.spatial:
        raise ValueError("datum must live on the window's spatial grid")
    return SpaceTimeField.from_slices(
        win, _phase_table(win) * f.coefficients * win.window[:, None]
    )


def duhamel_field(g: SpaceTimeField, win: SpaceTimeGrid) -> SpaceTimeField:
    """eta(t) int_0^t U(t-t') g(t') dt' with exact per-bin phase quadrature.

    For each (xi, tau) bin of g the time integral is (e^{i sigma t}-1)/(i sigma)
    (or t on the resonant line), so no time-marching error enters the probe.
    With phi = |xi| xi and a = g_hat/(i sigma), the tau sum is one inverse DFT:

        row t = win.to_slices(a)(t) + e^{-i t phi} (d(t) - sum_tau a),

    where the bins with |sigma| < 1, on which 1/sigma would magnify the
    rounding of sigma, have a = 0 and are summed one by one into d.
    """
    if g.grid != win:
        raise ValueError("forcing must live on the target window grid")
    c, sig, t = g.coefficients, win.sigma, win.times[:, None]
    near = np.abs(sig) < 1.0
    a = np.divide(c, 1j * sig, out=np.zeros_like(c), where=~near)
    s, d = sig[near], np.zeros_like(c)
    env = np.divide(np.exp(1j * s * t) - 1.0, 1j * s, out=t + 0j * s,
                    where=np.abs(s) > 1e-14)
    np.add.at(d, (slice(None), np.nonzero(near)[1]), c[near] * env)
    hat_t = _phase_table(win) * (d - np.sum(a, axis=0)) + win.to_slices(a)
    return SpaceTimeField.from_slices(win, hat_t * win.window[:, None])


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
    coeff = z * _weight(win, -sigma_decay, -xi_decay)
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
    """An estimate probe's lattice on the 2 pi slab (n, num_times and
    period_scale), samples, seed and s; _sample_loop runs the draws."""

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


def _sample_loop(cfg: ProbeConfig, name: str, sample) -> None:
    """The one sample loop of every probe family: draw i of the family name
    reads only reporting.stream(cfg.seed, name, i), at decay
    _decay_schedule(i).  sample(rng, decay) returns a (report, row) pair per
    report; each row is added after sample=i, and a row of None is a skip.

    The draws run in k = min(usable CPUs, samples) processes, one contiguous
    block of draws each; restrict the CPUs with taskset to use fewer.  This
    process runs draw 0 first, so the per-grid caches are built once and
    inherited, then forks a worker for each later block and runs the first.
    Every process adds its block's rows and skips to its own copy of the
    reports.  A worker pickles what its block added past draw 0's down a
    pipe, and the workers' additions are appended here in block order, so
    the rows, skips and outputs do not depend on k.  A worker's exception is
    raised here as the serial loop would raise it, and a worker that dies
    without reporting raises RuntimeError.  Each process peaks at the serial
    loop's working set, so k of them hold k times as much memory."""
    k = max(1, min(len(os.sched_getaffinity(0)), cfg.samples))
    starts = [cfg.samples * j // k for j in range(k)] + [cfg.samples]
    reports: dict = {}  # the family's reports by name
    workers: dict = {}  # block -> (pid, read end of its pipe), until reaped
    block, counts = 0, {}  # this process's block; a worker's (rows, skips) at its fork
    try:
        i = 0
        while i < starts[block + 1]:
            for rep, row in sample(stream(cfg.seed, name, i), _decay_schedule(i)):
                reports[rep.name] = rep
                if row is None:
                    rep.skip()
                else:
                    rep.add(sample=i, **row)
            i += 1
            if i == 1:  # draw 0 has built the caches: fork the later blocks
                for j in range(1, k):
                    read, write = os.pipe()
                    try:
                        with warnings.catch_warnings():
                            # 3.12+ warns when the process has other threads;
                            # as an error it would lose the worker it forked
                            warnings.filterwarnings(
                                "default", "This process .* is multi-threaded",
                                DeprecationWarning)
                            pid = os.fork()
                    except BaseException:
                        os.close(read)
                        os.close(write)
                        raise
                    if pid == 0:
                        block, i, out = j, starts[j], write
                        counts = {key: (len(rep.rows), rep.skipped)
                                  for key, rep in reports.items()}
                        os.close(read)
                        for _, pipe in workers.values():
                            pipe.close()
                        workers.clear()
                        break
                    os.close(write)
                    workers[j] = (pid, open(read, "rb"))
        if block:
            _leave_worker(out, reports, counts, None)
        _join_workers(name, starts, workers, reports)
    except BaseException as exc:
        if block:
            _leave_worker(out, reports, counts, exc)
        raise
    finally:
        for pid, pipe in workers.values():  # left only when this process failed
            os.kill(pid, signal.SIGKILL)
            pipe.close()
            os.waitpid(pid, 0)


def _join_workers(name: str, starts: list, workers: dict, reports: dict) -> None:
    """Append each worker's rows and skips to reports, in block order, and raise
    the first exception a worker sent.  A worker leaves workers once reaped."""
    for j in sorted(workers):
        pid, pipe = workers[j]
        with pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        del workers[j]
        if code:
            how = f"was killed by signal {-code}" if code < 0 else f"exited with {code}"
            raise RuntimeError(f"the worker of {name} draws {starts[j]} to "
                               f"{starts[j + 1] - 1} {how}")
        added, error = pickle.loads(data)
        for key, (rows, skips) in added.items():
            reports[key].rows.extend(rows)
            reports[key].skipped += skips
        if error is not None:
            raise error


def _leave_worker(out: int, reports: dict, counts: dict, error) -> None:
    """A worker's end: pickle the rows and skips its block added to reports
    past counts, and its exception (None when its block ran through), down
    the pipe out, then exit at once, so that no buffer or exit handler
    copied from the parent runs twice."""
    code = 1
    try:
        added = {key: (reports[key].rows[rows:], reports[key].skipped - skips)
                 for key, (rows, skips) in counts.items()}
        try:
            pickle.loads(pickle.dumps(error))
        except Exception:  # an exception that does not survive pickling
            error = RuntimeError(f"{type(error).__name__}: {error}")
        with open(out, "wb") as fh:
            pickle.dump((added, error), fh, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _environment(cfg: ProbeConfig, win: SpaceTimeGrid, **extras) -> dict:
    """A probe report's environment: cfg and its window, then the family's extras."""
    return {"n": cfg.n, "num_times": cfg.num_times, "t_span": win.t_span,
            "period_scale": cfg.period_scale, "samples": cfg.samples,
            "seed": cfg.seed, "s": cfg.s, **extras}


def _ratio_row(lhs: float, rhs: float, **first) -> dict:
    """A row's lhs, rhs and ratio columns, after the columns first."""
    return {**first, "lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}


# the d of the Duhamel estimate X^{s,-1/2+d} -> X^{s,1/2+d}
_DUHAMEL_DELTA = 0.25


def linear_probes(cfg: ProbeConfig) -> list[ProbeReport]:
    """Empirical ratio reports for the homogeneous, Duhamel, time-factor and
    L4 embedding estimates; sample i draws from the stream ("linear", i)."""
    win = cfg.window()
    env = _environment(cfg, win)
    homogeneous = ProbeReport(
        "linear_homogeneous",
        "|window U(t)f|_{Y^s} <= C |f|_{H^s}",
        environment=env,
    )
    duhamel_x = ProbeReport(
        "linear_duhamel_x",
        "|window Duhamel(g)|_{X^{s,1/2+d}} <= C |g|_{X^{s,-1/2+d}}",
        environment=_environment(cfg, win, delta=_DUHAMEL_DELTA),
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
    s, b_hi, b_lo = cfg.s, 0.375, 0.125

    def sample(rng, decay):
        f = random_field(win.spatial, rng, decay=decay, amplitude=1.0)
        hs = sobolev_norm(f, s)
        pairs = [(homogeneous, None if hs == 0 else
                  _ratio_row(y_norm(free_evolution_field(f, win), s), hs))]

        g = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=1.0)
        lam = duhamel_field(g, win)
        rhs = x_norm(g, s, -0.5 + _DUHAMEL_DELTA)
        pairs.append((duhamel_x, None if not rhs > 0 else
                      _ratio_row(x_norm(lam, s, 0.5 + _DUHAMEL_DELTA), rhs)))
        rhs = x_norm(g, s, -0.5) + z_tilde_norm(g, s, -1.0)
        pairs.append((duhamel_y, None if not rhs > 0 else _ratio_row(y_norm(lam, s), rhs)))

        u = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=1.5, real=True)
        for t_loc in (win.t_span / 2, win.t_span / 4, win.t_span / 8):
            loc = localize(u, t_loc)
            rhs = t_loc ** (b_hi - b_lo) * x_norm(loc, s, b_hi)
            pairs.append((time_factor, None if not rhs > 0 else
                          _ratio_row(x_norm(loc, s, b_lo), rhs, T=t_loc)))

        x38 = x_norm(u, 0.0, 0.375)
        if x38 > 0:
            l4 = spacetime_lebesgue(u, 4)
            tl4 = spacetime_tilde_lebesgue(u, 4)
            pairs.append((strichartz, dict(
                l4=l4, tilde_l4=tl4, x38=x38,
                ratio=l4 / x38, ratio_tilde=tl4 / x38, ratio_l4_tilde=l4 / tl4,
            )))
        else:
            pairs.append((strichartz, None))

        z0 = z_norm(u, s, 0.0)
        if z0 > 0:
            slices = u.slices()
            sup_h = max(
                sobolev_norm(ComplexField(win.spatial, slices[m]), s)
                for m in range(0, win.num_times, max(1, win.num_times // 16))
            )
            pairs.append((embedding, dict(sup_hs=sup_h, z=z0, ratio=sup_h / z0)))
        else:
            pairs.append((embedding, None))
        return pairs

    _sample_loop(cfg, "linear", sample)
    return [homogeneous, duhamel_x, duhamel_y, time_factor, strichartz, embedding]
