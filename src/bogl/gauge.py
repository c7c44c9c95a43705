"""Periodic gauge transform: primitive, W = P_+(e^{-iF/2}), evolution residual,
high-frequency reconstruction, and the Lipschitz/multiplication probes.

On the torus the primitive is exact: F_hat(0) = 0, F_hat(xi) = u_hat(xi)/(i xi).
With W = P_+(e^{-iF/2}) and w = W_x, a mean-zero solution of the evolution
satisfies

    w_t - i w_xx = -d/dx P_+( W P_-(u_x) ) + (i/4) P0(F_x^2) w,

exactly (P0 is the spatial mean; P_+ of [mean + negative-frequency part of
e^{-iF/2}] times P_-(u_x) vanishes identically, which is what reduces the
full exponential to W inside the product).

Exponentials are not band-limited: e^{+-iF/2} is sampled on a lattice of
nf = oversample*n points (default 4x) and kept on its band [-nf/2, nf/2 - 1].
Each product with it is formed on the shortest lattice that is exact for the
modes its result keeps, and none needs more than nf points:
  - gauge_residual's P_+(P_+e^{-iF/2} P_-u_x) keeps 0 < k < n/2 and is
    formed on n points: the true product carries [1 - n/2, n - 2], so every
    alias k +- n misses it;
  - reconstruct_high's P_{+HI} terms keep 8 lambda <= k < nf/2.  The two
    with one factor of each sign band are formed on nf points (every alias
    k +- nf misses the product band), and the low band P_lo(e^{-iF/2} u) is
    a few direct sums (its docstring gives the bounds);
  - exp_multiplication_probe keeps the whole fine band and goes through
    spectral._band_product on 3nf/2 points, as does the product form of w
    that the tests check gauge_w against (tests/oracles.py).
The only approximation left is the spectral tail of the exponential itself.

e^{-iF/2} is formed in one place, _exponential, which takes coefficient
arrays whose leading axes are a batch and whose last axis is x, so one call
forms it for a stack of time slices; exponential_pair is its one-field form.

Projections are index bands (_band), not nf-point tables: a sign or HI
projection is one run of ones in FFT order, the smooth hi cutoff adds its
few fractional eta entries at lambda < |k| < 2 lambda, and "lo" is an index
list with its values.  A check over a trajectory forms each snapshot's
exponential once (exponential_pair) and gives it to both ResidualWindow.add
and reconstruct_high, in one pass over the states.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .dynamics import Trajectory
from .spectral import (
    ComplexField,
    Field,
    RealField,
    SpatialGrid,
    _analyze,
    _band_product,
    _lp_sum,
    _real_coefficients,
    _reband,
    _samples,
    derivative,
    fine_frequencies,
    lebesgue_norm,
    project,
    projection_symbol,
    translate,
)

__all__ = [
    "translate_to_zero_mean",
    "primitive",
    "gauge_W",
    "gauge_w",
    "exponential_pair",
    "GaugeResidualReport",
    "ResidualWindow",
    "gauge_residual",
    "ReconstructionReport",
    "reconstruct_high",
    "primitive_gap",
    "exp_multiplication_probe",
]

# the gauge's mean-zero tolerance: primitive, and everything built on it,
# takes a field as mean zero when |u_hat(0)| <= MEAN_TOL * max(max |u_hat|, 1)
MEAN_TOL = 1e-12


# ----------------------------------------------------------------------------
# fine-lattice helpers: coefficient arrays of length factor*n in FFT order
# ----------------------------------------------------------------------------


def _embed(coeff: np.ndarray, factor: int) -> np.ndarray:
    return _reband(coeff, coeff.shape[:-1] + (coeff.shape[-1] * factor,))


def _truncate(fine: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    out = _reband(fine, fine.shape[:-1] + (grid.n,))
    out[..., grid.n // 2] = 0.0
    return out


@dataclass(frozen=True)
class _Band:
    """The symbol of a projection on a lattice, in FFT order: 1 on the run
    `ones` of consecutive indices, values[i] at index[i] (ascending, outside
    the run) and 0 elsewhere."""

    ones: slice
    index: np.ndarray
    values: np.ndarray


@lru_cache(maxsize=64)
def _band(grid: SpatialGrid, factor: int, which: str) -> _Band:
    """projection_symbol's `which` on the lattice of factor*n points.

    Every symbol used here is 0 or 1 at each |xi| >= 8 (the HI edge; eta
    is constant past 2), so it is evaluated only at the modes |k| <= 8 lambda
    + 1 and continued from there to each end.  A side that continues with
    ones ends the run; every other nonzero entry goes to the index list,
    which is all of "lo"."""
    nf = grid.n * factor
    h = min(nf // 2, math.ceil(8 * grid.period_scale) + 2)
    j = np.r_[0:h, nf - h : nf]
    sym = projection_symbol(which, fine_frequencies(grid, factor, j))
    ones = slice(0, 0)
    if h < nf // 2:
        if sym[h - 1] == 1.0 and sym[h] == 1.0:
            raise ValueError(f"{which!r} is not one run of ones")
        if sym[h - 1] == 1.0:  # the run ends at the last mode k = nf/2 - 1
            start = h
            while start > 0 and sym[start - 1] == 1.0:
                start -= 1
            ones = slice(start, nf // 2)
        elif sym[h] == 1.0:  # the run starts at the first mode k = -nf/2
            stop = h
            while stop < 2 * h and sym[stop] == 1.0:
                stop += 1
            ones = slice(nf // 2, j[stop - 1] + 1)
    inside = (j >= ones.start) & (j < ones.stop)
    rest = (sym != 0.0) & ~inside
    index, values = j[rest], sym[rest]
    for a in (index, values):
        a.flags.writeable = False
    return _Band(ones, index, values)


def _project(a: np.ndarray, band: _Band, inplace: bool = False) -> np.ndarray:
    """a times the band's symbol along the last axis, in a new array (or in
    a itself).  The products are those of multiplying by the symbol, except
    that a cut entry is +0.0 where that gives a zero of either sign."""
    kept = a[..., band.index] * band.values
    if inplace:
        out = a
        out[..., : band.ones.start] = 0.0
        out[..., band.ones.stop :] = 0.0
    else:
        out = np.zeros_like(a)
        out[..., band.ones] = a[..., band.ones]
    out[..., band.index] = kept
    return out


def _coarse_plus(fine: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """P_+ of fine coefficients, cut to the coarse band: the cut commutes with
    P_+, so it is made first, in a new n-point array."""
    return _project(_truncate(fine, grid), _band(grid, 1, "plus"), inplace=True)


def _dx_band(a: np.ndarray, band: _Band, grid: SpatialGrid, factor: int) -> None:
    """d/dx in place on the band's entries of a, which is 0 elsewhere."""
    for part in (band.ones, band.index):
        a[..., part] *= 1j * fine_frequencies(grid, factor, part)


def _nonzero_mean(mean, peak) -> np.ndarray:
    """|mean| > MEAN_TOL * max(peak, 1), peak the largest |u_hat|."""
    return np.abs(mean) > MEAN_TOL * np.maximum(peak, 1.0)


def _primitive_coefficients(coeff: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Coefficients u_hat(xi)/(i xi) of the zero-mean primitive of each row,
    before RealField symmetrizes them; every row must have mean zero."""
    if np.any(_nonzero_mean(coeff[..., 0], np.max(np.abs(coeff), axis=-1))):
        raise ValueError("primitive needs a mean-zero field")
    out = np.zeros_like(coeff)
    nz = xi != 0
    out[..., nz] = coeff[..., nz] / (1j * xi[nz])
    return out


def _exponential(
    coeff: np.ndarray, grid: SpatialGrid, factor: int
) -> tuple[np.ndarray, np.ndarray]:
    """(samples, coefficients) of e^{-iF/2} on the fine lattice of factor*n
    points, for each row of the RealField coefficients coeff, F the
    primitive of the row.  A caller that needs only the coefficients takes
    [1], and the samples are freed with the tuple."""
    prim = _real_coefficients(_primitive_coefficients(coeff, grid.xi))
    fine = _embed(prim, factor)
    # an owned copy, so the complex samples are freed before exp allocates
    phase = _samples(fine, axes=(-1,), out=fine).real.copy()
    del fine
    out = -0.5j * phase
    del phase
    samples = np.exp(out, out=out)
    return samples, _analyze(samples, axes=(-1,))


# ----------------------------------------------------------------------------
# public operations
# ----------------------------------------------------------------------------


def translate_to_zero_mean(u: RealField, mean_shift: float, t: float) -> RealField:
    """One slice of the Galilean change of unknown: u(t, x - t*mean) - mean.

    mean_shift = -mean undoes it: u_tilde(t, x + t*mean) + mean."""
    shifted = translate(u, mean_shift * t)
    coeff = shifted.copy_coefficients()
    coeff[0] -= mean_shift
    return RealField(u.grid, coeff)


def primitive(u: RealField) -> RealField:
    """Unique periodic zero-mean F with F_x = u; requires mean-zero u."""
    return RealField(u.grid, _primitive_coefficients(u.coefficients, u.grid.xi))


def gauge_W(u: RealField, oversample: int = 4) -> ComplexField:
    """W = P_+(e^{-iF/2}), the positive-frequency part of the gauge factor."""
    return ComplexField(u.grid, _coarse_plus(exponential_pair(u, oversample)[1], u.grid))


def gauge_w(u: RealField, oversample: int = 4) -> ComplexField:
    """w = d/dx W (exact multiplier identity on the coefficients)."""
    return ComplexField(u.grid, gauge_W(u, oversample).coefficients * (1j * u.grid.xi))


def exponential_pair(u: RealField, oversample: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """(samples, coefficients) of e^{-iF/2}, F = primitive(u), on the fine
    lattice of oversample*n points: what ResidualWindow.add and
    reconstruct_high take, so one snapshot's exponential is formed once."""
    return _exponential(u.coefficients, u.grid, oversample)


@dataclass(frozen=True)
class GaugeResidualReport:
    times: np.ndarray
    residuals: np.ndarray
    mean_term_magnitudes: np.ndarray

    def rows(self) -> list[dict]:
        return [
            {"t": float(t), "residual_L2": float(r), "mean_term_L2": float(m)}
            for t, r, m in zip(self.times, self.residuals, self.mean_term_magnitudes)
        ]


def _residual_terms(v: RealField, em: np.ndarray):
    """(w, bil, P0(u^2)) of one snapshot, em the coefficients of its e^{-iF/2}
    on nf >= n points: w = d/dx P_+(e^{-iF/2}) and bil = d/dx
    P_+(P_+e^{-iF/2} P_-u_x), both cut to the coarse band, with no nf-point
    copy of em."""
    grid, n = v.grid, v.grid.n
    w = _coarse_plus(em, grid) * (1j * grid.xi)
    # bil keeps 0 < k < n/2 of P_+e^{-iF/2} P_-u_x.  With P_-u_x on
    # [-n/2, 0), only e^{-iF/2}'s modes 1..n-1 reach that band; P_+ keeps
    # those below nf/2, the fine coefficients 1..min(n, nf/2) - 1, stored at
    # index j mod n.  The true product then carries [1 - n/2, n - 2], and
    # every alias k +- n of a kept k lies outside it: the product is exact
    # on n points.
    head = min(n, em.shape[-1] // 2)
    em_head = np.zeros(n, dtype=np.complex128)
    em_head[1:head] = em[1:head]
    em_head = _samples(em_head, out=em_head)
    # the coarse lattice is the fine lattice of factor 1
    ux_minus = _project(derivative(v).coefficients, _band(grid, 1, "minus"))
    em_head *= _samples(ux_minus)
    prod = _analyze(em_head, out=em_head)
    bil = _project(prod, _band(grid, 1, "plus"), inplace=True) * (1j * grid.xi)
    return w, bil, float(np.mean(np.asarray(v.samples) ** 2))


class ResidualWindow:
    """gauge_residual one snapshot at a time.

    add() takes the states in time order, each with the fine coefficients of
    its e^{-iF/2} (on any lattice of nf >= n points, read from their
    length); the residual of a state is formed as soon as the next one is
    in.  Between states only what a later residual needs is kept: the w of
    the last two states and the bilinear term and P0(u^2) of the last, so
    memory does not grow with the snapshot count.  report() gives the rows
    of the states added so far.
    """

    def __init__(self, times, include_mean_term: bool = True):
        times = np.asarray(times, dtype=np.float64)
        if len(times) < 3:
            raise ValueError("need at least 3 snapshots for a centered difference")
        dts = np.diff(times)
        if not dts[0] > 0 or np.max(np.abs(dts - dts[0])) > 1e-10 * dts[0]:
            raise ValueError("snapshots are not uniformly spaced at a positive step")
        self._dt = float(dts[0])
        self._times = times
        self._include_mean_term = include_mean_term
        self._window = deque()
        self._added = 0
        self._rows = ([], [], [])

    def add(self, v: RealField, em: np.ndarray) -> None:
        if _nonzero_mean(v.mean, np.max(np.abs(v.coefficients))):
            raise ValueError("gauge residual needs mean-zero states")
        window = self._window
        window.append(_residual_terms(v, em))
        self._added += 1
        if len(window) < 3:
            return
        grid = v.grid
        (w_prev, _, _), (w, bil, p0), (w_next, _, _) = window
        mean_term = 0.25j * p0 * w
        rhs = -bil + (mean_term if self._include_mean_term else 0.0)
        wt = (w_next - w_prev) / (2.0 * self._dt)
        lhs = wt - 1j * (1j * grid.xi) ** 2 * w  # w_t - i w_xx
        times, residuals, magnitudes = self._rows
        times.append(float(self._times[self._added - 2]))
        residuals.append(lebesgue_norm(ComplexField(grid, lhs - rhs), 2))
        magnitudes.append(lebesgue_norm(ComplexField(grid, mean_term), 2))
        # the oldest state is done, and the middle one is needed only as the
        # next residual's w_prev
        window.popleft()
        window[0] = (w, None, None)

    def report(self) -> GaugeResidualReport:
        return GaugeResidualReport(*(np.array(column) for column in self._rows))


def gauge_residual(
    traj: Trajectory,
    oversample: int = 4,
    include_mean_term: bool = True,
) -> GaugeResidualReport:
    """L2 residual of the gauge evolution equation at interior snapshots.

    w_t is a centered difference of stored snapshots, so the residual is a
    genuine test of the evolution identity, dominated by the O(dt_snap^2)
    differencing error.  include_mean_term=False ablates (i/4) P0(F_x^2) w.

    The states are read once each, in order, through a ResidualWindow.
    """
    window = ResidualWindow(traj.times, include_mean_term)
    for v in traj.states:
        window.add(v, exponential_pair(v, oversample)[1])
    return window.report()


def _dx_samples(
    em: np.ndarray, band: _Band, grid: SpatialGrid, factor: int, inplace: bool = False
) -> np.ndarray:
    """The samples of 2i d/dx (band em), formed in one new nf-point array (or
    in em itself)."""
    a = _project(em, band, inplace)
    _dx_band(a, band, grid, factor)
    np.multiply(2j, a, out=a)
    return _samples(a, out=a)


def _mirror_band(em: np.ndarray, band: _Band) -> np.ndarray:
    """The band's part of _mirror(em), the coefficients of the conjugate,
    formed at the band's entries only.  The run must not hold index 0."""
    nf = em.shape[-1]
    out = np.zeros_like(em)
    start, stop = band.ones.start, band.ones.stop
    np.conjugate(em[..., nf - stop + 1 : nf - start + 1][..., ::-1],
                 out=out[..., start:stop])
    out[..., band.index] = np.conjugate(em[..., -band.index % nf]) * band.values
    return out


def _span(band: _Band) -> slice:
    """The shortest slice of indices that holds every nonzero entry of band."""
    ends = [band.ones.start, band.ones.stop] if band.ones.stop > band.ones.start else []
    if band.index.size:
        ends += [int(band.index[0]), int(band.index[-1]) + 1]
    return slice(min(ends), max(ends)) if ends else slice(0, 0)


def _roll_sum(
    a: np.ndarray, shifts: np.ndarray, weights: np.ndarray, span: slice
) -> np.ndarray:
    """sum_m weights[m] * np.roll(a, shifts[m]) at the indices of span only,
    summed in the order of m from 0 + the first term, with no rolled copy."""
    total = np.zeros(a.shape[:-1] + (span.stop - span.start,), dtype=a.dtype)
    for shift, weight in zip(shifts, weights):
        term = np.take(a, np.arange(span.start, span.stop) - shift, axis=-1, mode="wrap")
        total += np.multiply(weight, term, out=term)
    return total


def _fine_l2(a: np.ndarray, grid: SpatialGrid) -> float:
    """sqrt(L sum |a_k|^2) of fine coefficients, with one real work array."""
    s = np.abs(a)
    return float(np.sqrt(grid.length * np.sum(np.square(s, out=s))))


@dataclass(frozen=True)
class ReconstructionReport:
    rhs: ComplexField
    lhs_norm: float
    rhs_norm: float
    gap_abs: float
    rel_gap: float


def reconstruct_high(
    u: RealField,
    oversample: int = 4,
    exponential: tuple[np.ndarray, np.ndarray] | None = None,
) -> ReconstructionReport:
    """High-frequency inversion of the gauge: P_{+HI} u from gauge data.

    Evaluates P_{+HI}u = 2i P_{+HI}(e^{iF/2} w_hi)
                       + P_{+HI}(P_{+hi}e^{iF/2} P_lo(e^{-iF/2} u))
                       + 2i P_{+HI}(P_{+HI}e^{iF/2} d/dx P_{-hi}e^{-iF/2}),
    with w_hi = d/dx P_{+hi}(e^{-iF/2}).  With the sharp |xi|>=8 split the
    inner projector insertions are lossless, so the relative gap measures
    only aliasing of the oversampled exponentials.

    exponential, if given, is exponential_pair(u, oversample), formed once
    for this and the residual: its two arrays are the work arrays here, and
    are overwritten.

    The exponentials carry the fine band [-nf/2, nf/2), nf = oversample*n,
    and P_{+HI} keeps 8 lambda <= k < nf/2.  Each term has one factor of one
    sign or of the low band, so each is exact on a lattice of at most nf:
      - T1 and T3 on nf points.  The factors carry [-nf/2, nf/2) and
        (0, nf/2) (T1), or [8 lambda, nf/2) and [-nf/2, 0) (T3); every alias
        k +- nf of a kept k falls outside the product band.  On nf points
        the samples of e^{-iF/2} are exp(-iF/2) itself, and e^{+iF/2} is
        their conjugate, so T1's first factor costs no transform.
      - P_lo(e^{-iF/2} u) keeps |m| < 2 lambda: a few direct sums of u's
        modes k against e^{-iF/2}'s modes m - k, these taken only inside
        [-nf/2, nf/2) (at oversample 1 a wrapped index would alias).
      - T2 = P_{+hi}e^{+iF/2} P_lo(...) is one shifted add per low mode m;
        a shift that carries a mode past nf/2 lands on P_{+hi}'s zeros.

    The mirror e^{+iF/2} is formed only on P_{+hi}'s entries, T2 only on
    P_{+HI}'s, and the two exponential arrays are reused in place, so at
    most three nf-point arrays are alive at once (with T2 on less than half
    of one).  Every product keeps the operand order of the formulas above:
    with fused multiply-adds, a*b and b*a can round differently.
    """
    grid = u.grid
    nf = grid.n * oversample
    if exponential is not None and exponential[1].shape[-1] != nf:
        raise ValueError(
            f"the exponential is on {exponential[1].shape[-1]} points, but oversample "
            f"{oversample} needs the {nf}-point lattice ({oversample} x {grid.n})"
        )
    lo, plus_hi, minus_hi, plus_HI = (
        _band(grid, oversample, which) for which in ("lo", "plus_hi", "minus_hi", "plus_HI")
    )
    em_samples, em = exponential_pair(u, oversample) if exponential is None else exponential
    del exponential
    # the low band: inner_lo[m] = eta(xi_m) sum_k em[m - k] u[k]
    lo_modes = np.where(lo.index < nf // 2, lo.index, lo.index - nf)
    j = lo_modes[:, None] - grid.k[None, :]
    em_j = np.where((j >= -nf // 2) & (j < nf // 2), em[j % nf], 0.0)
    inner_lo = (em_j @ u.coefficients) * lo.values
    del j, em_j
    # T1 + T3, summed on the nf samples; e^{+iF/2} is the conjugate of the
    # samples of e^{-iF/2}
    prod = np.conj(em_samples, out=em_samples)
    del em_samples
    prod *= _dx_samples(em, plus_hi, grid, oversample)  # 2i w_hi
    # T2 is formed first, on P_{+HI}'s span only, so that P_{+hi}e^{+iF/2}
    # can turn into T3's P_{+HI}e^{+iF/2} in place
    span = _span(plus_HI)
    ep_hi = _mirror_band(em, plus_hi)
    t2 = _roll_sum(ep_hi, lo_modes, inner_lo, span)
    hi = _samples(_project(ep_hi, plus_HI, inplace=True), out=ep_hi)
    del ep_hi
    # em's last use: T3's factor is formed in its place
    t3 = _dx_samples(em, minus_hi, grid, oversample, inplace=True)
    del em
    prod += np.multiply(hi, t3, out=hi)
    del hi, t3
    rhs_fine = _analyze(prod, out=prod)
    del prod
    rhs_fine[..., span] += t2
    _project(rhs_fine, plus_HI, inplace=True)
    lhs_fine = _project(_embed(u.coefficients, oversample), plus_HI, inplace=True)

    lhs_norm = _fine_l2(lhs_fine, grid)
    rhs_norm = _fine_l2(rhs_fine, grid)
    rhs = _truncate(rhs_fine, grid)
    gap = _fine_l2(np.subtract(rhs_fine, lhs_fine, out=rhs_fine), grid)
    # normalize against the data size as well: for low-band u both sides
    # vanish and the meaningful scale of the identity is |u| itself
    denom = max(lhs_norm, lebesgue_norm(u, 2), 1e-300)
    return ReconstructionReport(
        rhs=ComplexField(grid, rhs),
        lhs_norm=lhs_norm,
        rhs_norm=rhs_norm,
        gap_abs=gap,
        rel_gap=gap / denom,
    )


def primitive_gap(
    u1: RealField, u2: RealField, require_same_low: bool = False
) -> tuple[float, float]:
    """(||F1 - F2||_Linf, ||u1 - u2||_L2) for Lipschitz-bound reporting."""
    if require_same_low:
        d = project(u1, "LO").coefficients - project(u2, "LO").coefficients
        scale = max(float(np.max(np.abs(u1.coefficients))), 1e-300)
        if np.max(np.abs(d)) > 1e-12 * max(scale, 1.0):
            raise ValueError("low-frequency parts differ (P_LO u1 != P_LO u2)")
    gap = primitive(u1) - primitive(u2)
    return lebesgue_norm(gap, np.inf), lebesgue_norm(u1 - u2, 2)


@dataclass(frozen=True)
class ExpMultiplicationResult:
    ratio: float
    lhs: float
    rhs: float


def exp_multiplication_probe(
    f_source: RealField,
    g: Field,
    alpha: float,
    q: int,
    oversample: int = 4,
) -> ExpMultiplicationResult:
    """Ratio ||J^a(e^{-iF/2} g)||_Lq / ((1+||u||_L2) ||J^a g||_Lq).

    u = f_source (mean zero), F = primitive(u).  Both norms are evaluated on
    the same oversampled lattice, so at a = 0 the ratio is exactly <= 1
    (|e^{-iF/2}| = 1 pointwise).
    """
    if q not in (2, 4):
        raise ValueError("q must be 2 or 4")
    if not (0 <= alpha <= 1.0 / q):
        raise ValueError("alpha must lie in [0, 1/q]")
    grid = f_source.grid
    xi = fine_frequencies(grid, oversample, slice(None))
    em = exponential_pair(f_source, oversample)[1]
    gfine = _embed(g.coefficients, oversample)
    prod = _band_product(em, gfine)
    bessel = (1.0 + xi**2) ** (alpha / 2.0)
    dx_fine = grid.length / len(xi)
    lhs = _lp_sum(_samples(prod * bessel), dx_fine, q)
    rhs = (1.0 + lebesgue_norm(f_source, 2)) * _lp_sum(
        _samples(gfine * bessel), dx_fine, q
    )
    return ExpMultiplicationResult(ratio=lhs / rhs if rhs > 0 else np.nan, lhs=lhs, rhs=rhs)
