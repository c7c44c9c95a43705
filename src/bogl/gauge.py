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
  - gauge_w_product_form and exp_multiplication_probe keep the whole fine
    band and go through spectral._band_product on 3nf/2 points.
The only approximation left is the spectral tail of the exponential itself.

The fine-lattice kernels take coefficient arrays whose leading axes are a
batch and whose last axis is x, so one call forms e^{-iF/2} for a stack of
time slices; _gauge_exponential is the one-field entry point.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache, partial

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
    _mirror,
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
    "gauge_w_product_form",
    "GaugeResidualReport",
    "gauge_residual",
    "ReconstructionReport",
    "reconstruct_high",
    "primitive_gap",
    "exp_multiplication_probe",
]


# ----------------------------------------------------------------------------
# fine-lattice helpers: coefficient arrays of length factor*n in FFT order
# ----------------------------------------------------------------------------


def _embed(coeff: np.ndarray, factor: int) -> np.ndarray:
    return _reband(coeff, coeff.shape[:-1] + (coeff.shape[-1] * factor,))


def _truncate(fine: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    out = _reband(fine, fine.shape[:-1] + (grid.n,))
    out[..., grid.n // 2] = 0.0
    return out


@lru_cache(maxsize=32)
def _fine_xi(grid: SpatialGrid, factor: int) -> np.ndarray:
    xi = fine_frequencies(grid, factor)
    xi.flags.writeable = False
    return xi


@lru_cache(maxsize=64)
def _fine_mask(grid: SpatialGrid, factor: int, which: str) -> np.ndarray:
    """Symbol of a named projection on the fine lattice, built once (read-only)."""
    mask = projection_symbol(which, _fine_xi(grid, factor))
    mask.flags.writeable = False
    return mask


def _fdx(a: np.ndarray, xi: np.ndarray) -> np.ndarray:
    return a * (1j * xi)


def _primitive_coefficients(coeff: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Coefficients u_hat(xi)/(i xi) of the zero-mean primitive of each row,
    before RealField symmetrizes them; every row must have mean zero."""
    scale = np.maximum(np.max(np.abs(coeff), axis=-1), 1.0)
    if np.any(np.abs(coeff[..., 0]) > 1e-12 * scale):
        raise ValueError("primitive needs a mean-zero field")
    out = np.zeros_like(coeff)
    nz = xi != 0
    out[..., nz] = coeff[..., nz] / (1j * xi[nz])
    return out


def _fine_exponential_samples(
    coeff: np.ndarray, grid: SpatialGrid, factor: int
) -> np.ndarray:
    """exp(-iF/2) sampled on the factor*n points of the fine lattice, for each
    row of the RealField coefficients coeff, F the primitive of the row."""
    prim = _real_coefficients(_primitive_coefficients(coeff, grid.xi))
    phase = _samples(_embed(prim, factor), axes=(-1,)).real
    return np.exp(-0.5j * phase)


def _fine_exponential(coeff: np.ndarray, grid: SpatialGrid, factor: int) -> np.ndarray:
    """Fine-lattice coefficients of e^{-iF/2} for each row of coeff (see
    _fine_exponential_samples)."""
    return _analyze(_fine_exponential_samples(coeff, grid, factor), axes=(-1,))


def _gauge_exponential(u: RealField, factor: int) -> np.ndarray:
    """Fine-lattice coefficients of e^{-iF/2} for F = primitive(u)."""
    return _fine_exponential(u.coefficients, u.grid, factor)


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
    w = _gauge_exponential(u, oversample) * _fine_mask(u.grid, oversample, "plus")
    return ComplexField(u.grid, _truncate(w, u.grid))


def gauge_w(u: RealField, oversample: int = 4) -> ComplexField:
    """w = d/dx W (exact multiplier identity on the coefficients)."""
    out = derivative(gauge_W(u, oversample))
    return out if isinstance(out, ComplexField) else ComplexField(u.grid, out.coefficients)


def gauge_w_product_form(u: RealField, oversample: int = 4) -> ComplexField:
    """w computed as -(i/2) P_+(e^{-iF/2} u); equals gauge_w up to aliasing."""
    em = _gauge_exponential(u, oversample)
    prod = _band_product([(em, _embed(u.coefficients, oversample))])
    w = -0.5j * (prod * _fine_mask(u.grid, oversample, "plus"))
    return ComplexField(u.grid, _truncate(w, u.grid))


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


def _residual_terms(v: RealField, oversample: int):
    """(w, bil, P0(u^2)) of one snapshot for gauge_residual: w = d/dx
    P_+(e^{-iF/2}) and bil = d/dx P_+(P_+e^{-iF/2} P_-u_x), both cut to the
    coarse band."""
    grid = v.grid
    em_plus = _gauge_exponential(v, oversample) * _fine_mask(grid, oversample, "plus")
    w = _truncate(_fdx(em_plus, _fine_xi(grid, oversample)), grid)
    # the coarse lattice is the fine lattice of factor 1
    ux_minus = derivative(v).coefficients * _fine_mask(grid, 1, "minus")
    # bil keeps 0 < k < n/2 of P_+e^{-iF/2} P_-u_x.  With P_-u_x on
    # [-n/2, 0), only e^{-iF/2}'s modes 1..n-1 reach that band; they are
    # the first n fine coefficients (at oversample 1 P_+ has zeroed those
    # past n/2), stored at index j mod n.  The true product then carries
    # [1 - n/2, n - 2], and every alias k +- n of a kept k lies outside
    # it: the product is exact on n points.
    prod = _analyze(_samples(em_plus[: grid.n]) * _samples(ux_minus))
    bil = _fdx(prod * _fine_mask(grid, 1, "plus"), grid.xi)
    return w, bil, float(np.mean(np.asarray(v.samples) ** 2))


def gauge_residual(
    traj: Trajectory,
    oversample: int = 4,
    include_mean_term: bool = True,
) -> GaugeResidualReport:
    """L2 residual of the gauge evolution equation at interior snapshots.

    w_t is a centered difference of stored snapshots, so the residual is a
    genuine test of the evolution identity, dominated by the O(dt_snap^2)
    differencing error.  include_mean_term=False ablates (i/4) P0(F_x^2) w.

    The snapshots stream through a window of three: each holds its w, its
    bilinear term and P0(u^2), and the residual of the middle one is formed
    as soon as the next is in, so memory does not grow with the snapshot
    count.
    """
    if len(traj.states) < 3:
        raise ValueError("need at least 3 snapshots for a centered difference")
    dts = np.diff(traj.times)
    if np.max(np.abs(dts - dts[0])) > 1e-10 * dts[0]:
        raise ValueError("snapshots are not uniformly spaced")
    grid = traj.grid
    for v in traj.states:
        if abs(v.mean.real) > 1e-10:
            raise ValueError("gauge residual needs mean-zero states")
    dt = float(dts[0])
    window = deque(maxlen=3)
    times, residuals, magnitudes = [], [], []
    for k, v in enumerate(traj.states):
        window.append(_residual_terms(v, oversample))
        if len(window) < 3:
            continue
        (w_prev, _, _), (w, bil, p0), (w_next, _, _) = window
        mean_term = 0.25j * p0 * w
        rhs = -bil + (mean_term if include_mean_term else 0.0)
        wt = (w_next - w_prev) / (2.0 * dt)
        lhs = wt - 1j * (1j * grid.xi) ** 2 * w  # w_t - i w_xx
        times.append(float(traj.times[k - 1]))
        residuals.append(lebesgue_norm(ComplexField(grid, lhs - rhs), 2))
        magnitudes.append(lebesgue_norm(ComplexField(grid, mean_term), 2))
    return GaugeResidualReport(
        np.array(times), np.array(residuals), np.array(magnitudes)
    )


@dataclass(frozen=True)
class ReconstructionReport:
    lhs: ComplexField
    rhs: ComplexField
    lhs_norm: float
    rhs_norm: float
    gap_abs: float
    rel_gap: float


def reconstruct_high(u: RealField, oversample: int = 4) -> ReconstructionReport:
    """High-frequency inversion of the gauge: P_{+HI} u from gauge data.

    Evaluates P_{+HI}u = 2i P_{+HI}(e^{iF/2} w_hi)
                       + P_{+HI}(P_{+hi}e^{iF/2} P_lo(e^{-iF/2} u))
                       + 2i P_{+HI}(P_{+HI}e^{iF/2} d/dx P_{-hi}e^{-iF/2}),
    with w_hi = d/dx P_{+hi}(e^{-iF/2}).  With the sharp |xi|>=8 split the
    inner projector insertions are lossless, so the relative gap measures
    only aliasing of the oversampled exponentials.

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

    Each nf-point array is released after its last use, so at most five are
    alive at once.  Every product keeps the operand order of the formulas
    above: with fused multiply-adds, a*b and b*a can round differently.
    """
    grid = u.grid
    nf = grid.n * oversample
    xi = _fine_xi(grid, oversample)
    mask = partial(_fine_mask, grid, oversample)
    em_samples = _fine_exponential_samples(u.coefficients, grid, oversample)
    em = _analyze(em_samples)
    # the low band: inner_lo[m] = eta(xi_m) sum_k em[m - k] u[k]
    lo = np.flatnonzero(mask("lo"))
    lo_modes = np.where(lo < nf // 2, lo, lo - nf)
    j = lo_modes[:, None] - grid.k[None, :]
    em_j = np.where((j >= -nf // 2) & (j < nf // 2), em[j % nf], 0.0)
    inner_lo = (em_j @ u.coefficients) * mask("lo")[lo]
    del em_j
    # T1 + T3, summed on the nf samples
    t1 = _samples(2j * _fdx(em * mask("plus_hi"), xi))  # 2i w_hi
    prod = np.conj(em_samples) * t1
    del em_samples, t1
    t3 = _samples(2j * _fdx(em * mask("minus_hi"), xi))
    ep = _mirror(em)  # e^{+iF/2} is the conjugate of e^{-iF/2}
    del em
    prod += _samples(ep * mask("plus_HI")) * t3
    del t3
    ep_hi = ep * mask("plus_hi")
    del ep
    t2 = sum(c * np.roll(ep_hi, m) for m, c in zip(lo_modes, inner_lo))
    del ep_hi
    rhs_fine = _analyze(prod)
    del prod
    rhs_fine += t2
    del t2
    rhs_fine = mask("plus_HI") * rhs_fine
    lhs_fine = _embed(u.coefficients, oversample) * mask("plus_HI")

    gap = float(np.sqrt(grid.length * np.sum(np.abs(rhs_fine - lhs_fine) ** 2)))
    lhs_norm = float(np.sqrt(grid.length * np.sum(np.abs(lhs_fine) ** 2)))
    rhs_norm = float(np.sqrt(grid.length * np.sum(np.abs(rhs_fine) ** 2)))
    # normalize against the data size as well: for low-band u both sides
    # vanish and the meaningful scale of the identity is |u| itself
    denom = max(lhs_norm, lebesgue_norm(u, 2), 1e-300)
    return ReconstructionReport(
        lhs=ComplexField(grid, _truncate(lhs_fine, grid)),
        rhs=ComplexField(grid, _truncate(rhs_fine, grid)),
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
    xi = _fine_xi(grid, oversample)
    em = _gauge_exponential(f_source, oversample)
    gfine = _embed(g.coefficients, oversample)
    prod = _band_product([(em, gfine)])
    bessel = (1.0 + xi**2) ** (alpha / 2.0)
    dx_fine = grid.length / len(xi)
    lhs = _lp_sum(_samples(prod * bessel), dx_fine, q)
    rhs = (1.0 + lebesgue_norm(f_source, 2)) * _lp_sum(
        _samples(gfine * bessel), dx_fine, q
    )
    return ExpMultiplicationResult(ratio=lhs / rhs if rhs > 0 else np.nan, lhs=lhs, rhs=rhs)
