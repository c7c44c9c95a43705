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
Products with it are exact on that band (spectral._band_product), except the
one in gauge_residual whose result is cut to the coarse band: that one is
exact on the nf lattice itself (the bound is stated where it is formed).  The
only approximation left is the spectral tail of the exponential itself.

The fine-lattice kernels take coefficient arrays whose leading axes are a
batch and whose last axis is x, so one call forms e^{-iF/2} for a stack of
time slices; _gauge_exponential is the one-field entry point.
"""

from __future__ import annotations

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


def _fine_exponential(coeff: np.ndarray, grid: SpatialGrid, factor: int) -> np.ndarray:
    """Fine-lattice coefficients of e^{-iF/2} for each row of the RealField
    coefficients coeff, F the primitive of the row."""
    prim = _real_coefficients(_primitive_coefficients(coeff, grid.xi))
    phase = _samples(_embed(prim, factor), axes=(-1,)).real
    return _analyze(np.exp(-0.5j * phase), axes=(-1,))


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


def gauge_residual(
    traj: Trajectory,
    oversample: int = 4,
    include_mean_term: bool = True,
) -> GaugeResidualReport:
    """L2 residual of the gauge evolution equation at interior snapshots.

    w_t is a centered difference of stored snapshots, so the residual is a
    genuine test of the evolution identity, dominated by the O(dt_snap^2)
    differencing error.  include_mean_term=False ablates (i/4) P0(F_x^2) w.
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
    xi = _fine_xi(grid, oversample)
    plus = _fine_mask(grid, oversample, "plus")
    minus = _fine_mask(grid, oversample, "minus")
    ws, rhss, mean_terms = [], [], []
    for v in traj.states:
        em_plus = _gauge_exponential(v, oversample) * plus
        w_fine = _fdx(em_plus, xi)
        ux_minus = _embed(derivative(v).coefficients, oversample) * minus
        # P_+ e^{-iF/2} carries the modes (0, nf/2) and P_- u_x carries
        # [-n/2, 0), so their product carries (-n/2, nf/2).  P_+ and the
        # truncation below keep only 0 < k < n/2, whose aliases k - nf < -n/2
        # and k + nf > nf/2 lie outside that band for any oversample >= 1:
        # the product is exact on the nf lattice, with no padding.
        prod = _analyze(_samples(em_plus) * _samples(ux_minus))
        bil = _fdx(prod * plus, xi)
        p0 = float(np.mean(np.asarray(v.samples) ** 2))
        mean_term = 0.25j * p0 * w_fine
        rhs = -bil + (mean_term if include_mean_term else 0.0)
        ws.append(_truncate(w_fine, grid))
        rhss.append(_truncate(rhs, grid))
        mean_terms.append(_truncate(mean_term, grid))
    dt = float(dts[0])
    times, residuals, magnitudes = [], [], []
    for k in range(1, len(ws) - 1):
        wt = (ws[k + 1] - ws[k - 1]) / (2.0 * dt)
        lhs = wt - 1j * (1j * grid.xi) ** 2 * ws[k]  # w_t - i w_xx
        res = ComplexField(grid, lhs - rhss[k])
        times.append(float(traj.times[k]))
        residuals.append(lebesgue_norm(res, 2))
        magnitudes.append(lebesgue_norm(ComplexField(grid, mean_terms[k]), 2))
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
    """
    grid = u.grid
    xi = _fine_xi(grid, oversample)
    mask = partial(_fine_mask, grid, oversample)
    em = _gauge_exponential(u, oversample)
    ep = _mirror(em)  # e^{+iF/2} is the conjugate of e^{-iF/2}
    ufine = _embed(u.coefficients, oversample)
    inner_lo = _band_product([(em, ufine)]) * mask("lo")
    w_hi = _fdx(em * mask("plus_hi"), xi)
    # the three P_{+HI} terms keep the whole fine band: one exact sum
    rhs_fine = mask("plus_HI") * _band_product([
        (ep, 2j * w_hi),
        (ep * mask("plus_hi"), inner_lo),
        (ep * mask("plus_HI"), 2j * _fdx(em * mask("minus_hi"), xi)),
    ])
    lhs_fine = ufine * mask("plus_HI")

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
