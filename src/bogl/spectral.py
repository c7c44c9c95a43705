"""Periodic grids, DFT contract, Fourier multipliers and basic norms.

Everything lives on the torus R/2*pi*lambda*Z sampled at N equispaced
points.  Coefficients follow the Fourier-series convention

    u_hat(xi_k) = (1/N) sum_j u(x_j) exp(-i xi_k x_j),   xi_k = k/lambda,

so that a band-limited function satisfies u(x) = sum_k u_hat(xi_k) e^{i xi_k x}
and Plancherel reads  int |u|^2 dx = 2*pi*lambda * sum_k |u_hat(xi_k)|^2.

The Nyquist mode k = -N/2 has no conjugate partner and is zeroed on field
construction; the sign projections P_± exclude xi = 0 from both halves.

A result's class follows from the operation and its inputs' classes, never
from the coefficient values.  A multiplier whose symbol has
m(-xi) = conj m(xi) (hilbert, derivative, fractional, free_propagate,
translate, an even projection) keeps the input's class; a sign projection
gives a ComplexField; a sum, difference or pointwise product is a RealField
only when both inputs are, and a scalar multiple only for a real scalar.  The
RealField constructor is the one Hermitian test: it rejects coefficients more
than HERMITIAN_TOL from Hermitian and symmetrizes the rest exactly.

The private array kernels (field storage, transforms, re-banding, band
products) also take stacks of slices: leading axes are a batch and the last
axis is x, and each row comes out as the one-slice call would give it.

_samples/_analyze are the transform pair of every module, normalised as
above (numpy's norm="forward", as is the stepper's real pair); the padded
tau convolutions of bilinear's region split are the only other transforms.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

HERMITIAN_TOL = 1e-12  # relative slack accepted before exact symmetrization

__all__ = [
    "SpatialGrid",
    "RealField",
    "ComplexField",
    "Field",
    "make_grid",
    "hilbert",
    "project",
    "projection_symbol",
    "fractional",
    "free_propagate",
    "lebesgue_norm",
    "sobolev_norm",
    "derivative",
    "translate",
    "pointwise_product",
    "random_field",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpatialGrid:
    """Equispaced periodic lattice and its frequency dual.

    n points on the torus of circumference 2*pi*period_scale; frequencies
    are k/period_scale for k in {-n/2, ..., n/2 - 1}.
    """

    n: int
    period_scale: float

    def __post_init__(self):
        if not _is_power_of_two(self.n) or self.n < 8:
            raise ValueError(f"grid size must be a power of two >= 8, got {self.n}")
        if not (self.period_scale >= 1 and math.isfinite(self.length)):
            raise ValueError("period scale must be >= 1 with a finite period "
                             f"2*pi*lambda, got {self.period_scale}")

    @property
    def length(self) -> float:
        return 2.0 * np.pi * self.period_scale

    @property
    def dx(self) -> float:
        return self.length / self.n

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.n) * self.dx

    @cached_property
    def k(self) -> np.ndarray:
        """Integer mode numbers in FFT order: 0, 1, ..., n/2-1, -n/2, ..., -1."""
        return np.fft.fftfreq(self.n, d=1.0 / self.n).astype(np.int64)

    @cached_property
    def xi(self) -> np.ndarray:
        """Frequencies k/lambda in FFT order."""
        return self.k / self.period_scale

    def max_frequency(self) -> float:
        """Largest |xi| on the lattice (the Nyquist line)."""
        return (self.n // 2) / self.period_scale


@lru_cache(maxsize=64)
def make_grid(n: int, period_scale: float = 1.0) -> SpatialGrid:
    """Build the periodic grid; rejects non-power-of-two n and period_scale < 1.

    Equal arguments give the same grid object, so fields built apart (one per
    snapshot file, say) share its cached k, xi and x arrays."""
    return SpatialGrid(n, float(period_scale))


def _complex_coefficients(coeff: np.ndarray) -> np.ndarray:
    """The coefficients a ComplexField stores for each row of coeff (leading
    axes are a batch, the last axis is x): a copy with the Nyquist mode zeroed."""
    c = np.array(coeff, dtype=np.complex128)
    c[..., c.shape[-1] // 2] = 0.0
    return c


def _mirror(coeff: np.ndarray) -> np.ndarray:
    """conj(c[-k]) along the last axis: the coefficients of the conjugate."""
    c = np.concatenate((coeff[..., :1], coeff[..., :0:-1]), axis=-1)
    return np.conjugate(c, out=c)


def _real_coefficients(coeff: np.ndarray) -> np.ndarray:
    """The coefficients a RealField stores for each row of coeff: the
    ComplexField copy, checked Hermitian to HERMITIAN_TOL and then symmetrized
    exactly so realness cannot drift."""
    c = _complex_coefficients(coeff)
    mirror = _mirror(c)
    gap = np.max(np.abs(c - mirror), axis=-1)
    slack = HERMITIAN_TOL * np.maximum(np.max(np.abs(c), axis=-1), 1.0)
    if np.any(gap > slack):
        raise ValueError("coefficients are not Hermitian-symmetric")
    c = 0.5 * (c + mirror)
    c[..., c.shape[-1] // 2] = 0.0
    return c


class _FieldBase:
    """One space slice with its spectral representation.

    Canonical storage is the coefficient array in FFT order; samples are the
    exact band-limited synthesis on the grid.
    """

    grid: SpatialGrid
    _sample_dtype = np.complex128
    _stored = staticmethod(_complex_coefficients)

    def __init__(self, grid: SpatialGrid, coefficients: np.ndarray):
        coefficients = np.asarray(coefficients, dtype=np.complex128)
        if coefficients.shape != (grid.n,):
            raise ValueError("coefficient array does not match the grid")
        self.grid = grid
        self._coeff = self._stored(coefficients)

    @classmethod
    def from_samples(cls, grid: SpatialGrid, samples):
        """The field with these grid samples, read as the class's sample dtype
        (float64 for RealField, complex128 for ComplexField)."""
        samples = np.asarray(samples, dtype=cls._sample_dtype)
        if samples.shape != (grid.n,):
            raise ValueError("sample array does not match the grid")
        return cls(grid, _analyze(samples))

    @property
    def coefficients(self) -> np.ndarray:
        return self._coeff

    def copy_coefficients(self) -> np.ndarray:
        return self._coeff.copy()

    def _synthesize(self) -> np.ndarray:
        return _samples(self._coeff)

    def __add__(self, other):
        return _joint_class(self, other)(self.grid, self._coeff + other._coeff)

    def __sub__(self, other):
        return _joint_class(self, other)(self.grid, self._coeff - other._coeff)

    def __mul__(self, scalar):
        cls = type(self) if np.isrealobj(scalar) else ComplexField
        return cls(self.grid, self._coeff * scalar)

    __rmul__ = __mul__

    @property
    def mean(self) -> complex:
        return complex(self._coeff[0])


class RealField(_FieldBase):
    """Real-valued field; coefficients are Hermitian-symmetric."""

    _sample_dtype = np.float64
    _stored = staticmethod(_real_coefficients)

    @property
    def samples(self) -> np.ndarray:
        return self._synthesize().real


class ComplexField(_FieldBase):
    """Complex-valued field; no symmetry constraint."""

    @property
    def samples(self) -> np.ndarray:
        return self._synthesize()


Field = Union[RealField, ComplexField]


def _joint_class(f: Field, g: Field) -> type:
    """The class of a sum or product of f and g: RealField when both are real,
    else ComplexField.  Raises if they live on different grids."""
    if f.grid != g.grid:
        raise ValueError("fields live on different grids")
    both_real = isinstance(f, RealField) and isinstance(g, RealField)
    return RealField if both_real else ComplexField


def hilbert(f: Field) -> Field:
    """Hilbert transform, symbol -i*sgn(xi) with sgn(0) = 0."""
    return type(f)(f.grid, f.coefficients * (-1j * np.sign(f.grid.xi)))


def derivative(f: Field, order: int = 1) -> Field:
    return type(f)(f.grid, f.coefficients * (1j * f.grid.xi) ** order)


def projection_symbol(which: str, xi: np.ndarray) -> np.ndarray:
    """Mask values of the named projection at frequencies xi.

    plus/minus are the sharp sign projections (xi = 0 in neither half);
    hi/lo use the smooth cutoff eta; HI/LO are the sharp |xi| >= 8 split,
    which keeps the high-frequency reconstruction identity exact.  The
    shell bumps phi_N are lp.phi_shell.
    """
    from . import lp  # cyclic at import time otherwise

    xi = np.asarray(xi, dtype=np.float64)
    if which == "plus":
        return (xi > 0).astype(np.float64)
    if which == "minus":
        return (xi < 0).astype(np.float64)
    if which == "hi":
        return 1.0 - lp.eta(xi)
    if which == "lo":
        return lp.eta(xi)
    if which == "HI":
        return (np.abs(xi) >= 8.0).astype(np.float64)
    if which == "LO":
        return (np.abs(xi) < 8.0).astype(np.float64)
    if which == "plus_hi":
        return projection_symbol("plus", xi) * projection_symbol("hi", xi)
    if which == "plus_HI":
        return projection_symbol("plus", xi) * projection_symbol("HI", xi)
    if which == "minus_hi":
        return projection_symbol("minus", xi) * projection_symbol("hi", xi)
    raise ValueError(f"unknown projection {which!r}")


def project(f: Field, which: str) -> Field:
    """Apply a named frequency projection (see projection_symbol)."""
    sym = projection_symbol(which, f.grid.xi)
    even = np.array_equal(sym, sym[-f.grid.k])  # the sign projections are not
    return (type(f) if even else ComplexField)(f.grid, f.coefficients * sym)


def fractional(f: Field, kind: str, s: float) -> Field:
    """Riesz |xi|^s or Bessel (1+xi^2)^{s/2} potential of order -s."""
    xi = f.grid.xi
    if kind == "riesz":
        if s < 0:
            if abs(f.coefficients[0]) > 1e-13 * max(np.max(np.abs(f.coefficients)), 1.0):
                raise ValueError("riesz potential with s < 0 needs a mean-zero field")
            mag = np.abs(xi)
            vals = np.zeros_like(mag)
            nz = mag > 0
            vals[nz] = mag[nz] ** s
        else:
            vals = np.abs(xi) ** s
        return type(f)(f.grid, f.coefficients * vals)
    if kind == "bessel":
        return type(f)(f.grid, f.coefficients * (1.0 + xi**2) ** (s / 2.0))
    raise ValueError(f"unknown potential kind {kind!r}")


def free_propagate(f: Field, t: float) -> Field:
    """Free dispersive group: coefficient at xi multiplied by exp(-i t |xi| xi)."""
    xi = f.grid.xi
    return type(f)(f.grid, f.coefficients * np.exp(-1j * t * np.abs(xi) * xi))


def translate(f: Field, shift: float) -> Field:
    """f(. - shift), computed spectrally (exact for band-limited fields)."""
    return type(f)(f.grid, f.coefficients * np.exp(-1j * f.grid.xi * shift))


def _lp_sum(samples: np.ndarray, cell: float, p) -> float:
    """Riemann-sum L^p norm of samples on cells of measure `cell` (max at p = inf);
    p in {1, 2, 4, inf}."""
    if p not in (1, 2, 4, np.inf):
        raise ValueError("supported exponents: 1, 2, 4, inf")
    a = np.abs(samples)
    if p == np.inf:
        return float(np.max(a))
    return float((np.sum(a**p) * cell) ** (1.0 / p))


def lebesgue_norm(f: Field, p) -> float:
    """Riemann-sum L^p norm on the sample grid; p in {1, 2, 4, inf}."""
    return _lp_sum(f.samples, f.grid.dx, p)


def sobolev_norm(f: Field, s: float) -> float:
    """H^s norm (2*pi*lambda * sum (1+xi^2)^s |u_hat|^2)^{1/2}."""
    w = (1.0 + f.grid.xi**2) ** s
    return float(np.sqrt(f.grid.length * np.sum(w * np.abs(f.coefficients) ** 2)))


# ---------------------------------------------------------------------------
# Oversampled products.  Coefficient arrays are in FFT order on every axis
# they are transformed along (`axes`, default every axis; the other axes are
# a batch), and an axis of L points carries the modes [-L/2, L/2 - 1], so a
# product of two of them carries [-L, L - 2].  It is formed from samples on
# 3L/2 points (Orszag's 3/2 rule): every alias k +- 3L/2 of a kept mode k
# then lies outside [-L, L - 2], and no shorter lattice has that property.
# exp(i F) and friends are not band-limited; they are sampled on a finer band
# first.
# ---------------------------------------------------------------------------


def fine_frequencies(grid: SpatialGrid, factor: int, index) -> np.ndarray:
    """k/lambda on the lattice of nf = factor*n points, in FFT order, at index
    (a slice or an index array); for a power-of-two nf, fftfreq(nf, 1/nf)/lambda
    bit for bit."""
    nf = grid.n * factor
    j = np.arange(*index.indices(nf)) if isinstance(index, slice) else index
    return np.where(j < nf // 2, j, j - nf) / grid.period_scale


def _samples(coeff: np.ndarray, axes=None, out=None) -> np.ndarray:
    """The samples of coeff along axes, written to out (a new array if None;
    out may be coeff itself)."""
    return np.fft.ifftn(coeff, axes=axes, out=out, norm="forward")


def _analyze(samples: np.ndarray, axes=None, out=None) -> np.ndarray:
    """The coefficients of samples along axes, written to out (a new array if
    None; out may be samples itself)."""
    return np.fft.fftn(samples, axes=axes, out=out, norm="forward")


def _reband(coeff: np.ndarray, shape: tuple) -> np.ndarray:
    """The band of coeff on a lattice of the given shape: zero-padded along an
    axis that grows, cut to the modes [-L/2, L/2 - 1] along one that shrinks
    to L points, copied whole along one that keeps its length (a batch axis
    may have any length)."""
    out = np.zeros(shape, dtype=np.complex128)
    # per axis, the (source, target) slices of the modes >= 0 and of those < 0
    axes = []
    for a, b in zip(coeff.shape, shape):
        if a == b:
            axes.append(((slice(None), slice(None)),))
            continue
        h = min(a, b) // 2
        axes.append(((slice(h), slice(h)), (slice(a - h, a), slice(b - h, b))))
    for blocks in itertools.product(*axes):
        src, dst = zip(*blocks)
        out[dst] = coeff[src]
    return out


def _band_product(a: np.ndarray, b: np.ndarray, axes=None) -> np.ndarray:
    """Exact product a*b of same-shape coefficient arrays along `axes`
    (default every axis; the others are a batch), cut to their band: formed
    on 3L/2 points per transformed axis, in three transforms."""
    shape = a.shape
    along = range(len(shape)) if axes is None else [i % len(shape) for i in axes]
    fine = tuple(3 * n // 2 if i in along else n for i, n in enumerate(shape))
    prod = _samples(_reband(a, fine), axes) * _samples(_reband(b, fine), axes)
    return _reband(_analyze(prod, axes), shape)


def pointwise_product(f: Field, g: Field) -> Field:
    """Product f*g, exact on the band of the common grid."""
    cls = _joint_class(f, g)
    return cls(f.grid, _band_product(f.coefficients, g.coefficients))


def random_field(
    grid: SpatialGrid,
    rng: np.random.Generator,
    decay: float = 1.0,
    amplitude: float = 1.0,
    max_mode: int | None = None,
    mean_zero: bool = True,
) -> RealField:
    """Random real field with coefficients ~ CN(0,1) * (1+|xi|)^{-decay}
    on the modes 1 <= |k| <= max_mode, capped below the Nyquist mode."""
    if max_mode is not None and max_mode < 1:
        raise ValueError(f"max_mode must be >= 1, got {max_mode}")
    n = grid.n
    coeff = np.zeros(n, dtype=np.complex128)
    kmax = n // 2 - 1 if max_mode is None else min(max_mode, n // 2 - 1)
    z = rng.standard_normal(kmax) + 1j * rng.standard_normal(kmax)
    ks = np.arange(1, kmax + 1)
    shaped = z * (1.0 + ks / grid.period_scale) ** (-decay)
    coeff[1 : kmax + 1] = shaped
    coeff[-kmax:] = np.conj(shaped[::-1])
    if not mean_zero:
        coeff[0] = rng.standard_normal()
    # coeff is Hermitian by construction, so RealField stores it as it is
    peak = float(np.max(np.abs(_samples(coeff).real)))
    return RealField(grid, coeff * (amplitude / peak) if peak > 0 else coeff)
