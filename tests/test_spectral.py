"""Grid, transform contract, multipliers and norms."""

import ast
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import convolve

import bogl
from bogl.lp import decompose, phi_shell
from bogl.spectral import (
    _band_product,
    _reband,
    ComplexField,
    RealField,
    SpatialGrid,
    make_grid,
    derivative,
    hilbert,
    project,
    projection_symbol,
    fractional,
    free_propagate,
    lebesgue_norm,
    sobolev_norm,
    pointwise_product,
    random_field,
    translate,
)


def test_make_grid_basic():
    g = make_grid(8, 1.0)
    assert g.dx == pytest.approx(np.pi / 4, abs=0)
    assert sorted(g.xi) == pytest.approx([-4, -3, -2, -1, 0, 1, 2, 3])
    assert g.dx * g.n == pytest.approx(2 * np.pi, rel=1e-15)

    g2 = make_grid(8, 2.0)
    assert sorted(g2.xi) == pytest.approx([-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5])
    # equal arguments give one grid object, so its cached arrays are shared
    assert make_grid(8, 2) is g2 and make_grid(8, 2.0).xi is g2.xi

    g3 = make_grid(256, 1.0)
    assert g3.n == 256 and g3.length == pytest.approx(2 * np.pi)


def test_grids_are_equal_and_hash_alike_by_n_and_lambda():
    g = make_grid(16, 1.0)
    g.xi  # a cached array is not part of the identity
    fresh = SpatialGrid(16, 1.0)
    assert g is not fresh and g == fresh and hash(g) == hash(fresh)
    for other in (make_grid(32, 1.0), make_grid(16, 2.0), (16, 1.0)):
        assert g != other
    assert len({g, fresh, make_grid(16, 2.0)}) == 2


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(6, 1.0)
    with pytest.raises(ValueError):
        make_grid(4, 1.0)
    with pytest.raises(ValueError):
        make_grid(64, 0.5)


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_round_trip_and_plancherel(n):
    g = make_grid(n, 1.0)
    rng = np.random.default_rng(n)
    f = random_field(g, rng, decay=0.5)
    back = RealField.from_samples(g, f.samples)
    rel = np.max(np.abs(back.coefficients - f.coefficients)) / np.max(
        np.abs(f.coefficients)
    )
    assert rel < 1e-12
    l2 = lebesgue_norm(f, 2)
    par = np.sqrt(g.length * np.sum(np.abs(f.coefficients) ** 2))
    assert abs(l2 - par) / l2 < 1e-12


def test_nyquist_zeroed_and_hermitian_enforced():
    g = make_grid(8, 1.0)
    coeff = np.zeros(8, dtype=complex)
    coeff[4] = 1.0  # the Nyquist slot
    f = RealField(g, coeff)
    assert np.all(f.coefficients == 0)
    bad = np.zeros(8, dtype=complex)
    bad[1] = 1.0  # no conjugate partner
    with pytest.raises(ValueError):
        RealField(g, bad)


def test_hilbert_trig_identities():
    g = make_grid(64, 1.0)
    cos = RealField.from_samples(g, np.cos(g.x))
    sin = RealField.from_samples(g, np.sin(g.x))
    assert np.max(np.abs(hilbert(cos).samples - sin.samples)) < 1e-13
    assert np.max(np.abs(hilbert(sin).samples + cos.samples)) < 1e-13
    const = RealField.from_samples(g, np.ones(g.n))
    assert lebesgue_norm(hilbert(const), 2) == 0.0


def test_hilbert_squared_is_minus_identity_mean_zero():
    g = make_grid(256, 1.0)
    f = random_field(g, np.random.default_rng(0), decay=1.0)
    hh = hilbert(hilbert(f))
    assert np.max(np.abs(hh.samples + f.samples)) < 1e-13 * max(
        1.0, np.max(np.abs(f.samples))
    )


def test_projections_algebra():
    g = make_grid(256, 1.0)
    rng = np.random.default_rng(1)
    f = random_field(g, rng, decay=0.5, mean_zero=False)
    plus, minus = project(f, "plus"), project(f, "minus")
    mean = f.coefficients[0]
    total = plus.coefficients + minus.coefficients
    total[0] += mean
    assert np.max(np.abs(total - f.coefficients)) < 1e-14

    lo, hi = project(f, "lo"), project(f, "hi")
    assert np.max(np.abs(lo.coefficients + hi.coefficients - f.coefficients)) < 1e-14

    # idempotence (plateau masks are 0/1 on the unit-scale integer lattice)
    for which in ("plus", "minus", "hi", "lo", "HI", "LO"):
        once = project(f, which)
        twice = project(once, which)
        assert np.max(np.abs(twice.coefficients - once.coefficients)) < 1e-14

    # mutual consistency P_{+hi} = P_+ P_hi = P_hi P_+
    a = project(f, "plus_hi")
    b = project(project(f, "hi"), "plus")
    c = project(project(f, "plus"), "hi")
    assert np.max(np.abs(a.coefficients - b.coefficients)) < 1e-14
    assert np.max(np.abs(a.coefficients - c.coefficients)) < 1e-14


def test_plus_projection_of_cosine():
    g = make_grid(64, 1.0)
    cos = RealField.from_samples(g, np.cos(g.x))
    p = project(cos, "plus")
    expected = 0.5 * np.exp(1j * g.x)
    assert np.max(np.abs(p.samples - expected)) < 1e-13


def test_hilbert_equals_projection_combination():
    g = make_grid(256, 1.0)
    f = random_field(g, np.random.default_rng(2), decay=1.0)
    lhs = hilbert(f)
    rhs = -1j * project(f, "plus") + 1j * project(f, "minus")
    assert np.max(np.abs(lhs.coefficients - rhs.coefficients)) < 1e-14


def test_sharp_high_projection_support():
    g = make_grid(64, 1.0)
    coeff = np.zeros(g.n, dtype=complex)
    for k in (1, 4, 7):
        coeff[k] = 1.0
        coeff[-k] = 1.0
    f = RealField(g, coeff)
    assert lebesgue_norm(project(f, "HI"), 2) == 0.0
    assert np.max(np.abs(project(f, "LO").coefficients - f.coefficients)) < 1e-15


def test_fractional_potentials():
    g = make_grid(64, 1.0)
    cos = RealField.from_samples(g, np.cos(g.x))
    b = fractional(cos, "bessel", 1.0)
    assert np.max(np.abs(b.samples - np.sqrt(2) * np.cos(g.x))) < 1e-13
    r = fractional(cos, "riesz", 0.5)
    assert np.max(np.abs(r.samples - np.cos(g.x))) < 1e-13
    f = random_field(g, np.random.default_rng(3))
    r0 = fractional(f, "riesz", 0.0)
    assert np.max(np.abs(r0.coefficients - f.coefficients)) < 1e-15
    shifted = RealField.from_samples(g, f.samples + 1.0)
    with pytest.raises(ValueError):
        fractional(shifted, "riesz", -0.5)


def test_free_propagate():
    g = make_grid(64, 1.0)
    e2 = ComplexField.from_samples(g, np.exp(2j * g.x))
    out = free_propagate(e2, 0.5)
    assert np.max(np.abs(out.samples - np.exp(-2j) * np.exp(2j * g.x))) < 1e-13
    f = random_field(g, np.random.default_rng(4))
    assert np.max(np.abs(free_propagate(f, 0.0).coefficients - f.coefficients)) == 0.0
    round_trip = free_propagate(free_propagate(f, 0.7), -0.7)
    assert np.max(np.abs(round_trip.coefficients - f.coefficients)) < 1e-13
    # unitary in L2
    assert abs(
        lebesgue_norm(free_propagate(f, 2.3), 2) - lebesgue_norm(f, 2)
    ) < 1e-13 * lebesgue_norm(f, 2)


def test_lebesgue_norms_closed_forms():
    g = make_grid(64, 1.0)
    cos = RealField.from_samples(g, np.cos(g.x))
    one = RealField.from_samples(g, np.ones(g.n))
    assert lebesgue_norm(cos, 2) == pytest.approx(np.sqrt(np.pi), rel=1e-13)
    assert lebesgue_norm(one, np.inf) == pytest.approx(1.0, abs=1e-15)
    assert lebesgue_norm(cos, 4) ** 4 == pytest.approx(3 * np.pi / 4, rel=1e-13)


def test_sobolev_norms():
    g = make_grid(64, 1.0)
    cos = RealField.from_samples(g, np.cos(g.x))
    assert sobolev_norm(cos, 0.0) == pytest.approx(np.sqrt(np.pi), rel=1e-13)
    # direct coefficient-sum oracle: 2*pi * sum (1+xi^2)|c|^2 over xi = +-1
    oracle = np.sqrt(2 * np.pi * (2 * 0.25 + 2 * 0.25))
    assert sobolev_norm(cos, 1.0) == pytest.approx(oracle, rel=1e-13)
    assert oracle == pytest.approx(np.sqrt(2 * np.pi), rel=1e-15)
    zero = RealField.from_samples(g, np.zeros(g.n))
    assert sobolev_norm(zero, 0.37) == 0.0


def test_oversampled_product_exactness():
    # product of band-limited fields with enough headroom is exact
    g = make_grid(64, 1.0)
    f = RealField.from_samples(g, np.cos(3 * g.x))
    h = RealField.from_samples(g, np.sin(5 * g.x))
    prod = pointwise_product(f, h)
    expected = np.cos(3 * g.x) * np.sin(5 * g.x)
    assert np.max(np.abs(prod.samples - expected)) < 1e-13


# ----------------------------------------------------------------------------
# Reference: the product formed from samples on a 4x refined lattice and
# truncated to the coarse band.  pointwise_product must agree with it.
# ----------------------------------------------------------------------------


def _ref_pointwise_product(f, g, oversample=4):
    n, nf, half = f.grid.n, f.grid.n * oversample, f.grid.n // 2

    def upsample(c):
        fine = np.zeros(nf, dtype=np.complex128)
        fine[:half] = c[:half]
        fine[nf - half :] = c[n - half :]
        return np.fft.ifft(fine) * nf

    chat = np.fft.fft(upsample(f.coefficients) * upsample(g.coefficients)) / nf
    coeff = np.zeros(n, dtype=np.complex128)
    coeff[:half] = chat[:half]
    coeff[n - half :] = chat[nf - half :]
    coeff[half] = 0.0
    return coeff


@pytest.mark.parametrize("n", [16, 32])
@pytest.mark.parametrize("real", [True, False])
def test_pointwise_product_matches_oversampled_reference(n, real):
    g = make_grid(n, 1.0)
    rng = np.random.default_rng(n)
    f = random_field(g, rng, decay=0.5)
    h = random_field(g, rng, decay=0.5)
    if not real:
        f, h = project(f, "plus"), project(h, "minus")
    prod = pointwise_product(f, h).coefficients
    ref = _ref_pointwise_product(f, h)
    assert np.max(np.abs(prod - ref)) <= 1e-13 * np.max(np.abs(ref))


def _ref_band(coeff, shape):
    """coeff re-banded to `shape` through index arrays of signed modes."""
    out = np.zeros(shape, dtype=np.complex128)
    modes = [np.r_[0 : h, -h:0] for h in (min(a, b) // 2 for a, b in zip(coeff.shape, shape))]
    out[np.ix_(*(k % b for k, b in zip(modes, shape)))] = coeff[
        np.ix_(*(k % a for k, a in zip(modes, coeff.shape)))
    ]
    return out


def _lattice_product(a, b, shape):
    """a*b formed from samples on a lattice of the given shape, cut to the band of a."""
    size = np.prod(shape)
    pa = np.fft.ifftn(_ref_band(a, shape)) * size
    pb = np.fft.ifftn(_ref_band(b, shape)) * size
    return _ref_band(np.fft.fftn(pa * pb) / size, a.shape)


@pytest.mark.parametrize("shape", [(32,), (16, 32)], ids=["1d", "2d"])
def test_full_band_product_lattice_length(shape):
    rng = np.random.default_rng(0)
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2))
    # direct convolution on the modes -L/2..L/2-1 of each axis (the full
    # product carries -L..L-2), cut back to that band
    full = convolve(np.fft.fftshift(a), np.fft.fftshift(b), method="direct")
    direct = np.fft.ifftshift(full[tuple(slice(n // 2, n // 2 + n) for n in shape)])
    tol = 1e-13 * np.max(np.abs(direct))
    assert np.max(np.abs(_band_product(a, b) - direct)) < tol
    fine = tuple(3 * n // 2 for n in shape)
    assert np.max(np.abs(_lattice_product(a, b, fine) - direct)) < tol
    # one point fewer on either axis aliases
    for axis in range(len(shape)):
        short = tuple(n - (i == axis) for i, n in enumerate(fine))
        assert np.max(np.abs(_lattice_product(a, b, short) - direct)) > 1e-3


@pytest.mark.parametrize("shape", [(3,), (8,), (5, 8), (1, 16), (4, 6), (7, 9, 2)])
def test_reband_to_own_shape_is_a_copy(shape):
    rng = np.random.default_rng(len(shape))
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(_reband(x, x.shape), x)


def test_translate_is_spectral_shift():
    g = make_grid(128, 1.0)
    f = RealField.from_samples(g, np.cos(2 * g.x))
    moved = translate(f, 0.3)
    assert np.max(np.abs(moved.samples - np.cos(2 * (g.x - 0.3)))) < 1e-12


def _real_preserving(xi):
    """(name, operation, symbol) for each multiplier with m(-xi) = conj m(xi)."""
    ops = [
        ("hilbert", hilbert, -1j * np.sign(xi)),
        ("derivative", derivative, 1j * xi),
        ("derivative2", lambda f: derivative(f, 2), (1j * xi) ** 2),
        ("riesz", lambda f: fractional(f, "riesz", 0.5), np.abs(xi) ** 0.5),
        ("bessel", lambda f: fractional(f, "bessel", -1.0), (1.0 + xi**2) ** -0.5),
        ("free", lambda f: free_propagate(f, 0.3), np.exp(-1j * 0.3 * np.abs(xi) * xi)),
        ("translate", lambda f: translate(f, 0.7), np.exp(-1j * xi * 0.7)),
        ("real scalar", lambda f: 2.5 * f, 2.5),
    ]
    for which in ("hi", "lo", "HI", "LO"):
        ops.append((which, lambda f, w=which: project(f, w), projection_symbol(which, xi)))
    ops.append(("shell 2", lambda f: dict(decompose(f).shells)[2], phi_shell(xi, 2)))
    return ops


def test_result_class_follows_the_operation():
    # the class of a result is fixed by the operation and the inputs'
    # classes, never by how close the coefficients are to Hermitian
    g = make_grid(32, 1.0)
    rng = np.random.default_rng(11)
    c = random_field(g, rng, decay=0.5, mean_zero=False).coefficients
    near = c.copy()
    near[3] += 3.3e-14j  # within HERMITIAN_TOL of Hermitian
    for name, op, sym in _real_preserving(g.xi):
        for coeff in (c, near):
            out = op(ComplexField(g, coeff))
            assert type(out) is ComplexField, name
            assert np.array_equal(out.coefficients, coeff * sym), name
        assert type(op(RealField(g, c))) is RealField, name
    real, const = RealField(g, c), RealField.from_samples(g, np.ones(g.n))
    for which in ("plus", "minus", "plus_hi", "plus_HI", "minus_hi"):
        assert type(project(real, which)) is ComplexField, which
        zero = project(const, which)  # no content at xi != 0
        assert type(zero) is ComplexField and not np.any(zero.coefficients), which
    # sums, differences and products are real only when both inputs are
    a = ComplexField(g, c)
    b = ComplexField(g, random_field(g, rng, decay=1.0).coefficients)
    for f, h in ((a, b), (a, real), (real, a)):
        for out in (f + h, f - h, pointwise_product(f, h)):
            assert type(out) is ComplexField
    for out in (real + real, real - real, pointwise_product(real, real),
                np.float64(0.5) * real, real * 3):
        assert type(out) is RealField
    assert type(1j * real) is ComplexField and type((1 + 0j) * real) is ComplexField


def test_random_field_rejects_empty_band():
    grid = make_grid(16, 1.0)
    for max_mode in (0, -3):
        with pytest.raises(ValueError, match="max_mode"):
            random_field(grid, np.random.default_rng(0), max_mode=max_mode)


# The functions of the package that may call a numpy FFT transform: the pair
# that every module transforms with, the stepper's real pair (both normalised
# with numpy's norm="forward") and the padded, unnormalised tau convolutions
# of the region split.  The frequency and shift helpers carry no transform.
_TRANSFORM_SITES = {
    ("spectral", "_samples"),
    ("spectral", "_analyze"),
    ("dynamics", "ETDRK4Stepper.nonlinear"),
    ("bilinear", "_region_parts"),
}
_FFT_HELPERS = {"fftfreq", "rfftfreq", "fftshift", "ifftshift"}


def _fft_uses(tree: ast.AST) -> list:
    """(enclosing function's qualified name, what) for every numpy FFT
    transform named in tree and every import of an FFT module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            where = ".".join(scope)
            if (isinstance(child, ast.Attribute) and child.attr not in _FFT_HELPERS
                    and ast.unparse(child.value) in ("np.fft", "numpy.fft")):
                found.append((where, child.attr))
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                names = [getattr(child, "module", None) or ""]
                names += [a.name for a in child.names]
                if any("fft" in name for name in names):
                    found.append((where, ast.unparse(child)))
            visit(child, scope)

    visit(tree, ())
    return found


def test_fft_transforms_only_at_the_named_sites():
    stray, seen = [], set()
    for path in sorted(Path(bogl.__file__).parent.glob("*.py")):
        for where, what in _fft_uses(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.stem, where) in _TRANSFORM_SITES:
                seen.add((path.stem, where))
            else:
                stray.append(f"{path.name}: {where or '<module>'} uses {what}")
    assert not stray
    assert seen == _TRANSFORM_SITES  # the scan reaches every named site


def _power_of_two_tests(tree: ast.AST) -> list:
    """Enclosing function's qualified name of every x & (x - 1) in tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.BinOp) and isinstance(child.op, ast.BitAnd)
                    and ast.unparse(child.right) == f"{ast.unparse(child.left)} - 1"):
                found.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_power_of_two_test_only_in_is_power_of_two():
    sites = []
    for path in sorted(Path(bogl.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sites += [f"{path.stem}.{where}" for where in _power_of_two_tests(tree)]
    assert sites == ["spectral._is_power_of_two"]
