"""Gauge transform: primitive, W/w, evolution residual, reconstruction,
Lipschitz gap and the exponential multiplication bound."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bogl
from bogl import gauge
from bogl.dynamics import LazyStates, SimConfig, Trajectory, simulate
from bogl.gauge import (
    exp_multiplication_probe,
    gauge_residual,
    gauge_w,
    gauge_W,
    primitive,
    primitive_gap,
    reconstruct_high,
    translate_to_zero_mean,
)
from bogl.spectral import (
    ComplexField,
    RealField,
    _mirror,
    derivative,
    fine_frequencies,
    lebesgue_norm,
    make_grid,
    projection_symbol,
    random_field,
)

from oracles import gauge_w_product_form


@pytest.fixture(scope="module")
def grid():
    return make_grid(128, 1.0)


def test_translate_to_zero_mean_at_time_zero(grid):
    u = RealField.from_samples(grid, 2.0 + np.cos(grid.x))
    mean = float(u.mean.real)
    tilde = translate_to_zero_mean(u, mean, 0.0)
    assert mean == pytest.approx(2.0, abs=1e-14)
    assert np.max(np.abs(tilde.samples - np.cos(grid.x))) < 1e-13
    mean2 = float(tilde.mean.real)
    again = translate_to_zero_mean(tilde, mean2, 0.0)
    assert mean2 == 0.0
    assert np.max(np.abs(again.samples - tilde.samples)) < 1e-15


def test_primitive_trig_and_inverse(grid):
    cos = RealField.from_samples(grid, np.cos(grid.x))
    assert np.max(np.abs(primitive(cos).samples - np.sin(grid.x))) < 1e-13
    sin2 = RealField.from_samples(grid, np.sin(2 * grid.x))
    assert np.max(np.abs(primitive(sin2).samples + 0.5 * np.cos(2 * grid.x))) < 1e-13
    u = random_field(grid, np.random.default_rng(0), decay=1.0)
    back = derivative(primitive(u))
    assert np.max(np.abs(back.coefficients - u.coefficients)) < 1e-12
    shifted = RealField.from_samples(grid, u.samples + 1.0)
    with pytest.raises(ValueError):
        primitive(shifted)


def test_gauge_zero_input(grid):
    zero = RealField.from_samples(grid, np.zeros(grid.n))
    assert lebesgue_norm(gauge_W(zero), 2) == 0.0
    assert lebesgue_norm(gauge_w(zero), 2) == 0.0


def test_gauge_small_amplitude_taylor(grid):
    a = 1e-4
    u = RealField.from_samples(grid, a * np.cos(grid.x))
    W = gauge_W(u)
    w = gauge_w(u)
    assert np.max(np.abs(W.samples + (a / 4) * np.exp(1j * grid.x))) < 10 * a**2
    assert np.max(np.abs(w.samples + (1j * a / 4) * np.exp(1j * grid.x))) < 10 * a**2


def test_gauge_chain_rule_identity(grid):
    u = random_field(grid, np.random.default_rng(1), decay=2.0, amplitude=0.8,
                     max_mode=10)
    w1 = gauge_w(u)
    w2 = gauge_w_product_form(u)
    scale = max(lebesgue_norm(w1, 2), 1e-300)
    assert lebesgue_norm(w1 - w2, 2) / scale < 1e-10


def test_gauge_state_invariants(grid):
    u0 = RealField.from_samples(
        grid, 0.3 + 0.5 * np.cos(grid.x) + 0.2 * np.sin(3 * grid.x)
    )
    mean_shift = float(u0.mean.real)
    u_tilde = translate_to_zero_mean(u0, mean_shift, 0.0)
    F = primitive(u_tilde)
    assert mean_shift == pytest.approx(0.3, abs=1e-14)
    assert abs(F.mean) < 1e-14 and abs(u_tilde.mean) < 1e-14
    dF = derivative(F)
    assert lebesgue_norm(dF - u_tilde, 2) < 1e-11
    dW = derivative(gauge_W(u_tilde))
    assert np.max(np.abs(dW.coefficients - gauge_w(u_tilde).coefficients)) == 0.0
    # |e^{-iF/2}| = 1 pointwise
    assert np.max(np.abs(np.abs(np.exp(-0.5j * F.samples)) - 1.0)) < 1e-13


def test_ungauge_matches_full_simulation(grid):
    u0 = RealField.from_samples(
        grid, 0.4 + 0.5 * np.cos(grid.x) - 0.3 * np.sin(2 * grid.x)
    )
    cfg = SimConfig(grid, dt=1e-3, t_end=0.1, snapshot_stride=20)
    full = simulate(u0, cfg)
    mean = float(u0.mean.real)
    reduced = simulate(translate_to_zero_mean(u0, mean, 0.0), cfg)
    # the inverse change: u(t, x) = u_tilde(t, x + t*mean) + mean
    rebuilt = [
        translate_to_zero_mean(v, -mean, float(t))
        for t, v in zip(reduced.times, reduced.states)
    ]
    errs = [lebesgue_norm(a - b, 2) for a, b in zip(full.states, rebuilt)]
    assert max(errs) < 1e-9


def test_galilean_identity_is_an_exact_oracle_to_fourth_order():
    # u solves BO iff u(t, x - delta t) + delta does, so the march of
    # phi + delta, moved to the zero-mean frame that load_trajectory puts
    # gauge-check in, is the march of phi.  The datum's high mode does not
    # move rigidly, and the gap is the stepper's error alone: 7.13e-11 at
    # dt = 2e-4 and 1.14e-9 at 4e-4, a ratio of 15.95
    grid = make_grid(256, 1.0)
    delta = 1e-3
    phi = 0.5 * np.cos(16 * grid.x) / np.sqrt(np.pi) + 0.3 * np.cos(2 * grid.x)
    u1 = RealField.from_samples(grid, phi)
    u2 = RealField.from_samples(grid, phi + delta)
    gaps = []
    for dt in (2e-4, 4e-4):
        cfg = SimConfig(grid, dt=dt, t_end=0.5, snapshot_stride=round(0.05 / dt))
        a, b = simulate(u1, cfg), simulate(u2, cfg)
        gaps.append(max(
            lebesgue_norm(translate_to_zero_mean(v, delta, float(t)) - u, 2)
            for t, u, v in zip(a.times, a.states, b.states)
        ))
    assert gaps[0] < 1e-10
    assert 3.5 < np.log2(gaps[1] / gaps[0]) < 4.5


def test_gauge_residual_zero_trajectory(grid):
    zero = RealField.from_samples(grid, np.zeros(grid.n))
    cfg = SimConfig(grid, dt=1e-3, t_end=0.01, snapshot_stride=2)
    rep = gauge_residual(simulate(zero, cfg))
    assert np.max(rep.residuals) == 0.0


def test_gauge_residual_needs_three_snapshots(grid):
    u0 = random_field(grid, np.random.default_rng(2), decay=2.0, amplitude=0.3)
    cfg = SimConfig(grid, dt=1e-3, t_end=0.002, snapshot_stride=2)
    traj = simulate(u0, cfg)  # two snapshots only
    with pytest.raises(ValueError):
        gauge_residual(traj)


def _dyadic_trajectory(n, steps, seed):
    # snapshots at multiples of 2^-10, so every window has the same spacing
    # to the last bit
    g = make_grid(n, 1.0)
    u0 = random_field(g, np.random.default_rng(seed), decay=1.0, amplitude=0.9)
    dt = 2.0**-10
    return simulate(u0, SimConfig(g, dt=dt, t_end=steps * dt, snapshot_stride=1))


@pytest.mark.parametrize("include_mean_term", [True, False])
def test_gauge_residual_is_local(include_mean_term):
    # each interior residual is that of its own three-snapshot window
    traj = _dyadic_trajectory(64, 6, 11)
    rep = gauge_residual(traj, include_mean_term=include_mean_term)
    assert len(rep.residuals) == len(traj.states) - 2
    for k in range(1, len(traj.states) - 1):
        window = Trajectory(traj.times[k - 1 : k + 2],
                            LazyStates(lambda i: traj.states[k - 1 + i], 3))
        one = gauge_residual(window, include_mean_term=include_mean_term)
        assert one.times[0] == rep.times[k - 1] == traj.times[k]
        assert one.residuals[0] == rep.residuals[k - 1]
        assert one.mean_term_magnitudes[0] == rep.mean_term_magnitudes[k - 1]


def test_gauge_residual_memory_does_not_grow_with_snapshots():
    traj = _dyadic_trajectory(1024, 20, 5)
    peaks = []
    for count in (5, 21):
        part = Trajectory(traj.times[:count], LazyStates(lambda i: traj.states[i], count))
        gauge_residual(part)  # fills the band caches
        tracemalloc.start()
        try:
            gauge_residual(part)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # less than one more coarse complex array (keeping every snapshot's
    # three arrays grows the peak by about 50 of them)
    assert peaks[1] - peaks[0] < 1024 * 16


@pytest.mark.parametrize("n", [8, 64])
@pytest.mark.parametrize("period_scale", [1.0, 2.0])
@pytest.mark.parametrize("oversample", [1, 4])
def test_bands_multiply_as_the_projection_masks(n, period_scale, oversample):
    # each band gives the products of projection_symbol's mask bit for bit,
    # apart from the sign of zeros (a cut entry is +0.0); n = 8 takes the
    # path where the evaluated modes cover the whole lattice
    g = make_grid(n, period_scale)
    xi = _ref_xi(g, oversample)
    nf = len(xi)
    rng = np.random.default_rng(n * oversample)
    a = rng.standard_normal(nf) + 1j * rng.standard_normal(nf)
    assert np.array_equal(fine_frequencies(g, oversample, slice(None)), xi)
    assert np.array_equal(fine_frequencies(g, oversample, np.arange(nf)), xi)
    assert np.array_equal(fine_frequencies(g, oversample, slice(3, nf, 5)), xi[3::5])
    assert np.array_equal(fine_frequencies(g, 1, slice(None)), g.xi)
    for which in ("plus", "minus", "plus_hi", "minus_hi", "plus_HI", "lo"):
        band = gauge._band(g, oversample, which)
        masked = a * projection_symbol(which, xi)
        assert np.array_equal(gauge._project(a, band), masked), which
        b = a.copy()
        assert gauge._project(b, band, inplace=True) is b
        assert np.array_equal(b, masked), which
        gauge._dx_band(b, band, g, oversample)
        assert np.array_equal(b, masked * (1j * xi)), which
        if which.startswith("plus"):
            mirrored = _mirror(a) * projection_symbol(which, xi)
            assert np.array_equal(gauge._mirror_band(a, band), mirrored), which
        if 2 * (8 * period_scale + 2) < nf:
            # the sign and HI projections are one run, "lo" an index list
            if which in ("plus", "minus", "plus_HI"):
                assert band.index.size == 0 and band.ones.stop > band.ones.start
            if which == "lo":
                assert band.ones.stop == band.ones.start


def test_gauge_residual_refinement_and_ablation(grid):
    u0 = random_field(grid, np.random.default_rng(3), decay=2.0, amplitude=0.4,
                      max_mode=4)
    coarse = simulate(u0, SimConfig(grid, dt=1e-3, t_end=0.2, snapshot_stride=20))
    fine = simulate(u0, SimConfig(grid, dt=1e-3, t_end=0.2, snapshot_stride=10))
    rc = gauge_residual(coarse)
    rf = gauge_residual(fine)
    ratios = []
    for t, r in zip(rc.times, rc.residuals):
        j = int(np.argmin(np.abs(rf.times - t)))
        assert abs(rf.times[j] - t) < 1e-12
        ratios.append(r / rf.residuals[j])
    assert 3.0 < np.median(ratios) < 5.0
    ablated = gauge_residual(coarse, include_mean_term=False)
    assert np.max(ablated.residuals) > np.max(rc.residuals)


@pytest.mark.parametrize("seed", range(5))
def test_reconstruction_identity(grid, seed):
    u = random_field(grid, np.random.default_rng(seed), decay=1.0, amplitude=0.9,
                     max_mode=14)
    rep = reconstruct_high(u)
    assert rep.rel_gap < 1e-10


def test_reconstruction_low_band_input(grid):
    u = random_field(grid, np.random.default_rng(11), decay=0.5, amplitude=0.9,
                     max_mode=7)
    rep = reconstruct_high(u)
    assert rep.lhs_norm == 0.0
    assert rep.rhs_norm < 1e-10
    zero = RealField.from_samples(grid, np.zeros(grid.n))
    rep0 = reconstruct_high(zero)
    assert rep0.rhs_norm == 0.0 and rep0.lhs_norm == 0.0


@pytest.mark.parametrize("oversample, formed_at", [(4, 2), (2, 4)])
def test_reconstruction_rejects_an_exponential_on_another_lattice(grid, oversample,
                                                                  formed_at):
    u = random_field(grid, np.random.default_rng(5), decay=1.0, amplitude=0.9)
    exponential = gauge.exponential_pair(u, formed_at)
    with pytest.raises(ValueError, match=f"{formed_at * grid.n} points"):
        reconstruct_high(u, oversample=oversample, exponential=exponential)


def test_primitive_gap_bounds(grid):
    u1 = random_field(grid, np.random.default_rng(4), decay=1.0, amplitude=0.5)
    gap, dist = primitive_gap(u1, u1)
    assert gap == 0.0 and dist == 0.0
    # single high mode: |F1-F2|_inf <= 2 eps / K
    eps, k = 1e-3, 40
    pert = RealField.from_samples(grid, 2 * eps * np.cos(k * grid.x))
    u2 = u1 + pert
    gap, dist = primitive_gap(u1, u2)
    assert gap <= 2 * eps / k * (1 + 1e-10)
    assert dist == pytest.approx(lebesgue_norm(pert, 2), rel=1e-12)


def test_primitive_gap_same_low_flag(grid):
    u1 = random_field(grid, np.random.default_rng(5), decay=1.0, amplitude=0.5)
    pert = RealField.from_samples(grid, 1e-2 * np.cos(20 * grid.x))
    u2 = u1 + pert
    primitive_gap(u1, u2, require_same_low=True)  # perturbation above |xi|=8
    bad = u1 + RealField.from_samples(grid, 1e-2 * np.cos(3 * grid.x))
    with pytest.raises(ValueError):
        primitive_gap(u1, bad, require_same_low=True)


def test_primitive_gap_lipschitz_ensemble(grid):
    # pairs with identical P_LO parts: sup |F1-F2|_inf / |u1-u2|_L2 bounded
    rng = np.random.default_rng(6)
    sup = 0.0
    for _ in range(40):
        u1 = random_field(grid, rng, decay=1.0, amplitude=0.5)
        coeff = np.zeros(grid.n, dtype=complex)
        for k in rng.integers(8, grid.n // 2 - 1, size=5):
            z = rng.standard_normal() + 1j * rng.standard_normal()
            coeff[k] += z
            coeff[-k] += np.conj(z)
        u2 = u1 + RealField(grid, 0.05 * coeff)
        gap, dist = primitive_gap(u1, u2, require_same_low=True)
        if dist > 0:
            sup = max(sup, gap / dist)
    assert np.isfinite(sup) and sup < 1.0  # high-frequency gain ~ 2/K


def test_exp_multiplication_alpha_zero_bound(grid):
    rng = np.random.default_rng(7)
    for _ in range(10):
        u = random_field(grid, rng, decay=1.0, amplitude=1.0)
        govt = random_field(grid, rng, decay=0.7, amplitude=1.0)
        res = exp_multiplication_probe(u, govt, alpha=0.0, q=4)
        assert res.ratio <= 1.0 + 1e-13
    zero = RealField.from_samples(grid, np.zeros(grid.n))
    g1 = random_field(grid, rng, decay=1.0)
    res = exp_multiplication_probe(zero, g1, alpha=0.0, q=2)
    assert res.ratio == pytest.approx(1.0, abs=1e-13)


def test_exp_multiplication_quarter_order(grid):
    rng = np.random.default_rng(8)
    ratios = []
    for _ in range(20):
        u = random_field(grid, rng, decay=1.0, amplitude=1.0)
        g4 = random_field(grid, rng, decay=0.7, amplitude=1.0)
        ratios.append(exp_multiplication_probe(u, g4, alpha=0.25, q=4).ratio)
    sup = max(ratios)
    assert np.isfinite(sup) and sup < 5.0
    with pytest.raises(ValueError):
        exp_multiplication_probe(u, g4, alpha=0.3, q=4)


# ----------------------------------------------------------------------------
# Reference: every gauge product formed on a lattice of 2nf points, with the
# exponential pair taken from two separate transforms.  The gauge products,
# formed on the shortest exact lattice (n or nf points, or direct sums), must
# agree with it to rounding.
# ----------------------------------------------------------------------------


def _ref_band(coeff, length):
    out = np.zeros(length, dtype=np.complex128)
    half = min(len(coeff), length) // 2
    out[:half] = coeff[:half]
    out[length - half :] = coeff[len(coeff) - half :]
    return out


def _ref_fmul(a, b):
    """a*b formed from samples on 2nf points, cut to the band of a."""
    length = 2 * len(a)
    pa = np.fft.ifft(_ref_band(a, length)) * length
    pb = np.fft.ifft(_ref_band(b, length)) * length
    return _ref_band(np.fft.fft(pa * pb) / length, len(a))


def _ref_xi(grid, factor):
    nf = grid.n * factor
    return np.fft.fftfreq(nf, d=1.0 / nf) / grid.period_scale


def _ref_truncate(fine, grid):
    out = _ref_band(fine, grid.n)
    out[grid.n // 2] = 0.0
    return out


def _ref_exponential_pair(u, factor):
    nf = u.grid.n * factor
    f = (np.fft.ifft(_ref_band(primitive(u).coefficients, nf)) * nf).real
    return np.fft.fft(np.exp(-0.5j * f)) / nf, np.fft.fft(np.exp(0.5j * f)) / nf


def _ref_gauge_residual(traj, oversample):
    grid = traj.states[0].grid
    xi = _ref_xi(grid, oversample)
    plus, minus = projection_symbol("plus", xi), projection_symbol("minus", xi)
    ws, rhss, mean_terms = [], [], []
    for v in traj.states:
        em, _ = _ref_exponential_pair(v, oversample)
        w_fine = em * plus * (1j * xi)
        ux = _ref_band(derivative(v).coefficients, len(xi))
        bil = _ref_fmul(em * plus, ux * minus) * plus * (1j * xi)
        mean_term = 0.25j * float(np.mean(v.samples**2)) * w_fine
        ws.append(_ref_truncate(w_fine, grid))
        rhss.append(_ref_truncate(mean_term - bil, grid))
        mean_terms.append(_ref_truncate(mean_term, grid))
    dt = float(traj.times[1] - traj.times[0])
    residuals, magnitudes = [], []
    for k in range(1, len(ws) - 1):
        lhs = (ws[k + 1] - ws[k - 1]) / (2.0 * dt) + 1j * grid.xi**2 * ws[k]
        residuals.append(lebesgue_norm(ComplexField(grid, lhs - rhss[k]), 2))
        magnitudes.append(lebesgue_norm(ComplexField(grid, mean_terms[k]), 2))
    return np.array(residuals), np.array(magnitudes)


def _ref_reconstruct_high(u, oversample):
    """(rhs coefficients on the coarse band, gap_abs) of reconstruct_high."""
    grid = u.grid
    xi = _ref_xi(grid, oversample)
    mask = {w: projection_symbol(w, xi)
            for w in ("lo", "plus_hi", "plus_HI", "minus_hi")}
    em, ep = _ref_exponential_pair(u, oversample)
    ufine = _ref_band(u.coefficients, len(xi))
    w_hi = em * mask["plus_hi"] * (1j * xi)
    inner_lo = _ref_fmul(em, ufine) * mask["lo"]
    t1 = 2j * _ref_fmul(ep, w_hi) * mask["plus_HI"]
    t2 = _ref_fmul(ep * mask["plus_hi"], inner_lo) * mask["plus_HI"]
    t3 = 2j * _ref_fmul(ep * mask["plus_HI"], em * mask["minus_hi"] * (1j * xi)) * mask["plus_HI"]
    rhs = t1 + t2 + t3
    gap = np.sqrt(grid.length * np.sum(np.abs(rhs - ufine * mask["plus_HI"]) ** 2))
    return _ref_truncate(rhs, grid), float(gap)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


# oversample 1 is the tightest case of the lattice bounds, and of the band
# guard on the direct low-band sums of reconstruct_high (more low modes at
# lambda = 2)
@pytest.mark.parametrize(
    "n, period_scale, oversample",
    [(n, lam, o) for n in (64, 256, 1024) for lam in (1.0, 2.0) for o in (2, 4)]
    + [(64, 1.0, 1), (64, 2.0, 1), (256, 1.0, 1)],
)
def test_gauge_products_match_padded_reference(n, period_scale, oversample):
    g = make_grid(n, period_scale)
    u0 = random_field(g, np.random.default_rng(n), decay=1.0, amplitude=0.9)
    traj = simulate(u0, SimConfig(g, dt=1e-3, t_end=4e-3, snapshot_stride=2))
    rep = gauge_residual(traj, oversample=oversample)
    ref_res, ref_mean = _ref_gauge_residual(traj, oversample)
    assert _rel(rep.residuals, ref_res) < 1e-12
    assert _rel(rep.mean_term_magnitudes, ref_mean) < 1e-12
    for u in (u0, traj.states[-1]):
        rec = reconstruct_high(u, oversample=oversample)
        ref_rhs, ref_gap = _ref_reconstruct_high(u, oversample)
        assert _rel(rec.rhs.coefficients, ref_rhs) < 1e-12
        assert abs(rec.gap_abs - ref_gap) < 1e-15 * lebesgue_norm(u, 2)
    em, ep = _ref_exponential_pair(u0, oversample)
    assert np.array_equal(gauge.exponential_pair(u0, oversample)[1], em)
    assert _rel(_mirror(em), ep) < 1e-14


@pytest.mark.parametrize("oversample", [1, 4])
def test_gauge_products_need_no_padding(monkeypatch, oversample):
    """No transform in gauge_residual or reconstruct_high is longer than the
    nf lattice of the exponentials: a 3nf/2-padded product fails this."""
    g = make_grid(64, 1.0)
    u0 = random_field(g, np.random.default_rng(3), decay=1.0, amplitude=0.9)
    traj = simulate(u0, SimConfig(g, dt=1e-3, t_end=4e-3, snapshot_stride=2))
    lengths = []

    def recording(transform):
        def call(a, *args, axes=None, **kwargs):
            a = np.asarray(a)
            along = range(a.ndim) if axes is None else axes
            lengths.append(max(a.shape[ax] for ax in along))
            return transform(a, *args, axes=axes, **kwargs)
        return call

    for name in ("fftn", "ifftn"):
        monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
    gauge_residual(traj, oversample=oversample)
    reconstruct_high(u0, oversample=oversample)
    nf = g.n * oversample
    assert lengths and max(lengths) == nf


def _call_sites(callee: str) -> list:
    """(module, enclosing function's qualified name) of every call of callee
    (a name, or an attribute such as np.exp) in the package."""
    found = []

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == callee:
                found.append((module, ".".join(scope)))
            visit(child, module, scope)

    for path in sorted(Path(bogl.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, ())
    return found


def test_gauge_formulas_are_formed_in_one_place():
    # e^{-iF/2}: the gauge's one exp, of its one primitive that is not
    # returned as a field; every other user takes the pair it returns
    assert [s for s in _call_sites("np.exp") if s[0] == "gauge"] == [
        ("gauge", "_exponential")]
    assert sorted(_call_sites("_primitive_coefficients")) == [
        ("gauge", "_exponential"), ("gauge", "primitive")]
    assert set(_call_sites("primitive")) == {("gauge", "primitive_gap")}
    # the fine-lattice frequencies are spectral.fine_frequencies: fftfreq
    # builds only the modes of the coarse x and tau lattices
    assert set(_call_sites("np.fft.fftfreq")) == {
        ("spectral", "SpatialGrid.k"), ("bourgain", "SpaceTimeGrid.tau")}
    # a P_-(du/dx): the one band product of bilinear, for all four callers
    assert [s for s in _call_sites("_band_product") if s[0] == "bilinear"] == [
        ("bilinear", "_minus_dx_product")]
    assert sorted(name for _, name in _call_sites("_minus_dx_product")) == [
        "_d_convolution", "_exp_lowband_operator", "_probe_leibniz.sample",
        "bilinear_core"]


def test_probe_families_draw_through_one_sample_loop():
    # the stream (seed, name, i) and the decay of draw i are read in one
    # loop, which both probe modules and the suite's exp_multiplication run
    # their per-draw functions through
    probes = ("bourgain", "bilinear")
    for callee in ("stream", "_decay_schedule"):
        assert [s for s in _call_sites(callee) if s[0] in probes] == [
            ("bourgain", "_sample_loop")]
    assert sorted(_call_sites("_sample_loop")) == [
        ("bilinear", "estimate_probe"), ("bourgain", "linear_probes")]
    assert _call_sites("bourgain._sample_loop") == [
        ("experiments", "_suite_exp_multiplication")]


def test_only_the_sample_loop_forks():
    # the draws of a probe family are the one work split across processes:
    # the sample loop forks the workers, and a worker leaves only through
    # _leave_worker, which skips the exit handlers copied from the parent
    assert _call_sites("os.fork") == [("bourgain", "_sample_loop")]
    assert _call_sites("os._exit") == [("bourgain", "_leave_worker")]
    assert _call_sites("_leave_worker") == [("bourgain", "_sample_loop")] * 2


# the public names that only an analyst calls: no code in the package reaches
# them, and the tests check each against its oracle
_ENTRY_POINTS = {
    "bilinear_B", "trilinear_I", "duality_pair", "step", "gauge_residual",
    "tilde_lp_norm", "hilbert", "free_propagate", "pointwise_product"}


def test_every_public_name_is_used_inside_the_package():
    # a public name is read by a name or an attribute somewhere in the
    # package, or is a run_* function named in cli._COMMANDS; imports and
    # __all__ do not count, so a test-only helper fails this and belongs in
    # the tests
    public, read = {}, set()
    for path in sorted(Path(bogl.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                strings = [c.value for c in ast.walk(node.value)
                           if isinstance(c, ast.Constant) and isinstance(c.value, str)]
                if node.targets[0].id == "__all__":
                    public[path.stem] = strings
                elif (path.stem, node.targets[0].id) == ("cli", "_COMMANDS"):
                    read.update(strings)
    unread = {name for names in public.values() for name in names if name not in read}
    assert sorted(unread - _ENTRY_POINTS) == []
    # an entry point that the package comes to call leaves the list
    assert sorted(_ENTRY_POINTS - unread) == []
