"""Space-time norms, free/Duhamel fields and the linear estimate probes."""

import ast
import itertools
import json
import os
import signal
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from bogl import bourgain
from bogl.bourgain import (
    ProbeConfig,
    SpaceTimeField,
    SpaceTimeGrid,
    duhamel_field,
    free_evolution_field,
    linear_probes,
    localize,
    random_spacetime_field,
    spacetime_lebesgue,
    spacetime_tilde_lebesgue,
    x_norm,
    x_norm_regrouped,
    y_norm,
    z_norm,
    z_tilde_norm,
)
from bogl.lp import dyadic_shells, eta, phi_shell
from bogl.reporting import ProbeReport, stream
from bogl.spectral import ComplexField, _analyze, lebesgue_norm, make_grid, random_field


@pytest.fixture(scope="module")
def win():
    return SpaceTimeGrid(make_grid(32, 1.0), 32, 2 * np.pi)


def test_grid_validation():
    g = make_grid(32, 1.0)
    with pytest.raises(ValueError):
        SpaceTimeGrid(g, 8, 2 * np.pi)
    with pytest.raises(ValueError):
        SpaceTimeGrid(g, 24, 2 * np.pi)
    for t_span in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="t_span"):
            SpaceTimeGrid(g, 32, t_span)


def test_window_plateau_covers_central_half(win):
    w = win.window
    t = win.times
    central = (t >= win.t_span / 4) & (t <= 3 * win.t_span / 4)
    assert np.all(w[central] == 1.0)
    assert w[0] == 0.0
    assert np.all((0 <= w) & (w <= 1))


def test_round_trip(win):
    u = random_spacetime_field(win, stream(0, "rt"), real=True)
    again = SpaceTimeField(win, _analyze(u.samples))
    assert np.max(np.abs(again.coefficients - u.coefficients)) < 1e-12


# References: the sample-space forms of the lifts, which go to (t, x)
# samples by a 2-D inverse transform, act there and transform back in 2-D,
# and the per-slice coefficients as a direct sum over tau.


def _ref_field(win, samples):
    return SpaceTimeField(win, np.fft.fft2(samples) / samples.size)


def _ref_samples(f):
    return np.fft.ifft2(f.coefficients) * f.coefficients.size


def _ref_free_evolution(f, win):
    xi = win.spatial.xi
    phases = np.exp(-1j * np.outer(win.times, np.abs(xi) * xi))
    samples = np.fft.ifft(phases * f.coefficients[None, :], axis=1) * win.spatial.n
    return _ref_field(win, samples * win.window[:, None])


def _ref_duhamel(g, win):
    xi = win.spatial.xi
    t = win.times[:, None, None]
    sig = win.sigma[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        env = np.where(
            np.abs(sig) > 1e-14,
            (np.exp(1j * sig * t) - 1.0) / (1j * sig),
            t * np.ones_like(sig),
        )
    hat_t = np.sum(g.coefficients[None, :, :] * env, axis=1)
    hat_t *= np.exp(-1j * np.outer(win.times, np.abs(xi) * xi))
    samples = np.fft.ifft(hat_t, axis=1) * win.spatial.n
    return _ref_field(win, samples * win.window[:, None])


def _ref_localize(f, t_loc):
    w = np.asarray(eta(4.0 * (f.grid.times - t_loc / 2.0) / t_loc))
    return _ref_field(f.grid, _ref_samples(f) * w[:, None])


def _ref_time_slice(f, index):
    phase = np.exp(1j * f.grid.tau * f.grid.times[index])
    return np.sum(f.coefficients * phase[:, None], axis=0)


def _rel_gap(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize(
    "n,num_times,t_span,lam",
    [(16, 16, 2 * np.pi, 1.0), (32, 32, 2 * np.pi, 2.0), (64, 16, 3.0, 1.0)],
)
def test_t_only_forms_match_sample_space_references(n, num_times, t_span, lam):
    win = SpaceTimeGrid(make_grid(n, lam), num_times, t_span)
    rng = stream(n, "t-only", num_times)
    f = random_field(win.spatial, rng, decay=0.5)
    g = random_spacetime_field(win, rng, sigma_decay=1.0)
    u = random_spacetime_field(win, rng, real=True)
    pairs = [
        (free_evolution_field(f, win), _ref_free_evolution(f, win)),
        (duhamel_field(g, win), _ref_duhamel(g, win)),
    ]
    for t_loc in (t_span, t_span / 2, t_span / 8):
        pairs.append((localize(u, t_loc), _ref_localize(u, t_loc)))
    for got, ref in pairs:
        assert _rel_gap(got.coefficients, ref.coefficients) <= 1e-14
    slices = u.slices()
    ref_slices = np.array([_ref_time_slice(u, m) for m in range(num_times)])
    assert _rel_gap(slices, ref_slices) <= 1e-14
    # row m holds the x-coefficients of the samples at times[m]
    assert _rel_gap(slices, np.fft.fft(_ref_samples(u), axis=1) / n) <= 1e-14
    for h in (g, u):
        again = SpaceTimeField.from_slices(win, h.slices())
        assert _rel_gap(again.coefficients, h.coefficients) <= 1e-14


@pytest.mark.parametrize("t_span", [2 * np.pi, 3 * np.pi])
def test_field_time_access_is_the_grids(t_span):
    win = SpaceTimeGrid(make_grid(16, 1.0), 32, t_span)
    u = random_spacetime_field(win, stream(0, "seam", int(t_span)), real=True)
    c = u.coefficients
    assert np.array_equal(u.samples, win.samples(c))
    assert np.array_equal(u.slices(), win.to_slices(c))
    again = SpaceTimeField.from_slices(win, u.slices())
    # the field stores the grid's table with its Nyquist row and column zeroed
    ref = SpaceTimeField(win, win.from_slices(u.slices()))
    assert np.array_equal(again.coefficients, ref.coefficients)
    # to_slices inverts from_slices on any table, not only on stored fields
    rng = np.random.default_rng(int(t_span))
    x = rng.standard_normal(c.shape) + 1j * rng.standard_normal(c.shape)
    back = win.to_slices(win.from_slices(x))
    assert np.max(np.abs(back - x)) <= 1e-15 * np.max(np.abs(x))


def test_free_evolution_rejects_a_datum_from_another_grid(win):
    f = random_field(make_grid(win.spatial.n, 2.0), stream(0, "other-grid"))
    with pytest.raises(ValueError, match="spatial grid"):
        free_evolution_field(f, win)


def test_free_evolution_resonant_line(win):
    f = ComplexField.from_samples(win.spatial, np.exp(3j * win.spatial.x))
    lifted = free_evolution_field(f, win)
    c = np.abs(lifted.coefficients)
    l, k = np.unravel_index(np.argmax(c), c.shape)
    assert win.spatial.xi[k] == 3.0
    assert win.tau[l] == -9.0  # sigma = tau + |xi| xi = 0


def test_single_bin_norms(win):
    lx, lt = win.spatial.length, win.t_span
    coeff = np.zeros((win.num_times, win.spatial.n), dtype=complex)
    coeff[(-9) % win.num_times, 3] = 2.0  # (xi, tau) = (3, -9): sigma = 0
    f = SpaceTimeField(win, coeff)
    assert x_norm(f, 0, 0.5) == pytest.approx(2 * np.sqrt(lx * lt), rel=1e-13)
    coeff2 = np.zeros_like(coeff)
    coeff2[0, 3] = 2.0  # tau = 0: sigma = 9, weight <9>^{2b}
    f2 = SpaceTimeField(win, coeff2)
    assert x_norm(f2, 0, 0.5) == pytest.approx(
        2 * np.sqrt(lx * lt) * np.sqrt(10), rel=1e-13
    )
    assert x_norm(f2, 1, 0) == pytest.approx(2 * np.sqrt(lx * lt) * 4, rel=1e-13)
    assert z_norm(f, 0, 0) == pytest.approx(2 * np.sqrt(lx), rel=1e-13)
    assert y_norm(SpaceTimeField(win, np.zeros_like(coeff)), 0.3) == 0.0


def test_z_is_ell1_in_tau(win):
    coeff = np.zeros((win.num_times, win.spatial.n), dtype=complex)
    coeff[1, 3] = 1.0
    coeff[2, 3] = 1.0  # two tau bins on the same xi column
    f = SpaceTimeField(win, coeff)
    single = np.zeros_like(coeff)
    single[1, 3] = 2.0
    g = SpaceTimeField(win, single)
    # amplitudes add in tau before the xi square: both give 2 sqrt(Lx)
    assert z_norm(f, 0, 0) == pytest.approx(z_norm(g, 0, 0), rel=1e-13)
    # while X adds in squares: sqrt(2) vs 2
    assert x_norm(f, 0, 0) == pytest.approx(x_norm(g, 0, 0) / np.sqrt(2), rel=1e-13)


def test_x_norm_plancherel_and_monotonicity(win):
    u = random_spacetime_field(win, stream(1, "pl"), real=True)
    assert x_norm(u, 0, 0) == pytest.approx(spacetime_lebesgue(u, 2), rel=1e-12)
    assert x_norm(u, 0, 0.25) <= x_norm(u, 0, 0.375) <= x_norm(u, 0, 0.5)
    assert x_norm(u, 0.0, 0.5) <= x_norm(u, 0.5, 0.5) <= x_norm(u, 1.0, 0.5)
    assert y_norm(u, 0.5) >= x_norm(u, 0.5, 0.5)
    assert y_norm(u, 0.5) >= z_tilde_norm(u, 0.5, 0.0)


def test_lp_norms_reject_unsupported_exponents(win):
    u = random_spacetime_field(win, stream(1, "pl"), real=True)
    f = ComplexField(win.spatial, u.slices()[0])
    for p in (0, 3, "inf"):
        with pytest.raises(ValueError, match="supported exponents"):
            spacetime_lebesgue(u, p)
        with pytest.raises(ValueError, match="supported exponents"):
            lebesgue_norm(f, p)


def test_x_norm_regroup_reported(win):
    u = random_spacetime_field(win, stream(2, "rg"), real=True)
    a, b = x_norm(u, 0.25, 0.375), x_norm_regrouped(u, 0.25, 0.375)
    assert np.isfinite(a) and np.isfinite(b) and b >= a * 0.9


def _ref_tilde(f, norm):
    """Reference: the eta low part plus an explicit loop over the spatial shells."""
    xi = f.grid.spatial.xi
    total = norm(f.spatial_mask(np.asarray(eta(xi))))
    shell_sq = 0.0
    for n in dyadic_shells(f.grid.spatial.max_frequency()):
        shell_sq += norm(f.spatial_mask(np.asarray(phi_shell(xi, n)))) ** 2
    return total + float(np.sqrt(shell_sq))


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_tilde_norms_match_shell_loop(n, lam):
    grid = SpaceTimeGrid(make_grid(n, lam), 16, 2 * np.pi)
    u = random_spacetime_field(grid, stream(n, "tilde", int(lam)), real=True)
    for s, b in ((0.0, 0.5), (0.5, -1.0)):
        assert z_tilde_norm(u, s, b) == _ref_tilde(u, lambda v: z_norm(v, s, b))
        assert x_norm_regrouped(u, s, b) == _ref_tilde(u, lambda v: x_norm(v, s, b))
    for p in (2, 4):
        ref = _ref_tilde(u, lambda v: spacetime_lebesgue(v, p))
        assert spacetime_tilde_lebesgue(u, p) == ref


def test_localize_contracts(win):
    u = random_spacetime_field(win, stream(3, "loc"), real=True)
    full = x_norm(u, 0, 0.375)
    half = x_norm(localize(u, win.t_span / 2), 0, 0.375)
    assert half < full
    with pytest.raises(ValueError):
        localize(u, 2 * win.t_span)


def test_duhamel_zero_forcing(win):
    zero = SpaceTimeField(win, np.zeros((win.num_times, win.spatial.n), dtype=complex))
    out = duhamel_field(zero, win)
    assert np.max(np.abs(out.coefficients)) == 0.0


def test_duhamel_single_mode_oracle(win):
    # forcing g = e^{i(3x + tau0 t)}: the mode-3 coefficient of the unwindowed
    # Duhamel integral is e^{-9it} (e^{i sigma t} - 1)/(i sigma)
    tau0 = -5
    coeff = np.zeros((win.num_times, win.spatial.n), dtype=complex)
    coeff[tau0 % win.num_times, 3] = 1.0
    g = SpaceTimeField(win, coeff)
    out = duhamel_field(g, win)
    sigma = tau0 + 9
    t = win.times
    expected_hat = np.exp(-9j * t) * (np.exp(1j * sigma * t) - 1.0) / (1j * sigma)
    # compare inside the field's band: the tau-Nyquist bin is not represented
    expected_tau = np.fft.fft(expected_hat * win.window) / win.num_times
    expected_tau[win.num_times // 2] = 0.0
    got_tau = out.coefficients[:, 3]
    assert np.max(np.abs(got_tau - expected_tau)) < 1e-12


# The bodies of x_norm, z_norm and random_spacetime_field that built their
# grid-only weights on every call.  The cached weights are computed the same
# way, so the results must agree bit for bit.


def _bracket_powers(grid, b, s):
    xi_bracket = (1.0 + np.abs(grid.spatial.xi))[None, :]
    return (1.0 + np.abs(grid.sigma)) ** b * xi_bracket**s


def _uncached_x_norm(f, s, b):
    g = f.grid
    total = np.sum(_bracket_powers(g, 2 * b, 2 * s) * np.abs(f.coefficients) ** 2)
    return float(np.sqrt(g.spatial.length * g.t_span * total))


def _uncached_z_norm(f, s, b):
    g = f.grid
    inner = 2.0 * np.pi / g.t_span * np.sum(
        _bracket_powers(g, b, s) * np.abs(f.coefficients), axis=0
    )
    return float(np.sqrt(g.spatial.length * np.sum(inner**2)))


def _uncached_random_spacetime_field(win, rng, xi_decay=1.0, sigma_decay=1.5,
                                     real=False, positive_xi_only=False,
                                     zero_mean_x=False):
    m, n = win.num_times, win.spatial.n
    z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    xi = win.spatial.xi
    shape = (1.0 + np.abs(xi))[None, :] ** (-xi_decay) * (
        1.0 + np.abs(win.sigma)
    ) ** (-sigma_decay)
    coeff = z * shape
    if positive_xi_only:
        coeff[:, xi < 1.0] = 0.0
    if real:
        ml, nk = (-np.arange(m)) % m, (-np.arange(n)) % n
        coeff = 0.5 * (coeff + np.conj(coeff[np.ix_(ml, nk)]))
    if zero_mean_x:
        coeff[:, xi == 0] = 0.0
    return SpaceTimeField(win, coeff)


def _envelope_duhamel(g, win):
    """The earlier duhamel_field: the (time, tau, xi) table of per-bin
    integrals (e^{i sigma t} - 1)/(i sigma), or t on the resonant line,
    summed over tau.  M^2 n complex values, so small grids only."""
    assert win.spatial.n <= 64 and win.num_times <= 64
    xi = win.spatial.xi
    t = win.times[:, None, None]
    sig = win.sigma[None, :, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        env = np.where(
            np.abs(sig) > 1e-14,
            (np.exp(1j * sig * t) - 1.0) / (1j * sig),
            t * np.ones_like(sig),
        )
    hat_t = np.sum(g.coefficients[None, :, :] * env, axis=1)
    hat_t *= np.exp(-1j * np.outer(win.times, np.abs(xi) * xi))
    return SpaceTimeField.from_slices(win, hat_t * win.window[:, None])


def _assert_duhamel_matches_envelope(g, win):
    # the same exact per-bin quadrature, summed in another order and phased
    # before the tau sum, not after it: equal to rounding, not bit for bit
    ref = _envelope_duhamel(g, win).coefficients
    gap = np.linalg.norm(duhamel_field(g, win).coefficients - ref)
    assert gap <= 1e-14 * np.linalg.norm(ref)


def _uncached_free_evolution(f, win):
    xi = win.spatial.xi
    phases = np.exp(-1j * np.outer(win.times, np.abs(xi) * xi))
    return SpaceTimeField.from_slices(win, phases * f.coefficients * win.window[:, None])


@pytest.mark.parametrize(
    "n,num_times,t_span,lam",
    [(16, 16, 2 * np.pi, 1.0), (32, 16, 3.0, 2.0), (64, 32, 2 * np.pi, 1.0)],
)
def test_cached_weights_match_uncached_bodies(n, num_times, t_span, lam):
    win = SpaceTimeGrid(make_grid(n, lam), num_times, t_span)
    draws = [
        {},
        {"xi_decay": 0.5, "sigma_decay": 1.25, "positive_xi_only": True},
        {"xi_decay": 2.0, "sigma_decay": 1.25, "real": True},
        {"xi_decay": 1.0, "sigma_decay": 1.5, "real": True, "zero_mean_x": True},
    ]
    for i, kwargs in enumerate(draws):
        f = random_spacetime_field(win, stream(n, "cached", i), **kwargs)
        ref = _uncached_random_spacetime_field(win, stream(n, "cached", i), **kwargs)
        assert np.array_equal(f.coefficients, ref.coefficients)
        for s, b in ((0.0, 0.5), (-1.0, 1.0), (0.3, -0.5), (0.25, 0.5125)):
            assert np.array_equal(x_norm(f, s, b), _uncached_x_norm(f, s, b))
            assert np.array_equal(z_norm(f, s, b), _uncached_z_norm(f, s, b))
        _assert_duhamel_matches_envelope(f, win)
        data = random_field(win.spatial, stream(n, "cached-data", i), max_mode=n // 4)
        free = free_evolution_field(data, win).coefficients
        assert np.array_equal(free, _uncached_free_evolution(data, win).coefficients)


@pytest.mark.parametrize("lam", [1.0, 2.0])
@pytest.mark.parametrize("t_span", [2 * np.pi, 3.0])
@pytest.mark.parametrize("n,num_times", [(16, 16), (32, 64), (64, 32), (64, 64)])
def test_duhamel_matches_the_envelope_form(n, num_times, t_span, lam):
    win = SpaceTimeGrid(make_grid(n, lam), num_times, t_span)
    resonant = np.abs(win.sigma) <= 1e-14
    for i, kwargs in enumerate([{}, {"real": True}, {"sigma_decay": 1.0},
                                {"xi_decay": 0.5, "positive_xi_only": True}]):
        g = random_spacetime_field(win, stream(n, "envelope", i), **kwargs)
        _assert_duhamel_matches_envelope(g, win)
        # a forcing that lives only on the resonant bins, where the integral is t
        on_line = SpaceTimeField(win, np.where(resonant, g.coefficients, 0.0))
        if on_line.coefficients.any():
            _assert_duhamel_matches_envelope(on_line, win)


def test_duhamel_memory_is_linear_in_the_lattice():
    # the envelope form holds two (M, M, n) tables, about 80 MB at n = M = 128
    win = SpaceTimeGrid(make_grid(128, 1.0), 128, 2 * np.pi)
    g = random_spacetime_field(win, stream(0, "duhamel-memory"))
    tracemalloc.start()
    try:
        duhamel_field(g, win)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_l2_and_l4_are_the_two_lebesgue_norms(win):
    f = random_spacetime_field(win, stream(0, "l2-l4"), real=True)
    assert bourgain._l2_and_l4(f) == (spacetime_lebesgue(f, 2), spacetime_lebesgue(f, 4))


def test_grid_weights_are_shared_and_read_only():
    a, b = (SpaceTimeGrid(make_grid(32, 1.0), 16, 2 * np.pi) for _ in range(2))
    assert a is not b
    for table in (lambda g: bourgain._weight(g, 1.0, -0.5), bourgain._phase_table):
        assert table(a) is table(b)
        assert not table(a).flags.writeable


# The one seam between the space-time code and the (tau, xi) storage: the time
# transforms are SpaceTimeGrid's three methods and tau is read only by
# SpaceTimeGrid.sigma.  Whatever else reads the layout says "tau-lattice
# code" in its docstring.
_TIME_TRANSFORM_SITES = {
    ("bourgain", "SpaceTimeGrid.samples"),
    ("bourgain", "SpaceTimeGrid.to_slices"),
    ("bourgain", "SpaceTimeGrid.from_slices"),
}
_TAU_READ_SITES = {
    ("bourgain", "SpaceTimeGrid.sigma"),
}


def _lattice_uses(tree: ast.AST) -> list:
    """(enclosing function's qualified name, kind) of every reference to
    spectral's transform pair and every .tau/.tau1 read in tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            where = ".".join(scope)
            if isinstance(child, ast.Name) and child.id in ("_samples", "_analyze"):
                found.append((where, "transform"))
            elif isinstance(child, ast.Attribute) and child.attr in ("tau", "tau1"):
                found.append((where, "tau"))
            visit(child, scope)

    visit(tree, ())
    return found


def test_time_layout_is_read_only_at_the_grid_seam():
    package = Path(bourgain.__file__).parent
    seen, stray = {"transform": set(), "tau": set()}, []
    for stem in ("bourgain", "bilinear"):
        tree = ast.parse((package / f"{stem}.py").read_text(encoding="utf-8"))
        for where, kind in _lattice_uses(tree):
            sites = _TIME_TRANSFORM_SITES if kind == "transform" else _TAU_READ_SITES
            if (stem, where) in sites:
                seen[kind].add((stem, where))
            else:
                stray.append(f"{stem}.py: {where or '<module>'} reads {kind}")
    assert not stray
    assert seen == {"transform": _TIME_TRANSFORM_SITES, "tau": _TAU_READ_SITES}


def test_resonant_mode_l4_ratio_quadrature_oracle(win):
    # for the windowed free evolution of a single mode, |u(x,t)| = window(t),
    # so |u|_{L4}^4 = L_x * int window^4 dt, fixed by quadrature of the window
    f = ComplexField.from_samples(win.spatial, np.exp(3j * win.spatial.x))
    lifted = free_evolution_field(f, win)
    from bogl.lp import eta

    fine_t = np.arange(0, win.t_span, win.t_span / (64 * win.num_times))
    wvals = np.asarray(eta(4.0 * (fine_t - win.t_span / 2.0) / win.t_span))
    oracle = (win.spatial.length * np.sum(wvals**4) * fine_t[1]) ** 0.25
    # the raw 32-point Riemann sum resolves the window ramp to ~1e-5
    coarse = np.asarray(eta(4.0 * (win.times - win.t_span / 2.0) / win.t_span))
    riemann = (win.spatial.length * np.sum(coarse**4) * win.dt) ** 0.25
    assert riemann == pytest.approx(oracle, rel=1e-4)
    # the field itself lives on the Nyquist-stripped band; band truncation is
    # the remaining gap between its L4 and the window quadrature
    l4 = spacetime_lebesgue(lifted, 4)
    assert l4 == pytest.approx(oracle, rel=1e-3)
    ratio = l4 / x_norm(lifted, 0.0, 0.375)
    assert np.isfinite(ratio) and 0 < ratio < 1


def test_linear_probe_reports():
    cfg = ProbeConfig(n=32, num_times=32, samples=9, seed=3)
    reports = linear_probes(cfg)
    names = {r.name for r in reports}
    assert {
        "linear_homogeneous",
        "linear_duhamel_x",
        "linear_duhamel_y",
        "linear_time_factor",
        "bourgain_strichartz",
        "embedding_sup_hs",
    } <= names
    for r in reports:
        assert len(r.rows) > 0
        assert np.isfinite(r.sup) and r.sup > 0
    # determinism
    again = linear_probes(cfg)
    for r1, r2 in zip(reports, again):
        assert r1.rows == r2.rows


def test_probe_reports_record_the_probe_config():
    # every report of the linear and estimate families records the whole
    # ProbeConfig, period scale included, and only its family's extras
    from bogl.bilinear import PROBE_NAMES, estimate_probe

    cfg = ProbeConfig(n=16, num_times=16, samples=2, seed=5, s=0.3,
                      period_scale=2.0)
    base = {"n": 16, "num_times": 16, "t_span": 2 * np.pi, "period_scale": 2.0,
            "samples": 2, "seed": 5, "s": 0.3}
    extras = {"linear_duhamel_x": {"delta"}, "bilinear_periodic": {"s_effective"},
              "bilinear_half_weight": {"s_effective", "delta", "theta"}}
    critical = ("bilinear_critical_x", "bilinear_critical_shell")
    reports = linear_probes(cfg) + [
        estimate_probe(name, cfg) for name in PROBE_NAMES if name not in critical]
    for rep in reports:
        env = rep.environment
        assert {k: env[k] for k in base} == base, rep.name
        assert set(env) - set(base) == extras.get(rep.name, set()), rep.name


# sup and mean of each linear report at n = num_times = 32, samples = 9,
# seed = 3; a change to the draws, the decay schedule or the norms moves them
_PINNED_LINEAR = {
    "linear_homogeneous": (19.04448994163849, 11.57430002343591),
    "linear_duhamel_x": (3.6355227085001345, 3.213702187373137),
    "linear_duhamel_y": (3.635447957759785, 3.2039516827990098),
    "linear_time_factor": (0.7225584106290586, 0.6579941773774552),
    "bourgain_strichartz": (0.4603142379992279, 0.42528410161812646),
    "embedding_sup_hs": (0.6889125989438544, 0.5805771028792708),
}


def test_linear_probes_pinned_values():
    reports = linear_probes(ProbeConfig(n=32, num_times=32, samples=9, seed=3))
    assert [r.name for r in reports] == list(_PINNED_LINEAR)
    for r in reports:
        sup, mean = _PINNED_LINEAR[r.name]
        assert r.sup == pytest.approx(sup, rel=1e-10), r.name
        assert r.mean == pytest.approx(mean, rel=1e-10), r.name


def _use_cpus(monkeypatch, count: int) -> None:
    """Make count CPUs usable for the sample loop's split."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _draw_index(rng) -> int:
    """The i of the stream (seed, name, i) that rng came from: the low 32
    bits of its Philox key."""
    return int(rng.bit_generator.state["state"]["key"][1]) & 0xFFFFFFFF


def _no_child_left() -> bool:
    """No child of this process is running or waiting to be reaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _family_outcome(cfg: ProbeConfig) -> str:
    # repr writes each float with every bit, and its type
    from bogl.bilinear import PROBE_NAMES, estimate_probe

    reports = linear_probes(cfg) + [estimate_probe(name, cfg) for name in PROBE_NAMES]
    return repr([(r.name, r.rows, r.skipped) for r in reports])


def test_families_give_the_same_rows_on_any_cpu_count(monkeypatch):
    # samples = 7 splits into uneven blocks: 3 + 4 on two CPUs, 2 + 2 + 3 on
    # three; the linear family and the six estimate families keep every
    # row (floats compared bit for bit) and every skip count
    cfg = ProbeConfig(n=16, num_times=16, samples=7, seed=4)
    outcomes = []
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        outcomes.append(_family_outcome(cfg))
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]
    assert _no_child_left()


def test_sample_loop_runs_one_block_per_cpu(monkeypatch):
    # each draw records the process that ran it: contiguous blocks of
    # samples * j // k draws, the first in this process and each later one
    # in a forked worker; rows and skips of every block come back in order
    kept, skips = ProbeReport("kept", "-"), ProbeReport("skips", "-")

    def sample(rng, decay):
        i = _draw_index(rng)
        return [(kept, {"pid": os.getpid(), "decay": decay}),
                (skips, None if i % 3 else {"i": i})]

    for cpus, sizes in ((1, [7]), (2, [3, 4]), (3, [2, 2, 3]), (8, [1] * 7)):
        _use_cpus(monkeypatch, cpus)
        for rep in (kept, skips):
            rep.rows.clear()
            rep.skipped = 0
        bourgain._sample_loop(ProbeConfig(samples=7), "pids", sample)
        assert [r["sample"] for r in kept.rows] == list(range(7))
        assert [r["decay"] for r in kept.rows] == [0.5, 1.0, 2.0] * 2 + [0.5]
        assert [(r["sample"], r["i"]) for r in skips.rows] == [(0, 0), (3, 3), (6, 6)]
        assert skips.skipped == 4
        pids = [r["pid"] for r in kept.rows]
        assert [len(list(run)) for _, run in itertools.groupby(pids)] == sizes
        assert pids[0] == os.getpid() and len(set(pids)) == len(sizes)
    assert _no_child_left()


def _failing_sample(rep: ProbeReport, fail):
    """A per-draw function whose draw i calls fail(i) before its row."""
    def sample(rng, decay):
        i = _draw_index(rng)
        fail(i)
        return [(rep, {"ratio": float(i)})]

    return sample


def test_a_worker_raises_as_the_serial_loop(monkeypatch):
    # draw 5 lies in a worker's block on two and three CPUs; the exception
    # of the earliest failing draw is raised, with its type and message
    def fail(i):
        if i in (5, 6):
            raise ZeroDivisionError(f"draw {i}")

    raised = []
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        with pytest.raises(ZeroDivisionError) as exc:
            bourgain._sample_loop(ProbeConfig(samples=7), "fails",
                                  _failing_sample(ProbeReport("r", "-"), fail))
        raised.append(str(exc.value))
    assert raised == ["draw 5"] * 3
    assert _no_child_left()


class _UnpicklableError(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_exception_that_does_not_pickle_keeps_its_message(monkeypatch):
    def fail(i):
        if i == 6:
            raise _UnpicklableError("one", "two")

    _use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^_UnpicklableError: one and two$"):
        bourgain._sample_loop(ProbeConfig(samples=7), "fails",
                              _failing_sample(ProbeReport("r", "-"), fail))
    assert _no_child_left()


def test_a_failing_parent_stops_its_blocked_workers(monkeypatch):
    # the workers' rows are far larger than a pipe's buffer, so each blocks
    # in its write until read; the parent's block fails first, and no
    # worker is left running or unreaped
    rep = ProbeReport("r", "-")

    def sample(rng, decay):
        i = _draw_index(rng)
        if i == 1:
            time.sleep(0.2)  # the workers are blocked in their writes by now
            raise ValueError("parent draw 1")
        return [(rep, {"ratio": 1.0, "payload": "x" * (4 << 20)})]

    _use_cpus(monkeypatch, 3)
    with pytest.raises(ValueError, match="parent draw 1"):
        bourgain._sample_loop(ProbeConfig(samples=9), "blocked", sample)
    assert _no_child_left()


def test_the_fork_warning_of_a_threaded_process_is_not_an_error(monkeypatch):
    # Python 3.12+ warns in os.fork when the process has other threads; the
    # loop shows that warning even under an error filter, since an error
    # there would lose the worker just forked, and its rows are unchanged
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                          "fork() may lead to deadlocks in the child.", DeprecationWarning)
        return pid

    rep = ProbeReport("r", "-")
    sample = _failing_sample(rep, lambda i: None)
    _use_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", warning_fork)
    with pytest.warns(DeprecationWarning, match="multi-threaded") as shown:
        warnings.simplefilter("error")
        bourgain._sample_loop(ProbeConfig(samples=7), "threaded", sample)
    assert len(shown) == 2
    assert [(r["sample"], r["ratio"]) for r in rep.rows] == [(i, float(i)) for i in range(7)]
    assert _no_child_left()


# the sample loop as the probe suite sees it: every lattice family at
# n = num_times = 16 with samples = 7 (10 for linear)
_SPLIT_SUITE = {"n": "16", "num_times": "16", "samples": "7", "exp_samples": "7",
                "exp_n": "16", "seed": "2"}


def test_probe_suite_writes_the_same_bytes_on_any_cpu_count(tmp_path, monkeypatch):
    from bogl.experiments import run_probe_suite

    written = []
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        out = run_probe_suite(_SPLIT_SUITE, tmp_path / str(cpus)).out_dir
        written.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert "exp_multiplication.csv" in written[0] and len(written[0]) > 20
    assert written[1] == written[0]
    assert written[2] == written[0]
    assert _no_child_left()


def _suite_failing_at_draw(tmp_path, monkeypatch, fail):
    """A probe-suite config of exp_multiplication and leibniz_split whose
    exp_multiplication draw i calls fail(i) first."""
    from bogl import experiments

    make_field = experiments.random_field

    def random_field(grid, rng, **kwargs):
        fail(_draw_index(rng))
        return make_field(grid, rng, **kwargs)

    monkeypatch.setattr(experiments, "random_field", random_field)
    config = tmp_path / "suite.cfg"
    config.write_text("".join(f"{k} = {v}\n" for k, v in _SPLIT_SUITE.items())
                      + "select = exp_multiplication,leibniz_split\n")
    return config


def test_a_worker_failure_is_that_probes_failure(tmp_path, monkeypatch, capsys):
    # draws 5 and 6 raise in a worker's block on two and three CPUs: the
    # suite records the serial loop's message, of the earliest failing
    # draw, for that probe alone, and --assert exits 4
    from bogl.cli import main

    def fail(i):
        if i >= 5:
            raise ArithmeticError(f"draw {i}")

    config = _suite_failing_at_draw(tmp_path, monkeypatch, fail)
    summaries = []
    for cpus in (1, 2, 3):
        _use_cpus(monkeypatch, cpus)
        out = tmp_path / str(cpus)
        assert main(["probe-suite", "--config", str(config), "--out", str(out),
                     "--assert"]) == 4
        summaries.append((out / "probe_suite_summary.json").read_bytes())
    failures = json.loads(summaries[0])["failures"]
    assert failures == [{"probe": "exp_multiplication", "error": "draw 5"}]
    assert summaries[1] == summaries[0] and summaries[2] == summaries[0]
    assert capsys.readouterr().out.count("[FAIL] no_probe_failures") == 3
    assert _no_child_left()


def test_a_killed_worker_is_a_probe_failure(tmp_path, monkeypatch):
    # not a hang and not a traceback: the probe's failure names the blocks
    # and the signal, and --assert exits 4
    from bogl.cli import main

    def fail(i):
        if i == 5:
            os.kill(os.getpid(), signal.SIGKILL)

    config = _suite_failing_at_draw(tmp_path, monkeypatch, fail)
    _use_cpus(monkeypatch, 2)
    out = tmp_path / "killed"
    assert main(["probe-suite", "--config", str(config), "--out", str(out),
                 "--assert"]) == 4
    failures = json.loads((out / "probe_suite_summary.json").read_text())["failures"]
    assert failures == [{"probe": "exp_multiplication", "error":
                         "the worker of exp-multiplication draws 3 to 6 was killed by signal 9"}]
    assert _no_child_left()


def test_exit_codes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    # a config error exits 2 and a sup that is not finite exits 3, also when
    # the draws run in three processes
    from bogl.cli import main

    _use_cpus(monkeypatch, 3)
    bad, huge = tmp_path / "bad.cfg", tmp_path / "huge.cfg"
    bad.write_text("select = linear,nope\n")
    huge.write_text("s = 1000\nselect = bilinear_periodic\nsamples = 3\n")
    assert main(["probe-suite", "--config", str(bad), "--out", str(tmp_path / "b")]) == 2
    assert main(["probe-suite", "--config", str(huge), "--out", str(tmp_path / "h"),
                 "--assert"]) == 3
    assert not (tmp_path / "h").exists()
    assert _no_child_left()


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 16.0 TiB for an array with shape (1099511627776,)"),
    ValueError("array is too big; `arr.size * arr.dtype.itemsize` is larger than "
               "the maximum possible size."),
], ids=["memory", "too_big"])
def test_a_draw_that_does_not_fit_exits_2(tmp_path, monkeypatch, capsys, error):
    # an allocation failure is not that probe's failure: the suite exits 2
    # and writes nothing, as norm-sweep does for a grid too large to hold,
    # when the failing draw runs here (draw 0, or draw 5 on one CPU) or in a
    # worker (draw 5 on two CPUs); no array is allocated
    from bogl.cli import main

    failing = {"from": 0}

    def fail(i):
        if i >= failing["from"]:
            raise error

    config = _suite_failing_at_draw(tmp_path, monkeypatch, fail)
    for first in (0, 5):
        failing["from"] = first
        for cpus in (1, 2):
            _use_cpus(monkeypatch, cpus)
            out = tmp_path / f"draw{first}_cpus{cpus}"
            assert main(["probe-suite", "--config", str(config), "--out", str(out),
                         "--assert"]) == 2
            assert not out.exists()
    assert capsys.readouterr().err.count("the run does not fit in memory") == 4
    assert _no_child_left()


def test_a_failed_fork_stops_the_workers_forked_before_it(monkeypatch):
    fork, forks = os.fork, []

    def failing_fork():
        forks.append(None)
        if len(forks) == 2:
            raise BlockingIOError("no more processes")
        return fork()

    fds = len(os.listdir("/proc/self/fd"))
    _use_cpus(monkeypatch, 3)
    monkeypatch.setattr(os, "fork", failing_fork)
    with pytest.raises(BlockingIOError, match="no more processes"):
        bourgain._sample_loop(ProbeConfig(samples=7), "unforked",
                              _failing_sample(ProbeReport("r", "-"), lambda i: None))
    assert _no_child_left()
    assert len(os.listdir("/proc/self/fd")) == fds
