"""Resonance identity, region split, oracle equivalence an the estimate probes."""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bogl
from bogl.bilinear import (
    PROBE_NAMES,
    _d_convolution,
    _g_dual_norm,
    _h_factor,
    _h_weights,
    _region_parts,
    _region_plan,
    _region_work,
    bilinear_B,
    bilinear_core,
    bracket_convolution_integral,
    bracket_convolution_check,
    decay_exponent,
    default_period_scale,
    duality_pair,
    estimate_probe,
    region_pairing,
    trilinear_I,
)
from bogl.bourgain import (
    ProbeConfig,
    SpaceTimeField,
    SpaceTimeGrid,
    random_spacetime_field,
)
from bogl.lp import phi_shell, shell_table
from bogl.reporting import stream
from bogl.spectral import _reband, make_grid

from oracles import (
    FrequencyTuple,
    GridTooLargeError,
    RegionTag,
    classify,
    region_scan,
    resonance_defect,
    trilinear_I_oracle,
)


@pytest.fixture(scope="module")
def win16():
    return SpaceTimeGrid(make_grid(16, 1.0), 16, 2 * np.pi)


def fields(win, seed, rough=0.5):
    rng = stream(seed, "test-fields")
    h = random_spacetime_field(win, rng, rough, 0.75)
    w = random_spacetime_field(win, rng, rough, 1.0, positive_xi_only=True)
    u = random_spacetime_field(win, rng, rough, 1.0, real=True)
    return h, w, u


def test_resonance_identity_examples():
    t = FrequencyTuple(xi=2, xi1=5, tau=-104, tau1=-25)
    assert t.xi2 == -3 and t.sigma == -100 and t.sigma1 == 0
    assert resonance_defect(t) == 0
    assert classify(t, 2, 4) is RegionTag.A


def test_classify_resonant_tuple_lands_in_c():
    # sigma = sigma1 = 0 forces |sigma2| = 2|xi xi2| >= N N2 / 2
    xi, xi1 = 3, 7
    t = FrequencyTuple(xi=xi, xi1=xi1, tau=-xi * xi, tau1=-xi1 * xi1)
    assert t.sigma == 0 and t.sigma1 == 0
    assert abs(t.sigma2) == 2 * xi * abs(t.xi2)
    assert classify(t, 2, 4) is RegionTag.C


def test_classify_threshold_tie_goes_to_a():
    # |sigma| exactly N N2 / 6: with N = 2, N2 = 12 the threshold is 4
    t = FrequencyTuple(xi=2, xi1=14, tau=0, tau1=-192)
    assert t.xi2 == -12 and t.sigma == 4
    assert classify(t, 2, 12) is RegionTag.A


def test_classify_rejects_bad_input():
    with pytest.raises(ValueError):
        classify(FrequencyTuple(xi=-1, xi1=3, tau=0, tau1=0), 1, 2)
    with pytest.raises(ValueError):
        classify(FrequencyTuple(xi=2, xi1=5, tau=0, tau1=0), 16, 4)


def test_region_scan_exhaustive_small():
    scan = region_scan(8, 8)
    assert scan["max_resonance_defect"] == 0
    assert scan["gaps"] == 0
    assert scan["overlaps"] == 0
    assert scan["classified"] > 0


@pytest.mark.parametrize(
    "k_max,tau_half,classified,pairs",
    [(8, 8, 39936, 16), (12, 8, 92160, 24), (32, 16, 2449408, 36)],
)
def test_region_scan_counts_pinned(k_max, tau_half, classified, pairs):
    scan = region_scan(k_max, tau_half)
    assert (scan["classified"], scan["shell_pairs"]) == (classified, pairs)
    assert scan["gaps"] == scan["overlaps"] == 0


def _ref_shells_range(k_max):
    """Reference enumeration: every dyadic N <= 2 k_max."""
    out, n = [], 1
    while n <= 2 * k_max:
        out.append(n)
        n *= 2
    return out


def _ref_g_dual_norm(g):
    """Reference: the shell-dual norm as an explicit loop over the shells."""
    gc = g.coefficients
    xi = g.grid.spatial.xi
    dual_sq = 0.0
    for shell in _ref_shells_range(g.grid.spatial.n // 2 - 1):
        mask = np.asarray(phi_shell(xi, shell))[None, :]
        piece = np.max(np.abs(gc * mask), axis=0)  # L^inf over tau
        dual_sq += float(np.sum(piece**2)) * g.grid.spatial.length
    return float(np.sqrt(dual_sq))


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("lam", [1.0, 2.0])
def test_g_dual_norm_matches_shell_loop(n, lam):
    win = SpaceTimeGrid(make_grid(n, lam), 16, 2 * np.pi)
    g = random_spacetime_field(win, stream(n, "dual", int(lam)), 0.5, 0.75)
    # the table sums the square of each shell's square root: rounding only
    assert _g_dual_norm(g) == pytest.approx(_ref_g_dual_norm(g), rel=1e-15, abs=0)


@pytest.mark.parametrize("n", [16, 32, 64])
def test_pairing_shell_weights_come_from_the_table(n):
    # _region_parts reads phi_N(xi) at xi = 1..k and phi_N2(|xi2|) at xi = -lag,
    # and _h_factor "J" sums phi_N^2 over the rows: all bit-equal to phi_shell
    xi = make_grid(n, 1.0).xi
    table = shell_table(make_grid(n, 1.0))
    shells = _ref_shells_range(n // 2 - 1)
    k = n // 2 - 1
    ks, lags = np.arange(1, k + 1), np.arange(k)
    assert list(table.shells) == shells
    assert np.array_equal(table.phi[:, 1 : k + 1], [phi_shell(ks, s) for s in shells])
    assert np.array_equal(table.phi[:, -lags % n], [phi_shell(lags, s) for s in shells])
    assert np.array_equal(
        sum(table.phi**2), sum(np.asarray(phi_shell(xi, s)) ** 2 for s in shells)
    )


def test_bilinear_zero_and_support_checks(win16):
    h, w, u = fields(win16, 0)
    zero = SpaceTimeField(
        win16, np.zeros((win16.num_times, win16.spatial.n), dtype=complex)
    )
    assert np.max(np.abs(bilinear_B(w, zero).coefficients)) == 0.0
    assert np.max(np.abs(bilinear_B(zero, u).coefficients)) == 0.0
    with pytest.raises(ValueError):
        bilinear_B(u, u)  # u has negative-frequency content
    with pytest.raises(ValueError):
        trilinear_I(h, u, u)  # the pairing checks the w slot as bilinear_B does


@pytest.mark.parametrize("other", [
    SpaceTimeGrid(make_grid(16, 2.0), 16, 2 * np.pi),
    SpaceTimeGrid(make_grid(16, 1.0), 16, 3 * np.pi),
], ids=["lambda2", "t_span_3pi"])
def test_pairings_reject_fields_from_another_grid(win16, other):
    # same shape, another lattice: the coefficient tables would pair silently
    h, w, u = fields(win16, 0)
    w2, u2 = (SpaceTimeField(other, f.coefficients) for f in (w, u))
    for pairing in (trilinear_I, trilinear_I_oracle, region_pairing):
        for args in ((h, w2, u), (h, w, u2)):
            with pytest.raises(ValueError, match="different space-time grids"):
                pairing(*args)
    with pytest.raises(ValueError, match="different space-time grids"):
        duality_pair(h, SpaceTimeField(other, bilinear_B(w, u).coefficients))


def test_bilinear_kills_analytic_signal(win16):
    _, w, _ = fields(win16, 1)
    analytic = random_spacetime_field(
        win16, stream(1, "analytic"), 0.5, 1.0, positive_xi_only=True
    )
    out = bilinear_B(w, analytic)  # P_- d/dx of positive-support input is 0
    assert np.max(np.abs(out.coefficients)) == 0.0


def test_bilinear_single_mode_oracle(win16):
    # w = e^{i(5x + tau1 t)}, u = 2cos(3x):  P_- dx u picks -3i e^{-3ix},
    # dx^{-1} w = w/(5i), output at xi = 2, tau = tau1 with coefficient
    # (2i) * (1/(5i)) * (-3i) = -6i/5... times outer (i xi) = i*2
    m, n = win16.num_times, win16.spatial.n
    tau1 = 4
    wc = np.zeros((m, n), dtype=complex)
    wc[tau1 % m, 5] = 1.0
    w = SpaceTimeField(win16, wc)
    uc = np.zeros((m, n), dtype=complex)
    uc[0, 3] = 1.0
    uc[0, n - 3] = 1.0  # 2 cos(3x)
    u = SpaceTimeField(win16, uc)
    out = bilinear_B(w, u).coefficients
    # build expected value by the direct composition of multipliers
    inner = (1.0 / (5j)) * (-3j) * 1.0  # dx^{-1} w times P_- dx u coefficient
    expected = 2j * inner  # outer d/dx at xi = +2
    nz = np.argwhere(np.abs(out) > 1e-14)
    assert len(nz) == 1
    l, k = nz[0]
    assert k == 2 and l == tau1 % m
    assert out[l, k] == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("seed", range(6))
def test_trilinear_fast_matches_oracle(win16, seed):
    h, w, u = fields(win16, seed)
    fast = trilinear_I(h, w, u)
    slow = trilinear_I_oracle(h, w, u)
    assert abs(fast - slow) <= 1e-10 * max(abs(slow), 1e-30)


# ----------------------------------------------------------------------------
# Reference: the coefficient convolution formed from samples on a lattice
# padded 2x in tau and 4x in xi.  bilinear_core and trilinear_I, which form
# it on the 3/2 lattice, must agree with it to rounding.
# ----------------------------------------------------------------------------


def _ref_padded_product(a, b):
    m, n = a.shape
    mp, np_ = 2 * m, 4 * n
    hm, hn = m // 2, n // 2

    def embed(c):
        out = np.zeros((mp, np_), dtype=np.complex128)
        out[:hm, :hn] = c[:hm, :hn]
        out[:hm, np_ - hn :] = c[:hm, n - hn :]
        out[mp - hm :, :hn] = c[m - hm :, :hn]
        out[mp - hm :, np_ - hn :] = c[m - hm :, n - hn :]
        return out

    prod = np.fft.fft2(np.fft.ifft2(embed(a)) * np.fft.ifft2(embed(b))) * (mp * np_)
    out = np.zeros((m, n), dtype=np.complex128)
    out[:hm, :hn] = prod[:hm, :hn]
    out[:hm, n - hn :] = prod[:hm, np_ - hn :]
    out[m - hm :, :hn] = prod[mp - hm :, :hn]
    out[m - hm :, n - hn :] = prod[mp - hm :, np_ - hn :]
    return out


def _ref_bilinear(w, u, critical):
    """P_+(w P_- dx u), or B(w, u) = dx P_+(dx^{-1} w P_- dx u) if critical."""
    xi = w.grid.spatial.xi
    wc = w.coefficients * (xi >= 1)
    if critical:
        wc = wc / np.where(xi >= 1, 1j * xi, 1.0)
    prod = _ref_padded_product(wc, u.coefficients * (xi < 0) * (1j * xi)) * (xi > 0)
    return SpaceTimeField(w.grid, prod * (1j * xi) if critical else prod).coefficients


def _ref_trilinear_I(h, w, u):
    xi = h.grid.spatial.xi
    hf = h.coefficients * xi * (xi >= 1) / np.sqrt(1.0 + np.abs(h.grid.sigma))
    wc = w.coefficients * (xi >= 1) / np.where(xi >= 1, xi, 1.0)
    return complex(np.sum(hf * _ref_padded_product(wc, u.coefficients * (xi <= 0) * xi)))


@pytest.mark.parametrize("n, num_times", [(16, 16), (32, 32), (32, 16)])
@pytest.mark.parametrize("seed", range(2))
def test_products_match_padded_reference(n, num_times, seed):
    win = SpaceTimeGrid(make_grid(n, 1.0), num_times, 2 * np.pi)
    h, w, u = fields(win, seed + 40)
    for op, critical in ((bilinear_B, True), (bilinear_core, False)):
        got = op(w, u).coefficients
        ref = _ref_bilinear(w, u, critical)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
    ref = _ref_trilinear_I(h, w, u)
    assert abs(trilinear_I(h, w, u) - ref) <= 1e-13 * abs(ref)


def test_trilinear_zero_arguments(win16):
    h, w, u = fields(win16, 7)
    zero = SpaceTimeField(
        win16, np.zeros((win16.num_times, win16.spatial.n), dtype=complex)
    )
    assert trilinear_I(zero, w, u) == 0
    assert trilinear_I(h, zero, u) == 0
    assert trilinear_I(h, w, zero) == 0


def test_trilinear_outside_domain_vanishes(win16):
    # u supported on positive frequencies only => xi2 > 0 always => I = 0
    h, w, _ = fields(win16, 8)
    u_pos = random_spacetime_field(
        win16, stream(8, "pos"), 0.5, 1.0, positive_xi_only=True
    )
    assert abs(trilinear_I(h, w, u_pos)) < 1e-20


def test_oracle_refuses_large_grids():
    big = SpaceTimeGrid(make_grid(64, 1.0), 64, 2 * np.pi)
    h, w, u = fields(big, 0)
    with pytest.raises(GridTooLargeError):
        trilinear_I_oracle(h, w, u)


@pytest.mark.parametrize("seed", range(4))
def test_duality_consistency(win16, seed):
    h, w, u = fields(win16, seed + 20)
    pair = duality_pair(h, bilinear_B(w, u))
    i_val = trilinear_I(h, w, u)
    assert abs(pair - 1j * i_val) <= 1e-10 * abs(i_val)


@pytest.mark.parametrize("seed", range(4))
def test_bilinear_B_from_the_pairing_convolution(win16, seed):
    # the critical probes form one band product for B(w, u) and the pairing
    h, w, u = fields(win16, seed + 40)
    d = _d_convolution(w, u)
    for form in ("I", "J"):
        assert region_pairing(h, w, u, form=form, convolution=d) == region_pairing(
            h, w, u, form=form)


@pytest.mark.parametrize("form", ["I", "J"])
def test_region_parts_sum_to_total(win16, form):
    h, w, u = fields(win16, 30)
    parts = region_pairing(h, w, u, form=form)
    closure = parts["closure_gap"] / max(abs(parts["total"]), 1e-300)
    assert closure <= 1e-10
    if form == "I":
        assert parts["total"] == pytest.approx(trilinear_I(h, w, u), rel=1e-12)


SHELLS = (1, 2, 4, 8, 16)


def _region_oracle(h, w, u, form):
    """Direct sum over the tuples of D, each weighted by phi_N(xi) phi_N2(|xi2|)
    and put in its region by the exact integer classify."""
    m, n = h.grid.num_times, h.grid.spatial.n
    hc, wc, uc = h.coefficients, w.coefficients, u.coefficients
    taus = range(-m // 2, m // 2)
    parts = {RegionTag.A: 0j, RegionTag.B: 0j, RegionTag.C: 0j}
    total = 0j
    for xi in range(1, n // 2):
        shell_sq = sum(phi_shell(xi, s) ** 2 for s in SHELLS)
        for xi1 in range(xi + 1, n // 2):
            xi2 = xi - xi1
            weights = [
                (s, s2, phi_shell(xi, s) * phi_shell(-xi2, s2))
                for s in SHELLS
                for s2 in SHELLS
            ]
            weights = [wt for wt in weights if wt[2] > 0]
            for tau in taus:
                sigma = tau + xi * xi
                if form == "I":
                    hval = xi * hc[tau % m, xi] / np.sqrt(1.0 + abs(sigma))
                else:
                    hval = xi * shell_sq * hc[tau % m, xi] / (1.0 + abs(sigma))
                for tau1 in taus:
                    tau2 = tau - tau1
                    if tau2 not in taus:
                        continue
                    val = (hval * wc[tau1 % m, xi1] / xi1
                           * xi2 * uc[tau2 % m, xi2 % n])
                    total += val
                    t = FrequencyTuple(xi=xi, xi1=xi1, tau=tau, tau1=tau1)
                    for s, s2, weight in weights:
                        parts[classify(t, s, s2)] += weight * val
    return total, parts


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("form", ["I", "J"])
def test_region_parts_match_tuple_oracle(win16, form, seed):
    h, w, u = fields(win16, 40 + seed)
    total, parts = _region_oracle(h, w, u, form)
    fast = region_pairing(h, w, u, form=form)
    assert abs(fast["total"] - total) <= 1e-12 * abs(total)
    for tag, slow in parts.items():
        assert abs(fast[tag.value] - slow) <= 1e-12 * abs(slow), tag


def _tau_padded_2m(rows):
    m = rows.shape[1]
    out = np.zeros((rows.shape[0], 2 * m), dtype=np.complex128)
    out[:, : m // 2] = rows[:, : m // 2]
    out[:, 2 * m - m // 2 :] = rows[:, m // 2 :]
    return out


def _region_parts_2m(hf, w, u):
    """The earlier _region_parts: tau transforms on 2M points, the plan built
    on every call, and four einsums per lag."""
    grid = w.grid
    m, n = grid.num_times, grid.spatial.n
    k = n // 2 - 1
    ks = np.arange(1, k + 1)
    lags = np.arange(k)
    hx = _tau_padded_2m(hf[:, 1 : k + 1].T)
    wx = _tau_padded_2m((w.coefficients[:, 1 : k + 1] / ks).T)
    ux = _tau_padded_2m((u.coefficients[:, -lags % n] * -lags).T)
    tau = np.r_[0:m, -m:0]
    six_sigma = 6 * np.abs(tau + (ks * ks)[:, None])
    six_sigma2 = 6 * np.abs(tau - (lags * lags)[:, None])

    table = shell_table(grid.spatial)
    shells = table.shells
    phi, phi2 = table.phi[:, 1 : k + 1], table.phi[:, -lags % n]
    pairs = [
        (i, j)
        for j, p2 in enumerate(phi2)
        for i, p in enumerate(phi)
        if p.any() and p2.any() and ks[p > 0][0] + lags[p2 > 0][0] <= k
    ]
    thresholds = sorted({shells[i] * shells[j] for i, j in pairs})
    thr = np.array(thresholds)[:, None, None]
    ge, ge2 = six_sigma >= thr, six_sigma2 >= thr
    h_ge, h_lt = np.fft.ifft(hx * ge), np.fft.ifft(hx * ~ge)
    w_ge, w_lt = np.fft.fft(wx * ge), np.fft.fft(wx * ~ge)
    u_ge = np.fft.fft(ux * ge2)
    w_all, u_all = np.fft.fft(wx), np.fft.fft(ux)

    parts = np.zeros(3, dtype=np.complex128)
    for j in sorted({j for _, j in pairs}):
        i_idx = np.array([i for i, jj in pairs if jj == j])
        t_idx = np.array([thresholds.index(shells[i] * shells[j]) for i in i_idx])
        h_a = np.einsum("px,pxl->xl", phi[i_idx], h_ge[t_idx])
        h_bc = phi[i_idx][:, :, None] * h_lt[t_idx]
        w_bc = np.stack([w_ge[t_idx], w_lt[t_idx]])
        u_c = u_ge[t_idx]
        for lag in np.flatnonzero(phi2[j]):
            lo, hi = slice(0, k - lag), slice(lag, k)
            b, c = np.einsum("pxl,cpxl->cpl", h_bc[:, lo], w_bc[:, :, hi])
            parts += phi2[j, lag] * np.array([
                np.einsum("xl,xl,l->", h_a[lo], w_all[hi], u_all[lag]),
                np.einsum("pl,l->", b, u_all[lag]),
                np.einsum("pl,pl->", c, u_c[:, lag]),
            ])
    return parts


def _h_factor_uncached(h, form):
    """The earlier _h_factor, with its weights built on every call."""
    xi = h.grid.spatial.xi
    pos = xi >= 1.0 - 1e-12
    bracket = 1.0 + np.abs(h.grid.sigma)
    if form == "I":
        return h.coefficients * (xi * pos)[None, :] / np.sqrt(bracket)
    shell_sq = sum(shell_table(h.grid.spatial).phi ** 2)
    return h.coefficients * (xi * pos * shell_sq)[None, :] / bracket


@settings(max_examples=24, deadline=None, database=None)
@given(n=st.sampled_from([16, 32, 64]), form=st.sampled_from("IJ"),
       rough=st.sampled_from([0.5, 1.0, 2.0]), seed=st.integers(0, 2**31 - 1))
def test_region_parts_match_the_2m_oracle(n, form, rough, seed):
    win = SpaceTimeGrid(make_grid(n, 1.0), n, 2 * np.pi)
    h, w, u = fields(win, seed, rough)
    hf = _h_factor(h, form)
    assert np.array_equal(hf, _h_factor_uncached(h, form))
    oracle = _region_parts_2m(hf, w, u)
    gap = np.max(np.abs(_region_parts(hf, w, u) - oracle))
    assert gap <= 1e-13 * np.max(np.abs(oracle))


def _region_parts_allocating(hf, w, u):
    """The earlier _region_parts: the same plan, transforms and einsums, with
    every table and stacked row a fresh array on each call."""
    plan = _region_plan(w.grid)
    n, k, length = w.grid.spatial.n, len(plan.ks), plan.length
    hx = _reband(hf[:, 1 : k + 1].T, (k, length))
    wx = _reband((w.coefficients[:, 1 : k + 1] / plan.ks).T, (k, length))
    ux = _reband((u.coefficients[:, -plan.lags % n] * -plan.lags).T, (k, length))
    h_ge, h_lt = np.fft.ifft(hx * plan.ge), np.fft.ifft(hx * plan.lt)
    w_ge, w_lt = np.fft.fft(wx * plan.ge), np.fft.fft(wx * plan.lt)
    u_ge = np.fft.fft(ux * plan.ge2)
    w_all, u_all = np.fft.fft(wx), np.fft.fft(ux)

    parts = np.zeros(3, dtype=np.complex128)
    for shell in plan.by_shell:
        p, rows, lags = len(shell.phi), shell.rows, shell.lags
        h_bc = shell.phi[:, :, None] * h_lt[rows]
        h_rows = np.concatenate(
            [np.einsum("px,pxl->xl", shell.phi, h_ge[rows])[None], h_bc, h_bc]
        )
        w_rows = np.concatenate([w_all[None], w_ge[rows], w_lt[rows]])
        corr = np.empty((len(lags), 2 * p + 1, length), dtype=np.complex128)
        for a, lag in enumerate(lags):
            np.einsum("qxl,qxl->ql", h_rows[:, : k - lag], w_rows[:, lag:], out=corr[a])
        parts += (
            np.einsum("a,al,al->", shell.phi2, corr[:, 0], u_all[lags]),
            np.einsum("a,apl,al->", shell.phi2, corr[:, 1 : p + 1], u_all[lags]),
            np.einsum("a,apl,pal->", shell.phi2, corr[:, p + 1 :],
                      u_ge[rows, lags]),
        )
    return parts


@pytest.mark.parametrize("n", [16, 32, 64])
def test_region_parts_in_the_workspace_match_the_allocating_body(n):
    win = SpaceTimeGrid(make_grid(n, 1.0), n, 2 * np.pi)
    for seed in range(3):
        h, w, u = fields(win, 50 + seed, (0.5, 1.0, 2.0)[seed])
        for form in "IJ":
            hf = _h_factor(h, form)
            # twice: the second call runs on the workspace the first left
            for _ in range(2):
                assert np.array_equal(_region_parts(hf, w, u),
                                      _region_parts_allocating(hf, w, u))


def test_warm_region_pairing_allocates_no_tables():
    # the allocating body peaks at about 1.1 MB here; what is left is the
    # total's convolution, the padded rows and einsum's own buffers
    win = SpaceTimeGrid(make_grid(32, 1.0), 32, 2 * np.pi)
    h, w, u = fields(win, 60)
    region_pairing(h, w, u)
    tracemalloc.start()
    try:
        region_pairing(h, w, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25e6


@pytest.mark.parametrize("n, num_times", [(32, 32), (16, 32), (32, 16)])
def test_region_tau_lattice_is_three_halves(monkeypatch, n, num_times):
    """Every transform of _region_parts runs along tau on 3M/2 points, the
    shortest lattice on which the tau convolutions do not wrap; the earlier
    2M padding fails this."""
    win = SpaceTimeGrid(make_grid(n, 1.0), num_times, 2 * np.pi)
    h, w, u = fields(win, 7)
    hf = _h_factor(h, "I")
    lengths = []

    def recording(transform):
        def call(a, *args, axis=-1, **kwargs):
            lengths.append(np.asarray(a).shape[axis])
            return transform(a, *args, axis=axis, **kwargs)
        return call

    for name in ("fft", "ifft"):
        monkeypatch.setattr(np.fft, name, recording(getattr(np.fft, name)))
    _region_parts(hf, w, u)
    assert lengths and set(lengths) == {3 * num_times // 2}


def test_region_tables_are_shared_and_read_only():
    a, b = (SpaceTimeGrid(make_grid(32, 1.0), 16, 2 * np.pi) for _ in range(2))
    assert a is not b
    plan = _region_plan(a)
    assert plan is _region_plan(b)
    assert _region_work(a) is _region_work(b)
    arrays = [plan.ks, plan.lags, plan.ge, plan.lt, plan.ge2]
    arrays += [arr for s in plan.by_shell for arr in (s.phi, s.lags, s.phi2)]
    for form in "IJ":
        assert _h_weights(a, form) is _h_weights(b, form)
        arrays += _h_weights(a, form)
    assert not any(arr.flags.writeable for arr in arrays)


def test_estimate_probe_reports():
    for name in PROBE_NAMES:
        cfg = ProbeConfig(n=16, num_times=16, samples=6, seed=11,
                          period_scale=default_period_scale(name))
        rep = estimate_probe(name, cfg)
        assert len(rep.rows) + rep.skipped == 6
        assert np.isfinite(rep.sup)
        for row in rep.rows:
            if "closure_rel" in row:
                assert row["closure_rel"] <= 1e-10
    with pytest.raises(ValueError):
        estimate_probe("nope", ProbeConfig())


def test_fewer_samples_give_a_prefix_of_the_rows():
    # draw i reads only the stream (seed, name, i): acceptance c08 takes its
    # 100-sample base from the 200-sample rows on this ground
    for name in PROBE_NAMES:
        cfg = ProbeConfig(n=16, num_times=16, samples=6, seed=11,
                          period_scale=default_period_scale(name))
        rows = estimate_probe(name, cfg).rows
        fewer = estimate_probe(name, replace(cfg, samples=3)).rows
        assert fewer == [row for row in rows if row["sample"] < 3], name


@pytest.mark.parametrize("name", ["bilinear_critical_x", "bilinear_critical_shell"])
def test_skipped_draw_computes_nothing_after_its_rhs(monkeypatch, name):
    # a draw whose right-hand side vanishes is counted as a skip before any
    # band product or region split is formed
    from bogl import bilinear

    def forbidden(*args, **kwargs):
        raise AssertionError("computed after a vanishing right-hand side")

    monkeypatch.setattr(bilinear, "x_norm", lambda *args: 0.0)
    for late in ("_d_convolution", "region_pairing", "_g_dual_norm"):
        monkeypatch.setattr(bilinear, late, forbidden)
    rep = estimate_probe(name, ProbeConfig(n=16, num_times=16, samples=4))
    assert rep.rows == [] and rep.skipped == 4


# sup and mean of each probe at n = num_times = 16, samples = 6, seed = 11
# (exp_lowband at period scale 2); a change to the draws, to the (s, b)
# weights or to the pairing form of a probe moves them
_PINNED_PROBES = {
    ("bilinear_critical_x", 0.0): (0.0037711691049275393, 0.0018782522557794989),
    ("bilinear_critical_shell", 0.0): (0.005067963724561457, 0.0031699320043779657),
    ("exp_lowband", 0.0): (0.031031311702202136, 0.024493197483586155),
    ("leibniz_split", 0.0): (0.16531707173335267, 0.11059768726531817),
    ("bilinear_half_weight", 0.0): (0.006629063251518614, 0.0046367382938379996),
    ("bilinear_periodic", 0.0): (0.007069929666140273, 0.004056559699382712),
    ("bilinear_critical_x", 0.3): (0.003542394761388397, 0.0018069304694397076),
    ("bilinear_critical_shell", 0.3): (0.004813613848845469, 0.002999946749178237),
    ("exp_lowband", 0.3): (0.03616345780834173, 0.028435191651485347),
    ("leibniz_split", 0.3): (0.16531707173335267, 0.11059768726531817),
    ("bilinear_half_weight", 0.3): (0.006563511028659777, 0.004563599113449514),
    ("bilinear_periodic", 0.3): (0.0068177429270420056, 0.0039474422741281),
}


@pytest.mark.parametrize("name,s", sorted(_PINNED_PROBES))
def test_estimate_probe_pinned_values(name, s):
    cfg = ProbeConfig(n=16, num_times=16, samples=6, seed=11, s=s,
                      period_scale=default_period_scale(name))
    rep = estimate_probe(name, cfg)
    sup, mean = _PINNED_PROBES[name, s]
    assert rep.sup == pytest.approx(sup, rel=1e-10)
    assert rep.mean == pytest.approx(mean, rel=1e-10)


def test_probe_determinism():
    cfg = ProbeConfig(n=16, num_times=16, samples=4, seed=5)
    a = estimate_probe("bilinear_critical_x", cfg)
    b = estimate_probe("bilinear_critical_x", cfg)
    assert a.rows == b.rows


def test_bracket_convolution_closed_form():
    assert bracket_convolution_integral(1.0, 1.0, 0.0) == pytest.approx(2.0 / 3.0, abs=1e-10)


def test_bracket_decay_cases():
    assert decay_exponent(1.0, 1.0) == 2.0
    assert decay_exponent(0.5, 0.5, eps=0.01) == pytest.approx(0.99)
    assert decay_exponent(0.3, 0.4) == pytest.approx(2 * 0.7 - 1)


def _symbolic_oracle(mu: float):
    # exact value for a- = a+ = 1: three rational segments, each split into
    # partial fractions first (the same number, several times faster)
    import sympy as sp

    y = sp.symbols("y", real=True)
    m = sp.Rational(mu)
    segments = [
        ((1 - y) ** -2 * (1 + m - y) ** -2, (y, -sp.oo, 0)),
        ((1 + y) ** -2 * (1 + m - y) ** -2, (y, 0, m)),
        ((1 + y) ** -2 * (1 + y - m) ** -2, (y, m, sp.oo)),
    ]
    return float(sum(sp.integrate(sp.apart(f, y), lim) for f, lim in segments))


def _closed_form_oracle(mu: float) -> float:
    """The a- = a+ = 1 integral for mu >= 0, from the partial fractions of the
    three segments: 2/3 at mu = 0, and otherwise 2 I1 + I2 with S = 2 + mu,
    I1 = (1 + 1/(1+mu))/mu^2 - 2 ln(1+mu)/mu^3 and
    I2 = (2 (1 - 1/(1+mu)) + 4 ln(1+mu)/S)/S^2, in 60-digit arithmetic."""
    import mpmath as mp

    if mu == 0:
        return 2.0 / 3.0
    with mp.workdps(60):
        m = mp.mpf(mu)
        s, log = 2 + m, mp.log1p(m)
        i1 = (1 + 1 / (1 + m)) / m**2 - 2 * log / m**3
        i2 = (2 * (1 - 1 / (1 + m)) + 4 * log / s) / s**2
        return float(2 * i1 + i2)


def test_closed_form_oracle_vs_symbolic():
    # sympy's exact integral certifies the closed form once, at a rational mu
    assert _closed_form_oracle(3.0) == pytest.approx(_symbolic_oracle(3.0), rel=1e-15, abs=0)


@pytest.mark.parametrize("mu", [0.0, 3.0, 57.0])
def test_bracket_quadrature_vs_symbolic_oracle(mu):
    adaptive = bracket_convolution_integral(1.0, 1.0, mu)
    exact = _closed_form_oracle(mu)
    assert adaptive == pytest.approx(exact, abs=1e-10)


# abs=0 below: the integral falls to about 4e-24 at mu = 1e12, far under
# pytest.approx's default absolute tolerance of 1e-12
@pytest.mark.parametrize("mu", [1e4, 1e8, 1e12])
def test_bracket_rule_vs_exact_value(mu):
    assert bracket_convolution_integral(1.0, 1.0, mu) == pytest.approx(
        _closed_form_oracle(mu), rel=1e-13, abs=0
    )


def _bracket_integrand(a_minus, a_plus, mu):
    return lambda y: (1 + abs(y)) ** (-2 * a_minus) * (1 + abs(y - mu)) ** (-2 * a_plus)


def _mpmath_oracle(a_minus: float, a_plus: float, mu: float) -> float:
    import mpmath as mp

    with mp.workdps(40):
        m = mp.mpf(mu)
        f = _bracket_integrand(mp.mpf(a_minus), mp.mpf(a_plus), m)
        cuts = sorted({mp.mpf(0), mp.mpf(1), m / 2, m - 1, m, m + 1})
        return float(mp.quad(f, [-mp.inf, *cuts, mp.inf]))


def _quad_oracle(a_minus: float, a_plus: float, mu: float) -> float:
    # the adaptive scipy quadrature the rule replaced; wrong beyond mu ~ 1e3
    from scipy.integrate import quad

    f = _bracket_integrand(a_minus, a_plus, mu)
    pts = [-np.inf, *sorted({0.0, mu}), np.inf]
    return sum(
        quad(f, a, b, epsabs=1e-13, epsrel=1e-12, limit=400)[0]
        for a, b in zip(pts[:-1], pts[1:])
    )


_BRACKET_PAIRS = [(1.5, 3.0), (0.5, 0.5), (0.3, 0.4), (0.5, 2.0)]


@pytest.mark.parametrize("mu", [0.0, 1.0, 57.0, 1e4, 1e8])
@pytest.mark.parametrize("a_minus,a_plus", _BRACKET_PAIRS)
def test_bracket_rule_vs_mpmath(a_minus, a_plus, mu):
    assert bracket_convolution_integral(a_minus, a_plus, mu) == pytest.approx(
        _mpmath_oracle(a_minus, a_plus, mu), rel=1e-12, abs=0
    )


@pytest.mark.parametrize("mu", [0.0, 1.0, 57.0, -57.0, 1e3])
@pytest.mark.parametrize("a_minus,a_plus", [(1.0, 1.0), *_BRACKET_PAIRS])
def test_bracket_rule_vs_adaptive_quadrature(a_minus, a_plus, mu):
    assert bracket_convolution_integral(a_minus, a_plus, mu) == pytest.approx(
        _quad_oracle(a_minus, a_plus, mu), rel=1e-9, abs=0
    )


def test_bracket_check_does_not_import_scipy():
    # the rule is numpy-only: a CLI process that runs the check never loads scipy
    code = (
        "import sys, bogl.cli\n"
        "from bogl.bilinear import bracket_convolution_check\n"
        "bracket_convolution_check(1.0, 1.0, [0, 1e4])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(bogl.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert out.stdout.strip() == "[]"


def test_bracket_sweep_bounded():
    rep = bracket_convolution_check(1.0, 1.0, [0, 1, 10, 100, 1000, 10000])
    assert np.isfinite(rep.sup)
    vals = rep.ratios
    assert np.max(vals) / np.min(vals) < 10  # weighted integral roughly flat
    with pytest.raises(ValueError):
        bracket_convolution_integral(0.3, 0.1, 0.0)
    with pytest.raises(ValueError):
        bracket_convolution_integral(0.2, 0.2, 0.0)
