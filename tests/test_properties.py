"""Property tests over random grids and seeds: the Galilean change of unknown,
Plancherel through the shared L^p sum, the batched (time slice, x) passes
against per-slice loops, and the resonance identity and region split."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bogl.bilinear import (
    _exp_lowband_operator,
    region_pairing,
)
from bogl.bourgain import (
    SpaceTimeGrid,
    random_spacetime_field,
    spacetime_lebesgue,
    x_norm,
)
from bogl.gauge import _truncate, exponential_pair, translate_to_zero_mean
from bogl.reporting import stream
from bogl.spectral import (
    ComplexField,
    RealField,
    _band_product,
    lebesgue_norm,
    make_grid,
    pointwise_product,
    projection_symbol,
    random_field,
    sobolev_norm,
)

from oracles import (
    FrequencyTuple,
    RegionTag,
    classify,
    resonance_defect,
    trilinear_I_oracle,
)

PROPERTY = settings(max_examples=30, deadline=None, database=None)
grids = st.builds(
    make_grid, st.sampled_from([8, 16, 64, 256]), st.sampled_from([1.0, 2.0, 4.0])
)
seeds = st.integers(0, 2**31 - 1)


@PROPERTY
@given(grid=grids, seed=seeds, t=st.floats(-3.0, 3.0))
def test_galilean_round_trip(grid, seed, t):
    u = random_field(grid, stream(seed, "property"), mean_zero=False)
    m = float(u.mean.real)
    back = translate_to_zero_mean(translate_to_zero_mean(u, m, t), -m, t)
    assert np.max(np.abs(back.coefficients - u.coefficients)) <= 1e-13


@PROPERTY
@given(grid=grids, num_times=st.sampled_from([16, 32]),
       t_span=st.floats(0.5, 10.0), seed=seeds)
def test_plancherel_through_the_lp_sum(grid, num_times, t_span, seed):
    rng = stream(seed, "property")
    f = random_field(grid, rng, decay=0.5, mean_zero=False)
    assert abs(lebesgue_norm(f, 2) - sobolev_norm(f, 0)) <= 1e-12 * sobolev_norm(f, 0)
    big = random_spacetime_field(SpaceTimeGrid(grid, num_times, t_span), rng)
    x00 = x_norm(big, 0, 0)
    assert abs(spacetime_lebesgue(big, 2) - x00) <= 1e-12 * x00


def _exp_lowband_loop(u):
    """The per-slice path of the exp_lowband probe: one RealField, one gauge
    exponential and one pointwise_product per time slice."""
    grid = u.grid.spatial
    xi = grid.xi
    s_lo = projection_symbol("lo", xi)
    s_minus_dx = projection_symbol("minus", xi) * (1j * xi)
    s_outer = projection_symbol("plus", xi) * (1j * xi)
    slices = u.slices()
    out = np.zeros((u.grid.num_times, grid.n), dtype=np.complex128)
    for mth in range(u.grid.num_times):
        slice_u = RealField(grid, slices[mth])
        em = exponential_pair(slice_u, 4)[1]
        e_lo = _truncate(em, grid) * s_lo
        ux_m = slice_u.coefficients * s_minus_dx
        prod = pointwise_product(ComplexField(grid, e_lo), ComplexField(grid, ux_m))
        out[mth] = prod.coefficients * s_outer
    return out


slabs = st.builds(
    lambda n, num_times, lam: SpaceTimeGrid(make_grid(n, lam), num_times, 2.0 * np.pi),
    st.sampled_from([8, 16, 32]), st.sampled_from([16, 32]), st.sampled_from([1.0, 2.0]),
)


@PROPERTY
@given(win=slabs, decay=st.sampled_from([1.0, 2.0]), seed=seeds)
def test_exp_lowband_batch_equals_slice_loop(win, decay, seed):
    u = random_spacetime_field(win, stream(seed, "property"), xi_decay=decay,
                               sigma_decay=1.5, real=True, zero_mean_x=True)
    assert np.array_equal(_exp_lowband_operator(u), _exp_lowband_loop(u))


@PROPERTY
@given(win=slabs, seed=seeds)
def test_band_product_along_x_equals_rows(win, seed):
    rng = stream(seed, "property")
    shape = (win.num_times, win.spatial.n)
    a, b = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "ab")
    batch = _band_product(a, b, axes=(-1,))
    rows = [_band_product(a[m], b[m]) for m in range(shape[0])]
    assert np.array_equal(batch, np.array(rows))


def _shells_holding(mag):
    """The dyadic N with N/2 <= mag <= 2N."""
    return [2**j for j in range(8) if 2**j <= 2 * mag <= 4 * 2**j]


@PROPERTY
@given(xi=st.integers(1, 64), gap=st.integers(1, 64), sigma=st.integers(-1000, 1000),
       sigma1=st.integers(-1000, 1000), data=st.data())
def test_resonance_identity_and_region_coverage(xi, gap, sigma, sigma1, data):
    # xi1 = xi + gap puts the tuple in D with xi2 = -gap; the modulations
    # sigma, sigma1 range near the resonant lines, where all three regions occur
    t = FrequencyTuple(xi=xi, xi1=xi + gap, tau=sigma - xi * xi,
                       tau1=sigma1 - (xi + gap) ** 2)
    assert t.in_domain and (t.sigma, t.sigma1, t.xi2) == (sigma, sigma1, -gap)
    assert resonance_defect(t) == 0
    shell = data.draw(st.sampled_from(_shells_holding(xi)))
    shell2 = data.draw(st.sampled_from(_shells_holding(gap)))
    thr = shell * shell2
    in_a = 6 * abs(t.sigma) >= thr
    in_b = not in_a and 6 * abs(t.sigma1) >= thr
    in_c = not in_a and not in_b and 6 * abs(t.sigma2) >= thr
    assert [in_a, in_b, in_c].count(True) == 1
    expected = RegionTag.A if in_a else RegionTag.B if in_b else RegionTag.C
    assert classify(t, shell, shell2) is expected


@settings(max_examples=10, deadline=None, database=None)
@given(n=st.sampled_from([16, 32]), num_times=st.sampled_from([16, 32]),
       decay=st.sampled_from([0.5, 1.0, 2.0]), seed=seeds)
def test_region_pairing_matches_the_tuple_sum(n, num_times, decay, seed):
    win = SpaceTimeGrid(make_grid(n, 1.0), num_times, 2.0 * np.pi)
    rng = stream(seed, "property")
    h = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=0.75)
    w = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=1.0,
                               positive_xi_only=True)
    u = random_spacetime_field(win, rng, xi_decay=decay, sigma_decay=1.0, real=True)
    oracle = trilinear_I_oracle(h, w, u)
    parts = region_pairing(h, w, u)
    for value in (parts["total"], parts["A"] + parts["B"] + parts["C"]):
        assert abs(value - oracle) <= 1e-10 * abs(oracle)
