"""Property tests over random grids and seeds: the Galilean change of unknown
and Plancherel through the shared L^p sum."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bogl.bourgain import (
    SpaceTimeGrid,
    random_spacetime_field,
    spacetime_lebesgue,
    x_norm,
)
from bogl.gauge import translate_to_zero_mean
from bogl.reporting import stream
from bogl.spectral import lebesgue_norm, make_grid, random_field, sobolev_norm

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
