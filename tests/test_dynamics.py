"""Integrator order, conservation and invariances of the evolution."""

import tracemalloc
import warnings

import numpy as np
import pytest

from bogl.dynamics import (
    ETDRK4Stepper,
    IntegrationError,
    SimConfig,
    energy,
    momentum,
    nonlinearity,
    rescale,
    simulate,
    step,
    steady_residual,
    traveling_wave,
)
from bogl.spectral import (
    RealField,
    free_propagate,
    lebesgue_norm,
    make_grid,
    random_field,
    translate,
)


@pytest.fixture(scope="module")
def grid():
    return make_grid(256, 1.0)


def smooth_data(grid, seed=7, amplitude=1.0, max_mode=6):
    rng = np.random.default_rng(seed)
    return random_field(grid, rng, decay=2.0, amplitude=amplitude, max_mode=max_mode)


def test_nonlinearity_trig_identity(grid):
    u = RealField.from_samples(grid, np.cos(grid.x))
    out = nonlinearity(u)
    expected = -0.5 * np.sin(2 * grid.x)
    assert np.max(np.abs(out.samples - expected)) < 1e-13


def test_nonlinearity_constant_and_mean(grid):
    const = RealField.from_samples(grid, 0.7 * np.ones(grid.n))
    assert lebesgue_norm(nonlinearity(const), 2) == 0.0
    u = smooth_data(grid)
    assert abs(nonlinearity(u).mean) < 1e-15


class ComplexStepperOracle:
    """Full-spectrum ETDRK4 with u*u_x from three complex FFTs per stage.

    The same scheme as ETDRK4Stepper, kept as an independent reference for the
    half-spectrum conservative-form stepper.
    """

    def __init__(self, grid, dt):
        xi = grid.xi
        lin = -1j * np.abs(xi) * xi
        self.exp_full, self.exp_half = np.exp(dt * lin), np.exp(0.5 * dt * lin)
        theta = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)  # 32 contour points
        lr = dt * lin[:, None] + theta[None, :]
        elr = np.exp(lr)
        self.q = dt * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1)
        self.f1 = dt * np.mean((-4.0 - lr + elr * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1)
        self.f2 = dt * np.mean((2.0 + lr + elr * (lr - 2.0)) / lr**3, axis=1)
        self.f3 = dt * np.mean((-4.0 - 3.0 * lr - lr**2 + elr * (4.0 - lr)) / lr**3, axis=1)
        self.drop = np.abs(grid.k) > 2.0 / 3.0 * (grid.n // 2) + 1e-9  # the 2/3 rule
        self.drop[grid.nyquist_index] = True
        self.ikxi, self.n = 1j * xi, grid.n

    def nonlinear(self, coeff):
        u = np.fft.ifft(coeff) * self.n
        ux = np.fft.ifft(self.ikxi * coeff) * self.n
        out = np.fft.fft(u * ux) / self.n
        out[self.drop] = 0.0
        return out

    def advance(self, coeff):
        n0 = self.nonlinear(coeff)
        a = self.exp_half * coeff + self.q * n0
        na = self.nonlinear(a)
        b = self.exp_half * coeff + self.q * na
        nb = self.nonlinear(b)
        c = self.exp_half * a + self.q * (2.0 * nb - n0)
        nc = self.nonlinear(c)
        return (self.exp_full * coeff + self.f1 * n0 + self.f2 * 2.0 * (na + nb)
                + self.f3 * nc)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("period_scale", [1.0, 2.0])
@pytest.mark.parametrize("n", [64, 256, 16384])
def test_stepper_coefficients_match_one_shot_contour(n, period_scale):
    # the stepper forms the contour average in blocks of modes, the oracle on
    # its whole (n x 32) array; on the modes both hold (k < n/2) they agree
    # bit for bit, which a partition into blocks of another size can break
    g = make_grid(n, period_scale)
    stepper, oracle = ETDRK4Stepper(g, 5e-4), ComplexStepperOracle(g, 5e-4)
    for name in ("q", "f1", "f2", "f3"):
        got, expected = getattr(stepper, name), getattr(oracle, name)
        assert np.array_equal(got[: n // 2], expected[: n // 2]), name


def test_stepper_setup_memory_is_linear_in_n():
    # the whole (n/2+1) x 32 contour at once peaks near 80 MB here
    g = make_grid(2**16, 1.0)
    tracemalloc.start()
    try:
        ETDRK4Stepper(g, 5e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2**20


@pytest.mark.parametrize("n", [64, 256, 4096])
def test_stepper_nonlinear_matches_u_ux(n):
    # in-band data: the conservative (u^2/2)_x equals u*u_x after dealiasing
    g = make_grid(n, 1.0)
    u = random_field(g, np.random.default_rng(n), decay=0.5, max_mode=n // 3)
    half = ETDRK4Stepper(g, 1e-3).nonlinear(u.coefficients[: n // 2 + 1])
    full = nonlinearity(u).coefficients
    assert _rel(half, full[: n // 2 + 1]) < 1e-13
    assert np.all(half[n // 3 + 1 :] == 0.0)


def test_march_matches_complex_oracle(grid):
    u = smooth_data(grid, amplitude=1.0, max_mode=20)
    dt = 1e-3
    oracle = ComplexStepperOracle(grid, dt)
    expected = u.copy_coefficients()
    for _ in range(200):
        expected = oracle.advance(expected)
    cfg = SimConfig(grid, dt=dt, t_end=200 * dt, snapshot_stride=200)
    got = simulate(u, cfg).states[-1]
    assert _rel(got.coefficients, expected) < 1e-12
    stepped = u
    for _ in range(200):
        stepped = step(stepped, dt)
    assert _rel(stepped.coefficients, expected) < 1e-12


def test_step_output_is_real(grid):
    u = smooth_data(grid, max_mode=40)
    out = step(u, 1e-3)
    assert isinstance(out, RealField)
    assert out.imag_residue < 1e-12
    assert np.max(np.abs(out.coefficients[1:] - np.conj(out.coefficients[:0:-1]))) == 0.0


def test_overflow_is_reported_without_warnings():
    g = make_grid(64, 1.0)
    huge = random_field(g, np.random.default_rng(0), decay=1.0, amplitude=1e200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError) as lone:
            step(huge, 1e-3)
        with pytest.raises(IntegrationError) as march:
            simulate(huge, SimConfig(g, dt=1e-3, t_end=0.003))
    # a lone step knows its size, not where it sits in a march
    assert lone.value.time is None and lone.value.dt == 1e-3
    assert "dt = 0.001" in str(lone.value) and "at t =" not in str(lone.value)
    assert march.value.time == pytest.approx(1e-3)
    assert "at t = 0.001" in str(march.value)


@pytest.mark.parametrize("kwargs", [{}, {"time": None}, {"time": 1.0, "dt": 1e-3}])
def test_integration_error_needs_exactly_one_location(kwargs):
    with pytest.raises(ValueError, match="exactly one of time and dt"):
        IntegrationError(**kwargs)


def test_step_dt_to_zero_limit(grid):
    u = smooth_data(grid)
    moved = step(u, 1e-8)
    assert lebesgue_norm(moved - u, 2) < 1e-6


def test_step_linear_regime_matches_free_group(grid):
    u = smooth_data(grid, amplitude=1e-6)
    dt = 1e-3
    out = step(u, dt)
    lin = free_propagate(u, dt)
    # nonlinear correction is O(dt * amplitude^2)
    assert lebesgue_norm(out - lin, 2) < 50 * dt * 1e-12


def test_global_fourth_order(grid):
    u = smooth_data(grid, amplitude=0.8)
    errs = []
    sols = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = SimConfig(grid, dt=dt, t_end=0.2, snapshot_stride=round(0.2 / dt))
        sols.append(simulate(u, cfg).states[-1])
    e1 = lebesgue_norm(sols[0] - sols[2], 2)
    e2 = lebesgue_norm(sols[1] - sols[2], 2)
    slope = np.log2(e1 / e2)
    assert 3.5 < slope < 4.6


def test_zero_and_constant_solutions(grid):
    cfg = SimConfig(grid, dt=1e-3, t_end=0.05, snapshot_stride=10)
    zero = RealField.from_samples(grid, np.zeros(grid.n))
    traj = simulate(zero, cfg)
    assert all(lebesgue_norm(u, 2) == 0.0 for u in traj.states)
    const = RealField.from_samples(grid, 0.4 * np.ones(grid.n))
    traj = simulate(const, cfg)
    for u in traj.states:
        assert np.max(np.abs(u.samples - 0.4)) < 1e-13


def test_conservation_drift(grid):
    u0 = smooth_data(grid, amplitude=1.0)
    cfg = SimConfig(grid, dt=1e-3, t_end=0.25, snapshot_stride=50)
    traj = simulate(u0, cfg)
    m = traj.momenta
    e = traj.energies
    assert np.max(np.abs(m - m[0])) / abs(m[0]) < 1e-10
    assert np.max(np.abs(e - e[0])) / abs(e[0]) < 1e-8
    # mean is transported exactly, reality preserved
    assert max(abs(u.mean.real - u0.mean.real) for u in traj.states) < 1e-13
    assert max(u.imag_residue for u in traj.states) < 1e-12


def test_time_reversibility_linear_part(grid):
    u = smooth_data(grid)
    back = free_propagate(free_propagate(u, 1e-3), -1e-3)
    assert lebesgue_norm(back - u, 2) < 1e-12


def test_momentum_energy_closed_forms(grid):
    cos = RealField.from_samples(grid, np.cos(grid.x))
    assert momentum(cos) == pytest.approx(np.pi, rel=1e-13)
    assert energy(cos) == pytest.approx(np.pi / 2, rel=1e-13)
    zero = RealField.from_samples(grid, np.zeros(grid.n))
    assert momentum(zero) == 0.0 and energy(zero) == 0.0


def test_traveling_wave_profile_and_propagation(grid):
    wave, speed = traveling_wave(grid, 0.3)
    assert steady_residual(wave, speed) < 1e-12
    cfg = SimConfig(grid, dt=1e-3, t_end=0.5, snapshot_stride=500)
    traj = simulate(wave, cfg)
    exact = translate(wave, speed * 0.5)
    assert lebesgue_norm(traj.states[-1] - exact, 2) < 1e-9


def test_rescale_norm_relation():
    g4 = make_grid(256, 4.0)
    u = random_field(g4, np.random.default_rng(3), decay=1.5, amplitude=0.5)
    for lam in (1, 2, 4):
        v = rescale(u, lam)
        assert v.grid.period_scale == pytest.approx(4.0 / lam)
        assert lebesgue_norm(v, 2) == pytest.approx(
            np.sqrt(lam) * lebesgue_norm(u, 2), rel=1e-12
        )
    same = rescale(u, 1)
    assert np.max(np.abs(same.samples - u.samples)) < 1e-15
    with pytest.raises(ValueError):
        rescale(u, 3)
    with pytest.raises(ValueError):
        rescale(u, 8)  # would need period_scale 1/2


def test_rescale_solution_correspondence():
    # u_lam(x, t) = lam u(lam x, lam^2 t): evolve both and compare on the lattice
    lam = 2
    g_base = make_grid(256, 2.0)
    u0 = random_field(g_base, np.random.default_rng(4), decay=2.0, amplitude=0.25,
                      max_mode=6)
    t_scaled = 0.25
    cfg_base = SimConfig(g_base, dt=1e-3, t_end=lam**2 * t_scaled,
                         snapshot_stride=round(lam**2 * t_scaled / 1e-3))
    base_final = simulate(u0, cfg_base).states[-1]
    v0 = rescale(u0, lam)
    cfg_scaled = SimConfig(v0.grid, dt=1e-3, t_end=t_scaled,
                           snapshot_stride=round(t_scaled / 1e-3))
    scaled_final = simulate(v0, cfg_scaled).states[-1]
    expected = rescale(base_final, lam)
    err = lebesgue_norm(scaled_final - expected, 2)
    assert err < 1e-6
