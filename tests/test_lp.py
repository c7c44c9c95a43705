"""Cutoff profile, dyadic shells and the shell-summed norm."""

import numpy as np
import pytest

from bogl.lp import (
    decompose,
    dyadic_shells,
    eta,
    phi,
    phi_shell,
    shell_table,
    tilde_lp_norm,
)
from bogl.spectral import (
    RealField,
    lebesgue_norm,
    make_grid,
    random_field,
)

GRIDS = [(n, lam) for n in (16, 32, 64) for lam in (1.0, 2.0)]


def test_eta_plateaus_and_support():
    assert eta(0.5) == 1.0
    assert eta(1.0) == 1.0
    assert eta(3.0) == 0.0
    assert eta(2.0) == 0.0
    xs = np.linspace(-3, 3, 301)
    vals = eta(xs)
    assert np.all(vals >= 0) and np.all(vals <= 1)
    assert np.max(np.abs(vals - eta(-xs))) == 0.0  # even
    ramp = vals[(np.abs(xs) > 1) & (np.abs(xs) < 2)]
    assert np.all((ramp > 0) & (ramp < 1) | (ramp == ramp))  # finite


def test_phi_support():
    xs = np.linspace(-5, 5, 1001)
    vals = phi(xs)
    inside = (np.abs(xs) >= 0.5) & (np.abs(xs) <= 2.0)
    assert np.all(vals[~inside] == 0.0)
    assert phi(1.0) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n,lam", [(64, 1.0), (256, 1.0), (256, 2.0), (1024, 1.0)])
def test_partition_of_unity_on_lattice(n, lam):
    g = make_grid(n, lam)
    xi = g.xi[g.xi != 0]
    total = eta(2 * xi)
    for shell in dyadic_shells(g.max_frequency()):
        total = total + phi_shell(xi, shell)
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_decompose_reconstructs():
    g = make_grid(256, 1.0)
    f = random_field(g, np.random.default_rng(0), decay=0.5, mean_zero=False)
    d = decompose(f)
    rec = d.reconstruct()
    assert np.max(np.abs(rec.coefficients - f.coefficients)) < 1e-12 * max(
        1.0, np.max(np.abs(f.coefficients))
    )


def test_decompose_single_mode_split():
    # e^{3ix}: phi_2(3) + phi_4(3) = 1, all other shells and the low part vanish
    g = make_grid(64, 1.0)
    coeff = np.zeros(g.n, dtype=complex)
    coeff[3] = 1.0
    coeff[-3] = 1.0
    f = RealField(g, coeff)
    d = decompose(f)
    masses = dict(d.shell_masses())
    assert masses[0] == 0.0
    assert masses[2] > 0 and masses[4] > 0
    assert phi_shell(3.0, 2) + phi_shell(3.0, 4) == pytest.approx(1.0, abs=1e-14)
    for n_, m in masses.items():
        if n_ not in (2, 4):
            assert m == pytest.approx(0.0, abs=1e-28)


def test_decompose_constant_goes_to_low():
    g = make_grid(64, 1.0)
    f = RealField.from_samples(g, 2.5 * np.ones(g.n))
    d = decompose(f)
    assert lebesgue_norm(d.low - f, 2) < 1e-14
    assert all(lebesgue_norm(p, 2) == 0.0 for _, p in d.shells)


def test_shell_quasi_orthogonality():
    # P_N P_M = 0 unless M in {N/2, N, 2N}
    g = make_grid(256, 1.0)
    f = random_field(g, np.random.default_rng(1), decay=0.0)
    shells = dyadic_shells(g.max_frequency())
    for n_ in shells:
        pn = RealField(g, f.coefficients * phi_shell(g.xi, n_))
        for m_ in shells:
            both = RealField(g, pn.coefficients * phi_shell(g.xi, m_))
            if m_ not in (n_ // 2, n_, 2 * n_):
                assert lebesgue_norm(both, 2) == pytest.approx(0.0, abs=1e-14)


def test_tilde_norm_single_shell_cases():
    g = make_grid(64, 1.0)
    # frequency 4 sits on the phi_4 plateau: tilde norm = 0 + ||f||
    f4 = RealField.from_samples(g, np.cos(4 * g.x))
    assert tilde_lp_norm(f4, 2) == pytest.approx(lebesgue_norm(f4, 2), rel=1e-13)
    # a constant lives entirely in the low part: tilde norm = ||f|| + 0
    c = RealField.from_samples(g, 1.3 * np.ones(g.n))
    assert tilde_lp_norm(c, 2) == pytest.approx(lebesgue_norm(c, 2), rel=1e-13)
    zero = RealField.from_samples(g, np.zeros(g.n))
    assert tilde_lp_norm(zero, 4) == 0.0


def test_lp_injection_constant_reported():
    # ||f||_p <= C ||f||_tilde-p on a random ensemble; report-style check C ~ O(1)
    g = make_grid(256, 1.0)
    rng = np.random.default_rng(2)
    sup = 0.0
    for _ in range(25):
        f = random_field(g, rng, decay=0.7, mean_zero=False)
        ratio = lebesgue_norm(f, 4) / tilde_lp_norm(f, 4)
        sup = max(sup, ratio)
    assert np.isfinite(sup) and 0 < sup <= 1.5


def _ref_dyadic_shells(grid):
    """Reference enumeration: 1, 2, ..., up to the first dyadic >= max |xi|."""
    n_max = 1
    while n_max < grid.max_frequency():
        n_max *= 2
    shells, n = [], 1
    while n <= n_max:
        shells.append(n)
        n *= 2
    return shells


def _ref_tilde_lp_norm(f, p):
    """Reference: the eta low part plus an explicit loop over the shells."""
    xi = f.grid.xi
    low = type(f)(f.grid, f.coefficients * eta(xi))
    shell_sq = 0.0
    for n in _ref_dyadic_shells(f.grid):
        piece = type(f)(f.grid, f.coefficients * phi_shell(xi, n))
        shell_sq += lebesgue_norm(piece, p) ** 2
    return lebesgue_norm(low, p) + float(np.sqrt(shell_sq))


@pytest.mark.parametrize("n,lam", GRIDS)
def test_shell_table_matches_per_shell_evaluation(n, lam):
    g = make_grid(n, lam)
    table = shell_table(g)
    assert list(table.shells) == _ref_dyadic_shells(g)
    assert dyadic_shells(g.max_frequency()) == _ref_dyadic_shells(g)
    assert np.array_equal(table.low, eta(g.xi))
    assert table.phi.shape == (len(table.shells), n)
    for row, shell in zip(table.phi, table.shells):
        assert np.array_equal(row, phi_shell(g.xi, shell))


def test_shell_table_is_cached_and_read_only():
    table = shell_table(make_grid(32, 1.0))
    assert shell_table(make_grid(32, 1.0)) is table
    for arr in (table.low, table.phi):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


@pytest.mark.parametrize("n,lam", GRIDS)
def test_shell_sums_match_shell_loop(n, lam):
    g = make_grid(n, lam)
    f = random_field(g, np.random.default_rng(n), decay=0.5, mean_zero=False)
    for p in (2, 4):
        assert tilde_lp_norm(f, p) == _ref_tilde_lp_norm(f, p)
    d = decompose(f)
    assert np.array_equal(d.low.coefficients, f.coefficients * eta(2.0 * g.xi))
    assert [n_ for n_, _ in d.shells] == _ref_dyadic_shells(g)
    for n_, piece in d.shells:
        assert np.array_equal(piece.coefficients, f.coefficients * phi_shell(g.xi, n_))
