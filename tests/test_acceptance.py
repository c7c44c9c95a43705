"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run with -s to stream them).
Criteria tolerances are pinned here, not configurable.
"""

import numpy as np

from bogl import lp
from bogl.bilinear import (
    PROBE_NAMES,
    bilinear_B,
    bracket_convolution_integral,
    default_period_scale,
    duality_pair,
    estimate_probe,
    trilinear_I,
)
from bogl.bourgain import (
    ProbeConfig,
    SpaceTimeGrid,
    random_spacetime_field,
    spacetime_lebesgue,
    x_norm,
)
from bogl.dynamics import SimConfig, rescale, simulate
from bogl.experiments import run_probe_suite
from bogl.gauge import (
    exp_multiplication_probe,
    gauge_residual,
    primitive_gap,
    reconstruct_high,
)
from bogl.reporting import ProbeReport, stream
from bogl.spectral import (
    RealField,
    hilbert,
    lebesgue_norm,
    make_grid,
    project,
    random_field,
)

from oracles import region_scan, trilinear_I_oracle

SEED = 20260809


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


# -- 1 -----------------------------------------------------------------------


def test_c01_spectral_identities():
    worst = 0.0
    for n in (64, 256, 1024):
        g = make_grid(n, 1.0)
        rng = stream(SEED, "c1", n)
        f = random_field(g, rng, decay=0.5, mean_zero=False)
        scale = max(np.max(np.abs(f.coefficients)), 1e-300)
        back = RealField.from_samples(g, f.samples)
        worst = max(
            worst, float(np.max(np.abs(back.coefficients - f.coefficients))) / scale
        )
        l2 = lebesgue_norm(f, 2)
        par = np.sqrt(g.length * np.sum(np.abs(f.coefficients) ** 2))
        worst = max(worst, abs(l2 - par) / l2)
        fz = random_field(g, rng, decay=0.5)  # mean zero
        hh = hilbert(hilbert(fz))
        worst = max(
            worst,
            float(np.max(np.abs(hh.coefficients + fz.coefficients))) / scale,
        )
        plus, minus = project(f, "plus"), project(f, "minus")
        total = plus.coefficients + minus.coefficients
        total[0] += f.coefficients[0]
        worst = max(worst, float(np.max(np.abs(total - f.coefficients))) / scale)
        lo_hi = project(f, "lo").coefficients + project(f, "hi").coefficients
        worst = max(worst, float(np.max(np.abs(lo_hi - f.coefficients))) / scale)
        a = project(f, "plus_hi").coefficients
        b = project(project(f, "hi"), "plus").coefficients
        worst = max(worst, float(np.max(np.abs(a - b))) / scale)
        hl = hilbert(fz).coefficients
        pm = (-1j * project(fz, "plus") + 1j * project(fz, "minus")).coefficients
        worst = max(worst, float(np.max(np.abs(hl - pm))) / scale)
    report(1, worst <= 1e-12, f"spectral identities, worst rel err {worst:.3e}")


# -- 2 -----------------------------------------------------------------------


def test_c02_partition_of_unity_and_reconstruction():
    worst_pu = 0.0
    worst_rec = 0.0
    for n, lam in ((64, 1.0), (256, 1.0), (256, 2.0), (1024, 1.0)):
        g = make_grid(n, lam)
        xi = g.xi[g.xi != 0]
        total = np.asarray(lp.eta(2 * xi))
        for shell in lp.dyadic_shells(g.max_frequency()):
            total = total + lp.phi_shell(xi, shell)
        worst_pu = max(worst_pu, float(np.max(np.abs(total - 1.0))))
        f = random_field(g, stream(SEED, "c2", n + int(lam)), decay=0.5,
                         mean_zero=False)
        rec = lp.decompose(f).reconstruct()
        scale = max(float(np.max(np.abs(f.coefficients))), 1e-300)
        worst_rec = max(
            worst_rec,
            float(np.max(np.abs(rec.coefficients - f.coefficients))) / scale,
        )
    ok = worst_pu <= 1e-12 and worst_rec <= 1e-12
    report(2, ok, f"partition {worst_pu:.3e}, reconstruction {worst_rec:.3e}")


# -- 3 -----------------------------------------------------------------------


def test_c03_conservation():
    g = make_grid(256, 1.0)
    u0 = random_field(g, stream(SEED, "c3"), decay=2.0, amplitude=1.0, max_mode=6)
    assert abs(lebesgue_norm(u0, np.inf) - 1.0) < 1e-12
    traj = simulate(u0, SimConfig(g, dt=1e-3, t_end=1.0, snapshot_stride=100))
    m_drift = float(np.max(np.abs(traj.momenta - traj.momenta[0]))) / abs(
        traj.momenta[0]
    )
    e_drift = float(np.max(np.abs(traj.energies - traj.energies[0]))) / abs(
        traj.energies[0]
    )
    traj2 = simulate(u0, SimConfig(g, dt=5e-4, t_end=1.0, snapshot_stride=200))
    e_drift2 = float(np.max(np.abs(traj2.energies - traj2.energies[0]))) / abs(
        traj2.energies[0]
    )
    ratio = e_drift / max(e_drift2, 1e-300)
    ok = m_drift <= 1e-10 and e_drift <= 1e-8 and ratio >= 8.0
    report(
        3, ok,
        f"M drift {m_drift:.2e} (<=1e-10), E drift {e_drift:.2e} (<=1e-8), "
        f"dt/2 ratio {ratio:.1f} (>=8)",
    )


# -- 4 -----------------------------------------------------------------------


def test_c04_gauge_evolution_residual():
    g = make_grid(256, 1.0)
    u0 = random_field(g, stream(SEED, "c4"), decay=2.0, amplitude=0.4, max_mode=4)
    coarse = simulate(u0, SimConfig(g, dt=1e-3, t_end=0.2, snapshot_stride=20))
    fine = simulate(u0, SimConfig(g, dt=1e-3, t_end=0.2, snapshot_stride=10))
    rc, rf = gauge_residual(coarse), gauge_residual(fine)
    ratios = []
    for t, r in zip(rc.times, rc.residuals):
        j = int(np.argmin(np.abs(rf.times - t)))
        ratios.append(r / rf.residuals[j])
    med = float(np.median(ratios))
    g64 = make_grid(64, 1.0)
    wins = 0
    for i in range(50):
        ui = random_field(g64, stream(SEED, "c4-ensemble", i), decay=1.5,
                          amplitude=0.6, max_mode=5)
        traj = simulate(ui, SimConfig(g64, dt=1e-3, t_end=0.03, snapshot_stride=5))
        full = float(np.max(gauge_residual(traj).residuals))
        ablated = float(
            np.max(gauge_residual(traj, include_mean_term=False).residuals)
        )
        wins += ablated > full
    ok = 3.0 <= med <= 5.0 and wins >= 48  # >= 95% of 50
    report(
        4, ok,
        f"snapshot-halving residual ratio {med:.3f} (~4), "
        f"ablation increases residual on {wins}/50 samples (>=48)",
    )


# -- 5 -----------------------------------------------------------------------


def test_c05_gauge_inversion():
    g = make_grid(128, 1.0)
    worst = 0.0
    for i in range(50):
        u = random_field(g, stream(SEED, "c5", i), decay=1.0, amplitude=0.9,
                         max_mode=14)
        worst = max(worst, reconstruct_high(u, oversample=4).rel_gap)
    report(5, worst <= 1e-10, f"reconstruction rel gap sup {worst:.3e} (<=1e-10)")


# -- 6 -----------------------------------------------------------------------


def test_c06_resonance_identity_and_coverage():
    scan = region_scan(32, 16)
    ok = (
        scan["max_resonance_defect"] == 0
        and scan["gaps"] == 0
        and scan["overlaps"] == 0
        and scan["classified"] > 0
    )
    report(
        6, ok,
        f"defect {scan['max_resonance_defect']}, gaps {scan['gaps']}, "
        f"overlaps {scan['overlaps']} over {scan['classified']} classifications",
    )


# -- 7 -----------------------------------------------------------------------


def test_c07_oracle_equivalence_and_duality():
    win = SpaceTimeGrid(make_grid(16, 1.0), 16, 2 * np.pi)
    worst_fast = 0.0
    worst_dual = 0.0
    for i in range(50):
        rng = stream(SEED, "c7", i)
        h = random_spacetime_field(win, rng, 0.5, 0.75)
        w = random_spacetime_field(win, rng, 0.5, 1.0, positive_xi_only=True)
        u = random_spacetime_field(win, rng, 0.5, 1.0, real=True)
        fast = trilinear_I(h, w, u)
        slow = trilinear_I_oracle(h, w, u)
        worst_fast = max(worst_fast, abs(fast - slow) / max(abs(slow), 1e-300))
        pair = duality_pair(h, bilinear_B(w, u))
        worst_dual = max(
            worst_dual, abs(pair - 1j * fast) / max(abs(fast), 1e-300)
        )
    ok = worst_fast <= 1e-10 and worst_dual <= 1e-10
    report(7, ok, f"fast/oracle {worst_fast:.3e}, duality {worst_dual:.3e}")


# -- 8 -----------------------------------------------------------------------


def test_c08_estimate_probes_stability():
    details = []
    ok = True
    for s in (0.0, 0.25):
        for name in PROBE_NAMES:
            double = ProbeConfig(n=32, num_times=32, samples=200, seed=SEED,
                                 s=s, period_scale=default_period_scale(name))
            r2 = estimate_probe(name, double)
            # draw i reads only the stream (SEED, name, i), so the rows with
            # sample < 100 are the 100-sample run's rows
            r1 = ProbeReport(name, r2.inequality,
                             rows=[row for row in r2.rows if row["sample"] < 100])
            change = r2.sup / r1.sup if r1.sup > 0 else 1.0
            closure = max((row.get("closure_rel", 0.0) for row in r1.rows),
                          default=0.0)
            good = (
                np.isfinite(r1.sup)
                and np.isfinite(r2.sup)
                and abs(change - 1.0) <= 0.20
                and closure <= 1e-10
            )
            ok = ok and good
            details.append(f"{name}[s={s}]:{change:.3f}")
    # exponential-multiplication bound (the J^alpha e^{-iF/2} estimate)
    g64 = make_grid(64, 1.0)

    def exp_sup(count):
        sup = 0.0
        for i in range(count):
            rng = stream(SEED, "c8-exp", i)
            u = random_field(g64, rng, decay=1.0, amplitude=1.0)
            gg = random_field(g64, rng, decay=0.7, amplitude=1.0)
            sup = max(sup, exp_multiplication_probe(u, gg, 0.25, 4).ratio)
        return sup

    e1, e2 = exp_sup(100), exp_sup(200)
    ok = ok and np.isfinite(e2) and abs(e2 / e1 - 1.0) <= 0.20
    details.append(f"exp_multiplication:{e2 / e1:.3f}")

    # Bourgain-Strichartz L4 embedding
    win = SpaceTimeGrid(make_grid(32, 1.0), 32, 2 * np.pi)

    def strich_sup(count):
        sup = 0.0
        for i in range(count):
            u = random_spacetime_field(
                win, stream(SEED, "c8-l4", i), xi_decay=1.0, sigma_decay=1.5,
                real=True,
            )
            x38 = x_norm(u, 0.0, 0.375)
            if x38 > 0:
                sup = max(sup, spacetime_lebesgue(u, 4) / x38)
        return sup

    s1, s2 = strich_sup(100), strich_sup(200)
    ok = ok and np.isfinite(s2) and abs(s2 / s1 - 1.0) <= 0.20
    details.append(f"bourgain_strichartz:{s2 / s1:.3f}")

    # the bracket-convolution sweep is deterministic; verify finiteness only
    from bogl.bilinear import bracket_convolution_check

    rep = bracket_convolution_check(1.0, 1.0, [0, 1, 10, 100, 1000, 10000])
    ok = ok and np.isfinite(rep.sup)
    report(8, ok, "sup-change on doubling: " + " ".join(details))


# -- 9 -----------------------------------------------------------------------


def test_c09_bracket_convolution_closed_form():
    val = bracket_convolution_integral(1.0, 1.0, 0.0)
    err = abs(val - 2.0 / 3.0)
    report(9, err <= 1e-10, f"quadrature {val!r} vs 2/3, err {err:.3e}")


# -- 10 ----------------------------------------------------------------------


def test_c10_lipschitz_same_low_pairs():
    g = make_grid(256, 1.0)
    rng = stream(SEED, "c10")
    phi1 = random_field(g, rng, decay=2.0, amplitude=1.0, max_mode=8)
    coeff = np.zeros(g.n, dtype=complex)
    for k in range(8, 25):
        z = rng.standard_normal() + 1j * rng.standard_normal()
        z *= (1.0 + k) ** (-2.0)
        coeff[k] += z
        coeff[-k] += np.conj(z)
    direction = RealField(g, coeff)
    direction = direction * (1.0 / lebesgue_norm(direction, 2))
    cfg = SimConfig(g, dt=1e-3, t_end=0.5, snapshot_stride=50)
    traj1 = simulate(phi1, cfg)
    ratios = []
    for delta in (1e-1, 1e-2, 1e-3):
        phi2 = phi1 + delta * direction
        primitive_gap(phi1, phi2, require_same_low=True)  # precondition holds
        traj2 = simulate(phi2, cfg)
        denom = lebesgue_norm(phi1 - phi2, 2)
        sup = max(
            lebesgue_norm(a - b, 2) for a, b in zip(traj1.states, traj2.states)
        )
        ratios.append(sup / denom)
    spread = (max(ratios) - min(ratios)) / min(ratios)
    report(
        10, spread <= 0.10,
        f"sup_t ratio across deltas {[f'{r:.5f}' for r in ratios]}, "
        f"spread {spread:.2%} (<=10%)",
    )


# -- 11 ----------------------------------------------------------------------


def test_c11_scaling():
    g = make_grid(256, 2.0)
    u0 = random_field(g, stream(SEED, "c11"), decay=2.0, amplitude=0.25, max_mode=6)
    worst_norm = 0.0
    for lam in (1, 2):
        v = rescale(u0, lam)
        want = np.sqrt(lam) * lebesgue_norm(u0, 2)
        worst_norm = max(worst_norm, abs(lebesgue_norm(v, 2) - want) / want)
    lam = 2
    t_scaled = 0.25
    base = simulate(
        u0,
        SimConfig(g, dt=1e-3, t_end=lam**2 * t_scaled,
                  snapshot_stride=round(lam**2 * t_scaled / 1e-3)),
    ).states[-1]
    v0 = rescale(u0, lam)
    scaled = simulate(
        v0,
        SimConfig(v0.grid, dt=1e-3, t_end=t_scaled,
                  snapshot_stride=round(t_scaled / 1e-3)),
    ).states[-1]
    corr = lebesgue_norm(scaled - rescale(base, lam), 2)
    ok = worst_norm <= 1e-12 and corr <= 1e-6
    report(11, ok, f"norm relation {worst_norm:.3e} (<=1e-12), "
                   f"correspondence {corr:.3e} (<=1e-6)")


# -- 12 ----------------------------------------------------------------------


def test_c12_probe_suite_determinism(tmp_path):
    cfg = {"seed": str(SEED), "samples": "6", "exp_samples": "4"}
    run_probe_suite(cfg, tmp_path / "a")
    run_probe_suite(cfg, tmp_path / "b")
    names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    identical = names_a == names_b and all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names_a
    )
    report(12, identical, f"{len(names_a)} files byte-identical across reruns")
