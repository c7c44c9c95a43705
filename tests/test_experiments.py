"""Snapshot IO, config handling, experiment drivers and the CLI contract."""

import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bogl
from bogl import experiments
from bogl.bilinear import PROBE_NAMES
from bogl.cli import CSV_SCHEMAS, main
from bogl.experiments import (
    ANY,
    FINITE,
    POSITIVE,
    ConfigError,
    parse_config_file,
    resolve_config,
    run_gauge_check,
    run_lipschitz_pairs,
    run_lp_decompose,
    run_norm_sweep,
    run_probe_suite,
    run_scaling_check,
    run_simulate,
)
from bogl.reporting import stream, write_csv
from bogl.snapshots import read_snapshot, write_snapshot
from bogl.spectral import ComplexField, RealField, make_grid, random_field


def test_snapshot_round_trip(tmp_path):
    g = make_grid(64, 2.0)
    f = random_field(g, np.random.default_rng(0), decay=1.0)
    path = tmp_path / "f.bin"
    write_snapshot(path, f, time=1.25)
    back, t = read_snapshot(path)
    assert t == 1.25
    assert isinstance(back, RealField)
    assert back.grid == g
    assert np.max(np.abs(back.samples - f.samples)) < 1e-14

    z = ComplexField.from_samples(g, np.exp(1j * g.x))
    path2 = tmp_path / "z.bin"
    write_snapshot(path2, z, time=0.0)
    back2, _ = read_snapshot(path2)
    assert isinstance(back2, ComplexField)
    assert np.max(np.abs(back2.samples - z.samples)) < 1e-14


def test_snapshot_header_layout(tmp_path):
    g = make_grid(8, 1.0)
    f = RealField.from_samples(g, np.zeros(8))
    path = tmp_path / "h.bin"
    write_snapshot(path, f, time=2.0)
    raw = path.read_bytes()
    assert raw[:4] == b"BOGL"
    assert len(raw) == 29 + 8 * 8  # header + N float64
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        read_snapshot(bad)


def test_config_parsing(tmp_path):
    cfg = tmp_path / "a.cfg"
    cfg.write_text("a = 1\n# comment\nb = 2.5  # trailing\n\n")
    assert parse_config_file(cfg) == {"a": "1", "b": "2.5"}
    cfg.write_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg)
    cfg.write_text("oops\n")
    with pytest.raises(ConfigError):
        parse_config_file(cfg)


def test_resolve_config_rejects_unknown():
    schema = {"n": (int, 4, ANY), "x": (float, 1.0, POSITIVE),
              "d": ("floats", (1.0, 2.0), FINITE)}
    assert resolve_config({"n": "8"}, schema) == {"n": 8, "x": 1.0, "d": (1.0, 2.0)}
    with pytest.raises(ConfigError):
        resolve_config({"bogus": "1"}, schema)
    with pytest.raises(ConfigError):
        resolve_config({"n": "not-an-int"}, schema)
    # a value outside its key's domain, and one element of a list
    with pytest.raises(ConfigError, match="x must be finite and > 0, got -1.0"):
        resolve_config({"x": "-1"}, schema)
    with pytest.raises(ConfigError, match="d must be finite, got nan"):
        resolve_config({"d": "1, nan"}, schema)


@pytest.fixture(scope="module")
def sim_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    cfg = {"n": "64", "dt": "1e-3", "t_end": "0.04", "snapshot_stride": "10",
           "init": "modes", "amplitude": "0.4"}
    return run_simulate(cfg, out)


def test_run_simulate_outputs(sim_run):
    assert sim_run.passed
    names = sorted(p.name for p in sim_run.outputs)
    assert "diagnostics.csv" in names
    assert "manifest.json" in names
    assert sum(n.startswith("snap_") for n in names) == 5
    manifest = json.loads((sim_run.out_dir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert set(manifest["outputs"]) == {
        n for n in names if n != "manifest.json"
    }
    # manifest stores no absolute paths (determinism across directories)
    assert str(sim_run.out_dir) not in (sim_run.out_dir / "manifest.json").read_text()


def test_run_gauge_check(sim_run, tmp_path):
    res = run_gauge_check(sim_run.out_dir, tmp_path / "g")
    assert res.passed
    text = (tmp_path / "g" / "gauge_residual.csv").read_text().splitlines()
    assert text[0] == "t,residual_L2,mean_term_L2"
    assert len(text) == 1 + 3  # interior snapshots only


def test_run_gauge_check_keeps_nan_gap(sim_run, tmp_path, monkeypatch):
    from bogl import gauge

    real = gauge.reconstruct_high
    calls = []

    def nan_on_second(state, oversample=4, **kwargs):
        rec = real(state, oversample=oversample, **kwargs)
        calls.append(rec)
        return replace(rec, rel_gap=float("nan")) if len(calls) == 2 else rec

    monkeypatch.setattr(gauge, "reconstruct_high", nan_on_second)
    res = run_gauge_check(sim_run.out_dir, tmp_path / "g")
    gap = next(a for a in res.assertions if a.name == "reconstruction_gap")
    assert not gap.ok and "nan" in gap.detail
    assert not res.passed


def test_run_gauge_check_handles_mean(tmp_path):
    out = tmp_path / "simm"
    cfg = {"n": "64", "dt": "1e-3", "t_end": "0.03", "snapshot_stride": "10",
           "init": "random", "amplitude": "0.4", "max_mode": "5", "seed": "4"}
    res = run_simulate(cfg, out)
    # add a constant to every snapshot: the driver must Galilean-reduce it
    from bogl.snapshots import read_snapshot as rs, write_snapshot as ws

    for p in sorted(Path(out).glob("snap_*.bin")):
        f, t = rs(p)
        shifted = RealField.from_samples(f.grid, f.samples + 0.7)
        ws(p, shifted, time=t)
    res2 = run_gauge_check(out, tmp_path / "g2")
    assert res2.passed
    assert abs(res2.config["mean_shift"] - 0.7) < 1e-12


def test_gauge_check_rejects_a_bad_snapshot_before_computing(sim_run, tmp_path,
                                                            monkeypatch):
    # every file is checked when the trajectory is loaded, so a bad last
    # snapshot exits 2 before any gauge term is formed, and no directory is made
    from bogl import gauge

    def computed(*args, **kwargs):
        raise AssertionError("a gauge term was formed before the check")

    for name in ("gauge_residual", "exponential_pair", "reconstruct_high",
                 "translate_to_zero_mean"):
        monkeypatch.setattr(gauge, name, computed)
    snaps = sorted(Path(sim_run.out_dir).glob("snap_*.bin"))
    last, t = read_snapshot(snaps[-1])
    other_grid = random_field(make_grid(32, 1.0), stream(0, "other"), max_mode=4)
    replacements = {
        "corrupt": lambda path: path.write_bytes(snaps[-1].read_bytes()[:-3]),
        "complex": lambda path: write_snapshot(
            path, ComplexField(last.grid, 1j * last.coefficients), time=t),
        "grid": lambda path: write_snapshot(path, other_grid, time=t),
        "mean": lambda path: write_snapshot(
            path, RealField.from_samples(last.grid, last.samples + 0.5), time=t),
        # a mean offset of 5e-11: small, but not mean zero to the gauge,
        # whose primitive would reject it
        "offset": lambda path: write_snapshot(
            path, RealField.from_samples(last.grid, last.samples + 5e-11), time=t),
    }
    for label, replace_last in replacements.items():
        traj = tmp_path / f"traj_{label}"
        traj.mkdir()
        for snap in snaps:
            (traj / snap.name).write_bytes(snap.read_bytes())
        replace_last(traj / snaps[-1].name)
        dest = tmp_path / f"gauge_{label}"
        assert main(["gauge-check", "--traj", str(traj), "--out", str(dest)]) == 2, label
        assert not dest.exists(), label


def test_gauge_check_peak_does_not_grow_with_the_snapshot_count(tmp_path):
    # the states are read one at a time, so 41 snapshots peak within one
    # snapshot's coefficients of 5
    n = 1024
    base = {"n": str(n), "dt": "1e-3", "t_end": "0.04", "init": "random"}
    trajs = {
        count: run_simulate({**base, "snapshot_stride": str(40 // (count - 1))},
                            tmp_path / f"sim{count}").out_dir
        for count in (5, 41)
    }
    run_gauge_check(trajs[5], tmp_path / "warm")  # fills the band caches
    peaks = {}
    for count, traj in trajs.items():
        tracemalloc.start()
        try:
            run_gauge_check(traj, tmp_path / f"gauge{count}")
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[41] - peaks[5]) < n * 16


def test_gauge_check_reads_each_file_twice_and_forms_each_exponential_once(
        tmp_path, monkeypatch):
    # the up-front check reads every file's samples, then one pass reads
    # each again as a field and forms its e^{-iF/2} once for the residual
    # and the reconstruction
    from bogl import gauge

    cfg = {"n": "64", "dt": "1e-3", "t_end": "0.004", "snapshot_stride": "1",
           "init": "random"}
    sim = run_simulate(cfg, tmp_path / "sim").out_dir
    reads, formed = {}, []
    form = gauge._exponential

    def counted(reader):
        def read(path):
            key = (reader.__name__, Path(path).name)
            reads[key] = reads.get(key, 0) + 1
            return reader(path)
        return read

    def counted_form(*args, **kwargs):
        formed.append(args)
        return form(*args, **kwargs)

    for name in ("read_samples", "read_snapshot"):
        monkeypatch.setattr(experiments, name, counted(getattr(experiments, name)))
    monkeypatch.setattr(gauge, "_exponential", counted_form)
    assert run_gauge_check(sim, tmp_path / "g").passed
    assert reads == {(reader, f"snap_{i:06d}.bin"): 1 for i in range(5)
                     for reader in ("read_samples", "read_snapshot")}
    assert len(formed) == 5


def test_gauge_check_holds_no_fine_lattice_table(tmp_path):
    # the projections are index bands: what the check leaves held is less
    # than one nf-point complex array
    from bogl import gauge

    n, oversample = 1024, 4
    cfg = {"n": str(n), "dt": "1e-3", "t_end": "0.004", "snapshot_stride": "1",
           "init": "random"}
    sim = run_simulate(cfg, tmp_path / "sim").out_dir
    gauge._band.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert run_gauge_check(sim, tmp_path / "g").passed
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < n * oversample * 16


def test_run_lp_decompose(sim_run, tmp_path):
    snap = sorted(Path(sim_run.out_dir).glob("snap_*.bin"))[0]
    res = run_lp_decompose(snap, tmp_path / "lp")
    assert res.passed
    rows = (tmp_path / "lp" / "lp_masses.csv").read_text().splitlines()
    assert rows[0] == "shell,mass"


def test_run_norm_sweep(tmp_path):
    res = run_norm_sweep({"samples": "4", "n": "32", "num_times": "32"},
                         tmp_path / "ns")
    assert res.passed


def _environment(out_dir, which):
    return json.loads((out_dir / f"{which}.json").read_text())["environment"]


def test_run_bilinear_probe_and_lambda_default(tmp_path):
    # one estimate probe through probe-suite; lambda = 0 is each probe's default
    res = run_probe_suite(
        {"select": "exp_lowband", "samples": "3", "n": "16", "num_times": "16"},
        tmp_path / "bp",
    )
    assert res.passed
    assert res.config["lambda"] == 0.0
    # exp_lowband defaults off the unit lattice
    assert _environment(res.out_dir, "exp_lowband")["period_scale"] == 2.0
    with pytest.raises(ConfigError, match="select"):
        run_probe_suite({"select": "nope"}, tmp_path / "bp2")


_RATIO_COLUMNS = ["sample", "lhs", "rhs", "ratio"]
_REGION_COLUMNS = [
    "region_A", "region_B", "region_C", "pairing_total", "closure_rel",
]


@pytest.mark.parametrize("which", PROBE_NAMES)
def test_run_bilinear_probe_every_probe(tmp_path, which):
    cfg = {"select": which, "samples": "2", "n": "16", "num_times": "16"}
    res = run_probe_suite(cfg, tmp_path / "default")
    assert res.passed
    header = (res.out_dir / f"{which}.csv").read_text().splitlines()[0].split(",")
    columns = {
        "bilinear_critical_x": _RATIO_COLUMNS + _REGION_COLUMNS,
        "bilinear_critical_shell": _RATIO_COLUMNS + _REGION_COLUMNS + ["g_dual_norm"],
    }.get(which, _RATIO_COLUMNS)
    assert header == columns
    default = 2.0 if which == "exp_lowband" else 1.0
    assert _environment(res.out_dir, which)["period_scale"] == default
    # the critical probes pair on the integer lattice: another scale is a
    # config error, found before any probe runs
    if which.startswith("bilinear_critical"):
        with pytest.raises(ConfigError, match="lambda"):
            run_probe_suite({**cfg, "lambda": "3"}, tmp_path / "lambda")
        assert not (tmp_path / "lambda").exists()
        return
    res = run_probe_suite({**cfg, "lambda": "3"}, tmp_path / "lambda")
    assert res.passed
    assert _environment(res.out_dir, which)["period_scale"] == 3.0


def test_probe_suite_passes_estimate_probes_through(tmp_path):
    # probe-suite select=X writes the bytes of bilinear.estimate_probe(X)
    from bogl import bilinear, bourgain

    which = "bilinear_half_weight"
    run_probe_suite({"select": which, "samples": "3", "n": "16", "num_times": "16",
                     "seed": "3", "s": "0.25", "lambda": "2"}, tmp_path / "suite")
    rep = bilinear.estimate_probe(which, bourgain.ProbeConfig(
        n=16, num_times=16, samples=3, seed=3, s=0.25, period_scale=2.0))
    direct = tmp_path / "direct"
    direct.mkdir()
    for name, write in rep.files().items():
        write(direct / name)
        assert (direct / name).read_bytes() == (tmp_path / "suite" / name).read_bytes()


def test_probe_suite_runs_linear_and_exp_multiplication_at_lambda(tmp_path):
    # lambda sets the period of every lattice probe, the linear family and
    # exp_multiplication included; lambda = 0 runs them at period scale 1
    from bogl import bourgain

    cfg = {"select": "linear,exp_multiplication", "samples": "3", "n": "16",
           "num_times": "16", "seed": "3", "exp_samples": "2", "exp_n": "16"}
    for lam in ("0", "1", "2"):
        assert run_probe_suite({**cfg, "lambda": lam}, tmp_path / lam).passed
    reps = bourgain.linear_probes(bourgain.ProbeConfig(
        n=16, num_times=16, samples=10, seed=3, period_scale=2.0))
    direct = tmp_path / "direct"
    direct.mkdir()
    for rep in reps:
        for name, write in rep.files().items():
            write(direct / name)
            assert (direct / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
            assert (tmp_path / "0" / name).read_bytes() != (direct / name).read_bytes()
    exp = "exp_multiplication.csv"
    assert (tmp_path / "0" / exp).read_bytes() == (tmp_path / "1" / exp).read_bytes()
    assert (tmp_path / "0" / exp).read_bytes() != (tmp_path / "2" / exp).read_bytes()
    # its report records the period it ran at
    for lam, scale in (("0", 1.0), ("2", 2.0)):
        report = json.loads((tmp_path / lam / "exp_multiplication.json").read_text())
        assert report["environment"] == {"n": 16, "period_scale": scale,
                                         "samples": 2, "seed": 3}


def test_run_scaling_check(tmp_path):
    res = run_scaling_check(
        {"n": "128", "t_scaled": "0.05", "lambda_base": "2"}, tmp_path / "sc"
    )
    assert res.passed
    # a zero datum, from amplitude 0 or from a decay that underflows every
    # mode, has zero norms: the rows are zeros and not a division by zero
    for i, body in enumerate(({"amplitude": "0"}, {"decay": "1e308"})):
        res = run_scaling_check({"n": "64", "t_scaled": "0.05", **body},
                                tmp_path / f"zero{i}")
        assert res.passed
        rows = (res.out_dir / "scaling.csv").read_text().splitlines()[1:]
        assert len(rows) == 3
        assert all(float(v) == 0.0 for row in rows for v in row.split(",")[1:])


def test_run_lipschitz_small(tmp_path):
    cfg = {"n": "128", "t_end": "0.1", "snapshot_stride": "20", "samples": "1",
           "cutoffs": "16,24,32"}
    res = run_lipschitz_pairs(cfg, tmp_path / "lip")
    assert res.passed
    with pytest.raises(ConfigError):
        run_lipschitz_pairs({**cfg, "perturb_min_freq": "4"}, tmp_path / "lip2")
    # a zero perturbation size is skipped (ratio undefined), not an error
    res2 = run_lipschitz_pairs(
        {**cfg, "deltas": "0,1e-2,1e-3"}, tmp_path / "lip3"
    )
    assert res2.config["skipped_deltas"] == 1
    assert res2.config["deltas"] == (1e-2, 1e-3)
    with pytest.raises(ConfigError):
        run_lipschitz_pairs({**cfg, "deltas": "0"}, tmp_path / "lip4")


def test_probe_suite_determinism(tmp_path):
    cfg = {"samples": "4", "exp_samples": "3", "seed": "9",
           "select": "bilinear_critical_x,bracket_convolution,exp_multiplication"}
    run_probe_suite(cfg, tmp_path / "a")
    run_probe_suite(cfg, tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_probe_suite_empty_selection(tmp_path):
    # a selection that names no probe is a config error, not an empty run
    for select in ("", ",", " , "):
        with pytest.raises(ConfigError, match="select"):
            run_probe_suite({"select": select}, tmp_path / "empty")
        assert not (tmp_path / "empty").exists()


def test_probe_suite_runs_every_probe_in_order(tmp_path, monkeypatch):
    ran = []
    monkeypatch.setattr(experiments, "_run_one_suite_probe",
                        lambda name, cfg: ran.append(name) or [])
    assert run_probe_suite({"select": "all"}, tmp_path / "all").passed
    assert ran == ["linear", *PROBE_NAMES, "exp_multiplication",
                   "bracket_convolution"]


def test_commands_load_only_the_layers_they_run(tmp_path):
    # simulate loads none of the probe layers, gauge-check only gauge, and
    # the probes never load fractions (and with it decimal)
    (tmp_path / "sim.cfg").write_text(
        "n = 64\ndt = 1e-3\nt_end = 0.004\nsnapshot_stride = 1\n")
    (tmp_path / "suite.cfg").write_text(
        "n = 16\nnum_times = 16\nsamples = 1\nselect = bilinear_critical_x\n")
    code = (
        "import json, sys, bogl.cli\n"
        "assert bogl.cli.main(sys.argv[1:]) == 0\n"
        "print(json.dumps(list(sys.modules)))\n"
    )
    src = str(Path(bogl.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    loaded = {}
    for argv in (["simulate", "--config", "sim.cfg", "--out", "sim"],
                 ["gauge-check", "--traj", "sim", "--out", "gauge"],
                 ["probe-suite", "--config", "suite.cfg", "--out", "suite"]):
        out = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                             text=True, check=True, cwd=tmp_path, env=env)
        loaded[argv[0]] = set(json.loads(out.stdout.strip().splitlines()[-1]))
    for command in ("simulate", "gauge-check"):
        assert not loaded[command] & {"bogl.bilinear", "bogl.bourgain"}, command
    assert "bogl.gauge" not in loaded["simulate"]
    assert "bogl.gauge" in loaded["gauge-check"]
    assert "bogl.bilinear" in loaded["probe-suite"]
    assert "fractions" not in loaded["probe-suite"]


def test_probe_suite_summary_lists_inequalities(tmp_path):
    res = run_probe_suite(
        {"samples": "3", "select": "bilinear_critical_x,leibniz_split"}, tmp_path / "s"
    )
    summary = json.loads((tmp_path / "s" / "probe_suite_summary.json").read_text())
    for name, info in summary["probes"].items():
        assert info["inequality"]
        assert np.isfinite(info["sup"])


def test_cli_exit_codes(tmp_path, capsys, monkeypatch):
    # commands without --out write to the working directory
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("n = 64\ndt = 1e-3\nt_end = 0.02\nsnapshot_stride = 10\n"
                   "init = modes\namplitude = 0.3\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert main(["simulate", "--config", str(tmp_path / "none.cfg")]) == 2
    # a march that overflows is a numeric failure: exit 3 and no output
    # directory, for the single march and for the Lipschitz pairs
    blowup = tmp_path / "blowup.cfg"
    for cmd, extra_key in (("simulate", ""), ("lipschitz-pairs", "samples = 1\n")):
        blowup.write_text("n = 64\namplitude = 1e8\ndt = 1e-2\n" + extra_key)
        dest = tmp_path / f"blowup_{cmd}"
        assert main([cmd, "--config", str(blowup), "--out", str(dest)]) == 3, cmd
        assert not dest.exists(), cmd
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope = 3\n")
    assert main(["norm-sweep", "--config", str(bad)]) == 2
    # stride does not divide the step count
    ugly = tmp_path / "ugly.cfg"
    ugly.write_text("n = 64\ndt = 1e-3\nt_end = 0.02\nsnapshot_stride = 7\n")
    assert main(["simulate", "--config", str(ugly)]) == 2
    # grid size that is not a power of two
    odd = tmp_path / "odd.cfg"
    odd.write_text("n = 100\n")
    for cmd in ("simulate", "norm-sweep"):
        assert main([cmd, "--config", str(odd), "--out",
                     str(tmp_path / "odd")]) == 2
    # probe-suite validates its grid before any probe runs
    assert main(["probe-suite", "--config", str(odd), "--out",
                 str(tmp_path / "ps"), "--assert"]) == 2
    assert main(["probe-suite", "--config", str(odd), "--out",
                 str(tmp_path / "ps")]) == 2
    odd_exp = tmp_path / "odd_exp.cfg"
    odd_exp.write_text("exp_n = 100\nselect = exp_multiplication\n")
    assert main(["probe-suite", "--config", str(odd_exp), "--out",
                 str(tmp_path / "ps")]) == 2
    # a non-finite bracket_mu_max is a bad config: nothing is written
    for value in ("nan", "inf"):
        mu_cfg = tmp_path / f"mu_{value}.cfg"
        mu_cfg.write_text(f"bracket_mu_max = {value}\nselect = bracket_convolution\n")
        for i, extra in enumerate(([], ["--assert"])):
            mu_out = tmp_path / f"mu_{value}{i}"
            assert main(["probe-suite", "--config", str(mu_cfg), "--out",
                         str(mu_out)] + extra) == 2
            assert not mu_out.exists()
    # time lattice that is not a power of two
    times = tmp_path / "times.cfg"
    times.write_text("num_times = 100\n")
    assert main(["norm-sweep", "--config", str(times), "--out",
                 str(tmp_path / "nt")]) == 2
    assert main(["lipschitz-pairs", "--config", str(ugly), "--out",
                 str(tmp_path / "lp")]) == 2
    assert main(["gauge-check", "--traj", str(out), "--out",
                 str(tmp_path / "g"), "--assert"]) == 0
    # a snapshot cut inside its sample block
    cut = tmp_path / "cut"
    cut.mkdir()
    for snap in sorted(out.glob("snap_*.bin")):
        (cut / snap.name).write_bytes(snap.read_bytes())
    last = sorted(cut.glob("snap_*.bin"))[-1]
    last.write_bytes(last.read_bytes()[:-3])
    assert main(["gauge-check", "--traj", str(cut), "--out",
                 str(tmp_path / "gc")]) == 2
    # a snapshot with one NaN sample is bad input, with or without --assert
    nan = tmp_path / "nan"
    nan.mkdir()
    for snap in sorted(out.glob("snap_*.bin")):
        (nan / snap.name).write_bytes(snap.read_bytes())
    last = sorted(nan.glob("snap_*.bin"))[-1]
    raw = bytearray(last.read_bytes())
    raw[len(raw) - 8 * 10 : len(raw) - 8 * 9] = np.array([np.nan], "<f8").tobytes()
    last.write_bytes(bytes(raw))
    for extra in ([], ["--assert"]):
        assert main(["gauge-check", "--traj", str(nan), "--out",
                     str(tmp_path / "gn")] + extra) == 2

    # config errors are found before the output directory is made: exit 2
    # and no directory, with or without --assert, and the message names the
    # config key of the body's last line (lp-decompose: the missing file)
    quick = "n = 64\ndt = 1e-3\nt_end = 0.02\nsnapshot_stride = 10\n"
    # a non-finite dt or t_end, each given once (a second dt would be a
    # duplicate-key error)
    infinite = ["n = 64\nt_end = 0.02\nsnapshot_stride = 10\ndt = inf\n",
                "n = 64\ndt = 1e-3\nsnapshot_stride = 10\nt_end = inf\n"]
    # a subnormal dt or a t_end near the float range: t_end/dt overflows
    extreme = ["n = 64\nt_end = 0.02\nsnapshot_stride = 10\ndt = 5e-324\n",
               "n = 64\ndt = 1e-3\nsnapshot_stride = 10\nt_end = 1e308\n"]
    bad_configs = {
        "simulate": [quick + body for body in (
            "init = wave\nlambda = 2\n", "init = wave\nrho = 1.5\n",
            "max_mode = 0\n", "max_mode = -3\n")] + infinite + extreme,
        "scaling-check": ["n = 64\nmax_mode = 0\n", "n = 64\ndt = 0.3\n",
                          "n = 64\ndt = 0\n", "n = 64\nt_scaled = nan\n",
                          "n = 64\ndt = 5e-324\n", "n = 64\nt_scaled = 1e308\n",
                          # beyond lambda_base: found before the base march
                          "n = 64\nscale = 4\n"],
        "lipschitz-pairs": [quick + body for body in (
            "samples = 1\nmax_mode = 0\n", "samples = 1\ntrunc_max_mode = -2\n",
            "samples = 1\nperturb_max_mode = 4\n", "samples = 0\n",
            "samples = 1\ndeltas = inf\n", "samples = 1\ns = nan\n")]
        + ["samples = 1\n" + body for body in infinite + extreme],
        "norm-sweep": ["samples = 0\n", "n = 100\n"],
        "probe-suite": ["samples = 0\n", "samples = -5\n", "exp_samples = 0\n",
                        "select = bilinear_critical_x\nsamples = 0\n", "n = 100\n",
                        "select = nope\n", "select = ,\n",
                        "select = leibniz_split,leibniz_split\n",
                        "lambda = -3\n", "lambda = 0.5\n",
                        "select = bilinear_critical_x\nlambda = 2\n"],
    }
    runs = [(["lp-decompose", "--input", str(tmp_path / "missing.bin")], "missing.bin")]
    for cmd, bodies in bad_configs.items():
        for j, body in enumerate(bodies):
            bad_cfg = tmp_path / f"{cmd}_{j}.cfg"
            bad_cfg.write_text(body)
            key = body.splitlines()[-1].split("=")[0].strip()
            runs.append(([cmd, "--config", str(bad_cfg)], key))
    for k, (argv, key) in enumerate(runs):
        for i, extra in enumerate(([], ["--assert"])):
            dest = tmp_path / f"early_{k}_{i}"
            capsys.readouterr()
            assert main(argv + ["--out", str(dest)] + extra) == 2, argv
            assert not dest.exists(), argv
            assert key in capsys.readouterr().err, argv

    # trajectories gauge-check cannot difference: too few snapshots, mixed
    # grids, uneven times, differing means, three copies of one snapshot
    snaps = sorted(out.glob("snap_*.bin"))
    last_field, last_t = read_snapshot(snaps[-1])
    other_grid = random_field(make_grid(32, 1.0), stream(0, "other"), max_mode=4)
    bad_trajs = {
        "few": (snaps[:2], None),
        "grids": (snaps, (other_grid, last_t)),
        "uneven": (snaps, (last_field, last_t + 0.005)),
        "means": (snaps, (RealField.from_samples(last_field.grid,
                                                 last_field.samples + 0.5), last_t)),
        "same_time": ([snaps[0]] * 3, None),
    }
    for label, (kept, replacement) in bad_trajs.items():
        traj = tmp_path / f"traj_{label}"
        traj.mkdir()
        names = [f"snap_{j:06d}.bin" for j in range(len(kept))]
        for name, snap in zip(names, kept):
            (traj / name).write_bytes(snap.read_bytes())
        if replacement is not None:
            write_snapshot(traj / names[-1], replacement[0], time=replacement[1])
        for i, extra in enumerate(([], ["--assert"])):
            dest = tmp_path / f"g_{label}{i}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["gauge-check", "--traj", str(traj), "--out", str(dest)]
                            + extra) == 2, label
            assert not any(dest.glob("*.csv"))
    # a probe whose sup is not finite is a numeric failure, with or without
    # --assert, and no output directory is made; the same for a probe with no
    # kept sample (bilinear_critical_x at s = -1000), NaN norms of norm-sweep
    # and NaN H^s ratios of lipschitz-pairs, whose H^s norms overflow at
    # s = 1000 and underflow to 0 at s = -1000; numpy warns of none of the
    # overflows
    huge_s = []
    for which, s in (("bilinear_periodic", "1000"), ("bilinear_critical_x", "-1000")):
        huge_s.append(tmp_path / f"{which}_s{s}.cfg")
        huge_s[-1].write_text(f"s = {s}\nselect = {which}\nsamples = 3\n")
    huge_ns = tmp_path / "huge_ns.cfg"
    huge_ns.write_text("s = 1000\nsamples = 3\n")
    extreme_s = []
    for s in ("1000", "-1000"):
        extreme_s.append(tmp_path / f"lip_s{s}.cfg")
        extreme_s[-1].write_text(quick + f"samples = 1\ns = {s}\n")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, extra in enumerate(([], ["--assert"])):
            for ps_cfg in huge_s:
                ps = tmp_path / f"pn{i}"
                assert main(["probe-suite", "--config", str(ps_cfg), "--out", str(ps)]
                            + extra) == 3
                assert not ps.exists()
            ns = tmp_path / f"nn{i}"
            assert main(["norm-sweep", "--config", str(huge_ns), "--out", str(ns)]
                        + extra) == 3
            assert not ns.exists()
            for lip_cfg in extreme_s:
                lip = tmp_path / f"ln{i}"
                assert main(["lipschitz-pairs", "--config", str(lip_cfg), "--out",
                             str(lip)] + extra) == 3
                assert not lip.exists()
    err = capsys.readouterr().err
    assert err.count("bilinear_periodic") == 2
    assert err.count("bilinear_critical_x") == 2
    assert err.count("x_norm") == 2
    assert err.count("ratio_hs") == 4
    # a subnormal delta underflows the L2 norm of the perturbation to 0: the
    # ratios over it are NaN (exit 3), not a ZeroDivisionError (exit 1)
    tiny = tmp_path / "lip_tiny.cfg"
    tiny.write_text(quick + "samples = 1\ndeltas = 1e-320\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for i, extra in enumerate(([], ["--assert"])):
            lip = tmp_path / f"lt{i}"
            assert main(["lipschitz-pairs", "--config", str(tiny), "--out",
                         str(lip)] + extra) == 3
            assert not lip.exists()
            err = capsys.readouterr().err
            assert "ratio_l2" in err and "ratio_gauge_z" in err
    # a run too large to hold in memory is a config error: 2^54 grid points
    # (arrays of 256 PiB and 4 EiB) and 1e17 snapshot marks (711 PiB), past
    # every address space, so no allocation can start
    huge_n = "n = 18014398509481984\n"
    long_march = "n = 16\ndt = 1e-8\nt_end = 1e9\nsnapshot_stride = 1\ninit = zero\n"
    too_large = [(cmd, huge_n) for cmd in
                 ("simulate", "lipschitz-pairs", "scaling-check", "norm-sweep")]
    too_large.append(("simulate", long_march))
    for j, (cmd, body) in enumerate(too_large):
        big_cfg = tmp_path / f"big_{j}.cfg"
        big_cfg.write_text(body)
        for i, extra in enumerate(([], ["--assert"])):
            dest = tmp_path / f"big_{j}_{i}"
            capsys.readouterr()
            assert main([cmd, "--config", str(big_cfg), "--out", str(dest)]
                        + extra) == 2, (cmd, body)
            assert not dest.exists(), (cmd, body)
            assert capsys.readouterr().err.startswith("config error"), (cmd, body)
    # past 2^63 bytes numpy raises ValueError("array is too big; ...") at once,
    # not a MemoryError (norm-sweep at n = 2^56): the same exit 2.  Any other
    # ValueError still propagates
    def too_big(source, out_dir):
        np.empty(2**62, np.complex128)

    monkeypatch.setattr(experiments, "run_norm_sweep", too_big)
    for i, extra in enumerate(([], ["--assert"])):
        dest = tmp_path / f"too_big_{i}"
        capsys.readouterr()
        assert main(["norm-sweep", "--out", str(dest)] + extra) == 2
        assert not dest.exists()
        assert capsys.readouterr().err.startswith("config error: the run does not fit")

    def other_error(source, out_dir):
        raise ValueError("not a size")

    monkeypatch.setattr(experiments, "run_norm_sweep", other_error)
    with pytest.raises(ValueError, match="not a size"):
        main(["norm-sweep", "--out", str(tmp_path / "other")])


# each config schema's command, with a base config that runs in milliseconds
_CONTRACT_BASES = {
    "simulate": ("SIMULATE_SCHEMA", {
        "n": "16", "dt": "0.01", "t_end": "0.02", "snapshot_stride": "1",
        "max_mode": "4"}),
    "norm-sweep": ("NORM_SWEEP_SCHEMA", {"n": "16", "num_times": "16",
                                         "samples": "1"}),
    "lipschitz-pairs": ("LIPSCHITZ_SCHEMA", {
        "n": "32", "dt": "0.01", "t_end": "0.02", "snapshot_stride": "1",
        "samples": "1", "deltas": "1e-2", "cutoffs": "4", "max_mode": "4",
        "perturb_max_mode": "15"}),
    "scaling-check": ("SCALING_SCHEMA", {"n": "16", "dt": "0.01",
                                         "t_scaled": "0.01", "max_mode": "4"}),
    "probe-suite": ("PROBE_SUITE_SCHEMA", {
        "n": "16", "num_times": "16", "samples": "1", "exp_samples": "1",
        "exp_n": "16"}),
}


def _schema_entries() -> dict:
    """command -> the words of its entry in the CSV schemas of `bogl --help`."""
    entries, command = {}, None
    for line in CSV_SCHEMAS.splitlines()[1:]:
        if not line.startswith("  "):
            command = None  # the closing line names no command
        elif not line.startswith("   "):
            command, _, line = line.strip().partition(" ")
        if command:
            entries.setdefault(command, set()).update(re.findall(r"\w+", line))
    return entries


def test_help_names_every_csv_column(tmp_path, monkeypatch):
    # each command once at a tiny config: every column of every CSV it
    # writes is named in that command's entry of the CSV schemas
    monkeypatch.chdir(tmp_path)
    argvs = {}  # simulate first: gauge-check and lp-decompose read its output
    for cmd, (_, base) in _CONTRACT_BASES.items():
        Path(f"{cmd}.cfg").write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
        argvs[cmd] = ["--config", f"{cmd}.cfg"]
    argvs["gauge-check"] = ["--traj", "simulate"]
    argvs["lp-decompose"] = ["--input", "simulate/snap_000000.bin"]
    entries = _schema_entries()
    assert set(entries) == set(argvs)
    missing = []
    for cmd, argv in argvs.items():
        assert main([cmd, *argv, "--out", cmd]) == 0, cmd
        for csv in sorted(Path(cmd).glob("*.csv")):
            header = csv.read_text().splitlines()[0].split(",")
            missing += [f"{cmd} {csv.name}: {c}" for c in header
                        if c not in entries[cmd]]
    assert not missing


def _reject_constant(name):
    raise ValueError(f"{name} in JSON")


def test_cli_contract_from_schemas(tmp_path):
    # every default lies in its domain; every numeric key, set to a boundary
    # or non-finite value, exits 2 or 3 with no directory, or exits 0 or 4
    # with finite data and strict JSON, never with a traceback
    schemas = {name for name in dir(experiments) if name.endswith("_SCHEMA")}
    assert schemas == {schema for schema, _ in _CONTRACT_BASES.values()}
    # the finite extremes too; no large integer, which would start a long run
    floats = ("nan", "inf", "-inf", "0", "-1", "1e308", "5e-324")
    values = {float: floats, "floats": floats, int: ("0", "-1"), "ints": ("0", "-1"),
              str: ()}
    runs = 0
    for cmd, (schema_name, base) in _CONTRACT_BASES.items():
        schema = getattr(experiments, schema_name)
        resolve_config({}, schema)
        for key, (kind, _, _) in schema.items():
            for value in values[kind]:
                cfg = tmp_path / f"{cmd}_{key}_{value}.cfg"
                cfg.write_text("".join(
                    f"{k} = {v}\n" for k, v in {**base, key: value}.items()))
                for extra in ([], ["--assert"]):
                    runs += 1
                    out = tmp_path / f"run{runs}"
                    label = f"{cmd} {key} = {value} {extra}"
                    try:
                        code = main([cmd, "--config", str(cfg), "--out", str(out)]
                                    + extra)
                    except Exception as exc:
                        raise AssertionError(f"{label}: exit 1") from exc
                    if code in (2, 3):
                        assert not out.exists(), label
                        continue
                    assert code in (0, 4), label
                    for path in out.glob("*.json"):
                        json.loads(path.read_text(), parse_constant=_reject_constant)
                    for path in out.glob("*.csv"):
                        for row in path.read_text().splitlines()[1:]:
                            for cell in row.split(","):
                                try:
                                    number = float(cell)
                                except ValueError:  # a label column
                                    continue
                                assert np.isfinite(number), (label, path.name, row)


def test_cli_late_numeric_failure_leaves_no_directory(sim_run, tmp_path,
                                                       monkeypatch):
    # a numeric failure in the last stage of a run, after the first outputs
    # are computed, still leaves no output directory
    from bogl import gauge, lp

    def fail(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(gauge, "reconstruct_high", fail)
    monkeypatch.setattr(lp, "decompose", fail)
    snap = sorted(Path(sim_run.out_dir).glob("snap_*.bin"))[0]
    for argv in (["gauge-check", "--traj", str(sim_run.out_dir)],
                 ["lp-decompose", "--input", str(snap)]):
        dest = tmp_path / argv[0]
        assert main(argv + ["--out", str(dest)]) == 3, argv
        assert not dest.exists(), argv


def test_cli_out_dir_from_config(tmp_path):
    # out_dir in the config picks the run directory, --out overrides it, and
    # the manifest never records it
    from_cfg, from_flag = tmp_path / "from_cfg", tmp_path / "from_flag"
    cfg = tmp_path / "ns.cfg"
    cfg.write_text(f"out_dir = {from_cfg}\nsamples = 2\n")
    assert main(["norm-sweep", "--config", str(cfg), "--out", str(from_flag)]) == 0
    assert (from_flag / "norm_sweep.csv").exists()
    assert not from_cfg.exists()
    assert main(["norm-sweep", "--config", str(cfg)]) == 0
    assert (from_cfg / "norm_sweep.csv").exists()
    manifest = (from_cfg / "manifest.json").read_text()
    assert "out_dir" not in json.loads(manifest)["config"]
    assert (from_flag / "manifest.json").read_text() == manifest


def test_cli_looks_up_run_functions_at_call_time(tmp_path, monkeypatch):
    # the CLI looks each run_* function up on the experiments module when it
    # runs, so one rebound after import (as a tracer does) is the one called
    from bogl import experiments

    real = experiments.run_norm_sweep
    calls = []

    def spy(config, out_dir):
        calls.append(out_dir)
        return real(config, out_dir)

    monkeypatch.setattr(experiments, "run_norm_sweep", spy)
    cfg = tmp_path / "ns.cfg"
    cfg.write_text("samples = 2\n")
    out = tmp_path / "ns"
    assert main(["norm-sweep", "--config", str(cfg), "--out", str(out)]) == 0
    assert calls == [str(out)]


def test_cli_seed_override(tmp_path):
    cfg = tmp_path / "ns.cfg"
    cfg.write_text("samples = 3\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["norm-sweep", "--config", str(cfg), "--out", str(a),
                 "--seed", "5"]) == 0
    assert main(["norm-sweep", "--config", str(cfg), "--out", str(b),
                 "--seed", "6"]) == 0
    assert (a / "norm_sweep.csv").read_text() != (b / "norm_sweep.csv").read_text()


def test_write_csv_stable_format(tmp_path):
    rows = [{"a": 1, "b": 0.5}, {"a": 2, "b": float("nan")}]
    path = tmp_path / "t.csv"
    write_csv(path, rows, ["a", "b"])
    assert path.read_text() == "a,b\n1,0.5\n2,nan\n"


def test_stream_independence():
    a = stream(1, "x", 0).standard_normal(4)
    b = stream(1, "x", 1).standard_normal(4)
    c = stream(1, "y", 0).standard_normal(4)
    again = stream(1, "x", 0).standard_normal(4)
    assert np.all(a == again)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    with pytest.raises(ValueError):
        stream(1, "x", 2**32)
