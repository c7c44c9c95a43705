"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_benchmark_json_matches_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_metrics()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_end_to_end_run(workload, capsys):
    assert run.run(workload, seed=3, seconds=0.1, trace=0, size="tiny") == 0
    result = _last_json(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0
    # at least 3 set-up and 3 full passes, one operation per command, plus checks
    assert result["attempted"] > 5 * len(workloads.commands(workload, "tiny"))
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["evolve", "probe"])
def test_tiny_traced_run(workload, capsys):
    assert run.run(workload, seed=3, seconds=0.1, trace=1, size="tiny") == 0
    out = capsys.readouterr().out
    result = _last_json(out)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(run.per_layer_metrics())
    assert metrics["fft.calls"] > 0 and metrics["fft.gflop_computed"] > 0
    if workload == "evolve":
        assert metrics["dynamics.simulate.calls"] == 1
        assert metrics["dynamics.step.first_ms"] > 0
        assert metrics["gauge.reconstruct_high.peak_alloc_mb"] > 0
        # simulate builds its stepper as in the CLI: the peak holds the two
        # n x 32 complex contour arrays of ETDRK4Stepper
        n = workloads.commands("evolve", "tiny")[0].config["n"]
        assert metrics["dynamics.simulate.peak_alloc_mb"] >= 2 * n * 32 * 16 / 2**20
        assert metrics["bilinear.region_pairing.calls"] == 0
    else:
        assert metrics["bilinear.region_pairing.calls"] > 1
        assert metrics["bilinear.region_pairing.first_s"] > 0
        assert metrics["dynamics.step.first_ms"] == 0
    spans = json.loads((run.TRACE_DIR / f"{workload}-seed3.spans.json").read_text())["spans"]
    names = {s[1] for s in spans}
    assert "experiments.run_simulate" in names or "experiments.run_probe_suite" in names
    # nested calls get parents: every parent index points at an enclosing span
    for sid, _, start, end, parent in spans:
        if parent >= 0:
            p = spans[parent]
            assert p[2] <= start and end <= p[3]


def test_fft_counter_counts_points_and_flops():
    import numpy as np

    from tracer import FFTCounter

    class NS:
        fft = staticmethod(np.fft.fft)
        fft2 = staticmethod(np.fft.fft2)
        rfft = staticmethod(np.fft.rfft)

    counter = FFTCounter()
    counter.install([NS])
    NS.fft(np.zeros((3, 8)))           # 3 transforms of 8 points
    NS.fft2(np.zeros((4, 16)))         # one 2-D transform of 64 points
    NS.rfft(np.zeros(32), n=16)        # one real transform of 16 points
    assert counter.calls == 3
    assert counter.points == 24 + 64 + 16
    assert counter.flops == 5 * 24 * 3 + 5 * 64 * 6 + 2.5 * 16 * 4


def test_reference_checks_allow_rounding_but_not_more():
    ref = {"final_M": 1.0, "max_reconstruction_gap": 1e-12}
    ok = workloads.reference_checks({"final_M": 1.0 + 1e-12, "max_reconstruction_gap": 3e-12}, ref)
    assert all(c[1] for c in ok)
    bad = workloads.reference_checks({"final_M": 1.001, "max_reconstruction_gap": 1e-9}, ref)
    assert not any(c[1] for c in bad)


def test_compare_verdicts():
    a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(a, [v * 0.8 for v in a], "lower", 0.1)[2] == "gain"
    assert compare.verdict(a, [v * 1.2 for v in a], "lower", 0.1)[2] == "WORSE beyond bound"
    assert compare.verdict(a, list(a), "lower", 0.1)[2] == "within bound"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
