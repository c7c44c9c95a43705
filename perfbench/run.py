"""The bogl benchmark.

    python3 perfbench/run.py --workload W --seed K --seconds S --trace 0|1

Workloads (see workloads.py and README.md): evolve and probe, which
BENCHMARK.json lists, and ensemble and probe-large.  Each is a sequence of
`bogl` CLI commands run one at a time as subprocesses of this process.

--trace 0 (end-to-end): alternating set-up passes (the commands with the
work cut to its smallest valid amount) and full passes, until the next pair
would end after S seconds (at least three of each).  Reports the medians of
the full-pass wall time (wall_s), the set-up pass wall time (setup_s) and the
largest child RSS of a full pass (peak_rss_mb, from os.wait4), and prints the
throughput (work of one pass over wall_s).

--trace 1 (per layer): three in-process passes (inprocess.py): untraced,
traced, and one that takes only the memory peaks.  Reports the per-layer span
table, FFT counts, memory peaks, first/warm splits of the two layer caches
and the tracing overhead, and writes the spans to .perfbench_traces/.

Either way every command must exit 0 under --assert, the outputs must pass
the structure checks, and for seeds listed in references.json the summary
numbers must match within workloads.REL_TOL.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_traces"

MIN_PASSES = 3  # also the fewest set-up passes, whose median is setup_s
RUN_LIMIT_S = 170.0  # every child is killed before the run reaches this

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics reported by the traced run: (function, stats)
TRACED_FUNCTIONS = {
    "dynamics.simulate": ("calls", "s", "self_s", "peak_alloc_mb"),
    "gauge.gauge_residual": ("calls", "s", "self_s", "peak_alloc_mb"),
    "gauge.reconstruct_high": ("calls", "s", "self_s", "peak_alloc_mb"),
    "gauge.gauge_w": ("calls", "s", "self_s"),
    "bilinear.region_pairing": ("calls", "s", "self_s", "first_s", "warm_ms", "peak_alloc_mb"),
    "bilinear.bilinear_B": ("calls", "s", "self_s"),
    "bilinear.trilinear_I": ("calls", "s", "self_s"),
    "bilinear.bracket_convolution_check": ("calls", "s", "self_s"),
    "bilinear.estimate_probe": ("calls", "s", "self_s"),
    "bourgain.x_norm": ("calls", "s", "self_s"),
    "bourgain.z_tilde_norm": ("calls", "s", "self_s"),
    "bourgain.spacetime_lebesgue": ("calls", "s", "self_s"),
    "bourgain.random_spacetime_field": ("calls", "s", "self_s"),
    "bourgain.duhamel_field": ("calls", "s", "self_s"),
    "bourgain.free_evolution_field": ("calls", "s", "self_s"),
    "bourgain.linear_probes": ("calls", "s", "self_s"),
    "spectral.pointwise_product": ("calls", "s", "self_s"),
    "lp.phi_shell": ("calls",),
    "snapshots.write_snapshot": ("calls", "s", "self_s"),
    "snapshots.read_snapshot": ("calls", "s", "self_s"),
    "reporting.write_csv": ("calls", "s", "self_s"),
    "reporting.write_json": ("calls", "s", "self_s"),
    "reporting.sha256_file": ("calls", "s", "self_s"),
    "experiments.run_simulate": ("s", "self_s"),
    "experiments.run_gauge_check": ("s", "self_s"),
    "experiments.run_lipschitz_pairs": ("s", "self_s"),
    "experiments.run_scaling_check": ("s", "self_s"),
    "experiments.run_probe_suite": ("s", "self_s"),
}
_UNITS = {"calls": "count", "s": "s", "self_s": "s", "first_s": "s", "warm_ms": "ms",
          "peak_alloc_mb": "MB"}
OTHER_LAYER_METRICS = {
    "dynamics.step.first_ms": "ms",
    "dynamics.step.warm_ms_p50": "ms",
    "dynamics.step.warm_ms_p90": "ms",
    "fft.calls": "count",
    "fft.points": "count",
    "fft.gflop_computed": "Gflop",
    "trace.untraced_s": "s",
    "trace.traced_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_metrics() -> dict[str, str]:
    """Name -> unit of every metric the traced run reports."""
    out = {f"{fn}.{stat}": _UNITS[stat] for fn, stats in TRACED_FUNCTIONS.items()
           for stat in stats}
    out.update(OTHER_LAYER_METRICS)
    return out


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed: one per CLI command, one per check."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # single-threaded library kernels: the measured run is the plain
    # one-thread baseline on a small shared machine
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=5)
            return out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None

    env = child_env()
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache_bytes": {lvl: getconf(f"{key}_SIZE") for lvl, key in
                        (("L1d", "LEVEL1_DCACHE"), ("L2", "LEVEL2_CACHE"), ("L3", "LEVEL3_CACHE"))},
        "thread_env_parent": {v: os.environ.get(v) for v in THREAD_VARS},
        "thread_env_children": {v: env.get(v) for v in THREAD_VARS},
    }


def describe(values: list[float]) -> str:
    """Median, and the highest percentile above it that has at least ten
    values beyond it, with the count and every value in run order."""
    vals = sorted(values)
    text = f"median {statistics.median(vals):.6g}"
    k = len(vals) - 11  # vals[k] has ten values above it
    if k >= 0 and (k + 1) / len(vals) > 0.5:
        text += f", p{100 * (k + 1) / len(vals):.0f} {vals[k]:.6g}"
    else:
        text += ", too few for a tail percentile with 10 beyond it"
    return text + f" (n={len(vals)}): " + " ".join(f"{v:.4g}" for v in values)


# ---------------------------------------------------------------------------
# subprocess passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    wall_s: float
    peak_rss_mb: float


def run_child(argv: list[str], env: dict, log: Path, deadline: float) -> tuple[int, float, float]:
    """Run one child to completion; returns (exit code, wall s, max RSS MB).
    The child is killed if it would run past ``deadline``."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            # reaped here, so Popen must not wait for it again
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return proc.returncode, wall, usage.ru_maxrss / 1024


def run_pass(cmds, workdir: Path, seed: int, env: dict, tally: Tally, deadline: float) -> Pass:
    """Run the commands once, in order, in a fresh ``workdir``."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for cmd in cmds:
        cmd.write_config(workdir)
    wall, rss = 0.0, 0.0
    for i, cmd in enumerate(cmds):
        log = workdir / f"{i}-{cmd.sub}.log"
        argv = [sys.executable, "-m", "bogl.cli", *cmd.argv(workdir, seed)]
        rc, dt, mb = run_child(argv, env, log, deadline)
        wall += dt
        rss = max(rss, mb)
        text = log.read_text(errors="replace")
        fails = [ln for ln in text.splitlines() if ln.startswith("[FAIL]")]
        tally.record(f"{cmd.sub} exit", rc == 0 and not fails,
                     f"exit {rc}; {' '.join(fails) or text[-400:]}")
    return Pass(wall, rss)


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}


def check_outputs(workload: str, size: str, cmds, workdir: Path, seed: int,
                  tally: Tally) -> None:
    """Structure checks for every seed, reference checks where stored."""
    try:
        checks = workloads.structure_checks(workload, cmds, workdir)
        refs = load_references().get(str(seed), {}).get(workload) if size == "full" else None
        if refs is not None:
            got = workloads.summary_numbers(workload, workdir)
            checks += workloads.reference_checks(got, refs)
    except (OSError, KeyError, ValueError) as exc:
        checks = [("outputs_readable", False, repr(exc))]
    for name, ok, detail in checks:
        tally.record(name, ok, detail)


def end_to_end(workload: str, seed: int, seconds: float, size: str, workdir: Path,
               tally: Tally, deadline: float) -> dict:
    env = child_env()
    setup_cmds = workloads.commands(workload, "setup" if size == "full" else size)
    cmds = workloads.commands(workload, size)
    setup: list[float] = []
    passes: list[Pass] = []
    work = None
    t0 = time.perf_counter()
    while True:
        # set-up and full passes alternate, so both sample the same stretch
        # of machine time
        setup.append(run_pass(setup_cmds, workdir, seed, env, tally, deadline).wall_s)
        passes.append(run_pass(cmds, workdir, seed, env, tally, deadline))
        if work is None:
            check_outputs(workload, size, cmds, workdir, seed, tally)
            work = workloads.work_done(workload, cmds, workdir)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(setup) + statistics.median(p.wall_s for p in passes)
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
        if time.monotonic() + 2 * typical > deadline:
            break
    walls = [p.wall_s for p in passes]
    rss = [p.peak_rss_mb for p in passes]
    wall = statistics.median(walls)
    print(f"wall_s [s]: {describe(walls)}")
    print(f"setup_s [s]: {describe(setup)}")
    print(f"peak_rss_mb [MB]: {describe(rss)}")
    print(f"throughput: {work / wall:.6g} {workloads.WORK_UNIT[workload]}/s "
          f"({work:.6g} per pass over wall_s)")
    return {"wall_s": wall, "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(rss)}


def traced(workload: str, seed: int, size: str, workdir: Path, tally: Tally,
           deadline: float) -> dict:
    env = child_env()
    cmds = workloads.commands(workload, size)
    TRACE_DIR.mkdir(exist_ok=True)
    spans = TRACE_DIR / f"{workload}-seed{seed}.spans.json"
    children = {}
    for mode in ("plain", "spans", "memory"):
        sub = workdir / mode
        shutil.rmtree(sub, ignore_errors=True)
        sub.mkdir(parents=True)
        result = sub / "result.json"
        log = workdir / f"inprocess-{mode}.log"
        argv = [sys.executable, str(HERE / "inprocess.py"), "--workload", workload,
                "--seed", str(seed), "--size", size, "--workdir", str(sub),
                "--mode", mode, "--result", str(result)]
        if mode == "spans":
            argv += ["--spans", str(spans)]
        rc, _, _ = run_child(argv, env, log, deadline)
        tally.record(f"inprocess {mode} exit", rc == 0 and result.is_file(),
                     f"exit {rc}: {log.read_text()[-400:]}")
        if rc != 0 or not result.is_file():
            return {}
        children[mode] = json.loads(result.read_text())
        for res in children[mode]["commands"]:
            fails = [ln for ln in res["stdout"].splitlines() if ln.startswith("[FAIL]")]
            tally.record(f"{res['command']} exit", res["rc"] == 0 and not fails,
                         f"exit {res['rc']}; {' '.join(fails)}")
        check_outputs(workload, size, cmds, sub, seed, tally)

    plain, full = children["plain"], children["spans"]
    table = full["layers"]
    peaks = children["memory"]["peak_alloc_mb"]
    metrics = {}
    for fn, stats in TRACED_FUNCTIONS.items():
        row = table.get(fn, {})
        for stat in stats:
            value = peaks.get(fn, 0.0) if stat == "peak_alloc_mb" else row.get(stat, 0.0)
            metrics[f"{fn}.{stat}"] = float(value)
    for key, val in plain["step"].items():
        metrics[f"dynamics.step.{key}"] = val
    for key, val in full["fft"].items():
        metrics[f"fft.{key}"] = float(val)
    metrics["trace.untraced_s"] = plain["commands_s"]
    metrics["trace.traced_s"] = full["commands_s"]
    metrics["trace.overhead_s"] = full["commands_s"] - plain["commands_s"]

    print(f"{'function':44s} {'calls':>8s} {'s':>9s} {'self_s':>9s} {'first_s':>9s} "
          f"{'warm_ms':>9s}")
    for fn, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{fn:44s} {row['calls']:8d} {row['s']:9.4f} {row['self_s']:9.4f} "
              f"{row['first_s']:9.4f} {row['warm_ms']:9.3f}")
    print("first-call tracemalloc peaks (memory pass): " + ", ".join(
        f"{fn} {mb:.1f} MB" for fn, mb in sorted(peaks.items())))
    print(f"fft: {full['fft']['calls']} calls, {full['fft']['points']} points, "
          f"{full['fft']['gflop_computed']:.4f} Gflop computed (5 N log2 N per complex transform)")
    print(f"dynamics.step: first {plain['step']['first_ms']:.3f} ms, warm p50 "
          f"{plain['step']['warm_ms_p50']:.3f} ms, p90 {plain['step']['warm_ms_p90']:.3f} ms")
    print(f"tracing overhead: traced {full['commands_s']:.4f} s - untraced "
          f"{plain['commands_s']:.4f} s = {metrics['trace.overhead_s']:.4f} s")
    print(f"spans: {spans.relative_to(ROOT)}")
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def record_references(workload: str, seed: int) -> int:
    """Run one full pass and store its summary numbers as the references."""
    tally = Tally()
    workdir = WORK_ROOT / f"{workload}-ref-{os.getpid()}"
    cmds = workloads.commands(workload)
    try:
        run_pass(cmds, workdir, seed, child_env(), tally, time.monotonic() + 600)
        if tally.failed:
            print("\n".join(tally.failures), file=sys.stderr)
            return 1
        refs = load_references()
        refs.setdefault(str(seed), {})[workload] = workloads.summary_numbers(workload, workdir)
        REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-references", action="store_true",
                   help="store this seed's summary numbers in references.json")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "bogl" / "cli.py").is_file():
        print(f"error: no bogl sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_references:
        return record_references(args.workload, args.seed)
    return run(args.workload, args.seed, args.seconds, args.trace)


def run(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    print("perfbench-run " + json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                                         "trace": trace, "size": size}))
    print("environment " + json.dumps(environment(), sort_keys=True))
    tally = Tally()
    workdir = WORK_ROOT / f"{workload}-{os.getpid()}"
    try:
        if trace:
            metrics = traced(workload, seed, size, workdir, tally, deadline)
            units = per_layer_metrics()
        else:
            metrics = end_to_end(workload, seed, seconds, size, workdir, tally, deadline)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for line in tally.failures:
        print(f"FAILED {line}")
    print(f"operations: {tally.attempted} attempted, {tally.failed} failed "
          f"({tally.failed / max(tally.attempted, 1):.1%})")
    if set(metrics) != set(units):
        print(f"error: metrics missing: {sorted(set(units) - set(metrics))}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
