"""One pass of a workload inside a single interpreter, for the traced run.

    python3 perfbench/inprocess.py --workload W --seed K --size full \
        --workdir DIR --mode plain|spans|memory --result OUT.json [--spans SPANS.json]

Runs the workload's commands through ``bogl.cli.main`` in this process, so
the same ``experiments.run_*`` functions execute as in the CLI.  The modes:

* plain: nothing wrapped.  Before the commands it times ``dynamics.step`` on
  the workload's grid (first call, which builds the cached stepper, then
  warm calls) and then empties the stepper cache, so the commands start
  as cold as a CLI process;
* spans: the public functions of every layer and the FFT entry points are
  wrapped, and the span table and FFT counts go into the result.  Its
  commands do the same work as the plain pass, so the difference of the two
  times is the tracing overhead;
* memory: only the functions in ``tracer.MEMORY_FUNCTIONS`` are wrapped, to
  take the tracemalloc peak of their first call, which no timed pass pays for.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import statistics
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
STEP_WARM_CALLS = 100


def step_timings(workload: str, size: str, seed: int) -> dict:
    """First-call and warm-call times of dynamics.step, in ms."""
    grids = workloads.STEP_GRID_TINY if size == "tiny" else workloads.STEP_GRID
    if workload not in grids:
        return {"first_ms": 0.0, "warm_ms_p50": 0.0, "warm_ms_p90": 0.0}
    from bogl.dynamics import step
    from bogl.reporting import stream
    from bogl.spectral import make_grid, random_field

    n, dt = grids[workload]
    u = random_field(make_grid(n, 1.0), stream(seed, "perfbench-step"), decay=2.0,
                     max_mode=8)
    t0 = time.perf_counter()
    u = step(u, dt)
    first = time.perf_counter() - t0
    warm = []
    for _ in range(STEP_WARM_CALLS):
        t0 = time.perf_counter()
        u = step(u, dt)
        warm.append(time.perf_counter() - t0)
    deciles = statistics.quantiles(warm, n=10)
    return {"first_ms": 1e3 * first, "warm_ms_p50": 1e3 * statistics.median(warm),
            "warm_ms_p90": 1e3 * deciles[8]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=workloads.SIZES)
    p.add_argument("--workdir", required=True, type=Path)
    p.add_argument("--mode", required=True, choices=("plain", "spans", "memory"))
    p.add_argument("--result", required=True, type=Path)
    p.add_argument("--spans", type=Path)
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    payload = {}
    if args.mode == "spans":
        import numpy.fft
        import scipy.fft

        from tracer import FFTCounter

        # before bogl is imported, so no module binds an unwrapped transform
        counter = FFTCounter()
        counter.install([numpy.fft, scipy.fft])
    import bogl.cli

    if args.mode == "plain":
        import bogl.dynamics

        payload["step"] = step_timings(args.workload, args.size, args.seed)
        bogl.dynamics._STEPPER_CACHE.clear()  # the commands start cold, as in the CLI
    else:
        from tracer import LAYERS, LayerTracer, MemoryPeaks

        for layer in LAYERS:
            importlib.import_module(f"bogl.{layer}")
        tracer = LayerTracer() if args.mode == "spans" else MemoryPeaks()
        tracer.install()

    cmds = workloads.commands(args.workload, args.size)
    args.workdir.mkdir(parents=True, exist_ok=True)
    for cmd in cmds:
        cmd.write_config(args.workdir)
    results = []
    t_start = time.perf_counter()
    for cmd in cmds:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                rc = bogl.cli.main(cmd.argv(args.workdir, args.seed))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        results.append({"command": cmd.sub, "rc": rc, "stdout": out.getvalue()})
    commands_s = time.perf_counter() - t_start

    payload["commands_s"] = commands_s
    payload["commands"] = results
    if args.mode == "memory":
        payload["peak_alloc_mb"] = tracer.table()
    elif args.mode == "spans":
        payload["layers"] = tracer.table()
        payload["fft"] = {"calls": counter.calls, "points": counter.points,
                          "gflop_computed": counter.flops / 1e9}
        if args.spans is not None:
            spans = [[i, name, round(a - t_start, 7), round(b - t_start, 7), parent]
                     for i, (name, a, b, parent) in enumerate(tracer.spans)]
            args.spans.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "columns": ["id", "name", "start_s", "end_s", "parent"],
                 "spans": spans}, separators=(",", ":")))
    args.result.write_text(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
