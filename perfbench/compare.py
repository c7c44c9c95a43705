"""Compare two sets of benchmark results, per workload and metric.

    python3 perfbench/compare.py LOGS_A [LOGS_B]

Each argument is a directory of (or a single) standard-output logs of
``perfbench/run.py``.  With one set it prints each metric's median,
quartiles and spread (quartile distance over median) against a third of the
metric's bound.  With two it pairs the i-th runs of A and B in seed order,
and reads each end-to-end metric by the rules in BENCHMARK.json:

* gain: B wins at least 9 of 10 pairs (ties count for neither) and the
  medians differ by more than A's quartile distance;
* worse: B's median is worse than A's by more than the metric's bound;
* unresolved: A's spread is wider than the bound and not every run of B
  beats every run of A;
* otherwise: within bound.

Per-layer metrics have no bound; they are listed with medians and wins only.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec() -> dict[str, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def parse_log(path: Path) -> tuple[dict, dict] | None:
    header = result = None
    for line in path.read_text(errors="replace").splitlines():
        if line.startswith("perfbench-run "):
            header = json.loads(line.split(" ", 1)[1])
        elif line.startswith("{"):
            result = line
    if header is None or result is None:
        return None
    return header, json.loads(result)


def load_set(arg: str) -> dict[tuple, list]:
    """(workload, trace) -> [(seed, result)] sorted by seed."""
    path = Path(arg)
    files = sorted(path.iterdir()) if path.is_dir() else [path]
    out: dict[tuple, list] = defaultdict(list)
    for f in files:
        parsed = parse_log(f) if f.is_file() else None
        if parsed:
            header, result = parsed
            out[(header["workload"], header["trace"])].append((header["seed"], result))
    for runs in out.values():
        runs.sort(key=lambda r: r[0])
    return out


def quartiles(vals: list[float]) -> tuple[float, float, float]:
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals: list[float]) -> float:
    q1, med, q3 = quartiles(vals)
    return (q3 - q1) / abs(med) if med else float("inf")


def _values(runs, metric):
    return [r["metrics"][metric]["value"] for _, r in runs if metric in r["metrics"]]


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> tuple[int, int, str]:
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    q1a, med_a, q3a = quartiles(a)
    med_b = statistics.median(b)
    if bound is None:
        return wins, len(pairs), ""
    if wins >= 0.9 * len(pairs) and sign * (med_b - med_a) > q3a - q1a:
        return wins, len(pairs), "gain"
    if sign * (med_a - med_b) > bound * abs(med_a):
        return wins, len(pairs), "WORSE beyond bound"
    all_better = (min(b) > max(a)) if better == "higher" else (max(b) < min(a))
    if spread(a) > bound and not all_better:
        return wins, len(pairs), "unresolved (spread wider than bound)"
    return wins, len(pairs), "within bound"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    sets = [load_set(a) for a in argv]
    keys = sorted(set().union(*sets))
    for key in keys:
        workload, trace = key
        runs = [s.get(key, []) for s in sets]
        print(f"== {workload} (trace {trace}); runs: {', '.join(str(len(r)) for r in runs)}")
        for label, rs in zip("AB", runs):
            failed = sum(r["failed"] for _, r in rs)
            attempted = sum(r["attempted"] for _, r in rs)
            print(f"   {label}: {attempted} operations attempted, {failed} failed")
        metrics = sorted({m for rs in runs for _, r in rs for m in r["metrics"]})
        for metric in metrics:
            info = spec.get(metric, {})
            bound = info.get("bound")
            cols = []
            for rs in runs:
                vals = _values(rs, metric)
                if not vals:
                    cols.append("-")
                    continue
                q1, med, q3 = quartiles(vals)
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] spread {spread(vals):.1%}")
            line = f"   {metric:40s} " + " | ".join(cols)
            if bound is not None:
                line += f" | bound {bound:.0%}"
            if len(runs) == 2:
                a, b = _values(runs[0], metric), _values(runs[1], metric)
                if a and b:
                    wins, pairs, text = verdict(a, b, info.get("better", "lower"), bound)
                    ratio = statistics.median(b) / statistics.median(a) if statistics.median(a) else float("nan")
                    line += f" | B/A {ratio:.3f}, B wins {wins}/{pairs} {text}"
            elif bound is not None:
                vals = _values(runs[0], metric)
                ok = spread(vals) < bound / 3
                line += " | steady" if ok else " | NOT steady (spread >= bound/3)"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
