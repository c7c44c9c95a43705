"""Command line entry point.

    bogl <subcommand> [--config FILE] [--assert] [--seed K] [--out DIR] ...

Subcommands: simulate, gauge-check, lp-decompose, norm-sweep, bilinear-probe,
lipschitz-pairs, scaling-check, probe-suite.  Config files are "key = value"
lines with # comments; --seed overrides the config seed and --out picks the
run directory (gauge-check and lp-decompose take no config: they accept
--seed and ignore it).  Exit codes: 0 success, 2 config error, 3 numeric
failure, 4 acceptance-threshold violation in --assert mode; exits 2 and 3
make no run directory.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .dynamics import IntegrationError
from .experiments import ConfigError

CSV_SCHEMAS = """\
CSV schemas
  simulate        diagnostics.csv: t, M, E, Linf (per snapshot)
  gauge-check     gauge_residual.csv: t, residual_L2, mean_term_L2
                  reconstruction.csv: t, rel_gap
  lp-decompose    lp_masses.csv: shell (0 = low part), mass (squared L2)
  norm-sweep      norm_sweep.csv: sample_id, s, b, x_norm, x_regroup, z_norm,
                  z_tilde, y_norm, l4, ratio_l4_x38
  bilinear-probe  <which>.csv: sample, lhs, rhs, ratio [, region_A, region_B,
                  region_C, pairing_total, closure_rel, g_dual_norm]
                  <which>.json: name, inequality, samples, skipped, sup,
                  mean, stddev, environment
  lipschitz-pairs lipschitz.csv: sample, delta, ratio_l2, ratio_hs,
                  ratio_gauge_z; truncation.csv: sample, cutoff, err_l2
  scaling-check   scaling.csv: check, value, expected, rel_err
  probe-suite     one CSV/JSON pair per probe plus probe_suite_summary.json
Every run writes manifest.json (resolved config + sha256 of each output).
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bogl",
        description="Periodic Benjamin-Ono simulator and estimate-probe lab.",
        epilog=CSV_SCHEMAS,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", help="key = value config file")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument(
            "--seed", type=int, default=None,
            help="override the config seed" if needs_config
            else "accepted and ignored: this command takes no seed",
        )
        p.add_argument(
            "--assert",
            dest="assert_mode",
            action="store_true",
            help="exit 4 when an acceptance threshold is violated",
        )

    common(sub.add_parser("simulate", help="integrate the evolution"))
    p = sub.add_parser("gauge-check", help="gauge residual and reconstruction")
    p.add_argument("--traj", required=True, help="directory of snap_*.bin files")
    common(p, needs_config=False)
    p = sub.add_parser("lp-decompose", help="per-shell masses of a snapshot")
    p.add_argument("--input", required=True, help="snapshot file")
    common(p, needs_config=False)
    common(sub.add_parser("norm-sweep", help="space-time norm ensemble"))
    p = sub.add_parser("bilinear-probe", help="one bilinear/Leibniz estimate probe")
    p.add_argument("--which", default=None, help="probe name")
    p.add_argument("--s", type=float, default=None, help="Sobolev index")
    p.add_argument("--samples", type=int, default=None)
    common(p)
    common(sub.add_parser("lipschitz-pairs", help="same-low-frequency pairs"))
    common(sub.add_parser("scaling-check", help="dilation symmetry check"))
    common(sub.add_parser("probe-suite", help="run every probe"))
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = _dispatch(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    for a in result.assertions:
        status = "ok" if a.ok else "FAIL"
        detail = f" ({a.detail})" if a.detail else ""
        print(f"[{status}] {a.name}{detail}")
    print(f"outputs in {result.out_dir}")
    if args.assert_mode and not result.passed:
        return 4
    return 0


# subcommand -> (experiments.run_* name, default output directory, the
# argument naming its input, or None for a config-driven run).  The functions
# are named, not stored, so one rebound on the module after import (a tracer
# does this) is the one called.
_COMMANDS = {
    "simulate": ("run_simulate", "sim_out", None),
    "gauge-check": ("run_gauge_check", "gauge_out", "traj"),
    "lp-decompose": ("run_lp_decompose", "lp_out", "input"),
    "norm-sweep": ("run_norm_sweep", "norm_out", None),
    "bilinear-probe": ("run_bilinear_probe", "bilinear_out", None),
    "lipschitz-pairs": ("run_lipschitz_pairs", "lipschitz_out", None),
    "scaling-check": ("run_scaling_check", "scaling_out", None),
    "probe-suite": ("run_probe_suite", "suite_out", None),
}


def _dispatch(args) -> experiments.RunResult:
    run_name, default_out, input_arg = _COMMANDS[args.command]
    raw = {}
    if getattr(args, "config", None):
        raw = experiments.parse_config_file(args.config)
    for key in ("seed", "which", "s", "samples"):
        if getattr(args, key, None) is not None:
            raw[key] = str(getattr(args, key))
    config_out = raw.pop("out_dir", None)  # never echoed into manifests
    out_dir = args.out or config_out or default_out
    source = raw if input_arg is None else getattr(args, input_arg)
    return getattr(experiments, run_name)(source, out_dir)


if __name__ == "__main__":
    sys.exit(main())
