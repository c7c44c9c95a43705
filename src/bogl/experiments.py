"""Reproducible experiment drivers: config parsing, manifests and the
simulation / gauge / probe / well-posedness studies behind the CLI.

Config files are UTF-8 "key = value" lines with # comments; unknown keys are
rejected.  Every run_* function follows one protocol: it resolves and
checks its config (a bad one raises ConfigError), computes everything,
rejects non-finite results (FloatingPointError), and only then hands `_emit`
its outputs, each a file name plus a one-argument writer.  `_emit` makes the run
directory, writes the files in order and writes a manifest echoing the
resolved configuration and a sha256 per output file, so a run that fails
leaves no directory behind.  Paths inside the manifest are relative to the
run directory and the manifest never records the directory itself, so a
fixed seed reproduces every byte regardless of where the run lands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import bilinear, bourgain, gauge, lp
from .dynamics import SimConfig, Trajectory, rescale, simulate, traveling_wave
from .reporting import ProbeReport, sha256_file, stream, write_csv, write_json
from .snapshots import read_snapshot, write_snapshot
from .spectral import (
    RealField,
    lebesgue_norm,
    make_grid,
    random_field,
    sobolev_norm,
)

__all__ = [
    "ConfigError",
    "parse_config_file",
    "resolve_config",
    "Assertion",
    "RunResult",
    "run_simulate",
    "run_gauge_check",
    "run_lp_decompose",
    "run_norm_sweep",
    "run_bilinear_probe",
    "run_lipschitz_pairs",
    "run_scaling_check",
    "run_probe_suite",
]


class ConfigError(ValueError):
    pass


def parse_config_file(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    out: dict = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, value = body.split("=", 1)
        key = key.strip()
        if key in out:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _convert(key: str, raw: str, kind):
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is str:
            return raw
        if kind == "floats":
            return tuple(float(v) for v in raw.split(",") if v.strip())
        if kind == "ints":
            return tuple(int(v) for v in raw.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from None
    raise AssertionError(kind)


# Domains of config values, each (test, words): the third field of a schema
# entry.  Grid sizes and lambda >= 1 are left to make_grid and SpaceTimeGrid.
ANY = (lambda v: True, "anything")
FINITE = (math.isfinite, "finite")
POSITIVE = (lambda v: math.isfinite(v) and v > 0, "finite and > 0")
COUNT = (lambda v: v >= 1, ">= 1")
NATURAL = (lambda v: v >= 0, ">= 0")
DYADIC = (lambda v: v >= 1 and v & (v - 1) == 0, "a power of two >= 1")


def resolve_config(raw: dict, schema: dict) -> dict:
    """raw converted and defaulted by schema (key -> (kind, default, domain));
    a value, default or list element outside its key's domain is an error."""
    unknown = set(raw) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    resolved = {}
    for key, (kind, default, (test, words)) in schema.items():
        value = _convert(key, raw[key], kind) if key in raw else default
        for v in value if isinstance(value, tuple) else (value,):
            if not test(v):
                raise ConfigError(f"{key} must be {words}, got {v}")
        resolved[key] = value
    return resolved


@dataclass
class Assertion:
    name: str
    ok: bool
    detail: str


@dataclass
class RunResult:
    out_dir: Path
    config: dict
    outputs: list
    assertions: list

    @property
    def passed(self) -> bool:
        return all(a.ok for a in self.assertions)


def _emit(command: str, out_dir, config: dict, files: dict,
          assertions: list) -> RunResult:
    """Make out_dir, call each writer of files (name -> writer(path)) in
    order, then write manifest.json: the resolved config, the sha256 of each
    output and the assertions."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = [out / name for name in files]
    for write, path in zip(files.values(), outputs):
        write(path)
    manifest = {
        "command": command,
        "config": {k: _manifest_value(v) for k, v in config.items()},
        "outputs": {name: sha256_file(path) for name, path in zip(files, outputs)},
        "assertions": [
            {"name": a.name, "ok": a.ok, "detail": a.detail} for a in assertions
        ],
        "format_version": 1,
    }
    path = out / "manifest.json"
    write_json(path, manifest)
    return RunResult(out, config, [*outputs, path], assertions)


def _manifest_value(v):
    if isinstance(v, tuple):
        return list(v)
    return v


def _validated(keys: str, build, *args, **kwargs):
    """build(*args, **kwargs) with its ValueErrors (the checks of make_grid,
    SimConfig, SpaceTimeGrid, random_field, ...) reported as config errors
    that name the config keys the arguments come from."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def _read_snapshot(path):
    """read_snapshot with unreadable, malformed or non-finite files reported
    as input errors."""
    try:
        field, t = read_snapshot(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    # a NaN or inf sample spreads to every coefficient
    if not np.all(np.isfinite(field.coefficients)):
        raise ConfigError(f"{path}: non-finite samples")
    return field, t


def _require_finite(values: dict) -> None:
    """Exit 3 (FloatingPointError) on any non-finite entry, before it is written."""
    bad = [name for name, v in values.items() if not np.all(np.isfinite(v))]
    if bad:
        raise FloatingPointError(f"non-finite values in {', '.join(bad)}")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

SIMULATE_SCHEMA = {
    "n": (int, 256, ANY),
    "lambda": (float, 1.0, FINITE),
    "dt": (float, 1e-3, POSITIVE),
    "t_end": (float, 1.0, POSITIVE),
    "snapshot_stride": (int, 100, COUNT),
    "seed": (int, 0, ANY),
    "init": (str, "random", ANY),
    "amplitude": (float, 1.0, FINITE),
    "max_mode": (int, 8, COUNT),
    "decay": (float, 2.0, FINITE),
    "rho": (float, 0.3, FINITE),
}


def initial_data(grid, cfg: dict) -> RealField:
    init = cfg["init"]
    if init == "zero":
        return RealField.from_samples(grid, np.zeros(grid.n))
    if init == "modes":
        x = grid.x
        profile = cfg["amplitude"] * (
            np.cos(x) + 0.6 * np.cos(2 * x) - 0.4 * np.sin(3 * x)
        )
        return RealField.from_samples(grid, profile)
    if init == "random":
        rng = stream(cfg["seed"], "initial-data")
        return random_field(
            grid,
            rng,
            decay=cfg["decay"],
            amplitude=cfg["amplitude"],
            max_mode=cfg["max_mode"],
        )
    if init == "wave":
        profile, _ = traveling_wave(grid, cfg["rho"])
        return profile
    raise ConfigError(f"unknown init {init!r} (zero|modes|random|wave)")


def run_simulate(config: dict, out_dir) -> RunResult:
    cfg = resolve_config(config, SIMULATE_SCHEMA)
    grid = _validated("n, lambda", make_grid, cfg["n"], cfg["lambda"])
    # a rho or lambda that the wave profile cannot take
    u0 = _validated("init, rho, lambda", initial_data, grid, cfg)
    sim_cfg = _validated(
        "dt, t_end, snapshot_stride",
        SimConfig,
        grid,
        dt=cfg["dt"],
        t_end=cfg["t_end"],
        snapshot_stride=cfg["snapshot_stride"],
    )
    traj = simulate(u0, sim_cfg)
    files = {
        f"snap_{idx:06d}.bin": partial(write_snapshot, field=state, time=float(t))
        for idx, (t, state) in enumerate(zip(traj.times, traj.states))
    }
    files["diagnostics.csv"] = partial(
        write_csv, rows=traj.diagnostics_rows(), columns=["t", "M", "E", "Linf"]
    )
    m_drift = float(np.max(np.abs(traj.momenta - traj.momenta[0])))
    e_drift = float(np.max(np.abs(traj.energies - traj.energies[0])))
    m_ref = max(abs(traj.momenta[0]), 1e-300)
    e_ref = max(abs(traj.energies[0]), 1e-300)
    assertions = [
        Assertion("finite", bool(np.isfinite(traj.states[-1].samples).all()), ""),
        Assertion(
            "momentum_drift", m_drift / m_ref < 1e-10 or m_drift == 0.0,
            f"rel drift {m_drift / m_ref:.3e}",
        ),
        Assertion(
            "energy_drift", e_drift / e_ref < 1e-8 or e_drift == 0.0,
            f"rel drift {e_drift / e_ref:.3e}",
        ),
    ]
    return _emit("simulate", out_dir, cfg, files, assertions)


def load_trajectory(traj_dir) -> Trajectory:
    paths = sorted(Path(traj_dir).glob("snap_*.bin"))
    if not paths:
        raise ConfigError(f"no snapshots found in {traj_dir}")
    states, times = [], []
    for p in paths:
        field, t = _read_snapshot(p)
        if not isinstance(field, RealField):
            raise ConfigError(f"{p}: trajectory snapshots must be real fields")
        if states and field.grid != states[0].grid:
            raise ConfigError(f"{p}: grid differs from that of {paths[0].name}")
        # the evolution conserves the mean; gauge_residual's tolerance
        if states and abs(field.mean.real - states[0].mean.real) > 1e-10:
            raise ConfigError(f"{p}: mean differs from that of {paths[0].name}")
        states.append(field)
        times.append(t)
    order = np.argsort(times)
    states = [states[i] for i in order]
    times = np.array([times[i] for i in order])
    return Trajectory(times=times, states=states)


# ---------------------------------------------------------------------------
# gauge check
# ---------------------------------------------------------------------------


def run_gauge_check(traj_dir, out_dir) -> RunResult:
    oversample = 4  # fine-lattice factor of the gauge exponentials
    traj = load_trajectory(traj_dir)
    mean = float(traj.states[0].mean.real)
    if abs(mean) > 1e-12:
        # Galilean change of unknown: evolve in the mean-zero frame
        reduced = []
        for t, u in zip(traj.times, traj.states):
            shifted = gauge.translate_to_zero_mean(u, mean, float(t))
            reduced.append(shifted)
        traj = Trajectory(times=traj.times, states=reduced)
    # fewer than 3 or unevenly spaced snapshots
    rep = _validated("traj", gauge.gauge_residual, traj, oversample=oversample)
    rec_rows = []
    for t, state in zip(traj.times, traj.states):
        rec = gauge.reconstruct_high(state, oversample=oversample)
        rec_rows.append({"t": float(t), "rel_gap": rec.rel_gap})
    # np.max, unlike max(), keeps a NaN gap
    worst = float(np.max([row["rel_gap"] for row in rec_rows]))
    config = {"traj_dir": str(traj_dir), "oversample": oversample,
              "snapshots": len(traj.states), "mean_shift": mean}
    assertions = [
        Assertion("reconstruction_gap", worst <= 1e-10, f"max rel gap {worst:.3e}"),
        Assertion(
            "residual_finite", bool(np.all(np.isfinite(rep.residuals))),
            f"max residual {float(np.max(rep.residuals)):.3e}",
        ),
    ]
    files = {
        "gauge_residual.csv": partial(
            write_csv, rows=rep.rows(), columns=["t", "residual_L2", "mean_term_L2"]
        ),
        "reconstruction.csv": partial(
            write_csv, rows=rec_rows, columns=["t", "rel_gap"]
        ),
    }
    return _emit("gauge-check", out_dir, config, files, assertions)


# ---------------------------------------------------------------------------
# lp decompose
# ---------------------------------------------------------------------------


def run_lp_decompose(input_path, out_dir) -> RunResult:
    field, t = _read_snapshot(input_path)
    dec = lp.decompose(field)
    rows = [{"shell": n, "mass": m} for n, m in dec.shell_masses()]
    rec = dec.reconstruct()
    scale = max(float(np.max(np.abs(field.coefficients))), 1e-300)
    gap = float(np.max(np.abs(rec.coefficients - field.coefficients))) / scale
    config = {"input": str(Path(input_path).name), "time": t,
              "profile": lp.PROFILE_NAME}
    assertions = [Assertion("reconstruction", gap <= 1e-12, f"rel gap {gap:.3e}")]
    files = {"lp_masses.csv": partial(write_csv, rows=rows, columns=["shell", "mass"])}
    return _emit("lp-decompose", out_dir, config, files, assertions)


# ---------------------------------------------------------------------------
# norm sweep
# ---------------------------------------------------------------------------

NORM_SWEEP_SCHEMA = {
    "n": (int, 32, ANY),
    "lambda": (float, 1.0, FINITE),
    "num_times": (int, 32, ANY),
    "t_span_pi": (float, 2.0, POSITIVE),
    "samples": (int, 20, COUNT),
    "seed": (int, 0, ANY),
    "s": (float, 0.0, FINITE),
    "b": (float, 0.5, FINITE),
    "xi_decay": (float, 1.0, FINITE),
    "sigma_decay": (float, 1.5, FINITE),
}


@np.errstate(over="ignore", invalid="ignore")  # _require_finite reports NaN and inf
def run_norm_sweep(config: dict, out_dir) -> RunResult:
    cfg = resolve_config(config, NORM_SWEEP_SCHEMA)
    win = _validated(
        "num_times, t_span_pi",
        bourgain.SpaceTimeGrid,
        _validated("n, lambda", make_grid, cfg["n"], cfg["lambda"]),
        cfg["num_times"],
        cfg["t_span_pi"] * math.pi,
    )
    rows = []
    plancherel_worst = 0.0
    for i in range(cfg["samples"]):
        rng = stream(cfg["seed"], "norm-sweep", i)
        u = bourgain.random_spacetime_field(
            win, rng, xi_decay=cfg["xi_decay"], sigma_decay=cfg["sigma_decay"],
            real=True,
        )
        x00 = bourgain.x_norm(u, 0.0, 0.0)
        l2 = bourgain.spacetime_lebesgue(u, 2)
        plancherel_worst = max(plancherel_worst, abs(x00 - l2) / max(l2, 1e-300))
        x38 = bourgain.x_norm(u, 0.0, 0.375)
        l4 = bourgain.spacetime_lebesgue(u, 4)
        rows.append(
            {
                "sample_id": i,
                "s": cfg["s"],
                "b": cfg["b"],
                "x_norm": bourgain.x_norm(u, cfg["s"], cfg["b"]),
                "x_regroup": bourgain.x_norm_regrouped(u, cfg["s"], cfg["b"]),
                "z_norm": bourgain.z_norm(u, cfg["s"], cfg["b"]),
                "z_tilde": bourgain.z_tilde_norm(u, cfg["s"], cfg["b"]),
                "y_norm": bourgain.y_norm(u, cfg["s"]),
                "l4": l4,
                "ratio_l4_x38": l4 / x38 if x38 > 0 else float("nan"),
            }
        )
    norms = ("x_norm", "x_regroup", "z_norm", "z_tilde", "y_norm", "l4")
    _require_finite({key: [row[key] for row in rows] for key in norms})
    assertions = [
        Assertion(
            "plancherel", plancherel_worst <= 1e-12,
            f"max |X^{{0,0}} - L2|/L2 = {plancherel_worst:.3e}",
        )
    ]
    files = {"norm_sweep.csv": partial(write_csv, rows=rows)}
    return _emit("norm-sweep", out_dir, cfg, files, assertions)


# ---------------------------------------------------------------------------
# bilinear probe
# ---------------------------------------------------------------------------

BILINEAR_SCHEMA = {
    "which": (str, "bilinear_critical_x", ANY),
    "s": (float, 0.0, FINITE),
    "samples": (int, 100, COUNT),
    "seed": (int, 0, ANY),
    "n": (int, 32, ANY),
    "num_times": (int, 32, ANY),
    "lambda": (float, 0.0, FINITE),  # 0 means: probe-specific default
}


def _estimate_probe(which: str, cfg: dict, period_scale: float) -> ProbeReport:
    """bilinear.estimate_probe on the grid, samples, seed and s of a resolved
    bilinear-probe or probe-suite config."""
    probe_cfg = bourgain.ProbeConfig(
        n=cfg["n"], num_times=cfg["num_times"], samples=cfg["samples"],
        seed=cfg["seed"], s=cfg["s"], period_scale=period_scale,
    )
    return bilinear.estimate_probe(which, probe_cfg)


def _worst_closure(reports) -> float:
    """Largest region closure_rel over the rows of the reports (0 if none)."""
    return max(
        (row.get("closure_rel", 0.0) for rep in reports for row in rep.rows),
        default=0.0,
    )


@np.errstate(over="ignore", invalid="ignore")  # _require_finite reports NaN and inf
def run_bilinear_probe(config: dict, out_dir) -> RunResult:
    cfg = resolve_config(config, BILINEAR_SCHEMA)
    which = cfg["which"]
    period_scale = bilinear.default_period_scale(which, cfg["lambda"])
    rep = _validated(
        "which, n, num_times, lambda", _estimate_probe, which, cfg, period_scale
    )
    # the sup is NaN when no sample was kept
    _require_finite({rep.name: np.append(rep.ratios, rep.sup)})
    worst_closure = _worst_closure([rep])
    assertions = [
        Assertion(
            "region_closure", worst_closure <= 1e-10,
            f"max |A+B+C-total|/|total| = {worst_closure:.3e}",
        ),
    ]
    resolved = {**cfg, "lambda": period_scale}
    return _emit("bilinear-probe", out_dir, resolved, rep.files(), assertions)


# ---------------------------------------------------------------------------
# lipschitz pairs
# ---------------------------------------------------------------------------

LIPSCHITZ_SCHEMA = {
    "n": (int, 256, ANY),
    "lambda": (float, 1.0, FINITE),
    "dt": (float, 1e-3, POSITIVE),
    "t_end": (float, 0.5, POSITIVE),
    "snapshot_stride": (int, 50, COUNT),
    "seed": (int, 0, ANY),
    "s": (float, 0.0, FINITE),
    "deltas": ("floats", (1e-1, 1e-2, 1e-3), FINITE),
    "samples": (int, 2, COUNT),
    # the pair must share its frequencies |xi| < 8 (gauge.primitive_gap)
    "perturb_min_freq": (
        float, 8.0, (lambda v: math.isfinite(v) and v >= 8, "finite and >= 8")
    ),
    "perturb_max_mode": (int, 24, ANY),
    "cutoffs": ("ints", (20, 40, 80), ANY),
    "amplitude": (float, 1.0, FINITE),
    "max_mode": (int, 8, COUNT),
    "decay": (float, 2.0, FINITE),
    "trunc_decay": (float, 1.0, FINITE),
    "trunc_max_mode": (int, 0, NATURAL),  # 0: fill the dealiased band
}


def _high_frequency_direction(grid, rng, band: range) -> RealField:
    """Unit-L2 random direction on the modes of band."""
    coeff = np.zeros(grid.n, dtype=complex)
    for k in band:
        z = rng.standard_normal() + 1j * rng.standard_normal()
        z *= (1.0 + k / grid.period_scale) ** (-2.0)
        coeff[k] += z
        coeff[-k] += np.conj(z)
    f = RealField(grid, coeff)
    norm = lebesgue_norm(f, 2)
    return f * (1.0 / norm)


@np.errstate(over="ignore", invalid="ignore")  # _require_finite reports NaN and inf
def run_lipschitz_pairs(config: dict, out_dir) -> RunResult:
    cfg = resolve_config(config, LIPSCHITZ_SCHEMA)
    deltas = tuple(d for d in cfg["deltas"] if d > 0)
    skipped_deltas = len(cfg["deltas"]) - len(deltas)  # ratio undefined at 0
    if not deltas:
        raise ConfigError("no positive perturbation sizes given")
    grid = _validated("n, lambda", make_grid, cfg["n"], cfg["lambda"])
    sim_cfg = _validated(
        "dt, t_end, snapshot_stride", SimConfig, grid, dt=cfg["dt"],
        t_end=cfg["t_end"], snapshot_stride=cfg["snapshot_stride"],
    )
    band = range(
        int(np.ceil(cfg["perturb_min_freq"] * grid.period_scale)),
        min(cfg["perturb_max_mode"], grid.n // 2 - 1) + 1,
    )
    if not band:
        raise ConfigError(
            f"perturb_min_freq, perturb_max_mode: the perturbation band "
            f"[{band.start}, {band.stop - 1}] is empty"
        )
    # frequency-truncated data use a rough-tailed datum, so the truncation
    # actually removes mass
    rough_max = cfg["trunc_max_mode"] or int(grid.n // 3) - 1
    rows = []
    trunc_rows = []
    spreads = []
    for i in range(cfg["samples"]):
        rng = stream(cfg["seed"], "lipschitz", i)
        phi1 = random_field(
            grid, rng, decay=cfg["decay"], amplitude=cfg["amplitude"],
            max_mode=cfg["max_mode"],
        )
        direction = _high_frequency_direction(grid, rng, band)
        traj1 = simulate(phi1, sim_cfg)
        ratios = []
        for delta in deltas:
            phi2 = phi1 + float(delta) * direction
            gauge.primitive_gap(phi1, phi2, require_same_low=True)
            traj2 = simulate(phi2, sim_cfg)
            denom_l2 = lebesgue_norm(phi1 - phi2, 2)
            denom_hs = sobolev_norm(phi1 - phi2, cfg["s"])
            sup_l2 = max(
                lebesgue_norm(a - b, 2)
                for a, b in zip(traj1.states, traj2.states)
            )
            sup_hs = max(
                sobolev_norm(a - b, cfg["s"])
                for a, b in zip(traj1.states, traj2.states)
            )
            sup_z = max(
                lebesgue_norm(gauge.gauge_w(a) - gauge.gauge_w(b), 2)
                for a, b in zip(traj1.states, traj2.states)
            )
            # a subnormal delta underflows the L2 norm, an extreme s the H^s
            # norm, to 0: the ratio is NaN and _require_finite exits 3
            ratio_l2 = sup_l2 / denom_l2 if denom_l2 > 0 else np.nan
            ratios.append(ratio_l2)
            rows.append(
                {
                    "sample": i,
                    "delta": float(delta),
                    "ratio_l2": ratio_l2,
                    "ratio_hs": sup_hs / denom_hs if denom_hs > 0 else np.nan,
                    "ratio_gauge_z": sup_z / denom_l2 if denom_l2 > 0 else np.nan,
                }
            )
        spreads.append((max(ratios) - min(ratios)) / min(ratios))
        # frequency-truncated data: convergence of u^j to the full solution
        psi = random_field(
            grid, rng, decay=cfg["trunc_decay"], amplitude=cfg["amplitude"],
            max_mode=rough_max,
        )
        traj_ref = simulate(psi, sim_cfg)
        for cutoff in cfg["cutoffs"]:
            mask = (np.abs(grid.xi) <= cutoff).astype(float)
            uj0 = RealField(grid, psi.coefficients * mask)
            trajj = simulate(uj0, sim_cfg)
            err = max(
                lebesgue_norm(a - b, 2)
                for a, b in zip(trajj.states, traj_ref.states)
            )
            trunc_rows.append({"sample": i, "cutoff": int(cutoff), "err_l2": err})
    ratio_columns = ["ratio_l2", "ratio_hs", "ratio_gauge_z"]
    _require_finite({key: [row[key] for row in rows] for key in ratio_columns})
    max_spread = max(spreads)
    decreasing = all(
        a["err_l2"] >= b["err_l2"] - 1e-15
        for a, b in zip(trunc_rows, trunc_rows[1:])
        if a["sample"] == b["sample"]
    )
    assertions = [
        Assertion(
            "delta_stability", max_spread <= 0.10,
            f"max ratio spread across deltas {max_spread:.3%}",
        ),
        Assertion("truncation_monotone", decreasing, ""),
    ]
    resolved = {**cfg, "deltas": deltas, "skipped_deltas": skipped_deltas}
    files = {
        "lipschitz.csv": partial(
            write_csv, rows=rows, columns=["sample", "delta", *ratio_columns]
        ),
        "truncation.csv": partial(
            write_csv, rows=trunc_rows, columns=["sample", "cutoff", "err_l2"]
        ),
    }
    return _emit("lipschitz-pairs", out_dir, resolved, files, assertions)


# ---------------------------------------------------------------------------
# scaling check
# ---------------------------------------------------------------------------

SCALING_SCHEMA = {
    "n": (int, 256, ANY),
    "lambda_base": (float, 2.0, FINITE),
    "scale": (int, 2, DYADIC),
    "dt": (float, 1e-3, POSITIVE),
    "t_scaled": (float, 0.25, POSITIVE),
    "seed": (int, 0, ANY),
    "amplitude": (float, 0.25, FINITE),
    "max_mode": (int, 6, COUNT),
    "decay": (float, 2.0, FINITE),
}


def run_scaling_check(config: dict, out_dir) -> RunResult:
    cfg = resolve_config(config, SCALING_SCHEMA)
    lam = cfg["scale"]
    grid = _validated("n, lambda_base", make_grid, cfg["n"], cfg["lambda_base"])
    rng = stream(cfg["seed"], "scaling")
    u0 = random_field(grid, rng, decay=cfg["decay"], amplitude=cfg["amplitude"],
                      max_mode=cfg["max_mode"])
    # a scale the base lattice cannot take, found before any march
    v0 = _validated("scale, lambda_base", rescale, u0, lam)
    rows = []
    norm_worst = 0.0
    for factor in (1, 2, 4):
        if grid.period_scale / factor < 1 - 1e-12:
            continue
        v = rescale(u0, factor)
        got = lebesgue_norm(v, 2)
        want = math.sqrt(factor) * lebesgue_norm(u0, 2)
        err = abs(got - want) / max(want, 1e-300)  # u0 = 0 at amplitude 0
        norm_worst = max(norm_worst, err)
        rows.append({"check": f"norm_scale_{factor}", "value": got,
                     "expected": want, "rel_err": err})
    t_scaled = cfg["t_scaled"]
    steps_base = round(lam**2 * t_scaled / cfg["dt"])
    base_cfg = _validated("dt, t_scaled, scale", SimConfig, grid, dt=cfg["dt"],
                          t_end=lam**2 * t_scaled, snapshot_stride=steps_base)
    base_final = simulate(u0, base_cfg).states[-1]
    steps_scaled = round(t_scaled / cfg["dt"])
    scaled_cfg = _validated("dt, t_scaled", SimConfig, v0.grid, dt=cfg["dt"],
                            t_end=t_scaled, snapshot_stride=steps_scaled)
    scaled_final = simulate(v0, scaled_cfg).states[-1]
    expected = rescale(base_final, lam)
    corr = lebesgue_norm(scaled_final - expected, 2)
    rows.append({"check": "solution_correspondence", "value": corr,
                 "expected": 0.0, "rel_err": corr})
    assertions = [
        Assertion("norm_relation", norm_worst <= 1e-12, f"rel err {norm_worst:.3e}"),
        Assertion("correspondence", corr <= 1e-6, f"L2 error {corr:.3e}"),
    ]
    files = {"scaling.csv": partial(
        write_csv, rows=rows, columns=["check", "value", "expected", "rel_err"]
    )}
    return _emit("scaling-check", out_dir, cfg, files, assertions)


# ---------------------------------------------------------------------------
# probe suite
# ---------------------------------------------------------------------------

PROBE_SUITE_SCHEMA = {
    "seed": (int, 0, ANY),
    "samples": (int, 100, COUNT),
    "n": (int, 32, ANY),
    "num_times": (int, 32, ANY),
    "s": (float, 0.0, FINITE),
    "select": (str, "all", ANY),
    "exp_samples": (int, 40, COUNT),
    "exp_n": (int, 64, ANY),
    "bracket_mu_max": (float, 1e4, FINITE),
}

SUITE_PROBES = (
    "linear",
    *bilinear.PROBE_NAMES,
    "exp_multiplication",
    "bracket_convolution",
)


def _suite_exp_multiplication(cfg) -> ProbeReport:
    grid = make_grid(cfg["exp_n"], 1.0)
    rep = ProbeReport(
        "exp_multiplication",
        "|J^a(e^{-iF/2} g)|_{Lq} <= C (1 + |u|_{L2}) |J^a g|_{Lq}",
        environment={"n": cfg["exp_n"], "samples": cfg["exp_samples"],
                     "seed": cfg["seed"]},
    )
    for i in range(cfg["exp_samples"]):
        rng = stream(cfg["seed"], "exp-multiplication", i)
        u = random_field(grid, rng, decay=1.0, amplitude=1.0)
        g = random_field(grid, rng, decay=0.7, amplitude=1.0)
        for q, alpha in ((2, 0.0), (4, 0.25)):
            res = gauge.exp_multiplication_probe(u, g, alpha=alpha, q=q)
            rep.add(sample=i, q=q, alpha=alpha, lhs=res.lhs, rhs=res.rhs,
                    ratio=res.ratio)
    return rep


@np.errstate(over="ignore", invalid="ignore")  # _require_finite reports NaN and inf
def run_probe_suite(config: dict, out_dir) -> RunResult:
    cfg = resolve_config(config, PROBE_SUITE_SCHEMA)
    selected = (
        list(SUITE_PROBES)
        if cfg["select"] == "all"
        else [s.strip() for s in cfg["select"].split(",") if s.strip()]
    )
    unknown = set(selected) - set(SUITE_PROBES)
    if unknown:
        raise ConfigError(f"unknown probes: {sorted(unknown)}")
    # validated up front: inside the probe loop a bad grid would be recorded
    # as a probe failure instead of a config error
    _validated(
        "n, num_times",
        bourgain.ProbeConfig(n=cfg["n"], num_times=cfg["num_times"]).window,
    )
    _validated("exp_n", make_grid, cfg["exp_n"], 1.0)
    failures: list = []
    reports: list[ProbeReport] = []
    for name in selected:
        try:
            reports.extend(_run_one_suite_probe(name, cfg))
        except ConfigError:
            raise
        except Exception as exc:  # record and continue, per the suite contract
            failures.append({"probe": name, "error": str(exc)})
    # the sup is NaN when no sample was kept
    _require_finite({rep.name: np.append(rep.ratios, rep.sup) for rep in reports})
    files: dict = {}
    summary: dict = {}
    for rep in reports:
        files.update(rep.files())
        summary[rep.name] = {
            "inequality": rep.inequality,
            "sup": rep.sup,
            "mean": rep.mean,
            "stddev": rep.stddev,
            "samples": len(rep.rows),
            "skipped": rep.skipped,
        }
    files["probe_suite_summary.json"] = partial(
        write_json,
        payload={"probes": summary, "failures": failures, "seed": cfg["seed"]},
    )
    worst_closure = _worst_closure(reports)
    assertions = [
        Assertion("no_probe_failures", not failures, str(failures)),
        Assertion(
            "region_closure", worst_closure <= 1e-10,
            f"max closure {worst_closure:.3e}",
        ),
    ]
    return _emit("probe-suite", out_dir, cfg, files, assertions)


def _run_one_suite_probe(name: str, cfg: dict) -> list[ProbeReport]:
    if name == "linear":
        probe_cfg = bourgain.ProbeConfig(
            n=cfg["n"], num_times=cfg["num_times"],
            samples=max(10, cfg["samples"] // 3), seed=cfg["seed"], s=cfg["s"],
        )
        return bourgain.linear_probes(probe_cfg)
    if name == "exp_multiplication":
        return [_suite_exp_multiplication(cfg)]
    if name == "bracket_convolution":
        mus = [0.0, 1.0, 10.0, 100.0, 1000.0, cfg["bracket_mu_max"]]
        return [bilinear.bracket_convolution_check(1.0, 1.0, mus)]
    return [_estimate_probe(name, cfg, bilinear.default_period_scale(name))]
