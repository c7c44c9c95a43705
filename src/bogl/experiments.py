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

Each driver imports the layers it runs (gauge, lp, bourgain, bilinear) at
its own top, so a command loads only those: simulate never loads the probe
layers.  The drivers look layer functions up on the module at call time, so
a function rebound there after import is the one called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from .dynamics import (
    LazyStates,
    SimConfig,
    Trajectory,
    rescale,
    simulate,
    traveling_wave,
)
from .reporting import ProbeReport, sha256_file, stream, write_csv, write_json
from .snapshots import read_snapshot, write_snapshot
from .spectral import (
    RealField,
    _is_power_of_two,
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
    "run_lipschitz_pairs",
    "run_scaling_check",
    "run_probe_suite",
]


class ConfigError(ValueError):
    pass


def _does_not_fit(exc: BaseException) -> bool:
    """Whether exc is a MemoryError or numpy's ValueError for an array past 2^63 bytes."""
    return isinstance(exc, MemoryError) or (
        isinstance(exc, ValueError) and str(exc).startswith("array is too big"))


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
NONNEGATIVE = (lambda v: math.isfinite(v) and v >= 0, "finite and >= 0")
COUNT = (lambda v: v >= 1, ">= 1")
NATURAL = (lambda v: v >= 0, ">= 0")
DYADIC = (_is_power_of_two, "a power of two >= 1")


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
        "config": config,
        "outputs": {name: sha256_file(path) for name, path in zip(files, outputs)},
        "assertions": [
            {"name": a.name, "ok": a.ok, "detail": a.detail} for a in assertions
        ],
        "format_version": 1,
    }
    path = out / "manifest.json"
    write_json(path, manifest)
    return RunResult(out, config, [*outputs, path], assertions)


def _validated(keys: str, build, *args, **kwargs):
    """build(*args, **kwargs) with its ValueErrors (the checks of make_grid,
    SimConfig, SpaceTimeGrid, random_field, ...) reported as config errors
    that name the config keys the arguments come from."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def _read_snapshot(path):
    """read_snapshot with an unreadable or malformed file reported as an
    input error."""
    try:
        return read_snapshot(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


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


@np.errstate(over="ignore", invalid="ignore")  # IntegrationError reports NaN and inf
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
    # each writer builds its state when it writes, so none is kept
    files = {
        f"snap_{idx:06d}.bin": partial(_write_state, traj, idx)
        for idx in range(len(traj.times))
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


def _write_state(traj: Trajectory, idx: int, path) -> None:
    write_snapshot(path, traj.states[idx], float(traj.times[idx]))


def load_trajectory(traj_dir) -> tuple[Trajectory, float]:
    """The snapshots of traj_dir in time order, in the gauge's mean-zero
    frame, and the mean of the earliest.  Every file is read and checked here
    (a bad one is a ConfigError), down to its mean in that frame, but only
    its path, time, mean and peak are kept: the states are read again, one
    at a time, when the trajectory is read."""
    from . import gauge

    paths = sorted(Path(traj_dir).glob("snap_*.bin"))
    if not paths:
        raise ConfigError(f"no snapshots found in {traj_dir}")
    times, means, peaks = [], [], []
    for p in paths:
        u, t = _read_snapshot(p)
        if not times:
            first_grid = u.grid
        if u.grid != first_grid:
            raise ConfigError(f"{p}: grid differs from that of {paths[0].name}")
        coeff = u.coefficients
        means.append(coeff[0].real)
        peaks.append(float(np.max(np.abs(coeff[1:]))))
        times.append(t)
    order = np.argsort(times)
    mean = means[order[0]]
    # the Galilean change of unknown takes the earliest state's mean out of
    # every state, and the gauge must take what is left as zero
    shift = mean if abs(mean) > gauge.MEAN_TOL else 0.0
    for i in order:
        # the primitive's scale also takes |offset|, which decides nothing:
        # an offset above max(peak, 1) fails either way
        if gauge._nonzero_mean(means[i] - shift, peaks[i]):
            raise ConfigError(f"{paths[i]}: mean differs from that of "
                              f"{paths[order[0]].name}")
    ordered = [str(paths[i]) for i in order]
    times = np.array([times[i] for i in order])

    def state(i):
        u = _read_snapshot(ordered[i])[0]
        return gauge.translate_to_zero_mean(u, mean, float(times[i])) if shift else u

    return Trajectory(times=times, states=LazyStates(state, len(ordered))), mean


# ---------------------------------------------------------------------------
# gauge check
# ---------------------------------------------------------------------------


@np.errstate(over="ignore", invalid="ignore")  # the assertions report NaN and inf
def run_gauge_check(traj_dir, out_dir) -> RunResult:
    from . import gauge

    oversample = 4  # fine-lattice factor of the gauge exponentials
    traj, mean = load_trajectory(traj_dir)
    states = traj.states
    # fewer than 3 or unevenly spaced snapshots
    window = _validated("traj", gauge.ResidualWindow, traj.times)
    # one pass: each state is read once, and its e^{-iF/2} is formed once for
    # both the residual and the reconstruction
    gaps = []
    for state in states:
        exponential = gauge.exponential_pair(state, oversample)
        _validated("traj", window.add, state, exponential[1])
        rec = gauge.reconstruct_high(state, oversample=oversample, exponential=exponential)
        gaps.append(rec.rel_gap)
        # released before the next state's exponential is formed
        del exponential, rec
    rep = window.report()
    rec_rows = [{"t": float(t), "rel_gap": gap} for t, gap in zip(traj.times, gaps)]
    # np.max, unlike max(), keeps a NaN gap
    worst = float(np.max(gaps))
    config = {"traj_dir": str(traj_dir), "oversample": oversample,
              "snapshots": len(states), "mean_shift": mean}
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


@np.errstate(over="ignore", invalid="ignore")  # _require_finite reports NaN and inf
def run_lp_decompose(input_path, out_dir) -> RunResult:
    from . import lp

    field, t = _read_snapshot(input_path)
    dec = lp.decompose(field)
    rows = [{"shell": n, "mass": m} for n, m in dec.shell_masses()]
    rec = dec.reconstruct()
    scale = max(float(np.max(np.abs(field.coefficients))), 1e-300)
    gap = float(np.max(np.abs(rec.coefficients - field.coefficients))) / scale
    _require_finite({"mass": [row["mass"] for row in rows], "gap": gap})
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
    from . import bourgain

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
        l2, l4 = bourgain._l2_and_l4(u)
        plancherel_worst = max(plancherel_worst, abs(x00 - l2) / max(l2, 1e-300))
        x38 = bourgain.x_norm(u, 0.0, 0.375)
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
    # 0: modes up to n // 3 - 1, one below the top n // 3 of the dealiased band
    "trunc_max_mode": (int, 0, NATURAL),
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
    from . import gauge

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
    # the lowest mode may overflow to inf at a lambda near the float range
    lowest = cfg["perturb_min_freq"] * grid.period_scale
    highest = min(cfg["perturb_max_mode"], grid.n // 2 - 1)
    if not lowest <= highest:
        raise ConfigError(
            f"perturb_min_freq, perturb_max_mode: the perturbation band "
            f"[{lowest:g}, {highest}] is empty"
        )
    band = range(math.ceil(lowest), highest + 1)
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
        w1 = [gauge.gauge_w(a) for a in traj1.states]
        ratios = []
        for delta in deltas:
            phi2 = phi1 + float(delta) * direction
            gauge.primitive_gap(phi1, phi2, require_same_low=True)
            traj2 = simulate(phi2, sim_cfg)
            gap = phi1 - phi2
            denom_l2 = lebesgue_norm(gap, 2)
            denom_hs = sobolev_norm(gap, cfg["s"])
            gaps_l2, gaps_hs, gaps_z = [], [], []
            for a, b, wa in zip(traj1.states, traj2.states, w1):
                d = a - b
                gaps_l2.append(lebesgue_norm(d, 2))
                gaps_hs.append(sobolev_norm(d, cfg["s"]))
                gaps_z.append(lebesgue_norm(wa - gauge.gauge_w(b), 2))
            sup_l2, sup_hs, sup_z = max(gaps_l2), max(gaps_hs), max(gaps_z)
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


def _final_only(grid, dt: float, t_end: float) -> SimConfig:
    """The march from 0 to t_end in steps of dt that keeps its last state."""
    steps = SimConfig(grid, dt=dt, t_end=t_end).n_steps
    return SimConfig(grid, dt=dt, t_end=t_end, snapshot_stride=steps)


@np.errstate(over="ignore", invalid="ignore")  # _require_finite reports NaN and inf
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
    base_cfg = _validated("dt, t_scaled, scale", _final_only, grid, cfg["dt"],
                          lam**2 * t_scaled)
    base_final = simulate(u0, base_cfg).states[-1]
    scaled_cfg = _validated("dt, t_scaled", _final_only, v0.grid, cfg["dt"], t_scaled)
    scaled_final = simulate(v0, scaled_cfg).states[-1]
    expected = rescale(base_final, lam)
    corr = lebesgue_norm(scaled_final - expected, 2)
    rows.append({"check": "solution_correspondence", "value": corr,
                 "expected": 0.0, "rel_err": corr})
    _require_finite({key: [r[key] for r in rows] for key in ("value", "expected", "rel_err")})
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
    "lambda": (float, 0.0, NONNEGATIVE),  # 0: each lattice probe's default
}


def _suite_exp_multiplication(cfg) -> ProbeReport:
    from . import bourgain, gauge

    probe_cfg = bourgain.ProbeConfig(n=cfg["exp_n"], samples=cfg["exp_samples"],
                                     seed=cfg["seed"],
                                     period_scale=cfg["lambda"] or 1.0)
    grid = make_grid(probe_cfg.n, probe_cfg.period_scale)
    rep = ProbeReport(
        "exp_multiplication",
        "|J^a(e^{-iF/2} g)|_{Lq} <= C (1 + |u|_{L2}) |J^a g|_{Lq}",
        environment={"n": probe_cfg.n, "period_scale": probe_cfg.period_scale,
                     "samples": probe_cfg.samples, "seed": probe_cfg.seed},
    )

    def sample(rng, decay):
        # the decays are fixed here, so the loop's schedule is not read
        u = random_field(grid, rng, decay=1.0, amplitude=1.0)
        g = random_field(grid, rng, decay=0.7, amplitude=1.0)
        rows = []
        for q, alpha in ((2, 0.0), (4, 0.25)):
            res = gauge.exp_multiplication_probe(u, g, alpha=alpha, q=q)
            rows.append((rep, {"q": q, "alpha": alpha, "lhs": res.lhs,
                               "rhs": res.rhs, "ratio": res.ratio}))
        return rows

    bourgain._sample_loop(probe_cfg, "exp-multiplication", sample)
    return rep


@np.errstate(over="ignore", invalid="ignore")  # _require_finite reports NaN and inf
def run_probe_suite(config: dict, out_dir) -> RunResult:
    from . import bilinear, bourgain

    cfg = resolve_config(config, PROBE_SUITE_SCHEMA)
    probes = ("linear", *bilinear.PROBE_NAMES, "exp_multiplication",
              "bracket_convolution")
    selected = (
        list(probes)
        if cfg["select"] == "all"
        else [s.strip() for s in cfg["select"].split(",") if s.strip()]
    )
    if (not selected or not set(selected) <= set(probes)
            or len(set(selected)) < len(selected)):
        raise ConfigError(
            f"select must be all or distinct names of {', '.join(probes)}; "
            f"got {cfg['select']!r}"
        )
    # validated up front: inside the probe loop a bad grid or period would be
    # recorded as a probe failure instead of a config error
    _validated(
        "n, num_times",
        bourgain.ProbeConfig(n=cfg["n"], num_times=cfg["num_times"]).window,
    )
    if cfg["lambda"]:
        _validated("lambda", make_grid, cfg["n"], cfg["lambda"])
    for name in selected:
        if name in bilinear.PROBE_NAMES:
            _validated("lambda", bilinear.default_period_scale, name, cfg["lambda"])
    _validated("exp_n", make_grid, cfg["exp_n"], cfg["lambda"] or 1.0)
    failures: list = []
    reports: list[ProbeReport] = []
    for name in selected:
        try:
            reports.extend(_run_one_suite_probe(name, cfg))
        except Exception as exc:  # record and continue, per the suite contract
            if isinstance(exc, ConfigError) or _does_not_fit(exc):
                raise  # exit 2, as for the other commands
            failures.append({"probe": name, "error": str(exc)})
    # the sup is NaN when no sample was kept
    _require_finite({rep.name: np.append(rep.ratios, rep.sup) for rep in reports})
    files: dict = {}
    summary: dict = {}
    for rep in reports:
        files.update(rep.files())
        summary[rep.name] = {k: v for k, v in rep.summary().items()
                             if k not in ("name", "environment")}
    files["probe_suite_summary.json"] = partial(
        write_json,
        payload={"probes": summary, "failures": failures, "seed": cfg["seed"]},
    )
    worst_closure = max(
        (row.get("closure_rel", 0.0) for rep in reports for row in rep.rows),
        default=0.0,
    )
    assertions = [
        Assertion("no_probe_failures", not failures, str(failures)),
        Assertion(
            "region_closure", worst_closure <= 1e-10,
            f"max closure {worst_closure:.3e}",
        ),
    ]
    return _emit("probe-suite", out_dir, cfg, files, assertions)


def _run_one_suite_probe(name: str, cfg: dict) -> list[ProbeReport]:
    from . import bilinear, bourgain

    if name == "linear":
        probe_cfg = bourgain.ProbeConfig(
            n=cfg["n"], num_times=cfg["num_times"],
            samples=max(10, cfg["samples"] // 3), seed=cfg["seed"], s=cfg["s"],
            period_scale=cfg["lambda"] or 1.0,
        )
        return bourgain.linear_probes(probe_cfg)
    if name == "exp_multiplication":
        return [_suite_exp_multiplication(cfg)]
    if name == "bracket_convolution":
        mus = [0.0, 1.0, 10.0, 100.0, 1000.0, cfg["bracket_mu_max"]]
        return [bilinear.bracket_convolution_check(1.0, 1.0, mus)]
    probe_cfg = bourgain.ProbeConfig(
        n=cfg["n"], num_times=cfg["num_times"], samples=cfg["samples"],
        seed=cfg["seed"], s=cfg["s"],
        period_scale=bilinear.default_period_scale(name, cfg["lambda"]),
    )
    return [bilinear.estimate_probe(name, probe_cfg)]
