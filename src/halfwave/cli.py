"""Command-line runner: configuration, orchestration, report emission.

Configuration is an INI file with a flat ``[run]`` section and an optional
``[sweep]`` section whose keys hold comma-separated value lists (the single
nesting level).  Every completed run writes three things into the output
directory: a data file (a CSV time series for simulations, JSON-lines
records for verifications), a ``summary.json`` with the headline numbers,
and a ``manifest.json`` listing every other output exactly once.

Given the same configuration and seed, the data and summary files are
byte-identical between runs.  The manifest carries the wall-clock time and
is the one file allowed to differ.

Exit codes: 0 success, 1 verification sweep failed, 2 configuration error,
3 numerical abort.
"""

import argparse
import configparser
import dataclasses
import json
import math
import sys
import time
import zipfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from .dynamics import (
    CauchyData,
    InstabilityError,
    Trajectory,
    conserved_energy,
    evolve,
    free_trajectory,
    initial_pair,
    picard_iterate,
    scattering_state,
)
from .grid import (
    FrequencyLattice,
    GridSpec,
    SpectralField,
    gaussian_bump,
    sobolev_norm,  # noqa: F401  (a span target of the benchmark's traced run)
)
from .harness import (
    BilinearCase,
    ShellSpec,
    bilinear_sweep,
    shell_intersection_volume,
    strauss_exponent,
    strichartz_admissible,
    sweep_uniformity,
    verify_bilinear,
    verify_modulation_bound,
    verify_nonresonance_bound,
    verify_trilinear,
)
from .system import scalar_system
from .variation import v2_pm_norm, xs_proxy_norm

from . import __version__

_STOCHASTIC = {
    "verify-modulation",
    "verify-nonresonance",
    "verify-shell",
    "verify-bilinear",
    "verify-trilinear",
}


class ConfigError(Exception):
    """Raised for unreadable, malformed, or inconsistent configuration."""


@dataclass(frozen=True)
class RunConfig:
    """Resolved run parameters: geometry, system, schedule, seeds, outputs."""

    command: str
    dim: int = 1
    box_length: float = 16.0
    points_per_axis: int = 32
    mass: float = 1.0
    coupling: float = 1.0
    amplitude: float = 0.01
    width: float = 1.0
    horizon: float = 10.0
    dt: float = 0.05
    stride: int = 1
    sobolev: float = 0.5
    seed: int = None
    out_dir: str = ""
    options: dict = field(default_factory=dict)
    sweeps: dict = field(default_factory=dict)

    def option(self, key, cast, default):
        raw = self.options.get(key)
        if raw is None:
            return default
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"option {key!r}: {exc}") from exc

    def sweep(self, key, cast, default):
        raw = self.sweeps.get(key)
        if raw is None:
            return tuple(default)
        return tuple(cast(v) for v in raw)


@dataclass(frozen=True)
class RunManifest:
    """Completion record: config echo, version, timing, outputs, summary."""

    command: str
    config: dict
    version: str
    wall_clock_seconds: float
    outputs: tuple
    summary: dict


@dataclass(frozen=True)
class RunResult:
    """What a command produced, before serialization."""

    kind: str  # "series" or "records"
    rows: tuple
    summary: dict
    passed: bool
    arrays: dict = field(default_factory=dict)  # extra .npz payloads by stem


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


_FIELD_CASTS = {
    "dim": int,
    "box_length": float,
    "points_per_axis": int,
    "mass": float,
    "coupling": float,
    "amplitude": float,
    "width": float,
    "horizon": float,
    "dt": float,
    "stride": int,
    "sobolev": float,
    "seed": int,
}


def load_config(command, config_path=None, seed=None, out_dir=None):
    """Build a RunConfig from an optional INI file plus flag overrides."""
    values = {}
    options = {}
    sweeps = {}
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        parser = configparser.ConfigParser()
        try:
            parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse {path}: {exc}") from exc
        unknown = set(parser.sections()) - {"run", "sweep"}
        if unknown:
            raise ConfigError(f"unknown sections: {sorted(unknown)}")
        if parser.has_section("run"):
            for key, raw in parser.items("run"):
                if key == "command":
                    if raw != command:
                        raise ConfigError(
                            f"config names command {raw!r} but {command!r} was requested"
                        )
                elif key == "out":
                    values["out_dir"] = raw
                elif key in _FIELD_CASTS:
                    try:
                        values[key] = _FIELD_CASTS[key](raw)
                    except ValueError as exc:
                        raise ConfigError(f"key {key!r}: {exc}") from exc
                else:
                    options[key] = raw
        if parser.has_section("sweep"):
            for key, raw in parser.items("sweep"):
                tokens = [t.strip() for t in raw.split(",") if t.strip()]
                if not tokens:
                    raise ConfigError(f"sweep key {key!r} has no values")
                try:
                    sweeps[key] = tuple(float(t) for t in tokens)
                except ValueError as exc:
                    raise ConfigError(f"sweep key {key!r}: {exc}") from exc

    if seed is not None:
        values["seed"] = int(seed)
    if out_dir is not None:
        values["out_dir"] = str(out_dir)
    if not values.get("out_dir"):
        values["out_dir"] = str(Path("runs") / command)

    config = RunConfig(command=command, options=options, sweeps=sweeps, **values)

    for key, cast in _FIELD_CASTS.items():
        if cast is float and not math.isfinite(getattr(config, key)):
            raise ConfigError(f"key {key!r} must be finite, got {getattr(config, key)}")
    if config.command in _STOCHASTIC and config.seed is None:
        raise ConfigError(f"{config.command} is stochastic: a seed is required")
    if config.horizon <= 0 or config.dt <= 0 or config.stride < 1:
        raise ConfigError("horizon and dt must be positive, stride at least 1")
    try:
        GridSpec(config.dim, config.box_length, config.points_per_axis)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if config.command == "variation":
        store = config.options.get("trajectory")
        if not store:
            raise ConfigError("variation requires a trajectory option")
        if not Path(store).is_file():
            raise ConfigError(f"trajectory file not found: {store}")
    return config


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _record_line(record) -> str:
    if dataclasses.is_dataclass(record):
        record = dataclasses.asdict(record)
    return json.dumps(_jsonable(record))


def _write_records(path: Path, records):
    text = "".join(_record_line(r) + "\n" for r in records)
    path.write_text(text)


_SERIES_HEADER = "time,component,hs_norm,energy,scattering_increment\n"


def _write_series(path: Path, rows):
    lines = [_SERIES_HEADER]
    for t, comp, hs, energy, inc in rows:
        lines.append(
            "%.17e,%d,%.17e,%.17e,%.17e\n" % (t, comp, hs, energy, inc)
        )
    path.write_text("".join(lines))


def _write_json(path: Path, payload):
    path.write_text(json.dumps(_jsonable(payload), indent=2) + "\n")


# ---------------------------------------------------------------------------
# trajectory storage


_TRAJECTORY_KEYS = ("times", "halves", "masses", "dim", "box_length", "points_per_axis")


def save_trajectory(traj: Trajectory, path):
    """Store a sampled trajectory: its (n_times, K, 2, *grid) halves and the grid."""
    spec = traj.lattice.spec
    np.savez(
        path,
        times=traj.times,
        halves=traj.halves,
        masses=np.array(traj.masses, dtype=float),
        dim=np.array(spec.dim),
        box_length=np.array(spec.box_length),
        points_per_axis=np.array(spec.points_per_axis),
    )


def load_trajectory(path) -> Trajectory:
    """Rebuild a trajectory stored by save_trajectory; a bad file is a ConfigError."""
    try:
        with np.load(path) as data:
            missing = [key for key in _TRAJECTORY_KEYS if key not in data.files]
            if missing:
                raise ConfigError(f"trajectory file {path} lacks {', '.join(missing)}")
            stored = {key: data[key] for key in _TRAJECTORY_KEYS}
    except (OSError, EOFError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read trajectory file {path}: {exc}") from exc
    halves = stored["halves"]
    if not np.iscomplexobj(halves) or not np.all(np.isfinite(halves)):
        raise ConfigError(f"trajectory file {path}: halves must be finite and complex")
    try:
        spec = GridSpec(
            int(stored["dim"]),
            float(stored["box_length"]),
            int(stored["points_per_axis"]),
        )
        masses = tuple(stored["masses"])
        return Trajectory(stored["times"], masses, FrequencyLattice(spec), halves)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"trajectory file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


def _initial_data(config: RunConfig) -> CauchyData:
    lattice = FrequencyLattice(
        GridSpec(config.dim, config.box_length, config.points_per_axis)
    )
    bump = gaussian_bump(lattice, config.amplitude, config.width)
    zero = SpectralField(lattice, np.zeros(lattice.spec.shape, dtype=complex))
    return CauchyData((bump,), (zero,))


def _run_simulate(config: RunConfig) -> RunResult:
    data = _initial_data(config)
    system = scalar_system(config.mass, config.coupling)
    traj = evolve(
        data, system, config.horizon, config.dt, config.stride, s=config.sobolev
    )
    norms = traj.norm_series(config.sobolev)
    scattering = scattering_state(traj, config.sobolev)
    energies = [conserved_energy(traj.lattice, state, system) for state in traj.halves]
    rows = []
    for j, t in enumerate(traj.times):
        increment = float(scattering.increments[j - 1]) if j > 0 else 0.0
        for i in range(traj.n_components):
            rows.append((float(t), i, float(norms[j, i]), energies[j], increment))
    summary = {
        "samples": int(traj.times.size),
        "initial_norm": float(norms[0].sum()),
        "final_norm": float(norms[-1].sum()),
        "max_norm": float(norms.sum(axis=1).max()),
        "energy_drift": float(abs(energies[-1] - energies[0])),
        "scattering_total": float(scattering.increments.sum()),
    }
    if config.coupling == 0:
        exact = free_trajectory(
            traj.lattice, initial_pair(data, traj.masses), traj.masses, traj.times
        )
        summary["linear_match_error"] = traj.distance(exact, config.sobolev)
    arrays = {}
    if config.option("save_trajectory", _parse_bool, False):
        arrays["trajectory"] = traj
    return RunResult("series", tuple(rows), summary, True, arrays)


def _run_picard(config: RunConfig) -> RunResult:
    data = _initial_data(config)
    system = scalar_system(config.mass, config.coupling)
    iters = config.option("iterations", int, 6)
    report = picard_iterate(
        data, system, config.horizon, config.dt, iters, s=config.sobolev
    )
    records = []
    previous = None
    for k, distance in enumerate(report.successive_distances, start=1):
        ratio = distance / previous if previous not in (None, 0.0) else 0.0
        records.append(
            {"iteration": k, "distance": float(distance), "ratio": float(ratio)}
        )
        previous = distance
    passed = (not report.diverged) and report.contraction_factor < 1.0
    summary = {
        "iterations": len(report.successive_distances) + 1,
        "contraction_factor": float(report.contraction_factor),
        "diverged": bool(report.diverged),
        "final_distance": float(report.successive_distances[-1]),
    }
    return RunResult("records", tuple(records), summary, passed)


def _run_verify_modulation(config: RunConfig) -> RunResult:
    records = []
    for dim in config.sweep("dimension", int, (config.dim,)):
        records.append(
            verify_modulation_bound(
                config.mass,
                int(dim),
                max_radius=config.option("max_radius", float, 1024.0),
                directions=config.option("directions", int, 32),
                floor=config.option("floor", float, 0.1),
                seed=config.seed,
            )
        )
    summary = {
        "minima": [r.details["minimum"] for r in records],
        "all_passed": all(r.passed for r in records),
    }
    return RunResult("records", tuple(records), summary, summary["all_passed"])


def _run_verify_nonresonance(config: RunConfig) -> RunResult:
    raw = config.options.get("masses", "1.0,1.0,1.0")
    try:
        masses = tuple(float(t) for t in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"masses: {exc}") from exc
    record = verify_nonresonance_bound(
        masses,
        config.dim,
        max_radius=config.option("max_radius", float, 64.0),
        directions=config.option("directions", int, 32),
        floor=config.option("floor", float, 0.01),
        seed=config.seed,
    )
    summary = {
        "condition_holds": record.details["condition_holds"],
        "minimum": record.details["minimum"],
        "passed": record.passed,
    }
    return RunResult("records", (record,), summary, record.passed)


def _run_verify_shell(config: RunConfig) -> RunResult:
    samples = config.option("samples", int, 200_000)
    records = []
    for radius in config.sweep("radius", float, (32.0,)):
        for width in config.sweep("width", float, (0.05,)):
            for tube in config.sweep("tube", float, (8.0,)):
                for factor in config.sweep("offset_factor", float, (2.0,)):
                    offset = [0.0] * config.dim
                    offset[0] = factor * radius
                    spec = ShellSpec(
                        dim=config.dim,
                        radius_a=radius,
                        radius_b=radius,
                        width_a=width,
                        width_b=width,
                        tube_radius=tube,
                        offset=tuple(offset),
                    )
                    records.append(
                        shell_intersection_volume(
                            spec, samples=samples, seed=config.seed
                        )
                    )
    ratios = [r.ratios[0] for r in records]
    live = [r for r in ratios if r > 0]
    uniform = sweep_uniformity(ratios)
    precise = all(
        r.details["empty"] or r.details["relative_error"] < 0.05 for r in records
    )
    passed = uniform and precise and all(r.passed for r in records)
    summary = {
        "cases": len(records),
        "nonzero_cases": len(live),
        "ratio_spread": (max(live) / min(live)) if len(live) > 1 else 1.0,
        "uniform": uniform,
        "precise": precise,
    }
    return RunResult("records", tuple(records), summary, passed)


def _run_verify_bilinear(config: RunConfig) -> RunResult:
    mode = config.option("mode", str, "both")
    if mode not in ("separated", "matched", "both"):
        raise ConfigError(f"unknown bilinear mode {mode!r}")
    modes = ("separated", "matched") if mode == "both" else (mode,)
    trials = config.option("trials", int, 2)
    high = config.option("high_scale", int, 256)
    records = []
    for m in modes:
        scales = config.sweeps.get("scales")
        scales = tuple(int(v) for v in scales) if scales else None
        records.append(
            bilinear_sweep(
                dim=config.dim,
                mode=m,
                trials=trials,
                seed=config.seed,
                high_scale=high,
                scales=scales,
            )
        )
    passed = all(r.passed for r in records)
    summary = {
        "modes": list(modes),
        "ratios": [list(r.ratios) for r in records],
        "all_passed": passed,
    }
    return RunResult("records", tuple(records), summary, passed)


def _run_verify_trilinear(config: RunConfig) -> RunResult:
    high = config.option("high_scale", int, 64)
    mate = config.option("mate_scale", int, high)
    trials = config.option("trials", int, 8)
    records = []
    for low in config.sweep("low_scale", int, (4,)):
        records.append(
            verify_trilinear(
                high,
                mate,
                int(low),
                dim=config.dim,
                trials=trials,
                seed=config.seed,
                horizon=config.option("interaction_horizon", float, 8.0),
            )
        )
    passed = all(r.passed for r in records)
    summary = {
        "cases": len(records),
        "max_ratio": max(max(r.ratios) for r in records),
        "all_passed": passed,
    }
    return RunResult("records", tuple(records), summary, passed)


def _run_strichartz(config: RunConfig) -> RunResult:
    family = config.option("family", str, "kg")
    records = []
    for q in config.sweep("q", float, (2.0, 8.0 / 3.0, 4.0)):
        for r in config.sweep("r", float, (2.0, 4.0)):
            try:
                ok, loss = strichartz_admissible(config.dim, q, r, family)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            records.append(
                {
                    "dimension": config.dim,
                    "family": family,
                    "q": float(q),
                    "r": float(r),
                    "admissible": bool(ok),
                    "loss": str(loss),
                }
            )
    summary = {
        "pairs": len(records),
        "admissible": sum(1 for r in records if r["admissible"]),
    }
    return RunResult("records", tuple(records), summary, True)


def _run_strauss(config: RunConfig) -> RunResult:
    n_max = config.option("max_dimension", int, 6)
    if n_max < 1:
        raise ConfigError("max_dimension must be at least 1")
    records = []
    for n in range(1, n_max + 1):
        gamma = strauss_exponent(n)
        records.append(
            {
                "dimension": n,
                "exponent": float(gamma),
                "lower": 1.0 + 2.0 / n,
                "upper": 1.0 + 4.0 / n,
            }
        )
    summary = {
        "dimensions": n_max,
        "first_exponent": records[0]["exponent"],
        "last_exponent": records[-1]["exponent"],
    }
    return RunResult("records", tuple(records), summary, True)


def _run_variation(config: RunConfig) -> RunResult:
    traj = load_trajectory(config.options["trajectory"])
    records = []
    total = 0.0
    for i in range(traj.n_components):
        for sign in (1, -1):
            v2 = v2_pm_norm(traj, i, sign)
            xs = xs_proxy_norm(traj, i, config.sobolev, sign)
            total += v2 * v2
            records.append(
                {
                    "component": i,
                    "sign": sign,
                    "v2_norm": float(v2),
                    "xs_proxy_norm": float(xs),
                }
            )
    summary = {
        "components": traj.n_components,
        "samples": int(traj.times.size),
        "combined_v2": math.sqrt(total),
    }
    return RunResult("records", tuple(records), summary, True)


_COMMANDS = {
    "simulate": _run_simulate,
    "picard": _run_picard,
    "verify-modulation": _run_verify_modulation,
    "verify-nonresonance": _run_verify_nonresonance,
    "verify-shell": _run_verify_shell,
    "verify-bilinear": _run_verify_bilinear,
    "verify-trilinear": _run_verify_trilinear,
    "strichartz": _run_strichartz,
    "strauss": _run_strauss,
    "variation": _run_variation,
}


# ---------------------------------------------------------------------------
# driver


def _write_outputs(config: RunConfig, result: RunResult, wall_clock: float):
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    if result.kind == "series":
        data_name = f"{config.command}.csv"
        _write_series(out / data_name, result.rows)
    else:
        data_name = f"{config.command}.jsonl"
        _write_records(out / data_name, result.rows)
    outputs.append(data_name)
    for stem, traj in result.arrays.items():
        name = f"{stem}.npz"
        save_trajectory(traj, out / name)
        outputs.append(name)
    _write_json(out / "summary.json", result.summary)
    outputs.append("summary.json")
    manifest = RunManifest(
        command=config.command,
        config=dataclasses.asdict(config),
        version=__version__,
        wall_clock_seconds=wall_clock,
        outputs=tuple(outputs),
        summary=result.summary,
    )
    _write_json(out / "manifest.json", dataclasses.asdict(manifest))
    return outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfwave",
        description="Simulation and inequality-verification runner.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(
            args.command,
            config_path=args.config,
            seed=args.seed,
            out_dir=args.out,
        )
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        result = _COMMANDS[config.command](config)
    except (ConfigError, ValueError) as exc:
        # Library constructors signal bad parameters with ValueError; at this
        # boundary that is a configuration problem, not a numerical one.
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (InstabilityError, FloatingPointError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    wall_clock = time.monotonic() - start
    outputs = _write_outputs(config, result, wall_clock)
    status = "ok" if result.passed else "FAILED"
    print(
        f"{config.command}: {status} "
        f"({len(outputs)} outputs + manifest in {config.out_dir})"
    )
    return 0 if result.passed else 1


if __name__ == "__main__":
    sys.exit(main())
