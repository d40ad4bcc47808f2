"""Command-line runner: configuration, orchestration, report emission.

Configuration is an INI file with a flat ``[run]`` section and an optional
``[sweep]`` section whose keys hold comma-separated value lists (the single
nesting level).  Besides ``command`` and ``out``, a command accepts exactly
the keys its runner reads (``_COMMANDS``); only ``verify-*`` reads a seed.
Every completed run writes three things into the output directory: a data
file (a CSV time series for simulations, JSON-lines records for
verifications), a ``summary.json`` with the headline numbers, and a
``manifest.json`` listing every other output exactly once.

Given the same configuration, the data and summary files are byte-identical
between runs.  The manifest carries the wall-clock time and is the one file
allowed to differ.

Exit codes: 0 success, 1 verification sweep failed, 2 configuration error
(an unread key or flag, a value the library rejects, float arithmetic on a
value that leaves the float range, a run that does not fit in memory), 3
numerical abort (a blow-up, or a non-finite number in the result).  On exit 2
or 3 nothing is written.
"""

import argparse
import configparser
import dataclasses
import itertools
import json
import math
import sys
import time
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import (
    InstabilityError,
    Trajectory,
    _field_norms,
    _fill,
    _free_samples,
    _half_root,
    _hs_weights,
    _march,
    _state_distance,
    conserved_energy,
    decompose,
    evolve,  # noqa: F401  (a span target of the benchmark's traced run)
    picard_iterate,
    scattering_state,  # noqa: F401  (a span target of the benchmark's traced run)
)
from .grid import (
    FrequencyLattice,
    GridSpec,
    _require_memory,
    gaussian_bump,
    sobolev_norm,  # noqa: F401  (a span target of the benchmark's traced run)
)
from .harness import (
    bilinear_sweep,
    shell_intersection_volume,
    strauss_exponent,
    strichartz_admissible,
    sweep_uniformity,
    verify_modulation_bound,
    verify_nonresonance_bound,
    verify_trilinear,
)
from .system import scalar_system
from .variation import unrotated_from_rest, v2_pm_norm, xs_proxy_norm

from . import __version__


class ConfigError(Exception):
    """Raised for unreadable, malformed, or inconsistent configuration."""


@dataclass(frozen=True)
class RunConfig:
    """A command, where it writes, and its typed [run] and [sweep] values."""

    command: str
    out_dir: str
    options: dict  # every [run] key the command reads, defaults filled in
    sweeps: dict  # every [sweep] key the command reads, defaults filled in


# the default of a key without one: load_config refuses to run without a value
_REQUIRED = object()


def _cast(label, cast, raw):
    """cast(raw), with a failed cast or a non-finite float as a ConfigError."""
    try:
        value = cast(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc
    values = value if isinstance(value, tuple) else (value,)
    if any(isinstance(v, float) and not math.isfinite(v) for v in values):
        raise ConfigError(f"{label} must be finite, got {value}")
    return value


@dataclass(frozen=True)
class RunResult:
    """What a command produced, before serialization."""

    kind: str  # "series" or "records"
    rows: tuple
    summary: dict
    passed: bool
    trajectory: Trajectory | None = None  # stored as trajectory.npz when set


def _parse_floats(text):
    return tuple(float(t) for t in text.split(","))


def _parse_bool(text):
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _one_of(*choices):
    """A cast that accepts only the given strings."""

    def cast(text):
        if text not in choices:
            raise ValueError(f"{text!r} is not one of {', '.join(choices)}")
        return text

    return cast


def load_config(command, config_path=None, seed=None, out_dir=None):
    """Build a RunConfig from an optional INI file plus flag overrides.

    Besides ``command`` and ``out``, a command accepts only the [run] and
    [sweep] keys it declares in _COMMANDS (``--seed`` sets its seed key); any
    other key is a ConfigError.  Every value is cast here, and keys left out
    take their defaults; the library checks the ranges at run time.
    """
    if command not in _COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    _, option_table, sweep_table = _COMMANDS[command]
    options = {key: default for key, (_, default) in option_table.items()}
    sweeps = {key: default for key, (_, default) in sweep_table.items()}
    if config_path is not None:
        path = Path(config_path)
        # values are literal: a % in a path is a character, not interpolation
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as handle:
                parser.read_file(handle)
        except (OSError, UnicodeDecodeError, configparser.Error) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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
                    out_dir = raw if out_dir is None else out_dir
                elif key in option_table:
                    options[key] = _cast(f"key {key!r}", option_table[key][0], raw)
                else:
                    raise ConfigError(f"{command} reads no [run] key {key!r}")
        if parser.has_section("sweep"):
            for key, raw in parser.items("sweep"):
                if key not in sweep_table:
                    raise ConfigError(f"{command} reads no [sweep] key {key!r}")
                tokens = [t.strip() for t in raw.split(",") if t.strip()]
                if not tokens:
                    raise ConfigError(f"sweep key {key!r} has no values")
                cast = sweep_table[key][0]
                label = f"sweep key {key!r}"
                sweeps[key] = tuple(_cast(label, cast, t) for t in tokens)

    if seed is not None:
        if "seed" not in options:
            raise ConfigError(f"{command} reads no seed, so --seed is not accepted")
        options["seed"] = seed
    missing = [key for key, value in options.items() if value is _REQUIRED]
    if missing:
        raise ConfigError(f"{command} requires a value for {', '.join(missing)}")
    out_dir = str(out_dir) if out_dir else str(Path("runs") / command)
    return RunConfig(command, out_dir, options, sweeps)


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(value):
    """value in JSON types; a non-finite float in it raises InstabilityError."""
    if dataclasses.is_dataclass(value):
        value = vars(value)
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        raise InstabilityError("the result holds a non-finite number")
    return value


_SERIES_HEADER = "time,component,hs_norm,energy,scattering_increment\n"


def _write_series(path: Path, rows):
    lines = [_SERIES_HEADER]
    for t, comp, hs, energy, inc in rows:
        lines.append(
            "%.17e,%d,%.17e,%.17e,%.17e\n" % (t, comp, hs, energy, inc)
        )
    path.write_text("".join(lines))


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, indent=2) + "\n")


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
    """Rebuild a trajectory stored by save_trajectory; a bad file is a ConfigError.

    Halves larger than physical memory raise MemoryError before any is read.
    """
    try:
        with np.load(path) as data:
            missing = [key for key in _TRAJECTORY_KEYS if key not in data.files]
            if missing:
                raise ConfigError(f"trajectory file {path} lacks {', '.join(missing)}")
            with data.zip.open("halves.npy") as member:
                version = np.lib.format.read_magic(member)
                read_header = (
                    np.lib.format.read_array_header_1_0
                    if version == (1, 0)
                    else np.lib.format.read_array_header_2_0
                )
                shape, _, dtype = read_header(member)
            _require_memory(math.prod(shape) * dtype.itemsize, f"the halves of {path}")
            stored = {key: data[key] for key in _TRAJECTORY_KEYS}
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
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
        # before the lattice, which takes 19 bytes or more per grid entry
        if halves.shape[3:] != spec.shape:
            raise ConfigError(
                f"trajectory file {path}: halves of shape {halves.shape} "
                f"do not hold samples on the {spec.shape} grid"
            )
        masses = tuple(stored["masses"])
        return Trajectory(stored["times"], masses, FrequencyLattice(spec), halves)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"trajectory file {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# commands


# bytes per grid point _initial_data holds at its peak (tracemalloc: 140-165)
_SETUP_BYTES_PER_POINT = 168


def _initial_data(opts):
    """The lattice, system and half-wave state of a resting Gaussian bump.

    A grid whose set-up alone exceeds physical memory raises MemoryError first.
    """
    spec = GridSpec(opts["dim"], opts["box_length"], opts["points_per_axis"])
    points = spec.points_per_axis**spec.dim
    _require_memory(_SETUP_BYTES_PER_POINT * points, f"{points} grid points")
    lattice = FrequencyLattice(spec)
    bump = gaussian_bump(lattice, opts["amplitude"], opts["width"]).coeffs[None]
    state = decompose(lattice, bump, np.zeros_like(bump), (opts["mass"],))
    return lattice, scalar_system(opts["mass"], opts["coupling"]), state


# bytes simulate holds per sample besides the sample: its norms, energy,
# increment, row and line of the series file (tracemalloc: 473 at 1e3-4e3)
_SAMPLE_BYTES = 512


def _run_simulate(config: RunConfig) -> RunResult:
    opts = config.options
    lattice, system, state = _initial_data(opts)
    s, keep = opts["sobolev"], opts["save_trajectory"]
    times, samples = _march(
        lattice, state, system, opts["horizon"], opts["dt"], opts["stride"], s,
        _SAMPLE_BYTES + keep * state.size * 16,
    )
    halves = np.empty((times.size,) + state.shape, dtype=complex) if keep else None
    # _march yields kept halves, whose columns but 0 count twice
    weights = np.square(_half_root(lattice, system.masses, s))
    # at coupling 0 each whole sample is measured against the free flow's
    free = opts["coupling"] == 0 and _free_samples(lattice, state, system.masses, times)
    if free:
        root, diff = np.sqrt(_hs_weights(lattice, system.masses, s)), np.empty_like(state)
    # sample 0 as the free flow has it: the state need not be Hermitian bit for bit
    whole = (keep or free) and next(_free_samples(lattice, state, system.masses, times[:1]))
    del state
    rows, totals, energies, increments, gap = [], [], [], [], 0.0
    for j, (sample, increment) in enumerate(samples):
        norms = _field_norms(weights, sample)
        energies.append(conserved_energy(lattice, sample, system))
        increments.append(increment)
        totals.append(float(norms.sum()))
        for i, norm in enumerate(norms):
            rows.append((float(times[j]), i, float(norm), energies[-1], increment))
        if j and (keep or free):
            _fill(lattice, whole, np.s_[..., : sample.shape[-1]], sample)
        if keep:
            halves[j] = whole
        if free:
            gap = max(gap, _state_distance(root, whole, next(free), diff))
    summary = {
        "samples": int(times.size),
        "initial_norm": totals[0],
        "final_norm": totals[-1],
        "max_norm": max(totals),
        "energy_drift": float(abs(energies[-1] - energies[0])),
        "scattering_total": float(np.sum(increments)),
    }
    if free:
        summary["linear_match_error"] = gap
    stored = Trajectory(times, system.masses, lattice, halves) if keep else None
    return RunResult("series", tuple(rows), summary, True, stored)


# bytes per Picard sweep of its distance, its record and its JSON line
# (tracemalloc: 355 at 5e3 and 2e4 sweeps)
_PICARD_SWEEP_BYTES = 400


def _run_picard(config: RunConfig) -> RunResult:
    opts = config.options
    sweeps = opts["iterations"]
    _require_memory(_PICARD_SWEEP_BYTES * sweeps, f"{sweeps} Picard sweeps")
    lattice, system, state = _initial_data(opts)
    report = picard_iterate(
        lattice, state, system, opts["horizon"], opts["dt"], sweeps,
        s=opts["sobolev"],
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
    opts = config.options
    records = []
    for dim in config.sweeps["dimension"] or (opts["dim"],):
        records.append(
            verify_modulation_bound(
                opts["mass"],
                dim,
                max_radius=opts["max_radius"],
                directions=opts["directions"],
                floor=opts["floor"],
                seed=opts["seed"],
            )
        )
    summary = {
        "minima": [r.details["minimum"] for r in records],
        "all_passed": all(r.passed for r in records),
    }
    return RunResult("records", tuple(records), summary, summary["all_passed"])


def _run_verify_nonresonance(config: RunConfig) -> RunResult:
    opts = config.options
    record = verify_nonresonance_bound(
        opts["masses"],
        opts["dim"],
        max_radius=opts["max_radius"],
        directions=opts["directions"],
        floor=opts["floor"],
        seed=opts["seed"],
    )
    summary = {
        "condition_holds": record.details["condition_holds"],
        "minimum": record.details["minimum"],
        "passed": record.passed,
    }
    return RunResult("records", (record,), summary, record.passed)


def _run_verify_shell(config: RunConfig) -> RunResult:
    dim, samples, seed = (config.options[k] for k in ("dim", "samples", "seed"))
    records = []
    for radius, width, tube, factor in itertools.product(
        *(config.sweeps[key] for key in ("radius", "width", "tube", "offset_factor"))
    ):
        records.append(
            shell_intersection_volume(
                dim, radius, width, tube, factor * radius, samples=samples, seed=seed
            )
        )
    ratios = [r.ratios[0] for r in records]
    live = [r for r in ratios if r > 0]
    uniform = sweep_uniformity(ratios)
    precise = all(r.passed for r in records)
    passed = uniform and precise
    summary = {
        "cases": len(records),
        "nonzero_cases": len(live),
        "ratio_spread": (max(live) / min(live)) if len(live) > 1 else 1.0,
        "uniform": uniform,
        "precise": precise,
    }
    return RunResult("records", tuple(records), summary, passed)


def _run_verify_bilinear(config: RunConfig) -> RunResult:
    opts = config.options
    mode = opts["mode"]
    modes = ("separated", "matched") if mode == "both" else (mode,)
    records = []
    for m in modes:
        records.append(
            bilinear_sweep(
                dim=opts["dim"],
                mode=m,
                trials=opts["trials"],
                seed=opts["seed"],
                high_scale=opts["high_scale"],
                scales=config.sweeps["scales"],
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
    opts = config.options
    high, mate = opts["high_scale"], opts["mate_scale"]
    mate = high if mate is None else mate
    records = []
    for low in config.sweeps["low_scale"]:
        records.append(
            verify_trilinear(
                high,
                mate,
                low,
                dim=opts["dim"],
                trials=opts["trials"],
                seed=opts["seed"],
                horizon=opts["interaction_horizon"],
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
    dim, family = config.options["dim"], config.options["family"]
    records = []
    for q in config.sweeps["q"]:
        for r in config.sweeps["r"]:
            ok, loss = strichartz_admissible(dim, q, r, family)
            records.append(
                {
                    "dimension": dim,
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


# bytes per dimension of the strauss table, its record and its JSON line
# (tracemalloc: 574 at 2e4 and 8e4 dimensions)
_STRAUSS_DIMENSION_BYTES = 600


def _run_strauss(config: RunConfig) -> RunResult:
    n_max = config.options["max_dimension"]
    if n_max < 1:
        raise ConfigError("max_dimension must be at least 1")
    _require_memory(_STRAUSS_DIMENSION_BYTES * n_max, f"{n_max} dimensions")
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
            path = unrotated_from_rest(traj, i, sign)
            v2 = v2_pm_norm(traj.lattice, path)
            xs = xs_proxy_norm(traj.lattice, path, config.options["sobolev"])
            # released before the next half is built: two paths would be resident
            del path
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


# the keys of a solver run: grid, resting Gaussian bump, system, schedule, H^s
_SOLVER = {
    "dim": (int, 1), "box_length": (float, 16.0), "points_per_axis": (int, 32),
    "mass": (float, 1.0), "coupling": (float, 1.0), "amplitude": (float, 0.01),
    "width": (float, 1.0), "horizon": (float, 10.0), "dt": (float, 0.05),
    "sobolev": (float, 0.5),
}

# command -> (runner, {[run] key: (cast, default)}, {[sweep] key: (cast of one
# value, default tuple)}).  A None default depends on another value and is
# resolved by the runner: mate_scale is high_scale, dimension is dim, scales
# are the mode's.
_COMMANDS = {
    "simulate": (
        _run_simulate,
        {**_SOLVER, "stride": (int, 1), "save_trajectory": (_parse_bool, False)},
        {},
    ),
    "picard": (_run_picard, {**_SOLVER, "iterations": (int, 6)}, {}),
    "verify-modulation": (
        _run_verify_modulation,
        {"mass": (float, 1.0), "dim": (int, 1), "max_radius": (float, 1024.0),
         "directions": (int, 32), "floor": (float, 0.1), "seed": (int, _REQUIRED)},
        {"dimension": (int, None)},
    ),
    "verify-nonresonance": (
        _run_verify_nonresonance,
        {"masses": (_parse_floats, (1.0, 1.0, 1.0)), "dim": (int, 1),
         "max_radius": (float, 64.0), "directions": (int, 32), "floor": (float, 0.01),
         "seed": (int, _REQUIRED)},
        {},
    ),
    "verify-shell": (
        _run_verify_shell,
        {"dim": (int, 3), "samples": (int, 200_000), "seed": (int, _REQUIRED)},
        {"radius": (float, (32.0,)), "width": (float, (0.05,)),
         "tube": (float, (8.0,)), "offset_factor": (float, (2.0,))},
    ),
    "verify-bilinear": (
        _run_verify_bilinear,
        {"dim": (int, 3), "mode": (_one_of("separated", "matched", "both"), "both"),
         "trials": (int, 2), "high_scale": (int, 256), "seed": (int, _REQUIRED)},
        {"scales": (int, None)},
    ),
    "verify-trilinear": (
        _run_verify_trilinear,
        {"dim": (int, 3), "high_scale": (int, 64), "mate_scale": (int, None),
         "trials": (int, 8), "interaction_horizon": (float, 8.0),
         "seed": (int, _REQUIRED)},
        {"low_scale": (int, (4,))},
    ),
    "strichartz": (
        _run_strichartz,
        {"dim": (int, 1), "family": (_one_of("kg", "wave"), "kg")},
        {"q": (float, (2.0, 8.0 / 3.0, 4.0)), "r": (float, (2.0, 4.0))},
    ),
    "strauss": (_run_strauss, {"max_dimension": (int, 6)}, {}),
    "variation": (
        _run_variation, {"trajectory": (str, _REQUIRED), "sobolev": (float, 0.5)}, {}
    ),
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
        (out / data_name).write_text("".join(json.dumps(r) + "\n" for r in result.rows))
    outputs.append(data_name)
    if result.trajectory is not None:
        save_trajectory(result.trajectory, out / "trajectory.npz")
        outputs.append("trajectory.npz")
    _write_json(out / "summary.json", result.summary)
    outputs.append("summary.json")
    manifest = {
        "command": config.command,
        "config": dataclasses.asdict(config),
        "version": __version__,
        "wall_clock_seconds": wall_clock,
        "outputs": outputs,
        "summary": result.summary,
    }
    _write_json(out / "manifest.json", manifest)
    return outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfwave",
        description="Simulation and inequality-verification runner.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="INI configuration file")
    parser.add_argument(
        "--seed", type=int, help="seed of a verify-* command, over the configured one"
    )
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
        result = _COMMANDS[config.command][0](config)
        rows, summary = _jsonable(result.rows), _jsonable(result.summary)
        result = dataclasses.replace(result, rows=rows, summary=summary)
    except (ConfigError, ValueError) as exc:
        # Library constructors signal bad parameters with ValueError; at this
        # boundary that is a configuration problem, not a numerical one.
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (OverflowError, ZeroDivisionError) as exc:
        # Python float arithmetic raises these where a config value, such as
        # width = 1e300, takes a result out of the float range
        print(f"configuration error: out of the float range: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # an impossible size, such as dt = 1e-9, is a configuration problem too
        reason = str(exc) or "allocation failed"
        print(f"configuration error: {reason}: out of memory", file=sys.stderr)
        return 2
    except InstabilityError as exc:
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
