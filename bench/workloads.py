"""The four benchmark workloads: inputs drawn from a seed, and output checks.

Each workload is a fixed list of ``halfwave`` invocations. The seed only
reaches the program through the generated INI files (amplitude and width of
the initial bump, drawn from small-data ranges) and through ``--seed`` on
the ``verify-*`` commands. Why each workload exists, and which layer metric
should move which end-to-end metric on it, is in ``WORKLOADS.md``.

Standard library only: ``run.py`` checks outputs without importing numpy.
"""

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


@dataclass(frozen=True)
class Invocation:
    """One ``halfwave <command>`` call with its generated configuration."""

    name: str
    command: str
    run: dict
    sweep: dict = field(default_factory=dict)
    seed: int = None  # passed as --seed when set

    def ini_text(self):
        lines = ["[run]", f"command = {self.command}"]
        lines += [f"{k} = {v}" for k, v in self.run.items()]
        if self.sweep:
            lines.append("[sweep]")
            lines += [f"{k} = {v}" for k, v in self.sweep.items()]
        return "\n".join(lines) + "\n"

    def argv(self, config_path, out_dir):
        args = [self.command, "--config", str(config_path), "--out", str(out_dir)]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        return args

    def data_file(self):
        return f"{self.command}.csv" if self.command == "simulate" else f"{self.command}.jsonl"


def _draw(seed, amplitude, width):
    """Amplitude and width uniform in the given (low, high) small-data ranges."""
    rng = random.Random(seed)
    return {"amplitude": repr(rng.uniform(*amplitude)), "width": repr(rng.uniform(*width))}


def lawson_3d(seed, out_dir):
    # the criterion-5 problem, cut to 30 Lawson steps
    run = {
        "dim": 3, "box_length": 128, "points_per_axis": 64, "coupling": 100,
        "horizon": 6, "dt": 0.2, "stride": 10,
        **_draw(seed, (0.8e-3, 1.2e-3), (2.25, 2.75)),
    }
    return [Invocation("simulate", "simulate", run)]


def picard_3d(seed, out_dir):
    run = {
        "dim": 3, "box_length": 32, "points_per_axis": 32, "coupling": 1,
        "horizon": 5, "dt": 0.05, "iterations": 6,
        **_draw(seed, (0.8e-3, 1.2e-3), (0.8, 1.2)),
    }
    return [Invocation("picard", "picard", run)]


def verify_campaign(seed, out_dir):
    return [
        Invocation(
            "verify-bilinear", "verify-bilinear",
            {"dim": 3, "mode": "both", "high_scale": 256, "trials": 2},
            {"scales": "8, 16, 32, 64"}, seed,
        ),
        # the 24-case criterion-9 sweep
        Invocation(
            "verify-shell", "verify-shell", {"dim": 3, "samples": 200000},
            {"radius": "32, 64", "width": "0.05, 0.1", "tube": "4, 8, 16",
             "offset_factor": "1.5, 2.0"},
            seed,
        ),
        Invocation(
            "verify-trilinear", "verify-trilinear", {"dim": 3, "high_scale": 64},
            {"low_scale": "2, 4, 8"}, seed,
        ),
        Invocation("verify-modulation", "verify-modulation", {"dim": 3},
                   {"dimension": "2, 3"}, seed),
        # 2 * 1.0 < 2.5: the mass condition fails, so the command hunts for
        # the defect's zeros instead of checking a floor
        Invocation("verify-nonresonance", "verify-nonresonance",
                   {"dim": 2, "masses": "1.0, 1.0, 2.5", "max_radius": 32}, seed=seed),
        Invocation("strichartz", "strichartz", {"dim": 3}),
        Invocation("strauss", "strauss", {"max_dimension": 6}),
    ]


def trajectory_variation(seed, out_dir):
    # K = 61 stored samples: see WORKLOADS.md for the O(K^2) load behaviour
    run = {
        "dim": 2, "box_length": 32, "points_per_axis": 64, "coupling": 1,
        "horizon": 3, "dt": 0.05, "stride": 1, "save_trajectory": "true",
        **_draw(seed, (0.008, 0.012), (1.0, 1.5)),
    }
    store = Path(out_dir) / "simulate" / "trajectory.npz"
    return [
        Invocation("simulate", "simulate", run),
        Invocation("variation", "variation", {"trajectory": store, "sobolev": 0.5}),
    ]


WORKLOADS = {
    "lawson-3d": lawson_3d,
    "picard-3d": picard_3d,
    "verify-campaign": verify_campaign,
    "trajectory-variation": trajectory_variation,
}


# ---------------------------------------------------------------------------
# correctness

# Relative tolerance per (command, summary field) when comparing against the
# values recorded at the benchmark's first commit. This commit reproduces
# them bit for bit; a later change that only reorders floating-point work
# moves them by ~1e-13. DEFAULT_RTOL is 1e-6, the acceptance gate's tightest
# relative tolerance (criterion 3, energy drift), so a rounding change passes
# and a change of the numerics does not. Booleans, counts and strings compare
# exactly. None means the field is checked by an invariant, not by value.
DEFAULT_RTOL = 1e-6
RTOL = {
    # differences of two energies ~1e-5 that agree to ~1e-11: the value is
    # rounding noise, so only the relative-drift invariant below applies
    ("simulate", "energy_drift"): None,
    # after the third Picard sweep the distances are ~1e-19 against fields of
    # ~1e-2, i.e. rounding noise, and the factor is a ratio of such noises;
    # the first sweep's distance (first_distance) carries the comparison
    ("picard", "final_distance"): None,
    ("picard", "contraction_factor"): None,
    # complex64 FFTs: reordering or padding them moves ratios by ~1e-6,
    # while criterion 10 only asks for uniformity within a factor of 4
    ("verify-bilinear", "ratios"): 1e-4,
    # Monte Carlo: a change of sampling order redraws every case, which
    # moves each ratio by its standard error; criterion 9 accepts a
    # relative error up to 0.05 per case, so the spread of two ratios may
    # move by twice that
    ("verify-shell", "ratio_spread"): 0.1,
}

# Relative energy drift a Lawson-RK4 run of these workloads may show. The
# measured drift is <= 1e-6 (lawson-3d, dt 0.2) and ~1e-9 (trajectory-
# variation); a broken integrator drifts by O(1).
MAX_ENERGY_DRIFT = 1e-4


def _close(got, want, rtol):
    if isinstance(want, float):
        return isinstance(got, (int, float)) and abs(got - want) <= rtol * max(
            abs(want), abs(got)
        )
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w, rtol) for g, w in zip(got, want))
        )
    return got == want


def compare_summary(command, summary, reference):
    """Problems found comparing a summary with its recorded reference values."""
    problems = []
    for key, want in reference.items():
        rtol = RTOL.get((command, key), DEFAULT_RTOL)
        if rtol is None:
            continue
        if key not in summary:
            problems.append(f"summary lacks {key}")
        elif not _close(summary[key], want, rtol):
            problems.append(f"{key} = {summary[key]!r}, reference {want!r} (rtol {rtol:g})")
    return problems


def _finite(x):
    return isinstance(x, (int, float)) and math.isfinite(x)


def _read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def comparable_summary(inv, out):
    """summary.json plus the values derived from the data file for comparison."""
    summary = json.loads((out / "summary.json").read_text())
    if inv.command == "picard":
        summary["first_distance"] = _read_jsonl(out / "picard.jsonl")[0]["distance"]
    return summary


def invariant_problems(inv, out, summary):
    """Workload invariants that hold on any seed."""
    problems = []
    if inv.command == "simulate":
        ratio = summary["max_norm"] / summary["initial_norm"]
        if not ratio <= 2.0:
            problems.append(f"sup-norm ratio {ratio:.4g} > 2")
        first_row = (out / "simulate.csv").read_text().splitlines()[1].split(",")
        drift = summary["energy_drift"] / abs(float(first_row[3]))
        if not drift <= MAX_ENERGY_DRIFT:
            problems.append(f"relative energy drift {drift:.3g} > {MAX_ENERGY_DRIFT:g}")
    elif inv.command == "picard":
        if summary["diverged"]:
            problems.append("picard diverged")
        if not summary["contraction_factor"] < 1.0:
            problems.append(f"contraction factor {summary['contraction_factor']} >= 1")
    elif inv.command == "variation":
        rows = _read_jsonl(out / "variation.jsonl")
        values = [summary["combined_v2"]]
        values += [r[k] for r in rows for k in ("v2_norm", "xs_proxy_norm")]
        if not rows or not all(_finite(v) for v in values):
            problems.append("variation norms missing or not finite")
    return problems


def check_outputs(inv, out, exit_code, reference=None):
    """Every problem with one invocation's outputs; an empty list means correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        return _output_problems(inv, out, reference)
    except (ArithmeticError, KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed outputs: {type(exc).__name__}: {exc}"]


def _output_problems(inv, out, reference):
    manifest_path = out / "manifest.json"
    if not manifest_path.is_file():
        return ["manifest.json missing"]
    listed = json.loads(manifest_path.read_text())["outputs"]
    expected = {inv.data_file(), "summary.json"}
    if inv.run.get("save_trajectory") == "true":
        expected.add("trajectory.npz")
    problems = [f"{name} not listed in the manifest" for name in sorted(expected - set(listed))]
    problems += [f"{name} missing" for name in listed if not (out / name).is_file()]
    if problems:
        return problems
    summary = comparable_summary(inv, out)
    problems += invariant_problems(inv, out, summary)
    if reference is not None:
        problems += compare_summary(inv.command, summary, reference)
    return problems


def load_reference():
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())
