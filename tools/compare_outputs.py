"""Run the benchmark workloads on two source trees and compare what they write.

    python3 tools/compare_outputs.py PARENT CHANGE [--seeds 0 1 2] [--rtol]

PARENT and CHANGE are the roots of two checkouts. Each tree's own
``bench/workloads.py`` lists its invocations (it is imported without writing
bytecode into the tree). Every invocation runs as ``python3 -m halfwave.cli``
with ``PYTHONPATH=<tree>/src``, one BLAS thread, in a scratch directory.

By default every data, summary and ``.npz`` file must be byte-identical
between the two trees. With ``--rtol`` they must agree in their numbers
instead, for a change that only moves rounding: every CSV column, JSON key
and ``.npz`` array is compared as one series, its largest difference
relative to its largest magnitude, against the tolerance that both trees'
``RTOL`` table gives ``(command, key)``, else their ``DEFAULT_RTOL``; a key
whose tolerance is ``None`` is shown but not compared. Strings, booleans and
non-finite numbers must be equal. The largest relative difference of each
file is printed. The manifests must match apart from ``wall_clock_seconds``,
the output paths and, with ``--rtol``, the summary they repeat. The exit
code is 0 when everything matches and 1 otherwise.

Standard library only, apart from numpy to read ``.npz`` files with ``--rtol``.
"""

import argparse
import csv
import importlib.util
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# data-file keys that hold, row by row, what a summary field reduces, and take
# that field's tolerance: contraction_factor is the worst of the per-sweep
# ratios, and RTOL leaves it to an invariant as a ratio of rounding noises
SUMMARIZED_AS = {("picard", "ratio"): "contraction_factor"}


def load_workloads(tree):
    """The tree's bench/workloads.py module, which holds WORKLOADS and RTOL."""
    path = Path(tree) / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def run_workload(tree, workload, seed, out_dir):
    """Run a workload's invocations on tree in order; return (name, exit code) pairs.

    workload is the tree's own entry of WORKLOADS.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(tree) / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update({name: "1" for name in THREAD_VARS})
    codes = []
    out_dir.mkdir(parents=True)
    for inv in workload(seed, out_dir):
        config = out_dir / f"{inv.name}.ini"
        config.write_text(inv.ini_text())
        argv = [sys.executable, "-m", "halfwave.cli", *inv.argv(config, out_dir / inv.name)]
        result = subprocess.run(argv, env=env, capture_output=True, text=True)
        codes.append((inv.name, result.returncode))
    return codes


def normalized_manifest(path, root, rtol=False):
    """The manifest without its wall clock, with root spelled <out> in every string.

    With rtol the summary goes too: summary.json is compared number by number.
    """

    def scrub(value):
        if isinstance(value, dict):
            return {k: scrub(v) for k, v in value.items()}
        if isinstance(value, list):
            return [scrub(v) for v in value]
        if isinstance(value, str):
            return value.replace(str(root), "<out>")
        return value

    manifest = json.loads(path.read_text())
    manifest.pop("wall_clock_seconds", None)
    if rtol:
        manifest.pop("summary", None)
    return scrub(manifest)


def _leaves(value, key, series):
    """Append every leaf of a JSON value to series[key], nested keys joined by dots."""
    if isinstance(value, dict):
        for name, item in value.items():
            _leaves(item, f"{key}.{name}" if key else name, series)
    elif isinstance(value, list):
        for item in value:
            _leaves(item, key, series)
    else:
        series.setdefault(key, []).append(value)


def read_series(path):
    """{key: values} of a data or summary file: CSV columns, JSON keys, .npz arrays."""
    if path.suffix == ".npz":
        import numpy as np

        with np.load(path) as stored:
            return {name: stored[name].ravel() for name in stored.files}
    text = path.read_text()
    if path.suffix == ".csv":
        header, *rows = csv.reader(text.splitlines())
        return {name: [float(row[i]) for row in rows] for i, name in enumerate(header)}
    series = {}
    for line in text.splitlines() if path.suffix == ".jsonl" else [text]:
        if line.strip():
            _leaves(json.loads(line), "", series)
    return series


def _is_number(x):
    return isinstance(x, (int, float, complex)) and not isinstance(x, bool)


def relative_difference(a, b):
    """Largest |a - b| of two series over their largest magnitude.

    None when they differ in length, in a string or flag, or in a non-finite value.
    """
    if len(a) != len(b):
        return None
    worst = scale = 0.0
    for x, y in zip(a, b):
        if not (_is_number(x) and _is_number(y)):
            if x != y:
                return None
        elif not (math.isfinite(abs(x)) and math.isfinite(abs(y))):
            if repr(x) != repr(y):
                return None
        else:
            worst, scale = max(worst, abs(x - y)), max(scale, abs(x), abs(y))
    return worst / scale if scale else 0.0


def compare_numbers(a, b, name, command, modules):
    """Problems between two data or summary files called name; prints what moved."""
    series = [read_series(a), read_series(b)]
    if series[0].keys() != series[1].keys():
        return [f"{name}: keys differ"]
    problems, largest = [], (0.0, "")
    for key in series[0]:
        found = relative_difference(series[0][key], series[1][key])
        if found is None:
            problems.append(f"{name}: {key} differs beyond rounding")
            continue
        field = key.split(".")[0]
        field = SUMMARIZED_AS.get((command, field), field)
        rtols = [m.RTOL.get((command, field), m.DEFAULT_RTOL) for m in modules]
        if None in rtols:
            print(f"    {name}: {key} moves by {found:.3g}, left to an invariant")
            continue
        if found > min(rtols):
            problems.append(f"{name}: {key} moves by {found:.3g} > {min(rtols):g}")
        if found > largest[0]:
            largest = (found, f" ({key})")
    print(f"    {name}: largest relative difference {largest[0]:.3g}{largest[1]}")
    return problems


def compare_runs(parent_root, change_root, modules=None, commands=None):
    """(problems, number of identical files) between two workload output trees.

    With modules, the two trees' workloads modules, data and summary files are
    compared by compare_numbers; commands maps each invocation name to its
    command.
    """
    problems, identical = [], 0
    names = sorted(
        {p.relative_to(parent_root) for p in parent_root.rglob("*") if p.is_file()}
        | {p.relative_to(change_root) for p in change_root.rglob("*") if p.is_file()}
    )
    for name in names:
        a, b = parent_root / name, change_root / name
        if name.suffix == ".ini":
            continue
        if not (a.is_file() and b.is_file()):
            problems.append(f"{name}: only in {'parent' if a.is_file() else 'change'}")
        elif name.name == "manifest.json":
            rtol = modules is not None
            if normalized_manifest(a, parent_root, rtol) != normalized_manifest(
                b, change_root, rtol
            ):
                problems.append(f"{name}: manifests differ")
        elif a.read_bytes() == b.read_bytes():
            identical += 1
        elif modules is None:
            problems.append(f"{name}: differs")
        else:
            problems += compare_numbers(a, b, name, commands[name.parts[0]], modules)
    return problems, identical


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    parser.add_argument(
        "--rtol", action="store_true",
        help="compare numbers at the workloads' tolerances, not bytes",
    )
    args = parser.parse_args(argv)
    trees = (args.parent, args.change)
    modules = [load_workloads(tree) for tree in trees]
    tables = [module.WORKLOADS for module in modules]
    workloads = sorted(tables[0])
    if workloads != sorted(tables[1]):
        print("the two trees list different workloads")
        return 1
    problems, identical, invocations = [], 0, 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs_") as scratch:
        for workload in workloads:
            for seed in args.seeds:
                label = f"{workload} seed {seed}"
                roots = [Path(scratch) / side / workload / str(seed) for side in ("a", "b")]
                codes = [
                    run_workload(tree, table[workload], seed, root)
                    for tree, table, root in zip(trees, tables, roots)
                ]
                invocations += len(codes[0])
                if codes[0] != codes[1]:
                    problems.append(f"{label}: exit codes {codes[0]} != {codes[1]}")
                # two runs that fail alike write nothing, which is no evidence
                problems += [
                    f"{label}: {name} exits {code}"
                    for name, code in codes[0] + codes[1]
                    if code != 0
                ]
                invs = tables[1][workload](seed, roots[1])
                commands = {inv.name: inv.command for inv in invs}
                found, same = compare_runs(
                    *roots, modules if args.rtol else None, commands
                )
                problems += [f"{label}: {p}" for p in found]
                identical += same
                print(f"{label}: {len(found)} differences, {same} identical files")
    print(f"{invocations} invocations per tree, {identical} identical files")
    for problem in problems:
        print(problem)
    agree = "agree within tolerance" if args.rtol else "identical"
    print(agree if not problems else f"{len(problems)} differences")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
