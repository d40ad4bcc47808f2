"""Run the benchmark workloads on two source trees and compare what they write.

    python3 tools/compare_outputs.py PARENT CHANGE [--seeds 0 1 2]

PARENT and CHANGE are the roots of two checkouts. Each tree's own
``bench/workloads.py`` lists its invocations (it is imported without writing
bytecode into the tree). Every invocation runs as ``python3 -m halfwave.cli``
with ``PYTHONPATH=<tree>/src``, one BLAS thread, in a scratch directory.

Every data, summary and ``.npz`` file must be byte-identical between the two
trees. The manifests must match apart from ``wall_clock_seconds`` and the
output paths. The exit code is 0 when everything matches and 1 otherwise.

Standard library only.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def load_workloads(tree):
    """The WORKLOADS table of tree/bench/workloads.py."""
    path = Path(tree) / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module.WORKLOADS


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


def normalized_manifest(path, root):
    """The manifest without its wall clock, with root spelled <out> in every string."""

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
    return scrub(manifest)


def compare_runs(parent_root, change_root):
    """(problems, number of identical files) between two workload output trees."""
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
            if normalized_manifest(a, parent_root) != normalized_manifest(b, change_root):
                problems.append(f"{name}: manifests differ")
        elif a.read_bytes() != b.read_bytes():
            problems.append(f"{name}: differs")
        else:
            identical += 1
    return problems, identical


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="root of the parent checkout")
    parser.add_argument("change", help="root of the changed checkout")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)
    trees = (args.parent, args.change)
    tables = [load_workloads(tree) for tree in trees]
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
                found, same = compare_runs(*roots)
                problems += [f"{label}: {p}" for p in found]
                identical += same
                print(f"{label}: {len(found)} differences, {same} identical files")
    print(f"{invocations} invocations per tree, {identical} identical files")
    for problem in problems:
        print(problem)
    print("identical" if not problems else f"{len(problems)} differences")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
