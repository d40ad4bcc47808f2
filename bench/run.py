"""halfwave benchmark: four CLI workloads end to end, and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Every ``halfwave`` invocation is a
fresh child process (``bench/child.py``) with ``src/`` on ``PYTHONPATH`` and
the BLAS/OpenMP thread variables pinned before numpy loads. One iteration of
a workload runs its invocations in order; iterations repeat until the next
one would end more than half an iteration after S seconds (at least one
runs). Every output is checked (``workloads.check_outputs``) and data and
summary files must be byte-identical across the iterations of a run.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``:
  wall_s       median over iterations of the summed dispatch-to-outputs time;
  setup_s      median over set-up samples of the summed time from child spawn
               to command dispatch (each iteration is one sample, and
               SETUP_ROUNDS extra rounds stop every invocation at dispatch);
  peak_rss_mb  median over iterations of the largest child peak RSS (MiB).
``--trace 1`` alternates untraced and traced iterations and reports the
per-layer metrics, derived from the spans the traced children record
(``spans.py``), plus FFT and nonlinearity timings in isolation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit and sample count, ``failed_frac``, and the
environment. Run records, logs and spans go to ``.bench_out/``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = ROOT / ".bench_out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One thread: at most nproc, as asked, and the steadiest figure on a shared
# machine. The hot paths are numpy's pocketfft, which is single-threaded.
THREADS = "1"
SETUP_ROUNDS = 3
# every child is killed at this many seconds after start, so that a run
# always ends within the 180 s a run may take
HARD_LIMIT_S = 165.0


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({name: THREADS for name in THREAD_VARS})
    # cache bytecode, as an installed package has it: the environment probe
    # compiles the package once, and no timed child pays for compiling
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(mode, run_id, args, log_dir, deadline):
    """Run child.py once; return (exit code, peak RSS MiB, record, spawn stamp).

    A child still running at the deadline is killed, which shows as exit code
    -9 and no record.
    """
    record_path = log_dir / f"{run_id}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), str(record_path), mode, run_id, str(SRC)]
    cmd += [str(a) for a in args]
    with open(log_dir / f"{run_id}.log", "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT
        )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    return proc.returncode, usage.ru_maxrss / 1024.0, record, spawned


def _digest(out, inv):
    h = hashlib.sha256()
    for name in (inv.data_file(), "summary.json"):
        path = out / name
        h.update(path.read_bytes() if path.is_file() else b"")
    return h.hexdigest()


def run_iteration(workload, seed, iter_dir, mode, deadline, reference, digests):
    """Run the workload's invocations once; return their timings and problems."""
    iter_dir.mkdir(parents=True)
    results = []
    for inv in workloads.WORKLOADS[workload](seed, iter_dir):
        out = iter_dir / inv.name
        config = iter_dir / f"{inv.name}.ini"
        config.write_text(inv.ini_text())
        run_id = f"{iter_dir.name}-{inv.name}"
        code, rss, record, spawned = run_child(
            mode, run_id, inv.argv(config, out), iter_dir, deadline
        )
        problems = workloads.check_outputs(inv, out, code, reference.get(inv.name))
        if "done" not in record:
            problems.append("child left no timing record")
        if not problems:
            digest = digests.setdefault(inv.name, _digest(out, inv))
            if digest != _digest(out, inv):
                problems.append("data or summary differs from the run's first iteration")
        results.append({
            "name": inv.name,
            "exit_code": code,
            "setup_s": record["dispatch"] - spawned if "dispatch" in record else 0.0,
            "wall_s": record["done"] - record["dispatch"] if "done" in record else 0.0,
            "peak_rss_mb": rss,
            "problems": problems,
            "trace": record.get("trace"),
        })
    return {
        "dir": iter_dir.name,
        "wall_s": sum(r["wall_s"] for r in results),
        "setup_s": sum(r["setup_s"] for r in results),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in results),
        "invocations": results,
    }


def setup_probe(workload, seed, iter_dir, deadline, index):
    """Spawn every invocation of the workload up to dispatch.

    Returns the summed set-up seconds, or None, and the invocations that did
    not reach dispatch.
    """
    total = 0.0
    failed = []
    for inv in workloads.WORKLOADS[workload](seed, iter_dir):
        config = iter_dir / f"{inv.name}.ini"
        run_id = f"setup{index}-{inv.name}"
        code, _, record, spawned = run_child(
            "setup", run_id, inv.argv(config, iter_dir / inv.name), iter_dir, deadline
        )
        if code != 0 or "dispatch" not in record:
            failed.append(f"{run_id}: set-up probe did not reach dispatch (exit {code})")
        else:
            total += record["dispatch"] - spawned
    return (None if failed else total), failed


# per-layer metric "<span name>.<field>" -> index into spans.layer_totals
SPAN_FIELDS = {"calls": 0, "s": 1, "self_s": 2}


def layer_metrics(traces, micro, names):
    """Per-layer metrics of one traced iteration, from its spans and counters.

    A name in `names` made of a span name and a SPAN_FIELDS suffix is read
    from the span totals; the ratios and isolated timings are derived below.
    """
    totals = spans.layer_totals([s for t in traces for s in spans.spans_from_json(t)])
    counters = Counter()
    for t in traces:
        counters.update(t["counters"])
    span_names = {target[2] for target in spans.TARGETS}
    metrics = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if span in span_names and field in SPAN_FIELDS:
            metrics[name] = totals.get(span, (0, 0.0, 0.0))[SPAN_FIELDS[field]]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    steps = counters.get("dynamics.evolve.steps", 0)
    sweeps = counters.get("dynamics.picard_iterate.sweeps", 0)
    samples = counters.get("harness.shell_intersection_volume.samples", 0)
    metrics.update({
        "dynamics.evolve.steps": steps,
        "dynamics.lawson_step_ms": 1e3 * ratio(incl("dynamics.evolve"), steps),
        "dynamics.picard_iterate.sweeps": sweeps,
        "dynamics.picard_sweep_s": ratio(incl("dynamics.picard_iterate"), sweeps),
        "harness.mc_samples_per_s": ratio(samples, incl("harness.shell_intersection_volume")),
        "cli.trajectory_mb": counters.get("cli.save_trajectory.bytes", 0) / 2**20,
        "grid.fft_pair_ms": 1e3 * micro.get("fft_pair_s", 0.0),
        "grid.fft_gflops": 1e-9 * ratio(
            micro.get("fft_pair_flops_computed", 0.0), micro.get("fft_pair_s", 0.0)
        ),
        "system.nonlinearity_ms": 1e3 * micro.get("nonlinearity_s", 0.0),
    })
    return metrics


def environment(record):
    env = {key: record.get(key, "unknown") for key in ("python", "numpy", "blas")}
    env["nproc"] = len(os.sched_getaffinity(0))
    env.update({name: THREADS for name in THREAD_VARS})
    return env


def measure(workload, seed, seconds, trace):
    """Run the workload for about `seconds`; return the run's record."""
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    run_dir = OUT / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    reference = workloads.load_reference().get(workload, {}).get(str(seed), {})

    code, _, record, _ = run_child("env", "env", [], run_dir, deadline)
    if code != 0:
        raise SystemExit(f"environment probe failed, see {run_dir / 'env.log'}")

    run = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(record), "untraced": [], "traced": [], "setup_samples": [],
        "probes": 0, "failed_probes": 0, "problems": [], "micro": {},
        # reference.json covers a fixed seed range; other seeds get the invariants only
        "reference_compared": bool(reference),
        "inputs": {i.name: i.ini_text() for i in workloads.WORKLOADS[workload](seed, run_dir)},
    }
    modes = [("run", run["untraced"], "iter")]
    if trace:
        modes.append(("trace", run["traced"], "traced"))
    digests = {}
    last_dir = None
    begin = time.monotonic()
    while time.monotonic() < deadline:
        for mode, bucket, stem in modes:
            it = run_iteration(
                workload, seed, run_dir / f"{stem}{len(bucket)}", mode, deadline,
                reference, digests,
            )
            bucket.append(it)
            if last_dir is not None:
                shutil.rmtree(last_dir)
            last_dir = run_dir / it["dir"]
        elapsed = time.monotonic() - begin
        # stop when the next iteration would end more than half an iteration
        # past the time, so that the iterations fill the whole run
        if elapsed + 0.5 * elapsed / len(run["untraced"]) > seconds:
            break
    run["setup_samples"] = [it["setup_s"] for it in run["untraced"]]
    solver = workloads.WORKLOADS[workload](seed, last_dir)[0].run
    if trace and "points_per_axis" in solver:
        # the FFT pair and one nonlinearity evaluation on the solver's grid
        keys = ("dim", "box_length", "points_per_axis", "coupling", "amplitude", "width")
        code, _, run["micro"], _ = run_child(
            "micro", "micro", [solver[k] for k in keys], run_dir, deadline
        )
        if code != 0:
            run["problems"].append(f"isolated timing child exited {code}")
    elif not trace:
        for k in range(SETUP_ROUNDS):
            total, failed = setup_probe(workload, seed, last_dir, deadline, k)
            run["probes"] += len(run["untraced"][0]["invocations"])
            run["failed_probes"] += len(failed)
            run["problems"] += failed
            if total is not None:
                run["setup_samples"].append(total)
    traces = {
        it["dir"]: [t for t in (inv.pop("trace") for inv in it["invocations"]) if t]
        for it in run["untraced"] + run["traced"]
    }
    (run_dir / "run.json").write_text(json.dumps(run, indent=1, default=str))
    if trace:
        (run_dir / "spans.json").write_text(json.dumps(
            {"fields": list(spans.Span._fields), "iterations": traces}
        ))
    return run, traces


def report(run, traces, spec):
    """The result object of a run, with the sample count of every metric."""
    iterations = run["untraced"] + run["traced"]
    invocations = [inv for it in iterations for inv in it["invocations"]]
    problems = [f"{inv['name']}: {p}" for inv in invocations for p in inv["problems"]]
    problems += run["problems"]
    failed = sum(1 for inv in invocations if inv["problems"]) + run["failed_probes"]
    walls = [it["wall_s"] for it in run["untraced"]]
    if run["trace"]:
        names = [m["name"] for m in spec["per_layer"]]
        per_iter = [
            layer_metrics(traces[it["dir"]], run["micro"], names) for it in run["traced"]
        ]
        metrics = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
        metrics["trace.overhead_s"] = statistics.median(
            it["wall_s"] for it in run["traced"]
        ) - statistics.median(walls)
        samples = {k: len(per_iter) for k in metrics}
        declared = spec["per_layer"]
    else:
        setups = run["setup_samples"]
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(it["peak_rss_mb"] for it in run["untraced"]),
        }
        samples = {"wall_s": len(walls), "setup_s": len(setups), "peak_rss_mb": len(walls)}
        declared = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit(f"metrics {sorted(set(units) ^ set(metrics))} disagree with {SPEC.name}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(invocations) + run["probes"],
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    return result, samples, problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "halfwave" / "cli.py").is_file():
        print(f"no halfwave source tree at {SRC}: run from a source checkout", file=sys.stderr)
        return 2
    if not SPEC.is_file():
        print(f"{SPEC} is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    run, traces = measure(args.workload, args.seed, args.seconds, args.trace)
    result, samples, problems = report(run, traces, spec)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(run['untraced'])} untraced and {len(run['traced'])} traced iteration(s)")
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:>16.6g} {m['unit']:8s} n={samples[name]}")
    frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':45s} {frac:>16.6g} {'1':8s} "
          f"n={result['attempted']} ({result['failed']} failed)")
    print("  env: " + ", ".join(f"{k}={v}" for k, v in run["env"].items()))
    if not run["reference_compared"]:
        print(f"  no reference values for seed {args.seed}: outputs checked against "
              "the invariants only, not against reference.json")
    for p in problems:
        print(f"  problem: {p}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
