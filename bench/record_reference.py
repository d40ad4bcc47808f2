"""Record the reference summaries the benchmark compares outputs against.

    python3 bench/record_reference.py --seeds 0-19

Runs one iteration of every workload per seed, as the benchmark does, and
writes every invocation's summary (plus the values derived from its data
file, see ``workloads.comparable_summary``) to ``bench/reference.json``,
replacing what is there. An invocation whose outputs fail the workload
invariants is not recorded, and the script exits 1.

Record only from a commit whose outputs are trusted: the stored values are
what later commits are held to.
"""

import argparse
import json
import shutil
import sys
import time

import run
import workloads


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi) + 1)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="LO-HI, e.g. 0-19")
    args = parser.parse_args(argv)
    reference = {}
    bad = 0
    for name in sorted(workloads.WORKLOADS):
        for seed in args.seeds:
            iter_dir = run.OUT / "reference" / f"{name}-seed{seed}"
            shutil.rmtree(iter_dir, ignore_errors=True)
            it = run.run_iteration(
                name, seed, iter_dir, "run", time.monotonic() + 600, {}, {}
            )
            entry = {}
            for inv, res in zip(workloads.WORKLOADS[name](seed, iter_dir), it["invocations"]):
                if res["problems"]:
                    print(f"{name} seed {seed} {inv.name}: {res['problems']}", file=sys.stderr)
                    bad += 1
                    break
                entry[inv.name] = workloads.comparable_summary(inv, iter_dir / inv.name)
            else:
                reference.setdefault(name, {})[str(seed)] = entry
                print(f"{name} seed {seed}: recorded ({it['wall_s']:.1f} s)")
            shutil.rmtree(iter_dir)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
