"""One benchmark child process: a single ``halfwave`` invocation, as a user runs it.

    python3 bench/child.py RECORD MODE RUN_ID SRC [halfwave arguments ...]

MODE is one of
  ``run``    run the command through ``halfwave.cli.main``;
  ``trace``  the same, with every layer call recorded as a span;
  ``setup``  stop at command dispatch (the set-up probe);
  ``micro``  time one FFT pair and one nonlinearity evaluation in isolation,
             on the grid given by ``dim box points coupling amplitude width``;
  ``env``    report the Python, numpy and BLAS versions.

The child stamps ``time.monotonic()`` (a system-wide clock on Linux, so
``run.py`` can subtract its own spawn stamp) when ``load_config`` returns, which
is the moment the command is dispatched, and again when ``main`` returns,
after every output is written. It writes its record as JSON to RECORD and
exits with the command's exit code. SRC is the source tree ``run.py`` put on
``PYTHONPATH``; the child refuses to run any other copy of the package.
"""

import json
import sys
import time
from pathlib import Path


class _Dispatched(Exception):
    """Raised by the set-up probe to stop at command dispatch."""


def _time_calls(fn):
    """Median seconds of fn() after 3 warm-up calls, over at least 10 calls and 0.5 s."""
    import statistics

    for _ in range(3):
        fn()
    samples = []
    start = time.perf_counter()
    while len(samples) < 10 or time.perf_counter() - start < 0.5:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), len(samples)


def _micro(dim, box, points, coupling, amplitude, width):
    import math

    import numpy as np

    from halfwave.grid import FrequencyLattice, GridSpec, gaussian_bump
    from halfwave.system import evaluate_nonlinearity, scalar_system

    lattice = FrequencyLattice(GridSpec(int(dim), float(box), int(points)))
    field = gaussian_bump(lattice, float(amplitude), float(width))
    values = np.fft.ifftn(field.coeffs, norm="ortho")
    system = scalar_system(1.0, float(coupling))

    def fft_pair():
        np.fft.ifftn(np.fft.fftn(values, norm="ortho"), norm="ortho")

    fft_s, fft_n = _time_calls(fft_pair)
    nonlin_s, nonlin_n = _time_calls(lambda: evaluate_nonlinearity(system, (field,)))
    cells = lattice.spec.points_per_axis ** lattice.spec.dim
    flops = 2 * 5 * cells * math.log2(cells)
    return {
        "shape": list(lattice.spec.shape),
        "fft_pair_s": fft_s,
        "fft_pair_samples": fft_n,
        "fft_pair_flops_computed": flops,
        "nonlinearity_s": nonlin_s,
        "nonlinearity_samples": nonlin_n,
    }


def _env():
    import platform

    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas}


def main():
    record_path, mode, run_id, src = sys.argv[1:5]
    argv = sys.argv[5:]
    record = {"mode": mode, "run": run_id}
    code = 0
    import halfwave.cli as cli

    package = Path(cli.__file__).resolve().parent
    if package.parent != Path(src).resolve():
        raise SystemExit(f"imported {package}, not the package under {src}")
    if mode == "env":
        record.update(_env())
    elif mode == "micro":
        record.update(_micro(*argv))
    else:
        recorder = None
        if mode == "trace":
            from spans import Recorder

            recorder = Recorder(run_id)
            recorder.instrument()
        load_config = cli.load_config

        def dispatching_load_config(*args, **kwargs):
            config = load_config(*args, **kwargs)
            record["dispatch"] = time.monotonic()
            if mode == "setup":
                raise _Dispatched
            return config

        cli.load_config = dispatching_load_config
        try:
            code = cli.main(argv)
        except _Dispatched:
            code = 0
        record["done"] = time.monotonic()
        if recorder is not None:
            record["trace"] = recorder.to_json()
    record["exit_code"] = code
    Path(record_path).write_text(json.dumps(record))
    return code


if __name__ == "__main__":
    sys.exit(main())
