"""The benchmark's hooks into the package still resolve.

The traced benchmark run (bench/spans.py) wraps public names by module and
counts work from named call arguments, and bench/child.py times one FFT pair
and one nonlinearity evaluation on its own. A renamed or deleted name would
only surface in a traced benchmark run; these tests catch it here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np

from halfwave import cli, dynamics
from halfwave.cli import save_trajectory
from halfwave.dynamics import decompose, evolve, picard_iterate
from halfwave.grid import FrequencyLattice, GridSpec, gaussian_bump
from halfwave.harness import shell_intersection_volume
from halfwave.system import scalar_system

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_bench_module("spans")


def test_every_span_target_resolves():
    for module_name, attr, _, _ in spans.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_counted_parameters_exist():
    counted = {
        ("halfwave.cli", "evolve"): "dt",
        ("halfwave.cli", "shell_intersection_volume"): "samples",
        ("halfwave.cli", "save_trajectory"): "traj",
    }
    for module_name, attr, _, count in spans.TARGETS:
        if count is None or (module_name, attr) not in counted:
            continue
        fn = getattr(importlib.import_module(module_name), attr)
        assert counted[(module_name, attr)] in inspect.signature(fn).parameters


def test_counters_read_real_results(tmp_path):
    # each counter applied, through the benchmark's own wrapper, to one call
    lattice = FrequencyLattice(GridSpec(1, 16.0, 32))
    bump = gaussian_bump(lattice, 0.01).coeffs[None]
    state = decompose(lattice, bump, np.zeros_like(bump), (1.0,))
    system = scalar_system()
    recorder = spans.Recorder("test")
    traj = recorder.wrap("evolve", evolve, spans._evolve_steps)(
        lattice, state, system, 0.2, 0.05
    )
    recorder.wrap("picard", picard_iterate, spans._picard_sweeps)(
        lattice, state, system, 0.2, 0.05, 2
    )
    recorder.wrap("shell", shell_intersection_volume, spans._shell_samples)(
        3, 8.0, 0.5, 6.0, 12.0, samples=1024
    )
    recorder.wrap("save", save_trajectory, spans._saved_bytes)(traj, tmp_path / "t.npz")
    assert recorder.counters == {
        "dynamics.evolve.steps": 4,
        "dynamics.picard_iterate.sweeps": 2,
        "harness.shell_intersection_volume.samples": 1024,
        "cli.save_trajectory.bytes": 2 * 16 * 5 * 1 * 32,
    }


def test_traced_nonlinearity_sees_the_real_path(monkeypatch):
    # the span wrapper replaces the name dynamics calls, so every stage of a
    # step is recorded: 4 calls per step
    lattice = FrequencyLattice(GridSpec(3, 16.0, 16))
    bump = gaussian_bump(lattice, 0.01).coeffs[None]
    state = decompose(lattice, bump, np.zeros_like(bump), (1.0,))
    recorder = spans.Recorder("test")
    name = "system.evaluate_nonlinearity"
    traced = recorder.wrap(name, dynamics.evaluate_nonlinearity)
    monkeypatch.setattr(dynamics, "evaluate_nonlinearity", traced)
    evolve(lattice, state, scalar_system(), 0.3, 0.05)
    assert [s.name for s in recorder.spans] == [name] * 4 * 6


def test_traced_variation_records_its_layers(tmp_path, monkeypatch):
    # the layer view of trajectory-variation reads these spans; a variation
    # path that stopped calling one through its traced name would read 0
    lattice = FrequencyLattice(GridSpec(2, 8.0, 16))
    bump = gaussian_bump(lattice, 0.1).coeffs[None]
    state = decompose(lattice, bump, np.zeros_like(bump), (1.0,))
    traj = evolve(lattice, state, scalar_system(), 0.3, 0.05)
    save_trajectory(traj, tmp_path / "t.npz")
    config = tmp_path / "variation.ini"
    config.write_text(f"[run]\ncommand = variation\ntrajectory = {tmp_path / 't.npz'}\n")
    recorder = spans.Recorder("test")
    for module_name, attr, name, count in spans.TARGETS:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, recorder.wrap(name, getattr(module, attr), count))
    assert cli.main(["variation", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    recorded = {s.name for s in recorder.spans}
    for name in (
        "variation.v2_pm_norm",
        "variation.xs_proxy_norm",
        "variation.increment_table",
        "variation.p_variation",
        "grid.lp_weights",
    ):
        assert name in recorded
    # one span per component and sign for each norm
    names = [s.name for s in recorder.spans]
    for name in ("variation.v2_pm_norm", "variation.xs_proxy_norm"):
        assert names.count(name) == 2 * traj.n_components


def test_micro_probe_runs():
    child = load_bench_module("child")
    record = child._micro(1, 16.0, 32, 1.0, 0.01, 1.0)
    assert record["shape"] == [32]
    assert record["fft_pair_s"] > 0 and record["nonlinearity_s"] > 0
