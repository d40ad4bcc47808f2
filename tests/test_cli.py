"""End-to-end tests for the command-line runner."""

import contextlib
import io
import json
import math
import re
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
import weakref
import zipfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from halfwave import cli, dynamics, grid, harness, variation
from halfwave.cli import (
    _COMMANDS,
    ConfigError,
    load_config,
    load_trajectory,
    main,
    save_trajectory,
)
from conftest import random_real_data, read_halves, reconstructed_energy
from halfwave.dynamics import (
    Trajectory,
    decompose,
    evolve,
    free_trajectory,
    picard_iterate,
    scattering_state,
)
from halfwave.grid import FrequencyLattice, GridSpec, gaussian_bump
from halfwave.harness import strauss_exponent
from halfwave.system import MassSystem, Monomial, scalar_system

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def read_json(path):
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# configuration handling
# ----------------------------------------------------------------------


def test_load_config_defaults():
    config = load_config("strauss")
    assert config.command == "strauss"
    assert config.out_dir.endswith("strauss")
    # strauss draws nothing at random, so it has no seed to default
    assert config.options == {"max_dimension": 6}


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("strauss", config_path="/nonexistent/run.ini")


def test_load_config_command_mismatch(tmp_path):
    path = write_config(tmp_path, "[run]\ncommand = picard\n")
    with pytest.raises(ConfigError):
        load_config("simulate", config_path=path)


def test_load_config_unknown_section(tmp_path):
    path = write_config(tmp_path, "[run]\n[mystery]\nkey = 1\n")
    with pytest.raises(ConfigError):
        load_config("strauss", config_path=path)


def test_load_config_bad_value(tmp_path):
    path = write_config(tmp_path, "[run]\ndt = fast\n")
    with pytest.raises(ConfigError):
        load_config("simulate", config_path=path)


def test_load_config_requires_seed_for_stochastic():
    with pytest.raises(ConfigError):
        load_config("verify-shell")


def test_load_config_seed_flag_satisfies_requirement():
    config = load_config("verify-shell", seed=3)
    assert config.options["seed"] == 3


def test_load_config_sweep_parsing(tmp_path):
    path = write_config(
        tmp_path, "[run]\nseed = 1\n[sweep]\nradius = 32, 64\nwidth = 0.05\n"
    )
    config = load_config("verify-shell", config_path=path)
    assert config.sweeps["radius"] == (32.0, 64.0)
    assert config.sweeps["width"] == (0.05,)


def test_load_config_fills_typed_defaults(tmp_path):
    path = write_config(tmp_path, "[run]\nseed = 1\nhigh_scale = 32\n")
    config = load_config("verify-trilinear", config_path=path)
    assert config.options == {
        "dim": 3,
        "high_scale": 32,
        "mate_scale": None,
        "trials": 8,
        "interaction_horizon": 8.0,
        "seed": 1,
    }
    assert config.sweeps == {"low_scale": (4,)}


def test_readme_key_table_matches_commands():
    text = README.read_text()
    rows = {}
    for line in text.splitlines():
        row = re.fullmatch(r"\| `([a-z-]+)` \|(.*)\|(.*)\|", line)
        if row:
            keys = (re.findall(r"`(\w+)`", cell) for cell in row.groups()[1:])
            rows[row[1]] = tuple(keys)
    assert rows == {
        command: (list(options), list(sweeps))
        for command, (_, options, sweeps) in _COMMANDS.items()
    }
    common = text[text.index("Every command accepts the `[run]` keys") :]
    common = common[: common.index("Beyond those")]
    assert set(re.findall(r"`(\w+)`", common)) == {"command", "out"}


def test_load_config_rejects_empty_sweep(tmp_path):
    path = write_config(tmp_path, "[run]\nseed = 1\n[sweep]\nradius = ,\n")
    with pytest.raises(ConfigError):
        load_config("verify-shell", config_path=path)


def test_load_config_reads_a_percent_sign_as_written(tmp_path):
    path = write_config(tmp_path, "[run]\ntrajectory = runs/100%/t.npz\n")
    config = load_config("variation", config_path=path)
    assert config.options["trajectory"] == "runs/100%/t.npz"


def test_unreadable_config_exits_2_and_writes_nothing(tmp_path, capsys, monkeypatch):
    undecodable = tmp_path / "latin1.ini"
    undecodable.write_bytes(b"[run]\nmax_dimension = 3\n# caf\xe9\n")
    out = tmp_path / "out"
    assert main(["strauss", "--config", str(undecodable), "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()

    def refuse(*args, **kwargs):
        raise PermissionError("permission denied")

    path = write_config(tmp_path, "[run]\nmax_dimension = 3\n")
    monkeypatch.setattr(cli, "open", refuse, raising=False)
    assert main(["strauss", "--config", path, "--out", str(out)]) == 2
    assert "permission denied" in capsys.readouterr().err
    assert not out.exists()


def test_variation_requires_existing_trajectory(tmp_path):
    with pytest.raises(ConfigError, match="trajectory"):
        load_config("variation")
    # a missing file is found when the run loads it, before anything is written
    path = write_config(tmp_path, "[run]\ntrajectory = /nonexistent/t.npz\n")
    out = tmp_path / "out"
    assert main(["variation", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------


def test_exit_code_config_error(tmp_path):
    assert main(["verify-shell", "--out", str(tmp_path / "o")]) == 2


def test_exit_code_numerical_abort(tmp_path):
    path = write_config(
        tmp_path,
        "[run]\ndim = 1\ncoupling = 10.0\namplitude = 50.0\n"
        "horizon = 5.0\ndt = 0.05\n",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 3
    # an aborted run writes nothing, a manifest least of all
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "command, settings",
    [
        ("simulate", "amplitude = 1e200\n"),
        ("picard", "amplitude = 1e60\n"),
    ],
)
def test_blow_up_exits_3_and_writes_nothing(tmp_path, command, settings):
    path = write_config(tmp_path, "[run]\n" + settings)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "settings",
    ["amplitude = inf\n", "amplitude = nan\n", "coupling = nan\n", "dt = nan\n"],
)
def test_non_finite_config_number_exits_2(tmp_path, settings):
    path = write_config(tmp_path, "[run]\n" + settings)
    with pytest.raises(ConfigError):
        load_config("simulate", config_path=path)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text",
    [
        ("verify-modulation", "[run]\nseed = 0\nmax_radius = inf\n"),
        ("verify-nonresonance", "[run]\nseed = 0\nmasses = 1.0, nan, 1.0\n"),
        (
            "verify-shell",
            "[run]\ndim = 3\nseed = 0\nsamples = 1000\n[sweep]\nradius = nan\n",
        ),
        ("verify-bilinear", "[run]\nseed = 0\n[sweep]\nscales = 2, inf\n"),
    ],
    ids=["max_radius", "masses", "radius", "scales"],
)
def test_non_finite_option_or_sweep_value_exits_2(tmp_path, command, text):
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "command, text",
    [
        ("verify-modulation", "[run]\nseed = 0\n[sweep]\ndimension = 2.7\n"),
        ("verify-trilinear", "[run]\ndim = 3\nseed = 0\n[sweep]\nlow_scale = 2.9\n"),
        ("verify-bilinear", "[run]\ndim = 3\nseed = 0\n[sweep]\nscales = 8.5\n"),
    ],
    ids=["dimension", "low_scale", "scales"],
)
def test_fractional_integer_sweep_value_exits_2(tmp_path, command, text):
    # an integer sweep key takes integers: 2.7 is not truncated to 2
    path = write_config(tmp_path, text)
    with pytest.raises(ConfigError, match="sweep key"):
        load_config(command, config_path=path)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


def test_bad_option_value_fails_before_the_run(tmp_path, monkeypatch):
    path = write_config(tmp_path, "[run]\nhorizon = 0.1\nsave_trajectory = maybe\n")
    with pytest.raises(ConfigError, match="save_trajectory"):
        load_config("simulate", config_path=path)

    def no_march(*args, **kwargs):
        raise AssertionError("the march started")

    monkeypatch.setattr(cli, "evolve", no_march)
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, text",
    [
        (["simulate"], "[run]\nhorizon = 0.1\nsave_trajectroy = true\n"),
        (["picard"], "[run]\nsamples = 10\n"),
        (["verify-shell"], "[run]\ndim = 3\nseed = 0\n[sweep]\nradius = 32\nscales = 2\n"),
        # keys and a flag that are well spelt but would change nothing
        (["strauss"], "[run]\ndim = 3\n"),
        # the trajectory file fixes the grid
        (["variation"], "[run]\ntrajectory = t.npz\npoints_per_axis = 128\n"),
        (["verify-shell"], "[run]\ndim = 3\nseed = 0\nmass = 9\n"),
        (["picard"], "[run]\nstride = 4\n"),
        (["strichartz"], "[run]\nhorizon = -1\n"),
        # simulate draws nothing at random
        (["simulate", "--seed", "7"], "[run]\nhorizon = 0.1\n"),
    ],
    ids=[
        "misspelt-option", "option-of-another-command", "sweep-key", "strauss-dim",
        "variation-grid", "shell-mass", "picard-stride", "strichartz-horizon",
        "simulate-seed-flag",
    ],
)
def test_unknown_key_exits_2(tmp_path, capsys, argv, text):
    path = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(argv + ["--config", path, "--out", str(out)]) == 2
    assert "reads no" in capsys.readouterr().err
    assert not out.exists()


def test_memory_exhaustion_exits_2(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "evolve", no_memory)
    path = write_config(tmp_path, "[run]\ndt = 1e-9\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "memory" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "picard"])
def test_runs_larger_than_memory_exit_2_before_allocating(
    command, tmp_path, capsys, monkeypatch
):
    # dt = 1e-9 over the default horizon 10 is 1e10 steps of a 32-point state;
    # the solvers refuse it from its size alone, here against a patched 8 GiB
    monkeypatch.setattr(grid, "_physical_memory", lambda: 8 * 2**30)
    path = write_config(tmp_path, "[run]\ndt = 1e-9\n")
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "physical memory" in err and err.rstrip().endswith("out of memory")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "picard"])
def test_grids_larger_than_memory_exit_2_before_the_set_up(
    command, tmp_path, capsys, monkeypatch
):
    # building the lattice, the bump and the state of a 3D 128^3 grid takes
    # about 145 bytes per point, 290 MiB: refused from its size alone
    limit = 32 * 2**20
    monkeypatch.setattr(grid, "_physical_memory", lambda: limit)
    config = "[run]\ndim = 3\npoints_per_axis = 128\nhorizon = 0.1\n"
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    tracemalloc.start()
    try:
        code = main([command, "--config", path, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < limit
    assert "2097152 grid points need" in capsys.readouterr().err
    assert not out.exists()


def test_picard_memory_estimate_covers_its_peak(tmp_path, capsys, monkeypatch):
    # the picard-3d problem: the tracemalloc peak of picard_iterate above its
    # entry, 16.9 MiB, and of the whole command, 18.2 MiB, are within its one
    # estimate, 18.6 MiB with the 1 MiB entry state its caller holds; one byte
    # below that, and at 18 MiB, the command exits 2 before it allocates the
    # 101 levels, each the 21 x 21 x 11 band of u^+ and u^-, 15 MiB
    path = write_config(
        tmp_path, "[run]\ndim = 3\nbox_length = 32\npoints_per_axis = 32\nhorizon = 5\n"
    )
    opts = load_config("picard", config_path=path).options
    lattice, system, state = cli._initial_data(opts)
    T, dt, iters = (opts[key] for key in ("horizon", "dt", "iterations"))
    estimates, require = [], dynamics._require_memory

    def recorded(nbytes, what):
        estimates.append(nbytes)
        return require(nbytes, what)

    monkeypatch.setattr(dynamics, "_require_memory", recorded)
    tracemalloc.start()
    try:
        picard_iterate(lattice, state, system, T, dt, iters)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (need,) = estimates
    assert peak <= need
    for limit in (None, need - 1, 18 * 2**20):
        if limit is not None:
            monkeypatch.setattr(grid, "_physical_memory", lambda: limit)
        out = tmp_path / f"out-{limit}"
        tracemalloc.start()
        try:
            code = main(["picard", "--config", path, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if limit is None:
            assert code == 0 and peak <= need
            continue
        assert code == 2 and peak < 101 * 2 * 21 * 21 * 11 * 16
        assert "101 levels" in capsys.readouterr().err and not out.exists()


def test_a_stride_that_does_not_divide_the_steps_exits_2(tmp_path, capsys):
    # horizon 1 at dt 0.1 is 10 steps, which a stride of 50 does not divide
    path = write_config(tmp_path, "[run]\nhorizon = 1\ndt = 0.1\nstride = 50\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 2
    assert "stride 50 does not divide the 10 steps" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("simulate", "[run]\ndt = 5e-324\n"),
        ("picard", "[run]\nhorizon = 1e300\ndt = 1e-10\n"),
    ],
    ids=["simulate", "picard"],
)
def test_a_step_count_that_overflows_exits_2(command, config, tmp_path, capsys):
    # horizon / dt is infinite: refused as a configuration, not a traceback
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert "is not a finite step count" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "command, config",
    [
        ("simulate", "[run]\nhorizon = 0.2\nsobolev = 1e300\n"),
        ("picard", "[run]\nhorizon = 0.2\niterations = 2\nsobolev = 1e300\n"),
    ],
    ids=["simulate", "picard"],
)
def test_hs_weights_that_overflow_exit_2(command, config, tmp_path, capsys):
    # <xi>^(2s) at s = 1e300 is infinite on the lattice: a configuration
    # error for both solvers, not a numerical abort, nor a contraction of 0
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert "not finite on the lattice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config",
    [
        ("simulate", "[run]\nhorizon = 0.2\nwidth = 1e300\n"),
        ("picard", "[run]\nhorizon = 0.2\niterations = 2\nwidth = 1e300\n"),
        ("verify-shell", "[run]\nseed = 0\nsamples = 2048\ndim = 100000000000000000000\n"),
        ("verify-shell", "[run]\nseed = 0\nsamples = 2048\n[sweep]\nradius = 1e300\n"),
        ("verify-shell", "[run]\nseed = 0\nsamples = 2048\n[sweep]\nwidth = 1e-300\n"),
        ("simulate", "[run]\nhorizon = 0.2\nwidth = 1e-300\n"),
        ("picard", "[run]\nhorizon = 0.2\niterations = 2\nwidth = 1e-300\n"),
        ("verify-trilinear", "[run]\nseed = 0\ndim = 100000000000000000000\n"),
    ],
    ids=[
        "simulate-width", "picard-width", "shell-dim", "shell-radius", "shell-width",
        "simulate-width-squared-0", "picard-width-squared-0", "trilinear-dim",
    ],
)
def test_float_arithmetic_out_of_range_exits_2(command, config, tmp_path, capsys):
    # width ** 2, the unit ball volume of dimension 1e20, (r + w) ** 2 and
    # the trilinear mode boxes of dimension 1e20 overflow; a width that
    # squares to 0 divides by zero, and in the Gaussian bump it leaves
    # coefficients that are not finite
    path = write_config(tmp_path, config)
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    assert "out of the float range" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, body",
    [
        ("picard", "[run]\nhorizon = 0.2\niterations = {}\n", (cli, "picard_iterate")),
        (
            "verify-bilinear",
            "[run]\nseed = 0\nmode = separated\nhigh_scale = 16\ntrials = {}\n"
            "[sweep]\nscales = 2\n",
            (harness, "verify_bilinear"),
        ),
        (
            "verify-trilinear",
            "[run]\nseed = 0\nhigh_scale = 8\ntrials = {}\n",
            (harness, "ball_mode_set"),
        ),
    ],
    ids=["picard", "verify-bilinear", "verify-trilinear"],
)
def test_counts_whose_records_exceed_memory_exit_2_before_any_work(
    command, config, body, tmp_path, capsys, monkeypatch
):
    # 10**20 sweeps or trials would run without end; their records alone are
    # refused against 64 MiB before the first sweep or trial
    def refuse(*args, **kwargs):
        raise AssertionError("the work started")

    monkeypatch.setattr(grid, "_physical_memory", lambda: 64 * 2**20)
    monkeypatch.setattr(*body, refuse)
    path = write_config(tmp_path, config.format(10**20))
    out = tmp_path / "out"
    assert main([command, "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{10**20} " in err and err.rstrip().endswith("out of memory")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_a_non_finite_result_exits_3_and_writes_nothing(tmp_path, capsys):
    # at mass 1e300 the brackets overflow and the swept minimum is NaN,
    # which summary.json could only hold as invalid JSON
    path = write_config(tmp_path, "[run]\nseed = 0\nmax_radius = 16\nmass = 1e300\n")
    out = tmp_path / "out"
    assert main(["verify-modulation", "--config", path, "--out", str(out)]) == 3
    assert "numerical abort" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_verification_failure(tmp_path):
    path = write_config(
        tmp_path,
        "[run]\ndim = 1\ncoupling = 5.0\namplitude = 30.0\n"
        "horizon = 2.0\ndt = 0.05\niterations = 6\n",
    )
    out = tmp_path / "out"
    assert main(["picard", "--config", path, "--out", str(out)]) == 1
    summary = read_json(out / "summary.json")
    assert summary["diverged"] or summary["contraction_factor"] >= 1.0
    # a completed-but-failed run still documents itself
    assert (out / "manifest.json").is_file()


# ----------------------------------------------------------------------
# table commands
# ----------------------------------------------------------------------


def test_strauss_table(tmp_path):
    out = tmp_path / "strauss"
    assert main(["strauss", "--out", str(out)]) == 0
    rows = read_jsonl(out / "strauss.jsonl")
    assert len(rows) == 6
    for row in rows:
        assert row["exponent"] == pytest.approx(strauss_exponent(row["dimension"]))
        assert row["lower"] < row["exponent"] < row["upper"]
    assert rows[0]["exponent"] == pytest.approx(3.5616, abs=1e-3)
    assert rows[2]["exponent"] == pytest.approx(2.0, rel=1e-12)


def test_strichartz_table(tmp_path):
    path = write_config(tmp_path, "[run]\ndim = 3\nfamily = kg\n")
    out = tmp_path / "out"
    assert main(["strichartz", "--config", path, "--out", str(out)]) == 0
    rows = read_jsonl(out / "strichartz.jsonl")
    by_pair = {(row["q"], row["r"]): row for row in rows}
    sharp = by_pair[(8.0 / 3.0, 4.0)]
    assert sharp["admissible"]
    assert sharp["loss"] == "5/8"
    energy = by_pair[(2.0, 2.0)]
    assert not energy["admissible"]


# ----------------------------------------------------------------------
# manifest invariants
# ----------------------------------------------------------------------


def test_manifest_lists_every_output(tmp_path):
    out = tmp_path / "out"
    assert main(["strauss", "--out", str(out)]) == 0
    manifest = read_json(out / "manifest.json")
    listed = set(manifest["outputs"])
    on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert listed == on_disk
    assert manifest["version"]
    assert manifest["wall_clock_seconds"] >= 0
    assert manifest["config"]["command"] == "strauss"
    # the config echo holds every option, defaults included
    assert manifest["config"]["options"] == {"max_dimension": 6}


# ----------------------------------------------------------------------
# simulation path
# ----------------------------------------------------------------------


def test_simulate_free_flow_matches_linear(tmp_path):
    path = write_config(
        tmp_path,
        "[run]\ndim = 1\ncoupling = 0.0\namplitude = 0.01\n"
        "horizon = 2.0\ndt = 0.05\nstride = 4\n",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["linear_match_error"] < 1e-9
    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[0] == "time,component,hs_norm,energy,scattering_increment"
    table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert table.shape[1] == 5
    # free flow conserves energy to rounding and accumulates no scattering
    energies = table[:, 3]
    assert np.allclose(energies, energies[0], rtol=1e-10)
    assert table[:, 4].sum() < 1e-12


def test_simulate_linear_match_error_is_the_free_trajectory_distance(tmp_path):
    # the same H^s distance on the same arrays as Trajectory.distance, so the
    # same bits; the defaults give a 32-point box of side 16 and unit mass
    path = write_config(
        tmp_path,
        "[run]\ndim = 1\ncoupling = 0.0\namplitude = 0.01\n"
        "horizon = 2.0\ndt = 0.05\nstride = 4\n",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    lattice = FrequencyLattice(GridSpec(1, 16.0, 32))
    bump = gaussian_bump(lattice, 0.01, 1.0).coeffs[None]
    state = decompose(lattice, bump, np.zeros_like(bump), (1.0,))
    traj = evolve(lattice, state, scalar_system(1.0, 0.0), 2.0, 0.05, 4, s=0.5)
    gap = traj.distance(free_trajectory(lattice, state, traj.masses, traj.times), 0.5)
    assert read_json(out / "summary.json")["linear_match_error"] == gap > 0.0


def test_simulate_memory_does_not_grow_with_the_horizon(tmp_path):
    # a 32^3 sample holds 1 MiB; kept, 12 more samples would add 12 MiB
    peaks = []
    for horizon in (0.15, 0.75):
        path = write_config(
            tmp_path,
            f"[run]\ndim = 3\nbox_length = 32\npoints_per_axis = 32\n"
            f"horizon = {horizon}\ndt = 0.05\n",
        )
        config = load_config("simulate", path)
        tracemalloc.start()
        try:
            result = cli._run_simulate(config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.summary["samples"] == round(horizon / 0.05) + 1
    assert peaks[1] <= 1.1 * peaks[0]


def test_simulate_marches_in_the_kept_half(tmp_path, monkeypatch):
    # a 64^3 state is 8 MiB; the march holds the kept half's sample and step
    # factor, the band's arrays and the weights, about 2.4 states, where whole
    # samples, a whole step factor and the entry state kept alive held 4.7
    path = write_config(
        tmp_path,
        "[run]\ndim = 3\nbox_length = 128\npoints_per_axis = 64\ncoupling = 100\n"
        "amplitude = 1e-3\nwidth = 2.5\nhorizon = 0.4\ndt = 0.2\n",
    )
    config = load_config("simulate", path)
    march, shapes, held = cli._march, [], []

    def watched(*args):
        times, samples = march(*args)

        def each():
            for sample, increment in samples:
                shapes.append(sample.shape)
                held.append(tracemalloc.get_traced_memory()[0])
                yield sample, increment

        return times, each()

    monkeypatch.setattr(cli, "_march", watched)
    tracemalloc.start()
    try:
        cli._run_simulate(config)
    finally:
        tracemalloc.stop()
    assert shapes == [(1, 2, 64, 64, 33)] * 3
    assert max(held) < 3 * 8 * 2**20


@pytest.mark.parametrize("k, coupling", [(1, 0.0), (1, 30.0), (3, 0.0), (3, 30.0)])
def test_simulate_rows_match_the_whole_trajectory(k, coupling, tmp_path, monkeypatch):
    # simulate folds kept halves; evolve's whole samples are the oracle: the
    # norm series, the whole-grid energy and scattering_state's increments to
    # 1e-12, the stored halves bit for bit, and at coupling 0 the distance to
    # the free trajectory on the same arrays as Trajectory.distance
    lattice = FrequencyLattice(GridSpec(2, 16.0, 16))
    masses = (1.0, 1.5, 2.0)[:k]
    system = MassSystem(masses, tuple((Monomial(coupling, (i, (i + 1) % k)),) for i in range(k)))
    u, u_t = random_real_data(lattice, np.random.default_rng(k), k, decay=2.0)
    state = decompose(lattice, 0.01 * u, 0.01 * u_t, masses)
    monkeypatch.setattr(cli, "_initial_data", lambda opts: (lattice, system, state))
    path = write_config(
        tmp_path,
        f"[run]\ncoupling = {coupling}\nhorizon = 1.0\ndt = 0.05\nstride = 4\n"
        "save_trajectory = true\n",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    traj = evolve(lattice, state, system, 1.0, 0.05, 4)
    rows = np.loadtxt(out / "simulate.csv", delimiter=",", skiprows=1).reshape(-1, k, 5)
    norms = traj.norm_series(0.5)
    assert np.allclose(rows[..., 2], norms, rtol=1e-12, atol=0.0)
    energies = [reconstructed_energy(lattice, sample, system) for sample in traj.halves]
    assert np.allclose(rows[:, 0, 3], energies, rtol=1e-12, atol=0.0)
    # increments are distances between states, of rounding size at coupling 0
    increments = scattering_state(traj, 0.5).increments
    assert rows[0, 0, 4] == 0.0
    assert np.allclose(rows[1:, 0, 4], increments, rtol=1e-12, atol=1e-12 * norms.max())
    with np.load(out / "trajectory.npz") as stored:
        assert np.array_equal(stored["halves"], traj.halves)
    if coupling == 0:
        gap = traj.distance(free_trajectory(lattice, state, masses, traj.times), 0.5)
        assert read_json(out / "summary.json")["linear_match_error"] == gap
    else:
        assert min(increments) > 1e-9 * norms.max()


def test_simulate_rows_cover_all_samples(tmp_path):
    path = write_config(
        tmp_path,
        "[run]\ndim = 1\ncoupling = 1.0\namplitude = 0.001\n"
        "horizon = 1.0\ndt = 0.05\nstride = 5\n",
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", path, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    lines = (out / "simulate.csv").read_text().splitlines()
    assert len(lines) - 1 == summary["samples"]


def test_picard_contracts_for_small_data(tmp_path):
    path = write_config(
        tmp_path,
        "[run]\ndim = 1\ncoupling = 1.0\namplitude = 0.001\n"
        "horizon = 2.0\ndt = 0.05\niterations = 5\n",
    )
    out = tmp_path / "out"
    assert main(["picard", "--config", path, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert summary["contraction_factor"] < 1.0
    assert not summary["diverged"]
    rows = read_jsonl(out / "picard.jsonl")
    assert [row["iteration"] for row in rows] == list(range(1, len(rows) + 1))


# ----------------------------------------------------------------------
# trajectory storage and the variation command
# ----------------------------------------------------------------------


def test_trajectory_roundtrip(tmp_path):
    from halfwave.dynamics import decompose, evolve
    from halfwave.grid import FrequencyLattice, GridSpec, gaussian_bump
    from halfwave.system import scalar_system

    lattice = FrequencyLattice(GridSpec(1, 16.0, 32))
    bump = gaussian_bump(lattice, 0.01).coeffs[None]
    state = decompose(lattice, bump, np.zeros_like(bump), (1.0,))
    traj = evolve(lattice, state, scalar_system(1.0, 0.5), 1.0, 0.05, 4)
    store = tmp_path / "traj.npz"
    save_trajectory(traj, store)
    loaded = load_trajectory(store)
    assert np.array_equal(loaded.times, traj.times)
    assert loaded.n_components == traj.n_components
    assert np.array_equal(read_halves(loaded), traj.halves)
    assert loaded.masses == traj.masses


@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize("dim, n", [(1, 32), (2, 16), (3, 8)])
def test_trajectory_file_is_the_savez_archive(dim, n, k, tmp_path):
    # written one sample at a time, the file is np.savez's byte for byte
    lattice = FrequencyLattice(GridSpec(dim, 8.0, n))
    shape = (4, k, 2) + lattice.spec.shape
    rng = np.random.default_rng(k)
    halves = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    traj = Trajectory(0.25 * np.arange(4), (1.0, 1.5, 2.0)[:k], lattice, halves)
    save_trajectory(traj, tmp_path / "a.npz")
    spec = lattice.spec
    np.savez(
        tmp_path / "b.npz", times=traj.times, halves=halves,
        masses=np.array(traj.masses), dim=np.array(spec.dim),
        box_length=np.array(spec.box_length), points_per_axis=np.array(spec.points_per_axis),
    )
    assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()


def write_trajectory_file(path, **changes):
    """A valid two-sample 1D trajectory archive, with some entries replaced.

    An entry set to None is left out of the archive.
    """
    stored = {
        "times": np.array([0.0, 0.5]),
        "halves": np.zeros((2, 1, 2, 8), dtype=complex),
        "masses": np.array([1.0]),
        "dim": np.array(1),
        "box_length": np.array(4.0),
        "points_per_axis": np.array(8),
    }
    stored.update(changes)
    np.savez(path, **{k: v for k, v in stored.items() if v is not None})
    return path


def test_load_trajectory_accepts_valid_file(tmp_path):
    traj = load_trajectory(write_trajectory_file(tmp_path / "ok.npz"))
    assert read_halves(traj).shape == (2, 1, 2, 8)
    assert traj.masses == (1.0,)


@pytest.mark.parametrize(
    "changes",
    [
        pytest.param({"halves": None}, id="missing-halves"),
        pytest.param({"points_per_axis": None}, id="missing-grid"),
        pytest.param({"halves": np.zeros((2, 1, 2, 16), complex)}, id="grid-shape"),
        pytest.param({"halves": np.zeros((2, 2, 2, 8), complex)}, id="component-count"),
        pytest.param({"halves": np.zeros((3, 1, 2, 8), complex)}, id="time-count"),
        pytest.param({"halves": np.zeros((2, 1, 8), complex)}, id="no-half-axis"),
        pytest.param({"dim": np.array(2)}, id="dim-mismatch"),
        pytest.param({"halves": np.zeros((2, 1, 2, 8))}, id="real-values"),
        pytest.param({"halves": np.full((2, 1, 2, 8), np.nan + 0j)}, id="nan-values"),
        pytest.param({"halves": np.full((2, 1, 2, 8), np.inf + 0j)}, id="inf-values"),
        pytest.param(
            {"halves": np.asfortranarray(np.zeros((2, 1, 2, 8), complex))}, id="fortran-order"
        ),
        pytest.param({"masses": np.array([0.0])}, id="zero-mass"),
        pytest.param({"masses": np.array([-1.0])}, id="negative-mass"),
        pytest.param({"times": np.array([0.5, 0.0])}, id="decreasing-times"),
        pytest.param({"times": np.array([0.0, np.nan])}, id="nan-times"),
        pytest.param(
            {"times": np.array([0.0, 0.5, 1.5]), "halves": np.zeros((3, 1, 2, 8), complex)},
            id="nonuniform-times",
        ),
    ],
)
def test_load_trajectory_rejects_malformed_file(tmp_path, changes):
    # the values are checked as the reader yields them, the rest on loading
    with pytest.raises(ConfigError):
        read_halves(load_trajectory(write_trajectory_file(tmp_path / "bad.npz", **changes)))


def test_a_truncated_trajectory_is_a_config_error(tmp_path):
    # a header of two samples over the data of one
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<c16", "fortran_order": False, "shape": (2, 1, 2, 8)}
    )
    store = write_trajectory_file(tmp_path / "short.npz", halves=None)
    with zipfile.ZipFile(store, "a") as archive:
        archive.writestr("halves.npy", header.getvalue() + bytes(2 * 8 * 16))
    traj = load_trajectory(store)
    with pytest.raises(ConfigError, match="cannot read"):
        read_halves(traj)


def test_load_trajectory_checks_the_grid_before_building_the_lattice(
    tmp_path, monkeypatch
):
    # a lattice of 16384^2 entries would take more than 4.75 GiB
    def refuse(spec):
        raise AssertionError(f"built a lattice for {spec}")

    monkeypatch.setattr(cli, "FrequencyLattice", refuse)
    store = write_trajectory_file(
        tmp_path / "big.npz", dim=np.array(2), points_per_axis=np.array(16384)
    )
    with pytest.raises(ConfigError, match="grid"):
        load_trajectory(store)


def test_load_trajectory_rejects_non_archive(tmp_path):
    junk = tmp_path / "junk.npz"
    junk.write_text("not an archive\n")
    with pytest.raises(ConfigError):
        load_trajectory(junk)


def test_variation_refuses_a_trajectory_larger_than_memory(tmp_path, capsys, monkeypatch):
    # the estimate comes from the .npy header of halves, before any data is
    # read: for 41 samples on a 1D grid of 1024 points, a path from rest of
    # 42 rows and as much again (1,376,256 bytes), one 42 x 42 table (14,112)
    # and two samples (65,536)
    need = 32 * 42 * 1024 + 8 * 42**2 + 2 * 16 * 2 * 1024
    store = write_trajectory_file(
        tmp_path / "ok.npz", times=0.5 * np.arange(41),
        halves=np.zeros((41, 1, 2, 1024), complex), points_per_axis=np.array(1024),
    )
    cfg = write_config(tmp_path, f"[run]\ntrajectory = {store}\n")
    out = tmp_path / "out"
    monkeypatch.setattr(grid, "_physical_memory", lambda: need - 1)
    tracemalloc.start()
    try:
        code = main(["variation", "--config", cfg, "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 2**20
    err = capsys.readouterr().err
    assert "physical memory" in err and err.rstrip().endswith("out of memory")
    assert not out.exists()
    monkeypatch.setattr(grid, "_physical_memory", lambda: need)
    assert main(["variation", "--config", cfg, "--out", str(out)]) == 0
    # a header that declares 2**45 entries over no data at all
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": "<c16", "fortran_order": False, "shape": (2, 1, 2, 2**43)}
    )
    huge = write_trajectory_file(tmp_path / "huge.npz", halves=None)
    with zipfile.ZipFile(huge, "a") as archive:
        archive.writestr("halves.npy", header.getvalue())
    with pytest.raises(MemoryError, match="physical memory"):
        load_trajectory(huge)


def test_variation_on_malformed_file_exits_2(tmp_path):
    # a missing array is a configuration problem, not a crash
    store = tmp_path / "times_only.npz"
    np.savez(store, times=np.array([0.0, 0.5]))
    cfg = write_config(tmp_path, f"[run]\ntrajectory = {store}\n")
    out = tmp_path / "out"
    assert main(["variation", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_variation_on_a_non_finite_sample_exits_2(tmp_path):
    # found as the reader yields the last sample of the second half
    halves = np.zeros((2, 1, 2, 8), complex)
    halves[-1, 0, 1, -1] = np.nan
    store = write_trajectory_file(tmp_path / "nan.npz", halves=halves)
    cfg = write_config(tmp_path, f"[run]\ntrajectory = {store}\n")
    out = tmp_path / "out"
    assert main(["variation", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


def test_simulate_then_variation(tmp_path):
    sim_cfg = write_config(
        tmp_path,
        "[run]\ndim = 1\ncoupling = 0.0\namplitude = 0.01\n"
        "horizon = 2.0\ndt = 0.05\nstride = 4\nsave_trajectory = true\n",
        name="sim.ini",
    )
    sim_out = tmp_path / "sim"
    assert main(["simulate", "--config", sim_cfg, "--out", str(sim_out)]) == 0
    store = sim_out / "trajectory.npz"
    assert store.is_file()
    manifest = read_json(sim_out / "manifest.json")
    assert "trajectory.npz" in manifest["outputs"]

    var_cfg = write_config(
        tmp_path,
        f"[run]\ntrajectory = {store}\nsobolev = 0.5\n",
        name="var.ini",
    )
    var_out = tmp_path / "var"
    assert main(["variation", "--config", var_cfg, "--out", str(var_out)]) == 0
    rows = read_jsonl(var_out / "variation.jsonl")
    assert len(rows) == 2  # one component, both rotation signs
    assert {row["sign"] for row in rows} == {1, -1}
    for row in rows:
        assert row["v2_norm"] > 0
        assert math.isfinite(row["xs_proxy_norm"])


def test_trajectory_commands_hold_the_halves_at_most_once(tmp_path):
    # simulate keeps its 101 samples, 12.6 MiB of halves, and writes them one
    # sample at a time; variation reads them one sample at a time into a path
    # of half their size.  np.savez's copy of the halves, or a loader that
    # reads them whole, traces at least twice (simulate) or once (variation)
    # their size.  A fresh process keeps the test's own allocations out
    script = (
        "import sys, tracemalloc\n"
        "from halfwave import cli\n"
        "tracemalloc.start()\n"
        "print(cli.main(sys.argv[1:]), tracemalloc.get_traced_memory()[1])\n"
    )
    halves = 101 * 2 * 4096 * 16
    store = tmp_path / "sim" / "trajectory.npz"
    commands = {
        "simulate": "dim = 1\npoints_per_axis = 4096\nbox_length = 64\nhorizon = 5\n"
        "dt = 0.05\nsave_trajectory = true\n",
        "variation": f"trajectory = {store}\n",
    }
    peaks = {}
    for command, run in commands.items():
        cfg = write_config(tmp_path, f"[run]\n{run}", name=f"{command}.ini")
        argv = [command, "--config", cfg, "--out", str(tmp_path / command[:3])]
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True
        )
        code, peaks[command] = map(int, done.stdout.split()[-2:])
        assert code == 0, done.stderr
    assert store.stat().st_size > halves
    assert peaks["simulate"] < 1.5 * halves and peaks["variation"] < halves


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # OpenBLAS splits a long dot product across its threads, which rounds by
    # their number: the lawson-3d problem over two steps and a bilinear case
    # of 17,077 amplitudes wrote other digits at two threads than at one
    runs = {
        "simulate": ("[run]\ndim = 3\nbox_length = 128\npoints_per_axis = 64\n"
                     "coupling = 100\nhorizon = 0.4\ndt = 0.2\nstride = 1\n", []),
        "verify-bilinear": ("[run]\ndim = 3\nmode = separated\nhigh_scale = 256\n"
                            "trials = 1\n[sweep]\nscales = 64\n", ["--seed", "3"]),
    }
    for command, (text, seed) in runs.items():
        cfg = write_config(tmp_path, text, name=f"{command}.ini")
        written = []
        for threads in ("1", "2"):
            out = tmp_path / f"{command}-{threads}"
            env = dict(
                os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
                OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
            )
            argv = ["-m", "halfwave.cli", command, "--config", cfg, *seed, "--out", str(out)]
            done = subprocess.run([sys.executable, *argv], env=env, capture_output=True)
            assert done.returncode == 0, done.stderr
            data = "simulate.csv" if command == "simulate" else f"{command}.jsonl"
            written.append([(out / name).read_bytes() for name in (data, "summary.json")])
        assert written[0] == written[1], command


def random_store_config(tmp_path):
    """A variation config over a stored random trajectory of three components."""
    lattice = FrequencyLattice(GridSpec(2, 8.0, 8))
    shape = (6, 3, 2) + lattice.spec.shape
    rng = np.random.default_rng(5)
    halves = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    store = tmp_path / "t.npz"
    save_trajectory(Trajectory(0.1 * np.arange(6), (0.5, 1.0, 1.5), lattice, halves), store)
    return write_config(tmp_path, f"[run]\ntrajectory = {store}\n", name="var.ini")


def test_variation_unrotates_each_half_once(tmp_path, monkeypatch):
    # both norms read one path per component and sign: 2K unrotations, not 4K
    calls = []

    def counted(traj, component, sign):
        calls.append((component, sign))
        return unrotate(traj, component, sign)

    unrotate = variation.unrotated_from_rest
    monkeypatch.setattr(cli, "unrotated_from_rest", counted)
    monkeypatch.setattr(variation, "unrotated_from_rest", counted)
    config = random_store_config(tmp_path)
    assert main(["variation", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert sorted(calls) == [(i, sign) for i in range(3) for sign in (-1, 1)]


def test_variation_releases_each_path_before_the_next(tmp_path, monkeypatch):
    # a path left alive while the next is built holds two paths at once
    paths, alive = [], []

    def tracked(traj, component, sign):
        alive.append(sum(ref() is not None for ref in paths))
        path = unrotate(traj, component, sign)
        paths.append(weakref.ref(path))
        return path

    unrotate = variation.unrotated_from_rest
    monkeypatch.setattr(cli, "unrotated_from_rest", tracked)
    config = random_store_config(tmp_path)
    assert main(["variation", "--config", config, "--out", str(tmp_path / "out")]) == 0
    assert alive == [0] * 6


# ----------------------------------------------------------------------
# verification commands
# ----------------------------------------------------------------------


SMALL_CONFIGS = {
    "simulate": "[run]\ncoupling = 5.0\namplitude = 0.5\nhorizon = 0.5\n",
    "picard": "[run]\ncoupling = 5.0\namplitude = 0.1\nhorizon = 0.5\n",
    "verify-shell": "[run]\ndim = 3\nsamples = 60000\n"
    "[sweep]\nradius = 32\nwidth = 0.05, 0.1\ntube = 4\noffset_factor = 2.0\n",
    "verify-modulation": "[run]\nmax_radius = 64\n[sweep]\ndimension = 2, 3\n",
    # the mass condition fails, so this runs the grid scan and the descent
    "verify-nonresonance": "[run]\ndim = 2\nmasses = 1.0, 1.0, 2.5\nmax_radius = 16\n",
    "verify-bilinear": "[run]\ndim = 3\nmode = both\ntrials = 1\nhigh_scale = 32\n"
    "[sweep]\nscales = 2, 4\n",
    "verify-trilinear": "[run]\ndim = 3\nhigh_scale = 16\ntrials = 2\n",
}


@pytest.mark.parametrize("command", list(SMALL_CONFIGS))
def test_verify_deterministic_outputs(tmp_path, command):
    cfg = write_config(tmp_path, SMALL_CONFIGS[command])
    # only the verify-* commands draw at random, and only they take a seed
    seed = ["--seed", "5"] if command.startswith("verify-") else []
    data = f"{command}.csv" if command == "simulate" else f"{command}.jsonl"
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main([command, "--config", cfg, *seed, "--out", str(out)]) == 0
        outputs.append([(out / data).read_bytes(), (out / "summary.json").read_bytes()])
    assert outputs[0] == outputs[1]


# a small run of every command ([run] keys, [sweep] keys), and for each key
# the command reads a value that must change its data or summary files
BASE_RUNS = {
    "simulate": ({"horizon": 0.2}, {}),
    "picard": ({"horizon": 0.2, "iterations": 2}, {}),
    "verify-modulation": ({"seed": 0, "max_radius": 16}, {}),
    "verify-nonresonance": ({"seed": 0, "max_radius": 8}, {}),
    "verify-shell": ({"dim": 3, "seed": 0, "samples": 2048}, {}),
    "verify-bilinear": (
        {"dim": 3, "seed": 0, "mode": "separated", "trials": 1, "high_scale": 16},
        {"scales": 2},
    ),
    "verify-trilinear": ({"dim": 3, "seed": 0, "high_scale": 8, "trials": 1}, {}),
    "strichartz": ({}, {}),
    "strauss": ({}, {}),
    "variation": ({"trajectory": "a.npz"}, {}),
}
CHANGED_VALUES = {
    "simulate": {
        "dim": 2, "box_length": 8, "points_per_axis": 16, "mass": 2, "coupling": 2,
        "amplitude": 0.02, "width": 2, "horizon": 0.3, "dt": 0.1, "sobolev": 1,
        "stride": 2, "save_trajectory": "true",
    },
    "picard": {
        "dim": 2, "box_length": 8, "points_per_axis": 16, "mass": 2, "coupling": 2,
        "amplitude": 0.02, "width": 2, "horizon": 0.3, "dt": 0.1, "sobolev": 1,
        "iterations": 3,
    },
    "verify-modulation": {
        "mass": 2, "dim": 2, "max_radius": 32, "directions": 8, "floor": 0.2,
        "seed": 1, "dimension": 3,
    },
    "verify-nonresonance": {
        "masses": "1, 1, 2.5", "dim": 2, "max_radius": 16, "directions": 8,
        "floor": 0.02, "seed": 1,
    },
    "verify-shell": {
        "dim": 4, "samples": 4096, "seed": 1, "radius": 16, "width": 0.1, "tube": 4,
        "offset_factor": 1.5,
    },
    "verify-bilinear": {
        "dim": 4, "mode": "matched", "trials": 2, "high_scale": 32, "seed": 1,
        "scales": 4,
    },
    "verify-trilinear": {
        "dim": 2, "high_scale": 16, "mate_scale": 16, "trials": 2,
        "interaction_horizon": 4, "seed": 1, "low_scale": 2,
    },
    "strichartz": {"dim": 3, "family": "wave", "q": 4, "r": 4},
    "strauss": {"max_dimension": 3},
    "variation": {"trajectory": "b.npz", "sobolev": 1},
}


def test_changed_values_cover_every_key():
    assert {command: set(values) for command, values in CHANGED_VALUES.items()} == {
        command: set(options) | set(sweeps)
        for command, (_, options, sweeps) in _COMMANDS.items()
    }


def run_outputs(tmp_path, name, command, run, sweep):
    """Every data and summary file of one run, by name."""
    lines = ["[run]"] + [f"{k} = {v}" for k, v in run.items()]
    lines += ["[sweep]"] + [f"{k} = {v}" for k, v in sweep.items()]
    cfg = write_config(tmp_path, "\n".join(lines) + "\n", name=f"{name}.ini")
    out = tmp_path / name
    assert main([command, "--config", cfg, "--out", str(out)]) in (0, 1)
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


@pytest.mark.filterwarnings("ignore:shell intersection produced zero")
@pytest.mark.parametrize(
    "command, key",
    [(command, key) for command, values in CHANGED_VALUES.items() for key in values],
)
def test_every_key_changes_the_output(tmp_path, command, key):
    rng = np.random.default_rng(0)
    for name in ("a.npz", "b.npz"):
        halves = rng.standard_normal((3, 1, 2, 8)) + 1j * rng.standard_normal((3, 1, 2, 8))
        write_trajectory_file(tmp_path / name, times=np.array([0.0, 0.5, 1.0]), halves=halves)
    run, sweep = (dict(section) for section in BASE_RUNS[command])
    if command == "variation":
        run["trajectory"] = tmp_path / run["trajectory"]
    base = run_outputs(tmp_path, "base", command, run, sweep)
    changed = CHANGED_VALUES[command][key]
    if key == "trajectory":
        changed = tmp_path / changed
    (sweep if key in _COMMANDS[command][2] else run)[key] = changed
    assert run_outputs(tmp_path, "changed", command, run, sweep) != base


# the generated-input test: the values that replace one or two keys of a
# BASE_RUNS config, as a config file spells them, and its limits of memory
# (patched, plus a slack for what no estimate counts) and time per run
HOSTILE = ("0", "-1", "0.5", "1e-300", "1e300", "nan", "inf", "-inf", "", "abc", str(10**20))
HOSTILE_MEMORY = 64 * 2**20
HOSTILE_SLACK = 16 * 2**20
HOSTILE_SECONDS = 20


class RunTooLong(Exception):
    """A generated run outlived HOSTILE_SECONDS."""


def run_too_long(signum, frame):
    raise RunTooLong()


@st.composite
def hostile_runs(draw):
    command = draw(st.sampled_from(sorted(BASE_RUNS)))
    _, options, sweeps = _COMMANDS[command]
    keys = st.sampled_from(sorted(options) + sorted(sweeps))
    chosen = draw(st.lists(keys, min_size=1, max_size=2, unique=True))
    return command, tuple((key, draw(st.sampled_from(HOSTILE))) for key in chosen)


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


# the ten breaches of the contract that this test was written to catch, the
# eleventh (verify-trilinear's dim = 10^20 ran without end) and the same dim
# for every other command that reads one
@settings(derandomize=True, database=None, max_examples=200, deadline=10_000)
@given(case=hostile_runs())
@example(case=("simulate", (("width", "1e300"),)))
@example(case=("picard", (("width", "1e300"),)))
@example(case=("verify-shell", (("dim", str(10**20)),)))
@example(case=("verify-trilinear", (("dim", str(10**20)),)))
@example(case=("verify-trilinear", (("dim", str(10**20)), ("trials", str(10**20)))))
@example(case=("verify-bilinear", (("dim", str(10**20)),)))
@example(case=("verify-modulation", (("dim", str(10**20)),)))
@example(case=("verify-nonresonance", (("dim", str(10**20)),)))
@example(case=("simulate", (("dim", str(10**20)),)))
@example(case=("picard", (("dim", str(10**20)),)))
@example(case=("strichartz", (("dim", str(10**20)),)))
@example(case=("verify-shell", (("radius", "1e300"),)))
@example(case=("verify-shell", (("width", "1e-300"),)))
@example(case=("picard", (("iterations", str(10**20)),)))
@example(case=("verify-bilinear", (("trials", str(10**20)),)))
@example(case=("verify-trilinear", (("trials", str(10**20)),)))
@example(case=("verify-modulation", (("mass", "1e300"),)))
@example(case=("picard", (("sobolev", "1e300"),)))
def test_hostile_values_keep_the_exit_code_contract(case):
    # each exit code means what README says, no exception escapes, nothing
    # is written on exit 2 or 3, and a run stays in memory and time; a run
    # that reports a result made no NaN on the way, since a NaN that a max
    # or a comparison swallowed leaves a result that only looks valid
    command, changes = case
    run, sweep = (dict(section) for section in BASE_RUNS[command])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        if command == "variation":
            run["trajectory"] = write_trajectory_file(tmp / "a.npz")
        for key, value in changes:
            (sweep if key in _COMMANDS[command][2] else run)[key] = value
        lines = ["[run]"] + [f"{k} = {v}" for k, v in run.items()]
        lines += ["[sweep]"] + [f"{k} = {v}" for k, v in sweep.items()]
        cfg = write_config(tmp, "\n".join(lines) + "\n")
        out = tmp / "out"
        err = io.StringIO()
        handler = signal.signal(signal.SIGALRM, run_too_long)
        signal.setitimer(signal.ITIMER_REAL, HOSTILE_SECONDS)
        tracemalloc.start()
        try:
            with (
                mock.patch.object(grid, "_physical_memory", lambda: HOSTILE_MEMORY),
                contextlib.redirect_stderr(err),
                contextlib.redirect_stdout(io.StringIO()),
                warnings.catch_warnings(record=True) as caught,
            ):
                warnings.simplefilter("always")
                code = main([command, "--config", cfg, "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
        assert peak < HOSTILE_MEMORY + HOSTILE_SLACK
        if code in (2, 3):
            prefix = "configuration error:" if code == 2 else "numerical abort:"
            assert err.getvalue().startswith(prefix)
            assert not out.exists()
        else:
            # only picard and the verify-* commands check something that can fail
            verifies = command == "picard" or command.startswith("verify-")
            assert code == 0 or (code == 1 and verifies)
            assert not [w for w in caught if "invalid value" in str(w.message)]
            json.loads((out / "summary.json").read_text(), parse_constant=reject_constant)
            for name in read_json(out / "manifest.json")["outputs"]:
                if name.endswith(".jsonl"):
                    for line in (out / name).read_text().splitlines():
                        json.loads(line, parse_constant=reject_constant)
                elif name.endswith(".csv"):
                    rows = (out / name).read_text().splitlines()[1:]
                    assert all(math.isfinite(float(x)) for r in rows for x in r.split(","))


def test_verify_shell_seed_flag_overrides_config(tmp_path):
    cfg = write_config(
        tmp_path,
        "[run]\ndim = 3\nseed = 5\nsamples = 40000\n"
        "[sweep]\nradius = 32\nwidth = 0.05\ntube = 4\noffset_factor = 2.0\n",
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["verify-shell", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(
        ["verify-shell", "--config", cfg, "--seed", "99", "--out", str(out_b)]
    ) == 0
    rows_a = read_jsonl(out_a / "verify-shell.jsonl")
    rows_b = read_jsonl(out_b / "verify-shell.jsonl")
    assert rows_a[0]["seed"] == 5
    assert rows_b[0]["seed"] == 99
    assert rows_a[0]["details"]["volume"] != rows_b[0]["details"]["volume"]


def test_verify_modulation_command(tmp_path):
    cfg = write_config(
        tmp_path,
        "[run]\nmass = 1.0\nseed = 0\nmax_radius = 128\n[sweep]\ndimension = 2, 3\n",
    )
    out = tmp_path / "out"
    assert main(["verify-modulation", "--config", cfg, "--out", str(out)]) == 0
    rows = read_jsonl(out / "verify-modulation.jsonl")
    assert len(rows) == 2
    for row in rows:
        assert row["passed"]
        assert row["details"]["minimum"] >= 0.1


def test_verify_nonresonance_command(tmp_path):
    cfg = write_config(
        tmp_path, "[run]\ndim = 2\nseed = 0\nmasses = 1.0,1.0,2.0\nmax_radius = 32\n"
    )
    out = tmp_path / "out"
    assert main(["verify-nonresonance", "--config", cfg, "--out", str(out)]) == 0
    summary = read_json(out / "summary.json")
    assert not summary["condition_holds"]
    assert summary["minimum"] <= 1e-6


def test_verify_bilinear_command_small(tmp_path):
    cfg = write_config(
        tmp_path,
        "[run]\ndim = 3\nseed = 0\nmode = separated\ntrials = 1\n"
        "high_scale = 64\n[sweep]\nscales = 2, 4, 8\n",
    )
    out = tmp_path / "out"
    assert main(["verify-bilinear", "--config", cfg, "--out", str(out)]) == 0
    rows = read_jsonl(out / "verify-bilinear.jsonl")
    assert len(rows) == 1
    assert rows[0]["passed"]


def test_verify_bilinear_refuses_boxes_larger_than_memory(tmp_path, capsys, monkeypatch):
    # the integer mode boxes are refused on their own in
    # test_verify_bilinear_refuses_mode_boxes_larger_than_memory
    for name in ("_MODE_BOX_BYTES", "_MODE_BOX_FIXED_BYTES"):
        monkeypatch.setattr(harness, name, 0)
    monkeypatch.setattr(grid, "_physical_memory", lambda: 1024)
    cfg = write_config(
        tmp_path,
        "[run]\ndim = 3\nseed = 0\nmode = separated\ntrials = 1\n"
        "high_scale = 64\n[sweep]\nscales = 4\n",
    )
    out = tmp_path / "out"
    assert main(["verify-bilinear", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "bilinear padded boxes" in err and err.rstrip().endswith("out of memory")
    assert not out.exists()


@pytest.mark.parametrize(
    "mode, scale, side", [("separated", 4, 5), ("matched", 16, 15)], ids=["separated", "matched"]
)
def test_verify_bilinear_refuses_mode_boxes_larger_than_memory(
    mode, scale, side, tmp_path, capsys, monkeypatch
):
    # scale 4 against 16 cuts balls from 5^3 boxes, scale 16 caps from 15^3
    # boxes; one byte short of the two boxes, none is cut and nothing is written
    def refuse(*args, **kwargs):
        raise AssertionError("a box was cut")

    need = 2 * (harness._MODE_BOX_BYTES * side**3 + harness._MODE_BOX_FIXED_BYTES)
    monkeypatch.setattr(grid, "_physical_memory", lambda: need - 1)
    monkeypatch.setattr(harness, "_box_cut", refuse)
    cfg = write_config(
        tmp_path,
        f"[run]\ndim = 3\nseed = 0\nmode = {mode}\ntrials = 1\n"
        f"high_scale = 16\n[sweep]\nscales = {scale}\n",
    )
    out = tmp_path / "out"
    assert main(["verify-bilinear", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "two integer mode boxes" in err and err.rstrip().endswith("out of memory")
    assert not out.exists()


def test_verify_bilinear_caps_gauss_legendre_cases_on_trapezoid_samples(
    tmp_path, capsys, monkeypatch
):
    # the separated case at low scale 32 takes 24 Gauss-Legendre nodes for
    # the trapezoid's 41 samples; the cap counts the 41
    monkeypatch.setattr(harness, "_MAX_TIME_SAMPLES", 40)
    cfg = write_config(
        tmp_path,
        "[run]\ndim = 3\nseed = 0\nmode = separated\ntrials = 1\n"
        "high_scale = 256\n[sweep]\nscales = 32\n",
    )
    out = tmp_path / "out"
    assert main(["verify-bilinear", "--config", cfg, "--out", str(out)]) == 2
    assert "needs 41 samples, at most 40" in capsys.readouterr().err
    assert not out.exists()


def test_verify_trilinear_refuses_tables_larger_than_memory(tmp_path, capsys, monkeypatch):
    # with the mode boxes counted as nothing, the code table's bound and a
    # block of pairs are refused before any mode set or table is built
    def refuse(*args, **kwargs):
        raise AssertionError("a mode set or the code table was built")

    for name in ("_MODE_BOX_BYTES", "_MODE_BOX_FIXED_BYTES"):
        monkeypatch.setattr(harness, name, 0)
    monkeypatch.setattr(grid, "_physical_memory", lambda: 1024)
    monkeypatch.setattr(harness, "ball_mode_set", refuse)
    monkeypatch.setattr(np, "full", refuse)
    cfg = write_config(
        tmp_path,
        "[run]\ndim = 3\nseed = 0\nhigh_scale = 32\ntrials = 1\n"
        "[sweep]\nlow_scale = 2\n",
    )
    out = tmp_path / "out"
    assert main(["verify-trilinear", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "1 trilinear trials" in err and err.rstrip().endswith("out of memory")
    assert not out.exists()


def test_verify_trilinear_refuses_mode_boxes_larger_than_memory(
    tmp_path, capsys, monkeypatch
):
    # in dimension 5 at high scale 64 each cap is cut from a 39^5 box, 2.3 GB
    # at 26 bytes a point; no box is cut, not even the low ball's 5^5
    def refuse(*args, **kwargs):
        raise AssertionError("a box was cut")

    monkeypatch.setattr(grid, "_physical_memory", lambda: 2**30)
    monkeypatch.setattr(harness, "_box_cut", refuse)
    cfg = write_config(
        tmp_path,
        "[run]\ndim = 5\nseed = 0\nhigh_scale = 64\ntrials = 1\n"
        "[sweep]\nlow_scale = 1\n",
    )
    out = tmp_path / "out"
    assert main(["verify-trilinear", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "mode boxes and code tables" in err and err.rstrip().endswith("out of memory")
    assert not out.exists()


def test_verify_shell_refuses_strata_larger_than_memory(tmp_path, capsys, monkeypatch):
    def refuse(seed):
        raise AssertionError("the Monte Carlo drew")

    monkeypatch.setattr(grid, "_physical_memory", lambda: 2**30)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    cfg = write_config(tmp_path, "[run]\nseed = 0\nsamples = 100000000000\n")
    out = tmp_path / "out"
    assert main(["verify-shell", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "shell stratum" in err and err.rstrip().endswith("out of memory")
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify-modulation", "verify-nonresonance"])
def test_frequency_pairs_larger_than_memory_exit_2(
    command, tmp_path, capsys, monkeypatch
):
    # 12 ladder rungs squared times 1.25e11 draws: refused from the count alone
    def refuse(seed):
        raise AssertionError("the sweep drew")

    monkeypatch.setattr(grid, "_physical_memory", lambda: 2**30)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    cfg = write_config(
        tmp_path, "[run]\nseed = 0\nmax_radius = 1024\ndirections = 1000000000000\n"
    )
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "frequency pairs need" in err and err.rstrip().endswith("out of memory")
    assert not out.exists()


def test_strauss_tables_larger_than_memory_exit_2(tmp_path, capsys, monkeypatch):
    # 10**6 dimensions at 600 bytes each against 1 MiB: refused before any row
    def refuse(n):
        raise AssertionError("the table was built")

    monkeypatch.setattr(grid, "_physical_memory", lambda: 2**20)
    monkeypatch.setattr(cli, "strauss_exponent", refuse)
    cfg = write_config(tmp_path, "[run]\nmax_dimension = 1000000\n")
    out = tmp_path / "out"
    assert main(["strauss", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "1000000 dimensions need" in err and err.rstrip().endswith("out of memory")
    assert not out.exists()


def test_verify_trilinear_command_small(tmp_path):
    cfg = write_config(
        tmp_path,
        "[run]\ndim = 3\nseed = 0\nhigh_scale = 32\ntrials = 4\n"
        "[sweep]\nlow_scale = 2, 4\n",
    )
    out = tmp_path / "out"
    assert main(["verify-trilinear", "--config", cfg, "--out", str(out)]) == 0
    rows = read_jsonl(out / "verify-trilinear.jsonl")
    assert len(rows) == 2
    assert all(row["passed"] for row in rows)


@pytest.mark.parametrize("command", ["verify-shell", "verify-trilinear"])
def test_verify_defaults_run_in_three_dimensions(tmp_path, command):
    # the defaults alone make a valid run: the shell and bilinear checks need
    # dimension 3 or more, the trilinear check 2 or more
    out = tmp_path / "out"
    assert main([command, "--seed", "0", "--out", str(out)]) == 0
    assert read_json(out / "manifest.json")["config"]["options"]["dim"] == 3
    assert all(row["parameters"]["dim"] == 3 for row in read_jsonl(out / f"{command}.jsonl"))


def test_verify_bilinear_rejects_bad_mode(tmp_path):
    cfg = write_config(tmp_path, "[run]\nseed = 0\nmode = sideways\n")
    assert main(["verify-bilinear", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command, text, message",
    [
        # the shell geometry lives in dimension >= 3
        ("verify-shell", "[run]\ndim = 2\nseed = 0\n", "dimension"),
        ("verify-shell", "[run]\ndim = 3\nseed = 0\nsamples = -5\n", "sample"),
        # below 16 points in each of the 64 strata
        ("verify-shell", "[run]\ndim = 3\nseed = 0\nsamples = 1000\n", "sample"),
        ("verify-trilinear", "[run]\ndim = 3\nseed = 0\ntrials = 0\n", "trial"),
        # a horizon of 0 makes every ratio 0, which would pass
        (
            "verify-trilinear",
            "[run]\ndim = 3\nseed = 0\ninteraction_horizon = 0\n",
            "horizon",
        ),
        # on both sides of the mass dichotomy
        ("verify-nonresonance", "[run]\nseed = 0\ndim = 0\n", "dimension"),
        (
            "verify-nonresonance",
            "[run]\nseed = 0\ndim = 0\nmasses = 1, 1, 2.5\n",
            "dimension",
        ),
        ("verify-modulation", "[run]\nseed = 0\n[sweep]\ndimension = 0\n", "dimension"),
        ("strichartz", "[run]\ndim = 3\n[sweep]\nq = 0\n", "q must be"),
        # the radius ladder starts at 1
        ("verify-modulation", "[run]\nseed = 0\nmax_radius = 0\n", "max_radius"),
        ("verify-modulation", "[run]\nseed = 0\nmax_radius = 0.5\n", "max_radius"),
        (
            "verify-nonresonance",
            "[run]\nseed = 0\nmasses = 1, 1, 1\nmax_radius = 0.5\n",
            "max_radius",
        ),
        (
            "verify-nonresonance",
            "[run]\nseed = 0\nmasses = 1, 1, 3\nmax_radius = -5\n",
            "max_radius",
        ),
        # every rung pair draws at least one direction
        ("verify-modulation", "[run]\nseed = 0\ndirections = 0\n", "directions"),
    ],
    ids=[
        "shell-dim", "shell-samples", "shell-sample-floor", "trilinear-trials",
        "trilinear-horizon", "nonresonance-dim", "nonresonance-dim-failure-side",
        "modulation-dim", "strichartz-q", "modulation-radius-0",
        "modulation-radius-half", "nonresonance-radius",
        "nonresonance-radius-failure-side", "modulation-directions",
    ],
)
def test_library_value_errors_exit_as_config_errors(
    tmp_path, capsys, command, text, message
):
    # a bad parameter the library rejects must come back as a clean
    # configuration error, not a traceback or a run on other values
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
