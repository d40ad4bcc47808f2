"""End-to-end tests for the command-line runner."""

import io
import json
import math
import re
import zipfile
from pathlib import Path

import numpy as np
import pytest

from halfwave import cli, grid
from halfwave.cli import (
    _COMMANDS,
    ConfigError,
    load_config,
    load_trajectory,
    main,
    save_trajectory,
)
from halfwave.harness import strauss_exponent

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
        "dim": 1,
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
    assert np.array_equal(loaded.halves, traj.halves)
    assert loaded.masses == traj.masses


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
    assert traj.halves.shape == (2, 1, 2, 8)
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
    with pytest.raises(ConfigError):
        load_trajectory(write_trajectory_file(tmp_path / "bad.npz", **changes))


def test_load_trajectory_rejects_non_archive(tmp_path):
    junk = tmp_path / "junk.npz"
    junk.write_text("not an archive\n")
    with pytest.raises(ConfigError):
        load_trajectory(junk)


def test_variation_refuses_a_trajectory_larger_than_memory(tmp_path, capsys, monkeypatch):
    # the size comes from the .npy header of halves, before any data is read:
    # the 2 x 1 x 2 x 8 complex halves of the valid file take 512 bytes
    store = write_trajectory_file(tmp_path / "ok.npz")
    cfg = write_config(tmp_path, f"[run]\ntrajectory = {store}\n")
    out = tmp_path / "out"
    monkeypatch.setattr(grid, "_physical_memory", lambda: 511)
    assert main(["variation", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "physical memory" in err and err.rstrip().endswith("out of memory")
    assert not out.exists()
    monkeypatch.setattr(grid, "_physical_memory", lambda: 512)
    assert load_trajectory(store).halves.shape == (2, 1, 2, 8)
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


def test_verify_bilinear_rejects_bad_mode(tmp_path):
    cfg = write_config(tmp_path, "[run]\nseed = 0\nmode = sideways\n")
    assert main(["verify-bilinear", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "command, text, message",
    [
        # the shell geometry lives in dimension >= 3, and dim defaults to 1
        ("verify-shell", "[run]\nseed = 0\n", "dimension"),
        ("verify-shell", "[run]\ndim = 3\nseed = 0\nsamples = -5\n", "sample"),
        # below 16 points in each of the 64 strata
        ("verify-shell", "[run]\ndim = 3\nseed = 0\nsamples = 1000\n", "sample"),
        ("verify-trilinear", "[run]\ndim = 3\nseed = 0\ntrials = 0\n", "trial"),
        ("verify-modulation", "[run]\nseed = 0\n[sweep]\ndimension = 0\n", "dimension"),
        ("strichartz", "[run]\ndim = 3\n[sweep]\nq = 0\n", "q must be"),
    ],
    ids=[
        "shell-dim", "shell-samples", "shell-sample-floor", "trilinear-trials", "modulation-dim",
        "strichartz-q",
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
