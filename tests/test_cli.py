"""End-to-end tests for the command-line runner."""

import json
import math

import numpy as np
import pytest

from halfwave.cli import (
    ConfigError,
    load_config,
    load_trajectory,
    main,
    save_trajectory,
)
from halfwave.harness import strauss_exponent


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
    assert config.seed is None


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
    assert config.seed == 3


def test_load_config_sweep_parsing(tmp_path):
    path = write_config(
        tmp_path, "[run]\nseed = 1\n[sweep]\nradius = 32, 64\nwidth = 0.05\n"
    )
    config = load_config("verify-shell", config_path=path)
    assert config.sweeps["radius"] == (32.0, 64.0)
    assert config.sweeps["width"] == (0.05,)


def test_load_config_rejects_empty_sweep(tmp_path):
    path = write_config(tmp_path, "[run]\nseed = 1\n[sweep]\nradius = ,\n")
    with pytest.raises(ConfigError):
        load_config("verify-shell", config_path=path)


def test_variation_requires_existing_trajectory(tmp_path):
    path = write_config(tmp_path, "[run]\ntrajectory = /nonexistent/t.npz\n")
    with pytest.raises(ConfigError):
        load_config("variation", config_path=path)


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
    from halfwave.dynamics import evolve
    from halfwave.grid import (
        FrequencyLattice,
        GridSpec,
        SpectralField,
        gaussian_bump,
    )
    from halfwave.dynamics import CauchyData
    from halfwave.system import scalar_system

    lattice = FrequencyLattice(GridSpec(1, 16.0, 32))
    zero = SpectralField(lattice, np.zeros(lattice.spec.shape, dtype=complex))
    data = CauchyData((gaussian_bump(lattice, 0.01),), (zero,))
    traj = evolve(data, scalar_system(1.0, 0.5), 1.0, 0.05, 4)
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


def test_verify_shell_deterministic_outputs(tmp_path):
    cfg = write_config(
        tmp_path,
        "[run]\ndim = 3\nseed = 5\nsamples = 60000\n"
        "[sweep]\nradius = 32\nwidth = 0.05, 0.1\ntube = 4\noffset_factor = 2.0\n",
    )
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["verify-shell", "--config", cfg, "--out", str(out_a)]) == 0
    assert main(["verify-shell", "--config", cfg, "--out", str(out_b)]) == 0
    record_a = (out_a / "verify-shell.jsonl").read_bytes()
    record_b = (out_b / "verify-shell.jsonl").read_bytes()
    assert record_a == record_b
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()


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


def test_library_value_errors_exit_as_config_errors(tmp_path, capsys):
    # The shell geometry lives in dimension >= 3; leaving dim at its default
    # of 1 must come back as a clean configuration error, not a traceback.
    cfg = write_config(tmp_path, "[run]\nseed = 0\n")
    out = tmp_path / "out"
    assert main(["verify-shell", "--config", cfg, "--out", str(out)]) == 2
    assert "dimension" in capsys.readouterr().err
    assert not out.exists()
