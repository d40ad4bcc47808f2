"""tools/compare_outputs.py on trees whose workload is one small strauss run."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    path = ROOT / "tools" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def make_tree(root, max_dimension):
    """A checkout of this package whose only workload runs strauss once."""
    (root / "bench").mkdir(parents=True)
    (root / "src").symlink_to(ROOT / "src")
    text = (ROOT / "bench" / "workloads.py").read_text()
    text += (
        "\n\nWORKLOADS = {'tiny': lambda seed, out_dir: "
        f"[Invocation('strauss', 'strauss', {{'max_dimension': {max_dimension}}})]}}\n"
    )
    (root / "bench" / "workloads.py").write_text(text)
    return str(root)


def test_identical_trees_match_apart_from_clock_and_paths(tmp_path, capsys):
    tool = load_tool()
    a, b = make_tree(tmp_path / "a", 3), make_tree(tmp_path / "b", 3)
    assert tool.main([a, b, "--seeds", "0"]) == 0
    out = capsys.readouterr().out
    assert "1 invocations per tree, 2 identical files" in out
    assert out.rstrip().endswith("identical")


def test_a_changed_output_or_a_failed_run_is_a_difference(tmp_path, capsys):
    tool = load_tool()
    a = make_tree(tmp_path / "a", 3)
    assert tool.main([a, make_tree(tmp_path / "b", 4), "--seeds", "0"]) == 1
    out = capsys.readouterr().out
    assert "strauss/strauss.jsonl: differs" in out
    assert "strauss/summary.json: differs" in out
    # max_dimension 0 exits 2 on both sides and writes nothing
    c, d = make_tree(tmp_path / "c", 0), make_tree(tmp_path / "d", 0)
    assert tool.main([c, d, "--seeds", "0"]) == 1
    assert "strauss exits 2" in capsys.readouterr().out


def write_run(root, summary, rows):
    """One picard invocation's outputs: summary, data file and manifest."""
    out = root / "picard"
    out.mkdir(parents=True)
    (out / "summary.json").write_text(json.dumps(summary))
    (out / "picard.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    manifest = {"outputs": ["picard.jsonl", "summary.json"], "summary": summary}
    (out / "manifest.json").write_text(json.dumps(manifest))
    return root


def test_rtol_mode_compares_numbers_at_the_workload_tolerances(tmp_path, capsys):
    tool = load_tool()
    module = SimpleNamespace(
        DEFAULT_RTOL=1e-6, RTOL={("picard", "contraction_factor"): None}
    )
    rows = [
        {"iteration": 1, "distance": 1e-7, "ratio": 0.0},
        {"iteration": 2, "distance": 1e-11, "ratio": 1e-4},
        {"iteration": 3, "distance": 1e-18, "ratio": 1e-7},
    ]
    summary = {"contraction_factor": 1e-4, "diverged": False, "iterations": 3}
    parent = write_run(tmp_path / "a", summary, rows)

    def compare(name, summary, rows):
        change = write_run(tmp_path / name, summary, rows)
        return tool.compare_runs(parent, change, [module, module], {"picard": "picard"})

    # a distance of rounding noise moves by far more than 1e-6 of itself, but
    # the series is compared at its own scale, the first distance; the ratios
    # take the tolerance of contraction_factor, None: shown, not compared
    moved = [dict(r) for r in rows]
    moved[2].update(distance=1.5e-18, ratio=1.5e-7)
    moved[1]["distance"] = 1e-11 * (1 + 1e-9)
    factor = dict(summary, contraction_factor=1e-4 * (1 + 1e-3))
    assert compare("b", factor, moved) == ([], 0)
    out = capsys.readouterr().out
    assert "picard/picard.jsonl: ratio moves by 0.0005, left to an invariant" in out
    assert "picard/picard.jsonl: largest relative difference 5e-12 (distance)" in out
    assert "picard/summary.json: contraction_factor moves by 0.000999" in out
    # past the tolerance, a changed flag and a changed count are differences
    moved[0]["distance"] = 1e-7 * (1 + 2e-6)
    problems, _ = compare("c", dict(summary, diverged=True), moved)
    assert problems == [
        "picard/picard.jsonl: distance moves by 2e-06 > 1e-06",
        "picard/summary.json: diverged differs beyond rounding",
    ]
    problems, _ = compare("d", summary, rows[:2])
    assert problems[0] == "picard/picard.jsonl: iteration differs beyond rounding"


def test_rtol_mode_runs_both_trees(tmp_path, capsys):
    tool = load_tool()
    a, b = make_tree(tmp_path / "a", 3), make_tree(tmp_path / "b", 3)
    assert tool.main([a, b, "--seeds", "0", "--rtol"]) == 0
    assert capsys.readouterr().out.rstrip().endswith("agree within tolerance")
    c = make_tree(tmp_path / "c", 4)
    assert tool.main([a, c, "--seeds", "0", "--rtol"]) == 1
    out = capsys.readouterr().out
    assert "strauss/strauss.jsonl: dimension differs beyond rounding" in out
