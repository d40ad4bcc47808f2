"""tools/compare_outputs.py on trees whose workload is one small strauss run."""

import importlib.util
from pathlib import Path

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
