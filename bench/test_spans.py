"""Tests of the span arithmetic: python3 -m pytest bench"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from spans import Span  # noqa: E402


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([], 0.0, 10.0) == 0.0
    assert spans.covered_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    # intervals reaching outside the parent count only inside it
    assert spans.covered_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == 2.0
    # empty and reversed intervals cover nothing
    assert spans.covered_length([(4.0, 4.0), (6.0, 5.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        Span(0, None, "cli.main", 0.0, 10.0, "a"),
        Span(1, 0, "dynamics.evolve", 1.0, 7.0, "a"),
        Span(2, 1, "system.evaluate_nonlinearity", 2.0, 3.0, "a"),
        Span(3, 1, "system.evaluate_nonlinearity", 4.0, 6.5, "a"),
        Span(4, 2, "grid.inverse_transform", 2.0, 2.5, "a"),
        Span(5, 0, "cli.save_trajectory", 8.0, 9.0, "a"),
    ]
    own = spans.self_times(tree)
    assert own[("a", 0)] == 10.0 - 6.0 - 1.0
    assert own[("a", 1)] == 6.0 - 1.0 - 2.5
    assert own[("a", 2)] == 0.5
    assert own[("a", 4)] == 0.5
    # self times partition the root span
    assert math.isclose(sum(own.values()), 10.0)


def test_span_ids_are_scoped_by_run():
    # every invocation numbers its spans from 0, so id 1 of run "b" is not a
    # child of span 0 of run "a"
    tree = [
        Span(0, None, "cli.main", 0.0, 4.0, "a"),
        Span(0, None, "cli.main", 0.0, 4.0, "b"),
        Span(1, 0, "dynamics.evolve", 1.0, 3.0, "b"),
    ]
    own = spans.self_times(tree)
    assert own[("a", 0)] == 4.0
    assert own[("b", 0)] == 2.0
    totals = spans.layer_totals(tree)
    assert totals["cli.main"] == (2, 8.0, 6.0)
    assert totals["dynamics.evolve"] == (1, 2.0, 2.0)


def test_recorder_nests_spans_and_counts_work():
    recorder = spans.Recorder("r")

    def inner(x, scale=2):
        return x * scale

    def outer(x):
        return wrapped_inner(x) + wrapped_inner(x, scale=3)

    wrapped_inner = recorder.wrap("inner", inner, lambda args, result: {"work": args["scale"]})
    wrapped_outer = recorder.wrap("outer", outer)
    assert wrapped_outer(1) == 5
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s.name, []).append(s)
    (root,) = by_name["outer"]
    assert root.parent is None
    assert [s.parent for s in by_name["inner"]] == [root.id, root.id]
    assert recorder.counters["work"] == 5
    payload = recorder.to_json()
    assert spans.spans_from_json(payload) == recorder.spans
