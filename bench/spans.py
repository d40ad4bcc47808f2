"""Span recording for the traced benchmark run, and the self-time arithmetic.

A span is one call into a layer: its name, start and end on the child's
``perf_counter`` clock, the id of the span that was open when it started
(its parent), and the run id of the CLI invocation it belongs to. Spans and
work counters are kept in memory and written out when the invocation ends.

Spans come from wrapping public functions in the namespace of the module
that *calls* them, so nothing in the program itself is edited: the name
``evaluate_nonlinearity`` in ``halfwave.dynamics`` is replaced by a timing
wrapper, and every call the stepper, the Picard sweep and the energy
functional make through that name is recorded as a ``system`` span.

Standard library only: ``run.py`` imports this module without numpy.
"""

import functools
import importlib
import inspect
import time
from collections import Counter, namedtuple

Span = namedtuple("Span", "id parent name start end run")


def _trajectory_bytes(traj):
    """Bytes of the plus and minus arrays save_trajectory writes (complex128)."""
    cells = 1
    for n in traj.lattice.spec.shape:
        cells *= n
    return 2 * 16 * traj.times.size * traj.n_components * cells


def _evolve_steps(args, result):
    return {"dynamics.evolve.steps": round(float(result.times[-1]) / args["dt"])}


def _picard_sweeps(args, result):
    return {"dynamics.picard_iterate.sweeps": len(result.successive_distances)}


def _shell_samples(args, result):
    return {"harness.shell_intersection_volume.samples": args["samples"]}


def _saved_bytes(args, result):
    return {"cli.save_trajectory.bytes": _trajectory_bytes(args["traj"])}


# (module whose namespace holds the name, attribute, span name, work counter)
TARGETS = (
    ("halfwave.cli", "main", "cli.main", None),
    ("halfwave.cli", "load_config", "cli.load_config", None),
    ("halfwave.cli", "save_trajectory", "cli.save_trajectory", _saved_bytes),
    ("halfwave.cli", "load_trajectory", "cli.load_trajectory", None),
    ("halfwave.cli", "evolve", "dynamics.evolve", _evolve_steps),
    ("halfwave.cli", "picard_iterate", "dynamics.picard_iterate", _picard_sweeps),
    ("halfwave.cli", "scattering_state", "dynamics.scattering_state", None),
    ("halfwave.cli", "conserved_energy", "dynamics.conserved_energy", None),
    ("halfwave.cli", "sobolev_norm", "grid.sobolev_norm", None),
    ("halfwave.cli", "v2_pm_norm", "variation.v2_pm_norm", None),
    ("halfwave.cli", "xs_proxy_norm", "variation.xs_proxy_norm", None),
    (
        "halfwave.cli",
        "shell_intersection_volume",
        "harness.shell_intersection_volume",
        _shell_samples,
    ),
    ("halfwave.cli", "verify_trilinear", "harness.verify_trilinear", None),
    ("halfwave.cli", "verify_modulation_bound", "harness.verify_modulation_bound", None),
    (
        "halfwave.cli",
        "verify_nonresonance_bound",
        "harness.verify_nonresonance_bound",
        None,
    ),
    ("halfwave.dynamics", "evaluate_nonlinearity", "system.evaluate_nonlinearity", None),
    ("halfwave.dynamics", "sobolev_norm", "grid.sobolev_norm", None),
    ("halfwave.dynamics", "free_propagate", "grid.free_propagate", None),
    ("halfwave.system", "inverse_transform", "grid.inverse_transform", None),
    ("halfwave.variation", "lp_weights", "grid.lp_weights", None),
    ("halfwave.variation", "p_variation", "variation.p_variation", None),
    ("halfwave.variation", "increment_table", "variation.increment_table", None),
    ("halfwave.harness", "verify_bilinear", "harness.verify_bilinear", None),
)


class Recorder:
    """In-memory spans and work counters of one CLI invocation."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.counters = Counter()
        self._open = []
        self._next_id = 0

    def wrap(self, name, fn, count=None):
        """Return fn timed as a span called name; count(args, result) adds work."""
        signature = inspect.signature(fn) if count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._open[-1] if self._open else None
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans.append(Span(span_id, parent, name, start, end, self.run_id))
            if count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counters.update(count(bound.arguments, result))
            return result

        return traced

    def instrument(self):
        """Replace every TARGETS name in its calling module by a traced wrapper."""
        for module_name, attr, name, count in TARGETS:
            module = importlib.import_module(module_name)
            setattr(module, attr, self.wrap(name, getattr(module, attr), count))

    def to_json(self):
        return {
            "run": self.run_id,
            "spans": [list(s) for s in self.spans],
            "counters": dict(self.counters),
        }


def spans_from_json(payload):
    return [Span(*row) for row in payload["spans"]]


def covered_length(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the given intervals."""
    covered = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            covered += b - a
            reach = b
    return covered


def self_times(spans):
    """(run, span id) -> duration minus the part covered by its child spans.

    Span ids restart in every invocation, so the run id is part of the key.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault((s.run, s.parent), []).append((s.start, s.end))
    return {
        (s.run, s.id): (s.end - s.start)
        - covered_length(children.get((s.run, s.id), ()), s.start, s.end)
        for s in spans
    }


def layer_totals(spans):
    """Span name -> (calls, inclusive seconds, self seconds), over all runs."""
    selfs = self_times(spans)
    totals = {}
    for s in spans:
        calls, incl, own = totals.get(s.name, (0, 0.0, 0.0))
        totals[s.name] = (calls + 1, incl + (s.end - s.start), own + selfs[(s.run, s.id)])
    return totals
