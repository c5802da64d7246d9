"""In-memory span tracer and the per-layer metrics derived from its spans.

A span is ``(name, start, end, parent)``: ``start``/``end`` are
``time.perf_counter()`` readings and ``parent`` is the index of the span
that was open when this one began (``-1`` for a root).  The tracer wraps
module attributes, so it sees every call that looks the function up
through that module at call time.  It imports nothing but the standard
library, so that loading it does not change what an untraced import of
``steepen`` costs.
"""

from __future__ import annotations

import functools
import time

# (span name, module attribute) pairs wrapped in a traced run, keyed by the
# module name.  ``derivative`` is imported by name into ``solver`` and
# ``riccati``, and ``make_initial`` into ``cli``, so those bindings are
# wrapped as well as the defining module's.
WRAPPED = {
    "cli": [("cli.run_pipeline", "run_pipeline"), ("config.make_initial", "make_initial")],
    "solver": [("solver.evolve", "evolve"), ("fields.derivative", "derivative")],
    "riccati": [
        ("fields.derivative", "derivative"),
        ("riccati.diagnostics", "diagnostics"),
        ("riccati.residual", "residual"),
    ],
    "fields": [
        ("fields.derivative", "derivative"),
        ("fields.validate_assumptions", "validate_assumptions"),
    ],
    "charpath": [("charpath.trace", "trace"), ("charpath.sample_along", "sample_along")],
    "detector": [
        ("detector.thresholds", "thresholds"),
        ("detector.certify_thm14", "certify_thm14"),
        ("detector.certify_thm15", "certify_thm15"),
        ("detector.detect_blowup", "detect_blowup"),
    ],
    "svg": [("svg.line_plot", "line_plot")],
}

CERTIFY_SPANS = ("detector.thresholds", "detector.certify_thm14", "detector.certify_thm15")


class Tracer:
    """Records spans and per-layer counts in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict = {
            "solver.steps": 0,
            "solver.snapshots": 0,
            "solver.cells": 0,
            "fields.derivative.bytes": 0,
            "charpath.curve_nodes": 0,
        }
        self.states: dict = {}  # id -> state, keeps each state alive so ids stay unique
        self._open: list[int] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span that was timed outside the tracer."""
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, start, end, parent])

    def wrap(self, module, attr: str, name: str) -> None:
        fn = getattr(module, attr)
        observe = getattr(self, "_observe_" + attr, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append([name, 0.0, 0.0, parent])
            self._open.append(idx)
            self.spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                observe(args, result)
            return result

        setattr(module, attr, traced)

    def install(self, modules: dict) -> None:
        """Wrap every function named in :data:`WRAPPED` in ``modules``."""
        for mod_name, entries in WRAPPED.items():
            for name, attr in entries:
                self.wrap(modules[mod_name], attr, name)

    def _observe_evolve(self, args, traj) -> None:
        self.counts["solver.steps"] += traj.steps_taken
        self.counts["solver.snapshots"] += len(traj.snapshots)
        self.counts["solver.cells"] += traj.steps_taken * traj.grid.n

    def _observe_derivative(self, args, out) -> None:
        # computed, not measured: one input array read plus one output written
        self.counts["fields.derivative.bytes"] += getattr(args[0], "nbytes", 0) + out.nbytes

    def _observe_trace(self, args, curve) -> None:
        self.counts["charpath.curve_nodes"] += len(curve.t)

    def _observe_diagnostics(self, args, fields) -> None:
        self.states[id(args[0])] = args[0]


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it covered by its child spans."""
    children: dict = {}
    for _, start, end, parent in spans:
        children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(i, ())):
            lo = max(c_start, reach)
            hi = min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def subtree(spans, root: int) -> list[int]:
    """Indices of ``root`` and every span below it (parents precede children)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
    return sorted(inside)


def _total(spans, names) -> tuple[float, int]:
    """Summed duration and count of spans with one of ``names``, not nested in one another."""
    names = (names,) if isinstance(names, str) else tuple(names)
    total = 0.0
    calls = 0
    for name, start, end, parent in spans:
        if name not in names:
            continue
        calls += 1
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            total += end - start
    return total, calls


def _under(spans, name: str, ancestor: str) -> int:
    """Number of spans called ``name`` with an ancestor called ``ancestor``."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        count += p >= 0
    return count


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run, as ``{name: (value, unit)}``.

    ``.s`` is the summed inclusive time of a function's spans, ``.self_s``
    excludes time in traced callees.  ``run_s`` is the traced
    ``run_pipeline`` duration, and ``unaccounted_s`` is what the self
    times of its subtree leave of it (zero up to rounding).
    """
    spans = tracer.spans
    counts = tracer.counts
    selfs = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s[0] == "cli.run_pipeline" and s[3] < 0]
    if len(roots) != 1:
        raise ValueError(f"expected one top-level cli.run_pipeline span, found {len(roots)}")
    root = roots[0]
    run_s = spans[root][2] - spans[root][1]
    unaccounted = run_s - sum(selfs[i] for i in subtree(spans, root))

    setup_config = sum(e - s for n, s, e, p in spans if p < 0 and n.startswith("config."))
    import_s = sum(e - s for n, s, e, p in spans if p < 0 and n == "import")
    evolve_s, _ = _total(spans, "solver.evolve")
    deriv_s, deriv_calls = _total(spans, "fields.derivative")
    diag_s, diag_calls = _total(spans, "riccati.diagnostics")
    trace_s, trace_calls = _total(spans, "charpath.trace")
    steps = counts["solver.steps"]

    return {
        "import.s": (import_s, "s"),
        "config.s": (setup_config, "s"),
        "solver.evolve.s": (evolve_s, "s"),
        "solver.steps": (steps, "count"),
        "solver.snapshots": (counts["solver.snapshots"], "count"),
        "solver.evolve.us_per_step": (evolve_s / steps * 1e6 if steps else 0.0, "us"),
        "solver.evolve.ns_per_cell_step": (
            evolve_s / counts["solver.cells"] * 1e9 if counts["solver.cells"] else 0.0, "ns"),
        "fields.derivative.calls": (deriv_calls, "count"),
        "fields.derivative.calls_per_step": (
            _under(spans, "fields.derivative", "solver.evolve") / steps if steps else 0.0, "count"),
        "fields.derivative.s": (deriv_s, "s"),
        "fields.derivative.us_per_call": (deriv_s / deriv_calls * 1e6 if deriv_calls else 0.0, "us"),
        "fields.derivative.bytes_per_call_computed": (
            counts["fields.derivative.bytes"] / deriv_calls if deriv_calls else 0.0, "B"),
        "fields.derivative.gb_per_s_computed": (
            counts["fields.derivative.bytes"] / deriv_s / 1e9 if deriv_s else 0.0, "GB/s"),
        "charpath.trace.s": (trace_s, "s"),
        "charpath.trace.calls": (trace_calls, "count"),
        "charpath.curve_nodes": (counts["charpath.curve_nodes"], "count"),
        "charpath.sample_along.s": (_total(spans, "charpath.sample_along")[0], "s"),
        "riccati.residual.s": (_total(spans, "riccati.residual")[0], "s"),
        "riccati.diagnostics.calls": (diag_calls, "count"),
        "riccati.diagnostics.states": (len(tracer.states), "count"),
        "riccati.diagnostics.s": (diag_s, "s"),
        "detector.certify.s": (_total(spans, CERTIFY_SPANS)[0], "s"),
        "detector.detect_blowup.s": (_total(spans, "detector.detect_blowup")[0], "s"),
        "fields.validate_assumptions.s": (_total(spans, "fields.validate_assumptions")[0], "s"),
        "svg.line_plot.s": (_total(spans, "svg.line_plot")[0], "s"),
        "cli.run_pipeline.self_s": (selfs[root], "s"),
        "trace.run_s": (run_s, "s"),
        "trace.unaccounted_s": (unaccounted, "s"),
    }
