"""Span tracer for qladder's layers, installed from outside the package.

Each traced layer is a public function that the drivers call through a
module attribute. ``ensemble``, ``experiments`` and ``cli`` bind those
functions with ``from .x import y``, so the wrapper replaces the name in the
module that calls it (``qladder.ensemble.eigendecompose``), not only where it
is defined. ``src/`` is never edited.

Spans stay in memory until :meth:`Tracer.summarize`, which the benchmark
calls after each traced iteration, outside the timed region.
"""

from __future__ import annotations

import itertools
import sys
import threading
from time import perf_counter

# (module whose attribute is replaced, attribute, layer name)
TARGETS = (
    ("qladder.cli", "main", "cli.main"),
    ("qladder.cli", "cmd_fig1", "cli.cmd_fig1"),
    ("qladder.cli", "cmd_fig2", "cli.cmd_fig2"),
    ("qladder.cli", "transfer_sweep", "experiments.transfer_sweep"),
    ("qladder.cli", "leakage_trace", "experiments.leakage_trace"),
    ("qladder.experiments", "run_ensemble", "ensemble.run_ensemble"),
    ("qladder.ensemble", "derive_stream", "ensemble.derive_stream"),
    ("qladder.ensemble", "sample_realization", "model.sample_realization"),
    ("qladder.ensemble", "build_effective", "hamiltonian.build_effective"),
    ("qladder.ensemble", "bell_minus_state", "hamiltonian.bell_minus_state"),
    ("qladder.ensemble", "eigendecompose", "spectral.eigendecompose"),
    ("qladder.ensemble", "evolve", "spectral.evolve"),
    ("qladder.ensemble", "evolve_series", "spectral.evolve_series"),
    ("qladder.ensemble", "expectation", "spectral.expectation"),
    ("qladder.ensemble", "concurrence", "observables.concurrence"),
    ("qladder.ensemble", "branch_occupation", "observables.branch_occupation"),
)

# Not a wrapped function: the span of one realization, from its
# derive_stream call to the end of the last span it caused on that thread.
# Its self time is the per-realization glue in ensemble._measure_one.
REALIZATION = "ensemble.realization"
RUN_ENSEMBLE = "ensemble.run_ensemble"
DERIVE_STREAM = "ensemble.derive_stream"

LAYERS = tuple(layer for _, _, layer in TARGETS) + (REALIZATION,)


def _union_length(intervals) -> float:
    total, covered_to = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > covered_to:
            total += end - max(start, covered_to)
            covered_to = end
    return total


class Tracer:
    """Wraps the layer functions and records one span per call.

    A span is ``(layer, start, end, self_s, realization, depth)``. Self time
    is the span's duration minus that of its children on the same thread.
    A ``derive_stream`` call opens a realization on its thread; the spans
    that follow on that thread belong to it until the next one. A
    ``run_ensemble`` call's self time is its duration minus the union of
    its realizations' intervals, on whichever threads they ran.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._saved: list[tuple] = []

    def install(self) -> list[str]:
        """Wrap every target present; returns the layers that were absent."""
        missing = []
        for module_name, attr, layer in TARGETS:
            module = sys.modules.get(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                missing.append(layer)
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, layer))
        return missing

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, layer: str):
        local, spans, ids = self._local, self.spans, self._ids
        opens_realization = layer == DERIVE_STREAM
        closes_realizations = layer == RUN_ENSEMBLE

        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if opens_realization:
                local.realization = (next(ids), len(stack))
            elif closes_realizations:
                local.realization = None
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                if closes_realizations:
                    local.realization = None
                realization = getattr(local, "realization", None)
                spans.append((layer, start, end, end - start - children[0], realization, len(stack)))

        return traced

    def summarize(self) -> tuple[dict, float]:
        """Reduce and clear the recorded spans.

        Returns ``({layer: (calls, self_s, durations_s)}, parallel_overlap_s)``.
        The overlap is the time realizations ran concurrently with each
        other; the sum of all self times minus it equals the root span.
        """
        spans = list(self.spans)
        del self.spans[:]
        calls = dict.fromkeys(LAYERS, 0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        durations: dict[str, list[float]] = {layer: [] for layer in LAYERS}
        realizations: dict[int, list[float]] = {}
        ensembles = []

        for layer, start, end, own, realization, depth in spans:
            if realization is not None:
                rid, base_depth = realization
                span = realizations.setdefault(rid, [start, end, 0.0])
                span[0] = min(span[0], start)
                span[1] = max(span[1], end)
                if depth == base_depth:
                    span[2] += end - start
            if layer == RUN_ENSEMBLE:
                ensembles.append((start, end))
                continue
            calls[layer] += 1
            self_s[layer] += own
            durations[layer].append(end - start)

        intervals = [(start, end) for start, end, _ in realizations.values()]
        for start, end, direct in realizations.values():
            calls[REALIZATION] += 1
            self_s[REALIZATION] += end - start - direct
            durations[REALIZATION].append(end - start)
        for start, end in ensembles:
            inside = [iv for iv in intervals if start <= iv[0] <= end]
            calls[RUN_ENSEMBLE] += 1
            self_s[RUN_ENSEMBLE] += end - start - _union_length(inside)
            durations[RUN_ENSEMBLE].append(end - start)

        overlap = sum(end - start for start, end in intervals) - _union_length(intervals)
        return {layer: (calls[layer], self_s[layer], durations[layer]) for layer in LAYERS}, overlap
