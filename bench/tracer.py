"""Spans and counters around gridrank's public functions, installed from
outside the package.

A span is ``[name, start, end, parent]`` (parent is the index of the
enclosing span, -1 at the top). Spans are kept in memory and written out
when the run ends. A layer's self time is its spans' durations minus the
time their direct children cover.

Every module attribute that refers to a wrapped function is patched, so
aliases such as ``training.forward`` or ``model.blend`` are covered as
well as the defining module's own name. Spans and counts are recorded only
inside a root span that the benchmark opens around a timed call; calls
made outside the timed phases pass straight through.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

from gridrank import adjacency, autodiff, crossk, grid, losses, metrics, model, sampling, training

MODULES = (adjacency, autodiff, crossk, grid, losses, metrics, model, sampling, training)

# (module, function) pairs timed as spans; each span is named "<module>.<function>".
SPANNED = (
    (grid, "load_grid"),
    (model, "load_checkpoint"), (model, "forward"), (model, "predictions_for"),
    (adjacency, "dynamic_adjacency"), (adjacency, "blend"), (adjacency, "pearson_static"),
    (autodiff, "backward"),
    (losses, "hybrid_objective"), (losses, "apply_importance"),
    (training, "train"), (training, "warmup_loss"), (training, "adam_step"),
    (sampling, "refresh"),
    (metrics, "metric_report"), (metrics, "l_ndcg"), (metrics, "ndcg_at_k"),
    (crossk, "daily_average_curve"), (crossk, "csr_envelope"),
)

COUNTS = (
    "model.forward_calls", "model.predictions_for_windows", "adjacency.calls",
    "autodiff.backward_calls", "autodiff.op_calls", "losses.hybrid_objective_calls",
    "losses.positives_drawn", "losses.positives_total", "training.adam_steps",
    "sampling.refresh_calls", "metrics.l_ndcg_calls", "crossk.cross_k_calls",
)


def autodiff_ops() -> list[str]:
    """Public autodiff functions that put a node on the tape: every one whose
    body calls ``_result``. Constructors, ``backward`` and the checkers are
    left out; an op that delegates to another (``sub`` to ``add``) counts
    both calls."""
    return sorted(name for name, value in vars(autodiff).items()
                  if not name.startswith("_") and callable(value)
                  and getattr(value, "__module__", None) == autodiff.__name__
                  and "_result" in getattr(getattr(value, "__code__", None), "co_names", ()))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    @contextlib.contextmanager
    def root(self, name: str):
        """A span opened by the benchmark itself around a timed call."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self.stack.pop()

    def _inside(self, name: str) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0] == name

    def _span_wrapper(self, name: str, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.stack or (name == "model.forward" and self._inside("model.predictions_for")):
                return fn(*args, **kwargs)
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if hook is not None:
                hook(self.counts, result)
            return result

        return wrapper

    def _count_wrapper(self, key: str, fn):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack:
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------

    def _patch_everywhere(self, original, replacement) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, replacement)

    def install(self) -> None:
        for module, name in SPANNED:
            original = getattr(module, name)
            self._patch_everywhere(original, self._span_wrapper(f"{module.__name__.split('.')[-1]}.{name}",
                                                                original))
        for name in autodiff_ops():
            self._patch_everywhere(getattr(autodiff, name), self._count_wrapper("autodiff.op_calls",
                                                                              getattr(autodiff, name)))
        original = crossk.cross_k
        self._patch_everywhere(original, self._count_wrapper("crossk.cross_k_calls", original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- summaries -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over the run."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = {}
        for index, (name, start, end, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start) - child_time[index]
        return totals

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


# Counts taken when a spanned call returns: hook(counts, result).

def _count_windows(counts, scores):
    counts["model.predictions_for_windows"] += len(scores)


def _count_positives(counts, weights):
    counts["losses.positives_total"] += len(weights)
    counts["losses.positives_drawn"] += int((weights > 0).sum())


def _counter(key):
    def hook(counts, result):
        counts[key] += 1
    return hook


_HOOKS = {
    "model.forward": _counter("model.forward_calls"),
    "model.predictions_for": _count_windows,
    "adjacency.dynamic_adjacency": _counter("adjacency.calls"),
    "autodiff.backward": _counter("autodiff.backward_calls"),
    "losses.hybrid_objective": _counter("losses.hybrid_objective_calls"),
    "losses.apply_importance": _count_positives,
    "training.adam_step": _counter("training.adam_steps"),
    "sampling.refresh": _counter("sampling.refresh_calls"),
    "metrics.l_ndcg": _counter("metrics.l_ndcg_calls"),
}
