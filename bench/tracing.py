"""Span tracing of the library's public functions, installed from outside.

The tracer wraps each traced function and puts the wrapper in place of every
binding of that function object in every loaded ``diffboost`` module.  It
matches bindings by identity, not by name, so a function re-exported or
imported under another name into another module is traced wherever it is
called from.  Spans live in memory until :meth:`Tracer.write` is called.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# (layer, module under diffboost, function) for every traced public function
TARGETS = (
    ("tree", "tree", "fit_tree"),
    ("tree", "tree", "predict_tree"),
    ("tree", "tree", "apply_tree"),
    ("boosting", "boosting", "fit_mean_estimator"),
    ("boosting", "boosting", "predict_mean"),
    ("schedule", "schedule", "build_linear_schedule"),
    ("schedule", "schedule", "forward_sample"),
    ("schedule", "schedule", "posterior_mean"),
    ("schedule", "schedule", "posterior_sample"),
    ("schedule", "schedule", "y0_from_noise"),
    ("dbt", "dbt", "train_dbt"),
    ("dbt", "dbt", "sample_dbt"),
    ("card_t", "card_t", "train_card_t"),
    ("card_t", "card_t", "sample_card_t"),
    ("model_io", "model_io", "save_model"),
    ("model_io", "model_io", "load_model"),
    ("data", "data", "load_csv"),
    ("data", "data", "reencode"),
    ("cli", "cli", "main"),
    ("metrics", "metrics", "rmse"),
    ("metrics", "metrics", "nll"),
    ("metrics", "metrics", "qice"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))


def _rows_of_first(args, kwargs):
    rows = args[0] if args else kwargs.get("features")
    return int(getattr(rows, "shape", (1,))[0])


def _rows_of_second(args, kwargs):
    rows = args[1] if len(args) > 1 else kwargs.get("rows")
    shape = getattr(rows, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


# how many input rows a call handles, for the functions where that is defined
_ROWS = {
    "fit_tree": _rows_of_first,
    "predict_tree": _rows_of_second,
    "apply_tree": _rows_of_second,
}
# a count read off the result: leaves of a fitted tree
_RESULT_COUNT = {"fit_tree": lambda tree: tree.n_leaves}


class TracingError(RuntimeError):
    """A traced function has no binding to replace."""


class Span:
    __slots__ = ("name", "layer", "parent", "phase", "start", "end", "rows",
                 "count", "error")

    def __init__(self, name, layer, parent, phase, rows):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.phase = phase
        self.rows = rows
        self.count = 0
        self.error = False
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records one span per call of a traced function while installed.

    ``phase`` labels the spans recorded from then on; the benchmark sets it to
    the set-up or repetition it is running.
    """

    def __init__(self, targets=TARGETS):
        self.spans: list = []
        self.phase = None
        self._stack: list = []
        self._installed: list = []
        self._targets = []
        for layer, module, name in targets:
            mod = importlib.import_module(f"diffboost.{module}")
            fn = getattr(mod, name, None)
            if not callable(fn):
                raise TracingError(f"traced function diffboost.{module}.{name} not found")
            self._targets.append((layer, f"{module}.{name}", fn, self._wrap(layer, name, fn)))

    def _wrap(self, layer, name, fn):
        rows_of = _ROWS.get(name)
        count_of = _RESULT_COUNT.get(name)
        qualname = f"{layer}.{name}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(qualname, layer, stack[-1] if stack else -1, self.phase,
                        rows_of(args, kwargs) if rows_of else 0)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if count_of:
                span.count = count_of(result)
            return result

        return traced

    def install(self) -> dict:
        """Replace every binding of every traced function in the loaded
        ``diffboost`` modules; returns {function: bindings replaced}.

        Raises :class:`TracingError`, leaving nothing installed, when a traced
        function has no binding in any loaded module.
        """
        if self._installed:
            raise RuntimeError("tracer already installed")
        by_id = {id(fn): (label, fn, wrapper) for _, label, fn, wrapper in self._targets}
        counts = {label: 0 for _, label, _, _ in self._targets}
        modules = [mod for modname, mod in list(sys.modules.items())
                   if mod is not None and (modname == "diffboost"
                                           or modname.startswith("diffboost."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is None or hit[1] is not value:
                    continue
                label, fn, wrapper = hit
                setattr(mod, attr, wrapper)
                self._installed.append((mod, attr, fn))
                counts[label] += 1
        unbound = [label for label, n in counts.items() if n == 0]
        if unbound:
            self.uninstall()
            raise TracingError("traced functions without a binding: " + ", ".join(unbound))
        return counts

    def uninstall(self) -> None:
        """Put every replaced binding back."""
        for mod, attr, fn in reversed(self._installed):
            setattr(mod, attr, fn)
        self._installed.clear()

    def write(self, path) -> None:
        """Write all spans as JSON lines, in call order."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": s.parent, "name": s.name, "phase": s.phase,
                    "start": s.start, "end": s.end, "rows": s.rows,
                    "count": s.count, "error": s.error,
                }) + "\n")


def self_times(spans) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


_PREDICT = frozenset({"tree.predict_tree", "tree.apply_tree"})
_SCHEDULE = frozenset(f"schedule.{name}" for layer, _, name in TARGETS if layer == "schedule")

# per-repetition sums of self time: metric -> traced functions it covers
_SELF_SUMS = {
    "tree.fit_s": {"tree.fit_tree"},
    "tree.predict_s": _PREDICT,
    "boosting.fit_s": {"boosting.fit_mean_estimator"},
    "boosting.predict_s": {"boosting.predict_mean"},
    "schedule.build_s": {"schedule.build_linear_schedule"},
    "schedule.forward_s": {"schedule.forward_sample"},
    "schedule.posterior_mean_s": {"schedule.posterior_mean"},
    "schedule.posterior_sample_s": {"schedule.posterior_sample"},
    "schedule.y0_from_noise_s": {"schedule.y0_from_noise"},
    "dbt.train_self_s": {"dbt.train_dbt"},
    "dbt.sample_self_s": {"dbt.sample_dbt"},
    "card_t.train_self_s": {"card_t.train_card_t"},
    "card_t.sample_self_s": {"card_t.sample_card_t"},
    "model_io.load_s": {"model_io.load_model"},
    "data.load_csv_s": {"data.load_csv"},
    "data.reencode_s": {"data.reencode"},
    "cli.sample_self_s": {"cli.main"},
    "metrics.score_s": {"metrics.rmse", "metrics.nll", "metrics.qice"},
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans, rep_phases) -> dict:
    """Per-layer figures from the spans of the traced repetitions.

    Sums and counts are medians over the repetitions named in ``rep_phases``;
    per-call percentiles pool the calls of all of them.  ``model_io.save_s``
    is the median of every ``save_model`` call in the run, whatever its phase,
    because no workload saves inside a repetition, and ``<layer>.errors``
    counts every failed call in the run.
    """
    own = self_times(spans)
    reps = {phase: Counter() for phase in rep_phases}
    fit_ms, predict_ms = [], []
    for i, s in enumerate(spans):
        acc = reps.get(s.phase)
        if acc is None:
            continue
        for metric, names in _SELF_SUMS.items():
            if s.name in names:
                acc[metric] += own[i]
        acc["trace.spans"] += 1
        acc["trace.layers_s"] += own[i]
        parent = spans[s.parent].name if s.parent >= 0 else None
        if s.name == "tree.fit_tree":
            acc["tree.fit_calls"] += 1
            acc["tree.fit_rows"] += s.rows
            acc["tree.leaves"] += s.count
            fit_ms.append(s.duration * 1e3)
            if parent == "boosting.fit_mean_estimator":
                acc["boosting.tree_fit_s"] += s.duration
                acc["boosting.trees"] += 1
        elif s.name in _PREDICT and parent not in _PREDICT:
            acc["tree.predict_calls"] += 1
            acc["tree.predict_rows"] += s.rows
            predict_ms.append(s.duration * 1e3)
        elif s.name in _SCHEDULE:
            acc["schedule.calls"] += 1

    keys = set(_SELF_SUMS) | {
        "trace.spans", "trace.layers_s", "tree.fit_calls", "tree.fit_rows",
        "tree.leaves", "boosting.tree_fit_s", "boosting.trees",
        "tree.predict_calls", "tree.predict_rows", "schedule.calls"}
    out = {k: _median([acc[k] for acc in reps.values()]) for k in keys}
    out["tree.predict_rows_per_s"] = _median(
        [acc["tree.predict_rows"] / acc["tree.predict_s"]
         for acc in reps.values() if acc["tree.predict_s"] > 0.0])
    out["tree.fit_ms_p50"] = _percentile(fit_ms, 50)
    out["tree.fit_ms_p80"] = _percentile(fit_ms, 80)
    out["tree.predict_ms_p50"] = _percentile(predict_ms, 50)
    out["tree.predict_ms_p95"] = _percentile(predict_ms, 95)
    out["model_io.save_s"] = _median(
        [own[i] for i, s in enumerate(spans) if s.name == "model_io.save_model"])
    for layer in LAYERS:
        out[f"{layer}.errors"] = float(sum(1 for s in spans if s.layer == layer and s.error))
    return out
