"""Span tracer that wraps crchains functions from outside the package.

`Tracer.install` rebinds each traced function at every crchains module
that binds it (``from .hermitian import box`` binds ``box`` in circles and
crowns too), so calls made inside the library are seen as well as calls
made by the benchmark.  Spans are kept in memory as
``(name, start, end, parent, job)`` and written out once the traced pass is
over.  Nothing is traced until `install` is called, and `uninstall` puts
every original back.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

from crchains.boundary import BoundaryPoint
from crchains.hermitian import GeometryError, IndeterminateClassError


def _words(counts, args, kwargs, result):
    length = kwargs.get("length", args[1] if len(args) > 1 else None)
    counts["groups.enumerate_words.words"] += len(result)
    # Each kept word shorter than the length spawns one candidate per letter
    # other than its last; the empty word spawns three.
    counts["groups.enumerate_words.candidates"] += sum(
        3 if not word else 2 for word, _ in result if len(word) < length
    )


def _points(counts, args, kwargs, result):
    counts["groups.limit_set.points"] += len(result.points)


def _triples(counts, args, kwargs, result):
    counts["slimness.sup_cartan.triples"] += result.n_triples_evaluated
    counts["slimness.sup_cartan.thinned"] += len(args[0].points) > result.n_points


def _arcs(counts, args, kwargs, result):
    counts["crowns.build_crown.arcs"] += len(result.arcs)


def _hits(counts, args, kwargs, result):
    counts["crowns.crossing_detector.hits"] += len(result)


# Traced functions: (span name, module, attribute, result hook, exceptions
# counted by class).  The span name is the metric prefix.
SPANS = (
    ("hermitian.herm_inner", "crchains.hermitian", "herm_inner", None, ()),
    ("hermitian.box", "crchains.hermitian", "box", None, ()),
    (
        "hermitian.classify",
        "crchains.hermitian",
        "classify",
        None,
        ((IndeterminateClassError, "hermitian.classify.indeterminate"),),
    ),
    ("boundary.cartan", "crchains.boundary", "cartan", None, ()),
    ("boundary.cartan_lifts", "crchains.boundary", "cartan_lifts", None, ()),
    (
        "boundary.from_lift",
        "crchains.boundary",
        "BoundaryPoint.from_lift",
        None,
        ((GeometryError, "boundary.from_lift.rejected"),),
    ),
    ("groups.triangle_group", "crchains.groups", "triangle_group", None, ()),
    ("groups.enumerate_words", "crchains.groups", "enumerate_words", _words, ()),
    ("groups.limit_set", "crchains.groups", "limit_set", _points, ()),
    ("slimness.sweep", "crchains.slimness", "sweep", None, ()),
    ("slimness.sup_cartan", "crchains.slimness", "sup_cartan", _triples, ()),
    ("slimness.hyperconvexity", "crchains.slimness", "hyperconvexity", None, ()),
    (
        "slimness.parabolic_obstruction_demo",
        "crchains.slimness",
        "parabolic_obstruction_demo",
        None,
        (),
    ),
    ("circles.min_collinearity", "crchains.circles", "min_collinearity", None, ()),
    ("circles.bent_curve", "crchains.circles", "bent_curve", None, ()),
    ("circles.spiral_curve", "crchains.circles", "spiral_curve", None, ()),
    (
        "circles.foliation_leaf_rcircle",
        "crchains.circles",
        "foliation_leaf_rcircle",
        None,
        (),
    ),
    (
        "circles.bent_leaf",
        "crchains.circles",
        "bent_leaf",
        None,
        ((Exception, "circles.bent_leaf.failed"),),
    ),
    ("circles.arcs_intersect", "crchains.circles", "arcs_intersect", None, ()),
    ("crowns.axis_at_infinity", "crchains.crowns", "axis_at_infinity", None, ()),
    ("crowns.build_crown", "crchains.crowns", "build_crown", _arcs, ()),
    ("crowns.embeddedness", "crchains.crowns", "embeddedness", None, ()),
    ("crowns.crossing_detector", "crchains.crowns", "crossing_detector", _hits, ()),
    (
        "crowns.export_uniformization",
        "crchains.crowns",
        "export_uniformization",
        None,
        (),
    ),
    ("cli", "crchains.cli", "main", None, ()),
)

# Counters that are not a span's calls or self time, in report order.
COUNTERS = (
    "groups.enumerate_words.words",
    "groups.enumerate_words.candidates",
    "groups.limit_set.points",
    "hermitian.classify.indeterminate",
    "boundary.from_lift.rejected",
    "slimness.sup_cartan.triples",
    "slimness.sup_cartan.thinned",
    "circles.bent_leaf.failed",
    "circles.bent_leaf.root_calls",
    "circles.bent_leaf.overflow_warnings",
    "crowns.build_crown.arcs",
    "crowns.embeddedness.pairs",
    "crowns.crossing_detector.hits",
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name, *_ in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({name: "count" for name in COUNTERS})
    units["groups.enumerate_words.yield"] = "ratio"
    units.update(
        {
            "trace.wall_s": "s",
            "trace.untraced_wall_s": "s",
            "trace.overhead_s": "s",
            "trace.unaccounted_s": "s",
            "trace.spans": "count",
        }
    )
    return units


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, name, fn, on_result, errors):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                for cls, counter in errors:
                    if isinstance(exc, cls):
                        counts[counter] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if on_result is not None:
                on_result(counts, args, kwargs, result)
            return result

        return wrapper

    def _counting(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _warnings(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    return fn(*args, **kwargs)
                finally:
                    counts[counter] += sum("overflow" in str(w.message) for w in caught)

        return wrapper

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "crchains" and not mod_name.startswith("crchains."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def install(self) -> None:
        circles = sys.modules["crchains.circles"]
        self._patched.append((circles, "root", circles.root))
        circles.root = self._counting("circles.bent_leaf.root_calls", circles.root)
        for name, module, attr, on_result, errors in SPANS:
            if attr == "BoundaryPoint.from_lift":
                original = BoundaryPoint.__dict__["from_lift"]
                wrapped = self._span(name, original.__func__, on_result, errors)
                self._patched.append((BoundaryPoint, "from_lift", original))
                BoundaryPoint.from_lift = staticmethod(wrapped)
                continue
            original = getattr(sys.modules[module], attr)
            fn = original
            if name == "circles.bent_leaf":
                fn = self._warnings("circles.bent_leaf.overflow_warnings", fn)
            self._rebind(original, self._span(name, fn, on_result, errors))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def metrics(self, wall_s: float, untraced_wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far, in unit order."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for name, *_ in SPANS:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        total_self = 0.0
        pairs = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            self_s = (end - start) - child[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            total_self += self_s
            if name == "circles.arcs_intersect" and parent >= 0:
                pairs += spans[parent][0] == "crowns.embeddedness"
        for name in COUNTERS:
            out[name] = int(self.counts[name])
        out["crowns.embeddedness.pairs"] = pairs
        candidates = self.counts["groups.enumerate_words.candidates"]
        kept = self.counts["groups.enumerate_words.words"] - out["groups.enumerate_words.calls"]
        out["groups.enumerate_words.yield"] = kept / candidates if candidates else 0.0
        out["trace.wall_s"] = wall_s
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        out["trace.unaccounted_s"] = wall_s - total_self
        out["trace.spans"] = len(spans)
        return {name: out[name] for name in metric_units()}

    def write_spans(self, path: Path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "job"])
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                writer.writerow([i, name, f"{start:.9f}", f"{end:.9f}", parent, job])
