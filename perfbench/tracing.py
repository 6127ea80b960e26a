"""Spans around the package's entry points, recorded from outside it.

Each binding is a name a caller looks up at run time: ``size_lens.adclus.
solve_nnls`` is the ``solve_nnls`` that ``adclus.fit`` finds in its module
globals, ``size_lens.cli.read_feature_csv`` the one ``_analyze_one`` finds in
``cli``. The tracer swaps each binding for a wrapper that records a span
(name, start, end, parent span, thread) plus counts taken from the call's
arguments and result. Spans stay in memory; ``Tracer.write`` saves them.

Every thread keeps its own stack of open spans. A span opened on a thread
whose stack is empty (a pool worker) takes as parent the innermost span open
on the thread that installed the tracer, so ``cmd_analyze`` owns the jobs it
waits for.

A binding missing from the package (an entry point a later change removed)
is skipped, and the metrics fed only by missing bindings are reported as
absent rather than as an error.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time


def _design_bytes(args, kwargs, result):
    features = args[0]
    pairs = features.n_objects * (features.n_objects - 1) // 2
    return {"adclus.design_bytes": pairs * features.n_features * 8}


def _solver_counts(args, kwargs, result):
    return {
        "nnls.solves": 1,
        "nnls.iterations": result.iterations,
        "nnls.active_size": len(result.active_set),
        "nnls.unconverged": int(not result.converged),
    }


def _cells_read(args, kwargs, result):
    return {"ingest.cells_read": result.cells.size}


def _cells_written(args, kwargs, result):
    return {"ingest.cells_written": args[0].cells.size}


def _svg_count(args, kwargs, result):
    return {"report.svgs": 1}


# (owner, attribute, layer, count hook). The owner is a module, or a class
# inside one; the layer names the timing metric the span feeds.
BINDINGS = (
    ("size_lens.cli", "main", "cli", None),
    ("size_lens.cli", "cmd_analyze", "cli", None),
    ("size_lens.cli", "_analyze_one", "cli", None),
    ("size_lens.cli", "read_feature_csv", "ingest.read", _cells_read),
    ("size_lens.cli", "read_similarity_csv", "ingest.read", _cells_read),
    ("size_lens.cli", "write_feature_csv", "ingest.write", _cells_written),
    ("size_lens.cli", "write_similarity_csv", "ingest.write", _cells_written),
    ("size_lens.cli", "align_objects", "ingest.align", None),
    ("size_lens.cli", "filter_features", "ingest.align", None),
    ("size_lens.cli", "normalize_similarity", "ingest.align", None),
    ("size_lens.cli", "write_table", "report.table", None),
    ("size_lens.cli", "write_ttest_summary", "report.table", None),
    ("size_lens.cli", "write_scatter_svg", "report.svg", _svg_count),
    ("size_lens.cli", "read_table", "report.read_table", None),
    ("size_lens.ingest", "validate_feature_matrix", "matrices.validate", None),
    ("size_lens.ingest", "validate_similarity_matrix", "matrices.validate", None),
    ("size_lens.matrices.FeatureMatrix", "__post_init__", "matrices.validate", None),
    ("size_lens.matrices.SimilarityMatrix", "__post_init__", "matrices.validate", None),
    ("size_lens.adclus", "fit", "adclus.fit", None),
    ("size_lens.adclus", "build_design", "adclus.design", _design_bytes),
    ("size_lens.adclus", "solve_nnls", "nnls.solve", _solver_counts),
    ("size_lens.adclus", "predict", "adclus.predict", None),
    ("size_lens.bayesgen", "plant_dataset", "bayesgen.plant", None),
    ("size_lens.bayesgen", "generalization_matrix", "bayesgen.genmat", None),
    ("size_lens.sizelaw", "analyze", "sizelaw.analyze", None),
    ("size_lens.sizelaw", "one_sample_ttest_negative", "sizelaw.ttest", None),
)

# Per-layer metric -> the layers whose spans or counts feed it. Times are
# inclusive unless the metric says self; counts are summed over one pass.
TIME_METRICS = {
    "nnls.solve_s": "nnls.solve",
    "adclus.design_s": "adclus.design",
    "adclus.predict_s": "adclus.predict",
    "ingest.read_s": "ingest.read",
    "ingest.write_s": "ingest.write",
    "ingest.align_s": "ingest.align",
    "matrices.validate_s": "matrices.validate",
    "bayesgen.plant_s": "bayesgen.plant",
    "bayesgen.genmat_s": "bayesgen.genmat",
    "sizelaw.analyze_s": "sizelaw.analyze",
    "sizelaw.ttest_s": "sizelaw.ttest",
    "report.table_s": "report.table",
    "report.svg_s": "report.svg",
    "report.read_table_s": "report.read_table",
}
SELF_METRICS = {"adclus.fit_self_s": "adclus.fit", "cli.self_s": "cli"}
COUNT_METRICS = {
    "nnls.solves": "nnls.solve",
    "nnls.iterations": "nnls.solve",
    "nnls.active_size": "nnls.solve",
    "nnls.unconverged": "nnls.solve",
    "adclus.design_bytes": "adclus.design",
    "ingest.cells_read": "ingest.read",
    "ingest.cells_written": "ingest.write",
    "report.svgs": "report.svg",
}
POOL_METRICS = {"cli.pool_workers": "cli", "cli.pool_parallelism": "cli"}
ALL_METRICS = {**TIME_METRICS, **SELF_METRICS, **COUNT_METRICS, **POOL_METRICS}


class Span:
    __slots__ = ("name", "layer", "start", "end", "parent", "thread", "counts")

    def __init__(self, name, layer, parent, thread):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.thread = thread
        self.counts = None
        self.start = time.perf_counter()
        self.end = None


def _resolve(owner_path):
    # "size_lens.matrices.FeatureMatrix" -> the class; a module otherwise.
    module_path, _, tail = owner_path.rpartition(".")
    try:
        return importlib.import_module(owner_path)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module_path), tail, None)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.layers: set[str] = set()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._home = threading.get_ident()
        self._patches = []

    def install(self):
        for owner_path, attribute, layer, count in BINDINGS:
            owner = _resolve(owner_path)
            original = getattr(owner, attribute, None) if owner is not None else None
            if original is None:
                continue
            name = f"{owner_path}.{attribute}"
            setattr(owner, attribute, self._wrap(original, name, layer, count))
            self._patches.append((owner, attribute, original))
            self.layers.add(layer)

    def uninstall(self):
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def _wrap(self, original, name, layer, count):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            thread = threading.get_ident()
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home)
                parent = home[-1] if home and thread != self._home else None
            span = Span(name, layer, parent, thread)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(span)
            if count is not None:
                try:
                    span.counts = count(args, kwargs, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # the entry point's arguments or result changed shape
            return result

        return wrapper

    def take(self) -> list[Span]:
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def write(spans, path):
        ids = {id(span): i for i, span in enumerate(spans)}
        origin = min((s.start for s in spans), default=0.0)
        records = [
            {
                "id": ids[id(s)],
                "name": s.name,
                "start_s": s.start - origin,
                "end_s": s.end - origin,
                "parent": ids.get(id(s.parent)) if s.parent is not None else None,
                "thread": s.thread,
                **({"counts": s.counts} if s.counts else {}),
            }
            for s in spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": records}, handle)


def _covered(intervals) -> float:
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _has_layer_ancestor(span) -> bool:
    parent = span.parent
    while parent is not None:
        if parent.layer == span.layer:
            return True
        parent = parent.parent
    return False


def layer_metrics(spans, layers) -> dict[str, float]:
    """Per-layer metrics of one pass; metrics of missing layers are left out."""
    metrics = {name: 0.0 for name, layer in ALL_METRICS.items() if layer in layers}
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    outermost = [s for s in spans if not _has_layer_ancestor(s)]
    by_layer_time = {}
    for span in outermost:
        by_layer_time[span.layer] = by_layer_time.get(span.layer, 0.0) + span.end - span.start
    for metric, layer in TIME_METRICS.items():
        if metric in metrics:
            metrics[metric] = by_layer_time.get(layer, 0.0)
    for metric, layer in SELF_METRICS.items():
        if metric not in metrics:
            continue
        total = 0.0
        for span in spans:
            if span.layer == layer:
                inside = [
                    (max(c.start, span.start), min(c.end, span.end))
                    for c in children.get(id(span), ())
                ]
                total += span.end - span.start - _covered(i for i in inside if i[1] > i[0])
        metrics[metric] = total
    for span in spans:
        for metric, value in (span.counts or {}).items():
            metrics[metric] += value
    if "cli.pool_workers" in metrics:
        jobs = [s for s in spans if s.name.endswith("._analyze_one")]
        analyze = sum(s.end - s.start for s in spans if s.name.endswith(".cmd_analyze"))
        metrics["cli.pool_workers"] = float(len({s.thread for s in jobs}))
        busy = sum(s.end - s.start for s in jobs)
        metrics["cli.pool_parallelism"] = busy / analyze if analyze > 0.0 else 0.0
    return metrics
