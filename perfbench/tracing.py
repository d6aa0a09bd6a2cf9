"""Spans and counts at the program's layer boundaries, recorded from outside.

A :class:`Tracer` replaces module and class attributes of ``rangerefine``
with wrappers, at the names the program's callers resolve at call time, so
the program itself is unchanged. Each wrapper records a span (name, start,
end, parent, scan id); spans stay in memory and are written out once the
traced call has returned. Work the wrappers do to count things runs inside a
``trace.count`` span of its own, so it is reported as tracing cost instead of
inflating the self time of the caller.

Layer metrics are computed per traced call: a ``*_ms`` metric is the sum of
the self times of the spans it owns (a span's duration minus the part of it
covered by its children), except ``pipeline.refine_scan_ms`` (per scan) and
``refiner.step_ms`` (per optimizer step), which are inclusive and pooled
across calls. Self-time metrics of all layers add up to the traced wall time.

This module imports neither numpy nor the program at import time.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

# (name, unit, better). Units starting with "computed" mark counts derived
# from array sizes rather than observed.
LAYER_METRICS = [
    ("kitti_io.read_ms", "ms", "lower"),
    ("kitti_io.read_bytes", "B", "lower"),
    ("kitti_io.write_ms", "ms", "lower"),
    ("kitti_io.write_bytes", "B", "lower"),
    ("projection.project_ms", "ms", "lower"),
    ("projection.points", "count", "higher"),
    ("projection.valid_pixels", "count", "higher"),
    ("projection.hidden_points", "count", "lower"),
    ("projection.window_neighbors_ms", "ms", "lower"),
    ("projection.window_neighbors_calls", "count", "lower"),
    ("coarse.source_ms", "ms", "lower"),
    ("coarse.pixels", "count", "higher"),
    ("knn_refiner.knn_ms", "ms", "lower"),
    ("knn_refiner.candidates", "computed-count", "lower"),
    ("knn_refiner.changed", "count", "higher"),
    ("knn_refiner.fixed", "count", "higher"),
    ("knn_refiner.broken", "count", "lower"),
    ("uncertainty.build_pool_ms", "ms", "lower"),
    ("uncertainty.select_boundary_ms", "ms", "lower"),
    ("uncertainty.select_background_ms", "ms", "lower"),
    ("uncertainty.aggregate_ms", "ms", "lower"),
    ("uncertainty.pool_entries", "count", "higher"),
    ("uncertainty.pool_boundary", "count", "higher"),
    ("uncertainty.pool_background", "count", "higher"),
    ("uncertainty.pool_both", "count", "higher"),
    ("refiner.refine_ms", "ms", "lower"),
    ("refiner.refine_entries", "count", "higher"),
    ("refiner.refine_peak_mb", "MB", "lower"),
    ("refiner.attn_flops", "computed-flop", "lower"),
    ("refiner.score_bytes", "computed-B", "lower"),
    ("refiner.changed", "count", "higher"),
    ("refiner.fixed.boundary", "count", "higher"),
    ("refiner.fixed.background", "count", "higher"),
    ("refiner.fixed.both", "count", "higher"),
    ("refiner.broken.boundary", "count", "lower"),
    ("refiner.broken.background", "count", "lower"),
    ("refiner.broken.both", "count", "lower"),
    ("refiner.step_ms", "ms", "lower"),
    ("refiner.forward_ms", "ms", "lower"),
    ("refiner.backward_ms", "ms", "lower"),
    ("refiner.loss_ms", "ms", "lower"),
    ("refiner.adam_ms", "ms", "lower"),
    ("refiner.steps", "count", "higher"),
    ("refiner.step_entries", "count", "higher"),
    ("refiner.step_peak_mb", "MB", "lower"),
    ("metrics.accumulate_ms", "ms", "lower"),
    ("pipeline.refine_scan_ms", "ms", "lower"),
    ("pipeline.refine_scan_tail_ms", "ms", "lower"),
    ("pipeline.refine_scan_tail_pct", "%", "higher"),
    ("pipeline.refine_scan_samples", "count", "higher"),
    ("pipeline.self_ms", "ms", "lower"),
    ("pipeline.train_ms", "ms", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.count_ms", "ms", "lower"),
]

# Span name -> metric that receives its self time. A forward pass inside
# ``pipeline.refine`` counts as inference (refiner.refine_ms); one inside a
# training loss counts as refiner.forward_ms.
SELF_METRIC = {
    "pipeline.run_refine": "pipeline.self_ms",
    "pipeline.run_train": "pipeline.self_ms",
    "pipeline.refine_scan": "pipeline.self_ms",
    "pipeline.build_pool_for_scan": "pipeline.self_ms",
    "pipeline.train": "pipeline.train_ms",
    "kitti_io.read_point_cloud": "kitti_io.read_ms",
    "kitti_io.read_labels": "kitti_io.read_ms",
    "kitti_io.write_labels": "kitti_io.write_ms",
    "kitti_io.write_point_cloud": "kitti_io.write_ms",
    "pipeline.project": "projection.project_ms",
    "pipeline.back_project_labels": "projection.project_ms",
    "uncertainty.window_neighbors": "projection.window_neighbors_ms",
    "knn_refiner.window_neighbors": "projection.window_neighbors_ms",
    "pipeline.coarse_for_scan": "coarse.source_ms",
    "pipeline.knn_refine": "knn_refiner.knn_ms",
    "pipeline.build_pool": "uncertainty.build_pool_ms",
    "uncertainty.select_boundary": "uncertainty.select_boundary_ms",
    "uncertainty.select_background": "uncertainty.select_background_ms",
    "uncertainty.aggregate_features": "uncertainty.aggregate_ms",
    "pipeline.refine": "refiner.refine_ms",
    "RefinerModel.forward": "refiner.forward_ms",
    "RefinerModel.backward": "refiner.backward_ms",
    "refiner.total_loss": "refiner.loss_ms",
    "Adam.step": "refiner.adam_ms",
    "ConfusionMatrix.accumulate": "metrics.accumulate_ms",
    "trace.count": "trace.count_ms",
}
SELF_TIME_METRICS = sorted(set(SELF_METRIC.values()))


class Span:
    __slots__ = ("id", "name", "scan", "parent", "start", "end")

    def __init__(self, id, name, scan, parent, start, end=None):
        self.id, self.name, self.scan, self.parent = id, name, scan, parent
        self.start, self.end = start, end

    def to_dict(self) -> dict:
        return {s: getattr(self, s) for s in self.__slots__}


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children may nest or overlap; each is clipped to its parent first.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children[s.id]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered
    return out


def tail_percentile(samples, beyond: int = 10):
    """(p, value) for the highest whole percentile p that has at least
    ``beyond`` samples above it (nearest-rank), or None for too few samples."""
    n = len(samples)
    if n <= beyond:
        return None
    p = 100 * (n - beyond) // n
    rank = -(-p * n // 100)
    return p, sorted(samples)[rank - 1]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Records spans and counts; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.scan = None
        self.counts = defaultdict(int)
        self.peaks = defaultdict(float)
        self.gt = None
        self.ignore = None
        self.reasons: dict[int, str] = {}
        self.missing: list[str] = []
        self._patches = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(sid, name, self.scan, parent, self.clock()))
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid].end = self.clock()
        self.stack.pop()

    def wrap(self, owner, attr, name, on_enter=None, on_exit=None, peak=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_enter(tracer, args, kwargs)`` runs before the span opens;
        ``on_exit(tracer, span_id, args, kwargs, result)`` runs after it
        closes, inside a ``trace.count`` span. With ``peak``, tracemalloc
        measures the call's peak allocation in MB into ``peaks[peak]``.
        An attribute the program no longer has is listed in ``missing``.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(name)
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(tracer, args, kwargs)
            sid = tracer.open(name)
            if peak is not None:
                tracemalloc.start()
            try:
                result = original(*args, **kwargs)
                if peak is not None:
                    mb = tracemalloc.get_traced_memory()[1] / 2**20
                    tracer.peaks[peak] = max(tracer.peaks[peak], mb)
            finally:
                if peak is not None:
                    tracemalloc.stop()
                tracer.close(sid)
            if on_exit is not None:
                cid = tracer.open("trace.count")
                try:
                    on_exit(tracer, sid, args, kwargs, result)
                finally:
                    tracer.close(cid)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer boundary of ``rangerefine`` named in the README."""
        from rangerefine import kitti_io, knn_refiner, metrics, pipeline, refiner, uncertainty

        w = self.wrap
        w(pipeline, "run_refine", "pipeline.run_refine")
        w(pipeline, "run_train", "pipeline.run_train")
        w(pipeline, "refine_scan", "pipeline.refine_scan")
        w(pipeline, "build_pool_for_scan", "pipeline.build_pool_for_scan")
        w(pipeline, "project", "pipeline.project", on_exit=_count_projection)
        w(pipeline, "coarse_for_scan", "pipeline.coarse_for_scan", on_exit=_count_coarse)
        w(pipeline, "knn_refine", "pipeline.knn_refine", on_exit=_count_knn)
        w(pipeline, "back_project_labels", "pipeline.back_project_labels")
        w(pipeline, "build_pool", "pipeline.build_pool", on_exit=_count_pool)
        w(pipeline, "refine", "pipeline.refine", on_exit=_count_refine,
          peak="refiner.refine_peak_mb")
        w(pipeline, "train", "pipeline.train", on_enter=_leave_scan)
        w(uncertainty, "select_boundary", "uncertainty.select_boundary")
        w(uncertainty, "select_background", "uncertainty.select_background")
        w(uncertainty, "aggregate_features", "uncertainty.aggregate_features")
        w(uncertainty, "window_neighbors", "uncertainty.window_neighbors",
          on_exit=_count_window)
        w(knn_refiner, "window_neighbors", "knn_refiner.window_neighbors",
          on_exit=_count_window)
        w(refiner, "total_loss", "refiner.total_loss", on_exit=_count_loss,
          peak="refiner.step_peak_mb")
        w(refiner.RefinerModel, "forward", "RefinerModel.forward", on_exit=_count_forward)
        w(refiner.RefinerModel, "backward", "RefinerModel.backward")
        w(refiner.Adam, "step", "Adam.step", on_exit=_count_step)
        w(metrics.ConfusionMatrix, "accumulate", "ConfusionMatrix.accumulate")
        w(kitti_io, "read_point_cloud", "kitti_io.read_point_cloud",
          on_enter=_enter_scan, on_exit=_count_read)
        w(kitti_io, "read_labels", "kitti_io.read_labels", on_exit=_count_read_labels)
        w(kitti_io, "write_labels", "kitti_io.write_labels", on_exit=_count_write(2))
        w(kitti_io, "write_point_cloud", "kitti_io.write_point_cloud",
          on_exit=_count_write(1))
        self.reasons = dict(uncertainty.REASON_NAMES)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")

    def summarize(self) -> tuple[dict, dict]:
        """(metric -> value for this call, metric -> per-event samples)."""
        values = {name: 0.0 for name in SELF_TIME_METRICS}
        for sid, seconds in self_times(self.spans).items():
            span = self.spans[sid]
            metric = SELF_METRIC[span.name]
            if span.name == "RefinerModel.forward" and span.parent is not None \
                    and self.spans[span.parent].name == "pipeline.refine":
                metric = "refiner.refine_ms"
            values[metric] += 1000.0 * seconds
        for name, value in self.counts.items():
            values[name] = value
        values.update(self.peaks)

        def durations(name):
            return [1000.0 * (s.end - s.start) for s in self.spans if s.name == name]

        losses, adams = durations("refiner.total_loss"), durations("Adam.step")
        samples = {
            "pipeline.refine_scan_ms": durations("pipeline.refine_scan"),
            "refiner.step_ms": [a + b for a, b in zip(losses, adams)],
        }
        return values, samples


def _enter_scan(tr, args, kwargs):
    tr.scan = Path(_arg(args, kwargs, 0, "path")).stem
    tr.gt = None


def _leave_scan(tr, args, kwargs):
    tr.scan = None


def _count_read(tr, sid, args, kwargs, result):
    tr.counts["kitti_io.read_bytes"] += Path(_arg(args, kwargs, 0, "path")).stat().st_size


def _count_read_labels(tr, sid, args, kwargs, result):
    _count_read(tr, sid, args, kwargs, result)
    tr.gt = result
    tr.ignore = _arg(args, kwargs, 1, "class_map").ignore_class


def _count_write(path_index):
    def count(tr, sid, args, kwargs, result):
        path = _arg(args, kwargs, path_index, "path")
        tr.counts["kitti_io.write_bytes"] += Path(path).stat().st_size
    return count


def _count_projection(tr, sid, args, kwargs, img):
    n = img.num_points
    tr.counts["projection.points"] += n
    tr.counts["projection.valid_pixels"] += int(img.valid_mask.sum())
    tr.counts["projection.hidden_points"] += n - int(img.is_foreground.sum())


def _count_coarse(tr, sid, args, kwargs, seg):
    tr.counts["coarse.pixels"] += seg.probs.shape[0] * seg.probs.shape[1]


def _count_window(tr, sid, args, kwargs, result):
    tr.counts["projection.window_neighbors_calls"] += 1


def _count_knn(tr, sid, args, kwargs, labels):
    img = _arg(args, kwargs, 0, "img")
    pixel_labels = _arg(args, kwargs, 1, "pixel_labels")
    cfg = _arg(args, kwargs, 2, "cfg")
    base = pixel_labels[img.point_v, img.point_u]
    tr.counts["knn_refiner.candidates"] += len(labels) * cfg.window**2
    tr.counts["knn_refiner.changed"] += int((labels != base).sum())
    gt = tr.gt
    if gt is not None:
        scored = gt != tr.ignore
        tr.counts["knn_refiner.fixed"] += int((scored & (base != gt) & (labels == gt)).sum())
        tr.counts["knn_refiner.broken"] += int((scored & (base == gt) & (labels != gt)).sum())


def _count_pool(tr, sid, args, kwargs, pool):
    tr.counts["uncertainty.pool_entries"] += len(pool)
    for code, reason in tr.reasons.items():
        tr.counts[f"uncertainty.pool_{reason}"] += int((pool.reason == code).sum())


def _count_refine(tr, sid, args, kwargs, refined):
    pool = _arg(args, kwargs, 1, "pool")
    before = pool.coarse_label
    tr.counts["refiner.refine_entries"] += len(pool)
    tr.counts["refiner.changed"] += int((refined != before).sum())
    if tr.gt is None:
        return
    gt = tr.gt[pool.indices]
    scored = gt != tr.ignore
    for code, reason in tr.reasons.items():
        mask = scored & (pool.reason == code)
        tr.counts[f"refiner.fixed.{reason}"] += int((mask & (before != gt) & (refined == gt)).sum())
        tr.counts[f"refiner.broken.{reason}"] += int((mask & (before == gt) & (refined != gt)).sum())


def _count_forward(tr, sid, args, kwargs, logits):
    parent = tr.spans[sid].parent
    if parent is None or tr.spans[parent].name != "pipeline.refine":
        return
    model = args[0]
    n = len(_arg(args, kwargs, 1, "features"))
    d, layers = model.dims.embed_dim, model.dims.attn_layers
    # per layer: Q/K and V projections (2 * 2nd^2), scores and weighted sum (2 * 2n^2d)
    tr.counts["refiner.attn_flops"] += layers * (4 * n * d * d + 4 * n * n * d)
    tr.counts["refiner.score_bytes"] += layers * n * n * 8


def _count_loss(tr, sid, args, kwargs, result):
    tr.counts["refiner.step_entries"] += len(_arg(args, kwargs, 1, "features"))


def _count_step(tr, sid, args, kwargs, result):
    tr.counts["refiner.steps"] += 1
