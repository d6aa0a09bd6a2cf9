"""Self time, the tail-percentile rule and span recording."""

import types

import pytest

from tracing import Span, Tracer, self_times, tail_percentile


def test_self_time_with_nested_and_overlapping_children():
    spans = [
        Span(0, "root", None, None, 0.0, 10.0),
        Span(1, "a", None, 0, 1.0, 4.0),
        Span(2, "b", None, 0, 3.0, 6.0),     # overlaps a
        Span(3, "c", None, 0, 8.0, 12.0),    # runs past its parent's end
        Span(4, "a.x", None, 1, 2.0, 3.0),   # nested in a
        Span(5, "b.y", None, 2, 3.5, 4.0),   # nested in b
        Span(6, "b.z", None, 2, 3.8, 5.0),   # overlaps its sibling b.y
    ]
    got = self_times(spans)
    # root is covered by [1, 6] and [8, 10] (c clipped to the root's end)
    assert got[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert got[1] == pytest.approx(3.0 - 1.0)
    assert got[2] == pytest.approx(3.0 - 1.5)
    assert got[3] == pytest.approx(4.0)
    assert got[4] == pytest.approx(1.0)
    assert got[5] == pytest.approx(0.5)
    assert got[6] == pytest.approx(1.2)


def test_self_times_of_nested_spans_add_up_to_the_root():
    spans = [
        Span(0, "root", None, None, 0.0, 9.0),
        Span(1, "a", None, 0, 0.5, 4.0),
        Span(2, "a.x", None, 1, 1.0, 2.5),
        Span(3, "b", None, 0, 4.0, 8.5),
        Span(4, "b.x", None, 3, 4.0, 8.5),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(9.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(11))) == (9, 0)
    assert tail_percentile(list(range(20))) == (50, 9)
    assert tail_percentile(list(range(100, 0, -1))) == (90, 90)
    for n in range(11, 400):
        p, value = tail_percentile(list(range(n)))
        assert n - 1 - value >= 10
        # one percentile higher would leave fewer than ten beyond it
        assert n - (-(-(p + 1) * n // 100)) < 10


def test_tracer_records_parents_scans_and_restores_originals():
    ns = types.SimpleNamespace()
    ns.read = lambda path: path
    ns.inner = lambda x: x + 1
    ns.outer = lambda x: ns.inner(x) * 2
    originals = dict(vars(ns))

    def enter_scan(tr, args, kwargs):
        tr.scan = args[0]

    def count(tr, sid, args, kwargs, result):
        tr.counts["inner.calls"] += 1

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    tracer.wrap(ns, "read", "io.read", on_enter=enter_scan)
    tracer.wrap(ns, "outer", "outer")
    tracer.wrap(ns, "inner", "inner", on_exit=count)
    tracer.wrap(ns, "gone", "missing.gone")

    ns.read("s0")
    assert ns.outer(1) == 4
    ns.read("s1")
    ns.outer(2)
    tracer.uninstall()

    assert vars(ns) == originals
    assert tracer.missing == ["missing.gone"]
    assert tracer.counts["inner.calls"] == 2
    names = [(s.name, s.scan) for s in tracer.spans]
    assert names == [
        ("io.read", "s0"), ("outer", "s0"), ("inner", "s0"), ("trace.count", "s0"),
        ("io.read", "s1"), ("outer", "s1"), ("inner", "s1"), ("trace.count", "s1"),
    ]
    by_name = {(s.name, s.scan): s for s in tracer.spans}
    outer = by_name[("outer", "s0")]
    assert by_name[("inner", "s0")].parent == outer.id
    assert by_name[("trace.count", "s0")].parent == outer.id
    assert outer.parent is None


def test_forward_time_goes_to_inference_or_training_by_parent():
    tracer = Tracer()
    tracer.spans = [
        Span(0, "pipeline.run_refine", None, None, 0.0, 1.0),
        Span(1, "pipeline.refine", "s", 0, 0.1, 0.5),
        Span(2, "RefinerModel.forward", "s", 1, 0.2, 0.4),
        Span(3, "refiner.total_loss", None, 0, 0.5, 0.9),
        Span(4, "RefinerModel.forward", None, 3, 0.5, 0.6),
        Span(5, "RefinerModel.backward", None, 3, 0.6, 0.8),
    ]
    values, samples = tracer.summarize()
    assert values["refiner.refine_ms"] == pytest.approx(400.0)
    assert values["refiner.forward_ms"] == pytest.approx(100.0)
    assert values["refiner.backward_ms"] == pytest.approx(200.0)
    assert values["refiner.loss_ms"] == pytest.approx(100.0)
    assert values["pipeline.self_ms"] == pytest.approx(200.0)
    assert sum(values.values()) == pytest.approx(1000.0)
