"""Span bookkeeping: self time, aggregation and instrumentation."""

import threading
import types

import pytest

import spans


def _span(name, start, end, sid, parent, op=1):
    return (name, start, end, sid, parent, op)


def test_covered_length_merges_overlaps_and_clips():
    assert spans.covered_length([], 0.0, 10.0) == 0.0
    assert spans.covered_length([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == pytest.approx(5.0)
    # clipped to the parent interval; touching intervals do not double count
    assert spans.covered_length([(-2, 1), (1, 2), (9, 12)], 0.0, 10.0) == pytest.approx(3.0)


def test_self_time_on_hand_built_tree():
    # root 0-10 has children a 1-4 and b 3-6 (overlapping: two threads) and
    # c 8-9; a has a grandchild 2-3 that must not reduce root's self time.
    tree = [
        _span("root", 0.0, 10.0, 1, 0),
        _span("a", 1.0, 4.0, 2, 1),
        _span("b", 3.0, 6.0, 3, 1),
        _span("c", 8.0, 9.0, 4, 1),
        _span("a.child", 2.0, 3.0, 5, 2),
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 6.0)  # union of a, b, c = 1-6, 8-9
    assert selfs[2] == pytest.approx(3.0 - 1.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(1.0)


def test_aggregate_sums_per_op_and_adds_counts():
    tree = [
        _span("f", 0.0, 2.0, 1, 0, op=1),
        _span("g", 0.5, 1.0, 2, 1, op=1),
        _span("g", 1.0, 1.5, 3, 1, op=1),
        _span("f", 5.0, 6.0, 4, 0, op=2),
    ]
    per_op = spans.aggregate(tree, {(1, "f.items"): 7.0})
    assert per_op[1]["f.calls"] == 1
    assert per_op[1]["g.calls"] == 2
    assert per_op[1]["g.busy_s"] == pytest.approx(1.0)
    assert per_op[1]["f.self_s"] == pytest.approx(1.0)
    assert per_op[1]["f.items"] == 7.0
    assert per_op[2]["f.busy_s"] == pytest.approx(1.0)
    medians = spans.median_over_ops(per_op, [1, 2, 3], ["f.busy_s", "g.calls"])
    assert medians == {"f.busy_s": pytest.approx(1.0), "g.calls": 0.0}


def _fake_package():
    low = types.ModuleType("pkg.low")

    def leaf(x):
        return x + 1

    leaf.__module__ = "pkg.low"

    def _private(x):
        return x

    _private.__module__ = "pkg.low"

    class Thing:
        def method(self, x):
            return high.outer(x)

        def _hidden(self):
            return 0

    Thing.__module__ = "pkg.low"
    low.leaf, low._private, low.Thing = leaf, _private, Thing

    high = types.ModuleType("pkg.high")

    def outer(x):
        return high.leaf(x) * 2

    outer.__module__ = "pkg.high"
    high.outer, high.leaf, high.Thing = outer, leaf, Thing
    return low, high


def test_instrument_rebinds_everywhere_and_nests():
    low, high = _fake_package()
    tracer = spans.Tracer()
    counted = []
    n = tracer.instrument({"low": low, "high": high},
                          hooks={"low.leaf": lambda a, k, r: counted.append(r) or {"low.leaf.n": 1}})
    assert n == 3  # leaf, outer, Thing.method; private names untouched
    assert low.leaf is high.leaf
    assert not hasattr(low._private, "__wrapped_by_tracer__")
    tracer.op_id = 4
    assert low.Thing().method(1) == 4
    names = {s[0]: s for s in tracer.spans}
    assert set(names) == {"low.leaf", "high.outer", "low.method"}
    assert names["low.leaf"][4] == names["high.outer"][3]
    assert names["high.outer"][4] == names["low.method"][3]
    assert names["low.method"][4] == 0
    assert all(s[5] == 4 for s in tracer.spans)
    assert tracer.counts[(4, "low.leaf.n")] == 1 and counted == [2]
    # instrumenting twice does not wrap twice
    tracer.instrument({"low": low, "high": high})
    low.leaf(0)
    assert sum(1 for s in tracer.spans if s[0] == "low.leaf") == 2


def test_worker_thread_spans_parent_to_the_open_main_span():
    tracer = spans.Tracer()
    work = tracer.wrap("work", lambda: None)
    with tracer.span("cli.extract") as outer:
        t = threading.Thread(target=work)
        t.start()
        t.join(timeout=10)
    assert not t.is_alive()
    by_name = {s[0]: s for s in tracer.spans}
    assert by_name["work"][4] == outer.sid
    assert by_name["cli.extract"][4] == 0


def test_span_recorded_when_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert [s[0] for s in tracer.spans] == ["boom"]
    assert tracer._stack() == []
