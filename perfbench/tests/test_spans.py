import pytest

import spans


def test_self_time_is_span_minus_children():
    tr = spans.Tracer()
    with tr.span("bench.instance", "p0/0"):
        with tr.span("admm.solve", "p0/0") as solve:
            cb = tr.sweep_callback(solve)
            for k in (1, 2, 3):
                cb(k, None, None, 0.0, 0.0)
    names = [s["name"] for s in tr.spans]
    assert names == ["bench.instance", "admm.solve", "admm.pre_sweep", "admm.sweep", "admm.sweep"]
    assert all(s["parent"] == solve["id"] for s in tr.spans[2:])
    own = spans.self_times(tr.spans)
    total = spans.duration(tr.spans[0])
    assert sum(own.values()) == pytest.approx(total)
    by_layer = spans.self_time_by_layer(tr.spans)
    assert by_layer["admm"] == pytest.approx(spans.duration(solve))
    assert spans.median_ms(tr.spans, "certify.lp") == 0.0


def test_null_tracer_records_nothing():
    tr = spans.NullTracer()
    with tr.span("admm.solve", "p0/0") as sp:
        assert tr.sweep_callback(sp) is None
    assert not tr.enabled
