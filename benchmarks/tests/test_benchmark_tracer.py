import types

from tracer import Tracer, child_seconds, patched, span_stats


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["solve", -1, 0.0, 10.0],
        ["update", 0, 1.0, 4.0],
        ["record", 0, 5.0, 9.0],
        ["proj", 2, 6.0, 7.5],
    ]
    stats = span_stats(spans)
    assert stats["solve"].total_s == 10.0
    assert stats["solve"].self_s == 10.0 - 3.0 - 4.0
    assert stats["record"].self_s == 4.0 - 1.5
    assert stats["proj"].self_s == stats["proj"].total_s == 1.5
    assert stats["update"].calls == 1


def test_child_seconds_sums_a_child_per_parent_name():
    spans = [
        ["solve.a", -1, 0.0, 10.0],
        ["reference", 0, 1.0, 1.5],
        ["solve.b", -1, 10.0, 20.0],
        ["reference", 2, 11.0, 13.0],
        ["update", 2, 13.0, 14.0],
        ["reference", 2, 15.0, 16.0],
        ["solve.a", -1, 20.0, 30.0],
        ["reference", 6, 21.0, 21.25],
    ]
    assert child_seconds(spans, "reference") == {"solve.a": 0.75, "solve.b": 3.0}


def test_tracer_nests_spans_and_aggregates_repeated_names():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap(lambda n: f"outer.{n}", lambda n: inner(inner(n)))
    assert outer(1) == 3
    # outer enters at 0, inner spans 1-2 and 3-4, outer exits at 5.
    assert tracer.spans == [["outer.1", -1, 0.0, 5.0], ["inner", 0, 1.0, 2.0], ["inner", 0, 3.0, 4.0]]
    stats = tracer.stats()
    assert (stats["inner"].calls, stats["inner"].total_s) == (2, 2.0)
    assert stats["outer.1"].self_s == 3.0


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.spans[0][3] is not None and not tracer._open


def test_patched_restores_bindings():
    module = types.SimpleNamespace(f=len)
    with patched([(module, "f", abs)]):
        assert module.f is abs
    assert module.f is len
