import types

import pytest

from tracing import Span, Tracer, covered, self_times


def test_covered_merges_overlaps_and_clips_to_the_parent():
    assert covered(0.0, 10.0, [(1, 3), (2, 5), (8, 12)]) == 6.0
    assert covered(0.0, 10.0, []) == 0.0
    assert covered(0.0, 10.0, [(-5, -1), (11, 12)]) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span(0, "valuation.evaluate", 0.0, 10.0),
        Span(1, "bnb.search", 1.0, 7.0, parent=0),
        Span(2, "lp.solve", 2.0, 4.0, parent=1),
        Span(3, "lp.solve", 5.0, 6.5, parent=1),
        Span(4, "dispatch.build", 8.0, 9.0, parent=0),
    ]
    got = self_times(spans)
    assert got == {0: 3.0, 1: 2.5, 2: 2.0, 3: 1.5, 4: 1.0}
    # self times of a tree add up to its root's duration
    assert sum(got.values()) == 10.0


def _fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_wrappers_nest_spans_note_missing_sites_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    original = mod.inner, mod.outer
    tracer = Tracer(clock=_fake_clock())
    sites = [(mod, "outer", "bnb.search", None),
             (mod, "inner", "lp.solve",
              lambda t, a, k, r: {"optimal": r > 0}),
             (mod, "removed", "lp.fold", None),
             ("mesval.no_such_module", "solve", "lp.solve", None)]
    with tracer.installed(sites), tracer.scope("u0"):
        assert mod.outer(1) == 4
    assert (mod.inner, mod.outer) == original
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.run) == ("bnb.search", None,
                                                     "u0")
    assert (inner.name, inner.parent) == ("lp.solve", outer.id)
    assert inner.attrs == {"optimal": True}
    assert self_times(tracer.spans) == {0: 2.0, 1: 1.0}
    assert tracer.broken == {
        "SimpleNamespace.removed": "not found in the program",
        "mesval.no_such_module.solve": "not found in the program"}


def test_a_failing_observer_is_noted_and_the_call_still_returns():
    tracer = Tracer(clock=_fake_clock())

    def observe(t, args, kwargs, result):
        return {"nodes": result.node_count}     # renamed field

    wrapped = tracer.wrap(lambda: 3, "bnb.search", observe,
                          site="mesval.valuation.branch_and_bound")
    assert wrapped() == 3
    assert list(tracer.broken) == ["mesval.valuation.branch_and_bound"]
    assert "observer failed" in tracer.broken[
        "mesval.valuation.branch_and_bound"]


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer(clock=_fake_clock())

    def boom():
        raise ValueError("infeasible")

    wrapped = tracer.wrap(boom, "valuation.evaluate")
    with pytest.raises(ValueError):
        wrapped()
    (span,) = tracer.spans
    assert span.end > span.start
    assert span.attrs == {"raised": "ValueError"}
