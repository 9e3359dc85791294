"""Self-time arithmetic and patching of the benchmark's span tracer."""

import types

from spans import COUNT_SPAN, Tracer, self_seconds_by_name, self_times_ns


def _span(name, start, end, parent):
    return [name, start, end, parent, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("root", 0, 100, -1),
        _span("a", 10, 30, 0),
        _span("b", 15, 20, 1),
        _span("c", 40, 70, 0),
    ]
    assert self_times_ns(spans) == [50, 15, 5, 30]


def test_overlapping_children_are_covered_once():
    spans = [_span("root", 0, 100, -1), _span("a", 10, 50, 0), _span("b", 30, 60, 0),
             _span("c", 35, 40, 0)]
    assert self_times_ns(spans)[0] == 50


def test_child_time_outside_the_parent_is_ignored():
    spans = [_span("root", 0, 100, -1), _span("a", 90, 120, 0), _span("b", -5, 5, 0)]
    assert self_times_ns(spans)[0] == 85


def test_self_seconds_add_up_per_name():
    spans = [
        _span("outer", 0, 4_000_000_000, -1),
        _span("inner", 0, 1_000_000_000, 0),
        _span("inner", 2_000_000_000, 2_500_000_000, 0),
    ]
    assert self_seconds_by_name(spans) == {"outer": 2.5, "inner": 1.5}


def test_recorded_self_times_partition_the_root_spans():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1,
                       count=lambda t, idx, args, kwargs, result: t.counts.update(leaf=result))
    mid = tracer.wrap("mid", lambda x: leaf(leaf(x)))
    top = tracer.wrap("top", lambda x: mid(x) + leaf(x))
    assert top(1) == 5
    assert top(1) == 5
    spans, counts = tracer.take()
    assert counts == {"leaf": 14}
    names = [s[0] for s in spans]
    assert names.count("top") == 2 and names.count("leaf") == 6
    assert names.count(COUNT_SPAN) == 6
    assert [s[3] for s in spans if s[0] == "mid"] == [0, names.index("top", 1)]
    roots = sum(end - start for _, start, end, parent, _ in spans if parent == -1)
    assert sum(self_times_ns(spans)) == roots
    assert tracer.spans == [] and not tracer.counts


def test_patching_covers_every_binding_and_uninstall_restores():
    def f():
        return "f"

    a = types.ModuleType("a")
    b = types.ModuleType("b")
    a.f = f
    b.g = f

    class Owner:
        def method(self):
            return "m"

        @classmethod
        def build(cls):
            return cls

    tracer = Tracer()
    tracer.patch_function([a, b], "f", f)
    tracer.patch_method(Owner, "method", "m")
    tracer.patch_method(Owner, "build", "b")
    assert a.f is not f and b.g is a.f
    assert (a.f(), b.g(), Owner().method(), Owner.build()) == ("f", "f", "m", Owner)
    assert [s[0] for s in tracer.spans] == ["f", "f", "m", "b"]
    tracer.uninstall()
    assert a.f is f and b.g is f
    assert "method" in Owner.__dict__ and not hasattr(Owner.method, "__wrapped__")
    assert isinstance(Owner.__dict__["build"], classmethod)
