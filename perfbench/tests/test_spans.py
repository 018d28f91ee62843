"""Self-time arithmetic of the benchmark's span tracer."""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from spans import Probe, Span, Tracer, self_times  # noqa: E402


class FakeClock:
    """Each call returns the current time; ``work`` advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),  # overlaps a: union [1, 6] covers 5
        Span("c", 2.0, 3.0, 1, 0),  # grandchild: counts against a, not root
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_nested_wrappers_bound_in_several_modules():
    clock = FakeClock()
    mod_a = types.ModuleType("mod_a")
    mod_b = types.ModuleType("mod_b")

    def leaf(x):
        clock.work(2.0)
        return x

    def outer(x):
        clock.work(1.0)
        y = mod_b.leaf(x)  # looked up through the second binding
        clock.work(0.5)
        return mod_a.leaf(y)

    mod_a.leaf = mod_b.leaf = leaf
    mod_a.outer = outer
    counted = types.ModuleType("counted")
    counted.kernel = lambda: clock.work(0.25)

    tracer = Tracer(clock=clock)
    tracer.install([
        Probe("m.outer", ((mod_a, "outer"),)),
        Probe("m.leaf", ((mod_a, "leaf"), (mod_b, "leaf"))),
        Probe("m.kernel", ((counted, "kernel"),), "timed_count"),
        Probe("m.gone", ((mod_a, "no_such_function"),)),
    ])
    assert mod_a.leaf is mod_b.leaf  # one wrapper per function, not per binding
    tracer.op = 7
    assert mod_a.outer(3) == 3
    counted.kernel()
    tracer.uninstall()
    assert mod_a.leaf is leaf and mod_b.leaf is leaf and mod_a.outer is outer

    recs = tracer.by_name()
    assert recs["m.outer"]["calls"] == 1
    assert recs["m.outer"]["self_s"] == pytest.approx(1.5)
    assert recs["m.leaf"]["calls"] == 2
    assert recs["m.leaf"]["self_s"] == pytest.approx(4.0)
    assert recs["m.kernel"]["calls"] == 1 and recs["m.kernel"]["self_s"] == pytest.approx(0.25)
    assert {s.parent for s in tracer.spans if s.name == "m.leaf"} == {0}
    assert {s.op for s in tracer.spans} == {7}
    assert tracer.missing == ["mod_a.no_such_function"]


def test_classmethod_binding_keeps_its_class():
    clock = FakeClock()

    class Maker:
        @classmethod
        def build(cls, n):
            clock.work(n)
            return cls

    tracer = Tracer(clock=clock)
    tracer.install([Probe("core.build", ((Maker, "build"),))])
    assert Maker.build(3.0) is Maker
    tracer.uninstall()
    assert tracer.by_name()["core.build"]["self_s"] == pytest.approx(3.0)
    assert isinstance(Maker.__dict__["build"], classmethod)
