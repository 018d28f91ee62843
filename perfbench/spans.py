"""In-memory span tracer that wraps functions where their callers look them up.

A span records (name, start, end, parent span, operation id) plus optional
attributes taken from the call's arguments or result. Functions called
thousands of times per operation get a counter instead of a span, so the
trace does not swamp the self times it measures; a timed counter also sums
its inclusive time, which still belongs to the enclosing span's self time.

Self time is a span's duration minus the part of it that its child spans
cover. Everything stays in memory; ``to_json`` hands it to the writer.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: Optional[int]
    attrs: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Probe:
    """What to record for one function, and every place it is bound.

    ``bindings`` lists (owner, attribute) pairs; an owner is a module or a
    class. ``kind`` is "span", "count" or "timed_count". ``before(args,
    kwargs)`` runs ahead of the span and its value reaches ``after(token,
    args, kwargs, result)``, which returns attributes for the span.
    """

    name: str
    bindings: Tuple[Tuple[object, str], ...]
    kind: str = "span"
    before: Optional[Callable] = None
    after: Optional[Callable] = None


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.timed: Dict[str, float] = defaultdict(float)
        self.op: Optional[int] = None
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, probe: Probe):
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            token = probe.before(args, kwargs) if probe.before else None
            idx = len(spans)
            span = Span(probe.name, clock(), 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if probe.after:
                span.attrs.update(probe.after(token, args, kwargs, result))
            return result

        return wrapper

    def _count_wrapper(self, fn, probe: Probe):
        counts, name = self.counts, probe.name
        if probe.kind == "count":

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper
        timed, clock = self.timed, self.clock

        def wrapper(*args, **kwargs):
            counts[name] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                timed[name] += clock() - t0

        return wrapper

    def _wrap(self, fn, probe: Probe):
        if probe.kind == "span":
            return self._span_wrapper(fn, probe)
        if probe.kind in ("count", "timed_count"):
            return self._count_wrapper(fn, probe)
        raise ValueError(f"unknown probe kind {probe.kind!r}")

    def install(self, probes: Sequence[Probe]) -> None:
        """Replace every binding by a wrapper; one wrapper per distinct function.

        A binding that does not exist is skipped and listed in ``missing``,
        so a renamed function shows up as absent instead of breaking a run.
        """
        if self._saved:
            raise RuntimeError("tracer is already installed")
        self.missing = []
        for probe in probes:
            wrappers: Dict[int, object] = {}
            for owner, attr in probe.bindings:
                raw = inspect.getattr_static(owner, attr, None)
                if raw is None:
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                if id(fn) not in wrappers:
                    wrapped = self._wrap(fn, probe)
                    wrappers[id(fn)] = classmethod(wrapped) if is_cm else wrapped
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- reduction ---------------------------------------------------------

    def by_name(self) -> Dict[str, dict]:
        """calls, self_s, inclusive durations and summed attributes per name."""
        out: Dict[str, dict] = {}
        for span, self_s in zip(self.spans, self_times(self.spans)):
            rec = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "durations": [], "attrs": defaultdict(float)})
            rec["calls"] += 1
            rec["self_s"] += self_s
            rec["durations"].append(span.end - span.start)
            for key, val in span.attrs.items():
                rec["attrs"][key] += val
        for name, n in self.counts.items():
            rec = out.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": [], "attrs": defaultdict(float)})
            rec["calls"] += n
            rec["self_s"] += self.timed.get(name, 0.0)
        return out

    def to_json(self) -> dict:
        return {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "op": s.op, "attrs": s.attrs}
                for s in self.spans
            ],
            "counts": dict(self.counts),
            "timed_counts_s": dict(self.timed),
            "missing_bindings": self.missing,
        }


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(idx, ())):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span.end - span.start) - covered)
    return out
