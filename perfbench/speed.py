"""Scale measured times to a reference machine speed.

On a shared host a vCPU runs fast or about 40 % slower depending on what
its neighbour on the same physical core does, and the mix changes from
second to second, so raw wall times of the same work spread too widely
between runs to bound a regression. A short fixed probe, timed every
PERIOD_S from a SIGALRM handler while the work runs, samples the speed the
vCPU has at that moment. A measured total is scaled by NOMINAL_S over the
mean probe time; NOMINAL_S is the probe's typical time while the workloads
run on the machine the bounds were set on, so scaled times read as seconds
of that machine. Time spent in the handler (about 1.5 % of the run) is left
out of the measured totals. Raw times are reported alongside.
"""

from __future__ import annotations

import heapq
import random
import signal
import statistics
import time

NOMINAL_S = 0.0003
PERIOD_S = 0.05


def probe_kernel() -> float:
    """Fixed interpreter work: heap, tuple and float operations."""
    rnd = random.Random(12345)
    heap, acc = [], 0.0
    for i in range(400):
        heapq.heappush(heap, (rnd.random(), i))
        if len(heap) > 64:
            t, _ = heapq.heappop(heap)
            acc += t * 1.5
    return acc


def probe_seconds() -> float:
    """One speed sample: the second of two back-to-back probes (the first warms caches)."""
    probe_kernel()
    t0 = time.perf_counter()
    probe_kernel()
    return time.perf_counter() - t0


class SpeedSampler:
    """Collects probe samples, every PERIOD_S while used as a context manager.

    ``spent`` is the time the handler has taken, for callers to subtract
    from intervals they measure while sampling is on.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.samples.append(probe_seconds())
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, raw_seconds: float) -> float:
        return raw_seconds * NOMINAL_S / statistics.fmean(self.samples)
