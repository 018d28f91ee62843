"""A run's event times: the schedule that hands the event loop its arrivals
and skeleton points in time order, and the recorder that tallies them, with
the loop's logs, onto the trajectory grid.

README.md's simulator entry (Schedule, Recorder, Memory) describes both.
They live apart from ``sim``'s event loop so that neither module's source
is large: with bytecode caching off, each process compiles the modules it
imports, and the compiler's peak memory grows with a module's size.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

_INF = math.inf
_BLOCK = 4096  # draws in a block, at most (sim._blocks)
_FIRST_CHUNK = 256  # entries per stream in a run's first chunk
_CHUNK = 2048  # entries per stream in a chunk, at most
_EMPTY = np.empty(0)
_ARRIVAL = np.full(_BLOCK, -1, dtype=np.int8)  # an arrival's mark


def _tally(grid_t: np.ndarray, times: np.ndarray, counts: np.ndarray, sign: int) -> None:
    """Add ``sign`` to ``counts[g]`` per time t, g the first grid point at or after t.

    The grid samples the state after every event at or before its time.
    Where the sorted ``times`` span fewer grid points than they number, one
    search per grid point counts the times at or before it instead.
    """
    if not len(times):
        return
    lo, hi = grid_t.searchsorted(times[[0, -1]])  # each g is in lo..hi
    if hi - lo < len(times):
        upto = times.searchsorted(grid_t[lo:hi], side="right") * sign  # at or before grid_t[lo:hi]
        counts[lo:hi] += upto
        counts[lo + 1:hi + 1] -= upto  # so counts[g] takes upto's increments, all of them by hi
        counts[hi] += sign * len(times)
    else:
        np.add.at(counts, grid_t.searchsorted(times), sign)


class _Stream:
    """One stream of event times, the running sums of its gap blocks, each time with a mark.

    A window holds the events from the first one not yet read, topped up
    from the next blocks of (gaps, marks). Times are summed only as far as
    a read reaches, since a restart sums them afresh from a new start. The
    times read go to ``tally`` once they are a quarter block's worth, and
    the rest at ``finish``.
    """

    def __init__(self, blocks: Iterator[Tuple[np.ndarray, np.ndarray]],
                 tally: Callable[[np.ndarray], None]):
        self.blocks, self.tally = blocks, tally
        self.base = 0  # the index of the window's first event
        self.gap, self.mark, self.t = _EMPTY, _ARRIVAL[:0], _EMPTY  # int8 marks take any blocks' type
        self.valid = 0  # t[:valid] are summed
        self.last = 0.0  # the time gap[valid] counts from; the first gap counts from 0

    def fill(self, done: int, need: int) -> int:
        """Top the window up to hold the ``need`` events after the first ``done``; their index."""
        i = done - self.base
        if len(self.gap) - i < need:
            if i >= _BLOCK // 4:  # the times read are tallied and freed before the next blocks come
                self.tally(self.t[:i])
                self.gap, self.mark, self.t = (a[i:].copy() for a in (self.gap, self.mark, self.t))
                self.base, self.valid, i = self.base + i, self.valid - i, 0
            gaps, marks = [self.gap], [self.mark]
            while sum(map(len, gaps)) - i < need:
                gap, mark = next(self.blocks)
                gaps.append(gap)
                marks.append(mark)
            self.gap, self.mark = np.concatenate(gaps), np.concatenate(marks)
            self.t = np.concatenate((self.t, np.empty(len(self.gap) - len(self.t))))
        return i

    def read(self, done: int, need: int, start: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        """The times and marks of the ``need`` events after the first ``done``; with
        ``start``, the sums start afresh there."""
        i = self.fill(done, need)
        if start is not None:
            self.valid, self.last = i, start
        end = i + need
        if self.valid < end:
            summed = self.t[self.valid:end]
            summed[:] = self.gap[self.valid:end]
            summed[0] += self.last
            with np.errstate(over="ignore"):  # gaps near 1e308 sum to inf, an event that never comes
                np.add.accumulate(summed, out=summed)
            self.valid, self.last = end, summed[-1]
        return self.t[i:end], self.mark[i:end]

    def finish(self, done: int) -> None:
        """Tally the times read up to the first ``done`` events."""
        self.tally(self.t[:done - self.base])


class _Schedule:
    """A run's arrivals and skeleton points in time order, handed to the loop a chunk at a time.

    Arrival times are running sums of the inter-arrival gaps, and
    skeleton-point times running sums of the skeleton's gaps from the start
    of each busy period (``_Stream``), so each is the loop's t + gap bit for
    bit.
    """

    def __init__(self, arrivals: Optional[Iterator[np.ndarray]],
                 points: Iterator[Tuple[np.ndarray, np.ndarray]], horizon: float,
                 tally_arrivals: Callable[[np.ndarray], None],
                 tally_points: Callable[[np.ndarray], None], names: Optional[np.ndarray] = None):
        """``arrivals`` yields inter-arrival gap blocks (None: no arrivals), ``points``
        skeleton gap blocks and each point's mark; each stream's times read go to its
        tally. With ``names``, a chunk lists each mark m as the object ``names[m]``."""
        self.horizon, self.names = horizon, names
        blocks = ((gaps, _ARRIVAL[:len(gaps)]) for gaps in arrivals) if arrivals is not None else (
            repeat((np.full(_BLOCK, _INF), _ARRIVAL)))  # arrivals that never come
        self.arrivals = _Stream(blocks, tally_arrivals)
        self.points = _Stream(points, tally_points)
        self.cap = _FIRST_CHUNK  # entries per stream in a chunk
        self.sent = (0, 0, 0)  # arrivals and points before the last chunk, and its entries

    def chunk(self, arrivals: int, points: int, on: bool = True) -> Iterable[Tuple[object, float]]:
        """The (mark, time) entries that follow ``arrivals`` arrivals and ``points`` points.

        A point's mark is its mark from the draw blocks, an arrival's -1. The
        entries are the arrivals and points whose order no later draw can
        change, points first at equal times; a chunk that reaches the horizon
        ends with the mark -2 at the horizon. The skeleton is off unless
        ``on``; then the next arrival restarts it with the next gap, and
        leads the chunk. A chunk cut short by a restart sizes the next one to
        the entries used, and one used in full doubles it, up to ``_CHUNK``.
        """
        horizon = self.horizon
        before_a, before_p, sent = self.sent
        used = arrivals - before_a + points - before_p
        cap = self.cap = min(2 * self.cap, _CHUNK) if used == sent else used
        head = 0 if on else 1  # the arrival that restarts the skeleton
        a_t, a_mark = self.arrivals.read(arrivals, head + cap)
        if head and a_t[0] > horizon:
            return ((-2, horizon),)
        p_t, p_mark = self.points.read(points, cap, None if on else float(a_t[0]))
        last_a, last_p = float(a_t[-1]), float(p_t[-1])
        # a point is placed once no unread arrival can precede it, an arrival
        # once no unread point can precede or tie it
        n_p = int(p_t.searchsorted(min(last_a, horizon), "right"))
        n_a = int(a_t[head:].searchsorted(last_p, "left") if last_p <= horizon
                  else a_t[head:].searchsorted(horizon, "right")) + head
        # the head first, then by time, points before arrivals at equal times
        times = np.concatenate((a_t[:head], p_t[:n_p], a_t[head:n_a]))
        marks = np.concatenate((a_mark[:head], p_mark[:n_p], a_mark[head:n_a]))
        if n_p and n_a > head:
            order = times.argsort(kind="stable")
            times, marks = times.take(order), marks.take(order)
        self.sent = (arrivals, points, n_a + n_p)
        marks, times = (marks if self.names is None else self.names.take(marks)).tolist(), times.tolist()
        if last_a > horizon and last_p > horizon:
            marks.append(-2)
            times.append(horizon)
        return zip(marks, times)

    def finish(self, arrivals: int, points: int) -> None:
        """Tally the times read up to ``arrivals`` arrivals and ``points`` points."""
        self.arrivals.finish(arrivals)
        self.points.finish(points)


class _Recorder:
    """The grid of one run, tallied from its schedule's time blocks and the loop's logs.

    The loop logs the times of discards, abandonments and busy or idle
    changes by group. Each block of arrival and skeleton-point times the
    schedule hands over is tallied, and the logs once they hold a block's
    worth, so nothing held grows with the horizon.
    """

    def __init__(self, grid_t: np.ndarray, n_pools: int, t_warm: float):
        self.grid_t, self.t_warm = grid_t, t_warm
        self.early = 0  # arrivals tallied before t_warm
        # counts until finish cumulates them: X (-1 per point, +1 per discard), R, A; then Q
        self.xraq = np.zeros((4, len(grid_t)), dtype=np.int64)
        self.grid_z = np.zeros((len(grid_t), n_pools), dtype=np.int64)
        # lists, which the loop appends to fastest if all are lists; the last group's
        # busy and idle times are dropped, as its busy count is min(X, N) less the others'
        self.discards, self.abandons = [], []
        self.busy_logs: List[List[float]] = [[] for _ in range(n_pools)]
        self.idle_logs: List[List[float]] = [[] for _ in range(n_pools)]

    def tally(self, arrivals: np.ndarray, points: np.ndarray = _EMPTY) -> None:
        """Tally arrival and skeleton-point times, then the logs if they hold a block's worth."""
        self.early += int(arrivals.searchsorted(self.t_warm))
        _tally(self.grid_t, arrivals, self.xraq[2], 1)
        _tally(self.grid_t, points, self.xraq[0], -1)
        self.logs()

    def logs(self, end: bool = False) -> None:
        """Tally the loop's logs once they hold a block's worth, or at the ``end`` of the run."""
        logs = [(self.discards, self.xraq[0], 1), (self.abandons, self.xraq[1], 1)]
        for group, column in enumerate(self.grid_z.T):
            logs += [(self.busy_logs[group], column, 1), (self.idle_logs[group], column, -1)]
        if not end and sum(len(log) for log, _, _ in logs) < _BLOCK:
            return  # a tally's fixed cost per log is spread over many entries
        for k, (log, counts, sign) in enumerate(logs):
            if k < len(logs) - 2:  # the last two, the last group's, are dropped
                _tally(self.grid_t, np.fromiter(log, float, len(log)), counts, sign)
            log.clear()

    def finish(self, x_init: int, n: int, z0: np.ndarray):
        """The grid rows (X, R, A, Q) and busy counts, once the schedule's times are tallied."""
        self.logs(end=True)
        xraq, grid_z = self.xraq, self.grid_z
        np.cumsum(xraq[:3], axis=1, out=xraq[:3])
        xraq[0] += xraq[2]  # X = x0 + A - (points - discards) - R, in place
        xraq[0] -= xraq[1]
        xraq[0] += x_init
        np.subtract(xraq[0], n, out=xraq[3])  # Q = (X - N)^+
        np.maximum(xraq[3], 0, out=xraq[3])
        logged = grid_z[:, :-1]
        np.cumsum(logged, axis=0, out=logged)
        logged += z0[:-1]
        np.minimum(xraq[0], n, out=grid_z[:, -1])  # work conservation: min(X, N) are busy
        grid_z[:, -1] -= logged.sum(axis=1)
        return xraq, grid_z
