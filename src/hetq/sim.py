"""Seeded discrete-event simulation of the heterogeneous many-server queue.

One pool or several (inverted-V), FIFO non-preemptive service, LISF / FSF /
RANDOM routing, and two abandonment constructions: independent patience per
customer, or the head-of-queue process that abandons at rate nu * Q(t).

A run is single-threaded and deterministic in (config, seed, rep). Its
counters (arrivals, departures, abandonments, busy time, and the arrivals
and waited arrivals in the steady-state window [warmup * end_time,
end_time]) are exact, and its memory does not depend on the horizon: the
per-customer record is opt-in (``record_customers``; typed buffers, about 19
bytes per arrival) and no estimator reads it. A run that overflows ends
early, so ``run`` replays it once, counting from warmup * end_time. The
trajectory is sampled on a uniform grid, occupancy as one busy count per
server group (``RealizedSystem.pool_of``). The loop keeps the headcount X
and no queue length: Q = (X - N)^+ is filled from X's grid after the loop,
and so is one group's busy count, min(X, N) by work conservation. Two
recorders fill the grid, bit for bit alike. A run that expects fewer than
``_DENSE`` (4) events per grid point, as short runs on the default 10k-point
grid do, would cross a grid time at almost every event: the dense recorder
logs each event's time by kind (arrival, skeleton point, abandonment,
discard, and with several groups each busy or idle change) in typed
buffers, tallies them into per-point counts every ~2k expected events, and
rebuilds X = x0 + A - departures - R and the busy counts from their sums.
Other runs take the sparse recorder: a crossing stages X, R, A and several
groups' busy counts in a flat list, and every ~4k staged values are written
into the grid at once. The rule is a constant, not an option, since only
the cost depends on it; it sits near the measured break-even. The last grid
time is the horizon, so the loop tests the horizon only where a recorder
does its work: at a crossing, or at a due tally.

The event loop inlines the policy's idle set (a LISF deque, an FSF heap of
int ranks in (-mu, k) order, a RANDOM swap list). Service is exponential, so
it keeps no departure times: departures thin one Poisson skeleton of rate
sum mu, whose points name a server through a Walker alias table and are
discarded when it is idle. With per-customer patience the next abandonment
time is kept current and read from the deadline heap only when the waiting
set changes. Each random stream is read through ``_draws``, a C-level
iterator over blocks that grow from 64 to 8192 draws; a stream's generator
is built on its first draw, so unread streams cost nothing. The arithmetic
on each draw is done once per block, in numpy, with the same IEEE operations
in the same order as the scalar expression: the loop reads ready skeleton
and inter-arrival gaps, alias-picked server ids and, with per-customer
patience, patience times. The order in which each stream is consumed is part
of the determinism contract (``tests/test_sim.py::TestStreamPinning`` pins
it). ``run``'s changed with the skeleton, and ``coupled_run``'s with its
rejection pick; ``hetq.cli`` stamps both as stream layout 2.
"""

from __future__ import annotations

import math
import os
from array import array
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Callable, List, Optional, Tuple, Union

import numpy as np

from .core import (
    Policy,
    RateDistribution,
    RealizedSystem,
    Stream,
    SystemConfig,
    check_domains,
    rng_stream,
)
from .errors import ConfigError, DomainError, EmptyWindowError

__all__ = [
    "MAX_EXPECTED_EVENTS",
    "AbandonMode",
    "PathRecord",
    "SteadyEstimates",
    "CoupledPaths",
    "Replication",
    "run",
    "steady_estimates",
    "coupled_run",
    "replicate",
    "path_to_csv",
    "path_summary",
]

_INF = math.inf
_FIRST_BLOCK = 64
_BLOCK = 8192
_STAGE = 4096  # staged grid values written at once (sparse recorder)
# a run with fewer expected events than _DENSE per grid point takes the dense
# recorder; about where the two cost the same (BENCH_18.json)
_DENSE = 4.0
_TALLY = 2048  # expected events between two tallies of the dense recorder's logs
# a run makes about (lambda_r + sum mu) * horizon loop passes; criterion 2's
# largest run makes 5.2e7
MAX_EXPECTED_EVENTS = 1e9
_Transform = Callable[[np.ndarray], np.ndarray]  # maps one block of draws


class AbandonMode(Enum):
    NONE = "none"
    PER_CUSTOMER = "per_customer"
    PERTURBED = "perturbed"


def _draws(
    seed: int, rep: int, stream: Stream, method: str, transform: Optional[_Transform] = None
) -> Callable[[], Union[float, int]]:
    """Next-draw function of one stream's ``method``, e.g. ``"random"``.

    The stream's generator is built on the first draw. Blocks of 64, 128,
    ... up to 8192 draws follow on demand and in order; numpy's ``random``
    and ``standard_exponential`` give the same values however the draws are
    split into calls, so the values are those of one long call.
    ``transform``, if given, maps each block before it is listed, so the
    arithmetic a draw needs (a scale, a shift, an alias pick, which gives
    ints) is done once per block and a draw stays one C-level call. Each
    transform does the same IEEE operations, in the same order, as the
    scalar expression it replaces, so the values are bit for bit the same.
    """

    def blocks():
        sample = getattr(rng_stream(seed, rep, stream), method)
        size = _FIRST_BLOCK
        while True:
            block = sample(size)
            yield (block if transform is None else transform(block)).tolist()
            size = min(2 * size, _BLOCK)

    return chain.from_iterable(blocks()).__next__


def _fill(xraq: np.ndarray, grid_z: np.ndarray, g0: int, stage: list, width: int) -> int:
    """Write staged rows (hi, X, R, A, Z_1..) into ``xraq``, ``grid_z`` from ``g0``.

    Rows hold ``width`` values; with one server group they stop at A, since
    its busy count is filled from X after the loop. Q is not staged: it is
    (X - N)^+, filled after the loop too. Each row's state fills the grids
    up to, not including, its ``hi``, which is the next row's start.
    Empties ``stage`` and returns the last ``hi``.
    """
    rows = np.array(stage, dtype=np.int64).reshape(-1, width)
    his = rows[:, 0]
    counts = np.diff(his, prepend=g0)
    xraq[:3, g0:his[-1]] = np.repeat(rows[:, 1:4].T, counts, axis=1)
    if width > 4:
        grid_z[g0:his[-1]] = np.repeat(rows[:, 4:], counts, axis=0)
    stage.clear()
    return int(his[-1])


def _tally(grid_t: np.ndarray, logs: list) -> None:
    """Add the dense recorder's logged events into grid counts; empties the logs.

    ``logs`` holds (times, keys, counts, sign). An event at time t adds
    ``sign`` to ``counts[g]``, or to ``counts[g, key]`` when the log has
    keys, where g is the first grid point at or after t: the grid samples
    the state after every event at or before its time.
    """
    for times, keys, counts, sign in logs:
        g = grid_t.searchsorted(np.frombuffer(times))
        del times[:]
        if keys is not None:
            g = (g, np.array(keys))
            del keys[:]
        np.add.at(counts, g, sign)


def _alias_table(weights: List[float]) -> Tuple[np.ndarray, np.ndarray]:
    """Walker's alias table (Walker 1977) of ``weights``, built in O(n) (Vose 1991).

    With u = U * n for one uniform U, column i = int(u) is kept when
    u - i < cut[i] and is replaced by alias[i] otherwise, which picks k with
    probability weights[k] / sum(weights). A last column, cut 0, catches
    the int(u) == n that rounding could give.
    """
    n = len(weights)
    total = math.fsum(weights)
    scaled = [w * n / total for w in weights]
    cut = [1.0] * n + [0.0]
    alias = list(range(n)) + [n - 1]
    small = [k for k in range(n) if scaled[k] < 1.0]
    large = [k for k in range(n) if scaled[k] >= 1.0]
    while small and large:
        s, l = small.pop(), large.pop()
        cut[s], alias[s] = scaled[s], l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    # columns left over keep cut 1: rounding residue only
    return np.array(cut), np.array(alias, dtype=np.int64)


def _alias_pick(weights: List[float]) -> _Transform:
    """Block transform of uniforms into the indices ``_alias_table`` picks.

    Per element it is the scalar u = U * n; i = int(u);
    i if u - i < cut[i] else alias[i]: the product and the difference are
    the same IEEE operations, and U < 1 truncates like ``int``.
    """
    cut, alias = _alias_table(weights)
    n = len(weights)

    def pick(block: np.ndarray) -> np.ndarray:
        u = block * n
        i = u.astype(np.int64)
        return np.where(u - i < cut[i], i, alias[i])

    return pick


def _over(rate: float) -> _Transform:
    """Block transform E -> E / rate; a product with 1 / rate would round differently."""
    return lambda e: e / rate


def _interarrival(lam: float, scv: float) -> _Transform:
    """Block transform of unit exponentials E into inter-arrival gaps det + m_e * E."""
    det, m_e = 0.0, 0.0
    if lam > 0.0:
        if scv > 1.0 + 1e-12:
            raise ConfigError(f"simulator supports arrival SCV in [0, 1], got {scv}")
        if abs(scv - 1.0) <= 1e-12:
            m_e = 1.0 / lam
        elif scv <= 0.0:
            det = 1.0 / lam
        else:
            root = math.sqrt(scv)
            det, m_e = (1.0 - root) / lam, root / lam
    return lambda e: det + m_e * e


@dataclass
class PathRecord:
    """Everything a run produced: grid trajectory plus exact counters.

    ``window_arrivals`` counts the arrivals in the steady-state window
    [warmup * end_time, end_time], and ``window_waited`` those of them who
    found every server busy; ``end_time`` is the horizon unless the run
    overflowed. The per-customer arrays are None unless the run recorded
    customers. ``config`` and ``system`` are the ones the run was given.
    ``discarded_points`` counts the departure skeleton's points that named
    an idle server.
    """

    config: SystemConfig
    system: RealizedSystem
    horizon: float
    end_time: float
    rep: int
    abandon_mode: AbandonMode
    grid_t: np.ndarray
    grid_X: np.ndarray
    grid_Q: np.ndarray
    grid_Z: np.ndarray  # (grid, groups) busy servers per system.pool_of group
    grid_R: np.ndarray
    grid_A: np.ndarray
    warmup: float
    arrivals_total: int
    window_arrivals: int
    window_waited: int
    arrival_t: Optional[np.ndarray]
    waits: Optional[np.ndarray]  # NaN when unresolved at end_time
    waited: Optional[np.ndarray]
    abandoned: Optional[np.ndarray]
    abandon_total: int
    departures: np.ndarray
    busy_time: np.ndarray
    overflowed: bool
    discarded_points: int

    @property
    def departures_total(self) -> int:
        return int(self.departures.sum())


def run(
    config: SystemConfig,
    system: RealizedSystem,
    horizon: float,
    mode: AbandonMode = AbandonMode.NONE,
    x0: Optional[int] = None,
    grid_points: int = 10_000,
    queue_cap: int = 1_000_000,
    rep: int = 0,
    validate: bool = False,
    warmup: float = 0.2,
    record_customers: bool = False,
) -> PathRecord:
    """Simulate one path on [0, horizon].

    The initial state holds ``x0`` customers (default N: all servers busy,
    empty queue), at most N + ``queue_cap``. Simultaneous events process in
    the fixed order departure, abandonment, arrival. A queue exceeding
    ``queue_cap`` terminates the run cleanly with the overflow flag set.
    ``queue_cap`` is at most 10^7: with per-customer patience or the record
    each waiting customer holds an id in the queue, and per-customer
    patience a deadline entry as well, about 160 bytes in all (about 60
    with the record alone), so a full queue stays near 1.6 GB.
    With ``validate`` every event asserts flow conservation, work
    conservation, and the LISF selection rule. ``grid_points`` is at most
    10^6. With arrivals, (lambda_r + sum mu) * horizon, about the number of
    events, is at most 10^9; without them the run ends once it drains.

    Service is exponential, so departures thin one Poisson skeleton of rate
    sum mu (Lewis & Shedler 1979): each point names server k with
    probability mu_k / sum mu, through a Walker alias table, and is server
    k's departure if k is busy; a point that names an idle server is
    discarded. While no server is busy the skeleton is off; it restarts
    from a fresh exponential when one becomes busy, which by memorylessness
    is the same law.

    Arrivals in the window [warmup * end_time, end_time] are counted for
    ``steady_estimates``. A run that overflows ends before the horizon, so
    its window is not known while counting: it is replayed once, counting
    from warmup * end_time, and since the streams are deterministic the
    replay is the same run. The per-customer record is kept only with
    ``record_customers``; it is an output, not an input to any estimate.

    Arrivals form a renewal stream with inter-arrival d + m_e*E, E unit
    exponential: SCV 1 is exponential, SCV in [0, 1) takes
    m_e = sqrt(scv)/lam, which hits the SCV exactly. Values above 1 are
    outside the simulator's renewal family.
    """
    check_domains(horizon=horizon, warmup=warmup, grid_points=grid_points, queue_cap=queue_cap)
    if mode is not AbandonMode.NONE and config.abandon_rate <= 0.0:
        raise ConfigError(f"abandonment mode {mode.value} needs abandon_rate > 0")
    n = system.n_servers
    if x0 is not None and not 0 <= x0 <= n + queue_cap:
        raise ConfigError(f"x0 must be in [0, N + queue_cap] = [0, {n + queue_cap}], got {x0}")
    events = (config.lambda_r + system.sum_mu) * horizon
    if config.lambda_r > 0.0 and events > MAX_EXPECTED_EVENTS:
        raise ConfigError(
            f"horizon {horizon:.6g} and lambda_r {config.lambda_r:.6g} give about {events:.3g} "
            f"events, over the {MAX_EXPECTED_EVENTS:.0e} a run may make; lower either"
        )
    args = (config, system, horizon, mode, x0, grid_points, queue_cap, rep, validate, warmup)
    path = _simulate(*args, warmup * horizon, record_customers)
    if path.overflowed:
        t_warm, path = warmup * path.end_time, None  # free the first pass's grid first
        path = _simulate(*args, t_warm, record_customers)
    return path


def _simulate(
    config, system, horizon, mode, x0, grid_points, queue_cap, rep, validate, warmup,
    t_warm: float, record: bool,
) -> PathRecord:
    """One pass of ``run``'s event loop, counting arrivals at t >= ``t_warm``."""
    n = system.n_servers
    mu = system.mu.tolist()
    pool_of = system.pool_of.tolist()
    n_pools = system.n_pools
    multi = n_pools > 1  # one group's busy count is filled from X after the loop
    lam = config.lambda_r
    nu = config.abandon_rate
    lisf = config.policy is Policy.LISF
    fsf = config.policy is Policy.FSF
    seed = config.seed
    per_customer = mode is AbandonMode.PER_CUSTOMER
    perturbed = mode is AbandonMode.PERTURBED
    track = record or per_customer  # keep the ids of waiting customers

    # departure skeleton of rate sum mu, off while no server is busy; fsum is
    # exactly rounded, so the rate does not depend on a summation order
    sum_mu = math.fsum(mu)
    # each stream's arithmetic is done once per block: arrival and skeleton
    # gaps, the server a skeleton point names, and per-customer patience;
    # perturbed abandonment reads unit hazards
    std_exp = "standard_exponential"
    arrival_gap = _draws(
        seed, rep, Stream.ARRIVAL, std_exp, _interarrival(lam, config.arrival_scv)
    )
    skel_gap = _draws(seed, rep, Stream.SKELETON, std_exp, _over(sum_mu))
    pick = _draws(seed, rep, Stream.SERVICE, "random", _alias_pick(mu))
    abandon_draw = _draws(seed, rep, Stream.ABANDON, std_exp, _over(nu) if per_customer else None)
    routing_u = _draws(seed, rep, Stream.ROUTING, "random")

    # initial state: x0 in system, lowest-index servers busy first
    x = n if x0 is None else int(x0)
    n_busy0 = min(x, n)
    busy = bytearray(n)  # 1 = busy
    busy[:n_busy0] = b"\x01" * n_busy0
    busy_since = [0.0] * n
    t_busy = [0.0] * n
    d_count = [0] * n
    # busy count per group; none kept for one group, staged rows then end at A,
    # and kept only by the sparse recorder
    z = np.bincount(system.pool_of[:n_busy0], minlength=n_pools).tolist() if multi else []
    t_dep = skel_gap() if n_busy0 else _INF

    # idle set of the policy; the other two stay empty
    idle_ids = range(n_busy0, n)
    lisf_q: deque = deque(idle_ids if lisf else ())
    # FSF's heap holds ranks in (-mu, k) order, so it compares ints: order[r]
    # is the server of rank r, rank[k] the rank of server k; equal rates give
    # the lowest index first
    order = sorted(range(n), key=lambda k: (-mu[k], k)) if fsf else []
    rank = np.argsort(order).tolist()
    fsf_heap = sorted(rank[k] for k in idle_ids) if fsf else []  # sorted is a heap
    rand_list = list(idle_ids) if not (lisf or fsf) else []

    # customers are numbered in arrival order after the x0 - N seed customers,
    # who wait from time 0 and are left out of the arrival statistics
    n_seed = x - n_busy0
    queue: deque = deque(range(n_seed) if track else ())
    gone = set()  # ids that abandoned while queued and are still in `queue`
    served_upto = -1  # highest id taken from the queue
    if record:
        arr_t = array("d", [0.0]) * n_seed
        waited = bytearray(b"\x01") * n_seed
        waits = array("d", [math.nan]) * n_seed
        abandoned = bytearray(n_seed)
    # patience deadlines over a sentinel; FIFO service makes an entry stale
    # exactly when its id is at most served_upto
    deadline_heap = [(abandon_draw(), cid) for cid in range(n_seed)] if per_customer else []
    deadline_heap.append((_INF, _INF))
    heapify(deadline_heap)

    grid_t = np.linspace(0.0, horizon, grid_points)
    xraq = np.zeros((4, grid_points), dtype=np.int64)  # X, R, A, Q; rows are the outputs
    grid_z = np.zeros((grid_points, n_pools), dtype=np.int64)
    # below _DENSE expected events per grid point nearly every event crosses a
    # grid time, so the dense recorder logs event times and tallies them; else
    # the sparse one stages the state at crossings. A constant, not an option:
    # both give the same grid, only the cost moves
    expected = (lam + sum_mu) * horizon
    dense = expected < _DENSE * grid_points
    if dense:
        skel_log, ab_log, arr_log, disc_log = (array("d") for _ in range(4))
        log_event = (skel_log.append, ab_log.append, arr_log.append)  # by kind
        # X counts -1 per skeleton point, +1 per discard; +A - R come after the loop
        logs = [(skel_log, None, xraq[0], -1), (disc_log, None, xraq[0], 1),
                (ab_log, None, xraq[1], 1), (arr_log, None, xraq[2], 1)]
        if multi:  # busy and idle transitions, keyed by group
            up_t, up_g, down_t, down_g = array("d"), array("q"), array("d"), array("q")
            logs += [(up_t, up_g, grid_z, 1), (down_t, down_g, grid_z, -1)]
        # the hook fires at every event; logs are tallied every ~_TALLY expected
        # events, and the tally time never passes the horizon, which is tested there
        t_grid = -_INF
        tally_step = horizon * _TALLY / expected
        t_tally = min(tally_step, horizon)
    else:
        grid_list = grid_t.tolist() + [_INF]
        t_grid = grid_list[0]
        gi = g0 = 0  # grid points below gi are passed, those below g0 written
        stage = []
        width = 4 + len(z)

    a_count = 0
    r_count = 0
    discards = 0
    win_a = win_w = 0  # arrivals, and waited arrivals, at t >= t_warm
    x_init = x
    next_arr = arrival_gap() if lam > 0.0 else _INF
    hazard = abandon_draw() if perturbed else 0.0
    t_cur = 0.0
    overflowed = False
    end_time = horizon

    # per_customer keeps t_ab current, reading the heap only where the waiting set
    # changes (a served head, an abandonment, a waiting arrival); none keeps INF
    t_ab = deadline_heap[0][0]
    while True:
        if perturbed:  # the hazard left is spent at rate nu * Q, so recompute each pass
            q = x - n  # Q where positive; the loop keeps X only
            t_ab = t_cur + (hazard if hazard > 0.0 else 0.0) / (nu * q) if q > 0 else _INF

        # tie order: departure, abandonment, arrival
        if t_dep <= t_ab and t_dep <= next_arr:
            t_next, kind = t_dep, 0
        elif t_ab <= next_arr:
            t_next, kind = t_ab, 1
        else:
            t_next, kind = next_arr, 2
        # t_grid <= horizon always (linspace ends at it; gi stops at the first grid
        # time >= t_next; the dense recorder keeps -inf, so every event logs), so a
        # t_next past the horizon enters here too, and passes t_tally <= horizon
        if t_grid < t_next:
            if dense:
                if t_next > t_tally:
                    if t_next > horizon:
                        break
                    _tally(grid_t, logs)
                    t_tally = min(t_next + tally_step, horizon)
                log_event[kind](t_next)
            else:
                if t_next > horizon:
                    break
                gi = bisect_left(grid_list, t_next, gi)
                stage += (gi, x, r_count, a_count, *z)
                if len(stage) >= _STAGE:
                    g0 = _fill(xraq, grid_z, g0, stage, width)
                t_grid = grid_list[gi]

        if perturbed and q > 0:
            hazard -= nu * q * (t_next - t_cur)
        t_cur = t_next

        if kind == 0:
            # skeleton point naming server k: if k is busy it departs and takes
            # the queue's head if anyone waits (X >= N after it); if idle, nothing moves
            k = pick()
            if busy[k]:
                x -= 1
                d_count[k] += 1
                t_busy[k] += t_cur - busy_since[k]
                busy_since[k] = t_cur  # while idle: the time it went idle
                if x >= n:
                    if track:
                        cid = queue.popleft()
                        while cid in gone:
                            gone.remove(cid)
                            cid = queue.popleft()
                        served_upto = cid
                        if record:
                            waits[cid] = t_cur - arr_t[cid]
                        while deadline_heap[0][1] <= served_upto:
                            heappop(deadline_heap)  # already served; only per_customer has any
                        t_ab = deadline_heap[0][0]
                else:
                    busy[k] = 0
                    if multi:
                        if dense:
                            down_t.append(t_cur)
                            down_g.append(pool_of[k])
                        else:
                            z[pool_of[k]] -= 1
                    if lisf:
                        lisf_q.append(k)
                    elif fsf:
                        heappush(fsf_heap, rank[k])
                    else:
                        rand_list.append(k)
            else:
                discards += 1
                if dense:
                    disc_log.append(t_cur)
            t_dep = t_cur + skel_gap() if x else _INF
        elif kind == 1:
            # abandonment
            if perturbed:
                hazard = abandon_draw()
                if record:
                    cid = queue.popleft()  # perturbed customers leave only from the head
            else:
                cid = heappop(deadline_heap)[1]
                gone.add(cid)
                while deadline_heap[0][1] <= served_upto:
                    heappop(deadline_heap)
                t_ab = deadline_heap[0][0]
            x -= 1
            r_count += 1
            if record:
                waits[cid] = t_cur - arr_t[cid]
                abandoned[cid] = 1
        else:
            # arrival
            a_count += 1
            x += 1
            if t_cur >= t_warm:
                win_a += 1
            if record:
                arr_t.append(t_cur)
                abandoned.append(0)
                waited.append(x > n)
                waits.append(math.nan if x > n else 0.0)
            if x <= n:
                # an idle server exists: busy count is min(x, N)
                if lisf:
                    k = lisf_q.popleft()
                elif fsf:
                    k = order[heappop(fsf_heap)]
                else:  # one routing uniform per pick
                    m = len(rand_list)
                    pos = math.trunc(routing_u() * m)
                    if pos == m:
                        pos -= 1
                    k = rand_list[pos]
                    rand_list[pos] = rand_list[-1]
                    rand_list.pop()
                if validate and lisf:
                    oldest = min(busy_since[j] for j in range(n) if not busy[j])
                    assert busy_since[k] == oldest, "LISF selection rule broken"
                busy[k] = 1
                if multi:
                    if dense:
                        up_t.append(t_cur)
                        up_g.append(pool_of[k])
                    else:
                        z[pool_of[k]] += 1
                busy_since[k] = t_cur
                if x == 1:  # the first busy server restarts the skeleton
                    t_dep = t_cur + skel_gap()
            else:
                if t_cur >= t_warm:
                    win_w += 1
                if track:
                    cid = n_seed + a_count - 1
                    queue.append(cid)
                    if per_customer:
                        heappush(deadline_heap, (t_cur + abandon_draw(), cid))
                        t_ab = deadline_heap[0][0]  # the top was not stale before
                if x > n + queue_cap:
                    overflowed = True
                    end_time = t_cur
                    break
            next_arr = t_cur + arrival_gap()

        if validate:
            idle_count = len(lisf_q) + len(fsf_heap) + len(rand_list)
            assert x == x_init + a_count - sum(d_count) - r_count, "flow conservation broken"
            assert not (x > n and idle_count > 0), "work conservation broken"
            assert idle_count == n - sum(busy), "idle set out of step with busy flags"
            waiting = max(x - n, 0) if track else 0  # ids held only when tracked
            assert len(queue) - len(gone) == waiting, "queue ids out of step"
            assert (t_dep == _INF) == (x == 0), "skeleton on with no server busy"
            if per_customer:  # the earliest deadline of a customer still waiting
                assert t_ab == min(d for d, c in deadline_heap if c > served_upto), "stale t_ab"

    if dense:  # cumulate the counts: X = x0 + A - (S - discards) - R
        _tally(grid_t, logs)
        np.cumsum(xraq[:3], axis=1, out=xraq[:3])
        xraq[0] += xraq[2]  # in place, so no temporary row
        xraq[0] -= xraq[1]
        xraq[0] += x_init
        if multi:
            np.cumsum(grid_z, axis=0, out=grid_z)
            grid_z += z  # still the initial counts: the loop logged the changes
    else:  # fill the remaining grid with the terminal state
        if stage:
            _fill(xraq, grid_z, g0, stage, width)
        xraq[:3, gi:] = [[x], [r_count], [a_count]]
        if multi:
            grid_z[gi:] = z
    np.subtract(xraq[0], n, out=xraq[3])  # Q = (X - N)^+ in place, whichever recorder ran
    np.maximum(xraq[3], 0, out=xraq[3])
    if not multi:  # work conservation: one group's busy count is min(X, N)
        np.minimum(xraq[0], n, out=grid_z[:, 0])
    for k in range(n):
        if busy[k]:
            t_busy[k] += end_time - busy_since[k]
    customers = [None] * 4
    if record:
        customers = [
            np.frombuffer(buf, dtype=dtype)[n_seed:]
            for buf, dtype in ((arr_t, float), (waits, float), (waited, bool), (abandoned, bool))
        ]

    return PathRecord(
        config=config,
        system=system,
        horizon=horizon,
        end_time=end_time,
        rep=rep,
        abandon_mode=mode,
        grid_t=grid_t,
        grid_X=xraq[0],
        grid_Q=xraq[3],
        grid_Z=grid_z,
        grid_R=xraq[1],
        grid_A=xraq[2],
        warmup=warmup,
        arrivals_total=a_count,
        window_arrivals=win_a,
        window_waited=win_w,
        arrival_t=customers[0],
        waits=customers[1],
        waited=customers[2],
        abandoned=customers[3],
        abandon_total=r_count,
        departures=np.asarray(d_count, dtype=np.int64),
        busy_time=np.asarray(t_busy, dtype=float),
        overflowed=overflowed,
        discarded_points=discards,
    )


@dataclass(frozen=True)
class SteadyEstimates:
    p_wait: float
    mean_Q: float
    abandon_rate: float
    window: Tuple[float, float]
    n_arrivals: int
    mean_scaled_queue: float


def steady_estimates(path: PathRecord) -> SteadyEstimates:
    """Summary statistics of one path over its window [warmup * end_time, end_time].

    ``p_wait`` is the run's count of window arrivals that found every server
    busy over its count of window arrivals; queue statistics are grid
    averages over the same window.
    """
    t0 = path.warmup * path.end_time
    mask = (path.grid_t >= t0) & (path.grid_t <= path.end_time)
    if not mask.any():
        raise EmptyWindowError(f"no samples in ({t0}, {path.end_time}]")
    tw = path.grid_t[mask]
    n_arr = path.window_arrivals
    p_wait = path.window_waited / n_arr if n_arr else 0.0
    mean_q = float(path.grid_Q[mask].mean())
    r_window = path.grid_R[mask]
    span = float(tw[-1] - tw[0])
    ab_rate = float(r_window[-1] - r_window[0]) / span if span > 0.0 else 0.0
    scaled_q = path.grid_Q[mask] / math.sqrt(path.config.r)
    return SteadyEstimates(
        p_wait=p_wait,
        mean_Q=mean_q,
        abandon_rate=ab_rate,
        window=(float(t0), float(path.end_time)),
        n_arrivals=n_arr,
        mean_scaled_queue=float(scaled_q.mean()),
    )


@dataclass(frozen=True)
class CoupledPaths:
    """Departure counts of the homogeneous and heterogeneous systems on one skeleton."""

    skeleton_t: np.ndarray
    d_hom: np.ndarray
    d_het: np.ndarray
    departures: np.ndarray  # heterogeneous departures per server
    p_rate: float
    q_rate: float
    n_servers: int

    def ordered_everywhere(self) -> bool:
        return bool(np.all(self.d_hom <= self.d_het))


def coupled_run(
    config: SystemConfig,
    p_rate: float,
    system: RealizedSystem,
    horizon: float,
    rep: int = 0,
    q_rate: Optional[float] = None,
) -> CoupledPaths:
    """Thinning coupling of a rate-p homogeneous twin against ``system``.

    One master Poisson skeleton of rate N*q (q the rate law's upper support
    bound; defaults to the realized maximum) is thinned with shared
    uniforms: the homogeneous system accepts a point when
    U <= (X_hom ^ N)*p/(N*q), the heterogeneous one when U is below the
    ratio of its busy-rate total to N*q, freeing a busy server chosen with
    probability proportional to its rate by rejection (Slepoy, Thompson &
    Plimpton 2008): a uniform busy server k is kept when V*q <= mu_k, V a
    second uniform, else drawn again, so a try is O(1) and at most q/p
    tries are expected. Arrivals (and, when nu > 0, abandonment epochs
    driven by the heterogeneous queue) are shared, so the homogeneous
    departure count can never overtake the heterogeneous one. Arrivals are
    Poisson and idle servers are taken in LISF order, so a config with
    another ``arrival_scv`` or ``policy`` is refused.
    """
    mu = system.mu
    n = system.n_servers
    check_domains(p_rate=p_rate, horizon=horizon)
    if p_rate > float(mu.min()) + 1e-12:
        raise ConfigError(f"p_rate {p_rate} exceeds the minimum realized rate {mu.min()}")
    if config.arrival_scv != 1.0:
        raise ConfigError(f"arrival_scv must be 1 (Poisson) to couple, got {config.arrival_scv}")
    if config.policy is not Policy.LISF:
        raise ConfigError(f"policy must be LISF to couple, got {config.policy.value}")
    if q_rate is None:
        q_rate = float(mu.max())
    elif q_rate < float(mu.max()):
        raise ConfigError(f"q_rate {q_rate} is below the maximum realized rate {mu.max()}")
    lam = config.lambda_r
    nu = config.abandon_rate
    master_rate = n * q_rate

    seed = config.seed
    arrival_gap = _draws(seed, rep, Stream.ARRIVAL, "standard_exponential", _over(lam))
    skel_gap = _draws(seed, rep, Stream.SKELETON, "standard_exponential", _over(master_rate))
    skel_u = _draws(seed, rep, Stream.SERVICE, "random")
    pick_u = _draws(seed, rep, Stream.ROUTING, "random")
    abandon_exp = _draws(seed, rep, Stream.ABANDON, "standard_exponential")

    mu_l = mu.tolist()
    busy = list(range(n))  # swap list of the heterogeneous twin's busy servers
    d_count = [0] * n
    x_het = x_hom = n  # both systems start full: X(0) = N
    sum_busy_mu = float(mu.sum())
    idle: deque = deque()  # LISF order for the heterogeneous twin

    next_arr = arrival_gap() if lam > 0.0 else _INF
    next_skel = skel_gap()
    hazard = abandon_exp() if nu > 0.0 else 0.0  # read only while nu > 0
    t_cur = 0.0

    times: List[float] = []
    hom_counts: List[int] = []
    het_counts: List[int] = []
    d_hom = d_het = 0

    while True:
        q_het = x_het - n if nu > 0.0 and x_het > n else 0
        t_ab = t_cur + (hazard if hazard > 0.0 else 0.0) / (nu * q_het) if q_het else _INF
        # tie order: skeleton point, abandonment, arrival
        if next_skel <= t_ab and next_skel <= next_arr:
            t_next, kind = next_skel, 0
        elif t_ab <= next_arr:
            t_next, kind = t_ab, 1
        else:
            t_next, kind = next_arr, 2
        if t_next > horizon:
            break
        if q_het:
            hazard -= nu * q_het * (t_next - t_cur)
        t_cur = t_next

        if kind == 0:
            u = skel_u()
            # homogeneous acceptance: all busy servers work at rate p
            if x_hom > 0 and u <= ((x_hom if x_hom < n else n) * p_rate) / master_rate:
                x_hom -= 1
                d_hom += 1
            # heterogeneous acceptance: realized busy rates; an empty system frees none
            if u <= sum_busy_mu / master_rate and x_het > 0:
                m = len(busy)
                while True:  # a uniform busy server, kept with probability mu_k/q
                    i = math.trunc(pick_u() * m)
                    if i == m:  # u * m can round up to m
                        i -= 1
                    k = busy[i]
                    if pick_u() * q_rate <= mu_l[k]:
                        break
                x_het -= 1
                d_het += 1
                d_count[k] += 1
                if x_het < n:
                    busy[i] = busy[-1]
                    busy.pop()
                    sum_busy_mu -= mu_l[k]
                    idle.append(k)
                # else: a queued customer takes the freed server immediately
            times.append(t_cur)
            hom_counts.append(d_hom)
            het_counts.append(d_het)
            next_skel = t_cur + skel_gap()
        elif kind == 1:
            # shared abandonment epoch: heterogeneous queue loses its head,
            # the (longer) homogeneous queue loses one as well
            x_het -= 1
            if x_hom > n:  # always true while the ordering holds
                x_hom -= 1
            hazard = abandon_exp()
        else:
            x_het += 1
            x_hom += 1
            if x_het <= n:
                k = idle.popleft()
                busy.append(k)
                sum_busy_mu += mu_l[k]
            next_arr = t_cur + arrival_gap()

    return CoupledPaths(
        skeleton_t=np.asarray(times),
        d_hom=np.asarray(hom_counts, dtype=np.int64),
        d_het=np.asarray(het_counts, dtype=np.int64),
        departures=np.asarray(d_count, dtype=np.int64),
        p_rate=p_rate,
        q_rate=q_rate,
        n_servers=n,
    )


@dataclass(frozen=True)
class Replication:
    rep: int
    zeta_hat: float
    stable: bool
    estimates: SteadyEstimates


def _replicate_one(args) -> Replication:
    config, dist, rep, horizon, mode, warmup, grid_points, x0, queue_cap = args
    system = RealizedSystem.from_config(config, dist, rep)
    path = run(
        config, system, horizon, mode=mode, x0=x0, grid_points=grid_points,
        queue_cap=queue_cap, rep=rep, warmup=warmup,
    )
    if path.overflowed:
        raise DomainError(
            f"replication {rep}: queue exceeded queue_cap={queue_cap} at t={path.end_time:.6g}"
        )
    return Replication(
        rep=rep,
        zeta_hat=system.zeta_hat,
        stable=system.stable,
        estimates=steady_estimates(path),
    )


def replicate(
    config: SystemConfig,
    dist: RateDistribution,
    n_reps: int,
    horizon: float,
    mode: AbandonMode = AbandonMode.NONE,
    warmup: float = 0.2,
    grid_points: int = 10_000,
    x0: Optional[int] = None,
    queue_cap: int = 1_000_000,
) -> List[Replication]:
    """Independent replications with fresh rate draws; streams split by rep.

    Each replication is one ``run`` with these arguments. A replication
    whose queue exceeds ``queue_cap`` raises DomainError, since its
    estimates would cover a truncated run. Fan-out across processes is
    capped by HETQ_THREADS (default: in-process sequential). Results are
    keyed by replication index either way.
    """
    check_domains(reps=n_reps)
    jobs = [
        (config, dist, rep, horizon, mode, warmup, grid_points, x0, queue_cap)
        for rep in range(n_reps)
    ]
    raw = os.environ.get("HETQ_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ConfigError(f"HETQ_THREADS must be a positive integer, got {raw!r}")
    if threads > 1 and n_reps > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(threads, n_reps)) as pool:
            results = list(pool.map(_replicate_one, jobs))
    else:
        results = [_replicate_one(job) for job in jobs]
    return sorted(results, key=lambda rr: rr.rep)


def path_to_csv(path: PathRecord) -> str:
    """Fixed-layout trajectory table: t,X,Q,Z_1..Z_I,R plus a trailing A."""
    cols = ["t", "X", "Q"] + [f"Z_{i+1}" for i in range(path.system.n_pools)] + ["R", "A"]
    z_cells = [",".join(map(str, row)) for row in path.grid_Z.tolist()]
    rows = zip(
        path.grid_t.tolist(), path.grid_X.tolist(), path.grid_Q.tolist(), z_cells,
        path.grid_R.tolist(), path.grid_A.tolist(),
    )
    lines = [",".join(cols)]
    lines += [f"{t!r},{x},{q},{z},{r},{a}" for t, x, q, z, r, a in rows]
    return "\n".join(lines) + "\n"


def path_summary(path: PathRecord) -> dict:
    """JSON-ready run summary: counts, realized rates, seed, flags."""
    config, system = path.config, path.system
    return {
        "seed": config.seed,
        "rep": path.rep,
        "r": config.r,
        "n_servers": system.n_servers,
        "n_pools": system.n_pools,
        "policy": config.policy.value,
        "abandon_mode": path.abandon_mode.value,
        "lambda_r": config.lambda_r,
        "horizon": path.horizon,
        "end_time": path.end_time,
        "overflowed": path.overflowed,
        "arrivals": path.arrivals_total,
        "departures": path.departures_total,
        "abandonments": path.abandon_total,
        "sum_mu": float(system.mu.sum()),
        "mu_min": float(system.mu.min()),
        "mu_max": float(system.mu.max()),
    }
