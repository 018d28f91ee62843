"""Seeded discrete-event simulation of the heterogeneous many-server queue.

One pool or several (inverted-V), FIFO non-preemptive service, LISF / FSF /
RANDOM routing, and two abandonment constructions: independent patience per
customer, or the head-of-queue process that abandons at rate nu * Q(t).
README.md's simulator entry is the full account of the engine: the draws,
the departure skeleton, the schedule that hands the loop its arrivals and
skeleton points in time order and the grid recorder (both in
``hetq.schedule``), the loop compiled per run shape, the window counters,
memory and the stream layout.

A run is single-threaded and a pure function of (config, seed, rep). The
order in which each stream is consumed is part of that contract
(``tests/test_sim.py::TestStreamPinning`` pins it), so a change to it is a
new stream layout, which ``hetq.cli`` stamps into manifests. ``run`` calls a
copy of ``_simulate`` compiled for its shape from this file's source, which
keeps its name and line numbers; if that source cannot be read, or is not
the one imported, ``_simulate`` itself runs.
"""

from __future__ import annotations

import functools
import linecache
import math
import os
import re
from array import array
from collections import deque
from dataclasses import dataclass
from enum import Enum
from heapq import heapify, heappop, heappush
from itertools import chain
from types import ModuleType
from typing import Callable, Iterator, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .core import (
    Policy,
    RealizedSystem,
    Stream,
    SystemConfig,
    check_domains,
    rng_stream,
)
from .errors import ConfigError, DomainError
from .schedule import _BLOCK, _EMPTY, _INF, _Recorder, _Schedule

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

_FIRST_BLOCK = 64
_CSV_BLOCK = 4096  # rows of a CSV table formatted by one %
# a run makes about (lambda_r + sum mu) * horizon loop passes; criterion 2's
# largest run makes 5.2e7
MAX_EXPECTED_EVENTS = 1e9
_Transform = Callable[[np.ndarray], np.ndarray]  # maps one block of draws


class AbandonMode(Enum):
    NONE = "none"
    PER_CUSTOMER = "per_customer"
    PERTURBED = "perturbed"


def _blocks(
    seed: int, rep: int, stream: Stream, method: str, transform: Optional[_Transform] = None,
) -> Iterator[np.ndarray]:
    """One stream's draws of ``method``, e.g. ``"random"``, in blocks of 64, 128, ... up to 4096.

    The stream's generator is built on the first block. numpy's ``random``
    and ``standard_exponential`` give the same values however the draws are
    split into calls, so the values are those of one long call.
    ``transform``, if given, maps each block, so the arithmetic a draw needs
    (a scale, a shift, an alias pick, which gives ints) is done once per
    block. Each transform does the same IEEE operations, in the same order,
    as the scalar expression it replaces, so the values are bit for bit the same.
    """
    sample = getattr(rng_stream(seed, rep, stream), method)
    size = _FIRST_BLOCK
    while True:
        yield _mapped(sample(size), transform)  # the frame keeps no block while it waits
        size = min(2 * size, _BLOCK)


def _mapped(block: np.ndarray, transform: Optional[_Transform]) -> np.ndarray:
    if transform is None:
        return block
    # a rate near 5e-324 gives gaps past 1e308: inf, an event that never comes
    with np.errstate(over="ignore"):
        return transform(block)


def _draws(
    seed: int, rep: int, stream: Stream, method: str, transform: Optional[_Transform] = None,
) -> Callable[[], Union[float, int]]:
    """Next-draw function of ``_blocks``'s draws: one C-level call per draw."""
    blocks = _blocks(seed, rep, stream, method, transform)
    return chain.from_iterable(map(np.ndarray.tolist, blocks)).__next__


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


@functools.lru_cache(maxsize=4)  # ssc runs one system 30 times, then the next
def _alias_cache(weights: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """``_alias_table`` of float64 ``weights`` bytes, built once for every run of them."""
    return _alias_table(np.frombuffer(weights).tolist())


def _alias_pick(weights: List[float]) -> _Transform:
    """Block transform of uniforms into the indices ``_alias_table`` picks.

    Per element it is the scalar u = U * n; i = int(u);
    i if u - i < cut[i] else alias[i]: the product and the difference are
    the same IEEE operations, and U < 1 truncates like ``int``.
    """
    cut, alias = _alias_cache(np.asarray(weights, dtype=float).tobytes())
    n = len(weights)

    def pick(block: np.ndarray) -> np.ndarray:
        u = block * n
        i = u.astype(np.int64)
        return np.where(u - i < cut[i], i, alias[i])

    return pick


def _over(rate: float) -> _Transform:
    """Block transform E -> E / rate; a product with 1 / rate would round differently."""
    return lambda e: e / rate


def _check_events(lam: float, rate_total: float, horizon: float,
                  source="horizon {horizon:.6g} and lambda_r {lam:.6g} give", remedy="either", **names):
    """Refuse more than 1e9 expected arrivals (``lam``) and other events (``rate_total``).

    ``source`` (formatted with ``horizon``, ``lam`` and ``names``) and ``remedy`` name the keys.
    """
    events = (lam + rate_total) * horizon
    if lam > 0.0 and events > MAX_EXPECTED_EVENTS:
        source = source.format(horizon=horizon, lam=lam, **names)
        raise ConfigError(
            f"{source} about {events:.3g} events, over the {MAX_EXPECTED_EVENTS:.0e} "
            f"a run may make; lower {remedy}"
        )


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
    customers, the per-server ones unless it recorded servers. ``config``
    and ``system`` are the ones the run was given. ``discarded_points``
    counts the departure skeleton's points that named an idle server.
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
    departures_total: int  # x0 + arrivals - abandonments - final X
    departures: Optional[np.ndarray]  # per server
    busy_time: Optional[np.ndarray]  # per server
    overflowed: bool
    discarded_points: int


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
    record_servers: bool = False,
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
    With ``validate`` the state before every arrival and skeleton point,
    and after every abandonment, asserts flow conservation, work
    conservation and a compact deadline heap, every skeleton point a busy
    server, and every assignment the LISF selection rule. ``grid_points`` is at most
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
    replay is the same run. The per-customer record, an output no estimate
    reads, is kept only with ``record_customers``; each server's departures
    and busy time, which ``fairness_estimate`` reads, only with
    ``record_servers`` or ``validate``.

    Arrivals form a renewal stream with inter-arrival d + m_e*E, E unit
    exponential: SCV 1 is exponential, SCV in [0, 1) takes
    m_e = sqrt(scv)/lam, which hits the SCV exactly. Values above 1 are
    outside the simulator's renewal family.
    """
    check_domains(horizon=horizon, warmup=warmup, grid_points=grid_points, queue_cap=queue_cap)
    if mode is not AbandonMode.NONE and config.abandon_rate <= 0.0:
        raise ConfigError(f"abandonment mode {mode.value} needs abandon_rate > 0")
    n = system.n_servers
    if x0 is not None:
        check_domains(x0=x0)
        if x0 > n + queue_cap:
            raise ConfigError(f"x0 must be in [0, N + queue_cap] = [0, {n + queue_cap}], got {x0}")
    _check_events(config.lambda_r, system.sum_mu, horizon)
    shape = _shape(config, system, mode, record_customers, record_servers, validate)
    loop = _loop(shape)
    args = (config, system, horizon, mode, x0, grid_points, queue_cap, rep, warmup)
    path = loop(*args, warmup * horizon, shape)
    if path.overflowed:
        t_warm, path = warmup * path.end_time, None  # free the first pass's grid first
        path = loop(*args, t_warm, shape)
    return path


class _Shape(NamedTuple):
    """The flags ``_simulate`` unpacks into locals of the same names, and never changes.

    They are fixed before the first event, so ``_loop`` folds them in.
    """

    lisf: bool
    fsf: bool  # neither: RANDOM
    abandon: bool  # the abandonment mode is not none
    per_customer: bool
    perturbed: bool
    track: bool  # keep the ids of waiting customers: record or per_customer
    multi: bool  # several server groups; one group's busy count is min(X, N)
    record: bool
    per_server: bool  # each server's departures and busy time; validate reads them
    validate: bool


def _shape(config, system, mode, record, per_server, validate) -> _Shape:
    """The shape of ``run``'s loop with these arguments."""
    per_customer = mode is AbandonMode.PER_CUSTOMER
    return _Shape(
        lisf=config.policy is Policy.LISF,
        fsf=config.policy is Policy.FSF,
        abandon=mode is not AbandonMode.NONE,
        per_customer=per_customer,
        perturbed=mode is AbandonMode.PERTURBED,
        track=bool(record) or per_customer,
        multi=system.n_pools > 1,
        record=bool(record),
        per_server=bool(per_server or validate),
        validate=bool(validate),
    )


def _live(deadlines: list, served_upto: int) -> list:
    """The entries of a patience deadline heap whose customer is still waiting, as a heap."""
    live = [entry for entry in deadlines if entry[1] > served_upto]
    heapify(live)
    return live


def _simulate(
    config, system, horizon, mode, x0, grid_points, queue_cap, rep, warmup,
    t_warm: float, shape: _Shape,
) -> PathRecord:
    """One pass of ``run``'s event loop, counting arrivals at t >= ``t_warm``.

    Written for every shape at once. ``run`` calls the copy that
    ``_loop(shape)`` compiles with the shape's flags as constants; this
    function is the reference that copy is tested against, and what runs
    when the source cannot be read. No comprehension in it reads a name the
    loop reads, which would make that name a cell, slower in every pass.
    """
    lisf, fsf, abandon, per_customer, perturbed, track, multi, record, per_server, validate = shape
    n, n_pools = system.n_servers, system.n_pools
    mu = system.mu.tolist()
    pool_of = system.pool_of.tolist()
    lam, nu, seed = config.lambda_r, config.abandon_rate, config.seed

    # departure skeleton of rate sum mu, off while no server is busy; fsum is
    # exactly rounded, so the rate does not depend on a summation order
    sum_mu = math.fsum(mu)
    rec = _Recorder(np.linspace(0.0, horizon, grid_points), n_pools, t_warm)
    # each stream's arithmetic is done once per block: arrival and skeleton
    # gaps, the server a skeleton point names, and per-customer patience;
    # perturbed abandonment reads unit hazards
    std_exp = "standard_exponential"
    arrivals = _blocks(seed, rep, Stream.ARRIVAL, std_exp, _interarrival(lam, config.arrival_scv))
    points = zip(_blocks(seed, rep, Stream.SKELETON, std_exp, _over(sum_mu)),
                 _blocks(seed, rep, Stream.SERVICE, "random", _alias_pick(system.mu)))
    # a listed chunk names each server, and the arrival mark -1, by one shared int
    # object: listing the marks' int64s would make an int per entry
    servers = np.array([*range(n), -1], dtype=object)
    schedule = _Schedule(arrivals if lam > 0.0 else None, points, horizon,
                         rec.tally, functools.partial(rec.tally, _EMPTY), servers)
    abandon_draw = _draws(
        seed, rep, Stream.ABANDON, std_exp, _over(nu) if per_customer else None
    )
    routing_u = _draws(seed, rep, Stream.ROUTING, "random")

    # initial state: x0 in system, lowest-index servers busy first
    x = n if x0 is None else int(x0)
    n_busy0 = min(x, n)
    busy = bytearray(n)  # 1 = busy
    busy[:n_busy0] = b"\x01" * n_busy0
    if per_server:  # while idle, busy_since is the time the server went idle
        busy_since, t_busy, d_count = [0.0] * n, [0.0] * n, [0] * n
    z0 = np.bincount(system.pool_of[:n_busy0], minlength=n_pools)  # initial busy count per group

    # idle set of the policy; the other two stay empty
    idle_ids = range(n_busy0, n)
    lisf_q: deque = deque(idle_ids if lisf else ())
    # FSF's heap holds ranks in (-mu, k) order, so it compares ints: order[r]
    # is the server of rank r, rank[k] the rank of server k; equal rates give
    # the lowest index first
    order = sorted(range(n), key=lambda k: (-mu[k], k)) if fsf else []
    rank = np.argsort(order).tolist()
    fsf_heap = sorted(map(rank.__getitem__, idle_ids)) if fsf else []  # sorted is a heap
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
    # exactly when its id is at most served_upto, and the heap is rebuilt from
    # its live entries (_live) whenever the stale ones outnumber them
    patience = iter(abandon_draw, None)
    deadline_heap = [(d, cid) for cid, d in zip(range(n_seed), patience)] if per_customer else []
    deadline_heap.append((_INF, _INF))
    heapify(deadline_heap)

    discard_log, abandon_log = rec.discards, rec.abandons
    if multi:  # each server's group's logs
        busy_log = [rec.busy_logs[g] for g in pool_of]
        idle_log = [rec.idle_logs[g] for g in pool_of]

    a_count = 0
    r_count = 0
    discards = 0
    win_w = 0  # arrivals at t >= t_warm that waited; the recorder counts all of them
    x_init = x
    hazard = abandon_draw() if perturbed else 0.0
    t_cur = 0.0  # the last event's time, from which perturbed abandonment spends its hazard
    overflowed = False
    end_time = horizon

    # per_customer keeps t_ab current, reading the heap only where the waiting
    # set changes (a served head, an abandonment, a waiting arrival); perturbed
    # recomputes it before each entry, and mode none never compares it
    t_ab = deadline_heap[0][0]
    while True:
        # one entry per arrival (k = -1) or skeleton point naming server k, in
        # time order, and k = -2 at the horizon; the schedule restarts the
        # skeleton at the next arrival after the loop leaves it at X = 0
        for k, t in schedule.chunk(a_count, x_init + a_count - r_count - x + discards, x):
            if validate:  # the state after the events before t
                idle_count = len(lisf_q) + len(fsf_heap) + len(rand_list)
                assert x == x_init + a_count - sum(d_count) - r_count, "flow conservation broken"
                assert not (x > n and idle_count > 0), "work conservation broken"
                assert idle_count == n - sum(busy), "idle set out of step with busy flags"
                waiting = max(x - n, 0) if track else 0  # ids held only when tracked
                assert len(queue) - len(gone) == waiting, "queue ids out of step"
                assert x > 0 or k < 0, "skeleton on with no server busy"
                if per_customer:  # the earliest deadline of a customer still waiting
                    assert t_ab == _live(deadline_heap, served_upto)[0][0], "stale t_ab"
                    assert len(deadline_heap) <= 2 * waiting + 1, "stale deadlines outnumber live"

            # abandonments come first, in the tie order point, abandonment, arrival
            while abandon:
                if perturbed:  # the hazard left is spent at rate nu * Q
                    q = x - n  # Q where positive; the loop keeps X only
                    if q <= 0:
                        break
                    t_ab = t_cur + (hazard if hazard > 0.0 else 0.0) / (nu * q)
                if t_ab > t or t_ab == t and k >= 0:
                    break
                t_cur = t_ab
                abandon_log.append(t_cur)
                if perturbed:  # a fresh hazard replaces the one spent
                    hazard = abandon_draw()
                    if record:
                        cid = queue.popleft()  # perturbed customers leave only from the head
                else:
                    cid = heappop(deadline_heap)[1]
                    gone.add(cid)
                    while deadline_heap[0][1] <= served_upto:
                        heappop(deadline_heap)
                    if len(deadline_heap) > 2 * (x - n) - 1:  # stale outnumber the x - 1 - n live
                        deadline_heap = _live(deadline_heap, served_upto)
                    t_ab = deadline_heap[0][0]
                x -= 1
                r_count += 1
                if record:
                    waits[cid] = t_cur - arr_t[cid]
                    abandoned[cid] = 1
                if validate:  # the state after each abandonment
                    idle_count = len(lisf_q) + len(fsf_heap) + len(rand_list)
                    assert x == x_init + a_count - sum(d_count) - r_count, "flow conservation broken"
                    assert not (x > n and idle_count > 0), "work conservation broken"
                    if per_customer:
                        assert len(deadline_heap) <= 2 * (x - n) + 1, "stale deadlines outnumber live"

            if perturbed:
                if q > 0:
                    hazard -= nu * q * (t - t_cur)
                t_cur = t
            if k >= 0:
                # skeleton point naming server k: if k is busy it departs and takes
                # the queue's head if anyone waits (X >= N after it); if idle, nothing moves
                if busy[k]:
                    x -= 1
                    if per_server:
                        d_count[k] += 1
                        t_busy[k] += t - busy_since[k]
                        busy_since[k] = t
                    if x >= n:
                        if track:
                            cid = queue.popleft()
                            if per_customer:
                                while cid in gone:
                                    gone.remove(cid)
                                    cid = queue.popleft()
                                served_upto = cid
                                while deadline_heap[0][1] <= served_upto:
                                    heappop(deadline_heap)  # already served
                                if len(deadline_heap) > 2 * (x - n) + 1:  # stale outnumber live
                                    deadline_heap = _live(deadline_heap, served_upto)
                                t_ab = deadline_heap[0][0]
                            if record:
                                waits[cid] = t - arr_t[cid]
                    else:
                        busy[k] = 0
                        if multi:
                            idle_log[k].append(t)
                        if lisf:
                            lisf_q.append(k)
                        elif fsf:
                            heappush(fsf_heap, rank[k])
                        else:
                            rand_list.append(k)
                        if not x:
                            break  # the skeleton stops
                else:
                    discards += 1
                    discard_log.append(t)
            elif k == -1:
                # arrival
                a_count += 1
                x += 1
                if record:
                    arr_t.append(t)
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
                        oldest = min(s for s, b in zip(busy_since, busy) if not b)
                        assert busy_since[k] == oldest, "LISF selection rule broken"
                    busy[k] = 1
                    if multi:
                        busy_log[k].append(t)
                    if per_server:
                        busy_since[k] = t
                else:
                    if t >= t_warm:
                        win_w += 1
                    if track:
                        cid = n_seed + a_count - 1
                        queue.append(cid)
                        if per_customer:
                            heappush(deadline_heap, (t + abandon_draw(), cid))
                            t_ab = deadline_heap[0][0]  # the top was not stale before
                    if x > n + queue_cap:
                        overflowed = True
                        end_time = t
                        break
            else:
                break  # the horizon
        else:
            continue  # the chunk is done
        if k < 0:
            break  # the horizon, or an overflow; else the skeleton stopped

    d_total = x_init + a_count - r_count - x  # by flow conservation
    # the skeleton's points are its departures and discards
    schedule.finish(a_count, d_total + discards)
    xraq, grid_z = rec.finish(x_init, n, z0)
    if per_server:  # the busy periods still open end at end_time
        t_busy = [t + (end_time - s) if b else t for t, s, b in zip(t_busy, busy_since, busy)]
    customers = [None] * 4
    if record:
        customers = [np.frombuffer(arr_t)[n_seed:], np.frombuffer(waits)[n_seed:],
                     np.frombuffer(waited, dtype=bool)[n_seed:],
                     np.frombuffer(abandoned, dtype=bool)[n_seed:]]

    return PathRecord(
        config=config,
        system=system,
        horizon=horizon,
        end_time=end_time,
        rep=rep,
        abandon_mode=mode,
        grid_t=rec.grid_t,
        grid_X=xraq[0],
        grid_Q=xraq[3],
        grid_Z=grid_z,
        grid_R=xraq[1],
        grid_A=xraq[2],
        warmup=warmup,
        arrivals_total=a_count,
        window_arrivals=a_count - rec.early,
        window_waited=win_w,
        arrival_t=customers[0],
        waits=customers[1],
        waited=customers[2],
        abandoned=customers[3],
        abandon_total=r_count,
        departures_total=d_total,
        departures=np.asarray(d_count, dtype=np.int64) if per_server else None,
        busy_time=np.asarray(t_busy, dtype=float) if per_server else None,
        overflowed=overflowed,
        discarded_points=discards,
    )


# _simulate's first statement; the copies _loop compiles put a constant in
# place of each name it binds
_UNPACK = ", ".join(_Shape._fields) + " = shape"
_FLAG = re.compile(r"(?<![.\w])(" + "|".join(_Shape._fields) + r")\b")
# the modules this one imports; CPython compiles a call of a module's function
# differently once it knows the name is an import
_IMPORTS = "import " + ", ".join(
    f"{module.__name__} as {name}"
    for name, module in globals().items() if isinstance(module, ModuleType)
)


@functools.cache
def _loop_source() -> Optional[str]:
    """``_simulate``'s source on its own lines of ``sim.py``, or None if it cannot be read.

    ``_IMPORTS`` and blank lines stand in for the lines above it, so code
    compiled from it reports ``sim.py``'s line numbers. The source must
    compile to ``_simulate``'s own code, so a ``sim.py`` edited since import
    is not read.
    """
    code = _simulate.__code__
    first = code.co_firstlineno
    # the module's loader finds the source inside a zip too
    lines = linecache.getlines(code.co_filename, globals())
    last = max(line for _, _, line in code.co_lines() if line is not None)  # the last statement
    while last < len(lines) and lines[last][:1].isspace():  # and the lines that continue it
        last += 1
    source = _IMPORTS + "\n" * (first - 1) + "".join(lines[first - 1:last])
    try:
        compiled = compile(source, code.co_filename, "exec")
    except SyntaxError:
        return None
    return source if code in compiled.co_consts else None


@functools.cache
def _loop(shape: _Shape) -> Callable[..., PathRecord]:
    """``_simulate`` with ``shape``'s flags as constants, compiled on the shape's first use.

    It runs in this module's globals, so a name patched in this module reaches it.
    ``_simulate`` itself if the source cannot be read.
    """
    source = _loop_source()
    if source is None:
        return _simulate
    source = source.replace(_UNPACK, "pass", 1)
    source = _FLAG.sub(lambda flag: str(getattr(shape, flag[1])), source)
    defined: dict = {}
    exec(compile(source, _simulate.__code__.co_filename, "exec"), globals(), defined)
    return defined["_simulate"]


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
    # the grid is sorted, so the window is one slice
    lo = int(path.grid_t.searchsorted(t0))
    hi = int(path.grid_t.searchsorted(path.end_time, side="right"))
    if lo >= hi:
        raise DomainError(f"no samples in ({t0}, {path.end_time}]")
    n_arr = path.window_arrivals
    p_wait = path.window_waited / n_arr if n_arr else 0.0
    q_window = path.grid_Q[lo:hi]
    mean_q = float(q_window.mean())
    span = float(path.grid_t[hi - 1] - path.grid_t[lo])
    ab_rate = float(path.grid_R[hi - 1] - path.grid_R[lo]) / span if span > 0.0 else 0.0
    scaled_q = q_window / math.sqrt(path.config.r)
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
    another ``arrival_scv`` or ``policy`` is refused. The skeleton and the
    arrivals come from ``run``'s schedule, each point marked with its
    uniform, and each point logs one code byte: bit 1 if the homogeneous
    twin departs, bit 2 if the heterogeneous one does.
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
    _check_events(lam, master_rate, horizon)

    seed = config.seed
    std_exp = "standard_exponential"
    arrivals = _blocks(seed, rep, Stream.ARRIVAL, std_exp, _over(lam)) if lam > 0.0 else None
    # the skeleton runs throughout; each point is marked with its SERVICE uniform
    points = zip(_blocks(seed, rep, Stream.SKELETON, std_exp, _over(master_rate)),
                 _blocks(seed, rep, Stream.SERVICE, "random"))
    kept: List[np.ndarray] = []  # the point times
    schedule = _Schedule(arrivals, points, horizon, lambda times: None, kept.append)
    pick_u = _draws(seed, rep, Stream.ROUTING, "random")
    abandon_exp = _draws(seed, rep, Stream.ABANDON, std_exp)

    mu_l = mu.tolist()
    busy = list(range(n))  # swap list of the heterogeneous twin's busy servers
    d_count = [0] * n
    x_het = x_hom = n  # both systems start full: X(0) = N
    sum_busy_mu = float(mu.sum())
    idle: deque = deque()  # LISF order for the heterogeneous twin
    # the homogeneous twin accepts a point when U <= (X_hom ^ N) * p / (N q); none at X_hom = 0
    hom_cut = [-1.0] + [(x * p_rate) / master_rate for x in range(1, n + 1)]

    hazard = abandon_exp() if nu > 0.0 else 0.0  # read only while nu > 0
    t_cur = 0.0
    a_count = 0
    codes = bytearray()  # per point: 1 if the homogeneous twin departs, + 2 if the heterogeneous one

    while True:
        # one entry per point (its uniform u) or arrival (u = -1), and u = -2 at the horizon
        for u, t in schedule.chunk(a_count, len(codes)):
            while True:  # shared abandonment epochs first; tie order: point, abandonment, arrival
                q_het = x_het - n if nu > 0.0 and x_het > n else 0
                if not q_het:
                    break
                t_ab = t_cur + (hazard if hazard > 0.0 else 0.0) / (nu * q_het)
                if t_ab > t or t_ab == t and u >= 0.0:
                    break
                # the heterogeneous queue loses its head, the (longer) homogeneous queue one as well
                t_cur = t_ab
                x_het -= 1
                if x_hom > n:  # always true while the ordering holds
                    x_hom -= 1
                hazard = abandon_exp()
            if q_het:
                hazard -= nu * q_het * (t - t_cur)
            t_cur = t

            if u >= 0.0:
                code = 0
                # homogeneous acceptance: all busy servers work at rate p
                if u <= hom_cut[x_hom if x_hom < n else n]:
                    x_hom -= 1
                    code = 1
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
                    d_count[k] += 1
                    code += 2
                    if x_het < n:
                        busy[i] = busy[-1]
                        busy.pop()
                        sum_busy_mu -= mu_l[k]
                        idle.append(k)
                    # else: a queued customer takes the freed server immediately
                codes.append(code)
            elif u == -1.0:
                x_het += 1
                x_hom += 1
                a_count += 1
                if x_het <= n:
                    k = idle.popleft()
                    busy.append(k)
                    sum_busy_mu += mu_l[k]
            else:
                break  # the horizon
        else:
            continue  # the chunk is done
        break

    schedule.finish(a_count, len(codes))
    code_arr = np.frombuffer(codes, dtype=np.uint8)
    return CoupledPaths(
        skeleton_t=np.concatenate(kept),
        d_hom=np.cumsum(code_arr & 1, dtype=np.int64),
        d_het=np.cumsum(code_arr >> 1, dtype=np.int64),
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
    config, rep, horizon, mode, warmup, grid_points, x0, queue_cap = args
    system = RealizedSystem.from_config(config, rep)
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
    n_reps: int,
    horizon: float,
    mode: AbandonMode = AbandonMode.NONE,
    warmup: float = 0.2,
    grid_points: int = 10_000,
    x0: Optional[int] = None,
    queue_cap: int = 1_000_000,
) -> List[Replication]:
    """Independent replications with fresh draws from ``config.rates``; streams split by rep.

    Each replication is one ``run`` with these arguments. A replication
    whose queue exceeds ``queue_cap`` raises DomainError, since its
    estimates would cover a truncated run. Fan-out across processes is
    capped by HETQ_THREADS (default: in-process sequential). Results are
    keyed by replication index either way.
    """
    check_domains(reps=n_reps)
    jobs = [
        (config, rep, horizon, mode, warmup, grid_points, x0, queue_cap)
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


def csv_table(header: str, fmt: str, *columns) -> bytes:
    """The ``header`` line, then one line per row of ``columns``, formatted by ``fmt``.

    ``fmt`` holds "%r" for a float column (cells repr(float(x))), "%d" for an
    integer one and "%s" for a list of rendered cells. One ``%`` formats each
    block of _CSV_BLOCK rows, so a long table never holds all its cells at once.
    """
    cols = [c if f == "%s" else np.asarray(c, dtype=float if f == "%r" else None)
            for f, c in zip(fmt.split(","), columns)]
    blocks = [header.encode() + b"\n"]
    for start in range(0, len(cols[0]), _CSV_BLOCK):
        cells = (c[start:start + _CSV_BLOCK] for c in cols)
        rows = tuple(chain.from_iterable(zip(*(c if isinstance(c, list) else c.tolist() for c in cells))))
        blocks.append((((fmt + "\n") * (len(rows) // len(cols))) % rows).encode())
    return b"".join(blocks)


def path_to_csv(path: PathRecord) -> bytes:
    """Fixed-layout trajectory table: t,X,Q,Z_1..Z_I,R plus a trailing A."""
    groups = path.system.n_pools
    cols = ["t", "X", "Q"] + [f"Z_{i+1}" for i in range(groups)] + ["R", "A"]
    columns = (path.grid_t, path.grid_X, path.grid_Q, *path.grid_Z.T, path.grid_R, path.grid_A)
    return csv_table(",".join(cols), "%r" + ",%d" * (4 + groups), *columns)  # repr of t, then the counts


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
