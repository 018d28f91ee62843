"""Reference grid for the event engine: one numpy slice write per grid crossing.

A frozen copy of the event loop of ``hetq.sim.run`` as it was before the
grid writes were staged, with the per-customer record, validation and
window counters left out. Departures come from the run's rate-sum-mu
skeleton: a point names server k with probability mu_k / sum mu through an
alias table, and departs k if k is busy. Each event that passes grid times
writes the state before the event into ``grid[gi:hi]`` at once, and every
stream is read in eager blocks of 8192 draws from a generator built up
front. The grid it returns is the one ``run`` must reproduce exactly
(``tests/test_sim.py::TestGridReference``).
"""

import math
from bisect import bisect_left
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import chain

import numpy as np

from hetq.core import Policy, Stream, rng_stream
from hetq.sim import AbandonMode, _alias_table

_INF = math.inf


def _draws(sample):
    return chain.from_iterable(iter(lambda: sample(8192).tolist(), None)).__next__


def reference_grid(config, system, horizon, mode=AbandonMode.NONE, x0=None,
                   grid_points=10_000, queue_cap=1_000_000, rep=0):
    """Grid rows (X, Q, R, A, Z_1..) of the run ``run`` makes with these arguments."""
    n = system.n_servers
    mu = system.mu.tolist()
    pool_of = system.pool_of.tolist()
    lam = config.lambda_r
    nu = config.abandon_rate
    lisf = config.policy is Policy.LISF
    fsf = config.policy is Policy.FSF
    seed = config.seed
    per_customer = mode is AbandonMode.PER_CUSTOMER
    perturbed = mode is AbandonMode.PERTURBED

    scv = config.arrival_scv
    det, m_e = 0.0, 0.0
    if lam > 0.0:
        if abs(scv - 1.0) <= 1e-12:
            m_e = 1.0 / lam
        elif scv <= 0.0:
            det = 1.0 / lam
        else:
            root = math.sqrt(scv)
            det, m_e = (1.0 - root) / lam, root / lam

    arrival_exp = _draws(rng_stream(seed, rep, Stream.ARRIVAL).standard_exponential)
    skel_exp = _draws(rng_stream(seed, rep, Stream.SKELETON).standard_exponential)
    pick_u = _draws(rng_stream(seed, rep, Stream.SERVICE).random)
    abandon_exp = _draws(rng_stream(seed, rep, Stream.ABANDON).standard_exponential)
    routing_u = _draws(rng_stream(seed, rep, Stream.ROUTING).random)

    x = n if x0 is None else int(x0)
    n_busy0 = min(x, n)
    z = [0] * system.n_pools
    for k in range(n_busy0):
        z[pool_of[k]] += 1
    busy = [k < n_busy0 for k in range(n)]
    sum_mu = math.fsum(mu)
    cut, alias = _alias_table(mu)
    t_dep = skel_exp() / sum_mu if n_busy0 else _INF
    idle_ids = range(n_busy0, n)
    lisf_q = deque(idle_ids if lisf else ())
    fsf_heap = sorted((-mu[k], k) for k in idle_ids) if fsf else []
    rand_list = list(idle_ids) if not (lisf or fsf) else []

    q = n_seed = x - n_busy0
    queue = deque(range(q) if per_customer else ())
    gone = set()
    served_upto = -1
    deadline_heap = [(abandon_exp() / nu, cid) for cid in range(q)] if per_customer else []
    deadline_heap.append((_INF, _INF))
    heapify(deadline_heap)

    grid_list = np.linspace(0.0, horizon, grid_points).tolist() + [_INF]
    grid = np.zeros((grid_points, 4 + system.n_pools), dtype=np.int64)
    gi = 0
    t_grid = grid_list[0]
    a_count = r_count = 0
    next_arr = det + m_e * arrival_exp() if lam > 0.0 else _INF
    hazard = abandon_exp() if perturbed else 0.0
    t_cur = 0.0

    while True:
        if perturbed:
            t_ab = t_cur + (hazard if hazard > 0.0 else 0.0) / (nu * q) if q > 0 else _INF
        elif per_customer:
            while deadline_heap[0][1] <= served_upto:
                heappop(deadline_heap)
            t_ab = deadline_heap[0][0]
        else:
            t_ab = _INF
        if t_dep <= t_ab and t_dep <= next_arr:
            t_next, kind = t_dep, 0
        elif t_ab <= next_arr:
            t_next, kind = t_ab, 1
        else:
            t_next, kind = next_arr, 2
        if t_next > horizon:
            break

        if t_grid < t_next:
            hi = bisect_left(grid_list, t_next, gi)
            grid[gi:hi] = (x, q, r_count, a_count, *z)
            gi = hi
            t_grid = grid_list[gi]

        if perturbed and q > 0:
            hazard -= nu * q * (t_next - t_cur)
        t_cur = t_next

        if kind == 0:
            u = pick_u() * n
            i = int(u)
            k = i if u - i < cut[i] else alias[i]
            if busy[k]:
                x -= 1
                if q:
                    if per_customer:
                        cid = queue.popleft()
                        while cid in gone:
                            gone.remove(cid)
                            cid = queue.popleft()
                        served_upto = cid
                    q -= 1
                else:
                    busy[k] = False
                    z[pool_of[k]] -= 1
                    if lisf:
                        lisf_q.append(k)
                    elif fsf:
                        heappush(fsf_heap, (-mu[k], k))
                    else:
                        rand_list.append(k)
            t_dep = t_cur + skel_exp() / sum_mu if x else _INF
        elif kind == 1:
            if perturbed:
                hazard = abandon_exp()
            else:
                gone.add(heappop(deadline_heap)[1])
            q -= 1
            x -= 1
            r_count += 1
        else:
            a_count += 1
            x += 1
            if x <= n:
                if lisf:
                    k = lisf_q.popleft()
                elif fsf:
                    k = heappop(fsf_heap)[1]
                else:
                    m = len(rand_list)
                    pos = int(routing_u() * m)
                    if pos == m:
                        pos -= 1
                    k = rand_list[pos]
                    rand_list[pos] = rand_list[-1]
                    rand_list.pop()
                busy[k] = True
                z[pool_of[k]] += 1
                if x == 1:
                    t_dep = t_cur + skel_exp() / sum_mu
            else:
                q += 1
                if per_customer:
                    cid = n_seed + a_count - 1
                    queue.append(cid)
                    heappush(deadline_heap, (t_cur + abandon_exp() / nu, cid))
                if q > queue_cap:
                    break
            next_arr = t_cur + (det + m_e * arrival_exp())

    grid[gi:] = (x, q, r_count, a_count, *z)
    return grid
