"""Exact stationary law of a small heterogeneous queue: a test oracle for the engine.

The state is the set of idle servers plus the queue length q. Under LISF the
idle servers are a tuple in the order they went idle, and the head, the
longest idle, takes the next arrival; under FSF and RANDOM the order does
not matter and they are a sorted tuple. Arrivals come at rate lambda. A
busy server k finishes at rate mu_k and takes the queue's head, or goes
idle if nobody waits. With abandonment the queue loses a customer at rate
nu * q, which is the law of both of ``hetq.sim.run``'s constructions. The
queue is truncated at ``queue_max``, where arrivals are lost.
"""

from itertools import combinations, permutations

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from hetq.core import Policy


def _idle_sets(n, policy):
    arrange = permutations if policy is Policy.LISF else combinations
    return [idle for size in range(n + 1) for idle in arrange(range(n), size)]


def ctmc_solve(mu, lam, policy, nu=0.0, queue_max=80):
    """(per-server utilisation, p_wait) of the truncated chain, by sparse linear solve.

    Utilisation is the stationary probability that a server is busy, and
    p_wait, by PASTA, the probability that every server is busy.
    """
    n = len(mu)
    states = [(idle, 0) for idle in _idle_sets(n, policy)]
    states += [((), q) for q in range(1, queue_max + 1)]
    index = {state: i for i, state in enumerate(states)}
    rows, cols, rates = [], [], []

    def move(src, dst, rate):
        rows.append(index[src])
        cols.append(index[dst])
        rates.append(rate)

    for idle, q in states:
        here = (idle, q)
        if idle:
            if policy is Policy.LISF:
                picks = [(idle[0], 1.0)]
            elif policy is Policy.FSF:  # the engine breaks ties by lowest index
                picks = [(min(idle, key=lambda k: (-mu[k], k)), 1.0)]
            else:
                picks = [(k, 1.0 / len(idle)) for k in idle]
            for k, share in picks:
                move(here, (tuple(j for j in idle if j != k), 0), lam * share)
        elif q < queue_max:
            move(here, ((), q + 1), lam)
        for k in range(n):
            if k in idle:
                continue
            if q:
                move(here, ((), q - 1), mu[k])
            else:
                freed = idle + (k,)
                move(here, (freed if policy is Policy.LISF else tuple(sorted(freed)), 0), mu[k])
        if q and nu > 0.0:
            move(here, ((), q - 1), nu * q)

    size = len(states)
    rate = sparse.csr_matrix((rates, (rows, cols)), shape=(size, size))
    generator = rate - sparse.diags(np.asarray(rate.sum(axis=1)).ravel())
    # pi Q = 0 with the first balance equation replaced by sum(pi) = 1
    a = generator.T.tolil()
    a[0, :] = np.ones(size)
    rhs = np.zeros(size)
    rhs[0] = 1.0
    pi = spsolve(a.tocsc(), rhs)
    util = np.array([
        sum(p for (idle, _), p in zip(states, pi) if k not in idle) for k in range(n)
    ])
    p_wait = float(sum(p for (idle, _), p in zip(states, pi) if not idle))
    return util, p_wait
