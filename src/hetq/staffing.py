"""Cost functionals, exact small-system formulas, and the staffing optimizer.

The two cost models trade a staffing cost F against congestion: expected
delay cost for the no-abandonment model, expected abandonment flow for the
abandonment model. Both average over the random drift implied by the rate
distribution, so every evaluation is a deterministic quadrature; repeated
calls are bit-identical.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .core import RateDistribution, SystemConfig, check_domains
from .diffusion import (
    _aband_drift_average,
    _expit,
    _finite,
    _first,
    _gauss_sum,
    _log_mills,
    _logit_no_aband,
    _ndtr,
    _wait_arg_no_aband,
    expected_positive_part_aband,
    prob_wait_no_aband,
)
from .errors import ConfigError, DomainError, HetqError

__all__ = [
    "CostSpec",
    "OptimizationResult",
    "erlang_c",
    "erlang_a",
    "cost_no_aband",
    "cost_aband",
    "optimize_staffing",
]


_MAX_STATES = 10_000_000  # states of the M/M/N(+M) law below N, and in its queue tail
_BLOCK = 4096  # queue-tail states summed per array call
_DECAY = 750.0  # the tail ends where k pi_{N+k} is e^-_DECAY of the largest weight


def erlang_c(n: int, lam: float, mu: float) -> Tuple[float, float, float]:
    """M/M/N delay quantities (p_wait, mean_Q, mean_W): ``erlang_a``'s law and refusals, nu = 0."""
    p_wait, mean_q = _mmn_law(n, lam, mu, 0.0)
    return p_wait, mean_q, mean_q / lam


def erlang_a(n: int, lam: float, mu: float, nu: float) -> Tuple[float, float, float]:
    """M/M/N+M stationary quantities: (p_wait, mean_Q, abandon_prob).

    ``erlang_c`` is this law at nu = 0 (lam < n mu). Relative error against 40-digit references:
    about 1e-14 to N = 1e5. Refused: n not an integer in [1, 1e7], a rate not finite and > 0 or
    n mu / lam = inf (``ConfigError``); a nu leaving queue weight past 1e7 states (``DomainError``).
    """
    if not 0.0 < nu < math.inf:
        raise ConfigError(f"nu must be finite, > 0, got {nu!r}")
    p_wait, mean_q = _mmn_law(n, lam, mu, nu)
    return p_wait, mean_q, min(p_wait, nu * mean_q / lam)  # only waiting customers abandon


@np.errstate(over="ignore", divide="ignore")  # k nu = inf or j mu / lam = 0 only zero a weight
def _mmn_law(n: int, lam: float, mu: float, nu: float) -> Tuple[float, float]:
    """(p_wait, mean_Q) of M/M/N+M (M/M/N at nu = 0) from log weights relative to pi_N."""
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= _MAX_STATES and 0.0 < lam < math.inf
            and 0.0 < mu < math.inf and n * mu / lam < math.inf):  # false for NaN
        raise ConfigError("need an integer n in [1, 1e7] and lam, mu, n mu / lam finite, > 0, "
                          f"got (n, lam, mu) = {(n, lam, mu)}")
    cap = n * mu
    if nu == 0.0 and lam >= cap:
        raise DomainError(f"offered load {lam/mu:.6g} needs more than {n} servers")
    log_below = np.cumsum(np.log(np.arange(n, 0, -1) * mu / lam))  # pi_{N-1}, ..., pi_0
    ref = max(0.0, float(log_below.max()))  # the largest log weight so far; sums are scaled by it
    below, tail, tail_q, log_w = float(np.exp(log_below - ref).sum()), math.exp(-ref), 0.0, 0.0
    if nu == 0.0:  # sum_k rho^k = 1/(1 - rho), sum_k k rho^k = rho/(1 - rho)^2
        tail *= cap / (cap - lam)
        return tail / (below + tail), tail * (lam / (cap - lam)) / (below + tail)
    # log w_k = k log(lam / cap) - sum_{j <= k} log1p(j t), t = nu / cap, climbs to the tail's
    # mode, where the loop below cannot stop, and falls after it. So the loop cannot stop
    # within its last state K if the mode lies past K, or if a lower bound on log w_K lies
    # within _DECAY - 1 of an upper bound on the largest weight (the weights below N, or the
    # integral of log(lam / (cap + s nu)) up to its root): then it sums no block. log1p(j t)
    # rises with j, so the sum is at most the integral of log1p(s t) over [1, K + 1]
    last = _BLOCK * -(-_MAX_STATES // _BLOCK)
    x, t = (lam - cap) / cap, max(nu / cap, 1e-300)  # t > 0; a larger t only lowers the bound
    crest = cap * (x - math.log1p(x)) / nu if lam > cap else ref  # NaN if x overflows
    rise = lambda s: ((1.0 + s * t) * math.log1p(s * t) - s * t) / t  # NaN if s t overflows
    low = last * (math.log(lam) - math.log(cap)) - (rise(last + 1.0) - rise(1.0))
    refused = (lam - cap) / nu >= last or low >= crest - (_DECAY - 1.0)  # false for NaN
    for start in range(0, 0 if refused else last, _BLOCK):  # blocks of log(lam / (cap + k nu))
        k = np.arange(start + 1.0, start + _BLOCK + 1.0)
        block = log_w + np.cumsum(np.log(lam / (cap + k * nu)))
        peak, log_w = max(ref, float(block.max())), float(block[-1])
        w, shrink, ref = np.exp(block - peak), math.exp(ref - peak), peak  # 1 past the mode
        below, tail, tail_q = below * shrink, tail * shrink + w.sum(), tail_q * shrink + w @ k
        if log_w + math.log1p(k[-1]) < ref - _DECAY:  # k pi_{N+k} is e^-_DECAY of the largest
            return float(tail / (below + tail)), float(tail_q / (below + tail))
    raise DomainError(f"nu = {nu!r} leaves queue weight past {_MAX_STATES} states "
                      f"at n = {n}, lam = {lam!r}, mu = {mu!r}")


@dataclass(frozen=True)
class CostSpec:
    """Cost coefficients; which term drives the trade-off depends on the model.

    The staffing cost is F(x) = c_s * x * sqrt(lambda_r / mu_bar); a waiting
    customer costs c_w per unit time. ``nu`` is the abandonment rate of the
    abandonment model. Every field must be finite and >= 0.
    """

    c_s: float = 1.0
    c_w: float = 1.0
    d: float = 1.0
    c_un: float = 0.0
    nu: float = 0.0

    def __post_init__(self):
        check_domains(c_s=self.c_s, c_w=self.c_w, d=self.d, c_un=self.c_un, nu=self.nu)

    def staffing_term(self, x, config: SystemConfig, dist: RateDistribution):
        return self.c_s * x * math.sqrt(config.lambda_r / dist.mean())


def _drift_law(x, config: SystemConfig, dist: RateDistribution):
    """(gamma, sigma, drift mean, drift sd) of the limit diffusion at safety x.

    ``x`` is a float or an array; the drift mean has its shape.
    """
    # a float takes Python's comparison, a tenth the time of numpy's checks on it
    ok = (x > 0.0) & (x < math.inf) if isinstance(x, np.ndarray) else np.bool_(0.0 < x < math.inf)
    if not ok.all():
        raise DomainError(f"safety coefficient must be finite and > 0, got {_first(x, ~ok)}")
    gamma = dist.idleness_coefficient(config.policy)
    mean = dist.mean()
    sigma = math.sqrt(mean * (config.arrival_scv + 1.0))
    return gamma, sigma, -x * mean, math.sqrt(dist.variance())


def cost_no_aband(
    x,
    config: SystemConfig,
    dist: RateDistribution,
    cost: CostSpec,
    nodes: int = 128,
):
    """Approximate cost F(x) + lambda_r * E[P(beta) G(-beta sqrt(r)) | beta < 0].

    The drift is beta ~ N(-x*mu_bar, Var of the rate law); only its stable
    (negative) region enters, normalized by P(beta < 0). The unstable mass
    contributes c_un * P(beta >= 0) additively.

    The linear delay cost gives G = c_w / (-beta sqrt(r)), so the integrand
    behaves like 1/|beta| near zero and the quadrature value is dominated by
    the stability boundary whenever the drift law puts mass there; see the
    README for guidance.

    ``x`` is a float or a 1-D array of safety values; a float gives a float,
    and each entry of an array equals the call at that value, bit for bit.
    """
    gamma, sigma, m, s = _drift_law(x, config, dist)
    sqrt_r = math.sqrt(config.r)
    f_term = cost.staffing_term(x, config, dist)

    if s == 0.0:
        p = prob_wait_no_aband(m, sigma, gamma)
        capacity = -m * sqrt_r + config.lambda_r
        bad = np.asarray(capacity <= config.lambda_r)
        if bad.any():
            raise DomainError(
                f"needs capacity above the arrival rate, got {_first(capacity, bad)}"
            )
        total = f_term + config.lambda_r * p * (cost.c_w / (capacity - config.lambda_r))
        return _finite(total, "the cost at safety x", x, sigma=sigma, gamma=gamma)

    t = (0.0 - m) / s  # P(beta < 0) = Phi(t)
    lo = m - 8.0 * s
    hi = np.minimum(0.0, m + 8.0 * s)
    if (hi <= lo).any():
        raise DomainError("stable region lies outside the 8-sigma drift window")
    m_row = np.asarray(m)[..., None]  # one drift mean per row of nodes
    p_stable = []

    def integrand(b):
        dens = np.exp(-0.5 * ((b - m_row) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        g = cost.c_w / (-b * sqrt_r)
        # prob_wait_no_aband at the nodes, and Phi(t), from one kernel call
        a = _wait_arg_no_aband(b, sigma, gamma)
        log_r = _log_mills(np.concatenate([-a.ravel(), np.abs(t).ravel()]))
        p_stable.append(_ndtr(t, log_r[a.size:].reshape(np.shape(t))))
        return _expit(-_logit_no_aband(a, log_r[:a.size].reshape(a.shape))) * g * dens

    half = 0.5 * (hi - lo)  # Gauss-Legendre over [lo, hi], one interval per drift mean
    integral = half * _gauss_sum(
        integrand, 0.5 * (hi + lo), half, np.polynomial.legendre.leggauss, nodes
    )
    p_stable = p_stable[0]
    bad = p_stable < 1e-12
    if bad.any():
        raise DomainError(
            f"P(beta < 0) = {_first(p_stable, bad):.3g}: all drift mass is unstable"
        )
    total = f_term + config.lambda_r * integral / p_stable + cost.c_un * (1.0 - p_stable)
    return _finite(total, "the cost at safety x", x, sigma=sigma, gamma=gamma)


def cost_aband(
    x,
    config: SystemConfig,
    dist: RateDistribution,
    cost: CostSpec,
    nodes: int = 128,
):
    """Approximate cost F(x) + d * nu * sqrt(r) * E_beta[E[xi(infty)^+; xi >= 0]].

    The inner expectation over the stationary state is closed form; the
    outer one over beta ~ N(-x*mu_bar, Var) uses Gauss-Hermite quadrature.
    The sqrt(r) factor converts the scaled queue length into customers, so
    the variable term is an abandonment flow in customers per unit time.
    The abandonment rate is ``cost.nu``; ``config.abandon_rate`` is not read.

    ``x`` is a float or a 1-D array of safety values; a float gives a float,
    and each entry of an array equals the call at that value, bit for bit.
    """
    gamma, sigma, m, s = _drift_law(x, config, dist)
    nu = cost.nu
    if nu <= 0.0:
        raise DomainError("abandonment cost model needs nu > 0")
    f_term = cost.staffing_term(x, config, dist)
    if s == 0.0:
        epp = expected_positive_part_aband(m, sigma, gamma, nu)
    else:
        (epp,) = _aband_drift_average(m, s, sigma, gamma, nu, nodes)
    total = f_term + cost.d * nu * math.sqrt(config.r) * epp
    return _finite(total, "the cost at safety x", x, sigma=sigma, gamma=gamma, nu=nu)


@dataclass(frozen=True)
class OptimizationResult:
    x_star: float
    cost_at_optimum: float
    curve_x: np.ndarray
    curve_cost: np.ndarray
    bracket: Tuple[float, float]
    tol: float
    unimodal: bool
    used_grid_fallback: bool


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_CURVE_POINTS = 64  # coarse cost curve sampled before the search


def _golden_section(fn, lo: float, hi: float, tol: float) -> Tuple[float, float]:
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    # a tol below the doubles' spacing near the optimum stalls the bracket a few
    # ulps wide, with the probes on its ends; stop there too
    while hi - lo > tol and lo < x1 < x2 < hi:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = fn(x2)
    x = 0.5 * (lo + hi)
    return x, fn(x)


def _parabola(points):
    """The parabola through the three lowest-cost (x, cost) ``points``; NaN if they repeat an x."""
    (a, fa), (b, fb), (c, fc) = heapq.nsmallest(3, points, key=lambda p: p[1])
    try:
        wa, wb, wc = fa / ((a - b) * (a - c)), fb / ((b - a) * (b - c)), fc / ((c - a) * (c - b))
    except ZeroDivisionError:
        return lambda x: math.nan
    return lambda x: wa * (x - b) * (x - c) + wb * (x - a) * (x - c) + wc * (x - a) * (x - b)


def _prefetched_golden_section(cost_fn, lo: float, hi: float, tol: float, curve):
    """``_golden_section(cost_fn, lo, hi, tol)``, its probes fetched in a few array calls.

    It replays the search on the costs fetched so far, with the parabola
    through the lowest known ones (``curve``'s (x, cost) pairs too) standing
    in for the rest, and fetches those in one call. After a batch that
    raises ``HetqError`` the search goes on one float at a time, so a
    refusal names the same x.
    """
    exact, lowest = {}, heapq.nsmallest(3, curve, key=lambda p: p[1])
    while True:
        model, guess = _parabola([*lowest, *exact.items()]), {}

        def cost(x):
            if x in exact:
                return exact[x]
            f = guess[x] = model(x)
            if not math.isfinite(f):
                raise KeyError(x)  # no stand-in: fetch the path up to x
            return f

        try:
            result = _golden_section(cost, lo, hi, tol)
        except KeyError:
            pass
        if not guess:
            return result
        batch = list(guess)
        try:
            exact.update(zip(batch, np.asarray(cost_fn(np.array(batch)), dtype=float).tolist()))
        except HetqError:
            return _golden_section(lambda x: exact[x] if x in exact else cost_fn(x), lo, hi, tol)


@np.errstate(all="ignore")  # a cost that overflows is refused by name, not warned about
def optimize_staffing(
    cost_fn: Callable,
    bracket: Tuple[float, float] = (0.05, 6.0),
    tol: float = 1e-4,
) -> OptimizationResult:
    """One-dimensional minimization of a staffing cost over the safety range.

    ``cost_fn`` takes a float or a 1-D array of safety values and returns a
    float or an array of costs of the same shape. The coarse curve of 64
    points is one call on the array; a clean unimodal curve goes straight
    to golden-section search, and anything with interior local maxima falls
    back to grid-then-refine and is flagged. The search fetches its probes
    in a few array calls, so it relies on each array entry being equal to
    the float call, as it is for ``cost_aband`` and ``cost_no_aband``. The
    bracket ends (the ``bracket_lo`` and ``bracket_hi`` config keys) must be
    finite with 0 < lo < hi; ``tol`` (``opt_tol``) must be finite and > 0.
    A ``HetqError`` from the coarse curve, or its first cost that is not
    finite, becomes a ``DomainError`` naming it; any other exception is a
    defect and propagates.
    """
    lo, hi = bracket
    check_domains(bracket_lo=lo, opt_tol=tol)  # golden section never ends for tol <= 0
    if not lo < hi < math.inf:
        raise ConfigError(f"bracket_hi must be finite and > bracket_lo = {lo}, got {hi}")
    xs = np.linspace(lo, hi, _CURVE_POINTS)
    try:
        costs = np.array(cost_fn(xs), dtype=float)
    except HetqError as exc:
        raise DomainError(
            f"cost evaluation failed across the bracket (bracket_lo, bracket_hi) = {bracket}; "
            f"first failure: {type(exc).__name__}: {exc}"
        ) from exc
    if costs.shape != xs.shape:
        raise TypeError(f"cost_fn must return one cost per point, got shape {costs.shape}")
    bad = ~np.isfinite(costs)
    if bad.any():
        raise DomainError(
            f"cost is not finite across the bracket (bracket_lo, bracket_hi) = {bracket}, "
            f"first at x = {_first(xs, bad)!r}"
        )

    grid, curve = xs.tolist(), costs.tolist()
    unimodal = not any(a < b > c for a, b, c in zip(curve, curve[1:], curve[2:]))  # no interior maximum

    k = int(np.argmin(costs))
    # grid-then-refine searches between the lowest curve point's neighbours
    sub = (lo, hi) if unimodal else (grid[max(k - 1, 0)], grid[min(k + 1, _CURVE_POINTS - 1)])
    x_star, f_star = _prefetched_golden_section(cost_fn, *sub, tol, [*zip(grid, curve)])

    # the reported optimum must never sit above any sampled curve value
    if curve[k] < f_star:
        x_star, f_star = grid[k], curve[k]
    return OptimizationResult(
        x_star=float(x_star),
        cost_at_optimum=float(f_star),
        curve_x=xs,
        curve_cost=costs,
        bracket=(lo, hi),
        tol=tol,
        unimodal=unimodal,
        used_grid_fallback=not unimodal,
    )
