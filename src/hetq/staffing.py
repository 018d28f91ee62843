"""Cost functionals, exact small-system formulas, and the staffing optimizer.

The two cost models trade a staffing cost F against congestion: expected
delay cost for the no-abandonment model, expected abandonment flow for the
abandonment model. Both average over the random drift implied by the rate
distribution, so every evaluation is a deterministic quadrature; repeated
calls are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .core import RateDistribution, SystemConfig, check_domains
from .diffusion import (
    _float_or_array,
    _gauss_sum,
    expected_positive_part_aband,
    gauss_hermite_expectation,
    prob_wait_no_aband,
    special,
)
from .errors import (
    BracketError, ConfigError, DegenerateError, DomainError, HetqError, UnstableError,
)

__all__ = [
    "CostSpec",
    "OptimizationResult",
    "erlang_c",
    "erlang_a",
    "cost_no_aband",
    "cost_aband",
    "optimize_staffing",
]


def erlang_c(n: int, lam: float, mu: float) -> Tuple[float, float, float]:
    """Classical M/M/N delay quantities: (p_wait, mean_Q, mean_W).

    Uses the Erlang-B recursion, so it is overflow-free up to very large N.
    """
    if n < 1:
        raise ConfigError(f"need at least one server, got {n}")
    if lam <= 0.0 or mu <= 0.0:
        raise ConfigError("rates must be positive")
    if lam >= n * mu:
        raise UnstableError(f"offered load {lam/mu:.6g} needs more than {n} servers")
    a = lam / mu
    rho = a / n
    b = 1.0
    for j in range(1, n + 1):
        b = a * b / (j + a * b)
    p_wait = b / (1.0 - rho * (1.0 - b))
    mean_q = p_wait * rho / (1.0 - rho)
    mean_w = mean_q / lam
    return p_wait, mean_q, mean_w


def erlang_a(n: int, lam: float, mu: float, nu: float) -> Tuple[float, float, float]:
    """M/M/N+M stationary quantities: (p_wait, mean_Q, abandon_prob).

    Stationary weights are (lam/mu)^j/j! up to N, extended beyond N with
    factors lam/(N*mu + k*nu). Everything is accumulated in log space and
    the queue tail is summed until it is exhausted at double precision.
    """
    if n < 1:
        raise ConfigError(f"need at least one server, got {n}")
    if lam <= 0.0 or mu <= 0.0 or nu <= 0.0:
        raise ConfigError("all rates must be positive")
    log_a = math.log(lam) - math.log(mu)
    j = np.arange(n + 1)
    log_below = j * log_a - special.gammaln(j + 1.0)
    peak = float(log_below.max())

    # tail beyond N, in chunks; each block multiplies in lam/(N mu + k nu)
    log_tail = []
    log_cur = float(log_below[-1])
    k = 0
    while True:
        ks = np.arange(k + 1, k + 4097, dtype=float)
        incr = np.cumsum(math.log(lam) - np.log(n * mu + ks * nu))
        block = log_cur + incr
        log_tail.append(block)
        log_cur = float(block[-1])
        k += 4096
        peak = max(peak, float(block.max()))
        # stop once both the mass and the (j-N)-weighted mass are negligible
        if block[-1] + math.log1p(k) < peak - 750.0:
            break
    log_tail = np.concatenate(log_tail)

    below = np.exp(log_below - peak)
    tail = np.exp(log_tail - peak)
    total = below.sum() + tail.sum()
    kk = np.arange(1, log_tail.size + 1, dtype=float)
    p_wait = (below[-1] + tail.sum()) / total
    mean_q = float((kk * tail).sum()) / total
    abandon_prob = nu * mean_q / lam
    return p_wait, mean_q, abandon_prob


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


def _first(values, bad) -> float:
    """The first entry of ``values`` (a float or an array) where ``bad`` holds."""
    return float(np.asarray(values)[bad][0])


def _drift_law(x, config: SystemConfig, dist: RateDistribution):
    """(gamma, sigma, drift mean, drift sd) of the limit diffusion at safety x.

    ``x`` is a float or an array; the drift mean has its shape.
    """
    bad = ~((np.asarray(x) > 0.0) & np.isfinite(x))
    if bad.any():
        raise DomainError(f"safety coefficient must be finite and > 0, got {_first(x, bad)}")
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
        return _float_or_array(
            f_term + config.lambda_r * p * (cost.c_w / (capacity - config.lambda_r))
        )

    p_stable = special.ndtr((0.0 - m) / s)
    bad = p_stable < 1e-12
    if bad.any():
        raise DegenerateError(
            f"P(beta < 0) = {_first(p_stable, bad):.3g}: all drift mass is unstable"
        )
    m_row = np.asarray(m)[..., None]  # one drift mean per row of nodes

    def integrand(b):
        dens = np.exp(-0.5 * ((b - m_row) / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
        g = cost.c_w / (-b * sqrt_r)
        return prob_wait_no_aband(b, sigma, gamma) * g * dens

    lo = m - 8.0 * s
    hi = np.minimum(0.0, m + 8.0 * s)
    if np.any(hi <= lo):
        raise DegenerateError("stable region lies outside the 8-sigma drift window")
    half = 0.5 * (hi - lo)  # Gauss-Legendre over [lo, hi], one interval per drift mean
    integral = half * _gauss_sum(
        integrand, 0.5 * (hi + lo), half, np.polynomial.legendre.leggauss, nodes
    )
    return _float_or_array(
        f_term
        + config.lambda_r * integral / p_stable
        + cost.c_un * (1.0 - p_stable)
    )


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
        epp = gauss_hermite_expectation(
            lambda b: expected_positive_part_aband(b, sigma, gamma, nu), m, s, nodes
        )
    return _float_or_array(f_term + cost.d * nu * math.sqrt(config.r) * epp)


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


def optimize_staffing(
    cost_fn: Callable,
    bracket: Tuple[float, float] = (0.05, 6.0),
    tol: float = 1e-4,
) -> OptimizationResult:
    """One-dimensional minimization of a staffing cost over the safety range.

    ``cost_fn`` takes a float or a 1-D array of safety values and returns a
    float or an array of costs of the same shape. The coarse curve of 64
    points is one call on the array; a clean unimodal curve goes straight
    to golden-section search, which calls ``cost_fn`` on floats, and
    anything with interior local maxima falls back to grid-then-refine and
    is flagged. The bracket ends (the ``bracket_lo`` and ``bracket_hi``
    config keys) must be finite with 0 < lo < hi; ``tol`` (``opt_tol``)
    must be finite and > 0. A ``HetqError`` from the coarse curve becomes a
    ``BracketError`` naming it; any other exception is a defect and propagates.
    """
    lo, hi = bracket
    check_domains(bracket_lo=lo, opt_tol=tol)  # golden section never ends for tol <= 0
    if not lo < hi < math.inf:
        raise ConfigError(f"bracket_hi must be finite and > bracket_lo = {lo}, got {hi}")
    xs = np.linspace(lo, hi, _CURVE_POINTS)
    try:
        costs = np.array(cost_fn(xs), dtype=float)
    except HetqError as exc:
        raise BracketError(
            f"cost evaluation failed across the bracket {bracket}; "
            f"first failure: {type(exc).__name__}: {exc}"
        ) from exc
    if costs.shape != xs.shape:
        raise TypeError(f"cost_fn must return one cost per point, got shape {costs.shape}")
    if not np.isfinite(costs).any():
        raise BracketError(f"cost evaluation failed across the bracket {bracket}")
    failures = int(np.isnan(costs).sum())
    if failures:
        raise BracketError(f"cost evaluation failed at {failures} bracket points")

    interior_maxima = [
        i for i in range(1, _CURVE_POINTS - 1)
        if costs[i] > costs[i - 1] and costs[i] > costs[i + 1]
    ]
    unimodal = not interior_maxima

    if unimodal:
        x_star, f_star = _golden_section(cost_fn, lo, hi, tol)
        used_grid = False
    else:
        k = int(np.argmin(costs))
        sub_lo = xs[max(k - 1, 0)]
        sub_hi = xs[min(k + 1, _CURVE_POINTS - 1)]
        x_star, f_star = _golden_section(cost_fn, float(sub_lo), float(sub_hi), tol)
        used_grid = True

    # the reported optimum must never sit above any sampled curve value
    k = int(np.argmin(costs))
    if costs[k] < f_star:
        x_star, f_star = float(xs[k]), float(costs[k])
    return OptimizationResult(
        x_star=float(x_star),
        cost_at_optimum=float(f_star),
        curve_x=xs,
        curve_cost=costs,
        bracket=(lo, hi),
        tol=tol,
        unimodal=unimodal,
        used_grid_fallback=used_grid,
    )
