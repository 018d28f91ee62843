"""Analytics for the limiting diffusion of the scaled headcount process.

The limit process solves

    xi(t) = xi(0) + sigma*w(t) + beta*t + gamma*int xi^- ds - nu*int xi^+ ds,

a two-sided Ornstein-Uhlenbeck-type diffusion: plain drift above zero when
nu = 0, mean reversion at rate nu above zero otherwise, and mean reversion
at rate gamma below zero. Everything here is closed form except the outer
integral over the random drift, which uses Gauss-Hermite quadrature.

All normal-CDF ratios are evaluated in log space (scipy's erf-based
``ndtr``/``log_ndtr``), so the formulas stay accurate far into the tails.
Those functions are read through ``special``, which imports
``scipy.special`` on first use: the analytics load it, and importing hetq
or running the simulator never does.
The closed forms in the drift take a float or an array of drifts; a float
gives a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .core import Policy, RateDistribution, check_domains
from .errors import DomainError

__all__ = [
    "DiffusionParams",
    "SteadyStateDensity",
    "ExponentialPiece",
    "ConditionedNormalPiece",
    "prob_wait_no_aband",
    "prob_wait_aband",
    "stationary_no_aband",
    "stationary_aband",
    "expected_positive_part",
    "expected_positive_part_aband",
    "ql_eps",
    "halfin_whitt_delay",
]

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# largest continuity residual of a law that is written out; well-posed laws
# round to about 1e-15
_CONTINUITY_TOL = 1e-6


class _LazySpecial:
    """``scipy.special``, imported on the first attribute read.

    Each function is cached on the instance when first fetched, so every
    later read is a plain attribute lookup.
    """

    def __getattr__(self, name):
        import scipy.special

        func = getattr(scipy.special, name)
        setattr(self, name, func)
        return func


special = _LazySpecial()


def _log_phi(x):
    return -0.5 * np.square(x) - _LOG_SQRT_2PI


@dataclass(frozen=True)
class DiffusionParams:
    """Coefficients (sigma, beta, gamma, nu) of the limit SDE."""

    sigma: float
    beta: float
    gamma: float
    nu: float = 0.0

    def __post_init__(self):
        # sigma = 0 is admitted so the integrator can run noise-free ODE
        # reductions; the stationary-law operations insist on sigma > 0.
        check_domains(sigma=self.sigma, beta=self.beta, gamma=self.gamma, nu=self.nu)


def _float_or_array(x):
    return float(x) if np.ndim(x) == 0 else x


def _logit_no_aband(a):
    """log(a*Phi(a)/phi(a)), whose expit(-.) is (1 + a*Phi(a)/phi(a))^-1."""
    return np.log(a) + special.log_ndtr(a) - _log_phi(a)


def _upper_normal_mean(m, s):
    """E[X | X >= 0] for X ~ N(m, s^2): m + s*phi(m/s)/Phi(m/s)."""
    a = m / s
    return m + s * np.exp(_log_phi(a) - special.log_ndtr(a))


def prob_wait_no_aband(beta, sigma: float, gamma: float):
    """P(xi(infty) >= 0) for the no-abandonment diffusion; needs beta < 0."""
    return _float_or_array(special.expit(-_wait_logit_no_aband(beta, sigma, gamma)))


def _wait_logit_no_aband(beta, sigma: float, gamma: float):
    """t with ``prob_wait_no_aband`` = expit(-t)."""
    beta = np.asarray(beta, dtype=float)
    if np.any(beta >= 0.0):
        raise DomainError(
            f"no stationary law without abandonment unless beta < 0, got {np.max(beta)}"
        )
    if sigma <= 0.0:
        raise DomainError(f"stationary law needs sigma > 0, got {sigma}")
    a = math.sqrt(2.0) * (-beta) / (math.sqrt(gamma) * sigma)
    return _logit_no_aband(a)


def prob_wait_aband(beta, sigma: float, gamma: float, nu: float):
    """P(xi(infty) >= 0) with abandonment; defined for any drift."""
    return _float_or_array(special.expit(-_wait_logit_aband(beta, sigma, gamma, nu)))


def _wait_logit_aband(beta, sigma: float, gamma: float, nu: float):
    """t with ``prob_wait_aband`` = expit(-t)."""
    if nu <= 0.0:
        raise DomainError(f"abandonment rate must be > 0, got {nu}")
    if gamma <= 0.0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    if sigma <= 0.0:
        raise DomainError(f"stationary law needs sigma > 0, got {sigma}")
    beta = np.asarray(beta, dtype=float)
    a_nu = math.sqrt(2.0) * beta / (math.sqrt(nu) * sigma)
    a_ga = math.sqrt(2.0) * beta / (math.sqrt(gamma) * sigma)
    return (
        0.5 * (math.log(nu) - math.log(gamma))
        + _log_phi(a_nu)
        - _log_phi(a_ga)
        + special.log_ndtr(-a_ga)
        - special.log_ndtr(a_nu)
    )


def expected_positive_part_aband(beta, sigma: float, gamma: float, nu: float):
    """E[xi(infty)^+; xi(infty) >= 0] with abandonment; defined for any drift."""
    rho = prob_wait_aband(beta, sigma, gamma, nu)
    m = np.asarray(beta, dtype=float) / nu
    return _float_or_array(rho * _upper_normal_mean(m, sigma / math.sqrt(2.0 * nu)))


@dataclass(frozen=True)
class ExponentialPiece:
    """Exponential density on [0, inf), normalized on its half line."""

    rate: float

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return 1.0 / self.rate

    def density_at_zero(self) -> float:
        return self.rate


@dataclass(frozen=True)
class ConditionedNormalPiece:
    """N(mean, sd^2) conditioned on one side of zero, normalized there."""

    mean_: float
    sd: float
    side: str  # "upper" ([0, inf)) or "lower" ((-inf, 0))

    def _log_mass(self) -> float:
        a = self.mean_ / self.sd
        return float(special.log_ndtr(a if self.side == "upper" else -a))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mean_) / self.sd
        with np.errstate(over="ignore"):  # z*z overflows to inf far out, where exp gives 0
            logpdf = _log_phi(z) - math.log(self.sd) - self._log_mass()
        inside = x >= 0.0 if self.side == "upper" else x < 0.0
        out = np.where(inside, np.exp(logpdf), 0.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        if self.side == "upper":
            return float(_upper_normal_mean(self.mean_, self.sd))
        # the lower piece is the upper one mirrored by x -> -x
        return -float(_upper_normal_mean(-self.mean_, self.sd))

    def density_at_zero(self) -> float:
        """One-sided limit of the conditioned density at the origin."""
        a = self.mean_ / self.sd
        return math.exp(_log_phi(a) - self._log_mass()) / self.sd


Piece = Union[ExponentialPiece, ConditionedNormalPiece]


@dataclass(frozen=True)
class SteadyStateDensity:
    """Stationary law of xi glued at zero: varrho*upper + lower_weight*lower."""

    varrho: float
    lower_weight: float  # 1 - varrho, as expit(t) so it keeps its digits near varrho = 1
    upper: Piece
    lower: Piece

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(
            x >= 0.0,
            self.varrho * self.upper.pdf(np.maximum(x, 0.0)),
            self.lower_weight * self.lower.pdf(np.minimum(x, 0.0)),
        )
        return out if out.ndim else float(out)

    def continuity_residual(self) -> float:
        """|f(0-) - f(0+)| relative to f(0+); analytically zero."""
        left = self.lower_weight * self.lower.density_at_zero()
        right = self.varrho * self.upper.density_at_zero()
        return abs(left - right) / right


def _glued(params: DiffusionParams, build) -> SteadyStateDensity:
    """The law of ``build()``'s (t, upper, lower), refused when double precision cannot hold it.

    varrho = expit(-t) and the lower weight is expit(t), not 1 - varrho,
    which cancels once varrho is near 1.

    The density is positive and continuous at zero for every admissible
    coefficient set. At extreme ones a closed form overflows, or a side of
    the density at zero rounds to 0 or infinity (a residual of 1 or more),
    or a piece loses its digits, so the residual exceeds ``_CONTINUITY_TOL``.
    """
    try:
        with np.errstate(over="ignore"):  # an overflowed square gives inf or NaN, refused below
            t, upper, lower = build()
            varrho = float(special.expit(-t))
            dens = SteadyStateDensity(varrho, float(special.expit(t)), upper, lower)
            if dens.continuity_residual() <= _CONTINUITY_TOL:  # false for NaN
                return dens
    except ArithmeticError:  # OverflowError, ZeroDivisionError
        pass
    raise DomainError(
        f"the stationary law at sigma={params.sigma!r}, beta={params.beta!r}, "
        f"gamma={params.gamma!r}, nu={params.nu!r} is not representable in double precision"
    )


def stationary_no_aband(params: DiffusionParams) -> SteadyStateDensity:
    """Exponential piece above zero, conditioned normal below; nu must be 0."""
    if params.nu != 0.0:
        raise DomainError("stationary_no_aband needs nu = 0")
    if params.beta >= 0.0:
        raise DomainError(f"stationary law needs beta < 0, got {params.beta}")
    return _glued(params, lambda: (
        _wait_logit_no_aband(params.beta, params.sigma, params.gamma),
        ExponentialPiece(rate=-2.0 * params.beta / params.sigma**2),
        ConditionedNormalPiece(
            mean_=params.beta / params.gamma,
            sd=params.sigma / math.sqrt(2.0 * params.gamma),
            side="lower",
        ),
    ))


def stationary_aband(params: DiffusionParams) -> SteadyStateDensity:
    """Two conditioned-normal pieces glued at zero; needs nu > 0."""
    if params.nu <= 0.0:
        raise DomainError("stationary_aband needs nu > 0")
    return _glued(params, lambda: (
        _wait_logit_aband(params.beta, params.sigma, params.gamma, params.nu),
        ConditionedNormalPiece(
            mean_=params.beta / params.nu,
            sd=params.sigma / math.sqrt(2.0 * params.nu),
            side="upper",
        ),
        ConditionedNormalPiece(
            mean_=params.beta / params.gamma,
            sd=params.sigma / math.sqrt(2.0 * params.gamma),
            side="lower",
        ),
    ))


def expected_positive_part(params: DiffusionParams) -> float:
    """E[xi(infty)^+; xi(infty) >= 0], the expected scaled queue length."""
    if params.nu > 0.0:
        return expected_positive_part_aband(params.beta, params.sigma, params.gamma, params.nu)
    if params.beta >= 0.0:
        raise DomainError("expected_positive_part with nu = 0 needs beta < 0")
    rho = prob_wait_no_aband(params.beta, params.sigma, params.gamma)
    return rho * params.sigma**2 / (-2.0 * params.beta)


@lru_cache(maxsize=16)
def _gauss_rule(rule, nodes: int):
    """Read-only (nodes, weights) of a numpy Gauss rule such as ``leggauss``."""
    x, w = rule(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_sum(fn, centre, half, rule, nodes: int):
    """sum_k w_k fn(centre + half * x_k) over the Gauss rule ``rule``'s nodes.

    ``centre`` and ``half`` are floats or arrays that broadcast to
    ``centre``'s shape. ``fn`` gets one row of nodes per centre, and each
    row is reduced by its own dot, so every entry equals the sum at that
    centre alone, bit for bit.
    """
    x, w = _gauss_rule(rule, nodes)
    vals = fn(np.asarray(centre)[..., None] + np.asarray(half)[..., None] * x)
    sums = [np.dot(w, row) for row in vals.reshape(-1, nodes)]
    return np.reshape(sums, np.shape(centre))


def gauss_hermite_expectation(fn, mean, sd: float, nodes: int):
    """E[fn(X)] for X ~ N(mean, sd^2) by Gauss-Hermite quadrature.

    ``mean`` is a float or an array; each entry equals the expectation at
    that mean alone, bit for bit, and a float gives a float.
    """
    sums = _gauss_sum(fn, mean, math.sqrt(2.0) * sd, np.polynomial.hermite.hermgauss, nodes)
    return _float_or_array(sums / math.sqrt(math.pi))


_QL_REL_TOL = 1e-6  # successive Gauss-Hermite rules agree to this


def ql_eps(
    eps: float,
    mu_bar: float,
    sigma: float,
    theta: float,
    nu: float,
    policy: Policy = Policy.LISF,
) -> float:
    """Expected scaled queue length when rates are uniform(mu_bar-eps, mu_bar+eps).

    The drift is N(-theta*mu_bar, Var mu) and gamma is the law's idleness
    coefficient under ``policy`` (LISF or FSF). The inner integral over the
    state is closed form; only the drift integral is numeric, with the node
    count escalated until two successive Gauss-Hermite rules agree to a
    relative 1e-6.
    """
    if not 0.0 < mu_bar - eps < mu_bar + eps < math.inf:  # the law's support; false for NaN
        raise DomainError(
            f"eps must lie in (0, mu_bar) with mu_bar +- eps distinct finite doubles, "
            f"got eps = {eps!r}, mu_bar = {mu_bar!r}"
        )
    if nu <= 0.0:
        raise DomainError(f"ql_eps needs nu > 0, got {nu}")
    if theta <= 0.0:
        raise DomainError(f"ql_eps needs theta > 0, got {theta}")
    law = RateDistribution.uniform(mu_bar - eps, mu_bar + eps)
    gamma = law.idleness_coefficient(policy)
    mean = -theta * mu_bar
    sd = math.sqrt(law.variance())

    def inner(beta):
        return expected_positive_part_aband(beta, sigma, gamma, nu)

    prev = gauss_hermite_expectation(inner, mean, sd, 64)
    for nodes in (128, 256, 512):
        cur = gauss_hermite_expectation(inner, mean, sd, nodes)
        if abs(cur - prev) <= _QL_REL_TOL * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise DomainError(f"ql_eps quadrature did not converge to {_QL_REL_TOL} at eps={eps}")


def halfin_whitt_delay(theta: float) -> float:
    """Classical square-root-staffing delay probability (1 + theta*Phi/phi)^-1."""
    if theta <= 0.0:
        raise DomainError(f"theta must be > 0, got {theta}")
    return float(special.expit(-_logit_no_aband(theta)))
