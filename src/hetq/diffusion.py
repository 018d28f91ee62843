"""Analytics for the limiting diffusion of the scaled headcount process.

The limit process solves

    xi(t) = xi(0) + sigma*w(t) + beta*t + gamma*int xi^- ds - nu*int xi^+ ds,

a two-sided Ornstein-Uhlenbeck-type diffusion: plain drift above zero when
nu = 0, mean reversion at rate nu above zero otherwise, and mean reversion
at rate gamma below zero. README.md's diffusion entry gives the account of
the quadrature, the normal-tail kernel and the refusals. Every normal-CDF
ratio is read off one numpy kernel, the log Mills ratio ``_log_mills``.
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

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
# largest continuity residual of a law that is written out; well-posed laws
# round to about 1e-15
_CONTINUITY_TOL = 1e-6

# Cody's rational approximations of the normal tail (ACM TOMS 715, ANORM),
# as (numerator, denominator) coefficients, highest degree first, the
# denominator monic. Below _SMALL, sqrt(2 pi) Phi(-t) = sqrt(2 pi)/2 - t P(t^2)/Q(t^2),
# and Phi(-t) >= 1/4 there, so the subtraction keeps its digits; up to _SQRT32,
# R(y) = P(y)/Q(y); beyond, R(y) = u (1 - u v), v = u P(u^2)/Q(u^2), u = 1/y.
# Each numerator carries the factor sqrt(2 pi). The coefficients are 0-d
# arrays, which numpy adds without converting them first.
_SMALL = 0.67448975
_SQRT32 = math.sqrt(32.0)


def _coefficients(*values, scale=1.0):
    return tuple(np.array(scale * v) for v in values)


_SMALL_P = _coefficients(0.065682337918207449113, 2.2352520354606839287, 161.02823106855587881,
                         1067.6894854603709582, 18154.981253343561249, scale=_SQRT_2PI)
_SMALL_Q = _coefficients(47.20258190468824187, 976.09855173777669322, 10260.932208618978205,
                         45507.789335026729956)
_MID_P = _coefficients(1.0765576773720192317e-8, 0.39894151208813466764, 8.8831497943883759412,
                       93.506656132177855979, 597.27027639480026226, 2494.5375852903726711,
                       6848.1904505362823326, 11602.651437647350124, 9842.7148383839780218,
                       scale=_SQRT_2PI)
_MID_Q = _coefficients(22.266688044328115691, 235.38790178262499861, 1519.377599407554805,
                       6485.558298266760755, 18615.571640885098091, 34900.952721145977266,
                       38912.003286093271411, 19685.429676859990727)
_TAIL_P = _coefficients(0.02307344176494017303, 0.21589853405795699, 0.1274011611602473639,
                        0.022235277870649807, 0.001421619193227893466, 2.9112874951168792e-5,
                        scale=_SQRT_2PI)
_TAIL_Q = _coefficients(1.28426009614491121, 0.468238212480865118, 0.0659881378689285515,
                        0.00378239633202758244, 7.29751555083966205e-5)
_FAR_TAIL = _SQRT32  # -m/s from which ``_mean_above_zero`` takes the tail range's rational


def _log_phi(x):
    return -0.5 * np.square(x) - _LOG_SQRT_2PI


def _ratio(num, den, x):
    """P(x)/Q(x) for coefficients ``num`` and ``den`` (Q monic), by Horner in place."""
    p = num[0] * x
    p += num[1]
    q = x + den[0]
    for a, b in zip(num[2:], den[1:]):
        p *= x
        p += a
        q *= x
        q += b
    return p / q


def _tail_v(u):
    """v with R(1/u) = u (1 - u v) and 1/R(1/u) - 1/u = v/(1 - u v), for 0 <= u < 1/sqrt 32."""
    return u * _ratio(_TAIL_P, _TAIL_Q, u * u)


def _log_mills(t):
    """L(t) = log(Phi(-t)/phi(t)), the log of the Mills ratio R(t), for an array of any reals.

    Each of Cody's three ranges is evaluated only on the entries it covers,
    and an empty range not at all. Below -_SMALL it is t^2/2 + log(sqrt(2 pi)
    - R(|t|) exp(-t^2/2)), Phi(t) = 1 - Phi(-t) reflected. Against 50-digit
    mpmath L is within a few ulps of max(|L|, 1) (README).
    """
    t = np.asarray(t, dtype=float)
    flat = t.ravel()
    y = np.abs(flat)
    small, tail = y < _SMALL, y > _SQRT32
    mid = ~(small | tail)  # and NaN
    # L = log(r) + t^2/2 below _SMALL, log(r) above: r = sqrt(2 pi) Phi(-t) where
    # |t| < _SMALL, sqrt(2 pi) - R(|t|) exp(-t^2/2) below -_SMALL, else R(t)
    r = np.empty_like(y)
    if small.any():
        ts = flat[small]
        r[small] = 0.5 * _SQRT_2PI - ts * _ratio(_SMALL_P, _SMALL_Q, ts * ts)
    if mid.any():
        r[mid] = _ratio(_MID_P, _MID_Q, y[mid])
    if tail.any():
        u = 1.0 / y[tail]
        r[tail] = u * (1.0 - u * _tail_v(u))
    below = flat < _SMALL
    if not below.any():
        return np.log(r).reshape(t.shape)
    half = np.square(flat)
    half *= 0.5
    out = np.log(np.where(flat <= -_SMALL, _SQRT_2PI - r * np.exp(-half), r))
    np.add(out, half, out=out, where=below)
    return out.reshape(t.shape)


@np.errstate(over="ignore")  # exp(-x) = inf gives 0, the right value
def _expit(x):
    """1/(1 + e^-x)."""
    return 1.0 / (1.0 + np.exp(-x))


def _log_ndtr(x):
    """log Phi(x) for an array x: log phi(x) + L(-x), or log1p(-Phi(-x)) for x > 0, where that cancels."""
    lower = _log_phi(x) + _log_mills(np.abs(x))  # log Phi(-|x|)
    return np.where(x > 0.0, np.log1p(-np.exp(lower)), lower)


def _ndtr(x, log_r):
    """Phi(x) for an array x, given log_r = L(|x|): 1 - Phi(-x) for x > 0."""
    lower = _log_phi(x) + log_r  # log Phi(-|x|)
    return np.where(x > 0.0, -np.expm1(lower), np.exp(lower))


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
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _first(values, bad) -> float:
    """The first entry of ``values`` (a float or an array) where ``bad`` holds."""
    return float(np.asarray(values)[bad][0])


def _finite(value, at: str, points, **law):
    """``value``, one result per entry of ``points``, as a float or an array.

    A result that is not finite is refused, naming the first such point
    ``at`` and the coefficients ``law`` of a law double precision cannot hold.
    """
    value = _float_or_array(value)
    if math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all():
        return value
    coefs = ", ".join(f"{key}={v!r}" for key, v in law.items())
    raise DomainError(
        f"{at} = {_first(points, ~np.isfinite(value))!r} is not finite: the law with {coefs} "
        "is not representable in double precision"
    )


def _logit_no_aband(a, log_r):
    """log(a*Phi(a)/phi(a)) = log a + L(-a), given log_r = L(-a); expit(-.) of it is (1 + a*Phi(a)/phi(a))^-1."""
    return np.log(a) + log_r


def _upper_normal_mean(m, s):
    """E[X | X >= 0] for X ~ N(m, s^2), a float s."""
    return _mean_above_zero(m, s, _log_mills(-np.asarray(m) / s))


def _mean_above_zero(m, s, log_r):
    """``_upper_normal_mean`` given log_r = L(-m/s): m + s/R(-m/s).

    For t = -m/s > 0 that form cancels, its error growing like t^2: against
    50-digit mpmath it is within 4 ulps for t < 1, 11 below 2 and 77 just
    below sqrt 32. From t = _FAR_TAIL = sqrt 32 on it is s v/(1 - u v),
    u = 1/t, from the tail range's rational, which does not cancel: within
    3 ulps up to t = 40 and 22 beyond.
    """
    mean = np.asarray(m + s * np.exp(-log_r))
    a = np.asarray(m) / s
    far = a < -_FAR_TAIL
    if far.any():
        u = -1.0 / a[far]
        v = _tail_v(u)
        mean[far] = s * v / (1.0 - u * v)
    return mean


def prob_wait_no_aband(beta, sigma: float, gamma: float):
    """P(xi(infty) >= 0) for the no-abandonment diffusion; needs beta < 0."""
    return _float_or_array(_expit(-_wait_logit_no_aband(beta, sigma, gamma)))


def _wait_logit_no_aband(beta, sigma: float, gamma: float):
    """t with ``prob_wait_no_aband`` = expit(-t)."""
    a = _wait_arg_no_aband(beta, sigma, gamma)
    return _logit_no_aband(a, _log_mills(-a))


def _wait_arg_no_aband(beta, sigma: float, gamma: float):
    """a = sqrt(2) (-beta)/(sqrt(gamma) sigma), the argument of ``_logit_no_aband``; needs beta < 0."""
    beta = np.asarray(beta, dtype=float)
    if (beta >= 0.0).any():
        raise DomainError(f"no stationary law without abandonment unless beta < 0, got {beta.max()}")
    if sigma <= 0.0:
        raise DomainError(f"stationary law needs sigma > 0, got {sigma}")
    return math.sqrt(2.0) * (-beta) / (math.sqrt(gamma) * sigma)


def prob_wait_aband(beta, sigma: float, gamma: float, nu: float):
    """P(xi(infty) >= 0) with abandonment; defined for any drift."""
    return _float_or_array(_expit(-_wait_logit_aband(beta, sigma, gamma, nu)[0]))


def _wait_logit_aband(beta, sigma: float, gamma: float, nu: float):
    """(t, L(-a_nu)) with ``prob_wait_aband`` = expit(-t), from one ``_log_mills`` call.

    t = log(sqrt(nu/gamma) R(a_gamma)/R(-a_nu)), a_k = sqrt(2) beta/(sqrt(k) sigma).
    """
    if nu <= 0.0:
        raise DomainError(f"abandonment rate nu must be > 0, got {nu}")
    if gamma <= 0.0:
        raise DomainError(f"gamma must be > 0, got {gamma}")
    if sigma <= 0.0:
        raise DomainError(f"stationary law needs sigma > 0, got {sigma}")
    b = math.sqrt(2.0) * np.asarray(beta, dtype=float)
    log_r = _log_mills(np.stack([b / (math.sqrt(gamma) * sigma), -b / (math.sqrt(nu) * sigma)]))
    return 0.5 * (math.log(nu) - math.log(gamma)) + log_r[0] - log_r[1], log_r[1]


def expected_positive_part_aband(beta, sigma: float, gamma: float, nu: float):
    """E[xi(infty)^+; xi(infty) >= 0] with abandonment; defined for any drift."""
    t, log_r = _wait_logit_aband(beta, sigma, gamma, nu)
    m = np.asarray(beta, dtype=float) / nu
    return _float_or_array(_expit(-t) * _mean_above_zero(m, sigma / math.sqrt(2.0 * nu), log_r))


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

    def _signed(self) -> float:
        """b with mass Phi(b): mean/sd for the upper piece, -mean/sd for the lower."""
        a = self.mean_ / self.sd
        return a if self.side == "upper" else -a

    def _log_mass(self) -> float:
        return float(_log_ndtr(self._signed()))

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mean_) / self.sd
        with np.errstate(over="ignore"):  # z*z overflows to inf far out, where exp gives 0
            logpdf = _log_phi(z) - math.log(self.sd) - self._log_mass()
        inside = x >= 0.0 if self.side == "upper" else x < 0.0
        out = np.where(inside, np.exp(logpdf), 0.0)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        # the lower piece is the upper one mirrored by x -> -x
        sign = 1.0 if self.side == "upper" else -1.0
        return sign * float(_upper_normal_mean(sign * self.mean_, self.sd))

    def density_at_zero(self) -> float:
        """One-sided limit of the conditioned density at the origin: phi(b)/(sd Phi(b)) = 1/(sd R(-b))."""
        return math.exp(-float(_log_mills(-self._signed()))) / self.sd


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
            varrho = float(_expit(-t))
            dens = SteadyStateDensity(varrho, float(_expit(t)), upper, lower)
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
    return _glued(params, lambda: (
        _wait_logit_aband(params.beta, params.sigma, params.gamma, params.nu)[0],
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
    rho = prob_wait_no_aband(params.beta, params.sigma, params.gamma)
    return rho * params.sigma**2 / (-2.0 * params.beta)


@lru_cache(maxsize=16)
def _gauss_rule(rule, nodes: int):
    """Read-only (nodes, weights) of a numpy Gauss rule such as ``leggauss``."""
    x, w = rule(nodes)
    if not (np.isfinite(x).all() and np.isfinite(w).all()):  # hermgauss(400) has NaN weights
        raise DomainError(f"nodes = {nodes} is too many: numpy's {rule.__name__} is not finite")
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _gauss_sum(fn, centre, half, rule, nodes: int):
    """sum_k w_k fn(centre + half * x_k) over the Gauss rule ``rule``'s nodes.

    ``centre`` and ``half`` are floats or arrays that broadcast to
    ``centre``'s shape. ``fn`` gets one row of nodes per centre, and
    ``np.vecdot`` reduces each row by its own dot (``vals @ w`` need not),
    so every entry equals the sum at that centre alone, bit for bit.
    """
    x, w = _gauss_rule(rule, nodes)
    return np.vecdot(fn(np.asarray(centre)[..., None] + np.asarray(half)[..., None] * x), w)


_LADDER = (16, 32, 64, 128, 256)  # Gauss-Hermite rules tried in turn (hermgauss(512) has NaN weights)
_REL_TOL = 1e-6  # the two successive rules a drift average is taken from agree to this


@lru_cache(maxsize=8)
def _hermite(nodes: tuple):
    """The nodes of the Gauss-Hermite rules ``nodes`` side by side, and each rule's (weights, slice)."""
    rules = [_gauss_rule(np.polynomial.hermite.hermgauss, n) for n in nodes]
    ends = np.cumsum([0, *nodes]).tolist()
    cuts = [(w, slice(a, b)) for (_, w), a, b in zip(rules, ends, ends[1:])]
    return np.concatenate([x for x, _ in rules]), cuts


def _aband_drift_average(mean, sd: float, sigma: float, gamma: float, nu: float, name: str, var: str,
                         points, **coefs):
    """E[f(beta)], f = ``expected_positive_part_aband``, beta ~ N(mean, sd^2), by Gauss-Hermite rules.

    ``mean`` is a float or an array, with ``points`` (the values of ``var``)
    of its shape. Each entry climbs ``_LADDER`` until two successive rules
    agree to ``_REL_TOL`` relative (two zeros agree), and is the finer rule's
    sum, bit for bit: the 16- and 32-node rules share one kernel call, and
    each later rule runs only on the entries still open. An entry stops on
    its own values, so it equals the float call at that mean, bit for bit.
    A sum that is not finite, then an entry whose 128- and 256-node rules
    still disagree, is refused, naming ``name``, the point, sigma, gamma, nu
    and ``coefs``.

    One limit is structural. Where gamma sigma^2 < 2 sd^2, f falls off to the
    left faster than the drift density, so far below zero the average comes
    from drift mass beyond the coarser rule's outermost node (about 6.6 sd
    out for 16 nodes, 21.6 sd for 128), and two rules can agree on a
    near-zero value, 0 among them, that misses it.
    """
    centre, half = np.asarray(mean, dtype=float).reshape(-1, 1), math.sqrt(2.0) * sd
    law = dict(sigma=sigma, gamma=gamma, nu=nu, **coefs)

    def sums(*nodes):  # each rule's sums at the open entries' means, from one kernel call
        x, rules = _hermite(nodes)
        vals = expected_positive_part_aband(centre[rows] + half * x, sigma, gamma, nu)
        return [np.vecdot(vals[:, cut], w) / math.sqrt(math.pi) for w, cut in rules]

    rows = np.arange(centre.shape[0])
    prev, out = sums(*_LADDER[:2])
    cur = out
    for nodes in (*_LADDER[2:], None):
        open_ = ~(np.abs(cur - prev) <= _REL_TOL * np.maximum(np.abs(cur), 1e-300))  # true for NaN
        rows, prev = rows[open_], cur[open_]
        if not rows.size or nodes is None:
            break
        (cur,) = sums(nodes)
        out[rows] = cur
    out = _finite(out.reshape(np.shape(mean)), f"{name} at {var}", points, **law)
    if rows.size:
        raise DomainError(f"{name} quadrature did not converge to {_REL_TOL} at {var} = "
                          f"{float(np.ravel(points)[rows[0]])!r}: the law with "
                          + ", ".join(f"{key}={v!r}" for key, v in law.items()))
    return out


@np.errstate(all="ignore")  # a law lost to overflow is refused by name, not warned about
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
    coefficient under ``policy``. The inner integral over the state is
    closed form; only the drift integral is numeric, taken by
    ``_aband_drift_average``, which ``cost_aband`` shares. A law whose rules
    do not agree is refused: "ql_eps quadrature did not converge".
    """
    if not 0.0 < mu_bar - eps < mu_bar + eps < math.inf:  # the law's support; false for NaN
        raise DomainError(
            f"eps must lie in (0, mu_bar) with mu_bar +- eps distinct finite doubles, "
            f"got eps = {eps!r}, mu_bar = {mu_bar!r}"
        )
    if not 0.0 < theta < math.inf:  # false for NaN
        raise DomainError(f"ql_eps needs theta finite and > 0, got {theta!r}")
    law = RateDistribution.uniform(mu_bar - eps, mu_bar + eps)
    gamma = law.idleness_coefficient(policy)
    mean = -theta * mu_bar
    sd = math.sqrt(law.variance())
    return _aband_drift_average(mean, sd, sigma, gamma, nu, "ql_eps", "eps", eps, theta=theta)


def halfin_whitt_delay(theta: float) -> float:
    """Classical square-root-staffing delay probability (1 + theta*Phi/phi)^-1."""
    if not 0.0 < theta < math.inf:  # false for NaN
        raise DomainError(f"theta must be finite and > 0, got {theta!r}")
    return float(_expit(-_logit_no_aband(theta, _log_mills(-theta))))
