"""50-digit mpmath references for the normal-tail closed forms.

R(t) = Phi(-t)/phi(t) is the Mills ratio. mpmath's ncdf loses the exponent
of Phi(-t) beyond |t| of about 1e6, so there R is the asymptotic series
(1/t) sum_k (-1)^k (2k - 1)!!/t^(2k) above zero, exact to 50 digits, and
sqrt(2 pi) exp(t^2/2) - R(|t|) below it.
"""

import mpmath

mpmath.mp.dps = 50


def mills(t):
    t = mpmath.mpf(t)
    if abs(t) > 1e6:
        y = abs(t)
        series = (1 - _series(y)) / y
        return series if t > 0 else mpmath.sqrt(2 * mpmath.pi) * mpmath.exp(y * y / 2) - series
    return mpmath.ncdf(-t) / mpmath.npdf(t)


def wait_aband(beta, sigma, gamma, nu):
    """P(xi >= 0) with abandonment: 1/(1 + sqrt(nu/gamma) R(a_gamma)/R(-a_nu))."""
    b = mpmath.sqrt(2) * mpmath.mpf(float(beta)) / sigma
    a_nu, a_ga = b / mpmath.sqrt(nu), b / mpmath.sqrt(gamma)
    return 1 / (1 + mpmath.sqrt(mpmath.mpf(nu) / gamma) * mills(a_ga) / mills(-a_nu))


def _series(y):
    """1 - y R(y) = sum_{k >= 1} (-1)^(k+1) (2k - 1)!!/y^(2k), for y > 1e6."""
    return sum((-1) ** (k + 1) * mpmath.fac2(2 * k - 1) / y ** (2 * k) for k in range(1, 10))


def mean_above_zero(m, s):
    """E[X | X >= 0] for X ~ N(m, s^2): m + s/R(t), t = -m/s, or s t c/(1 - c), c = 1 - t R(t), beyond 1e6."""
    t = -m / s
    if t > 1e6:
        c = _series(t)
        return s * t * c / (1 - c)
    return m + s / mills(t)


def positive_part_aband(beta, sigma, gamma, nu):
    """E[xi^+; xi >= 0] with abandonment: the wait probability times the upper piece's mean."""
    m = mpmath.mpf(float(beta)) / nu
    s = mpmath.mpf(sigma) / mpmath.sqrt(2 * mpmath.mpf(nu))
    return wait_aband(beta, sigma, gamma, nu) * mean_above_zero(m, s)
