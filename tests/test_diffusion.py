"""Steady-state analytics: closed forms vs quadrature, collapses, monotonicity.

Golden values below were frozen from a 40-digit mpmath evaluation of the
scale-density representation of the stationary law (density proportional to
exp((2/sigma^2) * int_0^x drift)), an independent route to the same object.
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special
from scipy.stats import norm

from hetq import diffusion, staffing
from hetq.core import Policy, RateDistribution, SystemConfig
from hetq.diffusion import (
    ConditionedNormalPiece,
    DiffusionParams,
    ExponentialPiece,
    expected_positive_part,
    expected_positive_part_aband,
    halfin_whitt_delay,
    prob_wait_aband,
    prob_wait_no_aband,
    ql_eps,
    stationary_aband,
    stationary_no_aband,
)
from hetq.errors import ConfigError, DomainError
from hetq.ssc import almost_lipschitz_check, hydro_scale
from mills_oracle import mills, wait_aband
from sde_oracle import simulate_sde

# frozen from the mpmath scale-density oracle
RHO_NOAB_GOLDEN = 0.72093211340305466306  # (beta, sigma, gamma) = (-1, 4, 2)
EPP_GOLDEN = 0.39559311480261205919  # (beta, sigma, gamma, nu) = (-2, 4, 2, 2)
EPP_GOLDEN_2 = 0.19964122837424566589  # (-1, 2, 1, 1)
# spawn key of the Euler oracle's stream: one no hetq stream uses, so its
# draws are independent of every simulation stream
SDE_STREAM_KEY = 6


def quad_normalization(density):
    val, _ = integrate.quad(density.pdf, -np.inf, 0.0, limit=400)
    val2, _ = integrate.quad(density.pdf, 0.0, np.inf, limit=400)
    return val + val2


_ULP = 2.0**-52
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _max_error(got, want, floor=0.0):
    """max |got - want| / max(|want|, floor) over the points, in doubles."""
    return max(float(abs(g - w) / max(abs(w), floor)) for g, w in zip(np.asarray(got).tolist(), want))


# the grid: |t| up to 1e8, and L's zero crossing near t = 0.30 from both sides
_GRID = np.concatenate([
    np.linspace(-37.0, 37.0, 741), np.geomspace(37.0, 1e8, 40), -np.geomspace(37.0, 1e3, 10),
    -np.geomspace(1e-8, 0.6, 20), np.geomspace(1e-8, 0.6, 20), np.linspace(0.29, 0.31, 21),
])


def _kernel_arguments():
    """Every argument ``_log_mills`` meets in one array call of each cost at criterion 10's law."""
    seen = []
    kernel = diffusion._log_mills

    def record(t):
        seen.append(np.array(t, dtype=float).ravel())
        return kernel(t)

    cfg = SystemConfig(r=400.0, lambda_r=400.0, seed=0, abandon_rate=1.0)
    dist = RateDistribution.uniform(0.8, 1.2)
    xs = np.linspace(0.05, 6.0, 16)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(diffusion, "_log_mills", record)
        mp.setattr(staffing, "_log_mills", record)
        staffing.cost_aband(xs, cfg, dist, staffing.CostSpec(d=5.0, nu=1.0))
        staffing.cost_no_aband(xs, cfg, dist, staffing.CostSpec(c_w=1.0))
    args = np.concatenate(seen)
    return args[:: max(1, args.size // 1500)]  # every k-th one, about 1500


class TestNormalKernel:
    """The numpy kernel against 50-digit mpmath, and no worse than scipy.special.

    L(t) = log(Phi(-t)/phi(t)) is held to a few ulps of max(|L|, 1): an
    absolute error near its zero crossing at t = 0.30, a relative one
    elsewhere. Every other bound is scipy.special's own error on the same
    points, computed here.
    """

    @pytest.mark.parametrize("points", ["grid", "kernel arguments"])
    def test_log_mills(self, points):
        t = _GRID if points == "grid" else _kernel_arguments()
        want = [mpmath.log(mills(v)) for v in t]
        ours = _max_error(diffusion._log_mills(t), want, floor=1.0)
        theirs = _max_error(special.log_ndtr(-t) + 0.5 * t * t + _LOG_SQRT_2PI, want, floor=1.0)
        assert ours <= 4.0 * _ULP
        assert ours <= theirs

    def test_mills_ratio(self):
        want = [mills(v) for v in _GRID]
        with np.errstate(over="ignore"):  # R overflows far below zero, for both
            ours = np.exp(diffusion._log_mills(_GRID))
            theirs = np.exp(special.log_ndtr(-_GRID) + 0.5 * _GRID * _GRID + _LOG_SQRT_2PI)
        keep = [i for i, w in enumerate(want) if w < 1e300]
        ours, theirs = _max_error(ours[keep], [want[i] for i in keep]), _max_error(theirs[keep], [want[i] for i in keep])
        assert ours <= theirs

    def test_normal_cdf_and_its_log(self):
        x = _GRID[(_GRID > -37.5) & (_GRID < 38.0)]  # Phi(-37.5) is subnormal
        cdf = [mpmath.ncdf(mpmath.mpf(float(v))) for v in x]
        # log1p keeps log Phi's digits where Phi is within 1e-50 of 1
        log_cdf = [mpmath.log1p(-mpmath.ncdf(-mpmath.mpf(float(v)))) if v > 0 else mpmath.log(c)
                   for v, c in zip(x, cdf)]
        ours = diffusion._ndtr(x, diffusion._log_mills(np.abs(x)))
        assert _max_error(ours, cdf) <= _max_error(special.ndtr(x), cdf)
        assert _max_error(diffusion._log_ndtr(x), log_cdf) <= _max_error(special.log_ndtr(x), log_cdf)

    @pytest.mark.parametrize("sigma,gamma", [(math.sqrt(2.0), 1.0), (4.0, 2.0), (0.3, 5.0)])
    def test_wait_probability_without_abandonment(self, sigma, gamma):
        beta = -np.geomspace(1e-6, 30.0, 200)
        a = math.sqrt(2.0) * -beta / (math.sqrt(gamma) * sigma)
        want = [1 / (1 + v * mills(-v)) for v in a]
        keep = [i for i, w in enumerate(want) if w > 1e-300]
        want = [want[i] for i in keep]
        log_phi = -0.5 * a * a - _LOG_SQRT_2PI
        theirs = special.expit(-(np.log(a) + special.log_ndtr(a) - log_phi))[keep]
        ours = prob_wait_no_aband(beta, sigma, gamma)[keep]
        assert _max_error(ours, want) <= _max_error(theirs, want)

    @pytest.mark.parametrize(
        "sigma,gamma,nu",
        [(math.sqrt(2.0), 1.0, 1.0), (4.0, 2.0, 2.0), (1.0, 1.0, 1e-3), (1.0, 0.5, 50.0)],
    )
    def test_wait_probability_with_abandonment(self, sigma, gamma, nu):
        beta = np.concatenate([-np.geomspace(1e-6, 30.0, 100), np.geomspace(1e-6, 30.0, 100)])
        a_nu = math.sqrt(2.0) * beta / (math.sqrt(nu) * sigma)
        a_ga = math.sqrt(2.0) * beta / (math.sqrt(gamma) * sigma)
        # at the doubles a_gamma and a_nu the kernel is given, so that both sides
        # are judged on the same arguments
        root = math.sqrt(nu / gamma)
        want = [1 / (1 + root * mills(g) / mills(-n)) for g, n in zip(a_ga, a_nu)]
        keep = [i for i, w in enumerate(want) if w > 1e-300]
        want = [want[i] for i in keep]
        log_phi = lambda v: -0.5 * v * v - _LOG_SQRT_2PI  # noqa: E731
        theirs = special.expit(-(
            0.5 * (math.log(nu) - math.log(gamma)) + log_phi(a_nu) - log_phi(a_ga)
            + special.log_ndtr(-a_ga) - special.log_ndtr(a_nu)
        ))[keep]
        ours = prob_wait_aband(beta, sigma, gamma, nu)[keep]
        assert _max_error(ours, want) <= _max_error(theirs, want)


class TestProbWaitNoAband:
    def test_beta_to_zero_limit(self):
        assert prob_wait_no_aband(-1e-12, 2.0, 1.0) == pytest.approx(1.0, abs=1e-9)

    def test_halfin_whitt_reduction(self):
        # gamma = mu, sigma^2 = 2*mu collapses to the square-root-staffing law
        for theta in (0.25, 0.5, 1.0, 2.0, 4.0):
            for mu in (0.5, 1.0, 2.7):
                got = prob_wait_no_aband(-theta * mu, math.sqrt(2.0 * mu), mu)
                want = halfin_whitt_delay(theta)
                assert got == pytest.approx(want, abs=1e-12)
        assert halfin_whitt_delay(1.0) == pytest.approx(0.22336127479826076, abs=1e-12)

    def test_golden_value(self):
        assert prob_wait_no_aband(-1.0, 4.0, 2.0) == pytest.approx(RHO_NOAB_GOLDEN, abs=1e-13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            prob_wait_no_aband(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            prob_wait_no_aband(0.5, 1.0, 1.0)

    def test_monotone_in_abs_beta_and_gamma(self):
        betas = -np.linspace(0.1, 4.0, 25)
        vals = [prob_wait_no_aband(b, 2.0, 1.5) for b in betas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        # increasing in gamma: a stronger push out of idleness raises the
        # chance of finding the system congested (FSF's smaller gamma is the
        # favourable one)
        gammas = np.linspace(0.2, 5.0, 25)
        vals = [prob_wait_no_aband(-1.0, 2.0, g) for g in gammas]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestProbWaitAband:
    def test_nu_equals_gamma_collapse(self):
        for beta in (-2.0, -0.3, 0.0, 1.7):
            got = prob_wait_aband(beta, 4.0, 2.0, 2.0)
            want = norm.cdf(math.sqrt(2.0) * beta / (math.sqrt(2.0) * 4.0))
            assert got == pytest.approx(want, abs=1e-14)

    def test_symmetry_at_zero_drift(self):
        assert prob_wait_aband(0.0, 3.0, 1.5, 1.5) == pytest.approx(0.5, abs=1e-15)

    def test_example_value(self):
        # (-2, 4, 2, 2): the nu = gamma reduction gives Phi(-1/2)
        assert prob_wait_aband(-2.0, 4.0, 2.0, 2.0) == pytest.approx(
            0.30853753872598689636, abs=1e-13
        )

    def test_far_tails_are_finite(self):
        assert 0.0 < prob_wait_aband(-15.0, 1.0, 2.0, 0.5) < 1e-45
        assert 1.0 - prob_wait_aband(15.0, 1.0, 2.0, 0.5) < 1e-6
        # beyond the double floor the value correctly rounds to 0, not NaN
        assert prob_wait_aband(-80.0, 1.0, 2.0, 0.5) == 0.0


_drifts = st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=40)
_coeff = st.floats(0.05, 10.0)


class TestArrayKernels:
    """An array of drifts gives exactly the scalar values, element by element."""

    @given(_drifts, _coeff, _coeff)
    @settings(max_examples=200, deadline=None)
    def test_prob_wait_no_aband(self, drifts, sigma, gamma):
        betas = -np.abs(np.array(drifts)) - 1e-9
        got = prob_wait_no_aband(betas, sigma, gamma)
        assert got.shape == betas.shape
        want = [prob_wait_no_aband(float(b), sigma, gamma) for b in betas]
        assert all(type(w) is float for w in want)
        assert list(got) == want

    @given(_drifts, _coeff, _coeff, _coeff)
    @settings(max_examples=200, deadline=None)
    def test_prob_wait_and_positive_part_aband(self, drifts, sigma, gamma, nu):
        betas = np.array(drifts)
        for fn in (prob_wait_aband, expected_positive_part_aband):
            got = fn(betas, sigma, gamma, nu)
            want = [fn(float(b), sigma, gamma, nu) for b in betas]
            assert all(type(w) is float for w in want)
            assert list(got) == want

    def test_array_domain_error_names_drift(self):
        with pytest.raises(DomainError, match="beta < 0"):
            prob_wait_no_aband(np.array([-1.0, 0.5]), 1.0, 1.0)

    @pytest.mark.parametrize("key", ["sigma", "beta", "gamma", "nu"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_params_reject_non_finite(self, key, bad):
        values = {"sigma": 1.0, "beta": -1.0, "gamma": 1.0, "nu": 1.0, key: bad}
        with pytest.raises(ConfigError, match=key):
            DiffusionParams(**values)


class TestStationaryDensities:
    def test_no_aband_pieces(self):
        params = DiffusionParams(sigma=4.0, beta=-1.0, gamma=2.0)
        dens = stationary_no_aband(params)
        assert isinstance(dens.upper, ExponentialPiece)
        assert dens.upper.mean() == pytest.approx(params.sigma**2 / (-2.0 * params.beta))
        assert dens.continuity_residual() < 1e-9
        assert quad_normalization(dens) == pytest.approx(1.0, abs=1e-8)
        # upper piece alone integrates to one
        up, _ = integrate.quad(dens.upper.pdf, 0.0, np.inf)
        assert up == pytest.approx(1.0, abs=1e-10)

    def test_aband_pieces(self):
        params = DiffusionParams(sigma=4.0, beta=-1.0, gamma=5.0 / 3.0, nu=2.0)
        dens = stationary_aband(params)
        assert isinstance(dens.upper, ConditionedNormalPiece)
        assert dens.continuity_residual() < 1e-9
        assert quad_normalization(dens) == pytest.approx(1.0, abs=1e-8)
        up, _ = integrate.quad(dens.upper.pdf, 0.0, np.inf)
        dn, _ = integrate.quad(dens.lower.pdf, -np.inf, 0.0)
        assert up == pytest.approx(1.0, abs=1e-9)
        assert dn == pytest.approx(1.0, abs=1e-9)

    def test_nu_equals_gamma_single_normal(self):
        params = DiffusionParams(sigma=2.0, beta=-0.7, gamma=1.3, nu=1.3)
        dens = stationary_aband(params)
        xs = np.linspace(-4.0, 4.0, 401)
        want = norm.pdf(xs, loc=params.beta / params.nu, scale=params.sigma / math.sqrt(2 * params.nu))
        np.testing.assert_allclose(dens.pdf(xs), want, rtol=1e-12, atol=1e-300)

    def test_random_admissible_draws(self):
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            sigma = rng.uniform(0.5, 5.0)
            gamma = rng.uniform(0.2, 4.0)
            nu = rng.uniform(0.2, 4.0)
            beta = rng.uniform(-3.0, 3.0)
            dens = stationary_aband(DiffusionParams(sigma, beta, gamma, nu))
            assert dens.continuity_residual() < 1e-9
            assert quad_normalization(dens) == pytest.approx(1.0, abs=1e-8)


class TestExpectedPositivePart:
    def test_goldens(self):
        assert expected_positive_part(DiffusionParams(4.0, -2.0, 2.0, 2.0)) == pytest.approx(
            EPP_GOLDEN, abs=1e-12
        )
        assert expected_positive_part(DiffusionParams(2.0, -1.0, 1.0, 1.0)) == pytest.approx(
            EPP_GOLDEN_2, abs=1e-12
        )

    def test_no_aband_exponential_mean(self):
        # nu = 0, beta = -1, sigma^2 = 2: upper mean is exactly 1
        params = DiffusionParams(math.sqrt(2.0), -1.0, 1.0)
        rho = prob_wait_no_aband(-1.0, math.sqrt(2.0), 1.0)
        assert expected_positive_part(params) == pytest.approx(rho * 1.0, abs=1e-14)

    def test_mass_escapes_for_very_negative_drift(self):
        vals = [
            expected_positive_part(DiffusionParams(1.0, b, 1.0, 1.0))
            for b in (-2.0, -5.0, -10.0, -20.0)
        ]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-60

    def test_closed_form_matches_quadrature(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            sigma = rng.uniform(0.5, 5.0)
            gamma = rng.uniform(0.2, 4.0)
            nu = rng.uniform(0.2, 4.0)
            beta = rng.uniform(-3.0, 3.0)
            params = DiffusionParams(sigma, beta, gamma, nu)
            dens = stationary_aband(params)
            quad, _ = integrate.quad(lambda x: x * dens.pdf(x), 0.0, np.inf)
            closed = expected_positive_part(params)
            assert closed == pytest.approx(quad, rel=1e-8)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            expected_positive_part(DiffusionParams(1.0, 0.5, 1.0, 0.0))


class TestFarTail:
    """Far below zero, log phi - log Phi is a small difference of two huge terms."""

    @pytest.mark.parametrize("a", [-41.0, -1e4, -1e6, -1e9])
    @pytest.mark.parametrize("s", [1.0, 0.3])
    def test_upper_normal_mean_matches_mpmath(self, a, s):
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 50
        x = mpmath.mpf(a)
        want = float(s * (x + mpmath.npdf(x) / mpmath.ncdf(x)))
        assert diffusion._upper_normal_mean(a * s, s) == pytest.approx(want, rel=1e-12)

    def test_upper_normal_mean_is_continuous_at_the_switch(self):
        edge = -diffusion._FAR_TAIL
        near, far = diffusion._upper_normal_mean(np.array([edge, np.nextafter(edge, -math.inf)]), 1.0)
        assert far == pytest.approx(near, rel=1e-9)  # the closed form is off by 3e-10 there

    def test_positive_part_of_a_far_drift_is_zero_not_nan(self):
        # the wait probability underflows to 0, and the mean no longer overflows
        assert expected_positive_part_aband(-1.9e9, math.sqrt(2.0), 1.0, 1.0) == 0.0

    def test_wait_probability_of_a_tiny_nu_matches_mpmath(self):
        # nu = 1e-300 was NaN: log phi and log Phi near -5e299 differ by about 345,
        # and their difference had no digit left; L(-a_nu) holds it
        want = wait_aband(-1.0, math.sqrt(2.0), 1.0, 1e-300)
        assert prob_wait_aband(-1.0, math.sqrt(2.0), 1.0, 1e-300) == pytest.approx(float(want), rel=1e-14)
        assert prob_wait_aband(-1.0, math.sqrt(2.0), 1.0, 1e-3) == pytest.approx(
            prob_wait_aband(-1.0, math.sqrt(2.0), 1.0, 1e-4), rel=0.1
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("call,message", [
    (lambda v: halfin_whitt_delay(v), "theta must be finite"),
    (lambda v: ql_eps(0.1, 1.0, 4.0, v, 2.0), "ql_eps needs theta finite"),
    (lambda v: hydro_scale(None, 0, v), "window length must be finite"),  # before the path is read
    (lambda v: hydro_scale(None, v, 1.0), "window index must be finite"),
    (lambda v: almost_lipschitz_check([], 1.0, v), "n_const and eps must be finite"),
    (lambda v: almost_lipschitz_check([], v, 0.1), "n_const and eps must be finite"),
], ids=["halfin_whitt_delay", "ql_eps", "hydro_length", "hydro_index", "lipschitz_eps", "lipschitz_n_const"])
def test_nan_and_inf_are_refused_by_name(call, message, bad):
    # a check written as x <= 0.0 lets NaN through; the chained 0 < x < inf does not
    with pytest.raises((ConfigError, DomainError), match=message):
        call(bad)


class TestQlEps:
    def test_eps_to_zero_limit(self):
        # degenerate drift law: both policies agree with the point evaluation
        base = expected_positive_part(DiffusionParams(4.0, -2.0, 1.0, 2.0))
        for policy in (Policy.LISF, Policy.FSF):
            got = ql_eps(1e-7, 1.0, 4.0, 2.0, 2.0, policy=policy)
            assert got == pytest.approx(base, rel=1e-5)

    def test_lisf_increasing_fsf_decreasing(self):
        grid = np.arange(0.05, 0.501, 0.05)
        lisf = [ql_eps(e, 1.0, 4.0, 2.0, 2.0, policy=Policy.LISF) for e in grid]
        fsf = [ql_eps(e, 1.0, 4.0, 2.0, 2.0, policy=Policy.FSF) for e in grid]
        assert all(b - a > 1e-8 for a, b in zip(lisf, lisf[1:]))
        assert all(a - b > 1e-8 for a, b in zip(fsf, fsf[1:]))

    def test_node_convergence(self):
        from hetq.diffusion import expected_positive_part_aband, gauss_hermite_expectation

        law = RateDistribution.uniform(1.0 - 0.3, 1.0 + 0.3)
        gamma, sd = law.idleness_coefficient(Policy.LISF), math.sqrt(law.variance())
        fn = lambda b: expected_positive_part_aband(b, 4.0, gamma, 2.0)
        v64 = gauss_hermite_expectation(fn, -2.0, sd, 64)
        v128 = gauss_hermite_expectation(fn, -2.0, sd, 128)
        assert abs(v64 - v128) <= 1e-6 * abs(v128)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ql_eps(1.0, 1.0, 4.0, 2.0, 2.0)  # eps >= mu_bar
        with pytest.raises(DomainError):
            ql_eps(0.1, 1.0, 4.0, 2.0, 0.0)
        # RANDOM routing is in the domain: it shares LISF's gamma
        random = ql_eps(0.1, 1.0, 4.0, 2.0, 2.0, policy=Policy.RANDOM)
        assert random == ql_eps(0.1, 1.0, 4.0, 2.0, 2.0, policy=Policy.LISF)


def _full_rule(mean, sd, sigma, gamma, nu, nodes):
    fn = lambda b: expected_positive_part_aband(b, sigma, gamma, nu)
    return diffusion.gauss_hermite_expectation(fn, mean, sd, nodes)


class TestPrunedDriftAverage:
    """``_aband_drift_average`` drops the Hermite nodes of negligible weight."""

    @given(
        mu_bar=st.floats(0.1, 10.0), eps_share=st.floats(0.001, 0.999),
        theta=st.floats(-1.0, 10.0), sigma=st.floats(0.01, 100.0), log_nu=st.floats(-3.0, 3.0),
        policy=st.sampled_from([Policy.LISF, Policy.FSF]), nodes=st.sampled_from([64, 128]),
    )
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_matches_the_full_rule(self, mu_bar, eps_share, theta, sigma, log_nu, policy, nodes):
        law = RateDistribution.uniform(mu_bar * (1.0 - eps_share), mu_bar * (1.0 + eps_share))
        gamma, sd, nu = law.idleness_coefficient(policy), math.sqrt(law.variance()), 10.0**log_nu
        with np.errstate(all="ignore"):
            (got,) = diffusion._aband_drift_average(-theta * mu_bar, sd, sigma, gamma, nu, nodes)
            want = _full_rule(-theta * mu_bar, sd, sigma, gamma, nu, nodes)
        assert abs(got - want) <= 2.0**-52 * abs(want)

    def test_positive_part_is_nondecreasing_and_bounded(self):
        # the two facts the pruning bound rests on, on a grid out to beta = +-1e6
        grid = np.sinh(np.linspace(-math.asinh(1e6), math.asinh(1e6), 4001))
        beta = np.concatenate([[-1e6], grid[1:-1], [1e6]])
        for sigma in (0.01, 1.0, 4.0, 100.0):
            for gamma in (0.5, 1.0, 3.0):
                for nu in (1e-300, 1e-3, 1.0, 2.0, 1e3):
                    with np.errstate(all="ignore"):
                        f = expected_positive_part_aband(beta, sigma, gamma, nu)
                    assert np.isfinite(f).all() and (np.diff(f) >= 0.0).all(), (sigma, gamma, nu)
                    assert (f <= np.maximum(beta, 0.0) / nu + sigma / math.sqrt(2.0 * nu)).all()

    def test_row_failing_the_bound_is_the_full_rule(self, monkeypatch):
        # at mean -12 the kept terms sum to about 2e-33, and the right-tail
        # bound, the tail weight times sigma/sqrt(2 nu), is about 7e-37
        calls = []
        inner = diffusion.expected_positive_part_aband
        monkeypatch.setattr(diffusion, "expected_positive_part_aband",
                            lambda b, *law: calls.append(np.shape(b)) or inner(b, *law))
        law = (0.2, 1.0, 2.0, 1.0)  # sd, sigma, gamma, nu
        means = np.array([-1.0, -12.0])
        got = diffusion._aband_drift_average(means, *law, 128)[0]
        assert calls == [(2, 86), (1, 42)]  # the kept nodes, then the failing row's dropped ones
        monkeypatch.setattr(diffusion, "expected_positive_part_aband", inner)
        assert 0.0 < got[1] < 1e-30
        assert got[1] == _full_rule(-12.0, *law, 128)
        assert got.tolist() == [diffusion._aband_drift_average(m, *law, 128)[0] for m in means.tolist()]

    def test_ql_eps_takes_its_first_two_rules_in_one_call(self, monkeypatch):
        calls = []
        average = diffusion._aband_drift_average
        monkeypatch.setattr(diffusion, "_aband_drift_average",
                            lambda *args: calls.append(args[5:]) or average(*args))
        value = ql_eps(0.3, 1.0, 4.0, 2.0, 2.0)
        assert calls == [(64, 128)]
        law = RateDistribution.uniform(0.7, 1.3)
        gamma, sd = law.idleness_coefficient(Policy.LISF), math.sqrt(law.variance())
        assert value == _full_rule(-2.0, sd, 4.0, gamma, 2.0, 128)


class TestSimulateSde:
    def test_deterministic_ramp(self):
        # sigma = 0, beta = -1, gamma = 1, nu = 0, from x0 = 1: slope -1 until 0 at t = 1
        params = DiffusionParams(sigma=0.0, beta=-1.0, gamma=1.0, nu=0.0)
        t, x = simulate_sde(params, 1.0, horizon=1.0, step=1e-4)
        assert abs(x[-1]) < 1e-3
        mid = np.searchsorted(t, 0.5)
        assert x[mid] == pytest.approx(0.5, abs=1e-3)

    def test_two_seeds_differ_same_invariant(self):
        from hetq.core import rng_stream

        params = DiffusionParams(sigma=2.0, beta=-1.0, gamma=1.0, nu=1.0)
        dens = stationary_aband(params)
        hists = []
        edges = np.linspace(-6.0, 5.0, 45)
        for seed in (1, 2):
            x0 = np.zeros(64)
            t, x = simulate_sde(
                params, x0, horizon=220.0, step=2e-3,
                stream=rng_stream(seed, SDE_STREAM_KEY), sample_stride=10,
            )
            burn = np.searchsorted(t, 20.0)
            hists.append(np.histogram(x[burn:].ravel(), bins=edges, density=False)[0])
        assert not np.array_equal(hists[0], hists[1])
        # both empirical histograms sit close to the stationary law
        probs = np.array([
            integrate.quad(dens.pdf, a, b, limit=100)[0] for a, b in zip(edges[:-1], edges[1:])
        ])
        for h in hists:
            emp = h / h.sum()
            tv = 0.5 * np.abs(emp - probs / probs.sum()).sum()
            assert tv < 0.02
