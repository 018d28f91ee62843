"""Steady-state analytics: closed forms vs quadrature, collapses, monotonicity.

Golden values below were frozen from a 40-digit mpmath evaluation of the
scale-density representation of the stationary law (density proportional to
exp((2/sigma^2) * int_0^x drift)), an independent route to the same object.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import norm

from hetq import diffusion
from hetq.core import Policy, RateDistribution
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


class TestLazySpecial:
    @pytest.mark.parametrize("name", ["expit", "log_ndtr", "ndtr", "gammaln"])
    def test_same_functions_as_scipy(self, name):
        import scipy.special

        assert getattr(diffusion.special, name) is getattr(scipy.special, name)

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="not_a_function"):
            diffusion.special.not_a_function


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
        with pytest.raises(DomainError):
            ql_eps(0.1, 1.0, 4.0, 2.0, 2.0, policy=Policy.RANDOM)


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
