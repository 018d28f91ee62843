"""Erlang formulas vs linear-solve oracle, cost functionals, optimizer."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import spsolve
from scipy.stats import poisson

from conftest import within
from mills_oracle import positive_part_aband
from hetq import staffing
from hetq.core import HalfinWhitt, Policy, RateDistribution, SystemConfig
from hetq.diffusion import DiffusionParams, expected_positive_part, prob_wait_no_aband
from hetq.errors import ConfigError, DomainError
from hetq.staffing import (
    CostSpec,
    cost_aband,
    cost_no_aband,
    erlang_a,
    erlang_c,
    optimize_staffing,
)

# frozen from an exhaustive 1e-4 grid scan of the abandonment cost at
# r=400, uniform(0.8, 1.2), c_s=1, d=5, nu=1, lambda_r=400, LISF
GOLDEN_X_STAR = 0.8497
GOLDEN_COST = 28.299798127510865


def birth_death_solve(n, lam, mu, nu=0.0, states=12000):
    """Stationary law of the truncated birth-death chain by sparse linear solve.

    The balance equation of state ``pin`` near the mode is replaced by
    pi[pin] = 1, which keeps the matrix tridiagonal (no LU fill-in, unlike a
    dense normalisation row) and pi within range (pinning pi[0] overflows at
    large n); the solution is normalised afterwards.
    """
    j = np.arange(states)
    birth = np.full(states, lam)
    birth[-1] = 0.0
    death = np.minimum(j, n) * mu + np.maximum(j - n, 0) * nu
    upper, diag, lower = death[1:], -(birth + death), birth[:-1]  # views: not read again
    pin = min(n, math.floor(lam))
    upper[pin] = 0.0
    diag[pin] = 1.0
    if pin > 0:
        lower[pin - 1] = 0.0
    a = sparse.diags([upper, diag, lower], offsets=[1, 0, -1], format="csc")
    rhs = np.zeros(states)
    rhs[pin] = 1.0
    pi = spsolve(a, rhs)
    pi = np.maximum(pi, 0.0)
    pi /= pi.sum()
    p_wait = pi[n:].sum()
    mean_q = float(((j - n)[n:] * pi[n:]).sum())
    return p_wait, mean_q


class TestErlangC:
    def test_single_server_is_rho(self):
        assert erlang_c(1, 0.5, 1.0)[0] == pytest.approx(0.5, abs=1e-15)

    def test_two_servers_hand_value(self):
        # birth-death balance solved by hand for N=2, rho=0.5 gives 1/3
        assert erlang_c(2, 1.0, 1.0)[0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_unstable(self):
        with pytest.raises(DomainError, match="^offered load 10 needs more than 10 servers$"):
            erlang_c(10, 10.0, 1.0)

    @pytest.mark.parametrize("n,lam", [(2, 1.0), (50, 40.0), (100, 90.0), (200, 185.0)])
    def test_matches_linear_solve(self, n, lam):
        pw, mq, _ = erlang_c(n, lam, 1.0)
        pw2, mq2 = birth_death_solve(n, lam, 1.0)
        assert pw == pytest.approx(pw2, abs=1e-8)
        assert mq == pytest.approx(mq2, abs=1e-8)

    def test_large_n_does_not_overflow(self):
        pw, mq, mw = erlang_c(100_000, 99_000.0, 1.0)
        assert 0.0 < pw < 1.0 and np.isfinite(mq) and np.isfinite(mw)


class TestErlangA:
    def test_nu_equals_mu_poisson_tail(self):
        n, lam = 10, 8.0
        pw, _, _ = erlang_a(n, lam, 1.0, 1.0)
        assert pw == pytest.approx(1.0 - poisson.cdf(n - 1, lam), abs=1e-12)

    def test_light_traffic_vanishes(self):
        pw, mq, ab = erlang_a(50, 1e-3, 1.0, 0.5)
        assert pw < 1e-10 and mq < 1e-10 and ab < 1e-10

    @pytest.mark.parametrize(
        "n,lam,nu", [(2, 3.0, 1.0), (50, 55.0, 0.5), (100, 120.0, 0.25), (200, 185.0, 2.0)]
    )
    def test_matches_linear_solve(self, n, lam, nu):
        pw, mq, _ = erlang_a(n, lam, 1.0, nu)
        pw2, mq2 = birth_death_solve(n, lam, 1.0, nu)
        assert pw == pytest.approx(pw2, abs=1e-8)
        assert mq == pytest.approx(mq2, abs=1e-8)

    def test_overloaded_still_converges(self):
        pw, mq, ab = erlang_a(50, 200.0, 1.0, 0.5)
        assert 0.0 < ab < 1.0 and mq > 0.0


def mmn_reference(n, lam, mu, nu=0.0):
    """(p_wait, mean_Q) of M/M/N (nu = 0) or M/M/N+M at 40 digits.

    The weights up to N sum in closed form, sum_{j <= N} pi_j / pi_N =
    e^a Q(N + 1, a) N! / a^N with a = lam / mu and Q the regularized upper
    incomplete gamma. Above N: the geometric tail's closed form at nu = 0,
    else the tail term by term until k pi_{N+k} is below 1e-45 of its sum.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        lam, mu, nu = mpmath.mpf(lam), mpmath.mpf(mu), mpmath.mpf(nu)
        a = lam / mu
        upto_n = mpmath.gammainc(n + 1, a, regularized=True) * mpmath.exp(
            a + mpmath.loggamma(n + 1) - n * mpmath.log(a)
        )
        if nu == 0:
            tail = n * mu / (n * mu - lam)
            tail_q = tail * lam / (n * mu - lam)
        else:
            tail, tail_q, w, k = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(1), 0
            while True:
                k += 1
                ratio = lam / (n * mu + k * nu)
                w *= ratio
                tail, tail_q = tail + w, tail_q + k * w
                if ratio < 1 and k * w < mpmath.mpf(10) ** -45 * tail:
                    break
        total = upto_n + tail - 1  # both sums hold pi_N / pi_N
        return float(tail / total), float(tail_q / total)


class TestErlangLaw:
    """erlang_c and erlang_a share one M/M/N+M law: exact to 1e-13, refusing in time."""

    @pytest.mark.parametrize("n,lam", [
        (100, 90.0), (10_000, 9_900.0), (10_000, 9_950.0), (100_000, 99_000.0), (50, 1e-3),
    ])
    def test_erlang_c_matches_mpmath(self, n, lam):
        got = erlang_c(n, lam, 1.0)[:2]
        assert got == pytest.approx(mmn_reference(n, lam, 1.0), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n,lam,nu", [
        (200, 185.0, 2.0), (1_000, 980.0, 0.5), (10_000, 9_900.0, 1.3), (10_000, 9_850.0, 0.7),
        (50, 200.0, 0.5), (50, 1e-3, 0.5),
    ])
    def test_erlang_a_matches_mpmath(self, n, lam, nu):
        got = erlang_a(n, lam, 1.0, nu)[:2]
        assert got == pytest.approx(mmn_reference(n, lam, 1.0, nu), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("call,args", [
        *[(erlang_c, args) for args in [
            (10, math.nan, 1.0), (10, math.inf, 1.0), (10, 5.0, math.nan), (10, 5.0, math.inf),
            (2.5, 1.0, 1.0), (0, 1.0, 1.0), (10**8, 1.0, 1.0), (10, 1e-310, 1.0),
        ]],
        *[(erlang_a, args) for args in [
            (10, math.nan, 1.0, 1.0), (10, math.inf, 1.0, 1.0), (10, 8.0, math.nan, 1.0),
            (10, 8.0, math.inf, 1.0), (10, 8.0, 1.0, math.nan), (10, 8.0, 1.0, math.inf),
            (10, 8.0, 1.0, 0.0), (2.5, 1.0, 1.0, 1.0),
        ]],
    ])
    def test_bad_input_is_a_config_error(self, call, args):
        with pytest.raises(ConfigError):
            within(2, call, *args)

    @pytest.mark.parametrize("n,lam,nu", [(50, 200.0, 1e-9), (50, 50.0, 1e-12), (50, 200.0, 1.5e-5)])
    def test_tail_past_the_state_cap_is_refused_naming_nu(self, n, lam, nu, monkeypatch):
        # the tail's mode, or its decay to e^-750, lies beyond 1e7 queue states (the last
        # peaks at 1e7 states, within the last block); closed-form bounds refuse it before
        # any block of the tail is summed
        summed = []
        cumsum = np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda a, *args: summed.append(len(a)) or cumsum(a, *args))
        with pytest.raises(DomainError, match="nu = "):
            within(2, erlang_a, n, lam, 1.0, nu)
        assert summed == [n]  # the weights below N only

    @pytest.mark.parametrize("args", [(10, 8.0, 1.0, 1e308), (3, 1e308, 1e-300, 1e305)])
    def test_abandonment_never_exceeds_the_wait_probability(self, args):
        # nu E[Q] / lam rounds above p_wait here (above 1 in the second case)
        p_wait, _, abandon = erlang_a(*args)
        assert abandon <= p_wait <= 1.0

    @given(
        n=st.integers(1, 3_000),
        log_rates=st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
        bad=st.sampled_from([None, "n", "lam", "mu", "nu"]),
        value=st.sampled_from([0, -1.0, math.nan, math.inf, 2.5, 10**8]),
    )
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    def test_fuzz_finite_or_refused(self, n, log_rates, bad, value):
        # every argument from its domain (rates log-uniform in [1e-6, 1e6]),
        # then at most one replaced by a value that may lie outside it
        args = dict(n=n, **{key: 10.0**e for key, e in zip(("lam", "mu", "nu"), log_rates)})
        if bad:
            args[bad] = value
        n, lam, mu, nu = args.values()
        for call, call_args in ((erlang_c, (n, lam, mu)), (erlang_a, (n, lam, mu, nu))):
            try:
                p_wait, mean_q, third = within(2, call, *call_args)
            except (ConfigError, DomainError):
                continue
            assert all(map(math.isfinite, (p_wait, mean_q, third))), (call.__name__, call_args)
            assert 0.0 <= p_wait <= 1.0 and mean_q >= 0.0 and third >= 0.0, (call.__name__, call_args)
            assert call is erlang_c or third <= 1.0, call_args


def _config(r=100.0, lam=100.0, policy=Policy.LISF, nu=0.0, rates=None):
    return SystemConfig(
        r=r, lambda_r=lam, seed=0, staffing=HalfinWhitt(1.0), policy=policy, abandon_rate=nu,
        rates=rates,
    )


class TestCostNoAband:
    def test_zero_waiting_cost_reduces_to_staffing(self):
        dist = RateDistribution.uniform(0.5, 1.5)
        cfg = _config(rates=dist)
        cost = CostSpec(c_s=2.0, c_w=0.0)
        for x in (0.3, 1.0, 2.5):
            want = 2.0 * x * math.sqrt(cfg.lambda_r / dist.mean())
            assert cost_no_aband(x, cfg, cost) == pytest.approx(want, abs=1e-12)

    def test_point_distribution_reduction(self):
        cfg = _config(rates=RateDistribution.point(1.0))
        cost = CostSpec(c_s=1.0, c_w=1.0)
        x = 1.2
        sigma = math.sqrt(2.0)
        p = prob_wait_no_aband(-x, sigma, 1.0)
        g = 1.0 / (x * math.sqrt(cfg.r))
        want = x * math.sqrt(cfg.lambda_r) + cfg.lambda_r * p * g
        assert cost_no_aband(x, cfg, cost) == pytest.approx(want, rel=1e-12)

    def test_point_distribution_unimodal_on_grid(self):
        cfg = _config(rates=RateDistribution.point(1.0))
        cost = CostSpec(c_s=1.0, c_w=1.0)
        xs = np.linspace(0.1, 5.0, 60)
        vals = np.array([cost_no_aband(float(x), cfg, cost) for x in xs])
        rising = np.flatnonzero(np.diff(vals) > 0)
        # decreasing then increasing: once the curve turns up it stays up
        assert rising.size > 0
        assert np.all(np.diff(vals)[rising[0]:] > 0)

    def test_quadrature_self_convergence_away_from_boundary(self):
        # with the drift window clear of zero the integrand is smooth and
        # two node counts agree tightly
        cfg = _config(rates=RateDistribution.uniform(0.5, 1.5))
        cost = CostSpec(c_s=1.0, c_w=1.0)
        v64 = cost_no_aband(3.5, cfg, cost, nodes=64)
        v128 = cost_no_aband(3.5, cfg, cost, nodes=128)
        assert abs(v64 - v128) <= 1e-6 * abs(v128)

    @pytest.mark.xfail(
        reason="E[1/|beta|] diverges where the drift law straddles the stability "
        "boundary, so node counts cannot agree to 1e-6 at x=1 with eps=0.5",
        strict=True,
    )
    def test_quadrature_self_convergence_at_boundary(self):
        cfg = _config(rates=RateDistribution.uniform(0.5, 1.5))
        cost = CostSpec(c_s=1.0, c_w=1.0)
        v64 = cost_no_aband(1.0, cfg, cost, nodes=64)
        v128 = cost_no_aband(1.0, cfg, cost, nodes=128)
        assert abs(v64 - v128) <= 1e-6 * abs(v128)

    def test_deterministic_repeat(self):
        cfg = _config(rates=RateDistribution.uniform(0.8, 1.2))
        cost = CostSpec(c_s=1.0, c_w=1.0)
        assert cost_no_aband(1.0, cfg, cost) == cost_no_aband(1.0, cfg, cost)

    def test_narrow_uniform_law_takes_the_quadrature(self, monkeypatch):
        # its variance once cancelled to 0.0, so the point-law branch priced it
        calls = []
        gauss_sum = staffing._gauss_sum
        monkeypatch.setattr(
            staffing, "_gauss_sum", lambda *args: calls.append(args) or gauss_sum(*args)
        )
        cost = CostSpec(c_s=1.0, c_w=1.0)
        narrow = cost_no_aband(1.0, _config(rates=RateDistribution.uniform(1.0 - 1e-8, 1.0 + 1e-8)), cost)
        assert calls
        point = cost_no_aband(1.0, _config(rates=RateDistribution.point(1.0)), cost)
        assert narrow == pytest.approx(point, rel=1e-8)


class TestCostAband:
    def test_zero_d_reduces_to_staffing(self):
        dist = RateDistribution.uniform(0.8, 1.2)
        cfg = _config(nu=1.0, rates=dist)
        cost = CostSpec(c_s=1.5, d=0.0, nu=1.0)
        assert cost_aband(2.0, cfg, cost) == pytest.approx(
            1.5 * 2.0 * math.sqrt(cfg.lambda_r / dist.mean())
        )

    def test_point_rates_match_degenerate_drift(self):
        cfg = _config(nu=2.0, rates=RateDistribution.point(1.0))
        cost = CostSpec(c_s=1.0, d=3.0, nu=2.0)
        x = 0.8
        epp = expected_positive_part(DiffusionParams(math.sqrt(2.0), -x, 1.0, 2.0))
        want = x * math.sqrt(cfg.lambda_r) + 3.0 * 2.0 * math.sqrt(cfg.r) * epp
        assert cost_aband(x, cfg, cost) == pytest.approx(want, rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, on the overflowing nodes
    def test_law_lost_in_double_precision_is_refused_by_name(self):
        # the staffing term x sqrt(lambda_r / mu_bar) overflows from x = 1.8e307
        cfg = _config(nu=1.0, rates=RateDistribution.uniform(0.8, 1.2))
        xs = np.array([1.0, 1e308, 1.7e308])
        with pytest.raises(DomainError, match=r"safety x = 1e\+308 is not finite: .*nu=1.0"):
            cost_aband(xs, cfg, CostSpec(nu=1.0))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, on the overflowing nodes
    def test_tiny_nu_and_far_safety_have_finite_costs(self):
        # both were refused: nu = 1e-300 and x = 1e300 gave NaN nodes, since the wait
        # logit was a difference of two log-densities near -5e299 (or of two infinities)
        dist = RateDistribution.uniform(0.8, 1.2)
        cfg = _config(nu=1.0, rates=dist)
        # x = 0.05 puts a third of the drift mass above zero, where E[xi+] is about beta/nu
        m, sd = -0.05 * dist.mean(), math.sqrt(dist.variance())
        x_nodes, w = np.polynomial.hermite.hermgauss(128)
        betas = m + math.sqrt(2.0) * sd * x_nodes  # the drift nodes, as cost_aband takes them
        gamma, sigma = dist.idleness_coefficient(Policy.LISF), math.sqrt(2.0 * dist.mean())
        epp = sum(wk * positive_part_aband(b, sigma, gamma, 1e-300) for wk, b in zip(w, betas))
        want = 0.05 * math.sqrt(cfg.lambda_r / dist.mean()) + 1e-300 * math.sqrt(cfg.r) * epp / math.sqrt(math.pi)
        assert cost_aband(0.05, cfg, CostSpec(nu=1e-300)) == pytest.approx(float(want), rel=1e-12)
        # far out the wait probability underflows to 0: the cost is the staffing term
        xs = np.array([1e300, 2e300])
        assert cost_aband(xs, cfg, CostSpec(nu=1.0)).tolist() == (xs * math.sqrt(cfg.lambda_r / dist.mean())).tolist()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's, building hermgauss(400)
    def test_quadrature_rule_with_nan_weights_is_refused_by_name(self):
        cfg = _config(nu=1.0, rates=_LAWS["uniform"])
        cost = CostSpec(c_s=1.0, d=5.0, nu=1.0)
        assert math.isfinite(cost_aband(1.0, cfg, cost, nodes=364))
        with pytest.raises(DomainError, match=r"^nodes = 400 is too many"):
            cost_aband(1.0, cfg, cost, nodes=400)

    def test_underflow_to_zero_passes(self):
        # far from the stability boundary the abandonment flow underflows to 0
        cfg = _config(nu=1.0, rates=RateDistribution.uniform(0.8, 1.2))
        cost = CostSpec(c_s=1.0, d=5.0, nu=1.0)
        assert cost_aband(1e3, cfg, cost) == cost.staffing_term(1e3, cfg)

    def test_linear_in_d(self):
        cfg = _config(nu=1.0, rates=RateDistribution.uniform(0.8, 1.2))
        base = CostSpec(c_s=0.0, d=1.0, nu=1.0)
        double = CostSpec(c_s=0.0, d=2.0, nu=1.0)
        assert cost_aband(1.0, cfg, double) == pytest.approx(
            2.0 * cost_aband(1.0, cfg, base), rel=1e-12
        )

    def test_simulation_ties_to_analytics_at_optimum(self):
        # point rates, r = 400: staffing cost plus d * simulated abandonment
        # flow at the analytic x* lands within 5% of the analytic cost
        import math

        import numpy as np

        from hetq.core import RealizedSystem
        from hetq.sim import AbandonMode, run, steady_estimates

        cost = CostSpec(c_s=1.0, d=5.0, nu=1.0)
        cfg = SystemConfig(
            r=400.0, lambda_r=400.0, seed=0, staffing=HalfinWhitt(1.0), abandon_rate=1.0,
            rates=RateDistribution.point(1.0),
        )
        res = optimize_staffing(lambda x: cost_aband(x, cfg, cost), (0.05, 6.0), tol=1e-4)
        n_star = math.ceil(400.0 + res.x_star * 20.0)
        cfg2 = SystemConfig(
            r=400.0, lambda_r=400.0, seed=9, staffing=n_star, abandon_rate=1.0
        )
        system = RealizedSystem(
            n_servers=n_star, mu=np.ones(n_star), mu_bar=1.0, r=400.0, lambda_r=400.0
        )
        path = run(cfg2, system, horizon=3000.0, mode=AbandonMode.PERTURBED)
        est = steady_estimates(path)
        sim_cost = cost.d * est.abandon_rate + cost.c_s * res.x_star * 20.0
        assert abs(sim_cost - res.cost_at_optimum) / res.cost_at_optimum < 0.05


_LAWS = {
    "uniform": RateDistribution.uniform(0.8, 1.2),
    "discrete": RateDistribution.discrete(((0.5, 0.3), (1.0, 0.4), (2.0, 0.3))),
    "point": RateDistribution.point(1.0),
}


class TestArrayCurve:
    """An array of safety values gives the per-point scalar costs exactly."""

    @pytest.mark.parametrize("r", [16.0, 6400.0])
    @pytest.mark.parametrize("law", sorted(_LAWS))
    @pytest.mark.parametrize("policy", [Policy.LISF, Policy.FSF])
    @pytest.mark.parametrize("cost_fn", [cost_aband, cost_no_aband])
    def test_array_equals_scalar_calls(self, cost_fn, policy, law, r):
        cfg = _config(r=r, lam=r, policy=policy, nu=1.0, rates=_LAWS[law])
        cost = CostSpec(c_s=1.3, c_w=0.7, d=2.5, c_un=0.4, nu=1.1)
        xs = np.linspace(0.05, 6.0, 64)
        scalar = [cost_fn(float(x), cfg, cost) for x in xs]
        assert all(type(v) is float for v in scalar)
        assert np.array_equal(cost_fn(xs, cfg, cost), scalar)

    def test_curve_is_one_array_call_before_the_search(self):
        cfg = _config(nu=1.0, rates=RateDistribution.uniform(0.8, 1.2))
        cost = CostSpec(c_s=1.0, d=5.0, nu=1.0)
        calls = []

        def fn(x):
            calls.append(x)
            return cost_aband(x, cfg, cost)

        res = optimize_staffing(fn, (0.05, 6.0), tol=1e-4)
        first, *search = calls
        assert isinstance(first, np.ndarray)
        assert np.array_equal(first, np.linspace(0.05, 6.0, 64))
        assert search and all(isinstance(x, np.ndarray) for x in search)
        assert np.array_equal(res.curve_cost, cost_aband(first, cfg, cost))
        want = _sequential_golden_section(lambda x: cost_aband(x, cfg, cost), 0.05, 6.0, 1e-4)
        assert (res.x_star, res.cost_at_optimum) == want

    def test_curve_needs_one_cost_per_point(self):
        with pytest.raises(TypeError, match="one cost per point"):
            optimize_staffing(lambda x: 1.0, (0.1, 5.0))

    def test_safety_values_must_be_finite_and_positive(self):
        cost = CostSpec(nu=1.0)
        for law in _LAWS.values():
            for x in (0.0, math.nan, math.inf, np.array([1.0, math.nan])):
                with pytest.raises(DomainError, match="safety coefficient"):
                    cost_aband(x, _config(nu=1.0, rates=law), cost)


# the 64 curve points of the default bracket and 25 floats off that grid, where
# the golden-section search evaluates
_PIN_X = np.concatenate([
    np.linspace(0.05, 6.0, 64),
    [0.05 + 5.95 * ((k * 0.6180339887498949) % 1.0) for k in range(1, 26)],
])
# sha256 of the float64 bytes of each cost over _PIN_X, one array call and then
# one call per float, for every law, policy and r below; taken when the normal
# tails moved from scipy.special to the numpy log-Mills kernel, which moved no
# cost by more than 4.2e-16 relative
_COST_PINS = {
    "cost_aband": "68d56b8620f1a62a6217dcb24838573727794f330ffccdb98678f3ba8d2304fb",
    "cost_no_aband": "5ce4f53e7f549f0a21816a99bfe7e145273428934bb699a1bc1e34f651dd6444",
}


class TestCostBytes:
    @pytest.mark.parametrize("cost_fn", [cost_aband, cost_no_aband])
    def test_costs_keep_their_bytes(self, cost_fn):
        cost = CostSpec(c_s=1.3, c_w=0.7, d=2.5, c_un=0.4, nu=1.1)
        digest = hashlib.sha256()
        for law in sorted(_LAWS):
            for policy in (Policy.LISF, Policy.FSF):
                for r in (16.0, 6400.0):
                    cfg = _config(r=r, lam=r, policy=policy, nu=1.0, rates=_LAWS[law])
                    curve = cost_fn(_PIN_X, cfg, cost)
                    points = [cost_fn(float(x), cfg, cost) for x in _PIN_X]
                    digest.update(np.asarray(curve, dtype=np.float64).tobytes())
                    digest.update(np.array(points, dtype=np.float64).tobytes())
        assert digest.hexdigest() == _COST_PINS[cost_fn.__name__]


def _sequential_golden_section(fn, lo, hi, tol):
    """The golden-section search with one float call per probe, as it ran
    before its probes were fetched in batches: the reference for the batched one."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - inv_phi * (hi - lo)
    x2 = lo + inv_phi * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > tol and lo < x1 < x2 < hi:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - inv_phi * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + inv_phi * (hi - lo)
            f2 = fn(x2)
    x = 0.5 * (lo + hi)
    return x, fn(x)


def _each(g):
    """A cost_fn applying the float function ``g`` to a float or to each array entry."""
    return lambda x: np.array([g(v) for v in x.tolist()]) if isinstance(x, np.ndarray) else g(x)


def _curve(fn, lo, hi):
    xs = np.linspace(lo, hi, 64)
    return list(zip(xs.tolist(), fn(xs).tolist()))


# cost shapes the parabola model predicts well, badly or not at all
_SHAPES = {
    "constant": lambda c, k: lambda x: c,
    "step": lambda c, k: lambda x: 1.0 if x > c else 0.0,
    "quadratic": lambda c, k: lambda x: k * (x - c) * (x - c),
    "kink": lambda c, k: lambda x: math.sqrt(abs(x - c)) + k * x,
    "wavy": lambda c, k: lambda x: math.sin(k * x) + 0.01 * (x - c) * (x - c),
}


class TestPrefetchedSearch:
    """The batched search gives the one-float-at-a-time search's result and refusals."""

    @given(
        shape=st.sampled_from(sorted(_SHAPES)),
        c=st.floats(0.0, 8.0),
        k=st.floats(0.1, 20.0),
        lo=st.floats(0.01, 5.0),
        width=st.sampled_from([1e-9, 1e-3, 0.5, 6.0]),
        tol=st.sampled_from([1e-17, 1e-12, 1e-6, 1e-4, 0.1, 10.0]),
    )
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    def test_same_result_as_sequential_search(self, shape, c, k, lo, width, tol):
        g = _SHAPES[shape](c, k)
        fn = _each(g)
        hi = lo + width
        got = staffing._prefetched_golden_section(fn, lo, hi, tol, _curve(fn, lo, hi))
        assert got == _sequential_golden_section(g, lo, hi, tol)

    def test_refusal_off_the_true_path_is_not_seen(self):
        g = _SHAPES["kink"](2.0, 0.1)
        path = []
        want = _sequential_golden_section(lambda x: path.append(x) or g(x), 0.1, 5.0, 1e-8)
        refused = []

        def fn(x):
            off_path = [v for v in np.atleast_1d(x).tolist() if v not in path]
            if off_path:
                refused.append(off_path[0])
                raise DomainError(f"cost refused at x = {off_path[0]!r}")
            return _each(g)(x)

        got = staffing._prefetched_golden_section(fn, 0.1, 5.0, 1e-8, _curve(_each(g), 0.1, 5.0))
        assert len(refused) == 1 and got == want  # later probes come one float at a time

    @pytest.mark.parametrize("step", [0, 1, 10, -1])
    def test_refusal_on_the_true_path_is_the_float_calls(self, step):
        g = _SHAPES["kink"](2.0, 0.1)
        path = []
        _sequential_golden_section(lambda x: path.append(x) or g(x), 0.1, 5.0, 1e-8)
        bad = path[step]

        def fn(x):
            if bad in np.atleast_1d(x).tolist():
                raise DomainError(f"cost refused at x = {bad!r} in a {type(x).__name__}")
            return _each(g)(x)

        with pytest.raises(DomainError) as want:
            _sequential_golden_section(fn, 0.1, 5.0, 1e-8)
        with pytest.raises(DomainError) as got:
            staffing._prefetched_golden_section(fn, 0.1, 5.0, 1e-8, _curve(_each(g), 0.1, 5.0))
        assert str(got.value) == str(want.value)

    def test_criterion_10_solve_makes_few_calls(self):
        calls = []

        def fn(x):
            calls.append(x)
            return cost_aband(x, _config(r=400.0, lam=400.0, nu=1.0, rates=_LAWS["uniform"]),
                              CostSpec(c_s=1.0, d=5.0, nu=1.0))

        optimize_staffing(fn, (0.05, 6.0), tol=1e-4)
        assert len(calls) <= 4


class TestOptimizer:
    def test_quadratic(self):
        res = optimize_staffing(lambda x: (x - 2.0) ** 2, (0.1, 5.0), tol=1e-6)
        assert res.x_star == pytest.approx(2.0, abs=1e-5)
        assert res.unimodal

    def test_expensive_servers_push_to_lower_end(self):
        cfg = _config(nu=1.0, rates=RateDistribution.uniform(0.8, 1.2))
        cost = CostSpec(c_s=500.0, d=0.01, nu=1.0)
        res = optimize_staffing(lambda x: cost_aband(x, cfg, cost), (0.05, 6.0), tol=1e-4)
        assert res.x_star < 0.06

    def test_curve_error_outside_hetq_is_not_a_bracket_error(self):
        # only a HetqError means the cost is undefined there; anything else is a defect
        def cost_fn(x):
            raise ZeroDivisionError("division by zero")

        with pytest.raises(ZeroDivisionError, match="division by zero"):
            optimize_staffing(cost_fn, (0.1, 5.0), tol=1e-4)

    def test_cost_at_optimum_below_curve(self):
        res = optimize_staffing(lambda x: (x - 2.0) ** 2, (0.1, 5.0), tol=1e-4)
        assert res.cost_at_optimum <= res.curve_cost.min() + 1e-12

    def test_non_unimodal_flagged(self):
        fn = lambda x: np.sin(3.0 * x) + 0.05 * x
        res = optimize_staffing(fn, (0.1, 6.0), tol=1e-6)
        assert not res.unimodal
        assert res.used_grid_fallback
        xs = np.linspace(0.1, 6.0, 2000)
        assert res.cost_at_optimum <= min(fn(float(x)) for x in xs) + 1e-4

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_curve_names_its_first_point(self, bad):
        # NaN costs were counted and an infinite one passed; both are refused at x[40]
        xs = np.linspace(0.1, 5.0, 64)
        first = rf"\(0.1, 5.0\), first at x = {float(xs[40])!r}$"
        with pytest.raises(DomainError, match=first):
            optimize_staffing(lambda x: np.where(x > xs[39], bad, x), (0.1, 5.0))

    def test_bracket_error(self):
        def bad(x):
            raise DomainError("boom")

        bracket = r"^cost evaluation failed across the bracket .*; first failure: DomainError: boom$"
        with pytest.raises(DomainError, match=bracket):
            optimize_staffing(bad, (0.1, 5.0))

    def test_golden_scenario_regression(self):
        cfg = SystemConfig(
            r=400.0, lambda_r=400.0, seed=0, staffing=HalfinWhitt(1.0),
            abandon_rate=1.0, policy=Policy.LISF, rates=RateDistribution.uniform(0.8, 1.2),
        )
        cost = CostSpec(c_s=1.0, d=5.0, nu=1.0)
        res = optimize_staffing(lambda x: cost_aband(x, cfg, cost), (0.05, 6.0), tol=1e-4)
        assert abs(res.x_star - GOLDEN_X_STAR) < 1e-3
        assert res.cost_at_optimum == pytest.approx(GOLDEN_COST, rel=1e-7)
