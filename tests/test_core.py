"""Rate distributions, staffing arithmetic, seeding, and the config format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetq.core import (
    HalfinWhitt,
    Policy,
    RateDistribution,
    RealizedSystem,
    Stream,
    SystemConfig,
    format_config,
    parse_config_text,
    rng_stream,
)
from hetq.errors import ConfigError, DomainError


class TestRateDistribution:
    def test_point_moments(self):
        d = RateDistribution.point(2.0)
        assert d.mean() == 2.0
        assert d.idleness_coefficient(Policy.LISF) == 2.0
        assert d.idleness_coefficient(Policy.FSF) == 2.0
        assert d.variance() == 0.0
        with pytest.raises(DomainError, match="no idleness coefficient is derived for RANDOM"):
            d.idleness_coefficient(Policy.RANDOM)

    def test_uniform_moments_match_eps_formula(self):
        # uniform(mu-eps, mu+eps): variance eps^2/3, gamma = mu + eps^2/(3 mu)
        mu, eps = 1.0, 0.5
        d = RateDistribution.uniform(mu - eps, mu + eps)
        assert d.variance() == pytest.approx(eps**2 / 3.0, abs=1e-15)
        gamma_lisf = d.idleness_coefficient(Policy.LISF)
        assert gamma_lisf == pytest.approx(mu + eps**2 / (3.0 * mu), abs=1e-15)
        assert d.idleness_coefficient(Policy.FSF) == mu - eps

    @pytest.mark.parametrize("half", [1e-8, 1e-6, 0.2])
    def test_uniform_variance_is_exact(self, half):
        # E[X^2] - m^2 cancelled: 0.0 at half-width 1e-8, 1.3e-4 off at 1e-6
        lo, hi = 1.0 - half, 1.0 + half
        want = (hi - lo) ** 2 / 12.0
        assert abs(RateDistribution.uniform(lo, hi).variance() - want) <= 1e-15 * want

    @pytest.mark.parametrize(
        "law",
        [
            lambda: RateDistribution.uniform(1e-300, 1e300),
            lambda: RateDistribution.discrete([(1e-300, 0.5), (1e300, 0.5)]),
            lambda: RateDistribution.point(1e200),
        ],
        ids=["uniform", "discrete", "point"],
    )
    def test_law_whose_second_moment_overflows_is_refused(self, law):
        # the discrete law's (r - m) ** 2 raised OverflowError; the others gave gamma = inf
        with pytest.raises(ConfigError, match="second moment"):
            law()

    def test_discrete_moments_by_hand(self):
        d = RateDistribution.discrete([(1.0, 0.5), (2.0, 0.5)])
        assert d.mean() == 1.5
        assert d.second_moment() == 2.5
        assert d.idleness_coefficient(Policy.LISF) == pytest.approx(5.0 / 3.0, abs=1e-15)
        assert (d.p, d.q) == (1.0, 2.0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RateDistribution.uniform(1.0, 1.0)
        with pytest.raises(ConfigError):
            RateDistribution.uniform(-1.0, 1.0)
        with pytest.raises(ConfigError):
            RateDistribution.point(0.0)
        with pytest.raises(ConfigError):
            RateDistribution.discrete([(1.0, 0.6), (2.0, 0.5)])

    @given(
        st.lists(
            st.tuples(
                st.floats(0.05, 50.0, allow_nan=False),
                st.floats(0.01, 1.0, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_gamma_lisf_dominates_mean(self, raw_atoms):
        total = sum(p for _, p in raw_atoms)
        atoms = [(r, p / total) for r, p in raw_atoms]
        d = RateDistribution.discrete(atoms)
        mean = d.mean()
        assert d.idleness_coefficient(Policy.LISF) >= mean - 1e-12
        # support brackets the mean up to the probability-sum tolerance
        assert d.p - 1e-12 * d.p <= mean <= d.q + 1e-12 * d.q
        assert d.second_moment() >= mean**2 - 1e-12


class TestSampling:
    def test_point_samples(self):
        got = RateDistribution.point(1.0).sample(3, rng_stream(5, Stream.RATES))
        np.testing.assert_array_equal(got, [1.0, 1.0, 1.0])

    def test_reproducible(self):
        d = RateDistribution.uniform(0.5, 1.5)
        a = d.sample(1000, rng_stream(42, Stream.RATES))
        b = d.sample(1000, rng_stream(42, Stream.RATES))
        np.testing.assert_array_equal(a, b)
        c = d.sample(1000, rng_stream(43, Stream.RATES))
        assert not np.array_equal(a, c)

    def test_clt_band(self):
        # empirical mean within 3*(eps/sqrt(3))/sqrt(N) of mu for uniform(0.5, 1.5)
        n = 10**5
        d = RateDistribution.uniform(0.5, 1.5)
        got = d.sample(n, rng_stream(7, Stream.RATES)).mean()
        band = 3.0 * (0.5 / math.sqrt(3.0)) / math.sqrt(n)
        assert abs(got - 1.0) < band

    def test_discrete_sampling_hits_atoms_only(self):
        d = RateDistribution.discrete([(1.0, 0.25), (2.0, 0.75)])
        got = d.sample(500, rng_stream(1, Stream.RATES))
        assert set(np.unique(got)) == {1.0, 2.0}


class TestStaffing:
    def test_halfin_whitt_formula(self):
        hw = HalfinWhitt(1.0)
        assert hw.resolve(100.0, 1.0) == 110
        assert hw.resolve(90.0, 1.0) == math.ceil(90 + math.sqrt(90))
        assert HalfinWhitt(0.0).resolve(0.3, 1.0) == 1  # floor at one server

    @given(
        st.floats(0.0, 5.0, allow_nan=False),
        st.floats(0.0, 5.0, allow_nan=False),
        st.floats(1.0, 500.0, allow_nan=False),
        st.floats(1.0, 500.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_theta_and_lambda(self, t1, t2, l1, l2):
        lo_t, hi_t = sorted((t1, t2))
        lo_l, hi_l = sorted((l1, l2))
        assert HalfinWhitt(lo_t).resolve(lo_l, 1.0) <= HalfinWhitt(hi_t).resolve(lo_l, 1.0)
        assert HalfinWhitt(lo_t).resolve(lo_l, 1.0) <= HalfinWhitt(lo_t).resolve(hi_l, 1.0)


class TestSystemConfig:
    def test_pool_validation(self):
        with pytest.raises(ConfigError):
            SystemConfig(r=100, lambda_r=90, seed=1, pools=((0.5, 1.0), (0.6, 2.0)))
        with pytest.raises(ConfigError):
            SystemConfig(r=100, lambda_r=90, seed=1, pools=((0.5, 2.0), (0.5, 1.0)))
        cfg = SystemConfig(r=100, lambda_r=90, seed=1, pools=((0.5, 1.0), (0.5, 2.0)))
        assert cfg.pool_distribution().mean() == 1.5

    def test_realize(self):
        cfg = SystemConfig(r=100.0, lambda_r=100.0, seed=3, staffing=HalfinWhitt(1.0))
        d = RateDistribution.uniform(0.5, 1.5)
        sys1 = RealizedSystem.realize(cfg, d, rng_stream(cfg.seed, 0, Stream.RATES))
        sys2 = RealizedSystem.realize(cfg, d, rng_stream(cfg.seed, 0, Stream.RATES))
        assert sys1.n_servers == 110
        np.testing.assert_array_equal(sys1.mu, sys2.mu)
        assert sys1.zeta_hat == pytest.approx((sys1.sum_mu - 110.0) / 10.0)
        assert sys1.stable == (sys1.sum_mu > 100.0)
        assert np.all(sys1.mu >= 0.5) and np.all(sys1.mu <= 1.5)

    def test_realize_pools_sizes_sum(self):
        cfg = SystemConfig(
            r=100.0, lambda_r=140.0, seed=3, staffing=97,
            pools=((1.0 / 3.0, 1.0), (2.0 / 3.0, 2.0)),
        )
        sysv = RealizedSystem.realize_pools(cfg)
        assert sum(sysv.pool_sizes) == 97
        assert sysv.n_pools == 2
        assert sysv.mu[sysv.pool_of == 1].min() == 2.0

    def test_system_without_pools_is_one_group(self):
        s = RealizedSystem(n_servers=3, mu=[1.0, 2.0, 3.0], mu_bar=2.0, r=3.0, lambda_r=2.0)
        assert s.pool_of.tolist() == [0, 0, 0] and s.pool_of.dtype == np.int64
        assert s.pool_sizes == (3,) and s.n_pools == 1


class TestConfigFormat:
    def test_roundtrip(self):
        text = """
        # a comment
        r = 100.0
        lambda_r = 90.0
        seed = 42
        policy = lisf
        rates = uniform(0.5,1.5)
        staffing = hw(1.0)
        pools = 0.5:1.0,0.5:2.0
        abandon_mode = perturbed
        record_idle = true
        r_values = 25,100,400
        """
        values = parse_config_text(text)
        assert values["policy"] is Policy.LISF
        assert values["rates"] == RateDistribution.uniform(0.5, 1.5)
        assert values["staffing"] == HalfinWhitt(1.0)
        assert values["r_values"] == (25.0, 100.0, 400.0)
        # formatting then reparsing is identity
        again = parse_config_text(format_config(values))
        assert again == values

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("bogus_key = 3")
        assert "bogus_key" in str(err.value)

    def test_point_is_the_one_atom_discrete_law(self):
        values = parse_config_text("rates = point(2.5)")
        assert values["rates"] == RateDistribution.discrete([(2.5, 1.0)])
        assert format_config(values) == "rates = point(2.5)\n"
        two = parse_config_text("rates = discrete(2.5:0.5,3.0:0.5)")
        assert format_config(two) == "rates = discrete(2.5:0.5,3.0:0.5)\n"

    def test_discrete_rates_and_int_staffing(self):
        values = parse_config_text("rates = discrete(1.0:0.5,2.0:0.5)\nstaffing = 120")
        assert values["rates"].kind == "discrete"
        assert values["staffing"] == 120
