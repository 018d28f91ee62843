"""Collapse function, hydrodynamic windows, fairness."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetq.core import Policy, RateDistribution, RealizedSystem, Stream, SystemConfig, rng_stream
from hetq.errors import ConfigError, DomainError
from hetq.sim import run
from hetq.ssc import (
    almost_lipschitz_check,
    default_bins,
    diffusion_scaled,
    eta_theory,
    fairness_estimate,
    hydro_scale,
    inverted_v_config,
    rate_bin,
    ssc_convergence,
    ssc_g,
)

POOLS = ((0.5, 1.0), (0.5, 2.0))


class TestSSCFunction:
    def test_gamma_recomputed_and_checked(self):
        law = RateDistribution.discrete([(1.0, 0.5), (2.0, 0.5)])
        assert law.idleness_coefficient(Policy.LISF) == pytest.approx(5.0 / 3.0)
        assert ssc_g(POOLS, [1.0, 0.0]) == pytest.approx(abs(1.0 - 5.0 / 3.0))
        with pytest.raises(ConfigError):
            ssc_g(((0.5, 2.0), (0.5, 1.0)), [0.0, 0.0])

    def test_values(self):
        assert ssc_g(POOLS, [0.0, 0.0]) == 0.0
        assert ssc_g(POOLS, [1.0, 1.0]) == pytest.approx(1.0 / 3.0)

    def test_single_pool_identity_collapse(self):
        law = RateDistribution.discrete([(1.7, 1.0)])
        assert law.idleness_coefficient(Policy.LISF) == pytest.approx(1.7)
        for z in ([0.0], [3.0], [-2.5]):
            assert ssc_g(((1.0, 1.7),), z) == pytest.approx(0.0, abs=1e-12)

    @given(
        st.floats(0.0, 1.0),
        st.floats(-5.0, 5.0),
        st.floats(-5.0, 5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_homogeneity_degree_one(self, alpha, z1, z2):
        z = np.array([z1, z2])
        lhs = ssc_g(POOLS, alpha * z)
        rhs = alpha * ssc_g(POOLS, z)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(st.floats(-10.0, 10.0))
    @settings(max_examples=100, deadline=None)
    def test_kernel_membership(self, t):
        # {z : sum z_i (mu_i - gamma) = 0} is where g vanishes
        g = RateDistribution.discrete([(1.0, 0.5), (2.0, 0.5)]).idleness_coefficient(Policy.LISF)
        z = t * np.array([g - 2.0, 1.0 - g])
        assert abs(sum(zi * (mi - g) for zi, (_, mi) in zip(z, POOLS))) < 1e-12
        assert ssc_g(POOLS, z) == pytest.approx(0.0, abs=1e-10)

    def test_proportional_to_beta_not_in_kernel(self):
        # the pool-fraction direction itself does not null g for unequal rates
        assert ssc_g(POOLS, np.array([b for b, _ in POOLS])) > 0.1

    def test_gamma_follows_the_policy(self):
        # FSF's gamma is the slow pool's rate 1.0, so g vanishes on the slow pool's axis
        assert ssc_g(POOLS, [1.0, 0.0], Policy.FSF) == 0.0
        assert ssc_g(POOLS, [0.0, 1.0], Policy.FSF) == 1.0
        assert ssc_g(POOLS, [1.0, 0.0], Policy.RANDOM) == ssc_g(POOLS, [1.0, 0.0])


class TestSSCConvergence:
    def test_single_pool_ratio_zero(self):
        cfgs = [
            SystemConfig(
                r=float(r), lambda_r=r - 1.5 * math.sqrt(r), seed=8,
                staffing=int(r), pools=((1.0, 1.0),),
            )
            for r in (25, 100)
        ]
        table = ssc_convergence(cfgs, horizon=10.0, n_reps=3)
        assert all(row["ratio"] == pytest.approx(0.0, abs=1e-12) for row in table.rows)

    def test_pool_mismatch_rejected(self):
        a = inverted_v_config(25, POOLS, -1.5, seed=1)
        b = inverted_v_config(100, ((0.4, 1.0), (0.6, 2.0)), -1.5, seed=1)
        with pytest.raises(ConfigError):
            ssc_convergence([a, b], horizon=5.0, n_reps=2)

    def test_policy_mismatch_rejected(self):
        a = inverted_v_config(25, POOLS, -1.5, seed=1)
        b = inverted_v_config(100, POOLS, -1.5, seed=1, policy=Policy.FSF)
        with pytest.raises(ConfigError, match="policies differ"):
            ssc_convergence([a, b], horizon=5.0, n_reps=2)

    def test_event_bound_checked_at_every_scale_before_any_run(self, monkeypatch):
        # only r = 400 passes the bound (44e7 events at r = 16, 1.18e10 at r = 400);
        # run() would have named horizon and lambda_r, after every rep at r = 16
        def spy(*args, **kwargs):
            raise AssertionError("ssc_convergence ran a path before checking every scale")

        monkeypatch.setattr("hetq.ssc.run", spy)
        cfgs = [inverted_v_config(r, POOLS, -1.0, seed=1) for r in (16, 400)]
        with pytest.raises(ConfigError, match=r"ssc_horizon 1e\+07 at r = 400 gives about"):
            ssc_convergence(cfgs, horizon=1e7, n_reps=2)

    def test_ratio_decreases_in_scale(self):
        cfgs = [inverted_v_config(r, POOLS, -3.0, seed=42) for r in (25, 100, 400)]
        table = ssc_convergence(cfgs, horizon=50.0, n_reps=30)
        med = [row["median_ratio"] for row in table.medians()]
        assert med[0] > med[1] > med[2]


class TestHydroScale:
    def _two_pool_path(self, horizon=40.0, seed=3):
        cfg = inverted_v_config(400, POOLS, -1.5, seed=seed)
        system = RealizedSystem.realize_pools(cfg)
        return cfg, run(cfg, system, horizon=horizon, grid_points=20000)

    def test_all_busy_window(self):
        # Z identically N across the window start: x_rm = |N| and Z^{r,m}(0) = 0
        cfg, path = self._two_pool_path()
        sp = hydro_scale(path, 0, 1.0)
        assert sp.x_rm == 400.0
        assert sp.initial_norm == 0.0
        np.testing.assert_allclose(sp.z[0], 0.0)

    def test_invariant_x_rm_floor(self):
        cfg, path = self._two_pool_path()
        for m in range(10):
            sp = hydro_scale(path, m, 1.0)
            assert sp.x_rm >= 400.0
            assert sp.initial_norm <= 1.0

    def test_hand_recompute(self):
        cfg, path = self._two_pool_path()
        m = 7
        n_total = path.system.n_servers
        sizes = np.bincount(path.system.pool_of, minlength=2)
        t_start = m / math.sqrt(n_total)
        j0 = int(np.searchsorted(path.grid_t, t_start, side="right") - 1)
        dev = np.max(np.abs(path.grid_Z[j0] - sizes))
        x_rm = max(dev**2, float(n_total))
        sp = hydro_scale(path, m, 1.0)
        assert sp.x_rm == pytest.approx(x_rm, abs=1e-12)
        # recompute three scaled samples straight off the recorded grid
        sel = np.flatnonzero(
            (path.grid_t >= t_start)
            & (path.grid_t <= math.sqrt(x_rm) * 1.0 / n_total + t_start)
        )
        for probe, j in enumerate(sel[:3]):
            want_q = path.grid_Q[j] / math.sqrt(x_rm)
            want_z = (path.grid_Z[j] - sizes) / math.sqrt(x_rm)
            assert sp.q[probe] == pytest.approx(want_q, abs=1e-12)
            np.testing.assert_allclose(sp.z[probe], want_z, atol=1e-12)

    def test_window_error(self):
        cfg, path = self._two_pool_path(horizon=2.0)
        with pytest.raises(DomainError, match="^path ends at .* but window m=0 needs "):
            hydro_scale(path, 0, 100.0)
        with pytest.raises(DomainError, match="^window start .* beyond the path end "):
            hydro_scale(path, 10_000, 1.0)

    @pytest.mark.parametrize("m", [1.5, 2.0, np.float64(1.0), "1", None, b"1"])
    def test_window_index_must_be_an_integer(self, m):
        # window m starts at m / sqrt(N); refused before the path is read
        message = f"window index must be an integer, got {m!r}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            hydro_scale(None, m, 1.0)

    def test_numpy_integer_window_index(self):
        cfg, path = self._two_pool_path(horizon=2.0)
        a, b = hydro_scale(path, np.int64(1), 1.0), hydro_scale(path, 1, 1.0)
        assert a.m == b.m == 1 and a.x_rm == b.x_rm and np.array_equal(a.z, b.z)


class TestAlmostLipschitz:
    def _windows(self):
        cfg = inverted_v_config(400, POOLS, -1.5, seed=3)
        system = RealizedSystem.realize_pools(cfg)
        path = run(cfg, system, horizon=40.0, grid_points=40000)
        n_windows = int(math.sqrt(400))
        return cfg, [hydro_scale(path, m, 1.0) for m in range(n_windows)]

    def test_constant_path_zero_exceedance(self):
        cfg = inverted_v_config(100, POOLS, -1.5, seed=1)
        system = RealizedSystem.realize_pools(cfg)
        quiet = SystemConfig(
            r=100.0, lambda_r=1e-9, seed=1, staffing=100, pools=POOLS
        )
        path = run(quiet, system, horizon=40.0, x0=0)
        assert np.all(path.grid_Q == 0)
        sp = hydro_scale(path, 0, 1.0)
        assert almost_lipschitz_check([sp], 1.0, 0.0) == 0.0

    def test_degenerate_bound_exceeds(self):
        cfg, windows = self._windows()
        assert almost_lipschitz_check(windows, 0.0, 0.0) > 0.0

    def test_calibrated_bound_small(self):
        cfg, windows = self._windows()
        lam_unit = cfg.lambda_r / 400.0
        frac = almost_lipschitz_check(windows, 4.0 * lam_unit, 0.1)
        assert frac < 0.05


class TestFairness:
    def test_single_bin_tautology(self):
        d = RateDistribution.uniform(0.5, 1.5)
        cfg = SystemConfig(r=50.0, lambda_r=45.0, seed=2, staffing=50, rates=d)
        s = RealizedSystem.realize(cfg, d, rng_stream(2, 0, Stream.RATES))
        path = run(cfg, s, horizon=100.0, record_servers=True)
        fe = fairness_estimate(path, np.array([0.5, 1.5]))
        assert fe.eta_hat[0] == pytest.approx(1.0)

    def test_bins_sum_to_one_and_refinement_invariant(self):
        d = RateDistribution.uniform(0.5, 1.5)
        cfg = SystemConfig(r=100.0, lambda_r=92.0, seed=4, staffing=100, rates=d)
        s = RealizedSystem.realize(cfg, d, rng_stream(4, 0, Stream.RATES))
        path = run(cfg, s, horizon=150.0, record_servers=True)
        coarse = fairness_estimate(path, default_bins(d, 5))
        fine = fairness_estimate(path, default_bins(d, 20))
        assert coarse.eta_hat.sum() == pytest.approx(1.0, abs=1e-9)
        assert fine.eta_hat.sum() == pytest.approx(1.0, abs=1e-9)
        # refining never changes the total idleness accounted for
        assert coarse.total_idle_time == pytest.approx(fine.total_idle_time)

    def test_lisf_matches_size_biased_law(self):
        d = RateDistribution.uniform(0.5, 1.5)
        cfg = SystemConfig(r=400.0, lambda_r=380.0, seed=1, staffing=400, policy=Policy.LISF, rates=d)
        s = RealizedSystem.realize(cfg, d, rng_stream(1, 0, Stream.RATES))
        edges = default_bins(d, 10)
        path = run(cfg, s.grouped(rate_bin(s.mu, edges), 10), horizon=1200.0, record_servers=True)
        fe = fairness_estimate(path, edges)
        assert np.abs(fe.eta_hat - fe.eta_theory).max() < 0.03
        # the [1.0, 1.5] half carries int_1^1.5 x dx / int_0.5^1.5 x dx = 0.625
        upper = fe.eta_hat[fe.bin_edges[:-1] >= 1.0 - 1e-9].sum()
        assert upper == pytest.approx(0.625, abs=0.03)
        assert fe.sup_discrepancy is not None

    def test_fsf_mass_on_slowest_atom(self):
        d = RateDistribution.discrete([(1.0, 0.5), (2.0, 0.5)])
        cfg = SystemConfig(r=400.0, lambda_r=530.0, seed=1, staffing=400, policy=Policy.FSF, rates=d)
        s = RealizedSystem.realize(cfg, d, rng_stream(1, 0, Stream.RATES))
        path = run(cfg, s, horizon=600.0, record_servers=True)
        fe = fairness_estimate(path, default_bins(d))
        assert fe.eta_theory[0] == 1.0
        assert fe.eta_hat[0] >= 0.95

    def test_random_idle_shares_are_size_biased(self):
        # criterion 8's LISF config under RANDOM routing, against the
        # size-biased shares of the realized rates (the finite draw of rates
        # dominates the error against the law itself)
        d = RateDistribution.uniform(0.5, 1.5)
        cfg = SystemConfig(r=400.0, lambda_r=380.0, seed=1, staffing=400, policy=Policy.RANDOM, rates=d)
        s = RealizedSystem.realize(cfg, d, rng_stream(1, 0, Stream.RATES))
        edges = default_bins(d, 10)
        fe = fairness_estimate(run(cfg, s, horizon=300.0, record_servers=True), edges)
        shares = np.bincount(rate_bin(s.mu, edges), weights=s.mu, minlength=10) / s.sum_mu
        assert np.abs(fe.eta_hat - shares).max() < 0.03

    @pytest.mark.parametrize(
        "d,want",
        [
            # mu dx over [0.5, 1.0] and [1.0, 1.5], the end bins taking what is outside
            (RateDistribution.uniform(0.5, 1.5), [0.375, 0.625]),
            (RateDistribution.discrete([(0.5, 0.5), (1.5, 0.5)]), [0.25, 0.75]),
        ],
        ids=["uniform", "discrete"],
    )
    def test_eta_theory_bins_outside_mass_like_rate_bin(self, d, want):
        # edges narrower than the support, as eta_hat's rate_bin puts rates there
        edges = np.array([0.6, 1.0, 1.4])
        for policy in (Policy.LISF, Policy.RANDOM):
            np.testing.assert_allclose(eta_theory(d, edges, policy), want, rtol=1e-15)

    def test_sup_discrepancy_equals_matmul_reference(self):
        d = RateDistribution.uniform(0.5, 1.5)
        cfg = SystemConfig(r=20.0, lambda_r=17.0, seed=6, staffing=20, policy=Policy.LISF, rates=d)
        s = RealizedSystem.realize(cfg, d, rng_stream(6, 0, Stream.RATES))
        edges = default_bins(d, 40)
        n_bins = edges.size - 1
        which = np.clip(np.searchsorted(edges, s.mu, side="right") - 1, 0, n_bins - 1)
        assert np.bincount(which, minlength=n_bins).min() == 0  # an empty bin
        path = run(cfg, s.grouped(which, n_bins), horizon=80.0, grid_points=400, record_servers=True)
        fe = fairness_estimate(path, edges)
        # reference: a float copy of the per-server idle flags, taken from the
        # same run with one group per server, times a bin-membership matrix
        per_server = run(cfg, s.grouped(np.arange(20)), horizon=80.0, grid_points=400)
        idle_grid = 1 - per_server.grid_Z
        member = np.zeros((path.system.n_servers, n_bins))
        member[np.arange(path.system.n_servers), which] = 1.0
        per_bin = idle_grid.astype(float) @ member
        idle_tot = idle_grid.sum(axis=1).astype(float)
        dev = np.abs(per_bin - fe.eta_theory[None, :] * idle_tot[:, None])
        assert fe.sup_discrepancy == float(dev.max() / math.sqrt(path.system.n_servers))
        assert fe.sup_discrepancy > 0.0
        # servers not grouped by bin carry no per-bin idle counts
        ungrouped = run(cfg, s, horizon=80.0, grid_points=400, record_servers=True)
        assert fairness_estimate(ungrouped, edges).sup_discrepancy is None

    def test_path_without_the_server_record_refused(self):
        cfg = SystemConfig(r=20.0, lambda_r=17.0, seed=6, staffing=20)
        path = run(cfg, RealizedSystem.from_config(cfg), horizon=20.0)
        with pytest.raises(ConfigError, match="record_servers"):
            fairness_estimate(path, np.array([0.5, 1.5]))

    def test_no_idleness(self):
        cfg = SystemConfig(r=3.0, lambda_r=50.0, seed=1, staffing=3)
        s = RealizedSystem(n_servers=3, mu=np.ones(3), mu_bar=1.0, r=3.0, lambda_r=50.0)
        path = run(cfg, s, horizon=5.0, record_servers=True)
        with pytest.raises(DomainError, match="^path carries no idleness$"):
            fairness_estimate(path, np.array([0.5, 1.5]))

    def test_eta_theory_fsf_point_mass(self):
        d = RateDistribution.uniform(0.5, 1.5)
        edges = default_bins(d, 10)
        eta = eta_theory(d, edges, Policy.FSF)
        assert eta[0] == 1.0 and eta[1:].sum() == 0.0
        # RANDOM shares LISF's size-biased law
        np.testing.assert_array_equal(
            eta_theory(d, edges, Policy.RANDOM), eta_theory(d, edges, Policy.LISF)
        )


class TestDiffusionScaled:
    def test_pools_centering(self):
        cfg = inverted_v_config(100, POOLS, -1.5, seed=5)
        system = RealizedSystem.realize_pools(cfg)
        path = run(cfg, system, horizon=10.0)
        t, q_hat, z_hat = diffusion_scaled(path)
        assert q_hat.min() >= 0.0
        # all busy at t = 0 means the scaled occupancy starts at zero
        np.testing.assert_allclose(z_hat[0], 0.0)
