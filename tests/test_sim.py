"""Event-engine behavior: invariants, oracles, coupling, replication."""

import hashlib
import math
import time
import tracemalloc

import numpy as np
import pytest
from scipy import stats

import hetq.sim
from hetq.core import (
    HalfinWhitt,
    Policy,
    RateDistribution,
    RealizedSystem,
    Stream,
    SystemConfig,
    rng_stream,
)
from hetq.errors import ConfigError, DomainError, EmptyWindowError
from hetq.sim import (
    AbandonMode,
    coupled_run,
    path_summary,
    path_to_csv,
    replicate,
    run,
    steady_estimates,
)
from hetq.staffing import erlang_a, erlang_c

from ctmc_oracle import ctmc_solve
from grid_reference import reference_grid
from test_acceptance import _batch_se


def homogeneous(n, lam, r=None, seed=0, nu=0.0, policy=Policy.LISF):
    cfg = SystemConfig(
        r=float(r if r is not None else n), lambda_r=lam, seed=seed,
        staffing=n, abandon_rate=nu, policy=policy,
    )
    sys_ = RealizedSystem(
        n_servers=n, mu=np.ones(n), mu_bar=1.0, r=cfg.r, lambda_r=lam
    )
    return cfg, sys_


class TestRunBasics:
    def test_no_arrivals_drains(self):
        cfg, s = homogeneous(10, 0.0)
        path = run(cfg, s, horizon=200.0, validate=True, record_customers=True)
        assert path.arrivals_total == 0
        assert path.abandon_total == 0
        assert path.grid_X[-1] == 0
        assert path.departures_total == 10
        # the empty per-customer record keeps its dtypes
        assert path.arrival_t.dtype == np.float64 and path.waits.dtype == np.float64
        assert path.waited.dtype == np.bool_ and path.abandoned.dtype == np.bool_
        assert path.arrival_t.size == path.waits.size == path.waited.size == 0

    def test_constant_path_estimates(self):
        cfg, s = homogeneous(5, 0.0)
        path = run(cfg, s, horizon=1.0, x0=0, warmup=0.0)
        est = steady_estimates(path)
        assert est.p_wait == 0.0
        assert est.mean_Q == 0.0
        assert est.abandon_rate == 0.0

    def test_mm1_delay_probability(self):
        cfg, s = homogeneous(1, 0.5, seed=11)
        path = run(cfg, s, horizon=150_000.0, x0=0, warmup=0.1)
        est = steady_estimates(path)
        se = math.sqrt(0.5 * 0.5 / est.n_arrivals) * 3.0  # wide: arrivals correlate
        assert abs(est.p_wait - 0.5) < max(3 * se, 0.01)

    def test_grid_invariants(self):
        cfg, s = homogeneous(20, 18.0, seed=3)
        path = run(cfg, s, horizon=300.0, validate=True)
        np.testing.assert_array_equal(path.grid_Q, np.maximum(path.grid_X - 20, 0))
        np.testing.assert_array_equal(
            path.grid_Z[:, 0], np.minimum(path.grid_X, 20)
        )
        # per-server busy flags, from the same run with one group per
        # server, sum to the busy count at sample times
        per_server = run(cfg, s.grouped(np.arange(20)), horizon=300.0, validate=True)
        assert per_server.grid_Z.shape == (path.grid_t.size, 20)
        assert set(np.unique(per_server.grid_Z)) <= {0, 1}
        np.testing.assert_array_equal(per_server.grid_Z.sum(axis=1), path.grid_Z[:, 0])

    def test_flow_conservation_totals(self):
        cfg, s = homogeneous(20, 15.0, seed=9, nu=0.5)
        path = run(cfg, s, horizon=400.0, mode=AbandonMode.PER_CUSTOMER, validate=True)
        x_final = int(path.grid_X[-1])
        assert x_final == 20 + path.arrivals_total - path.departures_total - path.abandon_total

    def test_busy_time_bounded_by_horizon(self):
        cfg, s = homogeneous(7, 6.0, seed=2)
        path = run(cfg, s, horizon=100.0)
        assert np.all(path.busy_time <= 100.0 + 1e-9)
        assert np.all(path.busy_time >= 0.0)

    def test_determinism_bytes(self):
        cfg, s = homogeneous(12, 11.0, seed=77, nu=1.0)
        a = run(cfg, s, horizon=80.0, mode=AbandonMode.PERTURBED)
        b = run(cfg, s, horizon=80.0, mode=AbandonMode.PERTURBED)
        assert path_to_csv(a) == path_to_csv(b)
        assert path_summary(a) == path_summary(b)

    def test_overflow_guard(self):
        cfg, s = homogeneous(2, 50.0, seed=1)
        path = run(cfg, s, horizon=1000.0, queue_cap=100)
        assert path.overflowed
        assert path.end_time < 1000.0

    def test_mode_requires_rate(self):
        cfg, s = homogeneous(2, 1.0, seed=1, nu=0.0)
        with pytest.raises(ConfigError):
            run(cfg, s, horizon=10.0, mode=AbandonMode.PERTURBED)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, -1.0])
    def test_horizon_must_be_finite_and_positive(self, horizon):
        cfg, s = homogeneous(3, 2.0, seed=1)
        with pytest.raises(ConfigError, match="horizon"):
            run(cfg, s, horizon=horizon)
        with pytest.raises(ConfigError, match="horizon"):
            coupled_run(cfg, 1.0, s, horizon)

    def test_scv_out_of_range(self):
        cfg = SystemConfig(r=2.0, lambda_r=1.0, seed=1, staffing=2, arrival_scv=2.5)
        s = RealizedSystem(n_servers=2, mu=np.ones(2), mu_bar=1.0, r=2.0, lambda_r=1.0)
        with pytest.raises(ConfigError):
            run(cfg, s, horizon=10.0)

    def test_deterministic_arrivals_scv_zero(self):
        cfg = SystemConfig(r=4.0, lambda_r=2.0, seed=1, staffing=4, arrival_scv=0.0)
        s = RealizedSystem(n_servers=4, mu=np.ones(4), mu_bar=1.0, r=4.0, lambda_r=2.0)
        path = run(cfg, s, horizon=100.0, x0=0, validate=True, record_customers=True)
        gaps = np.diff(path.arrival_t)
        np.testing.assert_allclose(gaps, 0.5, rtol=1e-12)


class TestWindowCounters:
    # the window counters give the per-customer record's statistics bit for
    # bit, over [warmup * end_time, end_time] also when the run overflows
    @pytest.mark.parametrize("mode", list(AbandonMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("variant", ["plain", "x0_above_n", "scv_zero", "overflow"])
    def test_counters_match_record(self, mode, variant):
        nu = 0.0 if mode is AbandonMode.NONE else 0.8
        cfg = SystemConfig(
            r=20.0, lambda_r=60.0 if variant == "overflow" else 19.0, seed=17, staffing=20,
            abandon_rate=nu, arrival_scv=0.0 if variant == "scv_zero" else 1.0,
        )
        s = RealizedSystem.from_config(cfg, RateDistribution.uniform(0.5, 1.5))
        kwargs = dict(
            horizon=300.0, mode=mode, warmup=0.3, grid_points=3000,
            x0=35 if variant == "x0_above_n" else None,
            queue_cap=25 if variant == "overflow" else 1_000_000,
        )
        counted = run(cfg, s, **kwargs)
        recorded = run(cfg, s, record_customers=True, **kwargs)
        assert counted.overflowed == recorded.overflowed == (variant == "overflow")
        a = steady_estimates(counted)
        b = steady_estimates(recorded)
        assert (a.p_wait, a.n_arrivals) == (b.p_wait, b.n_arrivals)
        assert counted.arrivals_total == recorded.arrivals_total == recorded.arrival_t.size
        assert counted.end_time == recorded.end_time
        assert 0 < a.n_arrivals
        assert counted.waited is None
        # oracle: the record over the window, which starts at 90 unless the run overflowed
        window = recorded.arrival_t >= 0.3 * recorded.end_time
        assert a.n_arrivals == int(window.sum())
        assert a.p_wait == float(recorded.waited[window].mean())

    @pytest.mark.parametrize("warmup", [math.nan, math.inf, -0.1, 1.0])
    def test_warmup_checked_at_entry(self, warmup):
        cfg, s = homogeneous(3, 2.0, seed=1)
        with pytest.raises(ConfigError, match="warmup"):
            run(cfg, s, horizon=10.0, warmup=warmup)


def _grid_case(name):
    """(config, system, run kwargs) of one reference-grid case."""
    nu = 0.0 if name in ("dense", "sparse", "flushes", "sparse_flushes", "overflow",
                         "no_arrivals", "on_grid") else 0.7
    lam = {"overflow": 60.0, "no_arrivals": 0.0, "on_grid": 16.0}.get(name, 19.0)
    cfg = SystemConfig(
        r=20.0, lambda_r=lam, seed=31, staffing=20, abandon_rate=nu,
        arrival_scv=0.0 if name == "on_grid" else 1.0,
        policy=Policy.RANDOM if name.startswith("mode_") else Policy.LISF,
    )
    s = RealizedSystem.from_config(cfg, RateDistribution.uniform(0.5, 1.5))
    kwargs = dict(horizon=40.0, grid_points=500)
    if name == "dense":  # about 60 grid points per event
        kwargs.update(horizon=2.0, grid_points=5000)
    elif name == "sparse":  # about 150 events per grid point
        kwargs.update(horizon=200.0, grid_points=50)
    elif name == "flushes":  # about 1.5 events per grid point: the dense recorder
        kwargs.update(horizon=300.0, grid_points=8000)
    elif name == "sparse_flushes":  # about 7.8 events per grid point: the sparse one
        kwargs.update(horizon=1000.0, grid_points=5000)
    elif name == "overflow":
        kwargs.update(queue_cap=15, horizon=100.0, grid_points=2000)
    elif name == "on_grid":  # arrivals every 1/16 land exactly on grid times k/16
        kwargs.update(grid_points=641)
    elif name == "x0_above_n":
        kwargs.update(x0=45, mode=AbandonMode.PER_CUSTOMER)
    elif name == "per_server":
        s = s.grouped(np.arange(s.n_servers))
        kwargs.update(mode=AbandonMode.PERTURBED, grid_points=2000)
    elif name.startswith("mode_"):
        kwargs.update(mode=AbandonMode(name[5:]))
    return cfg, s, kwargs


_GRID_CASES = [
    "dense", "sparse", "flushes", "sparse_flushes", "overflow", "no_arrivals", "on_grid",
    "x0_above_n", "per_server", "mode_none", "mode_per_customer", "mode_perturbed",
]


def _count_flushes(monkeypatch):
    """Count the calls of each recorder's flush: ``_fill`` (sparse), ``_tally`` (dense)."""
    calls = {"_fill": 0, "_tally": 0}
    for name in calls:
        flush = getattr(hetq.sim, name)

        def counted(*args, name=name, flush=flush):
            calls[name] += 1
            return flush(*args)

        monkeypatch.setattr(hetq.sim, name, counted)
    return calls


class TestGridReference:
    # both recorders, staged rows and tallied event logs, give the grid of one
    # slice write per crossing
    @pytest.mark.parametrize("name", _GRID_CASES)
    def test_grid_matches_slice_fill(self, name, monkeypatch, recorders):
        cfg, s, kwargs = _grid_case(name)
        ref = reference_grid(cfg, s, **kwargs)
        calls = _count_flushes(monkeypatch)
        for recorder in recorders():
            calls.update(_fill=0, _tally=0)
            path = run(cfg, s, **kwargs)
            assert path.overflowed == (name == "overflow"), recorder
            assert np.array_equal(path.grid_X, ref[:, 0]), recorder
            assert np.array_equal(path.grid_Q, ref[:, 1]), recorder
            assert np.array_equal(path.grid_R, ref[:, 2]), recorder
            assert np.array_equal(path.grid_A, ref[:, 3]), recorder
            assert np.array_equal(path.grid_Z, ref[:, 4:]), recorder
            if name.endswith("flushes"):  # several flushes, so their joins are tested
                assert calls["_fill" if recorder == "sparse" else "_tally"] >= 5, recorder
        if name == "no_arrivals":
            assert path.arrivals_total == 0 and ref[-1, 0] == 0

    @pytest.mark.parametrize(
        "name,recorder",
        [("dense", "_tally"), ("flushes", "_tally"), ("sparse", "_fill"),
         ("sparse_flushes", "_fill")],
    )
    def test_density_rule_picks_the_recorder(self, name, recorder, monkeypatch):
        # fewer than _DENSE expected events per grid point log event times
        cfg, s, kwargs = _grid_case(name)
        calls = _count_flushes(monkeypatch)
        run(cfg, s, **kwargs)
        assert calls[recorder] >= 1 and sum(calls.values()) == calls[recorder]


# TestSkeleton's alias-table weights that are not all equal
_PICK_WEIGHTS = {
    "three": [0.5, 1.0, 2.0],
    "spread": [3.0, 1e-9, 1.0, 1.0, 0.25],
    "n1640": np.random.default_rng(3).uniform(0.5, 1.5, 1640).tolist(),
}


def _scalar_pick(weights, uniforms):
    """The alias pick of each uniform, one Python-float expression at a time."""
    cut, alias = (a.tolist() for a in hetq.sim._alias_table(weights))
    n = len(weights)
    picks = []
    for U in uniforms:
        u = U * n
        i = int(u)
        picks.append(i if u - i < cut[i] else alias[i])
    return picks


class TestDraws:
    @pytest.mark.parametrize("method", ["standard_exponential", "random"])
    def test_growing_blocks_give_one_call_values(self, method):
        draw = hetq.sim._draws(9, 4, Stream.SERVICE, method)
        got = [draw() for _ in range(20_000)]
        assert got == getattr(rng_stream(9, 4, Stream.SERVICE), method)(20_000).tolist()

    @pytest.mark.parametrize(
        "policy,mode,streams",
        [
            (Policy.LISF, AbandonMode.NONE, {Stream.ARRIVAL, Stream.SKELETON, Stream.SERVICE}),
            (
                Policy.FSF, AbandonMode.PER_CUSTOMER,
                {Stream.ARRIVAL, Stream.SKELETON, Stream.SERVICE, Stream.ABANDON},
            ),
            (
                Policy.RANDOM, AbandonMode.PERTURBED,
                {
                    Stream.ARRIVAL, Stream.SKELETON, Stream.SERVICE, Stream.ABANDON,
                    Stream.ROUTING,
                },
            ),
        ],
        ids=lambda v: getattr(v, "value", None),
    )
    def test_streams_built_on_first_draw(self, policy, mode, streams, monkeypatch):
        built = []

        def counting(seed, *key):
            built.append(key[-1])
            return rng_stream(seed, *key)

        monkeypatch.setattr(hetq.sim, "rng_stream", counting)
        nu = 0.0 if mode is AbandonMode.NONE else 0.5
        cfg, s = homogeneous(10, 9.5, seed=4, nu=nu, policy=policy)
        run(cfg, s, horizon=50.0, mode=mode)
        assert len(built) == len(streams) and set(built) == streams

    # each stream run() reads through a block transform gives, bit for bit,
    # the scalar expression the event loop used to evaluate per draw
    @pytest.mark.parametrize("name", sorted(_PICK_WEIGHTS))
    def test_alias_pick_equals_scalar_pick(self, name):
        weights = _PICK_WEIGHTS[name]
        draw = hetq.sim._draws(9, 4, Stream.SERVICE, "random", hetq.sim._alias_pick(weights))
        got = [draw() for _ in range(20_000)]
        uniforms = rng_stream(9, 4, Stream.SERVICE).random(20_000).tolist()
        assert got == _scalar_pick(weights, uniforms)
        assert all(type(k) is int for k in got)

    @pytest.mark.parametrize("n", [3, 1640])
    def test_alias_pick_at_the_ends_of_the_unit_interval(self, n):
        # in round-to-nearest (1 - 2^-53) * n stays below n for every n
        # below 2e5, and the guard column n would catch it if it did not
        weights = np.random.default_rng(n).uniform(0.5, 1.5, n).tolist()
        ends = [0.0, 1.0 - 2.0**-53]
        got = hetq.sim._alias_pick(weights)(np.array(ends)).tolist()
        assert got == _scalar_pick(weights, ends)
        assert (1.0 - 2.0**-53) * n < n

    @pytest.mark.parametrize("scv", [0.0, 0.5, 1.0])
    def test_interarrival_gaps_equal_scalar_gaps(self, scv):
        lam = 37.0
        det, m_e = 0.0, 1.0 / lam
        if scv == 0.0:
            det, m_e = 1.0 / lam, 0.0
        elif scv < 1.0:
            root = math.sqrt(scv)
            det, m_e = (1.0 - root) / lam, root / lam
        transform = hetq.sim._interarrival(lam, scv)
        draw = hetq.sim._draws(9, 4, Stream.ARRIVAL, "standard_exponential", transform)
        got = [draw() for _ in range(20_000)]
        exps = rng_stream(9, 4, Stream.ARRIVAL).standard_exponential(20_000).tolist()
        assert got == [det + m_e * e for e in exps]

    @pytest.mark.parametrize("rate", [0.7, 1640.0 * 1.0137])
    def test_scaled_exponentials_equal_scalar_quotients(self, rate):
        # patience e / nu, and skeleton gaps e / sum_mu; at these rates
        # e * (1 / rate) differs from e / rate in over 10 % of the draws
        draw = hetq.sim._draws(9, 4, Stream.ABANDON, "standard_exponential", hetq.sim._over(rate))
        got = [draw() for _ in range(20_000)]
        exps = rng_stream(9, 4, Stream.ABANDON).standard_exponential(20_000).tolist()
        assert got == [e / rate for e in exps]


class TestSkeleton:
    @pytest.mark.parametrize(
        "weights",
        [[1.0] * 7, [0.5, 1.0, 2.0], [3.0, 1e-9, 1.0, 1.0, 0.25],
         np.random.default_rng(3).uniform(0.5, 1.5, 1640).tolist()],
        ids=["equal", "three", "spread", "n1640"],
    )
    def test_alias_table_gives_the_weights(self, weights):
        # column i is kept with probability cut[i] and gives alias[i]
        # otherwise, so each of the n columns adds cut[i] / n to i and
        # (1 - cut[i]) / n to alias[i]
        n = len(weights)
        cut, alias = hetq.sim._alias_table(weights)
        got = np.zeros(n)
        for i in range(n):
            got[i] += cut[i] / n
            got[alias[i]] += (1.0 - cut[i]) / n
        np.testing.assert_allclose(got, np.asarray(weights) / sum(weights), rtol=0, atol=1e-12)

    def test_discards_match_idle_capacity(self):
        # criterion 2's shape: the skeleton names an idle server at rate
        # sum over idle k of mu_k, so the discards are a Poisson count whose
        # compensator is sum_k mu_k (end_time - busy_time_k); per departure
        # they are about the idle share (N - lambda) / lambda = 0.025
        r, n = 1600, 1640
        cfg = SystemConfig(r=float(r), lambda_r=float(r), seed=29, staffing=n)
        s = RealizedSystem(n_servers=n, mu=np.ones(n), mu_bar=1.0, r=float(r), lambda_r=float(r))
        path = run(cfg, s, horizon=200.0, grid_points=2000)
        compensator = float(np.dot(s.mu, path.end_time - path.busy_time))
        assert abs(path.discarded_points - compensator) < 4.0 * math.sqrt(compensator)
        assert path.discarded_points / path.departures_total == pytest.approx(0.025, rel=0.3)

    def test_drained_run_ends_at_once(self):
        # with no server busy the skeleton is off, so an empty system with a
        # huge horizon makes no more loop passes
        cfg = SystemConfig(r=50.0, lambda_r=0.0, seed=8, staffing=50)
        s = RealizedSystem.realize(
            cfg, RateDistribution.uniform(0.5, 1.5), rng_stream(8, 0, Stream.RATES)
        )
        t0 = time.perf_counter()
        path = run(cfg, s, horizon=1e12, x0=50, validate=True)
        assert time.perf_counter() - t0 < 1.0
        assert path.departures_total == 50 and path.grid_X[-1] == 0
        assert path.end_time == 1e12 and np.all(path.busy_time < 100.0)


_ORACLE_MU = (0.5, 1.0, 2.0)


class TestExactOracle:
    # per-server utilisation and p_wait of a three-server system against the
    # exact stationary law of tests/ctmc_oracle.py, one case per policy and
    # abandonment mode; each of 16 independent replications is one batch
    @pytest.mark.parametrize("mode", list(AbandonMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
    def test_utilisation_and_p_wait(self, policy, mode):
        nu = 0.0 if mode is AbandonMode.NONE else 0.7
        seed = 100 + 3 * list(Policy).index(policy) + list(AbandonMode).index(mode)
        cfg = SystemConfig(r=3.0, lambda_r=2.8, seed=seed, staffing=3, abandon_rate=nu,
                           policy=policy)
        s = RealizedSystem(n_servers=3, mu=np.array(_ORACLE_MU), mu_bar=3.5 / 3, r=3.0,
                           lambda_r=2.8)
        util, p_wait = ctmc_solve(_ORACLE_MU, 2.8, policy, nu)
        reps = []
        for rep in range(16):
            path = run(cfg, s, horizon=10_000.0, mode=mode, rep=rep, grid_points=2)
            reps.append([*(path.busy_time / path.end_time), steady_estimates(path).p_wait])
        reps = np.asarray(reps)
        se = reps.std(axis=0, ddof=1) / 4.0
        np.testing.assert_array_less(np.abs(reps.mean(axis=0) - [*util, p_wait]), 4.0 * se)

    @pytest.mark.parametrize("policy", list(Policy), ids=lambda p: p.value)
    @pytest.mark.parametrize("nu", [0.0, 0.7])
    def test_oracle_reduces_to_erlang(self, policy, nu):
        # equal rates: every policy gives the M/M/3(+M) birth-death chain,
        # and the busy servers carry the throughput lambda (1 - P(abandon))
        util, p_wait = ctmc_solve((1.2, 1.2, 1.2), 2.8, policy, nu)
        want, _, abandon = erlang_a(3, 2.8, 1.2, nu) if nu else (*erlang_c(3, 2.8, 1.2)[:2], 0.0)
        assert p_wait == pytest.approx(want, abs=1e-9)
        assert 1.2 * util.sum() == pytest.approx(2.8 * (1.0 - abandon), abs=1e-9)


class TestSteadyEstimates:
    def test_erlang_c_match(self):
        # the window's mean queue has a relative SD of about 6-8 % across
        # seeds at this length, so it is held to 3 batch-means SE (as in
        # criterion 1), not to a fixed relative bound; 0.02 is about 3 SD
        # of p_wait
        cfg, s = homogeneous(100, 90.0, seed=5)
        path = run(cfg, s, horizon=11_111.0)
        est = steady_estimates(path)
        pw, lq, _ = erlang_c(100, 90.0, 1.0)
        assert abs(est.p_wait - pw) < 0.02
        q_hat, q_se = _batch_se(path.grid_Q[path.grid_t >= est.window[0]])
        assert q_hat == pytest.approx(est.mean_Q)
        assert abs(q_hat - lq) < 3.0 * q_se

    def test_wait_tail_exponential(self):
        # conditional wait, given waiting, is Exp(H - lambda) for realized H
        d = RateDistribution.uniform(0.7, 1.3)
        cfg = SystemConfig(r=100.0, lambda_r=92.0, seed=21, staffing=100)
        s = RealizedSystem.realize(cfg, d, rng_stream(21, 0, Stream.RATES))
        path = run(cfg, s, horizon=4000.0, record_customers=True)
        keep = (
            (path.arrival_t > 400.0)
            & path.waited
            & ~path.abandoned
            & ~np.isnan(path.waits)
        )
        w = path.waits[keep]
        assert w.size > 1e5
        ks = stats.kstest(w, "expon", args=(0.0, 1.0 / (s.sum_mu - 92.0)))
        assert ks.statistic < 0.02

    def test_abandon_rate_identity(self):
        cfg, s = homogeneous(10, 12.0, seed=13, nu=1.0)
        path = run(cfg, s, horizon=500.0, mode=AbandonMode.PER_CUSTOMER, warmup=0.25)
        est = steady_estimates(path)
        mask = (path.grid_t >= est.window[0]) & (path.grid_t <= est.window[1])
        r_w = path.grid_R[mask]
        span = path.grid_t[mask][-1] - path.grid_t[mask][0]
        assert est.abandon_rate * span == pytest.approx(float(r_w[-1] - r_w[0]))

    def test_empty_window(self):
        # an overflow stop between grid samples leaves the window empty
        cfg, s = homogeneous(2, 2000.0, seed=1)
        path = run(cfg, s, horizon=1000.0, queue_cap=3, warmup=0.5)
        assert path.overflowed
        with pytest.raises(EmptyWindowError):
            steady_estimates(path)


class TestPolicies:
    def test_lisf_selection_rule_enforced(self):
        d = RateDistribution.uniform(0.5, 1.5)
        cfg = SystemConfig(r=30.0, lambda_r=25.0, seed=4, staffing=30, policy=Policy.LISF)
        s = RealizedSystem.realize(cfg, d, rng_stream(4, 0, Stream.RATES))
        run(cfg, s, horizon=200.0, validate=True)  # asserts the rule per event

    def test_fsf_prefers_fast_servers(self):
        d = RateDistribution.discrete([(1.0, 0.5), (2.0, 0.5)])
        cfg = SystemConfig(r=40.0, lambda_r=40.0, seed=4, staffing=40, policy=Policy.FSF)
        s = RealizedSystem.realize(cfg, d, rng_stream(4, 0, Stream.RATES))
        path = run(cfg, s, horizon=400.0, validate=True)
        idle_time = path.end_time - path.busy_time
        slow = idle_time[s.mu == 1.0].sum()
        fast = idle_time[s.mu == 2.0].sum()
        assert slow > 3.0 * fast

    def test_fsf_hands_out_equal_rates_lowest_index_first(self):
        # FSF's idle heap holds int ranks in (-mu, k) order; among idle
        # servers of equal rate it must take the lowest index first, as the
        # (-mu, k) tuple heap of grid_reference.py does. With one group per
        # server the grid shows which servers are busy at each sample.
        d = RateDistribution.discrete([(1.0, 0.5), (2.0, 0.5)])
        cfg = SystemConfig(r=20.0, lambda_r=14.0, seed=5, staffing=20, policy=Policy.FSF)
        s = RealizedSystem.realize(cfg, d, rng_stream(5, 0, Stream.RATES))
        s = s.grouped(np.arange(s.n_servers))
        kwargs = dict(horizon=100.0, x0=0, grid_points=5000)
        path = run(cfg, s, validate=True, **kwargs)
        ref = reference_grid(cfg, s, **kwargs)
        # at most samples at least two idle servers share each rate
        idle = 1 - path.grid_Z
        ties = (idle[:, s.mu == 1.0].sum(axis=1) >= 2) & (idle[:, s.mu == 2.0].sum(axis=1) >= 2)
        assert ties.mean() > 0.5
        assert np.array_equal(path.grid_Z, ref[:, 4:])

    def test_random_policy_runs_and_spreads(self):
        cfg, s = homogeneous(25, 20.0, seed=6, policy=Policy.RANDOM)
        path = run(cfg, s, horizon=400.0, validate=True)
        idle_time = path.end_time - path.busy_time
        assert (idle_time > 0).sum() == 25  # every server idles at some point

    def test_nonpreemption(self):
        # departures only end busy periods; validate checks the flow identities
        cfg, s = homogeneous(3, 2.5, seed=8)
        path = run(cfg, s, horizon=60.0, validate=True)
        assert path.departures_total > 0


class TestAbandonment:
    def test_modes_agree_in_distribution(self):
        cfg, s = homogeneous(110, 100.0, r=100.0, seed=31, nu=1.0)
        qs = {}
        for mode in (AbandonMode.PER_CUSTOMER, AbandonMode.PERTURBED):
            p = run(cfg, s, horizon=8000.0, mode=mode)
            m = p.grid_t >= 0.2 * 8000.0
            qs[mode] = p.grid_Q[m]
        ks = stats.ks_2samp(qs[AbandonMode.PER_CUSTOMER], qs[AbandonMode.PERTURBED])
        assert ks.statistic < 0.03

    def test_abandon_flow_conservation(self):
        cfg, s = homogeneous(5, 10.0, seed=3, nu=2.0)
        for mode in (AbandonMode.PER_CUSTOMER, AbandonMode.PERTURBED):
            path = run(cfg, s, horizon=200.0, mode=mode, validate=True)
            assert path.abandon_total > 0
            assert int(path.grid_R[-1]) == path.abandon_total


class TestCoupledRun:
    def test_identical_rates_identical_departures(self):
        cfg = SystemConfig(r=50.0, lambda_r=35.0, seed=3, staffing=50)
        s = RealizedSystem(n_servers=50, mu=np.full(50, 0.8), mu_bar=0.8, r=50.0, lambda_r=35.0)
        cp = coupled_run(cfg, 0.8, s, 100.0)
        np.testing.assert_array_equal(cp.d_hom, cp.d_het)

    def test_ordering_uniform_rates(self):
        d = RateDistribution.uniform(0.8, 1.2)
        for seed in range(10):
            cfg = SystemConfig(r=50.0, lambda_r=48.0, seed=seed, staffing=50)
            s = RealizedSystem.realize(cfg, d, rng_stream(seed, 0, Stream.RATES))
            cp = coupled_run(cfg, 0.8, s, 120.0)
            assert cp.ordered_everywhere()

    def test_ordering_with_abandonment(self):
        d = RateDistribution.uniform(0.8, 1.2)
        cfg = SystemConfig(r=50.0, lambda_r=55.0, seed=9, staffing=50, abandon_rate=0.5)
        s = RealizedSystem.realize(cfg, d, rng_stream(9, 0, Stream.RATES))
        cp = coupled_run(cfg, 0.8, s, 300.0)
        assert cp.ordered_everywhere()

    def test_empty_system(self):
        d = RateDistribution.uniform(0.8, 1.2)
        cfg = SystemConfig(r=50.0, lambda_r=0.0, seed=3, staffing=50)
        s = RealizedSystem.realize(cfg, d, rng_stream(3, 0, Stream.RATES))
        cp = coupled_run(cfg, 0.8, s, 400.0)
        assert cp.ordered_everywhere()
        # both drain the initial N customers and then nothing moves
        assert cp.d_het[-1] == 50 and cp.d_hom[-1] == 50

    def test_p_rate_above_minimum_rejected(self):
        d = RateDistribution.uniform(0.8, 1.2)
        cfg = SystemConfig(r=50.0, lambda_r=40.0, seed=3, staffing=50)
        s = RealizedSystem.realize(cfg, d, rng_stream(3, 0, Stream.RATES))
        with pytest.raises(ConfigError):
            coupled_run(cfg, 1.1, s, 50.0)

    def test_pick_law_rate_proportional(self):
        # saturated: arrivals at ten times the service capacity keep the queue
        # nonempty at this seed, so every point frees one of the same N busy
        # servers and the per-server counts are multinomial in mu_k / sum(mu)
        n = 10
        cfg = SystemConfig(r=float(n), lambda_r=10.0 * n, seed=17, staffing=n)
        s = RealizedSystem.realize(
            cfg, RateDistribution.uniform(0.5, 1.5), rng_stream(17, 0, Stream.RATES)
        )
        cp = coupled_run(cfg, 0.5, s, 110_000 / float(s.mu.sum()), q_rate=1.5)
        picks = int(cp.departures.sum())
        assert picks >= 100_000 and picks == cp.d_het[-1]
        assert stats.chisquare(cp.departures, picks * s.mu / s.mu.sum()).pvalue > 1e-3
        # a uniform pick would be far out: the rates span a factor of three
        assert stats.chisquare(cp.departures, np.full(n, picks / n)).pvalue < 1e-12

    @pytest.mark.parametrize("p_rate", [0.0, -1.0, math.nan, math.inf])
    def test_p_rate_must_be_finite_and_positive(self, p_rate):
        cfg, s = homogeneous(10, 8.0)
        with pytest.raises(ConfigError, match="p_rate"):
            coupled_run(cfg, p_rate, s, 50.0)


class TestMemory:
    # the typed per-customer record costs about 19 bytes per arrival; Python
    # lists of per-customer objects (pointer plus object each) exceed the bound
    @pytest.mark.parametrize(
        "policy,mode",
        [
            (Policy.LISF, AbandonMode.NONE),
            (Policy.FSF, AbandonMode.PER_CUSTOMER),
            (Policy.RANDOM, AbandonMode.PERTURBED),
        ],
        ids=lambda v: v.value,
    )
    def test_peak_bytes_per_arrival(self, policy, mode):
        nu = 0.0 if mode is AbandonMode.NONE else 0.5
        cfg = SystemConfig(
            r=100.0, lambda_r=100.0, seed=5, staffing=HalfinWhitt(0.5),
            abandon_rate=nu, policy=policy,
        )
        s = RealizedSystem.from_config(cfg, RateDistribution.uniform(0.5, 1.5))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            path = run(cfg, s, horizon=1000.0, mode=mode, grid_points=100, record_customers=True)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert path.arrivals_total > 90_000
        assert peak / path.arrivals_total <= 40.0

    def test_counting_run_peak_independent_of_horizon(self):
        # without the per-customer record nothing is kept per arrival: four
        # times the horizon (about 400k arrivals) leaves the peak where it
        # was. Per-customer patience is the mode that still keeps ids, of
        # waiting customers only; one mode keeps the test's time down, since
        # tracing slows the run about tenfold.
        mode = AbandonMode.PER_CUSTOMER
        cfg = SystemConfig(
            r=100.0, lambda_r=100.0, seed=5, staffing=HalfinWhitt(0.5),
            abandon_rate=0.5, policy=Policy.FSF,
        )
        s = RealizedSystem.from_config(cfg, RateDistribution.uniform(0.5, 1.5))
        peaks = []
        for horizon in (1000.0, 4000.0):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                path = run(cfg, s, horizon=horizon, mode=mode, grid_points=100)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert path.arrivals_total > 350_000
        assert peaks[1] < 2 * 2**20
        assert peaks[1] <= 1.05 * peaks[0]

    def test_overflow_replay_peak_independent_of_queue_cap(self):
        # an overflowed run is replayed once with counters, not with the
        # per-customer record: four times the queue cap (about four times
        # the arrivals) leaves the peak where it was, and the window counts
        # equal those of the record over [warmup * end_time, end_time]. One
        # server at load 100 keeps the events down to about one per arrival,
        # and 9k arrivals already fill the largest draw block.
        cfg, s = homogeneous(1, 100.0, seed=3)
        peaks = []
        for cap in (9_000, 36_000):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                path = run(cfg, s, horizon=1e6, queue_cap=cap, grid_points=100, warmup=0.3)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]
        assert path.overflowed and path.waited is None
        recorded = run(cfg, s, horizon=1e6, queue_cap=36_000, grid_points=100, warmup=0.3,
                       record_customers=True)
        assert recorded.end_time == path.end_time and recorded.arrivals_total > 36_000
        window = recorded.arrival_t >= 0.3 * recorded.end_time
        assert path.window_arrivals == int(window.sum())
        assert path.window_waited == int(recorded.waited[window].sum())

    def test_grid_peak_independent_of_horizon(self):
        # staged grid rows are written every few thousand values, and the
        # busy counts are returned without a copy, so the peak is about one
        # grid whatever the number of crossings
        cfg, s = homogeneous(400, 390.0, seed=8)
        per_server = s.grouped(np.arange(400))
        grid_bytes = 10_000 * (4 + 400) * 8
        peaks = []
        for horizon in (2.0, 200.0):
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                path = run(cfg, per_server, horizon=horizon, grid_points=10_000)
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
            finally:
                tracemalloc.stop()
            del path
        assert max(peaks) <= 1.3 * grid_bytes
        assert peaks[1] <= 1.05 * peaks[0]

    def test_default_run_peak_bounded(self):
        # the default 10k-point grid holds busy counts per group, not a
        # (grid, N) matrix of per-server flags (20 MB at N=2000)
        cfg, s = homogeneous(2000, 1900.0, seed=5)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(cfg, s, horizon=1.0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20


class TestReplicate:
    def test_single_rep_matches_direct_run(self):
        cfg = SystemConfig(r=25.0, lambda_r=25.0, seed=15, staffing=HalfinWhitt(1.0))
        d = RateDistribution.uniform(0.8, 1.2)
        reps = replicate(cfg, d, 1, horizon=200.0, warmup=0.2)
        s = RealizedSystem.realize(cfg, d, rng_stream(15, 0, Stream.RATES))
        path = run(cfg, s, horizon=200.0)
        est = steady_estimates(path)
        assert reps[0].zeta_hat == pytest.approx(s.zeta_hat)
        assert reps[0].estimates.p_wait == est.p_wait
        assert reps[0].estimates.mean_Q == est.mean_Q

    def test_x0_and_queue_cap_reach_each_run(self):
        cfg = SystemConfig(r=10.0, lambda_r=9.0, seed=3, staffing=HalfinWhitt(1.0))
        d = RateDistribution.uniform(0.8, 1.2)
        reps = replicate(cfg, d, 2, horizon=10.0, x0=60, queue_cap=100)
        for rr in reps:
            s = RealizedSystem.from_config(cfg, d, rr.rep)
            path = run(cfg, s, horizon=10.0, x0=60, queue_cap=100, rep=rr.rep)
            assert not path.overflowed
            assert rr.estimates.mean_Q == steady_estimates(path).mean_Q
        default = replicate(cfg, d, 2, horizon=10.0)
        assert [rr.estimates.mean_Q for rr in default] != [rr.estimates.mean_Q for rr in reps]
        # x0 = N + queue_cap = 12 + 48 starts with the queue at its cap
        with pytest.raises(DomainError, match="replication 0: .*queue_cap=48"):
            replicate(cfg, d, 2, horizon=10.0, x0=60, queue_cap=48)

    def test_point_distribution_zero_zeta(self):
        cfg = SystemConfig(r=16.0, lambda_r=16.0, seed=5, staffing=HalfinWhitt(1.0))
        d = RateDistribution.point(1.0)
        reps = replicate(cfg, d, 20, horizon=30.0, warmup=0.1)
        assert all(rr.zeta_hat == 0.0 for rr in reps)

    def test_zeta_clt(self):
        # realized zeta_hat across replications is approximately N(0, eps^2/3)
        cfg = SystemConfig(r=400.0, lambda_r=400.0, seed=77, staffing=HalfinWhitt(1.0))
        d = RateDistribution.uniform(0.5, 1.5)
        zh = np.array([
            RealizedSystem.realize(cfg, d, rng_stream(77, rep, Stream.RATES)).zeta_hat
            for rep in range(2000)
        ])
        ks = stats.kstest(zh, "norm", args=(0.0, math.sqrt(d.variance())))
        assert ks.statistic < 0.05

    def test_process_fanout_matches_sequential(self, monkeypatch):
        cfg = SystemConfig(r=16.0, lambda_r=14.0, seed=5, staffing=HalfinWhitt(1.0))
        d = RateDistribution.uniform(0.8, 1.2)
        seq = replicate(cfg, d, 4, horizon=40.0)
        monkeypatch.setenv("HETQ_THREADS", "2")
        par = replicate(cfg, d, 4, horizon=40.0)
        assert [rr.rep for rr in par] == [0, 1, 2, 3]
        for a, b in zip(seq, par):
            assert a.zeta_hat == b.zeta_hat
            assert a.estimates.mean_Q == b.estimates.mean_Q


class TestExports:
    def test_csv_header_and_zero_arrivals(self):
        cfg, s = homogeneous(4, 0.0)
        path = run(cfg, s, horizon=10.0)
        text = path_to_csv(path)
        header = text.splitlines()[0]
        assert header == "t,X,Q,Z_1,R,A"
        a_col = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]]
        assert set(a_col) == {"0"}

    @pytest.mark.parametrize("pools", [None, ((0.5, 1.0), (0.5, 2.0))])
    def test_csv_matches_per_row_formatting(self, pools):
        cfg = SystemConfig(r=20.0, lambda_r=20.0, seed=3, staffing=20, pools=pools)
        s = RealizedSystem.from_config(cfg, RateDistribution.uniform(0.8, 1.2))
        path = run(cfg, s, horizon=30.0, grid_points=3000)
        # reference: one formatted line per grid row, cell by cell
        lines = [path_to_csv(path).splitlines()[0]]
        for j in range(path.grid_t.size):
            z = ",".join(str(int(path.grid_Z[j, i])) for i in range(path.system.n_pools))
            lines.append(
                f"{float(path.grid_t[j])!r},{int(path.grid_X[j])},{int(path.grid_Q[j])},"
                f"{z},{int(path.grid_R[j])},{int(path.grid_A[j])}"
            )
        assert path_to_csv(path) == "\n".join(lines) + "\n"

    def test_csv_pools_columns(self):
        cfg = SystemConfig(
            r=20.0, lambda_r=20.0, seed=1, staffing=20,
            pools=((0.5, 1.0), (0.5, 2.0)),
        )
        s = RealizedSystem.realize_pools(cfg)
        path = run(cfg, s, horizon=20.0)
        header = path_to_csv(path).splitlines()[0]
        assert header == "t,X,Q,Z_1,Z_2,R,A"
        # per-pool busy counts sum to X ^ N at every sample time
        np.testing.assert_array_equal(
            path.grid_Z.sum(axis=1), np.minimum(path.grid_X, 20)
        )


# --------------------------------------------------------------------------
# Stream pinning: the engine must consume every random stream in a fixed
# order, so manifests rerun byte for byte across engine rewrites; a change
# that alters a digest breaks every earlier manifest. The run() digests were
# frozen again when departures moved from one SERVICE exponential per
# customer to the rate-sum-mu skeleton (SKELETON exponentials, SERVICE
# uniforms), and the coupled_run digests when its pick became a rejection
# draw, which reads the ROUTING stream a variable number of times. Both are
# stream layout 2 in hetq.cli, so older manifests are refused, not rerun.
# --------------------------------------------------------------------------

# "idle_grid" is rebuilt, which keeps the digest layout of an engine that
# recorded an idle flag per server and grid point: 1 minus the busy counts
# of a run with one group per server
_PATH_FIELDS = (
    "grid_t", "grid_X", "grid_Q", "grid_Z", "grid_R", "grid_A", "idle_grid",
    "arrival_t", "waits", "waited", "abandoned", "departures", "busy_time",
)


def _digest(arrays, scalars) -> str:
    h = hashlib.sha256()
    for name, a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{name}:{a.dtype.str}:{a.shape}".encode())
        h.update(a.tobytes())
    h.update(repr(scalars).encode())
    return h.hexdigest()


def _path_digest(paths) -> str:
    path, per_server = paths
    idle_grid = (1 - per_server.grid_Z).astype(np.uint8)
    arrays = [
        (name, idle_grid if name == "idle_grid" else getattr(path, name))
        for name in _PATH_FIELDS
    ]
    return _digest(arrays, (path.end_time, path.abandon_total, path.overflowed))


def _pinned_path(policy, mode, *, pools=None, scv=1.0, x0=None, horizon=60.0):
    """The pinned run, and the same run with one server group per server."""
    nu = 0.0 if mode is AbandonMode.NONE else 0.6
    cfg = SystemConfig(
        r=30.0, lambda_r=30.0, seed=2024, staffing=HalfinWhitt(0.3),
        arrival_scv=scv, abandon_rate=nu, policy=policy, pools=pools,
    )
    s = RealizedSystem.from_config(cfg, RateDistribution.uniform(0.5, 1.5), rep=3)
    return tuple(
        run(
            cfg, system, horizon=horizon, mode=mode, x0=x0, grid_points=301,
            rep=3, validate=True, record_customers=True,
        )
        for system in (s, s.grouped(np.arange(s.n_servers)))
    )


_RUN_PINS = {
    ("LISF", "none"): "88d591b616350ce7891a2504afdf6968e2a83a32877dee349eef8be013cf3f97",
    ("LISF", "per_customer"): "4f9db86b913ddd517ec8a169b6ae6b7fccf4a469fc1a1d7947afbc38e357e57c",
    ("LISF", "perturbed"): "283993a355e2bf0a330c7246e0030df293719380e51018939ebc9a3e6f119eb1",
    ("FSF", "none"): "9bf5b3acaf162896dbaee54a140b3e2da0c3d61fd7a46e13f08f0f302bbebf0c",
    ("FSF", "per_customer"): "957314d1b692a0f8596d230a2dba28e16155d26c970aaa4f65ced75cba0903ae",
    ("FSF", "perturbed"): "5f049f8a13b504cc2345a45b616ecbbd4c6c16f36a1608204897a45c87a8ad4a",
    ("RANDOM", "none"): "9b401dca962baebf9ab1a260f15f2e63b79b4e2da831b2d06b7fba189b053c8c",
    ("RANDOM", "per_customer"): "c2ba32bfe3b194e529ffd83ed8a197a1a9c7270e17c6ec15bb793c071b246864",
    ("RANDOM", "perturbed"): "f4f94311f52517564137c3e0a0062b27457ba8654c8ed52729b9eb61db12991f",
}

_VARIANT_PINS = {
    "two_pools": "f20c7670941ef70ba45bc9cee207869b86772a8e0da2150d80afc5ddf3e2b173",
    "scv_half": "06bccf753bdc2e59592100cb2725c46f634235bd8bfb3403a4e969ad9738e4ba",
    "scv_zero": "332098c75bf19d9de1a71dcf18cc19e7ea5dd074188eb5bee8d861a3e836d223",
    "x0_above_n": "426d71672ef45d27eafff7306865e02863270bc3c1f1d129104b5b6b536b8425",
    "long_random": "fca3abd7051e82a49b14d98b828d3d87f3659a66a04e9ba77136be0e7920741d",
}

_COUPLED_PINS = {
    50: "e37f04ef5e120b688ba4b36cc0e8813d8152845955c7dcd096597d34123975dd",
    200: "285b3d6797e0e34914655bbb3103008a720e557a9dad2fe7ca05c0302bbf6fab",
}


def _variant_path(name):
    if name == "two_pools":
        return _pinned_path(
            Policy.FSF, AbandonMode.PER_CUSTOMER, pools=((0.6, 0.8), (0.4, 1.4))
        )
    if name == "scv_half":
        return _pinned_path(Policy.LISF, AbandonMode.PERTURBED, scv=0.5)
    if name == "scv_zero":
        return _pinned_path(Policy.RANDOM, AbandonMode.NONE, scv=0.0)
    if name == "long_random":  # crosses draw-block boundaries on every stream
        return _pinned_path(Policy.RANDOM, AbandonMode.PER_CUSTOMER, horizon=700.0)
    return _pinned_path(Policy.LISF, AbandonMode.PER_CUSTOMER, x0=70)


def _coupled_digest(n):
    nu = 0.0 if n == 50 else 0.5
    lam = 0.95 * n if n == 50 else 1.02 * n
    cfg = SystemConfig(r=float(n), lambda_r=lam, seed=41, staffing=n, abandon_rate=nu)
    s = RealizedSystem.realize(
        cfg, RateDistribution.uniform(0.8, 1.2), rng_stream(41, 1, Stream.RATES)
    )
    cp = coupled_run(cfg, 0.8, s, 40.0, rep=1, q_rate=1.2)
    return _digest(
        [("t", cp.skeleton_t), ("hom", cp.d_hom), ("het", cp.d_het)], (cp.n_servers,)
    )


class TestStreamPinning:
    @pytest.mark.parametrize("policy,mode", sorted(_RUN_PINS), ids=lambda v: v)
    def test_run_policy_mode(self, policy, mode, recorders):
        for recorder in recorders():
            path = _pinned_path(Policy[policy], AbandonMode(mode))
            assert _path_digest(path) == _RUN_PINS[(policy, mode)], recorder

    @pytest.mark.parametrize("name", sorted(_VARIANT_PINS))
    def test_run_variant(self, name, recorders):
        for recorder in recorders():
            assert _path_digest(_variant_path(name)) == _VARIANT_PINS[name], recorder

    @pytest.mark.parametrize("n", sorted(_COUPLED_PINS))
    def test_coupled_run(self, n):
        assert _coupled_digest(n) == _COUPLED_PINS[n]
