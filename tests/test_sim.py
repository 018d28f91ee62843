"""Event-engine behavior: invariants, oracles, coupling, replication."""

import hashlib
import math
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
from hetq.staffing import erlang_c

from grid_reference import reference_grid


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
    nu = 0.0 if name in ("dense", "sparse", "flushes", "overflow", "no_arrivals") else 0.7
    lam = {"overflow": 60.0, "no_arrivals": 0.0}.get(name, 19.0)
    cfg = SystemConfig(
        r=20.0, lambda_r=lam, seed=31, staffing=20, abandon_rate=nu,
        policy=Policy.RANDOM if name.startswith("mode_") else Policy.LISF,
    )
    s = RealizedSystem.from_config(cfg, RateDistribution.uniform(0.5, 1.5))
    kwargs = dict(horizon=40.0, grid_points=500)
    if name == "dense":  # about 60 grid points per event
        kwargs.update(horizon=2.0, grid_points=5000)
    elif name == "sparse":  # about 150 events per grid point
        kwargs.update(horizon=200.0, grid_points=50)
    elif name == "flushes":
        kwargs.update(horizon=300.0, grid_points=8000)
    elif name == "overflow":
        kwargs.update(queue_cap=15, horizon=100.0, grid_points=2000)
    elif name == "x0_above_n":
        kwargs.update(x0=45, mode=AbandonMode.PER_CUSTOMER)
    elif name == "per_server":
        s = s.grouped(np.arange(s.n_servers))
        kwargs.update(mode=AbandonMode.PERTURBED, grid_points=2000)
    elif name.startswith("mode_"):
        kwargs.update(mode=AbandonMode(name[5:]))
    return cfg, s, kwargs


_GRID_CASES = [
    "dense", "sparse", "flushes", "overflow", "no_arrivals", "x0_above_n", "per_server",
    "mode_none", "mode_per_customer", "mode_perturbed",
]


class TestGridReference:
    # staged grid writes give the grid of one slice write per crossing
    @pytest.mark.parametrize("name", _GRID_CASES)
    def test_grid_matches_slice_fill(self, name, monkeypatch):
        cfg, s, kwargs = _grid_case(name)
        fills = []
        fill = hetq.sim._fill
        monkeypatch.setattr(hetq.sim, "_fill", lambda *a: fills.append(1) or fill(*a))
        path = run(cfg, s, **kwargs)
        ref = reference_grid(cfg, s, **kwargs)
        assert path.overflowed == (name == "overflow")
        assert np.array_equal(path.grid_X, ref[:, 0])
        assert np.array_equal(path.grid_Q, ref[:, 1])
        assert np.array_equal(path.grid_R, ref[:, 2])
        assert np.array_equal(path.grid_A, ref[:, 3])
        assert np.array_equal(path.grid_Z, ref[:, 4:])
        if name == "flushes":
            assert len(fills) >= 5
        if name == "no_arrivals":
            assert path.arrivals_total == 0 and ref[-1, 0] == 0


class TestDraws:
    @pytest.mark.parametrize("method", ["standard_exponential", "random"])
    def test_growing_blocks_give_one_call_values(self, method):
        draw = hetq.sim._draws(9, 4, Stream.SERVICE, method)
        got = [draw() for _ in range(20_000)]
        assert got == getattr(rng_stream(9, 4, Stream.SERVICE), method)(20_000).tolist()

    @pytest.mark.parametrize(
        "policy,mode,streams",
        [
            (Policy.LISF, AbandonMode.NONE, {Stream.ARRIVAL, Stream.SERVICE}),
            (
                Policy.FSF, AbandonMode.PER_CUSTOMER,
                {Stream.ARRIVAL, Stream.SERVICE, Stream.ABANDON},
            ),
            (
                Policy.RANDOM, AbandonMode.PERTURBED,
                {Stream.ARRIVAL, Stream.SERVICE, Stream.ABANDON, Stream.ROUTING},
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


class TestSteadyEstimates:
    def test_erlang_c_match(self):
        cfg, s = homogeneous(100, 90.0, seed=5)
        path = run(cfg, s, horizon=11_111.0)
        est = steady_estimates(path)
        pw, lq, _ = erlang_c(100, 90.0, 1.0)
        assert abs(est.p_wait - pw) < 0.02
        assert abs(est.mean_Q - lq) / lq < 0.05

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

    def test_random_policy_runs_and_spreads(self):
        cfg, s = homogeneous(25, 20.0, seed=6, policy=Policy.RANDOM)
        path = run(cfg, s, horizon=400.0, validate=True)
        idle_time = path.end_time - path.busy_time
        assert (idle_time > 0).sum() == 25  # every server idles at some point

    def test_nonpreemption(self):
        # departures only end busy periods: busy time equals sum of service draws
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
        with pytest.raises(DomainError, match="replication 0: .*queue_cap=0"):
            replicate(cfg, d, 2, horizon=10.0, x0=60, queue_cap=0)

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
# order, so manifests rerun byte for byte across engine rewrites. The run()
# digests were computed with the engine that predates the inlined event core;
# a change that alters them breaks every earlier manifest. The coupled_run
# digests were frozen again when its pick became a rejection draw, which
# reads the ROUTING stream a variable number of times (``couple`` stream
# layout 2 in hetq.cli, so older couple manifests are refused, not rerun).
# --------------------------------------------------------------------------

# "idle_grid" is rebuilt: the pins date from an engine that recorded an idle
# flag per server and grid point, 1 minus the busy counts of a run with one
# group per server
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
    ("LISF", "none"): "8a046121fa58bf3f9d0a447b07195489b476ede9d785e755c21935abcca799ad",
    ("LISF", "per_customer"): "43337843e9eee6be3b926dd95456d24a6444f56c63b8ef422ed6e17f9002416f",
    ("LISF", "perturbed"): "6e0d75e44898a916758bcf0f34fda894668a263de34cca915e8bf47128f303b6",
    ("FSF", "none"): "1b0eb57bcd57400a5a91b476c8b66fb7beb135f48b2345da5e4fe9f2c5695cbe",
    ("FSF", "per_customer"): "dc675833dc7f79d89878600599964c55fed46fbabba99c649240deeeb03eced2",
    ("FSF", "perturbed"): "15b99bf136b3a2970576299c1ce621f339e609a509e4dc7cec1399933e606a77",
    ("RANDOM", "none"): "3c8898d7e484deb26938a6c1a172766499fdb4863e5db8d5850c39284d664d05",
    ("RANDOM", "per_customer"): "f7d2442ef3ab7da0c37b78cb98bf4adfa2cc53599d56d144e853fbb6e520566f",
    ("RANDOM", "perturbed"): "1ee9dffb7054ab3990e62bbff8eb9fe0b331707a70f6afd12614d854a035f526",
}

_VARIANT_PINS = {
    "two_pools": "729daed4e21da4a61b4b0d6a7353a5aa2285443eefc0f4c74ee4f405bc43fc5b",
    "scv_half": "4609bba6f44fcb3fa22cb5623b83d1b7a217c59c214bef8649f6e4bd63a63c58",
    "scv_zero": "f7bb57a41d8c98277dfb595a6b664b91b3d9588f7916a71f4104b101d71b87d2",
    "x0_above_n": "340b4f9774384bd43dc292dcd514f99b39c58ea7650a00a699337218d88d71f7",
    "long_random": "b03cd309320092885a0428a692a0a88a5bc7c2b9e1f316b71040184a30b278cc",
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
    def test_run_policy_mode(self, policy, mode):
        path = _pinned_path(Policy[policy], AbandonMode(mode))
        assert _path_digest(path) == _RUN_PINS[(policy, mode)]

    @pytest.mark.parametrize("name", sorted(_VARIANT_PINS))
    def test_run_variant(self, name):
        assert _path_digest(_variant_path(name)) == _VARIANT_PINS[name]

    @pytest.mark.parametrize("n", sorted(_COUPLED_PINS))
    def test_coupled_run(self, n):
        assert _coupled_digest(n) == _COUPLED_PINS[n]
