"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Every criterion runs at its stated tolerance with a pinned seed; timings are
asserted against the stated budgets. Run with ``pytest tests/test_acceptance.py``;
the per-criterion PASS/FAIL lines appear in the terminal summary.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from conftest import record_criterion
from hetq.cli import main as cli_main
from hetq.core import (
    HalfinWhitt,
    Policy,
    RateDistribution,
    RealizedSystem,
    Stream,
    SystemConfig,
    rng_stream,
)
from hetq.diffusion import (
    DiffusionParams,
    expected_positive_part,
    halfin_whitt_delay,
    prob_wait_aband,
    prob_wait_no_aband,
    ql_eps,
    stationary_aband,
)
from hetq.sim import AbandonMode, coupled_run, replicate, run, steady_estimates
from hetq.ssc import default_bins, fairness_estimate, inverted_v_config, ssc_convergence
from hetq.staffing import CostSpec, cost_aband, erlang_a, erlang_c, optimize_staffing
from test_staffing import GOLDEN_X_STAR, birth_death_solve


def _batch_se(vals, k=20):
    vals = np.asarray(vals, dtype=float)
    n = vals.size // k * k
    b = vals[:n].reshape(k, -1).mean(axis=1)
    return float(b.mean()), float(b.std(ddof=1) / math.sqrt(k))


def _check(number, title, passed, detail, budget, elapsed):
    in_budget = elapsed < budget
    record_criterion(
        number, title, passed and in_budget, f"{detail}; {elapsed:.1f}s/{budget:.0f}s"
    )
    assert passed, f"criterion {number}: {detail}"
    assert in_budget, f"criterion {number}: runtime {elapsed:.1f}s over budget {budget}s"


def test_criterion_1_erlang_consistency():
    t0 = time.time()
    # simulated homogeneous M/M/100 at rho = 0.9, one million arrivals
    cfg = SystemConfig(r=100.0, lambda_r=90.0, seed=12, staffing=100)
    sysh = RealizedSystem(n_servers=100, mu=np.ones(100), mu_bar=1.0, r=100.0, lambda_r=90.0)
    horizon = 1_000_000 / 90.0
    path = run(cfg, sysh, horizon=horizon, record_customers=True)
    pw, lq, _ = erlang_c(100, 90.0, 1.0)
    keep = path.arrival_t >= 0.2 * horizon
    p_hat, p_se = _batch_se(path.waited[keep].astype(float))
    q_hat, q_se = _batch_se(path.grid_Q[path.grid_t >= 0.2 * horizon].astype(float))
    sim_ok = abs(p_hat - pw) < 3.0 * p_se and abs(q_hat - lq) < 3.0 * q_se

    # closed forms against truncated birth-death linear solves
    solver_ok = True
    for n, lam in ((2, 1.0), (113, 100.0), (200, 185.0)):
        got = erlang_c(n, lam, 1.0)[:2]
        want = birth_death_solve(n, lam, 1.0)
        solver_ok &= abs(got[0] - want[0]) < 1e-8 and abs(got[1] - want[1]) < 1e-8
    for n, lam, nu in ((2, 3.0, 1.0), (113, 130.0, 0.7), (200, 185.0, 2.0)):
        got = erlang_a(n, lam, 1.0, nu)[:2]
        want = birth_death_solve(n, lam, 1.0, nu)
        solver_ok &= abs(got[0] - want[0]) < 1e-8 and abs(got[1] - want[1]) < 1e-8

    detail = (
        f"p {p_hat:.4f} vs {pw:.4f} (3se {3*p_se:.4f}), "
        f"Q {q_hat:.3f} vs {lq:.3f} (3se {3*q_se:.3f}), solver {'ok' if solver_ok else 'BAD'}"
    )
    _check(1, "Erlang consistency", sim_ok and solver_ok, detail, 60.0, time.time() - t0)


def test_criterion_2_halfin_whitt_reduction():
    t0 = time.time()
    hw1 = halfin_whitt_delay(1.0)
    ident_ok = all(
        abs(
            prob_wait_no_aband(-th * mu, math.sqrt(2.0 * mu), mu)
            - halfin_whitt_delay(th)
        )
        < 1e-12
        for th in (0.25, 0.5, 1.0, 2.0, 4.0)
        for mu in (1.0, 2.2)
    )
    errs = []
    for r, horizon in ((100, 80_000.0), (400, 40_000.0), (1600, 16_000.0)):
        n = math.ceil(r + math.sqrt(r))
        cfg = SystemConfig(r=float(r), lambda_r=float(r), seed=29, staffing=n)
        s = RealizedSystem(n_servers=n, mu=np.ones(n), mu_bar=1.0, r=float(r), lambda_r=float(r))
        path = run(cfg, s, horizon=horizon, grid_points=2000, warmup=0.1)
        est = steady_estimates(path)
        errs.append(abs(est.p_wait - hw1))
    sim_ok = errs[0] > errs[1] > errs[2] and errs[2] < 0.02
    detail = f"identity {'ok' if ident_ok else 'BAD'}, errors {[round(e, 4) for e in errs]}"
    _check(2, "Halfin-Whitt reduction", ident_ok and sim_ok, detail, 300.0, time.time() - t0)


def test_criterion_3_diffusion_steady_state_match():
    t0 = time.time()
    dist = RateDistribution.uniform(0.8, 1.2)
    gamma_lisf = dist.idleness_coefficient(Policy.LISF)
    sigma = math.sqrt(2.0)
    cfg = SystemConfig(
        r=400.0, lambda_r=400.0, seed=10, staffing=HalfinWhitt(1.0), abandon_rate=1.0
    )
    reps = replicate(
        cfg, dist, 20, horizon=400.0, mode=AbandonMode.PERTURBED, warmup=0.25,
        grid_points=4000,
    )
    sim_pool = float(np.mean([rr.estimates.mean_scaled_queue for rr in reps]))
    ana_pool = float(
        np.mean(
            [
                expected_positive_part(
                    DiffusionParams(sigma, -rr.zeta_hat - 1.0, gamma_lisf, 1.0)
                )
                for rr in reps
            ]
        )
    )
    rel = abs(sim_pool - ana_pool) / ana_pool
    detail = f"pooled sim {sim_pool:.4f} vs analytic {ana_pool:.4f}, rel {rel:.3f}"
    _check(3, "diffusion steady-state match", rel < 0.10, detail, 600.0, time.time() - t0)


def test_criterion_4_ql_eps_trends():
    t0 = time.time()
    grid = np.arange(0.05, 0.501, 0.05)
    lisf = [ql_eps(float(e), 1.0, 4.0, 2.0, 2.0, policy=Policy.LISF) for e in grid]
    fsf = [ql_eps(float(e), 1.0, 4.0, 2.0, 2.0, policy=Policy.FSF) for e in grid]
    inc = all(b - a > 1e-8 for a, b in zip(lisf, lisf[1:]))
    dec = all(a - b > 1e-8 for a, b in zip(fsf, fsf[1:]))
    detail = f"LISF {lisf[0]:.4f}->{lisf[-1]:.4f}, FSF {fsf[0]:.4f}->{fsf[-1]:.4f}"
    _check(4, "QL(eps) trends", inc and dec, detail, 5.0, time.time() - t0)


def test_criterion_5_density_properties():
    t0 = time.time()
    from scipy import integrate

    rng = np.random.default_rng(20260810)
    ok = True
    worst = 0.0
    for _ in range(100):
        sigma = float(rng.uniform(0.5, 5.0))
        gamma = float(rng.uniform(0.2, 4.0))
        nu = float(rng.uniform(0.2, 4.0))
        beta = float(rng.uniform(-3.0, 3.0))
        params = DiffusionParams(sigma, beta, gamma, nu)
        dens = stationary_aband(params)
        mass_lo, _ = integrate.quad(dens.pdf, -np.inf, 0.0, limit=400)
        mass_hi, _ = integrate.quad(dens.pdf, 0.0, np.inf, limit=400)
        norm_err = abs(mass_lo + mass_hi - 1.0)
        cont = dens.continuity_residual()
        collapse_err = abs(
            prob_wait_aband(beta, sigma, gamma, gamma)
            - stats.norm.cdf(math.sqrt(2.0) * beta / (math.sqrt(gamma) * sigma))
        )
        quad_epp, _ = integrate.quad(lambda x: x * dens.pdf(x), 0.0, np.inf, limit=400)
        closed = expected_positive_part(params)
        epp_err = abs(closed - quad_epp) / max(abs(closed), 1e-300)
        ok &= norm_err < 1e-8 and cont < 1e-9 and collapse_err < 1e-12 and epp_err < 1e-8
        worst = max(worst, norm_err)
    detail = f"100 draws, worst normalization error {worst:.2e}"
    _check(5, "density and varrho properties", ok, detail, 10.0, time.time() - t0)


def test_criterion_6_coupling_order():
    t0 = time.time()
    dist = RateDistribution.uniform(0.8, 1.2)
    ordered = 0
    for seed in range(100):
        cfg = SystemConfig(r=50.0, lambda_r=48.0, seed=seed, staffing=50)
        s = RealizedSystem.realize(cfg, dist, rng_stream(seed, 0, Stream.RATES))
        horizon = 10_000.0 / (50.0 * float(s.mu.max()))
        cp = coupled_run(cfg, 0.8, s, horizon)
        ordered += cp.ordered_everywhere()
    detail = f"ordered in {ordered}/100 seeded runs"
    _check(6, "coupling order", ordered == 100, detail, 60.0, time.time() - t0)


def test_criterion_7_ssc_convergence():
    t0 = time.time()
    pools = ((0.5, 1.0), (0.5, 2.0))
    configs = [inverted_v_config(r, pools, lambda_hat=-3.0, seed=42) for r in (25, 100, 400)]
    table = ssc_convergence(configs, horizon=50.0, n_reps=30)
    med = {row["r"]: row["median_ratio"] for row in table.medians()}
    dec = med[25.0] > med[100.0] > med[400.0]
    halved = med[400.0] < 0.5 * med[25.0]
    detail = f"medians {med[25.0]:.3f} > {med[100.0]:.3f} > {med[400.0]:.3f}"
    _check(7, "SSC convergence", dec and halved, detail, 900.0, time.time() - t0)


def test_criterion_8_fairness():
    t0 = time.time()
    # LISF against the size-biased law over ten bins
    dist = RateDistribution.uniform(0.5, 1.5)
    cfg = SystemConfig(r=400.0, lambda_r=380.0, seed=1, staffing=400, policy=Policy.LISF)
    s = RealizedSystem.realize(cfg, dist, rng_stream(1, 0, Stream.RATES))
    path = run(cfg, s, horizon=1500.0)
    fe = fairness_estimate(path, default_bins(dist, 10), dist=dist)
    lisf_sup = float(np.abs(fe.eta_hat - fe.eta_theory).max())

    # FSF: idleness concentrates on the slowest atom
    dd = RateDistribution.discrete([(1.0, 0.5), (2.0, 0.5)])
    cfg2 = SystemConfig(r=400.0, lambda_r=530.0, seed=1, staffing=400, policy=Policy.FSF)
    s2 = RealizedSystem.realize(cfg2, dd, rng_stream(1, 0, Stream.RATES))
    path2 = run(cfg2, s2, horizon=1000.0)
    fe2 = fairness_estimate(path2, default_bins(dd), dist=dd)
    slow_mass = float(fe2.eta_hat[0])
    detail = f"LISF sup {lisf_sup:.4f} (<=0.03), FSF slow mass {slow_mass:.4f} (>=0.95)"
    _check(8, "fairness", lisf_sup <= 0.03 and slow_mass >= 0.95, detail, 300.0, time.time() - t0)


def test_criterion_9_abandonment_mode_equivalence():
    t0 = time.time()
    cfg = SystemConfig(r=100.0, lambda_r=100.0, seed=31, staffing=110, abandon_rate=1.0)
    s = RealizedSystem(n_servers=110, mu=np.ones(110), mu_bar=1.0, r=100.0, lambda_r=100.0)
    horizon = 20_000.0
    samples = {}
    for mode in (AbandonMode.PER_CUSTOMER, AbandonMode.PERTURBED):
        p = run(cfg, s, horizon=horizon, mode=mode)
        samples[mode] = p.grid_Q[p.grid_t >= 0.2 * horizon]
    ks = stats.ks_2samp(samples[AbandonMode.PER_CUSTOMER], samples[AbandonMode.PERTURBED])
    detail = f"KS distance {ks.statistic:.4f} (<0.03), matched arrival/service streams"
    _check(9, "abandonment-mode equivalence", ks.statistic < 0.03, detail, 300.0, time.time() - t0)


def test_criterion_10_optimizer_regression():
    t0 = time.time()
    cfg = SystemConfig(
        r=400.0, lambda_r=400.0, seed=0, staffing=HalfinWhitt(1.0),
        abandon_rate=1.0, policy=Policy.LISF,
    )
    dist = RateDistribution.uniform(0.8, 1.2)
    cost = CostSpec(c_s=1.0, d=5.0, nu=1.0)
    res = optimize_staffing(lambda x: cost_aband(x, cfg, dist, cost), (0.05, 6.0), tol=1e-4)
    gap = abs(res.x_star - GOLDEN_X_STAR)
    detail = f"x* {res.x_star:.5f} vs grid-oracle {GOLDEN_X_STAR} (|gap| {gap:.2e})"
    _check(10, "optimizer regression", gap < 1e-3, detail, 30.0, time.time() - t0)


def test_criterion_11_determinism(tmp_path):
    t0 = time.time()
    jobs = {
        "simulate": [
            "--set", "r=50.0", "--set", "lambda_r=45.0", "--set", "staffing=hw(1.0)",
            "--set", "rates=uniform(0.8,1.2)", "--set", "horizon=60.0",
            "--set", "grid_points=600", "--seed", "7",
        ],
        "analyze": ["--set", "beta=-1.0", "--set", "sigma=4.0", "--set", "gamma=2.0",
                    "--set", "nu=2.0"],
        "ql-sweep": ["--set", "eps_steps=4"],
        "staff": ["--set", "lambda_r=100.0", "--set", "r=100.0",
                  "--set", "rates=point(1.0)", "--set", "nu=1.0", "--set", "d=2.0",
                  "--set", "cost_model=abandon", "--set", "bracket_lo=0.2",
                  "--set", "bracket_hi=3.0"],
        "couple": ["--set", "lambda_r=28.0", "--set", "r=30.0", "--set", "staffing=30",
                   "--set", "rates=uniform(0.8,1.2)", "--set", "p_rate=0.8",
                   "--set", "skeleton_events=800", "--seed", "3"],
        "fairness": ["--set", "lambda_r=45.0", "--set", "r=50.0", "--set", "staffing=50",
                     "--set", "rates=uniform(0.5,1.5)", "--set", "horizon=50.0",
                     "--set", "grid_points=400"],
        "ssc": ["--set", "pools=0.5:1.0,0.5:2.0", "--set", "r_values=25,100",
                "--set", "reps=2", "--set", "ssc_horizon=5.0"],
    }
    all_ok = True
    for cmd, extra in jobs.items():
        out1 = tmp_path / f"{cmd}-1"
        out2 = tmp_path / f"{cmd}-2"
        assert cli_main([cmd, "--out", str(out1), *extra]) == 0
        assert cli_main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        for name in m1["artifacts"]:
            same = (out1 / name).read_bytes() == (out2 / name).read_bytes()
            all_ok &= same
        all_ok &= (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
    detail = f"{len(jobs)} commands rerun from manifests, byte-identical artifacts"
    _check(11, "determinism", all_ok, detail, 120.0, time.time() - t0)
