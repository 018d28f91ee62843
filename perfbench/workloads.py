"""The three seeded work lists and the check on every operation's output.

Each operation is what a user does: one ``hetq`` command dispatched
in-process into a temporary directory, or one Erlang-C/A call (those have no
command). The workload seed only picks config seeds and parameter values;
the amount of work per list is fixed, so seeds differ in inputs, not size.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

WORKLOADS = ("long-path", "replications", "analytics")

# long-path: r = 1600, N = 1640 (hw(1.0)); one path per policy x abandonment cell
LONG_PATH_HORIZON = 250.0
# Statistical error of the LISF/none p_wait at LONG_PATH_HORIZON: the standard
# deviation of p_wait - erlang_c over 40 seeds (README.md). The check allows four.
P_WAIT_SD = 0.046
P_WAIT_TOL = 4.0 * P_WAIT_SD

SSC_HORIZON = 10.0
REPS_HORIZON = 20.0
FAIRNESS_HORIZON = 300.0
FAIRNESS_SUP_MAX = 0.03
COUPLE_EVENTS = {50: 40_000, 2000: 8_000}

CRITERION_10_X_STAR = 0.8497
ERLANG_N = 10_000
# Erlang-C/A at N = 1e4 against their QED limits; the gap is O(1/sqrt(N)).
QED_TOL = 1.0 / math.sqrt(ERLANG_N)


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    """One operation: a hetq command with its parsed config, or an Erlang call."""

    label: str
    command: str
    values: object
    check: Callable
    kind: str = ""  # "sim" counts simulated events, "solve" counts analytic problems


def _parse(lines: Dict[str, object]) -> dict:
    from hetq.core import parse_config_text

    return parse_config_text("".join(f"{k} = {v}\n" for k, v in lines.items()))


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _read_json(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


def _read_csv(out: Path, name: str) -> List[List[str]]:
    lines = (out / name).read_text(encoding="utf-8").strip().splitlines()
    return [line.split(",") for line in lines[1:]]


# -- checks -------------------------------------------------------------------

def simulate_events(out: Path) -> int:
    s = _read_json(out, "summary.json")
    return s["arrivals"] + s["departures"] + s["abandonments"]


def _check_long_path(p_wait_ref: Optional[float]):
    def check(out: Path, _result) -> None:
        s = _read_json(out, "summary.json")
        rows = _read_csv(out, "path.csv")
        x0, x_end = int(rows[0][1]), int(rows[-1][1])
        _require(not s["overflowed"], "queue overflowed")
        _require(
            s["arrivals"] - s["departures"] - s["abandonments"] == x_end - x0,
            "flow identity arrivals - departures - abandonments = X(T) - X(0) broken",
        )
        if p_wait_ref is not None:
            gap = abs(s["estimates"]["p_wait"] - p_wait_ref)
            _require(gap <= P_WAIT_TOL, f"p_wait off Erlang-C by {gap:.4f} > {P_WAIT_TOL}")

    return check


def _check_ssc(out: Path, _result) -> None:
    med = sorted(_read_json(out, "ssc_summary.json")["medians"], key=lambda m: m["r"])
    ratios = [m["median_ratio"] for m in med]
    _require(all(a > b for a, b in zip(ratios, ratios[1:])), f"SSC medians not decreasing in r: {ratios}")


def _check_reps(n_reps: int):
    def check(out: Path, _result) -> None:
        rows = _read_csv(out, "reps.csv")
        _require(len(rows) == n_reps, f"{len(rows)} rows in reps.csv, expected {n_reps}")
        vals = np.array([[float(v) for v in row[1:]] for row in rows])
        _require(bool(np.isfinite(vals).all()), "non-finite value in reps.csv")
        _require(bool(((vals[:, 1] >= 0.0) & (vals[:, 1] <= 1.0)).all()), "p_wait outside [0, 1]")

    return check


def _check_fairness(values: dict):
    """LISF idleness shares against the size-biased shares of the realized rates.

    Against the rate law itself the sup-error at N = 400 is dominated by the
    finite draw of rates (about 0.01-0.06 over seeds at any horizon), so the
    rates are drawn again through hetq.core exactly as the command draws them.
    """
    def check(out: Path, _result) -> None:
        from hetq.core import RealizedSystem, Stream, SystemConfig, rng_stream

        rows = np.array([[float(v) for v in row[:3]] for row in _read_csv(out, "fairness.csv")])
        edges = np.append(rows[:, 0], rows[-1, 1])
        config = SystemConfig(r=values["r"], lambda_r=values["lambda_r"], seed=values["seed"],
                              staffing=values["staffing"], policy=values["policy"])
        mu = RealizedSystem.realize(config, values["rates"], rng_stream(values["seed"], 0, Stream.RATES)).mu
        which = np.clip(np.searchsorted(edges, mu, side="right") - 1, 0, len(rows) - 1)
        shares = np.bincount(which, weights=mu, minlength=len(rows)) / mu.sum()
        sup = float(np.abs(rows[:, 2] - shares).max())
        _require(sup <= FAIRNESS_SUP_MAX, f"LISF fairness sup-error {sup:.4f} > {FAIRNESS_SUP_MAX}")

    return check


def _check_couple(out: Path, _result) -> None:
    info = _read_json(out, "couple.json")
    _require(info["ordered_everywhere"], "coupled departures not ordered")
    rows = _read_csv(out, "couple.csv")
    _require(info["skeleton_points"] == len(rows) > 0, "skeleton point count mismatch")


def _check_staff(x_star_ref: Optional[float]):
    def check(out: Path, _result) -> None:
        info = _read_json(out, "staffing.json")
        lo, hi = info["bracket"]
        x = info["x_star"]
        _require(lo <= x <= hi, f"x* {x} outside bracket {info['bracket']}")
        _require(math.isfinite(info["cost_at_optimum"]), "non-finite optimal cost")
        _require(info["cost_at_optimum"] <= min(info["curve"]["cost"]), "optimum above a sampled cost")
        if x_star_ref is not None:
            _require(abs(x - x_star_ref) <= 1e-3, f"criterion-10 x* {x:.5f} vs {x_star_ref}")

    return check


def _check_ql(out: Path, _result) -> None:
    rows = np.array([[float(v) for v in row] for row in _read_csv(out, "ql.csv")])
    lisf, fsf = rows[:, 1], rows[:, 2]
    _require(bool(np.all(np.diff(lisf) > 0.0)), "QL_lisf not increasing in eps")
    _require(bool(np.all(np.diff(fsf) < 0.0)), "QL_fsf not decreasing in eps")


def _check_analyze(out: Path, _result) -> None:
    info = _read_json(out, "analysis.json")
    _require(info["continuity_residual"] < 1e-9, f"continuity residual {info['continuity_residual']}")
    pdf = np.array(info["density_grid"]["pdf"])
    _require(bool(np.isfinite(pdf).all() and (pdf >= 0.0).all()), "density not finite and >= 0")


def _check_erlang_c(n: int, lam: float):
    def check(_out, result) -> None:
        from hetq.diffusion import halfin_whitt_delay

        theta = (n - lam) / math.sqrt(lam)
        gap = abs(result[0] - halfin_whitt_delay(theta))
        _require(gap <= QED_TOL, f"Erlang-C p_wait {result[0]} off Halfin-Whitt by {gap:.2e}")

    return check


def _check_erlang_a(n: int, lam: float, nu: float):
    def check(_out, result) -> None:
        from hetq.diffusion import prob_wait_aband

        theta = (n - lam) / math.sqrt(lam)
        gap = abs(result[0] - prob_wait_aband(-theta, math.sqrt(2.0), 1.0, nu))
        _require(gap <= QED_TOL, f"Erlang-A p_wait {result[0]} off the diffusion limit by {gap:.2e}")
        _require(0.0 < result[2] < 1.0, f"abandon probability {result[2]}")

    return check


# -- work lists ---------------------------------------------------------------

def _seeds(rng: np.random.Generator, n: int) -> List[int]:
    return [int(s) for s in rng.integers(0, 2**32, size=n)]


def long_path(rng: np.random.Generator) -> List[Op]:
    from hetq.staffing import erlang_c

    p_ref = erlang_c(1640, 1600.0, 1.0)[0]
    cells = [
        ("LISF", "none", "point(1.0)", 0.0, p_ref),
        ("FSF", "per_customer", "uniform(0.8,1.2)", 1.0, None),
        ("RANDOM", "perturbed", "uniform(0.8,1.2)", 1.0, None),
    ]
    ops = []
    for (policy, mode, rates, nu, ref), seed in zip(cells, _seeds(rng, len(cells))):
        values = _parse({
            "r": 1600.0, "lambda_r": 1600.0, "staffing": "hw(1.0)", "rates": rates,
            "policy": policy, "abandon_mode": mode, "abandon_rate": nu,
            "horizon": LONG_PATH_HORIZON, "record_idle": "false", "seed": seed,
        })
        ops.append(Op(f"simulate {policy}/{mode}", "simulate", values, _check_long_path(ref), "sim"))
    return ops


def replications(rng: np.random.Generator) -> List[Op]:
    s = _seeds(rng, 5)
    n_reps = 40
    ops = [
        Op("ssc r=25,100,400", "ssc", _parse({
            "pools": "0.5:1.0,0.5:2.0", "r_values": "25,100,400", "reps": 30,
            "ssc_horizon": SSC_HORIZON, "lambda_hat": -3.0, "seed": s[0],
        }), _check_ssc),
        Op(f"simulate --reps {n_reps} r=50", "simulate", _parse({
            "r": 50.0, "lambda_r": 50.0, "staffing": "hw(1.0)", "rates": "uniform(0.8,1.2)",
            "abandon_rate": 1.0, "abandon_mode": "perturbed", "horizon": REPS_HORIZON,
            "reps": n_reps, "seed": s[1],
        }), _check_reps(n_reps)),
    ]
    fairness = _parse({
        "r": 400.0, "lambda_r": 380.0, "staffing": 400, "rates": "uniform(0.5,1.5)",
        "policy": "LISF", "horizon": FAIRNESS_HORIZON, "record_idle": "true",
        "grid_points": 10_000, "seed": s[2],
    })
    ops.append(Op("fairness r=400", "fairness", fairness, _check_fairness(fairness)))
    for n, seed in zip(sorted(COUPLE_EVENTS), s[3:]):
        ops.append(Op(f"couple N={n}", "couple", _parse({
            "r": float(n), "lambda_r": 0.96 * n, "staffing": n, "rates": "uniform(0.8,1.2)",
            "p_rate": 0.8, "skeleton_events": COUPLE_EVENTS[n], "seed": seed,
        }), _check_couple))
    return ops


def analytics(rng: np.random.Generator) -> List[Op]:
    ops = []
    # Staffing grid: both cost models x LISF/FSF x six uniform(1 +- eps) laws x four r.
    # Brackets start five drift standard deviations above the stability
    # boundary, where the waiting-cost quadrature is well conditioned.
    for model in ("waiting", "abandon"):
        for policy in ("LISF", "FSF"):
            for eps, r in itertools.product((0.05, 0.1, 0.15, 0.2, 0.25, 0.3), (100.0, 400.0, 1600.0, 6400.0)):
                sd = eps / math.sqrt(3.0)
                lines = {
                    "cost_model": model, "policy": policy, "r": r, "lambda_r": r,
                    "rates": f"uniform({1.0 - eps!r},{1.0 + eps!r})",
                    "c_s": round(float(rng.uniform(0.5, 2.0)), 3),
                    "bracket_lo": round(max(0.05, 5.0 * sd), 3), "bracket_hi": 6.0,
                }
                if model == "abandon":
                    lines.update(abandon_rate=1.0, nu=round(float(rng.uniform(0.5, 2.0)), 3),
                                 d=round(float(rng.uniform(1.0, 10.0)), 3))
                else:
                    lines.update(c_w=round(float(rng.uniform(0.5, 2.0)), 3))
                ops.append(Op(f"staff {model} {policy} eps={eps} r={r:g}", "staff", _parse(lines),
                              _check_staff(None), "solve"))
    ops.append(Op("staff criterion 10", "staff", _parse({
        "cost_model": "abandon", "r": 400.0, "lambda_r": 400.0, "staffing": "hw(1.0)",
        "abandon_rate": 1.0, "policy": "LISF", "rates": "uniform(0.8,1.2)",
        "c_s": 1.0, "d": 5.0, "nu": 1.0,
    }), _check_staff(CRITERION_10_X_STAR), "solve"))
    ops.append(Op("ql-sweep", "ql-sweep", _parse({}), _check_ql, "solve"))
    for nu in (2.0, 0.0):
        beta = -round(float(rng.uniform(0.5, 2.0)), 3)
        ops.append(Op(f"analyze nu={nu}", "analyze", _parse({
            "beta": beta, "sigma": 4.0, "gamma": 2.0, "nu": nu,
        }), _check_analyze, "solve"))
    for _ in range(4):
        lam = float(ERLANG_N - rng.uniform(50.0, 200.0))
        ops.append(Op(f"erlang_c N=1e4 lam={lam:.3f}", "erlang_c", (ERLANG_N, lam, 1.0),
                      _check_erlang_c(ERLANG_N, lam), "solve"))
        nu = float(rng.uniform(0.5, 2.0))
        ops.append(Op(f"erlang_a N=1e4 lam={lam:.3f} nu={nu:.3f}", "erlang_a", (ERLANG_N, lam, 1.0, nu),
                      _check_erlang_a(ERLANG_N, lam, nu), "solve"))
    return ops


WORK_LISTS = {"long-path": long_path, "replications": replications, "analytics": analytics}


def work_list(workload: str, seed: int) -> List[Op]:
    return WORK_LISTS[workload](np.random.default_rng(seed))


def _no_check(_out, _result) -> None:
    pass


def warmup_list(workload: str) -> List[Op]:
    """Small versions of each command the workload uses, run once untimed.

    They fill the lazy quadrature caches and import-time state so the
    timed passes measure steady work.
    """
    if workload == "long-path":
        return [Op("warm-up simulate", "simulate", _parse({
            "r": 50.0, "lambda_r": 50.0, "horizon": 5.0, "record_idle": "false",
        }), _no_check)]
    if workload == "replications":
        return [
            Op("warm-up ssc", "ssc", _parse({"pools": "0.5:1.0,0.5:2.0", "r_values": "25",
                                            "reps": 1, "ssc_horizon": 1.0}), _no_check),
            Op("warm-up reps", "simulate", _parse({"r": 20.0, "lambda_r": 20.0, "horizon": 2.0,
                                                  "reps": 2}), _no_check),
            Op("warm-up fairness", "fairness", _parse({
                "r": 20.0, "lambda_r": 18.0, "staffing": 20, "rates": "uniform(0.5,1.5)",
                "horizon": 5.0, "grid_points": 100}), _no_check),
            Op("warm-up couple", "couple", _parse({
                "r": 20.0, "lambda_r": 19.0, "staffing": 20, "rates": "uniform(0.8,1.2)",
                "p_rate": 0.8, "skeleton_events": 100}), _no_check),
        ]
    return [
        Op("warm-up staff waiting", "staff", _parse({
            "cost_model": "waiting", "r": 100.0, "lambda_r": 100.0,
            "rates": "uniform(0.9,1.1)", "bracket_lo": 0.5}), _no_check),
        Op("warm-up staff abandon", "staff", _parse({
            "cost_model": "abandon", "r": 100.0, "lambda_r": 100.0, "abandon_rate": 1.0,
            "rates": "uniform(0.9,1.1)"}), _no_check),
        Op("warm-up ql-sweep", "ql-sweep", _parse({"eps_steps": 2}), _no_check),
    ]


def tree_digest(root: Path) -> Dict[str, str]:
    """sha256 of every file under root, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }
