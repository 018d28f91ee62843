"""The configuration surface: every key's declared domain, its defaults and its docs."""

import math
from pathlib import Path

import numpy as np
import pytest

from hetq.cli import _DEFAULTS
from hetq.core import (
    CONFIG_KEYS,
    RateDistribution,
    RealizedSystem,
    SystemConfig,
    format_config,
    parse_config_text,
)
from hetq.diffusion import DiffusionParams
from hetq.errors import ConfigError
from hetq.sim import coupled_run, replicate, run
from hetq.ssc import inverted_v_config, ssc_convergence, ssc_g
from hetq.staffing import CostSpec, optimize_staffing

README = Path(__file__).resolve().parents[1] / "README.md"

# key -> (values just outside its domain, a value of the wrong type)
_OUTSIDE = {
    "r": (["0.0", "-1.0"], "abc"),
    "lambda_r": (["-5e-324"], "abc"),
    "seed": (["-1"], "1.5"),
    "arrival_scv": (["-5e-324"], "abc"),
    "staffing": (["0", "hw(-5e-324)"], "1.5"),
    "abandon_rate": (["-5e-324"], "abc"),
    "policy": (["LISFF"], "1"),
    "rates": (["uniform(1.0,1.0)", "point(0.0)", "discrete(1.0:0.5,2.0:0.6)"], "1.0"),
    "pools": (["0.5:1.0,0.5:1.0", "0.5:1.0,0.6:2.0", "0.0:1.0,1.0:2.0"], "1.0"),
    "horizon": (["0.0"], "abc"),
    "warmup": (["1.0", "-5e-324"], "abc"),
    "abandon_mode": (["perturb"], "1"),
    "x0": (["-1"], "1.5"),
    "grid_points": (["1", "1000001"], "1.5"),
    "queue_cap": (["-1", "10000001"], "1.5"),
    "record_idle": (["2"], "maybe"),
    "reps": (["0"], "1.5"),
    "c_s": (["-5e-324"], "abc"),
    "c_w": (["-5e-324"], "abc"),
    "d": (["-5e-324"], "abc"),
    "c_un": (["-5e-324"], "abc"),
    "cost_model": (["wait"], "1"),
    "bracket_lo": (["0.0"], "abc"),
    "bracket_hi": (["0.0"], "abc"),
    "opt_tol": (["0.0"], "abc"),
    "beta": ([], "abc"),
    "sigma": (["-5e-324"], "abc"),
    "gamma": (["0.0"], "abc"),
    "nu": (["-5e-324"], "abc"),
    "theta": ([], "abc"),
    "mu_bar": (["0.0"], "abc"),
    "density_points": (["1", "1000001"], "1.5"),
    "density_span": (["0.0"], "abc"),
    "eps_min": (["0.0"], "abc"),
    "eps_max": (["0.0"], "abc"),
    "eps_steps": (["0", "10001"], "1.5"),
    "r_values": (["25,0.5"], "a,b"),
    "ssc_horizon": (["0.0"], "abc"),
    "lambda_hat": (["0.0"], "abc"),
    "bins": (["0"], "1.5"),
    "p_rate": (["0.0"], "abc"),
    "skeleton_events": (["0", "1000001"], "1.5"),
}


def test_every_key_refuses_values_outside_its_domain():
    assert set(_OUTSIDE) == set(CONFIG_KEYS)
    for key, (outside, wrong_type) in _OUTSIDE.items():
        _, domain = CONFIG_KEYS[key]
        for text in ["nan", "inf", "-inf", *outside, wrong_type]:
            with pytest.raises(ConfigError) as err:
                parse_config_text(f"{key} = {text}")
            assert str(err.value).startswith(f"{key} must be {domain.text}, got {text}"), text


def test_defaults_lie_in_their_domains_and_round_trip():
    for command, defaults in _DEFAULTS.items():
        for key, value in defaults.items():
            assert CONFIG_KEYS[key][1].holds(value), (command, key)
        assert parse_config_text(format_config(defaults)) == defaults, command


def test_readme_key_list_gives_each_domain():
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows[cells[0].strip("`")] = cells[1]
    for key, (_, domain) in CONFIG_KEYS.items():
        assert rows.get(key) == domain.text, key


_SYSTEM = {"r": 2.0, "lambda_r": 1.0, "seed": 1, "staffing": 2}
_POOLS = ((0.5, 1.0), (0.5, 2.0))


def _two_servers():
    return RealizedSystem(n_servers=2, mu=np.ones(2), mu_bar=1.0, r=2.0, lambda_r=1.0)


# library entry point -> (call with one argument replaced by the keyword it
# checks as, the keys it checks); no call gets as far as a simulation
_ENTRY_POINTS = {
    "SystemConfig": (
        lambda **kw: SystemConfig(**{**_SYSTEM, **kw}),
        ("r", "lambda_r", "seed", "arrival_scv", "staffing", "abandon_rate", "pools"),
    ),
    "run": (
        lambda **kw: run(SystemConfig(**_SYSTEM), _two_servers(), **{"horizon": 1.0, **kw}),
        ("horizon", "warmup", "grid_points", "queue_cap"),
    ),
    "coupled_run": (
        lambda p_rate=1.0, horizon=1.0: coupled_run(
            SystemConfig(**_SYSTEM), p_rate, _two_servers(), horizon
        ),
        ("p_rate", "horizon"),
    ),
    "replicate": (
        lambda reps: replicate(SystemConfig(**_SYSTEM), RateDistribution.point(1.0), reps, 1.0),
        ("reps",),
    ),
    "ssc_convergence": (
        lambda reps: ssc_convergence(
            [inverted_v_config(25.0, _POOLS, -1.0, seed=0)], 1.0, n_reps=reps
        ),
        ("reps",),
    ),
    "DiffusionParams": (
        lambda **kw: DiffusionParams(**{"sigma": 1.0, "beta": -1.0, "gamma": 1.0, **kw}),
        ("sigma", "beta", "gamma", "nu"),
    ),
    "CostSpec": (lambda **kw: CostSpec(**kw), ("c_s", "c_w", "d", "c_un", "nu")),
    "optimize_staffing": (
        lambda bracket_lo=0.05, opt_tol=1e-4: optimize_staffing(
            lambda x: x, (bracket_lo, 6.0), tol=opt_tol
        ),
        ("bracket_lo", "opt_tol"),
    ),
    "inverted_v_config": (
        lambda lambda_hat=-1.0, r_values=(25.0,): inverted_v_config(
            r_values[0], _POOLS, lambda_hat, seed=0
        ),
        ("lambda_hat", "r_values"),
    ),
    "ssc_g": (lambda pools: ssc_g(pools, (0.0, 0.0)), ("pools",)),
}

# key -> values just outside its domain; NaN is added for every scalar key
_JUST_OUTSIDE = {
    "r": [0.0, math.inf],
    "lambda_r": [-5e-324, math.inf],
    "seed": [-1],
    "arrival_scv": [-5e-324],
    "staffing": [0, 2.5],
    "abandon_rate": [-5e-324],
    "pools": [((0.5, 1.0), (0.5, math.nan)), ((0.0, 1.0), (1.0, 2.0)), ((0.5, 2.0), (0.5, 1.0))],
    "horizon": [0.0, math.inf],
    "warmup": [1.0, -5e-324],
    "grid_points": [1, 1_000_001],
    "queue_cap": [-1, 10_000_001],
    "p_rate": [0.0, math.inf],
    "reps": [0],
    "sigma": [-5e-324, math.inf],
    "beta": [math.inf, -math.inf],
    "gamma": [0.0],
    "nu": [-5e-324],
    "c_s": [-5e-324],
    "c_w": [-5e-324],
    "d": [-5e-324, math.inf],
    "c_un": [-5e-324],
    "bracket_lo": [0.0, math.inf],
    "opt_tol": [0.0],
    "lambda_hat": [0.0, -math.inf],
    "r_values": [(0.5,), (math.inf,), (math.nan,)],
}


@pytest.mark.parametrize(
    "entry,key",
    [(entry, key) for entry, (_, keys) in _ENTRY_POINTS.items() for key in keys],
)
def test_entry_points_refuse_values_outside_the_key_domain(entry, key):
    # the collapse function once took a NaN pool rate and a zero pool fraction, and
    # ssc_convergence with 0 reps returned a table whose medians raised IndexError
    call, _ = _ENTRY_POINTS[entry]
    text = CONFIG_KEYS[key][1].text
    for value in _JUST_OUTSIDE[key] + ([] if key in ("pools", "r_values") else [math.nan]):
        with pytest.raises(ConfigError) as err:
            call(**{key: value})
        assert str(err.value).startswith(f"{key} must be {text}, got "), (value, str(err.value))
