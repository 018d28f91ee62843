"""The configuration surface: every key's declared domain, its defaults and its docs."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetq.cli import _DEFAULTS
from hetq.core import (
    CONFIG_KEYS,
    MAX_DENSITY_SPAN,
    MAX_GRID_POINTS,
    MAX_QUEUE_CAP,
    HalfinWhitt,
    Policy,
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


def _floats(lo=-math.inf, hi=math.inf, **kw):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False, **kw)


_POS = _floats(0.0, exclude_min=True)
_NON_NEG = _floats(0.0)


def _law(make, *args):
    """``make(*args)``, or None where the constructor refuses the law (E[mu^2] overflows, say)."""
    try:
        return make(*args)
    except ConfigError:
        return None


def _rates():
    weighted = st.lists(st.tuples(_POS, _floats(1e-3, 1.0)), min_size=1, max_size=4)
    atoms = weighted.map(lambda rw: [(r, w / math.fsum(w for _, w in rw)) for r, w in rw])
    laws = st.one_of(
        st.builds(_law, st.just(RateDistribution.point), _POS),
        st.builds(_law, st.just(RateDistribution.uniform), _POS, _POS),
        st.builds(_law, st.just(RateDistribution.discrete), atoms),
    )
    return laws.filter(lambda law: law is not None)


def _pools():
    weights = st.lists(_floats(1e-3, 1.0), min_size=1, max_size=4)
    fractions = weights.map(lambda w: [x / math.fsum(w) for x in w])
    rates = st.sets(_POS, min_size=4, max_size=4).map(sorted)
    return st.tuples(fractions, rates).map(lambda fr: tuple(zip(*fr)))


# key -> values drawn from its declared domain; a draw the constructor refuses
# (a law whose E[mu^2] overflows, say) is filtered, so is one the domain refuses
_INSIDE = {
    "r": _POS, "lambda_r": _NON_NEG, "seed": st.integers(0), "arrival_scv": _NON_NEG,
    "staffing": st.one_of(st.integers(1), st.builds(HalfinWhitt, _NON_NEG)),
    "abandon_rate": _NON_NEG, "policy": st.sampled_from(Policy), "rates": _rates(),
    "pools": _pools(), "horizon": _POS, "warmup": _floats(0.0, 1.0, exclude_max=True),
    "abandon_mode": st.sampled_from(["none", "per_customer", "perturbed"]),
    "x0": st.integers(0), "grid_points": st.integers(2, MAX_GRID_POINTS),
    "queue_cap": st.integers(0, MAX_QUEUE_CAP), "record_idle": st.booleans(),
    "reps": st.integers(1), "c_s": _NON_NEG, "c_w": _NON_NEG, "d": _NON_NEG, "c_un": _NON_NEG,
    "cost_model": st.sampled_from(["waiting", "abandon"]), "bracket_lo": _POS,
    "bracket_hi": _POS, "opt_tol": _POS, "beta": _floats(), "sigma": _NON_NEG, "gamma": _POS,
    "nu": _NON_NEG, "theta": _floats(), "mu_bar": _POS,
    "density_points": st.integers(2, MAX_GRID_POINTS),
    "density_span": _floats(0.0, MAX_DENSITY_SPAN, exclude_min=True), "eps_min": _POS,
    "eps_max": _POS, "eps_steps": st.integers(1, 10_000),
    "r_values": st.lists(_floats(0.5, exclude_min=True), max_size=4).map(tuple),
    "ssc_horizon": _POS, "lambda_hat": _floats(hi=0.0, exclude_max=True),
    "bins": st.integers(1), "p_rate": _POS, "skeleton_events": st.integers(1, 1_000_000),
}


def test_every_key_has_a_fuzz_domain():
    assert set(_INSIDE) == set(CONFIG_KEYS)


@pytest.mark.parametrize("key", sorted(CONFIG_KEYS))
@given(data=st.data())
@settings(max_examples=60, derandomize=True, database=None, deadline=None)
def test_values_in_the_domain_round_trip(key, data):
    value = data.draw(_INSIDE[key].filter(CONFIG_KEYS[key][1].holds), label=key)
    assert parse_config_text(format_config({key: value})) == {key: value}


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
        ("horizon", "warmup", "grid_points", "queue_cap", "x0"),
    ),
    "coupled_run": (
        lambda p_rate=1.0, horizon=1.0: coupled_run(
            SystemConfig(**_SYSTEM), p_rate, _two_servers(), horizon
        ),
        ("p_rate", "horizon"),
    ),
    "replicate": (
        lambda reps: replicate(SystemConfig(**_SYSTEM), reps, 1.0),
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
    "staffing": [0, 2.5, True],
    "abandon_rate": [-5e-324],
    "pools": [((0.5, 1.0), (0.5, math.nan)), ((0.0, 1.0), (1.0, 2.0)), ((0.5, 2.0), (0.5, 1.0))],
    "horizon": [0.0, math.inf],
    "warmup": [1.0, -5e-324],
    "grid_points": [1, 1_000_001],
    "queue_cap": [-1, 10_000_001],
    "x0": [-1],
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

# key -> values of the wrong type: a float key needs a real number, an int key
# an integer, and a bool is neither. These raised TypeError from a comparison
# or from numpy, or were accepted and later truncated by int().
_WRONG_TYPE = {
    "horizon": ["5", None, True],
    "warmup": ["0.2"],
    "grid_points": [10.5],
    "queue_cap": [2.5],
    "x0": [2.5, "3"],
    "seed": [1.5, True],
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
    kind = "an integer" if CONFIG_KEYS[key][0] is int else "a real number"
    for value in _WRONG_TYPE.get(key, []):
        with pytest.raises(ConfigError) as err:
            call(**{key: value})
        assert str(err.value) == f"{key} must be {text}, got {value!r} (not {kind})"
