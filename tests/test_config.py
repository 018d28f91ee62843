"""The configuration surface: every key's declared domain, its defaults and its docs."""

from pathlib import Path

import pytest

from hetq.cli import _DEFAULTS
from hetq.core import CONFIG_KEYS, format_config, parse_config_text
from hetq.errors import ConfigError

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
