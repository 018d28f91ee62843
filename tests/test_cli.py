"""Front-end contracts: artifacts, manifests, exit codes, reproducibility."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import hetq
from conftest import within
from mills_oracle import positive_part_aband, wait_aband
from hetq.cli import _json_bytes, dispatch, main, rerun_manifest
from hetq.core import CONFIG_KEYS, parse_config_text
from hetq.errors import ConfigError
from hetq.sim import csv_table


def read(path):
    return path.read_bytes()


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main_within(args, seconds=30):
    """``main(args)``, failing the test if it has not returned after ``seconds``."""
    return within(seconds, main, args)


BASE_CFG = """
r = 50.0
lambda_r = 45.0
seed = 7
rates = uniform(0.8,1.2)
staffing = hw(1.0)
horizon = 40.0
grid_points = 500
"""


@pytest.fixture
def cfg_file(tmp_path):
    p = tmp_path / "base.cfg"
    p.write_text(BASE_CFG, encoding="utf-8")
    return p


class TestExitCodes:
    def test_success(self, cfg_file, tmp_path):
        rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "path.csv").exists()
        assert (tmp_path / "o" / "summary.json").exists()
        assert (tmp_path / "o" / "manifest.json").exists()

    def test_unknown_override_key_exits_2(self, cfg_file, tmp_path, capsys):
        rc = main([
            "simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o"),
            "--set", "not_a_key=3",
        ])
        assert rc == 2
        assert "not_a_key" in capsys.readouterr().err

    def test_domain_error_exits_3(self, tmp_path):
        rc = main([
            "analyze", "--out", str(tmp_path / "o"),
            "--set", "beta=1.0", "--set", "sigma=2.0", "--set", "gamma=1.0",
        ])
        assert rc == 3

    def test_every_refusal_has_an_exit_code(self):
        # main maps ConfigError to exit 2 and DomainError to 3, and nothing else
        assert set(hetq.HetqError.__subclasses__()) == {hetq.ConfigError, hetq.DomainError}
        assert hetq.DomainError.__subclasses__() == []

    @pytest.mark.parametrize("setting", ["beta=nan", "sigma=inf"])
    def test_non_finite_diffusion_coefficient_exits_2(self, tmp_path, capsys, setting):
        rc = main(["analyze", "--out", str(tmp_path / "o"), "--set", setting])
        assert rc == 2
        assert setting.split("=")[0] in capsys.readouterr().err

    def test_bracket_error_names_first_failure(self, tmp_path, capsys):
        # abandonment cost model (the default) with no nu anywhere
        rc = main(["staff", "--out", str(tmp_path / "o"), "--set", "lambda_r=100"])
        assert rc == 3
        assert "needs nu > 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "settings,failure",
        [
            (["lambda_r=1e300", "cost_model=waiting"],
             "DomainError: needs capacity above the arrival rate, got 1e+300"),
        ],
        ids=["capacity"],
    )
    def test_curve_failing_everywhere_names_the_first_point(
        self, tmp_path, capsys, settings, failure
    ):
        # the curve is one array call; the message is still the first point's
        args = ["staff", "--out", str(tmp_path / "o"), "--set", "lambda_r=100"]
        rc = main(args + [a for s in settings for a in ("--set", s)])
        assert rc == 3
        assert capsys.readouterr().err == (
            "domain error: cost evaluation failed across the bracket "
            "(bracket_lo, bracket_hi) = (0.05, 6.0); "
            f"first failure: {failure}\n"
        )

    def test_analyze_random_takes_the_lisf_gamma(self, tmp_path):
        args = ["analyze", "--set", "rates=uniform(0.5,1.5)"]
        assert main([*args, "--out", str(tmp_path / "lisf")]) == 0
        assert main([*args, "--out", str(tmp_path / "a"), "--set", "policy=RANDOM"]) == 0
        for name in ("analysis.json", "density.csv"):
            assert read(tmp_path / "a" / name) == read(tmp_path / "lisf" / name)
        info = json.loads((tmp_path / "a" / "analysis.json").read_text())
        assert info["gamma"] == pytest.approx(13.0 / 12.0)  # E[mu^2]/E[mu]
        args += ["--set", "policy=RANDOM", "--set", "gamma=1.2"]
        assert main([*args, "--out", str(tmp_path / "b")]) == 0
        info = json.loads((tmp_path / "b" / "analysis.json").read_text())
        assert info["gamma"] == 1.2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_horizon_exits_2(self, cfg_file, tmp_path, capsys, value):
        rc = main([
            "simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o"),
            "--set", f"horizon={value}",
        ])
        assert rc == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_bad_thread_count_exits_2(self, cfg_file, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("HETQ_THREADS", value)
        rc = main([
            "simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o"), "--reps", "2",
        ])
        assert rc == 2
        assert "HETQ_THREADS" in capsys.readouterr().err

    def test_overflowing_replication_exits_3(self, tmp_path, capsys):
        # --reps used to drop x0 and queue_cap, and reps.csv cannot flag an
        # overflow; x0 = N + queue_cap starts with the queue at its cap
        rc = main([
            "simulate", "--out", str(tmp_path / "o"), "--reps", "2",
            "--set", "lambda_r=20", "--set", "r=10", "--set", "staffing=10",
            "--set", "horizon=20", "--set", "queue_cap=490", "--set", "x0=500",
        ])
        assert rc == 3
        assert "replication 0: queue exceeded queue_cap=490" in capsys.readouterr().err
        assert not (tmp_path / "o" / "reps.csv").exists()

    @pytest.mark.parametrize("args", [["--set", "reps=0"], ["--reps", "-3"]])
    def test_non_positive_reps_exits_2(self, cfg_file, tmp_path, capsys, args):
        rc = main(["simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o"), *args])
        assert rc == 2
        assert "reps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "setting", ["lambda_r=nan", "r=inf", "arrival_scv=nan", "abandon_rate=inf", "seed=-5"]
    )
    def test_bad_system_config_exits_2(self, cfg_file, tmp_path, capsys, setting):
        rc = main([
            "simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o"),
            "--set", setting,
        ])
        assert rc == 2
        assert setting.split("=")[0] + " must" in capsys.readouterr().err

    # couple draws Poisson arrivals in LISF order, so it refuses other laws and policies
    @pytest.mark.parametrize(
        "setting",
        ["p_rate=-1", "p_rate=0", "skeleton_events=0", "arrival_scv=0.0", "policy=FSF"],
    )
    def test_bad_couple_setting_exits_2(self, tmp_path, capsys, setting):
        rc = main([
            "couple", "--out", str(tmp_path / "o"), "--set", "lambda_r=5.0",
            "--set", "skeleton_events=200", "--set", setting,
        ])
        assert rc == 2
        assert setting.split("=")[0] + " must" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,setting",
        [
            ("simulate", "queue_cap=-1"),
            ("analyze", "density_points=0"),
            ("ql-sweep", "eps_steps=0"),
            ("fairness", "bins=0"),
        ],
    )
    def test_out_of_range_setting_exits_2(self, tmp_path, capsys, command, setting):
        rc = main([
            command, "--out", str(tmp_path / "o"), "--set", "lambda_r=20.0",
            "--set", "horizon=50.0", "--set", setting,
        ])
        assert rc == 2
        assert setting.split("=")[0] + " must" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,setting",
        [
            ("staff", "opt_tol=-1"),
            ("staff", "opt_tol=0"),
            ("staff", "opt_tol=nan"),
            ("staff", "bracket_lo=nan"),
            ("staff", "bracket_hi=inf"),
            ("analyze", "density_span=nan"),
            ("analyze", "density_span=-3"),
            ("simulate", "grid_points=1000001"),
            ("couple", "skeleton_events=1000000000"),
            ("analyze", "density_points=1000001"),
            ("ql-sweep", "eps_steps=10001"),
        ],
    )
    def test_range_checked_where_the_value_enters(self, tmp_path, capsys, command, setting):
        # a negative or zero opt_tol once made the golden-section search loop
        # forever, and 10^9 skeleton events ran for over an hour
        rc = main_within([
            command, "--out", str(tmp_path / "o"), "--set", "lambda_r=20.0",
            "--set", "nu=1.0", "--set", "horizon=5.0", "--set", setting,
        ])
        assert rc == 2
        assert setting.split("=")[0] + " must" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,setting",
        [
            ("analyze", "mu_bar=-1"),
            ("analyze", "arrival_scv=-2"),
            ("analyze", "theta=nan"),
            ("ql-sweep", "sigma=nan"),
        ],
    )
    def test_value_outside_its_domain_names_the_key(self, tmp_path, capsys, command, setting):
        # mu_bar=-1 and arrival_scv=-2 were a math domain error traceback,
        # theta=nan blamed beta, and sigma=nan ran the quadrature to 512
        # nodes and exited 3 naming no key
        rc = main_within([command, "--out", str(tmp_path / "o"), "--set", setting])
        assert rc == 2
        key = setting.split("=")[0]
        assert capsys.readouterr().err.startswith(f"config error: {key} must be")

    @pytest.mark.parametrize(
        "setting,key,mu_bar",
        [
            ("eps_max=1.5", "eps_max", 1.0),
            ("mu_bar=0.01", "eps_min", 0.01),
            ("eps_min=1e-300", "eps_min", 1.0),
        ],
    )
    def test_ql_sweep_eps_outside_mu_bar_names_the_key(
        self, tmp_path, capsys, setting, key, mu_bar
    ):
        # the first two said only "eps must lie in (0, mu_bar), got 1.0166666666666666"
        # and "got 0.05"; at 1e-300 the law's ends mu_bar +- eps round to one double
        rc = main_within(["ql-sweep", "--out", str(tmp_path / "o"), "--set", setting])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"domain error: {key} must lie in (0, mu_bar)")
        assert f"mu_bar = {mu_bar!r}" in err
        assert not any((tmp_path / "o").iterdir())

    def test_opt_tol_below_the_double_spacing_ends(self, tmp_path):
        # opt_tol=1e-17 lies in its domain; the golden-section bracket once stalled
        # an ulp wide, its probes flipping between the ends, and never returned
        rc = main_within([
            "staff", "--out", str(tmp_path / "o"), "--set", "lambda_r=400",
            "--set", "abandon_rate=1", "--set", "rates=uniform(0.8,1.2)", "--set", "d=5",
            "--set", "nu=1", "--set", "opt_tol=1e-17",
        ], seconds=5)
        assert rc == 0
        info = json.loads((tmp_path / "o" / "staffing.json").read_text(encoding="utf-8"))
        assert info["x_star"] == pytest.approx(0.8497399, abs=1e-6)

    @pytest.mark.parametrize(
        "setting",
        [
            "sigma=1e-300", "gamma=1e-300", "beta=-1e300",
        ],
    )
    def test_law_lost_in_double_precision_exits_3(self, tmp_path, capsys, setting):
        # each value lies in its domain; each was an OverflowError or
        # ZeroDivisionError traceback
        sets = [arg for kv in setting.split(",") for arg in ("--set", kv)]
        rc = main(["analyze", "--out", str(tmp_path / "o"), *sets])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("domain error: the stationary law at sigma=")
        assert all(f"{key}=" in err for key in ("sigma", "beta", "gamma", "nu"))
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize(
        "setting",
        ["nu=1e-300", "sigma=1e-8,beta=3,gamma=3,nu=1e300"],
    )
    def test_law_held_in_double_precision_exits_0(self, tmp_path, setting):
        # the first exited 3 (its wait logit was a difference of two log-densities
        # near -5e299), the second 3 with residual 0.084; the defaults give
        # sigma = sqrt(2), beta = -1 and gamma = 1
        values = {"sigma": math.sqrt(2.0), "beta": -1.0, "gamma": 1.0}
        values.update((k, float(v)) for k, v in (kv.split("=") for kv in setting.split(",")))
        sets = [arg for kv in setting.split(",") for arg in ("--set", kv)]
        assert main(["analyze", "--out", str(tmp_path / "o"), *sets]) == 0
        info = json.loads((tmp_path / "o" / "analysis.json").read_text(encoding="utf-8"))
        law = [values[k] for k in ("beta", "sigma", "gamma", "nu")]
        assert info["varrho"] == pytest.approx(float(wait_aband(*law)), rel=1e-13)
        assert info["mean_positive_part"] == pytest.approx(float(positive_part_aband(*law)), rel=1e-13)
        assert info["continuity_residual"] < 1e-12

    @pytest.mark.parametrize(
        "command,settings",
        [("staff", ["lambda_r=100", "rates=uniform(0.8,1.2)", "nu=1", "bracket_hi=1e300"])],
        ids=["staff-bracket_hi"],
    )
    def test_drift_average_held_in_double_precision_exits_0(self, tmp_path, command, settings):
        # it exited 3: the wait logit was a difference of two infinities at x = 1e300.
        # The optimum is the bracket's lower end; its cost is checked against the
        # Gauss-Hermite sum the drift average stops at, with every node's
        # E[xi+; xi >= 0] taken in mpmath
        sets = [arg for kv in settings for arg in ("--set", kv)]
        assert main_within([command, "--out", str(tmp_path / "o"), *sets]) == 0
        info = json.loads((tmp_path / "o" / "staffing.json").read_text(encoding="utf-8"))
        sd = 0.4 / math.sqrt(12.0)  # uniform(0.8, 1.2)
        gamma = 1.0 + sd * sd  # LISF: E[mu^2]/E[mu]
        x_nodes, w = np.polynomial.hermite.hermgauss(32)
        betas = -0.05 + math.sqrt(2.0) * sd * x_nodes
        epp = sum(wk * positive_part_aband(b, math.sqrt(2.0), gamma, 1.0) for wk, b in zip(w, betas))
        want = 0.05 * 10.0 + 10.0 * epp / math.sqrt(math.pi)
        assert info["x_star"] == 0.05
        assert info["cost_at_optimum"] == pytest.approx(float(want), rel=1e-12)
        # at the bracket's far end the abandonment term lies below the staffing
        # term's last bit (at x = 1e300 the wait probability rounds to 0)
        assert info["curve"]["cost"][-1] == info["curve"]["x"][-1] * 10.0

    def test_ql_sweep_of_a_far_drift_is_zero(self, tmp_path):
        # theta=1e300 exited 3 (the wait logit was a difference of two infinities);
        # at beta = -2e300 the queue's mean rounds to 0
        assert main_within(["ql-sweep", "--out", str(tmp_path / "o"), "--set", "theta=1e300"]) == 0
        lines = (tmp_path / "o" / "ql.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert all(line.split(",")[1:] == ["0.0", "0.0"] for line in lines)
        assert positive_part_aband(-2e300 + 1e299, 4.0, 1.0, 2.0) < 1e-300

    @pytest.mark.parametrize("setting", ["sigma=1e-300", "nu=1e-300"])
    def test_drift_average_without_convergence_names_the_law(self, tmp_path, capsys, setting):
        # each was NaN and refused as not finite. The drift average is finite, but its
        # integrand jumps at beta = 0 by 1/nu (or by a kink of slope 1/nu as sigma -> 0),
        # and the Gauss-Hermite rules do not agree at eps = 0.2
        rc = main_within(["ql-sweep", "--out", str(tmp_path / "o"), "--set", setting])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("domain error: ql_eps quadrature did not converge")
        assert setting in err and "the law with sigma=" in err
        assert not any((tmp_path / "o").iterdir())

    @pytest.mark.parametrize(
        "command,settings",
        [
            ("staff", ["lambda_r=100", "rates=uniform(0.8,1.2)", "nu=1", "bracket_hi=1e308"]),
            ("ql-sweep", ["sigma=1e-300"]),
            ("analyze", ["sigma=1e-300"]),
        ],
        ids=["staff", "ql-sweep", "analyze"],
    )
    def test_refusal_comes_without_runtime_warnings(self, tmp_path, command, settings):
        # the kernels' overflows used to print numpy RuntimeWarnings before the refusal
        sets = [arg for kv in settings for arg in ("--set", kv)]
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert main_within([command, "--out", str(tmp_path / "o"), *sets]) == 3
        assert not [str(w.message) for w in seen if w.category is RuntimeWarning]

    def test_far_safety_values_have_a_finite_cost(self, tmp_path):
        # the curve reaches x = 1.9e9, where the abandonment term tends to 0; the
        # upper normal mean cancelled there, and the cost came out NaN (exit 3)
        out = tmp_path / "o"
        sets = ["lambda_r=100", "rates=uniform(0.8,1.2)", "nu=1", "bracket_hi=1e10"]
        assert main_within(["staff", "--out", str(out), *(a for kv in sets for a in ("--set", kv))]) == 0
        info = json.loads((out / "staffing.json").read_text(encoding="utf-8"))
        assert all(map(math.isfinite, [info["cost_at_optimum"], *info["curve"]["cost"]]))

    @pytest.mark.parametrize("nu", ["1e-300", "1e-12", "1e-8"])
    def test_small_nu_is_refused_by_name(self, tmp_path, capsys, nu):
        # each exited 0 with a cost no two Gauss-Hermite rules agreed on: E[xi+] bends
        # from 0 to beta/nu across beta = 0 over a width of about sigma sqrt(nu), and the
        # 128-node cost was 1.8e-3 off an adaptive reference (7.0e-3 of its abandonment term)
        out = tmp_path / "o"
        sets = ["lambda_r=100", "rates=uniform(0.8,1.2)", f"nu={nu}"]
        assert main_within(["staff", "--out", str(out), *(a for kv in sets for a in ("--set", kv))]) == 3
        err = capsys.readouterr().err
        assert "the cost quadrature did not converge to 1e-06 at safety x = 0.05: the law with sigma=" in err
        assert "gamma=" in err and err.rstrip().endswith(f"nu={float(nu)!r}")
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "setting",
        [
            "sigma=2.52,beta=2.24,gamma=585,nu=0.0262",
            "sigma=1e200,beta=1e100,gamma=1e20,nu=1e-8", "beta=-1e-300",
        ],
    )
    def test_law_with_wait_near_1_exits_0(self, tmp_path, setting):
        # varrho rounds to 1 or within a few ulps of it: the lower weight taken as
        # 1 - varrho gave residuals 0.135, 8.0e-4 and 1.0, so the first law was
        # refused, the second was written with a residual above 1e-9, and beta=-1e-300
        # was written with residual 1.0 and later refused
        sets = [arg for kv in setting.split(",") for arg in ("--set", kv)]
        assert main(["analyze", "--out", str(tmp_path / "o"), *sets]) == 0
        info = json.loads((tmp_path / "o" / "analysis.json").read_text(encoding="utf-8"))
        assert info["continuity_residual"] < 1e-9

    def test_law_with_wait_near_1_writes_its_mass_without_warnings(self, tmp_path):
        # beta=-1e-300: the exponential piece's mean is 1e300, the grid spans five of
        # them, and the lower piece's weight is about 1e-300; squares of standardized
        # points in the lower tail overflow to inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["analyze", "--out", str(tmp_path / "o"), "--set", "beta=-1e-300"])
        assert rc == 0
        grid = json.loads((tmp_path / "o" / "analysis.json").read_text(encoding="utf-8"))["density_grid"]
        half = len(grid["x"]) // 2  # x = 0, where the density jumps from ~0 to its upper side
        mass = np.trapezoid(grid["pdf"][half:], grid["x"][half:])
        assert mass == pytest.approx(1.0 - math.exp(-5.0), rel=1e-3)

    def test_density_grid_wider_than_a_double_is_refused(self, tmp_path, capsys):
        # np.linspace(-span, span, n) once wrote nan and inf x values
        span = ["--set", "density_span=1e308", "--set", "density_points=5"]
        assert main(["analyze", "--out", str(tmp_path / "a"), *span]) == 2
        assert capsys.readouterr().err.startswith("config error: density_span must be")
        derived = ["--set", "beta=-1e307", "--set", "sigma=1e307", "--set", "nu=1"]
        assert main(["analyze", "--out", str(tmp_path / "b"), *derived]) == 3
        assert "derived from sigma, beta, gamma and nu" in capsys.readouterr().err
        assert not any((tmp_path / "b").iterdir())

    @pytest.mark.parametrize(
        "content", [None, "{not json", '{"command": "simulate"}'],
        ids=["missing", "not_json", "no_config"],
    )
    def test_bad_manifest_exits_2(self, tmp_path, capsys, content):
        manifest = tmp_path / "manifest.json"
        if content is not None:
            manifest.write_text(content, encoding="utf-8")
        rc = main(["rerun", str(manifest), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert str(manifest) in capsys.readouterr().err

    def test_out_naming_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("", encoding="utf-8")
        rc = main(["ql-sweep", "--out", str(out), "--set", "eps_steps=2"])
        assert rc == 2
        assert str(out) in capsys.readouterr().err

    def test_ssc_zero_reps_exits_2(self, tmp_path, capsys):
        rc = main([
            "ssc", "--out", str(tmp_path / "o"), "--set", "pools=0.5:1.0,0.5:2.0",
            "--set", "r_values=4,9", "--set", "lambda_hat=-1", "--set", "reps=0",
        ])
        assert rc == 2
        assert "reps" in capsys.readouterr().err

    @pytest.mark.parametrize("r_values", ["25,-5", "25,inf", "nan", "0.4"])
    def test_ssc_bad_r_value_exits_2(self, tmp_path, capsys, r_values):
        # -5 and nan were a math domain error, inf an OverflowError
        rc = main([
            "ssc", "--out", str(tmp_path / "o"), "--set", "pools=0.5:1.0,0.5:2.0",
            "--set", f"r_values={r_values}", "--set", "reps=1", "--set", "ssc_horizon=1.0",
        ])
        assert rc == 2
        assert "r_values" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["lambda_hat=nan", "ssc_horizon=nan"])
    def test_ssc_non_finite_key_exits_2(self, tmp_path, capsys, setting):
        # NaN passed the checks and failed later, naming lambda_r or horizon
        rc = main([
            "ssc", "--out", str(tmp_path / "o"), "--set", "pools=0.5:1.0,0.5:2.0",
            "--set", "r_values=16", "--set", "reps=1", "--set", "ssc_horizon=1.0",
            "--set", setting,
        ])
        assert rc == 2
        assert setting.split("=")[0] in capsys.readouterr().err

    def test_ssc_horizon_over_the_event_bound_names_ssc_keys(self, tmp_path, capsys):
        # the bound in run() named horizon and lambda_r, keys ssc does not take
        rc = main([
            "ssc", "--out", str(tmp_path / "o"), "--set", "pools=0.5:1.0,0.5:2.0",
            "--set", "r_values=16", "--set", "reps=1", "--set", "ssc_horizon=1e300",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "ssc_horizon 1e+300 at r = 16 gives about" in err
        assert "lambda_r" not in err

    @pytest.mark.parametrize("setting", ["nu=nan", "c_s=nan", "d=inf"])
    def test_bad_cost_coefficient_exits_2(self, tmp_path, capsys, setting):
        # nu=nan used to fall back to abandon_rate and exit 0
        rc = main([
            "staff", "--out", str(tmp_path / "o"), "--set", "lambda_r=100",
            "--set", "abandon_rate=1", "--set", setting,
        ])
        assert rc == 2
        assert setting.split("=")[0] + " must" in capsys.readouterr().err

    def test_staff_nu_zero_is_not_replaced_by_abandon_rate(self, tmp_path, capsys):
        rc = main([
            "staff", "--out", str(tmp_path / "o"), "--set", "lambda_r=100",
            "--set", "abandon_rate=1", "--set", "nu=0",
        ])
        assert rc == 3
        assert "needs nu > 0" in capsys.readouterr().err

    @pytest.mark.parametrize("theta", ["nan", "inf", "-1"])
    def test_bad_halfin_whitt_theta_exits_2(self, tmp_path, capsys, theta):
        # nan ended in a ValueError traceback and inf in an OverflowError
        rc = main([
            "simulate", "--out", str(tmp_path / "o"), "--set", "lambda_r=20",
            "--set", "horizon=5", "--set", f"staffing=hw({theta})",
        ])
        assert rc == 2
        assert "staffing" in capsys.readouterr().err

    def test_fairness_bins_above_server_count_exits_2(self, tmp_path, capsys):
        # more bins than servers used to run; a large count ran out of memory
        rc = main([
            "fairness", "--out", str(tmp_path / "o"), "--set", "lambda_r=45.0",
            "--set", "r=50.0", "--set", "staffing=50", "--set", "horizon=5.0",
            "--set", "grid_points=100", "--set", "bins=51",
        ])
        assert rc == 2
        assert "bins must" in capsys.readouterr().err

    def test_simulate_abandon_rate_without_mode_exits_2(self, tmp_path, capsys):
        # ran with "abandonments": 0, since mode none reads no abandonment rate
        rc = main([
            "simulate", "--out", str(tmp_path / "o"), "--set", "lambda_r=20",
            "--set", "horizon=5", "--set", "abandon_rate=5",
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "abandon_rate" in err and "abandon_mode" in err
        assert not (tmp_path / "o" / "summary.json").exists()

    @pytest.mark.parametrize(
        "args,keys",
        [
            # a SystemError from deque while seeding 10^12 queued customers
            (["simulate", "--set", "lambda_r=50", "--set", "r=50",
              "--set", "abandon_mode=per_customer", "--set", "abandon_rate=1",
              "--set", "x0=1000000000000"], ["x0"]),
            # the same SystemError once queue_cap is raised to admit that x0
            (["simulate", "--set", "lambda_r=50", "--set", "r=50",
              "--set", "abandon_mode=per_customer", "--set", "abandon_rate=1",
              "--set", "queue_cap=1000000000000", "--set", "x0=1000000000000"], ["queue_cap"]),
            # an OverflowError drawing 10^300 rates, or from the staffing rule
            (["simulate", "--set", "lambda_r=1e300"], ["lambda_r"]),
            (["simulate", "--set", "lambda_r=1e308", "--set", "rates=point(0.1)"], ["lambda_r"]),
            (["simulate", "--set", "lambda_r=1e300", "--set", "pools=0.5:1.0,0.5:2.0"],
             ["lambda_r"]),
            # these ran without end
            (["simulate", "--set", "lambda_r=20", "--set", "horizon=1e300"],
             ["horizon", "lambda_r"]),
            (["fairness", "--set", "lambda_r=45", "--set", "r=50", "--set", "staffing=50",
              "--set", "horizon=1e300"], ["horizon", "lambda_r"]),
        ],
        ids=[
            "x0", "queue_cap", "lambda_r", "lambda_r_overflow", "lambda_r_pools", "horizon",
            "fairness_horizon",
        ],
    )
    def test_unbounded_run_input_exits_2(self, tmp_path, capsys, args, keys):
        rc = main_within([args[0], "--out", str(tmp_path / "o"), *args[1:]])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(key in err for key in keys)


# the analytics commands: both stationary laws, both cost models and the sweep
_ANALYTICS = """
ANALYTICS = [
    ["analyze"],
    ["analyze", "--set", "nu=2"],
    ["staff", "--set", "lambda_r=100", "--set", "rates=uniform(0.8,1.2)", "--set", "nu=1"],
    ["staff", "--set", "lambda_r=100", "--set", "rates=uniform(0.8,1.2)",
     "--set", "cost_model=waiting", "--set", "bracket_lo=0.5"],
    ["ql-sweep", "--set", "eps_steps=2"],
]
"""

_IMPORT_BOUNDARY = _ANALYTICS + """
import sys
import hetq, hetq.cli, hetq.staffing
from hetq.cli import main

out = sys.argv[1]
small = ["--set", "lambda_r=45.0", "--set", "r=50.0", "--set", "staffing=50",
         "--set", "horizon=5.0", "--set", "grid_points=100"]
commands = [
    ["simulate", *small],
    ["simulate", "--reps", "2", *small],
    ["ssc", "--set", "pools=0.5:1.0,0.5:2.0", "--set", "r_values=16,25", "--set", "reps=1",
     "--set", "ssc_horizon=1.0"],
    ["fairness", *small],
    ["couple", *small, "--set", "skeleton_events=1000"],
]
for i, args in enumerate(commands):
    assert main([args[0], "--out", f"{out}/{i}", *args[1:]]) == 0, args
print("scipy.integrate" in sys.modules, "scipy.special" in sys.modules)
for i, args in enumerate(ANALYTICS):
    assert main([args[0], "--out", f"{out}/a{i}", *args[1:]]) == 0, args
print(any(name == "scipy" or name.startswith("scipy.") for name in sys.modules))
"""


def test_cli_import_leaves_scipy_integrate_unloaded(tmp_path):
    # importing hetq, every simulation command and every analytics command
    # leave scipy unloaded
    env = dict(os.environ)
    src = str(Path(hetq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_BOUNDARY, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["False", "False", "False"]


_WITHOUT_SCIPY = _ANALYTICS + """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from hetq.cli import main

for i, args in enumerate(ANALYTICS):
    assert main([args[0], "--out", f"{sys.argv[1]}/{i}", *args[1:]]) == 0, args
"""


def test_analytics_run_without_scipy(tmp_path):
    env = dict(os.environ)
    src = str(Path(hetq.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)], env=env, check=True)


class TestSimulateArtifacts:
    def test_zero_arrivals_a_column(self, tmp_path):
        rc = main([
            "simulate", "--out", str(tmp_path / "o"),
            "--set", "lambda_r=0.0", "--set", "r=10.0", "--set", "staffing=10",
            "--set", "horizon=10.0", "--set", "grid_points=100",
        ])
        assert rc == 0
        lines = (tmp_path / "o" / "path.csv").read_text().splitlines()
        assert lines[0] == "t,X,Q,Z_1,R,A"
        assert all(line.rsplit(",", 1)[1] == "0" for line in lines[1:])

    def test_reps_table(self, cfg_file, tmp_path):
        rc = main([
            "simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o"),
            "--reps", "3",
        ])
        assert rc == 0
        lines = (tmp_path / "o" / "reps.csv").read_text().splitlines()
        assert lines[0].startswith("rep,zeta_hat,p_wait,mean_Q")
        assert len(lines) == 4

    def test_json_format_tables(self, cfg_file, tmp_path):
        rc = main([
            "simulate", "--config", str(cfg_file), "--out", str(tmp_path / "o"),
            "--format", "json",
        ])
        assert rc == 0
        table = json.loads((tmp_path / "o" / "path.json").read_text())
        assert table["header"][:3] == ["t", "X", "Q"]
        assert not (tmp_path / "o" / "path.csv").exists()

    @pytest.mark.parametrize(
        "command,extra", [("fairness", []), ("couple", ["--set", "skeleton_events=300"])]
    )
    def test_json_format_keeps_the_table_beside_the_info_artifact(self, tmp_path, command, extra):
        # the converted table took <command>.json, the info artifact's name, and was dropped
        args = [command, *_SMALL, "--set", "rates=uniform(0.8,1.2)", *extra]
        csv_out, json_out = tmp_path / "csv", tmp_path / "json"
        assert main([*args, "--out", str(csv_out)]) == 0
        assert main([*args, "--out", str(json_out), "--format", "json"]) == 0
        manifest = json.loads((json_out / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == [f"{command}.json", f"{command}_table.json"]
        assert read(json_out / f"{command}.json") == read(csv_out / f"{command}.json")
        lines = (csv_out / f"{command}.csv").read_text().splitlines()
        header, *rows = (line.split(",") for line in lines)
        table = json.loads((json_out / f"{command}_table.json").read_text())
        assert table == {"header": header, "rows": rows}
        assert main(["rerun", str(json_out / "manifest.json"), "--out", str(tmp_path / "again")]) == 0


class TestManifest:
    def test_checksums_match_files(self, cfg_file, tmp_path):
        out = tmp_path / "o"
        main(["simulate", "--config", str(cfg_file), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        for name, check in manifest["artifacts"].items():
            assert sha(out / name) == check

    def test_rerun_byte_identical(self, cfg_file, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["simulate", "--config", str(cfg_file), "--out", str(out1)])
        rc = main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)])
        assert rc == 0
        for name in ("path.csv", "summary.json", "manifest.json"):
            assert read(out1 / name) == read(out2 / name)

    def _edited_rerun(self, tmp_path, args, edit):
        """Exit code of a rerun of the manifest that ``args`` wrote, after ``edit``."""
        out = tmp_path / "o"
        assert main([*args, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        edit(manifest)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(manifest), encoding="utf-8")
        return main(["rerun", str(path), "--out", str(tmp_path / "o2")])

    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--set", "lambda_r=20.0", "--set", "horizon=5.0"],
            ["ssc", "--set", "pools=0.5:1.0,0.5:2.0", "--set", "r_values=16", "--set", "reps=1",
             "--set", "ssc_horizon=1.0"],
            ["fairness", "--set", "lambda_r=20.0", "--set", "horizon=5.0"],
            ["couple", "--set", "lambda_r=20.0", "--set", "skeleton_events=200"],
        ],
        ids=lambda args: args[0],
    )
    def test_rerun_refuses_another_stream_layout(self, tmp_path, capsys, args):
        # a manifest written before the skeleton departures (simulate, ssc,
        # fairness) or the rejection pick (couple) has no stamp
        rc = self._edited_rerun(tmp_path, args, lambda m: m.pop("stream_layout"))
        assert rc == 2
        err = capsys.readouterr().err
        assert "stream_layout 1" in err and "stream_layout 2" in err
        assert not (tmp_path / "o2").exists()

    def test_rerun_checks_artifact_checksums(self, cfg_file, tmp_path, capsys):
        def edit(manifest):
            manifest["artifacts"]["summary.json"] = "0" * 64

        rc = self._edited_rerun(tmp_path, ["simulate", "--config", str(cfg_file)], edit)
        assert rc == 2
        assert "summary.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["couple"], {"couple": 1}, None])
    def test_rerun_refuses_a_command_that_is_not_a_string(self, tmp_path, capsys, command):
        # a list or an object ended in a TypeError from the stream layout lookup
        args = ["couple", "--set", "lambda_r=5.0", "--set", "skeleton_events=50"]
        rc = self._edited_rerun(tmp_path, args, lambda m: m.update(command=command))
        assert rc == 2
        assert "needs a 'command' string" in capsys.readouterr().err

    def test_overrides_recorded(self, cfg_file, tmp_path):
        out = tmp_path / "o"
        main([
            "simulate", "--config", str(cfg_file), "--out", str(out),
            "--set", "policy=FSF", "--seed", "99",
        ])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["policy"] == "FSF"
        assert manifest["seed"] == 99


class TestOtherCommands:
    def test_ql_sweep_trend_columns(self, tmp_path):
        rc = main([
            "ql-sweep", "--out", str(tmp_path / "o"), "--set", "eps_steps=5",
        ])
        assert rc == 0
        lines = (tmp_path / "o" / "ql.csv").read_text().splitlines()
        assert lines[0] == "eps,QL_lisf,QL_fsf"
        lisf = [float(line.split(",")[1]) for line in lines[1:]]
        fsf = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b > a for a, b in zip(lisf, lisf[1:]))
        assert all(b < a for a, b in zip(fsf, fsf[1:]))

    def test_staff_outputs(self, tmp_path):
        rc = main([
            "staff", "--out", str(tmp_path / "o"),
            "--set", "lambda_r=100.0", "--set", "r=100.0",
            "--set", "rates=point(1.0)", "--set", "nu=1.0", "--set", "d=2.0",
            "--set", "cost_model=abandon",
            "--set", "bracket_lo=0.2", "--set", "bracket_hi=3.0",
        ])
        assert rc == 0
        info = json.loads((tmp_path / "o" / "staffing.json").read_text())
        assert 0.2 <= info["x_star"] <= 3.0
        assert info["N_star"] >= 101
        curve = (tmp_path / "o" / "curve.csv").read_text().splitlines()
        assert curve[0] == "x,cost"
        assert len(curve) == 65

    def test_couple_ordering_artifact(self, tmp_path):
        rc = main([
            "couple", "--out", str(tmp_path / "o"),
            "--set", "lambda_r=48.0", "--set", "r=50.0", "--set", "staffing=50",
            "--set", "rates=uniform(0.8,1.2)", "--set", "p_rate=0.8",
            "--set", "skeleton_events=1500", "--seed", "3",
        ])
        assert rc == 0
        info = json.loads((tmp_path / "o" / "couple.json").read_text())
        assert info["ordered_everywhere"] is True
        header = (tmp_path / "o" / "couple.csv").read_text().splitlines()[0]
        assert header == "t,D_hom,D_het"

    def test_couple_csv_matches_per_row_formatting(self, tmp_path, monkeypatch):
        runs = []
        coupled_run = hetq.cli.coupled_run

        def spy(*args, **kwargs):
            runs.append(coupled_run(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(hetq.cli, "coupled_run", spy)
        rc = main([
            "couple", "--out", str(tmp_path / "o"),
            "--set", "lambda_r=20.0", "--set", "r=20.0", "--set", "staffing=20",
            "--set", "rates=uniform(0.8,1.2)", "--set", "p_rate=0.8",
            "--set", "skeleton_events=400",
        ])
        assert rc == 0
        (cp,) = runs
        # reference: repr(float(.)) and str(int(.)) cells, one line per skeleton point
        lines = [
            ",".join((repr(float(t)), str(int(h)), str(int(g))))
            for t, h, g in zip(cp.skeleton_t, cp.d_hom, cp.d_het)
        ]
        expected = "\n".join(["t,D_hom,D_het", *lines, ""]).encode()
        assert read(tmp_path / "o" / "couple.csv") == expected
        assert len(lines) > 300

    def test_csv_cells_match_per_cell_repr(self, monkeypatch):
        monkeypatch.setattr(hetq.sim, "_CSV_BLOCK", 3)  # three blocks, the last one short
        floats = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, -2.5])
        ints = np.arange(-3, 5, dtype=np.int64)
        scalars = [np.float64(v) for v in (1.0, 1 / 3, -1e-300, 2.0**60, 7.0, 0.5, 1e16, -0.0)]
        whole = [25, 100, 400, -1, 0, 2**40, 3, 8]  # Python ints in a float column
        texts = [repr(float(v)) for v in reversed(floats)]  # cells already rendered
        got = csv_table("f,i,s,w,t", "%r,%d,%r,%r,%s", floats, ints, scalars, whole, texts)
        lines = [
            ",".join((repr(float(f)), str(int(i)), repr(float(s)), repr(float(w)), t))
            for f, i, s, w, t in zip(floats, ints, scalars, whole, texts)
        ]
        assert got == "\n".join(["f,i,s,w,t", *lines, ""]).encode()
        assert csv_table("x,y", "%r,%r", np.array([]), []) == b"x,y\n"

    def test_fairness_outputs(self, tmp_path):
        rc = main([
            "fairness", "--out", str(tmp_path / "o"),
            "--set", "lambda_r=45.0", "--set", "r=50.0", "--set", "staffing=50",
            "--set", "rates=uniform(0.5,1.5)", "--set", "horizon=60.0",
            "--set", "grid_points=500",
        ])
        assert rc == 0
        header = (tmp_path / "o" / "fairness.csv").read_text().splitlines()[0]
        assert header == "bin_lo,bin_hi,eta_hat,eta_theory"

    def test_ssc_outputs(self, tmp_path):
        rc = main([
            "ssc", "--out", str(tmp_path / "o"),
            "--set", "pools=0.5:1.0,0.5:2.0", "--set", "r_values=25,100",
            "--set", "reps=2", "--set", "ssc_horizon=5.0",
        ])
        assert rc == 0
        lines = (tmp_path / "o" / "ssc.csv").read_text().splitlines()
        assert lines[0] == "r,rep,g_supnorm,z_supnorm,ratio"
        assert len(lines) == 5

    def test_staff_random_matches_lisf(self, tmp_path):
        args = ["staff", "--set", "lambda_r=100", "--set", "rates=uniform(0.8,1.2)",
                "--set", "nu=1"]
        assert main([*args, "--out", str(tmp_path / "lisf")]) == 0
        assert main([*args, "--out", str(tmp_path / "random"), "--set", "policy=RANDOM"]) == 0
        for name in ("staffing.json", "curve.csv"):
            assert read(tmp_path / "random" / name) == read(tmp_path / "lisf" / name)

    def test_ssc_fsf_medians_decrease(self, tmp_path):
        # g reads FSF's gamma (the slow pool's rate), so the collapse shows
        rc = main([
            "ssc", "--out", str(tmp_path / "o"), "--set", "pools=0.5:1.0,0.5:2.0",
            "--set", "policy=FSF", "--set", "ssc_horizon=10", "--set", "reps=5",
        ])
        assert rc == 0
        medians = json.loads((tmp_path / "o" / "ssc_summary.json").read_text())["medians"]
        ratios = [m["median_ratio"] for m in sorted(medians, key=lambda m: m["r"])]
        assert ratios[0] > ratios[1] > ratios[2]

    def test_fairness_with_pools_bins_each_pool(self, tmp_path):
        rc = main([
            "fairness", "--out", str(tmp_path / "o"), "--set", "pools=0.5:1.0,0.5:2.0",
            "--set", "lambda_r=140", "--set", "staffing=100", "--set", "horizon=50",
        ])
        assert rc == 0
        rows = [line.split(",") for line in
                (tmp_path / "o" / "fairness.csv").read_text().splitlines()[1:]]
        assert [(float(lo), float(hi)) for lo, hi, *_ in rows] == [(0.5, 1.5), (1.5, 2.5)]
        # the size-biased pool shares 0.5*1 : 0.5*2
        assert [float(row[3]) for row in rows] == pytest.approx([1.0 / 3.0, 2.0 / 3.0])
        assert all(abs(float(row[2]) - float(row[3])) < 0.05 for row in rows)

    def test_couple_with_pools_takes_the_slowest_pool_rate(self, tmp_path):
        rc = main([
            "couple", "--out", str(tmp_path / "o"), "--set", "pools=0.5:0.5,0.5:2.0",
            "--set", "lambda_r=100", "--set", "staffing=100", "--set", "skeleton_events=2000",
        ])
        assert rc == 0
        info = json.loads((tmp_path / "o" / "couple.json").read_text())
        assert (info["p_rate"], info["q_rate"]) == (0.5, 2.0)
        assert info["ordered_everywhere"] is True

    @pytest.mark.parametrize(
        "command", ["simulate", "analyze", "staff", "ssc", "fairness", "couple"]
    )
    def test_pools_with_rates_exits_2(self, tmp_path, capsys, command):
        rc = main([
            command, "--out", str(tmp_path / "o"), "--set", "lambda_r=20",
            "--set", "pools=0.5:1.0,0.5:2.0", "--set", "rates=point(1.0)",
        ])
        assert rc == 2
        assert "config error: pools and rates both set the rate law" in capsys.readouterr().err

    def test_rerun_every_command(self, tmp_path):
        jobs = {
            "simulate": ["--set", "lambda_r=20.0", "--set", "horizon=5.0"],
            "analyze": ["--set", "beta=-1.0", "--set", "sigma=4.0", "--set", "gamma=2.0",
                        "--set", "nu=2.0"],
            "ql-sweep": ["--set", "eps_steps=3"],
            "couple": ["--set", "lambda_r=20.0", "--set", "r=20.0", "--set", "staffing=20",
                       "--set", "rates=uniform(0.8,1.2)", "--set", "p_rate=0.8",
                       "--set", "skeleton_events=400"],
        }
        for cmd, extra in jobs.items():
            out1 = tmp_path / f"{cmd}-1"
            out2 = tmp_path / f"{cmd}-2"
            assert main([cmd, "--out", str(out1), *extra]) == 0
            assert main(["rerun", str(out1 / "manifest.json"), "--out", str(out2)]) == 0
            m1 = json.loads((out1 / "manifest.json").read_text())
            m2 = json.loads((out2 / "manifest.json").read_text())
            assert m1["artifacts"] == m2["artifacts"]
            assert m1.get("stream_layout") == (2 if cmd in ("simulate", "couple") else None)


# --------------------------------------------------------------------------
# The JSON writer against json.dumps(sort_keys=True, indent=2), the oracle
# --------------------------------------------------------------------------

_EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
_JSON_FLOATS = st.one_of(
    st.floats(), st.sampled_from(_EDGE_FLOATS), st.floats().map(np.float64),
)
_JSON_TEXT = st.one_of(
    st.text(max_size=8),
    st.text(alphabet=st.sampled_from('"\\/\x00\x08\n\t\x1f\x7f\u00e9\u20ac\ud800\U0001d11ea'), max_size=8),
)
_JSON_SCALARS = st.one_of(
    _JSON_FLOATS, st.integers(), st.booleans(), st.just(2**70), st.none(), _JSON_TEXT,
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(_JSON_TEXT, kids, max_size=5),
        st.lists(_JSON_FLOATS, max_size=8),  # the one-join path
    ),
    max_leaves=24,
)


def _dumps(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


class TestJsonWriter:
    @given(_JSON_TREES)
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    def test_bytes_match_json_dumps(self, tree):
        assert _json_bytes(tree) == _dumps(tree)

    @given(st.lists(_JSON_FLOATS, max_size=12))
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    def test_rendered_floats_match_json_dumps(self, values):
        # staff and analyze render each float once, for the CSV and the JSON
        rendered = {"curve": {"x": hetq.cli._reprs(values)}}
        assert _json_bytes(rendered) == _dumps({"curve": {"x": [float(v) for v in values]}})

    @pytest.mark.parametrize("obj", [
        {1: "a"}, {None: 1}, {1.5: 0}, {"a": {2: 0}},  # keys json would coerce to strings
        np.int64(3), {1, 2}, [1.0, np.int64(1)], {"a": np.float32(0.5)}, [np.bool_(True)],
    ], ids=repr)
    def test_refuses_what_hetq_never_writes(self, obj):
        with pytest.raises(TypeError):
            _json_bytes(obj)


# --------------------------------------------------------------------------
# Command-output pins: the sha256 of every artifact, and of the manifest,
# from small runs of all seven commands. A change that alters any of them
# breaks the byte-identical rerun of earlier manifests.
# --------------------------------------------------------------------------

_SMALL = [
    "--set", "lambda_r=45.0", "--set", "r=50.0", "--set", "staffing=50",
    "--set", "horizon=5.0", "--set", "grid_points=100", "--seed", "11",
]

_COMMAND_JOBS = {
    "simulate_point": ["simulate", *_SMALL, "--set", "rates=point(1.0)"],
    "simulate_uniform": [
        "simulate", *_SMALL, "--set", "rates=uniform(0.8,1.2)", "--set", "policy=FSF",
        "--set", "abandon_mode=per_customer", "--set", "abandon_rate=0.5",
    ],
    "simulate_discrete": [
        "simulate", *_SMALL, "--set", "rates=discrete(0.5:0.25,1.0:0.5,1.5:0.25)",
        "--set", "policy=RANDOM",
    ],
    "simulate_pools": [
        "simulate", *_SMALL, "--set", "pools=0.5:0.8,0.5:1.2",
        "--set", "abandon_mode=perturbed", "--set", "abandon_rate=1.0",
    ],
    "simulate_reps": ["simulate", *_SMALL, "--set", "rates=uniform(0.8,1.2)", "--reps", "3"],
    "analyze": ["analyze", "--set", "density_points=21"],
    "staff_abandon": [
        "staff", "--set", "lambda_r=100.0", "--set", "rates=uniform(0.8,1.2)",
        "--set", "nu=1.0", "--set", "cost_model=abandon",
    ],
    "staff_waiting": [
        "staff", "--set", "lambda_r=100.0", "--set", "rates=point(1.0)",
        "--set", "cost_model=waiting", "--set", "bracket_lo=0.2",
    ],
    "ql_sweep": ["ql-sweep", "--set", "eps_steps=4"],
    "ssc": [
        "ssc", "--set", "pools=0.5:1.0,0.5:2.0", "--set", "r_values=16,25",
        "--set", "reps=2", "--set", "ssc_horizon=2.0",
    ],
    "fairness_uniform": ["fairness", *_SMALL, "--set", "rates=uniform(0.5,1.5)"],
    "fairness_point": ["fairness", *_SMALL, "--set", "rates=point(1.0)"],
    "couple": [
        "couple", *_SMALL, "--set", "rates=uniform(0.8,1.2)", "--set", "skeleton_events=300",
    ],
}
# --format json writes each CSV table as a header list and rows of string cells
_COMMAND_JOBS["simulate_uniform_json"] = [*_COMMAND_JOBS["simulate_uniform"], "--format", "json"]
_COMMAND_JOBS["staff_abandon_json"] = [*_COMMAND_JOBS["staff_abandon"], "--format", "json"]

# the analytics entries were taken when the normal tails moved from scipy.special
# to the numpy log-Mills kernel, which moved no value by more than 8.8e-16
# relative; staff_abandon, staff_abandon_json and ql_sweep were taken again when
# the abandonment drift average moved to the 16-256 node Gauss-Hermite ladder,
# which moved 6 of the 128 curve.csv values (x* kept) by at most 2.1e-16 and 7 of
# the 12 ql.csv values by at most 6.5e-16 relative
_COMMAND_PINS = {
    "analyze": {
        "analysis.json": "546cd709f43789b4d139a7c6d559ae67f63fd7efbef72fe735a9374f24b58cf0",
        "density.csv": "016a607690824c900a3f2e58e265ea2a0ca8bbb3fd23e1ffa02087d8c8ca8596",
        "manifest.json": "c11b079606a2df0a5beae6c2d983a89bc4a029b0fa0b6c7848d316678d116a51",
    },
    "couple": {
        "couple.csv": "8a9dbd5495505b32dff92ca39f664e0fa826d0e68c459f647777690e39613568",
        "couple.json": "ee0e2aae7281f63c753015dc62bc74aaae3367841dac90dbd47518d8720af5e5",
        "manifest.json": "64e22b75b98334c4c288553dd10e49f41ced1b9a0fc4ef72ce03f37d4097fb40",
    },
    "fairness_point": {
        "fairness.csv": "7299143446f08918e8e3d54a0539308ef9a07492ab809aec3ec9954eb300cb20",
        "fairness.json": "c08b0132d5ced96d6417a78eb4ba2203b26ae36a3a5c4e365b45e158e370748d",
        "manifest.json": "4624743d6e5a8bc920e961ed0b451c2fff3cc63239d8cb970cf5982b07ed8bf5",
    },
    "fairness_uniform": {
        "fairness.csv": "0dbec219d262d659fa2987b63e2a587a417b673005755ab2fa4b927ef967e29c",
        "fairness.json": "64c8d274dab6cf94bb83d83cf91f4171226502a0339e5923c601b8e0b0fc640f",
        "manifest.json": "4c346aa614cd100bdb15ab40c344e6b744a49e4c61661e1d0d42b730398f81d5",
    },
    "ql_sweep": {
        "ql.csv": "4b3db5fe55cd8cbba0ebb6c6e69bf88780276c8918c45b73ca0dca2613649500",
        "manifest.json": "9b43071e1278fa5dc6291e37e33c7216fbb637aefa7544f1fecb5233e88486d5",
    },
    "simulate_discrete": {
        "path.csv": "8cd31a17018295d46f05ca38dcf3033c77dadd15ba9223312ef06d8ec672dc79",
        "summary.json": "b920e51af266b33bbea2a4f7d1ace12bbccc80d6427d479e250b19a20c6cd3cf",
        "manifest.json": "a6580c5d15f5cebba006283d517f20f8465d3f226ae11ac9f715daf02d276583",
    },
    "simulate_point": {
        "path.csv": "d9c531700c474802829dd6a5797a124495f5082db858f26e69a26d287f243747",
        "summary.json": "0dea02c6d5ff0f4730d96d34646d5ec0248b2f2b0f79f91a02a99b87691ec83a",
        "manifest.json": "2f5eebb879b4485bc092a24e76943eb83469d27317f866b8afcc44442d7f3271",
    },
    "simulate_pools": {
        "path.csv": "85e5dbe9a854fc11e424df76bca53b5b7083a8d77dce95615199c14bbaeffc81",
        "summary.json": "7c4aea257ca86dd6cffec68519898c3f89e180ec2877e09148ae791bdccece21",
        "manifest.json": "d4af13c6d0777deb09bb0602ddc66358e1f4956ec80295ae94ea6f1b24969e67",
    },
    "simulate_reps": {
        "reps.csv": "b175112f91a62276e9fabf19c5772a4c4926e103fd72aa120d835b22bfa151ec",
        "summary.json": "e89480aa8b50ed42bd72f502c09247ca72ab5125f8310e6f48448ff39c81c6bb",
        "manifest.json": "2fdf0c41a6eec0892a1d560e559125ae63655ef2884f37bc2c4633b4a7e5df1f",
    },
    "simulate_uniform": {
        "path.csv": "55505bb488f98f5eef25ab424e84e1297da1be5cfcba0ae651b3c7c656fa1938",
        "summary.json": "ddacd182d05c7685d4538097555d770e114049a2aa577273ac9365f674f4b410",
        "manifest.json": "1f6e9014aecb54ddc062fd965d05742a2d828f9377dafcb7d5e9e8b637fa1a36",
    },
    "simulate_uniform_json": {
        "path.json": "2989d9853780e821b93a1a1d4b52347b9467dbc1236a425a063dc8af80dbb598",
        "summary.json": "ddacd182d05c7685d4538097555d770e114049a2aa577273ac9365f674f4b410",
        "manifest.json": "c2c81aed8a950e786a7267f5ab0ef3d0f9b36fddf5abb8cafa5283fad1cec785",
    },
    "ssc": {
        "ssc.csv": "fbc3236d3eeab7f18db9f200b735d03b94c68ffe934d13d7a6a3dbc3de41eabd",
        "ssc_summary.json": "936e5cc3cd5f9a400caaf02e2e35c4ac321c04877032011685a1b5cf90b85f5e",
        "manifest.json": "edc421037e65975e9c7c37e216efb358d2684b44ba93ca252e0986926344b603",
    },
    "staff_abandon": {
        "curve.csv": "381b91c6bed18cd013787ad128744c0bfa2f786478c4794d3568574298c3abf2",
        "staffing.json": "04d5c40b578da1fdf76f1e3673d1692da9bc4befe5913cba1a03c3083dc3820c",
        "manifest.json": "05e5ffc1cf68c48fa39240d6bd3aff41a07f20b76c289fa7ea054f95c34acf78",
    },
    "staff_abandon_json": {
        "curve.json": "4ce62f7d301115aa2c10be26dbcf445c3e38ae36a148028801484f74125fc178",
        "staffing.json": "04d5c40b578da1fdf76f1e3673d1692da9bc4befe5913cba1a03c3083dc3820c",
        "manifest.json": "1f10e9d03728f3ba9d320c601655e5714365b5bb85737f72eda9a32c7cfa0858",
    },
    "staff_waiting": {
        "curve.csv": "a01a43e975470083c6ee399b15e947c437dff41ea84516199796f65bd81ecb40",
        "staffing.json": "65c0b5d5d1dd7a5a178062fcd573604b7356aa3cd89120213f082a2edce8b940",
        "manifest.json": "b941a0598e5f857189633b9d2d36a0c1193e860ec0f69a3b664947f1ac5bb017",
    },
}


def _artifact_shas(job, out):
    command, *args = _COMMAND_JOBS[job]
    assert main([command, "--out", str(out), *args]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    return {name: sha(out / name) for name in [*manifest["artifacts"], "manifest.json"]}


class TestCommandPins:
    @pytest.mark.parametrize("job", sorted(_COMMAND_JOBS))
    def test_artifact_bytes(self, tmp_path, job):
        assert _artifact_shas(job, tmp_path) == _COMMAND_PINS[job]


# --------------------------------------------------------------------------
# fuzz of the analytics commands over each key's domain and its complement
# --------------------------------------------------------------------------

_EXTREMES = [math.nan, math.inf, -math.inf, 0.0, -1.0, 1e-300, 1e300]
_FLOATS = st.sampled_from(_EXTREMES) | st.floats(-1e3, 1e3)
# counts stay small inside their domains: a run's time grows with them, and
# the domain's upper bound is what keeps it finite (eps_steps=10^4 takes 20 s)
_INTS = st.integers(-2, 64) | st.sampled_from([10_001, 1_000_001, 2**63])
_WORDS = {
    "policy": ["LISF", "FSF", "RANDOM", "fastest"],
    "cost_model": ["waiting", "abandon", "none"],
    "abandon_mode": ["none", "per_customer", "perturbed", "perturb"],
    "record_idle": ["true", "false", "maybe"],
}
_TEXT = {
    "rates": st.one_of(
        st.builds("point({!r})".format, _FLOATS),
        st.builds("uniform({!r},{!r})".format, _FLOATS, _FLOATS),
        st.builds(
            lambda a, b, p: f"discrete({a!r}:{p!r},{b!r}:{1.0 - p!r})",
            _FLOATS, _FLOATS, st.floats(0.0, 1.0),
        ),
    ),
    "pools": st.builds(
        lambda b, m1, m2: f"{b!r}:{m1!r},{1.0 - b!r}:{m2!r}", st.floats(0.0, 1.0), _FLOATS, _FLOATS
    ),
    "staffing": st.builds(str, _INTS) | st.builds("hw({!r})".format, _FLOATS),
}

# the keys each command reads, and settings that let most draws reach the analytics
_FUZZ = {
    "analyze": (
        ["rates", "mu_bar", "arrival_scv", "sigma", "gamma", "policy", "beta", "theta",
         "nu", "abandon_rate", "density_span", "density_points"],
        [],
    ),
    "staff": (
        ["lambda_r", "r", "seed", "staffing", "arrival_scv", "abandon_rate", "policy",
         "pools", "rates", "cost_model", "c_s", "c_w", "d", "c_un", "nu", "bracket_lo",
         "bracket_hi", "opt_tol"],
        ["lambda_r=100", "nu=1", "rates=uniform(0.8,1.2)"],
    ),
    "ql-sweep": (["sigma", "theta", "nu", "mu_bar", "eps_min", "eps_max", "eps_steps"], []),
}


def _setting(key):
    """``key=value`` text, the value drawn inside the key's domain or outside it."""
    if key in _TEXT:
        return _TEXT[key].map(lambda text: f"{key}={text}")
    if key in _WORDS:
        return st.sampled_from(_WORDS[key]).map(lambda word: f"{key}={word}")
    parser, domain = CONFIG_KEYS[key]
    pool = _INTS if parser is int else _FLOATS
    inside = pool.filter(domain.holds)
    outside = pool.filter(lambda v: not domain.holds(v))
    return st.one_of(inside, inside, outside).map(lambda v: f"{key}={v!r}")


def _refuse_constant(name):
    raise AssertionError(f"non-finite {name} in an artifact")


def _assert_finite_artifacts(out):
    for path in out.iterdir():
        text = path.read_text(encoding="utf-8")
        if path.suffix == ".csv":
            for line in text.splitlines()[1:]:
                assert all(math.isfinite(float(v)) for v in line.split(",")), (path.name, line)
        else:
            json.loads(text, parse_constant=_refuse_constant)


def _fuzz(command, keys, base, examples, setting=_setting, also=st.just(())):
    """Draw ``examples`` settings of 1-3 of ``keys`` (plus ``also``) over ``base``.

    Each ends in exit 0, 2 or 3 within 10 s, with no RuntimeWarning from
    hetq's own code; exit 0 writes only finite numbers.
    """
    @given(st.data())
    @settings(
        max_examples=examples, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    def case(data):
        chosen = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
        chosen += data.draw(also)
        sets = [*base, *(data.draw(setting(key), label=key) for key in chosen)]
        with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            out = Path(tmp) / "o"
            args = [arg for kv in sets for arg in ("--set", kv)]
            rc = main_within([command, "--out", str(out), *args], seconds=10)
            assert rc in (0, 2, 3), sets
            ours = [str(w.message) for w in seen
                    if w.category is RuntimeWarning and Path(w.filename).parent.name == "hetq"]
            assert not ours, (sets, ours)
            if rc == 0:
                _assert_finite_artifacts(out)

    case()


class TestAnalyticsFuzz:
    """Every draw ends in exit 0, 2 or 3 within 10 s, with no RuntimeWarning from
    hetq's own code; exit 0 writes only finite numbers."""

    @pytest.mark.parametrize(
        "command,examples", [("analyze", 250), ("staff", 200), ("ql-sweep", 250)]
    )
    def test_exit_code_and_finite_artifacts(self, command, examples):
        _fuzz(command, *_FUZZ[command], examples)


# The simulation commands: the keys each reads besides pools and rates, and
# small runs to start from.
_SIM_FUZZ = {
    "simulate": (
        ["lambda_r", "r", "seed", "staffing", "arrival_scv", "abandon_rate", "policy",
         "horizon", "warmup", "abandon_mode", "x0", "grid_points", "queue_cap", "reps"],
        ["lambda_r=20", "horizon=5", "grid_points=50"],
    ),
    "ssc": (
        ["seed", "policy", "r_values", "lambda_hat", "ssc_horizon", "reps"],
        ["pools=0.5:1.0,0.5:2.0", "r_values=16,25", "reps=2", "ssc_horizon=2"],
    ),
    "fairness": (
        ["lambda_r", "r", "seed", "staffing", "arrival_scv", "abandon_rate", "policy",
         "horizon", "bins", "grid_points", "record_idle"],
        ["lambda_r=20", "staffing=25", "horizon=5", "grid_points=50"],
    ),
    "couple": (
        ["lambda_r", "r", "seed", "staffing", "arrival_scv", "abandon_rate", "policy",
         "p_rate", "skeleton_events"],
        ["lambda_r=20", "staffing=25", "skeleton_events=300"],
    ),
}
_SIM_TIME = st.sampled_from(_EXTREMES) | st.floats(0.0, 5.0)
_SIM_DRAWS = {
    # a run's time grows with these, so they are drawn small inside their
    # domains, plus the values outside them
    "horizon": _SIM_TIME,
    "ssc_horizon": _SIM_TIME,
    "lambda_r": st.sampled_from(_EXTREMES) | st.floats(0.0, 200.0),
    "staffing": st.integers(-2, 200) | st.sampled_from([1_000_001, 2**63]),
    "reps": st.integers(-2, 4) | st.sampled_from([100_001, 2**63]),
    "skeleton_events": st.integers(-2, 2_000) | st.sampled_from([1_000_001, 2**63]),
    "r_values": st.lists(
        st.sampled_from(_EXTREMES) | st.floats(-10.0, 200.0), min_size=1, max_size=3
    ).map(lambda vs: ",".join(map(repr, vs))),
    # half of the laws are valid, so that pools and rates often reach a run together
    "pools": st.sampled_from(["0.5:1.0,0.5:2.0", "0.3:0.5,0.7:1.5"]) | _TEXT["pools"],
    "rates": st.sampled_from(["uniform(0.5,1.5)", "discrete(0.5:0.5,2.0:0.5)"]) | _TEXT["rates"],
}


def _sim_setting(key):
    if key not in _SIM_DRAWS:
        return _setting(key)
    return _SIM_DRAWS[key].map(lambda v: f"{key}={v if isinstance(v, str) else repr(v)}")


class TestSimulationFuzz:
    """The analytics fuzz's contract for the commands that simulate. ``pools``
    and ``rates`` are drawn together (neither, either or both), and the
    event counts stay small: a run expects at most about 10^6 events."""

    @pytest.mark.parametrize(
        "command,examples", [("simulate", 300), ("ssc", 150), ("fairness", 250), ("couple", 250)]
    )
    def test_exit_code_and_finite_artifacts(self, command, examples):
        keys, base = _SIM_FUZZ[command]
        law = st.lists(st.sampled_from(["pools", "rates"]), max_size=2, unique=True)
        _fuzz(command, keys, base, examples, setting=_sim_setting, also=law)


# JSON values of another type than a manifest's config strings
_JSON_TYPES = st.sampled_from([[5], None, {"a": 1}, True, 5, 2.5, "x"])


def _in_domain(key, value) -> bool:
    try:
        parse_config_text(f"{key} = {value}")
    except ConfigError:
        return False
    return True


class TestRerunFuzz:
    """``rerun`` of a manifest from a small exit-0 run, drawn as in
    ``TestSimulationFuzz``, with one config value (inside its domain, outside
    it, or of another JSON type) or one checksum changed. Each ends in exit 0,
    2 or 3 within 10 s; a changed checksum exits 2 naming its artifact, and a
    value outside its key's domain exits 2 naming the key."""

    @pytest.mark.parametrize(
        "command,examples", [("simulate", 25), ("ssc", 15), ("fairness", 20), ("couple", 20)]
    )
    def test_one_change_exits_by_name(self, command, examples, capsys):
        keys, base = _SIM_FUZZ[command]

        @given(st.data())
        @settings(
            max_examples=examples, derandomize=True, database=None, deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        )
        def case(data):
            chosen = data.draw(st.lists(st.sampled_from(keys), min_size=1, max_size=3, unique=True))
            law = st.lists(st.sampled_from(["pools", "rates"]), max_size=2, unique=True)
            chosen += data.draw(law)
            sets = [*base, *(data.draw(_sim_setting(key), label=key) for key in chosen)]
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp)
                args = [arg for kv in sets for arg in ("--set", kv)]
                rc = main_within([command, "--out", str(out / "a"), *args], seconds=10)
                capsys.readouterr()
                assume(rc == 0)
                manifest = json.loads((out / "a" / "manifest.json").read_text(encoding="utf-8"))
                config, artifacts = manifest["config"], manifest["artifacts"]
                key = name = None
                if data.draw(st.booleans(), label="checksum"):
                    name = data.draw(st.sampled_from(sorted(artifacts)), label="artifact")
                    old = artifacts[name]
                    artifacts[name] = ("1" if old[0] == "0" else "0") + old[1:]
                else:
                    key = data.draw(st.sampled_from(sorted(config)), label="key")
                    drawn = _sim_setting(key).map(lambda kv: kv.partition("=")[2])
                    config[key] = data.draw(drawn | _JSON_TYPES, label="value")
                (out / "m.json").write_text(json.dumps(manifest), encoding="utf-8")
                rerun = ["rerun", str(out / "m.json"), "--out", str(out / "b")]
                rc = main_within(rerun, seconds=10)
                err = capsys.readouterr().err
            assert rc in (0, 2, 3), (sets, err)
            if name is not None:
                assert rc == 2 and f"did not reproduce artifact {name}:" in err, (sets, err)
            elif not _in_domain(key, config[key]):
                assert rc == 2 and err.startswith(f"config error: {key} must be "), (sets, err)

        case()
