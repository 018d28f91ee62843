"""Command-line front end: config files in, plot-ready CSV/JSON out.

Every command resolves its configuration (file plus ``--set`` overrides),
writes its data artifacts into ``--out``, and finishes with a
``manifest.json`` recording the fully resolved config, the seed, and a
sha256 per artifact. ``hetq rerun manifest.json`` replays a manifest and
checks that the artifacts reproduce byte for byte. A command whose random
streams are consumed differently from earlier hetq versions is listed in
``_STREAM_LAYOUT``; its manifests carry the layout number, and a manifest
of another layout is refused instead of rerun to different bytes.

Exit codes: 0 success, 2 configuration error, 3 numerical-domain error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from itertools import chain
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from . import diffusion as dfn
from . import ssc as ssc_mod
from .core import (
    MAX_DENSITY_SPAN,
    HalfinWhitt,
    Policy,
    RateDistribution,
    RealizedSystem,
    SystemConfig,
    format_config,
    load_config_file,
    parse_config_text,
)
from .errors import ConfigError, DomainError
from .sim import (
    AbandonMode,
    coupled_run,
    path_summary,
    path_to_csv,
    replicate,
    run,
    steady_estimates,
)
from .staffing import CostSpec, cost_aband, cost_no_aband, optimize_staffing

COMMANDS = ("simulate", "analyze", "staff", "ql-sweep", "ssc", "fairness", "couple")

# stream layout per command; a command not listed is layout 1. couple is 2
# since coupled_run picks the freed server by rejection, reading its
# ROUTING stream a variable number of times per pick. simulate, ssc and
# fairness are 2 since run() takes departures from a rate-sum-mu skeleton
# (SKELETON exponentials, SERVICE uniforms) instead of one SERVICE
# exponential per customer.
_STREAM_LAYOUT = {"simulate": 2, "ssc": 2, "fairness": 2, "couple": 2}
_CSV_BLOCK = 4096  # rows of a CSV artifact formatted by one %


def _csv(header: str, fmt: str, *columns) -> bytes:
    """The ``header`` line, then one line per row of ``columns``, formatted by ``fmt``.

    ``fmt`` holds "%r" for a float column, whose cells are repr(float(x)),
    and "%d" for an integer one. Each column becomes a list once, in blocks
    of _CSV_BLOCK rows, and one ``%`` formats each block.
    """
    cols = [np.asarray(c, dtype=float if f == "%r" else None) for f, c in zip(fmt.split(","), columns)]
    blocks = [header.encode() + b"\n"]
    for start in range(0, len(cols[0]), _CSV_BLOCK):
        rows = tuple(chain.from_iterable(zip(*(c[start:start + _CSV_BLOCK].tolist() for c in cols))))
        blocks.append((((fmt + "\n") * (len(rows) // len(cols))) % rows).encode())
    return b"".join(blocks)


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _resolve_values(config_path: Optional[str], overrides, seed, reps) -> dict:
    """The config file's values, then ``--set``, ``--seed`` and ``--reps``, each parsed."""
    values = load_config_file(config_path) if config_path else {}
    flags = [f"{key}={v}" for key, v in (("seed", seed), ("reps", reps)) if v is not None]
    for item in [*(overrides or ()), *flags]:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        values.update(parse_config_text(item))
    return values


def _system_config(values: dict) -> SystemConfig:
    try:
        lambda_r = float(values["lambda_r"])
    except KeyError:
        raise ConfigError("missing required key 'lambda_r'") from None
    r = float(values.get("r", lambda_r if lambda_r > 0 else 1.0))
    return SystemConfig(
        r=r,
        lambda_r=lambda_r,
        seed=int(values["seed"]),
        staffing=values.get("staffing", HalfinWhitt(1.0)),
        arrival_scv=float(values.get("arrival_scv", 1.0)),
        abandon_rate=float(values.get("abandon_rate", 0.0)),
        policy=values.get("policy", Policy.LISF),
        pools=values.get("pools"),
    )


def _rates(values: dict) -> RateDistribution:
    """The config's rate law: the pools' discrete law when pools are set, else ``rates``."""
    if "pools" in values:
        return RateDistribution.from_pools(values["pools"])
    return values.get("rates", RateDistribution.point(1.0))


def _diffusion_params(values: dict) -> dfn.DiffusionParams:
    dist = _rates(values)
    mu_bar = float(values.get("mu_bar", dist.mean()))
    scv = float(values.get("arrival_scv", 1.0))
    sigma = float(values.get("sigma", math.sqrt(mu_bar * (scv + 1.0))))
    if "gamma" in values:
        gamma = float(values["gamma"])
    else:
        gamma = dist.idleness_coefficient(values.get("policy", Policy.LISF))
    if "beta" in values:
        beta = float(values["beta"])
    else:
        theta = float(values.get("theta", 1.0))
        beta = -theta * mu_bar
    nu = float(values.get("nu", values.get("abandon_rate", 0.0)))
    return dfn.DiffusionParams(sigma=sigma, beta=beta, gamma=gamma, nu=nu)


# --------------------------------------------------------------------------
# command handlers: values -> {filename: bytes}
# --------------------------------------------------------------------------

def _cmd_simulate(values: dict) -> Dict[str, bytes]:
    config = _system_config(values)
    dist = _rates(values)
    horizon = float(values["horizon"])
    warmup = float(values["warmup"])
    mode = AbandonMode(values["abandon_mode"])
    n_reps = values["reps"]
    grid_points = int(values["grid_points"])
    queue_cap = int(values["queue_cap"])
    if n_reps == 1:
        system = RealizedSystem.from_config(config, dist)
        path = run(
            config,
            system,
            horizon,
            mode=mode,
            x0=values.get("x0"),
            grid_points=grid_points,
            queue_cap=queue_cap,
            warmup=warmup,
        )
        est = steady_estimates(path)
        summary = path_summary(path)
        summary["estimates"] = {
            "p_wait": est.p_wait,
            "mean_Q": est.mean_Q,
            "abandon_rate": est.abandon_rate,
            "mean_scaled_queue": est.mean_scaled_queue,
            "warmup_fraction": warmup,
        }
        summary["realized_rates_head"] = system.mu[:32].tolist()
        summary["zeta_hat"] = system.zeta_hat
        return {"path.csv": path_to_csv(path).encode(), "summary.json": _json_bytes(summary)}
    reps = replicate(
        config, dist, n_reps, horizon, mode=mode, warmup=warmup, grid_points=grid_points,
        x0=values.get("x0"), queue_cap=queue_cap,
    )
    csv = _csv("rep,zeta_hat,p_wait,mean_Q,abandon_rate,mean_scaled_queue", "%d,%r,%r,%r,%r,%r",
               *zip(*((rr.rep, rr.zeta_hat, rr.estimates.p_wait, rr.estimates.mean_Q,
                       rr.estimates.abandon_rate, rr.estimates.mean_scaled_queue) for rr in reps)))
    summary = {
        "reps": n_reps,
        "mean_p_wait": float(np.mean([rr.estimates.p_wait for rr in reps])),
        "mean_Q": float(np.mean([rr.estimates.mean_Q for rr in reps])),
        "mean_abandon_rate": float(np.mean([rr.estimates.abandon_rate for rr in reps])),
        "stable_fraction": float(np.mean([rr.stable for rr in reps])),
    }
    return {"reps.csv": csv, "summary.json": _json_bytes(summary)}


@np.errstate(all="ignore")  # a law lost to overflow is refused by name, not warned about
def _cmd_analyze(values: dict) -> Dict[str, bytes]:
    params = _diffusion_params(values)
    if params.nu > 0.0:
        dens = dfn.stationary_aband(params)
    else:
        dens = dfn.stationary_no_aband(params)
    epp = dfn.expected_positive_part(params)
    span = values.get("density_span")
    if span is None:
        upper_scale = dens.upper.mean() if params.nu == 0.0 else abs(params.beta / params.nu) + params.sigma
        lower_scale = abs(params.beta / params.gamma) + params.sigma
        span = 5.0 * max(upper_scale, lower_scale, 1.0)
        if not span <= MAX_DENSITY_SPAN:  # also true for NaN
            raise DomainError(
                f"the density span {span!r} derived from sigma, beta, gamma and nu "
                f"exceeds {MAX_DENSITY_SPAN!r}; set density_span"
            )
    xs = np.linspace(-span, span, values["density_points"])
    pdf = dens.pdf(xs)
    info = {
        "sigma": params.sigma,
        "beta": params.beta,
        "gamma": params.gamma,
        "nu": params.nu,
        "varrho": dens.varrho,
        "mean_positive_part": epp,
        "continuity_residual": dens.continuity_residual(),
        "density_grid": {"x": xs.tolist(), "pdf": pdf.tolist()},
    }
    return {
        "density.csv": _csv("x,pdf", "%r,%r", xs, pdf),
        "analysis.json": _json_bytes(info),
    }


def _cmd_staff(values: dict) -> Dict[str, bytes]:
    config = _system_config(values)
    dist = _rates(values)
    model = values["cost_model"]
    cost = CostSpec(
        c_s=float(values["c_s"]),
        c_w=float(values["c_w"]),
        d=float(values["d"]),
        c_un=float(values["c_un"]),
        nu=float(values.get("nu", values.get("abandon_rate", 0.0))),
    )
    cost_fn = cost_aband if model == "abandon" else cost_no_aband
    bracket = (float(values["bracket_lo"]), float(values["bracket_hi"]))
    tol = float(values["opt_tol"])
    res = optimize_staffing(lambda x: cost_fn(x, config, dist, cost), bracket, tol=tol)
    info = {
        "x_star": res.x_star,
        "N_star": HalfinWhitt(res.x_star).resolve(config.lambda_r, dist.mean()),
        "cost_at_optimum": res.cost_at_optimum,
        "bracket": list(res.bracket),
        "tol": res.tol,
        "unimodal": res.unimodal,
        "used_grid_fallback": res.used_grid_fallback,
        "cost_model": model,
        "curve": {
            "x": res.curve_x.tolist(),
            "cost": res.curve_cost.tolist(),
        },
    }
    return {
        "staffing.json": _json_bytes(info),
        "curve.csv": _csv("x,cost", "%r,%r", res.curve_x, res.curve_cost),
    }


def _cmd_ql_sweep(values: dict) -> Dict[str, bytes]:
    sigma = float(values["sigma"])
    theta = float(values["theta"])
    nu = float(values["nu"])
    mu_bar = float(values["mu_bar"])
    for key in ("eps_min", "eps_max"):  # ql_eps checks each eps too, but names no key
        eps = values[key]
        if not 0.0 < mu_bar - eps < mu_bar + eps < math.inf:
            raise DomainError(
                f"{key} must lie in (0, mu_bar) with mu_bar +- {key} distinct finite "
                f"doubles; mu_bar = {mu_bar!r}, got {eps!r}"
            )
    eps_grid = np.linspace(values["eps_min"], values["eps_max"], values["eps_steps"])
    ql = [[dfn.ql_eps(eps, mu_bar, sigma, theta, nu, policy=p) for p in (Policy.LISF, Policy.FSF)]
          for eps in eps_grid.tolist()]
    return {"ql.csv": _csv("eps,QL_lisf,QL_fsf", "%r,%r,%r", eps_grid, *zip(*ql))}


def _cmd_ssc(values: dict) -> Dict[str, bytes]:
    pools = values.get("pools")
    if pools is None:
        raise ConfigError("ssc needs the 'pools' key (inverted-V structure)")
    r_values = values["r_values"]
    lambda_hat = float(values["lambda_hat"])
    horizon = float(values["ssc_horizon"])
    n_reps = values["reps"]
    seed = int(values["seed"])
    policy = values.get("policy", Policy.LISF)
    configs = [
        ssc_mod.inverted_v_config(rv, pools, lambda_hat, seed=seed, policy=policy)
        for rv in r_values
    ]
    table = ssc_mod.ssc_convergence(configs, horizon, n_reps=n_reps)
    keys = ("r", "rep", "g_supnorm", "z_supnorm", "ratio")
    return {
        "ssc.csv": _csv(",".join(keys), "%r,%d,%r,%r,%r", *([row[k] for row in table.rows] for k in keys)),
        "ssc_summary.json": _json_bytes({"medians": table.medians()}),
    }


def _cmd_fairness(values: dict) -> Dict[str, bytes]:
    config = _system_config(values)
    dist = _rates(values)
    n_bins = int(values["bins"])
    system = RealizedSystem.from_config(config, dist)
    if n_bins > system.n_servers:
        raise ConfigError(f"bins must be at most the server count {system.n_servers}, got {n_bins}")
    edges = ssc_mod.default_bins(dist, n_bins)
    # servers grouped by rate bin: the busy counts per group give the idle
    # counts per bin that the sup discrepancy needs
    by_bin = system.grouped(ssc_mod.rate_bin(system.mu, edges), edges.size - 1)
    path = run(config, by_bin, float(values["horizon"]), grid_points=int(values["grid_points"]))
    fe = ssc_mod.fairness_estimate(path, edges, dist=dist)
    info = {
        "policy": config.policy.value,
        "total_idle_time": fe.total_idle_time,
        "sup_discrepancy": fe.sup_discrepancy if values["record_idle"] else None,
        "sup_abs_error": float(np.abs(fe.eta_hat - fe.eta_theory).max()),
    }
    return {
        "fairness.csv": _csv("bin_lo,bin_hi,eta_hat,eta_theory", "%r,%r,%r,%r",
                             edges[:-1], edges[1:], fe.eta_hat, fe.eta_theory),
        "fairness.json": _json_bytes(info),
    }


def _cmd_couple(values: dict) -> Dict[str, bytes]:
    events = int(values["skeleton_events"])
    config = _system_config(values)
    dist = _rates(values)
    system = RealizedSystem.from_config(config, dist)
    p_rate = float(values.get("p_rate", dist.p))
    q_rate = dist.q  # every realized rate lies in the law's support
    horizon = events / (system.n_servers * q_rate)
    cp = coupled_run(config, p_rate, system, horizon, q_rate=q_rate)
    csv = _csv("t,D_hom,D_het", "%r,%d,%d", cp.skeleton_t, cp.d_hom, cp.d_het)
    info = {
        "ordered_everywhere": cp.ordered_everywhere(),
        "skeleton_points": int(cp.skeleton_t.size),
        "p_rate": cp.p_rate,
        "q_rate": cp.q_rate,
        "final_gap": int(cp.d_het[-1] - cp.d_hom[-1]) if cp.skeleton_t.size else 0,
    }
    return {"couple.csv": csv, "couple.json": _json_bytes(info)}


_HANDLERS = {
    "simulate": _cmd_simulate,
    "analyze": _cmd_analyze,
    "staff": _cmd_staff,
    "ql-sweep": _cmd_ql_sweep,
    "ssc": _cmd_ssc,
    "fairness": _cmd_fairness,
    "couple": _cmd_couple,
}

# simple defaults materialized into the manifest; derived quantities
# (sigma from the rate law, r from lambda_r, ...) stay derived
_DEFAULTS = {
    "simulate": {
        "seed": 0, "horizon": 1000.0, "warmup": 0.2, "abandon_mode": "none",
        "grid_points": 10_000, "queue_cap": 1_000_000, "reps": 1,
    },
    "analyze": {"density_points": 401},
    "staff": {
        "seed": 0, "cost_model": "abandon", "c_s": 1.0, "c_w": 1.0, "d": 1.0,
        "c_un": 0.0, "bracket_lo": 0.05, "bracket_hi": 6.0, "opt_tol": 1e-4,
    },
    "ql-sweep": {
        "sigma": 4.0, "theta": 2.0, "nu": 2.0, "mu_bar": 1.0,
        "eps_min": 0.05, "eps_max": 0.5, "eps_steps": 10,
    },
    "ssc": {
        "seed": 0, "r_values": (25.0, 100.0, 400.0), "lambda_hat": -3.0,
        "ssc_horizon": 50.0, "reps": 30,
    },
    "fairness": {
        "seed": 0, "horizon": 1000.0, "bins": 10, "record_idle": True,
        "grid_points": 10_000,
    },
    "couple": {"seed": 0, "skeleton_events": 10_000},
}

def dispatch(command: str, values: dict, out_dir, fmt: str = "csv") -> dict:
    """Run one command and write its artifacts plus manifest into out_dir."""
    if command not in _HANDLERS:
        raise ConfigError(f"unknown command {command!r}")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use {out} as the output directory: {exc.strerror}") from None
    values = {**_DEFAULTS.get(command, {}), **values}
    if "pools" in values and "rates" in values:
        raise ConfigError("pools and rates both set the rate law; set one of them")
    artifacts = _HANDLERS[command](values)
    if fmt == "json":
        converted = {}
        for name, data in artifacts.items():
            if name.endswith(".csv"):
                lines = data.decode("utf-8").strip().splitlines()
                table = {
                    "header": lines[0].split(","),
                    "rows": [line.split(",") for line in lines[1:]],
                }
                converted[name[:-4] + ".json"] = _json_bytes(table)
            else:
                converted[name] = data
        artifacts = converted
    checksums = {}
    for name, data in sorted(artifacts.items()):
        (out / name).write_bytes(data)
        checksums[name] = _sha256(data)
    config_map = {}
    for line in format_config(values).strip().splitlines():
        key, _, rendered = line.partition(" = ")
        config_map[key] = rendered
    manifest = {
        "command": command,
        "format": fmt,
        "seed": int(values.get("seed", 0)),
        "config": config_map,
        "artifacts": checksums,
    }
    if command in _STREAM_LAYOUT:
        manifest["stream_layout"] = _STREAM_LAYOUT[command]
    (out / "manifest.json").write_bytes(_json_bytes(manifest))
    return manifest


def rerun_manifest(manifest_path, out_dir) -> dict:
    """Replay a manifest; artifact bytes must reproduce exactly.

    A manifest of another stream layout is refused before anything runs. The
    replay writes its artifacts, then each sha256 is compared with the
    manifest's; the first that differs is named in a ``ConfigError``.
    """
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read manifest {manifest_path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"manifest {manifest_path} is not JSON: {exc}") from None
    if not (isinstance(manifest, dict) and isinstance(manifest.get("config"), dict)
            and isinstance(manifest.get("artifacts"), dict)
            and isinstance(manifest.get("command"), str)):
        raise ConfigError(
            f"manifest {manifest_path} needs a 'command' string, a 'config' and an "
            "'artifacts' object"
        )
    command = manifest["command"]
    layout = manifest.get("stream_layout", 1)
    current = _STREAM_LAYOUT.get(command, 1)
    if layout != current:
        raise ConfigError(
            f"manifest {manifest_path} has stream_layout {layout}, but {command} now uses "
            f"stream_layout {current}; its artifacts cannot be reproduced"
        )
    text = "\n".join(f"{k} = {v}" for k, v in manifest["config"].items())
    values = parse_config_text(text)
    result = dispatch(command, values, out_dir, fmt=manifest.get("format", "csv"))
    expected, got = manifest["artifacts"], result["artifacts"]
    for name in sorted(expected.keys() | got.keys()):
        if expected.get(name) != got.get(name):
            raise ConfigError(
                f"rerun of {manifest_path} did not reproduce artifact {name}: sha256 "
                f"{got.get(name)} against the manifest's {expected.get(name)}"
            )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hetq",
        description="Heterogeneous many-server queue simulator and analytics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="flat key = value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
        p.add_argument("--format", default="csv", choices=("csv", "json"))
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
    p = sub.add_parser("rerun")
    p.add_argument("manifest")
    p.add_argument("--out", required=True)

    args = parser.parse_args(argv)
    try:
        if args.command == "rerun":
            rerun_manifest(args.manifest, args.out)
        else:
            values = _resolve_values(args.config, args.set, args.seed, args.reps)
            dispatch(args.command, values, args.out, fmt=args.format)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
