"""Which hetq functions the traced run wraps, and the per-layer metrics.

The layers are the package's modules: core, sim, ssc, diffusion, staffing
and cli (errors does no work). Each function is wrapped under every name
its callers look it up by; ``run`` for instance is bound in ``hetq.cli``
(simulate, fairness), ``hetq.ssc`` (ssc_convergence) and ``hetq.sim``
(the binding ``replicate`` uses).
"""

from __future__ import annotations

import os
import resource
import statistics
from typing import Dict, List

import numpy as np

from spans import Probe, Tracer

PER_LAYER = (
    "sim.run.calls", "sim.run.self_s", "sim.run.events", "sim.run.events_per_s",
    "sim.run.peak_rss_delta_mb", "sim.run.p50_ms", "sim.run.p90_ms",
    "sim.coupled_run.calls", "sim.coupled_run.self_s", "sim.coupled_run.points_per_s",
    "sim.replicate.self_s", "sim.steady_estimates.self_s", "sim.path_to_csv.self_s",
    "sim.path_to_csv.bytes",
    "ssc.ssc_convergence.self_s", "ssc.fairness_estimate.self_s",
    "core.realize.calls", "core.realize.self_s", "core.rng_stream.calls",
    "staffing.optimize_staffing.calls", "staffing.optimize_staffing.self_s",
    "staffing.optimize_staffing.p50_ms", "staffing.optimize_staffing.p90_ms",
    "staffing.cost_aband.calls", "staffing.cost_aband.self_s",
    "staffing.cost_no_aband.calls", "staffing.cost_no_aband.self_s",
    "staffing.cost_evals_per_solve", "staffing.erlang_c.self_s", "staffing.erlang_a.self_s",
    "diffusion.ql_eps.calls", "diffusion.ql_eps.self_s",
    "diffusion.stationary_aband.calls", "diffusion.stationary_aband.self_s",
    "diffusion.stationary_no_aband.calls", "diffusion.stationary_no_aband.self_s",
    "diffusion.expected_positive_part.calls", "diffusion.expected_positive_part.self_s",
    "diffusion.prob_wait_no_aband.calls",
    "cli.dispatch.calls", "cli.dispatch.self_s", "cli.dispatch.bytes_written",
    "trace.overhead_s",
)

_UNITS = {"calls": "count", "events": "count", "bytes": "bytes", "bytes_written": "bytes",
          "self_s": "s", "overhead_s": "s", "p50_ms": "ms", "p90_ms": "ms",
          "events_per_s": "events/s", "points_per_s": "points/s",
          "peak_rss_delta_mb": "MiB", "cost_evals_per_solve": "count"}


def unit(metric: str) -> str:
    return _UNITS[metric.rsplit(".", 1)[1]]


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_after(rss0, args, kwargs, path) -> dict:
    events = path.arrivals_total + path.departures_total + path.abandon_total
    return {"events": float(events), "rss_delta_mb": _maxrss_mb() - rss0}


def _dir_bytes(root) -> int:
    total = 0
    for dirpath, _, files in os.walk(root):
        total += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return total


def probes() -> List[Probe]:
    import hetq.cli as cli
    import hetq.core as core
    import hetq.diffusion as diffusion
    import hetq.sim as sim
    import hetq.ssc as ssc
    import hetq.staffing as staffing

    def span(name, *bindings, **hooks):
        return Probe(name, tuple(bindings), "span", **hooks)

    return [
        span("cli.dispatch", (cli, "dispatch"),
             after=lambda _t, args, kw, _r: {"bytes_written": float(_dir_bytes(args[2]))}),
        span("sim.run", (cli, "run"), (ssc, "run"), (sim, "run"),
             before=lambda args, kw: _maxrss_mb(), after=_run_after),
        span("sim.coupled_run", (cli, "coupled_run"),
             after=lambda _t, _a, _k, cp: {"points": float(cp.skeleton_t.size)}),
        span("sim.replicate", (cli, "replicate")),
        span("sim.steady_estimates", (cli, "steady_estimates"), (sim, "steady_estimates")),
        span("sim.path_to_csv", (cli, "path_to_csv"),
             after=lambda _t, _a, _k, text: {"bytes": float(len(text))}),
        span("ssc.ssc_convergence", (ssc, "ssc_convergence")),
        span("ssc.fairness_estimate", (ssc, "fairness_estimate")),
        span("core.realize", (core.RealizedSystem, "realize"), (core.RealizedSystem, "realize_pools")),
        span("staffing.optimize_staffing", (cli, "optimize_staffing")),
        span("staffing.erlang_c", (staffing, "erlang_c")),
        span("staffing.erlang_a", (staffing, "erlang_a")),
        span("diffusion.ql_eps", (diffusion, "ql_eps")),
        span("diffusion.stationary_aband", (diffusion, "stationary_aband")),
        span("diffusion.stationary_no_aband", (diffusion, "stationary_no_aband")),
        span("diffusion.expected_positive_part", (diffusion, "expected_positive_part"),
             (staffing, "expected_positive_part")),
        Probe("core.rng_stream", ((cli, "rng_stream"), (sim, "rng_stream"), (core, "rng_stream")), "count"),
        Probe("diffusion.prob_wait_no_aband",
              ((diffusion, "prob_wait_no_aband"), (staffing, "prob_wait_no_aband")), "count"),
        Probe("staffing.cost_aband", ((cli, "cost_aband"),), "timed_count"),
        Probe("staffing.cost_no_aband", ((cli, "cost_no_aband"),), "timed_count"),
    ]


def _quantile_ms(durations, q: float) -> float:
    return float(np.percentile(durations, 100.0 * q)) * 1e3 if durations else 0.0


def pass_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics of one traced pass over the work list."""
    recs = tracer.by_name()
    empty = {"calls": 0, "self_s": 0.0, "durations": [], "attrs": {}}
    get = lambda name: recs.get(name, empty)  # noqa: E731
    out: Dict[str, float] = {}
    for metric in PER_LAYER:
        name, stat = metric.rsplit(".", 1)
        if stat in ("calls", "self_s"):
            out[metric] = float(get(name)[stat])
    run, cp, opt = get("sim.run"), get("sim.coupled_run"), get("staffing.optimize_staffing")
    out["sim.run.events"] = run["attrs"].get("events", 0.0)
    out["sim.run.events_per_s"] = out["sim.run.events"] / run["self_s"] if run["self_s"] else 0.0
    out["sim.run.peak_rss_delta_mb"] = run["attrs"].get("rss_delta_mb", 0.0)
    out["sim.run.p50_ms"] = _quantile_ms(run["durations"], 0.5)
    out["sim.run.p90_ms"] = _quantile_ms(run["durations"], 0.9)
    points = cp["attrs"].get("points", 0.0)
    out["sim.coupled_run.points_per_s"] = points / cp["self_s"] if cp["self_s"] else 0.0
    out["sim.path_to_csv.bytes"] = get("sim.path_to_csv")["attrs"].get("bytes", 0.0)
    out["staffing.optimize_staffing.p50_ms"] = _quantile_ms(opt["durations"], 0.5)
    out["staffing.optimize_staffing.p90_ms"] = _quantile_ms(opt["durations"], 0.9)
    evals = get("staffing.cost_aband")["calls"] + get("staffing.cost_no_aband")["calls"]
    out["staffing.cost_evals_per_solve"] = evals / opt["calls"] if opt["calls"] else 0.0
    out["cli.dispatch.bytes_written"] = get("cli.dispatch")["attrs"].get("bytes_written", 0.0)
    return out


def combine(per_pass: List[Dict[str, float]], traced_walls, untraced_walls) -> Dict[str, float]:
    """Median over traced passes; the RSS growth is the largest seen.

    The first traced pass runs before any untraced one, so it is the pass
    in which ``run`` can raise the process's peak RSS.
    """
    out = {}
    for metric in PER_LAYER[:-1]:
        vals = [p[metric] for p in per_pass]
        out[metric] = max(vals) if metric == "sim.run.peak_rss_delta_mb" else statistics.median(vals)
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return out


# Timed counters run inside optimize_staffing, whose self time already holds them.
_INSIDE_OTHER_SPANS = ("staffing.cost_aband.self_s", "staffing.cost_no_aband.self_s")


def stress_lines(m: Dict[str, float], traced_wall: float) -> List[str]:
    """Shares that show which layers a workload stresses."""
    def layer_self(*layers_):
        return sum(v for k, v in m.items() if k.endswith(".self_s") and k.split(".")[0] in layers_
                   and k not in _INSIDE_OTHER_SPANS)

    return [
        f"share sim.run.self_s / traced wall_s           {m['sim.run.self_s'] / traced_wall:.3f}",
        f"share (staffing + diffusion) self_s / wall_s   {layer_self('staffing', 'diffusion') / traced_wall:.3f}",
        "self_s sim.coupled_run {:.4f}  ssc {:.4f}  core {:.4f}  cli {:.4f}".format(
            m["sim.coupled_run.self_s"], layer_self("ssc"), layer_self("core"), layer_self("cli")),
    ]
