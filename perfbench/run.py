#!/usr/bin/env python3
"""hetq benchmark: seeded workloads driven through the ``hetq`` command.

Run from the root of a hetq checkout:

    python3 perfbench/run.py --workload long-path --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1        # all workloads, each in its own process

A run builds the workload's seeded work list, warms up, then repeats the
list (one client, one operation at a time) until ``--seconds`` have passed,
checking every operation's output. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates traced and untraced
passes and reports the per-layer metrics. Times are scaled to a reference
speed (``speed.py``). The last line of standard output is one JSON object:
correct, attempted, failed, metrics. Artifact digests, the environment
stamp and the spans go to ``.bench_out/``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, so a small machine measures the program
# and not the scheduler.
THREAD_PINS = {
    "HETQ_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedSampler  # noqa: E402

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
SETUP_PROBES = 20
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
UNITS = {"setup_s": "s", "wall_s": "s", "events_per_s": "events/s", "solves_per_s": "1/s",
         "peak_rss_mb": "MiB", "fail_ratio": "ratio"}


class SetupError(Exception):
    pass


def import_hetq():
    """Import hetq from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "hetq" / "__init__.py").is_file():
        raise SetupError(f"no hetq sources under {src}; run from the root of a hetq checkout")
    sys.path.insert(0, str(src))
    import hetq

    if Path(hetq.__file__).resolve().parent != (src / "hetq").resolve():
        raise SetupError(f"imported hetq from {hetq.__file__}, not from {src}")
    return hetq


def stamp(hetq, seed: int) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hetq").rglob("*.py")):
        sources.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hetq": hetq.__version__,
        "git_commit": commit,
        "source_sha256": sources.hexdigest(),
        "seed": seed,
        "thread_pins": THREAD_PINS,
    }


def execute(op, out: Path):
    """One user operation; names are looked up at call time so wrappers apply."""
    import hetq.cli
    import hetq.staffing

    if op.command in ("erlang_c", "erlang_a"):
        return getattr(hetq.staffing, op.command)(*op.values)
    return hetq.cli.dispatch(op.command, op.values, out)


def check_and_digest(op, out: Path, result) -> dict:
    from workloads import CheckFailed, tree_digest

    if op.command in ("erlang_c", "erlang_a"):
        op.check(out, result)
        return {"result": hashlib.sha256(repr(result).encode()).hexdigest()}
    digests = tree_digest(out)
    for name, sha in result["artifacts"].items():
        if digests.get(name) != sha:
            raise CheckFailed(f"{name} on disk does not match its manifest sha256")
    op.check(out, result)
    return digests


def run_pass(ops, tracer=None) -> dict:
    """Run the work list once; time only the operations themselves.

    With a tracer, the wrappers are in place only while an operation runs,
    so the output checks leave no spans or counts behind.
    """
    import layers
    from workloads import simulate_events

    probes = layers.probes() if tracer is not None else ()
    clock = time.perf_counter
    events = solves = 0.0
    digests, failures, op_walls = [], [], []
    with SpeedSampler() as sampler:
        sampler.sample()
        for i, op in enumerate(ops):
            out = Path(tempfile.mkdtemp(dir=OUT / "tmp"))
            try:
                if tracer is not None:
                    tracer.op = i
                    tracer.install(probes)
                spent, t0 = sampler.spent, clock()
                try:
                    result = execute(op, out)
                finally:
                    op_walls.append(clock() - t0 - (sampler.spent - spent))
                    if tracer is not None:
                        tracer.uninstall()
                digests.append(check_and_digest(op, out, result))
                if op.kind == "sim":
                    events += simulate_events(out)
                elif op.kind == "solve":
                    solves += 1
            except Exception as exc:  # one failed operation must not end the run
                digests.append(None)
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
            finally:
                shutil.rmtree(out, ignore_errors=True)
    wall = sum(op_walls)
    return {"wall": wall, "scaled": sampler.scaled(wall), "events": events, "solves": solves,
            "digests": digests, "failures": failures, "op_walls": op_walls,
            "probe_mean_s": statistics.fmean(sampler.samples), "probe_samples": len(sampler.samples)}


def measure_setup(workload: str, seed: int) -> list:
    """(raw, scaled) seconds from process start until a fresh process is ready to measure.

    The child inherits this process's vCPU, so probes taken right before
    and after it sample the speed it ran at.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        sampler = SpeedSampler()
        for _ in range(SETUP_PROBES):
            sampler.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise SetupError(f"set-up probe exited {code} without getting ready")
        for _ in range(SETUP_PROBES):
            sampler.sample()
        samples.append((elapsed, sampler.scaled(elapsed)))
    return samples


def measure(ops, seconds: float, trace: int) -> list:
    """Repeat the work list until ``seconds`` have passed.

    With tracing, traced and untraced passes alternate, traced first, and
    the run ends only once it has both.
    """
    import layers
    from spans import Tracer

    passes = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(passes) % 2 == 0 else None
        res = run_pass(ops, tracer)
        res["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        res["tracer"] = tracer
        if tracer is not None:
            res["layers"] = layers.pass_metrics(tracer)
        passes.append(res)
        if time.perf_counter() - start >= seconds and (not trace or len(passes) >= 2):
            return passes


def tally(ops, passes):
    """Operations attempted, one line per failure, and the sha256 over all artifacts.

    An operation fails when it raises or fails its check, or when its
    artifacts differ from those of the first pass.
    """
    first = passes[0]["digests"]
    failures = []
    for n, p in enumerate(passes):
        failures += [f"pass {n}: {f}" for f in p["failures"]]
        failures += [f"pass {n}: {op.label}: artifact digests differ from pass 0"
                     for op, d0, d in zip(ops, first, p["digests"]) if None not in (d0, d) and d != d0]
    digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()
    return len(ops) * len(passes), failures, digest


def end_to_end(passes, setup, fail_ratio: float) -> dict:
    """name -> (value scaled to the reference speed, raw value), medians over untraced passes."""
    plain = [p for p in passes if p["tracer"] is None]
    # Peak after one pass: what one run of the work list needs. Later passes
    # in the same process add heap fragmentation (replications: +25 MiB).
    rss = passes[0]["maxrss_mb"]
    e2e = {
        "wall_s": (statistics.median(p["scaled"] for p in plain), statistics.median(p["wall"] for p in plain)),
        "peak_rss_mb": (rss, rss),
        "fail_ratio": (fail_ratio, fail_ratio),
    }
    if setup:
        e2e["setup_s"] = tuple(statistics.median(sample[i] for sample in setup) for i in (1, 0))
    for name, key in (("events_per_s", "events"), ("solves_per_s", "solves")):
        if any(p[key] for p in plain):
            e2e[name] = tuple(statistics.median(p[key] / p[t] for p in plain) for t in ("scaled", "wall"))
    return e2e


def run_workload(args) -> int:
    # The two vCPUs of a shared host slow down independently, so the process
    # stays on one of them: the reference samples then time the same vCPU as
    # the operations they scale.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    hetq = import_hetq()
    import layers
    from workloads import warmup_list, work_list

    ops = work_list(args.workload, args.seed)
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    warm = run_pass(warmup_list(args.workload))
    if warm["failures"]:
        raise SetupError(f"warm-up failed: {warm['failures']}")
    if args.setup_only:
        print("ready", flush=True)
        return 0
    env = stamp(hetq, args.seed)
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    passes = measure(ops, args.seconds, args.trace)
    attempted, failures, digest = tally(ops, passes)
    e2e = end_to_end(passes, setup, len(failures) / attempted)
    plain = [p for p in passes if p["tracer"] is None]
    traced = [p for p in passes if p["tracer"] is not None]

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced + {len(traced)} traced  operations {len(ops)} per pass")
    for name in ("setup_s", "wall_s", "events_per_s", "solves_per_s", "peak_rss_mb", "fail_ratio"):
        if name in e2e:
            scaled, raw = e2e[name]
            print(f"  {name:<14} {scaled:>14.6g} {UNITS[name]:<9} raw {raw:.6g}")
    raw_walls = " ".join(f"{p['wall']:.4f}" for p in plain)
    print(f"  wall_s per pass (raw)  {raw_walls}")
    for f in failures:
        print(f"  FAILED {f}")
    print(f"  artifacts sha256 {digest}")
    print("  env " + " ".join(f"{k}={v}" for k, v in env.items() if k != "thread_pins")
          + " pins=" + ",".join(f"{k}={v}" for k, v in THREAD_PINS.items()))

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "setup_samples_raw_scaled_s": setup, "end_to_end": e2e, "failures": failures,
              "artifacts_sha256": digest,
              "artifacts": {op.label: d for op, d in zip(ops, passes[0]["digests"])},
              "passes": [{"traced": p["tracer"] is not None, "wall_s": p["wall"], "scaled_s": p["scaled"],
                          "maxrss_mb": p["maxrss_mb"], "probe_mean_s": p["probe_mean_s"],
                          "probe_samples": p["probe_samples"], "op_walls_s": p["op_walls"]}
                         for p in passes]}
    if args.trace:
        per_layer = layers.combine([p["layers"] for p in traced], [p["scaled"] for p in traced],
                                   [p["scaled"] for p in plain])
        result["per_layer"] = per_layer
        for name in layers.PER_LAYER:
            print(f"  {name:<40} {per_layer[name]:>14.6g} {layers.unit(name)}")
        for line in layers.stress_lines(per_layer, statistics.median(p["wall"] for p in traced)):
            print(f"  {line}")
        metrics = {n: {"value": per_layer[n], "unit": layers.unit(n)} for n in layers.PER_LAYER}
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump([p["tracer"].to_json() for p in traced], fh)
    else:
        metrics = {n: {"value": e2e[n][0], "unit": UNITS[n]} for n in END_TO_END}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    shutil.rmtree(OUT / "tmp", ignore_errors=True)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    from workloads import WORKLOADS

    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            code = 1
    return code


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (times set-up in a fresh process)")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
