"""Benchmark for sepcodes: runs one workload through the CLI in process and
prints its metrics, one per line with its unit, then a provenance line, then
a JSON result line.

    python3 bench/run.py --workload solve --seed 1 --seconds 15 --trace 0

Run from a checkout that has `src/`; the package is imported from there.
`--trace 0` measures the end-to-end metrics, in seconds scaled to a
reference host speed (speed.py); `--trace 1` runs one untraced and one
traced pass and reports the per-layer metrics, unscaled. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from speed import VERIFIED_PROBE_MEDIAN_S, HostSpeed
from tracer import LAYER_UNITS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
# A latency percentile needs enough calls behind it; a pass with fewer calls
# (audit: one, census: eight, each deciding thousands of graphs, none timed
# alone) reports the mean time per graph as both op_p50_ms and op_p90_ms.
MIN_CALLS_FOR_PERCENTILES = 100

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


@dataclass
class Pass:
    wall: float
    starts: list[float]  # perf_counter at the start of each CLI call
    latencies: list[float]  # seconds per CLI call
    results: list[tuple[int | None, str, str]]  # exit code (None: raised), stdout, stderr


def call_cli(argv: tuple[str, ...]) -> tuple[int | None, str, str]:
    """Run `sepcodes <argv>` in process, as `main` is found at call time so
    that an installed tracer sees it."""
    from sepcodes import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code: int | None = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # counted as a failed call, the run goes on
            traceback.print_exc()
            code = None
    return code, out.getvalue(), err.getvalue()


def run_pass(ops: list, tracer=None) -> Pass:
    starts, latencies, results = [], [], []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.next_op()
        t0 = time.perf_counter()
        results.append(call_cli(op.argv))
        starts.append(t0)
        latencies.append(time.perf_counter() - t0)
    wall = time.perf_counter() - start
    return Pass(wall, starts, latencies, results)


def check_pass(ops: list, p: Pass) -> list[tuple[int, str]]:
    """(op index, problem) for every call of the pass whose output fails its check."""
    problems = []
    for i, (op, (code, out, err)) in enumerate(zip(ops, p.results)):
        problem = op.check(code, out)
        if problem:
            problems.append((i, f"{' '.join(op.argv)}: {problem} {err.strip()[-500:]}".rstrip()))
    return problems


def oracle_problems(ops: list) -> list[tuple[int, str]]:
    problems = []
    for i, op in enumerate(ops):
        problem = op.oracle() if op.oracle else None
        if problem:
            problems.append((i, f"{' '.join(op.argv)}: {problem}"))
    return problems


def setup(workload, seed: int) -> list:
    """One set-up: a fresh interpreter importing the package, then the
    workload's inputs, as ops."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", "import sepcodes"], env=env, cwd=ROOT,
                   check=True, capture_output=True, timeout=120)
    return workload.make_ops(seed, OUT / f"{workload.name}-seed{seed}")


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed: int, ops: list, passes: list[Pass], extra: dict) -> dict:
    return {
        **extra,
        "git_sha": git_sha(),
        "src_sha256": src_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "workload": workload.name,
        "seed": seed,
        "calls_per_pass": len(ops),
        "graphs_per_pass": sum(op.graphs for op in ops),
        "passes": len(passes),
    }


def scaled(speed, start: float, seconds: float) -> float:
    """A call's time without the probes taken during it, in reference-host seconds."""
    end = start + seconds
    return (seconds - speed.probing(start, end)) * speed.scale(start, end)


def measure(workload, seed: int, seconds: int) -> tuple[dict, list, list[Pass], list[tuple[int, str]], dict]:
    """End-to-end run: set up SETUP_REPEATS times, then run whole passes
    while the next one is expected to end within `seconds` (always at least
    one). Every time is scaled to reference-host seconds by probes taken
    around and during it (see speed.py); a call's time is the median over
    the passes."""
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        t0 = time.perf_counter()
        ops = setup(workload, seed)
        setups.append((t0, time.perf_counter()))
    passes: list[Pass] = []
    with speed.sampling():
        start = time.perf_counter()
        while True:
            passes.append(run_pass(ops))
            if time.perf_counter() - start + passes[-1].wall > seconds:
                break
    problems = [item for p in passes for item in check_pass(ops, p)]
    problems.extend(oracle_problems(ops))
    raw = [statistics.median(p.latencies[i] for p in passes) for i in range(len(ops))]
    per_call = [statistics.median(scaled(speed, p.starts[i], p.latencies[i]) for p in passes)
                for i in range(len(ops))]
    wall = sum(per_call)
    graphs = sum(op.graphs for op in ops)
    if len(ops) >= MIN_CALLS_FOR_PERCENTILES:
        per_op_ms = [1000 * dt / op.graphs for op, dt in zip(ops, per_call)]
        p50 = statistics.median(per_op_ms)
        p90 = statistics.quantiles(per_op_ms, n=10, method="inclusive")[8]
    else:
        p50 = p90 = 1000 * wall / graphs
    metrics = {
        "setup_s": statistics.median((b - a) * speed.scale(a, b) for a, b in setups),
        "wall_s": wall,
        "ops_per_s": graphs / wall,
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "peak_rss_mb": peak_rss_mb(),
    }
    unscaled = {
        "unscaled_wall_s": sum(raw),
        "unscaled_setup_s": statistics.median(b - a for a, b in setups),
        "probe_median_s": speed.median(),
        "probe_in_verified_band": speed.in_verified_band(),
    }
    return metrics, ops, passes, problems, unscaled


def trace(workload, seed: int) -> tuple[dict, list, list[Pass], list[tuple[int, str]], dict]:
    """Per-layer run: an untraced pass, then a traced pass at --jobs 1 so
    that every span is in this process. For a workload with fanout_jobs the
    untraced pass runs sharded, with only the parent-side fan-out wrapper
    installed, which yields the fan-out metrics; a third, untraced --jobs 1
    pass of audit-n7 would not fit the run's time limit. trace.overhead_s
    is the wrappers' measured cost per call times their calls (Tracer.overhead).
    Both passes must print the same stdout."""
    ops = setup(workload, seed)
    single = [op.with_jobs("1") for op in ops]
    sharded = [op.with_jobs(workload.fanout_jobs) for op in ops] if workload.fanout_jobs else single
    with Tracer(layers=False) as fan:
        untraced = run_pass(sharded, fan)
    with Tracer() as layers:
        traced = run_pass(single, layers)
    metrics = layers.layer_metrics()
    metrics["fanout.workers"] = fan.fanout.workers
    metrics["fanout.tasks"] = fan.fanout.tasks
    metrics["fanout.wait_s"] = fan.fanout.wait
    metrics["trace.overhead_s"] = layers.overhead()
    passes = [untraced, traced]
    problems = [item for p in passes for item in check_pass(ops, p)]
    for i, (a, b) in enumerate(zip(untraced.results, traced.results)):
        if a[1] != b[1]:
            problems.append((i, f"{' '.join(ops[i].argv)}: traced stdout differs from untraced"))
    problems.extend(oracle_problems(ops))
    return metrics, ops, passes, problems, layers.dump()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "sepcodes" / "__init__.py").is_file():
        print(f"error: no sepcodes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS  # imports sepcodes, so only once SRC is on the path

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    if args.trace:
        metrics, ops, passes, problems, spans = trace(workload, args.seed)
        units = LAYER_UNITS
        extra: dict = {}
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.json"
        trace_path.write_text(json.dumps(spans) + "\n")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, ops, passes, problems, extra = measure(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS

    attempted = len(passes) * sum(op.graphs for op in ops)
    failed = min(attempted, sum(ops[i].graphs for i, _ in problems))
    for _, problem in problems:
        print(f"FAILED {problem}")
    if extra.get("probe_in_verified_band") is False:
        lo, hi = VERIFIED_PROBE_MEDIAN_S
        print(f"UNSTEADY: median probe time {extra['probe_median_s']:.4g} s is outside "
              f"[{lo}, {hi}] s, the host speeds over which the bounds were checked; "
              "compare these times with care")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    if not args.trace:
        print(f"latency samples = {len(ops)} calls, each the median of {len(passes)} passes")
    print("provenance " + json.dumps(provenance(workload, args.seed, ops, passes, extra)))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
