"""qtcorr benchmark: end-to-end metrics per workload, or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload tables --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

Workloads: tables, montecarlo, estimate, cli (``all`` runs each in turn).
Every pass runs in a fresh worker process, one process at a time, closed
loop.  Passes repeat until another one would end after ``--seconds``.

With ``--trace 0`` the run reports the end-to-end metrics: set-up time
(spawn to ready: interpreter, ``import qtcorr``, inputs loaded), ops per
second, median and tail op latency, peak resident memory and the failure
ratio.  With ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones, plus the tracing
overhead.  The last line of the output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

import numpy as np
from scipy.special import betainc

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = tuple(workloads.RUNNERS)
PASS_TIMEOUT_S = 150

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    """Child environment: qtcorr from src/, BLAS threads capped at nproc."""
    env = workloads.child_env()
    if not any(env.get(var) for var in BLAS_VARS):
        for var in BLAS_VARS:
            env[var] = str(_nproc())
    return env


def _git_sha() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = worker_env()
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": {var: env.get(var) for var in BLAS_VARS},
        "git_sha": _git_sha(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "input_sizes": workloads.input_sizes(workload),
    }


def run_pass(workload: str, seed: int, trace: bool, inputs: Path) -> dict:
    """One pass in a fresh worker; returns its record or an ``error``."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(int(trace)),
           str(inputs)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        # The worker prints nothing before "ready", so the pipe's buffer is
        # empty and select() sees the line as soon as it is written.
        if not select.select([proc.stdout], [], [], PASS_TIMEOUT_S)[0]:
            raise subprocess.TimeoutExpired(cmd, PASS_TIMEOUT_S)
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(t0 + PASS_TIMEOUT_S - time.perf_counter(), 1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"pass timed out after {PASS_TIMEOUT_S} s"}
    finally:
        if proc.poll() is None:  # interrupted: stop the worker before leaving
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        return {"error": f"worker exit {proc.returncode}: {err.strip()[-2000:]}"}
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = setup_s
    record["trace"] = trace
    return record


def measure(workload: str, seed: int, seconds: int, trace: bool) -> list[dict]:
    """Repeat passes (an untraced/traced pair when tracing) for ``seconds``."""
    passes: list[dict] = []
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        inputs = Path(tmp)
        workloads.write_inputs(workload, seed, inputs)
        start = time.perf_counter()
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            for traced in (False, True) if trace else (False,):
                passes.append(run_pass(workload, seed, traced, inputs))
            now = time.perf_counter()
            longest = max(longest, now - t0)
            if now - start + longest > seconds:
                return passes


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of the order statistics around the p-th, so the
    estimate does not jump when two kinds of op of different cost trade
    places at the percentile (the estimate workload's median sits between
    the tied and the clean estimator calls).
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    weights = np.diff(betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def tail_pct(ops_per_pass: int) -> int | None:
    """The highest whole percentile with at least ten of a pass's ops beyond
    it, or None when no percentile above the median has ten beyond."""
    pct = 100 - math.ceil(1000 / ops_per_pass)
    return pct if pct > 50 else None


def end_to_end(workload: str, untraced: list[dict]):
    """End-to-end metrics and report lines from the untraced passes.

    Every pass runs the same ops, so each statistic is taken per pass and
    the median over passes is reported; the result then does not depend
    on how many passes fitted into the run.  The tail is the percentile
    that tail_pct() gives for the pass's op count; a pass with too few ops
    for that (``estimate``, ``cli``) reports its slowest op instead.
    """
    k = len(untraced)
    ops_per_pass = workloads.input_sizes(workload)["ops"]
    pct = tail_pct(ops_per_pass)

    def per_pass(stat):
        return statistics.median(stat(p) for p in untraced)

    def op_ms(p):
        return [op["ms"] for op in p["ops"]]

    per_pass_note = f"of {ops_per_pass} ops per pass, median of {k} passes"
    if pct is None:
        tail = per_pass(lambda p: max(op_ms(p)))
        tail_note = f"slowest {per_pass_note} (too few ops for a percentile with 10 beyond)"
    else:
        tail = per_pass(lambda p: quantile(op_ms(p), pct / 100.0))
        tail_note = f"p{pct} {per_pass_note}"
    rows = (
        ("setup_s", per_pass(lambda p: p["setup_s"]), "s",
         f"median of {k} fresh-interpreter set-ups"),
        ("ops_per_s", per_pass(lambda p: sum(op["ok"] for op in p["ops"]) / p["wall_s"]),
         "1/s", f"median over {k} passes"),
        ("op_ms_p50", per_pass(lambda p: quantile(op_ms(p), 0.5)), "ms", f"p50 {per_pass_note}"),
        ("op_ms_tail", tail, "ms", tail_note),
        ("peak_rss_mb", per_pass(lambda p: p["rss_kb"] / 1024.0), "MB", "median over passes"),
    )
    metrics, lines = {}, []
    for name, value, unit, note in rows:
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<12} {value:12.4f} {unit:<4} {note}")
    return metrics, lines


def per_layer(traced: list[dict], untraced: list[dict]):
    """Per-layer metrics (medians over traced passes) and report lines."""
    from tracer import Tracer

    values = {}
    for name in list(Tracer().metrics()) + ["cli.import_s", "cli.command_s"]:
        values[name] = statistics.median(p["layers"][name] for p in traced)
    values["trace.overhead_ratio"] = statistics.median(
        p["wall_s"] for p in traced
    ) / statistics.median(p["wall_s"] for p in untraced)
    metrics, lines = {}, []
    for name, value in values.items():
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"  {name:<46} {value:16.6f} {unit}")
    hooks = {k: v for p in traced for k, v in p["hooks"].items()}
    absent = sorted(k for k, v in hooks.items() if v != "ok")
    lines.append(f"  hooks: {len(hooks) - len(absent)} ok, absent: {', '.join(absent) or 'none'}")
    return metrics, lines


def summarize(workload: str, passes: list[dict], trace: bool):
    """(lines to print, result object) for one workload's run."""
    ops_per_pass = workloads.input_sizes(workload)["ops"]
    attempted = failed = 0
    errors: list[str] = []
    for p in passes:
        if "error" in p:  # a crashed pass fails every op it would have run
            attempted += ops_per_pass
            failed += ops_per_pass
            errors.append(p["error"])
            continue
        attempted += len(p["ops"])
        bad = [op for op in p["ops"] if not op["ok"]]
        failed += len(bad)
        errors += [f"{op['name']}: {op['error']}" for op in bad]

    untraced = [p for p in passes if "error" not in p and not p["trace"]]
    traced = [p for p in passes if "error" not in p and p["trace"]]
    metrics, lines = {}, []
    if trace and traced and untraced:
        metrics, lines = per_layer(traced, untraced)
    elif not trace and untraced:
        metrics, lines = end_to_end(workload, untraced)
    lines.insert(0, f"workload {workload}: {len(passes)} passes ({len(traced)} traced)")
    lines.append(
        f"  fail_ratio   {failed / max(attempted, 1):12.4f}      "
        f"({failed} failed / {attempted} attempted)"
    )
    lines += [f"  FAILED {e}" for e in errors[:10]]
    correct = failed == 0 and bool(metrics)
    return lines, {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    workloads.exit_on_sigterm()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qtcorr" / "__init__.py").is_file():
        print(f"perfbench: no qtcorr sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        trace = bool(args.trace)
        print("env " + json.dumps(environment(workload, args.seed, args.seconds, trace)))
        passes = measure(workload, args.seed, args.seconds, trace)
        lines, result = summarize(workload, passes, trace)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
