"""One timed pass of a benchmark workload, in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED TRACE INPUT_DIR

The worker imports qtcorr, loads the inputs the driver wrote into
INPUT_DIR and prints ``ready``; the driver times set-up from spawning the
worker to that line.  It then runs one pass, with the per-layer tracer
installed when TRACE is 1, checks every result and prints one JSON line:
the op records, the pass wall time, the peak resident memory of the
process that did the work and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cli_layers(tracer, ctx, import_s):
    """Merge the CLI processes' counters; import and command times."""
    imports, command_s = [], 0.0
    for path in ctx["trace_files"]:
        if not path.exists():  # the command failed before writing counters
            continue
        exported = json.loads(path.read_text())
        tracer.merge(exported)
        tracer.hooks.update(exported["hooks"])
        imports.append(exported["import_s"])
        command_s += exported["command_s"]
    return (sum(imports) / len(imports) if imports else import_s), command_s


def main(argv: list[str]) -> int:
    workload, seed, trace, inputs = argv[1], int(argv[2]), argv[3] == "1", Path(argv[4])
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import qtcorr.cli  # noqa: F401  (the whole package, front end included)

    import_s = time.perf_counter() - t0
    import workloads

    workloads.exit_on_sigterm()  # a terminated pass also stops its cli command

    ctx = {
        "seed": seed,
        "inputs": inputs,
        "mc_samples": workloads.MC_SAMPLES,
        "trace_dir": inputs if trace and workload == "cli" else None,
        "trace_files": [],
    }
    if workload == "estimate":
        ctx["samples"] = workloads.estimate_samples(inputs)
    print("ready", flush=True)

    p = workloads.Pass()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer().install()
    t0 = time.perf_counter()
    try:
        workloads.RUNNERS[workload](p, ctx)
    finally:
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    p.check_all()

    # The work of the cli workload happens in the command processes.
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    result = {"ops": p.ops, "wall_s": wall_s, "rss_kb": resource.getrusage(who).ru_maxrss}
    if tracer is not None:
        cli_import_s, command_s = _cli_layers(tracer, ctx, import_s)
        layers = tracer.metrics()
        layers["cli.import_s"] = cli_import_s
        layers["cli.command_s"] = command_s
        result["layers"] = layers
        result["hooks"] = tracer.hooks
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
