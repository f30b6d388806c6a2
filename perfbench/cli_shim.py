"""Run one qtcorr CLI command with the per-layer tracer installed.

Usage: python3 perfbench/cli_shim.py OUT_JSON ARGS...

Behaves as ``python -m qtcorr.cli ARGS...`` (same output and exit code) and
also writes the command's counters, its import time and the time spent in
the CLI's ``main`` to OUT_JSON.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    import qtcorr.cli

    import_s = time.perf_counter() - t0
    from tracer import Tracer

    tracer = Tracer().install()
    t0 = time.perf_counter()
    try:
        return qtcorr.cli.main(argv[2:])
    finally:
        command_s = time.perf_counter() - t0
        tracer.uninstall()
        exported = tracer.export()
        exported.update(import_s=import_s, command_s=command_s, hooks=tracer.hooks)
        Path(argv[1]).write_text(json.dumps(exported))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
