"""Launch ``zeusd`` with the benchmark's layer wrappers installed.

    python perfbench/zeusd_traced.py OUT.json -- [server args]

Installs :mod:`layers` in this process, runs
``repro.service.server.main`` with the server arguments, and when the
daemon exits (SIGINT) writes the per-layer totals to OUT.json.  Layers
that run in the daemon's process-pool workers (``/v1/timing``, long
sims) are not traced.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def main() -> int:
    out = sys.argv[1]
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = layers.Tracer()
    layers.install(tracer)
    from repro.service.server import main as serve

    try:
        return serve(argv)
    finally:
        with open(out, "w", encoding="utf-8") as f:
            json.dump(tracer.totals, f)


if __name__ == "__main__":
    sys.exit(main())
