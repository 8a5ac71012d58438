#!/usr/bin/env python3
"""The repository benchmark: four workloads over the Zeus toolchain.

    python3 perfbench/run.py --workload cli|elab|sim|zeusd --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout.  Every line but the last is a
human-readable report (the environment record, then each metric the
workload measured under its own name with unit and sample count); the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
metrics of ``BENCHMARK.json``; with ``--trace 1`` the per-layer ones.
A reference mismatch makes the run exit 1 after printing its result;
a checkout without the program's sources exits 2 without one.

See perfbench/README.md for the workloads, the metric definitions and
the layer -> end-to-end map.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
from corpus import LANE_LABELS, SIM_LABELS  # noqa: E402

WORKLOADS = ("cli", "elab", "sim", "zeusd")

#: the end-to-end metrics (BENCHMARK.json ``end_to_end``) and units.
#: Each workload defines ``throughput`` and ``latency_ms`` for its own
#: primary operation (perfbench/README.md has the table).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput": "1/s",
    "latency_ms": "ms",
}

ENDPOINTS = ("compile", "lint", "sim", "timing", "health")

#: the per-layer metrics (BENCHMARK.json ``per_layer``) and units.
PER_LAYER = {
    "interp.bare_ms": "ms",
    "import.repro_ms": "ms",
    "import.repro_cli_ms": "ms",
    "import.modules": "count",
    "lexer.ms": "ms",
    "lexer.tokens": "count",
    "lexer.tokens_per_s": "1/s",
    "parser.ms": "ms",
    "parser.tokens_per_s": "1/s",
    "elaborate.ms": "ms",
    "elaborate.nets": "count",
    "elaborate.nets_per_s": "1/s",
    "checker.ms": "ms",
    "checker.nets_per_s": "1/s",
    "schedule.build_ms": "ms",
    "codegen.compile_ms": "ms",
    "codegen.compiles": "count",
    "simulator.construct_ms": "ms",
    **{f"simulator.step_us.{d}": "us" for d in SIM_LABELS},
    "simulator.poke_us": "us",
    "simulator.poke_lanes_us": "us",
    **{f"simulator.lane_step_us.{d}": "us" for d in LANE_LABELS},
    "lint.ms": "ms",
    "timing.ms": "ms",
    "interchange.emit_ms": "ms",
    "cli.self_ms": "ms",
    "service.cache.hit_rate": "ratio",
    "service.cache.misses": "count",
    "service.cache.evictions": "count",
    "service.pool.submitted": "count",
    "service.pool.timeouts": "count",
    "service.pool.shed": "count",
    "service.requests.errors": "count",
    **{f"service.request_ms.{e}": "ms" for e in ENDPOINTS},
    **{f"service.wait_ms.{e}": "ms" for e in ENDPOINTS},
    "bench.probe_late_ms_p90": "ms",
    "trace.overhead_pct": "%",
}


def layer_metrics(tracer, *, sim_names=None, extra=None) -> dict:
    """Fold a tracer's totals (plus workload-measured *extra* values)
    into the declared per-layer metrics; layers the workload never
    entered read 0."""
    from layers import parser_tokens

    out = {name: 0.0 for name in PER_LAYER}
    if tracer is not None:
        lex = tracer.get("lexer")
        out["lexer.ms"] = tracer.self_ms("lexer")
        out["lexer.tokens"] = lex[3]
        out["lexer.tokens_per_s"] = tracer.rate("lexer")
        out["parser.ms"] = tracer.self_ms("parser")
        out["parser.tokens_per_s"] = parser_tokens(tracer)
        out["elaborate.ms"] = tracer.self_ms("elaborate")
        out["elaborate.nets"] = tracer.get("elaborate")[3]
        out["elaborate.nets_per_s"] = tracer.rate("elaborate")
        out["checker.ms"] = tracer.self_ms("checker")
        out["checker.nets_per_s"] = tracer.rate("checker")
        out["schedule.build_ms"] = tracer.self_ms("schedule")
        out["codegen.compile_ms"] = tracer.self_ms("codegen")
        out["codegen.compiles"] = tracer.get("codegen")[0]
        out["simulator.construct_ms"] = tracer.self_ms("simulator.construct")
        out["simulator.poke_us"] = tracer.self_ms("simulator.poke") * 1e3
        out["simulator.poke_lanes_us"] = (
            tracer.self_ms("simulator.poke_lanes") * 1e3)
        out["lint.ms"] = tracer.self_ms("lint")
        out["timing.ms"] = tracer.self_ms("timing")
        out["interchange.emit_ms"] = tracer.self_ms("interchange.emit")
        out["cli.self_ms"] = tracer.self_ms("cli")
        for label, design in (sim_names or {}).items():
            for kind, key in (("step", "simulator.step_us"),
                              ("lane_step", "simulator.lane_step_us")):
                _c, _inc, self_s, cycles = tracer.get(
                    f"simulator.{kind}:{design}")
                name = f"{key}.{label}"
                if name in out and cycles:
                    out[name] = self_s / cycles * 1e6
    for key, value in (extra or {}).items():
        if key not in out:
            raise KeyError(f"undeclared per-layer metric {key}")
        out[key] = value
    return out


def import_layer(env, bare_ms: float, samples: int = 5) -> dict:
    """Fresh-interpreter import walls minus the bare interpreter, and
    the exact number of ``repro`` modules ``import repro.cli`` loads."""
    def wall(stmt):
        walls = [common.run_child([common.PYTHON, "-c", stmt], env)[2]
                 for _ in range(samples)]
        return common.median(walls) * 1e3 - bare_ms

    code, out, _w, _r = common.run_child([
        common.PYTHON, "-c",
        "import sys, repro.cli; print(sum(1 for m in sys.modules "
        "if m == 'repro' or m.startswith('repro.')))",
    ], env)
    return {
        "import.repro_ms": wall("import repro"),
        "import.repro_cli_ms": wall("import repro.cli"),
        "import.modules": int(out.strip() or 0) if code == 0 else 0,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--refs", default=None,
                    help="reference file (default perfbench/refs.json)")
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: minimal work per run (self-test only)")
    args = ap.parse_args(argv)

    try:
        common.require_checkout()
        refs = common.load_refs(args.refs)
    except (common.BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    import importlib

    module = importlib.import_module(f"wl_{args.workload}")
    report = common.Report(args.workload)
    ctx = {"args": args, "refs": refs, "report": report,
           "pin": common.PycachePin(args.workload)}
    ctx["env"] = ctx["pin"].env()
    try:
        print("# env " + json.dumps(common.environment(), sort_keys=True))
        bare = ctx["bare_ms"] = common.bare_interp_ms(ctx["env"])
        report.name("interp.bare_ms", bare, "ms", 5)
        slots, layers = module.run(ctx)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        # workloads may replace the pin (cli sets up several caches)
        ctx["pin"].remove()

    report.name("fail_frac", report.failed / max(report.attempted, 1),
                "ratio", report.attempted)
    for key, (value, unit, n) in report.named.items():
        count = f"  (n={n})" if n is not None else ""
        print(f"# {args.workload:<5} {key:<28} {value:14.4f} {unit}{count}")
    for what in report.failures:
        print(f"# FAILED {what}")

    if args.trace:
        metrics = {k: {"value": float(layers[k]), "unit": PER_LAYER[k]}
                   for k in PER_LAYER}
    else:
        metrics = {k: {"value": float(slots[k]), "unit": END_TO_END[k]}
                   for k in END_TO_END}
    correct = report.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(report.attempted, 1),
        "failed": report.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
