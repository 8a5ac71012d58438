"""Engine benchmark driver: levelized vs dataflow cycles/sec.

Runs the `bench_blackjack`/`bench_adders` workloads on both simulation
engines, exports one ``zeus.metrics/1`` report per (workload, engine)
pair, and writes a ``zeus.bench.simulator/1`` summary (the repo-root
``BENCH_simulator.json``) recording cycles/sec and the speedup.  The
levelized run is the engine as shipped: it interprets until its tier-up
rule compiles the schedule, mid-run.

``tiers`` times the levelized engine pinned to one tier for the whole
run, with metrics collection off (on blackjack the per-cycle activity
accounting costs more than the compiled pass itself):
``interpreted``, and ``compiled`` with the compile done before the
clock starts.  ``compiled_speedup`` is compiled over interpreted.

Used by the CI benchmark-smoke job::

    PYTHONPATH=src python benchmarks/bench_engines.py \
        --cycles 2000 --out BENCH_simulator.json --metrics-dir bench-out

and by hand to refresh the committed numbers.  ``--min-speedup`` makes
the run fail unless the blackjack levelized/dataflow ratio clears the
bar (CI uses 3.0, the acceptance threshold); ``--min-compiled-speedup``
does the same for blackjack's compiled_speedup (CI uses 1.5).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import time

import repro
from repro.core.codegen import compile_step
from repro.obs import metrics_report, validate_report, write_metrics
from repro.obs import spans as _spans
from repro.stdlib import extras, programs

BENCH_SCHEMA = "zeus.bench.simulator/1"

#: (workload name, program text, top, reset/driven pokes)
WORKLOADS = [
    ("blackjack", lambda: programs.BLACKJACK, None,
     {"RSET": 0, "ycard": 0, "value": 0}),
    ("adders", lambda: programs.ripple_carry(16), "adder",
     {"a": 41389, "b": 27245, "cin": 1}),
]


#: the levelized engine pinned to one tier: interpreted cycles before
#: tier-up (``math.inf``: never; 0: compiled before the clock starts).
TIERS = {"interpreted": math.inf, "compiled": 0}


def _driven(circuit, pokes, **kwargs):
    """A simulator past the reset cycle (when the design has RSET), with
    the workload's steady pokes applied."""
    sim = circuit.simulator(**kwargs)
    if sim.engine != kwargs["engine"]:
        raise RuntimeError(
            f"wanted engine {kwargs['engine']}, got {sim.engine}")
    if "RSET" in pokes:
        sim.poke("RSET", 1)
        sim.step()
        sim.metrics.reset()
    for sig, val in pokes.items():
        sim.poke(sig, val)
    return sim


def measure(text, top, pokes, engine, cycles, seed=0):
    """Simulate *cycles* cycles on *engine*; return the validated
    ``zeus.metrics/1`` report (with wall-clock cycles/sec)."""
    registry = _spans.REGISTRY
    registry.reset()
    circuit = repro.compile_text(text, top=top)
    sim = _driven(circuit, pokes, seed=seed, metrics=True, engine=engine)
    t0 = time.perf_counter()
    sim.step(cycles)
    elapsed = time.perf_counter() - t0
    report = metrics_report(circuit, sim, registry, elapsed=elapsed, top=10)
    validate_report(report)
    registry.reset()
    return report


def measure_tiers(text, top, pokes, cycles, seed=0):
    """Cycles/sec of the levelized engine pinned to each of
    :data:`TIERS`, metrics off."""
    circuit = repro.compile_text(text, top=top)
    rates = {}
    for tier, tier_at in TIERS.items():
        sim = _driven(circuit, pokes, seed=seed, engine="levelized")
        sim._tier_at = tier_at
        if tier_at == 0:
            sim._schedule.compiled = compile_step(sim._schedule,
                                                  backend="scalar")
        t0 = time.perf_counter()
        sim.step(cycles)
        rates[tier] = cycles / (time.perf_counter() - t0)
        if (sim._compiled is None) != (tier == "interpreted"):
            raise RuntimeError(f"{tier} run ran on the wrong tier")
    return rates


#: designs of the per-design tier table (EXPERIMENTS.md E19).
TIER_DESIGNS = [
    ("blackjack", lambda: programs.BLACKJACK),
    ("tinycpu", lambda: extras.TINYCPU),
    ("memory", lambda: programs.MEMORY),
    ("ripple16", lambda: programs.ripple_carry(16)),
    ("patternmatch", lambda: programs.PATTERNMATCH),
    ("routing", lambda: programs.ROUTING),
    ("mux4", lambda: programs.MUX4),
]


def _best_step_us(sim, cycles, repeat=5):
    best = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        sim.step(cycles)
        best = min(best, time.perf_counter() - t0)
    return best / cycles * 1e6


def tier_table(cycles=200):
    """Per design: the compile's time and Python allocation peak,
    interpreted and compiled step time (best of 5 runs of
    *cycles* undriven cycles, metrics off) and the real break-even
    (compile time over the per-cycle saving)."""
    import tracemalloc

    rows = []
    for name, text_fn in TIER_DESIGNS:
        circuit = repro.compile_text(text_fn())
        sim = circuit.simulator(strict=False)
        sched = sim._schedule
        sim._tier_at = math.inf
        interp = _best_step_us(sim, cycles)
        t0 = time.perf_counter()
        compile_step(sched, backend="scalar")
        compile_ms = (time.perf_counter() - t0) * 1e3
        tracemalloc.start()
        sched.compiled = compile_step(sched, backend="scalar")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        sim._tier_at = 0
        compiled = _best_step_us(sim, cycles)
        rows.append({
            "design": name,
            "ops": len(sched.ops),
            "compile_ms": compile_ms,
            "compile_peak_mb": peak / 2**20,
            "interpreted_us": interp,
            "compiled_us": compiled,
            "speedup": interp / compiled,
            "break_even_cycles": compile_ms * 1e3 / (interp - compiled),
        })
    return rows


def compact(report):
    """A committable subset of a ``zeus.metrics/1`` report: scalars and
    top tables, without the per-cycle series and raw span list."""
    out = {k: v for k, v in report.items() if k != "compile"}
    if "compile" in report:
        out["compile"] = {"phases": report["compile"]["phases"]}
    out["sim"] = {
        k: v for k, v in report["sim"].items()
        if k not in ("firings_by_cycle", "steps_by_cycle")
    }
    return out


def run_benchmarks(cycles, metrics_dir=None, seed=0, cycles_of=None):
    """Measure every workload on both engines and on both levelized
    tiers; return the summary dict.  *cycles_of* maps a workload name
    to its own cycle count (default *cycles*)."""
    results = {}
    for name, text_fn, top, pokes in WORKLOADS:
        text = text_fn()
        n = (cycles_of or {}).get(name, cycles)
        per_engine = {}
        for engine in ("levelized", "dataflow"):
            report = measure(text, top, pokes, engine, n, seed=seed)
            if metrics_dir:
                path = os.path.join(metrics_dir, f"{name}-{engine}.json")
                write_metrics(path, report)
            per_engine[engine] = compact(report)
        lev = per_engine["levelized"]["wall"]["cycles_per_s"]
        df = per_engine["dataflow"]["wall"]["cycles_per_s"]
        tiers = measure_tiers(text, top, pokes, n, seed=seed)
        results[name] = {
            "cycles": n,
            "cycles_per_s": {"levelized": lev, "dataflow": df},
            "speedup": (lev / df) if df else 0.0,
            "tiers": tiers,
            "compiled_speedup": tiers["compiled"] / tiers["interpreted"],
            "reports": per_engine,
        }
    return {"schema": BENCH_SCHEMA, "workloads": results}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cycles", type=int, default=2000,
                    help="cycles to simulate per run (default 2000)")
    ap.add_argument("--out", default="BENCH_simulator.json",
                    help="summary JSON path (default BENCH_simulator.json)")
    ap.add_argument("--metrics-dir", default=None,
                    help="also write per-run zeus.metrics/1 JSONs here")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="fail unless blackjack speedup clears this bar")
    ap.add_argument("--min-compiled-speedup", type=float, default=None,
                    help="fail unless blackjack compiled_speedup clears "
                         "this bar")
    ap.add_argument("--tier-table", action="store_true",
                    help="print the per-design compiled-tier table "
                         "(EXPERIMENTS.md E19) and exit")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    if args.tier_table:
        print("| design | ops | compile ms | compile peak MB | "
              "interpreted us | compiled us | speedup | "
              "break-even cycles |")
        print("|---|---|---|---|---|---|---|---|")
        for r in tier_table():
            print(f"| {r['design']} | {r['ops']} | {r['compile_ms']:.1f} | "
                  f"{r['compile_peak_mb']:.1f} | "
                  f"{r['interpreted_us']:.1f} | {r['compiled_us']:.1f} | "
                  f"{r['speedup']:.1f}x | {r['break_even_cycles']:.0f} |")
        return 0

    if args.metrics_dir:
        os.makedirs(args.metrics_dir, exist_ok=True)
    summary = run_benchmarks(args.cycles, args.metrics_dir, seed=args.seed)

    for name, res in summary["workloads"].items():
        rates = res["cycles_per_s"]
        print(f"{name:10s} levelized {rates['levelized']:>10,.0f} c/s   "
              f"dataflow {rates['dataflow']:>10,.0f} c/s   "
              f"speedup {res['speedup']:.1f}x")
        tiers = res["tiers"]
        print(f"{'':10s} interpreted {tiers['interpreted']:>8,.0f} c/s   "
              f"compiled {tiers['compiled']:>10,.0f} c/s   "
              f"compiled speedup {res['compiled_speedup']:.1f}x "
              "(metrics off)")
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")

    blackjack = summary["workloads"]["blackjack"]
    for key, bar in (("speedup", args.min_speedup),
                     ("compiled_speedup", args.min_compiled_speedup)):
        if bar is not None and blackjack[key] < bar:
            print(f"FAIL: blackjack {key} {blackjack[key]:.2f}x "
                  f"< required {bar}x")
            return 1
    return 0


# -- tier-1 smoke (bench_*.py files are collected by pytest) ---------------

def test_bench_engines_summary_shape(tmp_path):
    out_dir = str(tmp_path / "metrics")
    os.makedirs(out_dir)
    summary = run_benchmarks(cycles=20, metrics_dir=out_dir,
                             cycles_of={"adders": 25})
    assert summary["schema"] == BENCH_SCHEMA
    assert summary["workloads"]["adders"]["cycles"] == 25
    assert summary["workloads"]["blackjack"]["cycles"] == 20
    for name in ("blackjack", "adders"):
        res = summary["workloads"][name]
        assert res["cycles_per_s"]["levelized"] > 0
        assert res["cycles_per_s"]["dataflow"] > 0
        assert res["tiers"]["interpreted"] > 0
        assert res["compiled_speedup"] > 0
        for engine in ("levelized", "dataflow"):
            assert res["reports"][engine]["sim"]["engine"] == engine
            exported = os.path.join(out_dir, f"{name}-{engine}.json")
            validate_report(json.loads(open(exported).read()))


if __name__ == "__main__":
    raise SystemExit(main())
