"""``elab``: in-process compiles of parameter-scaled designs
(``trees(1024)``, ``routing(64)``, ``extras.sorter(16,8)``,
``patternmatch(63)``, ``ripple_carry(128)``; ~46k nets per pass).

The source texts are at most a few KB, so elaboration and checking are
over 90% of the time; front-end work shows here as "no change".

Setup (``setup_s``): ``import repro`` in a fresh interpreter, median of
five (interpreter start included).  The workload process then imports
the program itself, untimed.

Protocol.  Each pass compiles the five designs once, in a seeded order,
each with a private span registry (as ``zeusc`` does); the pass's
circuits are dropped and ``gc.collect()`` runs between passes, outside
the clock, so every pass starts from the same heap.  Passes repeat
until ``--seconds`` is spent and are never cut short.  A pass-time
drift (2.45 s -> 3.12 s over three passes) was reported for this corpus;
measured here over four passes in three protocols (default registry,
private registries, private registries plus collection between passes)
there was no trend: pass times varied by +-10% pass to pass, gen-2
collections held at 7-9 per pass and the live-object count returned to
the same level.  What does move pass times is the machine: other
tenants slow whole stretches of a run by up to ~1.7x.  The gated
``throughput`` (``compile_nets_per_s``) is therefore the corpus's nets
over the sum of each design's median compile time, and ``latency_ms``
is the geometric mean of those medians.  Per-design statistics avoid
pooling five designs of very different sizes, whose pooled median
falls between two of them.  Medians, not minima: a compile's time
depends on whether a full garbage collection lands inside it.

Checks: every compile's net/gate/connection/register counts equal the
pinned fingerprint; the last pass's structural hashes equal it too.
"""

from __future__ import annotations

import gc
import random
import time

import common
import corpus
from run import import_layer, layer_metrics

SETUP_REPS = 5


def run(ctx):
    args, report, refs, env = ctx["args"], ctx["report"], ctx["refs"], ctx["env"]
    tiny = args.scale == "tiny"
    reps = []
    for _ in range(1 if tiny else SETUP_REPS):
        code, _out, wall, _rss = common.run_child(
            [common.PYTHON, "-c", "import repro"], env)
        if code != 0:
            raise common.BenchError("import repro failed")
        reps.append(wall)
    setup_s = common.median(reps)
    report.name("setup_s", setup_s, "s", len(reps))

    ctx["pin"].pin_self()
    import repro
    from repro.obs.spans import SpanRegistry

    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()

    designs = corpus.ELAB_DESIGNS
    if tiny:
        designs = corpus.TINY_ELAB_DESIGNS
    texts = {label: corpus.source(expr) for label, expr in designs}
    rng = random.Random(f"elab/{args.seed}")
    pinned = refs["elab"]

    def one_pass():
        order = [label for label, _ in designs]
        rng.shuffle(order)
        circuits = {}
        t_pass = 0.0
        for label in order:
            t0 = time.perf_counter()
            circuit = repro.compile_text(texts[label], registry=SpanRegistry())
            dt = time.perf_counter() - t0
            t_pass += dt
            compile_ms.append(dt * 1e3)
            by_design.setdefault(label, []).append(dt * 1e3)
            stats = circuit.stats()
            want = pinned.get(label, {})
            report.op(
                all(stats[k] == want.get(k) for k in
                    ("nets", "gates", "connections", "registers")),
                f"elab {label}: netlist counts {corpus.counts(stats)} != pinned")
            circuits[label] = circuit
        return circuits, t_pass

    compile_ms: list[float] = []
    by_design: dict[str, list[float]] = {}
    pass_s: list[float] = []
    overhead = None
    deadline = time.perf_counter() + args.seconds
    if tracer is not None:
        # One untraced pass, then traced passes: tracing overhead is the
        # median traced pass time over the untraced one.
        circuits, plain = one_pass()
        del circuits
        gc.collect()
        layers.install(tracer)
    while True:
        circuits, t_pass = one_pass()
        pass_s.append(t_pass)
        if tiny or time.perf_counter() >= deadline:
            break
        del circuits
        gc.collect()
    if tracer is not None:
        overhead = 100.0 * (common.median(pass_s) / plain - 1)

    pass_ms = [t * 1e3 for t in pass_s]
    typical = {label: common.median(v) for label, v in by_design.items()}
    nets = sum(pinned[label]["nets"] for label in typical)
    throughput = nets / (sum(typical.values()) / 1e3)
    latency = common.geomean(typical.values())
    rss = common.self_peak_rss_mb()
    report.name("compile_nets_per_s", throughput, "nets/s", len(compile_ms))
    report.name("compile_ms_median_geomean", latency, "ms", len(compile_ms))
    report.name("pass_ms_p50", common.median(pass_ms), "ms", len(pass_ms))
    report.name("pass_ms_p90", common.percentile(pass_ms, 90), "ms",
                len(pass_ms))
    report.name("pass_max_over_min", max(pass_ms) / min(pass_ms), "ratio",
                len(pass_ms))
    report.name("peak_rss_mb", rss, "MB")

    for label, circuit in circuits.items():
        fp = corpus.fingerprint(circuit)
        report.op(fp["hash"] == pinned.get(label, {}).get("hash"),
                     f"elab {label}: structural hash mismatch")

    extra = {"interp.bare_ms": ctx["bare_ms"]}
    if tracer is not None:
        extra.update(import_layer(env, ctx["bare_ms"], samples=1 if tiny else 7))
        extra["trace.overhead_pct"] = overhead
    slots = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "throughput": throughput,
        "latency_ms": latency,
    }
    return slots, layer_metrics(tracer, extra=extra)
