"""``sim``: long lanes=1 simulations under seeded per-cycle stimulus on
five designs (engine="auto"), then a 1024-lane codegen pass on two.

Setup (timed as ``setup_s``): ``import repro`` once, then compiling
every design and constructing every Simulator -- the lanes=1 ones and
the two 1024-lane codegen ones -- repeated five times; the reported
value is the import plus the median repetition.

Each design then runs its first 64 cycles untimed, recording every
output port for the oracle check.  The measured loop runs rounds: each
design simulates a 100-cycle chunk, then each lane design runs an
8-cycle 1024-lane chunk.  Rounds repeat until ``--seconds`` is spent,
so every design gets the same number of chunks.  A chunk's seeded
stimulus and reference-model values are drawn before its clock starts;
the timed loop is pokes, ``step`` and a ``peek_int`` of each port the
reference model checks.  In the lane pass only the ``step`` calls are
timed: packing a stimulus set with ``poke_lanes`` costs 8-33 ms against
~0.1 ms per 1024-lane step, so it is reported apart
(``lane_poke_ms_p50``).  Rates are taken from each design's best-of-N
chunk (``common.best``).  ``throughput`` is their geometric mean at
lanes=1, and ``latency_ms`` is the geometric mean over the lane designs
of eight 1024-lane steps.

Checks, after the clock stops:
* each design's first 64 cycles' port values and violations equal a
  replay on the dataflow engine (the oracle);
* each design's pinned reference stimulus, run on the default engine,
  matches the dataflow digest committed in refs.json;
* on every cycle of the run, ripple16's sum and carry equal a+b+cin,
  and tinycpu's accumulator holds n(n+1)/2 at the end of every program;
* lanes 0, 1023 and two seeded lanes of the lane pass equal a scalar
  run with that lane's stimulus.
"""

from __future__ import annotations

import random
import time

import common
import corpus
from corpus import LANE_LABELS, SIM_LABELS
from run import import_layer, layer_metrics

CHUNK = 100
ORACLE_PREFIX = 64
LANE_CHUNK = 8
LANE_PLAN = 16
LANE_CHECK = 128
SETUP_REPS = 5


def _build(repro, texts):
    circuits = {label: repro.compile_text(texts[label]) for label in SIM_LABELS}
    sims = {label: circuits[label].simulator(strict=False, seed=0)
            for label in SIM_LABELS}
    lane_sims = {
        label: circuits[label].simulator(
            strict=False, seed=0, engine="codegen", lanes=corpus.LANES)
        for label in LANE_LABELS
    }
    return circuits, sims, lane_sims


class _ScalarRun:
    def __init__(self, label, sim, seed):
        self.label = label
        self.sim = sim
        self.stim = corpus.Stimulus(label, seed)
        self.ports = corpus.out_ports(sim.design)
        self.prefix: list[str] = []
        self.t = 0
        self.cycles = 0
        self.chunk_s: list[float] = []
        self.expect_fail = 0
        self.expect_n = 0

    def _plan(self, cycles):
        """The next *cycles* cycles' pokes and reference-model values,
        drawn before the clock starts."""
        stim, t = self.stim, self.t
        return [(stim.pokes(t + i), stim.expect(t + i)) for i in range(cycles)]

    def lead(self, cycles):
        """The first *cycles* cycles, untimed, with every output port
        recorded for the oracle check."""
        sim = self.sim
        for pokes, expect in self._plan(cycles):
            for path, value in pokes:
                sim.poke(path, value)
            sim.step()
            self.prefix.append(" ".join(corpus.bits(sim.peek(p))
                                        for p in self.ports))
            for port, want in expect:
                self.expect_n += 1
                self.expect_fail += sim.peek_int(port) != want
        self.t += cycles

    def chunk(self, cycles):
        """Timed: pokes, step, and a ``peek_int`` of each port the
        reference model checks on that cycle."""
        sim = self.sim
        plan = self._plan(cycles)
        n = fail = 0
        t0 = time.perf_counter()
        for pokes, expect in plan:
            for path, value in pokes:
                sim.poke(path, value)
            sim.step()
            for port, want in expect:
                n += 1
                fail += sim.peek_int(port) != want
        dt = time.perf_counter() - t0
        self.expect_n += n
        self.expect_fail += fail
        self.t += cycles
        self.cycles += cycles
        self.chunk_s.append(dt / cycles)
        return dt

    def rate(self):
        """Cycles per second of the best-of-N chunk."""
        return 1.0 / common.best(self.chunk_s)

    def prefix_digest(self):
        d = common.Digest()
        for line in self.prefix:
            d.add(line)
        for rec in corpus.violation_records(self.sim, ORACLE_PREFIX):
            d.add(rec)
        return d.hexdigest()


class _LaneRun:
    def __init__(self, label, sim, seed, check_lanes):
        self.label = label
        self.sim = sim
        self.plan = corpus.lane_stimulus(label, seed, LANE_PLAN)
        self.ports = corpus.out_ports(sim.design)
        self.check_lanes = check_lanes
        self.lines = {k: [] for k in check_lanes}
        self.t = 0
        self.cycles = 0
        self.chunk_s: list[float] = []
        self.poke_s: list[float] = []

    def chunk(self, cycles):
        """Only the steps are timed: packing a stimulus set into lanes
        costs far more than a 1024-lane step, so ``poke_lanes`` is
        timed apart (``poke_s``)."""
        sim = self.sim
        step_s = 0.0
        for _ in range(cycles):
            if self.t % corpus.LANE_HOLD == 0:
                t0 = time.perf_counter()
                for path, value in self.plan[
                        (self.t // corpus.LANE_HOLD) % LANE_PLAN]:
                    if isinstance(value, int):
                        sim.poke(path, value)
                    else:
                        sim.poke_lanes(path, value)
                self.poke_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            sim.step()
            step_s += time.perf_counter() - t0
            if self.t < LANE_CHECK:
                for k in self.check_lanes:
                    self.lines[k].append(" ".join(
                        corpus.bits(sim.peek_lane(p, k)) for p in self.ports))
            self.t += 1
        self.cycles += cycles
        self.chunk_s.append(step_s / cycles)
        return step_s

    def rate(self):
        """Lane-cycles per second of the best-of-N chunk's steps."""
        return corpus.LANES / common.best(self.chunk_s)

    def lane_digest(self, k):
        d = common.Digest()
        for line in self.lines[k]:
            d.add(line)
        for v in self.sim.violations:
            if v.lane == k and v.cycle < LANE_CHECK:
                d.add(f"v {v.cycle} {v.net} {corpus.bits(v.values)}")
        return d.hexdigest()


def run(ctx):
    args, report, refs = ctx["args"], ctx["report"], ctx["refs"]
    tiny = args.scale == "tiny"
    ctx["pin"].pin_self()
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()

    # Inputs first (not the program's set-up): sources and lane plans.
    rng = random.Random(f"sim/{args.seed}")
    check_lanes = sorted({0, corpus.LANES - 1,
                          *rng.sample(range(1, corpus.LANES - 1), 2)})

    t0 = time.perf_counter()
    import repro

    t_import = time.perf_counter() - t0
    texts = {label: corpus.source(expr) for label, expr in corpus.SIM_DESIGNS}
    if tracer is not None:
        layers.install(tracer)
    reps = []
    for _ in range(1 if tiny else SETUP_REPS):
        t0 = time.perf_counter()
        circuits, sims, lane_sims = _build(repro, texts)
        reps.append(time.perf_counter() - t0)
    setup_s = t_import + common.median(reps)
    report.name("setup_s", setup_s, "s", len(reps))

    scalar = [_ScalarRun(label, sims[label], args.seed) for label in SIM_LABELS]
    lanes = [_LaneRun(label, lane_sims[label], args.seed, check_lanes)
             for label in LANE_LABELS]
    for r in scalar:
        r.lead(ORACLE_PREFIX)

    overhead = None
    if tracer is not None:
        # A quarter of the run untraced, the rest traced: the ratio of
        # their chunk times is the tracing overhead.
        layers.uninstall(tracer)
        plain = _rounds(scalar, lanes, args.seconds * 0.25, tiny)
        layers.install(tracer)
        traced = _rounds(scalar, lanes, args.seconds * 0.75, tiny)
        overhead = 100.0 * (common.median(traced) / common.median(plain) - 1)
        chunk_ms = plain + traced
    else:
        chunk_ms = _rounds(scalar, lanes, args.seconds, tiny)

    cps = {r.label: r.rate() for r in scalar}
    lcps = {r.label: r.rate() for r in lanes}
    for label, value in cps.items():
        report.name(f"cycles_per_s.{label}", value, "cycles/s",
                    next(r.cycles for r in scalar if r.label == label))
    for label, value in lcps.items():
        report.name(f"lane_cycles_per_s.{label}", value, "lane-cycles/s")
    report.name("sim_cycles_per_s", common.geomean(cps.values()), "cycles/s",
                sum(r.cycles for r in scalar))
    report.name("sim_lane_cycles_per_s", common.geomean(lcps.values()),
                "lane-cycles/s", sum(r.cycles for r in lanes))
    p50 = common.median(chunk_ms)
    p90 = common.percentile(chunk_ms, 90)
    report.name("chunk_ms_p50", p50, "ms", len(chunk_ms))
    report.name("chunk_ms_p90", p90, "ms", len(chunk_ms))
    lane_ms = common.geomean(common.best(r.chunk_s) * LANE_CHUNK * 1e3
                             for r in lanes)
    report.name("lane_chunk_ms_best_geomean", lane_ms, "ms",
                sum(len(r.chunk_s) for r in lanes))
    poke_ms = [x * 1e3 for r in lanes for x in r.poke_s]
    report.name("lane_poke_ms_p50", common.median(poke_ms), "ms", len(poke_ms))
    rss = common.self_peak_rss_mb()
    report.name("peak_rss_mb", rss, "MB")

    _check(report, refs, circuits, scalar, lanes, args.seed)

    extra = {"interp.bare_ms": ctx["bare_ms"]}
    if tracer is not None:
        extra.update(import_layer(ctx["env"], ctx["bare_ms"],
                                  samples=1 if tiny else 7))
        extra["trace.overhead_pct"] = overhead
    names = {label: circuits[label].name for label in SIM_LABELS}
    slots = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "throughput": common.geomean(cps.values()),
        "latency_ms": lane_ms,
    }
    return slots, layer_metrics(tracer, sim_names=names, extra=extra)


def _rounds(scalar, lanes, seconds, tiny):
    chunk_ms = []
    deadline = time.perf_counter() + seconds
    while True:
        for r in scalar:
            chunk_ms.append(r.chunk(10 if tiny else CHUNK) * 1e3)
        for r in lanes:
            r.chunk(1 if tiny else LANE_CHUNK)
        if tiny or time.perf_counter() >= deadline:
            return chunk_ms


def _check(report, refs, circuits, scalar, lanes, seed):
    for r in scalar:
        circuit = circuits[r.label]
        oracle = circuit.simulator(strict=False, seed=0, engine="dataflow")
        want = corpus.run_scalar(oracle, r.label, seed, ORACLE_PREFIX)
        report.op(r.prefix_digest() == want,
                  f"sim {r.label}: seeded run != dataflow oracle")

        ref_sim = circuit.simulator(strict=False, seed=0)
        got = corpus.run_scalar(ref_sim, r.label, corpus.REF_SEED,
                                corpus.REF_CYCLES)
        report.op(got == refs["sim"].get(r.label),
                     f"sim {r.label}: reference stimulus digest mismatch")
        if r.expect_n:
            report.op(r.expect_fail == 0,
                         f"sim {r.label}: {r.expect_fail}/{r.expect_n} "
                         f"outputs differ from the reference model")
    for r in lanes:
        for k in r.check_lanes:
            want = corpus.scalar_lane_replay(circuits[r.label], r.plan,
                                             min(r.t, LANE_CHECK), k)
            report.op(r.lane_digest(k) == want,
                         f"sim lanes {r.label}: lane {k} != scalar replay")
