"""The benchmark's inputs: design corpora, seeded stimulus, and the
fingerprints and digests the workloads check their outputs against.

Every generator is a pure function of its seed, so the same seed gives
the same inputs; the program only ever sees the generated texts and
stimulus values.
"""

from __future__ import annotations

import random

from common import Digest

#: elab corpus: parameter-scaled designs, ~46k nets per pass.
ELAB_DESIGNS = [
    ("trees1024", "programs.trees(1024)"),
    ("routing64", "programs.routing(64)"),
    ("sorter16x8", "extras.sorter(16, 8)"),
    ("patternmatch63", "programs.patternmatch(63)"),
    ("ripple128", "programs.ripple_carry(128)"),
]
#: the self-test's stand-in for the elab corpus.
TINY_ELAB_DESIGNS = [
    ("patternmatch7", "programs.patternmatch(7)"),
    ("ripple8", "programs.ripple_carry(8)"),
]

#: sim corpus (lanes=1), keyed by the label used in metric names.
SIM_DESIGNS = [
    ("blackjack", "programs.BLACKJACK"),
    ("tinycpu", "extras.TINYCPU"),
    ("memory", "programs.MEMORY"),
    ("ripple16", "programs.ripple_carry(16)"),
    ("patternmatch", "programs.PATTERNMATCH"),
]
SIM_LABELS = tuple(label for label, _expr in SIM_DESIGNS)
#: the 1024-lane codegen pass.
LANE_LABELS = ("blackjack", "ripple16")
LANES = 1024

#: small stdlib designs for the daemon's cold compiles, lint and sims.
ZEUSD_DESIGNS = [
    ("adders", "programs.ADDERS"),
    ("blackjack", "programs.BLACKJACK"),
    ("mux4", "programs.MUX4"),
    ("memory", "programs.MEMORY"),
    ("patternmatch", "programs.PATTERNMATCH"),
]

#: the seed-independent stimulus whose outputs are pinned in refs.json
#: from the dataflow engine, and its length per design.
REF_SEED = 1983
REF_CYCLES = 240


def source(expr: str) -> str:
    """Evaluate a corpus entry such as ``programs.trees(1024)``."""
    from repro.stdlib import extras, programs  # noqa: F401

    return eval(expr, {"programs": programs, "extras": extras})


def fingerprint(circuit) -> dict:
    """Netlist counts plus a structural hash over gates, drivers and
    registers (net names are the elaborator's flattened paths)."""
    nl = circuit.netlist
    d = Digest()
    for g in nl.gates:
        d.add(f"g {g.op} {g.output.name} " + " ".join(n.name for n in g.inputs))
    for c in nl.conns:
        d.add(f"c {c.dst.name} {c.src.name} "
              f"{c.cond.name if c.cond is not None else '-'}")
    for c in nl.const_conns:
        d.add(f"k {c.dst.name} {c.value} "
              f"{c.cond.name if c.cond is not None else '-'}")
    for r in nl.regs:
        d.add(f"r {r.d.name} {r.q.name}")
    stats = circuit.stats()
    return {
        "nets": stats["nets"],
        "gates": stats["gates"],
        "connections": stats["connections"],
        "registers": stats["registers"],
        "hash": d.hexdigest(),
    }


def counts(fp: dict) -> dict:
    return {k: fp[k] for k in ("nets", "gates", "connections", "registers")}


# -- seeded per-cycle stimulus ---------------------------------------------

#: the triangular-numbers program of examples/tiny_computer.py.
TRIANGLE = """
    LDI 1
    STA 15
    LDI {n}
    STA 0
    LDI 0
    STA 1
    LDA 1
    ADD 0
    STA 1
    LDA 0
    SUB 15
    STA 0
    JNZ 6
    LDA 1
    HLT
"""
#: cycles a tinycpu program runs after loading (n <= 9 halts well within).
CPU_RUN = 100


def _triangle_words(n: int) -> list[int]:
    from repro.stdlib import extras

    return extras.assemble(TRIANGLE.format(n=n))


class Stimulus:
    """Per-cycle input values for one design at lanes=1.

    ``pokes(t)`` returns the (path, value) pairs to drive before cycle
    *t*'s step.  Reset is asserted periodically so sequential designs
    keep leaving their reset state; tinycpu loads and runs the
    triangular-numbers program for a seeded n, again and again.
    ``expect(t)`` lists (port, int) values a reference model says the
    design must show after the step of cycle *t*: the adder's sum and
    carry every cycle, tinycpu's accumulator = n(n+1)/2 at the end of
    every program.
    """

    def __init__(self, label: str, seed: int):
        self.label = label
        self.rng = random.Random(f"{label}/{seed}")
        self._cpu = None

    def pokes(self, t: int) -> list[tuple[str, int]]:
        r = self.rng
        if self.label == "blackjack":
            return [("RSET", int(t % 97 == 0)), ("ycard", r.getrandbits(1)),
                    ("value", r.randint(1, 11))]
        if self.label == "memory":
            return [("addr", r.getrandbits(4)), ("data", r.getrandbits(8)),
                    ("we", r.getrandbits(1))]
        if self.label == "ripple16":
            self._add = (r.getrandbits(16), r.getrandbits(16), r.getrandbits(1))
            a, b, cin = self._add
            return [("a", a), ("b", b), ("cin", cin)]
        if self.label == "patternmatch":
            return [("RSET", int(t % 61 == 0)), ("pattern", r.getrandbits(1)),
                    ("string", r.getrandbits(1)),
                    ("endofpattern", r.getrandbits(1)),
                    ("wild", r.getrandbits(1)), ("resultin", r.getrandbits(1))]
        if self.label == "tinycpu":
            return self._cpu_pokes(t)
        raise KeyError(self.label)

    def _cpu_pokes(self, t: int) -> list[tuple[str, int]]:
        if self._cpu is None or t >= self._cpu[0] + self._cpu[2]:
            n = self.rng.randint(1, 9)
            words = _triangle_words(n)
            self._cpu = (t, words, 1 + len(words) + CPU_RUN, n)
        start, words, _period, _n = self._cpu
        k = t - start
        if k == 0:
            return [("RSET", 1), ("iload", 0), ("iaddr", 0), ("idata", 0)]
        if k <= len(words):
            return [("RSET", 0), ("iload", 1), ("iaddr", k - 1),
                    ("idata", words[k - 1])]
        return [("iload", 0)] if k == len(words) + 1 else []

    def expect(self, t: int) -> list[tuple[str, int]]:
        if self.label == "ripple16":
            total = sum(self._add)
            return [("s", total & 0xFFFF), ("cout", total >> 16)]
        if self.label == "tinycpu":
            start, _words, period, n = self._cpu
            if t == start + period - 1:
                return [("accout", n * (n + 1) // 2)]
        return []


#: cycles each lane stimulus set is held for in the lane pass.
LANE_HOLD = 32


def lane_stimulus(label: str, seed: int, sets: int, lanes: int = LANES):
    """Pre-generated lane stimulus for the lane pass: *sets* entries of
    (path, [value per lane]) pairs (RSET is a scalar broadcast), each
    held for :data:`LANE_HOLD` cycles."""
    rng = random.Random(f"lanes/{label}/{seed}")
    plan = []
    for i in range(sets):
        if label == "blackjack":
            plan.append([
                ("RSET", int(i % 12 == 0)),
                ("ycard", [rng.getrandbits(1) for _ in range(lanes)]),
                ("value", [rng.randint(1, 11) for _ in range(lanes)]),
            ])
        else:
            plan.append([
                ("a", [rng.getrandbits(16) for _ in range(lanes)]),
                ("b", [rng.getrandbits(16) for _ in range(lanes)]),
                ("cin", [rng.getrandbits(1) for _ in range(lanes)]),
            ])
    return plan


def out_ports(circuit) -> list[str]:
    return [p.name for p in circuit.netlist.ports if p.mode != "IN"]


def bits(values) -> str:
    return "".join(str(v) for v in values)


def violation_records(sim, upto: int | None = None) -> list[str]:
    return [
        f"v {v.cycle} {v.net} {bits(v.values)}"
        for v in sim.violations
        if upto is None or v.cycle < upto
    ]


def run_scalar(sim, label: str, seed: int, cycles: int) -> str:
    """Drive *sim* with the seeded stimulus for *cycles* cycles and
    return the digest of per-cycle port values plus violations (the
    reference and oracle checks)."""
    stim = Stimulus(label, seed)
    ports = out_ports(sim.design)
    d = Digest()
    for t in range(cycles):
        for path, value in stim.pokes(t):
            sim.poke(path, value)
        sim.step()
        d.add(" ".join(bits(sim.peek(p)) for p in ports))
    for rec in violation_records(sim):
        d.add(rec)
    return d.hexdigest()


def scalar_lane_replay(circuit, plan, cycles: int, lane: int) -> str:
    """Lane *lane*'s stimulus of a lane plan, run as a scalar
    simulation for *cycles* cycles (seed = lane, the batched engines'
    per-lane contract)."""
    sim = circuit.simulator(strict=False, seed=lane)
    ports = out_ports(circuit)
    d = Digest()
    for t in range(cycles):
        if t % LANE_HOLD == 0:
            for path, value in plan[(t // LANE_HOLD) % len(plan)]:
                sim.poke(path, value if isinstance(value, int) else value[lane])
        sim.step()
        d.add(" ".join(bits(sim.peek(p)) for p in ports))
    for rec in violation_records(sim):
        d.add(rec)
    return d.hexdigest()
