"""Per-design code generation: the ``engine="codegen"`` backend.

The batched engine (:mod:`repro.core.batched`) interprets the levelized
:class:`~repro.core.schedule.Schedule` opcode by opcode: every pass pays
a dispatch branch, a tuple unpack and two list indexes per op, on top of
the plane arithmetic that is the actual work.  This module removes the
interpreter entirely, in the style of compiled-code logic simulators
(and of Hardcaml's simulation backends): at :class:`Simulator`
construction the schedule is *compiled to Python source* -- one straight
-line function whose locals are the bitplanes -- and ``exec``-compiled
once.  A cycle is then a single call of generated code:

* no per-opcode dispatch -- each op is emitted as its own expression;
* locals-only variable access (``LOAD_FAST``), no per-op list indexing;
* ``COPY`` ops (the majority in real designs: 225 of 305 in the 16-bit
  ripple adder) cost *nothing* -- copy propagation aliases the
  destination's plane names to the source's;
* constant masks are folded into the emitted source (`SET`/`CONST` ops
  become the literals ``M``/``0``);
* gates consume *amplified* planes (NOINFL pre-converted to UNDEF), so
  the AND/OR/NAND/NOR rules collapse to two plane ops each and NOT to a
  pure alias swap; the amplification itself is emitted only for the few
  classes that can actually carry NOINFL (multiplex nets, free nets) --
  gate outputs, register outputs and poked inputs provably cannot.

Two backends share the emitter:

* ``"int"`` -- planes are unbounded Python ints, exactly the batched
  engine's state layout (the :class:`Simulator` reuses its plane lists,
  pokes and register planes unchanged);
* ``"numpy"`` -- planes are little-endian ``uint64`` word arrays
  (``lanes`` packed 64 per word), so the per-op cost stays flat as the
  lane count grows past the point where Python big-int arithmetic turns
  quadratic-ish.  Measured on the 16-bit adder gate block: big ints win
  below ~16k lanes, the word arrays win above (3.6x at 256k lanes).

``backend="auto"`` picks the word-array backend at
``NUMPY_LANE_THRESHOLD`` lanes and up when NumPy is importable, and
degrades gracefully to ``"int"`` when it is not.  Any schedule the
emitter cannot handle raises :class:`CodegenError`; the caller falls
back to the interpreted batched path, so ``engine="codegen"`` is never
less capable than ``engine="batched"``.

A third backend, ``"scalar"``, serves the lanes=1 levelized engine
instead of the lane engines: it emits the schedule as straight-line
Python over the simulator's own ``Logic`` value array (see
:func:`compile_scalar`).

Poke contract
-------------

The generated function only merges pokes on *input-default* classes
(inputs without drivers -- where virtually all stimulus lands), and only
non-NOINFL poke values; :attr:`CompiledStep.poke_ok` names the classes.
The :class:`Simulator` checks the active poke table against that set and
runs the interpreted batched pass instead when an exotic poke (an INOUT
pin, an internal net, a NOINFL lane) is present -- same observations,
interpreter speed.  The scalar backend has the same contract, except
that a NOINFL poke on an input is merged like any other value; its
``poke_ok`` is None, and the simulator tracks the contract from the
schedule's ``input_defaults`` (it must know it before any compile).
"""

from __future__ import annotations

import importlib.util
from typing import Callable

from .schedule import (
    OPC_AND,
    OPC_CLASS,
    OPC_CONST,
    OPC_COPY,
    OPC_EQUAL,
    OPC_NAND,
    OPC_NOR,
    OPC_NOT,
    OPC_OR,
    OPC_RANDOM,
    OPC_SET,
    OPC_XOR,
    Schedule,
)
from .values import Logic

# The numpy backend is optional (the int and scalar backends are always
# there) and imported on first use: importing NumPy costs ~150 ms, which
# a lanes=1 tier-up must not pay.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
_np = None

#: Lane count at and above which ``backend="auto"`` picks the uint64
#: word-array backend (measured crossover of big-int vs numpy plane op
#: cost on the adders sweep; see EXPERIMENTS.md E16).
NUMPY_LANE_THRESHOLD = 65536

#: Explicit little-endian uint64, so int <-> word-array conversion via
#: ``to_bytes(..., "little")`` is correct regardless of host order (set
#: by :func:`_numpy`).
WORD_DTYPE = None

BACKENDS = ("int", "numpy")

#: Schedule ops per generated function of the scalar backend.  Python's
#: compiler holds a whole function's AST and flow graph at once: one
#: function for tinycpu's ~5k-line step raised the process high-water
#: mark by 16 MB, 64-op chunks by ~2 MB, at the same cycle speed
#: (EXPERIMENTS.md E19).
SCALAR_CHUNK_OPS = 64


class CodegenError(Exception):
    """The emitter cannot compile this schedule (the caller should fall
    back to the interpreted batched engine)."""


def choose_backend(lanes: int) -> str:
    """The ``backend="auto"`` rule: word arrays once big-int plane ops
    stop being competitive, ints (always available) below."""
    if HAVE_NUMPY and lanes >= NUMPY_LANE_THRESHOLD:
        return "numpy"
    return "int"


def _numpy():
    """The numpy module, imported (and WORD_DTYPE set) on first use."""
    global _np, WORD_DTYPE
    if _np is None:
        import numpy

        WORD_DTYPE = numpy.dtype("<u8")
        _np = numpy
    return _np


def words_for(lanes: int) -> int:
    """uint64 words needed to hold *lanes* plane bits."""
    return (lanes + 63) // 64


def int_to_words(value: int, words: int):
    """One big-int plane -> little-endian uint64 word array."""
    return _numpy().frombuffer(
        value.to_bytes(words * 8, "little"), dtype=WORD_DTYPE
    )


def words_to_int(arr) -> int:
    """One uint64 word-array plane -> big-int plane (ints pass through,
    so conflict hooks can receive either representation)."""
    if isinstance(arr, int):
        return arr
    return int.from_bytes(arr.tobytes(), "little")


class CompiledStep:
    """One exec-compiled combinational pass over a schedule.

    ``fn(vals0, vals1, pokes, reg0, reg1, lane_rngs, conflict, M)``
    mirrors :func:`repro.core.batched.execute` -- same state layout,
    same argument meaning, planes either ints or uint64 word arrays
    depending on :attr:`backend`.  :attr:`source` is the generated
    Python source (goldens in ``tests/test_codegen.py`` pin it down).

    On the scalar backend ``fn(values, pokes, reg_state, rng_random,
    conflict)`` mirrors :func:`repro.core.schedule.execute` instead, and
    :attr:`latch` ``(values, reg_state) -> latched count`` is the REG
    latch rule; :attr:`poke_ok` is None there (see "Poke contract").
    """

    __slots__ = ("source", "fn", "backend", "poke_ok", "words", "n_ops",
                 "latch")

    def __init__(self, source: str, fn: Callable, backend: str,
                 poke_ok: frozenset | None, words: int | None, n_ops: int,
                 latch: Callable | None = None):
        self.source = source
        self.fn = fn
        self.backend = backend
        self.poke_ok = poke_ok
        self.words = words
        self.n_ops = n_ops
        self.latch = latch

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CompiledStep(backend={self.backend!r}, "
            f"{self.n_ops} ops, {len(self.source.splitlines())} lines)"
        )


class _Emitter:
    """Schedule -> Python source.  One instance per compile."""

    def __init__(self, sched: Schedule, backend: str):
        self.sched = sched
        self.backend = backend
        self.np = backend == "numpy"
        self.lines: list[str] = []
        #: per-class raw plane refs (expression strings), SSA-style.
        self.ref0: list[str | None] = [None] * sched.n
        self.ref1: list[str | None] = [None] * sched.n
        #: per-class amplified refs (NOINFL -> UNDEF), built on demand.
        self.amp0: list[str | None] = [None] * sched.n
        self.amp1: list[str | None] = [None] * sched.n
        #: True when the class can carry NOINFL (needs amplification
        #: before a gate consumes it).
        self.maybe_noinfl = [False] * sched.n
        self.tmp = 0
        #: literal for an all-zero plane ("Z" is the shared zero array).
        self.zero = "Z" if self.np else "0"

    # -- small helpers ---------------------------------------------------

    def emit(self, line: str, depth: int = 1) -> None:
        self.lines.append("    " * depth + line)

    def fresh(self) -> str:
        self.tmp += 1
        return f"t{self.tmp}"

    def truth(self, expr: str) -> str:
        """A boolean test of a plane expression (arrays need .any())."""
        return f"{expr}.any()" if self.np else expr

    def set_raw(self, i: int, r0: str, r1: str, noinfl: bool) -> None:
        self.ref0[i] = r0
        self.ref1[i] = r1
        self.maybe_noinfl[i] = noinfl
        if not noinfl:
            self.amp0[i] = r0
            self.amp1[i] = r1

    def define(self, i: int, e0: str, e1: str, noinfl: bool,
               depth: int = 1) -> None:
        """Assign class *i*'s planes to fresh locals p{i}/q{i}."""
        self.emit(f"p{i} = {e0}", depth)
        self.emit(f"q{i} = {e1}", depth)
        self.set_raw(i, f"p{i}", f"q{i}", noinfl)

    def amp(self, i: int) -> tuple[str, str]:
        """Amplified plane refs of class *i* (gate-input view: NOINFL
        reads as UNDEF).  Emitted at most once per class."""
        if self.amp0[i] is None:
            r0, r1 = self.ref0[i], self.ref1[i]
            if r0 == self.zero and r1 == self.zero:
                # A constant NOINFL (free net) amplifies to UNDEF.
                self.amp0[i] = self.amp1[i] = "M"
            else:
                u = self.fresh()
                self.emit(f"{u} = M ^ ({r0} | {r1})")
                self.emit(f"a{i} = {r0} | {u}")
                self.emit(f"b{i} = {r1} | {u}")
                self.amp0[i] = f"a{i}"
                self.amp1[i] = f"b{i}"
        return self.amp0[i], self.amp1[i]

    def const_planes(self, value: Logic) -> tuple[str, str]:
        """The plane literals of a broadcast constant."""
        from .batched import LOGIC_PLANES

        b0, b1 = LOGIC_PLANES[value]
        return ("M" if b0 else self.zero, "M" if b1 else self.zero)

    # -- emission --------------------------------------------------------

    def compile(self, func_name: str) -> tuple[str, frozenset]:
        sched = self.sched
        self.emit(
            f"def {func_name}(vals0, vals1, pokes, reg0, reg1, "
            "lane_rngs, conflict, M):", 0
        )
        self.emit("get_poke = pokes.get")

        # Source firings (cycle start), mirroring batched.execute.
        for i in sched.free_nets:
            self.set_raw(i, self.zero, self.zero, noinfl=True)
        poke_ok = self._emit_input_defaults()
        for ri, qi in sched.reg_pairs:
            # Register planes are never NOINFL: they start UNDEF and the
            # latch only overwrites driven lanes.
            self.define(qi, f"reg0[{ri}]", f"reg1[{ri}]", noinfl=False)
        for op in sched.source_ops:
            if op[0] == OPC_RANDOM:
                self._emit_random(op[1])
            else:
                assert op[0] == OPC_SET
                e0, e1 = self.const_planes(op[2])
                self.set_raw(op[1], e0, e1, noinfl=op[2] is Logic.NOINFL)

        for op in sched.ops:
            self._emit_op(op)

        self._emit_store()
        for i in range(sched.n):
            if self.ref0[i] is None:
                raise CodegenError(f"class {i} has no producer")
        return "\n".join(self.lines) + "\n", poke_ok

    def _emit_input_defaults(self) -> frozenset:
        """Input classes: default value unless poked.  Pokes here carry
        no NOINFL lanes (the Simulator falls back for those), so the
        merged value never needs amplification."""
        poke_ok = set()
        for i, default in self.sched.input_defaults:
            if default not in (Logic.ZERO, Logic.UNDEF):
                raise CodegenError(
                    f"unsupported input default {default!r}"
                )
            poke_ok.add(i)
            undef = default is Logic.UNDEF
            self.emit(f"pk = get_poke({i})")
            self.emit("if pk is None:")
            self.emit(f"p{i} = M", 2)
            self.emit(f"q{i} = {'M' if undef else self.zero}", 2)
            self.emit("else:")
            self.emit("t0, t1, pm = pk", 2)
            self.emit("f = M ^ pm", 2)
            self.emit(f"p{i} = f | t0", 2)
            self.emit(f"q{i} = {'f | t1' if undef else 't1'}", 2)
            self.set_raw(i, f"p{i}", f"q{i}", noinfl=False)
        return frozenset(poke_ok)

    def _emit_random(self, out: int) -> None:
        """RANDOM source: consume each lane rng once, lane order --
        exactly the interpreter's stream, so the seed+k contract holds."""
        self.emit("ones = 0")
        self.emit("bit = 1")
        self.emit("for rng in lane_rngs:")
        self.emit("if rng.random() < 0.5:", 2)
        self.emit("ones |= bit", 3)
        self.emit("bit <<= 1", 2)
        if self.np:
            self.emit(f"q{out} = I2W(ones)")
            self.emit(f"p{out} = M ^ q{out}")
        else:
            self.emit(f"p{out} = M ^ ones")
            self.emit(f"q{out} = ones")
        self.set_raw(out, f"p{out}", f"q{out}", noinfl=False)

    def _emit_op(self, op: tuple) -> None:
        code = op[0]
        if code == OPC_COPY:
            # Pure aliasing: the dst planes *are* the src planes (pokes
            # on COPY destinations route through the interpreter).
            dst, src = op[1], op[2]
            self.ref0[dst] = self.ref0[src]
            self.ref1[dst] = self.ref1[src]
            self.amp0[dst] = self.amp0[src]
            self.amp1[dst] = self.amp1[src]
            self.maybe_noinfl[dst] = self.maybe_noinfl[src]
            # A later amp() of dst must also land on src's cache.
            if self.maybe_noinfl[dst]:
                self._alias_amp(dst, src)
        elif code == OPC_CONST:
            e0, e1 = self.const_planes(op[2])
            self.set_raw(op[1], e0, e1, noinfl=op[2] is Logic.NOINFL)
        elif code == OPC_NOT:
            a0, a1 = self._amped(op[1])
            # NOT on amplified planes is a plane swap: zero ops.
            self.set_raw(op[2], a1, a0, noinfl=False)
        elif code in (OPC_AND, OPC_OR, OPC_NAND, OPC_NOR):
            self._emit_and_or(code, op[1], op[2])
        elif code == OPC_XOR:
            self._emit_xor(op[1], op[2])
        elif code == OPC_EQUAL:
            self._emit_equal(op[1], op[2])
        elif code == OPC_CLASS:
            self._emit_class(op[1], op[2])
        else:  # pragma: no cover - future opcodes land here explicitly
            raise CodegenError(f"unknown opcode {code}")

    def _alias_amp(self, dst: int, src: int) -> None:
        """Keep dst's amp cache tied to src's, so amplification emitted
        for either is shared."""
        # Chase src to its alias root (refs are shared strings, so the
        # simplest correct sharing is: re-run amp(src) when dst needs it;
        # record the link via a tiny closure-free indirection table.
        self._amp_link = getattr(self, "_amp_link", {})
        self._amp_link[dst] = self._amp_link.get(src, src)

    def _amped(self, i: int) -> tuple[str, str]:
        link = getattr(self, "_amp_link", {})
        root = link.get(i, i)
        a0, a1 = self.amp(root)
        if root != i:
            self.amp0[i], self.amp1[i] = a0, a1
        return a0, a1

    def _emit_and_or(self, code: int, ins: tuple, out: int) -> None:
        """AND/OR/NAND/NOR on amplified planes:

        AND:  possibly-1 = all inputs possibly-1; possibly-0 = any
        input possibly-0.  OR is the dual; NAND/NOR swap the outputs.
        (Amplification makes this exact: a NOINFL operand reads as
        UNDEF, which is possibly-0 *and* possibly-1, degrading the
        output exactly like the scalar tables.)"""
        amps = [self._amped(i) for i in ins]
        if code in (OPC_AND, OPC_NAND):
            any0 = " | ".join(a0 for a0, _ in amps)
            all1 = " & ".join(a1 for _, a1 in amps)
            e0, e1 = any0, all1
        else:
            any1 = " | ".join(a1 for _, a1 in amps)
            all0 = " & ".join(a0 for a0, _ in amps)
            e0, e1 = all0, any1
        if code in (OPC_NAND, OPC_NOR):
            e0, e1 = e1, e0
        self.define(out, e0, e1, noinfl=False)

    def _emit_xor(self, ins: tuple, out: int) -> None:
        """XOR folds pairwise on amplified planes: possibly-1 of a ^ b
        is (a possibly-0 and b possibly-1) or vice versa; UNDEF operands
        poison both planes, matching the scalar all-defined rule."""
        a0, a1 = self._amped(ins[0])
        for j in ins[1:]:
            b0, b1 = self._amped(j)
            x0, x1 = self.fresh(), self.fresh()
            self.emit(f"{x0} = ({a0} & {b0}) | ({a1} & {b1})")
            self.emit(f"{x1} = ({a0} & {b1}) | ({a1} & {b0})")
            a0, a1 = x0, x1
        self.emit(f"p{out} = {a0}")
        self.emit(f"q{out} = {a1}")
        self.set_raw(out, f"p{out}", f"q{out}", noinfl=False)

    def _xor(self, a: str, b: str) -> str:
        """Constant-fold a plane xor: every plane value is a subset of
        the lane mask ``M``, so ``x ^ 0 = x`` and ``x ^ x = 0`` hold,
        and ``M`` is the all-lanes constant."""
        if a == self.zero:
            return b
        if b == self.zero:
            return a
        if a == b:
            return self.zero
        return f"{a} ^ {b}"

    def _and(self, a: str, b: str) -> str:
        """Constant-fold a plane and (same subset-of-M invariant)."""
        Z = self.zero
        if a == Z or b == Z:
            return Z
        if a == "M":
            return b
        if b == "M":
            return a
        pa = a if " " not in a else f"({a})"
        pb = b if " " not in b else f"({b})"
        return f"{pa} & {pb}"

    def _emit_equal(self, pairs: tuple, out: int) -> None:
        """Multi-bit EQUAL, the interpreter's formulation: ZERO as soon
        as a defined bit pair differs, UNDEF when any pair is undefined
        and none differ.  The plane form is amplification-invariant, so
        raw refs are fine."""
        Z = self.zero
        diff_terms = []
        undef_terms = []
        for ai, bi in pairs:
            a0, a1 = self.ref0[ai], self.ref1[ai]
            b0, b1 = self.ref0[bi], self.ref1[bi]
            both = self._and(self._xor(a0, a1), self._xor(b0, b1))
            if both == Z:
                # This bit pair is never both-defined: it can only
                # contribute "undefined", never a decided difference.
                undef_terms.append("M")
                continue
            if both == "M":
                # Always both-defined: no undefined contribution.
                dx = self._xor(a1, b1)
                if dx != Z:
                    diff_terms.append(f"({dx})" if " " in dx else dx)
                continue
            bd = self.fresh()
            self.emit(f"{bd} = {both}")
            dx = self._xor(a1, b1)
            if dx != Z:
                diff_terms.append(f"({self._and(bd, dx)})")
            undef_terms.append(f"(M ^ {bd})")
        if diff_terms:
            d = self.fresh()
            self.emit(f"{d} = {' | '.join(diff_terms)}")
        else:
            d = Z
        parts0 = ([d] if d != Z else []) + undef_terms
        self.define(
            out,
            " | ".join(parts0) if parts0 else Z,
            "M" if d == Z else f"M ^ {d}",
            noinfl=False,
        )

    def _emit_class(self, dst: int, drivers: tuple) -> None:
        """A multiplex class: guarded drivers resolved with the maybe/
        NOINFL/burning rules of the interpreter, conflicts reported per
        lane through the ``conflict`` hook.  Pokes on multiplex classes
        are exotic (interpreter fallback), so the accumulators start
        empty."""
        Z = self.zero
        self.emit(f"ac0 = ac1 = dv = mb = cf = {Z}")
        first = True
        for cond, src, const in drivers:
            depth = 1
            if cond >= 0:
                c0, c1 = self.ref0[cond], self.ref1[cond]
                self.emit(f"on = {c1} & ~{c0}")
                # Guard UNDEF -- or a floating NOINFL guard -- *may*
                # drive: poisons the lane without counting as a drive.
                self.emit(f"mb = mb | (M ^ (on | ({c0} & ~{c1})))")
                self.emit(f"if {self.truth('on')}:")
                depth = 2
                on = "on"
            else:
                on = "M"
            if const is None:
                s0, s1 = self.ref0[src], self.ref1[src]
                if on == "M":
                    d0, d1 = s0, s1
                else:
                    self.emit(f"d0 = {s0} & on", depth)
                    self.emit(f"d1 = {s1} & on", depth)
                    d0, d1 = "d0", "d1"
            else:
                e0, e1 = self.const_planes(const)
                d0 = on if e0 == "M" else Z
                d1 = on if e1 == "M" else Z
            self.emit(f"dr = {d0} | {d1}", depth)
            self.emit(f"if {self.truth('dr')}:", depth)
            if not first:
                self.emit(f"cl = dv & dr", depth + 1)
                self.emit(f"if {self.truth('cl')}:", depth + 1)
                if self.np:
                    self.emit(
                        "conflict("
                        f"{dst}, W2I(cl), W2I(ac0), W2I(ac1), "
                        f"W2I({d0}), W2I({d1}))",
                        depth + 2,
                    )
                else:
                    self.emit(
                        f"conflict({dst}, cl, ac0, ac1, {d0}, {d1})",
                        depth + 2,
                    )
                self.emit("cf = cf | cl", depth + 2)
            self.emit(f"ac0 = ac0 | {d0}", depth + 1)
            self.emit(f"ac1 = ac1 | {d1}", depth + 1)
            self.emit(f"dv = dv | dr", depth + 1)
            first = False
        self.define(dst, "ac0 | cf | mb", "ac1 | cf | mb", noinfl=True)

    def _emit_store(self) -> None:
        """Write every class's planes back in two list displays -- one
        bulk store per plane instead of one ``STORE_SUBSCR`` per class."""
        for name, refs in (("vals0", self.ref0), ("vals1", self.ref1)):
            self.emit(f"{name}[:] = [")
            row: list[str] = []
            for r in refs:
                row.append(r if r is not None else self.zero)
                if len(row) == 10:
                    self.emit("    " + ", ".join(row) + ",")
                    row = []
            if row:
                self.emit("    " + ", ".join(row) + ",")
            self.emit("]")


#: Names of the four ``Logic`` constants inside scalar generated code.
_SCALAR_NAMES = {Logic.ZERO: "Z", Logic.ONE: "O", Logic.UNDEF: "U",
                 Logic.NOINFL: "N"}
_KNOWN = frozenset(_SCALAR_NAMES.values())


def _any_is(names: list[str], const: str) -> str:
    return " or ".join(f"{x} is {const}" for x in names)


def _all_is(names: list[str], const: str) -> str:
    return " and ".join(f"{x} is {const}" for x in names)


class _ScalarEmitter:
    """Schedule -> straight-line Python over ``Logic`` values.

    Every op stores its class in place (``v[i] = ...``) in schedule
    order, so a strict-mode conflict leaves exactly the interpreter's
    partial ``values``.  Inside one chunk function a class read again is
    a local ``x{i}``; a class whose value is fixed for every compiled
    pass (free nets, SET sources, CONST drivers, and anything folded
    from them) is one of the constants ``Z``/``O``/``U``/``N``.  Pokes
    on those classes are outside the poke contract, so the fold holds.
    """

    def __init__(self, sched: Schedule):
        self.sched = sched
        self.chunks: list[list[str]] = []
        self.lines: list[str] = []
        self.items = 0
        #: the chunk function signature, ``{}`` being the chunk number.
        self.head = "_c{}(v, gp, r, rnd, cf, Z=Z, O=O, U=U, N=N)"
        #: class -> local name (current chunk only) or constant name.
        self.local: dict[int, str] = {}
        self.known: dict[int, str] = {}

    # -- chunking ----------------------------------------------------------

    def item(self) -> None:
        """Account one op; start a new chunk every SCALAR_CHUNK_OPS."""
        if self.items % SCALAR_CHUNK_OPS == 0:
            self.lines = [f"def {self.head.format(len(self.chunks))}:"]
            self.chunks.append(self.lines)
            self.local = dict(self.known)
        self.items += 1

    def emit(self, line: str, depth: int = 1) -> None:
        self.lines.append("    " * depth + line)

    def ref(self, i: int) -> str:
        """A name holding class *i*'s value in the current chunk."""
        name = self.local.get(i)
        if name is None:
            name = self.local[i] = f"x{i}"
            self.emit(f"{name} = v[{i}]")
        return name

    def store(self, i: int, expr: str) -> None:
        """``v[i] = expr``, keeping the value in a local (or, for a
        folded constant, as that constant)."""
        if expr in _KNOWN:
            self.known[i] = self.local[i] = expr
            self.emit(f"v[{i}] = {expr}")
        else:
            self.local[i] = f"x{i}"
            self.emit(f"v[{i}] = x{i} = {expr}")

    # -- emission ------------------------------------------------------------

    def compile(self) -> tuple[list[str], list[str]]:
        """The step chunks' sources and the latch chunks' sources."""
        sched = self.sched
        for i in sched.free_nets:
            self.known[i] = "N"
        for op in sched.source_ops:
            if op[0] == OPC_SET:
                self.known[op[1]] = _SCALAR_NAMES[op[2]]
        for i, default in sched.input_defaults:
            self.item()
            self.store(i, f"gp({i}, {_SCALAR_NAMES[default]})")
        for ri, qi in sched.reg_pairs:
            self.item()
            self.store(qi, f"r[{ri}]")
        for op in sched.source_ops:
            if op[0] == OPC_RANDOM:
                self.item()
                self.store(op[1], "O if rnd() < 0.5 else Z")
        for op in sched.ops:
            self.item()
            self._emit_op(op)
        steps = self.sources()

        self.head, self.chunks, self.items = "_l{}(v, r, N=N)", [], 0
        for ri, di in sched.latch_pairs:
            self.item()
            self.emit(f"x = v[{di}]")
            self.emit("if x is not N:")
            self.emit(f"r[{ri}] = x", 2)
            self.emit("n += 1", 2)
        for lines in self.chunks:
            lines.insert(1, "    n = 0")
            lines.append("    return n")
        return steps, self.sources()

    def sources(self) -> list[str]:
        return ["\n".join(lines) + "\n" for lines in self.chunks]

    def _emit_op(self, op: tuple) -> None:
        code = op[0]
        if code == OPC_COPY:
            dst, src = op[1], op[2]
            name = self.local.get(src)
            if name is None:
                name = self.local[src] = f"x{src}"
                self.emit(f"v[{dst}] = {name} = v[{src}]")
            else:
                self.emit(f"v[{dst}] = {name}")
            self.local[dst] = name
            if name in _KNOWN:
                self.known[dst] = name
        elif code == OPC_CONST:
            self.store(op[1], _SCALAR_NAMES[op[2]])
        elif code == OPC_NOT:
            a = self.ref(op[1])
            if a in _KNOWN:
                self.store(op[2], {"Z": "O", "O": "Z"}.get(a, "U"))
            else:
                self.store(op[2], f"O if {a} is Z else (Z if {a} is O else U)")
        elif code in (OPC_AND, OPC_NAND):
            self._emit_and_or(op[1], op[2], "Z", "O", code == OPC_NAND)
        elif code in (OPC_OR, OPC_NOR):
            self._emit_and_or(op[1], op[2], "O", "Z", code == OPC_NOR)
        elif code == OPC_XOR:
            self._emit_xor(op[1], op[2])
        elif code == OPC_EQUAL:
            self._emit_equal(op[1], op[2])
        elif code == OPC_CLASS:
            self._emit_class(op[1], op[2])
        else:  # pragma: no cover - future opcodes land here explicitly
            raise CodegenError(f"unknown opcode {code}")

    def _emit_and_or(self, ins: tuple, out: int, ctrl: str, ident: str,
                     invert: bool) -> None:
        """AND (ctrl Z, identity O) and OR (ctrl O, identity Z): any
        controlling input decides, all-identity gives the identity,
        anything else (UNDEF, or NOINFL read as UNDEF) gives UNDEF."""
        names = [self.ref(i) for i in ins]
        on_ctrl, on_ident = (ident, ctrl) if invert else (ctrl, ident)
        if ctrl in names:
            self.store(out, on_ctrl)
            return
        dyn = [x for x in names if x not in _KNOWN]
        undef = any(x != ident for x in names if x in _KNOWN)
        if not dyn:
            self.store(out, "U" if undef else on_ident)
            return
        rest = "U" if undef else (
            f"{on_ident} if {_all_is(dyn, ident)} else U"
        )
        self.store(out, f"{on_ctrl} if {_any_is(dyn, ctrl)} else ({rest})")

    def _emit_xor(self, ins: tuple, out: int) -> None:
        """XOR: the parity of the inputs when all are defined, else
        UNDEF."""
        names = [self.ref(i) for i in ins]
        if any(x in ("U", "N") for x in names):
            self.store(out, "U")
            return
        flip = names.count("O") % 2 == 1
        dyn = [x for x in names if x not in _KNOWN]
        # hi: the result when an odd number of the dynamic inputs are
        # ONE; lo: when an even number are (so also when none is left).
        hi, lo = ("Z", "O") if flip else ("O", "Z")
        if not dyn:
            self.store(out, lo)
            return
        defined = " and ".join(f"({x} is Z or {x} is O)" for x in dyn)
        if len(dyn) == 2:
            parity = f"{lo} if {dyn[0]} is {dyn[1]} else {hi}"
        else:
            odd = " ^ ".join(f"({x} is O)" for x in dyn)
            parity = f"{hi} if {odd} else {lo}"
        self.store(out, f"({parity}) if {defined} else U")

    def _emit_equal(self, pairs: tuple, out: int) -> None:
        """EQUAL: ZERO when a defined bit pair differs, else ONE when
        every pair is defined and equal, else UNDEF."""
        differ: list[str] = []
        same: list[str] = []
        never_one = False
        for ai, bi in pairs:
            a, b = self.ref(ai), self.ref(bi)
            if a in _KNOWN and b in _KNOWN:
                if a in ("Z", "O") and b in ("Z", "O"):
                    if a != b:
                        self.store(out, "Z")
                        return
                else:
                    never_one = True
            elif a in _KNOWN or b in _KNOWN:
                k, x = (a, b) if a in _KNOWN else (b, a)
                if k in ("Z", "O"):
                    differ.append(f"{x} is {'O' if k == 'Z' else 'Z'}")
                    same.append(f"{x} is {k}")
                else:
                    never_one = True
            else:
                differ.append(f"{a} is Z and {b} is O or {a} is O and {b} is Z")
                same.append(f"{a} is {b} and ({a} is Z or {a} is O)")
        if never_one:
            rest = "U"
        elif same:
            rest = f"O if {' and '.join(f'({s})' for s in same)} else U"
        else:
            rest = "O"
        if differ:
            self.store(out, f"Z if {' or '.join(differ)} else ({rest})")
        else:
            self.store(out, rest)

    def _emit_class(self, dst: int, drivers: tuple) -> None:
        """A driven class with the interpreter's resolution: guard ZERO
        skips a driver, a guard neither ZERO nor ONE makes the class
        UNDEF, NOINFL sources do not drive, and a second driving value
        goes through ``cf`` in driver order (strict mode raises there,
        before the class is stored).  ``dv`` holds the driving value so
        far, NOINFL meaning none yet.  A guarded source not already in a
        local is read only when its guard is ONE."""
        dv_none = True  # statically: no driver can have set dv yet
        ug_static = False
        ug_used = False
        for cond, src, const in drivers:
            c = self.ref(cond) if cond >= 0 else "O"
            if c == "Z":
                continue
            if c in ("U", "N"):
                ug_static = True
                continue
            if const is not None:
                s = _SCALAR_NAMES[const]
            elif c == "O":
                s = self.ref(src)
            else:
                s = self.local.get(src, f"v[{src}]")
            if c != "O" and not ug_used:
                self.emit("ug = False")
                ug_used = True
            if s == "N":  # a NOINFL source never drives
                if c != "O":
                    self.emit(f"if {c} is not O and {c} is not Z:")
                    self.emit("ug = True", 2)
                continue
            body = []
            if dv_none:
                body.append(f"dv = {s}")
            elif s in _KNOWN:
                body.append(f"dv = {s} if dv is N else cf({dst}, dv, {s})")
            else:
                if s.startswith("v["):
                    body.append(f"s = {s}")
                    s = "s"
                body.append(f"dv = {s} if dv is N else "
                            f"(dv if {s} is N else cf({dst}, dv, {s}))")
            if c == "O":
                for line in body:
                    self.emit(line)
            else:
                if dv_none:
                    self.emit("dv = N")
                self.emit(f"if {c} is O:")
                for line in body:
                    self.emit(line, 2)
                self.emit(f"elif {c} is not Z:")
                self.emit("ug = True", 2)
            dv_none = False
        dv = "N" if dv_none else "dv"
        if ug_static:
            self.store(dst, "U")
        elif ug_used:
            self.store(dst, f"U if ug else {dv}")
        else:
            self.store(dst, dv)


def compile_scalar(sched: Schedule,
                   func_name: str = "zeus_step") -> CompiledStep:
    """Compile *sched* for the lanes=1 levelized engine.

    The step function resets ``values`` in place from a template row
    (free nets and SET constants pre-filled, as the interpreter's first
    writes), then calls the chunk functions in order; each chunk
    compiles separately, so the compiler never holds more than
    :data:`SCALAR_CHUNK_OPS` ops at once.  The latch is emitted the same
    way."""
    emitter = _ScalarEmitter(sched)
    steps, latches = emitter.compile()
    driver = [
        f"def {func_name}(v, pokes, r, rnd, cf):",
        "    gp = pokes.get",
        "    v[:] = T",
        *(f"    _c{k}(v, gp, r, rnd, cf)" for k in range(len(steps))),
        "",
        "def zeus_latch(v, r):",
        "    return " + (" + ".join(f"_l{k}(v, r)" for k in
                                    range(len(latches))) or "0"),
    ]
    template = list(sched.none_row)
    for i in sched.free_nets:
        template[i] = Logic.NOINFL
    for op in sched.source_ops:
        if op[0] == OPC_SET:
            template[op[1]] = op[2]
    namespace: dict = {
        "Z": Logic.ZERO, "O": Logic.ONE, "U": Logic.UNDEF,
        "N": Logic.NOINFL, "T": template,
    }
    parts = steps + latches + ["\n".join(driver) + "\n"]
    for part in parts:
        try:
            code = compile(part, "<zeus-codegen:scalar>", "exec")
        except SyntaxError as exc:  # pragma: no cover - emitter bug guard
            raise CodegenError(f"generated source does not compile: {exc}")
        exec(code, namespace)
    return CompiledStep(
        "\n".join(parts), namespace[func_name], "scalar", None, None,
        len(sched.ops), namespace["zeus_latch"],
    )


def compile_step(
    sched: Schedule,
    *,
    backend: str = "int",
    lanes: int | None = None,
    func_name: str = "zeus_step",
) -> CompiledStep:
    """Compile *sched* into one :class:`CompiledStep`.

    ``backend="int"`` needs nothing extra; ``backend="numpy"`` needs
    *lanes* (for the word count) and an importable NumPy, else
    :class:`CodegenError`.  ``backend="scalar"`` is the lanes=1 step of
    the levelized engine (:func:`compile_scalar`) and takes no *lanes*."""
    if backend == "scalar":
        if lanes is not None:
            raise CodegenError("the scalar backend has no lanes")
        return compile_scalar(sched, func_name)
    if backend == "auto":
        backend = choose_backend(lanes or 0)
    if backend not in BACKENDS:
        raise CodegenError(
            f"unknown codegen backend {backend!r}; expected one of "
            f"{BACKENDS} or 'auto'"
        )
    words = None
    if backend == "numpy":
        if not HAVE_NUMPY:
            raise CodegenError("numpy backend requested but numpy is "
                               "not importable")
        if lanes is None:
            raise CodegenError("numpy backend needs the lane count")
        words = words_for(lanes)

    emitter = _Emitter(sched, backend)
    source, poke_ok = emitter.compile(func_name)

    namespace: dict = {}
    if backend == "numpy":
        namespace["Z"] = _numpy().zeros(words, dtype=WORD_DTYPE)
        namespace["I2W"] = lambda v, _w=words: int_to_words(v, _w)
        namespace["W2I"] = words_to_int
    try:
        code = compile(source, f"<zeus-codegen:{backend}>", "exec")
    except SyntaxError as exc:  # pragma: no cover - emitter bug guard
        raise CodegenError(f"generated source does not compile: {exc}")
    exec(code, namespace)
    return CompiledStep(
        source, namespace[func_name], backend, poke_ok, words,
        len(sched.ops),
    )


def lane_mask_words(lanes: int):
    """The all-lanes mask as a word array (tail bits zero, so every
    masked expression keeps the unused high bits clear)."""
    return int_to_words((1 << lanes) - 1, words_for(lanes))


def pokes_to_words(pokes: dict, words: int) -> dict:
    """A bigint poke table -> word-array poke table (same keys)."""
    return {
        i: (
            int_to_words(p0, words),
            int_to_words(p1, words),
            int_to_words(pm, words),
        )
        for i, (p0, p1, pm) in pokes.items()
    }


def planes_to_words(planes: list[int], words: int) -> list:
    """Bigint plane list -> word-array plane list."""
    return [int_to_words(v, words) for v in planes]


def planes_to_ints(planes: list) -> list[int]:
    """Word-array plane list -> bigint plane list."""
    return [words_to_int(a) for a in planes]
