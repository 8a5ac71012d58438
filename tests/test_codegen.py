"""The exec-compiled codegen engine (:mod:`repro.core.codegen`).

Covers, for both plane backends (big-int and NumPy word arrays):

* opcode agreement with :data:`repro.core.values.GATE_FUNCTIONS` over
  every ``4^k`` operand combination (hypothesis drives random mixes);
* the lazy NOINFL amplification path (a guarded driver left off feeds
  NOINFL into a gate, which must read it as UNDEF);
* a generated-source golden file for one stdlib design (mux4) so
  unintended emission changes show up in review;
* the ``"scalar"`` backend (the levelized engine's compiled tier): gate
  tables, constant folding, its own mux4 golden, chunking and the
  compile's memory bound;
* the exotic-poke contract: the int backend falls back to the
  interpreter per pass, the numpy backend demotes permanently until
  ``reset_state``;
* the four-engine differential fuzz slice (dataflow oracle);
* graceful degradation when NumPy is absent;
* the flight-recorder ``reset``/rebind regressions (stale pre-reset
  snapshots must never leak into a later explain window).
"""

import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.analysis.fuzzgen import differential_check, generate_program
from repro.core import codegen
from repro.core.codegen import (
    CodegenError,
    CompiledStep,
    HAVE_NUMPY,
    NUMPY_LANE_THRESHOLD,
    choose_backend,
    compile_step,
    int_to_words,
    words_for,
    words_to_int,
)
from repro.core.values import GATE_FUNCTIONS, Logic
from repro.obs.flight import FlightRecorder
from repro.stdlib import programs
from zeus_test_utils import compile_ok

import itertools

ALL_LOGIC = [Logic.ZERO, Logic.ONE, Logic.UNDEF, Logic.NOINFL]

BACKENDS = ("int", "numpy") if HAVE_NUMPY else ("int",)

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not importable")

GOLDEN = pathlib.Path(__file__).parent / "golden" / "mux4_codegen_int.txt"
SCALAR_GOLDEN = (
    pathlib.Path(__file__).parent / "golden" / "mux4_codegen_scalar.txt"
)


def _codegen_sim(circuit, lanes, backend="int", **kw):
    sim = circuit.simulator(engine="codegen", lanes=lanes, backend=backend, **kw)
    assert sim._cg is not None, sim.engine_reason
    assert sim.codegen_backend == backend
    return sim


# -- backend selection and word packing -----------------------------------


class TestHelpers:
    def test_choose_backend_threshold(self):
        assert choose_backend(1) == "int"
        assert choose_backend(NUMPY_LANE_THRESHOLD - 1) == "int"
        want = "numpy" if HAVE_NUMPY else "int"
        assert choose_backend(NUMPY_LANE_THRESHOLD) == want

    def test_words_for(self):
        assert words_for(1) == 1
        assert words_for(64) == 1
        assert words_for(65) == 2

    @needs_numpy
    @given(st.integers(min_value=0, max_value=(1 << 200) - 1))
    @settings(max_examples=60, deadline=None)
    def test_word_roundtrip(self, value):
        words = words_for(200)
        arr = int_to_words(value, words)
        assert len(arr) == words
        assert words_to_int(arr) == value

    @needs_numpy
    def test_words_to_int_passes_ints_through(self):
        assert words_to_int(41) == 41

    def test_unknown_backend_raises(self):
        circuit = compile_ok(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            BEGIN y := NOT a END;
            SIGNAL u: t;
            """
        )
        sim = circuit.simulator(engine="codegen", lanes=2, backend="cuda")
        assert sim._cg is None
        assert "fallback" in sim.engine_reason


# -- opcode agreement (mirrors tests/test_batched.py for codegen) ---------


_HALFADDER_CACHE = []


def _halfadder():
    if not _HALFADDER_CACHE:
        _HALFADDER_CACHE.append(compile_ok(
            """
            TYPE halfadder = COMPONENT (IN a,b: boolean;
                                        OUT cout,s: boolean) IS
            BEGIN
                s := XOR(a,b);
                cout := AND(a,b)
            END;
            SIGNAL h: halfadder;
            """
        ))
    return _HALFADDER_CACHE[0]


def _gate_circuit(op, arity):
    ins = ", ".join(f"i{k}" for k in range(arity))
    expr = "NOT i0" if op == "NOT" else f"{op}({ins})"
    return compile_ok(
        f"""
        TYPE t = COMPONENT (IN {ins}: boolean; OUT y: boolean) IS
        BEGIN
            y := {expr}
        END;
        SIGNAL u: t;
        """
    )


GATE_CASES = [
    ("AND", 2), ("AND", 3),
    ("OR", 2), ("OR", 3),
    ("NAND", 2), ("NAND", 3),
    ("NOR", 2), ("NOR", 3),
    ("XOR", 2), ("XOR", 3),
    ("EQUAL", 2),
    ("NOT", 1),
]


class TestOpcodeAgreement:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("op,arity", GATE_CASES)
    def test_all_operand_combinations(self, op, arity, backend):
        """One lane per element of {0,1,UNDEF,NOINFL}^arity: the
        compiled function must reproduce the scalar gate table."""
        circuit = _gate_circuit(op, arity)
        combos = list(itertools.product(ALL_LOGIC, repeat=arity))
        sim = _codegen_sim(circuit, len(combos), backend)
        for j in range(arity):
            sim.poke_lanes(f"i{j}", [combo[j] for combo in combos])
        sim.step()
        got = [vals[0] for vals in sim.peek_lanes("y")]
        for k, combo in enumerate(combos):
            expected = GATE_FUNCTIONS[op](list(combo))
            assert got[k] is expected, (
                f"{op}{combo} [{backend}]: codegen lane {k} gave "
                f"{got[k]}, scalar table says {expected}"
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_equal_against_constants(self, backend):
        """EQUAL with a constant operand exercises the constant-folded
        emission path (``x ^ 0``/``x & M`` elided)."""
        for const in ("0", "1"):
            circuit = compile_ok(
                f"""
                TYPE t = COMPONENT (IN i0: boolean; OUT y: boolean) IS
                BEGIN y := EQUAL(i0, {const}) END;
                SIGNAL u: t;
                """
            )
            sim = _codegen_sim(circuit, len(ALL_LOGIC), backend)
            sim.poke_lanes("i0", ALL_LOGIC)
            sim.step()
            got = [v[0] for v in sim.peek_lanes("y")]
            ref = circuit.simulator(engine="batched", lanes=len(ALL_LOGIC))
            ref.poke_lanes("i0", ALL_LOGIC)
            ref.step()
            assert got == [v[0] for v in ref.peek_lanes("y")]

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30, deadline=None)
    def test_random_lane_mix_halfadder(self, seed):
        """Random 4-valued stimuli on the halfadder: every codegen lane
        equals a scalar dataflow run with that lane's pokes."""
        import random as _random

        circuit = _halfadder()
        rng = _random.Random(seed)
        lanes = rng.randint(1, 9)
        a = [rng.choice(ALL_LOGIC) for _ in range(lanes)]
        b = [rng.choice(ALL_LOGIC) for _ in range(lanes)]
        sim = _codegen_sim(circuit, lanes)
        sim.poke_lanes("a", a)
        sim.poke_lanes("b", b)
        sim.step()
        s = sim.peek_lanes("s")
        cout = sim.peek_lanes("cout")
        for k in range(lanes):
            ref = circuit.simulator(engine="dataflow")
            ref.poke("a", a[k])
            ref.poke("b", b[k])
            ref.step()
            assert [str(v) for v in ref.peek("s")] == [str(v) for v in s[k]]
            assert [str(v) for v in ref.peek("cout")] == [
                str(v) for v in cout[k]
            ]


# -- the NOINFL amplification path ----------------------------------------


class TestAmplification:
    NOINFL_FEED = """
    TYPE t = COMPONENT (IN a, g: boolean; OUT y: boolean) IS
    SIGNAL p: multiplex;
    BEGIN
        IF g THEN p := 1 END;
        y := AND(a, p)
    END;
    SIGNAL u: t;
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_off_guard_noinfl_reads_as_undef(self, backend):
        """With the guard off, ``p`` is NOINFL; the gate input must
        amplify it to UNDEF exactly as the interpreters do."""
        circuit = compile_ok(self.NOINFL_FEED)
        cases = [(a, g) for a in ALL_LOGIC for g in (Logic.ZERO, Logic.ONE)]
        sim = _codegen_sim(circuit, len(cases), backend)
        sim.poke_lanes("a", [a for a, _ in cases])
        sim.poke_lanes("g", [g for _, g in cases])
        sim.step()
        got = [v[0] for v in sim.peek_lanes("y")]
        for k, (a, g) in enumerate(cases):
            ref = circuit.simulator(engine="dataflow")
            ref.poke("a", a)
            ref.poke("g", g)
            ref.step()
            assert got[k] is ref.peek("y")[0], (backend, a, g)


# -- generated-source golden ----------------------------------------------


class TestGeneratedSource:
    def _mux4_step(self):
        circuit = repro.compile_text(programs.ALL_PROGRAMS["mux4"], name="mux4")
        return compile_step(circuit.simulator(engine="batched", lanes=8)
                            ._schedule, backend="int")

    def test_mux4_matches_golden(self):
        """The emitted int-backend source for the stdlib mux4 design.
        On an intended emitter change, regenerate with
        ``CompiledStep.source`` and update the golden file."""
        step = self._mux4_step()
        assert step.source == GOLDEN.read_text(), (
            "generated source drifted from tests/golden/"
            "mux4_codegen_int.txt -- if the emission change is "
            "intended, rewrite the golden file from CompiledStep.source"
        )

    def test_source_shape(self):
        """Structural invariants the emitter must keep: a single
        function, locals-only dataflow, no per-opcode dispatch, and a
        bulk store of both planes."""
        step = self._mux4_step()
        src = step.source
        assert src.startswith("def zeus_step(")
        assert "for op in" not in src  # no interpreter dispatch loop
        assert "vals0[:] = [" in src and "vals1[:] = [" in src
        assert isinstance(step, CompiledStep)
        assert step.backend == "int"
        assert step.n_ops > 0
        # poke_ok covers exactly the compiled input-default classes
        assert step.poke_ok and all(isinstance(i, int) for i in step.poke_ok)

    @needs_numpy
    def test_numpy_variant_compiles_same_schedule(self):
        circuit = repro.compile_text(programs.ALL_PROGRAMS["mux4"], name="mux4")
        sched = circuit.simulator(engine="batched", lanes=8)._schedule
        step = compile_step(sched, backend="numpy", lanes=130)
        assert step.backend == "numpy"
        assert step.words == words_for(130) == 3
        assert "I2W(" in step.source or "Z" in step.source


# -- the scalar backend (levelized engine, lanes=1) -----------------------


def _scalar_sim(circuit, **kw):
    """A levelized simulator already on its compiled step."""
    sim = circuit.simulator(engine="levelized", **kw)
    sim._tier_at = 0
    return sim


class TestScalarBackend:
    @pytest.mark.parametrize("op,arity", GATE_CASES)
    def test_all_operand_combinations(self, op, arity):
        """Every element of {0,1,UNDEF,NOINFL}^arity poked on the inputs
        (a NOINFL poke on an input is inside the scalar poke contract):
        the compiled step must reproduce the interpreter's gate rules."""
        circuit = _gate_circuit(op, arity)
        sim = _scalar_sim(circuit)
        ref = circuit.simulator(engine="dataflow")
        for combo in itertools.product(ALL_LOGIC, repeat=arity):
            for s in (sim, ref):
                for j, v in enumerate(combo):
                    s.poke(f"i{j}", v)
                s.step()
            assert sim.peek("y") == ref.peek("y"), (op, combo)
        assert sim._compiled is not None and not sim._exotic

    @pytest.mark.parametrize("expr", [
        "EQUAL(i0, 0)", "EQUAL(i0, 1)", "AND(i0, 1)", "AND(i0, 0)",
        "OR(i0, 0)", "OR(i0, 1)", "NAND(i0, 1)", "NOR(i0, 0)",
        "XOR(i0, 1)", "XOR(i0, 0)", "XOR(i0, i0, 1)", "NOT 1",
        "XOR(1, 0)", "XOR(1, 1)", "XOR(0, 0)", "XOR(0, 1, 1, 1)",
        "XOR(AND(i0, 0), 1)", "XOR(OR(i0, 1), AND(i0, 0), 1)",
    ])
    def test_constant_operands_fold(self, expr):
        circuit = compile_ok(
            f"""
            TYPE t = COMPONENT (IN i0: boolean; OUT y: boolean) IS
            BEGIN y := {expr} END;
            SIGNAL u: t;
            """
        )
        sim = _scalar_sim(circuit)
        ref = circuit.simulator(engine="dataflow")
        for v in ALL_LOGIC:
            for s in (sim, ref):
                s.poke("i0", v)
                s.step()
            assert sim.peek("y") == ref.peek("y"), (expr, v)
        assert sim._compiled is not None

    @pytest.mark.parametrize("seed", range(12))
    def test_random_constant_expressions(self, seed):
        """Random gate trees over two inputs, the constants 0 and 1 and
        an undriven net ``f``, so whole subtrees fold: for every 4-valued
        input pair the outputs agree with the dataflow oracle and the
        whole value array with the interpreter."""
        rng = random.Random(seed)

        def expr(depth):
            if depth == 0 or rng.random() < 0.25:
                return rng.choice(["0", "1", "0", "1", "i0", "i1", "f"])
            op = rng.choice(["AND", "OR", "NAND", "NOR", "XOR", "EQUAL",
                             "NOT"])
            if op == "NOT":
                return f"NOT {expr(0)}"
            n = 2 if op == "EQUAL" else rng.randint(2, 3)
            return f"{op}({', '.join(expr(depth - 1) for _ in range(n))})"

        outs = [expr(3) for _ in range(6)]
        body = "; ".join(f"y{k} := {e}" for k, e in enumerate(outs))
        ys = ", ".join(f"y{k}" for k in range(len(outs)))
        circuit = compile_ok(
            f"""
            TYPE t = COMPONENT (IN i0, i1: boolean; OUT {ys}: boolean) IS
            SIGNAL f: boolean;
            BEGIN {body} END;
            SIGNAL u: t;
            """
        )
        sim = _scalar_sim(circuit)
        interp = circuit.simulator(engine="levelized")
        interp._tier_at = math.inf
        ref = circuit.simulator(engine="dataflow")
        for a, b in itertools.product(ALL_LOGIC, repeat=2):
            for s in (sim, interp, ref):
                s.poke("i0", a)
                s.poke("i1", b)
                s.step()
            for k, e in enumerate(outs):
                assert sim.peek(f"y{k}") == ref.peek(f"y{k}"), (e, a, b)
            assert sim.values == interp.values, (outs, a, b)
        assert sim._compiled is not None and interp._compiled is None

    def _mux4_scalar(self):
        circuit = repro.compile_text(programs.ALL_PROGRAMS["mux4"], name="mux4")
        return compile_step(circuit.simulator()._schedule, backend="scalar")

    def test_mux4_matches_golden(self):
        """The emitted scalar source for the stdlib mux4 design.  On an
        intended emitter change, rewrite the golden file from
        ``CompiledStep.source``."""
        assert self._mux4_scalar().source == SCALAR_GOLDEN.read_text(), (
            "generated source drifted from tests/golden/"
            "mux4_codegen_scalar.txt"
        )

    def test_source_shape(self):
        step = self._mux4_scalar()
        assert step.backend == "scalar" and step.latch is not None
        assert "for op in" not in step.source
        assert "    v[:] = T\n" in step.source
        # the simulator tracks the scalar poke contract from the schedule
        assert step.poke_ok is None

    def test_chunks_bound_ops_per_function(self):
        from repro.stdlib import extras

        sched = repro.compile_text(extras.TINYCPU).simulator()._schedule
        step = compile_step(sched, backend="scalar")
        chunks = step.source.count("def _c")
        assert chunks == -(-(len(sched.ops) + len(sched.input_defaults)
                             + len(sched.reg_pairs)) // codegen.SCALAR_CHUNK_OPS)
        assert step.source.count("def _l") == -(
            -len(sched.latch_pairs) // codegen.SCALAR_CHUNK_OPS
        )

    def test_compile_memory_is_bounded(self):
        """Compiling tinycpu's step (~5.5k generated lines) stays under
        8 MB of Python allocations: chunks keep the compiler's working
        set small (one function for the whole step needed ~26 MB)."""
        import gc
        import tracemalloc

        from repro.stdlib import extras

        sched = repro.compile_text(extras.TINYCPU).simulator()._schedule
        gc.collect()
        tracemalloc.start()
        try:
            compile_step(sched, backend="scalar")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"scalar compile peaked at {peak} bytes"

    def test_scalar_backend_has_no_lanes(self):
        circuit = _gate_circuit("AND", 2)
        sched = circuit.simulator()._schedule
        with pytest.raises(CodegenError, match="no lanes"):
            compile_step(sched, backend="scalar", lanes=4)
        sim = circuit.simulator(engine="codegen", lanes=4, backend="scalar")
        assert sim._cg is None and "fallback" in sim.engine_reason


# -- exotic pokes: fallback and demotion ----------------------------------


class TestExoticPokes:
    GUARDED = TestAmplification.NOINFL_FEED

    def test_int_backend_falls_back_per_pass(self):
        """A poke on a multiplex (non-input-default) class cannot be
        merged by the compiled function: the pass runs on the
        interpreter (matching plain batched exactly), and the compiled
        path resumes after unpoke."""
        circuit = compile_ok(self.GUARDED)
        sim = _codegen_sim(circuit, 4)
        ref = circuit.simulator(engine="batched", lanes=4)
        for s in (sim, ref):
            s.poke_lanes("a", [Logic.ONE] * 4)
            s.poke("u.p", 1)  # internal multiplex net: exotic
            s.step()
        assert sim._cg is not None  # int backend never demotes
        assert not sim._cg_pokes_ok  # ... but this pass interpreted
        assert sim.peek_lanes("y") == ref.peek_lanes("y")
        for s in (sim, ref):
            s.unpoke("u.p")
            s.poke_lanes("g", [Logic.ONE] * 4)
            s.step()
        assert sim._cg_pokes_ok  # compiled path resumed
        assert [v[0] for v in sim.peek_lanes("y")] == [Logic.ONE] * 4
        assert sim.peek_lanes("y") == ref.peek_lanes("y")

    def test_noinfl_lane_poke_is_exotic_but_correct(self):
        circuit = _gate_circuit("AND", 2)
        sim = _codegen_sim(circuit, 4)
        sim.poke_lanes("i0", [Logic.NOINFL, Logic.ONE, Logic.ZERO, Logic.ONE])
        sim.poke_lanes("i1", [Logic.ONE] * 4)
        sim.step()
        got = [v[0] for v in sim.peek_lanes("y")]
        ref = circuit.simulator(engine="batched", lanes=4)
        ref.poke_lanes("i0", [Logic.NOINFL, Logic.ONE, Logic.ZERO, Logic.ONE])
        ref.poke_lanes("i1", [Logic.ONE] * 4)
        ref.step()
        assert got == [v[0] for v in ref.peek_lanes("y")]

    @needs_numpy
    def test_numpy_backend_demotes_and_reset_restores(self):
        circuit = compile_ok(self.GUARDED)
        sim = _codegen_sim(circuit, 4, backend="numpy")
        reason0 = sim.engine_reason
        sim.poke("u.p", 1)
        sim.step()
        assert sim._cg is None  # permanently demoted ...
        assert "demoted" in sim.engine_reason
        assert [v[0] for v in sim.peek_lanes("y")] == [Logic.UNDEF] * 4
        sim.reset_state()
        assert sim._cg is sim._cg_compiled  # ... until reset_state
        assert sim.engine_reason == reason0
        sim.poke_lanes("a", [Logic.ONE] * 4)
        sim.poke_lanes("g", [Logic.ONE] * 4)
        sim.step()
        assert [v[0] for v in sim.peek_lanes("y")] == [Logic.ONE] * 4


# -- registers, RNG contract, reset across backends -----------------------


class TestStateful:
    REGGED = """
    TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
    SIGNAL r: REG;
    BEGIN
        IF RSET THEN r.in := 0 ELSE r.in := NOT r.out END;
        y := AND(a, r.out)
    END;
    SIGNAL u: t;
    """

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_register_stream_matches_batched(self, backend):
        circuit = compile_ok(self.REGGED)
        sims = {
            "codegen": _codegen_sim(circuit, 3, backend),
            "batched": circuit.simulator(engine="batched", lanes=3),
        }
        rows = {name: [] for name in sims}
        for name, sim in sims.items():
            sim.poke_lanes("a", [1, 1, 0])
            sim.poke("RSET", 1)
            sim.step(2)
            sim.poke("RSET", 0)
            for _ in range(6):
                sim.step()
                rows[name].append(
                    tuple(
                        tuple(str(v) for v in lane)
                        for lane in sim.peek_lanes("y")
                    )
                    + tuple(
                        tuple(sorted(
                            (k, str(v))
                            for k, v in sim.registers(lane=ln).items()
                        ))
                        for ln in range(3)
                    )
                )
        assert rows["codegen"] == rows["batched"]

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_reset_state_restarts_the_run(self, backend):
        circuit = compile_ok(self.REGGED)
        sim = _codegen_sim(circuit, 2, backend)

        def run():
            sim.poke_lanes("a", [1, 0])
            sim.poke("RSET", 1)
            sim.step(2)
            sim.poke("RSET", 0)
            sim.step(3)
            return (
                [[str(v) for v in lane] for lane in sim.peek_lanes("y")],
                {k: str(v) for k, v in sim.registers().items()},
            )

        first = run()
        sim.reset_state()
        assert sim.cycle == 0
        assert run() == first


# -- four-engine differential fuzz slice ----------------------------------


@pytest.mark.fuzz
class TestFourEngineDifferential:
    @pytest.mark.parametrize("seed", range(12))
    def test_full_repertoire_slice(self, seed):
        """dataflow (oracle) vs levelized vs batched vs codegen, lane
        by lane, over the extended generator's repertoire."""
        prog = generate_program(seed)
        result = differential_check(prog.text, seed=seed)
        assert result, f"seed {seed}: {result.detail}\n{prog.text}"


# -- numpy-absent degradation ---------------------------------------------


class TestNumpyAbsent:
    def test_auto_stays_int_without_numpy(self, monkeypatch):
        monkeypatch.setattr(codegen, "HAVE_NUMPY", False)
        assert choose_backend(NUMPY_LANE_THRESHOLD * 4) == "int"

    def test_explicit_numpy_request_degrades_gracefully(self, monkeypatch):
        monkeypatch.setattr(codegen, "HAVE_NUMPY", False)
        circuit = _gate_circuit("AND", 2)
        with pytest.raises(CodegenError, match="numpy"):
            compile_step(circuit.simulator(engine="batched", lanes=4)
                         ._schedule, backend="numpy", lanes=4)
        # the Simulator swallows the CodegenError into a reasoned
        # fallback to the interpreted batched path
        sim = circuit.simulator(engine="codegen", lanes=4, backend="numpy")
        assert sim._cg is None
        assert "fallback" in sim.engine_reason
        sim.poke_lanes("i0", [1, 1, 0, 0])
        sim.poke_lanes("i1", [1, 0, 1, 0])
        sim.step()
        got = [v[0] for v in sim.peek_lanes("y")]
        assert got == [Logic.ONE, Logic.ZERO, Logic.ZERO, Logic.ZERO]


# -- flight recorder regressions (reset + rebind) -------------------------


class TestFlightRecorderReset:
    SRC = TestStateful.REGGED

    def _run(self, sim, cycles):
        sim.poke("RSET", 1)
        sim.step(1)
        sim.poke("RSET", 0)
        sim.poke("a", 1)
        sim.step(cycles - 1)

    def test_reset_state_clears_ring_events_and_dropped(self):
        circuit = compile_ok(self.SRC)
        sim = circuit.simulator(flight=2)
        self._run(sim, 5)
        assert len(sim.flight) == 2
        assert sim.flight.dropped == 3
        assert list(sim.flight.events())
        sim.reset_state()
        assert len(sim.flight) == 0
        assert sim.flight.dropped == 0
        assert not list(sim.flight.events())
        # a fresh run records only post-reset cycles
        self._run(sim, 1)
        assert [rec.cycle for rec in sim.flight.records] == [0]

    def test_reset_drops_cached_producer_map(self):
        circuit = compile_ok(self.SRC)
        sim = circuit.simulator(flight=4)
        self._run(sim, 2)
        sim.flight.producers()
        assert sim.flight._producers is not None
        sim.reset_state()
        assert sim.flight._producers is None

    def test_rebinding_recorder_drops_previous_sim_history(self):
        recorder = FlightRecorder(8)
        first = compile_ok(self.SRC).simulator(flight=recorder)
        self._run(first, 12)
        assert recorder.dropped > 0 and len(recorder) == 8
        recorder.producers()
        other = compile_ok(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            BEGIN y := NOT a END;
            SIGNAL u: t;
            """
        ).simulator(flight=recorder)
        assert recorder.sim is other
        assert len(recorder) == 0
        assert recorder.dropped == 0
        assert recorder._producers is None

    def test_rebinding_same_sim_is_a_noop(self):
        recorder = FlightRecorder(8)
        sim = compile_ok(self.SRC).simulator(flight=recorder)
        self._run(sim, 3)
        kept = len(recorder)
        recorder.bind(sim)
        assert len(recorder) == kept

    @pytest.mark.parametrize("engine", ["levelized", "codegen"])
    def test_explain_window_never_spans_a_reset(self, engine):
        """The regression the sweep fixes: pre-reset snapshots leaking
        into a post-reset ``zeusc explain`` window."""
        from repro.obs import explain

        circuit = compile_ok(self.SRC)
        kwargs = {"lanes": 4} if engine == "codegen" else {}
        sim = circuit.simulator(engine=engine, flight=16, **kwargs)
        self._run(sim, 6)
        sim.reset_state()
        sim.poke("RSET", 1)
        sim.step()
        report = explain(sim, "u.y", cycle=0)
        assert sim.flight.first_cycle == sim.flight.last_cycle == 0
        assert report is not None
