"""The Verilog interchange: emitter, reader, and the round-trip
differential.

* golden files for three stdlib designs (``tests/golden/
  *_structural.v``) behind a normalizing comparator, mirroring the
  codegen golden pattern;
* the ISCAS-style scenario family: the bundled c17 netlist checked
  exhaustively against a pure-Python oracle, plus the seeded generator
  (combinational and ``dff`` sequential families);
* the round-trip acceptance: every stdlib program and a block of fuzz
  seeds export -> import with bit-identical co-simulation (ports,
  registers, violations) against the original circuit;
* reader error paths: unsupported constructs, dangling instance
  ports, duplicate module names -- each exiting 2 through the CLI with
  a ``zeus.error/1`` payload naming the source line;
* name mangling: injective over the whole corpus and over adversarial
  names (keywords, brackets, digits), property-tested.

Long blocks are gated behind ``ZEUS_FUZZ_LONG`` like the fuzz suite;
tier-1 stays fast.
"""

import itertools
import json
import os
import pathlib
import shutil
import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import Logic, Simulator
from repro.analysis.fuzzgen import generate_program
from repro.analysis.roundtrip import (
    check_program,
    cosimulate,
    round_trip,
    stdlib_corpus,
)
from repro.cli import main
from repro.interchange import (
    C17_VERILOG,
    NameMangler,
    VERILOG_KEYWORDS,
    c17_oracle,
    emit_verilog,
    generate_iscas,
    import_manifest,
    is_verilog_identifier,
    name_map,
    read_verilog,
    reverse_name_map,
    validate_manifest,
)
from repro.lang import InterchangeError
from repro.stdlib import ALL_PROGRAMS

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_DESIGNS = ("mux4", "blackjack", "section8")

long_fuzz = pytest.mark.skipif(
    not os.environ.get("ZEUS_FUZZ_LONG"),
    reason="long-budget block (set ZEUS_FUZZ_LONG=1; the nightly job does)",
)


def _compile(name):
    return repro.compile_text(ALL_PROGRAMS[name], name=name)


def normalize_verilog(text: str) -> str:
    """The golden comparator: strip ``//`` comments, collapse runs of
    whitespace, drop blank lines -- so formatting-only emitter changes
    don't churn the golden files."""
    lines = []
    for line in text.splitlines():
        line = line.split("//", 1)[0]
        line = " ".join(line.split())
        if line:
            lines.append(line)
    return "\n".join(lines)


# -- golden files ---------------------------------------------------------


class TestGolden:
    @pytest.mark.parametrize("name", GOLDEN_DESIGNS)
    def test_matches_golden(self, name):
        """Emitted structural Verilog for three stdlib designs.  On an
        intended emitter change, regenerate with
        ``emit_verilog(circuit.design)[0]`` and update
        ``tests/golden/<name>_structural.v``."""
        text, _ = emit_verilog(_compile(name).design)
        golden = (GOLDEN_DIR / f"{name}_structural.v").read_text()
        assert normalize_verilog(text) == normalize_verilog(golden), (
            f"emitted Verilog drifted from tests/golden/"
            f"{name}_structural.v -- if the emission change is "
            f"intended, rewrite the golden file from emit_verilog"
        )

    def test_emission_is_deterministic(self):
        a, ma = emit_verilog(_compile("mux4").design)
        b, mb = emit_verilog(_compile("mux4").design)
        assert a == b
        assert ma == mb

    @pytest.mark.parametrize("name", GOLDEN_DESIGNS)
    def test_golden_files_reimport(self, name):
        """The shipped goldens themselves stay inside the subset."""
        design = read_verilog(
            (GOLDEN_DIR / f"{name}_structural.v").read_text(),
            name=f"{name}_structural.v",
        )
        assert design.netlist.ports


# -- manifest -------------------------------------------------------------


class TestManifest:
    def test_corpus_manifests_validate(self):
        for name, text in stdlib_corpus():
            circuit = repro.compile_text(text, name=name, strict=False)
            _, manifest = emit_verilog(circuit.design)
            validate_manifest(manifest)  # raises on any defect
            assert manifest["design"] == circuit.design.name
            rev = reverse_name_map(manifest)
            for disp, vname in name_map(manifest).items():
                assert rev[vname] == disp

    def test_validator_rejects_non_injective_map(self):
        _, manifest = emit_verilog(_compile("mux4").design)
        nets = dict(manifest["nets"])
        a, b, *_ = nets
        nets[a] = dict(nets[a], verilog=nets[b]["verilog"])
        with pytest.raises(ValueError, match="not injective"):
            validate_manifest(dict(manifest, nets=nets))

    def test_validator_rejects_wrong_schema(self):
        _, manifest = emit_verilog(_compile("mux4").design)
        with pytest.raises(ValueError, match="schema"):
            validate_manifest(dict(manifest, schema="zeus.interchange/0"))

    def test_register_map_covers_simulator_keys(self):
        circuit = _compile("blackjack")
        _, manifest = emit_verilog(circuit.design)
        sim = circuit.simulator()
        sim.step()
        assert set(manifest["regs"]) == set(sim.registers())

    def test_import_manifest_is_identity(self):
        text, _ = emit_verilog(_compile("section8").design)
        manifest = import_manifest(read_verilog(text))
        validate_manifest(manifest)
        assert all(e["verilog"] == d for d, e in manifest["nets"].items())

    @pytest.mark.parametrize("name", [n for n, _ in stdlib_corpus()])
    def test_import_manifest_names_match_alias_classes(self, name):
        """The one-pass grouping names every net class and port bit as
        the per-bit ``Netlist.alias_class`` scan does."""
        text = dict(stdlib_corpus())[name]
        verilog, _ = emit_verilog(repro.compile_text(text, name=name).design)
        design = read_verilog(verilog)
        netlist = design.netlist
        manifest = import_manifest(design)

        def display(members, default):
            return min((m.name for m in members if not m.name.startswith("$")),
                       default=default)

        classes = {}
        for net in netlist.nets:
            classes.setdefault(netlist.find(net).id, []).append(net)
        assert list(manifest["nets"]) == [
            display(members, members[0].name) for members in classes.values()]
        assert [p["bits"] for p in manifest["ports"]] == [
            [display(netlist.alias_class(n), n.name) for n in p.nets]
            for p in netlist.ports]


# -- the ISCAS-style scenario family --------------------------------------


class TestIscas:
    def test_c17_exhaustive_vs_oracle(self):
        design = read_verilog(C17_VERILOG, name="c17.v")
        sim = Simulator(design, strict=False)
        for bits in itertools.product((0, 1), repeat=5):
            for pin, v in zip(("N1", "N2", "N3", "N6", "N7"), bits):
                sim.poke(pin, v)
            sim.step()
            got = (sim.peek("N22")[0], sim.peek("N23")[0])
            want = c17_oracle(*bits)
            assert got == (Logic(want[0]), Logic(want[1])), bits

    def test_c17_shape(self):
        design = read_verilog(C17_VERILOG)
        assert design.name == "c17"
        assert design.netlist.stats()["gates"] == 6
        modes = {p.name: p.mode for p in design.netlist.ports}
        assert modes == {
            "N1": "IN", "N2": "IN", "N3": "IN", "N6": "IN", "N7": "IN",
            "N22": "OUT", "N23": "OUT",
        }

    def test_c17_round_trips_through_emitter(self):
        """Import c17, emit it again, import that: observationally
        identical on all 32 vectors."""
        d1 = read_verilog(C17_VERILOG)
        text, manifest = emit_verilog(d1)
        d2 = read_verilog(text)
        nm = name_map(manifest)
        s1, s2 = Simulator(d1, strict=False), Simulator(d2, strict=False)
        for bits in itertools.product((0, 1), repeat=5):
            for pin, v in zip(("N1", "N2", "N3", "N6", "N7"), bits):
                s1.poke(pin, v)
                s2.poke(nm[pin], v)
            s1.step()
            s2.step()
            for out in ("N22", "N23"):
                assert s1.peek(out) == s2.peek(nm[out]), (bits, out)

    def test_generator_is_deterministic(self):
        assert generate_iscas(7) == generate_iscas(7)
        assert generate_iscas(7) != generate_iscas(8)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("n_regs", (0, 3))
    def test_generated_family_simulates(self, seed, n_regs):
        design = read_verilog(
            generate_iscas(seed, n_regs=n_regs), name=f"iscas{seed}.v")
        sim = Simulator(design, strict=False, seed=seed)
        for p in design.netlist.ports:
            if p.mode == "IN":
                sim.poke(p.name, seed & 1)
        sim.step(3)
        assert len(sim.registers()) == n_regs
        outs = [p for p in design.netlist.ports if p.mode == "OUT"]
        assert outs
        for p in outs:
            assert sim.peek(p.name)  # observable


# -- the round-trip acceptance --------------------------------------------


class TestRoundTrip:
    @pytest.mark.parametrize("name", [n for n, _ in stdlib_corpus()])
    def test_stdlib_program(self, name):
        """Every stdlib program: export -> import -> lane-by-lane
        co-simulation against the original (ports, registers,
        violations)."""
        text = dict(stdlib_corpus())[name]
        res = check_program(text, name=name, cycles=3, n_vectors=4)
        assert res.ok, res.detail

    @pytest.mark.parametrize("seed", range(25))
    def test_fuzz_fast_slice(self, seed):
        prog = generate_program(seed)
        circuit = repro.compile_text(prog.text, name="fuzz", strict=False)
        rt = round_trip(circuit.design)
        res = cosimulate(rt, cycles=3, n_vectors=4, seed=seed)
        assert res.ok, f"seed {seed}: {res.detail}\n{prog.text}"

    def test_random_gates_keep_rng_stream(self):
        text = """
TYPE t = COMPONENT (IN a: boolean; OUT y0, y1: boolean) IS
SIGNAL r0: REG; SIGNAL s: boolean;
BEGIN
    s := RANDOM();
    r0.in := XOR(s, a);
    y0 := RANDOM();
    y1 := AND(r0.out, s)
END;
SIGNAL u: t;
"""
        for seed in range(4):
            res = check_program(text, name="rnd", cycles=6, seed=seed)
            assert res.ok, res.detail

    def test_undef_stimulus_agrees(self):
        """Explicit UNDEF input bits: the four-valued planes survive
        the translation."""
        circuit = _compile("mux4")
        rt = round_trip(circuit.design)
        vec = {
            p.name: [Logic.UNDEF] * len(p.nets)
            for p in circuit.netlist.ports if p.mode == "IN"
        }
        res = cosimulate(rt, cycles=2, vectors=[vec])
        assert res.ok, res.detail

    @long_fuzz
    @pytest.mark.slow
    @pytest.mark.parametrize("block", range(4))
    def test_fuzz_long_block(self, block):
        """The 200-seed acceptance budget (50 seeds x 4 blocks)."""
        for seed in range(block * 50, (block + 1) * 50):
            prog = generate_program(seed)
            circuit = repro.compile_text(
                prog.text, name="fuzz", strict=False)
            rt = round_trip(circuit.design)
            res = cosimulate(rt, cycles=3, n_vectors=4, seed=seed)
            assert res.ok, f"seed {seed}: {res.detail}\n{prog.text}"


# -- reader error paths ---------------------------------------------------


_BAD_SOURCES = {
    "unsupported-always": (
        "module t (a, y);\n  input a;\n  output y;\n"
        "  always @(posedge a) y = a;\nendmodule\n",
        "unsupported construct 'always'", 4,
    ),
    "unsupported-range": (
        "module t (a, y);\n  input a;\n  output y;\n"
        "  wire [3:0] bus;\nendmodule\n",
        "vector range", 4,
    ),
    "unsupported-delay": (
        "module t (a, y);\n  input a;\n  output y;\n"
        "  and #2 (y, a, a);\nendmodule\n",
        "delay", 4,
    ),
    "unsupported-expression": (
        "module t (a, y);\n  input a;\n  output y;\n"
        "  assign y = a & a;\nendmodule\n",
        "unsupported", 4,
    ),
    "dangling-instance-port": (
        "module t (a, y);\n  input a;\n  output y;\n"
        "  and G1 (y, a, nosuchnet);\nendmodule\n",
        "undeclared net 'nosuchnet'", 4,
    ),
    "unknown-module": (
        "module t (a, y);\n  input a;\n  output y;\n"
        "  mystery M1 (y, a);\nendmodule\n",
        "unknown module 'mystery'", 4,
    ),
    "duplicate-module": (
        "module t (y);\n  output y;\nendmodule\n"
        "module t (z);\n  output z;\nendmodule\n",
        "duplicate module", 4,
    ),
    "unknown-dff-pin": (
        "module t (a, y);\n  input a;\n  output y;\n"
        "  zeus_dff r (.q(y), .d(a), .oops(a));\nendmodule\n",
        "pin", 4,
    ),
    "port-arity": (
        "module s (a, y);\n  input a;\n  output y;\n"
        "  buf (y, a);\nendmodule\n"
        "module t (a, y);\n  input a;\n  output y;\n"
        "  s S1 (y);\nendmodule\n",
        "2 ports", 9,
    ),
}


class TestReaderErrors:
    @pytest.mark.parametrize("case", sorted(_BAD_SOURCES))
    def test_raises_with_span(self, case):
        text, match, line = _BAD_SOURCES[case]
        with pytest.raises(InterchangeError, match=match) as err:
            read_verilog(text, name=f"{case}.v")
        assert err.value.span.start > 0 or case == "duplicate-module"

    @pytest.mark.parametrize("case", sorted(_BAD_SOURCES))
    def test_cli_exits_2_with_error_payload(self, case, tmp_path, capsys):
        """``zeusc import-verilog --format json``: exit 2 and a
        ``zeus.error/1`` payload naming the source line."""
        text, _, line = _BAD_SOURCES[case]
        f = tmp_path / f"{case}.v"
        f.write_text(text)
        code = main(["import-verilog", str(f), "--format", "json"])
        assert code == 2
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["schema"] == "zeus.error/1"
        assert payload["type"] == "InterchangeError"
        assert payload["phase"] == "interchange"
        assert payload["position"]["line"] == line

    def test_ambiguous_top_is_an_error(self):
        text = ("module a (y);\n  output y;\nendmodule\n"
                "module b (y);\n  output y;\nendmodule\n")
        with pytest.raises(InterchangeError, match="top"):
            read_verilog(text)
        # ...but an explicit top resolves it.
        assert read_verilog(text, top="b").name == "b"

    def test_emit_cli_writes_verilog_and_manifest(self, tmp_path, capsys):
        v = tmp_path / "m.v"
        m = tmp_path / "m.json"
        code = main(["emit-verilog", "--builtin", "mux4",
                     "-o", str(v), "--manifest", str(m)])
        assert code == 0
        validate_manifest(json.loads(m.read_text()))
        code = main(["import-verilog", str(v)])
        assert code == 0
        assert "imported" in capsys.readouterr().out


# -- name mangling --------------------------------------------------------


_NAME_ALPHABET = st.text(
    alphabet="abXY01._[]$", min_size=1, max_size=12)
_ADVERSARIAL = st.one_of(
    _NAME_ALPHABET,
    st.sampled_from(sorted(VERILOG_KEYWORDS)),
    st.sampled_from(["a[1]", "a_1", "a.1", "3x", "", "$and0", "wire",
                     "RSET", "input", "Input", "a[1].b", "a.1_b"]),
)


class TestMangling:
    def test_injective_over_corpus(self):
        """The whole-corpus injectivity property: across every stdlib
        program, the emitted name map never collides and every
        identifier is legal non-keyword Verilog."""
        for name, text in stdlib_corpus():
            circuit = repro.compile_text(text, name=name, strict=False)
            _, manifest = emit_verilog(circuit.design)
            mapping = name_map(manifest)
            assert len(set(mapping.values())) == len(mapping), name
            for vname in mapping.values():
                assert is_verilog_identifier(vname), (name, vname)

    @given(st.lists(_ADVERSARIAL, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_injective_on_adversarial_names(self, names):
        mangler = NameMangler()
        out = [mangler.mangle(n, None) for n in dict.fromkeys(names)]
        assert len(set(out)) == len(out)
        for vname in out:
            assert is_verilog_identifier(vname)

    def test_keywords_and_collisions(self):
        mangler = NameMangler()
        assert mangler.mangle("wire") == "n_wire"
        assert mangler.mangle("Input") == "n_Input"  # case-insensitive
        assert mangler.mangle("a[1]") == "a_1"
        assert mangler.mangle("a_1") == "a_1__2"  # collision resolved
        assert mangler.mangle("3x") == "n_3x"
        assert mangler.mangle("a[1]") == "a_1"  # stable on re-ask

    def test_specials_survive_verbatim(self):
        """RSET/CLK drive the default-ZERO input rule by display name;
        they must cross the translation unchanged."""
        circuit = _compile("blackjack")
        text, manifest = emit_verilog(circuit.design)
        mapping = name_map(manifest)
        assert mapping.get("RSET") == "RSET"
        assert "RSET" in manifest["extra_inputs"]
        # Blackjack never names CLK, so the register clock is a
        # synthesized port -- recorded in the manifest, named CLK.
        assert manifest["synthetic_clock"] == "CLK"
        assert "input RSET;" in text and "input CLK;" in text


# -- optional: iverilog compile check -------------------------------------


@pytest.mark.skipif(shutil.which("iverilog") is None,
                    reason="iverilog not installed")
class TestIverilog:
    @pytest.mark.parametrize("name", GOLDEN_DESIGNS)
    def test_emitted_file_compiles(self, name, tmp_path):
        text, _ = emit_verilog(_compile(name).design)
        f = tmp_path / f"{name}.v"
        f.write_text(text)
        out = tmp_path / "a.out"
        proc = subprocess.run(
            ["iverilog", "-o", str(out), str(f)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
