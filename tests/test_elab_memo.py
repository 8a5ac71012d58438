"""The elaborator's instance memo: every stamped copy equals what full
elaboration builds.

Each distinct instance key (the type's declaration, the scope it was
declared in with its constant arguments, and the instantiation span) is
elaborated once; later instances are stamped from that template.  These
tests elaborate each design twice -- as shipped and with the memo off
(the private ``Elaborator._memoize`` switch) -- and compare everything
elaboration produces field for field (:func:`repro.analysis.fuzzgen.
elab_snapshot`: nets, gates, drivers, registers, alias classes,
``signals``, instances with their types and touched pins, ``pin_owner``,
SEQUENTIAL constraints, diagnostics and the floorplan).  The edge cases
pin the rules that keep an instance from becoming a template.  The fuzz
fast slice (``tests/test_fuzz.py``) runs the same comparison on every
generated program and on a copy that instantiates its top type thrice.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.analysis.fuzzgen import elab_snapshot, memo_check
from repro.core.elaborate import Elaborator
from repro.lang import ElaborationError, parse
from repro.lang.source import SourceText
from repro.obs.spans import SpanRegistry
from repro.stdlib import extras, library, programs

from test_check_golden import FIXTURES

EXAMPLES = Path(__file__).resolve().parent.parent / "examples" / "zeus"


def _stdlib() -> dict[str, str]:
    out = {}
    for mod in (programs, extras):
        for name in dir(mod):
            text = getattr(mod, name)
            if name.isupper() and isinstance(text, str) and "COMPONENT" in text:
                out[f"{mod.__name__.rsplit('.', 1)[-1]}/{name}"] = text
    return out


CORPUS = {
    **_stdlib(),
    **{f"examples/{p.name}": p.read_text() for p in sorted(EXAMPLES.glob("*.zeus"))},
    "trees(64)": programs.trees(64),
    "routing(16)": programs.routing(16),
    "sorter(4,2)": extras.sorter(4, 2),
    "patternmatch(7)": programs.patternmatch(7),
    "ripple_carry(8)": programs.ripple_carry(8),
    **{f"library/{name}(4)": build(4) for name, build in library.BLOCKS.items()},
}


def elaborator(text: str) -> tuple[Elaborator, object]:
    source = SourceText(text, "memo")
    el = Elaborator(parse(source), source)
    return el, el.run()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_elaborates_identically(name):
    res = memo_check(CORPUS[name])
    assert res.ok, res.detail


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_rule_fixtures_elaborate_identically(name):
    res = memo_check(FIXTURES[name])
    assert res.ok, res.detail


def test_compile_text_with_the_memo_switched_off(monkeypatch):
    """The public path agrees too: circuit stats and check diagnostics."""
    texts = [programs.trees(64), programs.patternmatch(7), extras.sorter(4, 2)]
    on = [repro.compile_text(t, strict=False) for t in texts]
    monkeypatch.setattr(Elaborator, "_memoize", False)
    off = [repro.compile_text(t, strict=False) for t in texts]
    for a, b in zip(on, off):
        assert a.stats() == b.stats()
        assert [str(d) for d in a.diagnostics.diagnostics] == [
            str(d) for d in b.diagnostics.diagnostics]
        assert elab_snapshot(a.design) == elab_snapshot(b.design)


def test_repeated_instances_are_stamped():
    el, design = elaborator(programs.trees(64))
    # rtree(64): every right subtree and all but the first q per level.
    assert el.stamped > len(design.instances) // 2


def test_elaborate_span_counts_instances_and_stamps():
    reg = SpanRegistry()
    circuit = repro.compile_text(programs.ripple_carry(8), registry=reg)
    (sp,) = [s for s in reg.spans if s.name == "elaborate"]
    assert sp.meta["instances"] == len(circuit.design.instances)
    assert 0 < sp.meta["stamped"] < sp.meta["instances"]
    assert sp.to_dict()["meta"] == sp.meta


# -- the rules that keep an instance from being a template ------------------


LOCAL_TYPE_READS_ENCLOSING = """
TYPE outer = COMPONENT (IN a, b: boolean; OUT y: ARRAY [1..3] OF boolean) IS
TYPE cell = COMPONENT (IN x: boolean; OUT z: boolean) IS
BEGIN z := AND(x, s) END;
SIGNAL s: boolean;
       c: ARRAY [1..3] OF cell;
BEGIN
    s := NOT b;
    FOR i := 1 TO 3 DO c[i](a, y[i]) END
END;
{top}
"""


def test_local_type_reading_an_enclosing_signal():
    """Each ``cell`` reads ``s`` of its ``outer``, a net made before the
    cell that a copy cannot take over: no cell is stamped."""
    text = LOCAL_TYPE_READS_ENCLOSING.replace("{top}", "SIGNAL u: outer;")
    assert memo_check(text).ok
    el, _ = elaborator(text)
    assert el.stamped == 0


def test_enclosing_instance_of_a_local_type_is_stamped():
    """Inside a whole ``outer`` the read stays in range: the second
    ``outer`` is a stamp, and its cells read its own ``s``."""
    text = LOCAL_TYPE_READS_ENCLOSING.replace("{top}", """
TYPE w = COMPONENT (IN a, b: boolean; OUT y: ARRAY [1..6] OF boolean) IS
SIGNAL o: ARRAY [1..2] OF outer;
BEGIN o[1](a, b, y[1..3]); o[2](b, a, y[4..6]) END;
SIGNAL v: w;""")
    assert memo_check(text).ok
    el, design = elaborator(text)
    assert el.stamped == 4  # o[2] and its three cells
    s2 = design.netlist.signals["v.o[2].s"][0]
    z = design.netlist.signals["v.o[2].c[1].z"][0]
    conn = next(c for c in design.netlist.conns if c.dst is z)
    gate = next(g for g in design.netlist.gates if g.output is conn.src)
    assert s2 in gate.inputs


def test_body_that_first_materialises_a_constant():
    """The patternmatch comparator's ``AND(1, ...)`` makes the constant
    net ``$const_1`` in the first comparator: that one is no template,
    the next is."""
    text = programs.patternmatch(5)
    assert memo_check(text).ok
    el, design = elaborator(text)
    ones = [n for n in design.netlist.nets if n.name == "$const_1"]
    assert len(ones) == 1
    # pe[2] (whose accumulator reuses the cached NOT(RSET) of pe[1]) is
    # the template; pe[3..5] are stamped with their comparator,
    # accumulator and six REGs each.
    assert el.stamped == 3 * 9
    # Every comparator reads the one constant net.
    ands = [g for g in design.netlist.gates if g.op == "AND" and ones[0] in g.inputs]
    assert len(ands) == 5


def test_body_that_first_makes_a_cached_gate_over_rset():
    """The first cell's ELSE makes NOT(RSET), which later cells reuse
    from the cache: that cell is no template (a copy would make a second
    NOT gate), the next one is."""
    text = """
TYPE cell = COMPONENT (IN a: boolean; OUT y: boolean) IS
BEGIN IF RSET THEN y := a ELSE y := NOT a END END;
t = COMPONENT (IN a: boolean; OUT y: ARRAY [1..3] OF boolean; OUT r: boolean) IS
SIGNAL c: ARRAY [1..3] OF cell;
BEGIN r := RSET; FOR i := 1 TO 3 DO c[i](a, y[i]) END END;
SIGNAL u: t;
"""
    assert memo_check(text).ok
    el, design = elaborator(text)
    rset = design.netlist.signals["RSET"][0]
    assert [g.op for g in design.netlist.gates if g.inputs == [rset]] == ["NOT"]
    assert el.stamped == 1


def test_function_body_calling_another_function():
    """``ge`` calls ``lt``: ge advances the call counter (the ``$ltN``
    paths would need renumbering) so it is never a template; the ``lt``
    instances inside are stamped."""
    text = programs.PRELUDE + """
TYPE t = COMPONENT (IN a, b: ARRAY [1..4] OF bo(3); OUT y: bo(4)) IS
BEGIN
    FOR i := 1 TO 4 DO y[i] := ge(a[i], b[i]) END
END;
SIGNAL u: t;
"""
    assert memo_check(text).ok
    el, design = elaborator(text)
    paths = [i.path for i in design.instances]
    assert "u.$ge1" in paths and "u.$ge1.$lt2" in paths and "u.$ge7.$lt8" in paths
    assert el.stamped == 3  # the lt inside ge #2..#4


def test_body_that_warns():
    """A duplicate connection warns; stamping would drop the warning."""
    text = """
TYPE inner = COMPONENT (IN a: boolean; OUT y: boolean) IS
BEGIN y := a END;
cell = COMPONENT (IN a, b: boolean; OUT y: boolean) IS
SIGNAL s: inner;
BEGIN s(a, y); s(b, *) END;
t = COMPONENT (IN a, b: boolean; OUT y: ARRAY [1..3] OF boolean) IS
SIGNAL c: ARRAY [1..3] OF cell;
BEGIN FOR i := 1 TO 3 DO c[i](a, b, y[i]) END END;
SIGNAL u: t;
"""
    assert memo_check(text).ok
    el, design = elaborator(text)
    warnings = [d for d in design.sink.diagnostics if "multiple distinct" in d.message]
    assert len(warnings) == 3
    # Only the ``inner`` of cells 2 and 3: no cell is a template.
    assert el.stamped == 2
    assert "u.c[3].s" in {i.path for i in design.instances}


def test_depth_limit_is_the_same_with_stamps():
    """A template of height 140 recorded near the top must not be stamped
    where full elaboration would exceed the depth limit."""
    text = """
TYPE chain(n) = COMPONENT (IN x: boolean; OUT y: boolean) IS
SIGNAL c: chain(n-1);
BEGIN
    WHEN n = 0 THEN y := x OTHERWISE c(x, y) END
END;
nest(k) = COMPONENT (IN x: boolean; OUT y, z: boolean) IS
SIGNAL a: chain(140);
       b: nest(k-1);
BEGIN
    a(x, y);
    WHEN k > 0 THEN b(x, z, *) OTHERWISE z := x END
END;
SIGNAL u: nest(20);
"""
    res = memo_check(text)
    assert res.ok, res.detail
    with pytest.raises(ElaborationError, match="exceeds depth 150"):
        elaborator(text)


def test_repeated_instances_with_aliases_mux_reads_and_sequences():
    """Stamps replay ``==`` merges, NUM-indexed reads (``$nummux`` names
    follow the new net ids) and SEQUENTIAL constraints."""
    text = """
TYPE cell = COMPONENT (IN sel: ARRAY [1..2] OF boolean; IN d: ARRAY [0..3] OF boolean;
                       OUT y, q: boolean; m: multiplex) IS
SIGNAL k: multiplex;
       h: ARRAY [1..3] OF boolean;
BEGIN
    k == m;
    IF d[0] THEN k := d[1] END;
    y := d[NUM(sel)];
    SEQUENTIAL
        h[1] := d[2];
        h[2] := NOT h[1];
        h[3] := AND(h[2], d[3]);
    END;
    q := h[3]
END;
t = COMPONENT (IN sel: ARRAY [1..2] OF boolean; IN d: ARRAY [0..3] OF boolean;
               OUT y, q: ARRAY [1..3] OF boolean; m: ARRAY [1..3] OF multiplex) IS
SIGNAL c: ARRAY [1..3] OF cell;
BEGIN FOR i := 1 TO 3 DO c[i](sel, d, y[i], q[i], m[i]) END END;
SIGNAL u: t;
"""
    res = memo_check(text)
    assert res.ok, res.detail
    el, design = elaborator(text)
    # c[1] makes the decode constants, so c[2] is the template.
    assert el.stamped == 1
    assert any(n.name.startswith("$nummux") for n in design.netlist.nets)
    assert len(design.seq_constraints) == 6


@pytest.mark.parametrize("again, warnings", [("c[i].a", 0), ("a", 3)])
def test_connection_signatures_of_nested_instance_pins_move_with_the_copy(
    again, warnings
):
    """A nested instance pin connected inside the template and again from
    outside: an identical repeat may not warn in any copy, a different
    one must warn in every copy."""
    text = """
TYPE leaf = COMPONENT (IN a: boolean; OUT y: boolean) IS
BEGIN y := a END;
cell = COMPONENT (sub: leaf; IN a: boolean; OUT y: boolean) IS
BEGIN sub(a, *); y := sub.y END;
t = COMPONENT (IN a: boolean; OUT y: ARRAY [1..3] OF boolean) IS
SIGNAL c: ARRAY [1..3] OF cell;
BEGIN
    FOR i := 1 TO 3 DO
        c[i].a := a; y[i] := c[i].y; c[i].sub({again}, *)
    END
END;
SIGNAL u: t;
""".replace("{again}", again)
    res = memo_check(text)
    assert res.ok, res.detail
    el, design = elaborator(text)
    assert el.stamped == 4  # c[2] and c[3] with their sub
    assert len(design.sink.diagnostics) == warnings
