"""The static checker's diagnostics, pinned byte for byte.

``tests/golden/check_diagnostics.json`` records, for every design in the
stdlib, the extras, ``examples/zeus`` and the fixtures below, the full
diagnostic list of a lenient compile (``strict=False``): severity,
message, span and phase, in emission order.  The order also fixes which
error a strict compile raises (the first one).  A compile that raises
before the checker runs is recorded as ``{"raises": ..., "message": ...}``.

Regenerate (only when a diagnostic change is intended)::

    PYTHONPATH=src python tests/test_check_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import repro
from repro.lang import CheckError, ZeusError
from repro.stdlib import extras, programs

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "check_diagnostics.json"

WRAP = """
TYPE inner = COMPONENT (IN a: boolean; OUT y: boolean; z: multiplex) IS
BEGIN y := a END;
t = COMPONENT (IN a, b: boolean; OUT y: boolean; zz: multiplex) IS
SIGNAL sub: inner;
       loc: boolean;
       m: multiplex;
BEGIN
    {body}
END;
SIGNAL u: t;
"""


def wrap(body: str) -> str:
    return WRAP.replace("{body}", body)


def component(header: str, body: str, signals: str = "") -> str:
    sig = f"SIGNAL {signals}\n" if signals else ""
    return (f"TYPE t = COMPONENT ({header}) IS\n{sig}BEGIN\n{body}\nEND;\n"
            "SIGNAL u: t;\n")


#: The rule fixtures of test_static_rules.py and test_checker.py, plus
#: one program per rule that breaks it several times (and mixes in ``==``
#: aliases so the alias-merged paths are pinned too).
FIXTURES: dict[str, str] = {
    # -- assignment counting (section 4.7) --------------------------------
    "uncond/boolean_from_boolean": wrap(
        "y := a; sub(a, *, *); zz == *; loc := b; * := loc"),
    "uncond/double": wrap("y := a; y := b; sub(a,*,*); zz == *"),
    "uncond/power_ground": wrap(
        "loc := 1; loc := 0; y := a; sub(a,*,*); zz == *"),
    "uncond/locked_multiplex": wrap(
        "m := a; IF b THEN m := a END; y := a; sub(a,*,*); zz == *"),
    "uncond/many": component(
        "IN a: boolean; OUT y: boolean",
        "p := 1; p := 0; q := 1; q := 0; r := a; r := 1; r := 0;\n"
        "y := a; * := p; * := q; * := r",
        "p, q, r: boolean;"),
    "cond/multiplex_ok": wrap(
        "IF a THEN m := b END; IF NOT a THEN m := 0 END; * := m; "
        "y := a; sub(a,*,*); zz == *"),
    "cond/local_boolean": wrap(
        "IF a THEN loc := b END; * := loc; y := a; sub(a,*,*); zz == *"),
    "cond/formal_out_ok": wrap("IF a THEN y := b END; sub(a,*,*); zz == *"),
    "cond/instance_in_pin_ok": wrap(
        "IF a THEN sub.a := b END; * := sub.y; sub.z == *; y := a; zz == *"),
    "cond/mixed": wrap("y := a; IF b THEN y := 0 END; sub(a,*,*); zz == *"),
    "cond/many": component(
        "IN a, b: boolean; OUT y: boolean; zz: multiplex",
        "IF a THEN p := b END; IF b THEN q := a END;\n"
        "m := a; IF b THEN m := 0 END; n := b; IF a THEN n := 1 END;\n"
        "k == zz; k := a; IF b THEN k := 0 END;\n"
        "y := a; * := p; * := q; * := m; * := n",
        "p, q: boolean; m, n, k: multiplex;"),
    # -- aliasing (section 4.1) -------------------------------------------
    "alias/mux_mux_ok": wrap("m == zz; * := m; y := a; sub(a,*,*)"),
    "alias/boolean_boolean": wrap("loc == b; y := a; sub(a,*,*); zz == *"),
    "alias/local_boolean_mux": wrap("loc == m; y := a; sub(a,*,*); zz == *"),
    "alias/in_pin_with_mux_ok": wrap(
        "sub.a == m; * := sub.y; sub.z == *; y := a; zz == *"),
    "alias/formal_out_with_mux_ok": wrap(
        "y == m; IF a THEN m := b END; sub(a,*,*); zz == *"),
    "alias/in_conditional": wrap("IF a THEN zz == m END; y := a; sub(a,*,*)"),
    "alias/boolean_also_assigned": wrap(
        "sub.a == m; sub.a := b; * := sub.y; sub.z == *; y := a; zz == *"),
    "alias/boolean_also_assigned_many": """
TYPE inner = COMPONENT (IN a: boolean; OUT y: boolean; z: multiplex) IS
BEGIN y := a END;
t = COMPONENT (IN a, b: boolean; OUT y: boolean) IS
SIGNAL s1, s2, s3: inner;
       m1, m2, m3: multiplex;
BEGIN
    s1.a == m1; s1.a := b; * := s1.y; s1.z == *;
    s2.a == m2; s2.a := a; * := s2.y; s2.z == *;
    s3.a == m3; IF a THEN m3 := b END; * := s3.y; s3.z == *;
    y := a
END;
SIGNAL u: t;
""",
    "alias/width_mismatch": """
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean;
                    p: ARRAY [1..2] OF multiplex;
                    q: ARRAY [1..3] OF multiplex) IS
BEGIN p == q; y := a END;
SIGNAL u: t;
""",
    # -- parameter directions (elaboration errors) ------------------------
    "dir/assign_formal_in": wrap("a := b; y := a; sub(a,*,*); zz == *"),
    "dir/assign_instance_out": wrap("sub.y := b; y := a; sub(a,*,*); zz == *"),
    "dir/unstructured_in_boolean": """
TYPE t = COMPONENT (IN a: multiplex; OUT y: boolean) IS
BEGIN y := a END;
SIGNAL u: t;
""",
    "dir/unstructured_inout_multiplex": """
TYPE t = COMPONENT (IN a: boolean; OUT y: boolean; z: boolean) IS
BEGIN y := a; z == * END;
SIGNAL u: t;
""",
    "dir/record_types_exempt": """
TYPE bo3 = ARRAY [1..3] OF boolean;
bus = COMPONENT (r, s, t: bo3; u: boolean);
w = COMPONENT (IN a: boolean; OUT y: boolean) IS
SIGNAL b: bus;
BEGIN b.u := a; y := b.u END;
SIGNAL top: w;
""",
    # -- acyclicity (section 1) -------------------------------------------
    "cycle/two_nots": component(
        "IN a: boolean; OUT y: boolean",
        "s1 := NOT s2; s2 := NOT s1; y := AND(a, s1)", "s1, s2: boolean;"),
    "cycle/names_nets": component(
        "IN a: boolean; OUT y: boolean",
        "s1 := NOT s2; s2 := NOT s1; y := s1", "s1, s2: boolean;"),
    "cycle/through_register_ok": component(
        "IN a: boolean; OUT y: boolean",
        "r.in := XOR(a, r.out); y := r.out", "r: REG;"),
    "cycle/self_loop": component(
        "IN a: boolean; OUT y: boolean",
        "IF a THEN s[1] := s[1] END; y := a; * := s",
        "s: ARRAY [1..2] OF multiplex;"),
    "cycle/several": component(
        "IN a: boolean; OUT y, z: boolean; w: multiplex",
        "s1 := NOT s2; s2 := NOT s1;\n"
        "t1 := AND(a, t3); t2 := NOT t1; t3 := OR(t2, a);\n"
        "m == w; IF a THEN m := m END;\n"
        "y := AND(s1, t1); z := t2",
        "s1, s2, t1, t2, t3: boolean; m: multiplex;"),
    # -- unused ports (section 4.1) ---------------------------------------
    "ports/unused": wrap("* := sub.y; y := a; zz == *"),
    "ports/star_closes": wrap("sub(*, *, *); y := a; zz == *"),
    "ports/disconnected_ok": """
TYPE inner = COMPONENT (IN a: boolean; OUT y: boolean) IS
BEGIN y := a END;
t = COMPONENT (IN a: boolean; OUT y: boolean) IS
SIGNAL ghost: inner;
BEGIN y := a END;
SIGNAL u: t;
""",
    "ports/many": """
TYPE inner = COMPONENT (IN a, b: boolean; OUT y, x: boolean) IS
BEGIN y := AND(a, b); x := OR(a, b) END;
t = COMPONENT (IN a: boolean; OUT y: boolean) IS
SIGNAL i1, i2, i3: inner;
BEGIN
    i1.a := a; * := i1.y;
    i2.b := a; * := i2.x;
    i3(a, a, *, *);
    y := a
END;
SIGNAL u: t;
""",
    # -- SEQUENTIAL consistency (section 4.5) -----------------------------
    "seq/consistent_ok": component(
        "IN a: boolean; OUT y: boolean",
        "SEQUENTIAL s := NOT a; y := NOT s; END", "s: boolean;"),
    "seq/inconsistent": component(
        "IN a: boolean; OUT y: boolean",
        "SEQUENTIAL y := NOT s; s := NOT a; END", "s: boolean;"),
    "seq/parallel_inside": component(
        "IN a, b: boolean; OUT y: boolean",
        "SEQUENTIAL PARALLEL s1 := NOT a; s2 := NOT b END; "
        "y := AND(s1, s2); END", "s1, s2: boolean;"),
    "seq/many": component(
        "IN a, b: boolean; OUT y, z: boolean",
        "SEQUENTIAL\n"
        "  PARALLEL p1 := NOT a; p2 := AND(a, q1); p3 := OR(q2, b); END;\n"
        "  PARALLEL q1 := NOT b; q2 := XOR(a, b); END;\n"
        "  r1 := AND(p1, p2);\n"
        "END;\n"
        "SEQUENTIAL z := NOT r2; r2 := NOT a; END;\n"
        "y := AND(r1, p3)",
        "p1, p2, p3, q1, q2, r1, r2: boolean;"),
    "seq/with_cycle": component(
        "IN a: boolean; OUT y, z, w: boolean",
        "SEQUENTIAL z := AND(s1, q); PARALLEL q := NOT a; s2 := NOT s1 END; END;\n"
        "SEQUENTIAL w := NOT q; r := XOR(a, s2); END;\n"
        "s1 := NOT s2; y := AND(s1, r)",
        "s1, s2, q, r: boolean;"),
    # -- IF restrictions --------------------------------------------------
    "if/single_bit": """
TYPE t = COMPONENT (IN a: ARRAY [1..2] OF boolean; OUT y: boolean) IS
BEGIN IF a THEN y := 1 END END;
SIGNAL u: t;
""",
    "if/guarded_connection_ok": """
TYPE inv = COMPONENT (IN a: boolean; OUT y: boolean) IS
BEGIN y := NOT a END;
t = COMPONENT (IN a, en: boolean; OUT y: boolean; z: multiplex) IS
SIGNAL g: inv;
BEGIN
    IF en THEN g(a, z) END;
    * := g.y;
    y := a
END;
SIGNAL u: t;
""",
    # -- warnings: undriven and write-only --------------------------------
    "warn/undriven_read": component(
        "IN a: boolean; OUT y: boolean",
        "y := AND(a, ghost)", "ghost: boolean;"),
    "warn/undriven_many": component(
        "IN a: boolean; OUT y, z: boolean; w: multiplex",
        "y := AND(a, g1, g2); z := OR(a, m1); * := m2;\n"
        "IF g3 THEN w := a END",
        "g1, g2, g3: boolean; m1, m2: multiplex;"),
    "warn/write_only_many": component(
        "IN a, b: boolean; OUT y: boolean",
        "w1 := a; w2 := AND(a, b); r.in := a; m == n; m := b;\n"
        "IF a THEN k := b END; c := NOT b; y := c",
        "w1, w2, c: boolean; r: REG; m, n, k: multiplex;"),
    "warn/constant_guards": component(
        "IN a, b: boolean; OUT y: boolean; w: multiplex",
        "c := AND(a, b); IF c THEN m := 1 END; IF g THEN w := 0 END;\n"
        "* := m; y := a",
        "c, g: boolean; m: multiplex;"),
    "warn/test_checker_multiple": component(
        "IN a: boolean; OUT y: boolean",
        "p := 1; p := 0;\nq := 1; q := 0;\ny := a; * := p; * := q",
        "p, q: boolean;"),
    "warn/rendering": component(
        "IN a: boolean; OUT y: boolean",
        "p := 1; p := 0; y := a; * := p", "p: boolean;"),
}


def corpus() -> dict[str, str]:
    """Every design the golden covers, by case name."""
    cases = {f"programs/{k}": v for k, v in programs.ALL_PROGRAMS.items()}
    cases.update({f"extras/{k}": v for k, v in extras.EXTRA_PROGRAMS.items()})
    for path in sorted((ROOT / "examples" / "zeus").glob("*.zeus")):
        cases[f"examples/{path.name}"] = path.read_text()
    cases.update({
        "scaled/trees(16)": programs.trees(16),
        "scaled/routing(4)": programs.routing(4),
        "scaled/sorter(4,4)": extras.sorter(4, 4),
        "scaled/patternmatch(7)": programs.patternmatch(7),
        "scaled/ripple_carry(8)": programs.ripple_carry(8),
    })
    cases.update({f"fixtures/{k}": v for k, v in FIXTURES.items()})
    return cases


def diagnostics_of(text: str):
    try:
        circuit = repro.compile_text(text, strict=False)
    except ZeusError as exc:
        return {"raises": type(exc).__name__, "message": str(exc)}
    return [[d.severity.value, d.message, d.span.start, d.span.end, d.phase]
            for d in circuit.diagnostics.diagnostics]


def render(cases: dict[str, str]) -> str:
    data = {name: diagnostics_of(text) for name, text in cases.items()}
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def test_diagnostics_match_golden():
    assert render(corpus()) == GOLDEN.read_text()


def test_every_rule_fires_several_times():
    # The golden would pin nothing if a fixture stopped reaching its rule.
    golden = json.loads(GOLDEN.read_text())
    wants = {
        "fixtures/uncond/many": "unconditional assignments",
        "fixtures/cond/many": "conditional",
        "fixtures/alias/boolean_also_assigned_many": "aliased with ==",
        "fixtures/ports/many": "neither used nor assigned",
        "fixtures/seq/many": "SEQUENTIAL order incompatible",
        "fixtures/warn/undriven_many": "read but never assigned",
        "fixtures/warn/write_only_many": "assigned but never read",
    }
    for case, text in wants.items():
        hits = [d for d in golden[case] if text in d[1]]
        assert len(hits) >= 2, (case, golden[case])


@pytest.mark.parametrize("case", ["fixtures/uncond/many", "fixtures/cond/many",
                                  "fixtures/seq/many", "fixtures/ports/many"])
def test_strict_raises_the_first_error(case):
    text = corpus()[case]
    first = next(d for d in json.loads(GOLDEN.read_text())[case]
                 if d[0] == "error")
    with pytest.raises(CheckError) as err:
        repro.compile_text(text)
    assert str(err.value) == first[1]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    GOLDEN.write_text(render(corpus()))
    print(f"wrote {GOLDEN}")
