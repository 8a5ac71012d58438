"""Checker internals: dependency graph, topological order, diagnostics."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core import checker, elaborate, graphview
from repro.core.netlist import Netlist
from repro.core.types import BOOLEAN, MULTIPLEX
from repro.core.values import Logic
from repro.lang import CheckError, parse
from repro.stdlib import programs

from zeus_test_utils import compile_ok


def design_of(text, top=None):
    return elaborate(parse(text), top=top)


SIMPLE = """
TYPE t = COMPONENT (IN a, b: boolean; OUT y: boolean) IS
SIGNAL s: boolean;
BEGIN
    s := AND(a, b);
    y := NOT s
END;
SIGNAL u: t;
"""


class TestDependencyGraph:
    def test_edges_follow_dataflow(self):
        d = design_of(SIMPLE)
        deps = checker.dependency_graph(d.netlist)
        names = {n.id: n.name for n in d.netlist.nets}
        # y depends (transitively) on s's gate; s's gate on a and b.
        y = next(i for i, n in names.items() if n == "u.y")
        assert deps[y]  # the NOT gate output

    def test_topological_order_is_consistent(self):
        d = design_of(SIMPLE)
        order = checker.topological_order(d.netlist)
        pos = {nid: i for i, nid in enumerate(order)}
        deps = checker.dependency_graph(d.netlist)
        for dst, srcs in deps.items():
            for src in srcs:
                assert pos[src] < pos[dst]

    def test_reg_breaks_cycle(self):
        d = design_of(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL r: REG;
            BEGIN r.in := XOR(a, r.out); y := r.out END;
            SIGNAL u: t;
            """
        )
        checker.topological_order(d.netlist)  # no exception

    def test_cycle_message_names_nets(self):
        d = design_of(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL s1, s2: boolean;
            BEGIN s1 := NOT s2; s2 := NOT s1; y := s1 END;
            SIGNAL u: t;
            """
        )
        with pytest.raises(CheckError) as err:
            checker.topological_order(d.netlist)
        assert "s1" in str(err.value) or "s2" in str(err.value)


class TestDiagnostics:
    def test_lenient_collects_multiple_errors(self):
        circuit = repro.compile_text(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL p, q: boolean;
            BEGIN
                p := 1; p := 0;
                q := 1; q := 0;
                y := a; * := p; * := q
            END;
            SIGNAL u: t;
            """,
            strict=False,
        )
        assert len(circuit.diagnostics.errors) >= 2

    def test_undriven_read_warns(self):
        circuit = repro.compile_text(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL ghost: boolean;
            BEGIN y := AND(a, ghost) END;
            SIGNAL u: t;
            """,
            strict=False,
        )
        warnings = [d.message for d in circuit.diagnostics.warnings]
        assert any("ghost" in w for w in warnings)

    def test_clean_program_no_diagnostics(self):
        circuit = compile_ok(SIMPLE)
        assert not circuit.diagnostics.errors
        assert not circuit.diagnostics.warnings

    def test_diagnostic_rendering_includes_location(self):
        circuit = repro.compile_text(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean) IS
            SIGNAL p: boolean;
            BEGIN p := 1; p := 0; y := a; * := p END;
            SIGNAL u: t;
            """,
            strict=False,
        )
        text = circuit.diagnostics.render()
        assert "unconditional" in text


class TestNetlistQueries:
    def test_stats_keys(self):
        circuit = compile_ok(SIMPLE)
        stats = circuit.stats()
        assert set(stats) == {
            "nets", "gates", "connections", "registers", "alias_merges"
        }

    def test_port_lookup(self):
        circuit = compile_ok(SIMPLE)
        assert circuit.netlist.port("a").mode == "IN"
        with pytest.raises(KeyError):
            circuit.netlist.port("zz")

    def test_alias_class(self):
        circuit = compile_ok(
            """
            TYPE t = COMPONENT (IN a: boolean; OUT y: boolean;
                                p, q: multiplex) IS
            BEGIN p == q; y := a; * := p END;
            SIGNAL u: t;
            """
        )
        nl = circuit.netlist
        p = nl.port("p").nets[0]
        q = nl.port("q").nets[0]
        assert nl.find(p) is nl.find(q)
        assert {n.name for n in nl.alias_class(p)} == {"u.p", "u.q"}

    def test_describe(self):
        circuit = compile_ok(SIMPLE)
        text = circuit.netlist.describe()
        assert "gates" in text and "registers" in text


#: Several SEQUENTIAL steps whose earlier targets overlap in their cones;
#: ``z``'s alias class and the unread ``w`` give every check some work.
SEQ_WITNESS = """
TYPE t = COMPONENT (IN a, b: boolean; OUT y: boolean; z: multiplex) IS
SIGNAL p1, p2, p3, p4, q, r: boolean;
       m, w: multiplex;
BEGIN
    SEQUENTIAL
        PARALLEL p1 := NOT a; p2 := AND(p1, b); p3 := OR(p2, q);
                 p4 := XOR(p1, r) END;
        PARALLEL q := NOT b; r := AND(a, b) END;
    END;
    m == z; m := p3; w := p4;
    y := AND(p1, p2, p3, p4)
END;
SIGNAL u: t;
"""


def _reaches_fresh(deps, from_ids, targets):
    """Reference: a fresh search per start net."""
    for start in from_ids:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for dep in deps.get(node, ()):
                if dep in targets:
                    return (start, dep)
                if dep not in seen:
                    seen.add(dep)
                    stack.append(dep)
    return None


class TestSequentialWitness:
    def test_witness_pair(self):
        circuit = repro.compile_text(SEQ_WITNESS, strict=False)
        errors = [d.message for d in circuit.diagnostics.errors]
        assert errors == [
            "SEQUENTIAL order incompatible with the dataflow order: 'u.p3' "
            "(earlier statement) depends on 'u.q' (later statement)"
        ]

    def test_shared_search_finds_the_fresh_search_witness(self):
        designs = [design_of(SEQ_WITNESS),
                   design_of(programs.ripple_carry(8))]
        compared = 0
        for d in designs:
            view = graphview.GraphView(d.netlist)
            for earlier, later in d.seq_constraints:
                # Every earlier/later split of each step, so some searches
                # succeed after fruitless ones and some fail outright.
                starts = {view.canon[n.id] for n in earlier + later}
                for targets in ({view.canon[n.id] for n in later},
                                {view.canon[n.id] for n in earlier}):
                    want = _reaches_fresh(view.deps, starts - targets, targets)
                    got = checker.Checker._reaches(view.deps, view.rank,
                                                   starts - targets, targets)
                    assert got == want
                    compared += 1
        assert compared >= 4


    def test_random_graphs(self):
        # Mostly acyclic random netlists with some back edges and ==
        # merges: the pruned, shared search agrees with a fresh search
        # per start, and the view's cycle test with topological_order.
        rng = random.Random(1983)
        for _ in range(300):
            n = rng.randint(2, 30)
            nl = Netlist()
            nets = [nl.new_net(f"n{i}", "boolean") for i in range(n)]
            for _ in range(rng.randint(0, 3 * n)):
                a, b = rng.randrange(n), rng.randrange(n)
                if a < b or rng.random() < 0.05:
                    nl.add_conn(nets[a], nets[b])
            for _ in range(rng.randint(0, 3)):
                nl.alias(nets[rng.randrange(n)], nets[rng.randrange(n)])
            view = graphview.GraphView(nl)
            try:
                checker.topological_order(nl)
                assert view.acyclic
            except CheckError:
                assert not view.acyclic
            for _ in range(5):
                starts = {view.canon[rng.randrange(n)] for _ in range(4)}
                targets = {view.canon[rng.randrange(n)] for _ in range(3)}
                targets -= starts
                if targets:
                    assert (checker.Checker._reaches(view.deps, view.rank,
                                                     starts, targets)
                            == _reaches_fresh(view.deps, starts, targets))


class TestOneView:
    def test_one_graph_build_and_one_find_per_net(self, monkeypatch):
        d = design_of(SEQ_WITNESS)
        assert d.netlist.aliased and d.seq_constraints
        builds, finds = [], []
        real_build, real_find = graphview.dependency_graph, Netlist.find

        def counting_build(*args, **kwargs):
            builds.append(1)
            return real_build(*args, **kwargs)

        def counting_find(self, net):
            finds.append(net.id)
            return real_find(self, net)

        monkeypatch.setattr(graphview, "dependency_graph", counting_build)
        monkeypatch.setattr(Netlist, "find", counting_find)
        sink = checker.check(d, strict=False)
        assert sink.errors  # the SEQUENTIAL violation: deps were used
        assert len(builds) == 1
        assert len(finds) <= len(d.netlist.nets)

    def test_write_only_counts_constant_guards_as_reads(self):
        nl = Netlist()
        a = nl.new_net("a", BOOLEAN, is_input=True)
        c = nl.new_net("c", BOOLEAN)
        m = nl.new_net("m", MULTIPLEX)
        nl.add_conn(a, c)
        nl.add_const(Logic.ONE, m, cond=c)
        found = graphview.write_only(graphview.GraphView(nl))
        assert [(w.display, w.message) for w in found] == [
            ("m", "signal 'm' is assigned but never read")]

    def test_checker_imports_no_lint_module(self):
        code = (
            "import sys\n"
            "import repro.core.checker as c\n"
            "from repro.lang import parse\n"
            "from repro.core.elaborate import elaborate\n"
            f"c.check(elaborate(parse({SEQ_WITNESS!r})), strict=False)\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.lint')))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"
