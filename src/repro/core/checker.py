"""Graph-level static checks (paper sections 1, 4.5, 4.7, 8).

Run after elaboration, these enforce the rules that need the whole
semantics graph:

* **acyclicity** -- "we disallow feedback loops which do not lead through
  registers" (section 1); REG is the only cycle breaker;
* **assignment counting** (section 4.7): at most one unconditional
  assignment per basic signal; never both conditional and unconditional;
  conditional assignment to a *boolean* signal only under exception 1
  (an IN pin of an instantiated component or a formal OUT parameter);
* **aliasing** interaction: a boolean signal aliased with ``==`` must not
  also be unconditionally assigned with ``:=`` (section 4.1);
* **unused ports** (section 4.1): every pin of a partially connected
  instance must be used, assigned, or explicitly closed with ``*``;
* **SEQUENTIAL consistency** (section 4.5): a user-specified execution
  order must be compatible with the dataflow order;
* undriven-signal warnings (the signal will read UNDEF), and
  assigned-but-never-read warnings (:func:`~repro.core.graphview.write_only`,
  the rule ``zeusc lint`` reports as ``write-only``).

Every check reads one :class:`~repro.core.graphview.GraphView` of the
netlist, derived once per run.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain

from ..lang.errors import CheckError, DiagnosticSink
from .elaborate import Design
from .graphview import GraphView, dependency_graph, topological_order, write_only
from .netlist import Net
from .types import BOOLEAN

__all__ = ["Checker", "check", "dependency_graph", "topological_order"]


class Checker:
    """Runs all graph checks over one elaborated design, each reading
    the one :class:`~repro.core.graphview.GraphView` of its netlist."""

    def __init__(self, design: Design):
        self.design = design
        self.netlist = design.netlist
        self.view = GraphView(self.netlist)
        self.sink = DiagnosticSink(source=design.source)

    def run(self) -> DiagnosticSink:
        self.check_acyclic()
        self.check_assignment_rules()
        self.check_unused_ports()
        self.check_sequential_constraints()
        self.warn_undriven()
        return self.sink

    # -- acyclicity -----------------------------------------------------

    def check_acyclic(self) -> None:
        if self.view.acyclic:
            return
        try:
            topological_order(self.netlist, self.view)  # names the cycle
        except CheckError as exc:
            self.sink.error(str(exc), exc.span, phase="check")

    # -- section 4.7 counting rules ---------------------------------------

    def check_assignment_rules(self) -> None:
        view, canon = self.view, self.view.canon
        conns, consts = view.unique_conns, view.unique_const_conns
        # Deduplicated driver counts per canonical net.
        assigned = Counter(canon[c.dst.id] for c in conns if c.cond is None)
        constant = Counter(canon[c.dst.id] for c in consts if c.cond is None)
        guarded = Counter(canon[c.dst.id] for c in chain(conns, consts)
                          if c.cond is not None)
        # In first-driver order.
        for canon_id in dict.fromkeys(canon[c.dst.id] for c in chain(conns, consts)):
            uncond = assigned.get(canon_id, 0) + constant.get(canon_id, 0)
            cond = guarded.get(canon_id, 0)
            # A ':=' (not constant) unconditional driver on an '==' class.
            aliased = (view.aliased and canon_id in assigned
                       and view.merged(canon_id))
            if uncond <= 1 and not cond and not aliased:
                continue
            net = self.netlist.nets[canon_id]
            members = view.members(canon_id)
            display = min((m.name for m in members if not m.name.startswith("$")),
                          default=net.name)
            if uncond > 1:
                self.sink.error(
                    f"signal {display!r} has {uncond} unconditional "
                    "assignments (exactly one is allowed; this could connect "
                    "power to ground)",
                    net.span,
                    phase="check",
                )
            if uncond >= 1 and cond >= 1:
                self.sink.error(
                    f"signal {display!r} is assigned both conditionally and "
                    "unconditionally (section 4.7)",
                    net.span,
                    phase="check",
                )
            if cond >= 1:
                self._check_conditional_boolean(members, display)
            if aliased and any(m.kind == BOOLEAN for m in members):
                self.sink.error(
                    f"boolean signal {display!r} is aliased with == and "
                    "also unconditionally assigned with := (section 4.1)",
                    net.span,
                    phase="check",
                )

    def _check_conditional_boolean(self, members: list[Net], display: str) -> None:
        """Conditional assignment reaches this alias class: every boolean
        member must fall under exception 1 of the type rules."""
        for m in members:
            if m.kind != BOOLEAN:
                continue
            if m.role in ("pin_in", "pin_out"):
                continue  # exception 1 (incl. formal OUT seen from inside)
            if m.role == "gate":
                continue  # implicit nets synthesized by the elaborator
            if m.name.startswith("$"):
                continue  # NUM-mux and other synthesized helper nets
            self.sink.error(
                f"conditional assignment to boolean signal {display!r} "
                f"({m.name}); it must be of type multiplex, or be an IN pin "
                "of an instantiated component or a formal OUT parameter "
                "(type rules (1), section 4.7)",
                m.span,
                phase="check",
            )

    # -- unused ports -------------------------------------------------------

    def check_unused_ports(self) -> None:
        pins_of: dict[int, list[Net]] = defaultdict(list)
        instances = {id(inst): inst for inst in self.design.instances}
        for net_id, inst in self.design.pin_owner.items():
            pins_of[id(inst)].append(self.netlist.nets[net_id])
        for key, inst in instances.items():
            pins = pins_of.get(key, [])
            if not pins or not inst.touched:
                continue  # completely disconnected components are legal
            missing = [p for p in pins if p.id not in inst.touched]
            for pin in missing:
                self.sink.error(
                    f"port {pin.name!r} of instance {inst.path!r} is neither "
                    "used nor assigned; close it explicitly with '*' "
                    "(section 4.1)",
                    pin.span,
                    phase="check",
                )

    # -- SEQUENTIAL consistency ------------------------------------------

    def check_sequential_constraints(self) -> None:
        if not self.design.seq_constraints:
            return
        view = self.view
        for earlier, later in self.design.seq_constraints:
            earlier_ids = {view.canon[n.id] for n in earlier}
            later_ids = {view.canon[n.id] for n in later}
            # The user claims `earlier` is computed before `later`: then no
            # earlier target may (combinationally) depend on a later target.
            hit = self._reaches(view.deps, view.rank, earlier_ids, later_ids)
            if hit is not None:
                a, b = hit
                self.sink.error(
                    f"SEQUENTIAL order incompatible with the dataflow order: "
                    f"{self.netlist.nets[a].name!r} (earlier statement) "
                    f"depends on {self.netlist.nets[b].name!r} (later "
                    "statement)",
                    phase="check",
                )

    @staticmethod
    def _reaches(
        deps: dict[int, set[int]], rank: list[int], from_ids: set[int],
        targets: set[int],
    ) -> tuple[int, int] | None:
        """Is any of *targets* reachable (via deps) from any of *from_ids*?
        Returns a witness (start, target) or None.

        The search skips nets that cannot reach a target: those ranked
        (``GraphView.rank``) after every target, and those an earlier,
        fruitless search from another start already reached.  Skipping
        them leaves the witness as a fresh search per start finds it."""
        bound = max(rank[t] for t in targets)
        seen: set[int] = set()
        for start in from_ids:
            if start in seen or rank[start] > bound:
                continue
            seen.add(start)
            stack = [start]
            while stack:
                node = stack.pop()
                for dep in deps.get(node, ()):
                    if dep in targets:
                        return (start, dep)
                    if dep not in seen and rank[dep] <= bound:
                        seen.add(dep)
                        stack.append(dep)
        return None

    # -- warnings -----------------------------------------------------------

    def warn_undriven(self) -> None:
        """Read-but-never-assigned, then assigned-but-never-read
        warnings."""
        view = self.view
        for nid in sorted(view.reads - view.driven):
            if any(m.is_input for m in view.members(nid)):
                continue
            net = self.netlist.nets[nid]
            self.sink.warning(
                f"signal {net.name!r} is read but never assigned; it will be "
                f"{'NOINFL' if net.kind != BOOLEAN else 'UNDEF'}",
                net.span,
                phase="check",
            )
        for finding in write_only(view):
            self.sink.warning(finding.message, finding.span, phase="check")


def check(design: Design, strict: bool = True) -> DiagnosticSink:
    """Run all static checks; raise :class:`CheckError` on the first
    error when *strict*."""
    from ..obs.spans import span

    with span("check"):
        sink = Checker(design).run()
    if strict and sink.has_errors():
        first = sink.errors[0]
        raise CheckError(first.message, first.span)
    return sink
