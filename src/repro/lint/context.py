"""Shared graph infrastructure for all lint passes.

Every pass works on the elaborated semantics graph, and most need the
same handful of derived structures: canonical (``==``-merged) net
classes, the per-net driver lists, the reader sets, the combinational
dependency graph and its topological order (or the offending cycle),
fan-out counts and unit-delay levels.  :class:`LintContext` computes
each of these once, lazily, and caches it so a full lint run performs a
single traversal per structure regardless of how many passes consume it.
The canonical classes, drivers, readers and dependency graph come from
the checker's :class:`~repro.core.graphview.GraphView`, in class-index
space (class index == net id when nothing is ``==``-aliased).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property

from ..core.elaborate import Design
from ..core.graphview import GraphView
from ..core.netlist import Gate, Netlist
from ..core.types import BOOLEAN
from ..core.values import Logic
from ..lang.source import NO_SPAN, Span


@dataclass(eq=False)
class DriverInfo:
    """One deduplicated driver of a canonical net class.

    ``cond``/``src`` are canonical class indices (not net ids); ``const``
    is set instead of ``src`` for constant drivers.  ``index`` is stable
    within the net's driver list and is what prover verdicts refer to.
    """

    index: int
    dst: int
    cond: int | None
    src: int | None
    const: Logic | None
    span: Span = NO_SPAN

    @property
    def uncond(self) -> bool:
        return self.cond is None

    def describe(self, ctx: "LintContext") -> str:
        what = (f"constant {self.const}" if self.const is not None
                else ctx.display[self.src])
        guard = "" if self.cond is None else f" when {ctx.display[self.cond]}"
        return f"{what}{guard}"


class LintContext:
    """Lazily computed, shared derived views of one elaborated design."""

    def __init__(self, design: Design, view: GraphView | None = None):
        self.design = design
        self.netlist: Netlist = design.netlist
        #: the canonical net view shared with the checker's rules.
        self.view = view or GraphView(self.netlist)
        self._canon = self.view.canon
        if self.view.aliased:
            canon_ids = sorted(set(self._canon))
            self._index = {cid: i for i, cid in enumerate(canon_ids)}
        else:
            # Every net is its own class, and class index == net id.
            canon_ids = self._index = self._canon
        self.canon_ids = canon_ids
        self.n = len(canon_ids)

        # Class membership and display metadata.
        view = self.view
        self.members = [view.members(cid) for cid in canon_ids]
        self.display = [view.display(cid) for cid in canon_ids]
        self.is_boolean = [all(m.kind == BOOLEAN for m in ms)
                           for ms in self.members]
        self.is_input = [any(m.is_input for m in ms) for ms in self.members]
        self.is_output = [any(m.is_output for m in ms) for ms in self.members]
        self.spans = [view.span(cid) for cid in canon_ids]

    def idx(self, net) -> int:
        """Canonical class index of a :class:`~repro.core.netlist.Net`."""
        return self._index[self._canon[net.id]]

    # -- drivers and readers -------------------------------------------------

    @cached_property
    def drivers_of(self) -> list[list[DriverInfo]]:
        """Deduplicated drivers per class (``unique_conns`` semantics)."""
        out: list[list[DriverInfo]] = [[] for _ in range(self.n)]
        for conn in self.view.unique_conns:
            dst = self.idx(conn.dst)
            cond = self.idx(conn.cond) if conn.cond is not None else None
            out[dst].append(DriverInfo(len(out[dst]), dst, cond,
                                       self.idx(conn.src), None, conn.span))
        for cc in self.view.unique_const_conns:
            dst = self.idx(cc.dst)
            cond = self.idx(cc.cond) if cc.cond is not None else None
            out[dst].append(DriverInfo(len(out[dst]), dst, cond,
                                       None, cc.value, cc.span))
        return out

    @cached_property
    def gates_of(self) -> dict[int, list[Gate]]:
        """Gates whose output lands in each class (normally at most one)."""
        out: dict[int, list[Gate]] = defaultdict(list)
        for gate in self.netlist.gates:
            out[self.idx(gate.output)].append(gate)
        return dict(out)

    @cached_property
    def reg_q_of(self) -> dict[int, list]:
        """REGs whose ``q`` output lands in each class."""
        out: dict[int, list] = defaultdict(list)
        for reg in self.netlist.regs:
            out[self.idx(reg.q)].append(reg)
        return dict(out)

    @cached_property
    def readers(self) -> set[int]:
        """Classes consumed by anything: gate inputs, connection sources,
        guards, and register data pins."""
        index = self._index
        return {index[c] for c in self.view.reads | self.view.const_guards}

    @cached_property
    def driven(self) -> set[int]:
        """Classes receiving any value: drivers, gate or REG outputs."""
        out = {i for i, drvs in enumerate(self.drivers_of) if drvs}
        out.update(self.gates_of)
        out.update(self.reg_q_of)
        return out

    # -- dependency structure ------------------------------------------------

    @cached_property
    def deps(self) -> dict[int, set[int]]:
        """Combinational dependency edges over class indices
        (``deps[dst]`` = classes *dst* combinationally depends on)."""
        # Fresh sets filled in the view's iteration order: the passes'
        # traversal order, and so the witnesses they report, follow them.
        index = self._index
        return {index[dst]: {index[s] for s in srcs}
                for dst, srcs in self.view.deps.items()}

    @cached_property
    def fanout_edges(self) -> dict[int, list[int]]:
        """Forward adjacency: class -> classes that depend on it."""
        fwd: dict[int, list[int]] = defaultdict(list)
        for dst, srcs in self.deps.items():
            for src in srcs:
                fwd[src].append(dst)
        return dict(fwd)

    @cached_property
    def _topo(self) -> tuple[list[int] | None, list[int]]:
        """(topological order, []) when acyclic, else (None, a cycle)."""
        indegree = [0] * self.n
        for dst, srcs in self.deps.items():
            indegree[dst] = len(srcs)
        queue = [i for i in range(self.n) if indegree[i] == 0]
        order: list[int] = []
        while queue:
            i = queue.pop()
            order.append(i)
            for nxt in self.fanout_edges.get(i, ()):
                indegree[nxt] -= 1
                if indegree[nxt] == 0:
                    queue.append(nxt)
        if len(order) == self.n:
            return order, []
        stuck = {i for i in range(self.n) if indegree[i] > 0}
        return None, self._one_cycle(stuck)

    def _one_cycle(self, stuck: set[int]) -> list[int]:
        """One combinational cycle through the stuck region, closed
        (first element repeated last)."""
        node = next(iter(stuck))
        seen: dict[int, int] = {}
        path: list[int] = []
        while node not in seen:
            seen[node] = len(path)
            path.append(node)
            node = next(d for d in self.deps.get(node, ()) if d in stuck)
        return path[seen[node]:] + [node]

    @property
    def topo_order(self) -> list[int] | None:
        """Topological order of the classes, or None when cyclic."""
        return self._topo[0]

    @property
    def cycle(self) -> list[int]:
        """A witness combinational cycle ([] when the graph is acyclic)."""
        return self._topo[1]

    @cached_property
    def fanout(self) -> dict[int, int]:
        """Consumer count per class (gate inputs + sources + guards +
        register data pins)."""
        counts: dict[int, int] = defaultdict(int)
        for gate in self.netlist.gates:
            for inp in gate.inputs:
                counts[self.idx(inp)] += 1
        for conn in self.netlist.conns:
            counts[self.idx(conn.src)] += 1
            if conn.cond is not None:
                counts[self.idx(conn.cond)] += 1
        for cc in self.netlist.const_conns:
            if cc.cond is not None:
                counts[self.idx(cc.cond)] += 1
        for reg in self.netlist.regs:
            counts[self.idx(reg.d)] += 1
        return dict(counts)

    @cached_property
    def levels(self) -> dict[int, int] | None:
        """Unit-delay logic level per class (None when cyclic).
        Delegates to the shared timing-engine propagation — the same
        implementation behind ``netstats.logic_levels`` and the STA
        unit model."""
        from ..timing.graph import propagate_levels

        order = self.topo_order
        if order is None:
            return None
        return propagate_levels(order, self.deps)

    # -- convenience ---------------------------------------------------------

    def multi_driver_classes(self) -> list[int]:
        """Classes with two or more (deduplicated) explicit drivers --
        the driver-exclusivity prover's work list."""
        return [i for i, drvs in enumerate(self.drivers_of) if len(drvs) >= 2]

    def span_of(self, ci: int) -> Span:
        return self.spans[ci]
