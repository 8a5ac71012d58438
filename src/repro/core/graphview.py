"""One canonical view of an elaborated netlist, derived once per compile.

The static checks, lint, timing and netstats all ask the same questions
of the semantics graph: which ``==`` alias class a net belongs to, what
each class combinationally depends on, and which deduplicated drivers
feed it.  :class:`GraphView` answers each once:

* ``canon`` -- net id -> canonical (alias-class root) net id, from one
  ``Netlist.find`` per net; the identity when the netlist has no ``==``
  merges;
* ``deps`` -- the dependency graph (:func:`dependency_graph`), built
  once and shared by acyclicity, SEQUENTIAL and the lint passes;
* ``unique_conns`` / ``unique_const_conns`` -- the deduplicated drivers
  (``Netlist.unique_conns`` semantics) over canonical ids;
* per-class metadata (members, display name, span) computed on demand,
  only for the classes a check reports.

The write-only rule lives here too (:func:`write_only`): the checker
emits it as warnings and ``zeusc lint`` as ZL030.
"""

from __future__ import annotations

from collections import Counter, defaultdict, deque
from functools import cached_property
from itertools import chain
from typing import NamedTuple

from ..lang.errors import CheckError
from ..lang.source import NO_SPAN, Span
from .netlist import ConstConn, Conn, Net, Netlist


def dependency_graph(
    netlist: Netlist, canon: list[int] | None = None
) -> dict[int, set[int]]:
    """Combinational dependency edges over canonical net ids:
    ``deps[dst]`` is the set of canonical nets *dst* depends on.
    Gate outputs depend on gate inputs; connection targets depend on the
    source and the guard; REG introduces no edges.  *canon* is
    ``netlist.canonical_ids()`` (derived when omitted)."""
    if canon is None:
        canon = netlist.canonical_ids()
    deps: dict[int, set[int]] = defaultdict(set)
    for gate in netlist.gates:
        if gate.inputs:
            deps[canon[gate.output.id]].update(canon[i.id] for i in gate.inputs)
    for conn in netlist.conns:
        srcs = deps[canon[conn.dst.id]]
        srcs.add(canon[conn.src.id])
        if conn.cond is not None:
            srcs.add(canon[conn.cond.id])
    for cc in netlist.const_conns:
        if cc.cond is not None:
            deps[canon[cc.dst.id]].add(canon[cc.cond.id])
    return deps


def topological_order(netlist: Netlist, view: GraphView | None = None) -> list[int]:
    """Kahn topological order of canonical net ids; raises
    :class:`CheckError` naming a cycle if one exists."""
    view = view or GraphView(netlist)
    deps = view.deps
    canon_ids = set(view.canon)
    indegree = {nid: 0 for nid in canon_ids}
    fanout: dict[int, list[int]] = defaultdict(list)
    for dst, srcs in deps.items():
        for src in srcs:
            fanout[src].append(dst)
            indegree[dst] += 1
    queue = deque(nid for nid, deg in indegree.items() if deg == 0)
    order: list[int] = []
    while queue:
        nid = queue.popleft()
        order.append(nid)
        for nxt in fanout[nid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                queue.append(nxt)
    if len(order) != len(canon_ids):
        cycle = _find_cycle(deps, {nid for nid, d in indegree.items() if d > 0})
        names = " -> ".join(netlist.nets[nid].name for nid in cycle)
        raise CheckError(
            f"combinational feedback loop (not through a register): {names}"
        )
    return order


def _find_cycle(deps: dict[int, set[int]], remaining: set[int]) -> list[int]:
    start = next(iter(remaining))
    path: list[int] = []
    seen: dict[int, int] = {}
    node = start
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        nxt = [d for d in deps.get(node, ()) if d in remaining]
        if not nxt:
            # Restart from another stuck node (shouldn't happen: every
            # remaining node has a remaining predecessor).
            remaining = remaining - set(path)
            if not remaining:
                return path
            node = next(iter(remaining))
            path.clear()
            seen.clear()
            continue
        node = nxt[0]
    return path[seen[node] :] + [node]


class GraphView:
    """The canonical (``==``-merged) view of one netlist.  Every member
    is derived on first use and cached; the netlist must not change
    afterwards."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.aliased = netlist.aliased
        self.canon = netlist.canonical_ids()

    # -- graph structure ---------------------------------------------------

    @cached_property
    def deps(self) -> dict[int, set[int]]:
        return dependency_graph(self.netlist, self.canon)

    @cached_property
    def peel_order(self) -> list[int]:
        """Net ids, each before every net it depends on: Kahn's algorithm
        run backwards from the nets nothing depends on, so it needs no
        forward adjacency.  A cycle, and everything it depends on, is
        left out."""
        deps = self.deps
        users = [0] * len(self.canon)
        for nid, count in Counter(chain.from_iterable(deps.values())).items():
            users[nid] = count
        order = [nid for nid, count in enumerate(users) if not count]
        for nid in order:  # the loop also visits what it appends
            for src in deps.get(nid, ()):
                users[src] -= 1
                if not users[src]:
                    order.append(src)
        return order

    @property
    def acyclic(self) -> bool:
        """Whether ``deps`` has no cycle (every net was peeled)."""
        return len(self.peel_order) == len(self.canon)

    @cached_property
    def rank(self) -> list[int]:
        """Each net's position in ``peel_order`` (``len(canon)`` for the
        nets left out): no net depends on a net ranked before it."""
        rank = [len(self.canon)] * len(self.canon)
        for pos, nid in enumerate(self.peel_order):
            rank[nid] = pos
        return rank

    # -- drivers and readers -----------------------------------------------

    @cached_property
    def unique_conns(self) -> list[Conn]:
        return self.netlist.unique_conns(self.canon)

    @cached_property
    def unique_const_conns(self) -> list[ConstConn]:
        return self.netlist.unique_const_conns(self.canon)

    @cached_property
    def driven(self) -> set[int]:
        """Classes receiving any value: drivers, gate or REG outputs."""
        canon, nl = self.canon, self.netlist
        out = {canon[c.dst.id] for c in nl.conns}
        out.update(canon[c.dst.id] for c in nl.const_conns)
        out.update(canon[g.output.id] for g in nl.gates)
        out.update(self.reg_q)
        return out

    @cached_property
    def reads(self) -> set[int]:
        """Classes read as gate inputs, connection sources or guards,
        or register data pins (guards of constant drivers excluded;
        see ``const_guards``)."""
        canon, nl = self.canon, self.netlist
        out = {canon[i.id] for g in nl.gates for i in g.inputs}
        for c in nl.conns:
            out.add(canon[c.src.id])
            if c.cond is not None:
                out.add(canon[c.cond.id])
        out.update(canon[r.d.id] for r in nl.regs)
        return out

    @cached_property
    def const_guards(self) -> set[int]:
        """Classes read as the guard of a constant driver."""
        canon = self.canon
        return {canon[c.cond.id] for c in self.netlist.const_conns
                if c.cond is not None}

    @cached_property
    def reg_q(self) -> set[int]:
        """Classes holding a REG output."""
        canon = self.canon
        return {canon[r.q.id] for r in self.netlist.regs}

    # -- per-class metadata, on demand ---------------------------------------

    @cached_property
    def _classes(self) -> dict[int, list[Net]]:
        """Members of every class with more than one net, in id order."""
        canon = self.canon
        roots = {cid for nid, cid in enumerate(canon) if cid != nid}
        out: dict[int, list[Net]] = {cid: [] for cid in roots}
        for net in self.netlist.nets:
            members = out.get(canon[net.id])
            if members is not None:
                members.append(net)
        return out

    def members(self, cid: int) -> list[Net]:
        """The nets of class *cid*, in id order."""
        if self.merged(cid):
            return self._classes[cid]
        return [self.netlist.nets[cid]]

    def merged(self, cid: int) -> bool:
        """Whether ``==`` joined class *cid* with another net."""
        return self.aliased and cid in self._classes

    def display(self, cid: int) -> str:
        """The class's user-facing name: its smallest non-synthetic
        member name (``$``-prefixed names are elaborator helpers)."""
        members = self.members(cid)
        return min((m.name for m in members if not m.name.startswith("$")),
                   default=members[0].name)

    def span(self, cid: int) -> Span:
        """The first real source span among the class's members."""
        return next((m.span for m in self.members(cid) if m.span is not NO_SPAN),
                    NO_SPAN)


# -- the write-only rule -------------------------------------------------------

#: Roles whose nets are driven for someone outside the component.
_PORT_ROLES = frozenset({"formal_out", "pin_out", "formal_inout", "pin_inout"})


class WriteOnly(NamedTuple):
    display: str
    message: str
    span: Span


def write_only(view: GraphView) -> list[WriteOnly]:
    """Locally declared signals that are assigned but never read, one
    per ``==`` alias class in canonical-id order.  Ports are excluded
    (driving an OUT/INOUT pin *is* its purpose), and so are synthetic
    (``$``) helper nets.  The checker emits these as warnings, and
    ``zeusc lint`` as its ``write-only`` rule."""
    out = []
    unread = view.driven - view.reads - view.const_guards
    for cid in sorted(unread):
        if any(m.is_input or m.is_output or m.role in _PORT_ROLES
               for m in view.members(cid)):
            continue
        display = view.display(cid)
        if display.startswith("$"):
            continue
        what = "register output" if cid in view.reg_q else "signal"
        out.append(WriteOnly(display,
                             f"{what} {display!r} is assigned but never read",
                             view.span(cid)))
    return out
