"""The semantics graph (paper section 8), a.k.a. the elaborated netlist.

Elaboration flattens the component hierarchy into:

* :class:`Net` -- one node per basic signal (boolean or multiplex leaf);
* :class:`Gate` -- one node per predefined function component instance
  (AND, OR, NAND, NOR, XOR, EQUAL, NOT, RANDOM), producing a fresh net;
* drivers (:class:`Conn` / :class:`ConstConn`) -- the directed edges
  introduced by assignment and connection statements, optionally guarded
  by an IF-node condition net;
* :class:`Reg` -- REG instances, the only cycle breakers;
* alias merges -- the effect of ``==`` statements, realised by union-find
  over nets.

The simulator and the static checker both operate on this structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang.source import NO_SPAN, Span
from .types import BOOLEAN, MULTIPLEX
from .values import Logic


@dataclass(eq=False)
class Net:
    """One basic signal node.

    ``kind`` is BOOLEAN or MULTIPLEX.  ``is_input`` marks primary inputs
    of the top-level component (pokeable from outside); ``is_output``
    marks its OUT pins.  ``name`` is the flattened hierarchical path.

    ``role`` records what the net is from the point of view of the
    component whose statements may assign it, which is what the static
    assignment rules of section 4.7 key on:

    * ``local`` -- a locally declared signal of basic type;
    * ``formal_in`` / ``formal_out`` / ``formal_inout`` -- a pin of the
      component under elaboration, seen from inside;
    * ``pin_in`` / ``pin_out`` / ``pin_inout`` -- a pin of an
      *instantiated* sub-component, seen from outside;
    * ``gate`` -- the fresh output of a predefined gate;
    * ``reg_d`` / ``reg_q`` -- REG terminals.
    """

    id: int
    name: str
    kind: str
    span: Span = NO_SPAN
    is_input: bool = False
    is_output: bool = False
    role: str = "local"

    def __repr__(self) -> str:
        return f"Net({self.id}, {self.name!r}, {self.kind})"


@dataclass(eq=False)
class Gate:
    """A predefined function component instance operating on single bits.

    Structured operands have already been expanded bitwise: an
    ``AND(a, b)`` over 4-bit operands becomes four 2-input AND gates.
    ``op`` is one of AND OR NAND NOR XOR EQUAL NOT RANDOM.
    """

    id: int
    op: str
    inputs: list[Net]
    output: Net
    span: Span = NO_SPAN

    def __repr__(self) -> str:
        return f"Gate({self.op}, in={[n.id for n in self.inputs]}, out={self.output.id})"


@dataclass(eq=False)
class Conn:
    """A directed edge ``src -> dst`` (an assignment), optionally guarded:
    ``IF cond THEN dst := src`` contributes src when cond=1, NOINFL when
    cond=0, UNDEF when cond is UNDEF/NOINFL (section 8 if-node rules)."""

    src: Net
    dst: Net
    cond: Net | None = None
    span: Span = NO_SPAN


@dataclass(eq=False)
class ConstConn:
    """A constant driver ``dst := value`` with optional guard."""

    value: Logic
    dst: Net
    cond: Net | None = None
    span: Span = NO_SPAN


@dataclass(eq=False)
class Reg:
    """One REG storage element: ``q`` carries the value latched from ``d``
    at the end of the previous cycle.  The REG node has no internal edges
    -- it is the cycle breaker of the semantics graph."""

    id: int
    d: Net
    q: Net
    name: str = ""
    span: Span = NO_SPAN


@dataclass
class PortInfo:
    """Interface description of the top-level component: pin name ->
    (mode, flattened nets in natural order)."""

    name: str
    mode: str  # "IN", "OUT", "INOUT"
    nets: list[Net]


class Netlist:
    """The complete elaborated design."""

    def __init__(self, name: str = "top"):
        self.name = name
        self.nets: list[Net] = []
        self.gates: list[Gate] = []
        self.conns: list[Conn] = []
        self.const_conns: list[ConstConn] = []
        self.regs: list[Reg] = []
        self.ports: list[PortInfo] = []
        #: hierarchical signal path -> flattened nets, for probing.
        self.signals: dict[str, list[Net]] = {}
        #: union-find parent pointers for == aliasing.
        self._alias_parent: dict[int, int] = {}
        self._next_gate = 0
        self._next_reg = 0

    # -- construction -------------------------------------------------------

    def new_net(
        self,
        name: str,
        kind: str,
        span: Span = NO_SPAN,
        *,
        is_input: bool = False,
        is_output: bool = False,
        role: str = "local",
    ) -> Net:
        net = Net(len(self.nets), name, kind, span, is_input, is_output, role)
        self.nets.append(net)
        return net

    def add_gate(self, op: str, inputs: list[Net], span: Span = NO_SPAN) -> Net:
        out = self.new_net(f"${op.lower()}{self._next_gate}", BOOLEAN, span, role="gate")
        gate = Gate(self._next_gate, op, list(inputs), out, span)
        self._next_gate += 1
        self.gates.append(gate)
        return out

    def add_conn(
        self, src: Net, dst: Net, cond: Net | None = None, span: Span = NO_SPAN
    ) -> None:
        self.conns.append(Conn(src, dst, cond, span))

    def add_const(
        self, value: Logic, dst: Net, cond: Net | None = None, span: Span = NO_SPAN
    ) -> None:
        self.const_conns.append(ConstConn(value, dst, cond, span))

    def add_reg(self, d: Net, q: Net, name: str = "", span: Span = NO_SPAN) -> Reg:
        reg = Reg(self._next_reg, d, q, name, span)
        self._next_reg += 1
        self.regs.append(reg)
        return reg

    def extend(
        self,
        nets: list[Net],
        gates: list[Gate],
        conns: list[Conn],
        const_conns: list[ConstConn],
        regs: list[Reg],
    ) -> None:
        """Append elements built elsewhere whose ids continue this
        netlist's (the elaborator's stamped instance copies)."""
        assert not nets or nets[0].id == len(self.nets)
        self.nets.extend(nets)
        self.gates.extend(gates)
        self._next_gate += len(gates)
        self.conns.extend(conns)
        self.const_conns.extend(const_conns)
        self.regs.extend(regs)
        self._next_reg += len(regs)

    def register_signal(self, path: str, nets: list[Net]) -> None:
        self.signals[path] = nets

    # -- aliasing (union-find) ----------------------------------------------

    def alias(self, a: Net, b: Net) -> None:
        """Merge the alias classes of nets *a* and *b* (the == operator)."""
        ra, rb = self.find(a), self.find(b)
        if ra is not rb:
            self._alias_parent[rb.id] = ra.id

    def find(self, net: Net) -> Net:
        """Canonical representative of *net*'s alias class."""
        nid = net.id
        root = nid
        while root in self._alias_parent:
            root = self._alias_parent[root]
        # Path compression.
        while nid != root:
            nxt = self._alias_parent[nid]
            self._alias_parent[nid] = root
            nid = nxt
        return self.nets[root]

    @property
    def aliased(self) -> bool:
        """Whether any ``==`` merge joined two nets (otherwise every net
        is its own canonical representative)."""
        return bool(self._alias_parent)

    def alias_class(self, net: Net) -> list[Net]:
        """All nets aliased with *net* (including itself)."""
        root = self.find(net)
        return [n for n in self.nets if self.find(n) is root]

    def canonical_ids(self) -> list[int]:
        """Net id -> the id of its alias class's canonical net: one
        :meth:`find` per net, the identity when nothing is aliased."""
        if not self._alias_parent:
            return list(range(len(self.nets)))
        find = self.find
        return [find(n).id for n in self.nets]

    def unique_conns(self, canon: list[int] | None = None) -> list[Conn]:
        """Connections deduplicated over alias-canonical (src, dst, cond).

        The paper allows repeating a connection "as long as it is
        identical" (section 4.3) -- its own fulladder example wires
        ``h2.a`` twice -- so identical edges count as one driver.
        *canon* is :meth:`canonical_ids`, when the caller has it.  The
        key packs the three ids into one int, so no tuple is allocated.
        """
        canon = self.canonical_ids() if canon is None else canon
        m = len(canon) + 1
        seen: set[int] = set()
        out: list[Conn] = []
        for c in self.conns:
            cond = c.cond
            key = ((canon[c.src.id] * m + canon[c.dst.id]) * m
                   + (0 if cond is None else canon[cond.id] + 1))
            if key not in seen:
                seen.add(key)
                out.append(c)
        return out

    def unique_const_conns(self, canon: list[int] | None = None) -> list[ConstConn]:
        """Constant drivers deduplicated over (value, dst, cond) like
        :meth:`unique_conns`."""
        canon = self.canonical_ids() if canon is None else canon
        m = len(canon) + 1
        seen: set[int] = set()
        out: list[ConstConn] = []
        for c in self.const_conns:
            cond = c.cond
            key = ((canon[c.dst.id] * m + (0 if cond is None else canon[cond.id] + 1))
                   * len(Logic) + c.value)
            if key not in seen:
                seen.add(key)
                out.append(c)
        return out

    # -- queries -------------------------------------------------------------

    @property
    def input_nets(self) -> list[Net]:
        return [n for n in self.nets if n.is_input]

    @property
    def output_nets(self) -> list[Net]:
        return [n for n in self.nets if n.is_output]

    def port(self, name: str) -> PortInfo:
        for p in self.ports:
            if p.name == name:
                return p
        raise KeyError(f"no port {name!r} in {self.name}")

    def stats(self) -> dict[str, int]:
        """Size statistics, used by the benchmarks and the CLI."""
        return {
            "nets": len(self.nets),
            "gates": len(self.gates),
            "connections": len(self.conns) + len(self.const_conns),
            "registers": len(self.regs),
            "alias_merges": len(self._alias_parent),
        }

    def describe(self) -> str:
        s = self.stats()
        return (
            f"netlist {self.name}: {s['nets']} nets, {s['gates']} gates, "
            f"{s['connections']} connections, {s['registers']} registers"
        )
