"""Elaboration: from the Zeus AST to the semantics graph (sections 4, 8).

Elaboration runs the compile-time meta program -- constant expressions,
FOR replication, WHEN conditional generation, parameterized and recursive
types -- and flattens the component hierarchy into a
:class:`~repro.core.netlist.Netlist`:

* every basic local signal becomes a :class:`~repro.core.netlist.Net`;
* every predefined function component instance becomes a ``Gate``;
* ``:=`` assignments and connection statements become (possibly guarded)
  ``Conn`` edges; IF statements contribute the guards, rewritten exactly
  as in section 8 (``ELSIF``/``ELSE`` become AND/NOT chains);
* ``==`` aliasing merges nets via union-find;
* ``REG`` instances become cycle-breaking ``Reg`` elements;
* ``x[NUM(a)]`` decodes into EQUAL-guarded read muxes / write enables.

Component instances are **lazy**: a declared signal of a component type
with a body materialises only when first referenced -- the termination
mechanism of the paper's recursive htree/routing-network declarations.
They are also **memoized**: a component type is a pure function of its
constant arguments, so each distinct instance is elaborated once per
compile and its repeats are stamped from that first elaboration (see
:meth:`Elaborator.instantiate_component`).

The elaborator also enforces the *directional* static rules (who may
assign what); the counting rules of section 4.7 (single unconditional
assignment etc.) live in :mod:`repro.core.checker`, which sees the whole
graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import islice
from typing import Any, Union

from ..lang import ast
from ..lang.errors import DiagnosticSink, ElaborationError, TypeError_
from ..lang.source import NO_SPAN, SourceText, Span
from .consteval import (
    ConstTree,
    const_leaves,
    eval_condition,
    eval_const,
    eval_int,
    is_signal_const,
)
from .netlist import Conn, ConstConn, Gate, Net, Netlist, Reg
from .sigtree import (
    ArrayTree,
    BitTree,
    CompTree,
    ConcatTree,
    LazyTree,
    SigTree,
    VirtualTree,
    force,
)
from .symbols import ConstBinding, Env, LoopVar, SignalBinding, TypeBinding
from .types import (
    BOOLEAN,
    BOOLEAN_T,
    MULTIPLEX,
    MULTIPLEX_T,
    VIRTUAL,
    ArrayV,
    BasicV,
    ComponentV,
    ParamV,
    TypeV,
)
from .values import Logic

#: Predefined bitwise gates and their arity constraints.
GATE_OPS = frozenset(["AND", "OR", "NAND", "NOR", "XOR", "NOT", "EQUAL", "RANDOM"])

_MAX_DEPTH = 150

#: Failed template tries after which an instance key is elaborated in
#: full every time.
_MEMO_TRIES = 8


class StarFill:
    """A ``*`` of flexible (None) or fixed width inside a flattened
    expression; expanded when the expected width is known."""

    def __init__(self, width: int | None = None):
        self.width = width


#: A single flattened source bit: a net, a constant, or a star.
STAR = object()
Src = Union[Net, Logic, object]


class Flattened:
    """A flattened expression: sources plus flexible stars."""

    def __init__(self, items: list[Any]):
        self.items = items  # Src or StarFill

    @property
    def min_width(self) -> int:
        return sum(
            (it.width or 0) if isinstance(it, StarFill) else 1 for it in self.items
        )

    @property
    def flexible(self) -> bool:
        return any(isinstance(it, StarFill) and it.width is None for it in self.items)

    def fit(self, want: int, span: Span) -> list[Src]:
        """Expand to exactly *want* sources, stretching one flexible star."""
        flex = [it for it in self.items if isinstance(it, StarFill) and it.width is None]
        if len(flex) > 1:
            raise ElaborationError(
                "at most one width-less '*' per expression position", span
            )
        fixed = self.min_width
        out: list[Src] = []
        for it in self.items:
            if isinstance(it, StarFill):
                n = it.width if it.width is not None else want - fixed
                if n < 0:
                    raise ElaborationError(
                        f"expression is wider ({fixed}) than expected ({want})", span
                    )
                out.extend([STAR] * n)
            else:
                out.append(it)
        if len(out) != want:
            raise ElaborationError(
                f"expression width {len(out)} does not match expected width {want}",
                span,
            )
        return out

    def strict(self, span: Span, what: str = "expression") -> list[Src]:
        """Expand with no stars allowed (e.g. gate operands)."""
        if any(isinstance(it, StarFill) for it in self.items):
            raise ElaborationError(f"'*' is not allowed in {what}", span)
        return list(self.items)


@dataclass
class Ctx:
    """Per-component elaboration context."""

    env: Env
    path: str
    guard: Net | None = None
    #: net id -> Mode for the pins of the component whose body is being
    #: elaborated (the *inner* view used by the formal-parameter rules).
    boundary: dict[int, ast.Mode] = dc_field(default_factory=dict)
    #: RESULT target nets when elaborating a function component body.
    result_sink: list[Net] | None = None

    def with_guard(self, guard: Net | None) -> "Ctx":
        return Ctx(self.env, self.path, guard, self.boundary, self.result_sink)

    def with_env(self, env: Env) -> "Ctx":
        return Ctx(env, self.path, self.guard, self.boundary, self.result_sink)


@dataclass
class Design:
    """The result of elaboration: the semantics graph plus everything the
    checker, simulator and layout engine need."""

    name: str
    netlist: Netlist
    top: CompTree
    top_type: ComponentV
    instances: list[CompTree]
    seq_constraints: list[tuple[list[Net], list[Net]]]
    sink: DiagnosticSink
    program: ast.Program
    source: SourceText | None = None
    #: pin-net id -> owning instance (for the unused-port check).
    pin_owner: dict[int, CompTree] = dc_field(default_factory=dict)

    def port_nets(self, pin: str) -> list[Net]:
        return [self.netlist.find(n) for n in self.netlist.port(pin).nets]


def build_pervasive_env() -> Env:
    """The standard environment (pervasive predefined objects)."""
    env = Env()
    env.pervasive = env
    for basic in (BOOLEAN, MULTIPLEX, VIRTUAL):
        env.bind(basic, TypeBinding(basic, builtin="basic"))
    env.bind("REG", TypeBinding("REG", builtin="REG"))
    for gate in GATE_OPS:
        env.bind(gate, TypeBinding(gate, builtin="gate"))
    env.bind("UNDEF", ConstBinding(Logic.UNDEF))
    env.bind("NOINFL", ConstBinding(Logic.NOINFL))
    return env


@dataclass
class _Marks:
    """Lengths of every list and table elaboration appends to, plus the
    counters any change of which makes an instance unfit to be a
    template.  Taken when an instance's recording starts and ends."""

    nets: int
    gates: int
    conns: int
    consts: int
    regs: int
    aliases: int
    instances: int
    seq: int
    signals: int
    pin_owner: int
    not_cache: int
    and_cache: int
    diagnostics: int
    fn_counter: int
    shared: int
    depth: int


@dataclass
class _Template:
    """The first elaboration of an instance key: the ranges it appended
    to the live netlist and tables (between *start* and *end*), the keys
    it added to the ordered dicts, and snapshots of what outside code may
    still change on the instance and its nested instance pins."""

    root: CompTree
    start: _Marks
    end: _Marks
    #: Deepest nesting below the instance.
    height: int
    #: Failed tries of this key so far (a stamp that fails adds one).
    tries: int
    signals: list[str]
    pin_owner: list[int]
    not_cache: list[tuple[int, Net]]
    and_cache: list[tuple[Any, Net]]
    touched: dict[CompTree, frozenset[int]]
    signatures: dict[CompTree, list[tuple]]


class _NotStampable(Exception):
    """A template refers to something a copy cannot take over."""


class Elaborator:
    """Elaborates one program.  Use :func:`elaborate` for the public API."""

    #: Stamp repeated instances from a template.  Only the memo-on vs
    #: memo-off comparison (``repro.analysis.fuzzgen.memo_check``) and
    #: tests switch it off.
    _memoize = True

    def __init__(
        self,
        program: ast.Program,
        source: SourceText | None = None,
        name: str = "top",
    ):
        self.program = program
        self.source = source
        self.netlist = Netlist(name)
        self.sink = DiagnosticSink(source=source)
        self.pervasive = build_pervasive_env()
        self.global_env = Env(parent=self.pervasive, pervasive=self.pervasive)
        #: pin-net id -> owning instance, for the unused-port rule.
        self.pin_owner: dict[int, CompTree] = {}
        self.instances: list[CompTree] = []
        self.seq_constraints: list[tuple[list[Net], list[Net]]] = []
        self._const_nets: dict[Logic, Net] = {}
        self._not_cache: dict[int, Net] = {}
        self._and_cache: dict[tuple[int, int], Net] = {}
        self._special_nets: dict[str, Net] = {}
        self._conn_signatures: dict[int, list[tuple]] = {}
        self._depth = 0
        self._fn_counter = 0
        #: When not None, nets assigned by directly elaborated statements
        #: are appended here (SEQUENTIAL consistency bookkeeping); forced
        #: instance bodies suspend it.
        self._target_log: list[Net] | None = None
        #: Every ``==`` merge as a net-id pair, in order (stamps replay it).
        self._aliases: list[tuple[int, int]] = []
        #: Ids of the nets every instance sees alike: CLK, RSET, the
        #: constants, and the cached gates over only such nets.
        self._shared: set[int] = set()
        #: Instance key -> its template, or the number of failed tries
        #: while it has none.
        self._memo: dict[tuple, _Template | int] = {}
        #: The deepest instance nesting reached (for template heights).
        self._peak = 0
        #: Instance trees made by stamping, for the ``elaborate`` span.
        self.stamped = 0

    # ------------------------------------------------------------------
    # program level
    # ------------------------------------------------------------------

    def run(self, top: str | None = None) -> Design:
        import sys

        # Deep legal recursion (htree, routing networks) uses many Python
        # frames per Zeus level; raise the interpreter limit so our own
        # _MAX_DEPTH guard fires first with a proper diagnostic.
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 40000))
        try:
            return self._run(top)
        finally:
            sys.setrecursionlimit(old_limit)

    def _run(self, top: str | None = None) -> Design:
        top_ctx = Ctx(self.global_env, "")
        for decl in self.program.decls:
            self.elaborate_decl(decl, top_ctx)
        name, tree = self._pick_top(top)
        tree = force(tree)
        if not isinstance(tree, CompTree) or not tree.is_instance:
            raise ElaborationError(
                f"top signal {name!r} is not an instantiated component with a body"
            )
        self._mark_top_ports(tree)
        # The templates index nets that now exist for good; a lazy signal
        # the layout engine forces later starts a fresh memo.
        self._memo.clear()
        self._aliases.clear()
        return Design(
            name=name,
            netlist=self.netlist,
            top=tree,
            top_type=tree.type,  # type: ignore[arg-type]
            instances=self.instances,
            seq_constraints=self.seq_constraints,
            sink=self.sink,
            program=self.program,
            source=self.source,
            pin_owner=self.pin_owner,
        )

    def _pick_top(self, top: str | None) -> tuple[str, SigTree]:
        candidates: list[tuple[str, SigTree]] = []
        for decl in self.program.signals():
            for nm in decl.names:
                binding = self.global_env.lookup(nm, decl.span)
                if isinstance(binding, SignalBinding):
                    tree = binding.tree
                    t = tree.type
                    if isinstance(t, ComponentV) and t.has_body:
                        candidates.append((nm, tree))
        if top is not None:
            for nm, tree in candidates:
                if nm == top:
                    return nm, tree
            raise ElaborationError(
                f"no top-level component signal named {top!r} "
                f"(candidates: {', '.join(nm for nm, _ in candidates) or 'none'})"
            )
        if not candidates:
            raise ElaborationError(
                "program declares no top-level signal of a component type with a body"
            )
        return candidates[-1]

    def _mark_top_ports(self, tree: CompTree) -> None:
        from .netlist import PortInfo

        assert isinstance(tree.type, ComponentV)
        for param in tree.type.params:
            pin_tree = force(tree.fields[param.name])
            nets = pin_tree.leaves()
            modes = [leaf.mode for leaf in param.type.leaves(mode=param.mode)]
            for net, mode in zip(nets, modes):
                if mode is ast.Mode.IN:
                    net.is_input = True
                elif mode is ast.Mode.OUT:
                    net.is_output = True
                else:
                    net.is_input = True
                    net.is_output = True
            self.netlist.ports.append(
                PortInfo(param.name, param.mode.value, nets)
            )

    # ------------------------------------------------------------------
    # declarations
    # ------------------------------------------------------------------

    def elaborate_decl(self, decl: ast.Decl, ctx: Ctx) -> None:
        if isinstance(decl, ast.ConstDecl):
            value = eval_const(decl.value, ctx.env)
            ctx.env.bind(decl.name, ConstBinding(value), decl.span)
        elif isinstance(decl, ast.TypeDecl):
            ctx.env.bind(
                decl.name,
                TypeBinding(decl.name, decl.params, decl.type, ctx.env),
                decl.span,
            )
        elif isinstance(decl, ast.SignalDecl):
            t = self.elab_type(decl.type, ctx.env)
            for nm in decl.names:
                path = f"{ctx.path}.{nm}" if ctx.path else nm
                tree = self.make_signal(path, t, ctx, decl.span)
                ctx.env.bind(nm, SignalBinding(tree), decl.span)
        else:  # pragma: no cover - parser produces only the above
            raise ElaborationError("unknown declaration kind", decl.span)

    # ------------------------------------------------------------------
    # types
    # ------------------------------------------------------------------

    def elab_type(
        self, texpr: ast.TypeExpr, env: Env, type_name: str = "", type_args: tuple[int, ...] = ()
    ) -> TypeV:
        if isinstance(texpr, ast.NamedType):
            return self._elab_named_type(texpr, env)
        if isinstance(texpr, ast.ArrayType):
            lo = eval_int(texpr.lo, env)
            hi = eval_int(texpr.hi, env)
            if hi < lo - 1:
                raise TypeError_(f"array bounds [{lo}..{hi}] are decreasing", texpr.span)
            return ArrayV(lo, hi, self.elab_type(texpr.element, env))
        if isinstance(texpr, ast.ComponentType):
            return self._elab_component_type(texpr, env, type_name, type_args)
        raise ElaborationError("unknown type expression", texpr.span)

    def _elab_named_type(self, texpr: ast.NamedType, env: Env) -> TypeV:
        binding = env.lookup(texpr.name, texpr.span)
        if not isinstance(binding, TypeBinding):
            raise TypeError_(f"{texpr.name!r} is not a type", texpr.span)
        if binding.builtin == "basic":
            if texpr.args:
                raise TypeError_(f"type {texpr.name} takes no parameters", texpr.span)
            return BasicV(binding.name)
        if binding.builtin == "REG":
            if texpr.args:
                raise TypeError_("REG takes no parameters", texpr.span)
            return self.reg_type()
        if binding.builtin == "gate":
            raise TypeError_(
                f"predefined function component {binding.name} cannot be used "
                "as a signal type",
                texpr.span,
            )
        args = [eval_int(a, env) for a in texpr.args]
        if len(args) != len(binding.params):
            raise TypeError_(
                f"type {texpr.name} expects {len(binding.params)} parameter(s), "
                f"got {len(args)}",
                texpr.span,
            )
        assert binding.closure is not None and binding.type_ast is not None
        inner = binding.closure.child()
        inner.scope_key = (binding.closure, tuple(args))
        for p, a in zip(binding.params, args):
            inner.bind(p, ConstBinding(a))
        return self.elab_type(binding.type_ast, inner, binding.name, tuple(args))

    def reg_type(self) -> ComponentV:
        return ComponentV(
            "REG",
            (
                ParamV("in", ast.Mode.IN, BOOLEAN_T),
                ParamV("out", ast.Mode.OUT, BOOLEAN_T),
            ),
        )

    def _elab_component_type(
        self,
        texpr: ast.ComponentType,
        env: Env,
        type_name: str,
        type_args: tuple[int, ...],
    ) -> ComponentV:
        params: list[ParamV] = []
        seen: set[str] = set()
        for group in texpr.params:
            ptype = self.elab_type(group.type, env)
            for nm in group.names:
                if nm in seen:
                    raise TypeError_(f"duplicate parameter {nm!r}", group.span)
                seen.add(nm)
                params.append(ParamV(nm, group.mode, ptype))
        result = self.elab_type(texpr.result, env) if texpr.result is not None else None
        if result is not None and texpr.body is None:
            raise TypeError_("function component type requires a body", texpr.span)
        comp = ComponentV(
            type_name,
            tuple(params),
            result,
            decl_ast=texpr,
            closure=env,
            type_args=type_args,
            span=texpr.span,
        )
        self._check_param_modes(comp, texpr.span)
        return comp

    def _check_param_modes(self, comp: ComponentV, span: Span) -> None:
        """Basic-parameter mode rules of section 3.2, for instantiable
        components: unstructured IN/OUT pins must be boolean; unstructured
        INOUT pins must be multiplex."""
        if not comp.has_body and not comp.is_function:
            return  # record types are exempt (the paper's bus example)
        for p in comp.params:
            if isinstance(p.type, BasicV):
                if p.mode in (ast.Mode.IN, ast.Mode.OUT) and p.type.kind != BOOLEAN:
                    raise TypeError_(
                        f"unstructured {p.mode.value} parameter {p.name!r} must be "
                        f"boolean, not {p.type.kind}",
                        span,
                    )
                if p.mode is ast.Mode.INOUT and p.type.kind != MULTIPLEX:
                    raise TypeError_(
                        f"unstructured INOUT parameter {p.name!r} must be "
                        f"multiplex, not {p.type.kind}",
                        span,
                    )

    # ------------------------------------------------------------------
    # signals and instantiation
    # ------------------------------------------------------------------

    def make_signal(self, path: str, t: TypeV, ctx: Ctx, span: Span) -> SigTree:
        """Create a locally declared signal of elaborated type *t*."""
        if isinstance(t, BasicV):
            if t.kind == VIRTUAL:
                return VirtualTree(t, path)
            net = self.netlist.new_net(path, t.kind, span, role="local")
            self.netlist.register_signal(path, [net])
            return BitTree(t, net)
        if isinstance(t, ArrayV):
            elems = [
                self.make_signal(f"{path}[{i}]", t.element, ctx, span)
                for i in range(t.lo, t.hi + 1)
            ]
            tree = ArrayTree(t, elems)
            if not _has_unmaterialized(tree):
                self.netlist.register_signal(path, tree.leaves())
            return tree
        if isinstance(t, ComponentV):
            if t.is_function:
                raise TypeError_(
                    "function component types cannot be used in signal "
                    f"declarations ({path})",
                    span,
                )
            if t.has_body or (t.name == "REG" and t.decl_ast is None):
                return self._lazy(t, path, span)
            # Record type: a bundle of wires, all role "local".
            return self._make_record_wires(path, t, span)
        raise ElaborationError(f"cannot instantiate type {t.describe()}", span)

    def _make_record_wires(self, path: str, t: ComponentV, span: Span) -> SigTree:
        fields: dict[str, SigTree] = {}
        for p in t.params:
            sub = f"{path}.{p.name}"
            if isinstance(p.type, BasicV):
                if p.type.kind == VIRTUAL:
                    fields[p.name] = VirtualTree(p.type, sub)
                    continue
                net = self.netlist.new_net(sub, p.type.kind, span, role="local")
                self.netlist.register_signal(sub, [net])
                fields[p.name] = BitTree(p.type, net)
            elif isinstance(p.type, ArrayV):
                fields[p.name] = self._record_wire_array(sub, p.type, span)
            elif isinstance(p.type, ComponentV):
                if self._is_nested_instance_type(p.type):
                    fields[p.name] = self._lazy(p.type, sub, span)
                else:
                    fields[p.name] = self._make_record_wires(sub, p.type, span)
            else:  # pragma: no cover
                raise ElaborationError("bad record field type", span)
        return CompTree(t, fields, path)

    def _record_wire_array(self, path: str, t: ArrayV, span: Span) -> SigTree:
        elems: list[SigTree] = []
        for i in range(t.lo, t.hi + 1):
            sub = f"{path}[{i}]"
            if isinstance(t.element, BasicV):
                net = self.netlist.new_net(sub, t.element.kind, span, role="local")
                elems.append(BitTree(t.element, net))
            elif isinstance(t.element, ArrayV):
                elems.append(self._record_wire_array(sub, t.element, span))
            elif isinstance(t.element, ComponentV) and not t.element.has_body:
                elems.append(self._make_record_wires(sub, t.element, span))
            else:
                elems.append(self._lazy(t.element, sub, span))  # type: ignore[arg-type]
        nets = [n for e in elems for n in (e.leaves() if not isinstance(e, LazyTree) else [])]
        if nets:
            self.netlist.register_signal(path, nets)
        return ArrayTree(t, elems)

    def _lazy(self, t: ComponentV, path: str, span: Span) -> LazyTree:
        """A signal of component type *t* (a REG or a component with a
        body) that is instantiated when first referenced."""
        if t.name == "REG" and t.decl_ast is None:
            return LazyTree(t, lambda: self.instantiate_reg(path, span), path, span)
        return LazyTree(
            t, lambda: self.instantiate_component(t, path, span), path, span
        )

    def instantiate_reg(self, path: str, span: Span) -> CompTree:
        t = self.reg_type()
        d = self.netlist.new_net(f"{path}.in", BOOLEAN, span, role="pin_in")
        q = self.netlist.new_net(f"{path}.out", BOOLEAN, span, role="reg_q")
        self.netlist.add_reg(d, q, path, span)
        self.netlist.register_signal(f"{path}.in", [d])
        self.netlist.register_signal(f"{path}.out", [q])
        tree = CompTree(
            t,
            {"in": BitTree(BOOLEAN_T, d), "out": BitTree(BOOLEAN_T, q)},
            path,
            is_instance=True,
        )
        for net in (d, q):
            self.pin_owner[net.id] = tree
        self.instances.append(tree)
        return tree

    def instantiate_component(
        self, comp: ComponentV, path: str, span: Span = NO_SPAN
    ) -> CompTree:
        """Force one component instance: pins, local declarations, layout
        replacements, body statements (and RESULT for functions).

        A component type is a pure function of its constant arguments,
        so each distinct instance key -- the declaration, the scope it
        was declared in (with the type arguments), and the instantiation
        span -- is elaborated once; later instances with the same key are
        stamped from that first one (see :meth:`_stamp`).
        """
        self._depth += 1
        if self._depth > _MAX_DEPTH:
            raise ElaborationError(
                f"instantiation recursion exceeds depth {_MAX_DEPTH} at {path!r}; "
                "missing WHEN termination in a recursive type?",
                span,
            )
        try:
            self._peak = max(self._peak, self._depth)
            if not self._memoize:
                return self._elaborate_instance(comp, path, span)
            assert comp.closure is not None
            scope = comp.closure.scope_key or comp.closure
            key = (id(comp.decl_ast), scope, span)
            entry = self._memo.get(key, 0)
            if isinstance(entry, _Template):
                if self._depth + entry.height > _MAX_DEPTH:
                    # Too deep here: elaborate, so the depth error is the
                    # one full elaboration raises.
                    return self._elaborate_instance(comp, path, span)
                tree = self._stamp(entry, comp, path)
                if tree is not None:
                    self._peak = max(self._peak, self._depth + entry.height)
                    return tree
                entry = entry.tries + 1
            if entry >= _MEMO_TRIES:
                return self._elaborate_instance(comp, path, span)
            return self._record(key, entry, comp, path, span)
        finally:
            self._depth -= 1

    def _elaborate_instance(
        self, comp: ComponentV, path: str, span: Span
    ) -> CompTree:
        assert comp.decl_ast is not None and comp.closure is not None
        fields: dict[str, SigTree] = {}
        boundary: dict[int, ast.Mode] = {}
        tree = CompTree(comp, fields, path, is_instance=True)
        for p in comp.params:
            pin = self._make_pin_tree(f"{path}.{p.name}", p.type, p.mode, span, tree)
            fields[p.name] = pin
            if not self._is_nested_instance_type(p.type):
                for net, leaf in zip(pin.leaves(), p.type.leaves(mode=p.mode)):
                    boundary[net.id] = leaf.mode
            self.netlist.register_signal(f"{path}.{p.name}", pin.leaves())
        self.instances.append(tree)

        env = Env(parent=comp.closure, uses=comp.decl_ast.uses)
        for p in comp.params:
            env.bind(p.name, SignalBinding(fields[p.name]))
        ctx = Ctx(env, path, boundary=boundary)

        for decl in comp.decl_ast.decls:
            self.elaborate_decl(decl, ctx)

        # Layout replacements (section 6.4) must run before the body.
        self._run_layout_replacements(comp.decl_ast.layout, ctx)
        self._run_layout_replacements(comp.decl_ast.header_layout, ctx)

        if comp.is_function:
            assert comp.result is not None
            kind = (
                MULTIPLEX
                if _function_is_multiplex(comp.decl_ast.body or [])
                else BOOLEAN
            )
            sinks = [
                self.netlist.new_net(f"{path}.$result[{i}]", kind, span, role="local")
                for i in range(comp.result.width)
            ]
            ctx = Ctx(env, path, boundary=boundary, result_sink=sinks)
            self.netlist.register_signal(f"{path}.$result", sinks)

        saved_log, self._target_log = self._target_log, None
        try:
            for stmt in comp.decl_ast.body or []:
                self.elaborate_stmt(stmt, ctx)
        finally:
            self._target_log = saved_log

        tree.local_env = env
        return tree

    # ------------------------------------------------------------------
    # instance memo: record the first instance of a key, stamp the rest
    # ------------------------------------------------------------------

    def _marks(self) -> _Marks:
        nl = self.netlist
        return _Marks(
            len(nl.nets), len(nl.gates), len(nl.conns), len(nl.const_conns),
            len(nl.regs), len(self._aliases), len(self.instances),
            len(self.seq_constraints), len(nl.signals), len(self.pin_owner),
            len(self._not_cache), len(self._and_cache),
            len(self.sink.diagnostics), self._fn_counter, len(self._shared),
            self._depth,
        )

    def _record(
        self, key: tuple, tries: int, comp: ComponentV, path: str, span: Span
    ) -> CompTree:
        """Elaborate one instance in full and keep it as the template of
        *key* if it is fit to be copied (else count a failed try)."""
        start = self._marks()
        outer_peak, self._peak = self._peak, self._depth
        try:
            tree = self._elaborate_instance(comp, path, span)
        finally:
            height = self._peak - start.depth
            self._peak = max(outer_peak, self._peak)
        end = self._marks()
        fit = (
            end.diagnostics == start.diagnostics
            and end.fn_counter == start.fn_counter
            and end.shared == start.shared
        )
        if fit:
            self._memo[key] = self._template(tree, start, end, height, tries)
        else:
            self._memo[key] = tries + 1
        return tree

    def _alias(self, a: Net, b: Net) -> None:
        self._aliases.append((a.id, b.id))
        self.netlist.alias(a, b)

    def _template(
        self, root: CompTree, start: _Marks, end: _Marks, height: int,
        tries: int,
    ) -> _Template:
        # Only the instance and its nested instance pins can be touched
        # or connected from outside later; the rest is final already.
        exposed = _pin_instances(root)
        return _Template(
            root, start, end, height, tries,
            signals=_tail(self.netlist.signals, end.signals - start.signals),
            pin_owner=_tail(self.pin_owner, end.pin_owner - start.pin_owner),
            not_cache=_tail(
                self._not_cache.items(), end.not_cache - start.not_cache
            ),
            and_cache=_tail(
                self._and_cache.items(), end.and_cache - start.and_cache
            ),
            touched={t: frozenset(t.touched) for t in exposed},
            signatures={
                t: list(self._conn_signatures.get(id(t), ())) for t in exposed
            },
        )

    def _stamp(
        self, t: _Template, comp: ComponentV, path: str
    ) -> CompTree | None:
        """Copy template *t* to a new instance of *comp* at *path*.

        Net ids inside the template's range move by the offset; ids below
        it must be shared nets and stay.  Names take the new path prefix;
        gate outputs are renamed after their new gate id and ``$nummux``
        nets after their new net id.  Everything is built before anything
        is appended, so a template that refers to something a copy
        cannot take over leaves no trace: the result is then None.
        """
        try:
            return self._copy(t, comp, path)
        except _NotStampable:
            return None

    def _copy(self, t: _Template, comp: ComponentV, path: str) -> CompTree:
        nl = self.netlist
        a, b = t.start, t.end
        lo, hi = a.nets, b.nets
        old = t.root.path
        cut = len(old)
        prefix = old + "."
        noff = len(nl.nets) - lo
        goff = len(nl.gates) - a.gates
        roff = len(nl.regs) - a.regs
        shared = self._shared

        def rename(name: str) -> str:
            if name.startswith(prefix):
                return path + name[cut:]
            if name == old:
                return path
            raise _NotStampable(name)

        def nid(i: int) -> int:
            if lo <= i < hi:
                return i + noff
            if i in shared:
                return i
            raise _NotStampable(i)

        nets: list[Net] = []
        for n in nl.nets[lo:hi]:
            name = n.name
            if name.startswith(prefix):
                name = path + name[cut:]
            elif name.startswith("$nummux"):
                name = f"$nummux{n.id + noff}"
            elif n.role != "gate":  # gate outputs are renamed below
                raise _NotStampable(name)
            nets.append(
                Net(n.id + noff, name, n.kind, n.span, n.is_input, n.is_output, n.role)
            )

        def net(n: Net) -> Net:
            i = n.id
            if lo <= i < hi:
                return nets[i - lo]
            if i in shared:
                return n
            raise _NotStampable(n.name)

        gates: list[Gate] = []
        for g in nl.gates[a.gates:b.gates]:
            out = net(g.output)
            out.name = f"${g.op.lower()}{g.id + goff}"
            inputs = [net(x) for x in g.inputs]
            gates.append(Gate(g.id + goff, g.op, inputs, out, g.span))
        conns = [
            Conn(net(c.src), net(c.dst), None if c.cond is None else net(c.cond), c.span)
            for c in nl.conns[a.conns:b.conns]
        ]
        consts = [
            ConstConn(c.value, net(c.dst), None if c.cond is None else net(c.cond),
                      c.span)
            for c in nl.const_conns[a.consts:b.consts]
        ]
        regs = [
            Reg(r.id + roff, net(r.d), net(r.q), rename(r.name), r.span)
            for r in nl.regs[a.regs:b.regs]
        ]
        aliases = self._aliases[a.aliases:b.aliases]
        if any(not (lo <= x < hi and lo <= y < hi) for x, y in aliases):
            raise _NotStampable("alias")

        # The signal trees and scopes.  A tree is shared only as a
        # component tree or a component's field (a pin is also bound in
        # the instance's scope), so only those are memoized.  Scopes made
        # by the template's instances are copied; the scopes they were
        # declared in are kept.  The maps are keyed by the objects
        # themselves (identity hashing).
        tail = self.instances[a.instances:b.instances]
        local = {x.local_env for x in tail if x.local_env is not None}
        tmap: dict[SigTree, SigTree] = {}
        emap: dict[Env, Env] = {t.root.type.closure: comp.closure}

        def env(e: Env) -> Env:
            r = emap.get(e)
            if r is None:
                parent = env(e.parent) if e.parent is not None else None
                if e in local or parent is not e.parent:
                    r = emap[e] = Env(parent, e.uses, e.pervasive)
                    bindings = r.bindings
                    for k, v in e.bindings.items():
                        if type(v) is SignalBinding:
                            v = SignalBinding(tree(v.tree))
                        elif type(v) is TypeBinding and v.closure is not None:
                            closure = env(v.closure)
                            if closure is not v.closure:
                                v = TypeBinding(
                                    v.name, v.params, v.type_ast, closure, v.builtin
                                )
                        bindings[k] = v
                else:
                    r = emap[e] = e
            return r

        def tree(x: SigTree) -> SigTree:
            r = tmap.get(x)
            if r is not None:
                return r
            cls = type(x)
            if cls is BitTree:
                i = x.net.id
                r = BitTree(x.type, nets[i - lo] if lo <= i < hi else net(x.net))
            elif cls is ArrayTree:
                r = ArrayTree(x.type, [tree(e) for e in x.elems])
            elif cls is CompTree:
                r = tmap[x] = CompTree(
                    x.type, {}, rename(x.path), is_instance=x.is_instance
                )
                for k, v in x.fields.items():
                    r.fields[k] = tmap[v] = tree(v)
                if x.local_env is not None:
                    r.local_env = env(x.local_env)
            elif cls is LazyTree:
                if x.is_forced:
                    forced = tree(x.force())
                    r = LazyTree(x.type, lambda: forced, rename(x.path), x.span)
                    r.force()
                else:
                    closure = x.type.closure
                    if closure is not None and env(closure) is not closure \
                            and closure is not t.root.type.closure:
                        # Its type was declared inside the template, whose
                        # scope forcing the copy would elaborate in.
                        raise _NotStampable(x.path)
                    r = self._lazy(x.type, rename(x.path), x.span)
            elif cls is VirtualTree:
                r = VirtualTree(x.type, rename(x.path))
                if x.replaced is not None:
                    r.replaced = tree(x.replaced)
            else:
                raise _NotStampable(cls.__name__)
            return r

        copies = [tree(x) for x in tail]
        root = tmap[t.root]
        assert isinstance(root, CompTree)
        root.type = comp
        for x, r in zip(tail, copies):
            # An instance's touched pins are its own, inside the range.
            # (Ids are taken from the new nets, so no int is duplicated.)
            touched = t.touched.get(x, x.touched)
            r.touched = {nets[i - lo].id for i in touched}
        # Only these can be connected again, from outside.
        for x, sigs in t.signatures.items():
            if sigs:
                self._conn_signatures[id(tmap[x])] = [
                    _moved_signature(s, nid) for s in sigs
                ]

        signals = nl.signals
        keys = [rename(key) for key in t.signals]  # new paths: fresh keys
        values = [
            [nets[i - lo] if lo <= (i := n.id) < hi else net(n) for n in signals[key]]
            for key in t.signals
        ]
        owner_ids = [nets[i - lo].id for i in t.pin_owner]
        owners = [tree(self.pin_owner[i]) for i in t.pin_owner]
        seq = [
            ([net(n) for n in first], [net(n) for n in then])
            for first, then in self.seq_constraints[a.seq:b.seq]
        ]
        not_cache = [(nid(k), net(v)) for k, v in t.not_cache]
        and_cache = [
            ((tuple(map(nid, k[0])), k[1]) if isinstance(k[0], tuple)
             else (nid(k[0]), nid(k[1])), net(v))
            for k, v in t.and_cache
        ]

        # Commit.
        nl.extend(nets, gates, conns, consts, regs)
        for x, y in aliases:
            self._alias(nl.nets[x + noff], nl.nets[y + noff])
        signals.update(zip(keys, values))
        self.pin_owner.update(zip(owner_ids, owners))
        self.instances.extend(copies)
        self.seq_constraints.extend(seq)
        self._not_cache.update(not_cache)
        self._and_cache.update(and_cache)
        self.stamped += len(copies)
        return root

    def _is_nested_instance_type(self, t: TypeV) -> bool:
        return isinstance(t, ComponentV) and (
            t.has_body or (t.name == "REG" and t.decl_ast is None)
        )

    def _make_pin_tree(
        self, path: str, t: TypeV, mode: ast.Mode, span: Span, owner: CompTree
    ) -> SigTree:
        if isinstance(t, BasicV):
            if t.kind == VIRTUAL:
                raise TypeError_(f"pin {path} cannot be of type virtual", span)
            role = {
                ast.Mode.IN: "pin_in",
                ast.Mode.OUT: "pin_out",
                ast.Mode.INOUT: "pin_inout",
            }[mode]
            net = self.netlist.new_net(path, t.kind, span, role=role)
            self.pin_owner[net.id] = owner
            return BitTree(t, net)
        if isinstance(t, ArrayV):
            elems = [
                self._make_pin_tree(f"{path}[{i}]", t.element, mode, span, owner)
                for i in range(t.lo, t.hi + 1)
            ]
            tree = ArrayTree(t, elems)
            for i, e in zip(range(t.lo, t.hi + 1), elems):
                self.netlist.register_signal(f"{path}[{i}]", e.leaves())
            return tree
        if isinstance(t, ComponentV):
            if self._is_nested_instance_type(t):
                # A component-typed parameter with a body is a nested
                # sub-instance (the pattern-matcher's comparator/acc pins).
                if t.name == "REG" and t.decl_ast is None:
                    return self.instantiate_reg(path, span)
                return self.instantiate_component(t, path, span)
            if t.is_function:
                raise TypeError_(f"pin {path} cannot have a function type", span)
            fields = {}
            for p in t.params:
                inner = p.mode if p.mode is not ast.Mode.INOUT else mode
                sub = self._make_pin_tree(
                    f"{path}.{p.name}", p.type, inner, span, owner
                )
                fields[p.name] = sub
                self.netlist.register_signal(f"{path}.{p.name}", sub.leaves())
            return CompTree(t, fields, path)
        raise ElaborationError(f"bad pin type {t.describe()}", span)

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------

    def elaborate_stmt(self, stmt: ast.Stmt, ctx: Ctx) -> None:
        if isinstance(stmt, ast.Assign):
            self._stmt_assign(stmt, ctx)
        elif isinstance(stmt, ast.Connection):
            self._stmt_connection(stmt, ctx)
        elif isinstance(stmt, ast.If):
            self._stmt_if(stmt, ctx)
        elif isinstance(stmt, ast.For):
            self._stmt_for(stmt, ctx)
        elif isinstance(stmt, ast.WhenGen):
            self._stmt_when(stmt, ctx)
        elif isinstance(stmt, ast.Sequential):
            self._stmt_sequential(stmt, ctx)
        elif isinstance(stmt, ast.Parallel):
            for s in stmt.body:
                self.elaborate_stmt(s, ctx)
        elif isinstance(stmt, ast.With):
            self._stmt_with(stmt, ctx)
        elif isinstance(stmt, ast.Result):
            self._stmt_result(stmt, ctx)
        elif isinstance(stmt, ast.EmptyStmt):
            pass
        else:  # pragma: no cover
            raise ElaborationError("unknown statement kind", stmt.span)

    def _stmt_assign(self, stmt: ast.Assign, ctx: Ctx) -> None:
        if stmt.op == "==":
            self._stmt_alias(stmt, ctx)
            return
        if isinstance(stmt.target, ast.Star):
            # ``* := e``: the expression is evaluated (its uses count) and
            # discarded.
            self.flatten_expr(stmt.value, ctx)
            return
        targets = self.resolve_write(stmt.target, ctx)
        flat = self.flatten_expr(stmt.value, ctx)
        sources = flat.fit(len(targets), stmt.span)
        for bit_targets, src in zip(targets, sources):
            if src is STAR:
                continue
            for net, extra_guard in bit_targets:
                guard = self.and_guard(ctx.guard, extra_guard, stmt.span)
                self._drive(net, src, guard, stmt.span, ctx)

    def _drive(
        self, dst: Net, src: Src, guard: Net | None, span: Span, ctx: Ctx
    ) -> None:
        self._check_writable(dst, ctx, span)
        if isinstance(src, Logic):
            self.netlist.add_const(src, dst, guard, span)
        elif isinstance(src, Net):
            self.netlist.add_conn(src, dst, guard, span)
        else:  # pragma: no cover
            raise ElaborationError("cannot drive from '*'", span)
        if self._target_log is not None:
            self._target_log.append(dst)

    def _check_writable(self, net: Net, ctx: Ctx, span: Span) -> None:
        mode = ctx.boundary.get(net.id)
        if mode is ast.Mode.IN:
            raise TypeError_(
                f"assignment to formal IN parameter {net.name!r}", span
            )
        if mode is not None:
            return  # formal OUT / INOUT: assignable from inside
        if net.role == "pin_out":
            raise TypeError_(
                f"assignment to OUT parameter {net.name!r} of an "
                "instantiated component",
                span,
            )
        if net.role == "reg_q":
            raise TypeError_(f"assignment to register output {net.name!r}", span)
        if net.role == "gate":  # pragma: no cover - unreachable by parsing
            raise TypeError_(f"assignment to gate output {net.name!r}", span)

    def _stmt_alias(self, stmt: ast.Assign, ctx: Ctx) -> None:
        if ctx.guard is not None:
            raise TypeError_(
                "aliasing (==) must not occur within a conditional statement",
                stmt.span,
            )
        lhs_star = isinstance(stmt.target, ast.Star)
        rhs_star = isinstance(stmt.value, ast.Star)
        if lhs_star and rhs_star:
            return
        if lhs_star or rhs_star:
            # ``x == *``: an empty (closing) alias; just record the use.
            expr = stmt.value if lhs_star else stmt.target
            self.flatten_expr(expr, ctx)
            return
        left = self._alias_side(stmt.target, ctx, stmt.span)
        right = self._alias_side(stmt.value, ctx, stmt.span)
        if len(left) != len(right):
            raise TypeError_(
                f"aliased signals have different widths "
                f"({len(left)} vs {len(right)})",
                stmt.span,
            )
        for a, b in zip(left, right):
            self._check_alias_pair(a, b, ctx, stmt.span)
            self._alias(a, b)

    def _alias_side(self, expr: ast.Expr, ctx: Ctx, span: Span) -> list[Net]:
        flat = self.flatten_expr(expr, ctx)
        nets: list[Net] = []
        for item in flat.strict(span, "an aliasing statement"):
            if not isinstance(item, Net):
                raise TypeError_("only signals can be aliased with ==", span)
            nets.append(item)
        return nets

    def _check_alias_pair(self, a: Net, b: Net, ctx: Ctx, span: Span) -> None:
        def boolean_ok(net: Net) -> bool:
            # Exception 1 of section 4.7: an IN parameter of an
            # instantiated component or a formal OUT parameter.
            if net.role == "pin_in" and net.id not in ctx.boundary:
                return True
            return ctx.boundary.get(net.id) is ast.Mode.OUT

        for net in (a, b):
            if net.kind == BOOLEAN and not boolean_ok(net):
                raise TypeError_(
                    f"cannot alias boolean signal {net.name!r} with == "
                    "(type rules (2), section 4.7)",
                    span,
                )

    def _stmt_connection(self, stmt: ast.Connection, ctx: Ctx) -> None:
        tree = self.resolve_tree(stmt.signal, ctx)
        tree = force(tree)
        if isinstance(tree, CompTree) and tree.is_instance:
            self._connect_instance(tree, stmt, ctx)
            return
        if isinstance(tree, ArrayTree):
            self._connect_array(tree, stmt, ctx)
            return
        if not stmt.actuals:
            # A bare signal statement: legal parse, no effect.
            self.mark_use(tree.leaves(), ctx)
            return
        raise TypeError_(
            "connection statements require an instantiated component "
            "(or an array of equal components) with a body",
            stmt.span,
        )

    def _connect_instance(
        self, tree: CompTree, stmt: ast.Connection, ctx: Ctx
    ) -> None:
        comp = tree.type
        assert isinstance(comp, ComponentV)
        if comp.is_function:
            raise TypeError_("function components are connected by calls", stmt.span)
        if not stmt.actuals:
            self.mark_use(tree.leaves(), ctx)
            return
        if len(stmt.actuals) != len(comp.params):
            raise TypeError_(
                f"connection to {comp.describe()} needs {len(comp.params)} "
                f"actuals, got {len(stmt.actuals)}",
                stmt.span,
            )
        signature: list[tuple] = []
        for param, actual in zip(comp.params, stmt.actuals):
            pin = force(tree.fields[param.name])
            sig = self._connect_param(pin, param, actual, ctx, stmt.span, repeat=1)
            signature.append(sig)
        self._register_connection(tree, tuple(signature), ctx, stmt.span)

    def _connect_array(self, tree: ArrayTree, stmt: ast.Connection, ctx: Ctx) -> None:
        elems = [force(e) for e in tree.elems]
        if not elems or not all(
            isinstance(e, CompTree) and e.is_instance for e in elems
        ):
            raise TypeError_(
                "array connection requires an array of instantiated components",
                stmt.span,
            )
        comp = elems[0].type
        assert isinstance(comp, ComponentV)
        if not stmt.actuals:
            for e in elems:
                self.mark_use(e.leaves(), ctx)
            return
        if len(stmt.actuals) != len(comp.params):
            raise TypeError_(
                f"connection to array of {comp.describe()} needs "
                f"{len(comp.params)} actuals, got {len(stmt.actuals)}",
                stmt.span,
            )
        q = len(elems)
        for pi, (param, actual) in enumerate(zip(comp.params, stmt.actuals)):
            w = param.type.width
            flat = self.flatten_expr_or_write(param, actual, ctx, stmt.span, q * w)
            for k, inst in enumerate(elems):
                assert isinstance(inst, CompTree)
                pin = force(inst.fields[param.name])
                self._bind_param_slice(
                    pin, param, flat[k * w : (k + 1) * w], ctx, stmt.span
                )
        for inst in elems:
            assert isinstance(inst, CompTree)
            self._register_connection(inst, ("array",), ctx, stmt.span)

    def _register_connection(
        self, tree: CompTree, signature: tuple, ctx: Ctx, span: Span
    ) -> None:
        prior = self._conn_signatures.setdefault(id(tree), [])
        if prior and signature not in prior:
            self.sink.warning(
                f"multiple distinct connection statements for instance "
                f"{tree.path!r}; the paper allows repeats only when identical",
                span,
                phase="elaborate",
            )
        prior.append(signature)

    def _connect_param(
        self,
        pin: SigTree,
        param: ParamV,
        actual: ast.Expr,
        ctx: Ctx,
        span: Span,
        repeat: int,
    ) -> tuple:
        w = param.type.width * repeat
        if param.mode is ast.Mode.OUT:
            # xi := ai -- the actual must be a signal expression.
            targets = self.resolve_write_or_star(actual, ctx, w, span)
            pins = pin.leaves()
            self.mark_use(pins, ctx)
            for src, bit_targets in zip(pins, targets):
                for net, extra in bit_targets:
                    guard = self.and_guard(ctx.guard, extra, span)
                    self._drive(net, src, guard, span, ctx)
            return ("out", tuple(id(t) for bt in targets for t in bt))
        if param.mode is ast.Mode.IN:
            flat = self.flatten_expr(actual, ctx)
            sources = flat.fit(w, span)
            pins = pin.leaves()
            self.mark_use(pins, ctx)
            for dst, src in zip(pins, sources):
                if src is STAR:
                    continue
                self._drive(dst, src, ctx.guard, span, ctx)
            return ("in", tuple(_src_key(s) for s in sources))
        # INOUT: aliasing.
        if ctx.guard is not None:
            raise TypeError_(
                "a connection to an INOUT parameter must not occur within "
                "an if statement (aliasing cannot be conditional)",
                span,
            )
        flat = self.flatten_expr(actual, ctx)
        sources = flat.fit(w, span)
        pins = pin.leaves()
        self.mark_use(pins, ctx)
        for dst, src in zip(pins, sources):
            if src is STAR:
                continue
            if not isinstance(src, Net):
                raise TypeError_(
                    f"INOUT parameter {param.name!r} must be connected to a "
                    "signal",
                    span,
                )
            self._check_alias_pair(dst, src, ctx, span)
            self._alias(dst, src)
        return ("inout", tuple(_src_key(s) for s in sources))

    def _bind_param_slice(
        self,
        pin: SigTree,
        param: ParamV,
        flat_slice: list[Any],
        ctx: Ctx,
        span: Span,
    ) -> None:
        """Connect one element of an array connection from a pre-flattened
        actual slice (sources for IN/INOUT, targets for OUT)."""
        pins = pin.leaves()
        self.mark_use(pins, ctx)
        if param.mode is ast.Mode.OUT:
            for src, bit_targets in zip(pins, flat_slice):
                for net, extra in bit_targets:
                    guard = self.and_guard(ctx.guard, extra, span)
                    self._drive(net, src, guard, span, ctx)
            return
        if param.mode is ast.Mode.IN:
            for dst, src in zip(pins, flat_slice):
                if src is STAR:
                    continue
                self._drive(dst, src, ctx.guard, span, ctx)
            return
        if ctx.guard is not None:
            raise TypeError_(
                "a connection to an INOUT parameter must not occur within "
                "an if statement",
                span,
            )
        for dst, src in zip(pins, flat_slice):
            if src is STAR:
                continue
            if not isinstance(src, Net):
                raise TypeError_("INOUT parameters connect to signals only", span)
            self._check_alias_pair(dst, src, ctx, span)
            self._alias(dst, src)

    def flatten_expr_or_write(
        self, param: ParamV, actual: ast.Expr, ctx: Ctx, span: Span, width: int
    ) -> list[Any]:
        """Flatten an array-connection actual: sources for IN/INOUT
        params, write-target groups for OUT params."""
        if param.mode is ast.Mode.OUT:
            return self.resolve_write_or_star(actual, ctx, width, span)
        return self.flatten_expr(actual, ctx).fit(width, span)

    def _stmt_if(self, stmt: ast.If, ctx: Ctx) -> None:
        prefix: Net | None = None
        for cond_expr, body in stmt.arms:
            cond = self._condition_net(cond_expr, ctx)
            arm_guard = self.and_guard(prefix, cond, stmt.span)
            inner = self.and_guard(ctx.guard, arm_guard, stmt.span)
            sub = ctx.with_guard(inner)
            for s in body:
                self.elaborate_stmt(s, sub)
            prefix = self.and_guard(prefix, self.not_net(cond, stmt.span), stmt.span)
        if stmt.else_body:
            inner = self.and_guard(ctx.guard, prefix, stmt.span)
            sub = ctx.with_guard(inner)
            for s in stmt.else_body:
                self.elaborate_stmt(s, sub)

    def _condition_net(self, expr: ast.Expr, ctx: Ctx) -> Net:
        flat = self.flatten_expr(expr, ctx)
        items = flat.strict(expr.span, "an IF condition")
        if len(items) != 1:
            raise TypeError_(
                f"IF condition must be a single basic signal, got width "
                f"{len(items)}",
                expr.span,
            )
        return self._materialize(items[0], expr.span)

    def _stmt_for(self, stmt: ast.For, ctx: Ctx) -> None:
        lo = eval_int(stmt.lo, ctx.env)
        hi = eval_int(stmt.hi, ctx.env)
        values = range(lo, hi - 1, -1) if stmt.downto else range(lo, hi + 1)
        step_targets: list[list[Net]] = []
        for value in values:
            env = ctx.env.child()
            env.bind(stmt.var, LoopVar(value), stmt.span)
            sub = ctx.with_env(env)
            if stmt.sequentially:
                step_targets.append(
                    self._capture_targets(
                        lambda sub=sub: [
                            self.elaborate_stmt(s, sub) for s in stmt.body
                        ]
                    )
                )
            else:
                for s in stmt.body:
                    self.elaborate_stmt(s, sub)
        for earlier, later in zip(step_targets, step_targets[1:]):
            if earlier and later:
                self.seq_constraints.append((earlier, later))

    def _stmt_when(self, stmt: ast.WhenGen, ctx: Ctx) -> None:
        for cond, body in stmt.arms:
            if eval_condition(cond, ctx.env):
                for s in body:
                    self.elaborate_stmt(s, ctx)
                return
        for s in stmt.otherwise:
            self.elaborate_stmt(s, ctx)

    def _stmt_sequential(self, stmt: ast.Sequential, ctx: Ctx) -> None:
        step_targets: list[list[Net]] = []
        for s in stmt.body:
            if isinstance(s, ast.For) and s.sequentially:
                # FOR ... DO SEQUENTIALLY inside SEQUENTIAL: each iteration
                # is one step of the enclosing sequence (section 4.5).
                lo = eval_int(s.lo, ctx.env)
                hi = eval_int(s.hi, ctx.env)
                values = range(lo, hi - 1, -1) if s.downto else range(lo, hi + 1)
                for value in values:
                    env = ctx.env.child()
                    env.bind(s.var, LoopVar(value), s.span)
                    sub = ctx.with_env(env)
                    step_targets.append(
                        self._capture_targets(
                            lambda sub=sub, body=s.body: [
                                self.elaborate_stmt(inner, sub) for inner in body
                            ]
                        )
                    )
            else:
                step_targets.append(
                    self._capture_targets(
                        lambda s=s: self.elaborate_stmt(s, ctx)
                    )
                )
        for earlier, later in zip(step_targets, step_targets[1:]):
            if earlier and later:
                self.seq_constraints.append((earlier, later))

    def _capture_targets(self, thunk) -> list[Net]:
        """Run *thunk* and return the nets its statements assign directly
        (lazily forced instance internals excluded); nested captures also
        propagate to the enclosing capture."""
        saved, self._target_log = self._target_log, []
        try:
            thunk()
            return self._target_log
        finally:
            step = self._target_log
            self._target_log = saved
            if saved is not None:
                saved.extend(step)

    def _stmt_with(self, stmt: ast.With, ctx: Ctx) -> None:
        tree = force(self.resolve_tree(stmt.signal, ctx))
        if not isinstance(tree, CompTree):
            raise TypeError_(
                "WITH requires a signal of a component type", stmt.span
            )
        env = ctx.env.child()
        for p in tree.type.params:
            env.bind(p.name, SignalBinding(tree.fields[p.name]), stmt.span)
        sub = ctx.with_env(env)
        for s in stmt.body:
            self.elaborate_stmt(s, sub)

    def _stmt_result(self, stmt: ast.Result, ctx: Ctx) -> None:
        if ctx.result_sink is None:
            raise TypeError_(
                "RESULT outside of a function component body", stmt.span
            )
        flat = self.flatten_expr(stmt.value, ctx)
        sources = flat.fit(len(ctx.result_sink), stmt.span)
        for dst, src in zip(ctx.result_sink, sources):
            if src is STAR:
                continue
            if isinstance(src, Logic):
                self.netlist.add_const(src, dst, ctx.guard, stmt.span)
            else:
                assert isinstance(src, Net)
                self.netlist.add_conn(src, dst, ctx.guard, stmt.span)
            if self._target_log is not None:
                self._target_log.append(dst)

    # ------------------------------------------------------------------
    # layout replacements (section 6.4) -- run at elaboration time
    # ------------------------------------------------------------------

    def _run_layout_replacements(self, stmts: list[ast.LayoutStmt], ctx: Ctx) -> None:
        for s in stmts:
            if isinstance(s, ast.LayoutBasic) and s.replacement is not None:
                self._do_replacement(s, ctx)
            elif isinstance(s, ast.LayoutOrder):
                self._run_layout_replacements(s.body, ctx)
            elif isinstance(s, ast.LayoutBoundary):
                self._run_layout_replacements(s.body, ctx)
            elif isinstance(s, ast.LayoutFor):
                lo = eval_int(s.lo, ctx.env)
                hi = eval_int(s.hi, ctx.env)
                values = range(lo, hi - 1, -1) if s.downto else range(lo, hi + 1)
                for value in values:
                    env = ctx.env.child()
                    env.bind(s.var, LoopVar(value), s.span)
                    self._run_layout_replacements(s.body, ctx.with_env(env))
            elif isinstance(s, ast.LayoutWhen):
                done = False
                for cond, body in s.arms:
                    if eval_condition(cond, ctx.env):
                        self._run_layout_replacements(body, ctx)
                        done = True
                        break
                if not done:
                    self._run_layout_replacements(s.otherwise, ctx)
            elif isinstance(s, ast.LayoutWith):
                tree = force(self.resolve_tree(s.signal, ctx))
                if isinstance(tree, CompTree):
                    env = ctx.env.child()
                    for p in tree.type.params:
                        env.bind(p.name, SignalBinding(tree.fields[p.name]), s.span)
                    self._run_layout_replacements(s.body, ctx.with_env(env))

    def _do_replacement(self, s: ast.LayoutBasic, ctx: Ctx) -> None:
        assert s.replacement is not None
        tree = self.resolve_tree(s.signal, ctx)
        if not isinstance(tree, VirtualTree):
            raise TypeError_(
                "only signals of type virtual can be replaced (section 6.4)",
                s.span,
            )
        if tree.replaced is not None:
            raise TypeError_(
                f"virtual signal {tree.path!r} replaced more than once", s.span
            )
        t = self.elab_type(s.replacement, ctx.env)
        tree.replaced = self.make_signal(tree.path, t, ctx, s.span)

    # ------------------------------------------------------------------
    # designator resolution
    # ------------------------------------------------------------------

    def resolve_tree(self, expr: ast.Expr, ctx: Ctx) -> SigTree:
        """Resolve a designator to a single signal tree (no NUM selectors)."""
        alts = self.resolve_alts(expr, ctx)
        if isinstance(alts, ConstResult):
            raise TypeError_("a signal is required here, not a constant", expr.span)
        if len(alts) != 1 or alts[0][0] is not None:
            raise TypeError_(
                "NUM-indexed signals cannot be used in this position", expr.span
            )
        return alts[0][1]

    def resolve_alts(
        self, expr: ast.Expr, ctx: Ctx
    ) -> "list[tuple[Net | None, SigTree]] | ConstResult":
        """Resolve a designator to guarded alternatives.

        Normal designators yield ``[(None, tree)]``; each ``NUM`` selector
        multiplies the alternatives by the decoded index values.  Constant
        designators (e.g. ``bit2[i]``) yield a :class:`ConstResult`.
        """
        if isinstance(expr, ast.Name):
            if expr.ident in ("CLK", "RSET"):
                return [(None, BitTree(BOOLEAN_T, self.special_net(expr.ident)))]
            binding = ctx.env.lookup(expr.ident, expr.span)
            if isinstance(binding, SignalBinding):
                return [(None, binding.tree)]
            if isinstance(binding, ConstBinding):
                return ConstResult(binding.value)
            if isinstance(binding, LoopVar):
                return ConstResult(binding.value)
            raise TypeError_(f"{expr.ident!r} is not a signal", expr.span)
        if isinstance(expr, ast.Index):
            base = self.resolve_alts(expr.base, ctx)
            i = eval_int(expr.index, ctx.env)
            if isinstance(base, ConstResult):
                return base.index(i, expr.span)
            return [(g, t.index(i, expr.span)) for g, t in base]
        if isinstance(expr, ast.IndexRange):
            base = self.resolve_alts(expr.base, ctx)
            lo = eval_int(expr.lo, ctx.env)
            hi = eval_int(expr.hi, ctx.env)
            if isinstance(base, ConstResult):
                return base.slice(lo, hi, expr.span)
            return [(g, t.slice(lo, hi, expr.span)) for g, t in base]
        if isinstance(expr, ast.Field):
            base = self.resolve_alts(expr.base, ctx)
            if isinstance(base, ConstResult):
                raise TypeError_("constants have no fields", expr.span)
            return [(g, t.field(expr.name, expr.span)) for g, t in base]
        if isinstance(expr, ast.FieldRange):
            base = self.resolve_alts(expr.base, ctx)
            if isinstance(base, ConstResult):
                raise TypeError_("constants have no fields", expr.span)
            return [
                (g, t.field_range(expr.first, expr.last, expr.span)) for g, t in base
            ]
        if isinstance(expr, ast.IndexNum):
            base = self.resolve_alts(expr.base, ctx)
            if isinstance(base, ConstResult):
                raise TypeError_("NUM indexing of constants is not supported", expr.span)
            sel = self.flatten_expr(expr.selector, ctx).strict(expr.span, "NUM(...)")
            sel_nets = [self._materialize(s, expr.span) for s in sel]
            out: list[tuple[Net | None, SigTree]] = []
            for g, t in base:
                t = force(t)
                at = t.type
                if not isinstance(at, ArrayV):
                    raise TypeError_("NUM indexing requires an array signal", expr.span)
                for i in range(at.lo, at.hi + 1):
                    if i >= (1 << len(sel_nets)) or i < 0:
                        continue  # unaddressable element
                    eq = self._decode_net(sel_nets, i, expr.span)
                    guard = self.and_guard(g, eq, expr.span)
                    out.append((guard, t.index(i, expr.span)))
            return out
        raise TypeError_("expected a signal designator", expr.span)

    def resolve_write(
        self, expr: ast.Expr, ctx: Ctx
    ) -> list[list[tuple[Net, Net | None]]]:
        """Resolve an assignment target: one list of (net, guard) fan-out
        targets per bit position."""
        alts = self.resolve_alts(expr, ctx)
        if isinstance(alts, ConstResult):
            raise TypeError_("cannot assign to a constant", expr.span)
        per_alt: list[tuple[Net | None, list[Net]]] = []
        width: int | None = None
        for g, t in alts:
            leaves = t.leaves()
            self.mark_use(leaves, ctx)
            if width is None:
                width = len(leaves)
            elif width != len(leaves):  # pragma: no cover - same shape by construction
                raise TypeError_("inconsistent NUM alternative widths", expr.span)
            per_alt.append((g, leaves))
        if width is None:
            raise TypeError_("empty assignment target", expr.span)
        targets: list[list[tuple[Net, Net | None]]] = []
        for j in range(width):
            targets.append([(leaves[j], g) for g, leaves in per_alt])
        return targets

    def resolve_write_or_star(
        self, expr: ast.Expr, ctx: Ctx, width: int, span: Span
    ) -> list[list[tuple[Net, Net | None]]]:
        """Resolve an OUT-direction connection actual, which may be or
        contain ``*`` (= leave those output bits unconnected)."""
        if isinstance(expr, ast.Star):
            w = eval_int(expr.width, ctx.env) if expr.width is not None else width
            if w != width:
                raise TypeError_(f"'*:{w}' does not match width {width}", span)
            return [[] for _ in range(width)]
        if isinstance(expr, ast.Tuple_):
            groups: list[list[list[tuple[Net, Net | None]]]] = []
            fixed = 0
            flex_at: int | None = None
            for item in expr.items:
                if isinstance(item, ast.Star) and item.width is None:
                    if flex_at is not None:
                        raise TypeError_("at most one width-less '*'", span)
                    flex_at = len(groups)
                    groups.append([])
                else:
                    g = self.resolve_write_or_star(item, ctx, -1, span)
                    fixed += len(g)
                    groups.append(g)
            if flex_at is not None:
                pad = width - fixed
                if pad < 0:
                    raise TypeError_("actual parameter too wide", span)
                groups[flex_at] = [[] for _ in range(pad)]
            out = [t for g in groups for t in g]
            if width >= 0 and len(out) != width:
                raise TypeError_(
                    f"actual width {len(out)} does not match formal width {width}",
                    span,
                )
            return out
        targets = self.resolve_write(expr, ctx)
        if width >= 0 and len(targets) != width:
            raise TypeError_(
                f"actual width {len(targets)} does not match formal width {width}",
                span,
            )
        return targets

    def mark_use(self, nets: list[Net], ctx: Ctx | None = None) -> None:
        """Record pin usage for the unused-port rule.  References to the
        *enclosing* component's own formal parameters do not count -- the
        rule is about the ports of instantiated sub-components."""
        boundary = ctx.boundary if ctx is not None else {}
        for net in nets:
            if net.id in boundary:
                continue
            owner = self.pin_owner.get(net.id)
            if owner is not None:
                owner.touched.add(net.id)

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def flatten_expr(self, expr: ast.Expr, ctx: Ctx) -> Flattened:
        if isinstance(expr, ast.Star):
            if expr.width is not None:
                return Flattened([StarFill(eval_int(expr.width, ctx.env))])
            return Flattened([StarFill(None)])
        if isinstance(expr, ast.NumberLit):
            return Flattened([self._bit_const(expr.value, expr.span)])
        if isinstance(expr, ast.LogicLit):
            return Flattened([Logic.from_name(expr.value)])
        if isinstance(expr, ast.Tuple_):
            items: list[Any] = []
            for sub in expr.items:
                items.extend(self.flatten_expr(sub, ctx).items)
            return Flattened(items)
        if isinstance(expr, ast.BinCall):
            value = eval_int(expr.value, ctx.env)
            width = eval_int(expr.width, ctx.env)
            from .values import bits_of

            try:
                return Flattened(list(bits_of(value, width)))
            except ValueError as exc:
                raise ElaborationError(str(exc), expr.span) from None
        if isinstance(expr, ast.Call):
            return Flattened(list(self.elaborate_call(expr, ctx)))
        if isinstance(expr, ast.Unary) and expr.op == "NOT":
            operand = self.flatten_expr(expr.operand, ctx).strict(
                expr.span, "a NOT operand"
            )
            nets = [self._materialize(s, expr.span) for s in operand]
            return Flattened(
                [self.netlist.add_gate("NOT", [n], expr.span) for n in nets]
            )
        if isinstance(expr, (ast.Unary, ast.Binary)):
            value = eval_const(expr, ctx.env)
            return Flattened(self._const_items(value, expr.span))
        if isinstance(
            expr, (ast.Name, ast.Index, ast.IndexRange, ast.IndexNum, ast.Field, ast.FieldRange)
        ):
            alts = self.resolve_alts(expr, ctx)
            if isinstance(alts, ConstResult):
                return Flattened(self._const_items(alts.value, expr.span))
            return Flattened(list(self._read_alts(alts, expr.span, ctx)))
        raise ElaborationError(
            f"cannot elaborate expression {type(expr).__name__}", expr.span
        )

    def _const_items(self, value: Any, span: Span) -> list[Any]:
        if isinstance(value, Logic):
            return [value]
        if is_signal_const(value):
            return list(const_leaves(value))
        if isinstance(value, bool):
            value = int(value)
        if value in (0, 1):
            return [Logic.from_bit(value)]
        raise TypeError_(
            f"numeric constant {value} is not a signal value (only 0 and 1 are)",
            span,
        )

    def _bit_const(self, value: int, span: Span) -> Logic:
        if value in (0, 1):
            return Logic.from_bit(value)
        raise TypeError_(
            f"number {value} cannot be used as a signal (only 0 and 1)", span
        )

    def _read_alts(
        self, alts: list[tuple[Net | None, SigTree]], span: Span, ctx: Ctx
    ) -> list[Src]:
        if len(alts) == 1 and alts[0][0] is None:
            leaves = alts[0][1].leaves()
            self.mark_use(leaves, ctx)
            return list(leaves)
        # NUM-indexed read: build a decoded multiplexer.
        width = None
        for _, t in alts:
            w = t.width
            width = w if width is None else width
        assert width is not None
        outs = [
            self.netlist.new_net(f"$nummux{len(self.netlist.nets)}", MULTIPLEX, span, role="local")
            for _ in range(width)
        ]
        for guard, t in alts:
            leaves = t.leaves()
            self.mark_use(leaves, ctx)
            for dst, src in zip(outs, leaves):
                self.netlist.add_conn(src, dst, guard, span)
        return list(outs)

    def elaborate_call(self, expr: ast.Call, ctx: Ctx) -> list[Src]:
        func, type_args = self._unwrap_func(expr.func, ctx)
        if not isinstance(func, ast.Name):
            raise TypeError_("function component name expected", expr.span)
        name = func.ident
        binding = ctx.env.lookup(name, expr.span)
        if isinstance(binding, TypeBinding) and binding.builtin == "gate":
            return self._gate_call(name, expr, ctx)
        if isinstance(binding, TypeBinding):
            return self._function_call(binding, type_args, expr, ctx)
        raise TypeError_(f"{name!r} is not a function component", expr.span)

    def _unwrap_func(
        self, func: ast.Expr, ctx: Ctx
    ) -> tuple[ast.Expr, list[int]]:
        """Split ``f[n][m]`` call heads into the name and explicit type
        arguments (the paper's ``plus[n](a, b)`` narrative syntax)."""
        args: list[int] = []
        while isinstance(func, ast.Index):
            args.insert(0, eval_int(func.index, ctx.env))
            func = func.base
        return func, args

    def _gate_call(self, op: str, expr: ast.Call, ctx: Ctx) -> list[Src]:
        arg_bits: list[list[Net]] = []
        for a in expr.args:
            flat = self.flatten_expr(a, ctx).strict(a.span, f"{op} operands")
            arg_bits.append([self._materialize(s, a.span) for s in flat])
        if op == "RANDOM":
            if arg_bits:
                raise TypeError_("RANDOM takes no arguments", expr.span)
            return [self.netlist.add_gate("RANDOM", [], expr.span)]
        if op == "NOT":
            if len(arg_bits) != 1:
                raise TypeError_("NOT takes one argument", expr.span)
            return [
                self.netlist.add_gate("NOT", [n], expr.span) for n in arg_bits[0]
            ]
        if not arg_bits:
            raise TypeError_(f"{op} needs at least one argument", expr.span)
        widths = {len(bits) for bits in arg_bits}
        if len(widths) != 1:
            raise TypeError_(
                f"{op} operands must have the same number of basic "
                f"substructures, got {sorted(widths)}",
                expr.span,
            )
        if op == "EQUAL":
            if len(arg_bits) != 2:
                raise TypeError_("EQUAL takes two arguments", expr.span)
            # One gate comparing the full vectors (section 8: one exiting
            # edge, 1 iff all defined and equal).
            return [
                self.netlist.add_gate("EQUAL", arg_bits[0] + arg_bits[1], expr.span)
            ]
        m = widths.pop()
        return [
            self.netlist.add_gate(op, [bits[j] for bits in arg_bits], expr.span)
            for j in range(m)
        ]

    def _function_call(
        self,
        binding: TypeBinding,
        type_args: list[int],
        expr: ast.Call,
        ctx: Ctx,
    ) -> list[Src]:
        comp = self._resolve_function_type(binding, type_args, expr, ctx)
        if not comp.is_function:
            raise TypeError_(
                f"{binding.name!r} is not a function component type", expr.span
            )
        if len(expr.args) != len(comp.params):
            raise TypeError_(
                f"{binding.name} expects {len(comp.params)} arguments, got "
                f"{len(expr.args)}",
                expr.span,
            )
        self._fn_counter += 1
        path = f"{ctx.path}.${binding.name}{self._fn_counter}"
        inst = self.instantiate_component(comp, path, expr.span)
        # Feed the arguments (unconditionally -- the IF guard applies to
        # the use of the result, not to the existence of the hardware).
        feed_ctx = Ctx(ctx.env, ctx.path, None, ctx.boundary, None)
        for param, actual in zip(comp.params, expr.args):
            pin = force(inst.fields[param.name])
            self._connect_param(pin, param, actual, feed_ctx, expr.span, repeat=1)
        result = self.netlist.signals[f"{path}.$result"]
        return list(result)

    def _resolve_function_type(
        self,
        binding: TypeBinding,
        type_args: list[int],
        expr: ast.Call,
        ctx: Ctx,
    ) -> ComponentV:
        if binding.builtin is not None:
            raise TypeError_(
                f"{binding.name!r} cannot be called as a function", expr.span
            )
        assert binding.type_ast is not None and binding.closure is not None
        if len(binding.params) == 0:
            t = self.elab_type(
                ast.NamedType(binding.name, [], span=expr.span), ctx.env
            )
        elif type_args:
            t = self.elab_type(
                ast.NamedType(
                    binding.name,
                    [ast.NumberLit(a, span=expr.span) for a in type_args],
                    span=expr.span,
                ),
                ctx.env,
            )
        else:
            t = self._infer_function_type(binding, expr, ctx)
        if not isinstance(t, ComponentV):
            raise TypeError_(f"{binding.name!r} is not a component type", expr.span)
        return t

    def _infer_function_type(
        self, binding: TypeBinding, expr: ast.Call, ctx: Ctx
    ) -> TypeV:
        """Infer a single numeric type parameter from argument widths by
        bounded search (documented extension covering ``plus[n]`` without
        explicit brackets)."""
        if len(binding.params) != 1:
            raise TypeError_(
                f"{binding.name} needs explicit type parameters, e.g. "
                f"{binding.name}[n](...)",
                expr.span,
            )
        widths = [len(self.flatten_expr(a, ctx).items) for a in expr.args]
        for candidate in range(1, 4097):
            try:
                t = self.elab_type(
                    ast.NamedType(
                        binding.name, [ast.NumberLit(candidate, span=expr.span)],
                        span=expr.span,
                    ),
                    ctx.env,
                )
            except Exception:
                continue
            if isinstance(t, ComponentV) and len(t.params) == len(widths):
                if all(p.type.width == w for p, w in zip(t.params, widths)):
                    return t
        raise TypeError_(
            f"could not infer the type parameter of {binding.name} from the "
            f"argument widths {widths}; use {binding.name}[n](...)",
            expr.span,
        )

    # ------------------------------------------------------------------
    # net-level helpers
    # ------------------------------------------------------------------

    def special_net(self, name: str) -> Net:
        """The predefined CLK / RSET input signals."""
        if name not in self._special_nets:
            net = self.netlist.new_net(name, BOOLEAN, role="local", is_input=True)
            self.netlist.register_signal(name, [net])
            self._special_nets[name] = net
            self._shared.add(net.id)
        return self._special_nets[name]

    def const_net(self, value: Logic, span: Span = NO_SPAN) -> Net:
        if value not in self._const_nets:
            kind = MULTIPLEX if value is Logic.NOINFL else BOOLEAN
            net = self.netlist.new_net(f"$const_{value}", kind, span, role="local")
            self.netlist.add_const(value, net, None, span)
            self._const_nets[value] = net
            self._shared.add(net.id)
        return self._const_nets[value]

    def _materialize(self, src: Src, span: Span) -> Net:
        if isinstance(src, Net):
            return src
        if isinstance(src, Logic):
            return self.const_net(src, span)
        raise TypeError_("'*' cannot be used as an operand", span)

    def not_net(self, net: Net, span: Span) -> Net:
        if net.id not in self._not_cache:
            self._not_cache[net.id] = self._cached_gate("NOT", [net], span)
        return self._not_cache[net.id]

    def and_guard(self, a: Net | None, b: Net | None, span: Span) -> Net | None:
        if a is None:
            return b
        if b is None:
            return a
        key = (min(a.id, b.id), max(a.id, b.id))
        if key not in self._and_cache:
            self._and_cache[key] = self._cached_gate("AND", [a, b], span)
        return self._and_cache[key]

    def _cached_gate(self, op: str, inputs: list[Net], span: Span) -> Net:
        """A gate for the NOT/AND/decode caches.  Over shared nets only
        (CLK, RSET, constants, other such gates) its output is shared
        too: every later lookup of the same key returns it."""
        out = self.netlist.add_gate(op, inputs, span)
        if all(n.id in self._shared for n in inputs):
            self._shared.add(out.id)
        return out

    def _decode_net(self, sel: list[Net], value: int, span: Span) -> Net:
        """EQUAL(sel, BIN(value, len(sel))) as a cached decode gate."""
        from .values import bits_of

        consts = [self.const_net(b, span) for b in bits_of(value, len(sel))]
        key = (tuple(n.id for n in sel), value)
        if key not in self._and_cache:
            self._and_cache[key] = self._cached_gate(  # type: ignore[index]
                "EQUAL", sel + consts, span
            )
        return self._and_cache[key]  # type: ignore[index]


def _has_unmaterialized(tree: SigTree) -> bool:
    """True when flattening *tree* would force a lazy instance or touch an
    unreplaced virtual signal (such trees are not registered eagerly)."""
    if isinstance(tree, (LazyTree, VirtualTree)):
        return True
    if isinstance(tree, ArrayTree):
        return any(_has_unmaterialized(e) for e in tree.elems)
    if isinstance(tree, CompTree):
        return any(_has_unmaterialized(f) for f in tree.fields.values())
    return False


class ConstResult:
    """A designator that resolved to a compile-time constant."""

    def __init__(self, value: Any):
        self.value = value

    def index(self, i: int, span: Span) -> "ConstResult":
        if not isinstance(self.value, tuple):
            raise TypeError_("constant cannot be indexed", span)
        if not 1 <= i <= len(self.value):
            raise TypeError_(
                f"constant index {i} out of bounds [1..{len(self.value)}]", span
            )
        return ConstResult(self.value[i - 1])

    def slice(self, lo: int, hi: int, span: Span) -> "ConstResult":
        if not isinstance(self.value, tuple):
            raise TypeError_("constant cannot be sliced", span)
        if not (1 <= lo and hi <= len(self.value) and lo <= hi):
            raise TypeError_(f"constant slice [{lo}..{hi}] out of bounds", span)
        return ConstResult(self.value[lo - 1 : hi])


def _function_is_multiplex(body: list[ast.Stmt]) -> bool:
    """True when every RESULT statement is nested inside an IF (the
    section 3.2 rule deciding the function's value type)."""

    def walk(stmts: list[ast.Stmt], under_if: bool) -> tuple[bool, bool]:
        saw, all_conditional = False, True
        for s in stmts:
            if isinstance(s, ast.Result):
                saw = True
                all_conditional = all_conditional and under_if
            elif isinstance(s, ast.If):
                for _, arm in s.arms:
                    sub_saw, sub_all = walk(arm, True)
                    saw = saw or sub_saw
                    all_conditional = all_conditional and sub_all
                sub_saw, sub_all = walk(s.else_body, True)
                saw = saw or sub_saw
                all_conditional = all_conditional and sub_all
            elif isinstance(s, (ast.Sequential, ast.Parallel)):
                sub_saw, sub_all = walk(s.body, under_if)
                saw = saw or sub_saw
                all_conditional = all_conditional and sub_all
            elif isinstance(s, ast.For):
                sub_saw, sub_all = walk(s.body, under_if)
                saw = saw or sub_saw
                all_conditional = all_conditional and sub_all
            elif isinstance(s, ast.WhenGen):
                for _, arm in s.arms:
                    sub_saw, sub_all = walk(arm, under_if)
                    saw = saw or sub_saw
                    all_conditional = all_conditional and sub_all
                sub_saw, sub_all = walk(s.otherwise, under_if)
                saw = saw or sub_saw
                all_conditional = all_conditional and sub_all
            elif isinstance(s, ast.With):
                sub_saw, sub_all = walk(s.body, under_if)
                saw = saw or sub_saw
                all_conditional = all_conditional and sub_all
        return saw, all_conditional

    saw, all_conditional = walk(body, False)
    return saw and all_conditional


def _tail(items, n: int) -> list:
    """The last *n* entries of an insertion-ordered dict (or view)."""
    return list(islice(reversed(items), n))[::-1]


def _pin_instances(root: CompTree) -> list[CompTree]:
    """*root* and the instances nested in its pins."""
    out = [root]

    def walk(t: SigTree) -> None:
        if isinstance(t, LazyTree) and t.is_forced:
            walk(t.force())
        elif isinstance(t, ArrayTree):
            for e in t.elems:
                walk(e)
        elif isinstance(t, CompTree):
            if t.is_instance:
                out.append(t)
            for f in t.fields.values():
                walk(f)

    for f in root.fields.values():
        walk(f)
    return out


def _moved_signature(signature: tuple, nid) -> tuple:
    """A connection signature with its ``("net", id)`` sources moved."""
    return tuple(
        (p[0], tuple(("net", nid(s[1])) if s[0] == "net" else s for s in p[1]))
        if isinstance(p, tuple) and p[0] in ("in", "inout") else p
        for p in signature
    )


def _src_key(src: Src) -> Any:
    if isinstance(src, Net):
        return ("net", src.id)
    if isinstance(src, Logic):
        return ("const", int(src))
    return ("star",)


def elaborate(
    program: ast.Program,
    top: str | None = None,
    source: SourceText | None = None,
    name: str = "top",
) -> Design:
    """Elaborate a parsed program into a :class:`Design`.

    *top* selects the top-level signal declaration to instantiate; by
    default the last top-level signal of a component type with a body.
    """
    from ..obs.spans import span

    with span("elaborate") as sp:
        elab = Elaborator(program, source, name)
        design = elab.run(top)
        if sp is not None:
            sp.meta["instances"] = len(design.instances)
            sp.meta["stamped"] = elab.stamped
        return design
