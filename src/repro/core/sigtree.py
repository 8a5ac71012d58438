"""Elaborated signal references.

A :class:`SigTree` is the elaborated counterpart of a Zeus signal: a shape
(the elaborated type) over flattened :class:`~repro.core.netlist.Net`
leaves.  Selector navigation (indexing, slicing, field access and the
paper's abbreviation rules) happens here.

Two Zeus specifics shape the design:

* **Laziness** (section 4.2, routing-network comment: "this hardware is
  only generated if it is used").  A declared signal whose type is a
  component *with a body* materialises -- pins created, internals
  elaborated -- only when first referenced.  This is what terminates the
  recursive htree/routingnetwork declarations.
* **Mapped field access** (section 4.1): if ``r`` is an array of
  components, ``r.in`` denotes ``r[1..n].in``; selecting a field of an
  :class:`ArrayTree` maps over the elements.

Pin-usage bookkeeping for the unused-port rule lives in the elaborator
(which knows which instance owns each pin net); trees are pure structure.
"""

from __future__ import annotations

from typing import Callable

from ..lang.errors import ElaborationError
from ..lang.source import NO_SPAN, Span
from .netlist import Net
from .types import ArrayV, BasicV, ComponentV, TypeV


class SigTree:
    """Abstract elaborated signal reference."""

    type: TypeV

    def leaves(self) -> list[Net]:
        """Flatten to basic signals in natural order (forces laziness)."""
        raise NotImplementedError

    @property
    def width(self) -> int:
        return self.type.width

    def index(self, i: int, span: Span = NO_SPAN) -> "SigTree":
        raise ElaborationError(
            f"signal of type {self.type.describe()} cannot be indexed", span
        )

    def slice(self, lo: int, hi: int, span: Span = NO_SPAN) -> "SigTree":
        raise ElaborationError(
            f"signal of type {self.type.describe()} cannot be sliced", span
        )

    def field(self, name: str, span: Span = NO_SPAN) -> "SigTree":
        raise ElaborationError(
            f"signal of type {self.type.describe()} has no field {name!r}", span
        )

    def field_range(self, first: str, last: str, span: Span = NO_SPAN) -> "SigTree":
        raise ElaborationError(
            f"signal of type {self.type.describe()} has no fields", span
        )


class BitTree(SigTree):
    """A single basic signal."""

    def __init__(self, type_: BasicV, net: Net):
        self.type = type_
        self.net = net

    def leaves(self) -> list[Net]:
        return [self.net]


class ArrayTree(SigTree):
    """An array signal; elements may still be lazy."""

    def __init__(self, type_: ArrayV, elems: list[SigTree]):
        self.type = type_
        self.elems = elems

    def leaves(self) -> list[Net]:
        out: list[Net] = []
        for e in self.elems:
            out.extend(e.leaves())
        return out

    def _offset(self, i: int, span: Span) -> int:
        at = self.type
        assert isinstance(at, ArrayV)
        if not at.lo <= i <= at.hi:
            raise ElaborationError(
                f"index {i} out of bounds [{at.lo}..{at.hi}]", span
            )
        return i - at.lo

    def index(self, i: int, span: Span = NO_SPAN) -> SigTree:
        return self.elems[self._offset(i, span)]

    def slice(self, lo: int, hi: int, span: Span = NO_SPAN) -> SigTree:
        at = self.type
        assert isinstance(at, ArrayV)
        if hi < lo:
            raise ElaborationError(f"empty slice [{lo}..{hi}]", span)
        first = self._offset(lo, span)
        last = self._offset(hi, span)
        sub = ArrayV(1, hi - lo + 1, at.element)
        return ArrayTree(sub, self.elems[first : last + 1])

    def field(self, name: str, span: Span = NO_SPAN) -> SigTree:
        # Abbreviation rule: r.in == r[lo..hi].in (map over elements).
        mapped = [e.field(name, span) for e in self.elems]
        if not mapped:
            raise ElaborationError(f"field {name!r} of empty array", span)
        return ArrayTree(ArrayV(1, len(mapped), mapped[0].type), mapped)


class CompTree(SigTree):
    """An instantiated component (or record) signal: its visible pins.

    ``is_instance`` is True for instances of components with a body
    (sub-circuits), which the unused-port rule of section 4.1 applies to;
    the elaborator accumulates used pin-net ids in ``touched``.
    """

    def __init__(
        self,
        type_: ComponentV,
        fields: dict[str, SigTree],
        path: str = "",
        *,
        is_instance: bool = False,
    ):
        self.type = type_
        self.fields = fields
        self.path = path
        self.is_instance = is_instance
        self.touched: set[int] = set()
        #: Environment of the instance body after elaboration; the layout
        #: engine resolves layout-statement signal references against it.
        self.local_env = None

    def leaves(self) -> list[Net]:
        out: list[Net] = []
        for p in self.type.params:  # natural (declaration) order
            out.extend(self.fields[p.name].leaves())
        return out

    def field(self, name: str, span: Span = NO_SPAN) -> SigTree:
        if name not in self.fields:
            raise ElaborationError(
                f"component {self.type.describe()} has no pin {name!r}", span
            )
        return self.fields[name]

    def field_range(self, first: str, last: str, span: Span = NO_SPAN) -> SigTree:
        names = [p.name for p in self.type.params]
        if first not in names or last not in names:
            missing = first if first not in names else last
            raise ElaborationError(
                f"component {self.type.describe()} has no pin {missing!r}", span
            )
        i, j = names.index(first), names.index(last)
        if j < i:
            raise ElaborationError(f"field range {first}..{last} is reversed", span)
        return ConcatTree([self.fields[n] for n in names[i : j + 1]])


class ConcatTree(SigTree):
    """An anonymous concatenation of signals (field ranges, tuples)."""

    def __init__(self, parts: list[SigTree]):
        self.parts = parts
        total = sum(p.width for p in parts)
        self.type = ArrayV(1, total, BasicV("boolean"))

    @property
    def width(self) -> int:
        return sum(p.width for p in self.parts)

    def leaves(self) -> list[Net]:
        out: list[Net] = []
        for p in self.parts:
            out.extend(p.leaves())
        return out


class VirtualTree(SigTree):
    """A signal of type ``virtual`` (section 6.4): a chessboard-style
    placeholder that the layout language replaces by a real type, at most
    once.  Until replaced, any structural use is an error; afterwards the
    tree forwards to the replacement."""

    def __init__(self, type_: TypeV, path: str = ""):
        self.type = type_
        self.path = path
        self.replaced: SigTree | None = None

    def _real(self, span: Span) -> SigTree:
        if self.replaced is None:
            raise ElaborationError(
                f"virtual signal {self.path or '<anonymous>'} used before "
                "replacement (section 6.4)",
                span,
            )
        return self.replaced

    def leaves(self) -> list[Net]:
        return self._real(NO_SPAN).leaves()

    def index(self, i: int, span: Span = NO_SPAN) -> SigTree:
        return self._real(span).index(i, span)

    def slice(self, lo: int, hi: int, span: Span = NO_SPAN) -> SigTree:
        return self._real(span).slice(lo, hi, span)

    def field(self, name: str, span: Span = NO_SPAN) -> SigTree:
        return self._real(span).field(name, span)

    def field_range(self, first: str, last: str, span: Span = NO_SPAN) -> SigTree:
        return self._real(span).field_range(first, last, span)


class LazyTree(SigTree):
    """A not-yet-materialised component instance (or array of them);
    forcing runs the ``maker`` exactly once and caches the result.
    ``path`` and ``span`` are the instance's, kept so the elaborator can
    make the same lazy signal under another path."""

    def __init__(
        self,
        type_: TypeV,
        maker: Callable[[], SigTree],
        path: str = "",
        span: Span = NO_SPAN,
    ):
        self.type = type_
        self._maker: Callable[[], SigTree] | None = maker
        self._forced: SigTree | None = None
        self.path = path
        self.span = span

    @property
    def is_forced(self) -> bool:
        return self._forced is not None

    def force(self) -> SigTree:
        if self._forced is None:
            assert self._maker is not None
            maker, self._maker = self._maker, None
            self._forced = maker()
        return self._forced

    def leaves(self) -> list[Net]:
        return self.force().leaves()

    def index(self, i: int, span: Span = NO_SPAN) -> SigTree:
        return self.force().index(i, span)

    def slice(self, lo: int, hi: int, span: Span = NO_SPAN) -> SigTree:
        return self.force().slice(lo, hi, span)

    def field(self, name: str, span: Span = NO_SPAN) -> SigTree:
        return self.force().field(name, span)

    def field_range(self, first: str, last: str, span: Span = NO_SPAN) -> SigTree:
        return self.force().field_range(first, last, span)


def force(tree: SigTree) -> SigTree:
    """Force a possibly lazy tree to its concrete form."""
    return tree.force() if isinstance(tree, LazyTree) else tree
