"""Scoped symbol environments for elaboration.

Zeus scoping (section 3): identifiers are valid within the component type
in which they are declared; a USES list restricts which outer objects a
component may see; predefined standard objects are pervasive.  Constants,
types and signals live in one namespace.

Bindings:

* :class:`ConstBinding` -- numeric constant or structured signal constant;
* :class:`TypeBinding` -- a (possibly parameterized) declared type: the
  template AST plus its closure environment;
* :class:`SignalBinding` -- an elaborated signal (bound during
  elaboration; see :mod:`repro.core.elaborate`);
* :class:`LoopVar` -- a FOR replication variable (an integer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..lang import ast
from ..lang.errors import ElaborationError
from ..lang.source import NO_SPAN, Span

if TYPE_CHECKING:
    from .elaborate import SigTree


@dataclass
class ConstBinding:
    """``CONST name = ...``: an int or a nested tuple of Logic values."""

    value: Any  # int | ConstTree (nested tuples / Logic)


@dataclass
class TypeBinding:
    """A declared type template awaiting elaboration.

    ``builtin`` marks the pervasive predefined types (boolean, multiplex,
    virtual, REG and the standard function components), which are
    elaborated by special cases rather than from an AST.
    """

    name: str
    params: list[str] = field(default_factory=list)
    type_ast: ast.TypeExpr | None = None
    closure: "Env | None" = None
    builtin: Any = None  # marker / payload for predefined types


@dataclass
class LoopVar:
    value: int


@dataclass
class SignalBinding:
    tree: "SigTree"


Binding = ConstBinding | TypeBinding | LoopVar | SignalBinding


class Env:
    """A chained scope.  ``uses`` (when not None) is the USES filter: only
    those outer names -- plus everything pervasive -- are visible through
    this scope boundary."""

    #: For the scope holding a parameterized type's arguments: (the
    #: declaring env, the argument values).  Two scopes with equal keys
    #: bind the same names to the same values, so the elaborator's
    #: instance memo treats them as one.
    scope_key: "tuple | None" = None

    def __init__(
        self,
        parent: "Env | None" = None,
        uses: list[str] | None = None,
        pervasive: "Env | None" = None,
    ):
        self.parent = parent
        self.bindings: dict[str, Binding] = {}
        self.uses = uses
        # The pervasive scope (standard environment) is always visible,
        # even through an empty USES list.
        self.pervasive = pervasive if pervasive is not None else (
            parent.pervasive if parent is not None else None
        )

    def bind(self, name: str, binding: Binding, span: Span = NO_SPAN) -> None:
        if name in self.bindings:
            raise ElaborationError(f"duplicate declaration of {name!r}", span)
        self.bindings[name] = binding

    def rebind(self, name: str, binding: Binding) -> None:
        self.bindings[name] = binding

    def lookup(self, name: str, span: Span = NO_SPAN) -> Binding:
        found = self._lookup(name)
        if found is None:
            raise ElaborationError(f"undeclared identifier {name!r}", span)
        return found

    def _lookup(self, name: str) -> Binding | None:
        env: Env | None = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            if env.uses is not None and name not in env.uses:
                # The USES wall: only listed names pass; pervasive
                # standard objects are looked up separately below.
                break
            env = env.parent
        if self.pervasive is not None and name in self.pervasive.bindings:
            return self.pervasive.bindings[name]
        # A listed USES name continues the search above the wall.
        if env is not None and env.uses is not None and name in env.uses:
            outer = env.parent
            while outer is not None:
                if name in outer.bindings:
                    return outer.bindings[name]
                if outer.uses is not None and name not in outer.uses:
                    return None
                outer = outer.parent
        return None

    def defines_locally(self, name: str) -> bool:
        return name in self.bindings

    def child(self, uses: list[str] | None = None) -> "Env":
        return Env(self, uses=uses)
