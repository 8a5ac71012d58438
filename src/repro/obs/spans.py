"""Compile-phase spans: a lightweight nestable timer API.

The compile pipeline (lex -> parse -> elaborate -> check) reports where
time goes through a process-wide :class:`SpanRegistry`.  Each phase
wraps itself in ``with span("name"):`` and the registry records a
:class:`Span` with its wall-clock duration and nesting path, e.g.
``compile/parse`` or ``compile/parse/lex``.

The registry is bounded (a deque) so long-running processes cannot leak
memory, and it can be disabled entirely (``REGISTRY.enabled = False``)
in which case ``span()`` degenerates to a near-free null context.

Typical use::

    from repro.obs import REGISTRY

    REGISTRY.reset()
    repro.compile_text(text)
    print(REGISTRY.render())            # phase timing table
    totals = REGISTRY.phase_totals()    # {"lex": 0.0003, ...}

Library embedders (and the future zeusd service) should not share the
process-wide :data:`REGISTRY`: pass a private registry instead, either
explicitly (``compile_text(text, registry=my_reg)``) or by activating it
for a region (``with use_registry(my_reg): ...``).  The active registry
is tracked in a :mod:`contextvars` variable, so concurrent compiles in
different threads or asyncio tasks record into their own registries
without racing.
"""

from __future__ import annotations

import contextvars
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass
class Span:
    """One timed region.  ``path`` encodes nesting (``a/b/c``)."""

    name: str
    path: str
    start: float
    duration: float = 0.0
    depth: int = 0
    meta: dict = field(default_factory=dict)
    #: The enclosing span (None for a root).
    parent: "Span | None" = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        d = {
            "name": self.name,
            "path": self.path,
            "start": self.start,
            "duration_s": self.duration,
            "depth": self.depth,
        }
        if self.meta:
            d["meta"] = dict(self.meta)
        return d


class SpanRegistry:
    """A process-wide collector of :class:`Span` records.

    ``maxlen`` bounds memory; the oldest spans are dropped first.  The
    registry is safe to *share* between threads: the open-span stack
    that computes nesting paths is context-local (each thread or asyncio
    context nests independently) and the record deque's appends are
    atomic, so concurrent compiles recording into one registry never
    corrupt each other's paths.  They do interleave in ``spans`` —
    callers that want one compile's spans in isolation should still pass
    a private registry (``compile_text(..., registry=...)``).
    """

    def __init__(self, maxlen: int = 10_000):
        self.enabled = True
        self.spans: deque[Span] = deque(maxlen=maxlen)
        # One open-span stack per (context, registry): a fresh thread
        # starts with an empty context, so its first span sees depth 0
        # regardless of what other threads are mid-compile on.
        self._stack_var: contextvars.ContextVar[list[Span] | None] = (
            contextvars.ContextVar("zeus_span_stack", default=None)
        )

    @property
    def _stack(self) -> list[Span]:
        st = self._stack_var.get()
        if st is None:
            st = []
            self._stack_var.set(st)
        return st

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, **meta) -> Iterator[Span | None]:
        """Time a region.  Yields the live :class:`Span` (or None when
        the registry is disabled) so callers may attach metadata."""
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        path = f"{parent.path}/{name}" if parent else name
        sp = Span(
            name=name,
            path=path,
            start=time.perf_counter(),
            depth=len(self._stack),
            meta=meta,
            parent=parent,
        )
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.duration = time.perf_counter() - sp.start
            self._stack.pop()
            self.spans.append(sp)

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()

    @contextmanager
    def scoped(self) -> Iterator["SpanRegistry"]:
        """Temporarily swap in a fresh registry as the module default —
        lets a caller capture exactly one compile's spans without racing
        other users of the global registry."""
        global REGISTRY
        fresh = SpanRegistry(maxlen=self.spans.maxlen or 10_000)
        prev = REGISTRY
        REGISTRY = fresh
        try:
            yield fresh
        finally:
            REGISTRY = prev

    # -- reporting ---------------------------------------------------------

    def phase_totals(self) -> dict[str, float]:
        """Total inclusive duration per span *name*, in seconds."""
        totals: dict[str, float] = {}
        for sp in self.spans:
            totals[sp.name] = totals.get(sp.name, 0.0) + sp.duration
        return totals

    def self_times(self) -> dict[str, float]:
        """Exclusive (self) duration per span name: inclusive time minus
        the time spent in directly nested child spans.  Each recorded
        child is subtracted once, from its own parent, so spans that
        share a path (concurrent requests) never absorb each other's
        children."""
        recorded = {id(sp) for sp in self.spans}
        out: dict[str, float] = {}
        for sp in self.spans:
            out[sp.name] = out.get(sp.name, 0.0) + sp.duration
            if sp.parent is not None and id(sp.parent) in recorded:
                name = sp.parent.name
                out[name] = out.get(name, 0.0) - sp.duration
        return out

    def to_dicts(self) -> list[dict]:
        return [sp.to_dict() for sp in self.spans]

    def render(self) -> str:
        """A phase timing table (one row per span, in completion order)."""
        if not self.spans:
            return "(no spans recorded)"
        ordered = sorted(self.spans, key=lambda s: s.start)
        width = max(len("  " * s.depth + s.name) for s in ordered)
        rows = []
        for sp in ordered:
            label = "  " * sp.depth + sp.name
            rows.append(f"{label:<{width}}  {sp.duration * 1e3:9.3f} ms")
        return "\n".join(rows)


#: The process-wide default registry used by the compile pipeline.
REGISTRY = SpanRegistry()

#: The contextually active registry (None = fall back to REGISTRY).
#: Context-local, so threads / asyncio tasks can each activate a private
#: registry without racing each other (or the global).
_ACTIVE: contextvars.ContextVar[SpanRegistry | None] = contextvars.ContextVar(
    "zeus_span_registry", default=None
)


def current_registry() -> SpanRegistry:
    """The registry ``span()`` records into right now: the innermost
    :func:`use_registry` registry of this context, else the process-wide
    :data:`REGISTRY`."""
    return _ACTIVE.get() or REGISTRY


@contextmanager
def use_registry(registry: SpanRegistry) -> Iterator[SpanRegistry]:
    """Make *registry* the active span collector for this context.

    Unlike :meth:`SpanRegistry.scoped` (which swaps the module global and
    therefore races concurrent users), activation is context-local:
    every thread or asyncio task sees only its own activation.
    """
    token = _ACTIVE.set(registry)
    try:
        yield registry
    finally:
        _ACTIVE.reset(token)


@contextmanager
def span(
    name: str, *, registry: SpanRegistry | None = None, **meta
) -> Iterator[Span | None]:
    """Record *name* on *registry*, or on the contextually active one
    (see :func:`use_registry` and :data:`REGISTRY`).  An explicit
    *registry* also becomes the active registry inside the block, so
    nested spans land in the same place."""
    if registry is None:
        with current_registry().span(name, **meta) as sp:
            yield sp
    else:
        with use_registry(registry):
            with registry.span(name, **meta) as sp:
                yield sp
