"""Layer spans recorded from outside the program.

:func:`install` wraps the public entry point of every layer named in
``BENCHMARK.json``'s ``per_layer`` list and rebinds each wrapper
wherever a loaded ``repro`` module holds the original, so calls made
through any import path are timed.  Spans nest per thread; a layer's
self time is its span minus the spans of the layers called under it.
Spans are folded into per-name totals as they close (count, inclusive
seconds, self seconds, work units), so tracing keeps no per-call
records and its cost does not grow with run length.

The program's own ``SpanRegistry.self_times`` is not used: it subtracts
child spans by path name, so spans of concurrent requests in one
daemon registry overlap and produce negative self times (a compile
self time of -476 s was observed on a loaded daemon).
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, inclusive s, self s, work units]
        self.totals: dict[str, list] = {}
        #: (owner, attribute, original) for every binding install() made
        self.installed: list[tuple] = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def record(self, name: str, dur: float, self_s: float, work: float):
        with self._lock:
            t = self.totals.get(name)
            if t is None:
                t = self.totals[name] = [0, 0.0, 0.0, 0.0]
            t[0] += 1
            t[1] += dur
            t[2] += self_s
            t[3] += work

    def wrap(self, name, fn, *, label=None, work=None):
        """A wrapper timing *fn* as span *name* (``label(args)`` may
        refine the name; ``work(args, result)`` counts work units)."""
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            frame = [0.0]
            stack.append(frame)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
            span = label(args, kwargs) if label else name
            units = work(args, kwargs, result) if work else 0
            tracer.record(span, dur, dur - frame[0], units)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def get(self, name: str):
        return self.totals.get(name, [0, 0.0, 0.0, 0.0])

    def self_ms(self, name: str) -> float:
        """Mean self time per call, in ms (0 when the layer never ran)."""
        calls, _inc, self_s, _w = self.get(name)
        return self_s / calls * 1e3 if calls else 0.0

    def rate(self, name: str) -> float:
        """Work units per second of the layer's self time."""
        _c, _inc, self_s, units = self.get(name)
        return units / self_s if self_s > 0 else 0.0


def _rebind(orig, replacement, undo: list) -> None:
    """Point every ``repro`` module global that holds *orig* at
    *replacement*, recording each binding in *undo*."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, orig))


def _nets(design) -> int:
    return len(design.netlist.nets)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point (imports each layer first so lazy
    ``from .x import f`` call sites see the wrapper too); undone by
    :func:`uninstall`."""
    uninstall(tracer)
    undo = tracer.installed
    # import_module, not ``import a.b as m``: repro.core re-exports the
    # function ``elaborate`` under its submodule's name.
    mod = importlib.import_module
    cli = mod("repro.cli")
    checker = mod("repro.core.checker")
    codegen = mod("repro.core.codegen")
    elaborate = mod("repro.core.elaborate")
    schedule = mod("repro.core.schedule")
    simulator = mod("repro.core.simulator")
    emit = mod("repro.interchange.emit")
    lexer = mod("repro.lang.lexer")
    parser = mod("repro.lang.parser")
    lint = mod("repro.lint")
    timing = mod("repro.timing")

    def tokens(args, kwargs, result):
        return len(result[0])

    def elaborated(args, kwargs, result):
        return _nets(result)

    def checked(args, kwargs, result):
        return _nets(args[0])

    points = [
        ("lexer", lexer.tokenize_with_comments, tokens),
        ("parser", parser.parse, None),
        ("elaborate", elaborate.elaborate, elaborated),
        ("checker", checker.check, checked),
        ("schedule", schedule.build_schedule, None),
        ("codegen", codegen.compile_step, None),
        ("lint", lint.run_lint, None),
        ("timing", timing.analyze_timing, None),
        ("interchange.emit", emit.emit_verilog, None),
        ("cli", cli.main, None),
    ]
    for name, fn, work in points:
        _rebind(fn, tracer.wrap(name, fn, work=work), undo)

    Sim = simulator.Simulator

    def step_label(args, kwargs):
        sim = args[0]
        kind = "simulator.step" if sim.lanes is None else "simulator.lane_step"
        return f"{kind}:{sim.design.name}"

    def step_cycles(args, kwargs, result):
        if len(args) > 1:
            return args[1]
        return kwargs.get("cycles", 1)

    for attr, wrapped in (
        ("__init__", tracer.wrap("simulator.construct", Sim.__init__)),
        ("step", tracer.wrap("simulator.step", Sim.step, label=step_label,
                             work=step_cycles)),
        ("poke", tracer.wrap("simulator.poke", Sim.poke)),
        ("poke_lanes", tracer.wrap("simulator.poke_lanes", Sim.poke_lanes)),
    ):
        undo.append((Sim, attr, getattr(Sim, attr)))
        setattr(Sim, attr, wrapped)


def uninstall(tracer: Tracer) -> None:
    """Restore every binding :func:`install` changed (tracing off)."""
    while tracer.installed:
        owner, attr, orig = tracer.installed.pop()
        setattr(owner, attr, orig)


def parser_tokens(tracer: Tracer) -> float:
    """Tokens per second of parser self time (the parser consumes the
    lexer's tokens, so the lexer's count is the parser's work)."""
    _c, _inc, self_s, _u = tracer.get("parser")
    tokens = tracer.get("lexer")[3]
    return tokens / self_s if self_s > 0 else 0.0
