"""The operations layer: one function per tool operation, shared by
``zeusc`` (:mod:`repro.cli`), ``zeusd`` (:mod:`repro.service.server`)
and the pool jobs (:mod:`repro.service.jobs`).

Each takes the compiled design(s) plus a request object whose field
defaults are declared once, on its class, and returns the report the
surfaces render (:func:`reply` gives its JSON form).  The daemon builds
requests with :func:`from_json`; a missing or wrongly typed field is a
:class:`BadRequest`.  Heavy subsystems are imported inside the
functions, so ``import repro.cli`` stays cheap.
"""

from __future__ import annotations

import functools
import json
import time
import typing
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields

from . import Circuit, ZeusError, compile_text

#: Field metadata for CLI-only options: :func:`from_json` skips them.
LOCAL = {"wire": False}

#: What a bad poke, watch path, stimulus or option raises from an
#: operation: reported as an error (CLI exit 2, HTTP 400), never a
#: traceback.
RUNTIME_ERRORS = (ZeusError, KeyError, ValueError, TypeError)


class BadRequest(ValueError):
    """A request field is missing or has the wrong type or value."""


# -- requests ---------------------------------------------------------------


@dataclass
class Source:
    """One design to compile: its text and the compile options."""

    source: str
    top: str | None = None
    strict: bool = True


@dataclass
class SimRequest:
    """Run *cycles* clock cycles under the poke schedule, then read the
    watched signals (default: every port)."""

    cycles: int = 8
    #: ``(cycle, path, value)``: drive *path* with *value* from *cycle* on.
    pokes: list[tuple[int, str, object]] = field(default_factory=list)
    watch: list[str] = field(default_factory=list)
    seed: int = 0
    engine: str = "auto"
    lanes: int | None = field(default=None, metadata=LOCAL)
    flight: int | None = field(default=None, metadata=LOCAL)
    metrics: bool = field(default=False, metadata=LOCAL)
    strict: bool = field(default=False, metadata=LOCAL)
    #: attach a :class:`~repro.core.trace.Trace` of the watched signals.
    trace: bool = field(default=False, metadata=LOCAL)

    def __post_init__(self):
        if self.cycles < 0:
            raise BadRequest("cycles must be >= 0")


@dataclass
class LintRequest:
    """Lint options; ``None`` thresholds keep the lint defaults."""

    werror: bool = False
    warn: list[str] = field(default_factory=list,  # RULE[=SEVERITY]
                            metadata=LOCAL)
    error: list[str] = field(default_factory=list, metadata=LOCAL)
    disable: list[str] = field(default_factory=list, metadata=LOCAL)
    max_fanout: int | None = field(default=None, metadata=LOCAL)
    max_depth: int | None = field(default=None, metadata=LOCAL)
    prover_budget: int | None = field(default=None, metadata=LOCAL)


@dataclass
class FormalRequest:
    """The prove/equiv knobs (:class:`repro.formal.FormalConfig`
    inherits these defaults)."""

    depth: int = 8
    budget: int = 100_000
    induction: bool = True


@dataclass
class ProveRequest(FormalRequest):
    #: ``no-conflict``, ``out-defined:<pin>`` or ``assert:<path>``;
    #: ``None`` checks the standing obligations.
    props: list[str] | None = None


@dataclass
class TimingRequest:
    """The STA knobs (:func:`repro.timing.analyze_timing` takes its
    defaults from here)."""

    model: str = "unit"
    clock: float | None = None
    paths: int = 4
    sat: bool = True
    budget: int = 20_000
    max_sat: int = 200


# Cached: resolving the annotations costs more than checking a request.
_hints = functools.cache(typing.get_type_hints)


def from_json(cls, body: dict, names: dict | None = None):
    """Build a *cls* request from a JSON object.  Absent fields keep
    their declared defaults; *names* maps a field to a different JSON
    key (``{"source": "source2"}``)."""
    hints = _hints(cls)
    kwargs = {}
    for f in fields(cls):
        if not f.metadata.get("wire", True):
            continue
        key = (names or {}).get(f.name, f.name)
        if key in body:
            kwargs[f.name] = typed(body, key, hints[f.name])
        elif f.default is MISSING and f.default_factory is MISSING:
            raise BadRequest(f"missing {key!r}")
    return cls(**kwargs)


def typed(body: dict, key: str, hint, default=None):
    """``body[key]`` (or *default*), checked against the type *hint*."""
    value = body.get(key, default)
    if not _is(value, hint):
        name = str(hint) if typing.get_args(hint) else hint.__name__
        raise BadRequest(
            f"{key!r} must be {name}, got {type(value).__name__}")
    return value


def _is(value, hint) -> bool:
    if hint is object:
        return True
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list:
        return isinstance(value, list) and all(_is(v, args[0]) for v in value)
    if origin is tuple:
        return (isinstance(value, (list, tuple)) and len(value) == len(args)
                and all(map(_is, value, args)))
    if args:  # a union
        return any(_is(value, a) for a in args)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def error_text(exc: Exception) -> str:
    """The one-line message for a :data:`RUNTIME_ERRORS` failure; a bare
    unknown-path ``KeyError`` names the signal."""
    if isinstance(exc, KeyError):
        what = exc.args[0] if exc.args else exc
        if isinstance(what, str) and " " in what:
            return what
        return f"unknown signal {what!r}"
    return str(exc)


@contextmanager
def _located(text: str, name: str):
    """Keep the failing source on a ZeusError so ``zeus.error/1``
    payloads can carry line/column positions."""
    try:
        yield
    except ZeusError as exc:
        exc.source_text, exc.source_name = text, name
        raise


# -- compile/check ----------------------------------------------------------


def compile_design(src: Source, *, name: str = "<string>",
                   registry=None) -> Circuit:
    """Parse, elaborate and run the static checks."""
    with _located(src.source, name):
        return compile_text(src.source, src.top, name=name,
                            strict=src.strict, registry=registry)


# -- simulation -------------------------------------------------------------


def signals(sim, watch) -> dict:
    """The watched signals' current bits, as JSON replies carry them."""
    return {path: [str(b) for b in sim.peek(path)] for path in watch}


def violations(found) -> list[dict]:
    """Runtime violations, as JSON replies carry them."""
    return [
        {"cycle": v.cycle, "net": v.net, "values": [str(x) for x in v.values]}
        for v in found
    ]


def poke_schedule(sim, pokes, cycles: int):
    """Yield cycles ``0..cycles-1`` for the caller to step, first
    applying each cycle's pokes: a poke at cycle C drives from C on, and
    pokes of one cycle apply in the order given."""
    plan = sorted(pokes, key=lambda p: p[0])
    applied = 0
    for t in range(cycles):
        while applied < len(plan) and plan[applied][0] <= t:
            _cycle, path, value = plan[applied]
            sim.poke(path, value)
            applied += 1
        yield t


def start_sim(circuit: Circuit, req: SimRequest, *, entry=None,
              stimulus=None):
    """Build *req*'s simulator (through the compile-cache *entry* when
    given, reusing its schedule) and check every watch path and poke
    (path, width, value) before the first cycle.  Returns ``(sim,
    watch, cycles)``, ``cycles`` being the :func:`poke_schedule`."""
    from .core.simulator import _coerce_bits

    lanes = {} if req.lanes is None else {"lanes": req.lanes}
    sim = (entry or circuit).simulator(
        seed=req.seed, strict=req.strict, metrics=req.metrics,
        engine=req.engine, flight=req.flight, **lanes,
    )
    if stimulus is not None:
        stimulus.apply(sim)
    watch = req.watch or [p.name for p in circuit.netlist.ports]
    for path in watch:
        sim.nets_of(path)
    for _cycle, path, value in req.pokes:
        _coerce_bits(value, len(sim.nets_of(path)), path)
    return sim, watch, poke_schedule(sim, req.pokes, req.cycles)


class SimRun:
    """A finished simulation and the wall time of its stepping."""

    def __init__(self, sim, watch: list[str], cycles: int, elapsed: float,
                 trace=None):
        self.sim, self.watch, self.cycles = sim, watch, cycles
        self.elapsed, self.trace = elapsed, trace

    def payload(self) -> dict:
        return {
            "design": self.sim.design.name,
            "engine": self.sim.engine,
            "cycles": self.cycles,
            "signals": signals(self.sim, self.watch),
            "violations": violations(self.sim.violations),
        }


def simulate(circuit: Circuit, req: SimRequest, *, entry=None,
             stimulus=None) -> SimRun:
    """Run *req* to the end (``zeusc sim|explain|profile``, ``/v1/sim``
    and its pooled form)."""
    sim, watch, cycles = start_sim(circuit, req, entry=entry,
                                   stimulus=stimulus)
    trace = None
    if req.trace:
        from .core.trace import Trace

        trace = Trace(watch)
        sim.attach_trace(trace)
    t0 = time.perf_counter()
    for _ in cycles:
        sim.step()
    return SimRun(sim, watch, req.cycles, time.perf_counter() - t0, trace)


# -- analyses ---------------------------------------------------------------


def lint(circuit: Circuit, req: LintRequest):
    """The zeuslint passes under *req*'s severities; a ``LintReport``."""
    from .lint import LintConfig, run_lint

    config = LintConfig(werror=req.werror)
    for knob in ("max_fanout", "max_depth", "prover_budget"):
        if getattr(req, knob) is not None:
            setattr(config, knob, getattr(req, knob))
    for spec in req.warn:
        rule, _, sev = spec.partition("=")
        config.set_severity(rule.strip(), (sev or "warning").strip())
    for rule in req.error:
        config.set_severity(rule.strip(), "error")
    for rule in req.disable:
        config.set_severity(rule.strip(), "off")
    return run_lint(circuit, config)


def _formal_config(req: FormalRequest):
    from .formal import FormalConfig

    return FormalConfig(depth=req.depth, budget=req.budget,
                        induction=req.induction)


def prove(circuit: Circuit, req: ProveRequest):
    """BMC + k-induction over *req*'s properties; a ``ProofReport``."""
    from . import formal

    return formal.prove(circuit, req.props or None, _formal_config(req))


def equiv(a: Circuit, b: Circuit, req: FormalRequest):
    """Sequential equivalence of two designs; a ``ProofReport``."""
    from .formal import check_equivalence

    return check_equivalence(a, b, _formal_config(req))


def timing(circuit: Circuit, req: TimingRequest):
    """SAT-pruned static timing analysis; a ``TimingReport``."""
    from .timing import analyze_timing

    return analyze_timing(
        circuit, model=req.model, clock=req.clock, k=req.paths,
        sat=req.sat, budget=req.budget, max_sat=req.max_sat,
    )


# -- Verilog interchange ----------------------------------------------------


def emit_verilog(circuit: Circuit, module: str | None = None):
    """Structural Verilog plus its ``zeus.interchange/1`` manifest."""
    from .interchange import emit_verilog as emit

    source = circuit.design.source
    with _located(getattr(source, "text", None),
                  getattr(source, "name", None)):
        return emit(circuit.design, module_name=module)


def import_verilog(text: str, name: str, top: str | None = None):
    """Read a structural-Verilog netlist into a Zeus design."""
    from .interchange import read_verilog

    with _located(text, name):
        return read_verilog(text, name=name, top=top)


# -- JSON replies -----------------------------------------------------------


def reply(result) -> dict:
    """The JSON form of an operation's result, as zeusd and the pool
    jobs return it."""
    if isinstance(result, SimRun):
        return result.payload()
    return {
        "report": json.loads(result.render_json()),
        "exit_code": result.exit_code(),
    }
