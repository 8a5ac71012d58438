"""``zeusc`` -- the Zeus command-line driver.

Subcommands:

* ``check FILE``     -- parse, elaborate and run all static checks;
* ``lint FILE``      -- the ``zeuslint`` pass framework: the driver-
  exclusivity prover plus the structural passes, with per-rule severity
  overrides (``-W``/``-E``/``--disable``) and text/json/sarif output;
* ``stats FILE``     -- netlist statistics after elaboration;
* ``sim FILE``       -- simulate N cycles with optional pokes, print
  the requested signals per cycle (or write a VCD); ``--flight N``
  records the last N cycles in the flight recorder and ``--trace-out``
  dumps the window as ``zeus.trace/1`` JSON;
* ``explain FILE``   -- causal "why" explanation: simulate with the
  flight recorder on and walk ``--net X --cycle C`` backward through
  the recorded firings to the minimal causal cone (text tree, DOT, or
  ``zeus.trace/1`` JSON);
* ``profile FILE``   -- compile-phase timings (lex/parse/elaborate/
  check) plus simulator activity: firing statistics, cycles/sec, and
  the top-N hottest nets and gates; ``--chrome FILE`` exports the run
  as Chrome trace-event JSON for Perfetto;
* ``layout FILE``    -- compute and print the floorplan;
* ``analyze FILE``   -- logic depth, critical path, fan-out statistics;
* ``timing FILE``    -- zeustime static timing analysis: configurable
  delay model (``--model unit|fanout``), min clock period, k-worst
  true critical paths with SAT false-path pruning and witness replay
  (text, ``zeus.timing/1`` JSON, or SARIF);
* ``prove FILE``     -- zeusprove bounded model checking with
  k-induction: multi-drive conflicts, OUT-pin definedness, and
  ``assert:<path>`` user properties, every refutation replayed through
  the simulator (text or ``zeus.proof/1`` JSON);
* ``equiv A B``      -- zeusprove sequential equivalence of two designs
  over matched interfaces (PROVED-EQUIVALENT / COUNTEREXAMPLE /
  UNKNOWN), optionally cross-checked by random co-simulation;
* ``dot FILE``       -- export the semantics graph as Graphviz DOT;
* ``emit-verilog FILE`` -- export the elaborated design as structural
  Verilog (gate primitives + ``zeus_dff`` register idiom) with a
  ``zeus.interchange/1`` manifest carrying the name maps;
* ``import-verilog FILE`` -- read a structural-Verilog netlist
  (including ISCAS85/89-style files) back into a Zeus semantics graph
  and report its shape;
* ``examples``       -- list the bundled paper programs (usable with
  ``--builtin NAME`` instead of FILE everywhere).

``check``, ``lint``, ``sim``, ``analyze``, ``timing``, ``profile``,
``prove`` and ``equiv`` accept ``--metrics FILE`` to dump a machine-readable
``zeus.metrics/1`` JSON report (compile-phase spans, design stats,
and -- where a simulation or proof ran -- the activity counters and
solver statistics).  See ``docs/INTERNALS.md``, "Observability".

Exit codes follow one contract everywhere: 0 clean, 1 warnings or
UNKNOWN verdicts under ``--werror`` or a ``timing --clock`` constraint
violated by a true path, 2 errors -- including parse and elaboration
failures (every subcommand) and refuted properties (``prove``/``equiv``
counterexamples).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import Circuit, ZeusError, ops
from .core.simulator import ENGINES
from .obs import metrics_report, write_metrics
from .obs import spans as _spans


def _load(args: argparse.Namespace, suffix: str = "") -> Circuit:
    """Compile FILE or ``--builtin NAME`` (``FILE2``/``--builtin2`` and
    ``--top2`` with ``suffix="2"``)."""
    builtin = getattr(args, "builtin" + suffix)
    if builtin:
        from .stdlib import programs

        try:
            text = programs.ALL_PROGRAMS[builtin]
        except KeyError:
            raise SystemExit(
                f"unknown builtin {builtin!r}; run 'zeusc examples'"
            )
        name = builtin
    else:
        name = getattr(args, "file" + suffix)
        if not name:
            raise SystemExit("a FILE or --builtin NAME is required")
        with open(name, "r", encoding="utf-8") as f:
            text = f.read()
    src = ops.Source(text, getattr(args, "top" + suffix), not args.lenient)
    return ops.compile_design(src, name=name)


def _write_or_print(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote {output}")
    else:
        print(text, end="")


def _write_metrics(args: argparse.Namespace, circuit: Circuit, registry,
                   sim=None, **sections) -> None:
    """``--metrics FILE``: the zeus.metrics/1 report of this run."""
    if args.metrics:
        write_metrics(args.metrics,
                      metrics_report(circuit, sim, registry, **sections))
        print(f"wrote {args.metrics}")


def _render(report, fmt: str, **text_options) -> str:
    """A lint/proof/timing report as text, JSON or SARIF."""
    if fmt == "json":
        return report.render_json()
    if fmt == "sarif":
        return report.render_sarif()
    return report.render_text(**text_options) + "\n"


def _report_error(args: argparse.Namespace, exc: ZeusError) -> int:
    """The exit-2 contract with a machine face: ``--format json``
    subcommands emit the ``zeus.error/1`` payload (the same renderer
    zeusd uses) on stdout/-o; everything else keeps the one-line
    stderr message."""
    if getattr(args, "format", None) == "json":
        from .lang import SourceText
        from .lang.errors import error_payload

        source = None
        if getattr(exc, "source_text", None) is not None:
            source = SourceText(exc.source_text, exc.source_name)
        _write_or_print(
            json.dumps(error_payload(exc, source), indent=2, sort_keys=True)
            + "\n",
            getattr(args, "output", None),
        )
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("file", nargs="?", help="Zeus source file")
    p.add_argument("--builtin", help="use a bundled paper program instead")
    p.add_argument("--top", help="top-level signal to instantiate")
    p.add_argument(
        "--lenient", action="store_true",
        help="collect check errors instead of failing on the first",
    )


def _add_metrics(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics", metavar="FILE",
        help="write a zeus.metrics/1 JSON report to FILE",
    )


def _add_output(p: argparse.ArgumentParser, what: str = "report") -> None:
    p.add_argument("-o", "--output", metavar="FILE",
                   help=f"write the {what} to FILE instead of stdout")


def _add_stimulus(p: argparse.ArgumentParser) -> None:
    """Pokes, seed and engine: the options every simulating command
    shares."""
    p.add_argument(
        "--poke", action="append", default=[],
        metavar="SIG=VAL[@CYCLE]",
        help="drive SIG with VAL (int) from CYCLE on (default cycle 0)",
    )
    p.add_argument("--seed", type=int, default=ops.SimRequest.seed)
    p.add_argument(
        "--engine", choices=ENGINES, default=ops.SimRequest.engine,
        help="simulation engine: levelized fast path, dataflow firing, "
             "or auto (levelized when the design can be scheduled)",
    )


def _add_formal(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=ops.FormalRequest.depth,
                   metavar="K",
                   help="BMC unrolling bound in cycles (default %(default)s)")
    p.add_argument("--budget", type=int, default=ops.FormalRequest.budget,
                   metavar="N",
                   help="solver node budget per SAT question "
                        "(default %(default)s)")
    p.add_argument("--no-induction", action="store_true",
                   help="skip the k-induction attempt after a clean BMC")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="report format (default text)")
    _add_output(p)
    p.add_argument("--werror", action="store_true",
                   help="exit 1 on UNKNOWN verdicts")


def add_serve_arguments(p: argparse.ArgumentParser) -> None:
    """The ``zeusc serve`` options (also ``python -m
    repro.service.server``)."""
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8471)
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="process-pool shards (default: one per CPU)")
    p.add_argument("--lanes", type=int, default=16, metavar="L",
                   help="sim-session lanes per design (default 16)")
    p.add_argument("--cache-size", type=int, default=128, metavar="N",
                   help="compile-cache capacity (default 128)")
    p.add_argument("--max-queue", type=int, default=None, metavar="N",
                   help="pool backlog before 503 shedding "
                        "(default 2x workers)")
    p.add_argument("--timeout", type=float, default=60.0, metavar="S",
                   help="per-request pool deadline (default 60s)")


def _parse_pokes(specs: list[str]) -> list[tuple[int, str, int]]:
    pokes: list[tuple[int, str, int]] = []
    for spec in specs:
        sig, _, val = spec.partition("=")
        cycle = 0
        if "@" in val:
            val, _, cyc = val.partition("@")
            cycle = int(cyc)
        pokes.append((cycle, sig, int(val, 0)))
    return pokes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="zeusc", description="Zeus HDL compiler/simulator (1983 reproduction)"
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="run all static checks")
    _add_common(p)
    _add_metrics(p)
    p.add_argument("--werror", action="store_true",
                   help="exit 1 when there are warnings")

    p = sub.add_parser(
        "lint", help="static analysis: driver-exclusivity prover + passes"
    )
    _add_common(p)
    _add_metrics(p)
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="report format (default text)")
    _add_output(p)
    p.add_argument("-W", "--warn", action="append", default=[],
                   metavar="RULE[=SEV]",
                   help="set RULE's severity (default warning); SEV is "
                        "error|warning|note|off; RULE may be 'all'")
    p.add_argument("-E", "--error", action="append", default=[],
                   metavar="RULE", help="promote RULE to an error")
    p.add_argument("--disable", action="append", default=[],
                   metavar="RULE", help="turn RULE off")
    p.add_argument("--werror", action="store_true",
                   help="exit 1 when there are warnings")
    p.add_argument("--max-fanout", type=int, metavar="N",
                   help="fanout-limit threshold (default 64)")
    p.add_argument("--max-depth", type=int, metavar="N",
                   help="logic-depth-limit threshold (default 128)")
    p.add_argument("--prover-budget", type=int, metavar="N",
                   help="case-split node budget per driver pair")
    p.add_argument("--show-suppressed", action="store_true",
                   help="include suppressed findings in text output")
    p.add_argument("--list-rules", action="store_true",
                   help="list the registered lint rules and exit")

    p = sub.add_parser("stats", help="netlist statistics")
    _add_common(p)

    p = sub.add_parser("sim", help="simulate")
    _add_common(p)
    _add_metrics(p)
    p.add_argument("--cycles", type=int, default=ops.SimRequest.cycles)
    p.add_argument(
        "--watch", action="append", default=[], metavar="SIG",
        help="signals to print per cycle (default: all ports)",
    )
    p.add_argument("--vcd", help="write a VCD file of the watched signals")
    p.add_argument(
        "--batch", metavar="FILE",
        help="batched bit-parallel sweep: JSON stimulus "
             '({"lanes": N, "pokes": {sig: value-or-per-lane-list}}), '
             "one lane per stimulus, all lanes in one run",
    )
    p.add_argument(
        "--lanes", type=int, default=None, metavar="N",
        help="lane count for --engine batched (default: from --batch, "
             "else 64)",
    )
    _add_stimulus(p)
    p.add_argument(
        "--flight", type=int, default=None, metavar="N",
        help="record the last N cycles in the flight recorder",
    )
    p.add_argument(
        "--trace-out", metavar="FILE",
        help="write the recorded window as zeus.trace/1 JSON "
             "(implies --flight over the whole run)",
    )

    p = sub.add_parser(
        "explain",
        help="causal 'why' explanation of a net value at a cycle",
    )
    _add_common(p)
    p.add_argument("--net", required=True, metavar="SIG",
                   help="the signal to explain")
    p.add_argument("--cycle", type=int, required=True, metavar="C",
                   help="the cycle to explain it at")
    p.add_argument("--cycles", type=int, default=None,
                   help="cycles to simulate (default: CYCLE+1)")
    _add_stimulus(p)
    p.add_argument("--flight", type=int, default=None, metavar="N",
                   help="flight-recorder capacity in cycles "
                        "(default: the whole run)")
    p.add_argument("--max-nodes", type=int, default=500, metavar="N",
                   help="causal-cone walk budget (default 500)")
    p.add_argument("--format", choices=("text", "dot", "json"),
                   default="text",
                   help="text tree, Graphviz DOT, or zeus.trace/1 JSON")
    _add_output(p, "explanation")

    p = sub.add_parser(
        "profile",
        help="compile-phase timings and simulation activity profile",
    )
    _add_common(p)
    _add_metrics(p)
    p.add_argument("--cycles", type=int, default=64,
                   help="cycles to simulate (default 64)")
    p.add_argument("--top-n", type=int, default=10, metavar="N",
                   help="hottest nets/gates to list (default 10)")
    _add_stimulus(p)
    p.add_argument("--chrome", metavar="FILE",
                   help="write the run as Chrome trace-event JSON "
                        "(load in Perfetto / chrome://tracing)")

    p = sub.add_parser("layout", help="compute the floorplan")
    _add_common(p)
    p.add_argument("--svg", help="write the floorplan as SVG")

    p = sub.add_parser("analyze", help="netlist analysis report")
    _add_common(p)
    _add_metrics(p)
    p.add_argument("--cone", metavar="SIG",
                   help="print the cone of influence of a signal")

    p = sub.add_parser(
        "timing",
        help="zeustime: static timing analysis with SAT false-path "
             "pruning",
    )
    _add_common(p)
    _add_metrics(p)
    p.add_argument("--model", default=ops.TimingRequest.model,
                   choices=("unit", "fanout"),
                   help="delay model: unit (historical logic levels, "
                        "default) or fanout (per-opcode gate delays + "
                        "wire-load estimates)")
    p.add_argument("--paths", type=int, default=ops.TimingRequest.paths,
                   metavar="K",
                   help="true critical paths to report (default %(default)s)")
    p.add_argument("--clock", type=float, default=ops.TimingRequest.clock,
                   metavar="T",
                   help="clock-period constraint; exit 1 when a true "
                        "path exceeds it")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="report format (default text)")
    _add_output(p)
    p.add_argument("--no-sat", action="store_true",
                   help="skip SAT false-path pruning (every path "
                        "reports 'assumed')")
    p.add_argument("--budget", type=int, default=ops.TimingRequest.budget,
                   metavar="N",
                   help="solver node budget per path (default %(default)s)")
    p.add_argument("--max-sat", type=int, default=ops.TimingRequest.max_sat,
                   metavar="N",
                   help="SAT classifications per run (default %(default)s)")

    p = sub.add_parser(
        "prove",
        help="zeusprove: bounded model checking with k-induction",
    )
    _add_common(p)
    _add_metrics(p)
    _add_formal(p)
    p.add_argument(
        "--prop", action="append", default=[], metavar="PROP",
        help="property to check: no-conflict, out-defined:<pin>, or "
             "assert:<path>; repeatable (default: no-conflict plus "
             "out-defined for every OUT pin)",
    )

    p = sub.add_parser(
        "equiv",
        help="zeusprove: sequential equivalence of two designs",
    )
    p.add_argument("file", nargs="?", help="first Zeus source file")
    p.add_argument("file2", nargs="?", help="second Zeus source file")
    p.add_argument("--builtin", help="bundled program for the first design")
    p.add_argument("--builtin2", help="bundled program for the second design")
    p.add_argument("--top", help="top-level signal of the first design")
    p.add_argument("--top2", help="top-level signal of the second design")
    p.add_argument("--lenient", action="store_true",
                   help="collect check errors instead of failing on the first")
    _add_metrics(p)
    _add_formal(p)
    p.add_argument(
        "--sample", type=int, metavar="N",
        help="also cross-check with N random co-simulation vectors",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --sample vector generation (default 0)")

    p = sub.add_parser("dot", help="export the semantics graph as DOT")
    _add_common(p)
    _add_output(p, "DOT")
    p.add_argument("--no-synthetic", action="store_true",
                   help="hide elaborator-synthesized helper nets")

    p = sub.add_parser(
        "emit-verilog",
        help="export the design as structural Verilog + "
             "zeus.interchange/1 manifest",
    )
    _add_common(p)
    _add_output(p, "Verilog")
    p.add_argument("--manifest", metavar="FILE",
                   help="write the zeus.interchange/1 manifest JSON to FILE")
    p.add_argument("--module", metavar="NAME",
                   help="emitted module name (default: <design>_mod)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="text prints the Verilog; json prints one object "
                        "with both the Verilog and the manifest")

    p = sub.add_parser(
        "import-verilog",
        help="read a structural-Verilog netlist into a Zeus "
             "semantics graph",
    )
    p.add_argument("file", help="Verilog source file")
    p.add_argument("--top", metavar="MODULE",
                   help="top module (default: the uninstantiated one)")
    p.add_argument("--format", choices=("text", "json"), default="text",
                   help="text prints a shape summary; json prints the "
                        "identity zeus.interchange/1 manifest")
    _add_output(p)

    p = sub.add_parser(
        "serve",
        help="zeusd: serve compile/lint/sim/prove/timing over HTTP "
             "(content-hash compile cache, process-pool SAT shards, "
             "lane-multiplexed sim sessions)",
    )
    add_serve_arguments(p)

    sub.add_parser("examples", help="list bundled paper programs")

    args = parser.parse_args(argv)

    if args.cmd == "serve":
        from .service.server import serve

        return serve(args)

    if args.cmd == "examples":
        from .stdlib import programs

        for name in sorted(programs.ALL_PROGRAMS):
            print(name)
        return 0

    if args.cmd == "lint" and args.list_rules:
        from .lint import RULES

        for rule in sorted(RULES.values(), key=lambda r: r.code):
            line = (f"{rule.code}  {rule.name:<20} "
                    f"{rule.default_severity.name.lower():<8} {rule.summary}")
            if rule.paper:
                line += f" [paper {rule.paper}]"
            print(line)
        return 0

    # Capture this invocation's compile-phase spans on a private
    # registry (the process-wide REGISTRY is left untouched, so library
    # embedders running zeusc in-process do not race it).
    registry = _spans.SpanRegistry()
    with _spans.use_registry(registry):
        return _dispatch(args, registry)


def _dispatch(args: argparse.Namespace, registry) -> int:
    """Compile the design, run the subcommand, and hold every path to
    the exit-code contract: a design that fails to parse, elaborate or
    check is an error (with a ``zeus.error/1`` payload under ``--format
    json``), and so is a runtime failure -- a strict-mode violation, an
    unknown poke/watch signal, a bad stimulus or option.  Never a
    traceback, never a silent 1 that looks like mere warnings."""
    circuit = None
    if args.cmd not in ("equiv", "import-verilog"):
        try:
            circuit = _load(args)
        except ZeusError as exc:
            return _report_error(args, exc)
    try:
        return _COMMANDS[args.cmd](args, circuit, registry)
    except ops.RUNTIME_ERRORS as exc:
        print(f"error: {ops.error_text(exc)}", file=sys.stderr)
        return 2


def _check(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    for diag in circuit.diagnostics.diagnostics:
        print(diag.render(circuit.design.source))
    errors = len(circuit.diagnostics.errors)
    warnings = len(circuit.diagnostics.warnings)
    print(f"{circuit.name}: {errors} error(s), {warnings} warning(s)")
    _write_metrics(args, circuit, registry)
    if errors:
        return 2
    if args.werror and warnings:
        return 1
    return 0


def _stats(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    print(circuit.netlist.describe())
    for port in circuit.netlist.ports:
        print(f"  {port.mode:>5} {port.name} [{len(port.nets)} bits]")
    return 0


def _layout(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    plan = circuit.layout()
    print(f"{circuit.name}: {plan.width} x {plan.height} "
          f"(area {plan.area}, {plan.leaf_count()} cells)")
    print(plan.render_text())
    if args.svg:
        _write_or_print(plan.render_svg(), args.svg)
    return 0


def _analyze(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    from .analysis import cone_of_influence, critical_path, summary

    info = summary(circuit.netlist)
    for key, value in info.items():
        print(f"{key:>16}: {value}")
    path = critical_path(circuit.netlist)
    named = [p for p in path if not p.split(".")[-1].startswith("$")]
    print(f"{'critical path':>16}: " + " -> ".join(named))
    if args.cone:
        nets = circuit.netlist.signals.get(args.cone)
        if nets is None:
            nets = circuit.netlist.signals.get(f"{circuit.name}.{args.cone}")
        if not nets:
            print(f"error: unknown signal {args.cone!r}", file=sys.stderr)
            return 1
        cone = sorted(cone_of_influence(circuit.netlist, nets[0]))
        named = [c for c in cone if not c.split(".")[-1].startswith("$")]
        print(f"{'cone of ' + args.cone:>16}: {', '.join(named)}")
    _write_metrics(args, circuit, registry)
    return 0


def _dot(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    from .analysis import to_dot

    _write_or_print(
        to_dot(circuit.netlist, include_synthetic=not args.no_synthetic),
        args.output,
    )
    return 0


_LANE_GLYPHS = {"0": "0", "1": "1", "UNDEF": "X", "NOINFL": "Z"}


def _lane_cell(bits) -> str:
    """Render one lane's value: an int when fully defined, else a
    MSB-first glyph string (X = UNDEF, Z = NOINFL)."""
    from .core.values import num_of

    value = num_of(bits)
    if value is not None:
        return str(value)
    return "".join(_LANE_GLYPHS[str(b)] for b in reversed(bits))


def _print_lanes(run: ops.SimRun) -> None:
    """The ``zeusc sim`` batched table: one row per lane."""
    sim, lanes = run.sim, run.sim.lanes
    mode = "bit-parallel" if sim._batched_fast else "per-lane fallback"
    if sim.codegen_backend is not None:
        mode += f", {sim.codegen_backend} planes"
    print(f"{sim.engine} run: {lanes} lanes x {run.cycles} cycles ({mode})")
    if sim.engine_reason:
        print(f"  ({sim.engine_reason})")
    columns = [(name, sim.peek_lanes(name)) for name in run.watch]
    cells = [
        [_lane_cell(per_lane[k]) for name, per_lane in columns]
        for k in range(lanes)
    ]
    headers = ["lane"] + [name for name, _ in columns]
    widths = [
        max(len(headers[c]), *(len(row[c - 1]) if c else len(str(k))
                               for k, row in enumerate(cells)))
        for c in range(len(headers))
    ]
    print("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    for k, row in enumerate(cells):
        print("  ".join(
            v.rjust(w) for v, w in zip([str(k)] + row, widths)
        ))


def _sim(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    """The ``zeusc sim`` body: a scalar run prints the per-cycle trace;
    ``--batch``/``--lanes``/a lane engine prints one final per-lane
    table of the watched signals."""
    batched = bool(args.batch) or args.lanes is not None or args.engine in (
        "batched", "codegen"
    )
    stim = lanes = None
    engine = args.engine
    if batched:
        from .core.batched import BatchStimulus

        stim = BatchStimulus.from_json(args.batch) if args.batch else None
        lanes = (args.lanes if args.lanes is not None
                 else stim.lanes if stim is not None else 64)
        if stim is not None and stim.lanes != lanes:
            print(
                f"error: --lanes {lanes} conflicts with --batch lane count "
                f"{stim.lanes}",
                file=sys.stderr,
            )
            return 2
        engine = "codegen" if args.engine == "codegen" else "batched"
    flight = args.flight
    if flight is None and args.trace_out:
        flight = max(args.cycles, 1)  # --trace-out records the whole run
    run = ops.simulate(circuit, ops.SimRequest(
        cycles=args.cycles, pokes=_parse_pokes(args.poke), watch=args.watch,
        seed=args.seed, engine=engine, lanes=lanes, flight=flight,
        metrics=bool(args.metrics), strict=not args.lenient,
        trace=not batched,
    ), stimulus=stim)
    sim = run.sim
    if batched:
        _print_lanes(run)
    else:
        print(run.trace.render_ascii())
    if sim.violations:
        print(f"{len(sim.violations)} runtime violation(s):")
        for v in sim.violations:
            print(f"  {v}")
    if args.vcd and not batched:
        run.trace.write_vcd(args.vcd, circuit.name)
        print(f"wrote {args.vcd}")
    if args.trace_out:
        from .obs import trace_report, write_trace

        write_trace(args.trace_out, trace_report(circuit, sim))
        print(f"wrote {args.trace_out}")
    _write_metrics(args, circuit, registry, sim, elapsed=run.elapsed)
    return 0


def _emit_verilog(args: argparse.Namespace, circuit: Circuit,
                  registry) -> int:
    """The ``zeusc emit-verilog`` body: walk the elaborated netlist,
    write structural Verilog and the zeus.interchange/1 manifest.  An
    unencodable design shape (see :mod:`repro.interchange.emit`) is an
    error under the exit contract (2)."""
    try:
        text, manifest = ops.emit_verilog(circuit, args.module)
    except ZeusError as exc:
        return _report_error(args, exc)
    if args.format == "json":
        text = json.dumps({"verilog": text, "manifest": manifest},
                          indent=2, sort_keys=True) + "\n"
    _write_or_print(text, args.output)
    if args.manifest:
        _write_or_print(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                        args.manifest)
    return 0


def _import_verilog(args: argparse.Namespace, circuit, registry) -> int:
    """The ``zeusc import-verilog`` body: parse the structural subset,
    rebuild the semantics graph, report its shape.  Unsupported
    constructs, dangling instance ports and duplicate modules exit 2
    with a ``zeus.error/1`` payload (``--format json``) naming the
    source line."""
    with open(args.file, "r", encoding="utf-8") as f:
        text = f.read()
    try:
        design = ops.import_verilog(text, args.file, args.top)
    except ZeusError as exc:
        return _report_error(args, exc)
    if args.format == "json":
        from .interchange import import_manifest

        _write_or_print(
            json.dumps(import_manifest(design), indent=2, sort_keys=True)
            + "\n",
            args.output,
        )
        return 0
    stats = design.netlist.stats()
    info = design.interchange
    lines = [
        f"{design.name}: imported from {args.file}",
        f"  modules   : {', '.join(info['modules'])} "
        f"(top {info['top']}, {info['flattened_instances']} "
        f"flattened instance(s))",
        f"  intrinsics: {', '.join(info['intrinsics']) or '-'}",
        f"  netlist   : {stats['nets']} nets, {stats['gates']} gates, "
        f"{stats['connections']} connections, "
        f"{stats['registers']} registers",
    ]
    for port in design.netlist.ports:
        lines.append(f"  {port.mode:>5} {port.name} [{len(port.nets)} bits]")
    _write_or_print("\n".join(lines) + "\n", args.output)
    return 0


def _lint(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    """The ``zeusc lint`` body: build the request from the CLI flags, run
    every enabled pass, render, honor the exit-code contract."""
    report = ops.lint(circuit, ops.LintRequest(
        werror=args.werror, warn=args.warn, error=args.error,
        disable=args.disable, max_fanout=args.max_fanout,
        max_depth=args.max_depth, prover_budget=args.prover_budget,
    ))
    _write_or_print(
        _render(report, args.format, show_suppressed=args.show_suppressed),
        args.output,
    )
    _write_metrics(args, circuit, registry, lint=report)
    return report.exit_code()


def _explain(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    """The ``zeusc explain`` body: simulate with the flight recorder on,
    then walk the causal cone of ``--net`` at ``--cycle``.

    The run is always lenient (strict mode would abort at the very
    conflict being diagnosed); an unknown net or a cycle outside the
    recorded window is an error under the exit-code contract (2)."""
    from .obs import causal, export

    cycles = args.cycles if args.cycles is not None else args.cycle + 1
    if cycles < 1:
        print(f"error: --cycle {args.cycle} is before the first cycle (0)",
              file=sys.stderr)
        return 2
    run = ops.simulate(circuit, ops.SimRequest(
        cycles=cycles, pokes=_parse_pokes(args.poke), seed=args.seed,
        engine=args.engine,
        flight=args.flight if args.flight is not None else cycles,
    ))
    explanation = causal.explain(
        run.sim, args.net, args.cycle, max_nodes=args.max_nodes
    )
    if args.format == "dot":
        text = explanation.render_dot() + "\n"
    elif args.format == "json":
        report = export.trace_report(circuit, run.sim,
                                     explanation=explanation)
        export.validate_trace_report(report)
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = explanation.render_text() + "\n"
    _write_or_print(text, args.output)
    return 0


def _profile(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    """The ``zeusc profile`` body: phase timings, activity statistics,
    hottest nets/gates, optional JSON export."""
    run = ops.simulate(circuit, ops.SimRequest(
        cycles=args.cycles, pokes=_parse_pokes(args.poke), seed=args.seed,
        engine=args.engine, metrics=True, strict=not args.lenient,
    ))
    sim, elapsed = run.sim, run.elapsed
    stats = circuit.netlist.stats()
    print(f"== {circuit.name}: {stats['nets']} nets, {stats['gates']} gates, "
          f"{stats['registers']} registers ==")
    engine_line = sim.engine
    if sim.engine_reason:
        engine_line += f" ({sim.engine_reason})"
    print(f"simulation engine : {engine_line}")
    print("\ncompile phases:")
    print(registry.render())
    print("\nsimulation activity:")
    print(sim.metrics.render(top=args.top_n))
    rate = args.cycles / elapsed if elapsed > 0 else float("inf")
    print(f"\nwall clock        : {elapsed * 1e3:.2f} ms "
          f"for {args.cycles} cycles ({rate:,.0f} cycles/sec)")
    if args.chrome:
        from .obs import chrome_trace, write_chrome_trace

        write_chrome_trace(
            args.chrome, chrome_trace(registry, sim, elapsed=elapsed)
        )
        print(f"wrote {args.chrome}")
    _write_metrics(args, circuit, registry, sim, elapsed=elapsed,
                   top=args.top_n)
    return 0


def _timing(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    """The ``zeusc timing`` body: run the STA, render, honor the
    exit-code contract (1 on a violated --clock constraint)."""
    report = ops.timing(circuit, ops.TimingRequest(
        model=args.model, clock=args.clock, paths=args.paths,
        sat=not args.no_sat, budget=args.budget, max_sat=args.max_sat,
    ))
    _write_or_print(_render(report, args.format), args.output)
    _write_metrics(args, circuit, registry, timing=report)
    return report.exit_code()


def _formal_request(args: argparse.Namespace, cls=ops.FormalRequest,
                    **extra):
    return cls(depth=args.depth, budget=args.budget,
               induction=not args.no_induction, **extra)


def _emit_formal(args: argparse.Namespace, report, circuit,
                 registry) -> int:
    """Render/write a zeus.proof/1 report and apply the exit contract."""
    _write_or_print(_render(report, args.format), args.output)
    _write_metrics(args, circuit, registry, formal=report)
    return report.exit_code(werror=args.werror)


def _prove(args: argparse.Namespace, circuit: Circuit, registry) -> int:
    """The ``zeusc prove`` body: BMC + k-induction over the properties."""
    report = ops.prove(circuit, _formal_request(
        args, ops.ProveRequest, props=args.prop or None))
    return _emit_formal(args, report, circuit, registry)


def _equiv(args: argparse.Namespace, circuit, registry) -> int:
    """The ``zeusc equiv`` body: load both designs, run the miter, and
    optionally cross-check with random co-simulation."""
    try:
        a, b = _load(args), _load(args, "2")
    except ZeusError as exc:
        return _report_error(args, exc)
    report = ops.equiv(a, b, _formal_request(args))
    code = _emit_formal(args, report, a, registry)
    if args.sample:
        from .analysis import random_equivalent

        sampled = random_equivalent(a, b, trials=args.sample,
                                    seed=args.seed)
        verdict = "agree" if sampled.equivalent else "MISMATCH"
        print(f"co-simulation: {sampled.vectors_checked} random "
              f"vector(s) (seed {sampled.seed}): {verdict}")
        if not sampled.equivalent:
            for m in sampled.mismatches[:4]:
                print(f"  {m}")
            code = max(code, 2)
    return code


_COMMANDS = {
    "check": _check,
    "lint": _lint,
    "stats": _stats,
    "sim": _sim,
    "explain": _explain,
    "profile": _profile,
    "layout": _layout,
    "analyze": _analyze,
    "timing": _timing,
    "prove": _prove,
    "equiv": _equiv,
    "dot": _dot,
    "emit-verilog": _emit_verilog,
    "import-verilog": _import_verilog,
}


if __name__ == "__main__":
    raise SystemExit(main())
