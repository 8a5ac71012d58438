"""``cli``: one serial process runs ``zeusc check|sim --cycles 100|lint|
timing|emit-verilog`` over the bundled ``examples/zeus/*.zeus`` files,
each in a fresh interpreter (``python -m repro.cli``, the ``zeusc``
entry point), closed loop.

``lint htree.zeus`` is left out: that design really has a driver
conflict, so the command exits 2 by design, and a nonzero exit counts
as a failed operation.  That leaves 39 commands per round.  The seed
orders each round; a round is never cut short, so every run times
every command equally often.

Import and the front end dominate here; lazy imports show here and
almost nowhere else.

Setup (``setup_s``): a fresh private bytecode cache warmed with
``compileall`` plus one untimed ``zeusc check``; median of three, the
last cache is the one the timed runs use.

Gated: ``latency_ms`` is ``cli_ms_p50``, the median wall time over all
runs, and ``throughput`` is ``cli_runs_per_s``, the runs completed per
second.  Whole rounds keep the command mix the same in every run.

Checks: each command's exit code and stdout digest equal refs.json.

Traced (``--trace 1``): the same commands replayed in-process through
``repro.cli.main`` with the layer wrappers installed; ``cli.self_ms``
is ``main`` minus the layer spans under it (argparse, rendering, I/O).
The first replayed round runs untraced, to warm lazy imports, and the
second untraced round is the base for ``trace.overhead_pct``.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import time

import common
from run import import_layer, layer_metrics

SUBCOMMANDS = (
    ("check",),
    ("sim", "--cycles", "100"),
    ("lint",),
    ("timing",),
    ("emit-verilog",),
)
#: commands whose nonzero exit is the program's correct answer.
EXCLUDED = {("lint", "htree.zeus")}
SETUP_REPS = 3


def commands(tiny: bool = False) -> list[tuple[str, ...]]:
    files = sorted(f for f in os.listdir(common.EXAMPLES) if f.endswith(".zeus"))
    if tiny:
        files = files[:1]
    return [
        (*sub, f"examples/zeus/{f}")
        for f in files for sub in SUBCOMMANDS
        if (sub[0], f) not in EXCLUDED
    ]


def key(cmd) -> str:
    return " ".join(cmd)


def run(ctx):
    args, report, refs = ctx["args"], ctx["report"], ctx["refs"]
    tiny = args.scale == "tiny"
    pinned = refs["cli"]
    cmds = commands(tiny)
    rng = random.Random(f"cli/{args.seed}")

    reps = []
    pin = ctx["pin"]
    for i in range(1 if tiny else SETUP_REPS):
        if i:
            pin.remove()
            pin = ctx["pin"] = common.PycachePin(f"cli{i}")
        t0 = time.perf_counter()
        pin.warm()
        code, _o, _w, _r = common.run_child(
            [common.PYTHON, "-m", "repro.cli", "check",
             "examples/zeus/blackjack.zeus"], pin.env())
        reps.append(time.perf_counter() - t0)
        if code != 0:
            raise common.BenchError("zeusc check failed during set-up")
    env = pin.env()
    ctx["env"] = env
    setup_s = common.median(reps)
    report.name("setup_s", setup_s, "s", len(reps))

    if args.trace:
        return _traced(ctx, cmds, rng, setup_s)

    walls: list[float] = []
    rss = 0.0
    deadline = time.perf_counter() + args.seconds
    t_start = time.perf_counter()
    while True:
        order = list(cmds)
        rng.shuffle(order)
        for cmd in order:
            code, out, wall, child_rss = common.run_child(
                [common.PYTHON, "-m", "repro.cli", *cmd], env, timeout=60)
            walls.append(wall * 1e3)
            rss = max(rss, child_rss)
            want = pinned.get(key(cmd), {})
            report.op(code == 0 and code == want.get("exit")
                      and common.digest(out) == want.get("stdout"),
                      f"cli {key(cmd)}: exit {code}")
        if tiny or time.perf_counter() >= deadline:
            break
    throughput = len(walls) / (time.perf_counter() - t_start)
    latency = common.median(walls)
    report.name("cli_ms_p50", latency, "ms", len(walls))
    report.name("cli_ms_p90", common.percentile(walls, 90), "ms", len(walls))
    report.name("cli_runs_per_s", throughput, "1/s", len(walls))
    report.name("peak_rss_mb", rss, "MB")
    slots = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "throughput": throughput,
        "latency_ms": latency,
    }
    return slots, None


def _replay(main, cmd):
    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(cmd))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue().encode("utf-8"), time.perf_counter() - t0


def _traced(ctx, cmds, rng, setup_s):
    import layers

    args, report, refs = ctx["args"], ctx["report"], ctx["refs"]
    tiny = args.scale == "tiny"
    ctx["pin"].pin_self()
    os.chdir(common.ROOT)
    import repro.cli

    tracer = layers.Tracer()

    def round_(check):
        order = list(cmds)
        rng.shuffle(order)
        total = 0.0
        for cmd in order:
            code, out, wall = _replay(repro.cli.main, cmd)
            total += wall
            if check:
                want = refs["cli"].get(key(cmd), {})
                report.op(code == 0 and code == want.get("exit")
                          and common.digest(out) == want.get("stdout"),
                          f"cli in-process {key(cmd)}: exit {code}")
        return total

    round_(check=True)
    plain = round_(check=False)
    layers.install(tracer)
    traced = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced.append(round_(check=True))
        if tiny or time.perf_counter() >= deadline:
            break
    layers.uninstall(tracer)

    extra = {"interp.bare_ms": ctx["bare_ms"],
             "trace.overhead_pct": 100.0 * (common.median(traced) / plain - 1)}
    extra.update(import_layer(ctx["env"], ctx["bare_ms"],
                              samples=1 if tiny else 7))
    return {"setup_s": setup_s}, layer_metrics(tracer, extra=extra)
