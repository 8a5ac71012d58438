"""E12 -- compiler throughput over generated programs of growing size.

The implicit engineering claim of an HDL: the toolchain itself scales.
We generate synthetic programs (chains of gate components), and measure
parse / elaborate / check separately.
"""

import pytest

import repro
from repro.core.checker import check
from repro.core.elaborate import elaborate
from repro.lang import parse


def generate_program(n_components: int) -> str:
    """A chain of n pass/invert components, alternating connections."""
    parts = [
        "TYPE inv = COMPONENT (IN a: boolean; OUT y: boolean) IS\n"
        "BEGIN y := NOT a END;\n"
        "chain = COMPONENT (IN a: boolean; OUT y: boolean) IS\n"
        f"SIGNAL g: ARRAY [1..{n_components}] OF inv;\n"
        "BEGIN\n"
        "    g[1].a := a;\n"
        f"    FOR i := 2 TO {n_components} DO g[i].a := g[i-1].y END;\n"
        f"    y := g[{n_components}].y\n"
        "END;\n"
        "SIGNAL top: chain;\n"
    ]
    return "".join(parts)


SIZES = [50, 200, 800]


@pytest.mark.parametrize("n", SIZES)
def test_generated_program_is_correct(n):
    circuit = repro.compile_text(generate_program(n))
    sim = circuit.simulator()
    sim.poke("a", 1)
    sim.step()
    assert str(sim.peek_bit("y")) == str(1 if n % 2 == 0 else 0)


@pytest.mark.parametrize("n", SIZES)
def test_bench_parse(benchmark, n):
    text = generate_program(n)
    prog = benchmark(parse, text)
    benchmark.extra_info["components"] = n
    assert prog.decls


@pytest.mark.parametrize("n", SIZES)
def test_bench_elaborate(benchmark, n):
    prog = parse(generate_program(n))
    design = benchmark(lambda: elaborate(prog))
    benchmark.extra_info["components"] = n
    benchmark.extra_info["nets"] = design.netlist.stats()["nets"]
    assert design.netlist.stats()["gates"] == n


@pytest.mark.parametrize("n", SIZES)
def test_bench_check(benchmark, n):
    design = elaborate(parse(generate_program(n)))
    sink = benchmark(lambda: check(design, strict=False))
    benchmark.extra_info["components"] = n
    assert not sink.has_errors()


def test_scaling_is_roughly_linear():
    """Shape check: elaboration work per component stays bounded.
    Best of three runs per size, each after a full collection, so one
    garbage-collection pause cannot decide the ratio."""
    import gc
    import time

    times = {}
    for n in (100, 400):
        prog = parse(generate_program(n))
        best = float("inf")
        for _ in range(3):
            gc.collect()
            start = time.perf_counter()
            elaborate(prog)
            best = min(best, time.perf_counter() - start)
        times[n] = best
    # 4x the components should cost clearly less than 16x the time.
    assert times[400] < times[100] * 16
