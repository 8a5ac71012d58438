#!/usr/bin/env python3
"""Regenerate perfbench/refs.json, the references every workload checks
its outputs against.

    python3 perfbench/make_refs.py

Simulation references come from the dataflow engine (the semantics
oracle); netlist fingerprints, lint and timing answers from the library;
CLI exit codes and stdout digests from fresh ``zeusc`` processes.  Run
it only when the program's intended behaviour changes, and review the
diff (``git diff perfbench/refs.json``): a changed reference is a
changed answer.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402
import corpus  # noqa: E402


def build() -> dict:
    pin = common.PycachePin("refs")
    try:
        pin.pin_self()
        import repro
        from repro.lint import LintConfig, run_lint
        from repro.service import jobs

        refs: dict = {"sim": {}, "elab": {}, "designs": {}, "cli": {},
                      "zeusd": {"lint": {}, "timing": {}}}
        for label, expr in corpus.SIM_DESIGNS:
            circuit = repro.compile_text(corpus.source(expr))
            oracle = circuit.simulator(strict=False, seed=0, engine="dataflow")
            refs["sim"][label] = corpus.run_scalar(
                oracle, label, corpus.REF_SEED, corpus.REF_CYCLES)
        for label, expr in corpus.ELAB_DESIGNS + corpus.TINY_ELAB_DESIGNS:
            refs["elab"][label] = corpus.fingerprint(
                repro.compile_text(corpus.source(expr)))
        for label, expr in corpus.ZEUSD_DESIGNS + corpus.SIM_DESIGNS:
            text = corpus.source(expr)
            circuit = repro.compile_text(text)
            refs["designs"][label] = {
                "name": circuit.name, **corpus.counts(circuit.stats())}
            if label in dict(corpus.ZEUSD_DESIGNS):
                refs["zeusd"]["lint"][label] = run_lint(
                    circuit, LintConfig(werror=False)).exit_code()
                reply = jobs.timing_job(text, None, True, "unit", None, 4,
                                        True, 20_000, 200)
                refs["zeusd"]["timing"][label] = {
                    "exit": reply["exit_code"],
                    "report": common.digest(json.dumps(reply["report"],
                                                       sort_keys=True)),
                }
        import wl_cli

        env = pin.env()
        pin.warm()
        for cmd in wl_cli.commands():
            code, out, _w, _r = common.run_child(
                [common.PYTHON, "-m", "repro.cli", *cmd], env)
            refs["cli"][wl_cli.key(cmd)] = {"exit": code,
                                            "stdout": common.digest(out)}
        return refs
    finally:
        pin.remove()


def main() -> int:
    refs = build()
    with open(common.REFS_PATH, "w", encoding="utf-8") as f:
        f.write(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {os.path.relpath(common.REFS_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
