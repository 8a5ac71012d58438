#!/usr/bin/env python3
"""Self-test for the benchmark (about a minute).

    python3 perfbench/selftest.py

For every workload, at tiny sizes:
* traced and untraced runs succeed and print exactly the metric names
  and units ``BENCHMARK.json`` declares;
* a corrupted reference digest is reported: ``correct`` false,
  ``failed`` > 0 and a nonzero exit.
Then, in a directory holding only ``BENCHMARK.json`` and the
benchmark's own files, the command exits nonzero without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

SPEC_PATH = os.path.join(common.ROOT, "BENCHMARK.json")


def bench(args, cwd=common.ROOT):
    proc = subprocess.run(
        [sys.executable, *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc


def corrupt(refs: dict) -> dict:
    """Flip one reference digest per workload."""
    def flip(digest):
        return ("0" if digest[0] != "0" else "1") + digest[1:]

    bad = json.loads(json.dumps(refs))
    first_cli = sorted(bad["cli"])[0]
    bad["cli"][first_cli]["stdout"] = flip(bad["cli"][first_cli]["stdout"])
    for label in bad["elab"]:
        bad["elab"][label]["hash"] = flip(bad["elab"][label]["hash"])
    bad["sim"]["blackjack"] = flip(bad["sim"]["blackjack"])
    for label in bad["zeusd"]["timing"]:
        entry = bad["zeusd"]["timing"][label]
        entry["report"] = flip(entry["report"])
    return bad


def main() -> int:
    with open(SPEC_PATH, encoding="utf-8") as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    command = spec["command"][1:]
    os.makedirs(common.BUILD, exist_ok=True)
    bad_refs = os.path.join(common.BUILD, f"selftest-refs-{os.getpid()}.json")
    with open(bad_refs, "w", encoding="utf-8") as f:
        json.dump(corrupt(common.load_refs()), f)
    problems = []
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            base = [*command, "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--scale", "tiny"]
            for trace in (0, 1):
                code, result, proc = bench([*base, "--trace", str(trace)])
                where = f"{workload} --trace {trace}"
                if code != 0 or result is None or not result["correct"]:
                    problems.append(f"{where}: exit {code}\n{proc.stdout[-1500:]}"
                                    f"\n{proc.stderr[-1500:]}")
                    continue
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != declared[trace]:
                    problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(got) ^ set(declared[trace]))}")
                print(f"ok   {where}: {len(got)} metrics, "
                      f"{result['attempted']} operations checked")
            code, result, proc = bench([*base, "--trace", "0", "--refs", bad_refs])
            if code == 0 or result is None or result["correct"] or not result["failed"]:
                problems.append(f"{workload}: corrupted reference not reported "
                                f"(exit {code}, result {result})")
            else:
                print(f"ok   {workload}: corrupted reference -> exit {code}, "
                      f"{result['failed']}/{result['attempted']} failed")

        bare = os.path.join(common.BUILD, f"selftest-bare-{os.getpid()}")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(SPEC_PATH, bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(common.ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        code, result, _proc = bench(
            [*command, "--workload", "cli", "--seed", "1", "--seconds", "1",
             "--trace", "0"], cwd=bare)
        shutil.rmtree(bare, ignore_errors=True)
        if code == 0 or result is not None:
            problems.append(f"bare directory: exit {code}, result {result}")
        else:
            print(f"ok   bare directory: exit {code}, no result")
    finally:
        os.remove(bad_refs)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
