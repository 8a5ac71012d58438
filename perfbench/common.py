"""Shared plumbing for the repository benchmark: checkout discovery,
interpreter pinning, child processes, statistics, digests, the
environment record and the per-run report.

Nothing here imports ``repro``; workloads decide when the program is
loaded, because loading it is part of what they time.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
EXAMPLES = os.path.join(ROOT, "examples", "zeus")
BUILD = os.path.join(ROOT, ".bench_build")
REFS_PATH = os.path.join(BENCH_DIR, "refs.json")
#: the real interpreter, never a launcher shim (pyenv shims add ~250 ms
#: of shell start-up to every child).
PYTHON = sys.executable


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources, a daemon
    that never came up).  Reported without a result line."""


def require_checkout() -> None:
    """Refuse to run without the program's sources next to us."""
    needed = [
        os.path.join(SRC, "repro", "__init__.py"),
        os.path.join(SRC, "repro", "cli.py"),
        os.path.join(SRC, "repro", "service", "server.py"),
        EXAMPLES,
    ]
    missing = [p for p in needed if not os.path.exists(p)]
    if missing:
        rel = ", ".join(os.path.relpath(p, ROOT) for p in missing)
        raise BenchError(f"not a repro checkout (missing {rel})")


# -- interpreter pinning ---------------------------------------------------


class PycachePin:
    """A private, writable bytecode cache under ``.bench_build``.

    Every child gets ``PYTHONPYCACHEPREFIX`` pointing at it with bytecode
    writing enabled, so timings measure the code rather than whatever
    ``.pyc`` files (stale or missing) the checkout happens to hold.  The
    workload process itself is pinned the same way through
    ``sys.pycache_prefix`` before it imports the program.
    """

    def __init__(self, tag: str):
        os.makedirs(BUILD, exist_ok=True)
        self.path = os.path.join(BUILD, f"pycache-{os.getpid()}-{tag}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)

    def env(self) -> dict:
        env = dict(os.environ)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env.pop("PYTHONHOME", None)
        env["PYTHONPYCACHEPREFIX"] = self.path
        env["PYTHONPATH"] = SRC
        env["PYTHONHASHSEED"] = "0"
        return env

    def pin_self(self) -> None:
        sys.pycache_prefix = self.path
        sys.dont_write_bytecode = False
        if SRC not in sys.path:
            sys.path.insert(0, SRC)

    def warm(self) -> None:
        """Compile every module of the program into the private cache."""
        run_child(
            [PYTHON, "-m", "compileall", "-q", os.path.join(SRC, "repro")],
            self.env(),
        )

    def remove(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def run_child(argv, env, *, timeout: float = 120.0):
    """Run a child to completion; return (exit code or None on timeout,
    stdout bytes, wall seconds, the child's own peak RSS in MB).

    The child is reaped with ``os.wait4`` so its ``ru_maxrss`` is its
    own, not a running maximum over every child this process had."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    if code < 0:
        code = None
    return code, out, wall, usage.ru_maxrss / 1024.0


def bare_interp_ms(env, samples: int = 5) -> float:
    """Median wall time of ``python -c pass``: the machine-noise
    control recorded in every run."""
    walls = [run_child([PYTHON, "-c", "pass"], env)[2] for _ in range(samples)]
    return statistics.median(walls) * 1e3


# -- statistics ------------------------------------------------------------


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation."""
    if not values:
        return 0.0
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def best(values) -> float:
    """Best-of-N: an operation type's minimum time over repetitions.

    On a shared machine, time is bimodal: a 100-cycle sim chunk takes
    either ~6.1 ms or ~10-11 ms, depending on whether a neighbour holds
    the core (CPU time shows the same split).  The slow share swings
    between 0% and 60% from one 4-second window to the next.  For
    short, allocation-light work such as sim chunks, the fast mode has
    a floor.  Over five runs, the spread of sim throughput was 24% for
    the median chunk, 11% for the 10th percentile and 3% for the
    minimum.  zeusd's small cold compiles show the same phases
    (blackjack took ~14 ms or ~24 ms for seconds at a time); over eight
    runs, the median cold compile spread 23% and the geometric mean of
    per-design minima 7%.  Large in-process compiles (elab) and whole
    ``zeusc`` runs have no such floor: their time depends on when the
    garbage collector runs or on several processes, and there medians
    were the steadiest."""
    return min(values)


def geomean(values) -> float:
    values = [v for v in values if v > 0]
    return statistics.geometric_mean(values) if values else 0.0


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


# -- digests and references ------------------------------------------------


def digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=12)
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        h.update(part)
        h.update(b"\x00")
    return h.hexdigest()


class Digest:
    """An incremental digest of a stream of text records."""

    def __init__(self):
        self._h = hashlib.blake2b(digest_size=12)

    def add(self, record: str) -> None:
        self._h.update(record.encode("utf-8"))
        self._h.update(b"\n")

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def load_refs(path: str | None = None) -> dict:
    with open(path or REFS_PATH, encoding="utf-8") as f:
        return json.load(f)


# -- environment record ----------------------------------------------------


def source_fingerprint() -> str:
    """sha256 over the program's sources: identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    base = os.path.join(SRC, "repro")
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, base).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": source_fingerprint(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


# -- reporting -------------------------------------------------------------


class Report:
    """Collects one run's measurements.

    ``named`` holds every metric the workload measures under its own
    name (``cli_ms_p50``, ``zeusd_health_ms_p90`` ...), printed as the
    human-readable report; the declared metrics of ``BENCHMARK.json``
    are returned by each workload's ``run``.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.named: dict[str, tuple[float, str, int | None]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def name(self, key: str, value: float, unit: str, n: int | None = None):
        self.named[key] = (float(value), unit, n)

    def op(self, ok: bool, what: str) -> None:
        """Count one operation or correctness check; *what* names it
        when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
