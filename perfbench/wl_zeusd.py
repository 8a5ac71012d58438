"""``zeusd``: the daemon as a subprocess (``zeusc serve --port 0
--workers 1``) under a seeded closed-loop client plus an open-loop
health prober -- the only workload through ``repro.service``'s cache,
pool and event loop.

Client (one thread, one keep-alive connection, closed loop).  Each
cycle of eleven requests, in seeded order: five warm ``/v1/compile``
(cache hits), two cold ``/v1/compile`` of small stdlib designs made
unique with a comment nonce, two short in-process ``/v1/sim`` (200
cycles, under ``long_sim_cycles``), one ``/v1/lint`` and one
``/v1/timing`` (through the pool).  Designs rotate round-robin from a
seeded offset, so every cycle asks for the same work whatever the
seed.  The window runs in full blocks: one cold ``trees(1024)`` compile
(~1 s on the event loop), then ``BLOCK_CYCLES`` cycles.

The proportions are an assumption: the repository has no traffic data
and no earlier service benchmark.  Only two numbers have a source.
Sims are 200 cycles so they stay far under the daemon's
``long_sim_cycles`` (20,000) and run in-process.  ``BLOCK_CYCLES`` is
sized from the stall-coverage target below.  The rest was picked: hits
outnumber cold compiles because a compile cache is there to be hit,
timing is the rarest because it goes through the pool, and every kind
comes at least once per cycle so every endpoint is in every run.  The
weights decide ``zeusd_rps``, so changing them changes the benchmark.

Prober (a second thread, a second connection, open loop).  A
``GET /v1/health`` is due every ``PROBE_PERIOD`` seconds; requests are
pipelined on the connection so a stalled daemon never delays sending,
and each latency runs from when the probe was due.  One ~1 s stall per
~4 s block covers 25-40% of probe time, so the probe p90 sits inside
a stall rather than on its edge.  ``probe_late`` is how
late sends went out; it must stay near 0.

Setup (``setup_s``): daemon spawn until the first ``/v1/health`` 200,
median of five spawns (the fifth daemon serves the run).

Gated: ``throughput`` is ``zeusd_rps``, the closed-loop requests
completed per second over whole blocks.  ``latency_ms`` is the
geometric mean over the five designs of each one's best-of-N cold
``/v1/compile`` (``common.best``); ``zeusd_miss_ms_p50`` is printed
but not gated, because it follows how much of the run the machine
spent in its slow phase.  Round-robin designs and whole blocks keep
the mix the same in every run.

Checks: every status is 200; compile stats equal the pinned netlist
counts (``trees(1024)`` against the ``elab`` fingerprint); sim signals
equal an in-process run of the same request; lint and timing exit codes
and timing report digests equal refs.json.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import socket
import subprocess
import threading
import time

import common
import corpus
from run import ENDPOINTS, import_layer, layer_metrics

PROBE_PERIOD = 0.02
BLOCK_CYCLES = 20
SIM_CYCLES = 200
SIM_VARIANTS = 6
SETUP_REPS = 5
MIX = ["hit"] * 5 + ["miss"] * 2 + ["sim"] * 2 + ["lint", "timing"]
LINT_DESIGNS = ["blackjack", "memory", "mux4", "adders", "patternmatch"]
TIMING_DESIGNS = ["adders", "blackjack"]
SIM_DESIGNS = ["blackjack", "memory"]


# -- the daemon ------------------------------------------------------------


class Daemon:
    """One ``zeusc serve`` in its own process group; *started* collects
    every daemon spawned, for :func:`await_groups`."""

    def __init__(self, env, started, traced_out=None):
        server = ["--port", "0", "--workers", "1"]
        if traced_out:
            argv = [common.PYTHON, os.path.join(common.BENCH_DIR, "zeusd_traced.py"),
                    traced_out, "--", *server]
        else:
            argv = [common.PYTHON, "-m", "repro.cli", "serve", *server]
        env = dict(env, PYTHONUNBUFFERED="1")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, cwd=common.ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            start_new_session=True, preexec_fn=_default_sigint,
        )
        started.append(self)
        try:
            self.port = self._read_port(t0 + 60)
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
            conn.request("GET", "/v1/health")
            resp = conn.getresponse()
            resp.read()
            conn.close()
            if resp.status != 200:
                raise common.BenchError(f"zeusd health returned {resp.status}")
        except BaseException:
            self.stop()
            raise
        self.ready_s = time.perf_counter() - t0

    def _read_port(self, deadline) -> int:
        line = b""
        fd = self.proc.stdout.fileno()
        while not line.endswith(b"\n"):
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise common.BenchError("zeusd did not start listening")
            chunk = os.read(fd, 1)
            if not chunk:
                raise common.BenchError("zeusd exited during start-up")
            line += chunk
        return int(line.decode().rsplit(":", 1)[1].strip().rstrip("/"))

    def peak_rss_mb(self) -> float:
        return common.proc_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        """SIGINT the daemon, then SIGKILL its process group: ``zeusc
        serve`` exits without waiting for its pool workers, which stay
        in the daemon's group.  :func:`await_groups` waits for them."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _default_sigint() -> None:
    """Shells start background jobs with SIGINT ignored, and a Python
    started that way never turns SIGINT into KeyboardInterrupt; the
    daemon's clean shutdown needs the default disposition back."""
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def await_groups(daemons, timeout: float = 30.0) -> None:
    """Wait until every stopped daemon's process group is empty.  The
    killed workers are orphans that init reaps, so this polls."""
    deadline = time.perf_counter() + timeout
    for d in daemons:
        while True:
            try:
                os.killpg(d.proc.pid, 0)
            except ProcessLookupError:
                break
            if time.perf_counter() > deadline:
                raise common.BenchError("zeusd pool workers did not exit")
            time.sleep(0.02)


# -- clients ---------------------------------------------------------------


class Client:
    """One keep-alive connection; ``call`` returns (status, body, s)."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def call(self, method, path, body=None):
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        t0 = time.perf_counter()
        try:
            self.conn.request(method, path, body=data, headers=headers)
            resp = self.conn.getresponse()
            raw = resp.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            return None, None, time.perf_counter() - t0
        dt = time.perf_counter() - t0
        try:
            payload = json.loads(raw)
        except ValueError:
            payload = None
        return resp.status, payload, dt

    def close(self):
        self.conn.close()


class Prober(threading.Thread):
    """Open-loop ``GET /v1/health`` every *period* seconds, pipelined on
    one connection; latency is measured from each probe's due time."""

    REQUEST = b"GET /v1/health HTTP/1.1\r\nHost: bench\r\n\r\n"

    def __init__(self, port, period):
        super().__init__(daemon=True)
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.period = period
        self.latency_ms: list[float] = []
        self.late_ms: list[float] = []
        self.bad = 0
        self._halt = threading.Event()

    def halt(self):
        self._halt.set()

    def run(self):
        due: list[float] = []
        buf = b""
        next_due = time.perf_counter()
        sock = self.sock
        while True:
            now = time.perf_counter()
            if not self._halt.is_set() and now >= next_due:
                sock.sendall(self.REQUEST)
                self.late_ms.append((time.perf_counter() - next_due) * 1e3)
                due.append(next_due)
                next_due += self.period
                continue
            if self._halt.is_set() and not due:
                break
            wait = max(0.0, next_due - now) if not self._halt.is_set() else 1.0
            if select.select([sock], [], [], wait)[0]:
                chunk = sock.recv(1 << 16)
                if not chunk:
                    self.bad += len(due)
                    break
                buf += chunk
                while True:
                    head_end = buf.find(b"\r\n\r\n")
                    if head_end < 0:
                        break
                    head = buf[:head_end].decode("latin-1")
                    length = 0
                    for line in head.split("\r\n")[1:]:
                        name, _, value = line.partition(":")
                        if name.strip().lower() == "content-length":
                            length = int(value)
                    end = head_end + 4 + length
                    if len(buf) < end:
                        break
                    status = int(head.split(" ", 2)[1])
                    buf = buf[end:]
                    t_due = due.pop(0)
                    if status != 200:
                        self.bad += 1
                    self.latency_ms.append((time.perf_counter() - t_due) * 1e3)
        sock.close()


# -- the request mix -------------------------------------------------------


def _sim_variants(rng, sources):
    variants = []
    for i in range(SIM_VARIANTS):
        label = SIM_DESIGNS[i % len(SIM_DESIGNS)]
        stim = corpus.Stimulus(label, rng.randrange(1 << 30))
        pokes = []
        for c in range(0, SIM_CYCLES, 25):
            pokes += [[c, path, value] for path, value in stim.pokes(c)]
        variants.append({"source": sources[label], "cycles": SIM_CYCLES,
                         "pokes": pokes, "seed": i})
    return variants


def _expected_sim(body):
    """The reply an in-process run of a ``/v1/sim`` body must match."""
    import repro

    circuit = repro.compile_text(body["source"])
    sim = circuit.simulator(strict=False, seed=body["seed"])
    plan = sorted((int(c), str(p), v) for c, p, v in body["pokes"])
    applied = 0
    for t in range(body["cycles"]):
        while applied < len(plan) and plan[applied][0] <= t:
            sim.poke(plan[applied][1], plan[applied][2])
            applied += 1
        sim.step()
    return {
        "signals": {p.name: [str(b) for b in sim.peek(p.name)]
                    for p in circuit.netlist.ports},
        "violations": [[v.cycle, v.net, [str(x) for x in v.values]]
                       for v in sim.violations],
    }


class Mix:
    def __init__(self, seed, refs, tiny):
        self.rng = random.Random(f"zeusd/{seed}")
        self.refs = refs
        self.sources = {label: corpus.source(expr)
                        for label, expr in corpus.ZEUSD_DESIGNS}
        self.big = corpus.source("programs.trees(1024)") if not tiny else None
        self.variants = _sim_variants(self.rng, self.sources)
        self.nonce = 0
        self.seed = seed
        self._turn = {kind: self.rng.randrange(60) for kind in
                      ("hit", "miss", "sim", "lint", "timing")}
        self.lat: dict[str, list[float]] = {}
        self.miss_ms: dict[str, list[float]] = {}
        self.sims: list[tuple[dict, dict]] = []

    def _next(self, kind, choices):
        """Round-robin from a seeded offset: every full cycle of the mix
        covers the same designs whatever the seed."""
        i = self._turn[kind]
        self._turn[kind] = i + 1
        return choices[i % len(choices)]

    def _unique(self, text):
        self.nonce += 1
        return f"{text}\n<* nonce {self.seed}-{self.nonce} *>\n"

    def warm(self, port, report):
        """Prime the cache (the later hits) and start the pool worker."""
        client = Client(port)
        for label, text in self.sources.items():
            status, body, _dt = client.call("POST", "/v1/compile", {"source": text})
            report.op(status == 200, f"zeusd warm compile {label}: {status}")
        status, _b, _dt = client.call(
            "POST", "/v1/timing", {"source": self.sources["adders"]})
        report.op(status == 200, f"zeusd warm timing: {status}")
        client.close()

    def one(self, client, kind, report):
        refs = self.refs
        if kind == "big":
            path, body = "/v1/compile", {"source": self._unique(self.big)}
            want = refs["elab"]["trees1024"]
        elif kind in ("hit", "miss"):
            label = self._next(kind, sorted(self.sources))
            text = self.sources[label]
            path = "/v1/compile"
            body = {"source": text if kind == "hit" else self._unique(text)}
            want = refs["designs"][label]
        elif kind == "sim":
            path, body = "/v1/sim", self._next(kind, self.variants)
        elif kind == "lint":
            label = self._next(kind, LINT_DESIGNS)
            path, body = "/v1/lint", {"source": self.sources[label]}
            want = refs["zeusd"]["lint"][label]
        else:
            label = self._next(kind, TIMING_DESIGNS)
            path, body = "/v1/timing", {"source": self.sources[label]}
            want = refs["zeusd"]["timing"][label]
        status, reply, dt = client.call("POST", path, body)
        self.lat.setdefault(kind, []).append(dt * 1e3)
        if kind == "miss":
            self.miss_ms.setdefault(label, []).append(dt * 1e3)
        ok = status == 200 and isinstance(reply, dict)
        if ok and path == "/v1/compile":
            design = reply.get("design", {})
            ok = all(design.get(k) == want[k] for k in
                     ("nets", "gates", "connections", "registers"))
            ok = ok and reply.get("cached") == (kind == "hit")
        elif ok and kind == "sim":
            self.sims.append((body, reply))
        elif ok and kind == "lint":
            ok = reply.get("exit_code") == want
        elif ok and kind == "timing":
            ok = (reply.get("exit_code") == want["exit"]
                  and common.digest(json.dumps(reply.get("report"),
                                               sort_keys=True)) == want["report"])
        report.op(ok, f"zeusd {kind} {path}: status {status}")

    def check_sims(self, report):
        expected = {}
        for body, reply in self.sims:
            k = id(body)
            if k not in expected:
                expected[k] = _expected_sim(body)
            want = expected[k]
            got_v = [[v["cycle"], v["net"], v["values"]]
                     for v in reply.get("violations", [])]
            report.op(reply.get("signals") == want["signals"]
                         and got_v == want["violations"],
                         "zeusd sim: signals differ from the in-process run")


# -- the workload ----------------------------------------------------------


def _drive(daemon, mix, seconds, tiny, report):
    """The timed window: closed-loop client plus open-loop prober, in
    full blocks (one big compile, then BLOCK_CYCLES cycles of the mix)
    until *seconds* are spent."""
    mix.lat.clear()
    mix.miss_ms.clear()
    client = Client(daemon.port)
    prober = Prober(daemon.port, PROBE_PERIOD)
    prober.start()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    done = 0
    try:
        while True:
            if not tiny:
                mix.one(client, "big", report)
                done += 1
            for _ in range(1 if tiny else BLOCK_CYCLES):
                order = list(MIX)
                mix.rng.shuffle(order)
                for kind in order:
                    mix.one(client, kind, report)
                    done += 1
            if tiny or time.perf_counter() >= deadline:
                break
    finally:
        elapsed = time.perf_counter() - t0
        prober.halt()
        prober.join(timeout=60)
        metrics = client.call("GET", "/v1/metrics")[1] or {}
        client.close()
    report.op(prober.bad == 0 and not prober.is_alive(),
              f"zeusd health probes: {prober.bad} failed")
    report.attempted += len(prober.latency_ms)
    return done / elapsed, prober, metrics


def _calibrate(daemon, mix, report, n):
    """A fixed batch (n cold + n warm compiles), timed: the base for
    the traced run's overhead."""
    client = Client(daemon.port)
    t0 = time.perf_counter()
    for i in range(n):
        mix.one(client, "miss", report)
        mix.one(client, "hit", report)
    dt = time.perf_counter() - t0
    client.close()
    return dt


def run(ctx):
    args, report, refs, env = ctx["args"], ctx["report"], ctx["refs"], ctx["env"]
    tiny = args.scale == "tiny"
    pin = ctx["pin"]
    pin.warm()
    pin.pin_self()
    mix = Mix(args.seed, refs, tiny)
    traced_out = None
    if args.trace:
        traced_out = os.path.join(common.BUILD, f"zeusd-layers-{os.getpid()}.json")

    n_reps = 1 if tiny else SETUP_REPS
    reps = []
    daemons: list[Daemon] = []
    overhead = None
    try:
        for _ in range(n_reps - 1):
            d = Daemon(env, daemons)
            reps.append(d.ready_s)
            d.stop()
        daemon = Daemon(env, daemons, traced_out)
        reps.append(daemon.ready_s)
        try:
            mix.warm(daemon.port, report)
            if args.trace:
                plain_daemon = Daemon(env, daemons)
                try:
                    mix.warm(plain_daemon.port, report)
                    plain = _calibrate(plain_daemon, mix, report,
                                       2 if tiny else 15)
                finally:
                    plain_daemon.stop()
                traced = _calibrate(daemon, mix, report, 2 if tiny else 15)
                overhead = 100.0 * (traced / plain - 1)
            rps, prober, metrics = _drive(daemon, mix, args.seconds, tiny,
                                          report)
            rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
    finally:
        await_groups(daemons)
    setup_s = common.median(reps)
    report.name("setup_s", setup_s, "s", len(reps))
    mix.check_sims(report)

    lat = mix.lat
    health = prober.latency_ms
    report.name("zeusd_rps", rps, "req/s", sum(len(v) for v in lat.values()))
    for kind, pcts in (("hit", (50,)), ("miss", (50, 90)), ("sim", (50, 90)),
                       ("lint", (50,)), ("timing", (50,)), ("big_compile", (50,))):
        values = lat.get(kind.split("_")[0], [])
        for q in pcts:
            report.name(f"zeusd_{kind}_ms_p{q}", common.percentile(values, q),
                        "ms", len(values))
    for q in (50, 90):
        report.name(f"zeusd_health_ms_p{q}", common.percentile(health, q), "ms",
                    len(health))
    report.name("zeusd_health_stalled_frac",
                sum(1 for x in health if x > 50.0) / max(len(health), 1),
                "ratio", len(health))
    late = common.percentile(prober.late_ms, 90)
    report.name("bench.probe_late_ms_p90", late, "ms", len(prober.late_ms))
    miss_best = common.geomean(common.best(v) for v in mix.miss_ms.values())
    report.name("zeusd_miss_ms_best_geomean", miss_best, "ms",
                len(lat.get("miss", [])))
    report.name("peak_rss_mb", rss, "MB")

    extra = {"interp.bare_ms": ctx["bare_ms"], "bench.probe_late_ms_p90": late}
    extra.update(_service_layers(metrics, lat, health))
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        with open(traced_out, encoding="utf-8") as f:
            tracer.totals = json.load(f)
        os.remove(traced_out)
        extra.update(import_layer(env, ctx["bare_ms"], samples=1 if tiny else 7))
        extra["trace.overhead_pct"] = overhead
    slots = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "throughput": rps,
        "latency_ms": miss_best,
    }
    names = {label: refs["designs"][label]["name"] for label in ("blackjack", "memory")}
    return slots, layer_metrics(tracer, sim_names=names, extra=extra)


def _service_layers(metrics, lat, health) -> dict:
    """Per-layer service numbers from ``GET /v1/metrics``: counters, and
    request-span durations per endpoint (the daemon keeps its most
    recent spans); wait = client median minus server median."""
    service = metrics.get("service", {})
    cache = service.get("cache", {})
    pool = service.get("pool", {})
    out = {
        "service.cache.hit_rate": cache.get("hit_rate", 0.0),
        "service.cache.misses": cache.get("misses", 0),
        "service.cache.evictions": cache.get("evictions", 0),
        "service.pool.submitted": pool.get("submitted", 0),
        "service.pool.timeouts": pool.get("timeouts", 0),
        "service.pool.shed": pool.get("shed", 0),
        "service.requests.errors": service.get("requests", {}).get("errors", 0),
    }
    spans = metrics.get("compile", {}).get("spans", [])
    client = {"compile": lat.get("miss", []) + lat.get("hit", []),
              "lint": lat.get("lint", []), "sim": lat.get("sim", []),
              "timing": lat.get("timing", []), "health": health}
    for ep in ENDPOINTS:
        method = "GET" if ep == "health" else "POST"
        server = [s["duration_s"] * 1e3 for s in spans
                  if s["name"] == "request"
                  and s.get("meta", {}).get("endpoint") == f"{method} /v1/{ep}"]
        out[f"service.request_ms.{ep}"] = common.median(server)
        out[f"service.wait_ms.{ep}"] = (common.median(client[ep]) - common.median(server)
                                        if server else 0.0)
    return out
