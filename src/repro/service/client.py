"""A small blocking client for ``zeusd`` (tests, CI smoke, benchmarks).

Built on :mod:`http.client` (the daemon itself is pure asyncio; the
*clients* in tests and benchmarks are plain threads, where a blocking
connection is the simplest correct thing).  One :class:`ZeusClient`
holds one keep-alive connection -- create one per thread.

:func:`serve_in_thread` boots a daemon on an ephemeral port inside a
background thread and tears it down on exit::

    with serve_in_thread(lanes=8) as daemon:
        client = ZeusClient(daemon.port)
        status, body = client.compile(SOURCE)
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from contextlib import contextmanager

from .server import ZeusDaemon


class ZeusClient:
    """One keep-alive JSON-over-HTTP connection to a daemon."""

    def __init__(self, port: int, host: str = "127.0.0.1",
                 timeout: float = 120.0):
        self.host = host
        self.port = port
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def close(self) -> None:
        self._conn.close()

    def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict]:
        """One round-trip; returns ``(status, parsed_json)``."""
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        try:
            self._conn.request(method, path, payload, headers)
            response = self._conn.getresponse()
            data = response.read()
        except (http.client.HTTPException, ConnectionError):
            # One reconnect: the server may have closed an idle
            # keep-alive connection under us.
            self._conn.close()
            self._conn.request(method, path, payload, headers)
            response = self._conn.getresponse()
            data = response.read()
        if response.headers.get("Connection", "").lower() == "close":
            self._conn.close()
        return response.status, json.loads(data) if data else {}

    # -- convenience wrappers -------------------------------------------

    def _post(self, path: str, source: str, options: dict):
        return self.request("POST", path, {"source": source, **options})

    def health(self):
        return self.request("GET", "/v1/health")

    def metrics(self):
        return self.request("GET", "/v1/metrics")

    def compile(self, source: str, **options):
        return self._post("/v1/compile", source, options)

    def lint(self, source: str, **options):
        return self._post("/v1/lint", source, options)

    def sim(self, source: str, **options):
        return self._post("/v1/sim", source, options)

    def prove(self, source: str, **options):
        return self._post("/v1/prove", source, options)

    def timing(self, source: str, **options):
        return self._post("/v1/timing", source, options)

    def open_session(self, source: str, **options):
        return self._post("/v1/session/open", source, options)

    def session(self, sid: str, verb: str = "", body: dict | None = None,
                method: str = "POST"):
        path = f"/v1/session/{sid}" + (f"/{verb}" if verb else "")
        return self.request(method, path, body if body is not None else {})

    def close_session(self, sid: str):
        return self.request("DELETE", f"/v1/session/{sid}")

    def stream_sim(self, source: str, **options):
        """Run ``/v1/sim/stream`` and yield each NDJSON line as a dict.
        Uses a dedicated connection (the stream closes it)."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=120.0
        )
        try:
            conn.request(
                "POST", "/v1/sim/stream",
                json.dumps({"source": source, **options}).encode("utf-8"),
                {"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            if response.status != 200:
                yield json.loads(response.read() or b"{}")
                return
            # http.client undoes the chunking; read line-delimited JSON.
            buffer = b""
            while True:
                chunk = response.read(4096)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, _, buffer = buffer.partition(b"\n")
                    if line.strip():
                        yield json.loads(line)
            if buffer.strip():
                yield json.loads(buffer)
        finally:
            conn.close()


class _DaemonThread:
    """A daemon running its own event loop in a background thread."""

    def __init__(self, **kwargs):
        self.daemon = ZeusDaemon(**kwargs)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._started = threading.Event()
        self._stop: asyncio.Event | None = None
        self._thread = threading.Thread(
            target=self._run, name="zeusd", daemon=True
        )

    @property
    def port(self) -> int:
        return self.daemon.port

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.daemon.start()
        self._started.set()
        try:
            await self._stop.wait()
        finally:
            await self.daemon.stop()

    def start(self) -> None:
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("zeusd failed to start within 30s")

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30)


@contextmanager
def serve_in_thread(**daemon_kwargs):
    """Boot a daemon on an ephemeral port in a background thread; yield
    it (``.daemon`` is the :class:`ZeusDaemon`, ``.port`` the bound
    port); always torn down on exit."""
    runner = _DaemonThread(port=0, **daemon_kwargs)
    runner.start()
    try:
        yield runner
    finally:
        runner.stop()
