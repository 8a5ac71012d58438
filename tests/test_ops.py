"""The operations layer (repro.ops) and the zeusd front door.

One request object per operation with its defaults declared once; the
CLI, the daemon and the pool jobs all run the same functions.  The
daemon turns every malformed request -- request line, Content-Length,
JSON field types, unknown poke paths -- into a 4xx with an ``error``
body, never a 500 or an empty reply.
"""

import json
import socket

import pytest

import repro
from repro import ops
from repro.cli import main as cli_main
from repro.service import ZeusClient, serve_in_thread
from repro.service import jobs

HALF = """
TYPE halfadder = COMPONENT (IN a,b: boolean; OUT cout,s: boolean) IS
BEGIN
    s := XOR(a,b);
    cout := AND(a,b)
END;
SIGNAL h: halfadder;
"""


# -- requests ----------------------------------------------------------------


class TestRequests:
    def test_from_json_keeps_declared_defaults(self):
        req = ops.from_json(ops.TimingRequest, {"paths": 2})
        assert req == ops.TimingRequest(paths=2)
        assert ops.from_json(ops.ProveRequest, {}) == ops.ProveRequest()

    @pytest.mark.parametrize("cls, body", [
        (ops.SimRequest, {"cycles": "lots"}),
        (ops.SimRequest, {"pokes": 5}),
        (ops.SimRequest, {"pokes": [[0, "a"]]}),
        (ops.SimRequest, {"watch": "a"}),
        (ops.SimRequest, {"cycles": True}),
        (ops.SimRequest, {"cycles": -1}),
        (ops.ProveRequest, {"depth": "x"}),
        (ops.ProveRequest, {"props": "no-conflict"}),
        (ops.TimingRequest, {"clock": "fast"}),
        (ops.Source, {"source": HALF, "top": 5}),
        (ops.Source, {}),
    ])
    def test_bad_fields_raise_bad_request(self, cls, body):
        with pytest.raises(ops.BadRequest):
            ops.from_json(cls, body)

    def test_local_fields_are_not_read_from_json(self):
        req = ops.from_json(ops.SimRequest, {"strict": True, "lanes": 4})
        assert req.strict is False and req.lanes is None

    def test_cli_defaults_are_the_request_defaults(self, tmp_path, capsys):
        path = tmp_path / "h.zeus"
        path.write_text(HALF)
        cli_main(["timing", str(path), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        direct = ops.timing(repro.compile_text(HALF), ops.TimingRequest())
        assert report == json.loads(direct.render_json())


# -- the shared poke schedule ------------------------------------------------


class TestPokeSchedule:
    def test_pokes_drive_from_their_cycle_on_in_order(self):
        circuit = repro.compile_text(HALF)

        def final(cycles, pokes):
            req = ops.SimRequest(cycles=cycles, pokes=pokes)
            return ops.simulate(circuit, req).payload()["signals"]

        pokes = [(1, "a", 1), (0, "b", 0), (0, "b", 1)]
        # a is not driven yet in cycle 0; from cycle 1 on it is.
        assert final(1, pokes)["cout"] == ["UNDEF"]
        assert final(3, pokes)["cout"] == ["1"]
        # Pokes of one cycle apply in the order given: the last wins.
        assert final(3, [pokes[0], pokes[2], pokes[1]])["cout"] == ["0"]

    def test_bad_poke_fails_before_any_cycle(self):
        circuit = repro.compile_text(HALF)
        sim, _watch, cycles = ops.start_sim(circuit, ops.SimRequest(
            cycles=4, pokes=[(0, "a", 1)]))
        assert next(cycles) == 0
        with pytest.raises(KeyError):
            ops.start_sim(circuit, ops.SimRequest(
                cycles=4, pokes=[(3, "nosuch", 1)]))
        with pytest.raises(ValueError):
            ops.start_sim(circuit, ops.SimRequest(
                cycles=4, pokes=[(3, "a", 7)]))

    def test_pool_job_matches_in_process_sim(self):
        req = ops.SimRequest(cycles=2, pokes=[[0, "a", 1], [0, "b", 1]])
        pooled = jobs.run("simulate", [ops.Source(HALF)], req)
        local = ops.simulate(repro.compile_text(HALF), req).payload()
        assert pooled == local

    def test_timing_job_positional_form(self):
        reply = jobs.timing_job(HALF, None, True, "unit", None, 4, True,
                                20_000, 200)
        assert reply == jobs.run("timing", [ops.Source(HALF)],
                                 ops.TimingRequest())


# -- the HTTP front door -----------------------------------------------------


@pytest.fixture(scope="module")
def daemon():
    with serve_in_thread(workers=1, timeout=120) as runner:
        yield runner


def _raw(port: int, data: bytes) -> tuple[int, dict]:
    """Send raw bytes, read until the server hangs up; (status, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    reply = b"".join(chunks)
    assert reply, "empty reply"
    head, _, body = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(body)


def _post(path: str, body: dict) -> bytes:
    data = json.dumps(body).encode()
    return (f"POST {path} HTTP/1.1\r\nContent-Length: {len(data)}\r\n"
            "Connection: close\r\n\r\n").encode() + data


@pytest.mark.parametrize("data", [
    b"POST /v1/compile HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    b"POST /v1/compile HTTP/1.1\r\nContent-Length: lots\r\n\r\n",
    b"GARBAGE\r\n\r\n",
    b"POST /v1/compile HTTP/1.1\r\nConnection: close\r\n"
    b"Content-Length: 2\r\n\r\n\xff\xfe",
    _post("/v1/sim", {"source": HALF, "cycles": "lots"}),
    _post("/v1/sim", {"source": HALF, "pokes": 5}),
    _post("/v1/sim", {"source": HALF, "pokes": [[0, "a", {"x": 1}]]}),
    _post("/v1/prove", {"source": HALF, "depth": "x"}),
    _post("/v1/prove", {"source": HALF, "timeout": "soon"}),
    _post("/v1/compile", {"source": HALF, "top": 5}),
    _post("/v1/compile", {}),
    _post("/v1/equiv", {"source": HALF}),
    _post("/v1/sim/stream", {"source": HALF, "cycles": "lots"}),
    _post("/v1/session/open", {"source": HALF, "seed": "x"}),
], ids=[
    "negative-length", "non-numeric-length", "malformed-request-line",
    "non-utf8-body", "sim-cycles-str", "sim-pokes-int", "sim-poke-value",
    "prove-depth-str", "prove-timeout-str", "compile-top-int",
    "compile-no-source", "equiv-no-source2", "stream-cycles-str",
    "session-seed-str",
])
def test_malformed_requests_are_400(daemon, data):
    status, body = _raw(daemon.port, data)
    assert status == 400
    assert isinstance(body["error"], str) and body["error"]


def test_oversized_body_is_413(daemon):
    status, body = _raw(
        daemon.port,
        b"POST /v1/compile HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n")
    assert status == 413 and body["error"]


def test_stream_rejects_a_bad_poke_before_the_200(daemon):
    client = ZeusClient(daemon.port)
    try:
        for pokes in ([[1, "nosuch", 1]], [[1, "a", 7]]):
            status, body = client.request("POST", "/v1/sim/stream", {
                "source": HALF, "cycles": 3, "pokes": pokes})
            assert status == 400
            assert body["error"]
    finally:
        client.close()


def test_daemon_still_serves_after_bad_requests(daemon):
    _raw(daemon.port, b"GARBAGE\r\n\r\n")
    client = ZeusClient(daemon.port)
    try:
        status, body = client.sim(HALF, cycles=1,
                                  pokes=[[0, "a", 1], [0, "b", 1]])
    finally:
        client.close()
    assert status == 200 and body["signals"]["cout"] == ["1"]


def test_stop_leaves_no_live_pool_workers():
    with serve_in_thread(workers=2) as runner:
        client = ZeusClient(runner.port)
        try:
            status, _ = client.prove(HALF, depth=1)
        finally:
            client.close()
        assert status == 200
        workers = list(runner.daemon.pool._executor._processes.values())
        assert workers
    assert not any(proc.is_alive() for proc in workers)
