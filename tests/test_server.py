"""The ``python -m repro serve`` HTTP service, exercised over real sockets.

Each test boots a :class:`ReputationServer` on an ephemeral port inside a
thread running its own asyncio loop — the same code path as the CLI, minus
the subprocess (the CI service-smoke job covers the real-process SIGTERM
flavour).
"""

from __future__ import annotations

import asyncio
import json
import logging
import socket
import threading
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest

from repro.api.server import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINES,
    MAX_RUN_TRANSACTIONS,
    ReputationServer,
)

TINY_BODY = {
    "seed": 11,
    "label": "srv",
    "overrides": {
        "num_initial_peers": 20,
        "num_transactions": 300,
        "arrival_rate": 0.05,
        "waiting_period": 20.0,
        "sample_interval": 100.0,
        "audit_transactions": 5,
    },
}


@contextmanager
def running_server(store_url: str, **kwargs):
    server = ReputationServer(store_url, port=0, **kwargs)
    thread = threading.Thread(
        target=lambda: asyncio.run(server.serve_forever()), daemon=True
    )
    thread.start()
    assert server.started.wait(timeout=10), "server did not bind in time"
    try:
        yield server
    finally:
        server.request_shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive(), "server did not shut down cleanly"


def request(server, method, path, body=None, timeout=30):
    """One HTTP exchange; returns (status, parsed JSON document)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def raw_exchange(server, payload: bytes, timeout=10) -> tuple[int, dict]:
    """Send raw request bytes; return the status and the JSON body.

    A server that refuses a request before reading all of it may answer and
    close while the payload is still being sent, so a failed send or a
    reset after the answer arrived still counts as answered.
    """
    with socket.create_connection(("127.0.0.1", server.port), timeout=timeout) as conn:
        try:
            conn.sendall(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass
        chunks = []
        try:
            while chunk := conn.recv(65536):
                chunks.append(chunk)
        except ConnectionResetError:
            pass
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    assert head, "the server closed the connection without a response"
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body)


def wait_done(server, run_id, timeout=60):
    """Stream /events until the run leaves the running state; return lines."""
    url = f"http://127.0.0.1:{server.port}/runs/{run_id}/events"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return [json.loads(line) for line in response]


class TestEndpoints:
    def test_health_catalogue_and_state(self, tmp_path):
        with running_server(str(tmp_path / "s.db")) as server:
            status, health = request(server, "GET", "/health")
            assert status == 200 and health["status"] == "ok"
            status, catalogue = request(server, "GET", "/catalogue")
            assert status == 200 and "rocq" in catalogue["schemes"]
            assert request(server, "GET", "/state")[1] == {"keys": []}

    def test_submit_stream_query_lifecycle(self, tmp_path):
        with running_server(str(tmp_path / "s.db")) as server:
            status, submitted = request(server, "POST", "/runs", TINY_BODY)
            assert status == 202
            assert submitted["persisted"] is True
            run_id = submitted["run"]
            lines = wait_done(server, run_id)
            # One progress event per repeat, then the terminal status line.
            assert lines[0]["completed"] == 1 and lines[0]["total"] == 1
            assert lines[-1] == {"run": run_id, "status": "done"}
            status, run = request(server, "GET", f"/runs/{run_id}")
            assert status == 200 and run["status"] == "done"
            assert run["digest"]
            assert request(server, "GET", "/runs")[1]["runs"][0]["run"] == run_id
            # The finished run's backend state is queryable per peer.
            status, peers = request(server, "GET", "/reputation/rocq")
            assert status == 200 and peers["peers"]
            subject = peers["peers"][0]["subject"]
            status, peer = request(
                server, "GET", f"/reputation/rocq/{subject}"
            )
            assert status == 200
            assert 0.0 <= peer["score"] <= 1.0
            assert request(server, "GET", "/reputation")[1] == {
                "schemes": ["rocq"]
            }

    def test_error_mapping(self, tmp_path):
        with running_server(str(tmp_path / "s.db")) as server:
            status, document = request(
                server, "POST", "/runs", {"scenario": "not-a-scenario"}
            )
            assert status == 400 and "scenario" in document["error"]
            assert "known" in document  # did-you-mean material
            assert request(server, "POST", "/runs", {"persist": "x"})[0] == 400
            assert request(server, "GET", "/runs/r99")[0] == 404
            assert request(server, "GET", "/reputation/rocq/7")[0] == 404
            assert request(server, "GET", "/reputation/rocq/seven")[0] == 400
            assert request(server, "GET", "/no/such/route")[0] == 404
            status, _ = request(server, "POST", "/runs", None)
            assert status == 400  # missing body

    @pytest.mark.parametrize(
        "length, status, error",
        [
            (b"-5", 400, "malformed Content-Length"),
            (b"abc", 400, "malformed Content-Length"),
            # Answered before any of the body is read, not awaited forever.
            (b"99999999999", 413, "request body over 1048576 bytes"),
        ],
        ids=["-5", "abc", "99999999999"],
    )
    def test_malformed_content_length_is_a_400(self, tmp_path, length, status, error):
        with running_server(str(tmp_path / "s.db")) as server:
            answered, document = raw_exchange(
                server,
                b"POST /runs HTTP/1.1\r\nHost: x\r\nContent-Length: "
                + length
                + b"\r\n\r\n{}",
            )
            assert answered == status
            assert document["error"] == error
            assert request(server, "GET", "/health")[0] == 200

    def test_body_of_exactly_the_cap_is_read(self, tmp_path):
        body = b'{"scenario": "no_such_scenario"}'
        body += b" " * (MAX_BODY_BYTES - len(body))
        with running_server(str(tmp_path / "s.db")) as server:
            status, document = raw_exchange(
                server,
                b"POST /runs HTTP/1.1\r\nHost: x\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body,
            )
            # Parsed and validated like any small body, not refused for size.
            assert status == 400
            assert "no_such_scenario" in document["error"]

    def test_one_byte_over_the_cap_is_a_413(self, tmp_path):
        with running_server(str(tmp_path / "s.db")) as server:
            status, document = raw_exchange(
                server,
                b"POST /runs HTTP/1.1\r\nHost: x\r\nContent-Length: "
                + str(MAX_BODY_BYTES + 1).encode()
                + b"\r\n\r\n",
            )
            assert status == 413
            assert document["error"] == f"request body over {MAX_BODY_BYTES} bytes"

    def test_header_block_of_exactly_the_cap_is_read(self, tmp_path):
        headers = b"".join(b"X-%d: y\r\n" % index for index in range(MAX_HEADER_LINES))
        with running_server(str(tmp_path / "s.db")) as server:
            status, document = raw_exchange(
                server, b"GET /health HTTP/1.1\r\n" + headers + b"\r\n"
            )
            assert status == 200 and document["status"] == "ok"

    def test_ineligible_request_runs_without_persistence(self, tmp_path):
        body = dict(TINY_BODY, repeats=2)
        with running_server(str(tmp_path / "s.db")) as server:
            status, submitted = request(server, "POST", "/runs", body)
            assert status == 202 and submitted["persisted"] is False
            lines = wait_done(server, submitted["run"])
            assert lines[-1]["status"] == "done"
            assert request(server, "GET", "/state")[1] == {"keys": []}


class TestMalformedRequests:
    """Every malformed request is answered, and the server keeps serving."""

    @pytest.mark.parametrize(
        "payload, status, error",
        [
            (
                b"POST /runs HTTP/1.1\r\nContent-Length: 3\r\n\r\n\xff\xfe\xfd",
                400,
                "request body is not JSON",
            ),
            (
                b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
                414,
                "request line too long",
            ),
            (
                b"GET /health HTTP/1.1\r\nX-Long: " + b"a" * 70_000 + b"\r\n\r\n",
                431,
                "header line too long",
            ),
            (
                b"GET /health HTTP/1.1\r\n" + b"X-A: b\r\n" * 20_000 + b"\r\n",
                431,
                f"more than {MAX_HEADER_LINES} header lines",
            ),
        ],
        ids=[
            "undecodable-body",
            "long-request-line",
            "long-header-line",
            "many-headers",
        ],
    )
    def test_raw_request_is_answered(self, tmp_path, payload, status, error):
        with running_server(str(tmp_path / "s.db")) as server:
            answered, document = raw_exchange(server, payload)
            assert answered == status
            assert document["error"].startswith(error)
            assert request(server, "GET", "/health")[0] == 200

    def test_stalled_request_is_a_408(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.api.server.READ_DEADLINE_S", 0.5)
        with running_server(str(tmp_path / "s.db")) as server:
            # Half a request line, then silence: the deadline answers it.
            status, document = raw_exchange(server, b"GET /hea", timeout=5)
            assert status == 408
            assert document["error"].startswith("request not received")
            assert request(server, "GET", "/health")[0] == 200

    def test_client_hanging_up_mid_request_is_not_a_crash(self, tmp_path, caplog):
        caplog.set_level(logging.ERROR, logger="asyncio")
        with running_server(str(tmp_path / "s.db")) as server:
            with socket.create_connection(("127.0.0.1", server.port)) as conn:
                conn.sendall(b"GET /hea")
            # The handler answers 400 to a socket that is already closed.
            assert request(server, "GET", "/health")[0] == 200
        unhandled = [
            record.getMessage()
            for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]
        assert not unhandled

    @pytest.mark.parametrize(
        "query, parameter",
        [
            ("scale=-1", "scale"),
            ("scale=nan", "scale"),
            ("scale=inf", "scale"),
            ("repeats=0", "repeats"),
        ],
    )
    def test_bad_report_query_is_a_400(self, tmp_path, query, parameter):
        with running_server(str(tmp_path / "s.db")) as server:
            status, document = request(server, "GET", f"/report?{query}")
            assert status == 400
            assert parameter in document["error"]
            assert request(server, "GET", "/health")[0] == 200

    @pytest.mark.parametrize("scale", [float("inf"), float("nan")], ids=["inf", "nan"])
    def test_non_finite_run_scale_is_a_400(self, tmp_path, scale):
        with running_server(str(tmp_path / "s.db")) as server:
            # json.dumps writes the Infinity/NaN literals json.loads accepts.
            body = dict(TINY_BODY, scale=scale)
            status, document = request(server, "POST", "/runs", body)
            assert status == 400
            assert "scale" in document["error"]
            assert request(server, "GET", "/health")[0] == 200

    @pytest.mark.parametrize(
        "body",
        [
            {"scenario": "tiny_test", "repeats": 100_000_000},
            {"scenario": "tiny_test", "scale": 1e6},
        ],
        ids=["many-repeats", "huge-scale"],
    )
    def test_oversized_run_is_a_413(self, tmp_path, body):
        with running_server(str(tmp_path / "s.db")) as server:
            status, document = request(server, "POST", "/runs", body)
            assert status == 413
            assert str(MAX_RUN_TRANSACTIONS) in document["error"]
            assert request(server, "GET", "/runs") == (200, {"runs": []})
            assert request(server, "GET", "/health")[0] == 200

    def test_oversized_report_is_a_413(self, tmp_path):
        with running_server(str(tmp_path / "s.db")) as server:
            status, document = raw_exchange(
                server, b"GET /report?repeats=100000000 HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            expected = (
                "report asks for 120000000000000 transactions over 100000000 "
                f"repeat(s); the limit is {MAX_RUN_TRANSACTIONS}"
            )
            assert status == 413
            assert document == {"error": expected, "limit": MAX_RUN_TRANSACTIONS}
            assert request(server, "GET", "/health")[0] == 200


class TestRestartSurvival:
    def test_reputation_and_registry_survive_restart(self, tmp_path):
        """Submit → complete → shutdown → new process-equivalent → same data."""
        db = str(tmp_path / "durable.db")
        with running_server(db) as server:
            run_id = request(server, "POST", "/runs", TINY_BODY)[1]["run"]
            wait_done(server, run_id)
            _, peers = request(server, "GET", "/reputation/rocq")
            subject = peers["peers"][0]["subject"]
            _, before = request(server, "GET", f"/reputation/rocq/{subject}")
        # The context manager performed the graceful shutdown (drain +
        # registry checkpoint + store close).  Boot a fresh server on the
        # same database, as a restarted process would.
        with running_server(db) as server:
            _, runs = request(server, "GET", "/runs")
            assert [entry["run"] for entry in runs["runs"]] == [run_id]
            assert runs["runs"][0]["status"] == "done"
            _, after = request(server, "GET", f"/reputation/rocq/{subject}")
            assert after == before
            keys = request(server, "GET", "/state")[1]["keys"]
            assert f"run/{run_id}" in keys and "service/runs" in keys
            # Run ids keep counting instead of colliding with restored ones.
            next_id = request(server, "POST", "/runs", TINY_BODY)[1]["run"]
            assert next_id != run_id
            wait_done(server, next_id)

    def test_shutdown_endpoint_stops_the_server(self, tmp_path):
        server = ReputationServer(str(tmp_path / "s.db"), port=0)
        thread = threading.Thread(
            target=lambda: asyncio.run(server.serve_forever()), daemon=True
        )
        thread.start()
        assert server.started.wait(timeout=10)
        status, document = request(server, "POST", "/shutdown")
        assert status == 202 and document == {"status": "shutting down"}
        thread.join(timeout=30)
        assert not thread.is_alive()
        with pytest.raises(urllib.error.URLError):
            request(server, "GET", "/health", timeout=2)


class TestMemoryStoreServer:
    def test_memory_backed_server_shares_state_in_process(self, tmp_path):
        # Worker processes cannot see an in-memory store, so the server runs
        # inline whatever ``jobs`` asks for.
        with running_server("memory://server-test", jobs=2) as server:
            _, health = request(server, "GET", "/health")
            assert (health["backend"], health["jobs"]) == ("serial", 1)
            run_id = request(server, "POST", "/runs", TINY_BODY)[1]["run"]
            lines = wait_done(server, run_id)
            assert lines[-1]["status"] == "done"
            _, peers = request(server, "GET", "/reputation/rocq")
            assert peers["peers"], (
                "the executor's checkpoint must land in the same in-process "
                "store the server queries"
            )
