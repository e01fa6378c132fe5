"""Dispatch under network-shaped faults (ISSUE 8, satellite 3).

Three hostile-client shapes against the live service:

* **slow-loris** — a connection that dribbles (or stalls) its request
  head/body must be dropped with 408 after the read timeout instead of
  pinning a connection slot;
* **duplicate answer POSTs** — at-least-once delivery: a replayed
  answer is acknowledged (``duplicate`` / ``stale``) without double
  counting the vote;
* **worker reconnect after timeout** — a worker that leases a question
  and vanishes costs one lease expiry; after reconnecting it (or a
  peer) re-leases the question and the session still converges at the
  in-process question cost.

The client's own transport (``_Http``) is held to the same shapes from
the other side: a server that closes an idle keep-alive connection, one
that answers ``Connection: close``, ``429 Retry-After``, or a proxy's
non-JSON ``502``.
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.dispatch.policy import RetryPolicy
from repro.oracle.perfect import PerfectOracle
from repro.server.manager import SessionManager
from repro.service.broker import QuestionBroker
from repro.service.client import (
    ServiceClient,
    ServiceError,
    WorkerClient,
    _Http,
    answer_question,
)
from repro.shard import wire
from service_harness import ServiceHarness

from repro.service.cli import build_workload
from test_service import in_process_baseline


def _recv_all(sock: socket.socket, timeout: float = 5.0) -> bytes:
    sock.settimeout(timeout)
    chunks = []
    try:
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            chunks.append(chunk)
    except socket.timeout:
        pass
    return b"".join(chunks)


class TestSlowLoris:
    def _harness(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        return ServiceHarness(manager, read_timeout=0.5), workload

    def test_stalled_request_head_gets_408(self):
        harness, _ = self._harness()
        with harness:
            with socket.create_connection((harness.host, harness.port)) as sock:
                sock.sendall(b"GET /v1/healthz HT")  # ...and never finish
                data = _recv_all(sock, timeout=3.0)
            assert b"408" in data.split(b"\r\n", 1)[0]

    def test_stalled_request_body_gets_408(self):
        harness, _ = self._harness()
        with harness:
            with socket.create_connection((harness.host, harness.port)) as sock:
                head = (
                    b"POST /v1/sessions HTTP/1.1\r\n"
                    b"Host: x\r\nContent-Type: application/json\r\n"
                    b"Content-Length: 500\r\n\r\n"
                )
                sock.sendall(head + b'{"tenant": "slow', )  # 484 bytes never come
                data = _recv_all(sock, timeout=3.0)
            assert b"408" in data.split(b"\r\n", 1)[0]

    def test_malformed_content_length_gets_400(self):
        harness, _ = self._harness()
        with harness:
            for bad in (b"abc", b"-5"):
                with socket.create_connection((harness.host, harness.port)) as sock:
                    sock.sendall(
                        b"POST /v1/worker/answer HTTP/1.1\r\nHost: x\r\n"
                        b"Content-Length: " + bad + b"\r\n\r\n"
                    )
                    data = _recv_all(sock, timeout=3.0)
                assert b"400" in data.split(b"\r\n", 1)[0], data

    def test_dribbled_second_head_bounded_by_read_timeout_not_idle(self):
        # read_timeout=0.5 but idle_timeout keeps its 120 s default: a
        # keep-alive client that completes one request and then
        # dribbles the next head must be dropped on the *read* deadline
        harness, _ = self._harness()
        with harness:
            with socket.create_connection((harness.host, harness.port)) as sock:
                sock.sendall(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                sock.settimeout(5.0)
                first = sock.recv(4096)
                assert first.startswith(b"HTTP/1.1 200"), first
                sock.sendall(b"G")  # one byte of the next head, then stall
                start = time.monotonic()
                data = _recv_all(sock, timeout=10.0)
                elapsed = time.monotonic() - start
            assert b"408" in data.split(b"\r\n", 1)[0], data
            assert elapsed < 5.0, f"dribbled head held its slot for {elapsed:.1f}s"

    def test_server_stays_responsive_during_the_attack(self):
        harness, _ = self._harness()
        with harness:
            attackers = [
                socket.create_connection((harness.host, harness.port))
                for _ in range(8)
            ]
            try:
                for sock in attackers:
                    sock.sendall(b"GET /v1/stat")  # all stalled mid-head
                with ServiceClient(harness.host, harness.port) as client:
                    assert client.healthz()["role"] == "primary"
            finally:
                for sock in attackers:
                    sock.close()


def _figure1_harness(**kwargs) -> ServiceHarness:
    workload = build_workload("figure1")
    return ServiceHarness(SessionManager(workload.dirty.copy(), mode="sync"), **kwargs)


class _CannedServer:
    """A loopback HTTP server that answers every request with *response*.

    Each connection gets its own thread.  It stays open until the client
    closes it, whatever the response's headers say, unless *one_shot*:
    then the server closes it after one response, which is how a
    response without ``Content-Length`` ends.  ``connections`` and
    ``requests`` count what arrived.
    """

    def __init__(self, response: bytes, *, one_shot: bool = False) -> None:
        self.response = response
        self.one_shot = one_shot
        self.connections = 0
        self.requests = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.host, self.port = self._listener.getsockname()[:2]
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            threading.Thread(target=self._serve, args=(conn,), daemon=True).start()

    def _serve(self, conn: socket.socket) -> None:
        with conn, conn.makefile("rb") as reader:
            while True:
                length = 0
                line = reader.readline()
                if not line:
                    return
                while line not in (b"\r\n", b""):
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                    line = reader.readline()
                reader.read(length)
                self.requests += 1
                conn.sendall(self.response)
                if self.one_shot:
                    return

    def close(self) -> None:
        self._listener.close()


def _canned(status_line: str, body: bytes, *headers: str) -> bytes:
    head = [status_line, f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


class TestHttpClient:
    def test_reconnects_once_after_the_server_closes_an_idle_connection(self):
        harness = _figure1_harness()
        harness.service.http.idle_timeout = 0.2
        with harness:
            http = _Http(harness.host, harness.port)
            try:
                assert http.request("GET", "/v1/healthz")["role"] == "primary"
                first = http._sock
                # the server times the idle connection out (a 408, then
                # close); the next request must land on a new connection
                time.sleep(0.6)
                assert http.request("GET", "/v1/healthz")["role"] == "primary"
                assert http._sock is not first
            finally:
                http.close()

    def test_honours_connection_close(self):
        server = _CannedServer(
            _canned("HTTP/1.1 200 OK", b'{"ok": true}', "Connection: close")
        )
        http = _Http(server.host, server.port, timeout=5.0)
        try:
            assert http.request("GET", "/a") == {"ok": True}
            assert http.request("GET", "/b") == {"ok": True}
        finally:
            http.close()
            server.close()
        # the server left each connection open; the client closed them
        assert server.connections == 2 and server.requests == 2

    def test_parses_retry_after_on_a_429(self):
        server = _CannedServer(
            _canned(
                "HTTP/1.1 429 Too Many Requests",
                b'{"error": "slow down"}',
                "Retry-After: 2.5",
            )
        )
        http = _Http(server.host, server.port, timeout=5.0)
        try:
            with pytest.raises(ServiceError) as excinfo:
                http.request("POST", "/v1/sessions", {"query": "q"})
        finally:
            http.close()
            server.close()
        assert excinfo.value.status == 429
        assert excinfo.value.message == "slow down"
        assert excinfo.value.retry_after == 2.5

    def test_undecodable_body_is_a_service_error_and_the_worker_keeps_polling(self):
        # a proxy's error page, framed by closing the connection
        page = b"<html><body>502 Bad Gateway</body></html>"
        server = _CannedServer(
            b"HTTP/1.1 502 Bad Gateway\r\nContent-Type: text/html\r\n\r\n" + page,
            one_shot=True,
        )
        try:
            http = _Http(server.host, server.port, timeout=5.0)
            with pytest.raises(ServiceError) as excinfo:
                http.request("GET", "/v1/healthz")
            http.close()
            assert excinfo.value.status == 502
            assert excinfo.value.message == page.decode()

            worker = WorkerClient(server.host, server.port, "w0", None, poll_wait=0.1)
            thread = worker.start_thread()
            try:
                polled = server.requests
                deadline = time.monotonic() + 10.0
                while server.requests < polled + 3 and time.monotonic() < deadline:
                    time.sleep(0.05)
                assert server.requests >= polled + 3, "the worker stopped polling"
                assert thread.is_alive()
            finally:
                worker.stop()
                thread.join(timeout=5)
            assert not thread.is_alive()
            worker.close()
        finally:
            server.close()


class TestShutdown:
    def test_stop_is_prompt_and_sends_no_408(self):
        # one connection idles between keep-alive requests, one worker
        # is parked in a feed wait: stop() cancels both without
        # answering either as a timed-out request
        harness = _figure1_harness()
        harness.start()
        stopped = False
        idle = _Http(harness.host, harness.port, timeout=5.0)
        try:
            assert idle.request("GET", "/v1/healthz")["role"] == "primary"
            parked = socket.create_connection((harness.host, harness.port))
            parked.sendall(
                b"GET /v1/worker/feed?worker=w9&wait=30 HTTP/1.1\r\nHost: x\r\n\r\n"
            )
            time.sleep(0.3)  # the feed is waiting for work
            start = time.monotonic()
            harness.stop()
            stopped = True
            elapsed = time.monotonic() - start
            assert elapsed < 5.0, f"stop() took {elapsed:.1f}s"
            assert idle._reader.read() == b""  # closed, nothing written
            with parked:
                assert _recv_all(parked, timeout=2.0) == b""
        finally:
            idle.close()
            if not stopped:
                harness.stop()


class TestDuplicateAnswers:
    def test_replayed_answer_post_is_idempotent(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        oracle = PerfectOracle(workload.ground_truth)
        with ServiceHarness(manager) as harness:
            with ServiceClient(harness.host, harness.port) as client:
                client.open(workload.queries[0])
                # lease the first question by hand
                doc = client._http.request(
                    "GET", "/v1/worker/feed?worker=w0&wait=20"
                )
                lease = doc["question"]
                assert lease is not None
                reply = answer_question(
                    oracle, wire.question_from_obj(lease["question"])
                )
                payload = {"worker": "w0", "qid": lease["qid"], "reply": reply}
                first = client._http.request("POST", "/v1/worker/answer", payload)
                assert first["status"] == "accepted"
                # at-least-once redelivery: same worker, same qid
                second = client._http.request("POST", "/v1/worker/answer", payload)
                assert second["status"] == "duplicate"
                third = client._http.request("POST", "/v1/worker/answer", payload)
                assert third["status"] == "duplicate"
                stats = client.stats()["broker"]
                assert stats["duplicate_answers"] == 2
                # exactly one vote was counted
                assert stats["resolved"] == 1

    def test_answer_after_resolution_is_stale_not_counted(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        oracle = PerfectOracle(workload.ground_truth)
        with ServiceHarness(manager, votes_per_closed=1) as harness:
            with ServiceClient(harness.host, harness.port) as client:
                client.open(workload.queries[0])
                lease = client._http.request(
                    "GET", "/v1/worker/feed?worker=w0&wait=20"
                )["question"]
                reply = answer_question(
                    oracle, wire.question_from_obj(lease["question"])
                )
                accepted = client._http.request(
                    "POST", "/v1/worker/answer",
                    {"worker": "w0", "qid": lease["qid"], "reply": reply},
                )
                assert accepted["status"] == "accepted" and accepted["resolved"]
                # a different worker answering the already-resolved question
                stale = client._http.request(
                    "POST", "/v1/worker/answer",
                    {"worker": "w1", "qid": lease["qid"], "reply": reply},
                )
                assert stale["status"] == "stale"
                assert client.stats()["broker"]["stale_answers"] == 1

    def test_unknown_question_is_acknowledged_not_an_error(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        with ServiceHarness(manager) as harness:
            with ServiceClient(harness.host, harness.port) as client:
                doc = client._http.request(
                    "POST", "/v1/worker/answer",
                    {"worker": "w0", "qid": 424242, "reply": {"value": True}},
                )
                assert doc["status"] == "unknown"


class TestBrokerBoundedMemory:
    """Resolved questions age out of a bounded tombstone window instead
    of accumulating (and being rescanned by every lease) forever."""

    def test_resolved_questions_prune_to_the_tombstone_window(self):
        broker = QuestionBroker(
            policy=RetryPolicy(timeout=30.0), tombstone_limit=4
        )
        qids = []
        for i in range(20):
            question = broker.submit("verify_fact", {"i": i}, None)
            outcome = broker.answer("w0", question.qid, True, now=0.0)
            assert outcome["status"] == "accepted"
            qids.append(question.qid)
        assert broker.pending_count() == 0
        # only the newest tombstone_limit resolutions are remembered
        assert len(broker._questions) == 4
        assert broker.stats()["resolved"] == 20

        # idempotency survives within the window...
        assert broker.answer("w0", qids[-1], True, 0.0)["status"] == "duplicate"
        assert broker.answer("w1", qids[-1], True, 0.0)["status"] == "stale"
        # ...and degrades to an acknowledged 'unknown' beyond it
        assert broker.answer("w0", qids[0], True, 0.0)["status"] == "unknown"

    def test_lease_scan_sees_pending_work_among_tombstones(self):
        broker = QuestionBroker(
            policy=RetryPolicy(timeout=30.0), tombstone_limit=2
        )
        for i in range(10):
            question = broker.submit("verify_fact", {"i": i}, None)
            broker.answer("w0", question.qid, True, now=0.0)
        live = broker.submit("verify_fact", {"i": "live"}, None)
        lease = broker.lease("w1", now=0.0)
        assert lease is not None and lease["qid"] == live.qid
        assert broker.stats()["pending"] == 1
    def test_vanished_worker_lease_expires_and_run_converges_at_parity(self):
        workload = build_workload("figure1")
        query = workload.queries[0]
        expected_digest, expected_cost = in_process_baseline(workload, query)

        manager = SessionManager(workload.dirty.copy(), mode="sync")
        policy = RetryPolicy(
            timeout=0.6, max_retries=5, backoff_base=0.05, backoff_factor=1.0
        )
        with ServiceHarness(manager, policy=policy, tick=0.1) as harness:
            oracle = PerfectOracle(workload.ground_truth)
            with ServiceClient(harness.host, harness.port) as client:
                client.open(query)
                # the worker leases the first question... and vanishes
                ghost_lease = client._http.request(
                    "GET", "/v1/worker/feed?worker=w0&wait=20"
                )["question"]
                assert ghost_lease is not None
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if client.stats()["broker"]["expired_leases"] >= 1:
                        break
                    time.sleep(0.1)
                assert client.stats()["broker"]["expired_leases"] >= 1

                # the same worker reconnects and behaves from now on
                worker = WorkerClient(harness.host, harness.port, "w0", oracle)
                worker.start_thread()
                try:
                    doc = client.wait(0, timeout=120.0)
                    digest = client.digest()["digest"]
                finally:
                    worker.stop()
                assert doc["state"] == "committed", doc
                assert doc["report"]["converged"] is True
                # the timeout cost a retry, never a wrong/extra answer:
                # digest and question cost match the in-process run
                assert digest == expected_digest
                assert doc["cost"] == expected_cost

    def test_reroute_prefers_a_fresh_worker_for_the_retry(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        policy = RetryPolicy(
            timeout=0.5, max_retries=4, backoff_base=0.05, backoff_factor=1.0,
            reroute=True,
        )
        with ServiceHarness(manager, policy=policy, tick=0.1) as harness:
            with ServiceClient(harness.host, harness.port) as client:
                client.open(workload.queries[0])
                ghost = client._http.request(
                    "GET", "/v1/worker/feed?worker=ghost&wait=20"
                )["question"]
                assert ghost is not None
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    if client.stats()["broker"]["expired_leases"] >= 1:
                        break
                    time.sleep(0.1)
                # a fresh worker gets the retried question immediately...
                fresh = client._http.request(
                    "GET", "/v1/worker/feed?worker=fresh&wait=20"
                )["question"]
                assert fresh is not None
                assert fresh["qid"] == ghost["qid"]
                assert fresh["attempt"] > ghost["attempt"]
                oracle = PerfectOracle(workload.ground_truth)
                reply = answer_question(
                    oracle, wire.question_from_obj(fresh["question"])
                )
                client._http.request(
                    "POST", "/v1/worker/answer",
                    {"worker": "fresh", "qid": fresh["qid"], "reply": reply},
                )
                worker = WorkerClient(harness.host, harness.port, "fresh", oracle)
                worker.start_thread()
                try:
                    doc = client.wait(0, timeout=120.0)
                finally:
                    worker.stop()
                assert doc["state"] == "committed"

    def test_parked_feed_leases_the_retry_when_its_backoff_ends(self):
        # the expiry wakes the parked feed before the retry's backoff
        # has passed; the feed must be woken again then, not sleep out
        # its whole wait=20
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        policy = RetryPolicy(
            timeout=0.5, max_retries=4, backoff_base=0.3, backoff_factor=1.0
        )
        with ServiceHarness(manager, policy=policy, tick=0.1) as harness:
            with ServiceClient(harness.host, harness.port) as client:
                client.open(workload.queries[0])
                ghost = client._http.request(
                    "GET", "/v1/worker/feed?worker=ghost&wait=20"
                )["question"]
                assert ghost is not None
                parked = time.monotonic()
                retry = client._http.request(
                    "GET", "/v1/worker/feed?worker=parked&wait=20"
                )["question"]
                waited = time.monotonic() - parked
                assert retry is not None and retry["qid"] == ghost["qid"]
                assert client.stats()["broker"]["expired_leases"] == 1
                # lease timeout 0.5 + tick 0.1 + backoff 0.3, with slack
                assert waited < 2.0, waited
                oracle = PerfectOracle(workload.ground_truth)
                client._http.request(
                    "POST", "/v1/worker/answer",
                    {
                        "worker": "parked",
                        "qid": retry["qid"],
                        "reply": answer_question(
                            oracle, wire.question_from_obj(retry["question"])
                        ),
                    },
                )
                worker = WorkerClient(harness.host, harness.port, "parked", oracle)
                worker.start_thread()
                try:
                    doc = client.wait(0, timeout=120.0)
                finally:
                    worker.stop()
                assert doc["state"] == "committed"
