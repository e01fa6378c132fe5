"""The crowd service, end to end over real sockets (ISSUE 8).

The acceptance bar: a tenant cleaning ``worldcup`` through
:class:`~repro.service.client.ServiceClient`, with crowd answers
arriving via the streaming worker feed, must land the *same* database
(bit-identical ``state_digest``) at the *same* question cost as an
in-process :class:`~repro.server.manager.SessionManager` run; and
admission control must shed load with 429s while accepted sessions
still converge, with queue depth bounded and observable.
"""

from __future__ import annotations

import time

import pytest

from repro.durability.codec import database_digest
from repro.oracle.perfect import PerfectOracle
from repro.server.manager import SessionManager
from repro.service.client import ServiceClient, ServiceError, WorkerClient, answer_question
from repro.shard import wire
from repro.telemetry import telemetry_session
from service_harness import ServiceHarness

from repro.service.cli import build_workload


def in_process_baseline(workload, query):
    """Digest + cost of the same cleaning run without the network."""
    dirty = workload.dirty.copy()
    manager = SessionManager(dirty, mode="sync")
    session = manager.open_session(query, PerfectOracle(workload.ground_truth))
    manager.run_all()
    assert session.state.value == "committed"
    return database_digest(manager.database), session.total_cost


class TestEndToEnd:
    @pytest.mark.parametrize("dataset,stream", [("figure1", False), ("worldcup", True)])
    def test_digest_and_cost_parity_with_in_process_run(self, dataset, stream):
        workload = build_workload(dataset)
        query = workload.queries[0]
        expected_digest, expected_cost = in_process_baseline(workload, query)

        manager = SessionManager(workload.dirty.copy(), mode="sync")
        with ServiceHarness(manager) as harness:
            workers = [
                WorkerClient(
                    harness.host, harness.port, f"w{i}",
                    PerfectOracle(workload.ground_truth),
                )
                for i in range(2)
            ]
            threads = [w.start_thread(stream=stream) for w in workers]
            try:
                with ServiceClient(harness.host, harness.port) as client:
                    doc = client.clean(query, timeout=180.0)
                    digest = client.digest()["digest"]
            finally:
                for worker in workers:
                    worker.stop()
            assert doc["state"] == "committed", doc
            assert doc["report"]["converged"] is True
            assert digest == expected_digest
            assert doc["cost"] == expected_cost
        for thread in threads:
            thread.join(timeout=3)

    def test_session_lifecycle_and_report_fields(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        with ServiceHarness(manager) as harness:
            worker = WorkerClient(
                harness.host, harness.port, "w0",
                PerfectOracle(workload.ground_truth),
            )
            worker.start_thread()
            try:
                with ServiceClient(harness.host, harness.port, tenant="acme") as client:
                    sid = client.open(workload.queries[0])
                    doc = client.wait(sid, timeout=120.0)
                    assert doc["session"] == sid
                    assert doc["tenant"] == "acme"
                    assert doc["done"] is True
                    report = doc["report"]
                    assert report["query_name"] == workload.queries[0].name
                    assert report["edits"], "cleaning produced no edits"
                    assert doc["cost"] == report["total_cost"]
                    # status after the fact is stable and idempotent
                    assert client.status(sid)["state"] == "committed"
                    stats = client.stats()
                    assert stats["sessions"].get("committed") == 1
                    assert stats["broker"]["resolved"] >= 1
                    assert client.healthz()["role"] == "primary"
            finally:
                worker.stop()

    def test_finished_sessions_are_evicted_after_retention(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        with ServiceHarness(manager, entry_retention=0.3, tick=0.05) as harness:
            worker = WorkerClient(
                harness.host, harness.port, "w0",
                PerfectOracle(workload.ground_truth),
            )
            worker.start_thread()
            try:
                with ServiceClient(harness.host, harness.port) as client:
                    sid = client.open(workload.queries[0])
                    doc = client.wait(sid, timeout=120.0)
                    assert doc["state"] == "committed"
                    # housekeeping evicts the finished entry once its
                    # retention lapses; the document 404s after that
                    deadline = time.monotonic() + 10.0
                    while time.monotonic() < deadline:
                        try:
                            client.status(sid)
                        except ServiceError as error:
                            assert error.status == 404
                            break
                        time.sleep(0.05)
                    else:
                        raise AssertionError("finished session never evicted")
                    assert client.stats()["sessions"] == {}
            finally:
                worker.stop()

    def test_unknown_session_is_404_and_bad_body_is_400(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        with ServiceHarness(manager) as harness:
            with ServiceClient(harness.host, harness.port) as client:
                with pytest.raises(ServiceError) as excinfo:
                    client.status(999)
                assert excinfo.value.status == 404
                with pytest.raises(ServiceError) as excinfo:
                    client._http.request("POST", "/v1/sessions", {"tenant": "x"})
                assert excinfo.value.status == 400


def _lease_and_reply(client, oracle, worker="w0"):
    """Lease one question through the feed; returns (lease, answer payload)."""
    lease = client._http.request("GET", f"/v1/worker/feed?worker={worker}&wait=20")[
        "question"
    ]
    assert lease is not None
    reply = answer_question(oracle, wire.question_from_obj(lease["question"]))
    return lease, {"worker": worker, "qid": lease["qid"], "reply": reply}


def _wait_for(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestAnswerAndLease:
    """``POST /v1/worker/answer`` with ``"wait"`` records the vote and
    returns the same worker's next lease in one round trip."""

    def test_answer_with_wait_returns_the_same_workers_next_lease(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        oracle = PerfectOracle(workload.ground_truth)
        with ServiceHarness(manager) as harness:
            broker = harness.service.broker
            with ServiceClient(harness.host, harness.port) as client:
                client.open(workload.queries[0])
                first, payload = _lease_and_reply(client, oracle)
                outcome = client._http.request(
                    "POST", "/v1/worker/answer", dict(payload, wait=20)
                )
                assert outcome["status"] == "accepted"
                lease = outcome["question"]
                assert lease is not None and lease["qid"] != first["qid"]
                assert set(lease) == {"qid", "kind", "question", "attempt", "timeout"}
                # the lease is w0's: in flight for w0 alone
                assert list(broker._questions[lease["qid"]].active) == ["w0"]
                assert broker.stats()["inflight"] == 1

    def test_answer_without_wait_leases_nothing(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        oracle = PerfectOracle(workload.ground_truth)
        with ServiceHarness(manager) as harness:
            broker = harness.service.broker
            with ServiceClient(harness.host, harness.port) as client:
                sid = client.open(workload.queries[0])
                _, payload = _lease_and_reply(client, oracle)
                outcome = client._http.request("POST", "/v1/worker/answer", payload)
                assert outcome["status"] == "accepted"
                assert "question" not in outcome
                # the session asks its next question; nobody leased it
                assert _wait_for(lambda: broker.stats()["pending"] >= 1)
                assert broker.stats()["inflight"] == 0
                # a stream worker still receives it, and the rest
                worker = WorkerClient(harness.host, harness.port, "w1", oracle)
                thread = worker.start_thread(stream=True)
                try:
                    doc = client.wait(sid, timeout=120.0)
                finally:
                    worker.stop()
                assert doc["state"] == "committed", doc
                assert worker.answered >= 1
        thread.join(timeout=20)  # the stream ends when the service stops
        assert not thread.is_alive()
        worker.close()

    def test_replayed_answer_with_wait_is_duplicate_and_counted_once(self):
        workload = build_workload("figure1")
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        oracle = PerfectOracle(workload.ground_truth)
        with ServiceHarness(manager) as harness:
            with ServiceClient(harness.host, harness.port) as client:
                client.open(workload.queries[0])
                _, payload = _lease_and_reply(client, oracle)
                first = client._http.request(
                    "POST", "/v1/worker/answer", dict(payload, wait=20)
                )
                assert first["status"] == "accepted"
                assert first["question"] is not None
                # at-least-once redelivery of the same answer: w0 already
                # holds the only pending question, so nothing more to lease
                replay = client._http.request(
                    "POST", "/v1/worker/answer", dict(payload, wait=0.2)
                )
                assert replay["status"] == "duplicate"
                assert replay["question"] is None
                stats = client.stats()["broker"]
                assert stats["duplicate_answers"] == 1
                assert stats["resolved"] == 1
                assert stats["inflight"] == 1


class TestAdmissionControl:
    def test_429_under_load_accepted_sessions_still_converge(self):
        workload = build_workload("burst", tenants=6)
        manager = SessionManager(workload.dirty.copy(), mode="sync")
        with telemetry_session() as (hub, _):
            with ServiceHarness(
                manager, max_inflight_per_tenant=1, max_inflight_total=3
            ) as harness:
                with ServiceClient(harness.host, harness.port) as client:
                    # no workers yet: every admitted session parks on its
                    # first crowd question, holding its in-flight slot
                    first = client.open(workload.queries[0], tenant="t0")
                    with pytest.raises(ServiceError) as excinfo:
                        client.open(workload.queries[0], tenant="t0")
                    assert excinfo.value.status == 429
                    assert excinfo.value.retry_after is not None
                    client.open(workload.queries[1], tenant="t1")
                    client.open(workload.queries[2], tenant="t2")
                    # total cap (3) reached: even a fresh tenant is shed
                    with pytest.raises(ServiceError) as excinfo:
                        client.open(workload.queries[3], tenant="t3")
                    assert excinfo.value.status == 429
                    stats = client.stats()
                    assert stats["inflight"] <= stats["caps"]["total"]
                    assert stats["broker"]["pending"] >= 1

                    # workers arrive: the admitted sessions drain and
                    # converge; freed slots admit the shed tenant
                    worker = WorkerClient(
                        harness.host, harness.port, "w0",
                        PerfectOracle(workload.ground_truth),
                    )
                    worker.start_thread()
                    try:
                        docs = [client.wait(s, timeout=120.0) for s in (first, 1, 2)]
                        late = client.open_when_admitted(
                            workload.queries[3], tenant="t3", deadline=60.0
                        )
                        docs.append(client.wait(late, timeout=120.0))
                    finally:
                        worker.stop()
                    assert all(d["state"] == "committed" for d in docs), docs
                    assert all(d["report"]["converged"] for d in docs)
            counters = hub.counters()
            histograms = hub.histograms()
        assert counters["service.admission_rejections"] >= 2
        depth = histograms["service.queue_depth"]
        assert depth.maximum <= 3, "queue depth exceeded the admission cap"
        assert counters["service.requests"] > 0
        assert "service.request_latency_s" in histograms
