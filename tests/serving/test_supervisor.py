"""The supervised worker fleet: query round-trips, crash/hang
respawns, generation fencing, and the circuit-breaker state machine."""

from __future__ import annotations

import threading
import time

import pytest

from repro import ShardError, infer_schema, parse_document
from repro.resilience.faults import WorkerFaultPlan
from repro.serving.shards import ShardedStore
from repro.serving.supervisor import CircuitBreaker, ShardRuntime

pytestmark = pytest.mark.filterwarnings(
    # Forking from a process with supervision threads is this layer's
    # deliberate design on Linux; py3.12 warns about the general case.
    "ignore:.*fork.*:DeprecationWarning"
)


def make_store(tmp_path, shards=2, docs=4):
    documents = [
        parse_document(
            "<shop>"
            + "".join(
                f"<item sku='d{i}i{j}'><price>{j}</price></item>"
                for j in range(3)
            )
            + "</shop>",
            name=f"doc{i}.xml",
        )
        for i in range(docs)
    ]
    store = ShardedStore.create(
        str(tmp_path / "s"), schema=infer_schema(documents), shards=shards
    )
    store.bulk_load(documents)
    return store


def wait_for(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


COUNT_SQL = "SELECT COUNT(*) AS n, 1, x'00' FROM docs"


class TestRuntimeBasics:
    def test_query_roundtrip(self, tmp_path):
        store = make_store(tmp_path)
        with ShardRuntime(store.shard_paths, replicas=1) as runtime:
            request = runtime.submit(0, "SELECT id, 1, x'00' FROM docs")
            response = runtime.wait(request, timeout=5.0)
            assert response is not None and response["ok"]
            assert response["gen"] == 0
        store.close()

    def test_ping_all_workers(self, tmp_path):
        store = make_store(tmp_path)
        with ShardRuntime(store.shard_paths, replicas=2) as runtime:
            for shard in range(runtime.shard_count):
                for replica in range(2):
                    assert runtime.ping(shard, replica, timeout=5.0)
        store.close()

    def test_worker_reports_typed_error_kind(self, tmp_path):
        store = make_store(tmp_path)
        with ShardRuntime(store.shard_paths, replicas=1) as runtime:
            request = runtime.submit(0, "SELECT * FROM no_such_table")
            response = runtime.wait(request, timeout=5.0)
            assert response is not None and not response["ok"]
            assert response["error_kind"] == "storage"
        store.close()

    def test_rejects_empty_fleet(self):
        with pytest.raises(ShardError):
            ShardRuntime([])

    def test_rejects_zero_replicas(self, tmp_path):
        store = make_store(tmp_path)
        with pytest.raises(ShardError):
            ShardRuntime(store.shard_paths, replicas=0)
        store.close()


class TestSupervision:
    def test_killed_worker_respawned_within_health_interval(self, tmp_path):
        """The acceptance-criteria bound: a killed worker is back
        within one health-check interval (plus spawn time)."""
        store = make_store(tmp_path, shards=1)
        plan = WorkerFaultPlan().script("kill", shard=0, replica=0)
        health = 0.2
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=1,
            health_interval=health,
            fault_plan=plan,
        ).start()
        try:
            request = runtime.submit(0, COUNT_SQL)
            assert runtime.wait(request, timeout=2.0) is None  # died
            killed_at = time.monotonic()
            assert wait_for(
                lambda: runtime.respawn_count() >= 1, timeout=5.0
            )
            respawn_event = [
                event
                for event in runtime.events
                if event["event"] == "respawn"
            ][0]
            assert respawn_event["reason"] == "crash"
            # Detection itself happens within one sweep; allow one
            # extra interval of slack for process spawn.
            assert time.monotonic() - killed_at < health * 2 + 2.0
            # The respawned incarnation serves queries again.
            assert wait_for(
                lambda: runtime.ping(0, 0, timeout=1.0), timeout=5.0
            )
        finally:
            runtime.close()
        store.close()

    def test_hung_worker_terminated_and_respawned(self, tmp_path):
        store = make_store(tmp_path, shards=1)
        plan = WorkerFaultPlan().script("hang", shard=0, replica=0)
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=1,
            health_interval=0.1,
            heartbeat_timeout=0.4,
            fault_plan=plan,
        ).start()
        try:
            runtime.submit(0, COUNT_SQL)  # freezes the worker
            assert wait_for(
                lambda: runtime.respawn_count() >= 1, timeout=8.0
            )
            reasons = {
                event["reason"]
                for event in runtime.events
                if event["event"] == "respawn"
            }
            assert "hung" in reasons
        finally:
            runtime.close()
        store.close()


class TestGenerationFencing:
    def test_respawn_bumps_generation(self, tmp_path):
        store = make_store(tmp_path, shards=1)
        plan = WorkerFaultPlan().script("kill", shard=0, replica=0)
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=1,
            health_interval=0.1,
            fault_plan=plan,
        ).start()
        try:
            assert runtime.worker(0, 0).generation == 0
            runtime.submit(0, COUNT_SQL)
            assert wait_for(
                lambda: runtime.worker(0, 0).generation == 1, timeout=5.0
            )
        finally:
            runtime.close()
        store.close()

    def test_request_to_dead_incarnation_reports_lost(self, tmp_path):
        store = make_store(tmp_path, shards=1)
        plan = WorkerFaultPlan().script("kill", shard=0, replica=0)
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=1,
            health_interval=0.1,
            fault_plan=plan,
        ).start()
        lost = threading.Event()
        outcomes = []

        def on_complete(response):
            outcomes.append(response)
            lost.set()

        try:
            started = time.monotonic()
            runtime.submit(0, COUNT_SQL, on_complete=on_complete)
            # The kill fires on receipt: the request can never be
            # answered, and the respawn reports it lost through its
            # callback — promptly, not after some deadline.
            assert lost.wait(timeout=5.0)
            assert time.monotonic() - started < 2.0
            assert runtime.respawn_count() >= 1
            assert outcomes == [None]
        finally:
            runtime.close()
        assert outcomes == [None]  # reported exactly once
        store.close()

    def test_fresh_request_after_respawn_is_served(self, tmp_path):
        store = make_store(tmp_path, shards=1)
        plan = WorkerFaultPlan().script("kill", shard=0, replica=0)
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=1,
            health_interval=0.1,
            fault_plan=plan,
        ).start()
        try:
            runtime.submit(0, COUNT_SQL)
            assert wait_for(
                lambda: runtime.worker(0, 0).generation == 1, timeout=5.0
            )
            request = runtime.submit(0, COUNT_SQL)
            response = runtime.wait(request, timeout=5.0)
            assert response is not None and response["ok"]
            assert response["gen"] == 1
        finally:
            runtime.close()
        store.close()


class TestCircuitBreaker:
    def test_starts_closed(self):
        assert CircuitBreaker().state == "closed"

    def test_trips_after_threshold(self):
        breaker = CircuitBreaker(failure_threshold=3, cooldown=60.0)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=2, cooldown=60.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_half_open_after_cooldown_single_probe(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=10.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        assert not breaker.allow()
        now[0] = 11.0
        assert breaker.state == "half-open"
        assert breaker.allow()  # the probe slot
        assert not breaker.allow()  # only one probe at a time

    def test_probe_success_closes(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=10.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        now[0] = 11.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"

    def test_probe_failure_reopens(self):
        now = [0.0]
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown=10.0, clock=lambda: now[0]
        )
        breaker.record_failure()
        now[0] = 11.0
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        now[0] = 22.0
        assert breaker.state == "half-open"

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)
