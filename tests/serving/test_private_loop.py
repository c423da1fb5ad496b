"""The blocking ShardedEngine over the async front door: its private
loop thread, cancellation of interrupted calls, per-shard
replica rotation, and shard handles that any thread may open or
close."""

from __future__ import annotations

import asyncio
import signal
import threading
import time

import pytest

import repro
from repro import EngineConfig, infer_schema, parse_document
from repro.resilience.faults import WorkerFaultPlan
from repro.serving.scatter import ServingConfig, ShardedEngine
from repro.serving.shards import ShardedStore
from repro.serving.supervisor import ShardRuntime

pytestmark = pytest.mark.filterwarnings(
    "ignore:.*fork.*:DeprecationWarning"
)

QUERIES = ["/shop/item", "//price", "//item[@sku]", "//price/text()"]


def make_store(directory, shards):
    docs = [
        parse_document(
            "<shop>"
            + "".join(
                f"<item sku='d{i}i{j}'><price>{i + j}</price></item>"
                for j in range(4)
            )
            + "</shop>",
            name=f"doc{i}.xml",
        )
        for i in range(6)
    ]
    store = ShardedStore.create(directory, infer_schema(docs), shards=shards)
    store.bulk_load(docs)
    return store


def loop_threads():
    return [t for t in threading.enumerate() if t.name == "scatter-loop"]


@pytest.fixture()
def sharded(tmp_path):
    store = make_store(str(tmp_path / "shards"), shards=2)
    yield store
    store.close()


class TestPrivateLoop:
    def test_started_lazily_reused_and_joined_by_close(self, sharded):
        engine = ShardedEngine.serve(
            sharded, config=ServingConfig(deadline=10.0), replicas=1
        )
        try:
            assert loop_threads() == []
            assert engine.execute("//item").complete
            assert len(loop_threads()) == 1
            results = engine.execute_many(QUERIES)
            assert all(result.complete for result in results)
            assert len(loop_threads()) == 1
        finally:
            engine.close()
        assert loop_threads() == []
        with pytest.raises(RuntimeError, match="closed"):
            engine.execute("//item")

    @pytest.mark.skipif(
        not hasattr(signal, "setitimer"), reason="needs POSIX interval timers"
    )
    def test_interrupted_call_releases_its_admission_slot(self, sharded):
        class Interrupted(Exception):
            pass

        def interrupt(signum, frame):
            raise Interrupted

        plan = WorkerFaultPlan().script("slow", shard=0, seconds=2.0)
        config = ServingConfig(
            deadline=10.0,
            hedge_delay=None,
            max_inflight=1,
            admission_timeout=0.5,
            result_cache_size=None,
        )
        with ShardedEngine.serve(
            sharded, config=config, replicas=1, fault_plan=plan
        ) as engine:
            previous = signal.signal(signal.SIGALRM, interrupt)
            try:
                signal.setitimer(signal.ITIMER_REAL, 0.3)
                with pytest.raises(Interrupted):
                    engine.execute("//item")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            # The interrupted query was cancelled on the loop, so its
            # admission slot is free long before its slow shard answers.
            started = time.monotonic()
            assert engine.execute("//price").complete
            assert time.monotonic() - started < 1.5
            assert engine.stats["rejections"] == 0


class TestReplicaRotation:
    def test_sequential_executes_alternate_replicas_per_shard(
        self, sharded, monkeypatch
    ):
        sent = []
        original = ShardRuntime.submit_batch

        def recording(runtime, shard, sqls, **kwargs):
            sent.append((shard, kwargs.get("replica")))
            return original(runtime, shard, sqls, **kwargs)

        monkeypatch.setattr(ShardRuntime, "submit_batch", recording)
        config = ServingConfig(
            deadline=10.0, hedge_delay=None, result_cache_size=None
        )
        with ShardedEngine.serve(
            sharded, config=config, replicas=2
        ) as engine:
            for _ in range(4):
                assert engine.execute("//item").complete
        for shard in range(2):
            replicas = [r for s, r in sent if s == shard]
            assert replicas == [0, 1, 0, 1], (shard, sent)


class TestCrossThreadHandles:
    def test_async_on_worker_thread_then_close_on_main(self, tmp_path):
        directory = str(tmp_path / "shards")
        make_store(directory, shards=2).close()
        engine = repro.connect(directory, config=EngineConfig(replicas=1))
        outcome = {}

        def client():
            outcome["result"] = asyncio.run(engine.execute_async("//item"))

        try:
            worker = threading.Thread(target=client)
            worker.start()
            worker.join()
            assert outcome["result"].complete
            assert len(engine.execute("//price")) == 24
        finally:
            engine.close()  # closes shard handles opened on other threads
