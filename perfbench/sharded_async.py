"""``sharded-async``: the serving stack under one asyncio client.

Eight XMark documents on two shards with one replica each (one worker
per core, so hedges have no second replica to go to).  One event-loop
thread drives :class:`~repro.serving.frontdoor.AsyncShardedEngine`:

The run is :data:`ROUNDS` rounds, each an open-loop segment then a closed-loop
segment, so both phases see the machine at the same times:

* latency — an open loop at a fixed rate, seeded query choice, each read
  timed from when it was due (so a stall also delays the reads queued
  behind it); the generator's own lateness is ``loadgen.lag_p95_ms``;
* throughput — a closed loop of ``max_inflight`` users, each awaiting
  its answer before sending the next: ``ops_per_s``.

The result cache is off (a fixed query set would otherwise be answered
from memory).  Every answer is compared with a single store built from
the same documents, whose global ids the sharded store reproduces.  The
comparison waits until the segment has ended, so it never holds up the
event loop while reads are being timed.
"""

from __future__ import annotations

import asyncio
import os
import random
import time

from perfbench.build import build_sharded, timed_setups
from perfbench.common import (
    Checker,
    Context,
    Outcome,
    answer_digest,
    median,
    own_peak_rss_mb,
    peak_rss_mb,
    settle,
    store_bytes,
)
from perfbench.inputs import derive_seed, read_texts
from perfbench.trace import REQUEST

SETUP_REPEATS = 3
#: Open-loop arrival rate, reads per second: well under the ~400/s the
#: closed loop sustains on two cores, and 1000+ reads per run.
RATE = 120.0
#: Share of the run spent in the open-loop latency phase.
OPEN_SHARE = 0.75
#: Closed-loop users: one per admission slot.
USERS = 8
#: Rounds of (open-loop segment, closed-loop segment) in a run.
ROUNDS = 5


class Client:
    """The reads of one segment; their answers are kept until the
    segment ends and checked then."""

    def __init__(self, front, queries, expected, checker: Checker):
        self.front = front
        self.queries = queries
        self.expected = expected
        self.checker = checker
        self.rid = 1
        self.latency_ms: list[float] = []
        self.lag_ms: list[float] = []
        #: ``(xpath, result)`` of reads completed but not yet checked.
        self.unchecked: list = []

    async def read(self, xpath: str, due: float) -> None:
        REQUEST.set((self.rid, "read"))
        self.rid += 1
        try:
            result = await self.front.execute(xpath)
        except Exception as exc:  # counted, never hidden
            self.checker.record(False, f"{xpath}: {exc!r}")
            return
        self.latency_ms.append((time.perf_counter() - due) * 1000)
        self.unchecked.append((xpath, result))

    def check(self) -> None:
        """Compare the segment's answers with the expected digests."""
        for xpath, result in self.unchecked:
            got = [[row.id, row.value] for row in result.rows]
            self.checker.record(
                result.complete and answer_digest(self.checker.corrupt(got))
                == self.expected[xpath],
                xpath,
            )
        self.unchecked = []

    async def open_loop(self, rng: random.Random, seconds: float) -> None:
        """Send at ``RATE`` regardless of completions."""
        start = time.perf_counter() + 0.005
        tasks = []
        for index in range(int(RATE * seconds)):
            due = start + index / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lag_ms.append((time.perf_counter() - due) * 1000)
            tasks.append(asyncio.ensure_future(
                self.read(rng.choice(self.queries), due)
            ))
        await asyncio.gather(*tasks)

    async def closed_loop(self, rng: random.Random,
                          seconds: float) -> tuple[int, float]:
        """``USERS`` users, each sending its next read on completion;
        returns ``(completed reads, seconds taken)``."""
        end = time.perf_counter() + seconds
        before = len(self.latency_ms)

        async def user(user_rng: random.Random) -> None:
            while time.perf_counter() < end:
                await self.read(user_rng.choice(self.queries),
                                time.perf_counter())

        started = time.perf_counter()
        await asyncio.gather(*(
            user(random.Random(rng.random())) for _ in range(USERS)
        ))
        return (len(self.latency_ms) - before,
                time.perf_counter() - started)

    async def round(self, rng: random.Random, seconds: float):
        """One open-loop segment then one closed-loop segment, each
        checked after it ends; returns ``(open-loop latencies, closed-loop
        reads, closed seconds)``."""
        self.latency_ms = []
        await self.open_loop(rng, seconds * OPEN_SHARE)
        latency = list(self.latency_ms)
        self.check()
        reads, taken = await self.closed_loop(
            rng, seconds * (1 - OPEN_SHARE)
        )
        self.check()
        return latency, reads, taken


async def drive(engine, payload: dict, ctx: Context, checker: Checker,
                tracer):
    from repro.serving.frontdoor import AsyncShardedEngine

    front = AsyncShardedEngine(engine)
    queries, expected = payload["queries"], payload["expected"]
    rng = random.Random(derive_seed(ctx.workload, ctx.seed, "ops"))
    await asyncio.gather(*(front.execute(q) for q in queries))  # warm-up
    client = Client(front, queries, expected, checker)
    if tracer is None:
        latency, reads, seconds = [], 0, 0.0
        for _ in range(ROUNDS):
            open_ms, closed, taken = await client.round(
                rng, ctx.seconds / ROUNDS
            )
            latency += open_ms
            reads += closed
            seconds += taken
        return {
            "read_p50_ms": median(latency),
            "ops_per_s": reads / seconds,
        }, {}
    return await traced(client, engine, ctx, rng, tracer)


async def traced(client: Client, engine, ctx, rng, tracer):
    """Alternate untraced and traced rounds of the same two phases;
    returns ``(metrics, notes)``."""
    from perfbench.layers import per_layer

    tracer.spans = [s for s in tracer.spans if s.kind == "setup"]
    rounds = ROUNDS + 1  # even: as many traced rounds as untraced
    plain, marked = [0, 0.0], [0, 0.0]
    read_ms: list[float] = []
    lag: list[float] = []
    reads = 0
    serving = dict.fromkeys(engine.stats, 0)
    for index in range(rounds):
        is_traced = index % 2 == 1
        before = dict(engine.stats)
        client.lag_ms = []
        if is_traced:
            tracer.install()
        try:
            latency, closed, taken = await client.round(
                rng, ctx.seconds / rounds
            )
        finally:
            tracer.uninstall()
        side = marked if is_traced else plain
        side[0] += closed
        side[1] += taken
        if is_traced:
            reads += len(latency) + closed
            for key, value in engine.stats.items():
                serving[key] += value - before.get(key, 0)
        else:
            read_ms += latency
            lag += client.lag_ms
    return per_layer(tracer, {
        "reads": reads,
        "read_ms": read_ms,
        "serving": serving,
        "lag_ms": lag,
        "untraced_ops_per_s": plain[0] / plain[1],
        "traced_ops_per_s": marked[0] / marked[1],
    })


def worker_peak_rss_mb(engine) -> float:
    """The largest worker's own peak memory (see
    :func:`~perfbench.common.own_peak_rss_mb`)."""
    runtime = engine.runtime
    return max(
        own_peak_rss_mb(runtime.worker(shard, replica).process.pid)
        for shard in range(runtime.shard_count)
        for replica in range(runtime.replicas)
    )


def run(ctx: Context, payload: dict, tracer) -> Outcome:
    import repro

    texts = read_texts(payload)
    xml_bytes = sum(len(text.encode("utf-8")) for text in texts)
    directory = os.path.join(ctx.workdir, "sharded-async")
    config = repro.EngineConfig(
        replicas=1,
        result_cache_size=None,
        deadline=30.0,
        max_inflight=USERS,
        admission_timeout=None,
    )
    engine, setup_s = timed_setups(
        lambda: build_sharded(texts, directory, ctx.sizes["shards"], config),
        ctx.sizes.get("setup_repeats", SETUP_REPEATS),
        tracer,
    )
    del texts
    checker = Checker(ctx.corrupt)
    settle()
    try:
        metrics, notes = asyncio.run(
            drive(engine, payload, ctx, checker, tracer)
        )
        workers_mb = worker_peak_rss_mb(engine)
    finally:
        engine.close()
    if tracer is None:
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = peak_rss_mb() + workers_mb
        notes["largest_worker_mb"] = workers_mb
        metrics["store_bytes_per_xml_byte"] = (
            store_bytes(directory) / xml_bytes
        )
    notes["failures"] = checker.first_failures
    return Outcome(checker.attempted, checker.failed, metrics, notes)
