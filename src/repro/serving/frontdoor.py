"""Asyncio front door for the sharded worker fleet — the one home of
the per-shard degradation ladder.

:class:`AsyncShardedEngine` lets a *single-threaded* event-loop process
hold thousands of in-flight XPath queries against the
:class:`~repro.serving.supervisor.ShardRuntime` fleet without a thread
per query: worker completions are bridged straight onto the event loop
through the supervisor's ``on_complete`` callbacks and resolved into
futures.  It serves two kinds of caller: asyncio callers await it on
their own loop, and the blocking :class:`~repro.serving.scatter.
ShardedEngine` runs the same coroutines on a private loop thread.

Three mechanisms make up the front door:

**Batched admission (tick coalescing).**  Queries submitted in the same
event-loop iteration — one ``asyncio.gather``, many concurrent client
tasks, a burst drained from a socket — are coalesced into a single
*tick* and scattered as **one** ``submit_batch`` message per shard, so
queue/marshal overhead is paid per burst instead of per query.  The
tick flush is scheduled with ``loop.call_soon`` when the first query of
a burst arrives; there is no background pump task to leak or poll.
Each shard rotates its batches over its replicas.

**Awaitable backpressure.**  Admission is an ``asyncio.Semaphore`` of
``max_inflight`` slots.  With ``admission_timeout`` set, a query that
cannot get a slot in time fails fast with
:class:`~repro.errors.AdmissionRejectedError`.  With
``admission_timeout=None`` the await simply parks until a slot frees:
thousands of submitted queries then occupy a few pending futures each
instead of a thread each, which is what bounds memory at high
concurrency.

**The degradation ladder.**  Hedging, per-shard retries, circuit
breakers, flagged partials and the native fallback, over the breaker
and stat objects the wrapped :class:`ShardedEngine` owns: a batched
scatter is hedged to a second replica after ``hedge_delay`` of silence,
a statement its batch could not answer falls to a per-shard
hedge/retry ladder driven by ``asyncio.wait``, and a worker crash
resolves waiters immediately via the supervisor's lost-request
callbacks (``on_complete(None)``; no polling).  Deadlines travel as
absolute expiries; ``asyncio.CancelledError`` propagates through every
rung — a cancelled await releases its admission slot and abandons its
in-flight requests (hedges included) on the way out.

The chaos suite asserts results against the single-store oracle under
worker kills, both mid-await and through the blocking engine.
"""

from __future__ import annotations

import asyncio
import marshal
import time
from typing import AsyncIterator, Optional, Union

from repro.core.engine import QueryResult
from repro.core.translator import TranslationResult
from repro.errors import AdmissionRejectedError
from repro.serving.scatter import ServingConfig, ShardedEngine, ShardOutcome
from repro.xpath.ast import XPathExpr

#: Grace added to a batch's worker-side timeout before the loop-side
#: watchdog gives the batch up (covers response marshalling latency).
_BATCH_GRACE = 0.25


def _resolve(future: "asyncio.Future", response: Optional[dict]) -> None:
    """Loop-side half of the callback bridge (idempotent: a waiter the
    caller already abandoned or timed out is left alone)."""
    if not future.done():
        future.set_result(response)


class _Tick:
    """One coalescing window: every query enqueued in the same
    event-loop iteration, scattered as one batch per shard."""

    __slots__ = ("sqls", "expiries", "futures", "hedge")

    def __init__(self) -> None:
        self.sqls: list[str] = []
        self.expiries: list[Optional[float]] = []
        #: Per item, one future per shard resolving to the item's
        #: batched :class:`ShardOutcome` — or ``None`` when the item
        #: must fall to the per-shard ladder.
        self.futures: list[list[asyncio.Future]] = []
        #: Batches hedge when *any* coalesced item is above the costed
        #: hedge gate (the duplicate is shared, so one eligible item
        #: justifies it).
        self.hedge: bool = False


class AsyncShardedEngine:
    """The degradation ladder over a :class:`~repro.serving.scatter.
    ShardedEngine`, sharing its planner, breakers, result cache and
    degradation counters.

    Must be constructed on a running event loop and used only from that
    loop.  Obtain one with :meth:`serve`, by wrapping an existing
    blocking engine (``AsyncShardedEngine(engine)``), or implicitly via
    :meth:`ShardedEngine.execute_async` /
    :func:`repro.connect` + :meth:`~repro.api.Engine.execute_async`.
    """

    def __init__(
        self, engine: ShardedEngine, own_engine: bool = False
    ) -> None:
        self._engine = engine
        self._own_engine = own_engine
        self._loop = asyncio.get_running_loop()
        max_inflight = max(1, engine.config.max_inflight)
        self._admission = asyncio.Semaphore(max_inflight)
        self._tick: Optional[_Tick] = None
        # Per-shard primary-replica rotation for batched scatters
        # (loop-thread only); hedges go to the next replica.
        self._round_robin: dict[int, int] = {}
        self._closed = False

    # -- construction ------------------------------------------------------------

    @classmethod
    async def serve(
        cls,
        store,
        config: Optional[ServingConfig] = None,
        **kwargs,
    ) -> "AsyncShardedEngine":
        """Spawn a worker fleet over ``store`` (forking happens off-loop
        in the default executor) and wrap it; closing the async engine
        closes the fleet."""
        loop = asyncio.get_running_loop()
        engine = await loop.run_in_executor(
            None,
            lambda: ShardedEngine.serve(store, config=config, **kwargs),
        )
        return cls(engine, own_engine=True)

    @property
    def config(self) -> ServingConfig:
        return self._engine.config

    @property
    def stats(self) -> dict:
        """The shared degradation counters (same dict object as the
        wrapped blocking engine's)."""
        return self._engine.stats

    @property
    def engine(self) -> ShardedEngine:
        """The wrapped blocking engine (planner, breakers, fleet)."""
        return self._engine

    def translate(
        self, expression: Union[str, XPathExpr]
    ) -> TranslationResult:
        return self._engine.translate(expression)

    def explain(self, expression: Union[str, XPathExpr]):
        return self._engine.explain(expression)

    async def close(self) -> None:
        """Shut down (idempotent).  Closes the wrapped engine — and its
        fleet, when owned — off-loop; in-flight queries fail with their
        usual ladder errors as workers disappear."""
        if self._closed:
            return
        self._closed = True
        if self._own_engine:
            await asyncio.get_running_loop().run_in_executor(
                None, self._engine.close
            )

    async def __aenter__(self) -> "AsyncShardedEngine":
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    # -- admission ---------------------------------------------------------------

    async def _admit(self) -> None:
        timeout = self._engine.config.admission_timeout
        if timeout is None:
            await self._admission.acquire()
            return
        try:
            await asyncio.wait_for(self._admission.acquire(), timeout)
        except asyncio.TimeoutError:
            self._engine._count("rejections")
            raise AdmissionRejectedError(
                f"admission queue full: "
                f"{self._engine.config.max_inflight} queries in flight "
                f"and none finished within {timeout:g}s"
            ) from None

    # -- execution ---------------------------------------------------------------

    async def execute(
        self,
        expression: Union[str, XPathExpr],
        *,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Awaitable scatter-gather with the full degradation ladder.

        :meth:`ShardedEngine.execute` is this coroutine run on the
        engine's private loop.  Concurrently-submitted queries share
        batched scatters, and cancelling the await releases the
        admission slot and abandons the query's in-flight requests.

        :raises AdmissionRejectedError: no slot within
            ``admission_timeout`` (``None`` waits without limit).
        :raises ShardUnavailableError: every shard failed and the
            native fallback was disabled or declined.
        """
        await self._admit()
        try:
            self._engine._count("queries")
            expiry = self._expiry(deadline)
            translation = self.translate(expression)
            answered = self._without_scatter(expression, translation)
            if answered is not None:
                return answered
            return await self._run_translation(expression, translation, expiry)
        finally:
            self._admission.release()

    async def execute_many(
        self,
        expressions,
        *,
        deadline: Optional[float] = None,
        concurrency: Optional[int] = None,
    ) -> list[QueryResult]:
        """Run many queries, results in input order.

        The whole call occupies **one** admission slot and every
        statement lands in the same coalescing tick — one
        ``submit_batch`` per shard.  ``deadline`` budgets the whole
        call; ``concurrency`` is accepted for surface compatibility
        (coalescing replaces client-side fan-out).
        """
        expressions = list(expressions)
        if len(expressions) <= 1:
            return [
                await self.execute(expression, deadline=deadline)
                for expression in expressions
            ]
        results: dict[int, QueryResult] = {}
        pending: list[tuple[int, object, TranslationResult]] = []
        for index, expression in enumerate(expressions):
            translation = self.translate(expression)
            answered = self._without_scatter(expression, translation)
            if answered is not None:
                results[index] = answered
            else:
                pending.append((index, expression, translation))
        if pending:
            await self._admit()
            try:
                self._engine._count("queries", len(pending))
                expiry = self._expiry(deadline)
                gathered = await asyncio.gather(
                    *(
                        self._run_translation(expression, translation, expiry)
                        for _, expression, translation in pending
                    )
                )
                for (index, _, _), result in zip(pending, gathered):
                    results[index] = result
            finally:
                self._admission.release()
        return [results[index] for index in range(len(expressions))]

    async def stream(
        self,
        expressions,
        *,
        deadline: Optional[float] = None,
    ) -> AsyncIterator[QueryResult]:
        """Async iterator yielding one :class:`QueryResult` per input
        expression, in input order, each as soon as it (and its
        predecessors) complete.

        Every query is submitted up front — so they coalesce into
        shared batches and admission-control applies per query — but
        the caller consumes results incrementally instead of holding
        the whole list.  Closing the iterator early cancels the
        still-outstanding queries (releasing their admission slots).
        """
        tasks = [
            asyncio.ensure_future(
                self.execute(expression, deadline=deadline)
            )
            for expression in expressions
        ]
        try:
            for task in tasks:
                yield await task
        finally:
            for task in tasks:
                if not task.done():
                    task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)

    # -- admitted path -----------------------------------------------------------

    def _expiry(self, deadline: Optional[float]) -> Optional[float]:
        """Absolute expiry of a ``deadline`` budget in seconds (the
        config's deadline when ``None``)."""
        budget = deadline if deadline is not None else self.config.deadline
        return None if budget is None else time.monotonic() + budget

    def _without_scatter(
        self, expression, translation: TranslationResult
    ) -> Optional[QueryResult]:
        """The answer that needs no shard: an empty translation's, or a
        result-cache hit (``None`` when the query must scatter)."""
        if translation.is_empty:
            return QueryResult([], translation.projection, served_by="shards")
        key = self._engine._planner._result_key(expression)
        if key is None:
            return None
        return self._engine._planner._result_cache.get(key)

    async def _run_translation(
        self,
        expression,
        translation: TranslationResult,
        expiry: Optional[float],
    ) -> QueryResult:
        """Scatter one translated query (batched, then laddered per
        shard), merge, cache, degrade."""
        engine = self._engine
        hedge = self._hedge_allowed(translation)
        batched_futures = self._enqueue(translation.sql, expiry, hedge)
        outcomes = list(
            await asyncio.gather(
                *(
                    self._shard_outcome(
                        shard,
                        batched_futures[shard],
                        translation.sql,
                        expiry,
                        hedge,
                    )
                    for shard in range(engine.store.shard_count)
                )
            )
        )
        failures = [outcome for outcome in outcomes if not outcome.ok]
        if len(failures) == engine.store.shard_count:
            # The native fallback evaluates documents in-process: run it
            # (or raise the typed error) off-loop.
            return await self._loop.run_in_executor(
                None,
                lambda: engine._all_shards_failed(
                    expression, translation.projection, failures
                ),
            )
        result = engine._merge(translation, outcomes)
        if result.complete:
            key = engine._planner._result_key(expression)
            engine._planner._cache_result(key, result)
        else:
            engine._count("partials")
        return result

    def _hedge_allowed(self, translation: TranslationResult) -> bool:
        """Costed hedge gate: a query whose estimated result is below
        ``config.hedge_min_rows`` skips hedged duplicates — statistics
        never change which rows come back, only the duplicate-request
        policy.  Estimate-less translations (no statistics collected)
        hedge as before."""
        estimated = getattr(translation, "estimated_rows", None)
        if estimated is None:
            return True
        return bool(estimated >= self._engine.config.hedge_min_rows)

    async def _shard_outcome(
        self,
        shard: int,
        batched: "asyncio.Future",
        sql: str,
        expiry: Optional[float],
        hedge: bool,
    ) -> ShardOutcome:
        """One shard's contribution: the batched attempt first, the
        hedge/retry ladder for whatever the batch could not answer."""
        outcome = await self._await_batched(batched, expiry)
        if outcome is not None and outcome.ok:
            return outcome
        return await self._query_shard(shard, sql, expiry, hedge=hedge)

    @staticmethod
    async def _await_batched(
        future: "asyncio.Future", expiry: Optional[float]
    ) -> Optional[ShardOutcome]:
        if expiry is None:
            return await future
        remaining = expiry - time.monotonic()
        if remaining <= 0:
            return None
        try:
            return await asyncio.wait_for(future, remaining)
        except asyncio.TimeoutError:
            return None

    # -- tick coalescing ---------------------------------------------------------

    def _enqueue(
        self, sql: str, expiry: Optional[float], hedge: bool
    ) -> list["asyncio.Future"]:
        """Join the currently-open tick (opening one — and scheduling
        its flush on the next loop iteration — if needed); returns one
        future per shard for this statement's batched outcome."""
        tick = self._tick
        if tick is None:
            tick = self._tick = _Tick()
            self._loop.call_soon(self._flush)
        futures = [
            self._loop.create_future()
            for _ in range(self._engine.store.shard_count)
        ]
        tick.sqls.append(sql)
        tick.expiries.append(expiry)
        tick.futures.append(futures)
        tick.hedge = tick.hedge or hedge
        return futures

    def _flush(self) -> None:
        """Close the open tick and scatter it: one batch per shard."""
        tick, self._tick = self._tick, None
        if tick is None or not tick.sqls:
            return
        # Worker-side timeout: generous enough for the *longest*-lived
        # item in the tick (a short-deadline item stops waiting at its
        # own expiry; the ladder takes over for it).
        if any(expiry is None for expiry in tick.expiries):
            timeout = None
        else:
            timeout = max(
                max(tick.expiries) - time.monotonic(), 0.001
            )
        for shard in range(self._engine.store.shard_count):
            self._scatter_batch(
                shard,
                tick.sqls,
                [item_futures[shard] for item_futures in tick.futures],
                timeout,
                tick.hedge,
            )

    def _scatter_batch(
        self,
        shard: int,
        sqls: list[str],
        futures: list["asyncio.Future"],
        timeout: Optional[float],
        hedge: bool,
    ) -> None:
        """One hedged batch round-trip to ``shard``; resolves each
        item's future with its :class:`ShardOutcome`, or ``None`` when
        the whole batch needs the per-item ladder (open breaker,
        crashed worker, failed batch)."""
        engine = self._engine
        runtime = engine.runtime
        breaker = engine._breakers[shard]

        def settle(outcomes: Optional[list[ShardOutcome]]) -> None:
            for position, future in enumerate(futures):
                if not future.done():
                    future.set_result(
                        outcomes[position] if outcomes is not None else None
                    )

        if not breaker.allow():
            settle(None)
            return

        state: dict = {
            "done": False,
            "rids": [],
            "lost": set(),
            "hedge_timer": None,
            "watchdog": None,
            "hedge_pending": False,
        }
        primary = self._round_robin.get(shard, 0) % runtime.replicas
        self._round_robin[shard] = primary + 1

        def finish(response: Optional[dict], box: Optional[list]) -> None:
            # Runs only on the loop thread.  First real response wins; a
            # lost-request notification (``None`` with the request's id
            # box) only settles failure once every submitted incarnation
            # is lost and no hedge can still answer.  ``box=None`` is
            # the watchdog / give-up path: settle failure now.
            if state["done"]:
                return
            if response is None and box:
                state["lost"].add(box[0])
                if state["hedge_pending"] or len(state["lost"]) < len(
                    state["rids"]
                ):
                    return
            state["done"] = True
            for timer in (state["hedge_timer"], state["watchdog"]):
                if timer is not None:
                    timer.cancel()
            for sent in state["rids"]:
                runtime.abandon(sent)
            if response is None or not response.get("ok"):
                breaker.record_failure()
                settle(None)
                return
            breaker.record_success()
            outcomes = []
            for item in marshal.loads(response["items"]):
                outcome = ShardOutcome(shard, attempts=1)
                if item.get("ok"):
                    outcome.rows = item["rows"]
                else:
                    outcome.kind = item.get("error_kind", "internal")
                    outcome.error = item.get("error")
                outcomes.append(outcome)
            settle(outcomes)

        def submit(replica: int) -> bool:
            # ``box`` carries the request id into the callback; it is
            # filled before any loop callback can run (``finish`` only
            # executes on the loop thread, after this flush returns).
            box: list = []

            def on_complete(response: Optional[dict]) -> None:
                try:
                    self._loop.call_soon_threadsafe(finish, response, box)
                except RuntimeError:  # loop closed mid-shutdown
                    pass

            try:
                rid = runtime.submit_batch(
                    shard,
                    sqls,
                    replica=replica,
                    timeout=timeout,
                    max_rows=engine.config.max_rows,
                    on_complete=on_complete,
                )
            except Exception:
                return False
            box.append(rid)
            state["rids"].append(rid)
            return True

        if not submit(primary):
            breaker.record_failure()
            settle(None)
            return

        hedge_delay = engine.config.hedge_delay
        if hedge and hedge_delay is not None and runtime.replicas > 1:
            state["hedge_pending"] = True

            def fire_hedge() -> None:
                state["hedge_pending"] = False
                if state["done"]:
                    return
                engine._count("hedges")
                submitted = submit((primary + 1) % runtime.replicas)
                if not submitted and len(state["lost"]) >= len(
                    state["rids"]
                ):
                    finish(None, None)

            state["hedge_timer"] = self._loop.call_later(
                hedge_delay, fire_hedge
            )
        if timeout is not None:
            state["watchdog"] = self._loop.call_later(
                timeout + _BATCH_GRACE, finish, None, None
            )

    # -- the per-shard ladder, async ---------------------------------------------

    async def _query_shard(
        self,
        shard: int,
        sql: str,
        expiry: Optional[float],
        hedge: bool = True,
    ) -> ShardOutcome:
        """Run the hedge/retry rungs for one shard.  ``hedge=False``
        disables hedged duplicates (the costed gate for cheap queries);
        retries and breakers are unaffected."""
        engine = self._engine
        outcome = ShardOutcome(shard)
        breaker = engine._breakers[shard]
        if not breaker.allow():
            engine._count("breaker_short_circuits")
            outcome.kind = "breaker-open"
            outcome.error = (
                f"shard {shard} circuit breaker is {breaker.state}"
            )
            return outcome
        attempts = max(1, engine.config.shard_retries + 1)
        for attempt in range(attempts):
            if attempt:
                engine._count("retries")
            outcome.attempts = attempt + 1
            remaining = (
                expiry - time.monotonic() if expiry is not None else None
            )
            if remaining is not None and remaining <= 0:
                outcome.kind = "deadline"
                outcome.error = f"shard {shard}: query deadline exhausted"
                break
            # This attempt's slice of the remaining deadline: split it
            # evenly over the attempts still available, so one slow
            # attempt cannot starve the retries behind it.
            slice_budget = (
                remaining / (attempts - attempt)
                if remaining is not None
                else None
            )
            primary = attempt % engine.runtime.replicas
            response, kind = await self._attempt(
                shard, sql, primary, slice_budget, outcome, hedge=hedge
            )
            if response is not None and response.get("ok"):
                breaker.record_success()
                outcome.rows = response["rows"]
                outcome.kind = None
                outcome.error = None
                return outcome
            breaker.record_failure()
            if response is not None:
                outcome.kind = response.get("error_kind", "internal")
                outcome.error = response.get("error")
            else:
                outcome.kind = kind
                outcome.error = (
                    f"shard {shard}: worker crashed mid-request"
                    if kind == "worker-crashed"
                    else f"shard {shard}: no response within budget"
                )
        return outcome

    async def _attempt(
        self,
        shard: int,
        sql: str,
        primary: int,
        budget: Optional[float],
        outcome: ShardOutcome,
        hedge: bool = True,
    ) -> tuple[Optional[dict], str]:
        """One attempt: submit to ``primary``, hedge to the next replica
        after ``hedge_delay`` of silence, first response wins — without
        a waiting thread: worker completions (and crash/fence
        notifications) resolve loop futures via ``on_complete``, so the
        only timed wake-ups are the hedge point and the budget."""
        engine = self._engine
        runtime = engine.runtime
        start = time.monotonic()
        sent: list[int] = []
        waiters: list[asyncio.Future] = []

        def submit(replica: int) -> None:
            left = (
                budget - (time.monotonic() - start)
                if budget is not None
                else None
            )
            waiter = self._loop.create_future()

            def on_complete(response: Optional[dict]) -> None:
                try:
                    self._loop.call_soon_threadsafe(
                        _resolve, waiter, response
                    )
                except RuntimeError:  # loop closed mid-shutdown
                    pass

            sent.append(
                runtime.submit(
                    shard,
                    sql,
                    replica=replica,
                    timeout=left,
                    max_rows=engine.config.max_rows,
                    on_complete=on_complete,
                )
            )
            waiters.append(waiter)

        hedge_at = (
            engine.config.hedge_delay
            if hedge
            and engine.config.hedge_delay is not None
            and runtime.replicas > 1
            else None
        )
        try:
            submit(primary)
        except Exception:
            return None, "worker-crashed"
        try:
            while True:
                elapsed = time.monotonic() - start
                if budget is not None and elapsed >= budget:
                    return None, "deadline"
                # Only wait on still-unresolved waiters: a lost one is
                # permanently done, and re-waiting on it would turn
                # ``asyncio.wait`` into a busy loop.
                live = [waiter for waiter in waiters if not waiter.done()]
                if not live:
                    # Every incarnation we asked is dead or fenced off;
                    # no answer can ever arrive — fail over now.
                    return None, "worker-crashed"
                wait: Optional[float] = None
                if budget is not None:
                    wait = budget - elapsed
                if hedge_at is not None:
                    hedge_wait = max(hedge_at - elapsed, 0.001)
                    wait = (
                        hedge_wait if wait is None else min(wait, hedge_wait)
                    )
                done, _ = await asyncio.wait(
                    live,
                    timeout=wait,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for waiter in done:
                    response = waiter.result()
                    if response is not None:
                        return response, "answered"
                elapsed = time.monotonic() - start
                if hedge_at is not None and elapsed >= hedge_at:
                    hedge_at = None
                    outcome.hedged = True
                    engine._count("hedges")
                    try:
                        submit((primary + 1) % runtime.replicas)
                    except Exception:  # noqa: S110 - hedge is optional
                        pass
        finally:
            for request_id in sent:
                runtime.abandon(request_id)
