"""Scatter-gather query execution over a sharded store.

:class:`ShardedEngine` is the sharded counterpart of
:class:`~repro.core.engine.PPFEngine`: translate once (all shards share
one schema, and the generated SQL filters `Paths` by string, never by
shard-local ids), scatter the statement to every shard's worker via the
:class:`~repro.serving.supervisor.ShardRuntime`, remap shard-local row
ids to global ids through the store's document registry, and merge in
Dewey document order — bit-identical to single-store execution.

The failure policy is a **graceful-degradation ladder**, applied per
shard and rung by rung:

1. **hedge** — when a shard has not answered within ``hedge_delay``,
   the identical request is duplicated to a second replica worker and
   the first response wins (stragglers lose, tail latency drops);
2. **retry** — a failed or crashed attempt is retried on the next
   replica, within the remaining deadline budget;
3. **partial results** — shards still failing after their retries are
   *dropped*, not guessed: the merged result reports
   ``complete=False`` with the losers in ``failed_shards`` (the rows
   that are present remain correct and ordered);
4. **native fallback** — when *every* shard failed, the in-memory
   evaluator answers from the store's resident documents
   (``served_by="native"``); if it cannot vouch for the data, the query
   fails with a typed :class:`~repro.errors.ShardUnavailableError`.

No rung ever fabricates rows; a caller always gets correct-complete,
correct-partial (flagged), or a typed error — the chaos suite asserts
exactly this against the native oracle.

There is one ladder, in :mod:`repro.serving.frontdoor`, with two ways
in: :meth:`ShardedEngine.execute_async` runs it on the caller's
event loop, and the blocking :meth:`ShardedEngine.execute` /
:meth:`~ShardedEngine.execute_many` submit the same coroutines to a
private event loop thread and wait for the answer.  This module keeps
what both share: the planner, the per-shard
:class:`~repro.serving.supervisor.CircuitBreaker` objects, the
degradation counters, the merge and the native-fallback rung.
"""

from __future__ import annotations

import asyncio
import itertools
import operator
import threading
from dataclasses import dataclass
from typing import Optional, Union

from repro.core.adapters import SchemaAwareAdapter
from repro.core.engine import (
    ExplainReport,
    QueryResult,
    ResultRow,
    SQLXPathEngine,
)
from repro.core.translator import PPFTranslator, TranslationResult
from repro.errors import ShardUnavailableError
from repro.resilience.faults import WorkerFaultPlan
from repro.resilience.policy import ResiliencePolicy
from repro.serving.supervisor import CircuitBreaker, ShardRuntime
from repro.sqlgen.ast import UnionStatement
from repro.xpath.ast import XPathExpr


@dataclass(frozen=True)
class ServingConfig:
    """Tunables of the sharded serving ladder."""

    #: Default per-query wall-clock deadline in seconds, budgeted over a
    #: shard's attempts (``None`` = no deadline).
    deadline: Optional[float] = 5.0
    #: Seconds a shard may stay silent before a hedged duplicate request
    #: goes to a second replica (``None`` disables hedging).
    hedge_delay: Optional[float] = 0.05
    #: Cost-model gate on hedging: a query whose estimated result is
    #: below this many rows skips hedged duplicates (a cheap query's
    #: tail latency is dominated by the duplicate's own overhead, not
    #: by stragglers).  Only consulted when the store has collected
    #: statistics; estimate-less queries hedge as before.
    hedge_min_rows: float = 16.0
    #: Extra attempts per shard after the first failed/crashed one.
    shard_retries: int = 1
    #: Maximum queries in flight; the admission queue rejects beyond it.
    max_inflight: int = 8
    #: Seconds :meth:`ShardedEngine.execute` waits for an admission slot
    #: before raising :class:`AdmissionRejectedError`.  ``None`` waits
    #: without limit — the *awaitable backpressure* mode: submitted
    #: queries park on the admission semaphore (a pending future each,
    #: not a thread each) until a slot frees.
    admission_timeout: Optional[float] = 0.5
    #: Consecutive per-shard failures that trip the shard's breaker.
    breaker_threshold: int = 3
    #: Seconds a tripped breaker stays open before half-open probing.
    breaker_cooldown: float = 1.0
    #: Per-request row cap forwarded to the workers (``None`` = none).
    max_rows: Optional[int] = None
    #: Allow the final native-evaluator rung when every shard failed.
    fallback: bool = True
    #: Entries in the generation-keyed result cache (``None`` disables).
    result_cache_size: Optional[int] = 128


@dataclass
class ShardOutcome:
    """What one shard contributed to one query."""

    shard: int
    rows: Optional[list] = None
    #: Failure classification (``None`` on success): ``"breaker-open"``,
    #: ``"deadline"``, ``"worker-crashed"``, or a worker-reported error
    #: kind (``"timeout"``, ``"limit"``, ``"storage"``, ...).
    kind: Optional[str] = None
    error: Optional[str] = None
    attempts: int = 0
    hedged: bool = False

    @property
    def ok(self) -> bool:
        return self.rows is not None


def _serve_loop(loop: asyncio.AbstractEventLoop) -> None:
    """Body of the private loop thread behind the blocking entry
    points.  Runs until :meth:`ShardedEngine.close` stops the loop, then
    cancels whatever is still in flight and releases the loop's default
    executor (the native-fallback rung runs there)."""
    asyncio.set_event_loop(loop)
    loop.run_forever()
    leftovers = asyncio.all_tasks(loop)
    for task in leftovers:
        task.cancel()
    loop.run_until_complete(
        asyncio.gather(*leftovers, return_exceptions=True)
    )
    loop.run_until_complete(loop.shutdown_default_executor())
    loop.close()


class ShardedEngine:
    """Scatter-gather XPath execution over a :class:`~repro.serving.
    shards.ShardedStore` served by a :class:`ShardRuntime` worker fleet.

    Construct directly from an already-running runtime, or use
    :meth:`serve` to spawn (and own) one.  Thread-safe: blocking calls
    from any number of threads share one private event loop, where the
    async front door's admission control limits concurrency.
    """

    def __init__(
        self,
        store,
        runtime: ShardRuntime,
        config: Optional[ServingConfig] = None,
        own_runtime: bool = False,
        verify_plans: bool = False,
    ):
        if runtime.shard_count != store.shard_count:
            raise ShardUnavailableError(
                f"runtime serves {runtime.shard_count} shard(s) but the "
                f"store has {store.shard_count}"
            )
        self.store = store
        self.runtime = runtime
        self.config = config if config is not None else ServingConfig()
        self._own_runtime = own_runtime
        # The planner wraps translation caching, explain() and the
        # native-fallback evaluation; its SQL-execution paths are never
        # used (a ShardedStore has no single `.db` to run them on).
        self._planner = SQLXPathEngine(
            store,
            PPFTranslator(SchemaAwareAdapter(store)),
            fallback=self.config.fallback,
            result_cache_size=self.config.result_cache_size,
            verify_plans=verify_plans,
        )
        self._breakers = {
            shard: CircuitBreaker(
                failure_threshold=self.config.breaker_threshold,
                cooldown=self.config.breaker_cooldown,
            )
            for shard in range(store.shard_count)
        }
        self._stats_lock = threading.Lock()
        # Lazily-built async front doors, one per event loop (keyed by
        # id(loop), identity-checked: a dead loop's slot is reclaimed).
        self._frontdoors: dict[int, object] = {}
        # The private loop the blocking entry points run on: started by
        # the first blocking call, stopped and joined by close().
        self._loop_lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._closed = False
        #: Cleanup hooks run by :meth:`close` — :func:`repro.connect`
        #: registers the store it opened here.
        self._on_close: list = []
        #: Degradation counters: queries, hedges, retries, partials,
        #: fallbacks, rejections, breaker_short_circuits.
        self.stats = {
            "queries": 0,
            "hedges": 0,
            "retries": 0,
            "partials": 0,
            "fallbacks": 0,
            "rejections": 0,
            "breaker_short_circuits": 0,
        }

    # -- construction ------------------------------------------------------------

    @classmethod
    def serve(
        cls,
        store,
        config: Optional[ServingConfig] = None,
        replicas: int = 2,
        pool_size: int = 2,
        policy: Optional[ResiliencePolicy] = None,
        fault_plan: Optional[WorkerFaultPlan] = None,
        health_interval: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        verify_plans: bool = False,
    ) -> "ShardedEngine":
        """Spawn a worker fleet over ``store`` and wrap it in an engine
        that owns it (closing the engine closes the fleet)."""
        kwargs = {}
        if health_interval is not None:
            kwargs["health_interval"] = health_interval
        if heartbeat_timeout is not None:
            kwargs["heartbeat_timeout"] = heartbeat_timeout
        runtime = ShardRuntime(
            store.shard_paths,
            replicas=replicas,
            pool_size=pool_size,
            policy=policy if policy is not None else store.policy,
            fault_plan=fault_plan,
            **kwargs,
        ).start()
        return cls(
            store,
            runtime,
            config=config,
            own_runtime=True,
            verify_plans=verify_plans,
        )

    def close(self) -> None:
        """Stop the private event loop (cancelling any blocking call
        still in flight), the worker fleet when this engine owns it, and
        anything :func:`repro.connect` opened on the caller's behalf."""
        with self._loop_lock:
            self._closed = True
            loop, thread = self._loop, self._loop_thread
            self._loop = self._loop_thread = None
        if loop is not None and thread is not None:
            loop.call_soon_threadsafe(loop.stop)
            thread.join()
        self._frontdoors.clear()
        if self._own_runtime:
            self.runtime.close()
        hooks, self._on_close = list(self._on_close), []
        for hook in reversed(hooks):
            hook()

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- planning ----------------------------------------------------------------

    def translate(
        self, expression: Union[str, XPathExpr]
    ) -> TranslationResult:
        """Translate without executing (cached for string expressions;
        one translation serves every shard)."""
        return self._planner.translate(expression)

    def explain(self, expression: Union[str, XPathExpr]) -> ExplainReport:
        """The SQL that would be scattered to every shard, as an
        :class:`ExplainReport`."""
        return self._planner.explain(expression)

    # -- stats -------------------------------------------------------------------

    def _count(self, key: str, amount: int = 1) -> None:
        with self._stats_lock:
            self.stats[key] += amount

    def breaker_states(self) -> dict[int, str]:
        """Current circuit-breaker state per shard."""
        return {
            shard: breaker.state
            for shard, breaker in self._breakers.items()
        }

    # -- execution ---------------------------------------------------------------

    def execute(
        self,
        expression: Union[str, XPathExpr],
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Run ``expression`` over every shard and merge.

        ``deadline`` (seconds) overrides the config's per-query
        deadline.  See the module docstring for the degradation ladder;
        the result's :attr:`~repro.core.engine.QueryResult.complete` /
        ``failed_shards`` carry the completeness contract.

        :raises AdmissionRejectedError: no in-flight slot freed up
            within the admission timeout (backpressure).
        :raises ShardUnavailableError: every shard failed and the
            native fallback was disabled or declined.
        """
        return self._block_on(
            self.execute_async, expression, deadline=deadline
        )

    def execute_many(
        self,
        expressions,
        *,
        deadline: Optional[float] = None,
        concurrency: Optional[int] = None,
    ) -> list[QueryResult]:
        """Run many queries, results in input order.

        The normalized batch surface shared with
        :class:`~repro.core.engine.PPFEngine`: ``deadline`` is a
        wall-clock budget for the whole call, and partial-result
        semantics ride on each result's ``complete``/``failed_shards``.
        The statements are *pipelined*: each shard worker receives one
        batch request carrying every statement, so queue and pickle
        overhead is paid per shard instead of per query.  Any statement
        a shard's batch could not answer falls to the per-shard
        hedge/retry ladder, so per-query degradation semantics (partial
        results, fallback, typed errors) are unchanged.  The batch
        occupies one admission slot.  ``concurrency`` is accepted for
        surface compatibility — pipelining replaced client-side
        fan-out."""
        return self._block_on(
            self._execute_many_async, list(expressions), deadline
        )

    async def _execute_many_async(
        self, expressions: list, deadline: Optional[float]
    ) -> list[QueryResult]:
        return await self.frontdoor().execute_many(
            expressions, deadline=deadline
        )

    def _block_on(self, coroutine_function, *args, **kwargs):
        """Run ``coroutine_function(*args, **kwargs)`` on the private
        loop (starting it on first use) and wait for its result.  An
        interrupted caller cancels the query: the front door releases
        its admission slot and abandons its in-flight requests."""
        with self._loop_lock:
            if self._closed:
                raise RuntimeError("ShardedEngine is closed")
            if self._loop is None:
                self._loop = asyncio.new_event_loop()
                self._loop_thread = threading.Thread(
                    target=_serve_loop,
                    args=(self._loop,),
                    name="scatter-loop",
                    daemon=True,
                )
                self._loop_thread.start()
            loop = self._loop
        future = asyncio.run_coroutine_threadsafe(
            coroutine_function(*args, **kwargs), loop
        )
        try:
            return future.result()
        finally:
            future.cancel()  # no-op once done

    def frontdoor(self) -> "object":
        """The calling event loop's :class:`~repro.serving.frontdoor.
        AsyncShardedEngine` over this engine (created on first use;
        shares this engine's planner, breakers, caches and stats).
        Must be called from a running loop."""
        # Imported lazily: frontdoor imports this module.
        from repro.serving.frontdoor import AsyncShardedEngine

        loop = asyncio.get_running_loop()
        front = self._frontdoors.get(id(loop))
        if front is None or front._loop is not loop:
            front = AsyncShardedEngine(self)
            self._frontdoors[id(loop)] = front
        return front

    async def execute_async(
        self,
        expression: Union[str, XPathExpr],
        *,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Awaitable :meth:`execute` through the calling loop's async
        front door: batched admission, awaitable backpressure, and the
        degradation ladder driven by futures instead of a blocked
        thread.  See :class:`~repro.serving.frontdoor.
        AsyncShardedEngine`."""
        return await self.frontdoor().execute(expression, deadline=deadline)

    # -- merging and degradation -------------------------------------------------

    def _merge(
        self,
        translation: TranslationResult,
        outcomes: list[ShardOutcome],
    ) -> QueryResult:
        """Remap shard-local rows to global ids through the document
        registry and merge in Dewey document order.

        A row naming a document the registry does not know means the
        shard file and the manifest disagree (corruption, swapped
        file): that shard's rows are *discarded* and the shard is
        reported failed — wrong attribution must never look like a
        correct answer.
        """
        remap = self.store.remap_table()
        failed = {
            outcome.shard for outcome in outcomes if not outcome.ok
        }
        rows: list[ResultRow] = []
        wants_value = translation.projection != "nodes"
        for outcome in outcomes:
            if not outcome.ok:
                continue
            shard_rows: list[ResultRow] = []
            try:
                # Shard responses arrive ordered by document, so the
                # registry lookup and id offset are resolved once per
                # document run instead of once per row.
                for local_doc, records in itertools.groupby(
                    outcome.rows, key=operator.itemgetter(1)
                ):
                    entry = remap[(outcome.shard, local_doc)]
                    offset = entry.base - entry.local_base
                    doc_id = entry.doc_id
                    if wants_value:
                        shard_rows.extend(
                            ResultRow(
                                record[0] + offset,
                                doc_id,
                                bytes(record[2]),
                                value=None
                                if len(record) < 4 or record[3] is None
                                else str(record[3]),
                            )
                            for record in records
                        )
                    else:
                        shard_rows.extend(
                            ResultRow(
                                record[0] + offset, doc_id, bytes(record[2])
                            )
                            for record in records
                        )
            except KeyError as exc:
                failed.add(outcome.shard)
                outcome.kind = "registry-mismatch"
                outcome.error = (
                    f"shard {outcome.shard} returned rows for local "
                    f"doc {exc.args[0][1]}, unknown to the manifest"
                )
                continue
            rows.extend(shard_rows)
        if isinstance(translation.statement, UnionStatement):
            # Only a UNION of branches can produce the same element
            # twice (within one shard; global ids never collide across
            # shards) — single-statement results skip the dedupe pass.
            unique: dict[int, ResultRow] = {}
            for row in rows:
                unique.setdefault(row.id, row)
            rows = list(unique.values())
        ordered = sorted(
            rows, key=operator.attrgetter("doc_id", "dewey_pos")
        )
        return QueryResult(
            ordered,
            translation.projection,
            served_by="shards",
            complete=not failed,
            failed_shards=sorted(failed),
        )

    def _all_shards_failed(
        self,
        expression,
        projection: str,
        failures: list[ShardOutcome],
    ) -> QueryResult:
        """Last rung: every shard failed — answer natively or raise."""
        if self.config.fallback:
            # The planner's fallback machinery evaluates over the
            # store's resident documents and declines (None) when they
            # cannot vouch for the stored data.
            fallback = self._planner._execute_fallback(
                expression, projection
            )
            if fallback is not None:
                self._count("fallbacks")
                return fallback
        detail = "; ".join(
            f"shard {outcome.shard}: {outcome.kind} ({outcome.error})"
            for outcome in failures
        )
        raise ShardUnavailableError(
            f"every shard failed and the native fallback was "
            f"{'unavailable' if self.config.fallback else 'disabled'}: "
            f"{detail}"
        )
