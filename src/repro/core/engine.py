"""User-facing query engines.

Every engine exposes the same two calls:

* ``execute(xpath)``  → a :class:`QueryResult` (element rows in document
  order, or projected text/attribute values),
* ``explain(xpath)``  → the SQL the engine would run (empty for the
  native evaluator).

:class:`PPFEngine` is the paper's system (schema-aware mapping +
PPF-based translation); :class:`EdgePPFEngine` is the Section 5.1
schema-oblivious variant sharing the identical translation algorithm.
"""

from __future__ import annotations

import asyncio
import functools
import threading
import time
from collections import OrderedDict, namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Optional, Union

from repro.core.adapters import EdgeAdapter, SchemaAwareAdapter
from repro.core.translator import PPFTranslator, TranslationResult
from repro.errors import QueryTimeoutError, ReproError, RetryExhaustedError
from repro.plan.nodes import QueryPlan, describe_plan

# Module-object binding (see translator.py): repro.plan.passes imports
# core submodules, so it may still be mid-initialization when this
# module loads; defer attribute access to runtime.
import repro.plan.passes as _plan_passes

from repro.serving.cache import ResultCache
from repro.serving.pool import ConnectionPool
from repro.sqlgen.ast import UnionStatement
from repro.sqlgen.dialect import AnsiDialect
from repro.sqlgen.render import render_statement
from repro.storage.edge import EdgeStore
from repro.storage.schema_aware import ShreddedStore
from repro.xpath.ast import XPathExpr

#: Hit/miss statistics of the per-engine translation cache.
CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])

#: The closed vocabulary of :attr:`QueryResult.served_by` values.  Every
#: execution path must report one of exactly these strings — ``"sql"``
#: (the translated statement ran on a single store), ``"native"`` (the
#: in-memory evaluator answered, either as explicit baseline or as the
#: degradation ladder's last rung) or ``"shards"`` (scatter-gather over
#: the sharded worker fleet, including the asyncio front door).  The
#: vocabulary is enforced three ways: :class:`QueryResult` validates at
#: construction, the ``CA004`` code lint rejects out-of-vocabulary
#: string literals passed as ``served_by=``, and the oracle test matrix
#: asserts every engine's results stay inside it.
SERVED_BY: frozenset[str] = frozenset({"sql", "native", "shards"})

#: Static typing twin of :data:`SERVED_BY` (keep the two in sync).
ServedBy = Literal["sql", "native", "shards"]


class ExplainReport(str):
    """``explain()``'s return value: the SQL text (it *is* a ``str``,
    keeping the historical contract), enriched with the optimized
    logical plan and per-pass diagnostics.

    Attributes: ``plan`` (the :class:`~repro.plan.nodes.QueryPlan`),
    ``pass_reports`` (one :class:`~repro.plan.passes.PassReport` per
    pass run), ``fired`` (names of passes that changed the plan), and
    ``stats_before`` / ``stats_after`` (plan statistics around the
    pipeline).

    Cost-model attributes (``explain --costs``): ``estimated_rows`` /
    ``branch_estimates`` carry the cardinality estimates computed from
    the store's path summary (``None`` without collected statistics),
    ``stats_version`` the ``(epoch, generation)`` the estimates came
    from.  ``actual_rows`` / ``branch_actual`` stay ``None`` until
    :meth:`SQLXPathEngine.explain_costs` executes the statement and
    fills them in (``branch_actual`` counts raw per-branch rows before
    the union-level dedup; ``actual_rows`` is the final result size).
    """

    plan: Optional[QueryPlan]
    pass_reports: list[_plan_passes.PassReport]
    fired: list[str]
    stats_before: Optional[dict[str, int]]
    stats_after: Optional[dict[str, int]]
    estimated_rows: Optional[float]
    branch_estimates: Optional[tuple[float, ...]]
    stats_version: Optional[tuple[int, int]]
    actual_rows: Optional[int]
    branch_actual: Optional[tuple[int, ...]]

    @classmethod
    def from_translation(
        cls, translation: TranslationResult
    ) -> "ExplainReport":
        report = cls(translation.sql)
        report.plan = translation.plan
        report.pass_reports = list(translation.pass_reports)
        report.fired = translation.fired_passes()
        report.stats_before = translation.plan_stats_before
        report.stats_after = translation.plan_stats_after
        report.estimated_rows = translation.estimated_rows
        report.branch_estimates = translation.branch_estimates
        report.stats_version = translation.stats_version
        report.actual_rows = None
        report.branch_actual = None
        return report

    def plan_text(self) -> str:
        """Indented rendering of the optimized plan tree."""
        if self.plan is None:
            return "(no plan available)"
        return describe_plan(self.plan)

    def cost_lines(self) -> list[str]:
        """Human-readable estimated-vs-actual lines for the CLI."""
        if self.estimated_rows is None:
            return ["(no statistics collected; run `repro analyze`)"]
        lines = []
        total_actual = (
            "?" if self.actual_rows is None else str(self.actual_rows)
        )
        lines.append(
            f"total: estimated ~{self.estimated_rows:.1f} rows, "
            f"actual {total_actual}"
        )
        estimates = self.branch_estimates or ()
        for index, estimate in enumerate(estimates):
            actual = (
                "?"
                if self.branch_actual is None
                or index >= len(self.branch_actual)
                else str(self.branch_actual[index])
            )
            lines.append(
                f"branch {index}: estimated ~{estimate:.1f} rows, "
                f"actual {actual}"
            )
        return lines


@dataclass(frozen=True)
class ResultRow:
    """One result element (or projected value)."""

    id: int
    doc_id: int
    dewey_pos: bytes
    value: Optional[str] = None


class QueryResult:
    """Document-ordered result of one query.

    **Completeness contract** (sharded serving): a result with
    ``complete=True`` covers every shard/document of the store.  When
    the sharded engine degrades to partial results, ``complete`` is
    ``False`` and :attr:`failed_shards` lists the shard indexes whose
    rows are missing — the rows that *are* present are still correct
    and document-ordered.  Single-store engines always return complete
    results (or raise).
    """

    def __init__(
        self,
        rows: list[ResultRow],
        projection: str,
        served_by: str = "sql",
        complete: bool = True,
        failed_shards: Optional[list[int]] = None,
    ):
        if served_by not in SERVED_BY:
            raise ValueError(
                f"served_by must be one of {sorted(SERVED_BY)}, "
                f"got {served_by!r}"
            )
        self.rows = rows
        #: ``nodes``, ``text`` or ``attribute``.
        self.projection = projection
        #: Which execution path produced the rows: ``"sql"`` (the
        #: translated statement ran on the store), ``"native"`` (the
        #: in-memory evaluator answered after SQL execution timed out or
        #: exhausted its retries) or ``"shards"`` (scatter-gather over
        #: the sharded worker fleet).  Always a member of the closed
        #: :data:`SERVED_BY` vocabulary.
        self.served_by = served_by
        #: ``False`` when one or more shards could not contribute rows
        #: (see :attr:`failed_shards`); always ``True`` for single-store
        #: execution.
        self.complete = complete
        #: Shard indexes missing from a partial result (empty when
        #: :attr:`complete`).
        self.failed_shards: list[int] = list(failed_shards or [])

    @property
    def ids(self) -> list[int]:
        """Global element ids, in document order."""
        return [row.id for row in self.rows]

    @property
    def values(self) -> list[str]:
        """Projected text/attribute values (``text``/``attribute``
        projections only), **excluding** ``None`` entries.

        For engine-served results the two lists are in fact always
        aligned: the translator emits ``value IS NOT NULL`` on every
        value projection (an element without text has no text *node*,
        so it is not a result at all), and the native fallback only
        produces real text/attribute nodes.  The ``None`` filter here
        is therefore a guarantee, not a silent row drop — but rows
        constructed by hand (or future value-producing paths) may carry
        ``None``, and then ``values`` is shorter than :attr:`ids`; use
        :attr:`values_aligned` when positional correspondence with
        ``ids`` must survive that.
        """
        return [row.value for row in self.rows if row.value is not None]

    @property
    def values_aligned(self) -> list[Optional[str]]:
        """Projected values positionally aligned with :attr:`ids`:
        exactly one entry per result row, with an explicit ``None``
        sentinel wherever a row carries no value."""
        return [row.value for row in self.rows]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[ResultRow]:
        return iter(self.rows)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryResult({len(self.rows)} rows, {self.projection!r})"


class SQLXPathEngine:
    """Base engine: translate, execute, wrap rows.

    Two cache tiers sit in front of SQLite:

    * **translations** are cached per expression string with true LRU
      eviction — they depend only on the schema (static for a store's
      lifetime), so repeated queries skip the translation pass entirely;
    * **results** are cached in a bounded LRU keyed by ``(xpath, store
      generation)``.  The store bumps its generation on every mutation,
      so a hit is always consistent with the current data and never
      touches SQLite at all.  Introspect with :meth:`result_cache_info`.

    The engine is thread-safe once a :class:`~repro.serving.
    ConnectionPool` is attached (:meth:`attach_pool`): every
    :meth:`execute` then checks a read-only pooled connection out for
    the duration of its statement, so independent queries — and, via
    :meth:`execute_parallel`, the independent UNION branches of one
    translation — run concurrently.  Without a pool, execution uses the
    store's own (single-threaded) connection, exactly as before.

    With ``fallback=True``, :meth:`execute` degrades gracefully: when
    SQL execution times out (:class:`QueryTimeoutError`) or exhausts its
    transient-error retries (:class:`RetryExhaustedError`), the query is
    re-evaluated by the native in-memory engine over the store's
    resident documents, and the result reports ``served_by ==
    "native"``.  The fallback declines (and the original error
    propagates) when the store cannot guarantee its in-memory documents
    mirror the database.
    """

    _CACHE_LIMIT = 256

    #: Estimated-rows floor under which :meth:`execute_parallel`
    #: declines to fan out (thread/connection handoff costs more than a
    #: small query saves).  Only consulted when statistics exist.
    parallel_min_rows: float = 64.0

    def __init__(self, store, translator: PPFTranslator,
                 fallback: bool = False,
                 result_cache_size: int | None = 128,
                 pool: ConnectionPool | None = None,
                 verify_plans: bool = False):
        self.store = store
        self.translator = translator
        self.fallback = fallback
        #: Debug gate: when set, every fresh translation is checked by
        #: the static plan verifier and an invariant violation raises
        #: :class:`~repro.errors.PlanVerificationError` instead of
        #: running bad SQL.
        self.verify_plans = verify_plans
        self._translation_cache: OrderedDict[tuple, TranslationResult] = (
            OrderedDict()
        )
        self._cache_hits = 0
        self._cache_misses = 0
        #: Guards the translation cache (shared by pool worker threads).
        self._lock = threading.Lock()
        self._result_cache = (
            ResultCache(result_cache_size) if result_cache_size else None
        )
        self._pool = pool
        #: Bounded executor behind :meth:`execute_async` (lazy; NOT one
        #: thread per query).
        self._async_executor: ThreadPoolExecutor | None = None
        #: Cleanup hooks run by :meth:`close` — :func:`repro.connect`
        #: registers the store/database it opened here, so closing the
        #: engine releases everything it owns.
        self._on_close: list = []

    # -- connection pool ---------------------------------------------------------

    @property
    def pool(self) -> ConnectionPool | None:
        """The attached read-serving pool, if any."""
        return self._pool

    def attach_pool(self, pool: ConnectionPool) -> None:
        """Serve queries from ``pool`` (read-only connections over the
        store's file) instead of the store's own connection.  This is
        what makes :meth:`execute` safe to call from many threads."""
        self._pool = pool

    def detach_pool(self) -> None:
        """Go back to executing on the store's own connection."""
        self._pool = None

    def translate(self, expression: Union[str, XPathExpr]) -> TranslationResult:
        """Translate without executing (cached for string expressions).

        The cache key includes the translator fingerprint — which in
        turn includes the store's statistics version — so refreshed
        statistics (a new cost-model input) can never serve a plan
        built against the old summary."""
        if not isinstance(expression, str):
            translated = self.translator.translate(expression)
            if self.verify_plans:
                self._verify_translation(translated)
            return translated
        key = (expression, self.translator.fingerprint)
        with self._lock:
            cached = self._translation_cache.get(key)
            if cached is not None:
                self._cache_hits += 1
                self._translation_cache.move_to_end(key)
                return cached
            self._cache_misses += 1
        # Translate outside the lock: it only reads the schema and the
        # statistics snapshot pinned by the cache key, and two threads
        # translating the same novel expression just produce equal
        # results.
        translated = self.translator.translate(expression)
        if self.verify_plans:
            self._verify_translation(translated)
        with self._lock:
            self._translation_cache[key] = translated
            self._translation_cache.move_to_end(key)
            while len(self._translation_cache) > self._CACHE_LIMIT:
                self._translation_cache.popitem(last=False)
        return translated

    def _verify_translation(self, translation: TranslationResult) -> None:
        """Run the static plan verifier over a fresh translation
        (``verify_plans=True`` engines only); raise on any violation."""
        # Imported lazily: repro.analysis imports the plan and core
        # layers, so a module-level import would cycle.
        from repro.analysis.verifier import PlanVerifier
        from repro.errors import PlanVerificationError

        marking = getattr(self.translator.adapter, "marking", None)
        report = PlanVerifier(marking=marking).verify(
            translation.plan,
            translation.pass_reports,
            subject=translation.expression,
        )
        if not report.ok:
            raise PlanVerificationError(
                "translated plan violates static invariants:\n"
                + report.render_text(),
                report=report,
            )

    def cache_info(self) -> CacheInfo:
        """Hit/miss counters of the translation cache."""
        with self._lock:
            return CacheInfo(
                self._cache_hits,
                self._cache_misses,
                self._CACHE_LIMIT,
                len(self._translation_cache),
            )

    def cache_clear(self) -> None:
        """Drop all cached translations and reset the counters."""
        with self._lock:
            self._translation_cache.clear()
            self._cache_hits = 0
            self._cache_misses = 0

    # -- result cache ------------------------------------------------------------

    def result_cache_info(self) -> CacheInfo:
        """Hit/miss counters of the result cache (all zeros when the
        engine was built with ``result_cache_size=None``)."""
        if self._result_cache is None:
            return CacheInfo(0, 0, 0, 0)
        return CacheInfo(*self._result_cache.cache_info())

    def result_cache_clear(self) -> None:
        """Drop every cached result and reset the counters."""
        if self._result_cache is not None:
            self._result_cache.clear()

    def _result_key(self, expression) -> Optional[tuple]:
        """Cache key for ``expression`` at the store's current
        generation, or ``None`` when result caching does not apply
        (non-string expression, caching disabled, or a store with no
        generation counter)."""
        if self._result_cache is None or not isinstance(expression, str):
            return None
        generation = getattr(self.store, "generation", None)
        if generation is None:
            return None
        # The translator fingerprint keys results on the active dialect
        # and optimizer-pass set, so engines with different pass
        # configurations sharing a cache never serve each other's rows.
        return (expression, generation, self.translator.fingerprint)

    def _cache_result(self, key: Optional[tuple], result: "QueryResult") -> None:
        """Insert ``result`` unless the store mutated while the query
        ran (the rows then belong to a newer generation than ``key``
        claims — recompute on the next call instead of guessing)."""
        if key is None:
            return
        if getattr(self.store, "generation", None) == key[1]:
            self._result_cache.put(key, result)

    def explain(self, expression: Union[str, XPathExpr]) -> ExplainReport:
        """The SQL text for ``expression``, as an
        :class:`ExplainReport` also carrying the optimized logical
        plan, which optimizer passes fired, and plan statistics before
        and after the pass pipeline."""
        return ExplainReport.from_translation(self.translate(expression))

    def explain_costs(
        self, expression: Union[str, XPathExpr]
    ) -> ExplainReport:
        """Like :meth:`explain`, but also *executes* the statement —
        branch by branch for a UNION — and fills in ``actual_rows`` /
        ``branch_actual`` next to the cost model's estimates, so
        estimation error is visible per plan node."""
        translation = self.translate(expression)
        report = ExplainReport.from_translation(translation)
        if translation.is_empty:
            report.actual_rows = 0
            report.branch_actual = ()
            return report
        statement = translation.statement
        branches = (
            list(statement.branches)
            if isinstance(statement, UnionStatement)
            else [statement]
        )
        raws = [
            self._run_sql(render_statement(branch)) for branch in branches
        ]
        report.branch_actual = tuple(len(raw) for raw in raws)
        merged = self._materialize(
            translation, [record for raw in raws for record in raw]
        )
        report.actual_rows = len(merged)
        return report

    def query_plan(self, expression: Union[str, XPathExpr]) -> list[str]:
        """SQLite's EXPLAIN QUERY PLAN detail for the translated SQL
        (empty for statically-empty translations)."""
        translation = self.translate(expression)
        if translation.is_empty:
            return []
        return self.store.db.query_plan(translation.sql)

    def iterate(self, expression: Union[str, XPathExpr]):
        """Stream result rows without materializing the whole set.

        Rows arrive in per-branch order (a UNION's branches are not
        globally document-ordered); use :meth:`execute` when global
        order matters.
        """
        translation = self.translate(expression)
        if translation.is_empty:
            return
        cursor = self.store.db.execute(translation.sql)
        for record in cursor:
            value = None
            if translation.projection != "nodes" and len(record) > 3:
                value = None if record[3] is None else str(record[3])
            yield ResultRow(
                record[0], record[1], bytes(record[2]), value=value
            )

    @staticmethod
    def _strictest(*limits: "Optional[float]") -> Optional[float]:
        """The tightest of several optional limits (``None`` = none)."""
        present = [limit for limit in limits if limit is not None]
        return min(present) if present else None

    def _run_sql(
        self, sql: str, deadline: Optional[float] = None
    ) -> list[tuple]:
        """Run one statement under the resilience guards — on a pooled
        read-only connection when a pool is attached, on the store's own
        connection otherwise.

        The store policy's ``query_timeout`` / ``max_rows`` are enforced
        on *every* path: a pooled connection runs under the strictest of
        its own policy and the store's, so attaching a pool built
        without limits (``ConnectionPool(path)`` defaults to
        :data:`~repro.resilience.DEFAULT_POLICY`) can never silently
        drop the limits ``execute`` would have applied — this is what
        makes ``--query-timeout`` reach the ``execute_many`` /
        ``execute_parallel`` fan-out paths.  ``deadline`` (seconds of
        remaining budget) tightens the wall-clock limit further, never
        loosens it.
        """
        store_policy = self.store.db.policy
        pool = self._pool
        if pool is not None:
            with pool.acquire() as db:
                return db.query(
                    sql,
                    timeout=self._strictest(
                        store_policy.query_timeout,
                        db.policy.query_timeout,
                        deadline,
                    ),
                    max_rows=self._strictest(
                        store_policy.max_rows, db.policy.max_rows
                    ),
                )
        if deadline is not None:
            return self.store.db.query(
                sql,
                timeout=self._strictest(
                    store_policy.query_timeout, deadline
                ),
                max_rows=store_policy.max_rows,
            )
        return self.store.db.guarded_query(sql)

    def _materialize(
        self, translation: TranslationResult, raw: Iterable[tuple]
    ) -> QueryResult:
        """Wrap raw records into a document-ordered :class:`QueryResult`.

        UNION branches each arrive sorted, but their concatenation is
        not; global document order is enforced here (and splits are
        deduped)."""
        rows = []
        for record in raw:
            if translation.projection == "nodes":
                row_id, doc_id, dewey = record[:3]
                rows.append(ResultRow(row_id, doc_id, bytes(dewey)))
            else:
                row_id, doc_id, dewey, value = record[:4]
                rows.append(
                    ResultRow(
                        row_id,
                        doc_id,
                        bytes(dewey),
                        value=None if value is None else str(value),
                    )
                )
        unique: dict[int, ResultRow] = {}
        for row in rows:
            unique.setdefault(row.id, row)
        ordered = sorted(
            unique.values(), key=lambda r: (r.doc_id, r.dewey_pos)
        )
        return QueryResult(ordered, translation.projection)

    def execute(
        self,
        expression: Union[str, XPathExpr],
        *,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Translate and run ``expression`` against the store.

        Runs under the connection's resilience policy (query timeout /
        row cap); ``deadline`` (seconds) tightens the wall-clock budget
        further.  With :attr:`fallback` enabled, a timed-out or
        retry-exhausted SQL execution is answered by the native
        evaluator instead (``result.served_by == "native"``).  A result
        cached for the store's current generation is returned without
        touching SQLite.
        """
        translation = self.translate(expression)
        if translation.is_empty:
            return QueryResult([], translation.projection)
        key = self._result_key(expression)
        if key is not None:
            cached = self._result_cache.get(key)
            if cached is not None:
                return cached
        try:
            raw = self._run_sql(translation.sql, deadline)
        except (QueryTimeoutError, RetryExhaustedError):
            if not self.fallback:
                raise
            fallback_result = self._execute_fallback(
                expression, translation.projection
            )
            if fallback_result is None:
                raise
            return fallback_result
        result = self._materialize(translation, raw)
        self._cache_result(key, result)
        return result

    def execute_many(
        self,
        expressions: Iterable[Union[str, XPathExpr]],
        *,
        deadline: Optional[float] = None,
        concurrency: Optional[int] = None,
    ) -> list[QueryResult]:
        """Run many independent queries, results in input order.

        The normalized batch surface shared with
        :class:`~repro.serving.scatter.ShardedEngine`: ``concurrency``
        bounds the fan-out, ``deadline`` is a wall-clock budget for the
        *whole call* — queries started after it expires fail like any
        per-query timeout (fallback-answered when enabled, raised
        otherwise).

        With a pool attached, queries fan out over a
        ``ThreadPoolExecutor`` (at most ``concurrency`` in flight) and
        overlap inside SQLite; without one they run serially on the
        store's connection — same results, no concurrency.
        """
        if concurrency is None:
            concurrency = 4
        expressions = list(expressions)
        expiry = None if deadline is None else time.monotonic() + deadline

        def run(expression: Union[str, XPathExpr]) -> QueryResult:
            remaining = None
            if expiry is not None:
                remaining = max(expiry - time.monotonic(), 0.001)
            return self.execute(expression, deadline=remaining)

        workers = min(concurrency, len(expressions))
        if self._pool is None or workers <= 1:
            return [run(expression) for expression in expressions]
        with ThreadPoolExecutor(max_workers=workers) as executor:
            return list(executor.map(run, expressions))

    async def execute_async(
        self,
        expression: Union[str, XPathExpr],
        *,
        deadline: Optional[float] = None,
    ) -> QueryResult:
        """Awaitable :meth:`execute` for asyncio callers.

        Single-store execution is CPU/SQLite-bound, so the call runs on
        a small engine-owned thread pool (bounded — concurrent awaits
        queue rather than spawning a thread each); the coroutine merely
        awaits its completion.  Cancelling the await abandons the
        *wait*, not the underlying statement — the resilience policy's
        timeout still bounds the worker thread.
        """
        loop = asyncio.get_running_loop()
        executor = self._async_executor
        if executor is None:
            with self._lock:
                executor = self._async_executor
                if executor is None:
                    executor = ThreadPoolExecutor(
                        max_workers=4,
                        thread_name_prefix="repro-async",
                    )
                    self._async_executor = executor
        return await loop.run_in_executor(
            executor,
            functools.partial(self.execute, expression, deadline=deadline),
        )

    def close(self) -> None:
        """Release engine-owned resources (idempotent).

        Shuts down the :meth:`execute_async` thread pool and runs any
        cleanup hooks registered by :func:`repro.connect` (the store /
        database it opened on the caller's behalf).  The engine object
        must not be used afterwards.
        """
        executor, self._async_executor = self._async_executor, None
        if executor is not None:
            executor.shutdown(wait=True)
        hooks, self._on_close = list(self._on_close), []
        for hook in reversed(hooks):
            hook()

    def __enter__(self) -> "SQLXPathEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def execute_parallel(
        self, expression: Union[str, XPathExpr], max_workers: int = 4
    ) -> QueryResult:
        """Like :meth:`execute`, but when the translation is a
        multi-branch UNION (Section 4.4 SQL splitting) and a pool is
        attached, the branches — independent SELECTs by construction —
        run concurrently on separate pooled connections and merge into
        the usual document-ordered result.

        When statistics exist, the fan-out is additionally cost-gated:
        a query whose estimated result is below
        :attr:`parallel_min_rows` runs on the single-connection path —
        for tiny results the thread/connection handoff costs more than
        the overlap saves."""
        translation = self.translate(expression)
        if translation.is_empty:
            return QueryResult([], translation.projection)
        branches = (
            translation.statement.branches
            if isinstance(translation.statement, UnionStatement)
            else []
        )
        if self._pool is None or max_workers <= 1 or len(branches) < 2:
            return self.execute(expression)
        estimated = getattr(translation, "estimated_rows", None)
        if estimated is not None and estimated < self.parallel_min_rows:
            return self.execute(expression)
        key = self._result_key(expression)
        if key is not None:
            cached = self._result_cache.get(key)
            if cached is not None:
                return cached
        workers = min(max_workers, len(branches))
        with ThreadPoolExecutor(max_workers=workers) as executor:
            raws = list(
                executor.map(
                    lambda branch: self._run_sql(render_statement(branch)),
                    branches,
                )
            )
        result = self._materialize(
            translation, [record for raw in raws for record in raw]
        )
        self._cache_result(key, result)
        return result

    # -- graceful degradation ---------------------------------------------------

    def _execute_fallback(
        self, expression: Union[str, XPathExpr], projection: str
    ) -> Optional[QueryResult]:
        """Answer ``expression`` with the native evaluator, or ``None``
        when the store's in-memory documents cannot vouch for the stored
        data (partially resident or modified since loading)."""
        resident = getattr(self.store, "resident_documents", None)
        documents = resident() if resident is not None else None
        if not documents:
            return None
        # Imported lazily: repro.baselines pulls in the SQL baselines,
        # which would cycle back into repro.core at import time.
        from repro.baselines.native import NativeEngine
        from repro.dewey import encode
        from repro.xmltree.nodes import AttributeNode, ElementNode, TextNode

        rows: list[ResultRow] = []
        for doc_id, (document, base) in documents.items():
            try:
                nodes = NativeEngine(document).execute(expression)
            except ReproError:
                return None
            for node in nodes:
                if isinstance(node, ElementNode):
                    owner, value = node, None
                elif isinstance(node, TextNode):
                    owner, value = node.parent, node.value
                elif isinstance(node, AttributeNode):
                    owner, value = node.owner, node.value
                else:  # pragma: no cover - defensive
                    return None
                rows.append(
                    ResultRow(
                        base + owner.node_id,
                        doc_id,
                        encode(owner.dewey),
                        value=value,
                    )
                )
        unique: dict[int, ResultRow] = {}
        for row in rows:
            unique.setdefault(row.id, row)
        ordered = sorted(
            unique.values(), key=lambda r: (r.doc_id, r.dewey_pos)
        )
        return QueryResult(ordered, projection, served_by="native")


class PPFEngine(SQLXPathEngine):
    """PPF-based processing over the schema-aware mapping (the paper's
    system).

    :param store: a loaded :class:`ShreddedStore`.
    :param path_filter_optimization: Section 4.5 — omit provably
        redundant `Paths` joins (the paper's default).
    :param prefer_fk_joins: Section 4.2 — foreign-key equijoins for
        single-step child/parent PPFs (the paper's default).
    :param fallback: degrade to the native evaluator when SQL execution
        times out or exhausts its retries (requires the store's
        documents to be resident in memory).
    :param result_cache_size: entries in the generation-keyed result
        cache (``None`` disables it).
    :param pool: serve queries from this read-only connection pool
        (equivalent to calling :meth:`attach_pool` afterwards).
    :param passes: explicit optimizer-pass selection (names from
        :data:`repro.plan.passes.PASSES`, run in the given order);
        ``None`` uses the default pipeline, honouring
        ``path_filter_optimization``.
    :param dialect: SQL dialect to lower plans through (default:
        SQLite).
    :param verify_plans: debug gate — statically verify every fresh
        translation and raise
        :class:`~repro.errors.PlanVerificationError` on violations.
    """

    def __init__(
        self,
        store: ShreddedStore,
        path_filter_optimization: bool = True,
        prefer_fk_joins: bool = True,
        fallback: bool = False,
        result_cache_size: int | None = 128,
        pool: ConnectionPool | None = None,
        passes: "Optional[tuple[str, ...] | list[str]]" = None,
        dialect: Optional[AnsiDialect] = None,
        verify_plans: bool = False,
    ):
        adapter = SchemaAwareAdapter(
            store, path_filter_optimization=path_filter_optimization
        )
        super().__init__(
            store,
            PPFTranslator(
                adapter,
                prefer_fk_joins=prefer_fk_joins,
                passes=passes,
                dialect=dialect,
            ),
            fallback=fallback,
            result_cache_size=result_cache_size,
            pool=pool,
            verify_plans=verify_plans,
        )


class EdgePPFEngine(SQLXPathEngine):
    """PPF-based processing over the schema-oblivious Edge mapping
    (the `Edge-like PPF` competitor of Figures 3–4)."""

    def __init__(
        self,
        store: EdgeStore,
        prefer_fk_joins: bool = True,
        fallback: bool = False,
        result_cache_size: int | None = 128,
        pool: ConnectionPool | None = None,
        passes: "Optional[tuple[str, ...] | list[str]]" = None,
        dialect: Optional[AnsiDialect] = None,
        verify_plans: bool = False,
    ):
        adapter = EdgeAdapter(store)
        super().__init__(
            store,
            PPFTranslator(
                adapter,
                prefer_fk_joins=prefer_fk_joins,
                passes=passes,
                dialect=dialect,
            ),
            fallback=fallback,
            result_cache_size=result_cache_size,
            pool=pool,
            verify_plans=verify_plans,
        )
