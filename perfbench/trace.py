"""Timing spans recorded around the program's public functions.

The traced run installs wrappers on each layer's public entry points
(nothing inside ``src/`` changes); every call becomes a span — name,
start, end, parent span, request id — kept in memory and written out as
JSON lines when the run ends.  A layer's self time is its span's
duration minus the part of that interval its child spans cover.

Wrappers are inert outside the installing process: the sharded fleet
forks workers while they are installed, and a worker must not grow a
span list nobody reads.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import os
import time
from collections import Counter
from typing import Callable, NamedTuple, Optional

#: The span a call runs under: ``(span id, name)`` or ``None``.
_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None
)
#: The benchmark operation a call belongs to: ``(request id, kind)``.
REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=(0, "none")
)


class Span(NamedTuple):
    sid: int
    parent: int
    rid: int
    kind: str
    name: str
    start: int
    end: int
    #: Rows returned, bytes parsed or shard index, per wrapper.
    size: int

    @property
    def ms(self) -> float:
        return (self.end - self.start) / 1e6


def _rows(result) -> int:
    return len(result)


def _fired(translation) -> int:
    return len(translation.fired_passes())


def _text_bytes(args, kwargs) -> int:
    text = args[0] if args else kwargs.get("text", "")
    return len(text.encode("utf-8"))


class Tracer:
    """Installs the layer wrappers and owns the recorded spans."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        #: ``(counter name, request kind) -> calls``.
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- recording -----------------------------------------------------------

    def _live(self) -> bool:
        return os.getpid() == self.pid

    def _record(self, sid, parent, name, start, end, size) -> None:
        rid, kind = REQUEST.get()
        self.spans.append(
            Span(sid, parent[0] if parent else 0, rid, kind, name,
                 start, end, size)
        )

    def _span(self, original: Callable, name: str,
              size_of_result=None, size_of_args=None) -> Callable:
        tracer = self

        if inspect.iscoroutinefunction(original):
            @functools.wraps(original)
            async def async_wrapper(*args, **kwargs):
                if not tracer._live():
                    return await original(*args, **kwargs)
                parent = _CURRENT.get()
                sid = next(tracer._ids)
                token = _CURRENT.set((sid, name))
                start = time.perf_counter_ns()
                size = 0
                try:
                    result = await original(*args, **kwargs)
                    if size_of_result is not None:
                        size = size_of_result(result)
                    return result
                finally:
                    end = time.perf_counter_ns()
                    _CURRENT.reset(token)
                    tracer._record(sid, parent, name, start, end, size)

            return async_wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._live():
                return original(*args, **kwargs)
            parent = _CURRENT.get()
            sid = next(tracer._ids)
            token = _CURRENT.set((sid, name))
            size = size_of_args(args, kwargs) if size_of_args else 0
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
                if size_of_result is not None:
                    size = size_of_result(result)
                return result
            finally:
                end = time.perf_counter_ns()
                _CURRENT.reset(token)
                tracer._record(sid, parent, name, start, end, size)

        return wrapper

    def _counter(self, original: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._live():
                tracer.counts[(name, REQUEST.get()[1])] += 1
            return original(*args, **kwargs)

        return wrapper

    def _batch(self, original: Callable) -> Callable:
        """``ShardRuntime.submit_batch``: the span ends when the batch's
        ``on_complete`` callback fires (on the dispatcher thread)."""
        tracer = self

        @functools.wraps(original)
        def wrapper(runtime, shard, sqls, *args, on_complete=None, **kwargs):
            if not tracer._live() or on_complete is None:
                return original(runtime, shard, sqls, *args,
                                on_complete=on_complete, **kwargs)
            parent = _CURRENT.get()
            sid = next(tracer._ids)
            request = REQUEST.get()
            start = time.perf_counter_ns()

            def completed(response):
                end = time.perf_counter_ns()
                tracer.spans.append(Span(
                    sid, parent[0] if parent else 0, request[0],
                    request[1], "supervisor.batch", start, end, shard,
                ))
                on_complete(response)

            return original(runtime, shard, sqls, *args,
                            on_complete=completed, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        """Wrap every layer's public functions (idempotent per tracer)."""
        if self._undo:
            return self
        import repro.core.translator as translator_mod
        import repro.plan.lowering as lowering_mod
        import repro.stats.maintenance as maintenance_mod
        import repro.xmltree.parser as parser_mod
        from repro.core.engine import SQLXPathEngine
        from repro.core.translator import PPFTranslator
        from repro.plan.cost import CardinalityEstimator
        from repro.plan.passes import PassPipeline
        from repro.plan.planner import Planner
        from repro.serving.frontdoor import AsyncShardedEngine
        from repro.serving.shards import ShardedStore
        from repro.serving.supervisor import ShardRuntime
        from repro.storage.database import Database
        from repro.storage.schema_aware import ShreddedStore

        spans = [
            (SQLXPathEngine, "execute", "engine.execute", _rows),
            (AsyncShardedEngine, "execute", "frontdoor.execute", _rows),
            (PPFTranslator, "translate", "translate", _fired),
            (translator_mod, "parse_xpath", "xpath.parse", None),
            (Planner, "plan", "plan.planner", None),
            (PassPipeline, "run", "plan.passes", None),
            (CardinalityEstimator, "estimate_plan", "plan.cost", None),
            (lowering_mod, "lower_plan", "plan.lowering", None),
            (Database, "query", "db.query", _rows),
            (ShreddedStore, "append_subtree", "store.append", None),
            (ShreddedStore, "update_text", "store.update", None),
            (ShreddedStore, "load", "store.load", None),
            (ShreddedStore, "delete_document", "store.delete", None),
            (ShreddedStore, "bulk_load", "store.bulk_load", None),
            (ShardedStore, "bulk_load", "store.bulk_load", None),
        ]
        for owner, attr, name, size in spans:
            self._patch(owner, attr,
                        self._span(getattr(owner, attr), name, size))
        self._patch(parser_mod, "parse_document", self._span(
            parser_mod.parse_document, "xmltree.parse",
            size_of_args=_text_bytes,
        ))
        for attr, value in vars(maintenance_mod).copy().items():
            if (
                inspect.isfunction(value)
                and not attr.startswith("_")
                and value.__module__ == maintenance_mod.__name__
            ):
                self._patch(maintenance_mod, attr,
                            self._span(value, f"stats.{attr}"))
        for owner, attr, name in (
            (SQLXPathEngine, "translate", "engine.translate"),
            (Database, "execute", "db.execute"),
            (Database, "commit", "db.commit"),
        ):
            self._patch(owner, attr, self._counter(getattr(owner, attr), name))
        self._patch(ShardRuntime, "submit_batch",
                    self._batch(ShardRuntime.submit_batch))
        return self

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output ------------------------------------------------------------------

    def dump(self, path: str, meta: dict) -> None:
        """Write the spans as JSON lines, after one metadata line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as out:
            out.write(json.dumps({"meta": meta}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


def covered_ns(start: int, end: int, intervals) -> int:
    """Nanoseconds of ``[start, end]`` covered by the union of
    ``intervals`` (each a ``(start, end)`` pair)."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in intervals
        if e > start and s < end
    )
    total, cursor = 0, start
    for s, e in clipped:
        if e <= cursor:
            continue
        total += e - max(s, cursor)
        cursor = e
    return total


def self_ms(span: Span, children) -> float:
    """A span's duration minus what its children cover, in ms."""
    return (
        span.end - span.start
        - covered_ns(span.start, span.end,
                     [(c.start, c.end) for c in children])
    ) / 1e6


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    index: dict[int, list[Span]] = {}
    for span in spans:
        index.setdefault(span.parent, []).append(span)
    return index


def top_level(spans: list[Span], prefix: str) -> list[Span]:
    """Spans named ``prefix*`` not nested in another such span (so a
    layer's time is not counted twice when it calls itself)."""
    layer = {s.sid for s in spans if s.name.startswith(prefix)}
    return [
        s for s in spans
        if s.name.startswith(prefix) and s.parent not in layer
    ]


def total_ms(spans: list[Span], prefix: str,
             kinds: Optional[set] = None) -> float:
    return sum(
        s.ms for s in top_level(spans, prefix)
        if kinds is None or s.kind in kinds
    )
