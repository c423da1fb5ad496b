"""Per-layer metrics derived from one traced phase's spans and counts.

Every workload reports the full per-layer set; a layer the workload does
not exercise reports 0.  ``facts`` carries what only the workload knows:
operation counts, cache and serving counter deltas, the read and write
latencies and generator lags of the run's untraced blocks (for the tail
percentiles, which tracing would inflate), and the traced/untraced
throughput.
"""

from __future__ import annotations

from perfbench.common import median, tail
from perfbench.trace import (
    Span,
    Tracer,
    children_of,
    covered_ns,
    self_ms,
    total_ms,
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_ms(spans: list[Span], name: str) -> float:
    chosen = [s.ms for s in spans if s.name == name]
    return _ratio(sum(chosen), len(chosen))


def frontdoor_split(spans: list[Span]) -> tuple[float, float]:
    """``(self ms, batch-covered ms)`` summed over front-door reads.

    A read's batches are, per shard, the first batch submitted after the
    read entered the front door: the loop flushes every query enqueued
    in one iteration together, on the next iteration, and the closed
    loop never holds more readers than admission slots."""
    batches: dict[int, list[Span]] = {}
    for span in spans:
        if span.name == "supervisor.batch":
            batches.setdefault(span.size, []).append(span)
    for shard_batches in batches.values():
        shard_batches.sort(key=lambda s: s.start)
    kids = children_of(spans)
    own_total = cover_total = 0.0
    for read in (s for s in spans if s.name == "frontdoor.execute"):
        mine = [
            next((b for b in shard_batches if b.start >= read.start), None)
            for shard_batches in batches.values()
        ]
        mine = [b for b in mine if b is not None and b.start <= read.end]
        translate = [c for c in kids.get(read.sid, [])
                     if c.name == "translate"]
        cover_total += covered_ns(
            read.start, read.end, [(b.start, b.end) for b in mine]
        ) / 1e6
        own_total += self_ms(read, mine + translate)
    return own_total, cover_total


def per_layer(tracer: Tracer, facts: dict) -> tuple[dict, dict]:
    """``(metrics, notes)``: every per-layer metric, and how many
    samples each tail percentile stands on (at least ten should lie
    beyond it)."""
    spans = tracer.spans
    counts = tracer.counts
    run = [s for s in spans if s.kind in ("read", "write")]
    reads = [s for s in run if s.kind == "read"]
    n_reads = facts.get("reads", 0)
    n_writes = facts.get("writes", 0)
    kids = children_of(run)

    executes = [s for s in reads if s.name == "engine.execute"]
    fronts = [s for s in reads if s.name == "frontdoor.execute"]
    queries = [s for s in reads if s.name == "db.query"]
    translations = [s for s in run if s.name == "translate"]
    engine_self = sum(
        self_ms(e, [c for c in kids.get(e.sid, [])
                    if c.name in ("translate", "db.query")])
        for e in executes
    )
    front_self, front_cover = frontdoor_split(reads)
    front_ms = sum(s.ms for s in fronts)
    lookups = counts[("engine.translate", "read")]
    read_translations = [s for s in translations if s.kind == "read"]
    batches = [s for s in reads if s.name == "supervisor.batch"]
    setup = [s for s in spans if s.kind == "setup"]
    bulk = [s.ms / 1000 for s in setup
            if s.name == "store.bulk_load" and s.parent == 0]
    parsed = [s for s in setup if s.name == "xmltree.parse"]
    write_ms = (
        total_ms(run, "store.append") + total_ms(run, "store.update")
        + total_ms(run, "store.load") + total_ms(run, "store.delete")
    )
    serving = facts.get("serving", {})
    served = serving.get("queries", 0)
    result_hits, result_misses = facts.get("result_cache", (0, 0))

    def per_translation(name: str) -> float:
        return _ratio(total_ms(run, name), len(translations))

    tails, samples = {}, {}
    for name, key, q in (("read_p90_ms", "read_ms", 90),
                         ("read_p95_ms", "read_ms", 95),
                         ("write_p90_ms", "write_ms", 90),
                         ("loadgen.lag_p95_ms", "lag_ms", 95)):
        tails[name], samples[name] = tail(facts.get(key, []), q)

    return {
        **tails,
        "write_p50_ms": median(facts.get("write_ms", [])),
        "read.execute_ms": _ratio(
            sum(s.ms for s in executes + fronts), len(executes + fronts)
        ),
        "db.query_ms": _ratio(sum(s.ms for s in queries), n_reads),
        "db.query_calls": _ratio(len(queries), n_reads),
        "db.rows_fetched_per_result_row": _ratio(
            sum(s.size for s in queries), sum(s.size for s in executes)
        ),
        "engine.self_ms": _ratio(engine_self, len(executes)),
        "engine.result_cache_hit_ratio": _ratio(
            result_hits, result_hits + result_misses
        ),
        "translate.ms": _ratio(
            sum(s.ms for s in read_translations), n_reads
        ),
        "translate.cache_hit_ratio": _ratio(
            lookups - len(read_translations), lookups
        ),
        "xpath.parse_ms": per_translation("xpath.parse"),
        "plan.planner_ms": per_translation("plan.planner"),
        "plan.passes_ms": per_translation("plan.passes"),
        "plan.cost_ms": per_translation("plan.cost"),
        "plan.lowering_ms": per_translation("plan.lowering"),
        "plan.passes_fired_per_translation": _ratio(
            sum(s.size for s in translations), len(translations)
        ),
        "store.append_ms": _mean_ms(run, "store.append"),
        "store.update_ms": _mean_ms(run, "store.update"),
        "store.load_ms": _mean_ms(run, "store.load"),
        "store.delete_ms": _mean_ms(run, "store.delete"),
        "store.write_time_share": _ratio(
            write_ms, facts.get("traced_seconds", 0.0) * 1000
        ),
        "db.statements_per_write": _ratio(
            counts[("db.execute", "write")], n_writes
        ),
        "db.commits_per_write": _ratio(
            counts[("db.commit", "write")], n_writes
        ),
        "io.write_bytes_per_write": _ratio(
            facts.get("write_bytes", 0), n_writes
        ),
        "stats.maintenance_ms": _ratio(
            total_ms(run, "stats.", {"write"}), n_writes
        ),
        "stats.setup_ms": _ratio(total_ms(setup, "stats."), len(bulk)),
        "store.bulk_load_s": median(bulk),
        "xmltree.parse_mb_per_s": _ratio(
            sum(s.size for s in parsed) / 1e6,
            sum(s.ms for s in parsed) / 1000,
        ),
        "frontdoor.queries_per_batch": _ratio(len(fronts), len(batches)),
        "supervisor.batch_rtt_ms": median([s.ms for s in batches]),
        "supervisor.rtt_share": _ratio(front_cover, front_ms),
        "frontdoor.self_ms": _ratio(front_self, len(fronts)),
        "serving.hedges_per_query": _ratio(serving.get("hedges", 0), served),
        "serving.retries_per_query": _ratio(
            serving.get("retries", 0), served
        ),
        "serving.fallback_ratio": _ratio(serving.get("fallbacks", 0), served),
        "serving.partial_ratio": _ratio(serving.get("partials", 0), served),
        "trace.overhead_ratio": _ratio(
            facts.get("untraced_ops_per_s", 0.0),
            facts.get("traced_ops_per_s", 0.0),
        ),
    }, {"tail_samples": samples}
