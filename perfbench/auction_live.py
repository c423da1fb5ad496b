"""``auction-live``: writes next to reads on a store that fits the cache.

One closed-loop client runs cycles of 100 operations — 50 lookups, 20
browse reads, 29 bids and 1 churn, in a seeded order — so every part of
a run has the same mix:

* lookups: point queries for Zipf-popular ``person{k}`` / ``item{k}``
  / ``open_auction{k}`` — enough distinct strings to overflow the
  engine's 256-entry translation cache — and browse reads: Zipf-skewed
  picks from the 25 XPathMark queries.  Lookups outnumber browse reads
  so that the median read lies inside one class of query, not on the
  boundary between cheap and costly ones;
* bids (most writes): ``append_subtree`` of a ``<bidder>`` under a
  Zipf-chosen open auction, then ``update_text`` of its ``current``;
* catalog churn: ``parse_document`` of a small XMark
  text, ``load``, and ``delete_document`` of the oldest churn document,
  so the store's size stays flat.

The engine runs with the default ``EngineConfig()``.  Every read is
checked, off the clock, against the native evaluator over a mirror of
the documents that the benchmark updates with each write; the mirror
lives in a child process (:mod:`perfbench.oracle`), so it does not
count in the client's memory.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from collections import deque

from perfbench.build import build_single, timed_setups
from perfbench.common import (
    Checker,
    HERE,
    Context,
    Outcome,
    median,
    peak_rss_mb,
    proc_write_bytes,
    settle,
    store_bytes,
)
from perfbench.inputs import derive_seed, read_texts
from perfbench.oracle import bidder
from perfbench.trace import REQUEST

SETUP_REPEATS = 5
#: One cycle of the operation mix.
CYCLE = ("lookup",) * 50 + ("browse",) * 20 + ("bid",) * 29 + ("churn",)
#: Churn documents resident at any time (loaded at set-up).
RESIDENT_CHURN = 2


def zipf_weights(count: int, exponent: float = 1.0) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


def bidder_fields(rng: random.Random, people: int) -> dict:
    """The text of a new ``<bidder>``: date, time, person, increase."""
    return {
        "date": f"{rng.randint(1, 12):02d}/{rng.randint(1, 28):02d}/"
                f"{rng.randint(1998, 2004)}",
        "time": f"{rng.randint(0, 23):02d}:{rng.randint(0, 59):02d}:00",
        "person": f"person{rng.randrange(people)}",
        "increase": f"{rng.uniform(1, 30):.2f}",
    }


class Oracle:
    """The client end of :mod:`perfbench.oracle`, run as a child
    process over the run's input texts."""

    def __init__(self, workdir: str) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "oracle.py"), workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def ask(self, op: str, **fields) -> dict:
        self.process.stdin.write(json.dumps({"op": op, **fields}) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(f"oracle exited ({self.process.poll()})")
        reply = json.loads(line)
        if "error" in reply:
            raise RuntimeError(f"oracle: {reply['error']}")
        return reply

    def close(self) -> None:
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()


class Live:
    """The operation mix over one engine, checked against the oracle."""

    def __init__(self, engine, oracle: Oracle, main: dict,
                 churn_texts: list[str], churn_ids: list[int],
                 browse: list[str], rng: random.Random, checker: Checker):
        self.engine = engine
        self.store = engine.store
        self.oracle = oracle
        self.rng = rng
        self.checker = checker
        self.churn_texts = churn_texts
        self.churn_next = len(churn_ids)
        self.churn_ids = deque(churn_ids)
        #: ``[auction id, current id, current price]`` per open auction.
        self.auctions = main["auctions"]
        # Zipf-popular ids: the 438 distinct lookups at scale 6 overflow
        # the 256-entry translation cache, yet most lookups hit it, so
        # the median read lies among the hits rather than on the
        # boundary between hits and misses.
        self.person_weights = zipf_weights(main["people"])
        self.item_weights = zipf_weights(main["items"])
        # A fixed popularity ranking: the seed picks the sequence, not
        # which (cheap or costly) queries are popular.
        self.browse = browse
        self.browse_weights = zipf_weights(len(self.browse))
        self.auction_weights = zipf_weights(len(self.auctions))
        self.read_ms: list[float] = []
        self.write_ms: list[float] = []
        self.on_clock = 0.0
        self.write_bytes = 0
        self.count_io = False
        self._rid = 0

    # -- the mix ---------------------------------------------------------------

    def cycle(self) -> None:
        """One :data:`CYCLE` of operations in a fresh seeded order."""
        plan = list(CYCLE)
        self.rng.shuffle(plan)
        for kind in plan:
            self._rid += 1
            if kind == "lookup":
                self.read(self.lookup())
            elif kind == "browse":
                self.read(self.rng.choices(
                    self.browse, self.browse_weights
                )[0])
            else:
                self.write(self.bid if kind == "bid" else self.churn)

    def lookup(self) -> str:
        kind = self.rng.randrange(3)
        if kind == 0:
            return (f"/site/people/person[@id='person"
                    f"{self.popular(self.person_weights)}']/name")
        if kind == 1:
            return (f"/site/regions/*/item[@id='item"
                    f"{self.popular(self.item_weights)}']/name")
        return (f"/site/open_auctions/open_auction[@id='open_auction"
                f"{self.popular(self.auction_weights)}']/bidder/increase")

    def popular(self, weights: list[float]) -> int:
        return self.rng.choices(range(len(weights)), weights)[0]

    def read(self, xpath: str) -> None:
        token = REQUEST.set((self._rid, "read"))
        start = time.perf_counter()
        try:
            result = self.engine.execute(xpath)
        except Exception as exc:  # counted, never hidden
            self.checker.record(False, f"{xpath}: {exc!r}")
            return
        finally:
            elapsed = time.perf_counter() - start
            REQUEST.reset(token)
        self.on_clock += elapsed
        self.read_ms.append(elapsed * 1000)
        got = [[None, row.value] if row.value is not None else [row.id, None]
               for row in result.rows]
        answer = self.oracle.ask("answer", xpath=xpath)["answer"]
        self.checker.record(self.checker.corrupt(got) == answer, xpath)

    def write(self, prepare) -> None:
        """One write: ``prepare()``, off the clock, returns the store
        calls to time and the oracle update to send after them."""
        calls, tell_oracle = prepare()
        token = REQUEST.set((self._rid, "write"))
        before = proc_write_bytes() if self.count_io else 0
        start = time.perf_counter()
        try:
            calls()
        except Exception as exc:  # counted, never hidden
            self.checker.record(False, f"{prepare.__name__}: {exc!r}")
            return
        finally:
            elapsed = time.perf_counter() - start
            if self.count_io:
                self.write_bytes += proc_write_bytes() - before
            REQUEST.reset(token)
        self.on_clock += elapsed
        self.write_ms.append(elapsed * 1000)
        tell_oracle()
        self.checker.record(True)

    def bid(self):
        """``append_subtree`` of a new bidder, then ``update_text`` of
        the auction's ``current`` price."""
        index = self.popular(self.auction_weights)
        auction_id, current_id, price = self.auctions[index]
        fields = bidder_fields(self.rng, len(self.person_weights))
        fragment = bidder(fields)
        value = f"{float(price) + float(fields['increase']):.2f}"
        new_ids: list[int] = []

        def calls() -> None:
            new_ids.extend(self.store.append_subtree(auction_id, fragment))
            self.store.update_text(current_id, value)

        def apply() -> None:
            self.auctions[index][2] = value
            self.oracle.ask("bid", auction=index, fields=fields,
                            value=value, ids=new_ids)

        return calls, apply

    def churn(self):
        """``parse_document`` and ``load`` of a catalog document, then
        ``delete_document`` of the oldest churn document."""
        import repro.xmltree.parser as parser

        index = self.churn_next % len(self.churn_texts)
        name = f"churn-{self.churn_next}.xml"
        self.churn_next += 1
        oldest = self.churn_ids[0]
        loaded: list[int] = []

        def calls() -> None:
            document = parser.parse_document(self.churn_texts[index],
                                             name=name)
            loaded.append(self.store.load(document))
            self.store.delete_document(oldest)

        def apply() -> None:
            (doc_id,) = loaded
            self.churn_ids.popleft()
            self.churn_ids.append(doc_id)
            # The oracle's texts are the main document's, then these.
            self.oracle.ask("churn", text=1 + index, doc_id=doc_id,
                            base=self.store.doc_base(doc_id), oldest=oldest)

        return calls, apply


def run(ctx: Context, payload: dict, tracer) -> Outcome:
    import repro

    texts = read_texts(payload)
    initial = texts[:1 + RESIDENT_CHURN]
    store_path = os.path.join(ctx.workdir, "auction-live.db")
    engine, setup_s = timed_setups(
        lambda: build_single(initial, store_path, repro.EngineConfig()),
        ctx.sizes.get("setup_repeats", SETUP_REPEATS),
        tracer,
    )
    checker = Checker(ctx.corrupt)
    notes = {"failures": checker.first_failures}
    oracle = Oracle(ctx.workdir)
    try:
        doc_ids = range(1, 2 + RESIDENT_CHURN)
        main = oracle.ask("start", bases=[
            [doc_id, engine.store.doc_base(doc_id)] for doc_id in doc_ids
        ])
        live = Live(engine, oracle, main, texts[1:], list(doc_ids)[1:],
                    payload["queries"],
                    random.Random(derive_seed(ctx.workload, ctx.seed, "ops")),
                    checker)
        settle()
        if tracer is None:
            while live.on_clock < ctx.seconds:
                live.cycle()
            metrics = {
                "setup_s": setup_s,
                "read_p50_ms": median(live.read_ms),
                "ops_per_s": (len(live.read_ms) + len(live.write_ms))
                / live.on_clock,
                "peak_rss_mb": peak_rss_mb(),
            }
            xml_bytes = oracle.ask("xml_bytes")["xml_bytes"]
        else:
            metrics, tails = traced(live, ctx, tracer)
            notes.update(tails)
    finally:
        engine.close()
        oracle.close()
    if tracer is None:
        metrics["store_bytes_per_xml_byte"] = (
            store_bytes(store_path) / xml_bytes
        )
    return Outcome(checker.attempted, checker.failed, metrics, notes)


def traced(live: Live, ctx: Context, tracer):
    """Alternate untraced and traced cycles of the same mix; returns
    ``(metrics, notes)``."""
    from perfbench.layers import per_layer

    tracer.spans = [s for s in tracer.spans if s.kind == "setup"]
    plain = {"ops": 0, "seconds": 0.0, "read_ms": [], "write_ms": []}
    marked = {"ops": 0, "seconds": 0.0, "reads": 0, "writes": 0,
              "hits": 0, "misses": 0}
    cycles = 0
    while plain["seconds"] + marked["seconds"] < ctx.seconds:
        is_traced = cycles % 2 == 1
        cycles += 1
        reads, writes = len(live.read_ms), len(live.write_ms)
        clock = live.on_clock
        cache = live.engine.result_cache_info()
        if is_traced:
            tracer.install()
            live.count_io = True
        try:
            live.cycle()
        finally:
            tracer.uninstall()
            live.count_io = False
        side = marked if is_traced else plain
        side["ops"] += (len(live.read_ms) - reads
                        + len(live.write_ms) - writes)
        side["seconds"] += live.on_clock - clock
        if is_traced:
            after = live.engine.result_cache_info()
            marked["reads"] += len(live.read_ms) - reads
            marked["writes"] += len(live.write_ms) - writes
            marked["hits"] += after.hits - cache.hits
            marked["misses"] += after.misses - cache.misses
        else:
            plain["read_ms"] += live.read_ms[reads:]
            plain["write_ms"] += live.write_ms[writes:]
    return per_layer(tracer, {
        "reads": marked["reads"],
        "read_ms": plain["read_ms"],
        "writes": marked["writes"],
        "traced_seconds": marked["seconds"],
        "write_ms": plain["write_ms"],
        "write_bytes": live.write_bytes,
        "result_cache": (marked["hits"], marked["misses"]),
        "untraced_ops_per_s": plain["ops"] / plain["seconds"],
        "traced_ops_per_s": marked["ops"] / marked["seconds"],
    })
