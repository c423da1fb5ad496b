"""Seeded inputs and expected answers, made in a child process.

The program under test receives only what this module writes: XML
texts.  Expected answers for ``sharded-async`` come from an independent
evaluator — a single store built from the same documents — computed
here, off the clock and outside the measured process, and handed over
as digests (:func:`~perfbench.common.answer_digest`), so neither the
generator nor the oracle shows in the client's peak memory.  ``auction-live`` gets
texts only: its oracle (:mod:`perfbench.oracle`) follows the writes.

Run as ``python3 perfbench/inputs.py WORKLOAD SEED WORKDIR SIZES_JSON``;
the parent reads ``WORKDIR/inputs.json``.
"""

from __future__ import annotations

import json
import os
import random
import sys

if __name__ == "__main__":  # run as a script: make the package importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))

from perfbench.common import answer_digest, import_program  # noqa: E402

#: Input sizes per workload (the self-test passes smaller ones).
DEFAULT_SIZES = {
    "auction-live": {"scale": 6.0, "churn_scale": 0.5, "churn_docs": 24},
    "sharded-async": {"scale": 1.5, "docs": 8, "shards": 2},
}


def stock_queries() -> list[str]:
    """The 17 XPathMark queries of the paper's tables plus the 8-query
    "A" series."""
    from repro.workloads.xpathmark import (
        XPATHMARK_A_QUERIES,
        XPATHMARK_QUERIES,
    )

    return [q.xpath for q in XPATHMARK_QUERIES + XPATHMARK_A_QUERIES]


def xmark_text(scale: float, seed: int) -> tuple[str, object]:
    """One seeded XMark document and its compact serialization."""
    from repro.workloads.xmark import XMarkConfig, generate_xmark
    from repro.xmltree.serializer import serialize

    document = generate_xmark(XMarkConfig(scale=scale, seed=seed))
    return serialize(document, pretty=False), document


def derive_seed(workload: str, seed: int, stream: str) -> int:
    """An independent integer seed per workload and random stream."""
    return random.Random(f"{workload}:{seed}:{stream}").randrange(2**31)


def prepare(workload: str, seed: int, workdir: str, sizes: dict) -> dict:
    os.makedirs(workdir, exist_ok=True)
    queries = stock_queries()
    if workload == "sharded-async":
        texts, documents = [], []
        for index in range(sizes["docs"]):
            text, document = xmark_text(
                sizes["scale"], derive_seed(workload, seed, f"xml{index}")
            )
            document.name = f"xmark-{index}.xml"
            texts.append(text)
            documents.append(document)
        expected = single_store_answers(documents, queries)
    elif workload == "auction-live":
        texts = [xmark_text(sizes["scale"],
                            derive_seed(workload, seed, "xml"))[0]]
        texts += [
            xmark_text(sizes["churn_scale"],
                       derive_seed(workload, seed, f"churn{index}"))[0]
            for index in range(sizes["churn_docs"])
        ]
        expected = {}
    else:
        raise ValueError(f"no prepared inputs for {workload!r}")
    paths = []
    for index, text in enumerate(texts):
        path = os.path.join(workdir, f"input-{index}.xml")
        with open(path, "w", encoding="utf-8") as out:
            out.write(text)
        paths.append(path)
    payload = {"texts": paths, "queries": queries, "expected": expected}
    with open(os.path.join(workdir, "inputs.json"), "w") as out:
        json.dump(payload, out)
    return payload


def single_store_answers(documents, queries) -> dict:
    """Answer digests of one in-memory store holding every document,
    loaded in the same order as the sharded store (so global ids
    coincide)."""
    from repro.core.engine import PPFEngine
    from repro.schema.inference import infer_schema
    from repro.storage.database import Database
    from repro.storage.schema_aware import ShreddedStore

    store = ShreddedStore.create(Database.memory(), infer_schema(documents))
    store.bulk_load(documents)
    engine = PPFEngine(store, result_cache_size=None)
    answers = {
        q: answer_digest([[row.id, row.value] for row in engine.execute(q)])
        for q in queries
    }
    store.db.close()
    return answers


def read_texts(payload: dict) -> list[str]:
    """The XML texts :func:`prepare` wrote."""
    texts = []
    for path in payload["texts"]:
        with open(path, encoding="utf-8") as handle:
            texts.append(handle.read())
    return texts


def main(argv: list[str]) -> int:
    workload, seed, workdir, sizes = argv
    import_program()
    prepare(workload, int(seed), workdir, json.loads(sizes))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
