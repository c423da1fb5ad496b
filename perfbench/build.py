"""Set-up: from XML text to a ready engine, timed as ``setup_s``.

One set-up parses the texts, infers the schema, bulk-shreds, runs
``ANALYZE`` (the bulk load collects path statistics itself), and opens
the engine through :func:`repro.connect` — which, for a sharded store,
starts the worker fleet.  Input generation is not part of it.
"""

from __future__ import annotations

import gc
import os
import shutil
import time

from perfbench.common import median
from perfbench.trace import REQUEST


def _parse(texts: list[str]) -> list:
    # Looked up on the module at call time, so the traced run's wrapper
    # around ``parse_document`` sees these calls.
    import repro.xmltree.parser as parser

    return [
        parser.parse_document(text, name=f"doc-{index}.xml")
        for index, text in enumerate(texts)
    ]


def build_single(texts: list[str], path: str, config):
    """A single store file at ``path`` and an engine over it."""
    import repro
    from repro.schema.inference import infer_schema
    from repro.storage.database import Database
    from repro.storage.schema_aware import ShreddedStore

    for suffix in ("", "-wal", "-shm"):
        if os.path.exists(path + suffix):
            os.remove(path + suffix)
    documents = _parse(texts)
    db = Database.open(path)
    try:
        store = ShreddedStore.create(db, infer_schema(documents))
        store.bulk_load(documents)
        db.execute("ANALYZE")
        db.commit()
    finally:
        db.close()
    return repro.connect(path, config=config)


def build_sharded(texts: list[str], directory: str, shards: int, config):
    """A sharded store under ``directory`` and a fleet serving it."""
    import repro
    from repro.schema.inference import infer_schema
    from repro.serving.shards import ShardedStore

    if os.path.isdir(directory):
        shutil.rmtree(directory)
    documents = _parse(texts)
    for index, document in enumerate(documents):
        document.name = f"xmark-{index}.xml"
    store = ShardedStore.create(
        directory, infer_schema(documents), shards=shards
    )
    try:
        store.bulk_load(documents)
        store.analyze()
    finally:
        store.close()
    # The fleet forks from this process: free the parsed documents and
    # the set-up garbage first, so the workers do not start out holding
    # (and the memory figure does not count twice) the client's heap.
    del documents, store
    gc.collect()
    return repro.connect(directory, config=config)


def timed_setups(build, repeats: int, tracer=None):
    """Run ``build()`` ``repeats`` times (traced, when a tracer is
    given); keep the last engine, close the others, and return
    ``(engine, median seconds)``."""
    token = REQUEST.set((0, "setup"))
    if tracer is not None:
        tracer.install()
    try:
        seconds, engine = [], None
        for _ in range(repeats):
            if engine is not None:
                engine.close()
                engine = None
            start = time.perf_counter()
            engine = build()
            seconds.append(time.perf_counter() - start)
        return engine, median(seconds)
    finally:
        if tracer is not None:
            tracer.uninstall()
        REQUEST.reset(token)
