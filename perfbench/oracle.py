"""The ``auction-live`` oracle: a mirror of the store's documents, kept
in a child process so it does not show in the client's memory.

    python3 perfbench/oracle.py WORKDIR

reads the input texts that ``WORKDIR/inputs.json`` names, then answers
one JSON request per line on standard input with one JSON reply per
line on standard output, until standard input closes:

* ``{"op": "start", "bases": [[doc_id, base], ...]}`` — mirror the first
  ``len(bases)`` texts under those store ids and global-id bases; the
  reply describes the first (main) document: its people, items and
  open auctions (``[auction id, current id, current price]``);
* ``{"op": "answer", "xpath": x}`` — the native evaluator's answer over
  every mirrored document: ``[id, value]`` pairs in document order;
* ``{"op": "bid", "auction": i, "fields": f, "value": v, "ids": [...]}``
  — append :func:`bidder` ``(f)`` under open auction ``i`` of the main
  document, its elements having the store ids ``ids``, and set the
  auction's ``current`` to ``v``;
* ``{"op": "churn", "text": t, "doc_id": d, "base": b, "oldest": o}`` —
  mirror text ``t`` as document ``d`` and forget document ``o``;
* ``{"op": "xml_bytes"}`` — the mirrored documents' serialized size.

A reply carrying ``"error"`` means the request failed.
"""

from __future__ import annotations

import json
import os
import sys

if __name__ == "__main__":  # run as a script: make the package importable
    sys.path.insert(0, os.path.dirname(os.path.dirname(__file__)))

from perfbench.common import import_program  # noqa: E402
from perfbench.inputs import read_texts  # noqa: E402


def bidder(fields: dict):
    """A ``<bidder>`` element from the fields the client drew."""
    from repro.xmltree.nodes import ElementNode

    element = ElementNode("bidder")
    element.append_element("date").append_text(fields["date"])
    element.append_element("time").append_text(fields["time"])
    element.append_element("personref").set("person", fields["person"])
    element.append_element("increase").append_text(fields["increase"])
    return element


class Mirror:
    """The documents as the benchmark believes they are, with the global
    element id of every mirror element."""

    def __init__(self, texts: list[str]) -> None:
        self.texts = texts
        #: doc_id -> Document, in load order.
        self.documents: dict = {}
        #: doc_id -> global-id base of the document's original elements.
        self.bases: dict[int, int] = {}
        #: id(element) -> global id, for elements appended later.
        self.appended: dict[int, int] = {}
        #: doc_id -> native evaluator, rebuilt after the document changes.
        self.native: dict = {}
        self.main_id = 0
        self.auctions: list = []

    def add(self, doc_id: int, text: str, base: int) -> None:
        from repro.xmltree.parser import parse_document

        self.documents[doc_id] = parse_document(text)
        self.bases[doc_id] = base

    def global_id(self, doc_id: int, element) -> int:
        appended = self.appended.get(id(element))
        if appended is not None:
            return appended
        return self.bases[doc_id] + element.node_id

    def start(self, bases: list) -> dict:
        for (doc_id, base), text in zip(bases, self.texts):
            self.add(doc_id, text, base)
        self.main_id = bases[0][0]
        root = self.documents[self.main_id].root
        self.auctions = root.find_all("open_auction")
        described = []
        for auction in self.auctions:
            current = self.current(auction)
            described.append([
                self.global_id(self.main_id, auction),
                self.global_id(self.main_id, current),
                current.children[0].value,
            ])
        return {"people": len(root.find_all("person")),
                "items": len(root.find_all("item")),
                "auctions": described}

    @staticmethod
    def current(auction):
        return next(c for c in auction.element_children
                    if c.name == "current")

    def answer(self, xpath: str) -> list:
        from repro.baselines.native import NativeEngine

        answer = []
        for doc_id, document in self.documents.items():
            native = self.native.get(doc_id)
            if native is None:
                native = self.native[doc_id] = NativeEngine(document)
            for node in native.execute(xpath):
                if hasattr(node, "node_id"):
                    answer.append([self.global_id(doc_id, node), None])
                else:
                    answer.append([None, node.value])
        return answer

    def bid(self, auction: int, fields: dict, value: str,
            ids: list[int]) -> None:
        element = bidder(fields)
        self.auctions[auction].append(element)
        for node, global_id in zip(element.iter(), ids):
            self.appended[id(node)] = global_id
        current = self.current(self.auctions[auction])
        current.children.clear()
        current.append_text(value)
        self.native.pop(self.main_id, None)

    def churn(self, text: int, doc_id: int, base: int, oldest: int) -> None:
        del self.documents[oldest], self.bases[oldest]
        self.native.pop(oldest, None)
        self.add(doc_id, self.texts[text], base)

    def xml_bytes(self) -> int:
        from repro.xmltree.serializer import serialize

        return sum(
            len(serialize(document, pretty=False).encode("utf-8"))
            for document in self.documents.values()
        )


def serve(mirror: Mirror, requests, replies) -> None:
    for line in requests:
        request = json.loads(line)
        op = request.pop("op")
        try:
            if op == "start":
                reply = mirror.start(request["bases"])
            elif op == "answer":
                reply = {"answer": mirror.answer(request["xpath"])}
            elif op == "bid":
                mirror.bid(**request)
                reply = {}
            elif op == "churn":
                mirror.churn(**request)
                reply = {}
            elif op == "xml_bytes":
                reply = {"xml_bytes": mirror.xml_bytes()}
            else:
                reply = {"error": f"unknown op {op!r}"}
        except Exception as exc:  # reported to the client, never hidden
            reply = {"error": repr(exc)}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()


def main(argv: list[str]) -> int:
    (workdir,) = argv
    import_program()
    with open(os.path.join(workdir, "inputs.json")) as handle:
        texts = read_texts(json.load(handle))
    serve(Mirror(texts), sys.stdin, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
