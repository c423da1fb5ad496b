"""Benchmark of the XPath-on-SQLite engine: see run.py."""
