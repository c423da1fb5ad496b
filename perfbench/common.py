"""Shared plumbing: locating the program, sample statistics, memory and
environment facts, and the per-run context every workload receives."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import sqlite3
import subprocess
import sys
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
#: The checkout root: the benchmark lives one directory below it.
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


class MissingProgram(RuntimeError):
    """The checkout does not hold the program's sources."""


def import_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and check that
    ``repro`` really comes from there (never from an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise MissingProgram(f"no program sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import repro

    origin = os.path.dirname(os.path.abspath(repro.__file__))
    if os.path.commonpath([origin, SRC]) != SRC:
        raise MissingProgram(f"repro imported from {origin}, not {SRC}")


@dataclass
class Context:
    """What one run of one workload is told."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    workdir: str
    #: Size overrides (the self-test shrinks every workload).
    sizes: dict = field(default_factory=dict)
    #: Self-test hook: corrupt the answer of this many checked reads.
    corrupt: int = 0


@dataclass
class Outcome:
    """What a workload reports back to the runner."""

    attempted: int
    failed: int
    metrics: dict
    notes: dict = field(default_factory=dict)


class Checker:
    """Counts attempted and failed operations; a failure is a raised
    error, a wrong answer or an incomplete result."""

    def __init__(self, corrupt: int = 0):
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []
        self._corrupt = corrupt

    def corrupt(self, got: list) -> list:
        """Self-test hook: damage one answer on purpose (``corrupt``
        times), so the self-test can see the failure being counted."""
        if self._corrupt > 0:
            self._corrupt -= 1
            return got[1:] if got else [("corrupted", None)]
        return got

    def record(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.first_failures) < 5:
                self.first_failures.append(what)


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a sample list."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[min(len(ordered), int(rank)) - 1]


def median(samples: list[float]) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def tail(samples: list[float], q: float) -> tuple[float, dict]:
    """The ``q`` percentile and how many samples it stands on: a tail
    percentile means little with fewer than ten samples beyond it."""
    value = percentile(samples, q)
    beyond = sum(1 for sample in samples if sample > value)
    return value, {"samples": len(samples), "beyond": beyond}


def answer_digest(answer: list) -> list:
    """``[rows, sha256]`` of an answer (a list of ``[id, value]``
    pairs): the expected answers are kept as digests, so the oracle's
    data does not sit in the measured process."""
    encoded = json.dumps(answer, separators=(",", ":")).encode("utf-8")
    return [len(answer), hashlib.sha256(encoded).hexdigest()]


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def own_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of another live process, less
    the pages it still shares with others (the pages a forked worker
    inherited and never wrote to, which the parent's figure already
    counts, and shared libraries)."""
    kib = {}
    for path, keys in ((f"/proc/{pid}/status", ("VmHWM",)),
                       (f"/proc/{pid}/smaps_rollup",
                        ("Shared_Clean", "Shared_Dirty"))):
        with open(path) as status:
            for line in status:
                key = line.split(":")[0]
                if key in keys:
                    kib[key] = int(line.split()[1])
    return (kib["VmHWM"] - kib["Shared_Clean"] - kib["Shared_Dirty"]) / 1024


def proc_write_bytes() -> int:
    """Bytes this process has caused to be written to storage."""
    try:
        with open("/proc/self/io") as io:
            for line in io:
                if line.startswith("write_bytes:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def store_bytes(path: str) -> int:
    """On-disk bytes of a SQLite store file plus its WAL/SHM side files,
    or of every file under a sharded store directory."""
    if os.path.isdir(path):
        return sum(
            os.path.getsize(os.path.join(base, name))
            for base, _, names in os.walk(path)
            for name in names
        )
    return sum(
        os.path.getsize(path + suffix)
        for suffix in ("", "-wal", "-shm")
        if os.path.exists(path + suffix)
    )


def environment() -> dict:
    """Facts every result carries: CPUs, Python, SQLite, the commit."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} "
        f"{platform.python_version()}",
        "sqlite": sqlite3.sqlite_version,
        "commit": commit,
        "src_digest": source_digest(),
    }


def source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for base, dirs, names in os.walk(SRC):
        dirs.sort()
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def settle() -> None:
    """Collect set-up garbage, then exempt what survives (the engine,
    input texts, answer digests) from later collections, so collector
    pauses in the measured phase scale with the work measured rather
    than with the benchmark's own long-lived data."""
    gc.collect()
    gc.freeze()
