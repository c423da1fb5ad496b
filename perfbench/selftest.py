"""Self-test of the benchmark itself, at tiny sizes.

    python3 perfbench/selftest.py

For every workload ``BENCHMARK.json`` names it checks that an untraced
run emits every end-to-end metric and a traced run every per-layer
metric, each with its unit and in that file's order; that a
deliberately corrupted answer is counted as a failure (and makes the
run incorrect); and that the benchmark refuses to run, with a non-zero
exit, where the program's sources are missing.  Exits 0 when every
check passes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import HERE, ROOT, Context, import_program  # noqa: E402
from perfbench.metrics import spec  # noqa: E402
from perfbench.run import result_line, run_workload  # noqa: E402

TINY = {
    "auction-live": {"scale": 1.0, "churn_scale": 0.2, "churn_docs": 4,
                     "setup_repeats": 1},
    "sharded-async": {"scale": 0.3, "docs": 4, "shards": 2,
                      "setup_repeats": 1},
}


def tiny_run(workload: str, trace: bool, corrupt: int = 0) -> dict:
    workdir = os.path.join(ROOT, ".perfbench_run", f"selftest-{workload}")
    os.makedirs(workdir, exist_ok=True)
    try:
        outcome = run_workload(Context(
            workload=workload, seed=1, seconds=1.0, trace=trace,
            workdir=workdir, sizes=dict(TINY[workload]), corrupt=corrupt,
        ))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result_line(outcome, trace)


def check(condition: bool, message: str, failures: list[str]) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def check_workload(workload: str, failures: list[str]) -> None:
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        table = spec()[key]
        line = tiny_run(workload, trace)
        label = f"{workload} trace={int(trace)}"
        check(line["correct"] and line["failed"] == 0,
              f"{label}: all {line['attempted']} answers correct", failures)
        metrics = line["metrics"]
        check(
            [(m["name"], m["unit"]) for m in table]
            == [(name, m["unit"]) for name, m in metrics.items()],
            f"{label}: every metric emitted with its unit", failures,
        )
        if not trace:
            check(all(metrics[n]["value"] > 0 for n in metrics),
                  f"{label}: no end-to-end metric is 0", failures)
    line = tiny_run(workload, False, corrupt=1)
    check(line["failed"] == 1 and not line["correct"],
          f"{workload}: a corrupted answer counts as 1 failure of "
          f"{line['attempted']}", failures)


def check_refuses_without_program(failures: list[str]) -> None:
    bare = os.path.join(ROOT, ".perfbench_run", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "auction-live", "--seed", "1", "--seconds", "1", "--trace",
             "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and not done.stdout.strip(),
          f"without src/ the run exits {done.returncode} and prints no "
          f"result", failures)


def main() -> int:
    import_program()
    failures: list[str] = []
    check_refuses_without_program(failures)
    for workload in (w["name"] for w in spec()["workloads"]):
        check_workload(workload, failures)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
