"""Benchmark entry point.

    python3 perfbench/run.py --workload auction-live --seed 1 --seconds 20 \\
        --trace 0

runs one workload against the program in the checkout's ``src/`` and
prints, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``, as ``BENCHMARK.json`` names
them).
The line before it carries the environment: CPUs, Python and SQLite
versions, the commit and a digest of the sources.  A traced run also
writes its spans to ``.perfbench_out/`` at the checkout root.

Inputs are generated from ``--seed`` only; the error ratio is
``failed / attempted`` and any failure makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.common import (  # noqa: E402
    HERE,
    ROOT,
    Context,
    MissingProgram,
    environment,
    import_program,
)
from perfbench.inputs import DEFAULT_SIZES  # noqa: E402
from perfbench.metrics import spec  # noqa: E402


def prepare_inputs(ctx: Context) -> dict:
    """Generate seeded inputs and answer digests in a child process (so
    neither shows in this process's memory) and read what it wrote."""
    subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), ctx.workload,
         str(ctx.seed), ctx.workdir, json.dumps(ctx.sizes)],
        check=True, timeout=600,
    )
    with open(os.path.join(ctx.workdir, "inputs.json")) as handle:
        return json.load(handle)


def run_workload(ctx: Context):
    """Run one workload; returns its :class:`~perfbench.common.Outcome`."""
    from perfbench.trace import Tracer

    module = importlib.import_module(
        "perfbench." + ctx.workload.replace("-", "_")
    )
    tracer = Tracer() if ctx.trace else None
    outcome = module.run(ctx, prepare_inputs(ctx), tracer)
    if tracer is not None:
        tracer.dump(
            os.path.join(
                ROOT, ".perfbench_out",
                f"trace-{ctx.workload}-seed{ctx.seed}-{os.getpid()}.jsonl",
            ),
            {"workload": ctx.workload, "seed": ctx.seed},
        )
    return outcome


def result_line(outcome, trace: bool) -> dict:
    table = spec()["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in table if m["name"] not in outcome.metrics]
    if missing:
        raise RuntimeError(f"workload did not report {missing}")
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            m["name"]: {"value": float(outcome.metrics[m["name"]]),
                        "unit": m["unit"]}
            for m in table
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec()["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workdir = os.path.join(
        ROOT, ".perfbench_run", f"{args.workload}-{os.getpid()}"
    )
    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        workdir=workdir,
        sizes=dict(DEFAULT_SIZES[args.workload]),
    )
    os.makedirs(workdir, exist_ok=True)
    started = time.perf_counter()
    try:
        outcome = run_workload(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = environment()
    meta.update(workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace,
                wall_s=round(time.perf_counter() - started, 3),
                **outcome.notes)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result_line(outcome, ctx.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
