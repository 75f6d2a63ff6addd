"""In-process operations: batches of decompose-jordan, and traced runs.

Started by run.py in a child process with the thread pins set and
``src/`` on PYTHONPATH:

    python3 perfbench/worker.py batch decompose-jordan SEED BATCH INPUTS RESULT
    python3 perfbench/worker.py trace WORKLOAD SEED SECONDS INPUTS RESULT

``batch`` calls ``daepencil.decompose`` on each pencil of one seeded batch.
``trace`` runs units of work, each once untraced and once traced, until
SECONDS are up; a unit is one ``daepencil.cli.main(argv)`` call or one
batch.  RESULT receives the operation records and, when traced, the
per-layer metrics; the spans go to ``spans.json`` beside it.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import time

import checks
import daepencil
import daepencil.cli
from daepencil.errors import PencilError
from spans import Tracer, layer_metrics
from workloads import cli_argv, jordan_batch, load_facts, more_time


def jordan_unit(seed: int, batch: int, grid: dict, tracer: Tracer | None = None) -> list[dict]:
    """One batch: each pencil is built untimed, then decomposed and checked."""
    ops = []
    for p in jordan_batch(seed, batch, grid):
        pencil = daepencil.MatrixPencil(p["E"], p["A"])
        op = {"batch": batch, "cell": [p["d1"], p["k"], p["cond"]], "bytes": 0, "problems": []}
        error = None
        with tracer or contextlib.nullcontext():
            start = time.perf_counter()
            try:
                decomp = daepencil.decompose(pencil)
            except Exception as exc:  # noqa: BLE001 - every error is an outcome to record
                # keep no reference to the exception: its traceback would
                # hold the failed call's arrays until the next garbage collection
                error = (type(exc).__name__, str(exc), isinstance(exc, PencilError))
            op["s"] = time.perf_counter() - start
        if error is not None:
            op["error"] = error[0]
            op["outcome"] = "refused" if error[2] else "broken"
            op["problems"].append(f"{error[0]}: {error[1]}")
        else:
            op["problems"] = checks.check_jordan(decomp, p["E"], p["A"], p["d1"], p["k"])
            op["outcome"] = "wrong" if op["problems"] else "ok"
            op["bytes"] = checks.result_bytes(decomp)
            op.update(d1=decomp.d1, d2=decomp.d2, nilpotency=decomp.nilpotency_index)
        ops.append(op)
    return ops


def cli_op(workload: str, inputs: str, outdir: str, seed: int, facts: dict,
           tracer: Tracer | None = None) -> dict:
    """One CLI operation in this process, then its check."""
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    argv = cli_argv(workload, inputs, outdir, seed, facts)
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        code = daepencil.cli.main(argv)
        elapsed = time.perf_counter() - start
    if code != 0:
        return {"s": elapsed, "outcome": "refused" if code == 1 else "broken", "bytes": 0,
                "problems": [f"exit code {code}"]}
    problems = checks.check_cli(workload, outdir, facts)
    return {"s": elapsed, "outcome": "wrong" if problems else "ok",
            "bytes": checks.output_bytes(outdir), "problems": problems,
            "digest": checks.output_digest(outdir)}


def run_traced(workload: str, seed: int, seconds: float, inputs: str, spans_path: str) -> tuple[list, dict]:
    """Units of work run twice, untraced and traced, until the time is up.

    A unit is one CLI call, or one batch of decompose-jordan.  Per-layer
    metrics are per traced operation; ``trace.overhead_s`` is the traced
    minus the untraced time per operation.  The order alternates, untraced
    first in the first unit, because the first operation in a process also
    pays for its warm-up; with an odd number of units that cost lowers the
    reported overhead.
    """
    facts = load_facts(inputs)
    outdir = os.path.join(os.path.dirname(spans_path), "op")

    def unit(i: int, tracer: Tracer | None) -> list[dict]:
        if workload == "decompose-jordan":
            return jordan_unit(seed, i, facts["grid"], tracer)
        return [cli_op(workload, inputs, outdir, seed, facts, tracer)]

    tracer = Tracer()
    plain_s = traced_s = 0.0
    traced_ops: list[dict] = []
    unit_times: list[float] = []
    start = time.perf_counter()
    while more_time(start, unit_times, seconds):
        t0 = time.perf_counter()
        i = len(unit_times)
        for t in (None, tracer) if i % 2 == 0 else (tracer, None):
            ops = unit(i, t)
            if t is None:
                plain_s += sum(op["s"] for op in ops)
            else:
                traced_ops += ops
                traced_s += sum(op["s"] for op in ops)
        unit_times.append(time.perf_counter() - t0)
    count = len(traced_ops)
    metrics = layer_metrics(tracer.spans, count)
    written = sum(op["bytes"] for op in traced_ops) if workload != "decompose-jordan" else 0
    metrics["serialize.bytes_written"] = written / count
    metrics["trace.overhead_s"] = (traced_s - plain_s) / count
    metrics["trace.unattributed_s"] = traced_s / count - metrics["trace.covered_s"]
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "parent", "op", "start", "end", "dense_calls", "nodes"],
                   "spans": tracer.spans}, fh)
    return traced_ops, metrics


def main(argv: list[str]) -> int:
    mode, workload, seed, arg, inputs, result = argv
    if mode == "batch":
        out = {"ops": jordan_unit(int(seed), int(arg), load_facts(inputs)["grid"])}
    else:
        spans_path = os.path.join(os.path.dirname(result), "spans.json")
        ops, metrics = run_traced(workload, int(seed), float(arg), inputs, spans_path)
        out = {"ops": ops, "per_layer": metrics}
    with open(result, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
