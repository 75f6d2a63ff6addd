#!/usr/bin/env python3
"""Benchmark of the daepencil CLI and API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Every child process gets OPENBLAS_NUM_THREADS=1 and
OMP_NUM_THREADS=1 and runs one at a time.  With ``--trace 0`` the run
measures the end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the
per-layer ones.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the run
record, with the environment and every operation, is written to
``perfbench/out/<workload>[-trace]/result.json``.  ``--workload all`` runs
every workload untraced and prints one table.  See README.md.
"""

from __future__ import annotations

import os

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(PINS)  # before numpy is imported, here and in every child

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
from spans import unit_of  # noqa: E402
from workloads import (  # noqa: E402
    CLI_WORKLOADS,
    WORKLOADS,
    cli_argv,
    load_facts,
    more_time,
    prepare_inputs,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: fresh interpreters timed per run for setup_s, after one untimed one that
#: reads the modules into the page cache; the median is reported
SETUP_REPEATS = 5
#: a CLI operation still running after this is killed and counted as broken
OP_TIMEOUT_S = 100
#: workloads whose design includes typed refusals (PencilError, exit code 1)
REFUSALS_ALLOWED = ("decompose-jordan",)
#: workloads whose repeated operations must write byte-identical reports
DETERMINISTIC = ("analyze-nanorod",)
MB = 2**20
END_TO_END_UNITS = {
    "op_s_p50": "s",
    "goodput_ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "output_mb": "MB/op",
    "solved_share": "fraction",
}


def spawn(argv: list[str], env: dict, stderr, timeout: float) -> tuple[float, int, float, float]:
    """Run a child to completion: (wall seconds, exit code, peak RSS in MB,
    CPU seconds in user and system mode)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=stderr)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def child_env() -> dict:
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = SRC
    return env


def setup_seconds(env: dict) -> float:
    """Median wall time of a fresh interpreter importing daepencil.cli,
    with the page cache warm."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        s, code, _, _ = spawn([sys.executable, "-c", "import daepencil.cli"], env, subprocess.DEVNULL, 60)
        if code != 0:
            raise RuntimeError(f"importing daepencil.cli failed with exit code {code}")
        times.append(s)
    return statistics.median(times[1:])


def run_worker(args: list[str], run_dir: str, env: dict, timeout: float) -> tuple[dict, float]:
    """Run worker.py with ``args``: (its result, its peak RSS in MB)."""
    result = os.path.join(run_dir, "worker.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), *args, result]
    with open(os.path.join(run_dir, "stderr.txt"), "w") as err:
        _, code, rss_mb, _ = spawn(argv, env, err, timeout)
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}; see {run_dir}/stderr.txt")
    with open(result) as fh:
        return json.load(fh), rss_mb


def cli_op(workload: str, seed: int, inputs: str, run_dir: str, env: dict, facts: dict) -> dict:
    """One fresh ``python -m daepencil.cli`` process, then its check."""
    outdir = os.path.join(run_dir, "op")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    argv = [sys.executable, "-m", "daepencil.cli", *cli_argv(workload, inputs, outdir, seed, facts)]
    err_path = os.path.join(run_dir, "stderr.txt")
    with open(err_path, "w") as err:
        s, code, rss, cpu = spawn(argv, env, err, OP_TIMEOUT_S)
    op = {"s": s, "cpu_s": cpu, "rss_mb": rss, "bytes": 0}
    if code == 0:
        op["problems"] = checks.check_cli(workload, outdir, facts)
        op["outcome"] = "wrong" if op["problems"] else "ok"
        op["bytes"] = checks.output_bytes(outdir)
        op["digest"] = checks.output_digest(outdir)
    else:
        with open(err_path) as fh:
            op["problems"] = [f"exit code {code}: {fh.read().strip()[:500]}"]
        op["outcome"] = "refused" if code == 1 else "broken"
    return op


def run_untraced(workload: str, seed: int, seconds: float, inputs: str, run_dir: str, env: dict) -> list[dict]:
    """Units of work until the time is up: one CLI process per operation,
    or on decompose-jordan one worker process per batch of pencils.  Each
    operation records the peak RSS of the process that ran it."""
    facts = load_facts(inputs)
    ops: list[dict] = []
    unit_times: list[float] = []
    start = time.perf_counter()
    while more_time(start, unit_times, seconds):
        t0 = time.perf_counter()
        if workload in CLI_WORKLOADS:
            ops.append(cli_op(workload, seed, inputs, run_dir, env, facts))
        else:
            batch = str(len(unit_times))
            data, rss_mb = run_worker(["batch", workload, str(seed), batch, inputs], run_dir, env, OP_TIMEOUT_S)
            ops += [dict(op, rss_mb=rss_mb) for op in data["ops"]]
        unit_times.append(time.perf_counter() - t0)
    return ops


def save_outcomes(ops: list[dict], outdir: str) -> None:
    """The deterministic part of API results, for report_diff.py."""
    keys = ("cell", "outcome", "error", "d1", "d2", "nilpotency")
    os.makedirs(outdir)
    with open(os.path.join(outdir, "outcomes.json"), "w") as fh:
        json.dump([{k: op[k] for k in keys if k in op} for op in ops], fh, indent=1)


def mark_nondeterministic(ops: list[dict]) -> None:
    """A report whose bytes differ from the run's first report is wrong."""
    digests = [op["digest"] for op in ops if "digest" in op]
    for op in ops:
        if "digest" in op and op["digest"] != digests[0]:
            op["outcome"] = "wrong"
            op["problems"].append("report bytes differ from the run's first report")


def shares(ops: list[dict]) -> dict[str, float]:
    n = len(ops)
    count = {k: sum(op["outcome"] == k for op in ops) for k in ("ok", "wrong", "refused", "broken")}
    return {
        "solved_share": count["ok"] / n,
        "failed_share": (count["refused"] + count["broken"]) / n,
        "wrong_share": count["wrong"] / n,
    }


def end_to_end(ops: list[dict], setup_s: float) -> dict[str, float]:
    """The end-to-end metrics of one run.

    The unit timed by op_s_p50 is one operation, except that on
    decompose-jordan it is one batch: single calls there mix two sizes, and
    their median would jump between the two.
    """
    units: dict[int, float] = {}
    for i, op in enumerate(ops):
        key = op.get("batch", i)
        units[key] = units.get(key, 0.0) + op["s"]
    ok = sum(op["outcome"] == "ok" for op in ops)
    returned = [op["bytes"] for op in ops if op["outcome"] in ("ok", "wrong")]
    return {
        "op_s_p50": statistics.median(units.values()),
        "goodput_ops_per_s": ok / sum(op["s"] for op in ops),
        "peak_rss_mb": max(op["rss_mb"] for op in ops),
        "setup_s": setup_s,
        "output_mb": sum(returned) / max(len(returned), 1) / MB,
        "solved_share": shares(ops)["solved_share"],
    }


def unit_of_metric(name: str) -> str:
    return END_TO_END_UNITS.get(name) or unit_of(name)


def check_spec(spec: dict) -> None:
    """BENCHMARK.json must name exactly the metrics this harness measures."""
    if [m["name"] for m in spec["end_to_end"]] != list(END_TO_END_UNITS):
        raise ValueError("BENCHMARK.json end_to_end names differ from END_TO_END_UNITS")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["unit"] != unit_of_metric(m["name"]):
            raise ValueError(f"BENCHMARK.json gives {m['name']} the unit {m['unit']}")


def _blas_version(module) -> str:
    try:
        return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def environment(seed: int, operations: int) -> dict:
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            rev = None
    h = hashlib.sha256()
    package = os.path.join(SRC, "daepencil")
    for name in sorted(f for f in os.listdir(package) if f.endswith(".py")):
        h.update(name.encode() + b"\0")
        with open(os.path.join(package, name), "rb") as fh:
            h.update(fh.read())
    return {
        "git_revision": rev,
        "src_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": PINS,
        "seed": seed,
        "operations": operations,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One run: set-up timing, inputs, operations, checks and metrics."""
    run_dir = os.path.join(OUT, workload + ("-trace" if trace else ""))
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = os.path.join(run_dir, "inputs")
    os.makedirs(inputs)
    env = child_env()
    setup_s = None if trace else setup_seconds(env)
    prepare_inputs(workload, seed, inputs)

    if trace:
        data, _ = run_worker(["trace", workload, str(seed), repr(float(seconds)), inputs],
                             run_dir, env, seconds + OP_TIMEOUT_S)
        ops = data["ops"]
    else:
        ops = run_untraced(workload, seed, seconds, inputs, run_dir, env)
        if workload not in CLI_WORKLOADS:
            save_outcomes(ops, os.path.join(run_dir, "op"))
    if workload in DETERMINISTIC:
        mark_nondeterministic(ops)
    if trace:
        metrics = {m["name"]: data["per_layer"].get(m["name"], 0.0) for m in spec["per_layer"]}
    else:
        metrics = end_to_end(ops, setup_s)
    broken = sum(op["outcome"] == "broken" for op in ops)
    refused = sum(op["outcome"] == "refused" for op in ops)
    failed = broken + (0 if workload in REFUSALS_ALLOWED else refused)
    wrong = sum(op["outcome"] == "wrong" for op in ops)
    record = {
        "workload": workload,
        "trace": trace,
        "environment": environment(seed, len(ops)),
        "correct": wrong == 0 and failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "shares": shares(ops),
        "metrics": {k: {"value": v, "unit": unit_of_metric(k)} for k, v in metrics.items()},
        "operations": ops,
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_table(record: dict) -> None:
    rows = [(k, m["value"], m["unit"]) for k, m in record["metrics"].items()]
    if not record["trace"]:
        rows += [(k, record["shares"][k], "fraction") for k in ("failed_share", "wrong_share")]
    for name, value, unit in rows:
        print(f"{record['workload']:<18} {name:<46} {value:>14.6g} {unit}")
    problems = [p for op in record["operations"] for p in op.get("problems", []) if op["outcome"] != "ok"]
    for p in sorted(set(problems))[:10]:
        print(f"{record['workload']:<18} not ok: {p[:200]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not os.path.isfile(os.path.join(SRC, "daepencil", "__init__.py")):
        print(f"error: no daepencil sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    sys.path.insert(0, SRC)
    check_spec(spec)
    import daepencil

    if os.path.dirname(os.path.abspath(daepencil.__file__)) != os.path.join(SRC, "daepencil"):
        print(f"error: daepencil imported from {daepencil.__file__}, not {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    records = [run_workload(w, args.seed, args.seconds, bool(args.trace), spec) for w in names]
    print("env " + json.dumps(records[0]["environment"], sort_keys=True))
    for record in records:
        print_table(record)
    if args.workload == "all":
        return 0 if all(r["correct"] for r in records) else 1
    record = records[0]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
