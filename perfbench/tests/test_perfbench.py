"""Self-tests of the benchmark: inputs, checks, metric names and smoke runs.

    python3 -m pytest perfbench/tests

The smoke runs shrink every workload to a tiny size and a short run, so
the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import report_diff  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

TINY = {
    "NANOROD_GRID": {"analyze-nanorod": 4, "simulate-nanorod": 4},
    "SIMULATE_QUAD_TOL": 1e-6,
    "JORDAN_D1": [6],
    "JORDAN_K": [2, 3],
    "JORDAN_COND": [10.0],
    "JORDAN_REPEATS": 1,
}


@pytest.mark.parametrize("d1,k,cond", [(80, 2, 10.0), (80, 6, 1e3), (160, 4, 1e3)])
def test_jordan_generator_structure(d1, k, cond):
    E0, A0, G, H = workloads.jordan_factors(np.random.default_rng(7), d1, k, cond)
    np.testing.assert_array_equal(E0[:d1, :d1], np.eye(d1))
    np.testing.assert_array_equal(A0[d1:, d1:], np.eye(k))
    N = E0[d1:, d1:]
    for j in range(k + 1):
        rank = np.linalg.matrix_rank(np.linalg.matrix_power(N, j)) if j else k
        assert rank == k - j
    for T in (G, H):
        sigma = np.linalg.svd(T, compute_uv=False)
        assert sigma[0] == pytest.approx(1.0, rel=1e-10)
        assert sigma[0] / sigma[-1] == pytest.approx(cond, rel=1e-8)
    E = G @ E0 @ H
    assert np.linalg.matrix_rank(E) == d1 + k - 1


def test_jordan_batch_cells():
    grid = {"d1": workloads.JORDAN_D1, "k": workloads.JORDAN_K,
            "cond": workloads.JORDAN_COND, "repeats": workloads.JORDAN_REPEATS}
    cells = workloads.jordan_cells(grid)
    assert len(cells) == 40
    assert {c: cells.count(c) for c in cells} == {c: 2 for c in set(cells)}
    first = next(workloads.jordan_batch(3, 0, grid))
    again = next(workloads.jordan_batch(3, 0, grid))
    np.testing.assert_array_equal(first["E"], again["E"])
    assert first["E"].shape == (first["d1"] + first["k"],) * 2


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulate_x0_is_admissible(seed):
    from daepencil import admissible_initial_state

    ph = workloads.nanorod(workloads.NANOROD_GRID["simulate-nanorod"])
    E, A = ph.E, ph.A @ ph.Q
    x0 = workloads.admissible_x0(E, A, seed)
    # the finite deflating subspace, of dimension d1 = 3 * n_grid, is the
    # range of ((s E - A)^{-1} E)^p for any shift s and any p >= the
    # nilpotency index 2; use another shift and power than the generator
    d1 = 3 * workloads.NANOROD_GRID["simulate-nanorod"]
    M = np.linalg.matrix_power(np.linalg.solve(2.0 * E - A, E), 3)
    U, sigma, _ = np.linalg.svd(M)
    assert sigma[d1] <= 1e-12 * sigma[d1 - 1]
    U = U[:, :d1]
    assert np.linalg.norm(x0 - U @ (U.conj().T @ x0)) <= 1e-10
    assert np.max(np.abs(x0)) == pytest.approx(1.0)
    member, _, _ = admissible_initial_state(ph.pencil, 3.0, 2, x0)
    assert member


def test_metric_names_and_units_match_benchmark_json():
    run.check_spec(SPEC)
    ops = [{"s": 1.0, "outcome": "ok", "bytes": 2**20, "rss_mb": 100.0} for _ in range(2)]
    values = run.end_to_end(ops, 0.5)
    assert list(values) == [m["name"] for m in SPEC["end_to_end"]]
    assert values["output_mb"] == 1.0 and values["solved_share"] == 1.0
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in SPEC["end_to_end"])
    for layer in LAYERS:
        assert f"{layer}.self_s" in names


def test_report_diff(tmp_path):
    old = {"d1": 90, "verdict": "supported", "ok": True, "x": 1.0, "M": [[[1.0, 0.0], [1e-17, 0.0]]]}
    tiny = json.loads(json.dumps(old))
    tiny["M"][0][1][0] = 2e-17  # below 1e-10 of the matrix scale
    assert report_diff.diff_paths(*_write(tmp_path, old, tiny)) == []
    for key, value in (("d1", 91), ("verdict", "falsified"), ("ok", False), ("x", 1.0 + 1e-9)):
        changed = dict(old, **{key: value})
        assert len(report_diff.diff_paths(*_write(tmp_path, old, changed))) == 1


def _write(tmp_path, a, b):
    paths = []
    for name, data in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        paths.append(str(path))
    return paths


@pytest.fixture(scope="module")
def smoke_records(tmp_path_factory):
    """Untraced and traced runs of every workload at a tiny size."""
    out = tmp_path_factory.mktemp("out")
    saved = {name: getattr(workloads, name) for name in TINY}
    saved_out = run.OUT
    try:
        for name, value in TINY.items():
            setattr(workloads, name, value)
        run.OUT = str(out)
        return {
            (w, trace): run.run_workload(w, 1, 0.1, trace, SPEC)
            for w in workloads.WORKLOADS
            for trace in (False, True)
        }
    finally:
        for name, value in saved.items():
            setattr(workloads, name, value)
        run.OUT = saved_out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(smoke_records, workload, trace):
    record = smoke_records[(workload, trace)]
    assert record["correct"], record["operations"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    assert record["shares"]["wrong_share"] == 0.0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(record["metrics"]) == [m["name"] for m in expected]
    assert record["environment"]["thread_pins"] == run.PINS
    if not trace:
        assert all(record["metrics"][m]["value"] > 0 for m in record["metrics"])


def test_trace_covers_every_per_layer_metric(smoke_records):
    for m in SPEC["per_layer"]:
        if m["name"] in ("trace.overhead_s", "trace.unattributed_s"):
            continue
        seen = [smoke_records[(w, True)]["metrics"][m["name"]]["value"] for w in workloads.WORKLOADS]
        assert max(seen) > 0, m["name"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_self_times_add_up(smoke_records, workload):
    metrics = {k: v["value"] for k, v in smoke_records[(workload, True)]["metrics"].items()}
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert layers == pytest.approx(metrics["trace.covered_s"], rel=1e-9)
    assert abs(metrics["trace.unattributed_s"]) < 0.01 * metrics["trace.covered_s"] + 1e-3


def test_refuses_to_run_without_sources(tmp_path):
    import shutil
    import subprocess

    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decompose-jordan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
