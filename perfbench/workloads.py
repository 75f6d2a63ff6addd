"""Seeded inputs for the benchmark workloads.

Everything here runs before timing starts.  The nanorod pencils come from
``daepencil.models`` (the model is part of the input, not of the measured
work) and are written with this module's own JSON writer, so a change to
``daepencil.serialize`` cannot change what the program is given.  The
Jordan batch and the simulate initial state are built with plain numpy
from facts the benchmark fixes itself: the Weierstrass structure, the
condition of the equivalence transforms and the admissible subspace.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import scipy.linalg

WORKLOADS = ("analyze-nanorod", "simulate-nanorod", "decompose-jordan")
CLI_WORKLOADS = ("analyze-nanorod", "simulate-nanorod")

#: interior grid points of the nanorod model per workload; the model has
#: n = 5 * n_grid states, d1 = 3 * n_grid finite and d2 = 2 * n_grid infinite
#: eigenvalues, and nilpotency index 2
NANOROD_GRID = {"analyze-nanorod": 30, "simulate-nanorod": 4}
NANOROD_NILPOTENCY = 2

SIMULATE_T_FINAL = 1.0
SIMULATE_STEPS = 100
#: the CLI's default quadrature tolerance, passed explicitly
SIMULATE_QUAD_TOL = 1e-8
#: power of the pseudo-resolvent applied to the random start vector; any
#: power >= the nilpotency index lands in the finite deflating subspace
X0_POWER = 4
X0_SHIFT = 3.0

JORDAN_D1 = [80, 160]
JORDAN_K = [2, 3, 4, 5, 6]
JORDAN_COND = [10.0, 1e3]
JORDAN_REPEATS = 2


def nanorod(n_grid: int):
    """The nanorod pencil triple (E, A, Q) at ``n_grid`` interior points."""
    from daepencil.models import NanorodParams, build_nanorod

    return build_nanorod(NanorodParams(n_grid=n_grid))


def nanorod_facts(n_grid: int, E: np.ndarray, A: np.ndarray) -> dict:
    """What the checks expect of the nanorod dynamics pencil (E, A Q)."""
    return {
        "d1": 3 * n_grid,
        "d2": 2 * n_grid,
        "nilpotency": NANOROD_NILPOTENCY,
        "scale": float(np.linalg.norm(E, 2) + np.linalg.norm(A, 2)),
    }


def _matrix_json(M) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(M, dtype=complex)]


def write_pencil(path: str, E, A, Q=None) -> None:
    """Write a pencil file in the documented format: [re, im] entries."""
    data = {"n": int(E.shape[0]), "E": _matrix_json(E), "A": _matrix_json(A)}
    if Q is not None:
        data["Q"] = _matrix_json(Q)
    with open(path, "w") as fh:
        json.dump(data, fh)


def admissible_x0(E: np.ndarray, A: np.ndarray, seed: int) -> np.ndarray:
    """A random state in the finite deflating subspace of (E, A).

    Applies ((X0_SHIFT E - A)^{-1} E)^X0_POWER to a seeded complex vector;
    this power annihilates the nilpotent part.  The result is scaled to
    max-abs 1, so the quadrature tolerance is an absolute bound on x(0).
    """
    rng = np.random.default_rng([seed, 1])
    z = rng.standard_normal(E.shape[0]) + 1j * rng.standard_normal(E.shape[0])
    M = np.linalg.solve(X0_SHIFT * E - A, E)
    for _ in range(X0_POWER):
        z = M @ z
        z = z / np.linalg.norm(z)
    return z / np.max(np.abs(z))


def transform(rng: np.random.Generator, n: int, cond: float) -> np.ndarray:
    """Random n x n matrix with 2-norm 1 and condition number exactly ``cond``."""
    U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    V = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    sigma = np.exp(rng.uniform(0.0, np.log(cond), n))
    sigma[0], sigma[-1] = 1.0, cond
    return (U * (sigma / cond)) @ V.conj().T


def jordan_cells(grid: dict) -> list[tuple[int, int, float]]:
    """The (d1, k, cond) of every pencil in one batch, in batch order."""
    return [
        (d1, k, c)
        for d1 in grid["d1"]
        for k in grid["k"]
        for c in grid["cond"]
        for _ in range(grid["repeats"])
    ]


def jordan_factors(rng: np.random.Generator, d1: int, k: int, cond: float):
    """(E0, A0, G, H): the block pair (blkdiag(I, J_k), blkdiag(A1, I)) with
    one nilpotent Jordan block J_k, and transforms with condition ``cond``.

    A1 is a complex Gaussian matrix scaled so its spectrum fills the unit
    disk, the same scale as the identity and Jordan blocks.
    """
    A1 = (rng.standard_normal((d1, d1)) + 1j * rng.standard_normal((d1, d1))) / np.sqrt(2.0 * d1)
    E0 = scipy.linalg.block_diag(np.eye(d1), np.eye(k, k=1))
    A0 = scipy.linalg.block_diag(A1, np.eye(k))
    return E0, A0, transform(rng, d1 + k, cond), transform(rng, d1 + k, cond)


def jordan_batch(seed: int, batch: int, grid: dict):
    """Batch number ``batch`` of the decompose-jordan workload for ``seed``,
    one pencil at a time: dicts with d1, k, cond, E and A."""
    rng = np.random.default_rng([seed, batch])
    for d1, k, c in jordan_cells(grid):
        E0, A0, G, H = jordan_factors(rng, d1, k, c)
        yield {"d1": d1, "k": k, "cond": c, "E": G @ E0 @ H, "A": G @ A0 @ H}


def prepare_inputs(workload: str, seed: int, inputs: str) -> None:
    """Write a workload's inputs into the directory ``inputs``.

    ``facts.json`` holds the workload's parameters and what the checks
    expect; a CLI workload also gets its pencil file (and x0 file).  The
    children that run the operations read only this directory.
    """
    if workload == "decompose-jordan":
        facts = {"grid": {"d1": JORDAN_D1, "k": JORDAN_K, "cond": JORDAN_COND, "repeats": JORDAN_REPEATS}}
    else:
        n_grid = NANOROD_GRID[workload]
        ph = nanorod(n_grid)
        write_pencil(os.path.join(inputs, "nanorod.json"), ph.E, ph.A, ph.Q)
        A = ph.A @ ph.Q
        facts = nanorod_facts(n_grid, ph.E, A)
    if workload == "simulate-nanorod":
        x0 = admissible_x0(ph.E, A, seed)
        facts["x0"] = [[float(v.real), float(v.imag)] for v in x0]
        facts.update(quad_tol=SIMULATE_QUAD_TOL, t_final=SIMULATE_T_FINAL, num_steps=SIMULATE_STEPS)
        with open(os.path.join(inputs, "x0.json"), "w") as fh:
            json.dump(facts["x0"], fh)
    with open(os.path.join(inputs, "facts.json"), "w") as fh:
        json.dump(facts, fh)


def load_facts(inputs: str) -> dict:
    with open(os.path.join(inputs, "facts.json")) as fh:
        facts = json.load(fh)
    if "x0" in facts:
        facts["x0"] = np.array([complex(re, im) for re, im in facts["x0"]])
    return facts


def cli_argv(workload: str, inputs: str, outdir: str, seed: int, facts: dict) -> list[str]:
    """Arguments of one ``daepencil`` CLI operation, after the program name."""
    pencil = os.path.join(inputs, "nanorod.json")
    common = ["--output-dir", outdir, "--seed", str(seed)]
    if workload == "analyze-nanorod":
        return ["analyze", pencil, *common]
    return [
        "simulate", pencil, *common,
        "--x0-file", os.path.join(inputs, "x0.json"),
        "--quad-tol", repr(facts["quad_tol"]),
        "--t-final", repr(facts["t_final"]),
        "--num-steps", str(facts["num_steps"]),
    ]


def more_time(start: float, unit_times: list[float], seconds: float) -> bool:
    """Whether to start another unit of work in a run of ``seconds``.

    The first unit always runs; a later one starts when, at the median unit
    time so far, it would overrun the budget by less than half a unit, so a
    run ends on average at ``seconds``.
    """
    if not unit_times:
        return True
    typical = sorted(unit_times)[len(unit_times) // 2]
    return time.perf_counter() - start + 0.5 * typical < seconds
