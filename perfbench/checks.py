"""Correctness checks for every operation, from facts the benchmark knows.

Each check returns a list of problems; an empty list means the operation's
output is correct.  The expected values come from how the inputs were
built (the Weierstrass structure of the Jordan batch and of the nanorod
model, the admissible initial state), not from an earlier run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

#: the documented relative tolerance of the Weierstrass form
DECOMPOSE_RTOL = 1e-8
#: index relations of an index-2 DAE whose finite part generates a
#: contraction semigroup: resolvent index 2, radiality order 1
NANOROD_RELATIONS = {
    "chain_holds": True,
    "nilp_le_rad_plus_1": True,
    "p_nilp": 2,
    "p_rad": 1,
    "p_res": 2,
    "res_eq_nilp": True,
}
#: x(0) from the trajectory must equal x0, and the contour solution the
#: Weierstrass one, within this many quadrature tolerances
QUAD_TOL_FACTOR = 10.0
#: the mild-solution bound of acceptance criterion 7
MILD_BOUND = 1e-6
#: a Hamiltonian step may rise by rounding only, relative to H(0)
H_RISE_RTOL = 1e-10


def output_digest(outdir: str) -> str:
    """sha256 over the names and bytes of every file an operation wrote."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def output_bytes(outdir: str) -> int:
    return sum(os.path.getsize(os.path.join(outdir, n)) for n in os.listdir(outdir))


def _load(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _check_split(dec: dict, facts: dict) -> list[str]:
    problems = []
    for key, want in (("d1", facts["d1"]), ("d2", facts["d2"]), ("nilpotency_index", facts["nilpotency"])):
        if dec.get(key) != want:
            problems.append(f"{key} = {dec.get(key)}, expected {want}")
    res = dec.get("reconstruction_residual")
    if res is None or not res <= DECOMPOSE_RTOL * facts["scale"]:
        problems.append(f"reconstruction residual {res} above {DECOMPOSE_RTOL:g} relative")
    return problems


def check_analyze(outdir: str, facts: dict) -> list[str]:
    rep = _load(outdir, "analyze.json")
    problems = [] if rep.get("regular") is True else ["pencil not reported regular"]
    if rep.get("ph", {}).get("structure_ok") is not True:
        problems.append("ph structure_ok is not true")
    problems += _check_split(rep.get("decomposition", {}), facts)
    indices = rep.get("indices", {})
    if indices.get("nilpotency") != facts["nilpotency"]:
        problems.append(f"indices nilpotency = {indices.get('nilpotency')}")
    if indices.get("relations") != NANOROD_RELATIONS:
        problems.append(f"index relations {indices.get('relations')} != {NANOROD_RELATIONS}")
    return problems


def read_trajectory(path: str) -> tuple[np.ndarray, np.ndarray]:
    """(states, H) from a trajectory CSV: t, re(x_1), im(x_1), ..., H."""
    with open(path) as fh:
        rows = [[float(c) for c in row] for row in list(csv.reader(fh))[1:] if row]
    data = np.array(rows)
    return data[:, 1:-1:2] + 1j * data[:, 2:-1:2], data[:, -1]


def check_simulate(outdir: str, x0: np.ndarray, quad_tol: float) -> list[str]:
    rep = _load(outdir, "simulate.json")
    bound = QUAD_TOL_FACTOR * quad_tol
    problems = [] if rep.get("admissible") is True else ["x0 reported inadmissible"]
    agreement, mild = rep.get("solver_agreement"), rep.get("mild_residual")
    if agreement is None or not agreement <= bound:
        problems.append(f"solver agreement {agreement} above {bound:g}")
    if mild is None or not mild <= MILD_BOUND:
        problems.append(f"mild residual {mild} above {MILD_BOUND:g}")
    states, H = read_trajectory(os.path.join(outdir, "trajectory.csv"))
    err = float(np.max(np.abs(states[0] - x0)))
    if not err <= bound:
        problems.append(f"|x(0) - x0| = {err:.3e} above {bound:g}")
    rise = float(np.max(np.diff(H)))
    if not rise <= H_RISE_RTOL * H[0]:
        problems.append(f"Hamiltonian rises by {rise:.3e}")
    return problems


def check_cli(workload: str, outdir: str, facts: dict) -> list[str]:
    """The check of one CLI operation's output directory."""
    if workload == "analyze-nanorod":
        return check_analyze(outdir, facts)
    return check_simulate(outdir, facts["x0"], facts["quad_tol"])


def check_jordan(decomp, E: np.ndarray, A: np.ndarray, d1: int, k: int) -> list[str]:
    """T_L E T_R = blkdiag(I, N) and T_L A T_R = blkdiag(A1, I) with the
    generator's d1 and nilpotency k, relative to ||T_L|| ||T_R|| (||E|| + ||A||)."""
    problems = []
    if (decomp.d1, decomp.nilpotency_index) != (d1, k):
        problems.append(f"(d1, k) = ({decomp.d1}, {decomp.nilpotency_index}), expected ({d1}, {k})")
        return problems
    n = E.shape[0]
    Eb = np.zeros((n, n), dtype=complex)
    Eb[:d1, :d1] = np.eye(d1)
    Eb[d1:, d1:] = decomp.N
    Ab = np.eye(n, dtype=complex)
    Ab[:d1, :d1] = decomp.A1
    TL, TR = decomp.T_L, decomp.T_R
    scale = np.linalg.norm(TL, 2) * np.linalg.norm(TR, 2) * (np.linalg.norm(E, 2) + np.linalg.norm(A, 2))
    for label, M, block in (("E", E, Eb), ("A", A, Ab)):
        res = np.linalg.norm(TL @ M @ TR - block, 2)
        if not res <= DECOMPOSE_RTOL * scale:
            problems.append(f"T_L {label} T_R residual {res:.3e} above {DECOMPOSE_RTOL:g} relative")
    return problems


def result_bytes(decomp) -> int:
    """Bytes of the arrays a decomposition hands back to the caller."""
    return sum(getattr(decomp, f).nbytes for f in ("T_L", "T_R", "A1", "N", "P", "R"))
