"""File formats: pencil JSON, report JSON and trajectory CSV.

Complex matrices are stored as nested lists with each entry a two-element
array [re, im].  A pencil file is an object with keys "n", "E", "A" and
optionally "Q"; when Q is present the file describes the triple (E, A, Q)
of d/dt Ex = AQx.  All writes are atomic (temp file + rename) and
deterministic: same data, same bytes.
"""

from __future__ import annotations

import csv
import json
import os
import tempfile

import numpy as np

from .core import MatrixPencil
from .phdae import PhPencil, PhReport
from .solver import Trajectory
from .weierstrass import WeierstrassDecomposition

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "pencil_to_dict",
    "pencil_from_dict",
    "save_pencil",
    "load_pencil",
    "decomposition_to_dict",
    "ph_report_to_dict",
    "save_json",
    "save_trajectory_csv",
    "load_trajectory_csv",
    "atomic_write_text",
]


def matrix_to_json(M: np.ndarray) -> list:
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def matrix_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix entries must be two-element [re, im] arrays")
    return arr[..., 0] + 1j * arr[..., 1]


def pencil_to_dict(obj: MatrixPencil | PhPencil, provenance: dict | None = None) -> dict:
    out = {"n": obj.n, "E": matrix_to_json(obj.E), "A": matrix_to_json(obj.A)}
    if isinstance(obj, PhPencil):
        out["Q"] = matrix_to_json(obj.Q)
    if provenance is not None:
        out["provenance"] = provenance
    return out


def pencil_from_dict(data: dict) -> MatrixPencil | PhPencil:
    if not isinstance(data, dict):
        raise ValueError("pencil file must contain a JSON object")
    for key in ("n", "E", "A"):
        if key not in data:
            raise ValueError(f"pencil object is missing key '{key}'")
    n = int(data["n"])
    E = matrix_from_json(data["E"])
    A = matrix_from_json(data["A"])
    if E.shape != (n, n) or A.shape != (n, n):
        raise ValueError(f"matrix shapes {E.shape}, {A.shape} do not match n = {n}")
    if "Q" in data:
        Q = matrix_from_json(data["Q"])
        if Q.shape != (n, n):
            raise ValueError(f"Q shape {Q.shape} does not match n = {n}")
        return PhPencil(E, A, Q)
    return MatrixPencil(E, A)


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            # mkstemp creates the file with mode 0600; give it the mode open() would
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return matrix_to_json(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    return obj


def save_json(path: str, data: dict) -> None:
    atomic_write_text(path, json.dumps(_jsonable(data), indent=2, sort_keys=True) + "\n")


def save_pencil(path: str, obj: MatrixPencil | PhPencil, provenance: dict | None = None) -> None:
    save_json(path, pencil_to_dict(obj, provenance))


def load_pencil(path: str) -> MatrixPencil | PhPencil:
    with open(path) as fh:
        return pencil_from_dict(json.load(fh))


def decomposition_to_dict(decomp: WeierstrassDecomposition) -> dict:
    return {
        "n": decomp.n,
        "d1": decomp.d1,
        "d2": decomp.d2,
        "nilpotency_index": decomp.nilpotency_index,
        "A1": matrix_to_json(decomp.A1),
        "N": matrix_to_json(decomp.N),
        "T_L": matrix_to_json(decomp.T_L),
        "T_R": matrix_to_json(decomp.T_R),
        "P": matrix_to_json(decomp.P),
        "R": matrix_to_json(decomp.R),
        "reconstruction_residual": decomp.reconstruction_residual,
    }


def ph_report_to_dict(report: PhReport) -> dict:
    out = report.as_dict()
    out["T"] = None if report.T is None else matrix_to_json(report.T)
    out["S"] = None if report.S is None else matrix_to_json(report.S)
    return out


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def save_trajectory_csv(path: str, traj: Trajectory) -> None:
    n = traj.states.shape[1]
    header = ["t"]
    for i in range(1, n + 1):
        header += [f"re(x_{i})", f"im(x_{i})"]
    header.append("H")
    lines = [", ".join(header)]
    H = traj.hamiltonian
    for j, t in enumerate(traj.times):
        row = [_fmt(t)]
        for v in traj.states[j]:
            row += [_fmt(v.real), _fmt(v.imag)]
        row.append(_fmt(H[j]) if H is not None else "")
        lines.append(", ".join(row))
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_trajectory_csv(path: str) -> Trajectory:
    with open(path) as fh:
        rows = [[c.strip() for c in row] for row in csv.reader(fh) if row]
    header, body = rows[0], rows[1:]
    n = (len(header) - 2) // 2
    times = np.array([float(r[0]) for r in body])
    states = np.empty((len(body), n), dtype=complex)
    for j, r in enumerate(body):
        vals = np.array([float(c) for c in r[1 : 1 + 2 * n]])
        states[j] = vals[0::2] + 1j * vals[1::2]
    hs = [r[-1] for r in body]
    H = np.array([float(h) for h in hs]) if all(h != "" for h in hs) else None
    return Trajectory(times=times, states=states, hamiltonian=H)
