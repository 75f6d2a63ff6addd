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
    arr = np.asarray(data)  # ragged nesting raises ValueError
    if arr.dtype.kind not in "iuf" or arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError("matrix entries must be two-element [re, im] arrays of numbers")
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
    n = data["n"]
    if type(n) is not int or n < 0:
        raise ValueError(f"pencil key 'n' is {json.dumps(n)}, not a non-negative integer")
    mats = []
    for key in ("E", "A", "Q")[: 2 + ("Q" in data)]:
        try:
            mats.append(matrix_from_json(data[key]))
        except ValueError as exc:
            raise ValueError(f"pencil key '{key}': {exc}") from None
        if mats[-1].shape != (n, n):
            raise ValueError(f"{key} shape {mats[-1].shape} does not match n = {n}")
    return PhPencil(*mats) if len(mats) == 3 else MatrixPencil(*mats)


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


def _array_json(M: np.ndarray, indent: str) -> str:
    """json.dumps(matrix_to_json(M), indent=2) on a line indented by ``indent``, without the lists."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    if M.ndim > 2 or not M.size:
        return json.dumps(matrix_to_json(M), indent=2).replace("\n", "\n" + indent)
    i1, i2, i3 = (indent + "  " * d for d in (1, 2, 3))
    text = list(map(float.__repr__, np.ravel(M).view(float).tolist()))
    if not np.isfinite(M).all():
        text = [{"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(t, t) for t in text]
    pairs, cols = list(map(f",\n{i3}".join, zip(text[::2], text[1::2]))), M.shape[1]  # "re,\n im"
    rows = [f"\n{i2}],\n{i2}[\n{i3}".join(pairs[r * cols : (r + 1) * cols]) for r in range(M.shape[0])]
    between_rows = f"\n{i2}]\n{i1}],\n{i1}[\n{i2}[\n{i3}"
    return f"[\n{i1}[\n{i2}[\n{i3}" + between_rows.join(rows) + f"\n{i2}]\n{i1}]\n{indent}]"


def save_json(path: str, data: dict) -> None:
    """json.dumps(data, indent=2, sort_keys=True) with numpy scalars as numbers, complex numbers as
    [re, im] and each ndarray as matrix_to_json(array).  The arrays stand in the skeleton as a token
    string, lengthened until no string of ``data`` equals it, and are rendered by ``_array_json``."""
    arrays, token = [], "\x00"

    def default(obj):
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            return token
        if isinstance(obj, complex):
            return [obj.real, obj.imag]
        for kind, cast in ((np.bool_, bool), (np.integer, int), (np.floating, float)):
            if isinstance(obj, kind):
                return cast(obj)
        return json.JSONEncoder().default(obj)  # raises TypeError

    skeleton = json.dumps(data, indent=2, sort_keys=True, default=default)
    while skeleton.count(json.dumps(token)) != len(arrays):  # a string of ``data`` equals the token
        arrays, token = [], token + "\x00"
        skeleton = json.dumps(data, indent=2, sort_keys=True, default=default)
    parts = skeleton.split(json.dumps(token))
    pieces = parts[:1]
    for array, before, after in zip(arrays, parts, parts[1:]):
        line = before[before.rfind("\n") + 1 :]  # the array's line up to it, indent first
        pieces += [_array_json(array, " " * (len(line) - len(line.lstrip(" ")))), after]
    atomic_write_text(path, "".join(pieces) + "\n")


def save_pencil(path: str, obj: MatrixPencil | PhPencil, provenance: dict | None = None) -> None:
    save_json(path, pencil_to_dict(obj, provenance))


def load_pencil(path: str) -> MatrixPencil | PhPencil:
    with open(path) as fh:
        return pencil_from_dict(json.load(fh))


def decomposition_to_dict(decomp: WeierstrassDecomposition) -> dict:
    keys = "n d1 d2 nilpotency_index A1 N T_L T_R P R reconstruction_residual"
    return {key: getattr(decomp, key) for key in keys.split()}


def ph_report_to_dict(report: PhReport) -> dict:
    return {**report.as_dict(), "T": report.T, "S": report.S}


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
