"""File formats: pencil JSON, report JSON with its .npz sidecar, and trajectory CSV.

A pencil file stores complex matrices as nested lists with each entry a
two-element array [re, im].  It is an object with keys "n", "E", "A" and
optionally "Q"; when Q is present the file describes the triple (E, A, Q)
of d/dt Ex = AQx.  A report section is a result object: the dict of its
dataclass fields, with its arrays in a sidecar ``<stem>.npz`` (see
``save_json``).  All writes are atomic (temp file + rename) and
deterministic: same data, same bytes.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
import tempfile
import zipfile
from urllib.parse import quote

import numpy as np

from .core import MatrixPencil
from .phdae import PhPencil
from .solver import Trajectory

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "pencil_to_dict",
    "pencil_from_dict",
    "save_pencil",
    "load_pencil",
    "result_fields",
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


def atomic_write_text(path: str, text: str | bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(text, bytes) else "w") as fh:
            # mkstemp creates the file with mode 0600; give it the mode open() would
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def result_fields(result) -> dict:
    """The report section of a result object: its dataclass fields by name."""
    return {field.name: getattr(result, field.name) for field in dataclasses.fields(result)}


def _jsonable(obj, path: tuple, sidecar: str, arrays: dict):
    """``obj`` with dataclass instances as ``result_fields``, numpy scalars as numbers, complex numbers
    as [re, im], and each ndarray moved into ``arrays`` with a reference to it left in its place.  The
    member name is the path of keys and indices to the array, each percent-encoded ('.' too) and
    joined by '.', so no two paths share one."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = result_fields(obj)
    if isinstance(obj, np.ndarray):
        member = ".".join(quote(str(key), safe="").replace(".", "%2E") for key in path) + ".npy"
        arrays[member] = obj
        return {"sidecar": sidecar, "member": member, "shape": list(obj.shape), "dtype": str(obj.dtype),
                "frobenius_norm": float(np.linalg.norm(obj))}
    if isinstance(obj, dict):
        return {key: _jsonable(value, (*path, key), sidecar, arrays) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(value, (*path, i), sidecar, arrays) for i, value in enumerate(obj)]
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    for kind, cast in ((np.bool_, bool), (np.integer, int), (np.floating, float)):
        if isinstance(obj, kind):
            return cast(obj)
    return obj  # json.dumps raises TypeError on any other type


def save_json(path: str, data: dict) -> None:
    """json.dumps(data, indent=2, sort_keys=True) of ``_jsonable(data)``: each ndarray stands there
    as a reference (sidecar, member, shape, dtype, frobenius_norm) to a member of ``<stem>.npz``,
    which holds the arrays bit for bit in the .npy format.  Each member is DEFLATE-compressed at
    level 1 (level 6 saves 2 % more at twice the time), in sorted order with a fixed timestamp, so
    the same data gives the same bytes for one zlib build; the sidecar is written before the JSON,
    and a stale one is removed when the data hold no array."""
    arrays, sidecar = {}, os.path.splitext(path)[0] + ".npz"
    text = json.dumps(_jsonable(data, (), os.path.basename(sidecar), arrays), indent=2, sort_keys=True)
    if arrays:
        buffer = io.BytesIO()
        with zipfile.ZipFile(buffer, "w") as archive:
            for member in sorted(arrays):
                npy = io.BytesIO()
                np.lib.format.write_array(npy, arrays[member], allow_pickle=False)
                entry = zipfile.ZipInfo(member, (1980, 1, 1, 0, 0, 0))
                archive.writestr(entry, npy.getvalue(), zipfile.ZIP_DEFLATED, 1)
        atomic_write_text(sidecar, buffer.getvalue())
    elif os.path.exists(sidecar):
        os.remove(sidecar)
    atomic_write_text(path, text + "\n")


def save_pencil(path: str, obj: MatrixPencil | PhPencil, provenance: dict | None = None) -> None:
    save_json(path, pencil_to_dict(obj, provenance))


def load_pencil(path: str) -> MatrixPencil | PhPencil:
    with open(path) as fh:
        return pencil_from_dict(json.load(fh))


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
