#!/usr/bin/env python3
"""Compare the reports of two runs, field by field.

    python3 perfbench/report_diff.py OLD NEW

OLD and NEW are report files (JSON, or a trajectory CSV) or directories
holding them, e.g. ``perfbench/out/<workload>/op`` saved from two commits
run with the same seed.  The tool fails (exit code 1) and lists every
difference when

- a float field differs by more than 1e-10 relative.  A list of numbers, or
  a matrix of [re, im] entries, or a CSV column, is one field: its entries
  are compared relative to the largest magnitude in either version;
- an integer, boolean, string (verdicts, error kinds), null, key set or
  length differs at all.

It exits 0 when everything matches.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys

RTOL = 1e-10


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _flatten(v, out: list) -> str | None:
    """Shape signature of a nested list of numbers, or None if it is not one."""
    if _is_number(v):
        out.append(v)
        return "n"
    if isinstance(v, list):
        parts = [_flatten(x, out) for x in v]
        if any(p is None for p in parts):
            return None
        return "[" + ",".join(parts) + "]"
    return None


def _compare_floats(a: list, b: list, path: str, diffs: list[str]) -> None:
    finite = [abs(x) for x in a + b if math.isfinite(x)]
    scale = max(finite, default=0.0)
    worst, where = 0.0, None
    for i, (x, y) in enumerate(zip(a, b)):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        err = abs(x - y) if math.isfinite(x) and math.isfinite(y) else math.inf
        if err > RTOL * scale and err >= worst:
            worst, where = err, i
    if where is not None:
        diffs.append(
            f"{path}[{where}]: {a[where]!r} vs {b[where]!r} "
            f"(largest difference {worst:.3e}, field scale {scale:.3e})"
        )


def compare(a, b, path: str, diffs: list[str]) -> None:
    """Append to ``diffs`` every difference between two JSON values."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                diffs.append(f"{path}.{key}: only in {'new' if key in b else 'old'}")
            else:
                compare(a[key], b[key], f"{path}.{key}", diffs)
        return
    flat_a: list = []
    flat_b: list = []
    shape_a, shape_b = _flatten(a, flat_a), _flatten(b, flat_b)
    if shape_a is not None and shape_b is not None:
        if shape_a != shape_b:
            diffs.append(f"{path}: shapes differ")
        elif any(isinstance(x, float) for x in flat_a + flat_b):
            _compare_floats([float(x) for x in flat_a], [float(x) for x in flat_b], path, diffs)
        elif flat_a != flat_b:
            diffs.append(f"{path}: integers {a!r} vs {b!r}")
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: length {len(a)} vs {len(b)}")
            return
        for i, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{path}[{i}]", diffs)
        return
    if type(a) is not type(b) or a != b:
        diffs.append(f"{path}: {a!r} vs {b!r}")


def _load(path: str):
    if path.endswith(".csv"):
        with open(path) as fh:
            rows = [[c.strip() for c in row] for row in csv.reader(fh) if row]
        header, body = rows[0], rows[1:]
        columns = {}
        for j, name in enumerate(header):
            cells = [r[j] for r in body]
            columns[name] = [float(c) for c in cells] if all(cells) else cells
        return columns
    with open(path) as fh:
        return json.load(fh)


def diff_paths(old: str, new: str) -> list[str]:
    """Every difference between two report files or two report directories."""
    diffs: list[str] = []
    if os.path.isdir(old) and os.path.isdir(new):
        names_old = sorted(f for f in os.listdir(old) if f.endswith((".json", ".csv")))
        names_new = sorted(f for f in os.listdir(new) if f.endswith((".json", ".csv")))
        if names_old != names_new:
            diffs.append(f"report files differ: {names_old} vs {names_new}")
        for name in sorted(set(names_old) & set(names_new)):
            compare(_load(os.path.join(old, name)), _load(os.path.join(new, name)), name, diffs)
    else:
        compare(_load(old), _load(new), os.path.basename(new), diffs)
    return diffs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    diffs = diff_paths(*argv)
    for d in diffs:
        print(d)
    print(f"{len(diffs)} difference(s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
