"""Outside-in tracing of the daepencil modules.

``Tracer.install`` replaces every public function of every daepencil
module (the names in its ``__all__``) with a wrapper that records a span,
at every import site: ``indices.resolvent_norm`` and ``core.resolvent_norm``
are the same function and get the same wrapper.  Calls into
``numpy.linalg`` and ``scipy.linalg`` are counted and attributed to the
innermost open span.  The integrand handed to ``bromwich_integral`` is
wrapped as its own span, ``solver.integrand``, which also counts the shifts
it is given.  Spans stay in memory; ``layer_metrics`` turns them into the
per-layer figures.  Nothing in ``src/`` is changed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "daepencil"
LAYERS = ("cli", "core", "weierstrass", "indices", "solver", "phdae", "serialize")
DENSE_MODULES = ("numpy.linalg", "scipy.linalg")

# span record fields
NAME, PARENT, OP, START, END, DENSE, NODES = range(7)


class Tracer:
    """Span recorder for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.op = 0  # operation id of new spans: one more per ``with tracer``

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self.op, time.perf_counter(), None, 0, 0])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn):
        """``fn`` wrapped so that every call records a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _bromwich(self, fn):
        traced = self.span("solver.bromwich_integral", fn)

        @functools.wraps(fn)
        def wrapper(integrand, *args, **kwargs):
            def counting(lams):
                self.spans[self._stack[-1]][NODES] += len(lams)  # the solver.integrand span
                return integrand(lams)

            return traced(self.span("solver.integrand", counting), *args, **kwargs)

        return wrapper

    def _counted(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self.spans[self._stack[-1]][DENSE] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        """Patch every public daepencil function and the dense linalg entry points."""
        modules = [
            importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS + ("models",)
        ]
        wrappers = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    if (layer, attr) == ("solver", "bromwich_integral"):
                        wrappers[fn] = self._bromwich(fn)
                    else:
                        wrappers[fn] = self.span(f"{layer}.{attr}", fn)
        sites = [m for name, m in sys.modules.items() if name.split(".")[0] == PACKAGE]
        for mod in sites:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    self._patch(mod, attr, wrappers[val])
        for name in DENSE_MODULES:
            mod = importlib.import_module(name)
            for attr in mod.__all__:
                val = getattr(mod, attr, None)
                if callable(val) and not isinstance(val, type):
                    self._patch(mod, attr, self._counted(val))

    def _patch(self, mod, attr: str, new) -> None:
        self._patches.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self) -> None:
        """Undo every patch, last first."""
        while self._patches:
            mod, attr, old = self._patches.pop()
            setattr(mod, attr, old)

    def __enter__(self) -> "Tracer":
        self.op += 1
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-operation totals over ``ops`` traced operations.

    For every span name: ``<name>.calls``, ``<name>.s`` (inclusive time of
    outermost calls, so a recursive call is not counted twice) and
    ``<name>.self_s`` (time not covered by child spans).  For every layer:
    ``<layer>.self_s`` and ``<layer>.dense_calls``.  Plus ``solver.nodes``
    and ``trace.covered_s``, the summed duration of the root spans.  The
    layer self-times add up to ``trace.covered_s``.
    """
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    totals: dict[str, float] = defaultdict(float)
    for layer in LAYERS:
        totals[f"{layer}.self_s"] = 0.0
        totals[f"{layer}.dense_calls"] = 0.0
    totals["solver.nodes"] = 0.0
    totals["trace.covered_s"] = 0.0
    for idx, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        self_s = dur - child_time[idx]
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_s"] += self_s
        totals[f"{_layer(name)}.self_s"] += self_s
        totals[f"{_layer(name)}.dense_calls"] += s[DENSE]
        totals["solver.nodes"] += s[NODES]
        parent, nested = s[PARENT], False
        while parent >= 0 and not nested:
            nested = spans[parent][NAME] == name
            parent = spans[parent][PARENT]
        if not nested:
            totals[f"{name}.s"] += dur
        if s[PARENT] < 0:
            totals["trace.covered_s"] += dur
    return {k: v / ops for k, v in totals.items()}
