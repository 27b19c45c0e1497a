"""Span tracing of prenet from outside the package.

The tracer wraps every public module-level function of the prenet
modules and binds the wrapper under every name by which a prenet module
refers to the function. The package imports with ``from .x import
name``, which copies the reference, so ``prenet.model.matmul``,
``prenet.engine.objective_and_gradients`` and both ``prenet.harness.train``
and ``prenet.cli.train`` are separate bindings that must all be replaced.
Nothing inside the package changes; ``uninstall`` restores every binding.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of
the enclosing span (-1 for a root) and ``op`` the operation it belongs to.
Spans stay in memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("ndcore", "pairgen", "model", "engine", "dataset", "metrics", "harness", "cli")

# Products whose shared dimension is at least this are the backward
# products of training (k = batch size, 512 by default); the forward
# and scoring products have k = input or hidden width (10 or 20).
K_LARGE = 64

# One intercepted ndcore.matmul call in this many is checked entry by
# entry against scalar accumulation in ascending k.
ORACLE_EVERY = 50

# Functions whose second argument is a batch of rows; the tracer counts
# the rows: stack rows through the shared feature map, and scored pairs.
ROW_COUNTED = ("model.features", "model.forward_pairs")


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - union_length(children[i], start, end)
        for i, (name, start, end, parent, op) in enumerate(spans)
    ]


def layer_table(spans, ops) -> dict[str, dict[str, float]]:
    """Calls, self time and total time per span name, over spans of ``ops``."""
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
    )
    for span, own in zip(spans, self_times(spans)):
        name, start, end, parent, op = span
        if op in ops:
            row = table[name]
            row["calls"] += 1
            row["self_s"] += own
            row["total_s"] += end - start
    return dict(table)


def _oracle_entry(a, b, i: int, j: int) -> float:
    acc = 0.0
    for x, y in zip(a[i].tolist(), b[:, j].tolist()):
        acc += x * y
    return acc


class Tracer:
    """Records spans around every public prenet function while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = None
        # counts[op][name]: work counted at layer boundaries, per operation
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._bindings: list[tuple[object, str, object]] = []
        self._matmul_calls = 0

    # -- spans --------------------------------------------------------------

    def _open(self, name: str) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        record = self._open(name)
        try:
            yield
        finally:
            self._close(record)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name == "ndcore.matmul":
            return self._wrap_matmul(fn)
        count_rows = name in ROW_COUNTED

        def traced(*args, **kwargs):
            if count_rows:
                shape = getattr(args[1], "shape", ())
                rows = shape[0] if len(shape) == 2 else 1
                self.counts[self.op][name + ".rows"] += rows
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    def _wrap_matmul(self, fn):
        def traced(a, b):
            (m, k), (_, n) = a.shape, b.shape
            kind = "k_large" if k >= K_LARGE else "k_small"
            prefix = f"ndcore.matmul.{kind}"
            counts = self.counts[self.op]
            counts[prefix + ".flops"] += 2 * m * k * n
            counts[prefix + ".bytes"] += 8 * (m * k + k * n + m * n)
            span = self._open(prefix)
            try:
                out = fn(a, b)
            finally:
                self._close(span)
            self._matmul_calls += 1
            if self._matmul_calls % ORACLE_EVERY == 1:
                with self.span("bench.matmul_oracle"):
                    self.check_matmul(a, b, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def check_matmul(self, a, b, out) -> None:
        """Recompute a few entries of ``out`` by scalar accumulation in
        ascending k and count those that differ in any bit."""
        m, n = out.shape
        counts = self.counts[self.op]
        for i, j in {(0, 0), (m - 1, n - 1), (m // 2, n // 2)}:
            counts["ndcore.matmul.oracle_checks"] += 1
            if _oracle_entry(a, b, i, j).hex() != float(out[i, j]).hex():
                counts["ndcore.matmul.oracle_mismatches"] += 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Rebind every public prenet function, in every module naming it."""
        modules = {name: importlib.import_module(f"prenet.{name}") for name in MODULES}
        package = importlib.import_module("prenet")
        wrappers = {}
        for short, module in modules.items():
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and not attr.startswith("_")
                    and fn.__module__ == module.__name__
                ):
                    wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for module in (package, *modules.values()):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._bindings.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()
