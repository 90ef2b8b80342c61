"""Spans around fzwave's module boundaries, installed from outside the package.

``installed(tracer)`` replaces each name in BOUNDARIES with a wrapper that
records a span (name, start, end, parent, operation id, thread) in memory and
adds the layer's work counts, then puts every original object back. A span
opened on a thread with no open span of its own (a row worker of
FZWAVE_THREADS > 1) takes the innermost open span of the installing thread as
its parent; self time is still taken per thread, so such a child is not
subtracted from its parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Self time of these span-name prefixes is reported as these metrics.
LAYER_TIMES = {
    "kernel": "kernel.s",
    "quad": "quad.s",
    "rootfinder": "rootfinder.batch_s",
    "solver": "solver.s",
    "cli": "cli.s",
}
COUNTS = ("kernel.points", "quad.calls", "quad.integrals", "quad.evals",
          "rootfinder.roots", "rootfinder.fallbacks", "solver.lattice_points", "cli.bytes")


class MissingBoundary(RuntimeError):
    """A module attribute the tracer must wrap does not exist."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int


class Tracer:
    """In-memory spans and work counts of one traced operation."""

    def __init__(self, op: int = 0):
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)
        self.op = op
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home: list = []

    def _stack(self) -> list:
        if not hasattr(self._local, "open"):
            self._local.open = []
        return self._local.open

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1] if self._home else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), float("nan"), parent,
                                   self.op, threading.get_ident()))
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def raise_max(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    def parent_name(self, index: int) -> str | None:
        parent = self.spans[index].parent
        return None if parent is None else self.spans[parent].name


# ---------------------------------------------------------------------------
# Boundary hooks: each gets the tracer, the open span, the bound arguments and
# a thunk that calls the original, and returns the original's result.
# ---------------------------------------------------------------------------


def _plain(tr, index, args, call):
    return call()


def _roots(tr, index, args, call):
    tr.add("rootfinder.roots", np.size(args.arguments["theta"]))
    return call()


def _fallback(tr, index, args, call):
    if tr.parent_name(index) == "rootfinder._zero_pair_batch":
        tr.add("rootfinder.fallbacks", 1)
    return call()


def _kernel_entry(tr, index, args, call):
    n_x = np.size(args.arguments["x_grid"])
    tr.add("kernel.points", n_x * np.size(args.arguments["t_list"]))
    return call()


def _solver_kernel(tr, index, args, call):
    tr.add("solver.lattice_points", np.size(args.arguments["x_grid"]))
    return _kernel_entry(tr, index, args, call)


def _quad(tr, index, args, call):
    f = args.arguments["f"]
    evals = 0

    def counted(nodes):
        nonlocal evals
        values = f(nodes)
        evals += np.size(values)
        return values

    args.arguments["f"] = counted
    integral, err = call()
    m = np.size(integral)
    tol = np.maximum(args.arguments["abs_tol"], args.arguments["rel_tol"] * np.abs(integral))
    tr.add("quad.calls", 1)
    tr.add("quad.integrals", m)
    tr.add("quad.evals", evals)
    tr.add("quad.base_evals", 15 * (len(args.arguments["edges"]) - 1) * m)
    tr.raise_max("quad.err_ratio_max", float(np.max(np.asarray(err) / tol)))
    return integral, err


# (module, attribute, span name, hook). The span name's prefix is the layer.
BOUNDARIES = (
    ("fzwave.kernel", "_zero_pair_batch", "rootfinder._zero_pair_batch", _roots),
    ("fzwave.kernel", "adaptive_gk", "quad.adaptive_gk", _quad),
    ("fzwave.rootfinder", "find_zero_pair", "rootfinder.find_zero_pair", _fallback),
    ("fzwave.solver", "kernel_eps", "kernel.kernel_eps", _solver_kernel),
    ("fzwave.solver", "kernel_eps_time_integrated", "kernel.kernel_eps_time_integrated",
     _solver_kernel),
    ("fzwave", "kernel_eps", "kernel.kernel_eps", _kernel_entry),
    ("fzwave", "kernel_eps_time_integrated", "kernel.kernel_eps_time_integrated",
     _kernel_entry),
    ("fzwave", "solve_field", "solver.solve_field", _plain),
    ("fzwave.cli", "run_command", "cli.run_command", _plain),
    ("fzwave.cli", "kernel_eps", "kernel.kernel_eps", _kernel_entry),
    ("fzwave.cli", "solve_field", "solver.solve_field", _plain),
)


def _wrap(tr: Tracer, original, name: str, hook):
    signature = inspect.signature(original)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        with tr.span(name) as index:
            return hook(tr, index, bound, lambda: original(*bound.args, **bound.kwargs))

    return wrapper


def originals() -> list:
    """(module, attribute, object) for every boundary; raises if one is missing."""
    found = []
    for module_name, attr, _, _ in BOUNDARIES:
        module = importlib.import_module(module_name)
        if not hasattr(module, attr):
            raise MissingBoundary(f"{module_name}.{attr} is gone; the trace would read 0")
        found.append((module, attr, getattr(module, attr)))
    return found


@contextmanager
def installed(tr: Tracer):
    """Wrap every boundary for the duration of the block, then restore it."""
    found = originals()
    tr._home = tr._stack()
    try:
        for (module, attr, original), (_, _, name, hook) in zip(found, BOUNDARIES):
            setattr(module, attr, _wrap(tr, original, name, hook))
        yield tr
    finally:
        for module, attr, original in found:
            setattr(module, attr, original)
        tr._home = []


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part covered by its same-thread children."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None and spans[s.parent].thread == s.thread:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children[i], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer self times and work counts of the traced operation."""
    metrics = {m: 0.0 for m in LAYER_TIMES.values()}
    for s, own in zip(tr.spans, self_times(tr.spans)):
        metrics[LAYER_TIMES[s.name.split(".")[0]]] += own
    counts = tr.counts
    metrics.update({name: int(counts[name]) for name in COUNTS})
    metrics["quad.refine_ratio"] = (counts["quad.evals"] / counts["quad.base_evals"]
                                    if counts["quad.base_evals"] else 0.0)
    metrics["quad.err_ratio_max"] = counts["quad.err_ratio_max"]
    return metrics
