"""Span tracing of the suda layers, installed from outside the package.

The package has no tracing of its own, so the traced run wraps every public
module-level function of each layer module and records one span per call:
name, start, end and the index of the enclosing span. Modules bind library
functions by name (`from .regressor import forward`), so a wrapper has to
replace every binding of the original function object, not just the one in
its defining module; `install` does that for the whole `suda` package and
any extra namespaces it is given.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

# The timed layers: the package's modules except `evaluate`, `plots` and `cli`,
# which are not: their costly entry point (`size_sweep`) is `adapt`
# repeated, and `plots`/`cli` do no work a user waits on in these workloads.
LAYERS = ("simulate", "data", "bvh", "support", "regressor", "baselines", "pipeline")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        # each span is [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.process_time   # the clock the jobs are timed with

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def summary(self, first: int = 0, last: int | None = None) -> dict[str, list[float]]:
        """Per span name: [calls, inclusive seconds, self seconds] over
        spans[first:last]. Self time is the span's duration minus the
        durations of its direct children (calls nest, so children of one
        span never overlap)."""
        spans = self.spans[first:last]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _), child in zip(spans, child_time):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child
        return out


def layer_functions():
    """(span name, function) for every public function defined in a layer
    module itself, not re-exported from another one."""
    for layer in LAYERS:
        module = importlib.import_module(f"suda.{layer}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                yield f"{layer}.{name}", obj


def install(tracer: Tracer, extra_namespaces=()) -> list[tuple[object, str, object]]:
    """Replace every binding of each layer function with a traced wrapper.

    Scans every loaded `suda` module plus `extra_namespaces` and rebinds each
    attribute that holds a wrapped function. Returns the patches for
    `uninstall`.
    """
    wrappers = {fn: tracer.wrap(name, fn) for name, fn in layer_functions()}
    namespaces = [m for n, m in sys.modules.items() if n == "suda" or n.startswith("suda.")]
    namespaces += list(extra_namespaces)
    patches = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if inspect.isfunction(value) and value in wrappers:
                patches.append((ns, attr, value))
                setattr(ns, attr, wrappers[value])
    return patches


def uninstall(patches) -> None:
    for ns, attr, original in reversed(patches):
        setattr(ns, attr, original)
