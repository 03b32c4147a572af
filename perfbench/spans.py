"""Spans around every public dynalg function, kept in memory.

``Tracer.install()`` replaces each public module-level function of the
dynalg layers with a wrapper, wherever the function is looked up: in its
own module, in every dynalg module that imported it by name, and in the
package namespace.  A few methods that carry per-layer metrics are
wrapped on their classes.  While the tracer is active each call records
one span (name, start, end, parent); spans are kept in flat arrays and
written out by ``save``.  A layer's self time is the time of its spans
minus the part their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "conjugacy", "matching", "quotient", "dynsys", "semicrossed", "scalars", "freeprod", "reps")

# Methods wrapped on their classes, with the span name each one records.
METHODS = {
    ("scalars", "RationalComplex"): {
        "__add__": "add", "__radd__": "add", "__sub__": "sub", "__rsub__": "sub",
        "__mul__": "mul", "__rmul__": "mul", "__truediv__": "div", "__rtruediv__": "div",
        "__neg__": "neg", "__pow__": "pow", "conjugate": "conjugate", "abs_sq": "abs_sq",
        "is_zero": "is_zero",
    },
    ("freeprod", "NCSeries"): {"evaluate": "ncseries_evaluate"},
    ("reps", "CKFamily"): {"edge_operator": "edge_operator"},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.active = False
        # Quantities computed from arguments and results, not timed.
        self.fock_dim_total = 0
        self.dense_operator_bytes = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name, account=None):
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if account is not None:
                account(args, result)
            return result

        return wrapper

    def _count_fock(self, _args, family):
        self.fock_dim_total += family.dim

    def _count_dense(self, args, _result):
        self.dense_operator_bytes += args[0].dim ** 2 * 8

    def install(self) -> None:
        package = importlib.import_module("dynalg")
        modules = [importlib.import_module(f"dynalg.{layer}") for layer in LAYERS]
        accounts = {"reps.build_truncated_fock": self._count_fock, "reps.edge_operator": self._count_dense}
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == module.__name__:
                    span = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(obj, span, accounts.get(span))
        for module in modules + [package]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(importlib.import_module(f"dynalg.{layer}"), cls_name)
            for attr, short in methods.items():
                span = f"{layer}.{short}"
                setattr(cls, attr, self.wrap(vars(cls)[attr], span, accounts.get(span)))

    @contextlib.contextmanager
    def op(self, kind: str):
        """Root span around one benchmark operation; calls inside it are traced."""
        idx = len(self.start)
        self.name.append(self._id(f"bench.{kind}"))
        self.parent.append(-1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.stack.append(idx)
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.end[idx] = time.perf_counter_ns()
            self.stack.pop()

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.int64),
            np.frombuffer(self.end, dtype=np.int64),
        )

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms."""
        name, parent, start, end = self.arrays()
        duration = (end - start).astype(np.float64)
        children = np.bincount(parent[parent >= 0], weights=duration[parent >= 0], minlength=len(name))
        own = duration - children
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        inclusive = np.bincount(name, weights=duration, minlength=k)
        self_time = np.bincount(name, weights=own, minlength=k)
        return {
            n: {"calls": int(calls[i]), "ms": inclusive[i] / 1e6, "self_ms": self_time[i] / 1e6}
            for i, n in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        name, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, start_ns=start, end_ns=end)

