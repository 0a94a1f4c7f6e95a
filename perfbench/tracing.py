"""Spans around the public functions at each layer boundary of ``maxminlp``.

A layer is one module of the package. Every public function a layer defines,
and every public method and non-trivial constructor of its classes, gets a
wrapper that records a span. Callers import names directly (``from .lp import
solve_maxmin``), so each function's wrapper is put in the namespace of every
module that holds it, its own module included; methods are wrapped on their
class. A span's self time is its duration minus the durations of the spans
nested directly in it, and a layer's self time is the sum over its spans.
"""

import dataclasses
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from functools import wraps

LAYERS = ("model", "hypergraph", "lp", "algorithms", "generators", "lowerbound", "evaluation")
MODULES = ("maxminlp", *(f"maxminlp.{name}" for name in LAYERS), "maxminlp.cli")


@dataclass
class SpanStats:
    calls: int = 0
    raised: int = 0
    self_s: float = 0.0
    max_s: float = 0.0


def content_key(instance):
    """A sub-instance by content: agents, rows and coefficients, not identity."""
    return (
        tuple(instance.agents),
        tuple((i, tuple(row.items())) for i, row in instance.resources.items()),
        tuple((k, tuple(row.items())) for k, row in instance.beneficiaries.items()),
    )


class Tracer:
    """Collects spans while installed; :meth:`install` returns the undo."""

    def __init__(self):
        self.spans = defaultdict(SpanStats)
        self.layer_self_s = defaultdict(float)
        self.distinct_lp = set()
        self._stack = []

    def _wrap(self, layer, name, func):
        stats = self.spans[name]
        stack = self._stack
        layer_self_s = self.layer_self_s
        distinct = self.distinct_lp if name == "lp.solve_maxmin" else None

        @wraps(func)
        def traced(*args, **kwargs):
            if distinct is not None:
                distinct.add(content_key(args[0]))
            nested = [0.0]
            stack.append(nested)
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            finally:
                duration = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                own = duration - nested[0]
                stats.calls += 1
                stats.self_s += own
                stats.max_s = max(stats.max_s, duration)
                layer_self_s[layer] += own

        return traced

    def install(self):
        """Wrap every layer boundary; returns a function that restores the originals."""
        modules = [importlib.import_module(name) for name in MODULES]
        undo = []
        for layer in LAYERS:
            module = importlib.import_module(f"maxminlp.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = self._wrap(layer, f"{layer}.{attr}", obj)
                    for holder in modules:
                        for key, value in list(vars(holder).items()):
                            if value is obj:
                                undo.append((holder, key, obj))
                                setattr(holder, key, wrapper)
                elif inspect.isclass(obj):
                    for method, func in _traced_methods(obj):
                        label = f"{layer}.{attr}"
                        if not method.startswith("__"):
                            label += f".{method}"
                        undo.append((obj, method, func))
                        setattr(obj, method, self._wrap(layer, label, func))

        def restore():
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)

        return restore


def _traced_methods(cls):
    """Public methods a class defines, plus its constructor when it does work.

    A dataclass's generated ``__init__`` only stores fields, so it is left
    alone; its ``__post_init__``, if any, stands for the construction.
    """
    for method, func in list(vars(cls).items()):
        if not inspect.isfunction(func):
            continue
        if method == "__post_init__" or (
            method == "__init__" and not dataclasses.is_dataclass(cls)
        ) or not method.startswith("_"):
            yield method, func
