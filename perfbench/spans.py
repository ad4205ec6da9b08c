"""Spans around the calls into each qentropy module, recorded from outside.

:func:`install` wraps every public function of the library modules and
rebinds each wrapper under every name a module binds the original to:
``verify`` and ``cli`` import ``entropy_change`` and friends by name, so
patching only ``majorization.entropy_change`` would miss their calls.
Calls between functions of one module go through the module globals and
are caught too.  Spans stay in memory; :meth:`Tracer.dump` returns them
for the launcher to write out when the command ends.

A span is ``[layer, function, parent, wall_start, wall_end, cpu_start,
cpu_end, extra]``; ``parent`` is the index of the enclosing span or -1,
``cpu_*`` is process CPU time (all threads, so BLAS workers count) and
``extra`` holds the health values read off the result.

The row counters read ``TransitionRow`` results, so they depend on that
API; ``run.layer_metrics`` refuses to report when quantum functions ran
but no row was read, rather than report the counters as zero.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time

#: The library modules traced as layers; ``cli`` is what is left over.
LAYERS = ("classical", "quadrature", "quantum", "schrodinger", "majorization",
          "verify")


def _extra(result):
    """Counters read off a return value, keyed by the result's type."""
    kind = type(result).__name__
    if kind == "TransitionRow":
        return {"entries": int(result.probabilities.size),
                "mass": float(result.captured_mass)}
    if kind == "PropagatorResult":
        return {"steps": int(result.steps),
                "defect": float(result.unitarity_defect)}
    if kind == "CheckResult":
        return {"passed": bool(result.passed)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._caches: dict[str, tuple] = {}

    def wrap(self, layer: str, name: str, func):
        spans, stack = self.spans, self._stack
        clock, cpu = time.perf_counter, time.process_time

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            c0 = cpu()
            t0 = clock()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                c1 = cpu()
                stack.pop()
                spans[index] = [layer, name, parent, t0, t1, c0, c1,
                                _extra(result)]

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"qentropy.{name}") for name in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for name, value in vars(module).items():
                if (name.startswith("_") or isinstance(value, type)
                        or not callable(value)
                        or getattr(value, "__module__", None) != module.__name__):
                    continue
                wrappers[id(value)] = self.wrap(layer, name, value)
                if hasattr(value, "cache_info"):
                    self._caches[f"{layer}.{name}"] = (value, value.cache_info())
        for module_name, module in list(sys.modules.items()):
            if module_name != "qentropy" and not module_name.startswith("qentropy."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def dump(self) -> dict:
        caches = {}
        for key, (func, before) in self._caches.items():
            after = func.cache_info()
            caches[key] = {"hits": after.hits - before.hits,
                           "misses": after.misses - before.misses}
        return {"spans": self.spans, "caches": caches}


def per_call_overhead(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call: the median over ``repeats``
    batches of an empty function called wrapped and unwrapped."""
    def empty():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("calibration", "empty", empty)
    clock = time.perf_counter
    samples = []
    for _ in range(repeats):
        t0 = clock()
        for _ in range(calls):
            empty()
        t1 = clock()
        for _ in range(calls):
            wrapped()
        t2 = clock()
        tracer.spans.clear()
        samples.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(samples)
