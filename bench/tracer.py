"""Outside-in tracing of the engine's layers.

The benchmark wraps every public function of the per-frame layer modules
in its own process and leaves ``src/`` untouched. A wrapper records one
span per call; spans nest on a stack, and a span's self time is its
duration minus the time covered by the spans it directly encloses.

Wrappers are installed at every binding of a wrapped function inside the
package (``from .x import y`` makes a separate name in each importing
module) and removed afterwards. A call through a default argument value
(``upsample=bilinear_resize``) is not wrapped; no per-frame path makes
one today, and one would lower ``trace.coverage``.
"""
from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

#: The per-frame layers, named after their package modules. ``io``,
#: ``metrics`` and ``cli`` are not on the per-frame path; ``config`` and
#: ``kernels`` only run at set-up, which ``setup_s`` already times.
LAYERS = ("channels", "temporal", "pyramid", "grouping", "normalize", "hwmodel")
PACKAGE = "podvs"


class Tracer:
    """Calls, total seconds and self seconds per span name, plus counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []  # [name, start, seconds covered by child spans]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        span = [name, self.clock(), 0.0]
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = self.clock() - span[1]
            self._stack.pop()
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - span[2]
            if self._stack:
                self._stack[-1][2] += duration

    def wrap(self, name: str, fn, count=None):
        """A stand-in for fn that records a span and, optionally, counters.

        count(args, kwargs, result) returns {counter suffix: amount}.
        """
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                for suffix, amount in count(args, kwargs, result).items():
                    self.counters[f"{name}.{suffix}"] += amount
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced


def correlation_macs(fn):
    """Counter for a correlation: computed MACs, sum of h*w*kh*kw.

    The kernel is the second parameter; h and w are the output's shape,
    which equals the input map's for zero-padded 'same' correlation.
    """
    kernel_param = list(inspect.signature(fn).parameters)[1]

    def count(args, kwargs, result):
        kernel = args[1] if len(args) > 1 else kwargs[kernel_param]
        h, w = result.shape
        kh, kw = kernel.shape
        return {"macs": h * w * kh * kw}

    return count


def peak_count(args, kwargs, result):
    return {"peaks": len(result)}


#: Counters recorded besides calls and time, per traced function.
COUNTERS = {
    "grouping.correlate": correlation_macs,
    "hwmodel.fixed_correlate": correlation_macs,
    "normalize.local_maxima": lambda fn: peak_count,
}


def layer_functions() -> dict:
    """Every public function defined in a layer module -> 'layer.name'."""
    out = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                out[obj] = f"{layer}.{name}"
    return out


class Installed:
    """Context manager: tracer wrappers in place at every binding site."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo = []

    def __enter__(self):
        wrappers = {}
        for fn, name in layer_functions().items():
            make_count = COUNTERS.get(name)
            wrappers[fn] = self.tracer.wrap(name, fn, make_count(fn) if make_count else None)
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        return self

    def __exit__(self, *exc):
        for target, attr, value in reversed(self._undo):
            setattr(target, attr, value)
        self._undo.clear()
        return False
