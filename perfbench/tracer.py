"""Span recording around the public functions of every `bogl` layer, exact
FFT counters, and first-call memory peaks.  Nothing here edits the package:
the wrappers are installed by rebinding names in the loaded `bogl` modules.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

LAYERS = ("dynamics", "gauge", "bourgain", "bilinear", "spectral", "lp",
          "snapshots", "reporting", "experiments")

# functions whose tracemalloc peak is recorded, on their first call (the
# dense region tables, the march and the oversampled gauge products)
MEMORY_FUNCTIONS = frozenset({"bilinear.region_pairing", "dynamics.simulate",
                              "gauge.gauge_residual", "gauge.reconstruct_high"})

# transform name -> (real-data kind, number of axes: 1, 2 or None for n-D)
_FFT_FUNCS = {
    "fft": ("c2c", 1), "ifft": ("c2c", 1), "fft2": ("c2c", 2), "ifft2": ("c2c", 2),
    "fftn": ("c2c", None), "ifftn": ("c2c", None),
    "rfft": ("r2c", 1), "ihfft": ("r2c", 1), "rfft2": ("r2c", 2), "rfftn": ("r2c", None),
    "irfft": ("c2r", 1), "hfft": ("c2r", 1), "irfft2": ("c2r", 2), "irfftn": ("c2r", None),
}


class FFTCounter:
    """Counts calls, transformed points and computed flops of the numpy.fft
    and scipy.fft entry points.  Flops are 5 N log2 N per complex transform
    of N points and half that per real one: a computed count, not a measured
    rate."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.calls = 0
        self.points = 0
        self.flops = 0.0

    def install(self, namespaces) -> None:
        for ns in namespaces:
            for name, (kind, naxes) in _FFT_FUNCS.items():
                fn = getattr(ns, name, None)
                if fn is not None:
                    setattr(ns, name, self._wrap(fn, kind, naxes))

    def _wrap(self, fn, kind, naxes):
        names = list(inspect.signature(fn).parameters)
        counter = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            bound = dict(zip(names, args), **kwargs)
            lengths, batch = _transform_lengths(bound, names[0], out, kind, naxes)
            n = math.prod(lengths)
            counter.calls += 1
            counter.points += batch * n
            if n > 1:
                counter.flops += (5.0 if kind == "c2c" else 2.5) * batch * n * math.log2(n)
            return out

        return counted


def _transform_lengths(bound, first, out, kind, naxes):
    """Logical transform lengths and batch count of one call."""
    shape = out.shape
    if naxes == 1:
        axes = [bound.get("axis", -1)]
        sizes = [bound.get("n")]
    else:
        s = bound.get("s")
        axes = bound.get("axes", (-2, -1) if naxes == 2 else None)
        if axes is None:
            axes = range(-len(s), 0) if s is not None else range(len(shape))
        axes = list(axes)
        sizes = list(s) if s is not None else [None] * len(axes)
    lengths = [shape[a] for a in axes]
    if kind == "r2c":  # the output holds n//2 + 1 along the last axis
        inp = bound[first]
        lengths[-1] = sizes[-1] if sizes[-1] is not None else np.shape(inp)[axes[-1]]
    out_points = math.prod(shape[a] for a in axes)
    batch = (out.size // out_points) if out_points else 0
    return lengths, batch


def rebind(wrap, only=None) -> None:
    """Replace each public function of the layers (or just those named in
    ``only``) by ``wrap(name, fn)``, in every bogl namespace that binds it,
    so nested calls through any import path are wrapped too."""
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules[f"bogl.{layer}"]
        for name in mod.__all__:
            obj = getattr(mod, name)
            qualified = f"{layer}.{name}"
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and (only is None or qualified in only)):
                wrappers[id(obj)] = (obj, wrap(qualified, obj))
    for modname, mod in list(sys.modules.items()):
        if modname != "bogl" and not modname.startswith("bogl."):
            continue
        for attr, val in list(vars(mod).items()):
            hit = wrappers.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])


class MemoryPeaks:
    """The tracemalloc peak of the first call of each function in
    MEMORY_FUNCTIONS.  Used in a pass of its own, because tracemalloc slows
    small-array code several times and would distort the span times."""

    def __init__(self):
        self.peak_alloc: dict[str, int] = {}

    def install(self) -> None:
        rebind(self._wrap, only=MEMORY_FUNCTIONS)

    def _wrap(self, name, fn):
        peaks = self.peak_alloc

        @functools.wraps(fn)
        def measured(*args, **kwargs):
            if name in peaks or tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks[name] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()

        return measured

    def table(self) -> dict[str, float]:
        return {name: peak / 2**20 for name, peak in self.peak_alloc.items()}


class LayerTracer:
    """Wraps every public function of the bogl layers and records one span
    (name, start, end, parent) per call."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    def install(self) -> None:
        rebind(self._wrap)

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(tracer.spans)
            span = [name, 0.0, 0.0, parent]
            tracer.spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return traced

    def table(self) -> dict[str, dict]:
        """Per function: calls, total s, self s, first-call s and warm-call
        ms (median of calls after the first)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        durations: dict[str, list] = defaultdict(list)
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            durations[name].append(end - start)
            self_s[name] += end - start - child_time[i]
        out = {}
        for name, ds in durations.items():
            warm = sorted(ds[1:])
            out[name] = {
                "calls": len(ds),
                "s": sum(ds),
                "self_s": self_s[name],
                "first_s": ds[0],
                "warm_ms": 1e3 * warm[len(warm) // 2] if warm else 0.0,
            }
        return out
