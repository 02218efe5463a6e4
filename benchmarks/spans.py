"""In-memory spans and exact work counters for the traced benchmark run.

Spans wrap the public functions of each fluidspan layer at the module
attribute where the caller looks them up, so nothing in the package
changes.  Counters wrap the 2D transform entry points of ``numpy.fft`` and
``scipy.fft`` and the spline entry points of ``scipy.ndimage``; each call
is charged to the innermost open span.  A batched call counts one per 2D
plane (transforms, spline prefilters) or per evaluated point
(``map_coordinates``), so batching does not by itself change a count.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time

import numpy as np

# Counter slots of a span.
FFT2, FFT2_S, FFT2_BYTES, SPLINE_PLANES, INTERP_POINTS = range(5)
COUNTER_NAMES = ("fft2", "fft2_s", "fft2_bytes", "spline_planes", "interp_points")

# (module, attribute as the caller references it, span name)
LAYER_SPANS = (
    ("fluidspan.harness", "run", "harness.run"),
    ("fluidspan.harness", "initial_state", "models.initial_state"),
    ("fluidspan.harness", "cfl_limit", "models.cfl"),
    ("fluidspan.harness", "step_detailed", "models.step"),
    ("fluidspan.harness", "StageVelocity", "lagrangian.stage_interp"),
    ("fluidspan.harness", "advect_flow_map", "lagrangian.advect"),
    ("fluidspan.harness", "record", "lagrangian.record"),
    ("fluidspan.harness", "conserved_quantities", "models.conserved"),
    ("fluidspan.harness", "tail_enstrophy_fraction", "fields.tail_enstrophy"),
    ("fluidspan.harness", "bootstrap_monitor", "bootstrap.monitor"),
    ("fluidspan.models", "recover_velocity_detailed", "elliptic.solve"),
)
ELLIPTIC = "elliptic.solve"
FFT_2D = ("fft2", "ifft2", "rfft2", "irfft2")
FFT_ND = ("fftn", "ifftn", "rfftn", "irfftn")


class Tracer:
    """Spans (name, run, start, end, parent) plus counters, kept in memory."""

    def __init__(self):
        self.enabled = False
        self.run = None
        self.names = []
        self.runs = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.child_time = []
        self.counts = []
        self.info = {}
        self.stack = []

    def open(self, name):
        i = len(self.names)
        self.names.append(name)
        self.runs.append(self.run)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.child_time.append(0.0)
        self.counts.append([0] * len(COUNTER_NAMES))
        self.ends.append(math.nan)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i):
        end = time.perf_counter()
        self.ends[i] = end
        self.stack.pop()
        parent = self.parents[i]
        if parent >= 0:
            self.child_time[parent] += end - self.starts[i]

    def charge(self, slot, amount):
        if self.stack:  # work outside every span is not fluidspan's
            self.counts[self.stack[-1]][slot] += amount

    def wrap_span(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            i = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(i)
            if name == ELLIPTIC:
                tracer.info[i] = _elliptic_report(result)
            return result

        return wrapped

    def wrap_transform(self, fn, default_axes):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - start
            a = np.asarray(args[0] if args else kwargs.get("a", kwargs.get("x")))
            axes = kwargs.get("axes", args[2] if len(args) > 2 else default_axes)
            axes = list(range(a.ndim)) if axes is None else list(axes)
            plane = a.shape[axes[-2]] * a.shape[axes[-1]] if len(axes) >= 2 else a.size
            tracer.charge(FFT2, a.size // max(plane, 1))
            tracer.charge(FFT2_S, elapsed)
            tracer.charge(FFT2_BYTES, a.nbytes + np.asarray(out).nbytes)
            return out

        return wrapped

    def wrap_spline(self, fn, share):
        """spline_filter counts its 2D planes; spline_filter1d, one axis of
        a 2D prefilter, counts half a plane per plane."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.enabled:
                a = np.asarray(args[0] if args else kwargs["input"])
                plane = a.shape[-2] * a.shape[-1] if a.ndim >= 2 else a.size
                tracer.charge(SPLINE_PLANES, share * a.size / max(plane, 1))
            return fn(*args, **kwargs)

        return wrapped

    def wrap_interp(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if tracer.enabled:
                coords = args[1] if len(args) > 1 else kwargs["coordinates"]
                tracer.charge(INTERP_POINTS, np.asarray(coords)[0].size)
            return fn(*args, **kwargs)

        return wrapped

    def install_counters(self):
        """Wrap the numeric entry points; call before importing fluidspan so
        that names it binds at import time are the wrapped ones too."""
        import scipy.fft
        import scipy.ndimage

        for module in (np.fft, scipy.fft):
            for name in FFT_2D:
                setattr(module, name, self.wrap_transform(getattr(module, name), (-2, -1)))
            for name in FFT_ND:
                setattr(module, name, self.wrap_transform(getattr(module, name), None))
        scipy.ndimage.spline_filter = self.wrap_spline(scipy.ndimage.spline_filter, 1.0)
        scipy.ndimage.spline_filter1d = self.wrap_spline(scipy.ndimage.spline_filter1d, 0.5)
        scipy.ndimage.map_coordinates = self.wrap_interp(scipy.ndimage.map_coordinates)

    def install_spans(self):
        """Wrap every layer entry point; returns the ones not found."""
        missing = []
        for module_name, attr, span in LAYER_SPANS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self.wrap_span(span, getattr(module, attr)))
            else:
                missing.append(f"{module_name}.{attr}")
        return missing

    def mark(self):
        return len(self.names)

    def summary(self, first, last):
        """Per span name over spans [first, last): calls, inclusive and self
        seconds, counters, and the elliptic reports."""
        out = {}
        for i in range(first, last):
            s = out.setdefault(self.names[i], {
                "calls": 0, "seconds": 0.0, "self_seconds": 0.0,
                "counts": [0] * len(COUNTER_NAMES), "iterations": 0,
                "pcg_solves": 0, "residual_max": 0.0})
            duration = self.ends[i] - self.starts[i]
            s["calls"] += 1
            s["seconds"] += duration
            s["self_seconds"] += duration - self.child_time[i]
            for k, v in enumerate(self.counts[i]):
                s["counts"][k] += v
            report = self.info.get(i)
            if report is not None:
                s["iterations"] += report["iterations"]
                s["pcg_solves"] += report["method"] == "preconditioned_cg"
                s["residual_max"] = max(s["residual_max"], report["residual"])
        return out

    def write(self, path, workload, first, last):
        """Spans [first, last) as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for i in range(first, last):
                record = {
                    "workload": workload, "run": self.runs[i], "id": i,
                    "name": self.names[i], "start": self.starts[i],
                    "end": self.ends[i], "parent": self.parents[i],
                    "counts": dict(zip(COUNTER_NAMES, self.counts[i])),
                }
                if i in self.info:
                    record["elliptic"] = self.info[i]
                fh.write(json.dumps(record) + "\n")


def _elliptic_report(result):
    report = result[-1] if isinstance(result, tuple) else None
    return {
        "iterations": int(getattr(report, "iterations", 0)),
        "method": str(getattr(report, "method", "")),
        "residual": float(getattr(report, "residual", 0.0)),
    }


def exact_counts(summary):
    """The machine-independent part of a summary, for repeat checks."""
    return {name: (s["calls"], s["iterations"], s["pcg_solves"],
                   [v for k, v in enumerate(s["counts"]) if k != FFT2_S])
            for name, s in sorted(summary.items())}
