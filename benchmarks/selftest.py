"""Self-test of the traced run's exact counters.

    python3 benchmarks/selftest.py

1. Known calls on synthetic arrays give known counts, charged to the
   innermost open span.
2. Euler at 128^2 reproduces the transform counts measured when the
   benchmark was introduced: 28 per RK4 step, 35 per step for the stage
   interpolants and 47 per diagnostics row.  A change that alters these
   counts shows here first.
3. Two traced runs of the same config give identical exact counts.

Exits with status 1 when any check fails.
"""

from __future__ import annotations

import io
import sys

import run

EULER_128 = {"models.step": 28, "lagrangian.stage_interp": 35, "lagrangian.record": 47}


def synthetic(tracer):
    import numpy as np
    import scipy.fft
    from scipy import ndimage

    import spans

    tracer.enabled = True
    outer = tracer.open("outer")
    np.fft.rfft2(np.zeros((3, 16, 16)))
    inner = tracer.open("inner")
    scipy.fft.irfft2(np.zeros((2, 16, 9), complex))
    np.fft.rfftn(np.zeros((16, 16)))
    ndimage.spline_filter(np.zeros((16, 16)), mode="grid-wrap")
    for axis in (-2, -1):
        ndimage.spline_filter1d(np.zeros((6, 16, 16)), axis=axis, mode="grid-wrap")
    ndimage.map_coordinates(np.zeros((16, 16)), np.zeros((2, 10)), order=3)
    tracer.close(inner)
    tracer.close(outer)
    tracer.enabled = False
    got = {
        "outer": (tracer.counts[outer][spans.FFT2],),
        "inner": (tracer.counts[inner][spans.FFT2], tracer.counts[inner][spans.SPLINE_PLANES],
                  tracer.counts[inner][spans.INTERP_POINTS]),
    }
    want = {"outer": (3,), "inner": (3, 7, 10)}
    return got == want, f"synthetic counts {got}, expected {want}"


def euler_counts(tracer, harness):
    import spans

    config = {"model": "euler", "nx": 128, "ny": 128, "t_end": 0.02, "dt_max": 0.01,
              "particle_m": 64, "diag_every": 1}
    first = tracer.mark()
    tracer.enabled = True
    harness.run(harness.RunConfig(**config), io.StringIO())
    tracer.enabled = False
    summary = tracer.summary(first, tracer.mark())
    steps = summary["models.step"]["calls"]
    rows = summary["lagrangian.record"]["calls"]
    per = {name: summary[name]["counts"][spans.FFT2] / (rows if name == "lagrangian.record"
                                                        else steps)
           for name in EULER_128}
    return per, spans.exact_counts(summary)


def main():
    run.pin_threads()
    sys.path.insert(0, str(run.SRC))
    import spans

    tracer = spans.Tracer()
    tracer.install_counters()
    from fluidspan import harness

    missing = tracer.install_spans()
    ok, message = synthetic(tracer)
    checks = [(ok, message), (not missing, f"every layer entry point found (missing: {missing or 'none'})")]
    per, exact_a = euler_counts(tracer, harness)
    _, exact_b = euler_counts(tracer, harness)
    checks.append((per == EULER_128, f"euler 128^2 transforms {per}, expected {EULER_128}"))
    checks.append((exact_a == exact_b, "two traced runs give identical exact counts"))
    for passed, text in checks:
        print(("ok     " if passed else "FAILED ") + text)
    return 0 if all(p for p, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
