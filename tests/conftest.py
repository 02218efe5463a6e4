import math

import numpy as np
import pytest
import scipy.fft


class FFTCounts(dict):
    """Planes transformed by the real 2D transforms, by the names rfft2 and
    irfft2: a call on a stack of planes counts once per plane, as
    benchmarks/spans.py counts it, so that batching never reads as a
    saving.  ``inputs`` keeps a copy of each call's input array, in call
    order (a copy, so that a caller's later in-place update of its array
    does not change the record)."""

    def __init__(self):
        super().__init__(rfft2=0, irfft2=0)
        self.inputs = {name: [] for name in self}


@pytest.fixture
def fft_counts(monkeypatch):
    """Counts of forward and inverse real 2D transforms from here on, one per
    plane: calls of rfft2 or rfftn count as rfft2 and of irfft2 or irfftn as
    irfft2, from
    numpy.fft and scipy.fft alike, so that moving a transform between these
    entry points never reads as a saving."""
    counts = FFTCounts()

    def counting(module, name, key):
        fn = getattr(module, name)
        default_axes = (-2, -1) if name.endswith("2") else None

        def wrapped(a, *args, **kwargs):
            a = np.asarray(a)
            axes = kwargs.get("axes", args[1] if len(args) > 1 else default_axes)
            axes = range(a.ndim) if axes is None else axes
            counts[key] += a.size // math.prod(a.shape[i] for i in axes)
            counts.inputs[key].append(np.array(a, copy=True))
            return fn(a, *args, **kwargs)
        return wrapped

    for module in (np.fft, scipy.fft):
        for key in list(counts):
            for name in (key, key[:-1] + "n"):
                monkeypatch.setattr(module, name, counting(module, name, key))
    return counts
