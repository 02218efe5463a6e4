import numpy as np
import pytest
import scipy.fft


class FFTCounts(dict):
    """Calls of rfft2 and irfft2 by name; ``inputs`` keeps each call's input
    array, in call order."""

    def __init__(self):
        super().__init__(rfft2=0, irfft2=0)
        self.inputs = {name: [] for name in self}


@pytest.fixture
def fft_counts(monkeypatch):
    """Counts of rfft2 and irfft2 calls from here on, from numpy.fft and
    scipy.fft alike, so that moving a transform between them never reads as
    a saving."""
    counts = FFTCounts()

    def counting(module, name):
        fn = getattr(module, name)

        def wrapped(a, *args, **kwargs):
            counts[name] += 1
            counts.inputs[name].append(a)
            return fn(a, *args, **kwargs)
        return wrapped

    for module in (np.fft, scipy.fft):
        for name in list(counts):
            monkeypatch.setattr(module, name, counting(module, name))
    return counts
