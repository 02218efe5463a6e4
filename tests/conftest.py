import numpy as np
import pytest


class FFTCounts(dict):
    """Calls of numpy.fft.rfft2 and irfft2 by name; ``inputs`` keeps each
    call's input array, in call order."""

    def __init__(self):
        super().__init__(rfft2=0, irfft2=0)
        self.inputs = {name: [] for name in self}


@pytest.fixture
def fft_counts(monkeypatch):
    """Counts of numpy.fft.rfft2 and irfft2 calls from here on."""
    counts = FFTCounts()

    def counting(name):
        fn = getattr(np.fft, name)

        def wrapped(a, *args, **kwargs):
            counts[name] += 1
            counts.inputs[name].append(a)
            return fn(a, *args, **kwargs)
        return wrapped

    for name in list(counts):
        monkeypatch.setattr(np.fft, name, counting(name))
    return counts
