"""Workload definitions.

A workload is a fixed list of run configurations.  The seed and a draw
number pick each run's perturbation size ``delta`` (log-uniform in the
workload's band) and its ``seed_profile``; fluidspan only ever sees the
generated configs.  Each pass over a workload and each set-up probe uses
its own draw, so no input repeats within a benchmark run and nothing
cached by input can speed up a later pass.
``dt_max`` sits below the CFL limit of every generated initial state
(>= 0.015 at 256^2), so the number of steps, and with it the expected
number of CSV rows, follows from ``t_end`` alone.
"""

from __future__ import annotations

import math
import random

DT = 0.01
FLOW_MODELS = ("euler", "boussinesq", "mhd", "mhd_elsasser")
PROFILES = ("default", "helical")
# The norm in which each model's perturbation has size delta, as in the
# acceptance suite.
DELTA_NORM = {
    "euler": "rho_minus_1_W2p",
    "boussinesq": "rho_minus_1_W2p",
    "mhd": "rho_minus_1_W3p",
    "mhd_elsasser": "rho_minus_1_W3p",
    "iie": "inv_rho_minus_1_W2p",
}
SMALL_DELTA = (1e-3, 1e-1)
# The IIE fixed-point contraction needs 1.8-3.3 iterations per solve for
# delta in [1e-3, 1e-1] and 6-12 for delta in [1, 3].  The IIE bands are
# cut to [1e-3, 1e-2] (~2 iterations) and [2.5, 3] (~11) so that the work,
# and with it wall_s, does not swing with the seed.
IIE_SMALL_DELTA = (1e-3, 1e-2)
IIE_LARGE_DELTA = (2.5, 3.0)


def _config(rng, model, n, steps, band, particles, diag_every):
    lo, hi = band
    return {
        "model": model,
        "nx": n,
        "ny": n,
        "delta": math.exp(rng.uniform(math.log(lo), math.log(hi))),
        "delta_norm": DELTA_NORM[model],
        "seed_profile": rng.choice(PROFILES),
        "t_end": steps * DT,
        "dt_max": DT,
        "particle_m": 64,
        "track_particles": particles,
        "diag_every": diag_every,
    }


def _particles_128(rng):
    return [_config(rng, m, 128, 10, SMALL_DELTA, True, 1) for m in FLOW_MODELS]


def _spectral_256(rng):
    return [_config(rng, m, 256, 12, SMALL_DELTA, False, 25) for m in FLOW_MODELS]


def _strata(band, k):
    """The band cut into k equal pieces in log space."""
    lo, hi = (math.log(x) for x in band)
    w = (hi - lo) / k
    return [(math.exp(lo + i * w), math.exp(lo + (i + 1) * w)) for i in range(k)]


def _elliptic_iie(rng):
    return [_config(rng, "iie", 128, 8, band, False, 25)
            for band in _strata(IIE_SMALL_DELTA, 2) + _strata(IIE_LARGE_DELTA, 2)]


WORKLOADS = {
    # Lagrangian layer: stage interpolants, flow-map advection and a full
    # diagnostics row after every step.
    "particles-128": _particles_128,
    # Models/fields layer: RK4 tendencies at 256^2, particles off, rows
    # only at the start and the end.
    "spectral-256": _spectral_256,
    # Elliptic layer: both regimes of the IIE fixed-point contraction.
    "elliptic-iie": _elliptic_iie,
}


def generate(workload, seed, draw=0):
    """The workload's run configs (RunConfig keyword dicts) for a seed and a
    draw (a pass number or a probe label)."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}/{draw}"))


def expected_counts(config):
    """(steps, CSV rows) of harness.run when dt_max, not the CFL limit, sets dt."""
    t, steps, rows = 0.0, 0, 1
    t_end = config["t_end"]
    while t < t_end - 1e-14:
        t = t + min(config["dt_max"], t_end - t)
        steps += 1
        if steps % config["diag_every"] == 0 or t >= t_end - 1e-14:
            rows += 1
    return steps, rows
