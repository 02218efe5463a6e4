"""Output checks for one benchmark run.

Nothing is compared against a frozen CSV: flow-map, spectral-core and
elliptic changes legitimately move ``M_measured``, ``detJ_err`` and the
solver's iteration counts.  A run passes when it completed, reached
``t_end``, wrote the fixed header and the expected number of rows, left
exactly the model's inapplicable columns empty, and kept every applicable
column finite and its invariants within the drift bounds below.
"""

from __future__ import annotations

import math

import workloads

RUN_CSV_HEADER = ("t,M,M_measured,N,Q,Y,Z,omega_inf,omega_w1p,rho_w2p,"
                  "u_inf,u_w2p,B_w2p,E_kinetic,E_model,cross_helicity,mass,"
                  "momentum_x,momentum_y,detJ_err,tail_enstrophy")
COLUMNS = RUN_CSV_HEADER.split(",")
# Columns a model leaves empty (README: "columns that do not apply to a
# model are left empty").
NOT_APPLICABLE = {
    "euler": {"Q", "Y", "Z", "rho_w2p", "B_w2p", "cross_helicity", "mass",
              "momentum_x", "momentum_y"},
    "boussinesq": {"Q", "B_w2p", "cross_helicity", "momentum_x", "momentum_y"},
    "mhd": {"momentum_x", "momentum_y"},
    "mhd_elsasser": {"momentum_x", "momentum_y"},
    "iie": {"Y", "Z", "B_w2p", "cross_helicity"},
}
PARTICLE_COLUMNS = {"M_measured", "detJ_err"}

# Ten times the largest value seen over seeds 0-7 of every workload and at
# the top of each delta band, at the commit that introduced the benchmark,
# rounded up to a power of ten, and never below 1e-12 (round-off).
# Relative drift is max_t |v(t) - v(0)| / |v(0)|.
MAX_E_MODEL_DRIFT = {"euler": 1e-12, "boussinesq": 1e-5, "mhd": 1e-12,
                     "mhd_elsasser": 1e-12, "iie": 1e-3}
MAX_MASS_DRIFT = 1e-12
MAX_DETJ_ERR = 1e-10  # max_t |det grad X - 1|

def check_run(config, result, csv_text):
    """Problems with one run's outputs; an empty list means it passed."""
    problems = []
    if result.status != 0 or result.termination != "completed":
        problems.append(f"status {result.status}: {result.termination}")
    lines = csv_text.splitlines()
    if not lines or lines[0] != RUN_CSV_HEADER:
        return problems + ["CSV header differs from the fixed header"]
    _, rows_expected = workloads.expected_counts(config)
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != rows_expected:
        problems.append(f"{len(rows)} rows, expected {rows_expected}")
    if any(len(r) != len(COLUMNS) for r in rows):
        return problems + ["row with the wrong number of fields"]
    if not rows:
        return problems + ["no rows"]

    empty = set(NOT_APPLICABLE[config["model"]])
    if not config["track_particles"]:
        empty |= PARTICLE_COLUMNS
    table = {}
    for j, name in enumerate(COLUMNS):
        fields_ = [r[j] for r in rows]
        if name in empty:
            if any(fields_):
                problems.append(f"column {name} should be empty")
            continue
        try:
            values = [float(f) for f in fields_]
        except ValueError:
            problems.append(f"column {name} has an empty or malformed field")
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"column {name} is not finite")
        table[name] = values

    t_end = config["t_end"]
    t_last = table.get("t", [math.nan])[-1]
    if not abs(t_last - t_end) <= 1e-12 * max(1.0, t_end):
        problems.append(f"final t = {t_last!r}, expected t_end = {t_end!r}")
    for name, bound in (("E_model", MAX_E_MODEL_DRIFT[config["model"]]),
                        ("mass", MAX_MASS_DRIFT)):
        if name in table:
            drift = relative_drift(table[name])
            if not drift <= bound:
                problems.append(f"{name} drift {drift:.3e} exceeds {bound:.0e}")
    if "detJ_err" in table and not max(table["detJ_err"]) <= MAX_DETJ_ERR:
        problems.append(f"detJ_err {max(table['detJ_err']):.3e} exceeds {MAX_DETJ_ERR:.0e}")
    return problems


def relative_drift(values):
    """max_t |v(t) - v(0)| / |v(0)|."""
    return max(abs(x - values[0]) for x in values) / max(abs(values[0]), 1e-300)
