"""Short integrations of the four evolution systems with conservation tables.

Each model advances the same smooth vorticity with a density (or magnetic
potential) within delta of the homogeneous state; the table lists the
relative drift of every quantity the model is supposed to conserve.
"""

from fluidspan.fields import Grid
from fluidspan.harness import march
from fluidspan.models import (
    conserved_quantities,
    from_elsasser,
    initial_state,
    step_detailed,
    to_elsasser,
)

grid = Grid(96)
T_END = 1.0

SETUPS = [
    ("euler", 0.0, "rho_minus_1_W2p", "default"),
    ("boussinesq", 1e-3, "rho_minus_1_W2p", "default"),
    ("mhd", 0.05, "rho_minus_1_W3p", "helical"),
    ("iie", 0.05, "inv_rho_minus_1_W2p", "default"),
]

for model, delta, norm, profile in SETUPS:
    state = initial_state(model, grid, delta=delta, delta_norm=norm,
                          seed_profile=profile)
    start = conserved_quantities(state)
    for state, _ in march(state, None, T_END, 0.01):
        pass
    end = conserved_quantities(state)
    drifts = []
    for key in ("E_model", "omega_p", "rho_p", "cross_helicity", "mass"):
        if start[key] is None or start[key] == 0.0:
            continue
        drifts.append(f"{key}: {abs(end[key] - start[key]) / abs(start[key]):.1e}")
    print(f"{model:12s} delta={delta:7.1e}  " + "  ".join(drifts))

# the two MHD formulations integrate the same data and agree
vc = initial_state("mhd", grid, delta=0.05, delta_norm="rho_minus_1_W3p",
                   seed_profile="helical")
els = to_elsasser(vc)
for _ in range(200):
    vc, _ = step_detailed(vc, 5e-3, check_cfl=False)
    els, _ = step_detailed(els, 5e-3, check_cfl=False)
back = from_elsasser(els)
import numpy as np

rel = np.max(np.abs(back.omega.values - vc.omega.values)) / np.max(np.abs(vc.omega.values))
print(f"\nvorticity-current vs Elsasser at t = 1: relative disagreement {rel:.2e}")
