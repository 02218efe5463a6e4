"""Flow maps, stretching diagnostics, and the Lagrangian vorticity formula.

First the steady shear u = (sin y, 0), whose map and Jacobian are known in
closed form; then a Boussinesq run where the vorticity is rebuilt from
particle data alone (initial data plus the accumulated forcing along
paths, composed with the inverse map) and compared with the spectral
solution.
"""

import numpy as np

from fluidspan.fields import Grid, lp_norm
from fluidspan.harness import march
from fluidspan.lagrangian import (
    DuhamelHistory,
    StretchingSeries,
    advect_flow_map,
    analytic_velocity,
    duhamel_vorticity,
    identity_ensemble,
    jacobian_norms,
    record,
)
from fluidspan.models import ModelKind, initial_state

# --- shear flow: closed-form map ------------------------------------------
shear = analytic_velocity(
    u_fn=lambda x, y: (np.sin(y), np.zeros_like(x)),
    grad_fn=lambda x, y: (np.zeros_like(x), np.cos(y),
                         np.zeros_like(x), np.zeros_like(x)))
ens = identity_ensemble(48)
for _ in range(50):
    ens = advect_flow_map(ens, shear, 0.02)
fwd, inv, detj = jacobian_norms(ens)
print(f"shear at t = 1: sup|grad X| = {fwd:.6f} (golden ratio "
      f"{(1 + np.sqrt(5)) / 2:.6f}), max|det - 1| = {detj:.1e}")
print(f"chord-arc bound: measured {max(fwd, inv):.4f} <= e = {np.e:.4f}")

# --- Boussinesq: Duhamel reconstruction ------------------------------------
grid = Grid(96)
state = initial_state(ModelKind.BOUSSINESQ, grid, delta=0.1)
ens = identity_ensemble(96)
series = StretchingSeries(kind=ModelKind.BOUSSINESQ)
record(series, state, ens)
hist = DuhamelHistory(state, ens)
for state, ens in march(state, ens, 1.0, 0.01):
    hist.update(state, ens)
    record(series, state, ens)

rec = duhamel_vorticity(ens, hist, grid)
rel = (lp_norm(rec.values - state.omega.values, 2, grid.cell_area)
       / lp_norm(state.omega.values, 2, grid.cell_area))
print(f"\nBoussinesq delta = 0.1, t = 1:")
print(f"  particle-side vorticity vs spectral solver: relative L2 {rel:.2e}")
M, M_measured, N, Y, Z, detJ_err = (series.column(name)[-1] for name in
                                    ("M", "M_measured", "N", "Y", "Z", "detJ_err"))
print(f"  M = {M:.4f}, measured stretching {M_measured:.4f}")
print(f"  N = {N:.4f}, Y = {Y:.4f}, Z = {Z:.4f}")
print(f"  max |det grad X - 1| = {detJ_err:.1e}")
