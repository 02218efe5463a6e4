"""Velocity recovery for variable density.

With density away from 1, the curl of the momentum rho u is the evolved
vorticity, and u comes from an elliptic solve with coefficient 1/rho.
The script shows the preconditioned-CG solve (run on rfft2 coefficients,
4 transforms per iteration), the perturbative size ||mu - 1||_inf (a bound
on the contraction of the fixed point q <- Lap^-1(b - div((mu - 1) grad q))),
and the three recovery identities.
"""

import numpy as np

from fluidspan import Grid, ScalarField, biot_savart, curl, divergence
from fluidspan.elliptic import recover_velocity_detailed
from fluidspan.fields import VectorField, grad_u_inf_norm

grid = Grid(128)
omega = ScalarField.from_function(grid, lambda x, y: np.sin(x) * np.sin(y))

for delta in (0.0, 0.05, 0.3):
    mu = 1.0 + delta * np.sin(grid.Y)
    rho = ScalarField(grid, 1.0 / mu)
    _, _, report = recover_velocity_detailed(rho, omega.hat, tol=1e-11)
    print(f"delta = {delta:4.2f}: method = {report.method}, "
          f"iterations = {report.iterations}, residual = {report.residual:.1e}, "
          f"||mu - 1||_inf = {report.contraction_estimate:.3f}")

mu = 1.0 + 0.1 * np.cos(grid.X)
rho = ScalarField(grid, 1.0 / mu)
u, _, _ = recover_velocity_detailed(rho, omega.hat, tol=1e-11)
rho_u = VectorField(ScalarField(grid, rho.values * u.u.values),
                    ScalarField(grid, rho.values * u.v.values))
print(f"curl(rho u) - omega: {np.max(np.abs(curl(rho_u).values - omega.values)):.2e}")
print(f"div u / ||grad u||:  {divergence(u).max_abs() / grad_u_inf_norm(u):.2e}")
print(f"mean(rho u):         ({np.mean(rho_u.u.values):.1e}, "
      f"{np.mean(rho_u.v.values):.1e})")

u0 = biot_savart(omega)
print(f"difference from the constant-density law at delta = 0.1: "
      f"{np.max(np.abs(u.u.values - u0.u.values)):.3f} (order delta, as it should be)")
