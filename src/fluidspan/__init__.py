"""fluidspan: energy-vorticity lab for 2D incompressible fluid models.

Spectral solvers for Euler, Boussinesq, ideal MHD and inhomogeneous Euler
on the torus, Lagrangian flow-map diagnostics, and exact evaluation of the
closed-form lifespan constants attached to the close-to-Euler regime.
"""

__version__ = "0.1.0"

from .bootstrap import (
    ClosureSpec,
    GrowthConstants,
    bootstrap_monitor,
    boussinesq_bound,
    closure_lifespan,
    growth_constants,
    iie_continuation_budget,
    iie_lifespan,
    integrate_saturated_system,
    mhd_constants,
)
from .elliptic import EllipticSolveReport, recover_velocity_detailed, solve_div_form
from .fields import (
    Grid,
    ScalarField,
    VectorField,
    biot_savart,
    curl,
    dealias,
    divergence,
    gradient,
    invert_laplacian,
    laplacian,
    poisson_bracket,
    sobolev_norm,
    spectral_derivative,
)
from .harness import RunConfig, run, run_to_directory, sweep
from .lagrangian import (
    FlowMapEnsemble,
    StretchingSeries,
    advect_flow_map,
    back_to_label,
    duhamel_vorticity,
    identity_ensemble,
)
from .models import (
    FluidState,
    ModelKind,
    cfl_limit,
    conserved_quantities,
    elsasser_transform,
    initial_state,
)

__all__ = [
    "ClosureSpec",
    "EllipticSolveReport",
    "FlowMapEnsemble",
    "FluidState",
    "Grid",
    "GrowthConstants",
    "ModelKind",
    "RunConfig",
    "ScalarField",
    "StretchingSeries",
    "VectorField",
    "advect_flow_map",
    "back_to_label",
    "biot_savart",
    "bootstrap_monitor",
    "boussinesq_bound",
    "cfl_limit",
    "closure_lifespan",
    "conserved_quantities",
    "curl",
    "dealias",
    "divergence",
    "duhamel_vorticity",
    "elsasser_transform",
    "gradient",
    "growth_constants",
    "identity_ensemble",
    "iie_continuation_budget",
    "iie_lifespan",
    "initial_state",
    "integrate_saturated_system",
    "invert_laplacian",
    "laplacian",
    "mhd_constants",
    "poisson_bracket",
    "recover_velocity_detailed",
    "run",
    "run_to_directory",
    "sobolev_norm",
    "solve_div_form",
    "spectral_derivative",
    "sweep",
]
