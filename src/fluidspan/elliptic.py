"""Variable-coefficient elliptic solves behind the modified Biot-Savart law.

For a density rho bounded away from zero the velocity is recovered from
vorticity omega = curl(rho u) through the mean-zero potential q solving

    div(mu grad q) = -div((mu - 1) K omega),      mu = 1 / rho,

after which u = mu (K omega + grad q).  By construction rho u =
K omega + grad q, so curl(rho u) = omega and the momentum mean vanishes
to round-off; div u = 0 holds to solver tolerance.

Every solve is warm-started preconditioned conjugate gradients (Shewchuk
1994) on the symmetric positive form -div(mu grad .), preconditioned by
the constant-coefficient inverse Laplacian.  Operator and preconditioner
share the spectral odd-derivative multipliers, which zero the Nyquist
mode, and the reported residual is that of the returned iterate under the
same operator.  The perturbative size of the problem is reported as
||mu - 1||_inf: it bounds the contraction of the fixed point
q <- Lap^-1 (b - div((mu - 1) grad q)) in the H^1 seminorm, because
grad Lap^-1 div is an L^2 projection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, VacuumError
from .fields import (
    ScalarField,
    VectorField,
    biot_savart,
    derivative_hat,
    divergence,
    gradient,
    same_grid,
    to_physical,
)

VACUUM_FLOOR = 1e-8
METHOD = "preconditioned_cg"
EPS = np.finfo(np.float64).eps


@dataclass
class EllipticSolveReport:
    iterations: int
    residual: float  # ||div(mu grad q) - b|| / ||b|| for the returned q
    method: str  # always "preconditioned_cg"
    contraction_estimate: float  # ||mu - 1||_inf


def _inverse_density(rho):
    if float(np.min(rho.values)) <= VACUUM_FLOOR:
        raise VacuumError(
            f"density not bounded away from zero: min rho = {np.min(rho.values):.3e}"
        )
    return 1.0 / rho.values


def _operators(grid, mu):
    """-div(mu grad .) and its preconditioner, the inverse of the mu = 1 case.

    Both vanish on the mean and on the Nyquist modes whose odd derivatives
    are zeroed, so the iteration never leaves the operator's range.
    """
    k2 = grid.KXd**2 + grid.KYd**2
    inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0.0)

    def apply_a(x):
        hat = np.fft.rfft2(x)
        fx = mu * to_physical(grid, derivative_hat(grid, hat, 1, 0))
        fy = mu * to_physical(grid, derivative_hat(grid, hat, 0, 1))
        return -to_physical(grid, derivative_hat(grid, np.fft.rfft2(fx), 1, 0)
                            + derivative_hat(grid, np.fft.rfft2(fy), 0, 1))

    def apply_prec(r):
        return to_physical(grid, inv_k2 * np.fft.rfft2(r))

    return apply_a, apply_prec


def _pcg_solve(grid, mu, b, tol, max_iter=500, x0=None):
    """Preconditioned CG for div(mu grad q) = b (arrays), from x0 or zero.

    Each cycle runs until the recurrence residual meets tol, p.Ap <= 0
    (breakdown), a step no longer changes the iterate (stagnation) or
    max_iter; the true residual of the iterate then decides: done, restart
    from it, or stop because it no longer improves.

    Returns (q, iterations, residual) for the best iterate seen, with q
    mean-zero and residual = ||div(mu grad q) - b|| / ||b|| (mean of b
    removed).
    """
    apply_a, apply_prec = _operators(grid, mu)
    rhs = np.mean(b) - b
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return ScalarField.zeros(grid), 0, 0.0
    target = tol * rhs_norm

    x = np.zeros((grid.nx, grid.ny)) if x0 is None else np.array(x0, dtype=np.float64)
    r = rhs - apply_a(x)
    best_x, best_norm = x.copy(), float(np.linalg.norm(r))
    it = 0
    while best_norm > target and it < max_iter:
        z = apply_prec(r)
        p = z
        rz = float(np.vdot(r, z))
        while it < max_iter:
            it += 1
            ap = apply_a(p)
            pap = float(np.vdot(p, ap))
            if not pap > 0.0:
                break
            alpha = rz / pap
            step = alpha * p
            x += step
            r -= alpha * ap
            if np.linalg.norm(r) <= target or np.linalg.norm(step) <= EPS * np.linalg.norm(x):
                break
            z = apply_prec(r)
            rz_new = float(np.vdot(r, z))
            p = z + (rz_new / rz) * p
            rz = rz_new
        r = rhs - apply_a(x)
        r_norm = float(np.linalg.norm(r))
        if not r_norm < best_norm:
            break
        best_x, best_norm = x.copy(), r_norm
    return ScalarField(grid, best_x - np.mean(best_x)), it, best_norm / rhs_norm


def recover_velocity_detailed(rho, omega, tol=1e-10, q0=None):
    """Velocity recovery returning (u, q, report) for warm-started stepping.

    q0 is the warm start, typically the previous solve's q.  A best
    residual above 10 * tol raises ConvergenceError.
    """
    grid = same_grid(rho, omega)
    mu = _inverse_density(rho)
    dmu = mu - 1.0
    k_omega = biot_savart(omega)
    b = -divergence(VectorField(
        ScalarField(grid, dmu * k_omega.u.values),
        ScalarField(grid, dmu * k_omega.v.values),
    ))
    contraction = float(np.max(np.abs(dmu)))
    if not np.any(b.values):
        # unit density: q = 0 exactly, counted as one iteration
        q, report = ScalarField.zeros(grid), EllipticSolveReport(1, 0.0, METHOD, contraction)
    else:
        q, iterations, residual = _pcg_solve(grid, mu, b.values, tol,
                                             x0=None if q0 is None else q0.values)
        report = EllipticSolveReport(iterations, residual, METHOD, contraction)
        if residual > 10 * tol:
            raise ConvergenceError(
                f"elliptic solve stopped after {iterations} iterations at residual "
                f"{residual:.3e} (tol {tol:.1e})",
                report,
            )
    gq = gradient(q)
    u = VectorField(
        ScalarField(grid, mu * (k_omega.u.values + gq.u.values)),
        ScalarField(grid, mu * (k_omega.v.values + gq.v.values)),
    )
    return u, q, report


def solve_q(rho, omega, tol=1e-10, q0=None):
    """Solve div(mu grad q) = -div((mu-1) K omega) for mean-zero q.

    Parameters
    ----------
    rho : ScalarField
        Density, strictly positive on the grid.
    omega : ScalarField
        Mean-zero vorticity.
    tol : float
        Relative residual target; a best residual above 10 * tol raises
        ConvergenceError.
    q0 : ScalarField, optional
        Warm start.

    Returns
    -------
    (q, report) : (ScalarField, EllipticSolveReport)
    """
    _, q, report = recover_velocity_detailed(rho, omega, tol=tol, q0=q0)
    return q, report


def solve_div_form(rho, f, tol=1e-12, max_iter=500):
    """Solve div(rho^-1 grad q) = f directly for a given right-hand side."""
    q, _, _ = _pcg_solve(rho.grid, _inverse_density(rho), f.values, tol, max_iter)
    return q


def recover_velocity_iie(rho, omega, tol=1e-10):
    """Velocity from (omega, rho) via the modified Biot-Savart law.

    Satisfies div u = 0 to solver tolerance, curl(rho u) = omega, and
    mean(rho u) = 0 to round-off.  Reduces to the standard Biot-Savart
    law exactly when rho is identically 1.
    """
    u, _, _ = recover_velocity_detailed(rho, omega, tol=tol)
    return u
