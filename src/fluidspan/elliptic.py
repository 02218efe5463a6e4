"""Variable-coefficient elliptic solves behind the modified Biot-Savart law.

For a density rho bounded away from zero the velocity is recovered from
vorticity omega = curl(rho u) through the mean-zero potential q solving

    div(mu grad q) = -div((mu - 1) K omega),      mu = 1 / rho,

after which u = mu (K omega + grad q).  By construction rho u =
K omega + grad q, so curl(rho u) = omega and the momentum mean vanishes
to round-off; div u = 0 holds to solver tolerance.

Every solve is warm-started preconditioned conjugate gradients (Shewchuk
1994) on the symmetric positive form -div(mu grad .), iterating on rfft2
coefficients with Parseval inner products (Canuto, Hussaini, Quarteroni &
Zang 2006): 4 transforms per iteration, as the preconditioner, the
constant-coefficient inverse Laplacian, is one multiplier.  Operator and
preconditioner share the spectral odd-derivative multipliers, which zero
the Nyquist mode, and the reported residual is that of the returned
iterate under the same operator.  The perturbative size of the problem is
reported as ||mu - 1||_inf: it bounds the contraction of the fixed point
q <- Lap^-1 (b - div((mu - 1) grad q)) in the H^1 seminorm, because
grad Lap^-1 div is an L^2 projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, VacuumError
from .fields import (
    ScalarField,
    VectorField,
    biot_savart,
    derivative_hat,
    gradient_values,
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


def _apply_a(grid, mu, x_hat):
    """Coefficients of -div(mu grad x) from those of x: 2 inverse and 2
    forward transforms."""
    fx = mu * to_physical(grid, derivative_hat(grid, x_hat, 1, 0))
    fy = mu * to_physical(grid, derivative_hat(grid, x_hat, 0, 1))
    return -(derivative_hat(grid, np.fft.rfft2(fx), 1, 0)
             + derivative_hat(grid, np.fft.rfft2(fy), 0, 1))


def _pcg_solve(grid, mu, rhs, tol, max_iter=500, x0=None):
    """Preconditioned CG for -div(mu grad x) = rhs on rfft2 coefficients,
    from the coefficients x0 or zero.

    The preconditioner, the inverse of the mu = 1 operator, vanishes on the
    mean and on the Nyquist modes whose odd derivatives are zeroed, so the
    iteration never leaves the operator's range.  Norms and inner products
    are those of the physical samples (Parseval with half-plane weights).

    Each cycle runs until the recurrence residual meets tol, p.Ap <= 0
    (breakdown), a step no longer changes the iterate (stagnation) or
    max_iter; the true residual of the iterate then decides: done, restart
    from it, or stop because it no longer improves.

    Returns (x_hat, iterations, residual) for the best iterate seen, with
    the mean mode zeroed and residual = ||-div(mu grad x) - rhs|| / ||rhs||
    (mean of rhs removed); a zero rhs gives x = 0, counted as one iteration.
    """
    k2 = grid.KXd**2 + grid.KYd**2
    inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0.0)
    size = grid.nx * grid.ny

    def dot(a, b):
        # Half-plane weights: 2, but 1 on the ky = 0 and Nyquist columns.
        full = 2.0 * np.vdot(a, b) - np.vdot(a[:, 0], b[:, 0]) - np.vdot(a[:, -1], b[:, -1])
        return float(full.real) / size

    def norm(a):
        return math.sqrt(dot(a, a))

    rhs = rhs.copy()
    rhs[0, 0] = 0.0
    rhs_norm = norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 1, 0.0
    target = tol * rhs_norm

    x = np.zeros_like(rhs) if x0 is None else np.array(x0, dtype=np.complex128)
    r = rhs - _apply_a(grid, mu, x)
    best_x, best_norm = x.copy(), norm(r)
    it = 0
    while best_norm > target and it < max_iter:
        z = inv_k2 * r
        p = z
        rz = dot(r, z)
        while it < max_iter:
            it += 1
            ap = _apply_a(grid, mu, p)
            pap = dot(p, ap)
            if not pap > 0.0:
                break
            alpha = rz / pap
            step = alpha * p
            x += step
            r -= alpha * ap
            if norm(r) <= target or norm(step) <= EPS * norm(x):
                break
            z = inv_k2 * r
            rz_new = dot(r, z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        r = rhs - _apply_a(grid, mu, x)
        r_norm = norm(r)
        if not r_norm < best_norm:
            break
        best_x, best_norm = x.copy(), r_norm
    best_x[0, 0] = 0.0
    return best_x, it, best_norm / rhs_norm


def recover_velocity_detailed(rho, omega, tol=1e-10, q0=None):
    """Velocity from (omega, rho) by the modified Biot-Savart law, as
    (u, q_hat, report) with q_hat the rfft2 coefficients of the potential.

    u satisfies div u = 0 to solver tolerance, curl(rho u) = omega, and
    mean(rho u) = 0 to round-off; it is the standard Biot-Savart velocity
    exactly when rho is identically 1 (q = 0, counted as one iteration).
    q0 is the warm start as coefficients, typically the previous solve's
    q_hat.  A best residual above 10 * tol raises ConvergenceError.
    """
    grid = same_grid(rho, omega)
    mu = _inverse_density(rho)
    dmu = mu - 1.0
    k_omega = biot_savart(omega)
    # -b = div((mu - 1) K omega), straight from the forward transforms
    rhs = (derivative_hat(grid, np.fft.rfft2(dmu * k_omega.u.values), 1, 0)
           + derivative_hat(grid, np.fft.rfft2(dmu * k_omega.v.values), 0, 1))
    q_hat, iterations, residual = _pcg_solve(grid, mu, rhs, tol, x0=q0)
    report = EllipticSolveReport(iterations, residual, METHOD, float(np.max(np.abs(dmu))))
    if residual > 10 * tol:
        raise ConvergenceError(
            f"elliptic solve stopped after {iterations} iterations at residual "
            f"{residual:.3e} (tol {tol:.1e})",
            report,
        )
    qx, qy = gradient_values(grid, q_hat)
    u = VectorField(ScalarField(grid, mu * (k_omega.u.values + qx)),
                    ScalarField(grid, mu * (k_omega.v.values + qy)))
    return u, q_hat, report


def solve_div_form(rho, f, tol=1e-12, max_iter=500):
    """Solve div(rho^-1 grad q) = f for mean-zero q, given the right-hand
    side f (its mean removed); returns q."""
    q_hat, _, _ = _pcg_solve(rho.grid, _inverse_density(rho), -f.hat, tol, max_iter)
    return ScalarField.from_hat(rho.grid, q_hat)
