"""Variable-coefficient elliptic solves behind the modified Biot-Savart law.

For a density rho bounded away from zero the velocity is recovered from
vorticity omega = curl(rho u) through the mean-zero potential q solving

    div(mu grad q) = -div((mu - 1) K omega),      mu = 1 / rho,

after which u = mu (K omega + grad q).  By construction rho u =
K omega + grad q, so curl(rho u) = omega and the momentum mean vanishes
to round-off; div u = 0 holds to solver tolerance.

Every solve is preconditioned conjugate gradients (Shewchuk 1994) on the
symmetric positive form -div(mu grad .), iterating on rfft2 coefficients
with Parseval inner products (Canuto, Hussaini, Quarteroni & Zang 2006):
4 transforms per iteration, as the preconditioner, the constant-
coefficient inverse Laplacian, is one multiplier.  Beyond the iterations a
solve takes 7 forward and 6 inverse transforms: omega's coefficients when
the caller has only its samples (1 forward), K omega (2 inverse), the
right-hand side (2 forward), and the initial and the closing true residual
(2 + 2 each).  The closing residual forms the flux mu grad q on the grid,
and u = mu K omega + mu grad q is read off it.  Operator and
preconditioner share the spectral odd-derivative multipliers, which zero
the Nyquist mode, and the reported residual is that of the returned
iterate under the same operator.  The perturbative size of the problem is
reported as ||mu - 1||_inf: it bounds the contraction of the fixed point
q <- Lap^-1 (b - div((mu - 1) grad q)) in the H^1 seminorm, because
grad Lap^-1 div is an L^2 projection.

The solves of one run start from :class:`WarmStart`, a prediction from
the run's earlier solves (Fischer 1998, projection techniques for
successive right-hand sides): a linear extrapolation in time, corrected
by the extrapolation's own error at the same RK4 stage one step earlier.
The start changes only the iteration count; the tolerance, the stopping
rule and the reported residual do not depend on it.
"""

from __future__ import annotations

import collections
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, VacuumError
from .fields import (
    ScalarField,
    VectorField,
    derivative_hat,
    gradient_values,
    half_plane_dot,
    to_physical,
    to_spectral,
    velocity_hat,
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


def _flux(grid, mu, x_hat):
    """mu grad x on the grid from the coefficients of x: 2 inverse
    transforms."""
    fx, fy = gradient_values(grid, x_hat)
    fx *= mu
    fy *= mu
    return fx, fy


def _div_hat(grid, fx, fy):
    """Coefficients of div(fx, fy) from its grid samples: 2 forward
    transforms."""
    div_y = derivative_hat(grid, to_spectral(grid, fy), 0, 1)
    div = derivative_hat(grid, to_spectral(grid, fx), 1, 0)
    div += div_y
    return div


def _apply_a(grid, mu, x_hat):
    """Coefficients of -div(mu grad x) from those of x: 2 inverse and 2
    forward transforms."""
    div = _div_hat(grid, *_flux(grid, mu, x_hat))
    return np.negative(div, out=div)


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
    from it, or stop because it no longer improves.  The iterate, the
    residual and the search direction are updated in place.

    Returns (x_hat, iterations, residual, flux) for the best iterate seen,
    with the mean mode zeroed, residual = ||-div(mu grad x) - rhs|| / ||rhs||
    and flux the pair of planes mu grad x as formed by its true residual.
    The mean of rhs is removed in place.  A zero rhs gives x = 0, counted as
    one iteration.
    """
    size = grid.nx * grid.ny

    def dot(a, b):
        return half_plane_dot(a, b) / size

    def norm(a):
        return math.sqrt(dot(a, a))

    rhs[0, 0] = 0.0
    rhs_norm = norm(rhs)
    if rhs_norm == 0.0:
        return np.zeros_like(rhs), 1, 0.0, (np.zeros_like(mu), np.zeros_like(mu))
    target = tol * rhs_norm

    k2 = grid.KXd**2 + grid.KYd**2
    inv_k2 = np.divide(1.0, k2, out=np.zeros_like(k2), where=k2 > 0.0)

    def true_residual(x):
        """The residual rhs + div(mu grad x) and the flux mu grad x."""
        flux = _flux(grid, mu, x)
        r = _div_hat(grid, *flux)
        r += rhs
        return r, flux

    x = np.zeros_like(rhs) if x0 is None else x0.copy()
    r, flux = true_residual(x)
    best_x, best_norm = x.copy(), norm(r)
    it = 0
    while best_norm > target and it < max_iter:
        z = inv_k2 * r
        p = z.copy()
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
            ap *= alpha
            r -= ap
            if norm(r) <= target or norm(step) <= EPS * norm(x):
                break
            z = inv_k2 * r
            rz_new = dot(r, z)
            p *= rz_new / rz  # p = z + (rz_new / rz) p
            p += z
            rz = rz_new
        r, trial = true_residual(x)
        r_norm = norm(r)
        if not r_norm < best_norm:
            break
        np.copyto(best_x, x)
        flux, best_norm = trial, r_norm
    best_x[0, 0] = 0.0
    return best_x, it, best_norm / rhs_norm, flux


class WarmStart:
    """Starts for a run's successive solves, predicted from its earlier ones.

    The base for a solve at time t is the linear extrapolation in time
    through the last solve and the latest solve at another time; it is the
    last q_hat when t is the last solve's time or no other time has been
    solved.  The solve four back (for RK4, the same stage one step earlier)
    left a base error q_hat - base at its own offset h0 from the solve
    before it; that error is added, scaled by (h / h0)^2 for the new offset
    h, since a linear extrapolation's error is second order in the offset.
    Equal offsets add it unscaled; a zero offset against a nonzero one adds
    nothing.  A poor correction costs iterations only.  Holds two q_hat and
    four errors; one per run, in one thread.
    """

    def __init__(self):
        self._last = None  # (t, q_hat) of the last solve
        self._other = None  # (t, q_hat) of the latest solve at another time
        self._errors = collections.deque(maxlen=4)  # (t offset, q_hat - base)
        self._base = None

    def predict(self, t):
        """The start for a solve at time t as coefficients; None before the
        first solve."""
        if self._last is None:
            return None
        t_last, q_last = self._last
        if t == t_last or self._other is None:
            self._base = q_last
        else:
            t_other, q_other = self._other
            self._base = q_last + ((t - t_last) / (t_last - t_other)) * (q_last - q_other)
        if len(self._errors) == 4:
            offset, error = self._errors[0]
            h = t - t_last
            # Equal steps give offsets that differ only by the rounding of t.
            if offset is not None and math.isclose(h, offset, rel_tol=1e-9):
                return self._base + error
            if offset and h:
                return self._base + (h / offset) ** 2 * error
        return self._base

    def record(self, t, q_hat):
        """Add the solve at time t that started from predict(t)."""
        if self._last is None:
            self._errors.append((None, None))
        else:
            self._errors.append((t - self._last[0], q_hat - self._base))
            if t != self._last[0]:
                self._other = self._last
        self._last = (t, q_hat)
        self._base = None


def recover_velocity_detailed(rho, omega_hat, tol=1e-10, q0=None):
    """Velocity from the vorticity's rfft2 coefficients omega_hat and the
    density rho by the modified Biot-Savart law, as (u, q_hat, report)
    with q_hat the rfft2 coefficients of the potential.

    u satisfies div u = 0 to solver tolerance, curl(rho u) = omega, and
    mean(rho u) = 0 to round-off; it is the standard Biot-Savart velocity
    exactly when rho is identically 1 (q = 0, counted as one iteration).
    q0 is the start as coefficients (a :class:`WarmStart` prediction, or
    None for zero).  A best residual above 10 * tol raises
    ConvergenceError.
    """
    grid = rho.grid
    mu = _inverse_density(rho)
    dmu = mu - 1.0
    ku, kv = (to_physical(grid, h) for h in velocity_hat(grid, omega_hat))
    # -div(mu grad q) = b with b = div((mu - 1) K omega)
    rhs = _div_hat(grid, dmu * ku, dmu * kv)
    q_hat, iterations, residual, (fx, fy) = _pcg_solve(grid, mu, rhs, tol, x0=q0)
    report = EllipticSolveReport(iterations, residual, METHOD,
                                 float(max(np.max(dmu), -np.min(dmu))))
    if residual > 10 * tol:
        raise ConvergenceError(
            f"elliptic solve stopped after {iterations} iterations at residual "
            f"{residual:.3e} (tol {tol:.1e})",
            report,
        )
    u1, u2 = mu * ku, mu * kv
    u1 += fx
    u2 += fy
    return VectorField(ScalarField(grid, u1), ScalarField(grid, u2)), q_hat, report


def solve_div_form(rho, f, tol=1e-12, max_iter=500):
    """Solve div(rho^-1 grad q) = f for mean-zero q, given the right-hand
    side f (its mean removed); returns q."""
    grid = rho.grid
    q_hat = _pcg_solve(grid, _inverse_density(rho), -f.hat, tol, max_iter)[0]
    return ScalarField.from_hat(grid, q_hat)
