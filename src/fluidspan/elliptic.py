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


def _inverse_density(rho, out):
    if float(np.min(rho.values)) <= VACUUM_FLOOR:
        raise VacuumError(
            f"density not bounded away from zero: min rho = {np.min(rho.values):.3e}"
        )
    return np.divide(1.0, rho.values, out=out)


def _flux(grid, mu, x_hat, out):
    """mu grad x on the grid from the coefficients of x, into the pair of
    planes out: 2 inverse transforms."""
    for f in gradient_values(grid, x_hat, out):
        np.multiply(mu, f, out=f)
    return out


def _div_hat(grid, fx, fy, out):
    """Coefficients of div(fx, fy) from its grid samples, into out: 2
    forward transforms."""
    with grid.scratch as s:
        div_y = derivative_hat(grid, np.fft.rfft2(fy, out=s.coeffs()), 0, 1, s.coeffs())
        div_x = derivative_hat(grid, np.fft.rfft2(fx, out=out), 1, 0, out)
        return np.add(div_x, div_y, out=out)


def _apply_a(grid, mu, x_hat, out=None):
    """Coefficients of -div(mu grad x) from those of x, into out or a new
    array: 2 inverse and 2 forward transforms."""
    if out is None:
        out = np.empty_like(x_hat)
    with grid.scratch as s:
        div = _div_hat(grid, *_flux(grid, mu, x_hat, (s.plane(), s.plane())), out)
        return np.negative(div, out=div)


def _pcg_solve(grid, mu, rhs, tol, flux, max_iter=500, x0=None):
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
    residual, the search direction, A p and the step are updated in place
    in the grid's scratch.

    Returns (x_hat, iterations, residual) for the best iterate seen, with
    the mean mode zeroed and residual = ||-div(mu grad x) - rhs|| / ||rhs||;
    the pair of planes ``flux`` then holds mu grad x as formed by its true
    residual.  The mean of rhs is removed in place.  A zero rhs gives x = 0,
    counted as one iteration.
    """
    size = grid.nx * grid.ny

    def dot(a, b):
        return half_plane_dot(a, b) / size

    def norm(a):
        return math.sqrt(dot(a, a))

    rhs[0, 0] = 0.0
    rhs_norm = norm(rhs)
    if rhs_norm == 0.0:
        for f in flux:
            f.fill(0.0)
        return np.zeros_like(rhs), 1, 0.0
    target = tol * rhs_norm

    with grid.scratch as s:
        k2 = np.add(grid.KXd**2, grid.KYd**2, out=s.multiplier())
        inv_k2 = s.multiplier()
        inv_k2.fill(0.0)
        np.divide(1.0, k2, out=inv_k2, where=k2 > 0.0)
        x, r, z, p, ap = (s.coeffs() for _ in range(5))
        trial = (s.plane(), s.plane())

        def true_residual(flux):
            return np.add(rhs, _div_hat(grid, *_flux(grid, mu, x, flux), r), out=r)

        if x0 is None:
            x.fill(0.0)
        else:
            np.copyto(x, x0)
        best_x, best_norm = x.copy(), norm(true_residual(flux))
        it = 0
        while best_norm > target and it < max_iter:
            np.copyto(p, np.multiply(inv_k2, r, out=z))
            rz = dot(r, z)
            while it < max_iter:
                it += 1
                pap = dot(p, _apply_a(grid, mu, p, ap))
                if not pap > 0.0:
                    break
                alpha = rz / pap
                step = np.multiply(alpha, p, out=z)
                x += step
                r -= np.multiply(alpha, ap, out=ap)
                if norm(r) <= target or norm(step) <= EPS * norm(x):
                    break
                np.multiply(inv_k2, r, out=z)
                rz_new = dot(r, z)
                p *= rz_new / rz  # p = z + (rz_new / rz) p
                np.add(z, p, out=p)
                rz = rz_new
            r_norm = norm(true_residual(trial))
            if not r_norm < best_norm:
                break
            np.copyto(best_x, x)
            for f, t in zip(flux, trial):
                np.copyto(f, t)
            best_norm = r_norm
    best_x[0, 0] = 0.0
    return best_x, it, best_norm / rhs_norm


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
    ConvergenceError.  Everything but u and q_hat lives in the grid's
    scratch.
    """
    grid = rho.grid
    with grid.scratch as s:
        mu = _inverse_density(rho, s.plane())
        dmu = np.subtract(mu, 1.0, out=s.plane())
        ku, kv = (to_physical(grid, h, s.plane())
                  for h in velocity_hat(grid, omega_hat, (s.coeffs(), s.coeffs())))
        fx, fy = flux = s.plane(), s.plane()
        # -div(mu grad q) = b with b = div((mu - 1) K omega)
        rhs = _div_hat(grid, np.multiply(dmu, ku, out=fx), np.multiply(dmu, kv, out=fy),
                       s.coeffs())
        q_hat, iterations, residual = _pcg_solve(grid, mu, rhs, tol, flux, x0=q0)
        report = EllipticSolveReport(iterations, residual, METHOD,
                                     float(max(np.max(dmu), -np.min(dmu))))
        if residual > 10 * tol:
            raise ConvergenceError(
                f"elliptic solve stopped after {iterations} iterations at residual "
                f"{residual:.3e} (tol {tol:.1e})",
                report,
            )
        u1, u2 = np.multiply(mu, ku), np.multiply(mu, kv)
        u = VectorField(ScalarField(grid, np.add(u1, fx, out=u1)),
                        ScalarField(grid, np.add(u2, fy, out=u2)))
    return u, q_hat, report


def solve_div_form(rho, f, tol=1e-12, max_iter=500):
    """Solve div(rho^-1 grad q) = f for mean-zero q, given the right-hand
    side f (its mean removed); returns q."""
    grid = rho.grid
    with grid.scratch as s:
        mu = _inverse_density(rho, s.plane())
        q_hat, _, _ = _pcg_solve(grid, mu, -f.hat, tol, (s.plane(), s.plane()), max_iter)
    return ScalarField.from_hat(grid, q_hat)
