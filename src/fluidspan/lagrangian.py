"""Flow-map particle ensemble and the Lagrangian stretching diagnostics.

A square ensemble of particles seeded at labels a is advected by RK4 on
dX/dt = u(t, X) while the Jacobian is transported along each path by
d(grad X)/dt = grad u(X) . grad X.  Velocities and their gradients are
evaluated at particle positions with periodic bicubic interpolation
(O(dx^4) error against the spectral fields): one PeriodicInterpolator
takes a set of planes as rfft2 coefficients, folds the cubic B-spline
prefilter into their one inverse transform each, and per call builds each
point's 16-node stencil once and applies it to all planes in one sparse
product.
A velocity provider is a callable ``provider(stage, points) -> (u, grad u)``
read once per RK4 stage: StageVelocity interpolates the four stage
velocities of a model step, analytic_velocity wraps closed forms.  A stage
interpolates five planes, u1, u2, d_x u1, d_y u1 and d_x u2, and returns
d_y u2 = -d_x u1, so the interpolated grad u is trace-free by construction.

On top of the ensemble this module tracks the stretching quantities

    M = exp(int ||grad u||_inf),   N = exp(int ||grad u||_{1,p}),

their measured counterpart sup(|grad X|, |grad A|), the model-specific
memory integrals Q / Y / Z, and the Duhamel vorticity reconstruction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ChordArcError, InstabilityError, ReconstructionError
from .fields import (
    ScalarField,
    derivative_hat,
    derivative_orders,
    derivative_planes,
    grad_layers,
    gradient_hat,
    gradient_values,
    inverse_laplacian_hat,
    kato_quotient,
    lp_norm,
    lp_terms,
    operator_norm_2x2,
    sobolev_norm,
    TWO_PI,
)
from .models import MHD_KINDS, ModelKind

# Relative slack of the chord-arc check M_measured <= M.
CHORD_ARC_TOL = 1e-3


class PeriodicInterpolator:
    """Bicubic periodic interpolation of planes on an nx x ny grid of the torus.

    The planes come as rfft2 coefficients.  The cubic B-spline prefilter is
    diagonal in Fourier space (Unser, Aldroubi & Eden 1993): it divides by
    the spline's symbol (4 + 2 cos(2 pi k / n)) / 6 on each axis, so each
    plane's spline coefficients cost one multiply by the inverse symbol and
    one inverse transform.  They are kept point-major, one
    (nx * ny, planes) array.  A call builds each point's stencil once, 4
    B-spline weights per axis on 16 wrapped grid nodes, as one sparse
    matrix with 16 entries per row, and one sparse product evaluates every
    plane; values come back stacked on axis 0.
    """

    def __init__(self, hats, shape):
        nx, ny = self.shape = shape
        self.dx, self.dy = TWO_PI / nx, TWO_PI / ny
        sx = (4.0 + 2.0 * np.cos(TWO_PI * np.fft.fftfreq(nx))) / 6.0
        sy = (4.0 + 2.0 * np.cos(TWO_PI * np.fft.rfftfreq(ny))) / 6.0
        inv_symbol = 1.0 / (sx[:, None] * sy[None, :])
        self._coeffs = np.empty((nx * ny, len(hats)))
        coeffs = self._coeffs.reshape(nx, ny, len(hats))
        for i, h in enumerate(hats):
            coeffs[..., i] = np.fft.irfft2(h * inv_symbol, s=shape)

    def __call__(self, points):
        """Evaluate at points of shape (..., 2); returns (planes, ...)."""
        pts = np.asarray(points)
        nx, ny = self.shape
        wx, ix = _stencil((pts[..., 0] / self.dx).ravel(), nx)
        wy, iy = _stencil((pts[..., 1] / self.dy).ravel(), ny)
        n = wx.shape[1]
        # (16, n) products, transposed so each point's 16 entries are one CSR row
        weights = (wx[:, None] * wy[None, :]).reshape(16, n).T.ravel()
        nodes = (ix[:, None] * ny + iy[None, :]).reshape(16, n).T.ravel()
        rows = np.arange(0, 16 * n + 1, 16, dtype=np.int32)
        from scipy import sparse  # imported by the first call, not by the package

        stencil = sparse.csr_array((weights, nodes, rows), shape=(n, nx * ny))
        out = stencil @ self._coeffs
        return out.T.reshape((out.shape[1],) + pts.shape[:-1])


def _stencil(c, n):
    """Cubic B-spline weights (4, k) and wrapped node indices (4, k) at grid
    coordinates c on a periodic axis of n nodes: nodes floor(c) - 1 ..
    floor(c) + 2, weights of the fractional part t = c - floor(c)."""
    base = np.floor(c)
    t = c - base
    s = 1.0 - t
    weights = np.stack([s * s * s, (t * t * (t - 2.0)) * 3.0 + 4.0,
                        (s * s * (s - 2.0)) * 3.0 + 4.0, t * t * t]) / 6.0
    nodes = (base.astype(np.int32) + np.arange(-1, 3, dtype=np.int32)[:, None]) % n
    return weights, nodes


def _split_velocity(vals):
    """(u, grad u) with shapes (..., 2) and (..., 2, 2) from point-major
    values (..., 6) of (u1, u2, d_x u1, d_y u1, d_x u2, d_y u2); both are
    views of ``vals``."""
    return vals[..., :2], vals[..., 2:].reshape(vals.shape[:-1] + (2, 2))


class StageVelocity:
    """Provider built from the four RK4 stage velocities of a model step.

    ``stages`` are the stage velocity fields from models.step_detailed, in
    stage order.  Each stage's interpolator is built here over the
    coefficients of five planes: u1, u2, d_x u1, d_y u1 and d_x u2, each
    prefiltered (five inverse transforms per stage).  ``provider(stage,
    points)`` returns (u, grad u) of that stage at the points, with
    d_y u2 = -d_x u1: grad u is trace-free by construction, which drops
    the round-off divergence of the Biot-Savart velocities and IIE's
    solver-tolerance divergence.  Stage k of the flow-map step reads stage
    k of the field step.
    """

    def __init__(self, stages):
        self._stages = []
        for w in stages:
            g = w.grid
            u1, u2 = w.u.hat, w.v.hat
            hats = (u1, u2, *gradient_hat(g, u1), derivative_hat(g, u2, 1, 0))
            self._stages.append(PeriodicInterpolator(hats, (g.nx, g.ny)))

    def __call__(self, stage, points):
        planes = self._stages[stage](points)
        vals = np.empty(planes.shape[1:] + (6,))
        vals[..., :5] = np.moveaxis(planes, 0, -1)
        np.negative(vals[..., 2], out=vals[..., 5])
        return _split_velocity(vals)


def analytic_velocity(u_fn, grad_fn):
    """Provider from closed-form u_fn(x, y) -> (u1, u2) and grad_fn(x, y) ->
    (d_x u1, d_y u1, d_x u2, d_y u2); every stage reads the same field."""

    def provider(stage, points):
        x, y = points[..., 0], points[..., 1]
        shape = points.shape[:-1]
        return _split_velocity(np.stack([np.broadcast_to(c, shape)
                                         for c in (*u_fn(x, y), *grad_fn(x, y))], axis=-1))

    return provider


@dataclass
class FlowMapEnsemble:
    """Particle positions X(t, a) and Jacobians grad X(t, a) on an m x m label grid."""

    labels: np.ndarray  # (m, m, 2)
    x: np.ndarray       # (m, m, 2)
    jac: np.ndarray     # (m, m, 2, 2); jac[i,j,a,b] = dX_a/da_b
    t: float

    @property
    def m(self):
        return self.labels.shape[0]


def identity_ensemble(m=64):
    h = TWO_PI / m
    a1 = h * np.arange(m)
    A1, A2 = np.meshgrid(a1, a1, indexing="ij")
    labels = np.stack([A1, A2], axis=-1)
    jac = np.zeros((m, m, 2, 2))
    jac[..., 0, 0] = 1.0
    jac[..., 1, 1] = 1.0
    return FlowMapEnsemble(labels=labels, x=labels.copy(), jac=jac, t=0.0)


def advect_flow_map(ens, provider, dt):
    """One RK4 step of the coupled position/Jacobian system.

    ``provider(stage, pts)`` returns (u, grad u) at the wrapped positions
    pts, with shapes (..., 2) and (..., 2, 2), for the RK4 stage index
    0..3; the positions themselves stay unwrapped.
    """
    x0, g0 = ens.x, ens.jac

    def f(stage, x, g):
        dx, gu = provider(stage, np.mod(x, TWO_PI))
        return dx, _matmul_2x2(gu, g)

    k1x, k1g = f(0, x0, g0)
    k2x, k2g = f(1, x0 + 0.5 * dt * k1x, g0 + 0.5 * dt * k1g)
    k3x, k3g = f(2, x0 + 0.5 * dt * k2x, g0 + 0.5 * dt * k2g)
    k4x, k4g = f(3, x0 + dt * k3x, g0 + dt * k3g)

    x = x0 + (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
    g = g0 + (dt / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
    t = ens.t + dt
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(g))):
        raise InstabilityError(f"non-finite flow map at t = {t}")
    return FlowMapEnsemble(labels=ens.labels, x=x, jac=g, t=t)


def _matmul_2x2(a, b):
    """a . b for stacks of 2x2 matrices, one plane product per entry."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape))
    for i in range(2):
        for j in range(2):
            out[..., i, j] = a[..., i, 0] * b[..., 0, j] + a[..., i, 1] * b[..., 1, j]
    return out


def jacobian_norms(ens):
    """(sup |grad X|, sup |grad A|, max |det grad X - 1|) over the ensemble.

    grad A along the image points is the pointwise inverse of grad X, so
    both suprema come straight from the particle Jacobians.
    """
    g = ens.jac
    fwd = operator_norm_2x2(g[..., 0, 0], g[..., 0, 1], g[..., 1, 0], g[..., 1, 1])
    det = g[..., 0, 0] * g[..., 1, 1] - g[..., 0, 1] * g[..., 1, 0]
    # inverse of a 2x2: swap diagonal, negate off-diagonal, divide by det
    inv = operator_norm_2x2(g[..., 1, 1], -g[..., 0, 1], -g[..., 1, 0], g[..., 0, 0])
    inv = inv / np.abs(det)
    return float(np.max(fwd)), float(np.max(inv)), float(np.max(np.abs(det - 1.0)))


# ---------------------------------------------------------------------------
# back-to-label map
# ---------------------------------------------------------------------------

def _on_labels(m, planes):
    """Periodic bicubic interpolation of planes sampled on the m x m label
    grid; each plane must be periodic in the label."""
    return PeriodicInterpolator([np.fft.rfft2(p) for p in planes], (m, m))


def _map_residual(targets, labels, dx, dy):
    """targets - X(labels) on the torus, in [-pi, pi), from the displacement
    X - a = (dx, dy) interpolated at the labels."""
    x_at = np.mod(labels + np.stack([dx, dy], axis=-1), TWO_PI)
    return np.mod(targets - x_at + np.pi, TWO_PI) - np.pi


def back_to_label(ens, grid):
    """Inverse flow map A on the grid: nearest label seed plus two Newton steps.

    Returns an (nx, ny, 2) array of labels with X(A(x)) = x up to
    interpolation error.  Each Newton step reads X - a and grad X at the
    current labels from one interpolator over the label grid; the
    displacement uses the unwrapped lift kept by advect_flow_map, so it is
    smooth and periodic in the label even when particles travel far.
    """
    m = ens.m
    pos = np.mod(ens.x.reshape(-1, 2), TWO_PI)
    shifts = np.array([[sx, sy] for sx in (-TWO_PI, 0.0, TWO_PI)
                       for sy in (-TWO_PI, 0.0, TWO_PI)])
    tiled = (pos[None, :, :] + shifts[:, None, :]).reshape(-1, 2)
    from scipy.spatial import cKDTree

    tree = cKDTree(tiled)

    targets = np.stack([grid.X, grid.Y], axis=-1).reshape(-1, 2)
    _, idx = tree.query(targets, k=1)
    idx = idx % (m * m)
    labels = ens.labels.reshape(-1, 2)[idx]

    disp = ens.x - ens.labels
    label_map = _on_labels(m, (disp[..., 0], disp[..., 1],
                               *(ens.jac[..., a, b] for a in range(2) for b in range(2))))
    for _ in range(2):
        dx, dy, a, b, c, d = label_map(labels)
        r = _map_residual(targets, labels, dx, dy)
        det = a * d - b * c
        da = (d * r[:, 0] - b * r[:, 1]) / det
        db = (-c * r[:, 0] + a * r[:, 1]) / det
        labels = np.mod(labels + np.stack([da, db], axis=-1), TWO_PI)
    return labels.reshape(grid.nx, grid.ny, 2)


# ---------------------------------------------------------------------------
# stretching and memory series
# ---------------------------------------------------------------------------

@dataclass
class StretchingSeries:
    """Diagnostics rows of a run: M, N, the measured stretching, the memory
    integrals Q / Y / Z and the norms behind them.

    ``rows`` holds one dict per row, keyed by run.csv's column names, plus
    lowercase keys that run.csv does not carry: log M and log N,
    ||grad u||_inf and ||grad u||_{1,p}, the Kato quotient and the memory
    integrands, read by the next row's trapezoids, the calibration and the
    run's Kato supremum.  M and N accumulate trapezoidally in log
    space from the instantaneous integrands; Q, Y, Z follow each model's
    definition with Mdot, Ndot taken from the analytic relations
    Mdot = ||grad u||_inf M and Ndot = ||grad u||_{1,p} N (no finite
    differencing).
    """

    kind: ModelKind
    p: float = 4.0
    rows: list = field(default_factory=list)

    def column(self, name):
        """One column as a float array; a quantity the model does not carry
        (None) reads as nan."""
        return np.array([row[name] for row in self.rows], dtype=float)


def exp_or_inf(x):
    """exp(x) as a float, inf where it would overflow."""
    return math.exp(x) if x < 709.0 else math.inf


def _total(orders, k):
    """W^{k,p} norm from per-order lists of L^p terms (orders 0..k)."""
    return sum(t for terms in orders[:k + 1] for t in terms)


def _perp_planes(planes):
    """The order-j planes of grad^perp f = (-f_y, f_x), as the pairs
    (d^alpha f_y, d^alpha f_x) for alpha = (j, 0), ..., (0, j), from f's
    order-(j + 1) planes.

    The first component is left unnegated: a row reads it only through
    squares, in |v| and in the squared determinant of
    fields.operator_norm_2x2, so its sign drops out exactly.
    """
    return [(planes[a + 1], planes[a]) for a in range(len(planes) - 1)]


def _grad_laplacian(planes):
    """grad Lap f = (f_xxx + f_xyy, f_xxy + f_yyy) from f's order-3 planes."""
    return planes[0] + planes[2], planes[1] + planes[3]


def record(series, state, ens=None):
    """Append one diagnostics row at the state's time and return it.

    Every norm of the row is read off derivative planes of the potentials,
    each plane one inverse transform built once.  For the Biot-Savart
    models u = grad^perp psi with psi = Lap^{-1} omega, so psi's order-2 and
    order-3 planes give u's table to order 2 (||u||_{2,p}, ||grad u||_inf,
    ||grad u||_{1,p}) and grad omega = grad Lap psi (||omega||_{1,p} and,
    with ||omega||_inf, the Kato ratio).  IIE's u is not K omega and is
    divergence-free only to the solver tolerance, so it keeps u's own
    table and omega's gradient.  rho's table to order 2 gives
    ||rho||_{2,p}.  For MHD, B = grad^perp rho and J = Lap rho: B itself
    (cached on the state) holds rho's order-1 planes, and rho's order-2 and
    order-3 planes give B's table (||B||_{2,p}), J and grad J; then
    xi, eta = omega +- J take their orders <= 1 from those sums and their
    order 2 from their own coefficients, for Y (orders <= 1) and Z
    (orders <= 2).

    Odd-order multipliers zero the Nyquist mode and even-order ones do not,
    so a plane read off a potential (psi_yy for d_y u1) and the same plane
    of the derived field differ on the Nyquist row and column.  The RK4
    tendencies are dealiased, so the fields carry no Nyquist content and
    the two agree to round-off.

    The row is chord-arc checked before its memory columns are computed,
    and appended only once it is complete: a ChordArcError leaves the
    series as it was.
    """
    if ens is not None and abs(ens.t - state.t) > 1e-12 * max(1.0, abs(state.t)):
        raise InstabilityError(
            f"ensemble time {ens.t} does not match state time {state.t}")
    p, g, kind = series.p, state.grid, state.kind
    area = g.cell_area

    def norms(*planes):
        return [lp_norm(c, p, area) for c in planes]

    def velocity_order(planes):
        layers = grad_layers(planes)
        sup = float(np.max(layers[0])) if len(planes) == 2 else None  # order 1: grad u
        return lp_terms(planes, p, area), sup, norms(*layers)

    u = state.velocity()
    omega = state.vorticity()
    if kind is ModelKind.IIE:
        orders = derivative_orders((u.u, u.v), 2, velocity_order)
        grad_omega = gradient_values(g, omega.hat)
    else:
        orders = [velocity_order([(u.u.values, u.v.values)])]
        psi = inverse_laplacian_hat(g, omega.hat)
        for j in (2, 3):  # u's orders 1 and 2
            psi_planes = derivative_planes(g, psi, j)
            orders.append(velocity_order(_perp_planes(psi_planes)))
        grad_omega = _grad_laplacian(psi_planes)
    (u0, _, _), (u1, g_m, n1), (u2, _, n2) = orders
    g_n = sum(n1 + n2)
    prev = series.rows[-1] if series.rows else None
    row = {"t": state.t, "grad_u_inf": g_m, "grad_u_w1p": g_n,
           "M_measured": None, "detJ_err": None}

    def integrate(name, rate):
        """row[name]: its trapezoid over the integrand row[rate] from the
        previous row, 0 at the first row."""
        row[name] = (0.0 if prev is None else
                     prev[name] + 0.5 * (state.t - prev["t"]) * (prev[rate] + row[rate]))

    integrate("log_m", "grad_u_inf")
    integrate("log_n", "grad_u_w1p")
    m_now = row["M"] = exp_or_inf(row["log_m"])
    n_now = row["N"] = exp_or_inf(row["log_n"])
    if ens is not None:
        fwd, inv, row["detJ_err"] = jacobian_norms(ens)
        measured = row["M_measured"] = max(fwd, inv)
        if measured > m_now * (1.0 + CHORD_ARC_TOL):
            raise ChordArcError(
                f"measured stretching {measured:.6f} exceeds M = {m_now:.6f} "
                f"at t = {state.t}")

    omega_inf = row["omega_inf"] = omega.max_abs()
    omega_w1p = row["omega_w1p"] = sum(norms(omega.values, *grad_omega))
    u_inf = row["u_inf"] = u.max_abs()
    u_w2p = row["u_w2p"] = sum(u0 + u1 + u2)
    row["kato"] = kato_quotient(g_m, omega_inf, omega_w1p)
    row.update(rho_w2p=None, B_w2p=None, Q=None, Y=None, Z=None)
    rho = state.density()

    if kind in MHD_KINDS:
        b = state.magnetic_field()
        rho_planes = derivative_planes(g, rho.hat, 2)
        current = rho_planes[0] + rho_planes[2]
        # rho's order-1 planes are (rho_x, rho_y) = (B2, -B1)
        row["rho_w2p"] = _total([norms(rho.values), norms(b.v.values, b.u.values),
                                 norms(*rho_planes)], 2)
        b_orders = [lp_terms([(b.u.values, b.v.values)], p, area),
                    lp_terms(_perp_planes(rho_planes), p, area)]
        rho_planes = derivative_planes(g, rho.hat, 3)
        b_orders.append(lp_terms(_perp_planes(rho_planes), p, area))
        grad_current = _grad_laplacian(rho_planes)
        b_norm = row["B_w2p"] = _total(b_orders, 2)
        if kind is ModelKind.MHD_ELSASSER:
            xi_eta = state.coeffs
        else:
            j_hat = state.current_hat()
            xi_eta = (omega.hat + j_hat, omega.hat - j_hat)
        terms = [[norms(omega.values + sign * current),
                  norms(*(w + sign * j for w, j in zip(grad_omega, grad_current))),
                  norms(*derivative_planes(g, hat, 2))]
                 for sign, hat in zip((1.0, -1.0), xi_eta)]
        row["Y"] = sum(_total(t, 1) for t in terms)
        row["Z"] = sum(_total(t, 2) for t in terms)
        row["q_dot"] = u_w2p * b_norm
        integrate("Q", "q_dot")
    else:
        if rho is not None:
            row["rho_w2p"] = sobolev_norm(rho, 2, p)
        if kind is ModelKind.BOUSSINESQ:
            row["y_dot"] = m_now + n_now
            integrate("Y", "y_dot")
            integrate("Z", "M")
        elif kind is ModelKind.IIE:
            row["q_dot"] = g_m * (m_now + n_now) * u_inf + g_m * g_n * m_now**2
            integrate("Q", "q_dot")
        # Euler carries no memory terms
    series.rows.append(row)
    return row


# ---------------------------------------------------------------------------
# Duhamel reconstruction
# ---------------------------------------------------------------------------

def _pull_back(jac, f1, f2):
    """grad* X . F at the particles: (G_{j0} F_j, G_{j1} F_j) for G = grad X."""
    return (jac[..., 0, 0] * f1 + jac[..., 1, 0] * f2,
            jac[..., 0, 1] * f1 + jac[..., 1, 1] * f2)


def _force_at(state, pos):
    """grad(dE/drho) of the state's model at the points pos, as (F1, F2)."""
    kind = state.kind
    if kind is ModelKind.BOUSSINESQ:  # dE/drho = -x2: the constant (0, -1)
        return np.zeros(pos.shape[:-1]), np.full(pos.shape[:-1], -1.0)
    g = state.grid
    if kind is ModelKind.IIE:
        u = state.velocity()
        hats = gradient_hat(g, np.fft.rfft2(0.5 * (u.u.values**2 + u.v.values**2)))
    elif kind in MHD_KINDS:
        hats = gradient_hat(g, -state.current_hat())
    else:
        raise ReconstructionError(f"model {kind} has no Duhamel forcing")
    return PeriodicInterpolator(hats, (g.nx, g.ny))(pos)


class DuhamelHistory:
    """Trapezoidal accumulator of grad*X . grad(dE/drho)(X) along particles.

    Memory stays O(m^2): only the running integral and the previous
    integrand are kept, not the full step history.
    """

    def __init__(self, state, ens):
        if ens.t != state.t:
            raise ReconstructionError("history must start with state and ensemble aligned")
        g = state.grid
        rho0 = state.density()
        if rho0 is None:
            raise ReconstructionError("Duhamel reconstruction needs a density")
        hats = (state.vorticity().hat, *gradient_hat(g, rho0.hat))
        self.omega0, gx, gy = PeriodicInterpolator(hats, (g.nx, g.ny))(ens.labels)
        self.perp0 = np.stack([-gy, gx], axis=-1)  # grad^perp rho0 at the labels
        self.integral = np.zeros_like(self.perp0)
        self.t = state.t
        self._prev = self._integrand(state, ens)

    def _integrand(self, state, ens):
        f1, f2 = _force_at(state, np.mod(ens.x, TWO_PI))
        return np.stack(_pull_back(ens.jac, f1, f2), axis=-1)

    def update(self, state, ens):
        if abs(ens.t - state.t) > 1e-12 * max(1.0, abs(state.t)):
            raise ReconstructionError("state and ensemble out of sync")
        dt = state.t - self.t
        if dt <= 0:
            raise ReconstructionError("history updates must advance in time")
        cur = self._integrand(state, ens)
        self.integral += 0.5 * dt * (self._prev + cur)
        self._prev = cur
        self.t = state.t


def duhamel_vorticity(ens, history, grid):
    """Reconstruct the Eulerian vorticity from the particle-wise Duhamel integral.

    omega = (omega0 - grad^perp rho0 . int grad*X grad(dE/drho)(X)) o A,
    with A obtained by inverse interpolation of the ensemble.
    """
    if abs(history.t - ens.t) > 1e-12 * max(1.0, abs(ens.t)):
        raise ReconstructionError(
            f"history at t = {history.t} but ensemble at t = {ens.t}")
    w_labels = np.einsum("...k,...k->...", history.perp0, history.integral)
    values = history.omega0 - w_labels
    labels = back_to_label(ens, grid)
    rec = _on_labels(ens.m, (values,))(labels)[0]
    return ScalarField(grid, rec)

