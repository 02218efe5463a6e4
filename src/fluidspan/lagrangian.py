"""Flow-map particle ensemble and the Lagrangian stretching diagnostics.

A square ensemble of particles seeded at labels a is advected by RK4 on
dX/dt = u(t, X) while the Jacobian is transported along each path by
d(grad X)/dt = grad u(X) . grad X.  Velocities and their gradients are
evaluated at particle positions with periodic bicubic interpolation
(O(dx^4) error against the spectral fields).

On top of the ensemble this module tracks the stretching quantities

    M = exp(C_M int ||grad u||_inf),   N = exp(C_N int ||grad u||_{1,p}),

their measured counterpart sup(|grad X|, |grad A|), the model-specific
memory integrals Q / Y / Z, the Duhamel vorticity reconstruction, and
numerical checks of the linear-transport inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy import ndimage
from scipy.spatial import cKDTree

from .errors import ChordArcError, InstabilityError, ReconstructionError
from .fields import (
    ScalarField,
    VectorField,
    derivative_orders,
    grad_layers,
    gradient,
    kato_quotient,
    lp_norm,
    lp_terms,
    operator_norm_2x2,
    sobolev_norm,
    sobolev_terms,
    spectral_derivative,
    TWO_PI,
)
from .models import MHD_KINDS, ModelKind

_SPLINE_ORDER = 3


class PeriodicInterpolator:
    """Bicubic periodic interpolation of one gridded scalar.

    ``grid`` only needs the spacings dx and dy; it is taken from the field
    when a ScalarField is given.
    """

    def __init__(self, field_or_values, grid=None):
        if isinstance(field_or_values, ScalarField):
            self.grid = field_or_values.grid
            values = field_or_values.values
        else:
            self.grid = grid
            values = field_or_values
        self._coeffs = ndimage.spline_filter(values, order=_SPLINE_ORDER, mode="grid-wrap")

    def __call__(self, points):
        """Evaluate at points of shape (..., 2)."""
        pts = np.asarray(points)
        coords = np.stack([pts[..., 0] / self.grid.dx, pts[..., 1] / self.grid.dy])
        return ndimage.map_coordinates(
            self._coeffs, coords.reshape(2, -1), order=_SPLINE_ORDER,
            mode="grid-wrap", prefilter=False,
        ).reshape(pts.shape[:-1])


def _label_interpolator(values):
    """Periodic bicubic interpolation over the m x m label grid."""
    h = TWO_PI / values.shape[0]
    return PeriodicInterpolator(values, grid=SimpleNamespace(dx=h, dy=h))


class FrozenFieldVelocity:
    """Velocity provider backed by one gridded snapshot (ignores t and stage)."""

    def __init__(self, w: VectorField):
        self.grid = w.grid
        self._u = PeriodicInterpolator(w.u)
        self._v = PeriodicInterpolator(w.v)
        _, ((a, c), (b, d)) = derivative_orders((w.u, w.v), 1, lambda planes: planes)
        self._grad = [PeriodicInterpolator(g, grid=w.grid) for g in (a, b, c, d)]

    def velocity_at(self, t, points, stage):
        return np.stack([self._u(points), self._v(points)], axis=-1)

    def gradient_at(self, t, points, stage):
        a, b, c, d = (g(points) for g in self._grad)
        out = np.empty(points.shape[:-1] + (2, 2))
        out[..., 0, 0] = a
        out[..., 0, 1] = b
        out[..., 1, 0] = c
        out[..., 1, 1] = d
        return out


class AnalyticVelocity:
    """Velocity provider from closed-form u(t, x, y) and grad u(t, x, y)
    (ignores the stage)."""

    def __init__(self, u_fn, grad_fn):
        self.u_fn = u_fn
        self.grad_fn = grad_fn

    def velocity_at(self, t, points, stage):
        u, v = self.u_fn(t, points[..., 0], points[..., 1])
        return np.stack([np.broadcast_to(u, points.shape[:-1]),
                         np.broadcast_to(v, points.shape[:-1])], axis=-1)

    def gradient_at(self, t, points, stage):
        a, b, c, d = self.grad_fn(t, points[..., 0], points[..., 1])
        out = np.empty(points.shape[:-1] + (2, 2))
        out[..., 0, 0] = np.broadcast_to(a, points.shape[:-1])
        out[..., 0, 1] = np.broadcast_to(b, points.shape[:-1])
        out[..., 1, 0] = np.broadcast_to(c, points.shape[:-1])
        out[..., 1, 1] = np.broadcast_to(d, points.shape[:-1])
        return out


class StageVelocity:
    """Provider built from the RK4 stage velocities of a model step.

    ``stages`` are the four stage velocity fields from
    models.step_detailed, in stage order; stage k of the flow-map step
    reads stage k of the field step.
    """

    def __init__(self, stages):
        self._stages = [FrozenFieldVelocity(w) for w in stages]

    def velocity_at(self, t, points, stage):
        return self._stages[stage].velocity_at(t, points, stage)

    def gradient_at(self, t, points, stage):
        return self._stages[stage].gradient_at(t, points, stage)


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

    ``provider`` exposes velocity_at(t, pts, stage) -> (..., 2) and
    gradient_at(t, pts, stage) -> (..., 2, 2), where stage is the RK4 stage
    index 0..3; positions wrap on the torus.
    """
    t = ens.t
    x0, g0 = ens.x, ens.jac

    def f(stage, ti, x, g):
        dx = provider.velocity_at(ti, np.mod(x, TWO_PI), stage)
        gu = provider.gradient_at(ti, np.mod(x, TWO_PI), stage)
        dg = np.einsum("...ab,...bc->...ac", gu, g)
        return dx, dg

    k1x, k1g = f(0, t, x0, g0)
    k2x, k2g = f(1, t + 0.5 * dt, x0 + 0.5 * dt * k1x, g0 + 0.5 * dt * k1g)
    k3x, k3g = f(2, t + 0.5 * dt, x0 + 0.5 * dt * k2x, g0 + 0.5 * dt * k2g)
    k4x, k4g = f(3, t + dt, x0 + dt * k3x, g0 + dt * k3g)

    x = x0 + (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
    g = g0 + (dt / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(g))):
        raise InstabilityError(f"non-finite flow map at t = {t + dt}")
    return FlowMapEnsemble(labels=ens.labels, x=x, jac=g, t=t + dt)


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

def _label_interpolators(ens):
    """Periodic interpolators over the label grid for X - a and grad X.

    The displacement uses the unwrapped lift kept by advect_flow_map, so it
    is smooth and periodic in the label even when particles travel far.
    """
    disp = ens.x - ens.labels
    disp_i = [_label_interpolator(disp[..., k]) for k in range(2)]
    jac_i = [_label_interpolator(ens.jac[..., a, b]) for a in range(2) for b in range(2)]
    return disp_i, jac_i


def _eval_map(disp_i, labels):
    dx = disp_i[0](labels)
    dy = disp_i[1](labels)
    return np.mod(labels + np.stack([dx, dy], axis=-1), TWO_PI)


def back_to_label(ens, grid, newton_steps=2):
    """Inverse flow map A on the grid: nearest label seed plus Newton polish.

    Returns an (nx, ny, 2) array of labels with X(A(x)) = x up to
    interpolation error.
    """
    m = ens.m
    pos = np.mod(ens.x.reshape(-1, 2), TWO_PI)
    shifts = np.array([[sx, sy] for sx in (-TWO_PI, 0.0, TWO_PI)
                       for sy in (-TWO_PI, 0.0, TWO_PI)])
    tiled = (pos[None, :, :] + shifts[:, None, :]).reshape(-1, 2)
    tree = cKDTree(tiled)

    targets = np.stack([grid.X, grid.Y], axis=-1).reshape(-1, 2)
    _, idx = tree.query(targets, k=1)
    idx = idx % (m * m)
    labels = ens.labels.reshape(-1, 2)[idx]

    disp_i, jac_i = _label_interpolators(ens)
    for _ in range(newton_steps):
        x_at = _eval_map(disp_i, labels)
        r = np.mod(targets - x_at + np.pi, TWO_PI) - np.pi
        a, b, c, d = (ji(labels) for ji in jac_i)
        det = a * d - b * c
        da = (d * r[:, 0] - b * r[:, 1]) / det
        db = (-c * r[:, 0] + a * r[:, 1]) / det
        labels = np.mod(labels + np.stack([da, db], axis=-1), TWO_PI)
    return labels.reshape(grid.nx, grid.ny, 2)


def back_to_label_residual(ens, grid, labels):
    """Grid supremum of |X(A(x)) - x| after inverse interpolation."""
    disp_i, _ = _label_interpolators(ens)
    x_at = _eval_map(disp_i, labels.reshape(-1, 2))
    targets = np.stack([grid.X, grid.Y], axis=-1).reshape(-1, 2)
    r = np.mod(targets - x_at + np.pi, TWO_PI) - np.pi
    return float(np.max(np.hypot(r[:, 0], r[:, 1])))


# ---------------------------------------------------------------------------
# stretching and memory series
# ---------------------------------------------------------------------------

@dataclass
class StretchingSeries:
    """Time series of M, N, the measured stretching, and memory integrals.

    M and N accumulate trapezoidally in log space from the instantaneous
    integrands; Q, Y, Z follow each model's definition with Mdot, Ndot
    taken from the analytic relations Mdot = C_M ||grad u||_inf M and
    Ndot = C_N ||grad u||_{1,p} N (no finite differencing).
    """

    kind: ModelKind
    p: float = 4.0
    c_m: float = 1.0
    c_n: float = 1.0
    chord_arc_tol: float = 1e-3
    t: list = field(default_factory=list)
    log_m: list = field(default_factory=list)
    log_n: list = field(default_factory=list)
    m_measured: list = field(default_factory=list)
    q: list = field(default_factory=list)
    y: list = field(default_factory=list)
    z: list = field(default_factory=list)
    omega_inf: list = field(default_factory=list)
    omega_w1p: list = field(default_factory=list)
    rho_w2p: list = field(default_factory=list)
    u_inf: list = field(default_factory=list)
    u_w2p: list = field(default_factory=list)
    b_w2p: list = field(default_factory=list)
    grad_u_inf: list = field(default_factory=list)
    grad_u_w1p: list = field(default_factory=list)
    detj_err: list = field(default_factory=list)
    kato: list = field(default_factory=list)
    _integrands: dict = field(default_factory=dict)

    def M(self):
        return np.exp(np.array(self.log_m))

    def N(self):
        return np.exp(np.array(self.log_n))

    def times(self):
        return np.array(self.t)


def _total(orders, k):
    """W^{k,p} norm from the per-order L^p terms of fields.sobolev_terms."""
    return sum(t for terms in orders[:k + 1] for t in terms)


def record(series, state, ens=None):
    """Append one diagnostics row at the state's time.

    Each field is differentiated once (fields.derivative_orders) and every
    norm of the row is read off those planes: u to order 2 gives
    ||u||_{2,p}, ||grad u||_inf and ||grad u||_{1,p}; omega to order 1
    gives ||omega||_{1,p} and, with ||omega||_inf, the Kato ratio; rho to
    order 2 gives ||rho||_{2,p}; for MHD, B to order 2 gives ||B||_{2,p}
    and xi, eta to order 2 give Y (orders <= 1) and Z (orders <= 2).  The
    stretching columns are appended and chord-arc checked before the
    memory columns are.
    """
    if ens is not None and abs(ens.t - state.t) > 1e-12 * max(1.0, abs(state.t)):
        raise InstabilityError(
            f"ensemble time {ens.t} does not match state time {state.t}")
    p, g = series.p, state.grid

    def velocity_order(planes):
        layers = grad_layers(planes)
        sup = float(np.max(layers[0])) if len(planes) == 2 else None  # order 1: grad u
        return (lp_terms(planes, p, g.cell_area), sup,
                [lp_norm(layer, p, g.cell_area) for layer in layers])

    u = state.velocity()
    (u0, _, _), (u1, g_m, n1), (u2, _, n2) = derivative_orders((u.u, u.v), 2, velocity_order)
    g_n = sum(n1 + n2)

    if series.t:
        dt = state.t - series.t[-1]
        log_m = series.log_m[-1] + series.c_m * 0.5 * dt * (series.grad_u_inf[-1] + g_m)
        log_n = series.log_n[-1] + series.c_n * 0.5 * dt * (series.grad_u_w1p[-1] + g_n)
    else:
        log_m, log_n = 0.0, 0.0

    if ens is not None:
        fwd, inv, detj = jacobian_norms(ens)
        measured = max(fwd, inv)
    else:
        measured, detj = 1.0, 0.0

    series.t.append(state.t)
    series.grad_u_inf.append(g_m)
    series.grad_u_w1p.append(g_n)
    series.log_m.append(log_m)
    series.log_n.append(log_n)
    series.m_measured.append(measured)
    series.detj_err.append(detj)

    m_now = math.exp(log_m) if log_m < 709.0 else math.inf
    n_now = math.exp(log_n) if log_n < 709.0 else math.inf
    if series.c_m == 1.0 and measured > m_now * (1.0 + series.chord_arc_tol):
        raise ChordArcError(
            f"measured stretching {measured:.6f} exceeds M = {m_now:.6f} "
            f"at t = {state.t}")

    omega = state.vorticity()
    omega_inf = omega.max_abs()
    omega_w1p = sobolev_norm(omega, 1, p)
    series.omega_inf.append(omega_inf)
    series.omega_w1p.append(omega_w1p)
    series.u_inf.append(u.max_abs())
    series.u_w2p.append(sum(u0 + u1 + u2))
    series.kato.append(kato_quotient(g_m, omega_inf, omega_w1p))
    rho = state.density()
    series.rho_w2p.append(sobolev_norm(rho, 2, p) if rho is not None else np.nan)

    kind = state.kind
    if kind in MHD_KINDS:
        b = state.magnetic_field()
        b_norm = _total(sobolev_terms((b.u, b.v), 2, p), 2)
        series.b_w2p.append(b_norm)
        if kind is ModelKind.MHD_ELSASSER:
            xi, eta = state.xi, state.eta
        else:
            j_hat = -g.K2 * state.coeffs[1]
            xi, eta = (ScalarField.from_hat(g, omega.hat + s * j_hat) for s in (1.0, -1.0))
        xi_terms, eta_terms = sobolev_terms((xi,), 2, p), sobolev_terms((eta,), 2, p)
        series.y.append(_total(xi_terms, 1) + _total(eta_terms, 1))
        series.z.append(_total(xi_terms, 2) + _total(eta_terms, 2))
        _accumulate(series, "q", series.u_w2p[-1] * b_norm)
    else:
        series.b_w2p.append(np.nan)
        if kind is ModelKind.BOUSSINESQ:
            _accumulate(series, "y", m_now + n_now)
            _accumulate(series, "z", m_now)
            series.q.append(np.nan)
        elif kind is ModelKind.IIE:
            qdot = (series.c_m * g_m * (m_now + n_now) * series.u_inf[-1]
                    + series.c_m * series.c_n * g_m * g_n * m_now**2)
            _accumulate(series, "q", qdot)
            series.y.append(np.nan)
            series.z.append(np.nan)
        else:  # Euler carries no memory terms
            series.q.append(np.nan)
            series.y.append(np.nan)
            series.z.append(np.nan)
    return series


def _accumulate(series, name, integrand_now):
    """Trapezoidal accumulation of one memory column."""
    target = getattr(series, name)
    if not target:
        target.append(0.0)
    else:
        dt = series.t[-1] - series.t[-2]
        prev = series._integrands[name]
        target.append(target[-1] + 0.5 * dt * (prev + integrand_now))
    series._integrands[name] = integrand_now



# ---------------------------------------------------------------------------
# Duhamel reconstruction
# ---------------------------------------------------------------------------

def _force_field(state):
    """grad(dE/drho) for the state's model, as a VectorField or constant."""
    kind = state.kind
    if kind is ModelKind.BOUSSINESQ:
        return None  # constant (0, -1), handled without interpolation
    if kind is ModelKind.IIE:
        u = state.velocity()
        kin = ScalarField(state.grid, 0.5 * (u.u.values**2 + u.v.values**2))
        return gradient(kin)
    if kind in MHD_KINDS:
        current = state.current()
        return -1.0 * gradient(current)
    raise ReconstructionError(f"model {kind} has no Duhamel forcing")


class DuhamelHistory:
    """Trapezoidal accumulator of grad*X . grad(dE/drho)(X) along particles.

    Memory stays O(m^2): only the running integral and the previous
    integrand are kept, not the full step history.
    """

    def __init__(self, state, ens):
        if ens.t != state.t:
            raise ReconstructionError("history must start with state and ensemble aligned")
        grid = state.grid
        rho0 = state.density()
        if rho0 is None:
            raise ReconstructionError("Duhamel reconstruction needs a density")
        omega0 = state.vorticity()
        pts = ens.labels
        self.omega0 = PeriodicInterpolator(omega0)(pts)
        gx = spectral_derivative(rho0, (1, 0))
        gy = spectral_derivative(rho0, (0, 1))
        # grad^perp rho0 at the labels
        self.perp0 = np.stack(
            [-PeriodicInterpolator(gy)(pts), PeriodicInterpolator(gx)(pts)], axis=-1)
        self.integral = np.zeros_like(self.perp0)
        self.t = state.t
        self._prev = self._integrand(state, ens)

    def _integrand(self, state, ens):
        pos = np.mod(ens.x, TWO_PI)
        if state.kind is ModelKind.BOUSSINESQ:
            f1 = np.zeros(pos.shape[:-1])
            f2 = np.full(pos.shape[:-1], -1.0)
        else:
            w = _force_field(state)
            f1 = PeriodicInterpolator(w.u)(pos)
            f2 = PeriodicInterpolator(w.v)(pos)
        g = ens.jac
        # (grad* X . F)_i = G_{ji} F_j
        w1 = g[..., 0, 0] * f1 + g[..., 1, 0] * f2
        w2 = g[..., 0, 1] * f1 + g[..., 1, 1] * f2
        return np.stack([w1, w2], axis=-1)

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
    rec = _label_interpolator(values)(labels.reshape(-1, 2))
    return ScalarField(grid, rec.reshape(grid.nx, grid.ny))


# ---------------------------------------------------------------------------
# transport-lemma checks
# ---------------------------------------------------------------------------

def check_transport_lemma(ens, f, p):
    """Both sides of ||grad(f o X)||_r <= ||grad X||_inf ||grad f||_r, r in {p, inf}.

    Returns a dict of (lhs, rhs, margin) per r; margins should be
    nonnegative up to interpolation error.
    """
    grid = f.grid
    _, ((fx,), (fy,)) = derivative_orders((f,), 1, lambda planes: planes)
    pos = np.mod(ens.x, TWO_PI)
    f1 = PeriodicInterpolator(fx, grid=grid)(pos)
    f2 = PeriodicInterpolator(fy, grid=grid)(pos)
    g = ens.jac
    w1 = g[..., 0, 0] * f1 + g[..., 1, 0] * f2
    w2 = g[..., 0, 1] * f1 + g[..., 1, 1] * f2
    mags = np.hypot(w1, w2)

    m = ens.m
    label_area = (TWO_PI / m) ** 2
    sup_jac = jacobian_norms(ens)[0]
    grad_f = np.hypot(fx, fy)
    out = {}
    for r in (p, np.inf):
        lhs = lp_norm(mags, r, label_area)
        rhs = sup_jac * lp_norm(grad_f, r, grid.cell_area)
        out[r] = {"lhs": lhs, "rhs": rhs, "margin": rhs - lhs}
    return out


def check_w1p_bounds(series, delta, c_fit):
    """Margins of the a-priori W^{1,p} bounds along a recorded series.

    omega side: ||omega||_{1,p} <= c (1 + M + delta M Q_K) with Q_K the
    model's forcing memory; rho side: ||rho||_{2,p} <= c (1 + delta (M + N + M^2)).
    Returns per-sample margins (rhs - lhs >= 0 when c_fit is adequate).
    """
    m_arr = series.M()
    n_arr = series.N()
    omega_margins = []
    rho_margins = []
    for i, _ in enumerate(series.t):
        if series.kind is ModelKind.BOUSSINESQ:
            q_k = series.y[i]  # K0 = 1, Kp = 0: the memory is int (M + N)
        elif series.kind is ModelKind.IIE:
            q_k = series.q[i]
        else:
            q_k = 0.0
        rhs = c_fit * (1.0 + m_arr[i] + delta * m_arr[i] * q_k)
        omega_margins.append(rhs - series.omega_w1p[i])
        rhs_rho = c_fit * (1.0 + delta * (m_arr[i] + n_arr[i] + m_arr[i] ** 2))
        rho_margins.append(rhs_rho - series.rho_w2p[i])
    return {"omega": np.array(omega_margins), "rho": np.array(rho_margins)}
