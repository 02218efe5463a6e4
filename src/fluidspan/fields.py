"""Fourier-spectral scalar/vector fields on the periodic square [0, 2pi)^2.

Each operator is implemented once, as a kernel on rfft2 coefficient arrays
(``*_hat`` functions): derivatives multiply by i^(a+b) kx^a ky^b, and a
quadratic term is formed pointwise in physical space and brought back by
one forward transform masked by the grid's 2/3 rule (Orszag 1971).  The
time integrator in :mod:`fluidspan.models` works on these kernels directly.

:class:`ScalarField` carries physical samples on a uniform nx x ny grid
together with an on-demand rfft2 mirror; the field-level toolbox
(derivatives, inverse Laplacian, Biot-Savart, Poisson bracket, advection,
dealiasing) wraps the kernels.  Fields are immutable after construction:
every operation returns a new field, so they are safe to share across
threads.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatchError, ParameterError, SolvabilityError

TWO_PI = 2.0 * np.pi

# Fraction of the Nyquist range kept by dealias (Orszag's 2/3 rule).
DEALIAS_FRACTION = 2.0 / 3.0


class Grid:
    """Uniform periodic grid on the 2pi x 2pi torus.

    Parameters
    ----------
    nx, ny : int
        Grid points per axis; must be even and >= 8.
    """

    def __init__(self, nx, ny=None):
        if ny is None:
            ny = nx
        if nx < 8 or ny < 8 or nx % 2 or ny % 2:
            raise ParameterError(f"grid must be even and >= 8, got {nx} x {ny}")
        self.nx = int(nx)
        self.ny = int(ny)
        self.dx = TWO_PI / self.nx
        self.dy = TWO_PI / self.ny
        self.cell_area = self.dx * self.dy

        self.x = self.dx * np.arange(self.nx)
        self.y = self.dy * np.arange(self.ny)
        self.X, self.Y = np.meshgrid(self.x, self.y, indexing="ij")

        # Wavenumbers of the rfft2 half plane as a column (nx, 1) and a row
        # (1, ny//2 + 1) that broadcast against coefficient arrays.
        self.KX = np.fft.fftfreq(self.nx, d=1.0 / self.nx)[:, None]
        self.KY = np.fft.rfftfreq(self.ny, d=1.0 / self.ny)[None, :]
        self.K2 = self.KX**2 + self.KY**2
        self._k2_safe = self.K2.copy()
        self._k2_safe[0, 0] = 1.0

        # Odd-order derivative multipliers zero the Nyquist mode, which has
        # no well-defined sign on an even grid.
        self.KXd = self.KX.copy()
        self.KXd[self.nx // 2] = 0.0
        self.KYd = self.KY.copy()
        self.KYd[:, -1] = 0.0

        cut_x = DEALIAS_FRACTION * (self.nx / 2)
        cut_y = DEALIAS_FRACTION * (self.ny / 2)
        self.dealias_keep = (np.abs(self.KX) <= cut_x) & (np.abs(self.KY) <= cut_y)

    def __eq__(self, other):
        return isinstance(other, Grid) and self.nx == other.nx and self.ny == other.ny

    def __hash__(self):
        return hash((self.nx, self.ny))

    def __repr__(self):
        return f"Grid({self.nx}x{self.ny})"


class ScalarField:
    """Periodic scalar with dual physical/spectral representation."""

    __slots__ = ("grid", "values", "_hat")

    def __init__(self, grid, values, _hat=None):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (grid.nx, grid.ny):
            raise GridMismatchError(
                f"values of shape {values.shape} on grid {grid.nx}x{grid.ny}"
            )
        self.grid = grid
        # Freeze a view so the field is immutable without touching the
        # caller's array.
        self.values = values.view()
        self.values.setflags(write=False)
        self._hat = _hat

    @classmethod
    def from_function(cls, grid, fn):
        return cls(grid, fn(grid.X, grid.Y))

    @classmethod
    def from_hat(cls, grid, hat):
        return cls(grid, to_physical(grid, hat), _hat=hat)

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.nx, grid.ny)))

    @property
    def hat(self):
        if self._hat is None:
            self._hat = np.fft.rfft2(self.values)
        return self._hat

    @property
    def mean(self):
        return float(self.hat[0, 0].real) / (self.grid.nx * self.grid.ny)

    def max_abs(self):
        return float(np.max(np.abs(self.values)))

    # Pointwise arithmetic; products of near-Nyquist content alias and
    # should be followed by dealias().
    def __add__(self, other):
        return ScalarField(self.grid, self.values + _coerce(self, other))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - _coerce(self, other))

    def __rsub__(self, other):
        return ScalarField(self.grid, _coerce(self, other) - self.values)

    def __mul__(self, other):
        return ScalarField(self.grid, self.values * _coerce(self, other))

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return ScalarField(self.grid, -self.values)

    def __repr__(self):
        return f"ScalarField({self.grid!r}, max|f|={self.max_abs():.3e})"


class VectorField:
    """Pair of scalar components on a shared grid."""

    __slots__ = ("grid", "u", "v")

    def __init__(self, u, v):
        if u.grid != v.grid:
            raise GridMismatchError("vector components live on different grids")
        self.grid = u.grid
        self.u = u
        self.v = v

    def max_abs(self):
        return float(np.sqrt(np.max(self.u.values**2 + self.v.values**2)))

    def __mul__(self, scalar):
        return VectorField(self.u * scalar, self.v * scalar)

    __rmul__ = __mul__


def _coerce(field, other):
    if isinstance(other, ScalarField):
        if other.grid != field.grid:
            raise GridMismatchError("fields live on different grids")
        return other.values
    return other


def same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatchError("fields live on different grids")
    return g


# ---------------------------------------------------------------------------
# kernels on rfft2 coefficient arrays
# ---------------------------------------------------------------------------

_I_POWERS = (1.0, 1j, -1.0, -1j)


def to_physical(grid, hat):
    return np.fft.irfft2(hat, s=(grid.nx, grid.ny))


def dealias_hat(grid, hat):
    """Zero every mode beyond the grid's dealias cutoff."""
    return hat * grid.dealias_keep


def product_hat(grid, values):
    """Dealiased coefficients of a quadratic term sampled on the grid: one
    forward transform, masked."""
    return dealias_hat(grid, np.fft.rfft2(values))


def derivative_hat(grid, hat, a, b):
    """Coefficients of d_x^a d_y^b f: hat times i^(a+b) kx^a ky^b.

    Odd orders use the wavenumbers with the Nyquist mode zeroed.  A pure x
    or y derivative multiplies by a column or a row, not a full plane.
    """
    kx = grid.KXd if a % 2 else grid.KX
    ky = grid.KYd if b % 2 else grid.KY
    if b == 0:
        return (_I_POWERS[a % 4] * kx**a) * hat
    if a == 0:
        return (_I_POWERS[b % 4] * ky**b) * hat
    return _I_POWERS[(a + b) % 4] * (kx**a * ky**b) * hat


def inverse_laplacian_hat(grid, hat):
    """Coefficients of the mean-zero g with Laplace(g) = f - mean(f)."""
    out = -hat / grid._k2_safe
    out[0, 0] = 0.0
    return out


def velocity_hat(grid, omega_hat):
    """Coefficients of u = grad^perp Laplace^{-1} omega, as (u1, u2)."""
    psi = inverse_laplacian_hat(grid, omega_hat)
    return -derivative_hat(grid, psi, 0, 1), derivative_hat(grid, psi, 1, 0)


def _gradient_values(grid, hat):
    return (to_physical(grid, derivative_hat(grid, hat, 1, 0)),
            to_physical(grid, derivative_hat(grid, hat, 0, 1)))


def advection_hat(grid, u1, u2, f_hat):
    """Dealiased coefficients of u . grad f for physical velocity components."""
    fx, fy = _gradient_values(grid, f_hat)
    return product_hat(grid, u1 * fx + u2 * fy)


def bracket_hat(grid, f_hat, g_hat):
    """Dealiased coefficients of {f, g} = grad^perp f . grad g."""
    fx, fy = _gradient_values(grid, f_hat)
    gx, gy = _gradient_values(grid, g_hat)
    return product_hat(grid, fx * gy - fy * gx)


# ---------------------------------------------------------------------------
# field-level toolbox
# ---------------------------------------------------------------------------

def spectral_derivative(f, alpha):
    """Return the partial derivative d^alpha f for a multi-index alpha.

    alpha = (a, b) with a + b <= 4 differentiates a times in x and b times
    in y by multiplying spectral coefficients with i^(a+b) kx^a ky^b.
    """
    a, b = int(alpha[0]), int(alpha[1])
    if a < 0 or b < 0 or a + b > 4:
        raise ParameterError(f"multi-index {alpha} outside |alpha| <= 4")
    if a == 0 and b == 0:
        return f
    return ScalarField.from_hat(f.grid, derivative_hat(f.grid, f.hat, a, b))


def gradient(f):
    return VectorField(spectral_derivative(f, (1, 0)), spectral_derivative(f, (0, 1)))


def divergence(w):
    return spectral_derivative(w.u, (1, 0)) + spectral_derivative(w.v, (0, 1))


def curl(w):
    """Scalar curl of a 2D vector field: dv/dx - du/dy."""
    return spectral_derivative(w.v, (1, 0)) - spectral_derivative(w.u, (0, 1))


def laplacian(f):
    return ScalarField.from_hat(f.grid, -f.grid.K2 * f.hat)


def _require_mean_zero(f, mean_tol):
    """The torus Laplacian is only invertible on mean-zero data."""
    scale = f.max_abs()
    m = f.mean
    if abs(m) > mean_tol * max(scale, 1e-300):
        raise SolvabilityError(
            f"inverse Laplacian needs a mean-zero field; offending mean = {m:.3e}"
        )


def invert_laplacian(f, mean_tol=1e-10):
    """Solve Laplace(g) = f for the unique mean-zero g.

    A right-hand side whose mean exceeds mean_tol * max|f| raises
    SolvabilityError.
    """
    _require_mean_zero(f, mean_tol)
    return ScalarField.from_hat(f.grid, inverse_laplacian_hat(f.grid, f.hat))


def biot_savart(omega, mean_tol=1e-10):
    """Velocity u = grad^perp Laplace^{-1} omega; div-free with curl u = omega."""
    _require_mean_zero(omega, mean_tol)
    g = omega.grid
    u1, u2 = velocity_hat(g, omega.hat)
    return VectorField(ScalarField.from_hat(g, u1), ScalarField.from_hat(g, u2))


def dealias(f):
    """Zero every mode beyond the grid's dealias cutoff (idempotent)."""
    return ScalarField.from_hat(f.grid, dealias_hat(f.grid, f.hat))


def poisson_bracket(f, g):
    """Poisson bracket {f, g} = grad^perp f . grad g, dealiased.

    Antisymmetric to round-off; {f, c} = 0 for constant c.
    """
    grid = same_grid(f, g)
    return ScalarField.from_hat(grid, bracket_hat(grid, f.hat, g.hat))


def advection(w, f):
    """Transport term u . grad f, dealiased."""
    grid = same_grid(w.u, f)
    return ScalarField.from_hat(grid, advection_hat(grid, w.u.values, w.v.values, f.hat))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lp_norm(values, p, cell_area):
    """L^p norm by uniform-grid quadrature; p = inf is the grid supremum."""
    if np.isinf(p):
        return float(np.max(np.abs(values)))
    return float((np.sum(np.abs(values) ** p) * cell_area) ** (1.0 / p))


def derivative_orders(fields, k, reduce):
    """[reduce(planes of order j) for j = 0..k] over the derivatives of ``fields``.

    The planes of order j are a list over alpha = (j, 0), (j-1, 1), ...,
    (0, j) of tuples holding d^alpha f for each f in ``fields``
    (ScalarFields on one grid).  Order 0 is the fields' own samples; every
    other plane is one inverse transform of :func:`derivative_hat`.  Each
    order is reduced before the next is built, so only one order's planes
    are held at a time.
    """
    grid = same_grid(*fields)
    out = [reduce([tuple(f.values for f in fields)])]
    for j in range(1, k + 1):
        out.append(reduce([
            tuple(to_physical(grid, derivative_hat(grid, f.hat, a, j - a)) for f in fields)
            for a in range(j, -1, -1)
        ]))
    return out


def lp_terms(planes, p, cell_area):
    """||d^alpha f||_p for each alpha of one order's planes; the components
    of a vector field enter through their pointwise Euclidean magnitude."""
    return [lp_norm(c[0] if len(c) == 1 else np.sqrt(sum(x**2 for x in c)), p, cell_area)
            for c in planes]


def sobolev_terms(fields, k, p):
    """Per order j = 0..k, the list of ||d^alpha f||_p over |alpha| = j, from
    one derivative table of ``fields`` (see :func:`lp_terms`)."""
    area = fields[0].grid.cell_area
    return derivative_orders(fields, k, lambda planes: lp_terms(planes, p, area))


def sobolev_norm(f, k, p):
    """W^{k,p} norm: sum over |alpha| <= k of ||d^alpha f||_p.

    Requires p > 2 (or p = inf), matching the standing assumption of every
    estimate this norm feeds.
    """
    if not (p > 2):
        raise ParameterError(f"Sobolev norms are only defined here for p > 2, got p = {p}")
    if k < 0 or k > 4:
        raise ParameterError(f"k must lie in 0..4, got {k}")
    return sum(t for terms in sobolev_terms((f,), k, p) for t in terms)


def operator_norm_2x2(a11, a12, a21, a22):
    """Pointwise spectral (largest singular value) norm of a 2x2 matrix field."""
    s = a11**2 + a12**2 + a21**2 + a22**2
    d = a11 * a22 - a12 * a21
    disc = np.maximum(s**2 - 4.0 * d**2, 0.0)
    return np.sqrt(0.5 * (s + np.sqrt(disc)))


def grad_layers(planes):
    """Pointwise operator norms of d^beta grad u, |beta| = j - 1, from the
    order-j planes of u = (u1, u2), in the order of beta = (j-1, 0), ...

    grad u is the matrix (d_x u1, d_y u1; d_x u2, d_y u2), so d^beta grad u
    takes the planes of beta + (1, 0) and beta + (0, 1), which are
    neighbours in the order's list.
    """
    return [operator_norm_2x2(lo[0], hi[0], lo[1], hi[1])
            for lo, hi in zip(planes[:-1], planes[1:])]


def grad_u_inf_norm(w):
    """Grid supremum of the pointwise operator norm of grad u."""
    _, (layer,) = derivative_orders((w.u, w.v), 1, grad_layers)
    return float(np.max(layer))


def kato_quotient(grad_u_inf, omega_inf, omega_w1p):
    """||grad u||_inf / [(1 + log(2 + ||omega||_{1,p})) ||omega||_inf] from the
    three norms: the log-Sobolev ratio of the conditional Beale-Kato-Majda
    bound (0 for a quiescent state)."""
    denom = (1.0 + np.log(2.0 + omega_w1p)) * omega_inf
    if denom == 0.0:
        return 0.0 if grad_u_inf == 0.0 else np.inf
    return grad_u_inf / denom


def kato_ratio(w, omega, p):
    """:func:`kato_quotient` of the velocity w and its vorticity omega.

    Finite for every smooth field; the verification suite records its
    supremum over all exercised fields.
    """
    return kato_quotient(grad_u_inf_norm(w), omega.max_abs(), sobolev_norm(omega, 1, p))


def half_plane_weights(grid):
    """Multiplicity of each rfft2 coefficient in the full spectrum: 2 on the
    interior ky columns, 1 on ky = 0 and on the Nyquist column (ny is even),
    so sum(w |f_hat|^2) / (nx ny) = sum(f^2) by Parseval."""
    w = np.full((grid.nx, grid.ny // 2 + 1), 2.0)
    w[:, 0] = w[:, -1] = 1.0
    return w


def tail_enstrophy_fraction(omega, band=0.125):
    """Fraction of enstrophy carried by the top ``band`` of wavenumbers.

    Uses the max(|kx|, |ky|) annulus against the Nyquist range; a fraction
    above ~1e-6 flags resolution loss.
    """
    g = omega.grid
    hat = omega.hat
    power = half_plane_weights(g) * np.abs(hat) ** 2
    kmax = min(g.nx, g.ny) / 2
    ring = np.maximum(np.abs(g.KX), np.abs(g.KY)) > (1.0 - band) * kmax
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    return float(np.sum(power[ring])) / total
