"""Fourier-spectral scalar/vector fields on the periodic square [0, 2pi)^2.

Each operator is implemented once, as a kernel on rfft2 coefficient arrays
(``*_hat`` functions): derivatives multiply by i^(a+b) kx^a ky^b, and a
quadratic term is formed pointwise in physical space and brought back by
one forward transform masked by the grid's 2/3 rule (Orszag 1971).  The
time integrator in :mod:`fluidspan.models` works on these kernels directly.

Every forward transform of the package is :func:`to_spectral`: an rfft2
into a half plane it makes, so the complex pass along x runs in place in
the array the real pass along y just wrote, not into a second plane.

:class:`ScalarField` carries physical samples on a uniform nx x ny grid
together with an on-demand rfft2 mirror; the field-level toolbox
(derivatives, inverse Laplacian, Biot-Savart, Poisson bracket, dealiasing)
wraps the kernels.  Fields are immutable after construction: every
operation returns a new field.

Kernels return new arrays.  Under glibc, importing this module sets one
allocator policy for the process (:func:`_keep_freed_memory`): freed
planes stay in the process for reuse instead of going back to the kernel,
so a time step's temporaries are not faulted in again, and the resident
set stays at its peak until exit.  Elsewhere (macOS, musl) nothing is set,
and a step faults its planes in again.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import GridMismatchError, ParameterError, SolvabilityError

TWO_PI = 2.0 * np.pi

# Fraction of the Nyquist range kept by dealias (Orszag's 2/3 rule).
DEALIAS_FRACTION = 2.0 / 3.0

# Largest mean, relative to the rms, that the inverse Laplacian accepts.
MEAN_TOL = 1e-10

# glibc's mallopt parameters (<malloc.h>).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Keep freed memory in the process for glibc's malloc to reuse.

    By default glibc maps each block above a threshold (128 KiB, a 128^2
    plane, at first, sliding up to the largest mapped block freed) on its
    own, and trims its heap top once more than twice that is free there: a
    freed plane goes back to the kernel and the next is faulted in again
    page by page, most of an RK4 march's page faults.  Setting either
    threshold freezes the other (mallopt(3)), so the trim threshold is set
    only once the mapping threshold is: frozen below a 256^2 plane, that
    one would map every such plane.  32 MiB is the sliding threshold's own
    ceiling on 64-bit systems and the most that older versions accept;
    1 GiB of free heap top is more than a run frees.  Nothing is set where
    mallopt is missing (macOS, Windows) or refuses the mapping threshold
    (musl's stub).
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 1 << 30)


_keep_freed_memory()


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
        # The inverse Laplacian's multiplier -1/K^2, with the mean mode zeroed.
        k2_safe = self.K2.copy()
        k2_safe[0, 0] = 1.0
        self.neg_inv_k2 = -1.0 / k2_safe
        self.neg_inv_k2[0, 0] = 0.0

        # Odd-order derivative multipliers zero the Nyquist mode, which has
        # no well-defined sign on an even grid.
        self.KXd = self.KX.copy()
        self.KXd[self.nx // 2] = 0.0
        self.KYd = self.KY.copy()
        self.KYd[:, -1] = 0.0
        cut_x = DEALIAS_FRACTION * (self.nx / 2)
        cut_y = DEALIAS_FRACTION * (self.ny / 2)
        self.dealias_keep = (np.abs(self.KX) <= cut_x) & (np.abs(self.KY) <= cut_y)
        # The multipliers of -d_x d_y and d_x^2 - d_y^2 (a stress's curl div),
        # zero beyond the dealias cutoff: times a product's plain rfft2 they
        # give the masked product's derivative.
        self.kxky = self.KXd * self.KYd * self.dealias_keep
        self.ky2_minus_kx2 = (self.KYd**2 - self.KXd**2) * self.dealias_keep
        # Read-only, for tail_enstrophy_fraction: each rfft2 coefficient's
        # multiplicity in the full spectrum (2 on the interior ky columns, 1
        # on ky = 0 and on the Nyquist column, ny being even), and the ring
        # max(|kx| / (nx/2), |ky| / (ny/2)) > 7/8 of the top eighth of
        # wavenumbers, each axis held against its own Nyquist.
        self.half_plane_weights = np.full((self.nx, self.ny // 2 + 1), 2.0)
        self.half_plane_weights[:, 0] = self.half_plane_weights[:, -1] = 1.0
        self.tail_ring = np.maximum(np.abs(self.KX) / (self.nx / 2),
                                    np.abs(self.KY) / (self.ny / 2)) > 0.875
        self.half_plane_weights.setflags(write=False)
        self.tail_ring.setflags(write=False)

    def __eq__(self, other):
        return isinstance(other, Grid) and self.nx == other.nx and self.ny == other.ny

    def __hash__(self):
        return hash((self.nx, self.ny))

    def __repr__(self):
        return f"Grid({self.nx}x{self.ny})"


class ScalarField:
    """Periodic scalar with dual physical/spectral representation.

    ``hat`` holds the rfft2 coefficients: the array given at construction;
    or, when ``_hat`` is a function, what it returns on each read (the
    components of a Biot-Savart velocity read theirs off the vorticity's
    and keep none); else one forward transform of the samples, made on the
    first read and kept.
    """

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
        if callable(self._hat):
            return self._hat()
        if self._hat is None:
            self._hat = to_spectral(self.grid, self.values)
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

    def __sub__(self, other):
        return ScalarField(self.grid, self.values - _coerce(self, other))

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


def to_spectral(grid, values):
    """rfft2 coefficients of the samples ``values``, bit for bit those of
    ``np.fft.rfft2(values)``: the real pass along y writes the half plane
    made here, and the complex pass along x runs in it."""
    return np.fft.rfft2(values, out=np.empty((grid.nx, grid.ny // 2 + 1), complex))


def to_physical(grid, hat):
    """Samples of the field with rfft2 coefficients ``hat``."""
    return np.fft.irfft2(hat, s=(grid.nx, grid.ny))


def dealias_hat(grid, hat):
    """Zero every mode beyond the grid's dealias cutoff."""
    return hat * grid.dealias_keep


def product_hat(grid, values):
    """Dealiased coefficients of a quadratic term sampled on the grid: one
    forward transform, masked in place."""
    hat = to_spectral(grid, values)
    hat *= grid.dealias_keep
    return hat


def derivative_hat(grid, hat, a, b):
    """Coefficients of d_x^a d_y^b f: hat times i^(a+b) kx^a ky^b.

    Odd orders use the wavenumbers with the Nyquist mode zeroed.  A pure x
    or y derivative multiplies by a column or a row, a mixed one by a full
    plane.
    """
    kx = grid.KXd if a % 2 else grid.KX
    ky = grid.KYd if b % 2 else grid.KY
    if b == 0:
        return _I_POWERS[a % 4] * kx**a * hat
    if a == 0:
        return _I_POWERS[b % 4] * ky**b * hat
    return _I_POWERS[(a + b) % 4] * (kx**a * ky**b) * hat


def derivative_values(grid, hat, a, b):
    """d_x^a d_y^b f on the grid: one inverse transform."""
    return to_physical(grid, derivative_hat(grid, hat, a, b))


def inverse_laplacian_hat(grid, hat):
    """Coefficients of the mean-zero g with Laplace(g) = f - mean(f)."""
    return grid.neg_inv_k2 * hat


def velocity_hat(grid, omega_hat):
    """Coefficients of u = grad^perp Laplace^{-1} omega, as (u1, u2).  An
    omega whose mean exceeds MEAN_TOL times its rms raises SolvabilityError
    (see :func:`invert_laplacian`)."""
    _require_mean_zero(grid, omega_hat, MEAN_TOL)
    psi = inverse_laplacian_hat(grid, omega_hat)
    return _perp_hat(grid, psi, 0), _perp_hat(grid, psi, 1)


def _perp_hat(grid, psi_hat, a):
    """Coefficients of component a of grad^perp psi = (-d_y psi, d_x psi)."""
    u = derivative_hat(grid, psi_hat, a, 1 - a)
    return u if a else np.negative(u, out=u)


def gradient_hat(grid, hat):
    """Coefficients of (d_x f, d_y f)."""
    return derivative_hat(grid, hat, 1, 0), derivative_hat(grid, hat, 0, 1)


def gradient_values(grid, hat):
    """(d_x f, d_y f) on the grid: two inverse transforms."""
    return derivative_values(grid, hat, 1, 0), derivative_values(grid, hat, 0, 1)


def derivative_planes(grid, hat, j):
    """The order-j derivatives d^alpha f on the grid, alpha = (j, 0), (j-1, 1),
    ..., (0, j): one inverse transform each."""
    return [derivative_values(grid, hat, a, j - a) for a in range(j, -1, -1)]


def bracket_hat(grid, f_hat, g_hat):
    """Dealiased coefficients of {f, g} = grad^perp f . grad g."""
    fx, fy = gradient_values(grid, f_hat)
    gx, gy = gradient_values(grid, g_hat)
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


def half_plane_dot(a, b):
    """Re sum(conj(A) B) over the full spectrum from the rfft2 half planes a, b
    (interior ky columns twice, ky = 0 and Nyquist once): nx ny times the grid
    sum of the two fields' product, by Parseval.  Builds no temporary."""
    full = 2.0 * np.vdot(a, b) - np.vdot(a[:, 0], b[:, 0]) - np.vdot(a[:, -1], b[:, -1])
    return float(full.real)


def _require_mean_zero(grid, hat, mean_tol):
    """The torus Laplacian is only invertible on mean-zero data.

    Both the mean hat[0, 0] / (nx ny) and the scale it is held against,
    the field's rms, come from the coefficients: the rms by Parseval
    (:func:`half_plane_dot`).
    """
    size = grid.nx * grid.ny
    m = float(hat[0, 0].real) / size
    rms = np.sqrt(max(half_plane_dot(hat, hat), 0.0)) / size
    if abs(m) > mean_tol * max(rms, 1e-300):
        raise SolvabilityError(
            f"inverse Laplacian needs a mean-zero field; offending mean = {m:.3e}"
        )


def invert_laplacian(f, mean_tol=MEAN_TOL):
    """Solve Laplace(g) = f for the unique mean-zero g.

    A right-hand side whose mean exceeds mean_tol times its rms raises
    SolvabilityError; rms <= max|f|, so this is at least as strict as a
    bound by mean_tol * max|f|.
    """
    _require_mean_zero(f.grid, f.hat, mean_tol)
    return ScalarField.from_hat(f.grid, inverse_laplacian_hat(f.grid, f.hat))


def biot_savart(omega):
    """Velocity u = grad^perp Laplace^{-1} omega; div-free with curl u = omega.

    An omega whose mean exceeds MEAN_TOL times its rms raises
    SolvabilityError (see :func:`invert_laplacian`).
    """
    return biot_savart_coeffs(omega.grid, omega.hat)


def biot_savart_coeffs(grid, omega_hat):
    """:func:`biot_savart` from omega's rfft2 coefficients: two inverse
    transforms, none for omega itself.  The components keep their samples
    and ``omega_hat``, not coefficients of their own: each reads its
    coefficients off omega_hat whenever asked, as :func:`velocity_hat` does
    (no transform), so omega_hat must not change while they are in use."""

    def component_hat(a):
        return _perp_hat(grid, inverse_laplacian_hat(grid, omega_hat), a)

    u1, u2 = (to_physical(grid, h) for h in velocity_hat(grid, omega_hat))
    return VectorField(ScalarField(grid, u1, lambda: component_hat(0)),
                       ScalarField(grid, u2, lambda: component_hat(1)))


def dealias(f):
    """Zero every mode beyond the grid's dealias cutoff (idempotent)."""
    return ScalarField.from_hat(f.grid, dealias_hat(f.grid, f.hat))


def poisson_bracket(f, g):
    """Poisson bracket {f, g} = grad^perp f . grad g, dealiased.

    Antisymmetric to round-off; {f, c} = 0 for constant c.
    """
    grid = same_grid(f, g)
    return ScalarField.from_hat(grid, bracket_hat(grid, f.hat, g.hat))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def lp_norm(values, p, cell_area):
    """L^p norm by uniform-grid quadrature; p = inf is the grid supremum.

    |v|^p is taken as (v^2) ** (p / 2): numpy squares for exponent 2, so
    the default p = 4 needs no pow.
    """
    if np.isinf(p):
        return float(np.max(np.abs(values)))
    return _lp_of_squares(np.square(values), p, cell_area)


def _lp_of_squares(squares, p, cell_area):
    """L^p norm of the field whose pointwise squares are ``squares``."""
    if np.isinf(p):
        return float(np.sqrt(np.max(squares)))
    return float((np.sum(squares ** (p / 2)) * cell_area) ** (1.0 / p))


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
        planes = [derivative_planes(grid, f.hat, j) for f in fields]
        out.append(reduce(list(zip(*planes))))
    return out


def lp_terms(planes, p, cell_area):
    """||d^alpha f||_p for each alpha of one order's planes; the components
    of a vector field enter through their pointwise Euclidean magnitude,
    passed on squared (no sqrt before the power)."""
    return [lp_norm(c[0], p, cell_area) if len(c) == 1
            else _lp_of_squares(sum(x**2 for x in c), p, cell_area) for c in planes]


def sobolev_norm(f, k, p):
    """W^{k,p} norm: sum over |alpha| <= k of ||d^alpha f||_p.

    Requires p > 2 (or p = inf), matching the standing assumption of every
    estimate this norm feeds.
    """
    if not (p > 2):
        raise ParameterError(f"Sobolev norms are only defined here for p > 2, got p = {p}")
    if k < 0 or k > 4:
        raise ParameterError(f"k must lie in 0..4, got {k}")
    orders = derivative_orders((f,), k, lambda planes: lp_terms(planes, p, f.grid.cell_area))
    return sum(t for terms in orders for t in terms)


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


def kato_ratio(w, omega, p):
    """||grad u||_inf / [(1 + log(2 + ||omega||_{1,p})) ||omega||_inf] of the
    velocity w and its vorticity omega: the log-Sobolev ratio of the
    conditional Beale-Kato-Majda bound (0 for a quiescent state).

    Finite for every smooth field; the verification suite records its
    supremum over all exercised fields.
    """
    grad_u_inf = grad_u_inf_norm(w)
    denom = (1.0 + np.log(2.0 + sobolev_norm(omega, 1, p))) * omega.max_abs()
    if denom == 0.0:
        return 0.0 if grad_u_inf == 0.0 else np.inf
    return grad_u_inf / denom


def tail_enstrophy_fraction(omega):
    """Fraction of enstrophy carried by the top eighth of wavenumbers (the
    grid's ``tail_ring``, weighted by its ``half_plane_weights``); a
    fraction above ~1e-6 flags resolution loss."""
    g = omega.grid
    power = np.abs(omega.hat)
    power *= power
    power *= g.half_plane_weights
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0
    return float(np.sum(power[g.tail_ring])) / total
