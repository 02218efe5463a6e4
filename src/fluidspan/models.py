"""Right-hand sides and time integration for the four evolution systems.

All models share the energy-vorticity skeleton

    d_t omega + u . grad omega = {dE/drho, rho},
    d_t rho   + u . grad rho   = 0,
    curl(dE/du) = omega,

with the energy functional selecting the model:

* Euler           dE/drho absent, u = K omega (standard Biot-Savart);
* Boussinesq      dE/drho = -x2, whose bracket reduces to d_x rho;
* ideal MHD       dE/drho = -Lap(rho); carrier (omega, rho) with
                  J = Lap(rho), B = grad^perp rho derived spectrally, plus a
                  second integrator in Elsasser variables xi = omega + J,
                  eta = omega - J used for cross-validation;
* inhomogeneous   dE/drho = |u|^2 / 2 and u recovered by the modified
  Euler (IIE)     Biot-Savart law (elliptic module).

The prognostic fields travel through the RK4 stages as one tuple of rfft2
coefficient arrays per model: (omega,) for Euler, (xi, eta) for the
Elsasser form and (omega, rho) otherwise.  Each stage evaluates the
tendency pseudo-spectrally with the kernels of :mod:`fluidspan.fields`.

The four Biot-Savart models are in stress form (Basdevant 1983): with
(div T)_i = d_j T_ji, curl div T = d_x^2 T12 - d_y^2 T21 + d_x d_y (T22 - T11),
and a . grad(curl a) = curl div(a (x) a) for a divergence-free a in 2D.  So
omega_t is -curl div(u (x) u) for Euler (plus d_x rho for Boussinesq) and
curl div(B (x) B - u (x) u) for MHD (J = curl B), and the curls xi, eta of
z+- = u +- B obey xi_t = -curl div(z- (x) z+), eta_t = -curl div(z+ (x) z-).
A stage puts only u and B on the grid.  On the 2/3 band both forms give the
coefficients of one continuous expression, since a masked product of two
fields inside the band is exact there (Orszag 1971); they differ by
round-off, which the second derivatives scale by up to (n/3)^2.  Every
multiplier vanishes at k = 0, so the mean vorticity is conserved exactly.
IIE keeps the advective form: its u is divergence-free only to the solver's
tolerance, and its stress rho u (x) u is cubic.

Time stepping is classical RK4 with a CFL-limited step; nothing is
renormalized, so every conservation statement is a measured output.
"""

from __future__ import annotations

import copy
import enum

import numpy as np

from .elliptic import WarmStart, recover_velocity_detailed
from .errors import InstabilityError, ParameterError, VacuumError
from .fields import (
    ScalarField,
    VectorField,
    biot_savart_coeffs,
    derivative_hat,
    gradient_values,
    inverse_laplacian_hat,
    invert_laplacian,
    laplacian,
    lp_norm,
    product_hat,
    same_grid,
    sobolev_norm,
    to_physical,
    to_spectral,
)


class ModelKind(enum.Enum):
    EULER = "euler"
    BOUSSINESQ = "boussinesq"
    MHD_VORTICITY_CURRENT = "mhd"
    MHD_ELSASSER = "mhd_elsasser"
    IIE = "iie"

    @classmethod
    def parse(cls, name):
        name = name.strip().lower()
        for kind in cls:
            if kind.value == name:
                return kind
        raise ParameterError(f"unknown model '{name}'; expected one of "
                             + ", ".join(k.value for k in cls))


MHD_KINDS = (ModelKind.MHD_VORTICITY_CURRENT, ModelKind.MHD_ELSASSER)

# The prognostic fields of each model, in the order of FluidState.coeffs.
FIELD_NAMES = {
    ModelKind.EULER: ("omega",),
    ModelKind.BOUSSINESQ: ("omega", "rho"),
    ModelKind.MHD_VORTICITY_CURRENT: ("omega", "rho"),
    ModelKind.MHD_ELSASSER: ("xi", "eta"),
    ModelKind.IIE: ("omega", "rho"),
}


class FluidState:
    """Model-tagged prognostic fields at a single time.

    The fields are carried as ``coeffs``, one tuple of rfft2 coefficient
    arrays ordered as FIELD_NAMES[kind].  ``omega``, ``rho``, ``xi`` and
    ``eta`` return them as ScalarFields (None for a field the model does
    not carry); these, the velocity, the vorticity, and for the MHD models
    the magnetic field B and the density are computed at most once per
    state, whoever asks first (cfl, an RK4 stage, a diagnostics row).  The
    velocity (Biot-Savart, or the IIE elliptic solve) is read off the
    vorticity's coefficients, so a stage state never puts the vorticity
    itself on the grid.  The current is not kept.  ``mass_mean`` is the
    mean of rho, fixed by the initial data.

    Confined to one integration thread; ``aux`` carries the per-run
    elliptic history (``warm_start``, the :class:`~fluidspan.elliptic.WarmStart`
    that predicts each solve's start from the earlier ones) and the reports
    of its elliptic solves (``reports``), and is shared across the states
    produced by a stepping sequence.
    """

    def __init__(self, kind, t, omega=None, rho=None, xi=None, eta=None,
                 mass_mean=1.0, elliptic_tol=1e-10):
        given = {"omega": omega, "rho": rho, "xi": xi, "eta": eta}
        names = FIELD_NAMES[kind]
        if any(given[name] is None for name in names):
            raise ParameterError(f"a {kind.value} state needs " + ", ".join(names))
        self.kind = kind
        self.t = t
        self.grid = same_grid(*(given[name] for name in names))
        self.coeffs = tuple(given[name].hat for name in names)
        self.mass_mean = mass_mean
        self.elliptic_tol = elliptic_tol
        self.aux = {}
        self._cache = {name: given[name] for name in names}

    def advanced(self, t, coeffs):
        """The same model and run caches at time t with new coefficients."""
        new = copy.copy(self)
        new.t, new.coeffs, new._cache = t, tuple(coeffs), {}
        return new

    def _field(self, name):
        names = FIELD_NAMES[self.kind]
        if name not in names:
            return None
        if name not in self._cache:
            hat = self.coeffs[names.index(name)]
            self._cache[name] = ScalarField.from_hat(self.grid, hat)
        return self._cache[name]

    omega = property(lambda self: self._field("omega"))
    rho = property(lambda self: self._field("rho"))
    xi = property(lambda self: self._field("xi"))
    eta = property(lambda self: self._field("eta"))

    def _cached(self, name, build):
        if name not in self._cache:
            self._cache[name] = build()
        return self._cache[name]

    def vorticity_hat(self):
        """rfft2 coefficients of the vorticity (for Elsasser, (xi + eta) / 2)."""
        if self.kind is not ModelKind.MHD_ELSASSER:
            return self.coeffs[0]
        xi, eta = self.coeffs
        return self._cached("vorticity_hat", lambda: 0.5 * (xi + eta))

    def vorticity(self):
        """Vorticity (for Elsasser, (xi + eta) / 2)."""
        if self.kind is not ModelKind.MHD_ELSASSER:
            return self.omega
        return self._cached("vorticity",
                            lambda: ScalarField.from_hat(self.grid, self.vorticity_hat()))

    def current_hat(self):
        """Coefficients of the current J = Lap(rho) of the MHD models; None
        for the others."""
        if self.kind is ModelKind.MHD_ELSASSER:
            xi, eta = self.coeffs
            return 0.5 * (xi - eta)
        if self.kind is ModelKind.MHD_VORTICITY_CURRENT:
            return -self.grid.K2 * self.coeffs[1]
        return None

    def _density_hat(self):
        """rho's coefficients: the carried ones, or for Elsasser the inverse
        Laplacian of J with the mean mode set from mass_mean."""
        if self.kind is not ModelKind.MHD_ELSASSER:
            return self.coeffs[1]
        g = self.grid
        hat = inverse_laplacian_hat(g, self.current_hat())
        hat[0, 0] = self.mass_mean * g.nx * g.ny
        return hat

    def density(self):
        if self.kind is not ModelKind.MHD_ELSASSER:
            return self.rho
        return self._cached("density",
                            lambda: ScalarField.from_hat(self.grid, self._density_hat()))

    def magnetic_field(self):
        """B = grad^perp rho of the MHD models, as samples built from the
        coefficients (two inverse transforms); None for the others."""
        if self.kind not in MHD_KINDS:
            return None

        def build():
            g = self.grid
            rho = self._density_hat()
            b1 = -derivative_hat(g, rho, 0, 1)
            b2 = derivative_hat(g, rho, 1, 0)
            return VectorField(ScalarField(g, to_physical(g, b1)),
                               ScalarField(g, to_physical(g, b2)))
        return self._cached("magnetic_field", build)

    def velocity(self):
        """Recovered velocity."""
        return self._cached("velocity", self._recover_velocity)

    def _recover_velocity(self):
        if self.kind is ModelKind.IIE:
            warm = self.aux.setdefault("warm_start", WarmStart())
            u, q_hat, report = recover_velocity_detailed(
                self.rho, self.coeffs[0], tol=self.elliptic_tol,
                q0=warm.predict(self.t),
            )
            warm.record(self.t, q_hat)
            self.aux.setdefault("reports", []).append(report)
            return u
        return biot_savart_coeffs(self.grid, self.vorticity_hat())


def elsasser_transform(omega, current):
    """Forward map (omega, J) -> (xi, eta) = (omega + J, omega - J)."""
    same_grid(omega, current)
    return omega + current, omega - current


def elsasser_inverse(xi, eta):
    same_grid(xi, eta)
    return 0.5 * (xi + eta), 0.5 * (xi - eta)


def _dot(a1, a2, f1, f2):
    """a1 f1 + a2 f2, formed over the planes f1 and f2 and returned in f1."""
    f1 *= a1
    f2 *= a2
    f1 += f2
    return f1


def _neg_curl_div_hat(grid, t12, t22_minus_t11):
    """Coefficients of -curl div T for a symmetric stress T sampled on the
    grid: kx ky (T22 - T11)^ - (ky^2 - kx^2) T12^, two forward transforms."""
    hat = to_spectral(grid, t22_minus_t11)
    hat *= grid.kxky
    s = to_spectral(grid, t12)
    s *= grid.ky2_minus_kx2
    hat -= s
    return hat


def _tendency(state):
    """rfft2 coefficients of the model tendency, ordered like state.coeffs.

    The Biot-Savart models' vorticity tendencies are -curl div of their
    stresses (module docstring): products of u's and B's components, each
    one forward transform times the grid's multipliers kx ky and
    ky^2 - kx^2, which carry the dealias mask.  The Elsasser pair shares
    P = z-1 z+2, R = z-2 z+1 and S = z-2 z+2 - z-1 z+1 (P and R, taken by
    the kx^2 column and the ky^2 row, as masked products):

        xi_t = -(d_x^2 P - d_y^2 R + d_x d_y S),
        eta_t = -(d_x^2 R - d_y^2 P + d_x d_y S).

    Boussinesq's rho and both IIE fields are transported in advective form,
    each field's quadratic terms summed on the grid before one masked
    product.  Sums are formed in place on the planes this function makes:
    a fresh temporary per term costs time as well as memory.
    """
    g = state.grid
    kind = state.kind
    u = state.velocity()
    u1, u2 = u.u.values, u.v.values
    if kind in MHD_KINDS:
        b = state.magnetic_field()
        b1, b2 = b.u.values, b.v.values

    if kind is ModelKind.MHD_ELSASSER:
        # xi = curl z+ is carried by z-, eta = curl z- by z+.
        zm1, zm2, zp1, zp2 = u1 - b1, u2 - b2, u1 + b1, u2 + b2
        p = product_hat(g, zm1 * zp2)
        r = product_hat(g, zm2 * zp1)
        zm2 *= zp2
        zm1 *= zp1
        zm2 -= zm1
        mixed = to_spectral(g, zm2)
        mixed *= g.kxky
        # -(d_x^2 P - d_y^2 R + d_x d_y S) = kx^2 P^ - ky^2 R^ + kx ky S^
        kx2, ky2 = g.KXd**2, g.KYd**2
        pair = []
        for a, c in ((p, r), (r, p)):
            d = kx2 * a
            d -= ky2 * c
            d += mixed
            pair.append(d)
        return tuple(pair)

    if kind is ModelKind.IIE:
        # dE/drho = |u|^2 / 2; omega_t = {|u|^2 / 2, rho} - u . grad omega
        transport = _dot(u1, u2, *gradient_values(g, state.coeffs[0]))
        energy = np.square(u1)
        energy += np.square(u2)
        energy *= 0.5
        e_x, e_y = gradient_values(g, product_hat(g, energy))
        rho_x, rho_y = gradient_values(g, state.coeffs[1])
        e_x *= rho_y  # e_x rho_y - e_y rho_x - transport
        e_y *= rho_x
        e_x -= e_y
        e_x -= transport
        domega = product_hat(g, e_x)
        advection = _dot(u1, u2, rho_x, rho_y)
    elif kind is ModelKind.MHD_VORTICITY_CURRENT:
        # omega_t = curl div(B (x) B - u (x) u)
        domega = _neg_curl_div_hat(g, u1 * u2 - b1 * b2, u2**2 - u1**2 - b2**2 + b1**2)
        advection = u1 * b2 - u2 * b1  # B = (-rho_y, rho_x)
    else:
        # omega_t = -curl div(u (x) u)
        domega = _neg_curl_div_hat(g, u1 * u2, u2**2 - u1**2)
        if kind is ModelKind.EULER:
            return (domega,)
        # Boussinesq: {dE/drho, rho} with dE/drho = -x2 reduces to the periodic d_x rho.
        rho = state.coeffs[1]
        domega += derivative_hat(g, rho, 1, 0)
        advection = _dot(u1, u2, *gradient_values(g, rho))
    drho = product_hat(g, advection)  # -(u . grad rho)
    return domega, np.negative(drho, out=drho)


def cfl_limit(state, cfl_number=0.5):
    """Largest stable step: cfl * dx / wave speed.

    The MHD wave speed is bounded by ||u||_inf + ||B||_inf (both Elsasser
    characteristics).  A quiescent state (wave speed below 1e-12) returns a
    huge but finite value; callers cap it with dt_max.
    """
    g = state.grid
    dx = min(g.dx, g.dy)
    speed = state.velocity().max_abs()
    if state.kind in MHD_KINDS:
        speed += state.magnetic_field().max_abs()
    return cfl_number * dx / max(speed, 1e-12)


def step_detailed(state, dt, check_cfl=True):
    """One classical RK4 step; returns (new_state, the four stage velocities
    in stage order).

    The weighted sum k1 + 2 k2 + 2 k3 + k4 is formed in place on k1, in
    the order of that sum.  Each state the step hands on, the three stage
    states and the new one, gets one new coefficient array per field.
    """
    if check_cfl and dt > cfl_limit(state) * (1.0 + 1e-9):
        raise ParameterError(f"dt = {dt:.3e} exceeds the CFL limit {cfl_limit(state):.3e}")
    t, y = state.t, state.coeffs
    names = FIELD_NAMES[state.kind]
    stages = []

    def stage(st, idx):
        k = _tendency(st)
        for name, d in zip(names, k):
            if not np.all(np.isfinite(d)):
                raise InstabilityError(
                    f"RK4 stage {idx}: non-finite tendency in d{name} at t = {st.t}")
        stages.append(st.velocity())
        return k

    def shifted(c, k):
        """y + c k, as new arrays summed in place."""
        out = [c * ki for ki in k]
        for o, yi in zip(out, y):
            o += yi
        return out

    def add(c, k):
        """total += c k, in place."""
        for a, d in zip(total, k):
            a += c * d

    total = stage(state, 1)  # k1
    k = stage(state.advanced(t + 0.5 * dt, shifted(0.5 * dt, total)), 2)
    for idx, h in ((3, 0.5 * dt), (4, dt)):
        # the next stage reads k before k joins the sum: total = k1 + 2 k2 (+ 2 k3)
        coeffs = shifted(h, k)
        add(2.0, k)
        del k  # not held through the next stage's tendency
        k = stage(state.advanced(t + h, coeffs), idx)
    for a, d in zip(total, k):
        a += d
    new = shifted(dt / 6.0, total)
    if not all(np.all(np.isfinite(c)) for c in new):
        raise InstabilityError(f"non-finite state after RK4 step at t = {t}")
    return state.advanced(t + dt, new), stages


def conserved_quantities(state, p=4):
    """Energies, mass, momentum and vorticity norms of a state.

    Quantities that do not apply to the model are reported as None and end
    up as empty CSV fields.
    """
    g = state.grid
    area = g.cell_area
    u = state.velocity()
    speed2 = u.u.values**2 + u.v.values**2
    e_kin = 0.5 * float(np.sum(speed2)) * area
    omega = state.vorticity()

    out = {
        "E_kinetic": e_kin,
        "E_model": e_kin,
        "mass": None,
        "momentum_x": None,
        "momentum_y": None,
        "cross_helicity": None,
        "omega_p": lp_norm(omega.values, p, area),
        "omega_inf": omega.max_abs(),
        "rho_p": None,
    }

    rho = state.density()
    if rho is not None and state.kind is not ModelKind.EULER:
        out["mass"] = float(np.sum(rho.values)) * area
        out["rho_p"] = lp_norm(rho.values, p, area)

    if state.kind is ModelKind.BOUSSINESQ:
        out["E_model"] = e_kin - float(np.sum(rho.values * g.Y)) * area
    elif state.kind in MHD_KINDS:
        b = state.magnetic_field()
        out["E_model"] = e_kin + 0.5 * float(
            np.sum(b.u.values**2 + b.v.values**2)) * area
        out["cross_helicity"] = float(
            np.sum(u.u.values * b.u.values + u.v.values * b.v.values)) * area
    elif state.kind is ModelKind.IIE:
        out["E_model"] = 0.5 * float(np.sum(rho.values * speed2)) * area
        out["momentum_x"] = float(np.sum(rho.values * u.u.values)) * area
        out["momentum_y"] = float(np.sum(rho.values * u.v.values)) * area
    return out


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

DELTA_NORMS = ("rho_minus_1_W2p", "inv_rho_minus_1_W2p", "rho_minus_1_W3p")


def default_vorticity(grid):
    """Fixed smooth mean-zero profile used by the close-to-Euler runs."""
    return ScalarField.from_function(
        grid, lambda x, y: np.sin(x) * np.sin(y) + 0.7 * np.cos(2 * x + y))


def eigenstate_vorticity(grid):
    """Laplacian eigenfunction sin(x) sin(y): a steady Euler state."""
    return ScalarField.from_function(grid, lambda x, y: np.sin(x) * np.sin(y))


PROFILES = {
    "default": lambda x, y: np.sin(x) * np.cos(y),
    "helical": lambda x, y: np.sin(x) * np.cos(y) + 0.4 * np.sin(x) * np.sin(y),
}


def perturbation_profile(grid, name, k, p):
    """Unit-norm perturbation: theta / ||theta||_{k,p}."""
    try:
        fn = PROFILES[name]
    except KeyError:
        raise ParameterError(f"unknown seed profile '{name}'") from None
    theta = ScalarField.from_function(grid, fn)
    return (1.0 / sobolev_norm(theta, k, p)) * theta


def initial_state(kind, grid, delta=0.0, delta_norm="rho_minus_1_W2p", p=4,
                  seed_profile="default", omega0=None, elliptic_tol=1e-10):
    """Close-to-Euler initial data: fixed omega0, density within delta of 1.

    delta_norm picks the norm in which the perturbation has size exactly
    delta: ||rho0 - 1||_{2,p} (Boussinesq/IIE), ||rho0^{-1} - 1||_{2,p}
    (IIE parametrization), or ||rho0 - 1||_{3,p} (MHD).
    """
    if delta < 0:
        raise ParameterError("delta must be nonnegative")
    if delta_norm not in DELTA_NORMS:
        raise ParameterError(f"unknown delta_norm '{delta_norm}'")
    kind = ModelKind.parse(kind) if isinstance(kind, str) else kind
    omega = omega0 if omega0 is not None else default_vorticity(grid)

    if kind is ModelKind.EULER:
        return FluidState(kind=kind, t=0.0, omega=omega, elliptic_tol=elliptic_tol)

    k = 3 if delta_norm == "rho_minus_1_W3p" else 2
    theta = perturbation_profile(grid, seed_profile, k, p)
    if delta_norm == "inv_rho_minus_1_W2p":
        rho_vals = 1.0 / (1.0 + delta * theta.values)
    else:
        rho_vals = 1.0 + delta * theta.values
    if np.min(rho_vals) <= 0:
        raise VacuumError(f"delta = {delta} drives the density to zero")
    rho = ScalarField(grid, rho_vals)

    if kind is ModelKind.MHD_ELSASSER:
        current = laplacian(rho)
        xi, eta = elsasser_transform(omega, current)
        return FluidState(kind=kind, t=0.0, xi=xi, eta=eta,
                          mass_mean=rho.mean, elliptic_tol=elliptic_tol)
    return FluidState(kind=kind, t=0.0, omega=omega, rho=rho,
                      mass_mean=rho.mean, elliptic_tol=elliptic_tol)


def to_elsasser(state):
    """Re-tag an (omega, rho) MHD state as its Elsasser twin."""
    if state.kind is not ModelKind.MHD_VORTICITY_CURRENT:
        raise ParameterError("expected an MHD vorticity-current state")
    xi, eta = elsasser_transform(state.omega, laplacian(state.rho))
    return FluidState(kind=ModelKind.MHD_ELSASSER, t=state.t, xi=xi, eta=eta,
                      mass_mean=state.rho.mean, elliptic_tol=state.elliptic_tol)


def from_elsasser(state):
    """Project an Elsasser state back onto the (omega, rho) carrier."""
    if state.kind is not ModelKind.MHD_ELSASSER:
        raise ParameterError("expected an Elsasser state")
    omega, current = elsasser_inverse(state.xi, state.eta)
    rho = invert_laplacian(current, mean_tol=np.inf) + state.mass_mean
    return FluidState(kind=ModelKind.MHD_VORTICITY_CURRENT, t=state.t,
                      omega=omega, rho=rho, mass_mean=state.mass_mean,
                      elliptic_tol=state.elliptic_tol)
