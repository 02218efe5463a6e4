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
tendency pseudo-spectrally with the kernels of :mod:`fluidspan.fields`:
derivatives are multipliers, every physical plane a stage needs is built
once (grad rho of the MHD form is read off the state's B = grad^perp rho,
the Elsasser coupling takes four planes of the potentials), and each
field's quadratic terms are summed on the grid and brought back by one
forward transform masked by the grid's 2/3 rule.  Time stepping is
classical RK4 with a CFL-limited step; nothing is renormalized, so every
conservation statement is a measured output.
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
                 mass_mean=1.0, elliptic_tol=1e-10, aux=None):
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
        self.aux = {} if aux is None else aux
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
        """B = grad^perp rho of the MHD models, built from the coefficients
        (two inverse transforms); None for the others."""
        if self.kind not in MHD_KINDS:
            return None

        def build():
            g = self.grid
            rho = self._density_hat()
            return VectorField(ScalarField.from_hat(g, -derivative_hat(g, rho, 0, 1)),
                               ScalarField.from_hat(g, derivative_hat(g, rho, 1, 0)))
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


def _coupling(grid, omega_hat, current_hat):
    """The MHD coupling Q(omega, J) = -2 sum_{jk} d_j u_k d_j d_k phi on the
    grid, u = K omega = grad^perp psi, psi = Lap^{-1} omega, phi = Lap^{-1} J:
    the commutator of the Laplacian with transport, which makes the
    (omega, J) system identical to the (omega, rho) one.

    Written out, Q = 2 (psi_xy (phi_xx - phi_yy) - phi_xy (psi_xx - psi_yy)),
    so it takes four inverse transforms: f_xy and f_xx - f_yy, whose
    multiplier is ky^2 - kx^2, for f = psi and phi.
    """
    psi = inverse_laplacian_hat(grid, omega_hat)
    phi = inverse_laplacian_hat(grid, current_hat)
    saddle = grid.KY**2 - grid.KX**2
    psi_xy, phi_xy = (to_physical(grid, derivative_hat(grid, h, 1, 1)) for h in (psi, phi))
    psi_d, phi_d = (to_physical(grid, saddle * h) for h in (psi, phi))
    return 2.0 * (psi_xy * phi_d - phi_xy * psi_d)


def elsasser_transform(omega, current):
    """Forward map (omega, J) -> (xi, eta) = (omega + J, omega - J)."""
    same_grid(omega, current)
    return omega + current, omega - current


def elsasser_inverse(xi, eta):
    same_grid(xi, eta)
    return 0.5 * (xi + eta), 0.5 * (xi - eta)


def _tendency(state):
    """rfft2 coefficients of the model tendency, ordered like state.coeffs.

    Each field's quadratic terms are summed on the grid and dealiased
    together by one masked forward transform (fields.product_hat), so a
    stage costs one forward transform per field.  Every physical plane is
    built once: the velocity and B come from the state's cache, and the MHD
    form reads grad rho as (B2, -B1).
    """
    g = state.grid
    kind = state.kind
    u = state.velocity()
    u1, u2 = u.u.values, u.v.values
    if kind in MHD_KINDS:
        b = state.magnetic_field()
        b1, b2 = b.u.values, b.v.values

    if kind is ModelKind.MHD_ELSASSER:
        xi, eta = state.coeffs
        (xi_x, xi_y), (eta_x, eta_y) = gradient_values(g, xi), gradient_values(g, eta)
        q = _coupling(g, state.vorticity_hat(), state.current_hat())
        return (product_hat(g, q - (u1 - b1) * xi_x - (u2 - b2) * xi_y),
                product_hat(g, -q - (u1 + b1) * eta_x - (u2 + b2) * eta_y))

    omega = state.coeffs[0]
    omega_x, omega_y = gradient_values(g, omega)
    transport = u1 * omega_x + u2 * omega_y  # u . grad omega
    if kind is ModelKind.EULER:
        return (-product_hat(g, transport),)
    rho = state.coeffs[1]
    if kind is ModelKind.BOUSSINESQ:
        # {dE/drho, rho} with dE/drho = -x2 reduces to the periodic d_x rho.
        domega = -product_hat(g, transport) + derivative_hat(g, rho, 1, 0)
        rho_x, rho_y = gradient_values(g, rho)
    elif kind is ModelKind.MHD_VORTICITY_CURRENT:
        # dE/drho = -J: {-J, rho} = {rho, J} = B . grad J, and grad rho = (B2, -B1)
        j_x, j_y = gradient_values(g, state.current_hat())
        domega = product_hat(g, b1 * j_x + b2 * j_y - transport)
        return domega, -product_hat(g, u1 * b2 - u2 * b1)
    else:  # IIE: dE/drho = |u|^2 / 2
        e_x, e_y = gradient_values(g, product_hat(g, 0.5 * (u1**2 + u2**2)))
        rho_x, rho_y = gradient_values(g, rho)
        domega = product_hat(g, e_x * rho_y - e_y * rho_x - transport)
    return domega, -product_hat(g, u1 * rho_x + u2 * rho_y)


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
    in stage order)."""
    if check_cfl and dt > cfl_limit(state) * (1.0 + 1e-9):
        raise ParameterError(f"dt = {dt:.3e} exceeds the CFL limit {cfl_limit(state):.3e}")
    t, y = state.t, state.coeffs
    stages = []

    def stage(s, idx):
        k = _tendency(s)
        for name, d in zip(FIELD_NAMES[s.kind], k):
            if not np.all(np.isfinite(d)):
                raise InstabilityError(
                    f"RK4 stage {idx}: non-finite tendency in d{name} at t = {s.t}")
        stages.append(s.velocity())
        return k

    def shifted(c, k):
        return [yi + c * ki for yi, ki in zip(y, k)]

    k1 = stage(state, 1)
    k2 = stage(state.advanced(t + 0.5 * dt, shifted(0.5 * dt, k1)), 2)
    k3 = stage(state.advanced(t + 0.5 * dt, shifted(0.5 * dt, k2)), 3)
    k4 = stage(state.advanced(t + dt, shifted(dt, k3)), 4)
    new = [yi + (dt / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
           for yi, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)]
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
