import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from fluidspan import models
from fluidspan.errors import InstabilityError, ParameterError
from fluidspan.fields import (
    Grid,
    ScalarField,
    biot_savart,
    bracket_hat,
    derivative_hat,
    derivative_values,
    gradient_values,
    inverse_laplacian_hat,
    laplacian,
    lp_norm,
    poisson_bracket,
    product_hat,
    same_grid,
    sobolev_norm,
)
from fluidspan.lagrangian import StretchingSeries, record
from fluidspan.models import (
    _tendency,
    FluidState,
    MHD_KINDS,
    ModelKind,
    cfl_limit,
    conserved_quantities,
    default_vorticity,
    eigenstate_vorticity,
    elsasser_inverse,
    elsasser_transform,
    from_elsasser,
    initial_state,
    step_detailed,
    to_elsasser,
)


def advection_hat(grid, u1, u2, f_hat):
    """Dealiased coefficients of u . grad f for physical velocity components."""
    fx, fy = gradient_values(grid, f_hat)
    return product_hat(grid, u1 * fx + u2 * fy)


def advection(w, f):
    """Transport term u . grad f, dealiased."""
    grid = same_grid(w.u, f)
    return ScalarField.from_hat(grid, advection_hat(grid, w.u.values, w.v.values, f.hat))


def _q_hat(grid, omega_hat, current_hat):
    """Dealiased coefficients of the MHD coupling Q(omega, J) =
    -2 sum_{jk} d_j u_k d_j d_k phi, u = K omega = grad^perp psi,
    psi = Lap^{-1} omega, phi = Lap^{-1} J: the commutator of the Laplacian
    with transport, which makes the (omega, J) system identical to the
    (omega, rho) one.  Written out,
    Q = 2 (psi_xy (phi_xx - phi_yy) - phi_xy (psi_xx - psi_yy))."""
    planes = []
    for hat in (omega_hat, current_hat):
        f = inverse_laplacian_hat(grid, hat)
        planes.append(derivative_values(grid, f, 1, 1))
        planes.append(derivative_values(grid, f, 2, 0) - derivative_values(grid, f, 0, 2))
    psi_xy, psi_d, phi_xy, phi_d = planes
    return product_hat(grid, 2.0 * (psi_xy * phi_d - phi_xy * psi_d))


def rhs(state):
    """Model tendency at the state's time, as ScalarFields ordered like
    FIELD_NAMES[state.kind]; all quadratic terms dealiased."""
    return tuple(ScalarField.from_hat(state.grid, d) for d in _tendency(state))


def q_operator(omega, current):
    """Zeroth-order bilinear coupling Q(omega, J) of the MHD
    vorticity-current system, as a field (see _q_hat).  Vanishes when
    either argument is zero."""
    grid = same_grid(omega, current)
    return ScalarField.from_hat(grid, _q_hat(grid, omega.hat, current.hat))


def mhd_vorticity_current_tendencies(omega, rho):
    """Explicit (omega, J) tendencies of the symmetric MHD form.

    Returns (domega, dJ) with dJ = -u.grad J + {rho, omega} + Q(omega, J), so
    the derived-J route Lap(drho) can be cross-checked against it.
    """
    u = biot_savart(omega)
    current = laplacian(rho)
    domega = -advection(u, omega) + poisson_bracket(rho, current)
    dj = -advection(u, current) + poisson_bracket(rho, omega) + q_operator(omega, current)
    return domega, dj


def reference_tendency(state):
    """Per-term model tendency: each quadratic term (advection_hat,
    bracket_hat, _q_hat) dealiased on its own and the terms summed as
    coefficients."""
    g = state.grid
    u = state.velocity()
    u1, u2 = u.u.values, u.v.values
    if state.kind is ModelKind.MHD_ELSASSER:
        xi, eta = state.coeffs
        b = state.magnetic_field()
        b1, b2 = b.u.values, b.v.values
        coupling = _q_hat(g, 0.5 * (xi + eta), 0.5 * (xi - eta))
        return (-advection_hat(g, u1 - b1, u2 - b2, xi) + coupling,
                -advection_hat(g, u1 + b1, u2 + b2, eta) - coupling)
    omega = state.coeffs[0]
    domega = -advection_hat(g, u1, u2, omega)
    if state.kind is ModelKind.EULER:
        return (domega,)
    rho = state.coeffs[1]
    if state.kind is ModelKind.BOUSSINESQ:
        domega = domega + derivative_hat(g, rho, 1, 0)
    elif state.kind is ModelKind.MHD_VORTICITY_CURRENT:
        domega = domega + bracket_hat(g, rho, -g.K2 * rho)
    else:
        domega = domega + bracket_hat(g, product_hat(g, 0.5 * (u1**2 + u2**2)), rho)
    return domega, -advection_hat(g, u1, u2, rho)


def stepped_state(kind, n):
    """A state one RK4 step into a run, with nothing derived cached yet."""
    delta_norm = "rho_minus_1_W3p" if kind in MHD_KINDS else "rho_minus_1_W2p"
    state = initial_state(kind, Grid(n), delta=0.05, delta_norm=delta_norm,
                          seed_profile="helical")
    state, _ = step_detailed(state, 0.01)
    return state


@pytest.fixture(scope="module")
def grid():
    return Grid(64)


def test_euler_eigenstate_is_steady(grid):
    state = FluidState(ModelKind.EULER, 0.0, omega=eigenstate_vorticity(grid))
    (domega,) = rhs(state)
    assert domega.max_abs() <= 1e-10


def test_boussinesq_constant_density_matches_euler(grid):
    omega = default_vorticity(grid)
    rho = ScalarField(grid, np.full((grid.nx, grid.ny), 1.0))
    bss = FluidState(ModelKind.BOUSSINESQ, 0.0, omega=omega, rho=rho)
    eul = FluidState(ModelKind.EULER, 0.0, omega=omega)
    domega_b, drho_b = rhs(bss)
    (domega_e,) = rhs(eul)
    assert np.array_equal(domega_b.values, domega_e.values)
    assert drho_b.max_abs() <= 1e-14


def test_q_operator_bilinearity_zero(grid):
    omega = default_vorticity(grid)
    zero = ScalarField.zeros(grid)
    assert q_operator(omega, zero).max_abs() == 0.0
    assert q_operator(zero, omega).max_abs() == 0.0


def test_q_operator_closed_form(grid):
    # psi = cos(3x + y), rho = sin(x + 2y):
    # direct commutator algebra gives Q = -25 sin(4x+3y) + 25 sin(2x-y)
    psi = ScalarField.from_function(grid, lambda x, y: np.cos(3 * x + y))
    omega = laplacian(psi)
    rho = ScalarField.from_function(grid, lambda x, y: np.sin(x + 2 * y))
    current = laplacian(rho)
    q = q_operator(omega, current)
    exact = -25 * np.sin(4 * grid.X + 3 * grid.Y) + 25 * np.sin(2 * grid.X - grid.Y)
    assert np.max(np.abs(q.values - exact)) < 1e-10


def test_q_operator_matches_transport_commutator(grid):
    # oracle: Q = -Lap(u . grad rho) + u . grad Lap(rho) - {rho, omega},
    # evaluated spectrally on band-limited data (no aliasing).
    rng = np.random.default_rng(7)
    vals_psi = np.zeros((grid.nx, grid.ny))
    vals_rho = np.zeros((grid.nx, grid.ny))
    for _ in range(5):
        kx, ky = rng.integers(-4, 5, size=2)
        vals_psi += rng.normal() * np.cos(kx * grid.X + ky * grid.Y + rng.uniform(0, 6))
        kx, ky = rng.integers(-4, 5, size=2)
        vals_rho += rng.normal() * np.cos(kx * grid.X + ky * grid.Y + rng.uniform(0, 6))
    psi = ScalarField(grid, vals_psi - np.mean(vals_psi))
    rho = ScalarField(grid, vals_rho)
    omega = laplacian(psi)
    current = laplacian(rho)
    u = biot_savart(omega)

    adv = advection(u, rho)
    oracle = (-laplacian(adv) + advection(u, laplacian(rho))
              - poisson_bracket(rho, omega))
    q = q_operator(omega, current)
    scale = max(q.max_abs(), 1.0)
    assert np.max(np.abs(q.values - oracle.values)) <= 1e-10 * scale


def test_mhd_current_tendency_consistency(grid):
    # dJ from the symmetric form must equal Lap(drho) from the carrier form.
    state = initial_state(ModelKind.MHD_VORTICITY_CURRENT, grid, delta=0.05,
                          delta_norm="rho_minus_1_W3p",
                          omega0=eigenstate_vorticity(grid))
    _, drho = rhs(state)
    _, dj = mhd_vorticity_current_tendencies(state.omega, state.rho)
    dj_from_rho = laplacian(drho)
    scale = max(dj.max_abs(), 1.0)
    assert np.max(np.abs(dj.values - dj_from_rho.values)) <= 1e-9 * scale


def test_elsasser_transform_roundtrip(grid):
    omega = default_vorticity(grid)
    current = ScalarField.from_function(grid, lambda x, y: np.cos(y))
    xi, eta = elsasser_transform(omega, current)
    back_o, back_j = elsasser_inverse(xi, eta)
    assert np.max(np.abs(back_o.values - omega.values)) < 1e-15
    assert np.max(np.abs(back_j.values - current.values)) < 1e-15

    zero = ScalarField.zeros(grid)
    xi0, eta0 = elsasser_transform(omega, zero)
    assert np.array_equal(xi0.values, omega.values)
    assert np.array_equal(eta0.values, omega.values)

    sx = ScalarField.from_function(grid, lambda x, y: np.sin(x))
    cy = ScalarField.from_function(grid, lambda x, y: np.cos(y))
    xi1, eta1 = elsasser_transform(sx, cy)
    assert np.max(np.abs(xi1.values - (np.sin(grid.X) + np.cos(grid.Y)))) < 1e-14
    assert np.max(np.abs(eta1.values - (np.sin(grid.X) - np.cos(grid.Y)))) < 1e-14


def test_elsasser_rhs_reduces_to_transport_when_current_vanishes(grid):
    omega = default_vorticity(grid)
    zero = ScalarField.zeros(grid)
    xi, eta = elsasser_transform(omega, zero)
    state = FluidState(ModelKind.MHD_ELSASSER, 0.0, xi=xi, eta=eta, mass_mean=1.0)
    dxi, deta = rhs(state)
    u = biot_savart(omega)
    pure = -advection(u, omega)
    assert np.max(np.abs(dxi.values - pure.values)) < 1e-11
    assert np.max(np.abs(deta.values - pure.values)) < 1e-11


def test_step_fixed_point_state(grid):
    rho = ScalarField(grid, np.full((grid.nx, grid.ny), 1.0))
    state = FluidState(ModelKind.BOUSSINESQ, 0.0, omega=ScalarField.zeros(grid), rho=rho)
    new = step_detailed(state, dt=0.01, check_cfl=False)[0]
    assert new.t == pytest.approx(0.01)
    assert new.omega.max_abs() <= 1e-14
    assert np.max(np.abs(new.rho.values - 1.0)) <= 1e-14


def test_step_rejects_large_dt(grid):
    state = FluidState(ModelKind.EULER, 0.0, omega=default_vorticity(grid))
    with pytest.raises(ParameterError):
        step_detailed(state, dt=10 * cfl_limit(state))


def test_step_detects_blowup(grid):
    state = FluidState(ModelKind.EULER, 0.0, omega=1e150 * default_vorticity(grid))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InstabilityError):
            for _ in range(8):
                state = step_detailed(state, dt=100.0, check_cfl=False)[0]


def test_euler_eigenstate_short_integration(grid):
    state = FluidState(ModelKind.EULER, 0.0, omega=eigenstate_vorticity(grid))
    omega0 = state.omega.values.copy()
    for _ in range(100):
        state = step_detailed(state, dt=1e-3)[0]
    drift = lp_norm(state.omega.values - omega0, 2, grid.cell_area)
    assert drift / lp_norm(omega0, 2, grid.cell_area) <= 1e-10


def test_cfl_limit_values():
    g = Grid(128)
    omega = ScalarField.from_function(g, lambda x, y: np.cos(x))  # u = (0, sin x)
    state = FluidState(ModelKind.EULER, 0.0, omega=omega)
    assert cfl_limit(state) == pytest.approx(0.5 * (2 * np.pi / 128), rel=1e-12)

    rho = ScalarField.from_function(g, lambda x, y: 1.0 + np.cos(y))  # B = (sin y, 0)
    mhd = FluidState(ModelKind.MHD_VORTICITY_CURRENT, 0.0, omega=omega, rho=rho)
    assert cfl_limit(mhd) == pytest.approx(0.25 * (2 * np.pi / 128), rel=1e-12)

    quiet = FluidState(ModelKind.EULER, 0.0, omega=ScalarField.zeros(g))
    assert cfl_limit(quiet) > 1e9  # capped by dt_max at the harness level


def test_conserved_quantities_reference_values(grid):
    rho = ScalarField(grid, np.full((grid.nx, grid.ny), 1.0))
    quiet = FluidState(ModelKind.BOUSSINESQ, 0.0, omega=ScalarField.zeros(grid), rho=rho)
    q = conserved_quantities(quiet)
    assert q["E_kinetic"] == 0.0
    assert q["mass"] == pytest.approx((2 * np.pi) ** 2, rel=1e-13)

    euler = FluidState(ModelKind.EULER, 0.0,
                       omega=ScalarField.from_function(grid, lambda x, y: np.cos(x)))
    qe = conserved_quantities(euler)
    assert qe["E_kinetic"] == pytest.approx(np.pi**2, rel=1e-12)

    iie = initial_state(ModelKind.IIE, grid, delta=0.0)
    qi = conserved_quantities(iie)
    assert qi["E_model"] == pytest.approx(qi["E_kinetic"], rel=1e-14)


def test_elsasser_vorticity_is_built_once(fft_counts):
    # (xi + eta) / 2 is inverse-transformed once per state, however many
    # times a diagnostics row asks for the vorticity: velocity recovery,
    # record and conserved_quantities share it.
    state = step_detailed(initial_state(ModelKind.MHD_ELSASSER, Grid(32), delta=0.1), 0.01)[0]
    xi, eta = state.coeffs
    omega_hat = 0.5 * (xi + eta)
    fft_counts.inputs["irfft2"].clear()
    record(StretchingSeries(), state)
    conserved_quantities(state)
    calls = [np.array_equal(a, omega_hat) for a in fft_counts.inputs["irfft2"]]
    assert sum(calls) == 1
    assert state.vorticity() is state.vorticity()


def test_initial_state_norms(grid):
    p = 4
    for delta in (1e-1, 1e-3):
        s = initial_state(ModelKind.BOUSSINESQ, grid, delta=delta,
                          delta_norm="rho_minus_1_W2p", p=p)
        dev = s.rho - 1.0
        assert sobolev_norm(dev, 2, p) == pytest.approx(delta, rel=1e-12)

        s = initial_state(ModelKind.IIE, grid, delta=delta,
                          delta_norm="inv_rho_minus_1_W2p", p=p)
        inv_dev = ScalarField(grid, 1.0 / s.rho.values - 1.0)
        assert sobolev_norm(inv_dev, 2, p) == pytest.approx(delta, rel=1e-12)

        s = initial_state(ModelKind.MHD_VORTICITY_CURRENT, grid, delta=delta,
                          delta_norm="rho_minus_1_W3p", p=p)
        assert sobolev_norm(s.rho - 1.0, 3, p) == pytest.approx(delta, rel=1e-12)


def test_mhd_formulation_equivalence_short(grid):
    vc = initial_state(ModelKind.MHD_VORTICITY_CURRENT, grid, delta=0.02,
                       delta_norm="rho_minus_1_W3p")
    els = to_elsasser(vc)
    dt = 2e-3
    for _ in range(50):
        vc = step_detailed(vc, dt)[0]
        els = step_detailed(els, dt)[0]
    back = from_elsasser(els)
    rel = lp_norm(back.omega.values - vc.omega.values, 2, grid.cell_area)
    rel /= lp_norm(vc.omega.values, 2, grid.cell_area)
    assert rel <= 1e-8
    rel_rho = lp_norm(back.rho.values - vc.rho.values, 2, grid.cell_area)
    rel_rho /= lp_norm(vc.rho.values, 2, grid.cell_area)
    assert rel_rho <= 1e-8


def test_energy_conservation_smoke(grid):
    state = initial_state(ModelKind.BOUSSINESQ, grid, delta=1e-3)
    e0 = conserved_quantities(state)["E_model"]
    rp0 = lp_norm(state.rho.values, 4, grid.cell_area)
    t_end, dt = 0.5, 2.5e-3
    for _ in range(int(t_end / dt)):
        state = step_detailed(state, dt)[0]
    e1 = conserved_quantities(state)["E_model"]
    rp1 = lp_norm(state.rho.values, 4, grid.cell_area)
    assert abs(e1 - e0) / abs(e0) <= 1e-6
    assert abs(rp1 - rp0) / rp0 <= 1e-8


@pytest.mark.parametrize("n", [32, 128])
@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_tendency_matches_per_term_reference(kind, n):
    # The stress form of the four Biot-Savart models and the advective
    # per-term reference agree on the kept band up to rounding, which the
    # stress form's second derivatives scale by up to (n/3)^2.  IIE sums the
    # reference's dealiased terms on the grid, so only the rounding of the
    # sum may differ.
    state = stepped_state(kind, n)
    new, ref = _tendency(state), reference_tendency(state)
    if kind is ModelKind.IIE:
        bound = 1e-14
    else:
        bound = np.finfo(float).eps * (n / 3) ** 2
    for d_new, d_ref in zip(new, ref, strict=True):
        assert np.max(np.abs(d_new - d_ref)) <= bound * np.max(np.abs(d_ref))


@pytest.mark.parametrize("kind", [k for k in ModelKind if k is not ModelKind.IIE],
                         ids=lambda k: k.value)
def test_stress_form_conserves_mean_vorticity_exactly(kind):
    # Every stress multiplier (kx ky, ky^2 - kx^2, kx^2, ky^2) and d_x
    # vanish at k = 0, so the mean mode of each vorticity-type tendency is
    # 0.0, not round-off.
    state = stepped_state(kind, 32)
    tendency = _tendency(state)
    vorticities = tendency if kind is ModelKind.MHD_ELSASSER else tendency[:1]
    for d in vorticities:
        assert d[0, 0] == 0.0


# Inverse / forward transforms of one RK4 step after cfl_limit, as the
# harness steps: the velocity, and for MHD B, are cached from the CFL check.
# A stage costs its state's velocity (2 inverse, read off the vorticity's
# coefficients; none at stage 1) and B for MHD (2, none at stage 1).  The
# vorticity-type tendencies take two masked products of the stress (u1 u2
# and u2^2 - u1^2, less B's for MHD), or three shared by the Elsasser pair.
# Boussinesq's rho adds grad rho (2 inverse) and one masked product, MHD's
# rho the masked product u1 B2 - u2 B1.
STEP_TRANSFORMS = {
    ModelKind.EULER: (6, 8),
    ModelKind.BOUSSINESQ: (14, 12),
    ModelKind.MHD_VORTICITY_CURRENT: (12, 12),
    ModelKind.MHD_ELSASSER: (12, 12),
}


@pytest.mark.parametrize("kind", list(STEP_TRANSFORMS), ids=lambda k: k.value)
def test_step_transform_count(kind, fft_counts):
    state = stepped_state(kind, 32)
    models.cfl_limit(state)
    fft_counts.update(rfft2=0, irfft2=0)
    step_detailed(state, 0.01, check_cfl=False)
    assert (fft_counts["irfft2"], fft_counts["rfft2"]) == STEP_TRANSFORMS[kind]


def test_iie_step_transforms_outside_the_solve(fft_counts, monkeypatch):
    # The IIE tendency's share of a step, the elliptic solves excluded (their
    # cost per iteration is pinned in test_elliptic): per stage, rho on the
    # grid for the solve (1 inverse, none at stage 1; the solve reads
    # omega's coefficients), grad omega, grad rho and grad(|u|^2 / 2)
    # (6 inverse), and |u|^2 / 2 plus one masked product per field
    # (3 forward).
    state = stepped_state(ModelKind.IIE, 32)
    models.cfl_limit(state)
    solve = models.recover_velocity_detailed
    inside = {"rfft2": 0, "irfft2": 0}

    def counted_solve(*args, **kwargs):
        before = dict(fft_counts)
        out = solve(*args, **kwargs)
        for name in inside:
            inside[name] += fft_counts[name] - before[name]
        return out

    monkeypatch.setattr(models, "recover_velocity_detailed", counted_solve)
    fft_counts.update(rfft2=0, irfft2=0)
    step_detailed(state, 0.01, check_cfl=False)
    assert inside["irfft2"] > 0
    outside = (fft_counts["irfft2"] - inside["irfft2"], fft_counts["rfft2"] - inside["rfft2"])
    assert outside == (27, 12)


# Inverse / forward transforms of one diagnostics row with the velocity
# cached.  Biot-Savart models: omega on the grid (1; the velocity is read
# off its coefficients), psi's order-2 and order-3 planes (7); rho on the
# grid and its table to order 2 (1 + 5); for MHD, B (2), rho's order-2 and
# order-3 planes (7) and xi's and eta's order-2 planes (6) instead.
# IIE keeps u's own table to order 2 (10, and 2 forward for u's
# coefficients: the solve returns u on the grid), omega on the grid (1; the
# solve reads its coefficients), grad omega (2) and rho's table (5; the
# solve already put rho on the grid).
ROW_TRANSFORMS = {
    ModelKind.EULER: (8, 0),
    ModelKind.BOUSSINESQ: (14, 0),
    ModelKind.MHD_VORTICITY_CURRENT: (24, 0),
    ModelKind.MHD_ELSASSER: (24, 0),
    ModelKind.IIE: (18, 2),
}


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_record_transform_count(kind, fft_counts):
    state = stepped_state(kind, 32)
    state.velocity()
    fft_counts.update(rfft2=0, irfft2=0)
    record(StretchingSeries(), state)
    assert (fft_counts["irfft2"], fft_counts["rfft2"]) == ROW_TRANSFORMS[kind]


# Working set of one RK4 step at 64^2, in planes of nx * ny doubles: the
# peak of step_detailed minus what it keeps (the new state and the stage
# velocities).  Every plane the step makes and drops is counted: the stage
# tendencies, their RK4 sum, the stage states' coefficients and what they
# hold beyond their velocity (rho's coefficients, B's samples, Elsasser's xi
# and eta, IIE's rho samples), and the temporaries of the tendencies and the
# elliptic solve.  Measured 5.18, 6.22, 8.23, 15.44 and 23.69 (Euler,
# Boussinesq, MHD, Elsasser, IIE).  Forming the stress term
# (ky^2 - kx^2) T12^ as a fresh product rather than in place on the
# transform adds one plane to Euler, Boussinesq and MHD (6.20, 7.23 and
# 9.25), which fail.  A stage tendency still held while the next one is
# formed adds one coefficient plane per field, and fails every model but
# IIE.
STEP_TRANSIENT_PLANES = {
    ModelKind.EULER: 6,
    ModelKind.BOUSSINESQ: 7,
    ModelKind.MHD_VORTICITY_CURRENT: 9,
    ModelKind.MHD_ELSASSER: 17,
    ModelKind.IIE: 26,
}


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_step_transient_memory(kind):
    n = 64
    state = initial_state(kind, Grid(n), delta=0.1)
    for _ in range(2):
        state = step_detailed(state, 0.01)[0]
    tracemalloc.start()
    try:
        kept = step_detailed(state, 0.01)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept[0].t > state.t
    assert (peak - current) / (n * n * 8) < STEP_TRANSIENT_PLANES[kind]


# Ten steps after three warm-up ones, counted in a fresh interpreter whose
# heap no earlier test has sized.
KEEPS_PAGES = """
import resource
from fluidspan.fields import Grid
from fluidspan.models import cfl_limit, initial_state, step_detailed

def step(state):
    return step_detailed(state, min(0.01, cfl_limit(state)), check_cfl=False)[0]

state = initial_state("{model}", Grid({n}), delta={delta}, delta_norm="{norm}")
for _ in range(3):
    state = step(state)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    state = step(state)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""

# (model, delta, delta_norm, the most minor faults its ten steps may take).
# IIE at delta = 2.5 takes 4 PCG iterations per solve.
PAGE_CASES = [
    ("mhd", 0.05, "rho_minus_1_W3p", 16),
    ("iie", 2.5, "inv_rho_minus_1_W2p", 1024),
]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="a glibc allocator policy")
@pytest.mark.parametrize("n", [128, 256])
def test_rk4_steps_keep_their_pages(n):
    # fields' allocator policy is all that keeps a step's freed planes, the
    # PCG's per-solve arrays among them, in the process.  With it these steps
    # take 0 minor faults for MHD at both sizes, and 33 (128^2) and 254
    # (256^2) for IIE, a coefficient plane or two when the heap's extent
    # grows.  Without it glibc hands freed planes back to the kernel and
    # faults the next ones in again, page by page: MHD took 1,838 and
    # 10,250, IIE 30,217 and 102,675.  With the trim threshold set alone,
    # the mapping threshold stays below a 256^2 plane: at 256^2 MHD took
    # 160,680 and IIE 742,180.
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for model, delta, norm, bound in PAGE_CASES:
        script = KEEPS_PAGES.format(model=model, n=n, delta=delta, norm=norm)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert int(proc.stdout.split()[-1]) <= bound, model
