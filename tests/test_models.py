import numpy as np
import pytest

from fluidspan.errors import InstabilityError, ParameterError
from fluidspan.fields import (
    Grid,
    ScalarField,
    advection,
    biot_savart,
    laplacian,
    lp_norm,
    poisson_bracket,
    same_grid,
    sobolev_norm,
)
from fluidspan.models import (
    _q_hat,
    FluidState,
    ModelKind,
    cfl_limit,
    conserved_quantities,
    default_vorticity,
    eigenstate_vorticity,
    elsasser_inverse,
    elsasser_transform,
    from_elsasser,
    initial_state,
    rhs,
    step,
    to_elsasser,
)


def q_operator(omega, current):
    """Zeroth-order bilinear coupling Q(omega, J) of the MHD
    vorticity-current system, as a field (see models._q_hat).  Vanishes when
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
    new = step(state, dt=0.01, check_cfl=False)
    assert new.t == pytest.approx(0.01)
    assert new.omega.max_abs() <= 1e-14
    assert np.max(np.abs(new.rho.values - 1.0)) <= 1e-14


def test_step_rejects_large_dt(grid):
    state = FluidState(ModelKind.EULER, 0.0, omega=default_vorticity(grid))
    with pytest.raises(ParameterError):
        step(state, dt=10 * cfl_limit(state))


def test_step_detects_blowup(grid):
    state = FluidState(ModelKind.EULER, 0.0, omega=1e150 * default_vorticity(grid))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InstabilityError):
            for _ in range(8):
                state = step(state, dt=100.0, check_cfl=False)


def test_euler_eigenstate_short_integration(grid):
    state = FluidState(ModelKind.EULER, 0.0, omega=eigenstate_vorticity(grid))
    omega0 = state.omega.values.copy()
    for _ in range(100):
        state = step(state, dt=1e-3)
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
        vc = step(vc, dt)
        els = step(els, dt)
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
        state = step(state, dt)
    e1 = conserved_quantities(state)["E_model"]
    rp1 = lp_norm(state.rho.values, 4, grid.cell_area)
    assert abs(e1 - e0) / abs(e0) <= 1e-6
    assert abs(rp1 - rp0) / rp0 <= 1e-8
