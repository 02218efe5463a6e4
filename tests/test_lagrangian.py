import numpy as np
import pytest

from fluidspan.fields import (
    Grid,
    ScalarField,
    biot_savart,
    lp_norm,
    operator_norm_2x2,
    spectral_derivative,
)
from fluidspan.lagrangian import (
    AnalyticVelocity,
    DuhamelHistory,
    FrozenFieldVelocity,
    PeriodicInterpolator,
    StageVelocity,
    StretchingSeries,
    advect_flow_map,
    back_to_label,
    back_to_label_residual,
    check_transport_lemma,
    check_w1p_bounds,
    duhamel_vorticity,
    identity_ensemble,
    jacobian_norms,
    record,
)
from fluidspan.models import (
    FluidState,
    ModelKind,
    eigenstate_vorticity,
    initial_state,
    step_detailed,
)

GOLDEN = (1 + np.sqrt(5)) / 2


def shear_provider():
    # steady shear u = (sin y, 0); closed-form map X = (a1 + t sin a2, a2)
    return AnalyticVelocity(
        u_fn=lambda t, x, y: (np.sin(y), np.zeros_like(x)),
        grad_fn=lambda t, x, y: (np.zeros_like(x), np.cos(y),
                                 np.zeros_like(x), np.zeros_like(x)),
    )


def test_zero_velocity_leaves_ensemble_fixed():
    ens = identity_ensemble(16)
    prov = AnalyticVelocity(
        u_fn=lambda t, x, y: (np.zeros_like(x), np.zeros_like(y)),
        grad_fn=lambda t, x, y: tuple(np.zeros_like(x) for _ in range(4)),
    )
    out = advect_flow_map(ens, prov, 0.1)
    assert np.array_equal(out.x, ens.x)
    assert np.array_equal(out.jac, ens.jac)
    assert out.t == pytest.approx(0.1)


def test_shear_flow_closed_form():
    ens = identity_ensemble(32)
    prov = shear_provider()
    dt = 0.05
    for _ in range(20):
        ens = advect_flow_map(ens, prov, dt)
    a1 = ens.labels[..., 0]
    a2 = ens.labels[..., 1]
    assert np.max(np.abs(ens.x[..., 0] - (a1 + 1.0 * np.sin(a2)))) < 1e-6
    assert np.max(np.abs(ens.x[..., 1] - a2)) < 1e-12
    # Jacobian [[1, t cos a2], [0, 1]]
    assert np.max(np.abs(ens.jac[..., 0, 1] - np.cos(a2))) < 1e-6
    assert np.max(np.abs(ens.jac[..., 0, 0] - 1.0)) < 1e-9
    fwd, inv, detj = jacobian_norms(ens)
    assert detj < 1e-9
    # operator norm of [[1,1],[0,1]] is the golden ratio
    assert fwd == pytest.approx(GOLDEN, abs=1e-6)


def test_area_preservation_for_solver_velocity():
    grid = Grid(64)
    omega = ScalarField.from_function(
        grid, lambda x, y: np.sin(x) * np.sin(y) + 0.7 * np.cos(2 * x + y))
    prov = FrozenFieldVelocity(biot_savart(omega))
    ens = identity_ensemble(32)
    dt = 0.02
    for _ in range(50):
        ens = advect_flow_map(ens, prov, dt)
    _, _, detj = jacobian_norms(ens)
    assert detj <= 1e-4


def test_interpolation_accuracy():
    grid = Grid(64)
    f = ScalarField.from_function(grid, lambda x, y: np.sin(x) * np.cos(2 * y))
    from fluidspan.lagrangian import PeriodicInterpolator

    interp = PeriodicInterpolator(f)
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 2 * np.pi, size=(500, 2))
    exact = np.sin(pts[:, 0]) * np.cos(2 * pts[:, 1])
    assert np.max(np.abs(interp(pts) - exact)) < 5e-5  # O(dx^4)


def test_interpolation_is_fourth_order():
    # Sup error at 2,000 random points on 32^2, 64^2 and 128^2: each grid
    # halving cuts it by ~16 (README's O(dx^4) claim).
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 2 * np.pi, size=(2000, 2))
    exact = np.sin(pts[:, 0]) * np.cos(2 * pts[:, 1])
    errors = []
    for n in (32, 64, 128):
        f = ScalarField.from_function(Grid(n), lambda x, y: np.sin(x) * np.cos(2 * y))
        errors.append(np.max(np.abs(PeriodicInterpolator(f)(pts) - exact)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 3.8), (errors, orders)


def test_back_to_label_consistency():
    ens = identity_ensemble(64)
    prov = shear_provider()
    for _ in range(20):
        ens = advect_flow_map(ens, prov, 0.05)
    grid = Grid(64)
    labels = back_to_label(ens, grid)
    # closed-form inverse: A(x) = (x1 - sin(x2), x2)
    exact1 = np.mod(grid.X - np.sin(grid.Y), 2 * np.pi)
    err1 = np.abs(labels[..., 0] - exact1)
    err1 = np.minimum(err1, 2 * np.pi - err1)
    assert np.max(err1) < 1e-5
    assert back_to_label_residual(ens, grid, labels) <= 2 * grid.dx


def test_stretching_series_zero_velocity():
    grid = Grid(32)
    state = FluidState(ModelKind.BOUSSINESQ, 0.0,
                       omega=ScalarField.zeros(grid),
                       rho=ScalarField(grid, np.ones((grid.nx, grid.ny))))
    series = StretchingSeries(kind=ModelKind.BOUSSINESQ)
    ens = identity_ensemble(16)
    for t in (0.0, 0.5, 1.0):
        state = FluidState(ModelKind.BOUSSINESQ, t, omega=state.omega, rho=state.rho)
        ens = FlowEnsAt(ens, t)
        record(series, state, ens)
    assert np.allclose(series.M(), 1.0)
    assert np.allclose(series.N(), 1.0)
    assert np.allclose(series.m_measured, 1.0)
    # Y = 2t, Z = t for the trivial run
    assert series.y == pytest.approx([0.0, 1.0, 2.0])
    assert series.z == pytest.approx([0.0, 0.5, 1.0])


def FlowEnsAt(ens, t):
    from dataclasses import replace

    return replace(ens, t=t)


def test_stretching_shear_chord_arc():
    # M_measured at t=1 is the golden ratio, M = e; chord-arc holds with room
    ens = identity_ensemble(32)
    prov = shear_provider()
    grid = Grid(32)
    series = StretchingSeries(kind=ModelKind.EULER)
    omega = ScalarField.from_function(grid, lambda x, y: np.cos(y))  # u = (sin y, 0)
    dt = 0.05
    state = FluidState(ModelKind.EULER, 0.0, omega=omega)
    record(series, state, ens)
    for k in range(20):
        ens = advect_flow_map(ens, prov, dt)
        state = FluidState(ModelKind.EULER, ens.t, omega=omega)
        record(series, state, ens)
    assert series.m_measured[-1] == pytest.approx(GOLDEN, abs=1e-6)
    assert series.M()[-1] == pytest.approx(np.e, rel=1e-10)
    assert series.m_measured[-1] <= series.M()[-1] * (1 + 1e-3)


def test_euler_eigenstate_exponential_m():
    # steady state: integrand constant, so log M is exactly linear in t
    grid = Grid(64)
    state = FluidState(ModelKind.EULER, 0.0, omega=eigenstate_vorticity(grid))
    series = StretchingSeries(kind=ModelKind.EULER)
    record(series, state)
    g0 = series.grad_u_inf[0]
    for k in range(10):
        state = FluidState(ModelKind.EULER, 0.05 * (k + 1), omega=state.omega)
        record(series, state)
    slopes = np.diff(np.log(series.M())) / np.diff(series.times())
    assert np.max(np.abs(slopes - g0)) < 1e-6


def _w_kp(components, k, p):
    """sum over |alpha| <= k of || |d^alpha f| ||_p, |.| Euclidean over the
    components, each derivative taken directly by spectral_derivative."""
    area = components[0].grid.cell_area
    total = 0.0
    for order in range(k + 1):
        for a in range(order, -1, -1):
            planes = [spectral_derivative(f, (a, order - a)).values for f in components]
            total += lp_norm(np.sqrt(sum(x**2 for x in planes)), p, area)
    return total


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_record_matches_norm_definitions(kind):
    grid = Grid(32)
    p = 4.0
    delta_norm = ("rho_minus_1_W3p" if kind in (ModelKind.MHD_VORTICITY_CURRENT,
                                                ModelKind.MHD_ELSASSER)
                  else "rho_minus_1_W2p")
    state, _ = step_detailed(initial_state(kind, grid, delta=0.05, delta_norm=delta_norm,
                                           seed_profile="helical"), 0.02)
    series = StretchingSeries(kind=kind, p=p)
    record(series, state)

    u = state.velocity()
    d = {(i, a, b): spectral_derivative(c, (a, b)).values
         for i, c in enumerate((u.u, u.v)) for a in range(3) for b in range(3 - a)}

    def grad(s, t):  # d^(s, t) grad u as the four entries of a 2x2 matrix
        return (d[0, s + 1, t], d[0, s, t + 1], d[1, s + 1, t], d[1, s, t + 1])

    area = grid.cell_area
    grad_u_inf = float(np.max(operator_norm_2x2(*grad(0, 0))))
    grad_u_w1p = sum(lp_norm(operator_norm_2x2(*grad(s, t)), p, area)
                     for s, t in ((0, 0), (1, 0), (0, 1)))
    omega = state.vorticity()
    omega_w1p = _w_kp([omega], 1, p)
    expected = {
        "grad_u_inf": grad_u_inf,
        "grad_u_w1p": grad_u_w1p,
        "omega_w1p": omega_w1p,
        "u_w2p": _w_kp([u.u, u.v], 2, p),
        "kato": grad_u_inf / ((1.0 + np.log(2.0 + omega_w1p)) * omega.max_abs()),
    }
    rho = state.density()
    if kind is not ModelKind.EULER:
        expected["rho_w2p"] = _w_kp([rho], 2, p)
    if kind in (ModelKind.MHD_VORTICITY_CURRENT, ModelKind.MHD_ELSASSER):
        b1 = -1.0 * spectral_derivative(rho, (0, 1))
        b2 = spectral_derivative(rho, (1, 0))
        expected["b_w2p"] = _w_kp([b1, b2], 2, p)
        current = spectral_derivative(rho, (2, 0)) + spectral_derivative(rho, (0, 2))
        xi, eta = omega + current, omega - current
        expected["y"] = _w_kp([xi], 1, p) + _w_kp([eta], 1, p)
        expected["z"] = _w_kp([xi], 2, p) + _w_kp([eta], 2, p)
    for name, value in expected.items():
        assert getattr(series, name)[0] == pytest.approx(value, rel=1e-12), name


def test_memory_iie_zero_velocity():
    grid = Grid(32)
    rho = ScalarField(grid, np.ones((grid.nx, grid.ny)))
    series = StretchingSeries(kind=ModelKind.IIE)
    for t in (0.0, 0.4, 0.8):
        state = FluidState(ModelKind.IIE, t, omega=ScalarField.zeros(grid), rho=rho)
        record(series, state)
    assert series.q == pytest.approx([0.0, 0.0, 0.0])


def test_memory_matches_constant_coefficient_integral():
    # Euler eigenstate relabeled as Boussinesq with constant density:
    # Y(t) = int (e^{a tau} + e^{b tau}) with a, b the constant integrands.
    grid = Grid(64)
    omega = eigenstate_vorticity(grid)
    rho = ScalarField(grid, np.ones((grid.nx, grid.ny)))
    series = StretchingSeries(kind=ModelKind.BOUSSINESQ)
    dt = 0.01
    for k in range(101):
        state = FluidState(ModelKind.BOUSSINESQ, k * dt, omega=omega, rho=rho)
        record(series, state)
    a = series.grad_u_inf[0]
    b = series.grad_u_w1p[0]
    t_end = series.t[-1]
    exact = (np.exp(a * t_end) - 1) / a + (np.exp(b * t_end) - 1) / b
    assert series.y[-1] == pytest.approx(exact, rel=1e-4)


def test_duhamel_t0_recovers_initial_vorticity():
    grid = Grid(64)
    state = initial_state(ModelKind.BOUSSINESQ, grid, delta=0.1)
    ens = identity_ensemble(64)
    hist = DuhamelHistory(state, ens)
    rec = duhamel_vorticity(ens, hist, grid)
    err = lp_norm(rec.values - state.omega.values, 2, grid.cell_area)
    assert err / lp_norm(state.omega.values, 2, grid.cell_area) < 1e-6


def test_duhamel_pure_transport_oracle():
    # constant density: reconstruction reduces to omega0 o A; compare with
    # the Eulerian solver field (interpolation-limited agreement)
    grid = Grid(64)
    state = initial_state(ModelKind.BOUSSINESQ, grid, delta=0.0)
    ens = identity_ensemble(64)
    hist = DuhamelHistory(state, ens)
    dt = 0.02
    for _ in range(25):
        new_state, stages = step_detailed(state, dt)
        ens = advect_flow_map(ens, StageVelocity(stages), dt)
        state = new_state
        hist.update(state, ens)
    rec = duhamel_vorticity(ens, hist, grid)
    rel = lp_norm(rec.values - state.omega.values, 2, grid.cell_area)
    rel /= lp_norm(state.omega.values, 2, grid.cell_area)
    assert rel <= 1e-3


def test_transport_lemma_identity_map():
    grid = Grid(64)
    rho0 = ScalarField.from_function(grid, lambda x, y: 1 + 0.3 * np.sin(x) * np.cos(y))
    ens = identity_ensemble(64)
    report = check_transport_lemma(ens, rho0, p=4)
    for r, entry in report.items():
        assert abs(entry["margin"]) <= 1e-6 * max(entry["rhs"], 1.0)

    const = ScalarField(grid, np.full((grid.nx, grid.ny), 2.0))
    rep2 = check_transport_lemma(ens, const, p=4)
    for entry in rep2.values():
        assert entry["lhs"] <= 1e-12


def test_transport_lemma_along_run():
    grid = Grid(64)
    state = initial_state(ModelKind.BOUSSINESQ, grid, delta=0.1)
    rho0 = state.rho
    ens = identity_ensemble(48)
    dt = 0.02
    for _ in range(25):
        state, stages = step_detailed(state, dt)
        ens = advect_flow_map(ens, StageVelocity(stages), dt)
    report = check_transport_lemma(ens, rho0, p=4)
    for entry in report.values():
        assert entry["margin"] >= -1e-6 * max(entry["rhs"], 1.0)


def test_w1p_bound_margins_nonnegative_with_fit():
    grid = Grid(64)
    state = initial_state(ModelKind.BOUSSINESQ, grid, delta=0.1)
    series = StretchingSeries(kind=ModelKind.BOUSSINESQ)
    record(series, state)
    dt = 0.02
    for _ in range(25):
        state = step_detailed(state, dt)[0]
        record(series, state)
    margins = check_w1p_bounds(series, delta=0.1, c_fit=50.0)
    assert np.all(margins["omega"] >= 0)
    assert np.all(margins["rho"] >= 0)


def test_flow_map_is_fourth_order_with_stage_velocities():
    # Each RK4 stage of the flow map must read its own stage velocity: the
    # observed temporal order of X and grad X against a fine reference is 4
    # (it drops to 2 when stages 2 and 3 share one velocity).
    grid = Grid(64)

    def flow_map(dt, t_end=0.5):
        state = initial_state(ModelKind.BOUSSINESQ, grid, delta=0.2)
        ens = identity_ensemble(16)
        for _ in range(round(t_end / dt)):
            state, stages = step_detailed(state, dt, check_cfl=False)
            ens = advect_flow_map(ens, StageVelocity(stages), dt)
        return ens

    ref = flow_map(1 / 256)
    coarse, fine = flow_map(1 / 16), flow_map(1 / 32)
    for part in ("x", "jac"):
        err_coarse = np.max(np.abs(getattr(coarse, part) - getattr(ref, part)))
        err_fine = np.max(np.abs(getattr(fine, part) - getattr(ref, part)))
        assert np.log2(err_coarse / err_fine) >= 3.8
