import numpy as np
import pytest
from scipy import ndimage

from fluidspan.fields import (
    TWO_PI,
    Grid,
    ScalarField,
    biot_savart,
    gradient_hat,
    lp_norm,
    operator_norm_2x2,
    spectral_derivative,
    to_physical,
)
from fluidspan.errors import ChordArcError
from fluidspan.harness import march
from fluidspan.lagrangian import (
    DuhamelHistory,
    PeriodicInterpolator,
    StageVelocity,
    StretchingSeries,
    _map_residual,
    _on_labels,
    _pull_back,
    advect_flow_map,
    analytic_velocity,
    back_to_label,
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
    return analytic_velocity(
        u_fn=lambda x, y: (np.sin(y), np.zeros_like(x)),
        grad_fn=lambda x, y: (np.zeros_like(x), np.cos(y),
                              np.zeros_like(x), np.zeros_like(x)),
    )


def test_zero_velocity_leaves_ensemble_fixed():
    ens = identity_ensemble(16)
    prov = analytic_velocity(
        u_fn=lambda x, y: (np.zeros_like(x), np.zeros_like(y)),
        grad_fn=lambda x, y: tuple(np.zeros_like(x) for _ in range(4)),
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
    prov = StageVelocity([biot_savart(omega)] * 4)
    ens = identity_ensemble(32)
    dt = 0.02
    for _ in range(50):
        ens = advect_flow_map(ens, prov, dt)
    _, _, detj = jacobian_norms(ens)
    assert detj <= 1e-4


def test_interpolation_accuracy():
    grid = Grid(64)
    f = ScalarField.from_function(grid, lambda x, y: np.sin(x) * np.cos(2 * y))
    interp = PeriodicInterpolator([f.hat], (grid.nx, grid.ny))
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 2 * np.pi, size=(500, 2))
    exact = np.sin(pts[:, 0]) * np.cos(2 * pts[:, 1])
    assert np.max(np.abs(interp(pts)[0] - exact)) < 5e-5  # O(dx^4)


def test_interpolation_is_fourth_order():
    # Sup error at 2,000 random points on 32^2, 64^2 and 128^2: each grid
    # halving cuts it by ~16 (README's O(dx^4) claim).
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 2 * np.pi, size=(2000, 2))
    exact = np.sin(pts[:, 0]) * np.cos(2 * pts[:, 1])
    errors = []
    for n in (32, 64, 128):
        f = ScalarField.from_function(Grid(n), lambda x, y: np.sin(x) * np.cos(2 * y))
        interp = PeriodicInterpolator([f.hat], (n, n))
        errors.append(np.max(np.abs(interp(pts)[0] - exact)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders >= 3.8), (errors, orders)


def _spline_reference(plane, coords):
    """One plane prefiltered by scipy's spline_filter and evaluated by
    map_coordinates: the interpolant the spectral prefilter must reproduce."""
    coeffs = ndimage.spline_filter(plane, order=3, mode="grid-wrap")
    return ndimage.map_coordinates(coeffs, coords, order=3, mode="grid-wrap", prefilter=False)


def test_periodic_interpolator_wraps_on_a_non_square_grid():
    # Several smooth planes on a 24 x 40 grid, at points on and beyond the
    # period's ends: the shared stencil equals the spline_filter +
    # map_coordinates interpolant to round-off.  nx != ny catches a swapped
    # flat index (ix * ny + iy).
    grid = Grid(24, 40)
    planes = [ScalarField.from_function(
        grid, lambda x, y, k=k: np.sin((k + 1) * x + 0.3) * np.cos((k % 3 + 1) * y)
        + 0.4 * np.cos(2 * x - 3 * y + k)) for k in range(4)]
    two_pi = 2 * np.pi
    edges = np.array([0.0, two_pi, np.nextafter(two_pi, 0.0), -0.3, -1e-17,
                      -two_pi - 0.2, two_pi + 0.7, 3 * two_pi + 0.1])
    ex, ey = np.meshgrid(edges, edges, indexing="ij")
    rng = np.random.default_rng(7)
    pts = np.concatenate([np.stack([ex, ey], axis=-1).reshape(-1, 2),
                          rng.uniform(-2 * two_pi, 3 * two_pi, size=(200, 2))])
    values = PeriodicInterpolator([f.hat for f in planes], (grid.nx, grid.ny))(pts)
    assert values.shape == (4, len(pts))
    coords = np.stack([pts[:, 0] / grid.dx, pts[:, 1] / grid.dy])
    for value, f in zip(values, planes):
        reference = _spline_reference(f.values, coords)
        assert np.max(np.abs(value - reference)) <= 1e-14 * f.max_abs()


def test_stage_velocity_matches_per_plane_reference():
    # Each stage's six planes (u1, u2, d_x u1, d_y u1, d_x u2, d_y u2) equal
    # a one-plane irfft2(hat / symbol) + map_coordinates evaluation and the
    # spline_filter + map_coordinates one, both to round-off.
    grid = Grid(32)
    state, stages = step_detailed(initial_state(ModelKind.BOUSSINESQ, grid, delta=0.1), 0.02)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.0, 2 * np.pi + 1.0, size=(7, 9, 2))
    coords = np.stack([pts[..., 0] / grid.dx, pts[..., 1] / grid.dy]).reshape(2, -1)
    sx = (4.0 + 2.0 * np.cos(2 * np.pi * np.fft.fftfreq(grid.nx))) / 6.0
    sy = (4.0 + 2.0 * np.cos(2 * np.pi * np.fft.rfftfreq(grid.ny))) / 6.0
    symbol = sx[:, None] * sy[None, :]

    def folded(hat):
        coeffs = np.fft.irfft2(hat / symbol, s=(grid.nx, grid.ny))
        return ndimage.map_coordinates(coeffs, coords, order=3, mode="grid-wrap",
                                       prefilter=False).reshape(pts.shape[:-1])

    provider = StageVelocity(stages)
    for k, w in enumerate(stages):
        u, grad_u = provider(k, pts)
        assert u.shape == (7, 9, 2) and grad_u.shape == (7, 9, 2, 2)
        assert np.may_share_memory(u, grad_u)  # views of one point-major product
        assert np.array_equal(grad_u[..., 1, 1], -grad_u[..., 0, 0])  # trace-free
        planes = (w.u, w.v, spectral_derivative(w.u, (1, 0)), spectral_derivative(w.u, (0, 1)),
                  spectral_derivative(w.v, (1, 0)), spectral_derivative(w.v, (0, 1)))
        got = (u[..., 0], u[..., 1], grad_u[..., 0, 0], grad_u[..., 0, 1],
               grad_u[..., 1, 0], grad_u[..., 1, 1])
        for i, (value, f) in enumerate(zip(got, planes)):
            bound = 1e-14 * f.max_abs()
            assert np.max(np.abs(value - folded(f.hat))) <= bound, (k, i)
            reference = _spline_reference(f.values, coords).reshape(pts.shape[:-1])
            assert np.max(np.abs(value - reference)) <= bound, (k, i)


def test_stage_velocities_of_consecutive_steps_stand_alone():
    # Each provider owns its coefficients: one built after another, from the
    # next step's stages, leaves the first one's values unchanged, and each
    # equals a provider built alone, bit for bit.
    grid = Grid(32)
    state, stages1 = step_detailed(initial_state(ModelKind.BOUSSINESQ, grid, delta=0.1), 0.02)
    _, stages2 = step_detailed(state, 0.02)
    pts = np.random.default_rng(9).uniform(0.0, 2 * np.pi, size=(50, 2))
    first = StageVelocity(stages1)
    second = StageVelocity(stages2)
    for k in range(4):
        for provider, stages in ((first, stages1), (second, stages2)):
            u, grad_u = provider(k, pts)
            u_alone, grad_u_alone = StageVelocity(stages)(k, pts)
            assert np.array_equal(u, u_alone) and np.array_equal(grad_u, grad_u_alone)
        assert not np.array_equal(first(k, pts)[0], second(k, pts)[0])


@pytest.mark.parametrize("kind, forward", [(ModelKind.BOUSSINESQ, 0), (ModelKind.IIE, 8)],
                         ids=["boussinesq", "iie"])
def test_stage_velocity_transform_count(monkeypatch, fft_counts, kind, forward):
    # Four stages of five folded planes: 20 inverse transforms and no
    # spline_filter; an IIE velocity is physical, so each component costs
    # one forward transform more.  Advecting with them evaluates the shared
    # stencil, never map_coordinates.
    grid = Grid(32)
    _, stages = step_detailed(initial_state(kind, grid, delta=0.1), 0.02)
    fft_counts.update(rfft2=0, irfft2=0)
    counts = {"spline_filter": 0, "map_coordinates": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(ndimage, "spline_filter")
    counted(ndimage, "map_coordinates")
    advect_flow_map(identity_ensemble(8), StageVelocity(stages), 0.02)
    counts.update(fft_counts)
    assert counts == {"rfft2": forward, "irfft2": 20, "spline_filter": 0, "map_coordinates": 0}


def test_label_grid_matches_spline_filter_reference():
    # The label-grid planes are physical and periodic in the label (X - a
    # and grad X); their folded interpolant equals spline_filter's.
    grid = Grid(32)
    omega = ScalarField.from_function(
        grid, lambda x, y: np.sin(x) * np.sin(y) + 0.7 * np.cos(2 * x + y))
    prov = StageVelocity([biot_savart(omega)] * 4)
    ens = identity_ensemble(32)
    for _ in range(10):
        ens = advect_flow_map(ens, prov, 0.05)
    disp = ens.x - ens.labels
    planes = (disp[..., 0], disp[..., 1], *(ens.jac[..., a, b] for a in range(2) for b in range(2)))
    rng = np.random.default_rng(6)
    pts = rng.uniform(0.0, 2 * np.pi, size=(300, 2))
    h = 2 * np.pi / ens.m
    coords = np.stack([pts[:, 0] / h, pts[:, 1] / h])
    values = _on_labels(ens.m, planes)(pts)
    for value, plane in zip(values, planes):
        reference = _spline_reference(plane, coords)
        assert np.max(np.abs(value - reference)) <= 1e-14 * np.max(np.abs(plane))


def test_advect_reads_provider_once_per_stage():
    calls = []
    shear = shear_provider()

    def provider(stage, points):
        calls.append(stage)
        return shear(stage, points)

    advect_flow_map(identity_ensemble(8), provider, 0.1)
    assert calls == [0, 1, 2, 3]


def test_jacobian_product_matches_einsum_reference():
    # One step with a non-symmetric grad u from a non-identity Jacobian: the
    # explicit 2x2 plane products give the einsum RK4 step bit for bit.
    def u_fn(x, y):
        return np.sin(y) + 0.3 * np.cos(x), 0.5 * np.sin(x + y)

    def grad_fn(x, y):
        return (-0.3 * np.sin(x), np.cos(y), 0.5 * np.cos(x + y), 0.5 * np.cos(x + y))

    provider = analytic_velocity(u_fn, grad_fn)
    ens = identity_ensemble(16)
    rng = np.random.default_rng(8)
    ens.jac = ens.jac + 0.2 * rng.standard_normal(ens.jac.shape)
    dt = 0.07

    def f(stage, x, g):
        u, grad_u = provider(stage, np.mod(x, 2 * np.pi))
        return u, np.einsum("...ab,...bc->...ac", grad_u, g)

    x0, g0 = ens.x, ens.jac
    k1x, k1g = f(0, x0, g0)
    k2x, k2g = f(1, x0 + 0.5 * dt * k1x, g0 + 0.5 * dt * k1g)
    k3x, k3g = f(2, x0 + 0.5 * dt * k2x, g0 + 0.5 * dt * k2g)
    k4x, k4g = f(3, x0 + dt * k3x, g0 + dt * k3g)
    x = x0 + (dt / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
    g = g0 + (dt / 6.0) * (k1g + 2 * k2g + 2 * k3g + k4g)

    out = advect_flow_map(ens, provider, dt)
    assert np.array_equal(out.x, x)
    assert np.array_equal(out.jac, g)


def back_to_label_residual(ens, grid, labels):
    """Grid supremum of |X(A(x)) - x| after inverse interpolation."""
    labels = labels.reshape(-1, 2)
    disp = ens.x - ens.labels
    dx, dy = _on_labels(ens.m, (disp[..., 0], disp[..., 1]))(labels)
    targets = np.stack([grid.X, grid.Y], axis=-1).reshape(-1, 2)
    r = _map_residual(targets, labels, dx, dy)
    return float(np.max(np.hypot(r[:, 0], r[:, 1])))


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
    for name in ("M", "N", "M_measured"):
        assert np.allclose(series.column(name), 1.0)
    # Y = 2t, Z = t for the trivial run
    assert series.column("Y") == pytest.approx([0.0, 1.0, 2.0])
    assert series.column("Z") == pytest.approx([0.0, 0.5, 1.0])


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
    last = series.rows[-1]
    assert last["M_measured"] == pytest.approx(GOLDEN, abs=1e-6)
    assert last["M"] == pytest.approx(np.e, rel=1e-10)
    assert last["M_measured"] <= last["M"] * (1 + 1e-3)


def test_chord_arc_violation_appends_no_row(monkeypatch):
    # record checks a row before it appends it: after a ChordArcError the
    # series holds the rows it had, and the next row integrates from them.
    import fluidspan.lagrangian as lagrangian

    grid = Grid(16)
    state = initial_state(ModelKind.BOUSSINESQ, grid, delta=0.1)
    ens = identity_ensemble(8)
    series = StretchingSeries(kind=ModelKind.BOUSSINESQ)
    record(series, state, ens)
    steps = march(state, ens, 0.1, 0.02)
    record(series, *next(steps))
    before = [dict(row) for row in series.rows]
    state, ens = next(steps)
    monkeypatch.setattr(lagrangian, "CHORD_ARC_TOL", -0.5)
    with pytest.raises(ChordArcError):
        record(series, state, ens)
    assert series.rows == before
    monkeypatch.undo()
    row = record(series, state, ens)
    assert series.rows == before + [row] and row["t"] == state.t


def test_euler_eigenstate_exponential_m():
    # steady state: integrand constant, so log M is exactly linear in t
    grid = Grid(64)
    state = FluidState(ModelKind.EULER, 0.0, omega=eigenstate_vorticity(grid))
    series = StretchingSeries(kind=ModelKind.EULER)
    g0 = record(series, state)["grad_u_inf"]
    for k in range(10):
        state = FluidState(ModelKind.EULER, 0.05 * (k + 1), omega=state.omega)
        record(series, state)
    slopes = np.diff(np.log(series.column("M"))) / np.diff(series.column("t"))
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
    row = record(StretchingSeries(kind=kind, p=p), state)

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
        expected["B_w2p"] = _w_kp([b1, b2], 2, p)
        current = spectral_derivative(rho, (2, 0)) + spectral_derivative(rho, (0, 2))
        xi, eta = omega + current, omega - current
        expected["Y"] = _w_kp([xi], 1, p) + _w_kp([eta], 1, p)
        expected["Z"] = _w_kp([xi], 2, p) + _w_kp([eta], 2, p)
    for name, value in expected.items():
        assert row[name] == pytest.approx(value, rel=1e-12), name


def test_memory_iie_zero_velocity():
    grid = Grid(32)
    rho = ScalarField(grid, np.ones((grid.nx, grid.ny)))
    series = StretchingSeries(kind=ModelKind.IIE)
    for t in (0.0, 0.4, 0.8):
        state = FluidState(ModelKind.IIE, t, omega=ScalarField.zeros(grid), rho=rho)
        record(series, state)
    assert series.column("Q") == pytest.approx([0.0, 0.0, 0.0])


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
    first, last = series.rows[0], series.rows[-1]
    a, b, t_end = first["grad_u_inf"], first["grad_u_w1p"], last["t"]
    exact = (np.exp(a * t_end) - 1) / a + (np.exp(b * t_end) - 1) / b
    assert last["Y"] == pytest.approx(exact, rel=1e-4)


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


# ---------------------------------------------------------------------------
# transport-lemma checks
# ---------------------------------------------------------------------------

def check_transport_lemma(ens, f, p):
    """Both sides of ||grad(f o X)||_r <= ||grad X||_inf ||grad f||_r, r in {p, inf}.

    Returns a dict of (lhs, rhs, margin) per r; margins should be
    nonnegative up to interpolation error.
    """
    grid = f.grid
    hats = gradient_hat(grid, f.hat)
    f1, f2 = PeriodicInterpolator(hats, (grid.nx, grid.ny))(np.mod(ens.x, TWO_PI))
    mags = np.hypot(*_pull_back(ens.jac, f1, f2))

    m = ens.m
    label_area = (TWO_PI / m) ** 2
    sup_jac = jacobian_norms(ens)[0]
    grad_f = np.hypot(*(to_physical(grid, h) for h in hats))
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
    m_arr, n_arr = series.column("M"), series.column("N")
    if series.kind is ModelKind.BOUSSINESQ:
        q_k = series.column("Y")  # K0 = 1, Kp = 0: the memory is int (M + N)
    elif series.kind is ModelKind.IIE:
        q_k = series.column("Q")
    else:
        q_k = np.zeros_like(m_arr)
    rhs = c_fit * (1.0 + m_arr + delta * m_arr * q_k)
    rhs_rho = c_fit * (1.0 + delta * (m_arr + n_arr + m_arr**2))
    return {"omega": rhs - series.column("omega_w1p"), "rho": rhs_rho - series.column("rho_w2p")}


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
