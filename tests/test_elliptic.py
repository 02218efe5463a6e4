import numpy as np
import pytest

from fluidspan import models
from fluidspan.elliptic import _apply_a, recover_velocity_detailed, solve_div_form
from fluidspan.errors import ConvergenceError, VacuumError
from fluidspan.fields import (
    Grid,
    ScalarField,
    VectorField,
    biot_savart,
    curl,
    divergence,
    grad_u_inf_norm,
    gradient,
    invert_laplacian,
    lp_norm,
)
from fluidspan.harness import RunConfig, run
from fluidspan.models import ModelKind, initial_state, step_detailed


@pytest.fixture(scope="module")
def grid():
    return Grid(64)


def omega_default(grid):
    return ScalarField.from_function(grid, lambda x, y: np.sin(x) * np.sin(y))


def div_mu_grad(mu, q):
    gq = gradient(q)
    return divergence(VectorField(ScalarField(q.grid, mu * gq.u.values),
                                  ScalarField(q.grid, mu * gq.v.values)))


def forcing(rho, omega):
    """b = -div((mu - 1) K omega), built from the fields toolbox alone."""
    dmu = 1.0 / rho.values - 1.0
    k = biot_savart(omega)
    return -divergence(VectorField(ScalarField(rho.grid, dmu * k.u.values),
                                   ScalarField(rho.grid, dmu * k.v.values)))


def test_homogeneous_density_gives_zero_q(grid):
    rho = ScalarField(grid, np.ones((grid.nx, grid.ny)))
    _, q_hat, report = recover_velocity_detailed(rho, omega_default(grid).hat)
    assert ScalarField.from_hat(grid, q_hat).max_abs() == 0.0
    assert report.iterations == 1
    assert report.residual == 0.0


def test_manufactured_solution(grid):
    # oracle built before the solver: pick q*, generate the forcing with the
    # same discrete operator, solve, compare.
    q_star = ScalarField.from_function(grid, lambda x, y: np.sin(x + y))
    mu = 1.0 + 0.05 * np.sin(grid.X)
    f = div_mu_grad(mu, q_star)

    # The operator the solver inverts, on rfft2 coefficients, is minus the
    # toolbox's div(mu grad .): the solve is checked through solve_div_form
    # below and the reported residual in test_residual_is_honest.
    f_hat = np.fft.rfft2(f.values)
    lhs = -_apply_a(grid, mu, q_star.hat)
    rel = np.linalg.norm(lhs - f_hat) / np.linalg.norm(f_hat)
    assert rel < 1e-13


def test_manufactured_solution_via_cg(grid):
    # Solve div(rho^-1 grad q) = f with manufactured q*.
    q_star = ScalarField.from_function(grid, lambda x, y: np.sin(x + y))
    mu = 1.0 + 0.05 * np.sin(grid.X)
    rho = ScalarField(grid, 1.0 / mu)
    gq = gradient(q_star)
    f = divergence(VectorField(
        ScalarField(grid, mu * gq.u.values),
        ScalarField(grid, mu * gq.v.values),
    ))
    q = solve_div_form(rho, f, tol=1e-12, max_iter=200)
    err = lp_norm(q.values - q_star.values, 2, grid.cell_area)
    assert err / lp_norm(q_star.values, 2, grid.cell_area) <= 1e-8


def test_perturbative_solve_properties(grid):
    omega = omega_default(grid)
    mu = 1.0 + 0.05 * np.sin(grid.Y)  # delta = 0.05, theta = sin y
    rho = ScalarField(grid, 1.0 / mu)
    _, _, report = recover_velocity_detailed(rho, omega.hat, tol=1e-10)
    assert report.residual <= 1e-10
    assert report.method == "preconditioned_cg"
    # ||mu - 1||_inf bounds the perturbative fixed-point contraction: O(delta)
    assert report.contraction_estimate == pytest.approx(np.max(np.abs(mu - 1.0)))
    assert 0.0 < report.contraction_estimate < 0.5


def test_vacuum_rejected(grid):
    rho = ScalarField(grid, 0.5 + 0.5 * np.cos(grid.X))  # touches zero
    with pytest.raises(VacuumError):
        recover_velocity_detailed(rho, omega_default(grid).hat)


def test_velocity_reduces_to_biot_savart_for_unit_density(grid):
    omega = omega_default(grid)
    rho = ScalarField(grid, np.ones((grid.nx, grid.ny)))
    u, _, _ = recover_velocity_detailed(rho, omega.hat)
    ub = biot_savart(omega)
    assert np.max(np.abs(u.u.values - ub.u.values)) == 0.0
    assert np.max(np.abs(u.v.values - ub.v.values)) == 0.0


def test_velocity_self_consistency(grid):
    omega = omega_default(grid)
    mu = 1.0 + 0.1 * np.cos(grid.X)  # delta = 0.1, theta = cos x
    rho = ScalarField(grid, 1.0 / mu)
    u, _, _ = recover_velocity_detailed(rho, omega.hat, tol=1e-11)

    # curl(rho u) = omega
    rho_u = VectorField(
        ScalarField(grid, rho.values * u.u.values),
        ScalarField(grid, rho.values * u.v.values),
    )
    w = curl(rho_u)
    rel = lp_norm(w.values - omega.values, 2, grid.cell_area) / lp_norm(
        omega.values, 2, grid.cell_area
    )
    assert rel <= 1e-8

    # div u = 0 to solver tolerance
    assert divergence(u).max_abs() <= 1e-9 * max(grad_u_inf_norm(u), 1.0)

    # momentum mean vanishes
    mom_x = np.mean(rho_u.u.values)
    mom_y = np.mean(rho_u.v.values)
    assert abs(mom_x) <= 1e-10
    assert abs(mom_y) <= 1e-10


def test_methods_agree(grid):
    # Reference: the perturbative Picard iteration q <- Lap^-1 (b - div((mu-1)
    # grad q)), which contracts by ||mu - 1||_inf = 0.2 per sweep.
    omega = omega_default(grid)
    mu = 1.0 + 0.2 * np.sin(grid.X) * np.cos(grid.Y)
    rho = ScalarField(grid, 1.0 / mu)
    b = forcing(rho, omega)
    q_ref = ScalarField.zeros(grid)
    for _ in range(40):
        rhs = b - div_mu_grad(mu - 1.0, q_ref)
        q_ref = invert_laplacian(rhs - rhs.mean, mean_tol=np.inf)

    tol = 1e-11
    _, q_hat, rep = recover_velocity_detailed(rho, omega.hat, tol=tol)
    q = ScalarField.from_hat(grid, q_hat)
    assert rep.method == "preconditioned_cg"
    diff = lp_norm(q_ref.values - q.values, 2, grid.cell_area)
    assert diff <= 10 * tol


@pytest.mark.parametrize("mu_fn", [
    lambda x, y: 1.0 + 0.05 * np.sin(y),
    lambda x, y: 1.0 + 0.9 * np.sin(x) * np.cos(y),  # strong contrast
])
def test_residual_is_honest(grid, mu_fn):
    omega = omega_default(grid)
    mu = mu_fn(grid.X, grid.Y)
    rho = ScalarField(grid, 1.0 / mu)
    tol = 1e-10
    _, q_hat, rep = recover_velocity_detailed(rho, omega.hat, tol=tol)
    q = ScalarField.from_hat(grid, q_hat)
    b = forcing(rho, omega)
    r = div_mu_grad(mu, q).values - b.values
    recomputed = np.linalg.norm(r) / np.linalg.norm(b.values)
    assert rep.residual <= tol
    assert abs(rep.residual - recomputed) <= 1e-12


def test_unreachable_tolerance_stops_at_best_iterate(grid):
    omega = omega_default(grid)
    rho = ScalarField(grid, 1.0 / (1.0 + 0.3 * np.sin(grid.X) * np.cos(grid.Y)))
    with pytest.raises(ConvergenceError) as info:
        recover_velocity_detailed(rho, omega.hat, tol=1e-17)
    rep = info.value.report
    assert rep.iterations < 100  # stagnation stop, not max_iter
    assert rep.residual <= 1e-13  # round-off floor, not a divergent iterate


def test_strong_density_contrast_run_completes():
    cfg = RunConfig(model="iie", nx=32, ny=32, delta=5.0, t_end=0.02,
                    dt_max=0.01, track_particles=False)
    result = run(cfg)
    assert result.status == 0, result.termination
    assert result.termination == "completed"


def test_refinement_invariance():
    coarse = Grid(64)
    fine = Grid(128)
    tol = 1e-10

    def setup(g):
        omega = ScalarField.from_function(g, lambda x, y: np.sin(x) * np.sin(y))
        mu = 1.0 + 0.05 * np.sin(g.Y)
        rho = ScalarField(g, 1.0 / mu)
        u, _, _ = recover_velocity_detailed(rho, omega.hat, tol=tol)
        return u

    u_c = setup(coarse)
    u_f = setup(fine)
    diff = np.max(np.abs(u_c.u.values - u_f.u.values[::2, ::2]))
    diff = max(diff, np.max(np.abs(u_c.v.values - u_f.v.values[::2, ::2])))
    assert diff <= 10 * tol


def test_warm_start_is_consistent(grid):
    omega = omega_default(grid)
    mu = 1.0 + 0.05 * np.sin(grid.Y)
    rho = ScalarField(grid, 1.0 / mu)
    u1, q1_hat, _ = recover_velocity_detailed(rho, omega.hat, tol=1e-11)
    u2, _, rep2 = recover_velocity_detailed(rho, omega.hat, tol=1e-11, q0=q1_hat)
    assert rep2.iterations <= 3
    assert np.max(np.abs(u1.u.values - u2.u.values)) <= 1e-9


@pytest.mark.parametrize("delta", [5e-3, 2.8])
def test_predicted_starts_match_cold_solves(delta, monkeypatch):
    # Every solve of a run starts from the WarmStart prediction; a cold solve
    # of the same state must give the same velocity to solver tolerance.
    # The steps after the fourth use the stage correction; the shorter sixth
    # step and the one after it change the offsets, so their corrections are
    # scaled by the squared offset ratio.
    tol = 1e-10
    solve = models.recover_velocity_detailed
    seen = []

    def checked_solve(rho, omega_hat, tol, q0):
        out = solve(rho, omega_hat, tol=tol, q0=q0)
        cold, _, cold_report = solve(rho, omega_hat, tol=tol)
        u = out[0]
        gap = max(np.max(np.abs(u.u.values - cold.u.values)),
                  np.max(np.abs(u.v.values - cold.v.values)))
        seen.append((q0 is not None, gap / u.max_abs(), out[2].residual,
                     cold_report.residual))
        return out

    monkeypatch.setattr(models, "recover_velocity_detailed", checked_solve)
    state = initial_state(ModelKind.IIE, Grid(32), delta=delta,
                          delta_norm="inv_rho_minus_1_W2p", elliptic_tol=tol)
    for dt in (0.01, 0.01, 0.01, 0.01, 0.01, 0.004, 0.01):
        state, _ = step_detailed(state, dt)
    assert len(seen) == 7 * 4
    assert [warm for warm, *_ in seen] == [False] + [True] * 27
    assert max(gap for _, gap, _, _ in seen) <= 20 * tol
    assert max(max(warm, cold) for _, _, warm, cold in seen) <= tol


def test_run_with_a_truncated_last_step_completes():
    # t_end = 0.055 ends on a 0.005 step, so its stage offsets differ from
    # those of the step before.
    cfg = RunConfig(model="iie", nx=32, ny=32, delta=2.8,
                    delta_norm="inv_rho_minus_1_W2p", t_end=0.055, dt_max=0.01,
                    track_particles=False)
    result = run(cfg)
    assert result.status == 0, result.termination
    assert result.solver["residual_max"] <= cfg.elliptic_tol


def test_predicted_starts_cut_iterations():
    # One fixed 8-step run at delta = 2.8: 33 solves.  Starting each solve
    # from the previous one's q_hat took 278 iterations; the WarmStart
    # prediction takes 161.
    cfg = RunConfig(model="iie", nx=32, ny=32, delta=2.8,
                    delta_norm="inv_rho_minus_1_W2p", t_end=0.08, dt_max=0.01,
                    track_particles=False, diag_every=25)
    result = run(cfg)
    assert result.status == 0, result.termination
    assert result.solver["solves"] == 33
    assert result.solver["iterations_total"] <= 161


def test_scaled_stage_correction_cuts_cfl_limited_iterations():
    # A CFL-limited run changes dt every step.  Adding the stage correction
    # only at an unchanged offset took 185 iterations over these 21 solves;
    # scaling it by (h / h0)^2 takes 176.
    cfg = RunConfig(model="iie", nx=64, ny=64, delta=2.8,
                    delta_norm="inv_rho_minus_1_W2p", t_end=0.3, dt_max=1.0,
                    track_particles=False, diag_every=1000)
    result = run(cfg)
    assert result.status == 0, result.termination
    assert result.solver["solves"] == 21
    assert result.solver["iterations_total"] <= 176


def test_pcg_transforms_per_iteration(grid, fft_counts):
    # Machine-free cost of one cold solve (delta = 0.3, one PCG cycle):
    # 4 transforms per iteration, plus a fixed overhead of 7 forward and 6
    # inverse transforms: omega's coefficients (1 forward; a model state
    # carries them already), K omega (2 inverse), the right-hand side
    # div((mu - 1) K omega) (2 forward), and the initial and the closing
    # true residual (2 + 2 each).  u is read off the closing residual's
    # flux mu grad q, so grad q is not transformed again.
    omega = omega_default(grid)
    rho = ScalarField(grid, 1.0 / (1.0 + 0.3 * np.sin(grid.X) * np.cos(grid.Y)))
    counts = fft_counts
    _, _, rep = recover_velocity_detailed(rho, omega.hat, tol=1e-10)
    assert rep.iterations > 3
    assert counts["rfft2"] == 2 * rep.iterations + 7
    assert counts["irfft2"] == 2 * rep.iterations + 6
