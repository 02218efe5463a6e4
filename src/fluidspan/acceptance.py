"""Acceptance criteria, shared by ``fluidspan verify`` and the test suite.

Each criterion is a function returning a CriterionResult with the measured
values in ``detail``; tolerances are pinned here, not in the callers.
The fast suite covers everything at <= 128^2; the full suite adds the
256^2 conservation runs and the delta sweeps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .bootstrap import (
    ClosureSpec,
    boussinesq_bound,
    closure_lifespan,
    growth_constants,
    iie_continuation_budget,
    integrate_saturated_system,
    mhd_certificate,
    mhd_constants,
)
from .elliptic import recover_velocity_detailed, solve_div_form
from .errors import ChordArcError
from .fields import (
    Grid,
    ScalarField,
    VectorField,
    biot_savart,
    curl,
    divergence,
    gradient,
    kato_ratio,
    lp_norm,
)
from .harness import RunConfig, march, sweep
from .lagrangian import (
    CHORD_ARC_TOL,
    DuhamelHistory,
    StretchingSeries,
    advect_flow_map,
    analytic_velocity,
    duhamel_vorticity,
    identity_ensemble,
    record,
)
from .models import (
    FluidState,
    ModelKind,
    conserved_quantities,
    eigenstate_vorticity,
    initial_state,
    step_detailed,
)

E = math.e

# 50-digit mpmath evaluations of the proofs' closed forms, frozen.
DELTA0_UNIT_CLOSURE = 6.1179919943778256363332638801249579433972822144975e-4
T_AT_1E6_UNIT_CLOSURE = 0.96510534609744689619147699179147799430035342643881
LOG_DELTA0_BOUSSINESQ_C3 = -47.052437130539612870562118191157307929340500343077
T_DELTA0_BOUSSINESQ_C3 = 0.29047010790179739624669549710730955184073524634146
LOG10_IIE_CONT_BOUND_C1 = -15.689296325572078881178620182807951806760866701964
MHD_C2 = 1.231509349821775037871737910095834635530052595092
MHD_C4 = 0.033833820809153172973499873743121100851907886477394
MHD_LOG10_DELTA0_C1 = -3667137427904.8611975904810134589714087304497731221
MHD_LOG_F_PAPER_DISPLAY = -8443895975462.1315218216813665681181706578497877961


@dataclass
class CriterionResult:
    name: str
    passed: bool
    detail: str
    runtime: float = 0.0
    values: dict = field(default_factory=dict)


def _criterion(name):
    def wrap(fn):
        def inner():
            start = time.time()
            passed, detail, values = fn()
            return CriterionResult(name=name, passed=passed, detail=detail,
                                   runtime=time.time() - start, values=values)
        inner.criterion_name = name
        return inner
    return wrap


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


@_criterion("exact_constants")
def criterion_exact_constants():
    """Closed-form constants reproduced to 1e-12 relative (nested-log space)."""
    checks = {}
    lam = growth_constants(3.0)
    checks["lambda1"] = _rel(lam.lambda1, 1.0 + math.log(4.0))
    checks["lambda_234"] = max(abs(lam.lambda2 - 3.0), abs(lam.lambda3 - 6.0),
                               abs(lam.lambda4 - 15.0))

    unit = closure_lifespan(ClosureSpec(kappa=(1.0,), zeta=(1.0,),
                                        c1=1.0, c2=1.0, c3=1.0))
    checks["c0_unit"] = _rel(unit.c0, 0.99)
    checks["delta0_unit"] = _rel(math.exp(unit.log_delta0), DELTA0_UNIT_CLOSURE)
    checks["endpoint_unit"] = _rel(unit.time_of_log_delta(unit.log_delta0),
                                   math.log(2.0))
    checks["t_1em6_unit"] = _rel(unit.time_of_delta(1e-6), T_AT_1E6_UNIT_CLOSURE)

    bss = boussinesq_bound(lam)
    checks["c0_bss"] = _rel(bss.c0, 99.0 / 1500.0)
    checks["logd0_bss"] = _rel(bss.log_delta0, LOG_DELTA0_BOUSSINESQ_C3)
    checks["endpoint_bss"] = _rel(bss.time_of_log_delta(bss.log_delta0),
                                  T_DELTA0_BOUSSINESQ_C3)

    budget = iie_continuation_budget(1.0)
    checks["iie_cont_bound"] = _rel(budget.log10_delta0_bound, LOG10_IIE_CONT_BOUND_C1)
    checks["iie_cont_boundary"] = abs(budget.budget_of_log_delta(budget.log_delta0_bound))

    consts, bound = mhd_constants(1.0)
    checks["mhd_c2"] = _rel(consts.c2, MHD_C2)
    checks["mhd_c4"] = _rel(consts.c4, MHD_C4)
    checks["mhd_logd0"] = _rel(consts.log10_delta0, MHD_LOG10_DELTA0_C1)
    checks["mhd_gamma"] = _rel(consts.gamma_at_delta0, 2.0)
    checks["mhd_log_f"] = _rel(consts.log_f_at_delta0, MHD_LOG_F_PAPER_DISPLAY)
    cert = mhd_certificate(consts)
    checks["mhd_f_below_1"] = 0.0 if (consts.log_f_at_delta0 < 0 and cert["monotone_ok"]) else 1.0

    worst = max(checks.values())
    passed = worst <= 1e-12
    return passed, f"worst relative error {worst:.3e} (tol 1e-12)", checks


@_criterion("envelope_domination")
def criterion_envelope_domination():
    """Saturated systems vs the growth-lemma envelopes, C in {3, 5, 10}."""
    values = {}
    worst = math.inf
    first = None
    for c in (3.0, 5.0, 10.0):
        rep = integrate_saturated_system("generic", c, 0.5)
        mins = {k: float(np.min(v)) for k, v in rep.margins.items()}
        values[f"C={c:g}"] = {"min_margins": mins, "violations": rep.violations}
        worst = min(worst, min(mins.values()))
        for name, tv in rep.violations.items():
            if tv is not None and (first is None or tv < first[1]):
                first = (f"C={c:g}:{name}", tv)
    passed = worst >= 0.0
    if passed:
        detail = f"all log-space margins >= 0 (min {worst:.3e})"
    else:
        detail = (f"envelope exceeded: first crossing {first[0]} at t = {first[1]:.4f}, "
                  f"worst log-space margin {worst:.3e}")
    return passed, detail, values


@_criterion("euler_steadiness")
def criterion_euler_steadiness():
    """sin(x) sin(y) at 128^2, dt = 1e-3, t_end = 1: relative L2 drift <= 1e-8."""
    grid = Grid(128)
    state = FluidState(ModelKind.EULER, 0.0, omega=eigenstate_vorticity(grid))
    omega0 = state.omega.values.copy()
    dt = 1e-3
    for _ in range(1000):
        state, _ = step_detailed(state, dt)
    drift = lp_norm(state.omega.values - omega0, 2, grid.cell_area)
    drift /= lp_norm(omega0, 2, grid.cell_area)
    return drift <= 1e-8, f"relative L2 drift {drift:.3e} (tol 1e-8)", {"drift": drift}


@_criterion("elliptic_solver")
def criterion_elliptic_solver():
    """Manufactured solution <= 1e-8; rho = 1 reduction exact; curl residual."""
    grid = Grid(64)
    values = {}

    q_star = ScalarField.from_function(grid, lambda x, y: np.sin(x + y))
    mu = 1.0 + 0.05 * np.sin(grid.X)
    rho = ScalarField(grid, 1.0 / mu)
    gq = gradient(q_star)
    f = divergence(VectorField(ScalarField(grid, mu * gq.u.values),
                               ScalarField(grid, mu * gq.v.values)))
    q = solve_div_form(rho, f, tol=1e-12)
    manuf = (lp_norm(q.values - q_star.values, 2, grid.cell_area)
             / lp_norm(q_star.values, 2, grid.cell_area))
    values["manufactured_rel_error"] = manuf

    omega = ScalarField.from_function(grid, lambda x, y: np.sin(x) * np.sin(y))
    ones = ScalarField(grid, np.ones((grid.nx, grid.ny)))
    u_unit, _, rep = recover_velocity_detailed(ones, omega.hat)
    ub = biot_savart(omega)
    values["unit_density_exact"] = float(np.max(np.abs(u_unit.u.values - ub.u.values)))
    values["unit_density_iterations"] = rep.iterations

    mu2 = 1.0 + 0.1 * np.cos(grid.X)
    rho2 = ScalarField(grid, 1.0 / mu2)
    u, _, _ = recover_velocity_detailed(rho2, omega.hat, tol=1e-11)
    rho_u = VectorField(ScalarField(grid, rho2.values * u.u.values),
                        ScalarField(grid, rho2.values * u.v.values))
    curl_res = (lp_norm(curl(rho_u).values - omega.values, 2, grid.cell_area)
                / lp_norm(omega.values, 2, grid.cell_area))
    values["curl_rel_residual"] = curl_res
    values["momentum_mean"] = max(abs(float(np.mean(rho_u.u.values))),
                                  abs(float(np.mean(rho_u.v.values))))

    passed = (manuf <= 1e-8 and values["unit_density_exact"] == 0.0
              and rep.iterations == 1 and curl_res <= 1e-8
              and values["momentum_mean"] <= 1e-10)
    detail = (f"manufactured {manuf:.2e} (tol 1e-8), curl residual {curl_res:.2e} "
              f"(tol 1e-8), momentum mean {values['momentum_mean']:.1e}")
    return passed, detail, values


@_criterion("flow_map")
def criterion_flow_map():
    """det grad X in 1 +- 1e-4; chord-arc; shear closed form to 1e-6 at t = 1."""
    values = {}
    # shear flow closed form
    ens = identity_ensemble(48)
    shear = analytic_velocity(
        u_fn=lambda x, y: (np.sin(y), np.zeros_like(x)),
        grad_fn=lambda x, y: (np.zeros_like(x), np.cos(y),
                             np.zeros_like(x), np.zeros_like(x)))
    dt = 0.02
    for _ in range(50):
        ens = advect_flow_map(ens, shear, dt)
    a2 = ens.labels[..., 1]
    shear_err = max(
        float(np.max(np.abs(ens.x[..., 0] - ens.labels[..., 0] - np.sin(a2)))),
        float(np.max(np.abs(ens.jac[..., 0, 1] - np.cos(a2)))))
    values["shear_error"] = shear_err

    # solver-driven run: area preservation, and chord-arc as record checks it
    grid = Grid(64)
    state = initial_state(ModelKind.BOUSSINESQ, grid, delta=0.05)
    ens2 = identity_ensemble(48)
    series = StretchingSeries()
    chord_ok = True
    try:
        record(series, state, ens2)
        for state, ens2 in march(state, ens2, 1.0, 0.02):
            record(series, state, ens2)
    except ChordArcError:
        chord_ok = False
    m_integral, m_measured, detj = (float(series.column(name)[-1])
                                    for name in ("M", "M_measured", "detJ_err"))
    values["det_jacobian_error"] = detj
    values["m_measured"] = m_measured
    values["m_integral"] = m_integral

    passed = shear_err <= 1e-6 and detj <= 1e-4 and chord_ok
    detail = (f"shear error {shear_err:.2e} (tol 1e-6), |det-1| {detj:.2e} "
              f"(tol 1e-4), M_measured {m_measured:.4f} <= "
              f"M {m_integral:.4f} * (1 + {CHORD_ARC_TOL:g}): {chord_ok}")
    return passed, detail, values


@_criterion("duhamel_reconstruction")
def criterion_duhamel():
    """Boussinesq delta = 0.1, t = 1, 128^2, m = 128: L2 mismatch <= 1e-2."""
    grid = Grid(128)
    state = initial_state(ModelKind.BOUSSINESQ, grid, delta=0.1)
    ens = identity_ensemble(128)
    hist = DuhamelHistory(state, ens)
    for state, ens in march(state, ens, 1.0, 0.01):
        hist.update(state, ens)
    rec = duhamel_vorticity(ens, hist, grid)
    rel = (lp_norm(rec.values - state.omega.values, 2, grid.cell_area)
           / lp_norm(state.omega.values, 2, grid.cell_area))
    return rel <= 1e-2, f"relative L2 mismatch {rel:.3e} (tol 1e-2)", {"rel": rel}


@_criterion("mhd_equivalence")
def criterion_mhd_equivalence():
    """(omega, rho) vs Elsasser integrators agree to 1e-6 relative at t = 1."""
    from .models import from_elsasser, to_elsasser

    grid = Grid(128)
    vc = initial_state(ModelKind.MHD_VORTICITY_CURRENT, grid, delta=0.05,
                       delta_norm="rho_minus_1_W3p", seed_profile="helical")
    els = to_elsasser(vc)
    dt = 2.5e-3
    for _ in range(400):
        vc, _ = step_detailed(vc, dt, check_cfl=False)
        els, _ = step_detailed(els, dt, check_cfl=False)
    back = from_elsasser(els)
    rel_o = (lp_norm(back.omega.values - vc.omega.values, 2, grid.cell_area)
             / lp_norm(vc.omega.values, 2, grid.cell_area))
    rel_r = (lp_norm(back.rho.values - vc.rho.values, 2, grid.cell_area)
             / lp_norm(vc.rho.values, 2, grid.cell_area))
    worst = max(rel_o, rel_r)
    return worst <= 1e-6, f"relative disagreement {worst:.3e} (tol 1e-6)", {
        "omega": rel_o, "rho": rel_r}


@_criterion("kato_ratio")
def criterion_kato_ratio():
    """sup ||grad u||_inf / [(1 + log(2 + ||omega||_{1,p})) ||omega||_inf] <= 10."""
    sup = 0.0
    grid = Grid(64)
    corpus = [
        eigenstate_vorticity(grid),
        ScalarField.from_function(grid, lambda x, y: np.cos(x)),
        ScalarField.from_function(
            grid, lambda x, y: np.sin(x) * np.sin(y) + 0.7 * np.cos(2 * x + y)),
    ]
    rng = np.random.default_rng(12)
    for _ in range(4):
        vals = np.zeros((grid.nx, grid.ny))
        for _ in range(6):
            kx, ky = rng.integers(-8, 9, size=2)
            if kx == 0 and ky == 0:
                continue
            vals += rng.normal() * np.cos(kx * grid.X + ky * grid.Y + rng.uniform(0, 6))
        corpus.append(ScalarField(grid, vals))
    for omega in corpus:
        omega = omega - omega.mean
        sup = max(sup, kato_ratio(biot_savart(omega), omega, p=4))
    # plus snapshots along short runs of each model
    for model, delta, norm in (("boussinesq", 0.05, "rho_minus_1_W2p"),
                               ("mhd", 0.05, "rho_minus_1_W3p"),
                               ("iie", 0.05, "inv_rho_minus_1_W2p")):
        state = initial_state(model, grid, delta=delta, delta_norm=norm)
        for _ in range(10):
            state, _ = step_detailed(state, 0.02, check_cfl=False)
            sup = max(sup, kato_ratio(state.velocity(), state.vorticity(), p=4))
    return sup <= 10.0, f"sup ratio {sup:.4f} (bound 10)", {"sup": sup}


def _conservation_run(model, delta, norm="rho_minus_1_W2p", profile="default"):
    """Bare march at 256^2 to t = 5 sampling the conserved quantities every
    10 steps and at the end."""
    state = initial_state(model, Grid(256), delta=delta, delta_norm=norm,
                          seed_profile=profile)
    samples = [conserved_quantities(state)]
    steps = 0
    for steps, (state, _) in enumerate(march(state, None, 5.0, 0.01), 1):
        if steps % 10 == 0:
            samples.append(conserved_quantities(state))
    if steps % 10:
        samples.append(conserved_quantities(state))
    return samples


def _drift(samples, key, absolute=False):
    vals = [s[key] for s in samples]
    spread = max(abs(v - vals[0]) for v in vals)
    if absolute:
        return max(abs(v) for v in vals)
    return spread / max(abs(vals[0]), 1e-300)


@_criterion("conservation")
def criterion_conservation():
    """Four models at 256^2, t_end = 5: invariants within 1e-4 relative
    (transported L^p norms to 1e-6; IIE momentum to 1e-9 absolute)."""
    values = {}
    failures = []

    s = _conservation_run("euler", 0.0)
    values["euler"] = {"E": _drift(s, "E_model"),
                       "omega_p": _drift(s, "omega_p"),
                       "omega_inf": _drift(s, "omega_inf")}
    if max(values["euler"].values()) > 1e-4:
        failures.append(f"euler {values['euler']}")

    s = _conservation_run("boussinesq", 1e-3)
    values["boussinesq"] = {"E": _drift(s, "E_model"),
                            "rho_p": _drift(s, "rho_p")}
    if values["boussinesq"]["E"] > 1e-4 or values["boussinesq"]["rho_p"] > 1e-6:
        failures.append(f"boussinesq {values['boussinesq']}")

    s = _conservation_run("mhd", 0.05, norm="rho_minus_1_W3p", profile="helical")
    values["mhd"] = {"E": _drift(s, "E_model"),
                     "cross_helicity": _drift(s, "cross_helicity")}
    if max(values["mhd"].values()) > 1e-4:
        failures.append(f"mhd {values['mhd']}")

    s = _conservation_run("iie", 0.05, norm="inv_rho_minus_1_W2p")
    mom = max(_drift(s, "momentum_x", absolute=True),
              _drift(s, "momentum_y", absolute=True))
    values["iie"] = {"E": _drift(s, "E_model"), "rho_p": _drift(s, "rho_p"),
                     "momentum_abs": mom}
    if (values["iie"]["E"] > 1e-4 or values["iie"]["rho_p"] > 1e-6
            or mom > 1e-9):
        failures.append(f"iie {values['iie']}")

    passed = not failures
    detail = "all invariants within tolerance" if passed else "; ".join(failures)
    return passed, detail, values


@_criterion("delta_sweep")
def criterion_delta_sweep():
    """Boussinesq and IIE sweeps: T_emp nondecreasing as delta decreases."""
    deltas = [1e-1, 1e-2, 1e-3, 1e-4]
    values = {}
    failures = []
    for model, norm in (("boussinesq", "rho_minus_1_W2p"),
                        ("iie", "inv_rho_minus_1_W2p")):
        config = RunConfig(model=model, nx=128, ny=128, t_end=8.0, dt_max=0.01,
                           delta_norm=norm, track_particles=False, diag_every=2,
                           output_dir=f"/tmp/fluidspan_sweep_{model}")
        rows = sweep(config, deltas)
        t_emps = [row["T_emp"] for row in rows]
        values[model] = {"deltas": deltas, "T_emp": t_emps,
                         "T_theory": [row["T_theory"] for row in rows]}
        finite = [t if t is not None else math.inf for t in t_emps]
        if not all(finite[i] <= finite[i + 1] + 1e-9 for i in range(len(finite) - 1)):
            failures.append(f"{model} T_emp not nondecreasing: {t_emps}")
        for row in rows:
            t_th = row["T_theory"]
            if t_th is not None and t_th <= config.t_end:
                t_emp = math.inf if row["unconditional"] else row["T_emp"]
                if t_emp is not None and t_emp < t_th:
                    failures.append(
                        f"{model} delta={row['delta']}: hypothesis fails inside "
                        f"theory window ({t_emp} < {t_th})")
    passed = not failures
    detail = ("monotone windows; theory windows vacuous or held"
              if passed else "; ".join(failures))
    return passed, detail, values


FAST_CRITERIA = [
    criterion_exact_constants,
    criterion_envelope_domination,
    criterion_elliptic_solver,
    criterion_flow_map,
    criterion_euler_steadiness,
    criterion_mhd_equivalence,
    criterion_duhamel,
    criterion_kato_ratio,
]

FULL_CRITERIA = FAST_CRITERIA + [
    criterion_conservation,
    criterion_delta_sweep,
]


def run_suite(suite):
    if suite == "fast":
        criteria = FAST_CRITERIA
    elif suite == "full":
        criteria = FULL_CRITERIA
    else:
        raise ValueError(f"unknown suite '{suite}'")
    return [fn() for fn in criteria]
