import math

import numpy as np
import pytest

from fluidspan.bootstrap import (
    _log_trapezoid_cumsum,
    ClosureSpec,
    GrowthConstants,
    bootstrap_monitor,
    boussinesq_bound,
    calibrate_c_fit,
    closure_lifespan,
    growth_constants,
    iie_continuation_budget,
    iie_lifespan,
    integrate_saturated_system,
    mhd_certificate,
    mhd_constants,
    theory_window,
)
from fluidspan.errors import HypothesisError, NestedLogDomainError
from fluidspan.lagrangian import StretchingSeries
from fluidspan.models import ModelKind

E = math.e

# Frozen 50-digit mpmath evaluations of the closed forms (see the oracle
# expressions in each test).
DELTA0_UNIT_CLOSURE = 6.1179919943778256363332638801249579433972822144975e-4
T_AT_1E6_UNIT_CLOSURE = 0.96510534609744689619147699179147799430035342643881
LOG_DELTA0_BOUSSINESQ_C3 = -47.052437130539612870562118191157307929340500343077
T_DELTA0_BOUSSINESQ_C3 = 0.29047010790179739624669549710730955184073524634146
LOG10_IIE_CONT_BOUND_C1 = -15.689296325572078881178620182807951806760866701964
MHD_C2 = 1.231509349821775037871737910095834635530052595092
MHD_C4 = 0.033833820809153172973499873743121100851907886477394
MHD_C4P = 29.260662151765374899832492743877030940194049659385
MHD_LOG10_DELTA0_C1 = -3667137427904.8611975904810134589714087304497731221
MHD_LOG_F_PAPER_DISPLAY = -8443895975462.1315218216813665681181706578497877961


def test_growth_constants_closed_form():
    g = growth_constants(3.0)
    assert g.lambda1 == pytest.approx(1.0 + math.log(4.0), rel=1e-15)
    assert (g.lambda2, g.lambda3, g.lambda4) == (3.0, 6.0, 15.0)
    g10 = growth_constants(10.0)
    assert g10.lambda1 == pytest.approx(1.0 + math.log(11.0), rel=1e-15)


def test_growth_constants_hypothesis_guard():
    with pytest.raises(HypothesisError):
        growth_constants(E)
    with pytest.raises(HypothesisError):
        growth_constants(1.0)


def unit_closure():
    return ClosureSpec(kappa=(1.0,), zeta=(1.0,), c1=1.0, c2=1.0, c3=1.0)


def test_unit_closure_threshold_and_endpoint():
    bound = closure_lifespan(unit_closure())
    assert bound.c0 == pytest.approx(0.99, rel=1e-15)
    # delta0 = 0.99 exp(-e^2): small enough to be carried in log space
    assert math.exp(bound.log_delta0) == pytest.approx(DELTA0_UNIT_CLOSURE, rel=1e-13)
    # endpoint identity T(delta0) = C3^{-1} log 2
    assert bound.time_of_log_delta(bound.log_delta0) == pytest.approx(
        math.log(2.0), rel=1e-12)


def test_unit_closure_at_1em6():
    bound = closure_lifespan(unit_closure())
    assert bound.time_of_delta(1e-6) == pytest.approx(T_AT_1E6_UNIT_CLOSURE, rel=1e-13)


def test_closure_domain_errors_identify_level():
    bound = closure_lifespan(unit_closure())
    with pytest.raises(NestedLogDomainError) as exc:
        bound.time_of_delta(1.0)  # log(C0/delta) < 0
    assert exc.value.level == 2
    with pytest.raises(NestedLogDomainError) as exc:
        bound.time_of_delta(0.5)  # middle log lands nonpositive
    assert exc.value.level == 3


def test_lifespan_strictly_decreasing():
    bound = closure_lifespan(unit_closure())
    # 50 log-spaced deltas inside the domain (delta < C0 e^{-C1})
    logs = np.linspace(bound.log_delta0 - 40.0, math.log(0.99) - 1.2, 50)
    values = [bound.time_of_log_delta(ld) for ld in logs]
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))


def test_budget_identity():
    # by construction of T_delta: zeta_j E(T_delta) = zeta_j C0 / delta
    spec = ClosureSpec(kappa=(0.5, 1.0), zeta=(1.0, 7.0), c1=2.0, c2=0.7, c3=1.3)
    bound = closure_lifespan(spec)
    for ld in (bound.log_delta0, bound.log_delta0 - 5.0, bound.log_delta0 - 25.0):
        t = bound.time_of_log_delta(ld)
        log_env = spec.c1 * math.exp(spec.c2 * math.exp(spec.c3 * t))  # log E(t)
        assert log_env == pytest.approx(math.log(bound.c0) - ld, rel=1e-10)


def test_boussinesq_bound_values():
    lam = growth_constants(3.0)
    bound = boussinesq_bound(lam)
    assert bound.c0 == pytest.approx(99.0 / 1500.0, rel=1e-15)  # 0.066
    assert bound.log_delta0 == pytest.approx(LOG_DELTA0_BOUSSINESQ_C3, rel=1e-14)
    assert bound.time_of_log_delta(bound.log_delta0) == pytest.approx(
        T_DELTA0_BOUSSINESQ_C3, rel=1e-12)
    with pytest.raises(NestedLogDomainError):
        bound.time_of_delta(bound.c0)  # innermost log hits zero


def test_iie_lifespan_structure():
    bound = iie_lifespan(1.0)
    lam = growth_constants(9.0 * E**2)
    assert bound.c0 == pytest.approx(99.0 / (100.0 * lam.lambda4), rel=1e-14)
    assert bound.time_of_log_delta(bound.log_delta0) == pytest.approx(
        math.log(2.0) / lam.lambda1, rel=1e-12)
    with pytest.raises(HypothesisError):
        iie_lifespan(0.5)


def test_iie_continuation_budget():
    budget = iie_continuation_budget(1.0)
    assert budget.log10_delta0_bound == pytest.approx(LOG10_IIE_CONT_BOUND_C1, rel=1e-13)
    # at the threshold the inner expression collapses to log(1) = 0
    assert abs(budget.budget_of_log_delta(budget.log_delta0_bound)) <= 1e-12
    # budget grows monotonically as delta shrinks
    vals = [budget.budget_of_log_delta(budget.log_delta0_bound - s)
            for s in (1.0, 5.0, 20.0, 100.0)]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))
    with pytest.raises(HypothesisError):
        iie_continuation_budget(0.2)


def test_mhd_constants_closed_form():
    consts, bound = mhd_constants(1.0)
    assert consts.c1 == 6.0
    assert consts.c2 == pytest.approx(MHD_C2, rel=1e-15)
    assert consts.c4 == pytest.approx(MHD_C4, rel=1e-15)
    assert consts.c4_prime == pytest.approx(MHD_C4P, rel=1e-14)
    # delta0 exists only in log space: log10 ~ -3.7e12
    assert consts.log10_delta0 == pytest.approx(MHD_LOG10_DELTA0_C1, rel=1e-13)
    assert consts.gamma_at_delta0 == pytest.approx(2.0, rel=1e-12)
    assert consts.beta_at_delta0 == pytest.approx(4.0 * E**2, rel=1e-12)
    # f(delta0) < 1, checked in log space; agrees with the proof's displayed
    # product within 1e-12 relative (log scale)
    assert consts.log_f_at_delta0 < 0.0
    assert consts.log_f_at_delta0 == pytest.approx(MHD_LOG_F_PAPER_DISPLAY, rel=1e-12)
    # endpoint: T(delta0) = 2 / C1
    assert bound.time_of_log_delta(bound.log_delta0) == pytest.approx(
        2.0 / consts.c1, rel=1e-12)


def test_mhd_certificate():
    consts, _ = mhd_constants(1.0)
    cert = mhd_certificate(consts)
    assert cert["f_at_delta0_ok"]
    assert cert["monotone_ok"]
    assert cert["min_margin"] > 0.0


def test_mhd_lifespan_monotone_in_log_space():
    consts, bound = mhd_constants(1.0)
    logs = np.linspace(bound.log_delta0, 2.0 * bound.log_delta0, 50)
    vals = [bound.time_of_log_delta(ld) for ld in logs]
    assert all(vals[i] < vals[i + 1] for i in range(len(vals) - 1))


def test_saturated_generic_initialization_margins():
    # at t = 0 all envelopes hold with slack: M(0) = 1 <= e, etc.
    rep = integrate_saturated_system("generic", 3.0, 0.5)
    assert rep.margins["M"][0] == pytest.approx(1.0)  # e^{Lambda_1 0} - log 1
    assert np.isinf(rep.margins["N"][0])
    assert np.isinf(rep.margins["Q"][0])


def test_saturated_generic_envelope_violation_is_robust():
    # The saturated trajectories outgrow the proof's envelopes early; the
    # crossing time must be resolution-independent (a real feature of the
    # stated constants, not integration error).
    rep_a = integrate_saturated_system("generic", 3.0, 0.5, rtol=1e-10)
    rep_b = integrate_saturated_system("generic", 3.0, 0.5, rtol=1e-12, n_eval=2001)
    ta = rep_a.violations["M"]
    tb = rep_b.violations["M"]
    assert ta is not None and tb is not None
    assert ta == pytest.approx(tb, abs=2e-3)
    assert 0.10 < ta < 0.20


def test_saturated_trajectories_obey_corrected_envelopes():
    # With the factor-C bookkeeping of the derivation restored
    # (Lambda_1 -> 2 C (1 + log(1 + C)), Lambda_2..Lambda_4 unchanged),
    # domination holds on the window for M, N and Q:
    #   log M <= E := e^{Lambda_1 t},   log log N <= log Lambda_2 + E,
    #   log log Q <= log(log Lambda_4 + Lambda_3 e^E),
    # the last two wherever log N, log Q > 0 (N from t > 0, Q from its
    # first crossing of 1 on); below that they hold trivially.
    for c in (3.0, 5.0, 10.0):
        rep = integrate_saturated_system("generic", c, 0.5)
        lam = growth_constants(c)
        lam1 = 2.0 * c * (1.0 + math.log1p(c))
        env_m = np.exp(np.minimum(lam1 * rep.t, 700.0))
        assert np.all(env_m - rep.log_m >= 0.0)
        with np.errstate(divide="ignore"):
            log_q = rep.log1p_q + np.log(-np.expm1(-rep.log1p_q))  # log Q from log(1 + Q)
        n, q = rep.log_n > 0.0, log_q > 0.0
        assert n[1:].all() and q.sum() > len(q) // 2
        margin_n = math.log(lam.lambda2) + env_m[n] - np.log(rep.log_n[n])
        env_q = np.log(math.log(lam.lambda4) + lam.lambda3 * np.exp(np.minimum(env_m[q], 700.0)))
        margin_q = env_q - np.log(log_q[q])
        assert margin_n.min() >= 0.0 and margin_q.min() >= 0.0, (c, margin_n.min(), margin_q.min())


def _log_trapezoid_cumsum_loop(t, log_f):
    """Oracle: the running log-sum of the trapezoid panels, one panel at a time."""
    out = np.full(t.shape, -np.inf)
    if len(t) < 2:
        return out
    panels = np.log(np.diff(t) / 2.0) + np.logaddexp(log_f[:-1], log_f[1:])
    running = -np.inf
    for j, p in enumerate(panels):
        running = np.logaddexp(running, p)
        out[j + 1] = running
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 501, 2001])
def test_log_trapezoid_cumsum_matches_loop(n):
    rng = np.random.default_rng(n)
    t = np.sort(rng.uniform(0.0, 2.0, n))
    log_f = rng.normal(0.0, 50.0, n)
    assert np.array_equal(_log_trapezoid_cumsum(t, log_f), _log_trapezoid_cumsum_loop(t, log_f))
    # exp(log_f) = 1 + t integrates exactly under the trapezoid rule
    t = np.linspace(0.0, 1.0, n)
    expected = np.log(t[1:] + t[1:] ** 2 / 2.0) if n > 1 else []
    np.testing.assert_allclose(_log_trapezoid_cumsum(t, np.log1p(t))[1:], expected,
                               rtol=0, atol=1e-14)


def test_saturated_mhd_holds():
    rep = integrate_saturated_system("mhd_simplified", 1.0, 0.25, delta=1e-3)
    assert rep.all_hold()
    assert rep.t_reached == pytest.approx(0.25)


def _synthetic_series(t, **cols):
    """A series of rows at times t holding the given columns; M and N read 1,
    the gradient norms 0 and omega_inf 1 unless given, Q, Y and Z none."""
    s = StretchingSeries()
    defaults = {"M": 1.0, "N": 1.0, "Q": None, "Y": None, "Z": None,
                "grad_u_inf": 0.0, "grad_u_w1p": 0.0, "omega_inf": 1.0}
    s.rows = [{**defaults, "t": ti, **{k: v[i] for k, v in cols.items()}}
              for i, ti in enumerate(t)]
    return s


def test_monitor_trivial_boussinesq_run():
    # zero velocity: Y = 2t, Z = t; delta Y hits 1 at t = 1/(2 delta)
    t = np.linspace(0.0, 10.0, 2001)
    series = _synthetic_series(t, Y=list(2 * t), Z=list(t))
    rep = bootstrap_monitor(series, ModelKind.BOUSSINESQ, delta=0.2)
    assert rep.components["delta*Y"] == pytest.approx(2.5, abs=1e-6)
    assert rep.components["delta*Z"] == pytest.approx(5.0, abs=1e-6)
    assert rep.t_emp == pytest.approx(2.5, abs=1e-6)


def test_monitor_synthetic_crossing():
    t = np.linspace(0.0, 4.0, 401)
    q = 0.5 * t  # delta q crosses 1 at t = 2 for delta = 1
    series = _synthetic_series(t, Q=list(q))
    rep = bootstrap_monitor(series, ModelKind.IIE, delta=1.0, c_fit=1e-9)
    assert rep.components["delta*Q"] == pytest.approx(2.0, abs=1e-9)
    assert rep.t_emp == pytest.approx(2.0, abs=1e-9)


def test_monitor_unconditional_for_zero_delta():
    t = np.linspace(0.0, 1.0, 11)
    series = _synthetic_series(t, Q=[0.0] * 11)
    rep = bootstrap_monitor(series, ModelKind.IIE, delta=0.0)
    assert rep.unconditional
    assert rep.t_emp == math.inf


def test_theory_window_vacuous_at_lab_deltas():
    # at laboratory deltas the triple-log bounds are out of domain
    assert theory_window(ModelKind.BOUSSINESQ, 3.0, 1e-2) is None
    assert theory_window(ModelKind.IIE, 2.0, 1e-3) is None


def test_theory_window_positive_deep_in_domain():
    lam = growth_constants(3.0)
    bound = boussinesq_bound(lam)
    delta = math.exp(bound.log_delta0)  # representable for C = 3
    t = theory_window(ModelKind.BOUSSINESQ, 3.0, delta * 0.9)
    assert t is not None and t > 0


def test_calibrate_c_fit_euler_like_series():
    t = np.linspace(0.0, 1.0, 51)
    series = _synthetic_series(
        t, grad_u_inf=[1.5] * 51, grad_u_w1p=[6.0] * 51,
        omega_inf=[1.7] * 51, M=list(np.exp(1.5 * t)), N=list(np.exp(6.0 * t)),
    )
    c = calibrate_c_fit(series, ModelKind.BOUSSINESQ)
    # ratios: g_N / (1 + M) <= 3, omega_inf = 1.7, g_M / (1 + log(2 + g_N))
    assert c == pytest.approx(3.0, rel=1e-12)
