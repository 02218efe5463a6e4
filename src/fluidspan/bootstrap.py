"""Closed-form growth constants, triple-log lifespan bounds, saturated
differential-inequality systems, and the runtime bootstrap monitor.

Every threshold here is evaluated in log or nested-log space: the small
parameters are of the form C0 exp(-C1 e^{2 C2}) and for the MHD theorem
exp(-C2 e^{4 e^2}) with e^{4 e^2} ~ 6.9e12, far below the smallest
normal double.  Thresholds are therefore carried as natural logs (and
reported as log10), never materialized as floats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, HypothesisError, NestedLogDomainError, ParameterError
from .models import MHD_KINDS, ModelKind

E = math.e
LOG10 = math.log(10.0)
LOG_MAX = math.log(sys.float_info.max)


# ---------------------------------------------------------------------------
# growth constants and closures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthConstants:
    """Hierarchical growth rates: M, N, Q dominated by single, double and
    triple exponentials with these coefficients."""

    c: float
    lambda1: float
    lambda2: float
    lambda3: float
    lambda4: float


def growth_constants(c):
    """Lambda_1..Lambda_4 = (1 + log(1 + C), C, 2C, 5C); requires C > e."""
    if not c > E:
        raise HypothesisError(f"growth constants need C > e, got C = {c}")
    return GrowthConstants(c=c, lambda1=1.0 + math.log1p(c), lambda2=c,
                           lambda3=2.0 * c, lambda4=5.0 * c)


@dataclass(frozen=True)
class ClosureSpec:
    """Inputs of the abstract bootstrap closure.

    F_j are continuous increasing with F_j(0) <= 1; the hypothesis is
    kappa_j delta F_j <= 1 and the outcome F_j <= zeta_j E(t) with
    E(t) = exp(C1 exp(C2 e^{C3 t})).
    """

    kappa: tuple
    zeta: tuple
    c1: float
    c2: float
    c3: float

    def __post_init__(self):
        if len(self.kappa) != len(self.zeta) or not self.kappa:
            raise ParameterError("kappa and zeta must be nonempty and equally long")
        if any(k <= 0 for k in self.kappa):
            raise ParameterError("kappa_j must be positive")
        if any(z < 1 for z in self.zeta):
            raise HypothesisError("zeta_j must lie in [1, +inf)")
        if min(self.c1, self.c2, self.c3) <= 0:
            raise ParameterError("C1, C2, C3 must be positive")


def _nested_log_time(a, b, c, log_d, log_delta):
    """a * log(b * log(c * (log_d - log_delta))), with domain bookkeeping.

    The failing level counts logs from the inside: level 2 is the middle
    log (needs log_d - log_delta > 0), level 3 the outer one.
    """
    x1 = math.fsum((log_d, -log_delta))
    if x1 <= 0.0:
        raise NestedLogDomainError(
            f"log({math.exp(min(log_d, 300)):.3g} / delta) = {x1:.3g} <= 0", level=2)
    x2 = math.log(c) + math.log(x1)
    if x2 <= 0.0:
        raise NestedLogDomainError(
            f"inner log gives {x2:.3g} <= 0 before the outer log", level=3)
    return a * (math.log(b) + math.log(x2))


@dataclass
class LifespanBound:
    """Threshold delta0 (stored in log space) and the map delta -> T_delta."""

    c0: float
    log_delta0: float
    a: float
    b: float
    c: float
    log_d: float

    @property
    def log10_delta0(self):
        return self.log_delta0 / LOG10

    def time_of_log_delta(self, log_delta):
        return _nested_log_time(self.a, self.b, self.c, self.log_d, log_delta)

    def time_of_delta(self, delta):
        if delta <= 0:
            raise ParameterError("delta must be positive")
        return self.time_of_log_delta(math.log(delta))


def closure_lifespan(spec):
    """Threshold and triple-log lifespan of the generic bootstrap closure.

    C0 = 99 / (100 max_j kappa_j zeta_j), delta0 = C0 exp(-C1 e^{2 C2}),
    T_delta = C3^{-1} log[C2^{-1} log(C1^{-1} log(C0 / delta))].
    At delta = delta0 the lifespan is exactly C3^{-1} log 2.
    """
    worst = max(k * z for k, z in zip(spec.kappa, spec.zeta))
    c0 = 99.0 / (100.0 * worst)
    if not (c0 > 0.0 and 2.0 * spec.c2 < LOG_MAX
            and math.isfinite(spec.c1 * math.exp(2.0 * spec.c2))):
        raise ConfigError("delta0 = C0 exp(-C1 e^{2 C2}) is out of range even in log "
                          "space: C0 underflows or C1 e^{2 C2} overflows")
    log_delta0 = math.fsum((math.log(c0), -spec.c1 * math.exp(2.0 * spec.c2)))
    return LifespanBound(c0=c0, log_delta0=log_delta0, a=1.0 / spec.c3,
                         b=1.0 / spec.c2, c=1.0 / spec.c1, log_d=math.log(c0))


def boussinesq_closure_spec(lam):
    """Closure data of the Boussinesq theorem: m = 1, F_1 = Y = int(M + N).

    kappa = 1, zeta = Lambda_4, and the Y-envelope Lambda_4 exp(Lambda_3
    exp(e^{Lambda_1 t})) identifies C1 = Lambda_3, C2 = 1, C3 = Lambda_1.
    """
    return ClosureSpec(kappa=(1.0,), zeta=(lam.lambda4,),
                       c1=lam.lambda3, c2=1.0, c3=lam.lambda1)


def boussinesq_bound(lam):
    """Lifespan bound of the Boussinesq theorem from its growth constants."""
    return closure_lifespan(boussinesq_closure_spec(lam))


def iie_closure_spec(c):
    """Closure data of the IIE lifespan theorem.

    The relaxed system carries the constant 9 e^2 C, so the growth lemma is
    applied at that value; then m = 3 with F = (M, N, Q),
    kappa = (1/2, 1/2, 1), zeta = (1, 1, Lambda_4) and
    C1 = max(Lambda_2, Lambda_3), C2 = 1, C3 = Lambda_1.
    """
    if c < 1.0:
        raise HypothesisError(f"the IIE theorem uses a constant C >= 1, got {c}")
    lam = growth_constants(9.0 * E**2 * c)
    return ClosureSpec(kappa=(0.5, 0.5, 1.0), zeta=(1.0, 1.0, lam.lambda4),
                       c1=max(lam.lambda2, lam.lambda3), c2=1.0, c3=lam.lambda1)


def iie_lifespan(c):
    return closure_lifespan(iie_closure_spec(c))


@dataclass
class ContinuationBudget:
    """Vorticity-integral budget of the conditional continuation criterion."""

    c: float
    log_delta0_bound: float

    @property
    def log10_delta0_bound(self):
        return self.log_delta0_bound / LOG10

    def budget_of_log_delta(self, log_delta):
        """U(delta) = C^{-1} log log[(12C)^{-1} log(3 / (100 C delta))]."""
        return _nested_log_time(1.0 / self.c, 1.0, 1.0 / (12.0 * self.c),
                                math.log(3.0 / (100.0 * self.c)), log_delta)

    def budget_of_delta(self, delta):
        if delta <= 0:
            raise ParameterError("delta must be positive")
        return self.budget_of_log_delta(math.log(delta))


def iie_continuation_budget(c):
    """Budget on int ||omega||_inf below which the IIE solution continues.

    The admissible threshold satisfies delta0 < 3 / (100 C exp(12 C e)),
    reported in log space.
    """
    if c < 1.0:
        raise HypothesisError(f"the continuation theorem uses C >= 1, got {c}")
    if not math.isfinite(100.0 * c):
        raise ConfigError(f"C = {c:.6g} is out of range: 100 C overflows")
    log_bound = math.fsum((math.log(3.0 / (100.0 * c)), -12.0 * c * E))
    return ContinuationBudget(c=c, log_delta0_bound=log_bound)


@dataclass
class MhdConstants:
    c: float
    c1: float
    c2: float
    c3: float
    c4: float
    c4_prime: float
    log_delta0: float
    alpha_at_delta0: float
    beta_at_delta0: float
    gamma_at_delta0: float
    log_f_at_delta0: float

    @property
    def log10_delta0(self):
        return self.log_delta0 / LOG10


def mhd_constants(c):
    """All closed-form constants of the MHD lifespan theorem, log-space.

    C1 = 6C^2, C2 = e^2/6, C3 = e/(2 e^3 C1 C2), C4 = 1/(4 C^2 e^2),
    C4' = 99/(100 C4), delta0 = C4' exp(-C2 e^{4 e^2}); the monotonicity
    certificate is f(delta) = C C1^{-1} delta gamma(delta) with
    gamma(delta0) = 2 and f(delta0) < 1 (checked in log space; delta0
    itself underflows every floating format).
    """
    if c < 1.0:
        raise HypothesisError(f"the MHD theorem uses C >= 1, got {c}")
    c1 = 6.0 * c * c
    c2 = E**2 / 6.0
    c3 = E / (2.0 * E**3 * c1 * c2)
    c4 = 1.0 / (4.0 * c * c * E**2)
    c4p = 99.0 / (100.0 * c4) if c4 > 0.0 else math.inf
    if not math.isfinite(c4p):  # the largest constant, ~29 C^2
        raise ConfigError(f"C = {c:.6g} is out of range: C4' = 99 e^2 C^2 / 25 overflows")
    big = c2 * math.exp(4.0 * E**2)
    log_delta0 = math.fsum((math.log(c4p), -big))
    alpha0 = big
    beta0 = math.log(alpha0 / c2)
    gamma0 = math.log(beta0 / 4.0)
    log_f0 = math.fsum((math.log(c / c1), log_delta0, math.log(gamma0)))
    consts = MhdConstants(c=c, c1=c1, c2=c2, c3=c3, c4=c4, c4_prime=c4p,
                          log_delta0=log_delta0, alpha_at_delta0=alpha0,
                          beta_at_delta0=beta0, gamma_at_delta0=gamma0,
                          log_f_at_delta0=log_f0)
    bound = LifespanBound(c0=c4p, log_delta0=log_delta0, a=1.0 / c1, b=0.25,
                          c=1.0 / c2, log_d=math.log(c4p))
    return consts, bound


def mhd_certificate(consts):
    """Check f(delta0) < 1 and f'(delta) > 0 on (0, delta0) at 20 log-spaced points.

    f' > 0 reduces to gamma(delta) > 1 / (alpha(delta) beta(delta)); the proof
    guarantees gamma >= 2 and alpha beta >= 1 below delta0.
    """
    if consts.log_f_at_delta0 >= 0.0:
        return {"f_at_delta0_ok": False, "monotone_ok": False, "min_margin": -np.inf}
    log_d = math.log(consts.c4_prime)
    margins = []
    for s in np.linspace(1.0, 3.0, 20):  # delta = delta0^s, s >= 1
        log_delta = s * consts.log_delta0
        alpha = log_d - log_delta
        beta = math.log(alpha / consts.c2)
        gamma = math.log(beta / 4.0)
        margins.append(gamma - 1.0 / (alpha * beta))
    return {
        "f_at_delta0_ok": True,
        "monotone_ok": bool(min(margins) > 0.0),
        "min_margin": float(min(margins)),
    }


# ---------------------------------------------------------------------------
# saturated differential-inequality systems
# ---------------------------------------------------------------------------

_M_CAP = 700.0  # beyond this, exp(m) leaves double precision


@dataclass
class SaturatedReport:
    """Trajectories of a saturated system and their envelope margins.

    Trajectories are stored in log coordinates (m = log M, n = log N,
    qt = log(1 + Q)); margins follow the log M / log log N / log log Q
    comparison, so a negative entry means the trajectory exceeds the
    closed-form envelope there.  ``t_reached`` < t_end flags that the
    trajectory left double-precision range and was truncated.
    """

    kind: str
    c: float
    t: np.ndarray
    log_m: np.ndarray
    log_n: np.ndarray
    log1p_q: np.ndarray
    margins: dict
    violations: dict
    t_reached: float

    def all_hold(self):
        return all(v is None for v in self.violations.values())


def _first_crossing(t, margin):
    """First time a margin goes negative (linear interpolation), or None."""
    neg = np.where(margin < 0.0)[0]
    if neg.size == 0:
        return None
    i = int(neg[0])
    if i == 0:
        return float(t[0])
    t0, t1 = t[i - 1], t[i]
    m0, m1 = margin[i - 1], margin[i]
    if not (np.isfinite(m0) and np.isfinite(m1)) or m1 == m0:
        return float(t1)
    return float(t0 + (t1 - t0) * m0 / (m0 - m1))


def _softplus(x):
    """log(1 + e^x), stable for any x."""
    if x > 35.0:
        return x + math.exp(-x)
    return math.log1p(math.exp(x))


def _saturated_rhs(k_m, k_n, shift):
    """RHS of the saturated hierarchy in (m, nu) = (log M, log(1 + log N)).

        m'  = k_m (1 + log(shift + k_n (1 + e^m))),
        nu' = n' / (1 + n) with n' = k_n (1 + e^m),

    coordinates in which both components stay slowly varying even when
    N is a double exponential; the memory variable Q is reconstructed
    afterwards by log-space quadrature.
    """

    def rhs(t, y):
        m, nu = y
        if m > 35.0:
            log_em1 = m + math.exp(-m)  # log(1 + e^m)
            mdot = k_m * (1.0 + math.log(k_n) + log_em1
                          + math.log1p(shift * math.exp(-log_em1) / k_n))
        else:
            mdot = k_m * (1.0 + math.log(shift + k_n * (1.0 + math.exp(m))))
            log_em1 = _softplus(m)
        nudot = math.exp(math.log(k_n) + log_em1 - nu)
        return [mdot, nudot]

    return rhs


def _log_trapezoid_cumsum(t, log_f):
    """log of the running trapezoid integral of exp(log_f)."""
    out = np.full(t.shape, -np.inf)
    if len(t) < 2:
        return out
    dt = np.diff(t)
    # contribution of panel j: log(dt_j / 2) + log(e^f_j + e^f_{j+1})
    panels = np.log(dt / 2.0) + np.logaddexp(log_f[:-1], log_f[1:])
    out[1:] = np.logaddexp.accumulate(panels)
    return out


def integrate_saturated_system(kind, c, t_end, delta=1e-3, rtol=1e-10,
                               n_eval=501):
    """Integrate a saturated differential-inequality system and compare it
    with its closed-form envelopes.

    kind in {"generic", "boussinesq", "iie_relaxed", "mhd_simplified"}.
    The generic and boussinesq kinds need C > e; iie/mhd need C >= 1.
    Inequalities are replaced by equalities, which yields the extremal
    trajectory the envelopes are supposed to dominate; margins are
    reported in log space and violations carry the first crossing time.
    """
    if t_end <= 0 or t_end > 5.0:
        raise ParameterError("t_end must lie in (0, 5] (desk scale)")

    if kind == "generic":
        if not c > E:
            raise HypothesisError(f"generic system needs C > e, got {c}")
        lam = growth_constants(c)
        k_m, k_n, shift, k_q, with_mn = c, c, 1.0, c, True
    elif kind == "boussinesq":
        if not c > E:
            raise HypothesisError(f"boussinesq system needs C > e, got {c}")
        lam = growth_constants(2.0 * c)
        k_m, k_n, shift, k_q, with_mn = 2.0 * c, 2.0 * c, 2.0, None, False
    elif kind == "iie_relaxed":
        if c < 1.0:
            raise HypothesisError(f"iie system needs C >= 1, got {c}")
        big = 9.0 * E**2 * c
        lam = growth_constants(big)
        k_m, k_n, shift, k_q, with_mn = big, 6.0 * c, 1.0, big, False
    elif kind == "mhd_simplified":
        return _integrate_mhd_simplified(c, t_end, delta, rtol, n_eval)
    else:
        raise ParameterError(f"unknown saturated system '{kind}'")

    rhs = _saturated_rhs(k_m, k_n, shift)
    # Stop where the quasi-steady nu relaxation (rate ~ k_m * m) would force
    # an explicit solver below practical step sizes; the report flags the
    # truncated horizon.
    m_cap = 3.0e4 / k_m
    cap = lambda t, y: m_cap - y[0]  # noqa: E731
    cap.terminal = True
    from scipy.integrate import solve_ivp  # ~0.5 s to import; only these systems need it

    sol = solve_ivp(rhs, (0.0, t_end), [0.0, 0.0], method="DOP853", rtol=rtol,
                    atol=1e-12, t_eval=np.linspace(0.0, t_end, n_eval),
                    events=cap, dense_output=False)
    if not sol.success and sol.status != 1:
        raise ParameterError(f"saturated-system integration failed: {sol.message}")
    t = sol.t
    m, nu = sol.y
    with np.errstate(divide="ignore"):
        # n = log N = e^nu - 1; log_n = log log N
        n = np.expm1(nu)
        log_n = np.where(nu > 0, nu + np.log1p(-np.exp(-np.maximum(nu, 1e-300))),
                         -np.inf)

    # memory variable by log-space quadrature of its source
    log_em1 = np.where(m > 35.0, m + np.exp(-np.minimum(m, 700.0)),
                       np.log1p(np.exp(np.minimum(m, 35.0))))
    log_mdot = np.log(k_m * (1.0 + np.log(k_n) + log_em1)
                      + k_m * np.log1p(shift * np.exp(-np.minimum(log_em1, 700.0)) / k_n))
    log_ndot = math.log(k_n) + log_em1
    if k_q is None:  # Boussinesq: Ydot = M + N
        log_qdot = np.logaddexp(m, n)
    else:
        terms = [math.log(k_q) + m + log_mdot,
                 math.log(k_q) + n + log_mdot,
                 2.0 * m + log_mdot + log_ndot]
        if with_mn:
            terms.append(math.log(k_q) + np.logaddexp(m, n))
        log_qdot = terms[0]
        for extra in terms[1:]:
            log_qdot = np.logaddexp(log_qdot, extra)
    log_q = _log_trapezoid_cumsum(t, log_qdot)

    env_m = np.exp(lam.lambda1 * t)
    margin_m = env_m - m
    margin_n = (math.log(lam.lambda2) + env_m) - log_n
    env_q = np.log(math.log(lam.lambda4) + lam.lambda3 * np.exp(np.minimum(env_m, 700.0)))
    margin_q = np.where(log_q > 0, env_q - np.log(np.maximum(log_q, 1e-300)), np.inf)

    margins = {"M": margin_m, "N": margin_n, "Q": margin_q}
    violations = {k: _first_crossing(t, v) for k, v in margins.items()}
    return SaturatedReport(kind=kind, c=c, t=t, log_m=m, log_n=n,
                           log1p_q=np.logaddexp(0.0, log_q), margins=margins,
                           violations=violations, t_reached=float(t[-1]))


def _integrate_mhd_simplified(c, t_end, delta, rtol, n_eval):
    """Saturated MHD system under the bootstrap hypothesis.

    States: m = log M, iy = int Y, izt = log(1 + int Z), qt = log(1 + Q);
    Y and Z are algebraic: Y = C(1 + (e^2 + e + 1) M), log Z = log C + C iy.
    """
    if c < 1.0:
        raise HypothesisError(f"mhd system needs C >= 1, got {c}")
    coef = E**2 + E + 1.0

    def rhs(t, y):
        m, iy, izt, qt = y
        em = math.exp(min(m, _M_CAP))
        big_y = c * (1.0 + coef * em)
        mdot = 2.0 * c * math.log1p(big_y) + 2.0 * c
        log_z = math.log(c) + c * iy
        iztdot = math.exp(min(log_z - izt, _M_CAP))
        log_qdot = math.log(c * delta) + m + math.log(big_y) + izt
        qtdot = math.exp(min(log_qdot - qt, _M_CAP))
        return [mdot, big_y, iztdot, qtdot]

    # stop where either exp(m) or the Z growth rate leaves double range
    cap = lambda t, y: min(_M_CAP - y[0], 600.0 - (math.log(c) + c * y[1]))  # noqa: E731
    cap.terminal = True
    from scipy.integrate import solve_ivp

    sol = solve_ivp(rhs, (0.0, t_end), [0.0, 0.0, 0.0, 0.0], method="DOP853",
                    rtol=rtol, atol=1e-12,
                    t_eval=np.linspace(0.0, t_end, n_eval), events=cap)
    t = sol.t
    m, iy, izt, qt = sol.y
    c1 = 6.0 * c * c
    c2 = E**2 / 6.0
    c4 = 1.0 / (4.0 * c * c * E**2)

    # envelopes: log(1+M) <= 2 e^{C1 t}; log Y <= log(2Ce^2) + 2 e^{C1 t};
    # log Z <= log C + C2 exp(2 e^{C1 t}); log Q <= log(C4 delta) + C2 exp(4 e^{C1 t})
    e1 = np.exp(c1 * t)
    margin_m = 2.0 * e1 - np.log1p(np.exp(np.minimum(m, _M_CAP)))
    log_y = np.log(c * (1.0 + coef * np.exp(np.minimum(m, _M_CAP))))
    margin_y = (math.log(2.0 * c * E**2) + 2.0 * e1) - log_y
    log_z = math.log(c) + c * iy
    margin_z = (math.log(c) + c2 * np.exp(np.minimum(2.0 * e1, _M_CAP))) - log_z
    with np.errstate(divide="ignore"):
        log_q = qt + np.log1p(-np.exp(-np.maximum(qt, 1e-300)))
    margin_q = (math.log(c4 * delta) + c2 * np.exp(np.minimum(4.0 * e1, _M_CAP))) - log_q

    margins = {"M": margin_m, "Y": margin_y, "Z": margin_z, "Q": margin_q}
    violations = {k: _first_crossing(t, v) for k, v in margins.items()}
    return SaturatedReport(kind="mhd_simplified", c=c, t=t, log_m=m,
                           log_n=log_y, log1p_q=qt, margins=margins,
                           violations=violations, t_reached=float(t[-1]))


# ---------------------------------------------------------------------------
# bootstrap monitor and calibration
# ---------------------------------------------------------------------------

@dataclass
class MonitorReport:
    model: str
    delta: float
    components: dict      # name -> first violation time or None
    t_emp: float          # min violation time; inf when unconditional
    unconditional: bool


def bootstrap_monitor(series, model, delta, c_fit=1.0):
    """First violation time of each bootstrap-hypothesis component.

    Components by model: Boussinesq delta*Y <= 1 and delta*Z <= 1; IIE
    C delta M <= 1/2, C delta N <= 1/2, delta Q <= 1; MHD Q <= 1 and
    C delta t <= 1.  A delta of zero makes every component vacuous and
    the report says so instead of inventing a window.  It reads only the
    series' run.csv columns t, M, N, Q, Y and Z, so T_emp re-derives from
    run.csv bit for bit.
    """
    model = ModelKind.parse(model) if isinstance(model, str) else model
    col = series.column
    t = col("t")
    comps = {}

    if model is ModelKind.BOUSSINESQ:
        comps["delta*Y"] = (delta * col("Y"), 1.0)
        comps["delta*Z"] = (delta * col("Z"), 1.0)
    elif model is ModelKind.IIE:
        comps["C*delta*M"] = (c_fit * delta * col("M"), 0.5)
        comps["C*delta*N"] = (c_fit * delta * col("N"), 0.5)
        comps["delta*Q"] = (delta * col("Q"), 1.0)
    elif model in MHD_KINDS:
        comps["Q"] = (col("Q"), 1.0)
        comps["C*delta*t"] = (c_fit * delta * t, 1.0)
    elif model is ModelKind.EULER:
        comps = {}
    else:
        raise ParameterError(f"unknown model {model}")

    if delta == 0.0 or not comps:
        return MonitorReport(model=model.value, delta=delta, components={},
                             t_emp=math.inf, unconditional=True)

    violations = {name: _first_crossing(t, cap - vals) for name, (vals, cap) in comps.items()}
    finite = [v for v in violations.values() if v is not None]
    t_emp = min(finite) if finite else math.inf
    return MonitorReport(model=model.value, delta=delta, components=violations,
                         t_emp=t_emp, unconditional=False)


def calibrate_c_fit(series, model):
    """Smallest constant, at least 1, making the non-perturbative inequalities
    hold on a delta = 0 calibration run (then frozen as harness.FROZEN_C_FIT).

    The ratios below mirror each model's differential-inequality system
    with the perturbative terms dropped; the result is a calibration
    artifact, not a constant asserted by any proof.
    """
    model = ModelKind.parse(model) if isinstance(model, str) else model
    col = series.column
    g_m, g_n = col("grad_u_inf"), col("grad_u_w1p")
    m_arr, om_inf = col("M"), col("omega_inf")
    ratios = [np.max(g_n / (1.0 + m_arr)), np.max(om_inf)]

    if model is ModelKind.IIE:
        ratios.append(np.max(g_m / (2.0 * np.maximum(om_inf, 1e-30)
                                    * (1.0 + np.log(2.0 + g_n)))))
    elif model in MHD_KINDS:
        y_arr, q_arr = col("Y"), col("Q")
        ratios.append(np.max(g_m / ((1.0 + np.log1p(y_arr)) * (1.0 + q_arr))))
        ratios.append(np.max(y_arr / (1.0 + 2.0 * m_arr + m_arr * q_arr)))
        z_arr = col("Z")
        iy = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(col("t"))
                                              * (y_arr[1:] + y_arr[:-1]))])
        ratios.append(np.max(np.log(np.maximum(z_arr, 1.0)) / (1.0 + iy)))
    else:  # Boussinesq (and Euler as its delta = 0 twin)
        ratios.append(np.max(g_m / (1.0 + np.log(2.0 + g_n))))
    return max(float(max(ratios)), 1.0)


def theory_window(model, c_fit, delta):
    """T_delta from the model's triple-log bound at a calibrated constant.

    Returns None when delta lies outside the nested-log domain (the bound
    is vacuous there, which is the common case at laboratory deltas), and
    when c_fit takes the closed-form constants out of double range.
    """
    model = ModelKind.parse(model) if isinstance(model, str) else model
    if delta <= 0.0:
        return None  # unconditional run, no finite window to certify
    try:
        if model is ModelKind.BOUSSINESQ:
            bound = boussinesq_bound(growth_constants(max(c_fit, math.nextafter(E, 4.0) * 1.001)))
        elif model is ModelKind.IIE:
            bound = iie_lifespan(max(c_fit, 1.0))
        elif model in MHD_KINDS:
            _, bound = mhd_constants(max(c_fit, 1.0))
        else:
            return None
        t_theory = bound.time_of_delta(delta)
    except (NestedLogDomainError, ConfigError):
        return None
    return t_theory if t_theory > 0 else None
