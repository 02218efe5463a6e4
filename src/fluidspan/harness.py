"""Experiment orchestration: single runs, delta sweeps, and persistence.

A run co-advances the Eulerian state and the Lagrangian ensemble, records
one diagnostics row per step into ``run.csv`` (fixed schema below, empty
fields for quantities a model does not carry), and closes with
``run_meta.json``.  Rows are flushed line by line so a crashed or unstable
run still leaves a parseable file.

Sweeps fan out independent runs over a worker pool (FLUIDSPAN_THREADS caps
the pool) and gather the empirical bootstrap windows next to the
calibrated theory bounds.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields

from . import __version__
from .bootstrap import bootstrap_monitor, theory_window
from .elliptic import METHOD
from .errors import (
    ChordArcError,
    ConfigError,
    ConvergenceError,
    InstabilityError,
    VacuumError,
)
from .fields import Grid, sobolev_norm, tail_enstrophy_fraction
from .lagrangian import (
    DuhamelHistory,
    StageVelocity,
    StretchingSeries,
    advect_flow_map,
    identity_ensemble,
    record,
)
from .models import (
    MHD_KINDS,
    ModelKind,
    cfl_limit,
    conserved_quantities,
    initial_state,
    step_detailed,
)

RUN_CSV_HEADER = ("t,M,M_measured,N,Q,Y,Z,omega_inf,omega_w1p,rho_w2p,"
                  "u_inf,u_w2p,B_w2p,E_kinetic,E_model,cross_helicity,mass,"
                  "momentum_x,momentum_y,detJ_err,tail_enstrophy")

# Calibration artifacts: smallest constants making each model's
# non-perturbative inequalities hold on the delta = 0 run of the default
# profile (128^2, t_end = 2, p = 4); regenerate with demos/05 or
# bootstrap.calibrate_c_fit.  Frozen here; config key c_fit overrides.
FROZEN_C_FIT = {
    ModelKind.EULER: 3.373141,
    ModelKind.BOUSSINESQ: 3.373141,
    ModelKind.MHD_VORTICITY_CURRENT: 5.147830,
    ModelKind.MHD_ELSASSER: 5.147830,
    ModelKind.IIE: 3.373141,
}

TAIL_ENSTROPHY_LOSS = 1e-6


@dataclass
class RunConfig:
    model: str = "euler"
    nx: int = 128
    ny: int = 128
    p: float = 4.0
    delta: float = 0.0
    delta_norm: str = "rho_minus_1_W2p"
    t_end: float = 1.0
    dt_max: float = 0.01
    cfl: float = 0.5
    particle_m: int = 64
    seed_profile: str = "default"
    output_dir: str = "runs/out"
    elliptic_tol: float = 1e-10
    diag_every: int = 1
    track_particles: bool = True
    c_fit: float = 0.0  # 0 -> use the frozen per-model calibration

    def validate(self):
        from .errors import ParameterError

        try:
            ModelKind.parse(self.model)
        except ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        if self.nx < 8 or self.ny < 8 or self.nx % 2 or self.ny % 2:
            raise ConfigError(f"grid {self.nx}x{self.ny} must be even and >= 8")
        for name in ("delta", "t_end", "dt_max", "cfl", "c_fit"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.delta < 0:
            raise ConfigError("delta must be nonnegative")
        if self.t_end < 0:
            raise ConfigError("t_end must be nonnegative")
        if self.dt_max <= 0 or self.cfl <= 0:
            raise ConfigError("dt_max and cfl must be positive")
        if not self.p > 2:
            raise ConfigError(f"p must exceed 2, got {self.p}")
        if self.particle_m < 4:
            raise ConfigError("particle_m must be at least 4")
        if self.diag_every < 1:
            raise ConfigError("diag_every must be >= 1")
        if not 0.0 < self.elliptic_tol < 1.0:
            raise ConfigError(f"elliptic_tol must lie in (0, 1), got {self.elliptic_tol}")
        return self


_BOOL_KEYS = {"track_particles"}


def parse_config_file(path):
    """Flat ``key = value`` file; unknown keys are errors (fail fast)."""
    cfg = {}
    valid = {f.name: f.type for f in fields(RunConfig)}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in valid:
                raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
            cfg[key] = value
    return config_from_dict(cfg)


def config_from_dict(d):
    kwargs = {}
    defaults = RunConfig()
    for key, value in d.items():
        if not hasattr(defaults, key):
            raise ConfigError(f"unknown config key '{key}'")
        current = getattr(defaults, key)
        if key in _BOOL_KEYS:
            if isinstance(value, str):
                if value.lower() not in ("true", "false", "0", "1", "yes", "no"):
                    raise ConfigError(f"bad boolean for {key}: {value!r}")
                value = value.lower() in ("true", "1", "yes")
            kwargs[key] = bool(value)
        elif isinstance(current, int) and not isinstance(current, bool):
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise ConfigError(f"bad integer for {key}: {value!r}") from None
        elif isinstance(current, float):
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ConfigError(f"bad number for {key}: {value!r}") from None
        else:
            kwargs[key] = str(value)
    return RunConfig(**kwargs).validate()


def config_hash(config):
    canon = "\n".join(f"{k} = {v}" for k, v in sorted(asdict(config).items()))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def thread_count():
    """Worker cap from FLUIDSPAN_THREADS: a positive integer, 1 when unset or
    empty; any other value is a ConfigError."""
    raw = os.environ.get("FLUIDSPAN_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        raise ConfigError(f"FLUIDSPAN_THREADS must be a positive integer, got {raw!r}")
    return n


def _fmt(x):
    """Shortest round-trip decimal; empty field for missing values."""
    if x is None:
        return ""
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


@dataclass
class RunResult:
    status: int            # 0 ok, 3 instability or chord-arc, 5 solver failure
    config: RunConfig
    series: StretchingSeries
    monitor: object
    termination: str
    rows: list = field(default_factory=list)
    t_resolution: float | None = None
    kato_sup: float = 0.0
    c_fit: float = 0.0
    initial_checks: dict = field(default_factory=dict)
    solver: dict | None = None  # run_meta.json's elliptic summary (IIE only)

    @property
    def final_time(self):
        return self.series.t[-1] if self.series.t else 0.0


def _safe_exp(x):
    return math.exp(x) if x < 709.0 else math.inf


def _diagnostics_row(state, series, config):
    cons = conserved_quantities(state, p=config.p)
    i = len(series.t) - 1
    omega = state.vorticity()
    return {
        "t": series.t[i],
        "M": _safe_exp(series.log_m[i]),
        "M_measured": series.m_measured[i] if config.track_particles else None,
        "N": _safe_exp(series.log_n[i]),
        "Q": series.q[i],
        "Y": series.y[i],
        "Z": series.z[i],
        "omega_inf": series.omega_inf[i],
        "omega_w1p": series.omega_w1p[i],
        "rho_w2p": series.rho_w2p[i],
        "u_inf": series.u_inf[i],
        "u_w2p": series.u_w2p[i],
        "B_w2p": series.b_w2p[i],
        "E_kinetic": cons["E_kinetic"],
        "E_model": cons["E_model"],
        "cross_helicity": cons["cross_helicity"],
        "mass": cons["mass"],
        "momentum_x": cons["momentum_x"],
        "momentum_y": cons["momentum_y"],
        "detJ_err": series.detj_err[i] if config.track_particles else None,
        "tail_enstrophy": tail_enstrophy_fraction(omega),
    }


def run(config, csv_stream=None):
    """Integrate one configured run, recording diagnostics every step.

    Returns a RunResult; an instability or chord-arc violation ends the run
    with status 3, an elliptic non-convergence or vacuum (also one in the
    initial data) with status 5, each
    keeping the rows collected so far (the CSV stream, when given, has
    already seen them line by line).
    """
    config.validate()
    kind = ModelKind.parse(config.model)
    grid = Grid(config.nx, config.ny)
    ens = identity_ensemble(config.particle_m) if config.track_particles else None
    series = StretchingSeries(kind=kind, p=config.p)
    rows = []
    termination = "completed"
    status = 0
    initial_checks = {}
    reports = []  # every elliptic solve's report, through the states' shared aux

    def emit(state):
        record(series, state, ens)
        row = _diagnostics_row(state, series, config)
        rows.append(row)
        if csv_stream is not None:
            csv_stream.write(",".join(_fmt(row[k]) for k in RUN_CSV_HEADER.split(",")))
            csv_stream.write("\n")
            csv_stream.flush()

    if csv_stream is not None:
        csv_stream.write(RUN_CSV_HEADER + "\n")
        csv_stream.flush()

    steps = 0
    try:
        state = initial_state(kind, grid, delta=config.delta,
                              delta_norm=config.delta_norm, p=config.p,
                              seed_profile=config.seed_profile,
                              elliptic_tol=config.elliptic_tol)
        state.aux["reports"] = reports
        if kind in MHD_KINDS:
            # the MHD theory works under ||rho0||_{4,p} <= 100; recorded, not enforced
            initial_checks["rho0_w4p"] = sobolev_norm(state.density(), 4, config.p)
            initial_checks["rho0_w4p_within_100"] = initial_checks["rho0_w4p"] <= 100.0
        emit(state)
        while state.t < config.t_end - 1e-14:
            dt = min(config.dt_max,
                     cfl_limit(state, config.cfl),
                     config.t_end - state.t)
            state, stages = step_detailed(state, dt, check_cfl=False)
            if ens is not None:
                ens = advect_flow_map(ens, StageVelocity(stages), dt)
            steps += 1
            if steps % config.diag_every == 0 or state.t >= config.t_end - 1e-14:
                emit(state)
    except InstabilityError as exc:
        termination = f"instability: {exc}"
        status = 3
    except ChordArcError as exc:
        termination = f"chord-arc violation: {exc}"
        status = 3
    except ConvergenceError as exc:
        termination = f"elliptic non-convergence: {exc}"
        reports.append(exc.report)
        status = 5
    except VacuumError as exc:
        termination = f"vacuum: {exc}"
        status = 5

    c_fit = config.c_fit if config.c_fit > 0 else FROZEN_C_FIT[kind]
    monitor = bootstrap_monitor(series, kind, config.delta, c_fit=c_fit)
    t_res = None
    for row in rows:
        if row["tail_enstrophy"] is not None and row["tail_enstrophy"] > TAIL_ENSTROPHY_LOSS:
            t_res = row["t"]
            break
    kato_sup = max(series.kato) if series.kato else 0.0
    solver = None
    if kind is ModelKind.IIE:
        solver = {"method": METHOD, "solves": len(reports),
                  "iterations_total": sum(r.iterations for r in reports),
                  "iterations_max": max((r.iterations for r in reports), default=0),
                  "residual_max": max((r.residual for r in reports), default=0.0)}
    return RunResult(status=status, config=config, series=series, monitor=monitor,
                     termination=termination, rows=rows, t_resolution=t_res,
                     kato_sup=kato_sup, c_fit=c_fit, initial_checks=initial_checks,
                     solver=solver)


def run_to_directory(config, out_dir=None):
    """run() with run.csv / run_meta.json persisted."""
    threads = thread_count()
    out_dir = out_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "run.csv")
    started = time.time()
    with open(csv_path, "w") as stream:
        result = run(config, csv_stream=stream)
    meta = {
        "config": asdict(config),
        "config_hash": config_hash(config),
        "version": __version__,
        "threads": threads,
        "termination": result.termination,
        "status": result.status,
        "c_fit": result.c_fit,
        "kato_sup": result.kato_sup,
        "t_resolution": result.t_resolution,
        "initial_checks": result.initial_checks,
        "solver": result.solver,
        "monitor": {
            "t_emp": None if math.isinf(result.monitor.t_emp) else result.monitor.t_emp,
            "unconditional": result.monitor.unconditional,
            "components": result.monitor.components,
        },
        "wall_seconds": time.time() - started,
        "grid_note": "horizons and grids are experimental choices, not paper values",
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return result


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _sweep_worker(args):
    cfg_dict, out_dir = args
    config = config_from_dict(cfg_dict)
    result = run_to_directory(config, out_dir=out_dir)
    t_theory = theory_window(config.model, result.c_fit, config.delta)
    t_emp = result.monitor.t_emp
    return {
        "delta": config.delta,
        "T_emp": None if math.isinf(t_emp) else t_emp,
        "unconditional": result.monitor.unconditional,
        "T_resolution": result.t_resolution,
        "T_theory": t_theory,
        "status": result.status,
        "kato_sup": result.kato_sup,
    }


def validate_deltas(deltas):
    if not deltas:
        raise ConfigError("delta list must be nonempty")
    if any(d < 0 for d in deltas):
        raise ConfigError("deltas must be nonnegative")
    if len(set(deltas)) != len(deltas):
        raise ConfigError("duplicate delta values")
    if list(deltas) != sorted(deltas, reverse=True):
        raise ConfigError("deltas must be strictly descending")
    return list(deltas)


def sweep(config, deltas, out_dir=None):
    """Run the config at each delta (descending) and tabulate the windows.

    Members run in a process pool capped by FLUIDSPAN_THREADS; a member
    failing hard aborts the sweep but the finished rows are preserved in
    sweep.csv.
    """
    deltas = validate_deltas(deltas)
    threads = thread_count()
    out_dir = out_dir or config.output_dir
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    for i, d in enumerate(deltas):
        cfg = asdict(config)
        cfg["delta"] = d
        jobs.append((cfg, os.path.join(out_dir, f"delta_{i:02d}")))

    rows = []
    workers = min(threads, len(jobs))
    failure = None
    if workers == 1:
        for job in jobs:
            try:
                rows.append(_sweep_worker(job))
            except Exception as exc:  # preserve partial results
                failure = exc
                break
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_worker, job) for job in jobs]
            for fut in futures:
                try:
                    rows.append(fut.result())
                except Exception as exc:
                    failure = exc
                    break

    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w") as fh:
        fh.write("delta,T_emp,T_resolution,T_theory,status\n")
        for row in rows:
            t_emp = "unconditional" if row["unconditional"] else _fmt(row["T_emp"])
            fh.write(",".join([
                _fmt(row["delta"]), t_emp, _fmt(row["T_resolution"]),
                _fmt(row["T_theory"]), str(row["status"]),
            ]) + "\n")
    if failure is not None:
        raise InstabilityError(
            f"sweep aborted after {len(rows)} member(s): {failure}")
    return rows
