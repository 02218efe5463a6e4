import hashlib
import json
import math
import os
import subprocess
import sys
import weakref
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidspan.bootstrap import _first_crossing, calibrate_c_fit, theory_window
from fluidspan.errors import ConfigError, VacuumError
from fluidspan import harness
from fluidspan.fields import Grid, sobolev_norm
from fluidspan.harness import (
    FROZEN_C_FIT,
    RUN_CSV_HEADER,
    TAIL_ENSTROPHY_LOSS,
    RunConfig,
    config_from_dict,
    march,
    parse_config_file,
    run,
    run_to_directory,
    sweep,
    validate_deltas,
)
from fluidspan.lagrangian import StageVelocity, advect_flow_map, identity_ensemble
from fluidspan.models import (
    DELTA_NORMS,
    MHD_KINDS,
    PROFILES,
    ModelKind,
    cfl_limit,
    initial_state,
    step_detailed,
)


def small_config(**over):
    base = dict(model="euler", nx=32, ny=32, t_end=0.2, dt_max=0.02,
                particle_m=8, output_dir="unused")
    base.update(over)
    return RunConfig(**base)


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# comment line\n"
        "model = boussinesq\n"
        "nx = 64\n"
        "ny = 64\n"
        "delta = 0.05   # inline comment\n"
        "t_end = 0.5\n"
        "track_particles = false\n"
    )
    cfg = parse_config_file(path)
    assert cfg.model == "boussinesq"
    assert cfg.nx == 64
    assert cfg.delta == 0.05
    assert cfg.track_particles is False


def _finite(lo, hi=1e6, **kw):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False, **kw)


# One strategy per RunConfig field, each drawing only valid values.
CONFIG_FIELDS = {
    "model": st.sampled_from([k.value for k in ModelKind]),
    "nx": st.integers(4, 256).map(lambda k: 2 * k),
    "ny": st.integers(4, 256).map(lambda k: 2 * k),
    "p": _finite(2.0, exclude_min=True),
    "delta": _finite(0.0),
    "delta_norm": st.sampled_from(DELTA_NORMS),
    "t_end": _finite(0.0),
    "dt_max": _finite(0.0, exclude_min=True),
    "cfl": _finite(0.0, exclude_min=True),
    "particle_m": st.integers(4, 512),
    "seed_profile": st.sampled_from(sorted(PROFILES)),
    "output_dir": st.text("abcxyz0189_-./", min_size=1, max_size=20),
    "elliptic_tol": _finite(0.0, 1.0, exclude_min=True, exclude_max=True),
    "diag_every": st.integers(1, 1000),
    "track_particles": st.booleans(),
    "c_fit": _finite(0.0),
}


def test_config_fields_pinned():
    assert [f.name for f in fields(RunConfig)] == list(CONFIG_FIELDS)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.fixed_dictionaries(CONFIG_FIELDS))
def test_config_file_round_trip(tmp_path_factory, values):
    # key = repr(value) for numbers and booleans; strings are written bare,
    # as a config file holds them.
    config = RunConfig(**values).validate()
    path = tmp_path_factory.getbasetemp() / "round_trip.cfg"
    path.write_text("".join(
        f"{k} = {v if isinstance(v, str) else repr(v)}\n" for k, v in values.items()))
    assert parse_config_file(path) == config


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("modle = euler\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def test_invalid_model_rejected():
    with pytest.raises(Exception):
        config_from_dict({"model": "navier"})


def test_zero_horizon_single_row(tmp_path):
    cfg = small_config(t_end=0.0, output_dir=str(tmp_path))
    result = run_to_directory(cfg)
    assert result.status == 0
    lines = (tmp_path / "run.csv").read_text().strip().splitlines()
    assert lines[0] == RUN_CSV_HEADER
    assert len(lines) == 2  # header + initial diagnostics


def test_run_produces_meta_and_rows(tmp_path):
    cfg = small_config(model="boussinesq", delta=0.01, t_end=0.1,
                       output_dir=str(tmp_path))
    result = run_to_directory(cfg)
    assert result.status == 0
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["termination"] == "completed"
    assert meta["config"]["model"] == "boussinesq"
    assert meta["threads"] >= 1
    lines = (tmp_path / "run.csv").read_text().strip().splitlines()
    assert len(lines) == len(result.rows) + 1
    # Euler columns that do not apply are empty, Boussinesq has Y and Z
    header = lines[0].split(",")
    first = lines[1].split(",")
    row = dict(zip(header, first))
    assert row["Y"] != ""
    assert row["Q"] == ""  # Boussinesq carries Y/Z, not Q
    assert row["cross_helicity"] == ""


def test_run_meta_solver_summary(tmp_path):
    # IIE: the run's elliptic solves, one per RK4 stage and one per new state
    # the rows read, are summarised in run_meta.json; the CSV is unchanged.
    cfg = small_config(model="iie", delta=0.05, t_end=0.04, dt_max=0.02,
                       track_particles=False, output_dir=str(tmp_path / "iie"))
    result = run_to_directory(cfg)
    assert result.status == 0
    assert len(result.rows) == 3  # initial row + 2 steps
    solver = json.loads((tmp_path / "iie" / "run_meta.json").read_text())["solver"]
    assert solver["method"] == "preconditioned_cg"
    assert solver["solves"] >= 8
    assert solver["solves"] <= solver["iterations_total"]
    assert solver["iterations_max"] <= solver["iterations_total"]
    assert solver["residual_max"] <= cfg.elliptic_tol
    lines = (tmp_path / "iie" / "run.csv").read_text().splitlines()
    assert lines[0] == RUN_CSV_HEADER
    # no elliptic solve, no summary
    run_to_directory(small_config(t_end=0.02, output_dir=str(tmp_path / "euler")))
    assert json.loads((tmp_path / "euler" / "run_meta.json").read_text())["solver"] is None


def test_run_meta_timings(tmp_path):
    # The run's CPU seconds and minor page faults, as getrusage deltas, go
    # to run_meta.json; run.csv keeps its header.
    pytest.importorskip("resource")
    run_to_directory(small_config(t_end=0.02, output_dir=str(tmp_path)))
    timings = json.loads((tmp_path / "run_meta.json").read_text())["timings"]
    assert set(timings) == {"cpu_user_s", "cpu_sys_s", "minor_faults"}
    assert all(v >= 0 for v in timings.values())
    assert isinstance(timings["minor_faults"], int)
    assert (tmp_path / "run.csv").read_text().splitlines()[0] == RUN_CSV_HEADER


def test_determinism_byte_identical(tmp_path):
    cfg1 = small_config(model="boussinesq", delta=0.02, t_end=0.1,
                        output_dir=str(tmp_path / "a"))
    cfg2 = small_config(model="boussinesq", delta=0.02, t_end=0.1,
                        output_dir=str(tmp_path / "b"))
    run_to_directory(cfg1)
    run_to_directory(cfg2)
    a = (tmp_path / "a" / "run.csv").read_bytes()
    b = (tmp_path / "b" / "run.csv").read_bytes()
    assert a == b


def test_euler_eigenstate_energy_column(tmp_path):
    from fluidspan.models import eigenstate_vorticity

    cfg = small_config(nx=64, ny=64, t_end=0.3, output_dir=str(tmp_path))
    # steady state: conserved-energy column constant to 1e-8
    result = run(cfg.validate())
    # replace initial data through a fresh run at the eigenstate
    from fluidspan.fields import Grid
    from fluidspan.models import FluidState, ModelKind

    lines = []
    e_vals = [row["E_model"] for row in result.rows]
    assert max(abs(e - e_vals[0]) for e in e_vals) / abs(e_vals[0]) < 1e-6


def test_instability_keeps_partial_rows(tmp_path):
    # an absurd CFL number lets dt_max through and the run blows up quickly
    cfg = small_config(model="euler", t_end=50.0, dt_max=2.5, cfl=500.0,
                       output_dir=str(tmp_path))
    with np.errstate(over="ignore", invalid="ignore"):
        result = run_to_directory(cfg)
    assert result.status == 3
    assert "instability" in result.termination
    meta = json.loads((tmp_path / "run_meta.json").read_text())
    assert meta["status"] == 3
    lines = (tmp_path / "run.csv").read_text().strip().splitlines()
    assert len(lines) >= 2  # header + at least the initial row
    for line in lines[1:]:
        assert "nan" not in line.lower()


def _csv_columns(path):
    """run.csv as float columns; an empty field (a quantity the model does
    not carry) reads as nan."""
    header, *lines = path.read_text().splitlines()
    names = header.split(",")
    rows = [[float(v) if v else math.nan for v in line.split(",")] for line in lines]
    return dict(zip(names, np.array(rows, dtype=float).reshape(len(rows), len(names)).T))


# run_meta.json keys that record the process rather than a number of the run
PROCESS_KEYS = {"wall_seconds", "timings", "solver", "threads", "version", "status",
                "termination", "grid_note"}


def _rederived_meta(out_dir, config):
    """Every number of run_meta.json re-derived from run.csv and the config:
    the config and its hash; c_fit, the config's or the frozen one; the
    monitor, each bootstrap-hypothesis component of the model crossed by
    linear interpolation between rows; t_resolution, the first row that
    loses resolution; and for MHD the checks of a rebuilt initial state."""
    col = _csv_columns(out_dir / "run.csv")
    kind = ModelKind.parse(config.model)
    t, delta = col["t"], config.delta
    c = config.c_fit or FROZEN_C_FIT[kind]
    components = {
        "euler": {},
        "iie": {"C*delta*M": (c * delta * col["M"], 0.5),
                "C*delta*N": (c * delta * col["N"], 0.5), "delta*Q": (delta * col["Q"], 1.0)},
        "boussinesq": {"delta*Y": (delta * col["Y"], 1.0), "delta*Z": (delta * col["Z"], 1.0)},
        "mhd": {"Q": (col["Q"], 1.0), "C*delta*t": (c * delta * t, 1.0)},
    }["mhd" if kind in MHD_KINDS else kind.value]
    crossings = {} if delta == 0.0 else {
        name: _first_crossing(t, cap - vals) for name, (vals, cap) in components.items()}
    lost = t[col["tail_enstrophy"] > TAIL_ENSTROPHY_LOSS]
    canon = "\n".join(f"{k} = {v}" for k, v in sorted(asdict(config).items()))
    meta = {
        "config": asdict(config),
        "config_hash": hashlib.sha256(canon.encode()).hexdigest()[:16],
        "c_fit": c,
        "monitor": {"t_emp": min((x for x in crossings.values() if x is not None), default=None),
                    "unconditional": not crossings, "components": crossings},
        "t_resolution": float(lost[0]) if lost.size else None,
        "initial_checks": {},
    }
    if kind in MHD_KINDS:
        try:
            rho = initial_state(kind, Grid(config.nx, config.ny), delta=delta,
                                delta_norm=config.delta_norm, p=config.p,
                                seed_profile=config.seed_profile).density()
        except VacuumError:
            pass
        else:
            norm = sobolev_norm(rho, 4, config.p)
            meta["initial_checks"] = {"rho0_w4p": norm, "rho0_w4p_within_100": norm <= 100.0}
    return meta


def _check_run_files(out_dir, config):
    """run_meta.json holds exactly the re-derived numbers and the process
    records, and each number equals its re-derivation; returns the meta."""
    meta = json.loads((out_dir / "run_meta.json").read_text())
    expected = _rederived_meta(out_dir, config)
    assert set(meta) == set(expected) | PROCESS_KEYS
    assert {k: meta[k] for k in expected} == expected
    return meta


def _number(text):
    return None if text == "" else float(text)


# One small config per model, swept over two deltas.  Boussinesq's 1e-30 lies
# inside the nested-log domain, so its member has a finite T_theory.
REDERIVE_CASES = {
    "euler": dict(deltas=[0.1, 0.0], t_end=0.1),
    "boussinesq": dict(deltas=[2.0, 1e-30], t_end=0.4),
    "iie": dict(deltas=[0.1, 0.0], t_end=0.1, delta_norm="inv_rho_minus_1_W2p"),
    "mhd": dict(deltas=[1.0, 0.5], t_end=0.3, delta_norm="rho_minus_1_W3p"),
    "mhd_elsasser": dict(deltas=[1.0, 0.0], t_end=0.3, delta_norm="rho_minus_1_W3p",
                         track_particles=True),
}


@pytest.mark.parametrize("model", list(REDERIVE_CASES))
def test_run_files_rederive_every_number(tmp_path, model):
    # Each member's run_meta.json, and each sweep.csv row, follows from the
    # member's run.csv and its config, bit for bit.
    over = {"dt_max": 0.01, "track_particles": False, **REDERIVE_CASES[model]}
    deltas = over.pop("deltas")
    config = small_config(model=model, output_dir=str(tmp_path), **over)
    sweep(config, deltas, out_dir=str(tmp_path))
    header, *lines = (tmp_path / "sweep.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines]
    assert header == "delta,T_emp,T_resolution,T_theory,status" and len(rows) == len(deltas)
    for i, ((d, t_emp, t_res, t_theory, status), delta) in enumerate(zip(rows, deltas)):
        meta = _check_run_files(tmp_path / f"delta_{i:02d}", replace(config, delta=delta))
        monitor = meta["monitor"]
        assert float(d) == delta
        assert (t_emp == "unconditional") == monitor["unconditional"]
        if not monitor["unconditional"]:
            assert _number(t_emp) == monitor["t_emp"]
        assert _number(t_res) == meta["t_resolution"]
        assert _number(t_theory) == theory_window(model, meta["c_fit"], delta)
        assert int(status) == meta["status"]
    if model == "boussinesq":
        assert _number(rows[1][3]) == pytest.approx(0.334, abs=1e-3)
    if model != "euler":  # the first member's bootstrap window closes inside the run
        assert _number(rows[0][1]) is not None


# delta = 50 makes vacuum initial data for some norms, so failed runs are
# drawn too.
@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.fixed_dictionaries({
    "model": st.sampled_from([k.value for k in ModelKind]),
    "p": _finite(2.5, 6.0),
    "delta": st.sampled_from([0.0, 1e-30, 1e-2, 0.1, 0.5, 1.0, 2.0, 50.0]),
    "delta_norm": st.sampled_from(DELTA_NORMS),
    "t_end": _finite(0.0, 0.4),
    "dt_max": _finite(0.01, 0.05),
    "particle_m": st.integers(4, 8),
    "seed_profile": st.sampled_from(sorted(PROFILES)),
    "diag_every": st.integers(1, 4),
    "track_particles": st.booleans(),
    "c_fit": st.one_of(st.just(0.0), _finite(1.0, 10.0)),
}))
def test_drawn_run_files_rederive_every_number(tmp_path_factory, values):
    config = RunConfig(nx=16, ny=16, output_dir="unused", **values)
    out = tmp_path_factory.mktemp("drawn")
    run_to_directory(config, out_dir=str(out))
    _check_run_files(out, config)


def test_chord_arc_violation_ends_the_run_cleanly(tmp_path, monkeypatch):
    # A chord-arc violation, forced on the third row by dropping the
    # tolerance to -1/2 there, ends the run like every failure: a status and
    # a termination, a complete run_meta.json, the exit code, and rows,
    # run.csv and final_time that agree on where the run stopped.
    from fluidspan import lagrangian
    from fluidspan.cli import main

    tol = lagrangian.CHORD_ARC_TOL

    def forcing(series, state, ens=None):
        monkeypatch.setattr(lagrangian, "CHORD_ARC_TOL", -0.5 if len(series.rows) == 2 else tol)
        return lagrangian.record(series, state, ens)

    cfg = small_config(t_end=0.1, output_dir=str(tmp_path / "ok"))
    assert run_to_directory(cfg).status == 0
    complete = json.loads((tmp_path / "ok" / "run_meta.json").read_text())

    monkeypatch.setattr(harness, "record", forcing)
    result = run_to_directory(cfg, out_dir=str(tmp_path / "forced"))
    assert result.status == 3
    assert result.termination.startswith("chord-arc violation: measured stretching")
    meta = json.loads((tmp_path / "forced" / "run_meta.json").read_text())
    assert set(meta) == set(complete) and set(meta["monitor"]) == set(complete["monitor"])
    assert (meta["status"], meta["termination"]) == (3, result.termination)
    lines = (tmp_path / "forced" / "run.csv").read_text().splitlines()
    assert len(lines) - 1 == len(result.rows) == 2
    assert result.final_time == result.rows[-1]["t"] == float(lines[-1].split(",")[0])

    path = tmp_path / "run.cfg"
    path.write_text("model = euler\nnx = 32\nny = 32\nt_end = 0.1\ndt_max = 0.02\n"
                    "particle_m = 8\n")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "cli")]) == 3


def test_validate_deltas():
    assert validate_deltas([1e-1, 1e-2, 1e-3]) == [1e-1, 1e-2, 1e-3]
    assert validate_deltas([0.0]) == [0.0]
    with pytest.raises(ConfigError):
        validate_deltas([1e-2, 1e-1])  # ascending
    with pytest.raises(ConfigError):
        validate_deltas([1e-2, 1e-2])  # duplicates
    with pytest.raises(ConfigError):
        validate_deltas([])
    for bad in ([math.inf, 1e-2], [1e-1, math.nan]):
        with pytest.raises(ConfigError):
            validate_deltas(bad)


@pytest.mark.parametrize("kind", list(ModelKind), ids=lambda k: k.value)
def test_frozen_c_fit_rederives(kind):
    # FROZEN_C_FIT is calibrate_c_fit on the delta = 0 run of the default
    # profile at 128^2, t_end = 2, p = 4, rounded to 6 decimals.  Particles
    # are off: the calibrated series does not read the flow map.
    result = run(RunConfig(model=kind.value, nx=128, ny=128, p=4.0, delta=0.0, t_end=2.0,
                           track_particles=False))
    assert result.status == 0
    assert round(calibrate_c_fit(result.series, kind), 6) == FROZEN_C_FIT[kind]


def test_sweep_zero_delta_unconditional(tmp_path):
    cfg = small_config(model="boussinesq", t_end=0.1,
                       output_dir=str(tmp_path))
    rows = sweep(cfg, [0.0], out_dir=str(tmp_path))
    assert len(rows) == 1
    assert rows[0]["unconditional"]
    text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert text[0] == "delta,T_emp,T_resolution,T_theory,status"
    assert text[1].split(",")[1] == "unconditional"


@pytest.mark.parametrize("model, c_fit", [("boussinesq", 1e120), ("mhd", 1e200)])
def test_sweep_huge_c_fit_has_no_window(tmp_path, model, c_fit):
    # A c_fit that takes the closed-form constants out of double range (the
    # MHD ones square it) leaves the member without a theory window; the
    # sweep still finishes and writes its table.
    cfg = small_config(model=model, t_end=0.04, c_fit=c_fit, track_particles=False,
                       output_dir=str(tmp_path))
    rows = sweep(cfg, [0.1], out_dir=str(tmp_path))
    assert rows[0]["T_theory"] is None
    assert (tmp_path / "sweep.csv").exists()


def test_sweep_monotone_small(tmp_path):
    cfg = small_config(model="boussinesq", nx=48, ny=48, t_end=2.0,
                       dt_max=0.02, track_particles=False,
                       output_dir=str(tmp_path))
    rows = sweep(cfg, [0.5, 0.05], out_dir=str(tmp_path))
    t0, t1 = rows[0]["T_emp"], rows[1]["T_emp"]
    assert t0 is not None and t1 is not None
    assert t0 <= t1


def test_sweep_pool_matches_serial(tmp_path, monkeypatch):
    # Two workers run the members in a process pool, one runs them in turn;
    # both write the same sweep.csv.
    cfg = small_config(model="boussinesq", nx=16, ny=16, t_end=0.1, track_particles=False)
    tables = []
    for threads in ("1", "2"):
        monkeypatch.setenv("FLUIDSPAN_THREADS", threads)
        out = tmp_path / threads
        sweep(cfg, [2.0, 1.0], out_dir=str(out))
        tables.append((out / "sweep.csv").read_bytes())
    assert tables[0] == tables[1]
    assert len(tables[0].splitlines()) == 3


def _snapshot(state, ens):
    return state.t, [c.copy() for c in state.coeffs], ens.x.copy(), ens.jac.copy()


def test_march_matches_reference_loop():
    # march is the hand-written RK4 loop, bit for bit: the dt rule, the end
    # test, the unchecked step and the flow map along each step's stages.
    grid = Grid(32)
    t_end, dt_max = 0.1, 0.03  # the last step is cut to land on t_end
    state = initial_state(ModelKind.BOUSSINESQ, grid, delta=0.1)
    ens = identity_ensemble(8)
    expected = []
    while state.t < t_end - 1e-14:
        dt = min(dt_max, cfl_limit(state, 0.5), t_end - state.t)
        state, stages = step_detailed(state, dt, check_cfl=False)
        ens = advect_flow_map(ens, StageVelocity(stages), dt)
        expected.append(_snapshot(state, ens))

    got = [_snapshot(state, ens) for state, ens in march(
        initial_state(ModelKind.BOUSSINESQ, grid, delta=0.1), identity_ensemble(8),
        t_end, dt_max)]
    assert len(got) == len(expected) == 4
    for (t, coeffs, x, jac), (t_ref, coeffs_ref, x_ref, jac_ref) in zip(got, expected):
        assert t == t_ref
        assert all(np.array_equal(c, r) for c, r in zip(coeffs, coeffs_ref))
        assert np.array_equal(x, x_ref) and np.array_equal(jac, jac_ref)
    assert got[-1][0] == t_end


@pytest.mark.parametrize("dt_max, steps", [(0.01, 100), (0.02, 50)])
def test_march_lands_on_t_end(dt_max, steps):
    states = [s for s, _ in march(initial_state(ModelKind.EULER, Grid(16)), None, 1.0, dt_max)]
    assert len(states) == steps and states[-1].t == 1.0


@pytest.mark.parametrize("diag_every", [1, 3])
def test_advection_holds_neither_the_old_state_nor_the_stages(monkeypatch, diag_every):
    # run() lets go of a state once its row is written or skipped, and march
    # of the step's stage velocities once the flow map's provider is built:
    # while the flow map advects, neither the state the step started from
    # nor a stage velocity is alive.  The rows are still the first, every
    # diag_every-th and the last.
    started_from, stage_planes, held = [], [], []

    def step(state, dt, **kwargs):
        started_from.append(weakref.ref(state))
        new, stages = step_detailed(state, dt, **kwargs)
        stage_planes.append([weakref.ref(w.u.values) for w in stages])
        return new, stages

    def advect(ens, provider, dt):
        held.append((started_from[-1]() is not None,
                     any(r() is not None for r in stage_planes[-1])))
        return advect_flow_map(ens, provider, dt)

    monkeypatch.setattr(harness, "step_detailed", step)
    monkeypatch.setattr(harness, "advect_flow_map", advect)
    result = run(small_config(model="boussinesq", t_end=0.1, diag_every=diag_every))
    assert held == [(False, False)] * 5
    expected = [0.0, 0.02, 0.04, 0.06, 0.08, 0.1] if diag_every == 1 else [0.0, 0.06, 0.1]
    assert [row["t"] for row in result.rows] == pytest.approx(expected, abs=1e-15)


def test_march_without_ensemble_builds_no_stage_velocity(monkeypatch):
    def refuse(stages):
        raise AssertionError("StageVelocity built")

    monkeypatch.setattr(harness, "StageVelocity", refuse)
    state = initial_state(ModelKind.EULER, Grid(16))
    assert len(list(march(state, None, 0.05, 0.01))) == 5
    with pytest.raises(AssertionError, match="StageVelocity built"):
        next(march(state, identity_ensemble(4), 0.05, 0.01))


def test_benchmark_layer_entry_points_exist(monkeypatch):
    # The traced benchmark wraps each layer at the module attribute where its
    # caller looks it up; an entry point renamed, or called from another
    # module, would read 0 there and pass for a gain.  So each one but run
    # itself is wrapped with a counter, and a particle run and an IIE run
    # must call every one.  benchmarks/spans.py is loaded as a plain module,
    # read-only (no bytecode cache is written next to it).
    import importlib
    import importlib.util
    import sys
    from pathlib import Path

    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("benchmark_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{attr}" for module, attr, _ in spans.LAYER_SPANS
               if not hasattr(importlib.import_module(module), attr)]
    assert spans.LAYER_SPANS and not missing

    counts = {}

    def counted(key, original):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)
        return wrapper

    for module_name, attr, _ in spans.LAYER_SPANS:
        if (module_name, attr) != ("fluidspan.harness", "run"):
            module = importlib.import_module(module_name)
            counts[f"{module_name}.{attr}"] = 0
            monkeypatch.setattr(module, attr, counted(f"{module_name}.{attr}",
                                                      getattr(module, attr)))
    assert run(RunConfig(model="euler", nx=16, ny=16, t_end=0.05, dt_max=0.01,
                         particle_m=8)).status == 0
    assert run(RunConfig(model="iie", nx=16, ny=16, delta=0.1, t_end=0.02,
                         delta_norm="inv_rho_minus_1_W2p",
                         track_particles=False)).status == 0
    assert counts and all(counts.values()), counts


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_16 = ("from fluidspan.harness import RunConfig, run\n"
          "assert run(RunConfig(model='euler', nx=16, ny=16, t_end=0.05, dt_max=0.01, "
          "particle_m=8, track_particles={})).status == 0\n")


def _scipy_loaded(code):
    """The scipy modules a fresh interpreter has loaded after running code."""
    code += ("import json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_particles_off_run_imports_no_scipy():
    # scipy is imported at its call sites only (~0.5 s of a cold start)
    assert _scipy_loaded("import fluidspan\n" + RUN_16.format(False)) == set()


def test_particles_run_imports_only_scipy_sparse():
    loaded = _scipy_loaded(RUN_16.format(True))
    assert "scipy.sparse" in loaded
    assert not loaded & {"scipy.integrate", "scipy.special", "scipy.spatial"}


def test_bounds_command_imports_no_scipy():
    code = ("from fluidspan.cli import main\n"
            "assert main(['bounds', '--model', 'boussinesq', '--c', '3']) == 0\n")
    assert _scipy_loaded(code) == set()
