import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidspan.errors import ConfigError
from fluidspan.harness import (
    RUN_CSV_HEADER,
    RunConfig,
    config_from_dict,
    parse_config_file,
    run,
    run_to_directory,
    sweep,
    validate_deltas,
)
from fluidspan.models import DELTA_NORMS, PROFILES, ModelKind


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


def test_validate_deltas():
    assert validate_deltas([1e-1, 1e-2, 1e-3]) == [1e-1, 1e-2, 1e-3]
    assert validate_deltas([0.0]) == [0.0]
    with pytest.raises(ConfigError):
        validate_deltas([1e-2, 1e-1])  # ascending
    with pytest.raises(ConfigError):
        validate_deltas([1e-2, 1e-2])  # duplicates
    with pytest.raises(ConfigError):
        validate_deltas([])


def test_sweep_zero_delta_unconditional(tmp_path):
    cfg = small_config(model="boussinesq", t_end=0.1,
                       output_dir=str(tmp_path))
    rows = sweep(cfg, [0.0], out_dir=str(tmp_path))
    assert len(rows) == 1
    assert rows[0]["unconditional"]
    text = (tmp_path / "sweep.csv").read_text().splitlines()
    assert text[0] == "delta,T_emp,T_resolution,T_theory,status"
    assert text[1].split(",")[1] == "unconditional"


def test_sweep_monotone_small(tmp_path):
    cfg = small_config(model="boussinesq", nx=48, ny=48, t_end=2.0,
                       dt_max=0.02, track_particles=False,
                       output_dir=str(tmp_path))
    rows = sweep(cfg, [0.5, 0.05], out_dir=str(tmp_path))
    t0, t1 = rows[0]["T_emp"], rows[1]["T_emp"]
    assert t0 is not None and t1 is not None
    assert t0 <= t1
