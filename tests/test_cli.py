import json
import math
import re
from pathlib import Path

import pytest

from fluidspan import cli
from fluidspan.cli import main
from fluidspan.errors import FluidspanError, NestedLogDomainError

ERRORS = [FluidspanError, *FluidspanError.__subclasses__()]


def _readme_exit_table():
    """README's exit-code table: label -> (exit code, the 'raised as' cell)."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return {label: (int(code), raised) for code, label, raised
            in re.findall(r"^\| (\d) \| `([^`]+)` \| (.+) \|$", text, re.MULTILINE)}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_failure_table(monkeypatch, capsys, cls):
    # Each error class carries the exit code and label README lists for it,
    # and the CLI ends a command that raises it with that code and one
    # "label: message" line.
    code, raised = _readme_exit_table()[cls.label]
    assert cls.exit_code == code
    assert cls.__name__ in raised or cls.label == "error", (cls, raised)

    def failing(args):
        raise cls("boom", 1) if cls is NestedLogDomainError else cls("boom")

    monkeypatch.setattr(cli, "_cmd_bounds", failing)
    assert main(["bounds", "--model", "iie"]) == cls.exit_code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"{cls.label}: boom\n")


def test_bounds_generic_endpoint(capsys):
    code = main(["bounds", "--model", "generic", "--c1", "1", "--c2", "1",
                 "--c3", "1", "--kappa", "1", "--zeta", "1",
                 "--log10-delta", repr(math.log10(0.99) - math.e**2 / math.log(10))])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.693147" in out


def test_bounds_mhd_prints_log_space(capsys, tmp_path):
    code = main(["bounds", "--model", "mhd", "--c", "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "log10(delta0) = -3.6671" in out.replace("e+12", "")  # ~ -3.667e12
    report = json.loads((tmp_path / "bounds.json").read_text())
    assert report["log10_delta0"] < -1e12  # never materialized as 0.0


def test_bounds_hypothesis_violation_exit_code(capsys):
    code = main(["bounds", "--model", "boussinesq", "--c", repr(math.e)])
    assert code == 4


def test_bounds_iie_continuation(capsys):
    code = main(["bounds", "--model", "iie-continuation", "--c", "1",
                 "--delta", "1e-20"])
    out = capsys.readouterr().out
    assert code == 0
    assert "U budget" in out


@pytest.mark.parametrize("argv", [
    ["--model", "boussinesq", "--c", "3", "--delta", "0"],
    ["--model", "boussinesq", "--c", "3", "--delta", "-1"],
    ["--model", "boussinesq", "--c", "3", "--log10-delta", "nan"],
    ["--model", "iie-continuation", "--c", "1", "--delta", "0"],
    ["--model", "iie", "--c", "inf"],
    ["--model", "generic", "--kappa", "abc"],
    ["--model", "iie", "--c", "1e308"],
    ["--model", "mhd", "--c", "1e200"],
    ["--model", "boussinesq", "--c", "1e308", "--delta", "1e-300"],
    ["--model", "iie-continuation", "--c", "1e308"],
    ["--model", "generic", "--c1", "0"],
    ["--model", "generic", "--kappa", "0"],
    ["--model", "generic", "--c2", "1000"],
], ids=["delta-0", "delta-negative", "log10-delta-nan", "continuation-delta-0",
        "c-inf", "kappa-abc", "iie-c-1e308", "mhd-c-1e200", "boussinesq-c-1e308",
        "continuation-c-1e308", "generic-c1-0", "generic-kappa-0", "generic-c2-1000"])
def test_bounds_bad_number_exit_2(tmp_path, capsys, argv):
    # a number that is not one, not finite or outside its domain is a config
    # error: one line, no traceback, nothing written
    out = tmp_path / "bounds"
    assert main(["bounds", *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_run_invalid_config_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("model = navier\n")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2

    cfg2 = tmp_path / "bad2.cfg"
    cfg2.write_text("not_a_key = 3\n")
    assert main(["run", "--config", str(cfg2)]) == 2

    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2

    for tol in ("0", "1", "nan"):
        cfg3 = tmp_path / "bad3.cfg"
        cfg3.write_text(f"model = iie\nelliptic_tol = {tol}\n")
        assert main(["run", "--config", str(cfg3)]) == 2

    # non-finite numbers, and a negative c_fit, fail at parse time, before
    # any step is taken
    cases = [(key, bad) for key in ("delta", "t_end", "dt_max", "cfl", "c_fit")
             for bad in ("nan", "inf", "-inf")] + [("c_fit", "-1")]
    for key, bad in cases:
        cfg4 = tmp_path / "bad4.cfg"
        cfg4.write_text(f"model = boussinesq\nnx = 16\nny = 16\n{key} = {bad}\n")
        out = tmp_path / "o4"
        assert main(["run", "--config", str(cfg4), "--out", str(out)]) == 2, (key, bad)
        assert not (out / "run.csv").exists()


def test_removed_keys_exit_2(tmp_path, capsys):
    # emit_svg, c_m and c_n are not config keys: a config that sets one fails
    # at parse time, before any file is written.
    for line in ("emit_svg = true", "c_m = 1", "c_n = 1"):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(f"model = euler\nnx = 16\nny = 16\nt_end = 0.01\n{line}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2, line
        assert "unknown key" in capsys.readouterr().err
        assert not (out / "run.csv").exists()


@pytest.mark.parametrize("key", ["seed_profile", "delta_norm"])
def test_unknown_choice_exit_2(tmp_path, capsys, key):
    # seed_profile and delta_norm are checked against models.PROFILES and
    # models.DELTA_NORMS at parse time, before any file is written.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = boussinesq\nnx = 16\nny = 16\nt_end = 0.01\n{key} = nope\n")
    for cmd in (["run"], ["sweep", "--deltas", "0.1"]):
        out = tmp_path / cmd[0]
        assert main([*cmd, "--config", str(cfg), "--out", str(out)]) == 2, cmd
        assert f"unknown {key} 'nope'" in capsys.readouterr().err
        assert not any(out.rglob("run.csv"))


@pytest.mark.parametrize("bad", ["abc", "0", "-3", "1.5"])
def test_bad_thread_count_exit_2(tmp_path, monkeypatch, capsys, bad):
    # FLUIDSPAN_THREADS is checked before run.csv is opened, so a bad value
    # never leaves a run.csv without its run_meta.json.
    monkeypatch.setenv("FLUIDSPAN_THREADS", bad)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = euler\nnx = 16\nny = 16\nt_end = 0.01\n")
    for cmd in (["run"], ["sweep", "--deltas", "0.1"]):
        out = tmp_path / cmd[0]
        assert main([*cmd, "--config", str(cfg), "--out", str(out)]) == 2, cmd
        assert "FLUIDSPAN_THREADS" in capsys.readouterr().err
        assert not any(out.rglob("run.csv"))
        assert not (out / "sweep.csv").exists()


def test_run_solver_failure_exit_5(tmp_path, capsys):
    # A tolerance below round-off cannot be met: the solve stops at its best
    # iterate and the run ends cleanly with status 5.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model = iie\nnx = 32\nny = 32\ndelta = 0.5\n"
        "delta_norm = inv_rho_minus_1_W2p\nelliptic_tol = 1e-17\n"
        "t_end = 0.05\ndt_max = 0.01\ntrack_particles = false\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 5
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["status"] == 5
    assert meta["termination"].startswith("elliptic non-convergence: ")
    assert meta["monitor"]["t_emp"] is None
    lines = (out / "run.csv").read_text().strip().splitlines()
    assert len(lines) == 1  # header only: the first row needs the first solve


def test_run_vacuum_initial_data_exit_5(tmp_path, capsys):
    # delta = 50 drives the initial density to zero: the run ends before its
    # first row, cleanly, with status 5.
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model = iie\nnx = 32\nny = 32\ndelta = 50\n"
        "delta_norm = inv_rho_minus_1_W2p\nt_end = 0.05\ntrack_particles = false\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 5
    meta = json.loads((out / "run_meta.json").read_text())
    assert meta["status"] == 5
    assert meta["termination"].startswith("vacuum: ")
    assert meta["config"]["delta"] == 50.0
    assert meta["monitor"]["t_emp"] is None
    lines = (out / "run.csv").read_text().strip().splitlines()
    assert lines == [lines[0]] and lines[0].startswith("t,M,M_measured,")


def test_run_and_sweep_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "model = boussinesq\nnx = 32\nny = 32\ndelta = 0.1\n"
        "t_end = 0.1\ndt_max = 0.02\nparticle_m = 8\n"
    )
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    assert (tmp_path / "out" / "run.csv").exists()
    assert (tmp_path / "out" / "run_meta.json").exists()

    code = main(["sweep", "--config", str(cfg), "--deltas", "0.5,0.1",
                 "--out", str(tmp_path / "sw")])
    assert code == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 3


def test_sweep_member_path_failure_exit_2(tmp_path, capsys):
    # A member that cannot write its directory is a path error, not an
    # instability: the sweep writes the finished rows, then re-raises the
    # member's own exception, which the CLI reports as a config error.
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = euler\nnx = 16\nny = 16\nt_end = 0.02\n"
                   "track_particles = false\n")
    out = tmp_path / "sw"
    out.mkdir()
    (out / "delta_01").write_text("a file, not a directory\n")
    assert main(["sweep", "--config", str(cfg), "--deltas", "0.1,0.01",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "delta_01" in err
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 2 and lines[1].startswith("0.1,")


def test_run_out_is_a_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = euler\nnx = 16\nny = 16\nt_end = 0.02\n")
    out = tmp_path / "out"
    out.write_text("a file, not a directory\n")
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("deltas", ["0.1,0.1", "inf,1e-2", "1e-1,nan", "abc"])
def test_sweep_duplicate_deltas_exit_2(tmp_path, capsys, deltas):
    # a bad delta list fails before any member runs or any file is written
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = euler\nnx = 32\nny = 32\nt_end = 0.05\n")
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(cfg), "--deltas", deltas, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert not (out / "sweep.csv").exists()
    assert not (out / "delta_00").exists()


def test_verify_unknown_suite_exit_2(capsys):
    assert main(["verify", "--suite", "nope"]) == 2
