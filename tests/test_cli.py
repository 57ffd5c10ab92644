"""Exit codes and output of the command-line entry points; no test simulates a step."""

import json

import pytest

from thrusterbiped import cli
from thrusterbiped.cli import EXIT_ABORT, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from thrusterbiped.config import config_to_dict, save_config
from thrusterbiped.errors import (
    EventLocationError,
    NumericalFailureError,
    SingularDynamicsError,
)
from thrusterbiped.harness import GaitLog


@pytest.fixture()
def scenario(tmp_path, default_cfg):
    path = tmp_path / "scenario.json"
    save_config(default_cfg, str(path))
    return path


def edited(path, section, key, value):
    data = json.loads(path.read_text(encoding="utf-8"))
    data[section][key] = value
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_validate_accepts_the_default_scenario(scenario, capsys):
    assert main(["validate", str(scenario), "--no-env"]) == EXIT_OK
    assert capsys.readouterr().out == "config ok\n"


@pytest.mark.parametrize("section, key, value", [
    ("erg", "mode_literal_xw", False),
    ("sim", "seed", 0),
    ("model", "l", -1.0),
    ("gait", "kp", [0.0, 100.0]),
    ("sim", "n_steps", 0.0),
    ("io", "log_decimation", 1.0),
    ("erg", "enabled", "no"),
    ("nmpc", "w_eta", [1e-3, 0.0, 1e-4]),
    ("nmpc", "w_x", [-1.0] + [1.0] * 9),
    ("erg", "sign_eps", 0),
    ("sim", "mu_s", -0.3),
    ("erg", "kappa", True),
    ("gait", "bezier", [[0.0] * 6, [0.0] * 5]),
    ("sim", "dt_ss", float("nan")),
    ("nmpc", "w_x", [float("nan")] + [1.0] * 9),
    ("gait", "u_max", [-1.0, -1.0]),
    ("gait", "u_max", [0.0, 0.0]),
    ("gait", "x_max", [-1.2, -1.2, -10.0, -10.0]),
    ("erg", "kappa", 0.0),
    ("erg", "rate_cap", 0.0),
    ("nmpc", "angle_max", -1.2),
    ("nmpc", "rate_max", 0.0),
    ("nmpc", "hip_box", -1.0),
    ("nmpc", "eps_normal", -0.1),
])
def test_validate_rejects_bad_configs(scenario, capsys, section, key, value):
    path = edited(scenario, section, key, value)
    assert main(["validate", path, "--no-env"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


def test_validate_accepts_an_infinite_limit(scenario, capsys):
    # an infinite state bound is a non-binding row, unlike NaN
    path = edited(scenario, "nmpc", "rate_max", float("inf"))
    assert main(["validate", path, "--no-env"]) == EXIT_OK
    assert capsys.readouterr().out == "config ok\n"


def with_text_at(path, field, entry, text):
    """Write ``text`` verbatim as the JSON value of ``field`` (at ``entry``
    of a list field)."""
    data = json.loads(path.read_text(encoding="utf-8"))
    section, key = field.split(".")
    if entry is None:
        data[section][key] = "@"
    else:
        *outer, last = entry
        target = data[section][key]
        for i in outer:
            target = target[i]
        target[last] = "@"
    path.write_text(json.dumps(data).replace('"@"', text), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("field, entry", [
    ("gait.u_max", (0,)), ("gait.x_max", (2,)), ("nmpc.angle_max", None),
    ("nmpc.rate_max", None), ("nmpc.hip_box", None), ("model.f_th_max", None),
])
def test_validate_accepts_each_open_limit_at_infinity(scenario, capsys, field, entry):
    # JSON reads 1e400 as +inf
    path = with_text_at(scenario, field, entry, "1e400")
    assert main(["validate", path, "--no-env"]) == EXIT_OK
    assert capsys.readouterr().out == "config ok\n"


@pytest.mark.parametrize("field, entry, text", [
    ("gait.q3dot_start", None, "1e400"),
    ("gait.bezier", (0, 2), "1e400"),
    ("gait.theta_plus", None, "1e400"),
    ("sim.ds_envelope", None, "1e400"),
    ("gait.kp", (1,), "1e400"),
    ("model.m_T", None, "1e400"),
    ("model.f_th_max", None, "-1e400"),
])
def test_a_non_finite_value_is_a_config_error_before_simulating(
        scenario, tmp_path, capsys, field, entry, text):
    # outside the open limits, an infinity would crash or fell the run
    path = with_text_at(scenario, field, entry, text)
    assert main(["validate", path, "--no-env"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {field} must be finite")
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out), "--no-env"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: {field} must be finite")
    assert not out.exists()


def test_run_rejects_a_nan_value_before_simulating(scenario, tmp_path, capsys):
    path = edited(scenario, "sim", "dt_ss", float("nan"))
    out = tmp_path / "out"
    assert main(["run", path, "--output-dir", str(out), "--no-env"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


def test_validate_reports_a_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json"), "--no-env"]) == EXIT_CONFIG
    assert "not found" in capsys.readouterr().err


@pytest.mark.parametrize("levels", ["abc", "3,3.0"])
def test_sweep_rejects_bad_levels_before_running(scenario, tmp_path, capsys, levels):
    out = tmp_path / "sweep"
    code = main(["sweep", "--u-max", levels, "--config", str(scenario),
                 "--output-dir", str(out), "--no-env"])
    assert code == EXIT_CONFIG
    assert "--u-max" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_checks_every_level_before_the_first_run(scenario, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["sweep", "--u-max", "3,-1", "--config", str(scenario),
                 "--output-dir", str(out), "--no-env"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == "config error: gait: u_max entries must be positive\n"
    assert not out.exists()


def test_sweep_runs_levels_in_the_order_given(scenario, tmp_path, capsys):
    path = edited(scenario, "sim", "n_steps", 0)
    out = tmp_path / "sweep"
    code = main(["sweep", "--u-max", "1.2,3", "--config", path,
                 "--output-dir", str(out), "--no-env"])
    assert code == EXIT_OK
    assert (out / "umax_1.2").is_dir()
    assert (out / "umax_3").is_dir()
    rows = (out / "sweep_summary.csv").read_text(encoding="utf-8").splitlines()
    assert rows[0].startswith("u_max,")
    assert [row.split(",")[0] for row in rows[1:]] == ["1.2", "3.0"]
    assert "summary:" in capsys.readouterr().out


def test_design_gait_prints_the_default_gait_section(default_cfg, capsys):
    assert main(["design-gait"]) == EXIT_OK
    expected = {"gait": config_to_dict(default_cfg)["gait"]}
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("error, code", [
    (NumericalFailureError("non-finite state"), EXIT_NUMERICAL),
    (EventLocationError("no sign change"), EXIT_NUMERICAL),
    (SingularDynamicsError("singular mass matrix"), EXIT_ABORT),
])
def test_run_maps_simulation_errors_to_exit_codes(scenario, tmp_path, monkeypatch,
                                                  capsys, error, code):
    def failing_walk(cfg):
        raise error

    monkeypatch.setattr(cli, "run_walk", failing_walk)
    out = tmp_path / "run"
    assert main(["run", str(scenario), "--output-dir", str(out), "--no-env"]) == code
    assert str(error) in capsys.readouterr().err


def test_run_reports_a_fall_with_exit_3_and_writes_its_outputs(
        scenario, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_walk",
                        lambda cfg: GaitLog(aborted="fall: hip height below 0.2*l"))
    out = tmp_path / "run"
    assert main(["run", str(scenario), "--output-dir", str(out), "--no-env"]) == EXIT_ABORT
    assert (out / "trace.csv").is_file()
    summary = (out / "summary.txt").read_text(encoding="utf-8")
    assert "status: aborted: fall: hip height below 0.2*l" in summary
    assert summary in capsys.readouterr().out
