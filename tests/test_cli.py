"""Exit codes and output of the command-line entry points; no test simulates."""

import json

import pytest

from thrusterbiped.cli import EXIT_CONFIG, EXIT_OK, main
from thrusterbiped.config import config_to_dict, save_config


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
])
def test_validate_rejects_bad_configs(scenario, capsys, section, key, value):
    path = edited(scenario, section, key, value)
    assert main(["validate", path, "--no-env"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error:")


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


def test_design_gait_prints_the_default_gait_section(default_cfg, capsys):
    assert main(["design-gait"]) == EXIT_OK
    expected = {"gait": config_to_dict(default_cfg)["gait"]}
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
