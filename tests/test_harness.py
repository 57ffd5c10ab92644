import dataclasses
import json
import math
import os

import numpy as np
import pytest

from test_gait import on_manifold_state
from thrusterbiped import dynamics, erg, integrate
from thrusterbiped.config import load_config, save_config
from thrusterbiped.erg import SsController, SsSample
from thrusterbiped.harness import (
    NAN,
    TRACE_COLUMNS,
    GaitLog,
    StepRecord,
    max_tracking_error,
    run_walk,
    step_metrics,
    summary_text,
    write_logs,
)


def one_step_cfg(cfg, **sim_kv):
    return dataclasses.replace(
        cfg, sim=dataclasses.replace(cfg.sim, n_steps=1, **sim_kv))


def test_zero_steps_is_an_empty_success(default_cfg):
    cfg = dataclasses.replace(
        default_cfg, sim=dataclasses.replace(default_cfg.sim, n_steps=0))
    log = run_walk(cfg)
    assert log.completed_steps == 0
    assert log.aborted is None
    assert log.rows == [] and log.steps == []
    assert max_tracking_error(log) == 0.0
    assert step_metrics(log) == []
    text = summary_text(log)
    assert "steps completed: 0" in text
    assert "status: ok" in text


def test_on_manifold_start_tracks_tightly(default_cfg, gait):
    cfg = one_step_cfg(default_cfg)
    log = run_walk(cfg, start_state=on_manifold_state(gait, 0.0, -0.15))
    assert log.completed_steps == 1, log.aborted
    assert max_tracking_error(log) < 1e-3


def test_diverging_start_aborts_with_a_reason(default_cfg, gait):
    from thrusterbiped.gait import nominal_start_state

    x0 = nominal_start_state(gait)
    x0[3] = +2.0  # rock backward instead of walking forward
    log = run_walk(one_step_cfg(default_cfg), start_state=x0)
    assert log.completed_steps == 0
    assert log.aborted is not None and log.aborted.startswith("fall")
    assert len(log.rows) > 0  # the partial trace is preserved
    assert "aborted" in summary_text(log)


def fake_record(index, start, post=0.2, ss_start=0.02,
                ds_contact_violation=False):
    return StepRecord(
        index=index, t_start=float(index), ss_duration=0.4,
        residual_post_impact=post, residual_ss_start=ss_start,
        start_state=np.asarray(start, dtype=float),
        max_abs_u=np.array([1.0, 2.0]), erg_saturations=0,
        min_lam_n=3.0, max_cone_ratio=0.1, max_f_th=5.0,
        peak_normal_sum=20.0, ds_contact_violation=ds_contact_violation,
        nmpc_fallbacks=0)


def test_step_metrics_arithmetic():
    log = GaitLog()
    s0 = np.arange(6.0)
    log.steps = [fake_record(0, s0), fake_record(1, s0 + 3.0, post=0.0),
                 fake_record(2, s0 + 3.0)]
    log.completed_steps = 3
    table = step_metrics(log)
    assert [e["step"] for e in table] == [0, 1, 2]
    assert abs(table[0]["residual_ratio"] - 0.1) < 1e-15
    assert table[1]["residual_ratio"] == 0.0  # zero reference, defined as zero
    assert abs(table[0]["start_diff_to_next"] - 3.0 * math.sqrt(6)) < 1e-12
    assert table[1]["start_diff_to_next"] == 0.0
    assert math.isnan(table[2]["start_diff_to_next"])
    assert table[0]["max_u2"] == 1.0 and table[0]["max_u3"] == 2.0
    assert table[0]["ds_contact_violation"] == 0


def test_step_metrics_writes_a_flagged_contact_violation_as_one():
    log = GaitLog()
    log.steps = [fake_record(0, np.zeros(6), ds_contact_violation=True)]
    log.completed_steps = 1
    entry = step_metrics(log)[0]
    assert entry["ds_contact_violation"] == 1
    assert type(entry["ds_contact_violation"]) is int


def test_trace_has_one_impact_between_phases(one_step_log):
    tags = [r[1] for r in one_step_log.rows]
    assert tags.count("IMPACT") == 1
    i = tags.index("IMPACT")
    assert set(tags[:i]) == {"SS"}
    assert set(tags[i + 1:]) == {"DS"}

    t = np.array([r[0] for r in one_step_log.rows], dtype=float)
    assert np.all(np.diff(t) >= 0.0)
    t_ss = one_step_log.column("t", "SS")
    t_ds = one_step_log.column("t", "DS")
    assert np.all(np.diff(t_ss) > 0.0)
    assert np.all(np.diff(t_ds) > 0.0)

    # phase-specific column use: thrust exists only in double support
    f_ss = one_step_log.column("F_th", "SS")
    assert np.all(f_ss == 0.0)
    assert np.all(np.isnan(one_step_log.column("lamN2", "SS")))
    assert np.all(one_step_log.column("lamN2", "DS") > 0.0)
    row_imp = one_step_log.rows[i]
    assert math.isnan(row_imp[TRACE_COLUMNS.index("u2")])
    # rows hold Python floats, not numpy scalars, so write_logs formats
    # each entry with repr directly
    assert {type(v) for r in one_step_log.rows for v in r} == {float, str}


def test_write_logs_files_and_content(tmp_path, one_step_log, default_cfg):
    out = tmp_path / "out"
    paths = write_logs(one_step_log, str(out), default_cfg)
    for p in paths.values():
        assert os.path.exists(p)

    with open(paths["trace"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 1 + len(one_step_log.rows)
    first = lines[1].split(",")
    assert first[1] == "SS"
    assert float(first[0]) == one_step_log.rows[0][0]

    with open(paths["steps"], encoding="utf-8") as fh:
        step_lines = fh.read().splitlines()
    assert len(step_lines) == 1 + len(one_step_log.steps)
    assert step_lines[0].split(",")[0] == "step"

    cfg2 = load_config(paths["config"], apply_env=False)
    assert cfg2 == default_cfg
    with open(paths["summary"], encoding="utf-8") as fh:
        assert fh.read() == summary_text(one_step_log)


def test_write_logs_decimation(tmp_path, one_step_log, default_cfg):
    cfg = dataclasses.replace(
        default_cfg, io=dataclasses.replace(default_cfg.io, log_decimation=7))
    paths = write_logs(one_step_log, str(tmp_path / "dec"), cfg)
    with open(paths["trace"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert len(lines) == 1 + len(one_step_log.rows[::7])
    # decimated or not, the first sample is always kept
    assert float(lines[1].split(",")[0]) == one_step_log.rows[0][0]


def test_write_logs_cleans_up_after_failure(tmp_path, one_step_log, default_cfg,
                                            monkeypatch):
    out = tmp_path / "broken"

    def boom(cfg, path):
        raise OSError("disk full")

    monkeypatch.setattr("thrusterbiped.harness.save_config", boom)
    with pytest.raises(OSError, match="disk full"):
        write_logs(one_step_log, str(out), default_cfg)
    assert os.listdir(out) == []


def test_write_logs_leaves_no_partial_config(tmp_path, one_step_log, default_cfg,
                                             monkeypatch):
    # the encoder writes the start of the file, then fails on the object
    out = tmp_path / "broken"
    monkeypatch.setattr("thrusterbiped.config.config_to_dict",
                        lambda cfg: {"gait": object()})
    with pytest.raises(TypeError):
        write_logs(one_step_log, str(out), default_cfg)
    assert os.listdir(out) == []


def test_round_trip_of_written_trace_matches_memory(tmp_path, one_step_log,
                                                    default_cfg):
    paths = write_logs(one_step_log, str(tmp_path / "rt"), default_cfg)
    with open(paths["trace"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()[1:]
    k = TRACE_COLUMNS.index("q1")
    q1_file = np.array([float(l.split(",")[k]) for l in lines])
    q1_mem = np.array([r[k] for r in one_step_log.rows], dtype=float)
    assert np.array_equal(q1_file, q1_mem)  # repr round-trip is exact


def test_halving_the_ss_step_barely_moves_the_cycle(default_cfg):
    la = run_walk(one_step_cfg(default_cfg))
    lb = run_walk(one_step_cfg(default_cfg, dt_ss=1e-4))
    assert la.completed_steps == lb.completed_steps == 1
    ra = np.array(la.rows[-1][2:12], dtype=float)
    rb = np.array(lb.rows[-1][2:12], dtype=float)
    assert abs(la.rows[-1][0] - lb.rows[-1][0]) < 1e-9
    assert np.max(np.abs(ra - rb)) < 1e-5


def test_identical_configs_reproduce_the_trace(default_cfg, one_step_log):
    log2 = run_walk(one_step_cfg(default_cfg))
    assert log2.completed_steps == one_step_log.completed_steps
    assert len(log2.rows) == len(one_step_log.rows)
    for ra, rb in zip(one_step_log.rows, log2.rows):
        assert ra[1] == rb[1]
        a = np.array([v for v in ra if not isinstance(v, str)], dtype=float)
        b = np.array([v for v in rb if not isinstance(v, str)], dtype=float)
        assert np.array_equal(a[np.isfinite(a)], b[np.isfinite(b)])
        assert np.array_equal(np.isnan(a), np.isnan(b))


def test_each_node_runs_the_control_pipeline_once(default_cfg, gait, params,
                                                   monkeypatch):
    # every pipeline run evaluates the outputs once and solves for ddq once,
    # so the calls of output_data and solve_ddq from erg count pipeline runs;
    # the stance force reuses the pipeline's accelerations, so nothing in
    # dynamics evaluates the SS model again
    calls = {"output_data": 0, "solve_ddq": 0, "rk4_step": 0, "ss_dynamics": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("output_data", "solve_ddq"):
        monkeypatch.setattr(erg, name, counted(name, getattr(erg, name)))
    monkeypatch.setattr(integrate, "rk4_step", counted("rk4_step", integrate.rk4_step))
    monkeypatch.setattr(dynamics, "ss_dynamics",
                        counted("ss_dynamics", dynamics.ss_dynamics))
    log = run_walk(one_step_cfg(default_cfg))
    assert log.completed_steps == 1, log.aborted
    assert calls["ss_dynamics"] == 0
    # a logged node is sampled just before the next RK4 step's first stage
    # asks for the field there; only the event node of the one SS phase,
    # which no stage evaluates, adds a run
    assert calls["output_data"] == calls["solve_ddq"] == 4 * calls["rk4_step"] + 1

    cols = [TRACE_COLUMNS.index(c)
            for c in ("q1", "q2", "q3", "dq1", "dq2", "dq3", "w1", "w2")]
    ss_rows = [r for r in log.rows if r[1] == "SS"]
    z = np.array([ss_rows[len(ss_rows) // 2][i] for i in cols], dtype=float)

    def assert_same_sample(a, b):
        for f in dataclasses.fields(SsSample):
            assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f.name

    ctrl = SsController(gait, params)
    ctrl.field(0.0, z)
    runs = calls["output_data"]
    kept = ctrl.sample(z)
    assert calls["output_data"] == runs
    assert_same_sample(kept, SsController(gait, params).sample(z))

    z_next = z.copy()
    z_next[7] = np.nextafter(z_next[7], np.inf)
    runs = calls["output_data"]
    moved = ctrl.sample(z_next)
    assert calls["output_data"] == runs + 1
    assert_same_sample(moved, SsController(gait, params).sample(z_next))
