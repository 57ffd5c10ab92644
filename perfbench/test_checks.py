"""Each independent check passes the program's real output and rejects a
deliberately corrupted copy of it.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import csv
import os
import shutil
import sys
import time
import types
from time import perf_counter

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (puts the package's src directory on sys.path)
import checks  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(scope="module")
def tb():
    return run.load_package()


@pytest.fixture(scope="module")
def walk_dir(tb, tmp_path_factory):
    """One gait cycle of the default scenario through `thrusterbiped run`."""
    root = tmp_path_factory.mktemp("walk")
    cfg = tb.config.default_scenario()
    cfg.sim.n_steps = 1
    cfg_path = str(root / "scenario.json")
    tb.config.save_config(cfg, cfg_path)
    out = str(root / "run")
    assert tb.cli.main(["run", cfg_path, "--output-dir", out, "--no-env"]) == 0
    return out


def _rewrite(src: str, dst: str, mutate) -> None:
    """Copy a run directory, passing trace.csv rows through `mutate`."""
    shutil.copytree(src, dst)
    path = os.path.join(dst, "trace.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    col = {name: j for j, name in enumerate(header)}
    mutate(body, col)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + body)


def _indices(body, col, tag):
    return [i for i, r in enumerate(body) if r[col["phase"]] == tag]


def _scale(body, col, rows, name, factor, offset=0.0):
    for i in rows:
        body[i][col[name]] = repr(float(body[i][col[name]]) * factor + offset)


def test_genuine_walk_passes(walk_dir):
    res = checks.check_run_dir(walk_dir, 1)
    assert (res.failed, res.failures) == (0, [])


def _ss_mid(body, col):
    ss = _indices(body, col, "SS")
    return ss[len(ss) // 2]


def _ds_mid(body, col):
    ds = _indices(body, col, "DS")
    return ds[len(ds) // 2]


CORRUPTIONS = {
    # a contact-force column scaled by 1 % breaks the centre-of-mass balance
    "newton": lambda b, c: _scale(b, c, _indices(b, c, "SS"), "lamN1", 1.01),
    "cone": lambda b, c: _scale(b, c, [_ds_mid(b, c)], "lamT2", 0.0,
                                0.31 * float(b[_ds_mid(b, c)][c["lamN2"]])),
    "boxes: |u2|": lambda b, c: _scale(b, c, [_ss_mid(b, c)], "u2", 0.0, 3.01),
    "boxes: F_th": lambda b, c: _scale(b, c, [_ds_mid(b, c)], "F_th", 0.0, 40.5),
    "governor": lambda b, c: _scale(
        b, c, [_ss_mid(b, c)], "Gamma", 0.0,
        float(b[_ss_mid(b, c)][c["V"]]) - 1e-6),
    # every post-impact velocity up by 20 %: feet stay at rest, energy rises
    "kinetic energy rose": lambda b, c: [
        _scale(b, c, _indices(b, c, "IMPACT"), n, 1.2)
        for n in ("dq1", "dq2", "dq3", "dph_x", "dph_y")],
    "foot moves": lambda b, c: _scale(b, c, _indices(b, c, "IMPACT"), "dph_x",
                                      1.0, 0.01),
    # the whole DS block slides 1 mm, growing row by row
    "ds contact": lambda b, c: [
        _scale(b, c, [i], "ph_x", 1.0, 1e-5 * k)
        for k, i in enumerate(_indices(b, c, "DS"))],
    "ds braking": lambda b, c: _scale(b, c, [_indices(b, c, "DS")[-1]], "dq3",
                                      0.0, -0.5 + 2.0),
    "not completed": lambda b, c: b.__delitem__(
        slice(_indices(b, c, "IMPACT")[0], None)),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_corrupted_walk_is_rejected(walk_dir, tmp_path, name):
    bad = str(tmp_path / "bad")
    _rewrite(walk_dir, bad, CORRUPTIONS[name])
    res = checks.check_run_dir(bad, 1)
    assert res.failed == 1
    assert any(name in f for f in res.failures), res.failures


def test_flagged_fallback_is_a_failure(walk_dir, tmp_path):
    bad = str(tmp_path / "bad")
    shutil.copytree(walk_dir, bad)
    path = os.path.join(bad, "steps.csv")
    with open(path, newline="", encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    table[0]["nmpc_fallbacks"] = "1"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.DictWriter(fh, fieldnames=list(table[0]))
        w.writeheader()
        w.writerows(table)
    res = checks.check_run_dir(bad, 1)
    assert res.failed == 1 and any("fallback" in f for f in res.failures)


def test_ds_replay_reproduces_the_logged_phase(tb, walk_dir, tmp_path):
    workload, _ = run.make_workload(tb, "walk_default", 1, str(tmp_path))
    assert workload._check_and_replay(walk_dir, 1, "walk").failures == []
    timer = workload.timer
    assert list(timer.phase_s) == [("walk", 0)]
    # every replay times the same 20 calls once more
    assert len(timer.call_ms) == 20
    assert all(len(v) == run.REPLAYS for v in timer.call_ms.values())
    bad = str(tmp_path / "bad")
    _rewrite(walk_dir, bad, lambda b, c: _scale(
        b, c, [_indices(b, c, "DS")[-1]], "dq3", 1.0, 1e-6))
    res = workload._check_and_replay(bad, 1, "walk")
    assert any("replay differs" in f for f in res.failures)


def test_splits_cover_the_command_between_gauge_readings(monkeypatch):
    def reading(repeats=3):  # 10 ms at nominal speed, so every factor is 1
        time.sleep(0.01)
        return run.reference.NOMINAL_S

    monkeypatch.setattr(run.reference, "seconds", reading)
    module = types.SimpleNamespace(step=lambda i: i + 1)
    original = module.step
    splits = run.Splits(module, "step")
    gauge = run.reference.Gauge()
    for _ in range(2):
        gauge.start()
        t0 = perf_counter()
        with splits.timing(gauge):
            for i in range(250):
                module.step(i)
        wall = perf_counter() - t0
        # three readings after splits, none of them inside one
        assert 0.0 < splits.scaled_s < wall - 0.03
    assert module.step is original
    assert len(splits.rounds) == 2
    assert len(splits.rounds[0]) == 250 // run.SPLIT_EVERY + 1
    assert len(gauge.refs) == 2 * (len(splits.rounds[0]) + 1)
    assert 0.0 < splits.total()
    assert not splits.mismatch
    gauge.start()
    with splits.timing(gauge):
        for i in range(100):
            module.step(i)
    assert splits.mismatch


def test_gauge_scales_by_the_reference_work(monkeypatch):
    refs = iter([2.0, 4.0, 1.0])
    monkeypatch.setattr(run.reference, "seconds", lambda repeats=3: next(refs))
    gauge = run.reference.Gauge()
    gauge.start()
    assert gauge.factor() == pytest.approx(run.reference.NOMINAL_S / 3.0)
    assert gauge.factor() == pytest.approx(run.reference.NOMINAL_S / 2.5)
    assert gauge.refs == [2.0, 4.0, 1.0]


def test_sweep_order():
    assert checks.check_sweep([(3.0, 0.002), (1.4, 0.02), (1.2, 0.03)]) == []
    assert checks.check_sweep([(3.0, 0.002), (1.4, 0.03), (1.2, 0.02)])


@pytest.fixture(scope="module")
def ds(tb, tmp_path_factory):
    workload, _ = run.make_workload(tb, "ds_recovery", 3,
                                    str(tmp_path_factory.mktemp("ds")))
    workload.gauge.start()
    q_p, dq_p, trace, _ = workload._phase(0)
    return workload, workload.inputs[0], q_p, dq_p, trace


def test_genuine_ds_phase_passes(ds):
    workload, x, q_p, dq_p, trace = ds
    assert workload._check(x, q_p, dq_p, trace) == []


def test_corrupted_ds_phase_is_rejected(ds):
    workload, x, q_p, dq_p, trace = ds
    lam = trace.lam.copy()
    lam[:, 1] *= 1.01
    msgs = workload._check(x, q_p, dq_p, trace._replace(lam=lam))
    assert any("newton" in m for m in msgs)
    statuses = list(trace.statuses)
    statuses[3] = (3, "infeasible", 0, float("nan"))
    msgs = workload._check(x, q_p, dq_p, trace._replace(statuses=statuses))
    assert any("fallback" in m for m in msgs)
    dq_bad = dq_p.copy()
    dq_bad[3] += 0.01
    assert any("foot moves" in m for m in workload._check(x, q_p, dq_bad, trace))


def test_tracer_sees_calls_through_imported_names(tb, ds):
    workload = ds[0]
    ss0 = tb.gait.nominal_start_state(workload.cfg.gait.to_gait())
    z = np.concatenate([ss0, ss0[4:6]])
    ctrl = tb.erg.SsController(workload.cfg.gait.to_gait(), workload.params)
    original = tb.erg.ss_dynamics
    with Tracer() as tracer:
        assert tb.erg.ss_dynamics is not original
        ctrl.field(0.0, z)
    assert tb.erg.ss_dynamics is original
    stats, _ = tracer.merged()
    assert len(stats["erg.SsController.field"].durations) == 1
    assert len(stats["dynamics.ss_dynamics"].durations) == 1
    assert len(stats["gait.output_data"].durations) == 1
    assert stats["erg.SsController.field"].self_s > 0.0


def test_traced_ds_round_covers_simulate_ds(ds):
    workload = ds[0]
    workload.tracer = tracer = Tracer(run._hooks())
    try:
        result = workload.round()
    finally:
        workload.tracer = None
    stats, counters = tracer.merged()
    assert result.failed == 0
    assert len(stats["nmpc.simulate_ds"].durations) == run.DS_INPUTS
    assert counters["ds_substeps"] > 0 and counters["ds_rhs_outside"] > 0
