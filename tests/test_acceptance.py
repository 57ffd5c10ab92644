"""End-to-end acceptance suite: one test per shipped claim.

The heavy scenario runs are module-scoped fixtures shared across criteria.
Expected values that are not identities come from the oracle helpers next to
the unit tests, never from the implementation under test.
"""

import dataclasses
import time

import numpy as np
import pytest

import oracles
from conftest import pinned_vector_field
from test_events import impact_state
from thrusterbiped.config import default_scenario
from thrusterbiped.dynamics import contact_kinematics, energies, ext_dynamics, ss_dynamics
from thrusterbiped.erg import GAMMA_CAP, constraint_data, gamma_bound
from thrusterbiped.events import impact_map
from thrusterbiped.gait import GaitDesignSpec, design_gait, output_data
from thrusterbiped.harness import (
    TRACE_COLUMNS,
    max_tracking_error,
    run_walk,
    step_metrics,
    write_logs,
)
from thrusterbiped.integrate import integrate_rk4
from thrusterbiped.nmpc import NmpcProblem, reference_trajectory, solve_nmpc
from thrusterbiped.params import ModelParams

DS_ENVELOPE = 0.02
U_MAX_LEVELS = (("generous", 3.0), ("moderate", 1.4), ("conservative", 1.2))


@pytest.fixture(scope="module")
def timed_default_run():
    cfg = default_scenario()
    t0 = time.perf_counter()
    log = run_walk(cfg)
    return log, time.perf_counter() - t0, cfg


@pytest.fixture(scope="module")
def default_run(timed_default_run):
    return timed_default_run[0]


@pytest.fixture(scope="module")
def ablation_run():
    cfg = default_scenario()
    cfg = dataclasses.replace(
        cfg, nmpc=dataclasses.replace(cfg.nmpc, thrust_enabled=False))
    return run_walk(cfg)


@pytest.fixture(scope="module")
def sweep_runs(default_run):
    runs = {"generous": default_run}  # the default caps are the generous level
    for name, level in U_MAX_LEVELS[1:]:
        cfg = default_scenario()
        cfg = dataclasses.replace(
            cfg, gait=dataclasses.replace(cfg.gait, u_max=[level, level]))
        runs[name] = run_walk(cfg)
    return runs


@pytest.fixture(scope="module")
def suite_runs(default_run, ablation_run, sweep_runs):
    return {
        "default": default_run,
        "no_thrust": ablation_run,
        "u_max_moderate": sweep_runs["moderate"],
        "u_max_conservative": sweep_runs["conservative"],
    }


def ds_blocks(log):
    """Per-step groups of DS rows, each with the preceding impact time."""
    blocks = []
    current = None
    t_imp = None
    for row in log.rows:
        if row[1] == "IMPACT":
            t_imp = row[0]
            current = None
        elif row[1] == "DS":
            if current is None:
                current = []
                blocks.append((t_imp, current))
            current.append(row)
        else:
            current = None
    return blocks


def test_criterion_1_ten_steps_complete_within_the_time_budget(timed_default_run):
    log, wall, cfg = timed_default_run
    assert log.aborted is None
    assert cfg.sim.n_steps == 10
    assert log.completed_steps == 10
    assert cfg.sim.ds_envelope == DS_ENVELOPE
    blocks = ds_blocks(log)
    assert len(blocks) == 10
    for t_imp, rows in blocks:
        assert abs(rows[0][0] - t_imp) < 1e-12
        assert abs((rows[-1][0] - rows[0][0]) - DS_ENVELOPE) < 1e-9
    assert wall < 60.0


def test_criterion_2_contact_forces_stay_inside_the_friction_cone(default_run):
    log = default_run
    n1 = log.column("lamN1", "SS")
    t1 = log.column("lamT1", "SS")
    assert np.min(n1) > 0.0
    assert np.max(np.abs(t1) / n1) <= 0.3 + 1e-6
    for ncol, tcol in (("lamN1", "lamT1"), ("lamN2", "lamT2")):
        n = log.column(ncol, "DS")
        t = log.column(tcol, "DS")
        assert np.min(n) > 0.0
        assert np.max(np.abs(t) / n) <= 0.3 + 1e-6
    assert min(rec.min_lam_n for rec in log.steps) > 0.0
    assert max(rec.max_cone_ratio for rec in log.steps) <= 0.3 + 1e-6


def _peak_normals(log):
    n1 = log.column("lamN1", "DS")
    n2 = log.column("lamN2", "DS")
    return float(np.max(n1 + n2)), float(max(np.max(n1), np.max(n2)))


def _com_height(row, params):
    pts = oracles.mass_points_ext(np.array(row[2:7]), params)
    return sum(m * p[1] for m, p in pts) / sum(m for m, _ in pts)


def _max_inertial_lift(log, params):
    """Largest mass * upward COM acceleration over the DS rows, measured by
    finite differences of the logged trajectory (independent of the forces)."""
    worst = 0.0
    for _, rows in ds_blocks(log):
        t = np.array([r[0] for r in rows])
        z = np.array([_com_height(r, params) for r in rows])
        az = np.gradient(np.gradient(z, t), t)
        # the one-sided stencils at the block edges are first order; drop them
        worst = max(worst, float(np.max(az[2:-2], initial=0.0)))
    return params.total_mass * worst


def test_criterion_3_thrust_raises_the_normal_force_above_static_weight(
        default_run, ablation_run):
    params = ModelParams()
    weight = params.weight
    assert weight == pytest.approx(6.867, abs=1e-3)

    peak_sum_on, peak_single_on = _peak_normals(default_run)
    assert peak_single_on > weight
    assert peak_sum_on > weight

    assert ablation_run.aborted is None
    # the disabled channel is boxed to zero; the solver reports it to its
    # own feasibility tolerance
    assert np.max(np.abs(ablation_run.column("F_th", "DS"))) < 1e-9
    peak_sum_off, _ = _peak_normals(ablation_run)
    lift = _max_inertial_lift(ablation_run, params)
    assert peak_sum_off <= weight + lift + 0.05
    assert peak_sum_on > peak_sum_off


def test_criterion_4_saturation_sweep_respects_caps_and_degrades_monotonically(
        sweep_runs):
    errors = []
    for name, level in U_MAX_LEVELS:
        log = sweep_runs[name]
        assert log.aborted is None, (name, log.aborted)
        assert log.completed_steps == 10
        for col in ("u2", "u3"):
            assert np.max(np.abs(log.column(col, "SS"))) <= level + 1e-6
        for rec in log.steps:
            assert np.all(rec.max_abs_u <= level + 1e-6)
        errors.append(max_tracking_error(log))
    assert errors[0] <= errors[1] <= errors[2]


def test_criterion_5_invariance_residual_shrinks_and_steps_converge(default_run):
    metrics = step_metrics(default_run)
    assert len(metrics) == 10
    for entry in metrics:
        assert entry["residual_ss_start"] <= 0.2 * entry["residual_post_impact"]
    diffs = [entry["start_diff_to_next"] for entry in metrics[:-1]]
    assert all(np.isfinite(d) for d in diffs)
    # non-increasing from step 3 onward, up to the event-location noise
    # floor where consecutive starts agree to ~1e-9 and only jitter remains
    floor = 1e-8
    tail = diffs[2:]
    for a, b in zip(tail, tail[1:]):
        assert b <= max(a * (1.0 + 1e-9), floor)
    assert max(tail) < 1e-5  # and the steps have genuinely converged


def test_the_gait_orbit_is_a_stable_fixed_point_of_the_return_map(default_run):
    # P maps one SS start state (q, dq) to the next: the last DS row of a
    # one-cycle run.  At the 10th start of the default run P(x) = x to ~2e-9,
    # and the central-difference Jacobian of P there has eigenvalues
    # -0.028, -0.0052, 0.0053 +- 0.0002i, 0 and 0 (h = 1e-6): spectral
    # radius 0.028, so the orbit is exponentially stable and nearly deadbeat
    cfg = default_scenario()
    one = dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, n_steps=1))
    cols = [TRACE_COLUMNS.index(c) for c in ("q1", "q2", "q3", "dq1", "dq2", "dq3")]

    def P(x):
        log = run_walk(one, start_state=x)
        assert log.completed_steps == 1, log.aborted
        last = [row for row in log.rows if row[1] == "DS"][-1]
        return np.array([last[c] for c in cols])

    x = default_run.steps[9].start_state
    assert np.max(np.abs(P(x) - x)) < 1e-8
    h = 1e-6
    J = np.empty((6, 6))
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        J[:, j] = (P(x + e) - P(x - e)) / (2.0 * h)
    # with both feet held the legs form a rigid triangle, so every SS start
    # has dq1 = dq2 = 0.0 exactly, whatever the state before
    assert not J[3:5].any()
    assert np.max(np.abs(np.linalg.eigvals(J))) < 1.0


def test_criterion_6a_impact_map_matches_momentum_projection():
    params = ModelParams()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        q_e, dq_e = impact_state(rng, params)
        res = impact_map(q_e, dq_e, params)
        D = ext_dynamics(q_e, dq_e, params).D
        J = contact_kinematics(q_e, dq_e, params).J
        dq_plus, lam = oracles.impact_projection(D, J, dq_e)
        assert np.max(np.abs(res.dq_e_plus - dq_plus)) < 1e-9
        assert np.max(np.abs(res.lambda_imp - lam)) < 1e-9


def test_criterion_6b_mass_matrices_match_energy_hessians():
    params = ModelParams()
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = rng.uniform(-0.5, 0.5, 3)
        D = ss_dynamics(q, np.zeros(3), params).D
        assert np.max(np.abs(D - oracles.mass_matrix_fd(q, params, ext=False))) < 1e-6
    for _ in range(20):
        q_e = np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-1, 1, 2)])
        D = ext_dynamics(q_e, np.zeros(5), params).D
        assert np.max(np.abs(D - oracles.mass_matrix_fd(q_e, params, ext=True))) < 1e-6


def test_criterion_6c_passive_energy_drift_stays_below_tolerance():
    params = ModelParams()
    x0 = np.array([0.12, -0.2, 0.15, 0.3, -0.1, 0.2])

    def field(t, x):
        return pinned_vector_field(x, np.zeros(2), params)

    res = integrate_rk4(field, x0, 0.0, 1.0, 1e-4)
    K0, V0 = energies(x0[:3], x0[3:], params, "pinned")
    E0 = K0 + V0
    worst = 0.0
    for x in res.x[:: len(res.x) // 50]:
        K, V = energies(x[:3], x[3:], params, "pinned")
        worst = max(worst, abs(K + V - E0))
    assert worst / abs(E0) < 1e-6


def test_criterion_6d_predictive_program_matches_a_brute_force_grid():
    # frozen low-dimensional instance: both torque channels carry prohibitive
    # move cost, leaving three boxed thrust decisions a dense grid can search
    params = ModelParams()
    q1 = 0.1
    x1 = np.array([q1, -2 * q1, 0.2,
                   -params.l * np.sin(q1), params.l * np.cos(q1),
                   0.0, 0.0, -0.5, 0.0, 0.0])
    target = x1.copy()
    target[7] = 0.0
    T_s = 1e-3
    f_hi = 20.0
    w_x = np.array([0, 10, 10, 0, 0, 1, 1, 10, 1, 1], dtype=float)
    w_eta = np.array([1e9, 1e9, 1e-4])
    r_d = reference_trajectory(x1, target, 4)
    prob = NmpcProblem(
        n_int=3, T_s=T_s, r_d=r_d, w_x=w_x, w_eta=w_eta,
        eta_lo=np.array([-3.0, -3.0, 0.0]), eta_hi=np.array([3.0, 3.0, f_hi]),
        x_lo=np.full(10, -50.0), x_hi=np.full(10, 50.0))
    sol = solve_nmpc(prob, x1, params)
    assert sol.status == "optimal"

    coarse = np.linspace(0.0, f_hi, 51)
    best, argmin, spread = oracles.thrust_grid_best(
        x1, r_d, w_x, w_eta[2], (coarse, coarse, coarse), T_s, params,
        prob.mu_s, prob.eps_normal)
    assert np.isfinite(best)
    assert spread > 1e-9  # the grid actually discriminates
    step = coarse[1] - coarse[0]
    while step > 1e-3:  # refine around the argmin down to 1e-3 resolution
        grids = tuple(
            np.clip(np.linspace(f - step, f + step, 41), 0.0, f_hi)
            for f in argmin)
        best2, argmin, _ = oracles.thrust_grid_best(
            x1, r_d, w_x, w_eta[2], grids, T_s, params,
            prob.mu_s, prob.eps_normal)
        best = min(best, best2)
        step = step / 20.0

    assert sol.objective <= best + 1e-9
    assert best - sol.objective < 1e-4


def test_criterion_6e_governor_bound_matches_the_distance_oracle():
    params = ModelParams()
    gait = design_gait(GaitDesignSpec(), params)
    rng = np.random.default_rng(7)
    for i in range(50):
        x = np.concatenate([rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.5, 0.5, 3)])
        od = output_data(x, gait, params)
        x_w = np.concatenate([od.h_d, rng.standard_normal(2)])
        k2, k3, limits = constraint_data(od.LgLfh.tolist(), od.Lf2h.tolist(), gait)
        got = gamma_bound(x_w.tolist(), k2, k3, limits, gait)
        C_x, C_w, C_limit, P = oracles.constraint_rows(od.LgLfh, od.Lf2h, gait)
        want = min(oracles.gamma_projection(x_w, C_x, C_w, C_limit, P), GAMMA_CAP)
        assert abs(got - want) < 1e-6
        if i >= 5:
            continue
        # sampled points on every finite constraint plane lie no closer
        for j in range(C_x.shape[0]):
            c = C_x[j]
            if not np.isfinite(C_limit[j]) or np.linalg.norm(c) < 1e-12:
                continue
            b = float(C_w[j] @ x_w + C_limit[j])
            for p in oracles.on_plane_samples(x_w, c, b, rng, 20, 2.0):
                e = p - x_w
                assert float(e @ P @ e) >= got - 1e-6


def test_criterion_7_governor_bound_dominates_lyapunov_in_every_scenario(
        suite_runs):
    for name, log in suite_runs.items():
        V = log.column("V", "SS")
        G = log.column("Gamma", "SS")
        assert V.size > 0, name
        assert float(np.min(G - V)) >= -1e-9, name


def test_criterion_8_default_run_reproduces_the_trace_bit_for_bit(
        default_run, tmp_path_factory):
    cfg = default_scenario()
    log2 = run_walk(cfg)
    dir_a = tmp_path_factory.mktemp("run_a")
    dir_b = tmp_path_factory.mktemp("run_b")
    paths_a = write_logs(default_run, str(dir_a), default_scenario())
    paths_b = write_logs(log2, str(dir_b), cfg)
    with open(paths_a["trace"], "rb") as fh:
        blob_a = fh.read()
    with open(paths_b["trace"], "rb") as fh:
        blob_b = fh.read()
    assert len(blob_a) > 0
    assert blob_a == blob_b
