import numpy as np
import pytest

import oracles
from thrusterbiped import nmpc
from thrusterbiped.dynamics import contact_kinematics, ds_dynamics
from thrusterbiped.errors import SingularContactError
from thrusterbiped.gait import nominal_start_state
from thrusterbiped.nmpc import (
    NmpcController,
    NmpcProblem,
    ds_affine_maps,
    ds_field,
    ds_rhs,
    linearize_ds,
    reference_trajectory,
    simulate_ds,
    solve_nmpc,
)
from thrusterbiped.qp import INFEASIBLE, OPTIMAL


def ds_state(params, q1, q3, dq3=0.0):
    """Double-stance state with both feet exactly on the ground.

    Mirrored legs (q2 = -2 q1) put the second foot at ground height for any
    stance angle; the torso angle and rate are free because the feet do not
    see them.
    """
    l = params.l
    q = np.array([q1, -2.0 * q1, q3, -l * np.sin(q1), l * np.cos(q1)])
    dq = np.array([0.0, 0.0, dq3, 0.0, 0.0])
    return np.concatenate([q, dq])


def test_ds_state_helper_grounds_both_feet(params):
    x = ds_state(params, 0.13, 0.4, -1.0)
    ck = contact_kinematics(x[:5], x[5:], params)
    assert abs(ck.p1[1]) < 1e-12
    assert abs(ck.p2[1]) < 1e-12
    assert np.max(np.abs(ck.J @ x[5:])) < 1e-12


def test_static_balance_with_vertical_torso(params):
    # abs torso angle q1 + q2 + q3 = 0: gravity exerts no torso moment, so
    # the posture is an equilibrium of the pinned triangle at zero input
    x = ds_state(params, 0.1, 0.1)
    forces = ds_rhs(x, np.zeros(3), params)
    assert np.max(np.abs(forces.ddq)) < 1e-8
    weight = (params.m_T + params.m_h + 2.0 * params.m_k) * params.g
    assert abs(forces.lam[1] + forces.lam[3] - weight) < 1e-8
    assert abs(forces.lam[0] + forces.lam[2]) < 1e-8
    assert forces.lam[1] > 0.0 and forces.lam[3] > 0.0


def test_ds_rhs_matches_nullspace_oracle(rng, params):
    for _ in range(200):
        x = ds_state(params, rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5),
                     rng.uniform(-3.0, 3.0))
        eta = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3),
                        rng.uniform(0, 10)])
        forces = ds_rhs(x, eta, params)
        ddq_ref, lam_ref = oracles.ds_nullspace_accel(x[:5], x[5:], eta, params)
        scale = 1.0 + np.max(np.abs(ddq_ref))
        assert np.max(np.abs(forces.ddq - ddq_ref)) < 1e-8 * scale
        assert np.max(np.abs(forces.lam - lam_ref)) < 1e-8 * (1 + np.max(np.abs(lam_ref)))


@pytest.mark.parametrize("q2", [0.0, 1e-13])
def test_ds_rhs_rejects_collinear_legs(params, q2):
    # the leg-block determinant -l^2 sin q2 is 0 or ~ -4e-14, at or below
    # the 1e-12 bound
    x = np.zeros(10)
    x[:5] = [0.2, q2, 0.1, -params.l * np.sin(0.2), params.l * np.cos(0.2)]
    with pytest.raises(SingularContactError):
        ds_rhs(x, np.zeros(3), params)
    with pytest.raises(SingularContactError):
        ds_affine_maps(x, params)


def test_ds_states_stay_clear_of_the_collinear_guard(rng, params):
    for _ in range(2000):
        x = ds_state(params, rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5),
                     rng.uniform(-3.0, 3.0))
        ds_rhs(x, rng.uniform(-3.0, 3.0, 3), params)


def test_ds_rhs_keeps_the_feet_pinned(rng, params):
    for _ in range(100):
        x = ds_state(params, rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5),
                     rng.uniform(-3.0, 3.0))
        eta = rng.uniform(-2.0, 2.0, 3)
        eta[2] = abs(eta[2])
        forces = ds_rhs(x, eta, params)
        ck = contact_kinematics(x[:5], x[5:], params)
        drift = ck.J @ forces.ddq + ck.jdot_qdot + params.d * (ck.J @ x[5:])
        assert np.max(np.abs(drift)) < 1e-8


def test_input_to_force_map_is_exact(rng, params):
    x = ds_state(params, 0.12, 0.3, -2.0)
    ddq0, G_ddq, lam0, G_lam = ds_affine_maps(x, params)
    for _ in range(20):
        eta = rng.uniform(-5.0, 5.0, 3)
        forces = ds_rhs(x, eta, params)
        assert np.max(np.abs(forces.ddq - (ddq0 + G_ddq @ eta))) < 1e-9
        assert np.max(np.abs(forces.lam - (lam0 + G_lam @ eta))) < 1e-9


def test_linearization_exact_on_a_linear_system(rng):
    M = rng.standard_normal((4, 4))
    N = rng.standard_normal((4, 2))
    k = rng.standard_normal(4)
    f = lambda x, eta: M @ x + N @ eta + k
    x = rng.standard_normal(4)
    eta = rng.standard_normal(2)
    T_s = 0.01
    A, B, c = oracles.linearize_discretize(f, x, eta, T_s, N)
    assert np.max(np.abs(A - (np.eye(4) + T_s * M))) < 1e-8
    assert np.max(np.abs(B - T_s * N)) < 1e-8
    assert np.max(np.abs(c - T_s * k)) < 1e-8


def test_linearization_collapses_at_zero_step(params):
    x = ds_state(params, 0.1, 0.2, -1.0)
    A, B, c, *_ = linearize_ds(x, np.zeros(3), 1e-9, params)
    assert np.max(np.abs(A - np.eye(10))) < 1e-6
    assert np.max(np.abs(B)) < 1e-6


def test_prediction_error_is_second_order_in_the_step(params):
    x = ds_state(params, 0.1, 0.35, -2.0)
    eta = np.array([0.5, -0.5, 2.0])

    def truth(T):
        xx = x.copy()
        n = 64
        h = T / n
        for _ in range(n):
            k1 = ds_field(xx, eta, params)
            k2 = ds_field(xx + 0.5 * h * k1, eta, params)
            k3 = ds_field(xx + 0.5 * h * k2, eta, params)
            k4 = ds_field(xx + h * k3, eta, params)
            xx = xx + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return xx

    errs = []
    for T in (2e-3, 1e-3):
        A, B, c, *_ = linearize_ds(x, eta, T, params)
        errs.append(np.linalg.norm(A @ x + B @ eta + c - truth(T)))
    ratio = errs[0] / errs[1]
    assert 3.5 < ratio < 4.5


def test_linearization_matches_the_two_sweep_reference(rng, params):
    # one sweep fills the dynamics and force Jacobians with the same floats
    # that two separate sweeps produce
    for _ in range(50):
        x = ds_state(params, rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5),
                     rng.uniform(-3.0, 3.0))
        eta = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3),
                        rng.uniform(0, 40)])
        got = linearize_ds(x, eta, 1e-3, params)
        ref = oracles.linearize_ds_two_sweeps(x, eta, 1e-3, params)
        for name, a, b in zip(got._fields, got, ref):
            assert np.array_equal(a, b), name


def test_reference_line_endpoints_and_midpoint():
    a = np.arange(10.0)
    b = a + 3.0
    r = reference_trajectory(a, b, 3)
    assert np.array_equal(r[0], a)
    assert np.array_equal(r[-1], b)
    assert np.allclose(r[1], 0.5 * (a + b), atol=1e-15)
    with pytest.raises(ValueError):
        reference_trajectory(a, b, 1)


def test_problem_validation():
    ok = dict(n_int=2, T_s=1e-3, r_d=np.zeros((3, 10)), w_x=np.ones(10),
              w_eta=np.ones(3), eta_lo=-np.ones(3), eta_hi=np.ones(3),
              x_lo=-np.ones(10), x_hi=np.ones(10))
    NmpcProblem(**ok)
    with pytest.raises(ValueError):
        NmpcProblem(**{**ok, "r_d": np.zeros((4, 10))})
    with pytest.raises(ValueError):
        NmpcProblem(**{**ok, "w_eta": np.array([1.0, 0.0, 1.0])})
    with pytest.raises(ValueError):
        NmpcProblem(**{**ok, "n_int": 0})


def free_rollout(x1, K, T_s, params):
    A, B, c, *_ = linearize_ds(x1, np.zeros(3), T_s, params)
    r = np.empty((K + 1, 10))
    r[0] = x1
    for k in range(K):
        r[k + 1] = A @ r[k] + c
    return r


def test_zero_input_is_optimal_for_the_free_rollout(params):
    x1 = ds_state(params, 0.1, 0.1)
    K = 5
    prob = NmpcProblem(
        n_int=K, T_s=1e-3, r_d=free_rollout(x1, K, 1e-3, params),
        w_x=np.array([0, 10, 10, 0, 0, 1, 1, 10, 1, 1], dtype=float),
        w_eta=np.array([1e-3, 1e-3, 1e-4]),
        eta_lo=np.array([-3.0, -3.0, 0.0]), eta_hi=np.array([3.0, 3.0, 40.0]),
        x_lo=np.full(10, -50.0), x_hi=np.full(10, 50.0))
    sol = solve_nmpc(prob, x1, params)
    assert sol.status == OPTIMAL
    assert np.max(np.abs(sol.eta_seq)) < 1e-9
    assert sol.objective < 1e-12


def small_problem(x1, K, **edits):
    target = x1.copy()
    target[7] = -0.2
    fields = dict(
        n_int=K, T_s=1e-3, r_d=reference_trajectory(x1, target, K + 1),
        w_x=np.ones(10), w_eta=np.array([1e-3, 1e-3, 1e-4]),
        eta_lo=np.array([-3.0, -3.0, 0.0]), eta_hi=np.array([3.0, 3.0, 40.0]),
        x_lo=np.full(10, -50.0), x_hi=np.full(10, 50.0))
    fields.update(edits)
    return NmpcProblem(**fields)


def test_one_solve_makes_one_linearization(params, monkeypatch):
    # one multi-RHS input-map solve, one at the base point, and two per
    # state perturbation
    calls = []
    real = nmpc.contact_solve

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(nmpc, "contact_solve", counting)
    x1 = ds_state(params, 0.1, 0.1, -1.0)
    assert solve_nmpc(small_problem(x1, 5), x1, params).status == OPTIMAL
    assert len(calls) == 22


def test_unreachable_normal_force_falls_back_to_zero_input(params):
    x1 = ds_state(params, 0.1, 0.1, -1.0)
    K = 5
    sol = solve_nmpc(small_problem(x1, K, eps_normal=1e4), x1, params)
    assert sol.status == INFEASIBLE
    assert sol.qp_iterations > 0
    assert np.array_equal(sol.eta_seq, np.zeros((K, 3)))
    assert sol.lambda_pred.shape == (K, 4)
    assert np.isnan(sol.objective)


def test_violated_input_free_row_falls_back_without_a_qp(params):
    # node-1 positions do not depend on the inputs under forward Euler, so a
    # lower bound above them is a dead row that no input can satisfy
    x1 = ds_state(params, 0.1, 0.1, -1.0)
    K = 5
    x_lo = np.full(10, -50.0)
    x_lo[3] = x1[3] + 0.5
    sol = solve_nmpc(small_problem(x1, K, x_lo=x_lo), x1, params)
    assert sol.status == INFEASIBLE
    assert sol.qp_iterations == 0
    assert np.array_equal(sol.eta_seq, np.zeros((K, 3)))
    assert sol.lambda_pred.shape == (K, 4)
    assert np.isnan(sol.objective)


def test_controller_applies_zero_input_after_a_failed_solve(params):
    x0 = ds_state(params, 0.1, 0.1, -1.0)
    target = x0.copy()
    target[7] = -0.2
    ctrl = NmpcController(params, n_int=5, eps_normal=1e4)
    ctrl.reset(x0, target)
    assert np.array_equal(ctrl(0, x0), np.zeros(3))
    assert ctrl.status_log[0][:2] == (0, INFEASIBLE)
    assert ctrl._prev is None

    # a failed solve also drops the kept solution of an earlier good one
    ctrl.eps_normal = 0.1
    ctrl(1, x0)
    assert ctrl.status_log[1][1] == OPTIMAL
    assert ctrl._prev is not None
    ctrl.eps_normal = 1e4
    assert np.array_equal(ctrl(2, x0), np.zeros(3))
    assert ctrl.status_log[2][:2] == (2, INFEASIBLE)
    assert ctrl._prev is None


def test_solution_respects_all_declared_constraints(params):
    x1 = ds_state(params, 0.1, 0.1, -2.5)
    target = x1.copy()
    target[7] = -0.5
    K = 10
    T_s = 1e-3
    prob = NmpcProblem(
        n_int=K, T_s=T_s, r_d=reference_trajectory(x1, target, K + 1),
        w_x=np.array([0, 10, 10, 0, 0, 1, 1, 10, 1, 1], dtype=float),
        w_eta=np.array([1e-3, 1e-3, 1e-4]),
        eta_lo=np.array([-3.0, -3.0, 0.0]), eta_hi=np.array([3.0, 3.0, 40.0]),
        x_lo=np.array([-1.2, -1.2, -1.2, x1[3] - 1, x1[4] - 1,
                       -10, -10, -10, -10, -10]),
        x_hi=np.array([1.2, 1.2, 1.2, x1[3] + 1, x1[4] + 1,
                       10, 10, 10, 10, 10]))
    sol = solve_nmpc(prob, x1, params)
    assert sol.status == OPTIMAL

    assert np.all(sol.eta_seq >= prob.eta_lo - 1e-8)
    assert np.all(sol.eta_seq <= prob.eta_hi + 1e-8)
    for k in range(1, K + 1):
        assert np.all(sol.x_pred[k] >= prob.x_lo - 1e-6)
        assert np.all(sol.x_pred[k] <= prob.x_hi + 1e-6)
    for k in range(K):
        lT1, lN1, lT2, lN2 = sol.lambda_pred[k]
        assert abs(lT1) <= prob.mu_s * lN1 + 1e-6
        assert abs(lT2) <= prob.mu_s * lN2 + 1e-6
        assert lN1 >= prob.eps_normal - 1e-6
        assert lN2 >= prob.eps_normal - 1e-6

    # predictions and the condensed model must agree step by step
    A, B, c, *_ = linearize_ds(x1, np.zeros(3), T_s, params)
    for k in range(K):
        x_next = A @ sol.x_pred[k] + B @ sol.eta_seq[k] + c
        assert np.max(np.abs(sol.x_pred[k + 1] - x_next)) < 1e-9

    # cone-limited braking still has to make real progress on the torso rate
    assert abs(sol.x_pred[-1][7] - target[7]) < 0.9 * abs(x1[7] - target[7])


def test_qp_matches_a_dense_grid_over_thrust(params):
    # torques carry a prohibitive move cost, so the program is effectively a
    # thrust-only problem that a dense grid can certify
    x1 = ds_state(params, 0.1, 0.2, -0.5)
    K = 3
    T_s = 1e-3
    target = x1.copy()
    target[7] = 0.0
    w_x = np.array([0, 10, 10, 0, 0, 1, 1, 10, 1, 1], dtype=float)
    w_eta = np.array([1e9, 1e9, 1e-4])
    f_hi = 20.0
    r_d = reference_trajectory(x1, target, K + 1)
    prob = NmpcProblem(
        n_int=K, T_s=T_s, r_d=r_d, w_x=w_x, w_eta=w_eta,
        eta_lo=np.array([-3.0, -3.0, 0.0]), eta_hi=np.array([3.0, 3.0, f_hi]),
        x_lo=np.full(10, -50.0), x_hi=np.full(10, 50.0))
    sol = solve_nmpc(prob, x1, params)
    assert sol.status == OPTIMAL

    coarse = np.linspace(0.0, f_hi, 51)
    best, argmin, spread = oracles.thrust_grid_best(
        x1, r_d, w_x, w_eta[2], (coarse, coarse, coarse), T_s, params,
        prob.mu_s, prob.eps_normal)
    assert np.isfinite(best)
    assert spread > 1e-9  # the grid actually discriminates

    # refine once around the coarse argmin so the certified gap is tight
    step = coarse[1] - coarse[0]
    fine = tuple(
        np.clip(np.linspace(f - step, f + step, 41), 0.0, f_hi)
        for f in argmin)
    best2, _, _ = oracles.thrust_grid_best(
        x1, r_d, w_x, w_eta[2], fine, T_s, params, prob.mu_s, prob.eps_normal)
    best = min(best, best2)

    # the QP may only do better, and no more than the grid resolution allows
    assert sol.objective <= best + 1e-9
    assert sol.objective >= best - 1e-4


def test_qp_matches_a_dense_grid_over_torque_and_thrust(params):
    # mild braking demand keeps the friction cone slack at the optimum, so
    # the torque channel has an interior minimizer a grid can bracket
    x1 = ds_state(params, 0.1, 0.1, -0.8)
    T_s = 1e-3
    target = x1.copy()
    target[7] = -0.5
    w_x = np.array([0, 10, 10, 0, 0, 1, 1, 10, 1, 1], dtype=float)
    w_u3, w_f = 1e-3, 1e-4
    r_d = reference_trajectory(x1, target, 3)
    prob = NmpcProblem(
        n_int=2, T_s=T_s, r_d=r_d, w_x=w_x,
        w_eta=np.array([1e9, w_u3, w_f]),
        eta_lo=np.array([-3.0, -3.0, 0.0]), eta_hi=np.array([3.0, 3.0, 20.0]),
        x_lo=np.full(10, -50.0), x_hi=np.full(10, 50.0))
    sol = solve_nmpc(prob, x1, params)
    assert sol.status == OPTIMAL
    lam_n = sol.lambda_pred[:, [1, 3]]
    assert np.min(lam_n) > prob.eps_normal + 1e-3  # cone genuinely inactive

    u3g = np.linspace(-3.0, 3.0, 31)
    fg = np.linspace(0.0, 20.0, 21)
    best, argmin, spread = oracles.torque_thrust_grid_best(
        x1, r_d, w_x, w_u3, w_f, u3g, fg, T_s, params,
        prob.mu_s, prob.eps_normal)
    assert np.isfinite(best)
    assert spread > 1e-3
    du, df = u3g[1] - u3g[0], fg[1] - fg[0]
    for _ in range(3):
        (u_a, f_a), (u_b, f_b) = argmin
        u3g = np.clip(np.linspace(min(u_a, u_b) - du, max(u_a, u_b) + du, 41),
                      -3.0, 3.0)
        fg = np.clip(np.linspace(min(f_a, f_b) - df, max(f_a, f_b) + df, 41),
                     0.0, 20.0)
        best, argmin, _ = oracles.torque_thrust_grid_best(
            x1, r_d, w_x, w_u3, w_f, u3g, fg, T_s, params,
            prob.mu_s, prob.eps_normal)
        du, df = u3g[1] - u3g[0], fg[1] - fg[0]

    # grid points are feasible for the QP, so the grid can only lose; with an
    # interior optimum the loss shrinks with resolution
    assert best >= sol.objective - 1e-9
    assert best - sol.objective < 1e-4


def test_controller_shrinks_the_horizon_and_logs(params):
    x0 = ds_state(params, 0.1, 0.1, -1.0)
    ctrl = NmpcController(params, n_int=5)
    with pytest.raises(RuntimeError):
        ctrl(0, x0)
    target = x0.copy()
    target[7] = -0.2
    ctrl.reset(x0, target)
    for j in range(5):
        eta = ctrl(j, x0)
        assert eta.shape == (3,)
    assert len(ctrl.status_log) == 5
    assert all(entry[1] == OPTIMAL for entry in ctrl.status_log)
    assert np.array_equal(ctrl(5, x0), np.zeros(3))
    assert len(ctrl.status_log) == 5


def test_zero_input_simulation_keeps_contact(params):
    x0 = ds_state(params, 0.1, 0.1, -1.0)
    ck0 = contact_kinematics(x0[:5], x0[5:], params)
    trace, x_df = simulate_ds(x0, lambda j, x: np.zeros(3), 0.02, 1e-4, params)
    assert trace.t.shape[0] == trace.x.shape[0] == 201
    assert trace.lam.shape[0] == trace.eta.shape[0] == 201
    assert not trace.contact_violation
    ck = contact_kinematics(x_df[:5], x_df[5:], params)
    assert np.max(np.abs(np.concatenate([ck.p1 - ck0.p1, ck.p2 - ck0.p2]))) < 1e-6
    assert np.array_equal(trace.x[-1], x_df)


def test_zero_envelope_returns_the_initial_state(params):
    x0 = ds_state(params, 0.12, 0.2, -0.7)
    trace, x_df = simulate_ds(x0, lambda j, x: np.zeros(3), 0.0, 1e-4, params)
    assert np.array_equal(x_df, x0)
    assert trace.t.shape == (1,)
    assert trace.lam.shape == (1, 4)


def test_predictive_braking_reaches_the_torso_rate_target(params, gait):
    x0 = ds_state(params, 0.08, 0.08, -1.2)
    target = x0.copy()
    target[2] += 0.5 * 0.02 * (x0[7] + -0.5)
    target[7] = -0.5
    ctrl = NmpcController(params, u_max=gait.u_max, f_th_max=params.f_th_max,
                          w_x=np.array([0, 10, 10, 0, 0, 1, 1, 10, 1, 1],
                                       dtype=float))
    ctrl.reset(x0, target)
    trace, x_df = simulate_ds(x0, ctrl, 0.02, 1e-4, params)
    assert all(entry[1] == OPTIMAL for entry in trace.statuses)
    assert not trace.contact_violation
    gap0 = abs(x0[7] - target[7])
    assert abs(x_df[7] - target[7]) < 0.3 * gap0
    assert np.all(trace.eta[:, 2] >= -1e-12)
    assert np.all(trace.eta[:, 2] <= params.f_th_max + 1e-9)
    assert np.max(np.abs(trace.eta[:, :2])) <= np.max(gait.u_max) + 1e-9
    # friction stays honest along the way
    ratios = np.abs(trace.lam[:, [0, 2]]) / np.maximum(trace.lam[:, [1, 3]], 1e-9)
    assert np.max(ratios) <= 0.3 + 1e-6


def test_fast_torso_spin_flags_a_contact_violation(params, gait):
    # from the designed start posture with both feet down, a fast torso
    # swing under zero input lifts a foot; the trace keeps running and flags it
    x_s = nominal_start_state(gait)
    for rate, violated in ((5.0, False), (10.0, True)):
        x0 = ds_state(params, x_s[0], x_s[2], rate)
        assert x0[1] == x_s[1]
        trace, _ = simulate_ds(x0, lambda j, x: np.zeros(3), 0.02, 2.5e-4, params)
        assert trace.t.shape == (81,)
        assert trace.contact_violation is violated
        assert bool(np.min(trace.lam[:, [1, 3]]) < 0.0) is violated
