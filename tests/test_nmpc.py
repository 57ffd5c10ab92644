import numpy as np
import pytest

import oracles
from conftest import contact_arrays, solve_columns
from thrusterbiped import nmpc
from thrusterbiped.dynamics import contact_kinematics
from thrusterbiped.errors import SingularContactError
from thrusterbiped.gait import nominal_start_state
from thrusterbiped.nmpc import (
    N_ETA,
    NmpcController,
    NmpcProblem,
    ds_rhs,
    linearize_ds,
    reference_trajectory,
    simulate_ds,
    solve_nmpc,
)
from thrusterbiped.qp import INFEASIBLE, OPTIMAL, solve_qp


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
    p1, p2, J, _ = contact_arrays(x[:5], x[5:], params)
    assert abs(p1[1]) < 1e-12
    assert abs(p2[1]) < 1e-12
    assert np.max(np.abs(J @ x[5:])) < 1e-12


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


def test_float_paths_match_a_solve_of_the_array_terms(rng, params):
    # the right-hand sides that ds_rhs and ds_affine_maps assemble on floats,
    # against numpy's; every velocity nonzero, so each term of J dq and
    # Jdot qdot counts
    for _ in range(200):
        x = np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-1.0, 1.0, 2),
                            rng.uniform(-3.0, 3.0, 5)])
        x[1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
        eta = rng.uniform(-5.0, 5.0, 3)
        q, dq = x[:5], x[5:]
        D, H, B = oracles.ds_terms(q, dq, params)
        legs = contact_kinematics(q.tolist(), dq.tolist(), params)[2]
        _, _, J, jdot_qdot = contact_arrays(q, dq, params)
        rhs_con = -jdot_qdot - params.d * (J @ dq)
        ddq_cols, lam_cols = solve_columns(
            D.tolist(), legs, np.column_stack([B @ eta - H, -H, B]),
            np.column_stack([rhs_con, rhs_con, np.zeros((4, 3))]))
        forces = ds_rhs(x, eta, params)
        assert np.allclose(forces.ddq, ddq_cols[:, 0], rtol=1e-12, atol=1e-12)
        assert np.allclose(forces.lam, lam_cols[:, 0], rtol=1e-12, atol=1e-12)
        got = oracles.ds_affine_maps(x, params)
        want = (ddq_cols[:, 1], ddq_cols[:, 2:], lam_cols[:, 1], lam_cols[:, 2:])
        for a, b in zip(got, want):
            assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("q2", [0.0, 1e-13])
def test_ds_rhs_rejects_collinear_legs(params, q2):
    # the leg-block determinant -l^2 sin q2 is 0 or ~ -4e-14, at or below
    # the 1e-12 bound
    x = np.zeros(10)
    x[:5] = [0.2, q2, 0.1, -params.l * np.sin(0.2), params.l * np.cos(0.2)]
    with pytest.raises(SingularContactError):
        ds_rhs(x, np.zeros(3), params)
    with pytest.raises(SingularContactError):
        oracles.ds_affine_maps(x, params)
    with pytest.raises(SingularContactError):
        linearize_ds(x, np.zeros(3), 1e-3, params)


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
        _, _, J, jdot_qdot = contact_arrays(x[:5], x[5:], params)
        drift = J @ forces.ddq + jdot_qdot + params.d * (J @ x[5:])
        assert np.max(np.abs(drift)) < 1e-8


def test_input_to_force_map_is_exact(rng, params):
    x = ds_state(params, 0.12, 0.3, -2.0)
    ddq0, G_ddq, lam0, G_lam = oracles.ds_affine_maps(x, params)
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
            k1 = oracles.ds_field(xx, eta, params)
            k2 = oracles.ds_field(xx + 0.5 * h * k1, eta, params)
            k3 = oracles.ds_field(xx + 0.5 * h * k2, eta, params)
            k4 = oracles.ds_field(xx + h * k3, eta, params)
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


def test_hip_position_columns_are_exactly_zero(rng, params):
    # nothing in the pinned model depends on where the hip sits, so the
    # reference, which solves the q4 and q5 columns, finds them exactly zero
    # in A - I and Lx, and `linearize_ds`, which skips them, agrees
    for _ in range(100):
        x = ds_state(params, rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5))
        x[3:5] += rng.uniform(-2.0, 2.0, 2)  # anywhere on a shifted ground
        x[5:] = rng.uniform(-3.0, 3.0, 5)
        eta = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 40)])
        for lin in (linearize_ds(x, eta, 1e-3, params),
                    oracles.linearize_ds_two_sweeps(x, eta, 1e-3, params)):
            A, _, _, _, Lx, _ = lin
            assert np.count_nonzero((A - np.eye(10))[:, 3:5]) == 0
            assert np.count_nonzero(Lx[:, 3:5]) == 0


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


def count_calls(monkeypatch, *names):
    """Count calls of the named nmpc functions, made through the module."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _real=getattr(nmpc, name), _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(nmpc, name, counting)
    return counts


def test_one_solve_makes_one_linearization(params, monkeypatch):
    # one multi-RHS solve at the base point (input maps, base point and the
    # ten velocity perturbations), and two per perturbed q1, q2 and q3: the
    # hip-position columns are not solved, so 7 contact solves
    counts = count_calls(monkeypatch, "contact_solve")
    x1 = ds_state(params, 0.1, 0.1, -1.0)
    assert solve_nmpc(small_problem(x1, 5), x1, params).status == OPTIMAL
    assert counts == {"contact_solve": 7}


def default_ds_phase(cfg):
    """The controller `run_walk` builds from `cfg`, reset for one DS phase
    from a fixed start state; returns the controller and that state."""
    params = cfg.model.to_params()
    gait = cfg.gait.to_gait()
    ctrl = NmpcController(
        params, T_s=cfg.nmpc.T_s, n_int=20, w_x=cfg.nmpc.w_x,
        w_eta=cfg.nmpc.w_eta, u_max=gait.u_max, f_th_max=cfg.model.f_th_max,
        mu_s=cfg.sim.mu_s, eps_normal=cfg.nmpc.eps_normal,
        angle_max=cfg.nmpc.angle_max, rate_max=cfg.nmpc.rate_max,
        hip_box=cfg.nmpc.hip_box, thrust_enabled=cfg.nmpc.thrust_enabled)
    assert (cfg.sim.ds_envelope, cfg.nmpc.T_s, cfg.sim.dt_ds) == (0.02, 1e-3, 1e-4)
    x0 = ds_state(params, 0.08, 0.08, -1.2)
    target = x0.copy()
    target[7] = -0.5
    ctrl.reset(x0, target)
    return ctrl, x0


def test_a_default_ds_phase_makes_a_fixed_number_of_contact_solves(
        default_cfg, monkeypatch):
    # per sample one linearization (7 contact solves), per RK4 substep four
    # stages (the first also gives the logged forces), and the final forces
    # once
    cfg = default_cfg
    ctrl, x0 = default_ds_phase(cfg)
    counts = count_calls(monkeypatch, "contact_solve")
    trace, _ = simulate_ds(x0, ctrl, cfg.sim.ds_envelope, cfg.sim.dt_ds, ctrl.params,
                           T_s=cfg.nmpc.T_s)
    assert [entry[1] for entry in trace.statuses] == [OPTIMAL] * 20
    assert counts == {"contact_solve": 20 * 7 + 200 * 4 + 1}


def test_warm_started_samples_match_cold_solves(default_cfg, monkeypatch):
    # every sample of the phase, re-solved cold from the same state and
    # linearization base, gives the same inputs with fewer QP iterations
    cfg = default_cfg
    ctrl, x0 = default_ds_phase(cfg)
    calls = []

    def recording(prob, x, params, eta_base=None, active=()):
        sol = solve_nmpc(prob, x, params, eta_base=eta_base, active=active)
        calls.append((prob, x.copy(), eta_base, list(active), sol))
        return sol

    monkeypatch.setattr(nmpc, "solve_nmpc", recording)
    simulate_ds(x0, ctrl, cfg.sim.ds_envelope, cfg.sim.dt_ds, ctrl.params,
                T_s=cfg.nmpc.T_s)
    assert len(calls) == 20
    assert calls[0][3] == [] and all(call[3] for call in calls[1:])
    warm_iters = cold_iters = 0
    for prob, x, base, _, warm in calls:
        cold = solve_nmpc(prob, x, ctrl.params, eta_base=base)
        assert warm.status == cold.status == OPTIMAL
        assert np.max(np.abs(warm.eta_seq - cold.eta_seq)) < 1e-10
        warm_iters += warm.qp_iterations
        cold_iters += cold.qp_iterations
    assert warm_iters < cold_iters


def test_row_labels_name_every_row_once():
    for K in (1, 5, 20):
        n_rows = 2 * N_ETA * K + 2 * 10 * K + 6 * K
        labels = [nmpc._row_label(row, K) for row in range(n_rows)]
        assert len(set(labels)) == n_rows
        assert [nmpc._label_row(label, K) for label in labels] == list(range(n_rows))
        assert {label[0] for label in labels} == {"box", "state", "cone"}
        nodes = {block: sorted({node for b, node, _ in labels if b == block})
                 for block in ("box", "state", "cone")}
        assert nodes == {"box": list(range(K)), "state": list(range(1, K + 1)),
                         "cone": list(range(K))}
        for label in (("state", 0, 0), ("box", K, 0), ("cone", -1, 0),
                      ("cone", 0, 6), ("box", 0, -1), ("thrust", 0, 0)):
            assert nmpc._label_row(label, K) is None


def test_inputs_reach_only_the_torso_rows(rng, params):
    # with both feet pinned the inputs move only the torso: B is zero outside
    # ddq3 (row 7), and every A^i B over the horizon is zero outside q3 and
    # dq3 (rows 2 and 7), exactly
    others = np.ones(10, dtype=bool)
    others[[2, 7]] = False
    for _ in range(50):
        x = ds_state(params, rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5),
                     rng.uniform(-3.0, 3.0))
        x[3] += rng.uniform(-2.0, 2.0)  # anywhere along the ground
        eta = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(0, 40)])
        A, B, *_ = linearize_ds(x, eta, 1e-3, params)
        assert np.count_nonzero(B[:7]) == np.count_nonzero(B[8:]) == 0
        Phi = B
        for i in range(20):
            assert np.count_nonzero(Phi[others]) == 0, i
            assert Phi[7].any() and (i == 0 or Phi[2].any()), i
            Phi = A @ Phi


@pytest.mark.parametrize("name, index", [("q_e", 3), ("dq_e", 8)])
def test_float_paths_reject_non_finite_states(params, name, index):
    for bad in (np.nan, np.inf):
        x = ds_state(params, 0.1, 0.1, -1.0)
        x[index] = bad
        for call in (lambda: ds_rhs(x, np.zeros(3), params),
                     lambda: oracles.ds_affine_maps(x, params),
                     lambda: linearize_ds(x, np.zeros(3), 1e-3, params)):
            with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
                call()


def assert_same_solution(got, ref):
    """Equal status and QP iterations; arrays within 1e-9 relative."""
    assert (got.status, got.qp_iterations) == (ref.status, ref.qp_iterations)
    for name in ("eta_seq", "x_pred", "lambda_pred"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape, name
        err = np.max(np.abs(a - b), initial=0.0)
        assert err <= 1e-9 * np.max(np.abs(b), initial=0.0), name
    if np.isnan(ref.objective):
        assert np.isnan(got.objective)
    else:
        assert abs(got.objective - ref.objective) <= 1e-9 * abs(ref.objective)


def controller_problem(rng, params, K):
    """A random DS state and a horizon with the controller's weights and
    boxes, so rate and angle rows can bind."""
    x1 = ds_state(params, rng.uniform(-0.3, 0.3), rng.uniform(-0.5, 0.5),
                  rng.uniform(-3.0, 3.0))
    target = x1.copy()
    target[7] = rng.uniform(-1.5, 0.5)
    hip = x1[3:5]
    prob = small_problem(
        x1, K, r_d=reference_trajectory(x1, target, K + 1),
        w_x=np.array([0, 10, 10, 0, 0, 1, 1, 10, 1, 1], dtype=float),
        x_lo=np.concatenate([np.full(3, -1.2), hip - 1.0, np.full(5, -10.0)]),
        x_hi=np.concatenate([np.full(3, 1.2), hip + 1.0, np.full(5, 10.0)]))
    return prob, x1


@pytest.mark.parametrize("K", [1, 5, 20])
@pytest.mark.parametrize("with_base", [False, True])
def test_condensing_matches_the_dense_oracle(rng, params, K, with_base):
    for _ in range(8):
        prob, x1 = controller_problem(rng, params, K)
        base = None
        if with_base:
            base = np.array([rng.uniform(-3, 3), rng.uniform(-3, 3),
                             rng.uniform(0, 40)])
        got = solve_nmpc(prob, x1, params, eta_base=base)
        assert got.status == OPTIMAL
        assert_same_solution(got, oracles.solve_nmpc_dense(prob, x1, params, base))


def test_one_ulp_of_p_keeps_the_qp_path(rng, params, monkeypatch):
    # twin rows (the thrust cap at two nodes) tie up to rounding, and the
    # entering row is the lowest index among near-ties, so a symmetric 1-ulp
    # change of P keeps the active set and the iteration count.  A row that
    # ends active with a zero multiplier enters or not by the feasibility
    # tolerance, not by the entering rule; such problems are left out
    qps = []

    def recording(P, q, G, h, **kwargs):
        qps.append((P, q, G, h))
        return solve_qp(P, q, G, h, **kwargs)

    monkeypatch.setattr(nmpc, "solve_qp", recording)
    for _ in range(40):
        prob, x1 = controller_problem(rng, params, 20)
        solve_nmpc(prob, x1, params)
    checked = 0
    for P, q, G, h in qps:
        ref = solve_qp(P, q, G, h)
        assert ref.status == OPTIMAL
        if np.min(ref.duals[ref.active], initial=1.0) <= 1e-12:
            continue
        checked += 1
        for way in (np.inf, -np.inf):
            sol = solve_qp(np.nextafter(P, way), q, G, h)
            assert sorted(sol.active) == sorted(ref.active)
            assert sol.iterations == ref.iterations
    assert checked >= 35, checked


@pytest.mark.parametrize("K", [1, 5, 20])
def test_condensing_falls_back_like_the_dense_oracle(params, K):
    x1 = ds_state(params, 0.1, 0.1, -1.0)
    x_lo = np.full(10, -50.0)
    x_lo[3] = x1[3] + 0.5  # a dead row: node-1 positions ignore the inputs
    for edits, ran_qp in (({"eps_normal": 1e4}, True), ({"x_lo": x_lo}, False)):
        prob = small_problem(x1, K, **edits)
        got = solve_nmpc(prob, x1, params)
        assert got.status == INFEASIBLE
        assert (got.qp_iterations > 0) == ran_qp
        assert_same_solution(got, oracles.solve_nmpc_dense(prob, x1, params))


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
    assert ctrl._prev is None and ctrl._active == []

    # a failed solve also drops the kept solution and active rows of an
    # earlier good one, and so does reset()
    ctrl.eps_normal = 0.1
    ctrl(1, x0)
    assert ctrl.status_log[1][1] == OPTIMAL
    assert ctrl._prev is not None and ctrl._active
    ctrl.eps_normal = 1e4
    assert np.array_equal(ctrl(2, x0), np.zeros(3))
    assert ctrl.status_log[2][:2] == (2, INFEASIBLE)
    assert ctrl._prev is None and ctrl._active == []
    ctrl.eps_normal = 0.1
    ctrl(3, x0)
    assert ctrl._active
    ctrl.reset(x0, target)
    assert ctrl._prev is None and ctrl._active == []


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
    p1_start, p2_start, _, _ = contact_arrays(x0[:5], x0[5:], params)
    trace, x_df = simulate_ds(x0, lambda j, x: np.zeros(3), 0.02, 1e-4, params)
    assert trace.t.shape[0] == trace.x.shape[0] == 201
    assert trace.lam.shape[0] == trace.eta.shape[0] == 201
    assert not trace.contact_violation
    p1, p2, _, _ = contact_arrays(x_df[:5], x_df[5:], params)
    assert np.max(np.abs(np.concatenate([p1 - p1_start, p2 - p2_start]))) < 1e-6
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


def assert_same_phase(got, ref):
    (trace, x_df), (trace_ref, x_ref) = got, ref
    for name in ("t", "x", "lam", "eta"):
        assert np.array_equal(getattr(trace, name), getattr(trace_ref, name),
                              equal_nan=True), name
    assert np.array_equal(x_df, x_ref, equal_nan=True)
    assert trace.statuses == trace_ref.statuses
    assert trace.contact_violation is trace_ref.contact_violation


def zero_input(j, x):
    return np.zeros(3)


@pytest.mark.parametrize("phase", ["nmpc", "zero input", "fast spin"])
def test_float_substeps_match_the_array_loop(default_cfg, gait, phase):
    cfg = default_cfg
    params = cfg.model.to_params()
    if phase == "nmpc":
        runs = []
        for sim in (simulate_ds, oracles.simulate_ds_arrays):
            ctrl, x0 = default_ds_phase(cfg)
            runs.append(sim(x0, ctrl, cfg.sim.ds_envelope, cfg.sim.dt_ds,
                            params, T_s=cfg.nmpc.T_s))
        assert [entry[1] for entry in runs[0][0].statuses] == [OPTIMAL] * 20
    else:
        if phase == "zero input":
            x0 = ds_state(params, 0.1, 0.1, -1.0)
        else:  # the violating phase of the fast-spin test
            x_s = nominal_start_state(gait)
            x0 = ds_state(params, x_s[0], x_s[2], 10.0)
        runs = [sim(x0, zero_input, 0.02, 2.5e-4, params)
                for sim in (simulate_ds, oracles.simulate_ds_arrays)]
        assert runs[0][0].t.shape == (81,)
        assert runs[0][0].contact_violation is (phase == "fast spin")
    assert_same_phase(*runs)


@pytest.mark.parametrize("index, name", [(3, "q_e"), (8, "dq_e")])
def test_a_non_finite_start_fails_like_the_array_loop(params, index, name):
    for bad in (np.nan, np.inf):
        x0 = ds_state(params, 0.1, 0.1, -1.0)
        x0[index] = bad
        messages = []
        for sim in (simulate_ds, oracles.simulate_ds_arrays):
            with pytest.raises(ValueError) as err:
                sim(x0, zero_input, 0.02, 2.5e-4, params)
            messages.append(str(err.value))
        assert messages == [f"{name} contains non-finite entries"] * 2


def nan_once_run(sim, params, monkeypatch, bad_call, bad):
    """A zero-input phase whose `bad_call`-th force solve returns NaN
    accelerations (bad="ddq") or NaN forces (bad="lam"); returns the phase,
    or the exception it raised."""
    real = nmpc._ds_forces
    calls = []

    def patched(x, eta, params):
        ddq, lam = real(x, eta, params)
        calls.append(None)
        if len(calls) - 1 == bad_call:
            nan = float("nan")
            ddq, lam = ((nan,) * 5, lam) if bad == "ddq" else (ddq, (nan,) * 4)
        return ddq, lam

    x0 = ds_state(params, 0.1, 0.1, -1.0)
    with monkeypatch.context() as patch:
        patch.setattr(nmpc, "_ds_forces", patched)
        try:
            return sim(x0, zero_input, 0.02, 2.5e-4, params)
        except Exception as exc:  # compared by type and message
            return exc


# NaN accelerations in the first, second and last stage of a substep, and in
# the last stage of the phase (80 substeps of 4 solves), make the state
# non-finite; NaN logged forces at the second node leave it finite
@pytest.mark.parametrize("bad_call, bad", [
    (0, "ddq"), (5, "ddq"), (7, "ddq"), (319, "ddq"), (4, "lam")])
def test_a_state_turned_non_finite_fails_like_the_array_loop(
        params, monkeypatch, bad_call, bad):
    got, ref = (nan_once_run(sim, params, monkeypatch, bad_call, bad)
                for sim in (simulate_ds, oracles.simulate_ds_arrays))
    if bad == "ddq":
        assert type(got) is type(ref) is ValueError
        assert str(got) == str(ref) == "dq_e contains non-finite entries"
    else:
        assert np.isnan(got[0].lam[1]).all()
        assert not got[0].contact_violation
        assert_same_phase(got, ref)
