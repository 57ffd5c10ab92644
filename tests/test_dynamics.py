import numpy as np
import pytest

import oracles
from conftest import pinned_vector_field, random_extended_state, random_pinned_state
from thrusterbiped.dynamics import (
    _ext_terms,
    contact_kinematics,
    contact_solve,
    energies,
    ext_dynamics,
    extend_pinned_state,
    hip_position_pinned,
    hip_velocity_pinned,
    solve_ddq,
    ss_contact_force,
    ss_dynamics,
    swing_foot_pinned,
)
from thrusterbiped.nmpc import ds_rhs
from thrusterbiped.errors import SingularContactError, SingularDynamicsError
from thrusterbiped.integrate import integrate_rk4


def test_mass_matrix_symmetric_at_zero(params):
    D = ss_dynamics(np.zeros(3), np.zeros(3), params).D
    assert np.array_equal(D, D.T)
    De = ext_dynamics(np.zeros(5), np.zeros(5), params).D
    assert np.array_equal(De, De.T)


def test_solve_ddq_matches_a_pivoted_lu_solve(params, rng):
    for _ in range(200):
        q, dq = random_pinned_state(rng, angle=1.5, rate=3.0)
        terms = ss_dynamics(q, dq, params)
        rhs = rng.standard_normal((3, 3))
        got = np.array(solve_ddq(terms.D.tolist(), rhs.T.tolist())).T
        want = np.linalg.solve(terms.D, rhs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["q", "dq"])
def test_ss_dynamics_rejects_non_finite_states(params, name):
    state = {"q": np.zeros(3), "dq": np.zeros(3)}
    state[name][1] = np.nan
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries"):
        ss_dynamics(state["q"], state["dq"], params)


@pytest.mark.parametrize("fn", [ext_dynamics, contact_kinematics])
@pytest.mark.parametrize("name", ["q_e", "dq_e"])
def test_extended_terms_reject_non_finite_states(params, fn, name):
    for bad in (np.nan, np.inf):
        state = {"q_e": np.zeros(5), "dq_e": np.zeros(5)}
        state[name][3] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries"):
            fn(state["q_e"], state["dq_e"], params)


def test_solve_ddq_rejects_a_singular_mass_matrix():
    D = np.ones((3, 3)).tolist()  # rank one, determinant exactly zero
    with pytest.raises(SingularDynamicsError):
        solve_ddq(D, [[1.0, 1.0, 1.0]])
    with pytest.raises(SingularDynamicsError):
        solve_ddq((-np.eye(3)).tolist(), [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])


def test_pinned_mass_matrix_matches_energy_hessian(params, rng):
    for _ in range(20):
        q, dq = random_pinned_state(rng)
        D = ss_dynamics(q, dq, params).D
        D_fd = oracles.mass_matrix_fd(q, params, ext=False)
        assert np.max(np.abs(D - D_fd)) < 1e-6


def test_extended_mass_matrix_matches_energy_hessian(params, rng):
    for _ in range(10):
        q_e, dq_e = random_extended_state(rng)
        D = ext_dynamics(q_e, dq_e, params).D
        D_fd = oracles.mass_matrix_fd(q_e, params, ext=True)
        assert np.max(np.abs(D - D_fd)) < 1e-6


def test_gravity_vector_matches_potential_gradient(params, rng):
    for _ in range(20):
        q, _ = random_pinned_state(rng)
        H = ss_dynamics(q, np.zeros(3), params).H
        assert np.max(np.abs(H - oracles.gravity_fd(q, params, ext=False))) < 1e-6
    for _ in range(10):
        q_e, _ = random_extended_state(rng)
        H = ext_dynamics(q_e, np.zeros(5), params).H
        assert np.max(np.abs(H - oracles.gravity_fd(q_e, params, ext=True))) < 1e-6


def test_hip_translation_inertia_is_total_mass(params, rng):
    q_e, dq_e = random_extended_state(rng)
    D = ext_dynamics(q_e, dq_e, params).D
    assert abs(params.total_mass - 0.7) < 1e-12
    assert np.max(np.abs(D[3:, 3:] - 0.7 * np.eye(2))) < 1e-12


def test_zero_rates_give_zero_kinetic_and_pure_gravity(params, rng):
    q, _ = random_pinned_state(rng)
    K, _ = energies(q, np.zeros(3), params, "pinned")
    assert K == 0.0
    q_e, _ = random_extended_state(rng)
    K_e, _ = energies(q_e, np.zeros(5), params, "extended")
    assert K_e == 0.0
    H = ext_dynamics(q_e, np.zeros(5), params).H
    assert np.max(np.abs(H - oracles.gravity_fd(q_e, params, ext=True))) < 1e-6


def thrust_column(q_e, params):
    """The thrust column of the DS input matrix: the hip rows of `_ext_terms`."""
    _, _, (tx, ty) = _ext_terms(q_e.tolist(), [0.0] * 5, params)
    return np.array([0.0, 0.0, 0.0, tx, ty])


def test_thrust_column_torso_vertical(params):
    # torso link upright: thrust presses straight down on the hip rows only
    q_e = np.array([0.3, -0.5, 0.2, 0.1, 0.6])
    a = q_e[0] + q_e[1] + q_e[2]
    q_e[2] -= a
    col = thrust_column(q_e, params)
    assert np.max(np.abs(col - np.array([0.0, 0.0, 0.0, 0.0, -1.0]))) < 1e-12


def test_thrust_column_matches_virtual_work(params, rng):
    for _ in range(10):
        q_e, _ = random_extended_state(rng)
        col = oracles.thrust_column_geometry(q_e, params)
        assert np.max(np.abs(thrust_column(q_e, params) - col)) < 1e-9


def test_ds_terms_reduce_to_extended_terms(params, rng):
    # without thrust, the DS flow is the extended model under the two joint
    # torques with both feet held
    for _ in range(20):
        q_e, dq_e = random_extended_state(rng)
        q_e[1] = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 1.0)
        u = rng.uniform(-3.0, 3.0, 2)
        terms = ext_dynamics(q_e, dq_e, params)
        ck = contact_kinematics(q_e, dq_e, params)
        rhs_con = -ck.jdot_qdot - params.d * (ck.J @ dq_e)
        ddq, lam = contact_solve(terms.D, ck.J, terms.B @ u - terms.H, rhs_con)
        forces = ds_rhs(np.concatenate([q_e, dq_e]), np.append(u, 0.0), params)
        assert np.allclose(forces.ddq, ddq, rtol=1e-12, atol=1e-12)
        assert np.allclose(forces.lam, lam, rtol=1e-12, atol=1e-12)


def test_coincident_legs_have_coincident_feet(params):
    q_e = np.array([0.2, 0.0, 0.1, 0.05, 0.61])
    ck = contact_kinematics(q_e, np.zeros(5), params)
    assert np.max(np.abs(ck.p1 - ck.p2)) < 1e-15


def test_contact_jacobian_matches_position_differences(params, rng):
    for _ in range(1000):
        q_e, dq_e = random_extended_state(rng)
        ck = contact_kinematics(q_e, dq_e, params)
        J_fd = oracles.fd_jacobian(
            lambda qq: oracles.foot_points_ext(qq, params), q_e)
        assert np.max(np.abs(ck.J - J_fd)) < 1e-5


def test_contact_velocity_product_matches_flow_difference(params, rng):
    # prescribe a smooth path q_e(t); then d/dt(J qdot) - J qddot must equal
    # the reported velocity-product term
    amp = rng.uniform(-0.4, 0.4, size=5)
    phs = rng.uniform(0.0, 2.0 * np.pi, size=5)
    base = np.array([0.1, -0.3, 0.2, 0.0, 0.63])
    om = 1.7

    def path(t):
        q = base + amp * np.sin(om * t + phs)
        dq = amp * om * np.cos(om * t + phs)
        ddq = -amp * om * om * np.sin(om * t + phs)
        return q, dq, ddq

    def Jqdot(t):
        q, dq, _ = path(t)
        return contact_kinematics(q, dq, params).J @ dq

    for t0 in (0.0, 0.4, 1.1):
        q, dq, ddq = path(t0)
        ck = contact_kinematics(q, dq, params)
        d = 1e-4
        flow = (Jqdot(t0 + d) - Jqdot(t0 - d)) / (2.0 * d) - ck.J @ ddq
        assert np.max(np.abs(flow - ck.jdot_qdot)) < 1e-4


def test_upright_potential_energy_value(params):
    # g*(m_h*l + m_T*(l + l_T) + 2*m_k*l/2) with both legs vertical
    _, V = energies(np.zeros(3), np.zeros(3), params, "pinned")
    expected = 9.81 * (0.2 * 0.6325 + 0.3 * (0.6325 + 0.30) + 0.1 * 0.6325)
    assert abs(V - expected) < 1e-12
    assert abs(V - 4.6057950) < 1e-6


def test_energies_match_geometry_oracle(params, rng):
    for _ in range(10):
        q, dq = random_pinned_state(rng)
        K, V = energies(q, dq, params, "pinned")
        assert abs(K - oracles.kinetic_geometry(q, dq, params, ext=False)) < 1e-8
        assert abs(V - oracles.potential_geometry(q, params, ext=False)) < 1e-10
        q_e, dq_e = random_extended_state(rng)
        K, V = energies(q_e, dq_e, params, "extended")
        assert abs(K - oracles.kinetic_geometry(q_e, dq_e, params, ext=True)) < 1e-8
        assert abs(V - oracles.potential_geometry(q_e, params, ext=True)) < 1e-10


def test_energies_reject_wrong_shapes(params):
    with pytest.raises(ValueError):
        energies(np.zeros(5), np.zeros(5), params, "pinned")
    with pytest.raises(ValueError):
        energies(np.zeros(3), np.zeros(3), params, "extended")
    with pytest.raises(ValueError):
        energies(np.zeros(3), np.zeros(3), params, "floating")


def test_passive_energy_conservation(params):
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


def test_vector_field_satisfies_dynamics_residual(params, rng):
    for _ in range(50):
        q, dq = random_pinned_state(rng)
        u = rng.uniform(-3.0, 3.0, size=2)
        out = pinned_vector_field(np.concatenate([q, dq]), u, params)
        terms = ss_dynamics(q, dq, params)
        residual = terms.D @ out[3:] + terms.H - terms.B @ u
        assert np.max(np.abs(residual)) < 1e-10
        assert np.array_equal(out[:3], dq)


def test_unforced_acceleration_is_negative_solve(params, rng):
    q, dq = random_pinned_state(rng)
    out = pinned_vector_field(np.concatenate([q, dq]), np.zeros(2), params)
    terms = ss_dynamics(q, dq, params)
    assert np.max(np.abs(out[3:] + np.linalg.solve(terms.D, terms.H))) < 1e-12


def test_pinned_field_matches_constrained_formulation(params, rng):
    # the pinned model must agree with the extended model plus an explicit
    # stance-foot constraint (reduction consistency)
    for _ in range(20):
        q, dq = random_pinned_state(rng)
        u = rng.uniform(-3.0, 3.0, size=2)
        ddq_pinned = pinned_vector_field(np.concatenate([q, dq]), u, params)[3:]

        q_e, dq_e = extend_pinned_state(q, dq, np.zeros(2), params)
        terms = ext_dynamics(q_e, dq_e, params)
        ck = contact_kinematics(q_e, dq_e, params)
        J1 = ck.J[:2]
        kkt = np.zeros((7, 7))
        kkt[:5, :5] = terms.D
        kkt[:5, 5:] = -J1.T
        kkt[5:, :5] = J1
        rhs = np.concatenate([terms.B @ u - terms.H, -ck.jdot_qdot[:2]])
        ddq_e = np.linalg.solve(kkt, rhs)[:5]
        assert np.max(np.abs(ddq_e[:3] - ddq_pinned)) < 1e-8


def test_stance_force_is_newtons_law_on_the_centre_of_mass(params, rng):
    # the only external forces in single support are gravity and the
    # stance-foot reaction, so lam = M a_com + (0, M g)
    M = params.total_mass

    def com_velocity(x):
        return oracles.line_derivative(
            lambda q: oracles.centre_of_mass_pinned(q, params), x[:3], x[3:])

    for _ in range(50):
        q, dq = random_pinned_state(rng)
        u = rng.uniform(-3.0, 3.0, size=2)
        x = np.concatenate([q, dq])
        dx = pinned_vector_field(x, u, params)
        a_com = oracles.line_derivative(com_velocity, x, dx)
        lam = np.array(ss_contact_force(q.tolist(), dq.tolist(), dx[3:].tolist(), params))
        assert np.max(np.abs(lam - (M * a_com + np.array([0.0, M * params.g])))) < 1e-6


def test_hip_velocity_is_the_rate_of_the_hip_position(params, rng):
    def hip(q):
        return oracles.mass_points_pinned(q, params)[1][1]

    for _ in range(20):
        q, dq = random_pinned_state(rng)
        assert np.max(np.abs(hip_position_pinned(q, params) - hip(q))) < 1e-15
        want = oracles.line_derivative(hip, q, dq)
        got = np.array(hip_velocity_pinned(q[0], dq[0], params.l))
        assert np.max(np.abs(got - want)) < 1e-9


def test_contact_solve_meets_both_blocks_and_rejects_dependent_rows(params, rng):
    q_e, dq_e = random_extended_state(rng)
    D = ext_dynamics(q_e, dq_e, params).D
    J = contact_kinematics(q_e, dq_e, params).J
    rhs_dyn = rng.standard_normal((5, 3))
    rhs_con = rng.standard_normal((4, 3))
    x, lam = contact_solve(D, J, rhs_dyn, rhs_con)
    assert np.max(np.abs(D @ x - J.T @ lam - rhs_dyn)) < 1e-10
    assert np.max(np.abs(J @ x - rhs_con)) < 1e-10
    with pytest.raises(SingularContactError):
        contact_solve(D, np.vstack([J[:2], J[:2]]), rhs_dyn, rhs_con)


def test_mass_matrices_positive_definite(params, rng):
    for _ in range(10000):
        q = rng.uniform(-np.pi, np.pi, size=3)
        D = ss_dynamics(q, np.zeros(3), params).D
        assert np.all(np.linalg.eigvalsh(D) > 0.0)
    for _ in range(1000):
        q_e, _ = random_extended_state(rng)
        q_e[:3] = rng.uniform(-np.pi, np.pi, size=3)
        De = ext_dynamics(q_e, np.zeros(5), params).D
        assert np.all(np.linalg.eigvalsh(De) > 0.0)


def test_pinned_inertia_ignores_absolute_angle(params, rng):
    # D depends on joint angles only, not on the orientation q1
    for _ in range(20):
        q, _ = random_pinned_state(rng)
        d = 1e-4
        qp = q.copy()
        qm = q.copy()
        qp[0] += d
        qm[0] -= d
        diff = (ss_dynamics(qp, np.zeros(3), params).D
                - ss_dynamics(qm, np.zeros(3), params).D) / (2.0 * d)
        assert np.max(np.abs(diff)) < 1e-8


def test_power_balance_along_forced_motion(params):
    # d(K+V)/dt along the flow equals the actuator power dq_a . u
    u = np.array([0.8, -0.5])
    x0 = np.array([0.1, -0.25, 0.2, 0.4, -0.2, 0.1])

    def field(t, x):
        return pinned_vector_field(x, u, params)

    res = integrate_rk4(field, x0, 0.0, 0.2, 1e-5)

    def total(idx):
        x = res.x[idx]
        K, V = energies(x[:3], x[3:], params, "pinned")
        return K + V

    mid = len(res.t) // 2
    dt = res.t[1] - res.t[0]
    d1 = (total(mid + 1) - total(mid - 1)) / (2.0 * dt)
    d2 = (total(mid + 2) - total(mid - 2)) / (4.0 * dt)
    dE = (4.0 * d1 - d2) / 3.0
    power = res.x[mid][4:6] @ u
    assert abs(dE - power) < 1e-8


def test_contact_solve_matches_the_dense_kkt_solve(params, rng):
    for _ in range(200):
        q_e, dq_e = random_extended_state(rng)
        D = ext_dynamics(q_e, dq_e, params).D
        J = contact_kinematics(q_e, dq_e, params).J
        for rhs_dyn, rhs_con in (
            (rng.standard_normal(5), rng.standard_normal(4)),
            (rng.standard_normal((5, 4)), rng.standard_normal((4, 4))),
        ):
            x, lam = contact_solve(D, J, rhs_dyn, rhs_con)
            x_ref, lam_ref = oracles.contact_solve_dense(D, J, rhs_dyn, rhs_con)
            assert x.shape == x_ref.shape and lam.shape == lam_ref.shape
            assert np.max(np.abs(x - x_ref)) <= 1e-10 * np.max(np.abs(x_ref))
            assert np.max(np.abs(lam - lam_ref)) <= 1e-10 * np.max(np.abs(lam_ref))


def test_contact_solve_rejects_a_jacobian_without_the_model_structure(params, rng):
    q_e, dq_e = random_extended_state(rng)
    D = ext_dynamics(q_e, dq_e, params).D
    J = contact_kinematics(q_e, dq_e, params).J
    torso = J.copy()
    torso[1, 2] = 0.1  # a foot that moves with the torso
    hip = J.copy()
    hip[2, 3] = 2.0
    for bad in (torso, hip, J[:3]):
        with pytest.raises(ValueError, match="zero torso column and unit hip"):
            contact_solve(D, bad, np.ones(5), np.ones(4))
