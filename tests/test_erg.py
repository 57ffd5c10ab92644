import dataclasses

import numpy as np
import pytest

import oracles
from conftest import random_pinned_state
from test_gait import on_manifold_state
from thrusterbiped import erg
from thrusterbiped.dynamics import DynTerms, pinned_vector_field, ss_dynamics, solve_ddq
from thrusterbiped.erg import (
    GAMMA_CAP,
    ConstraintData,
    SsController,
    constraint_data,
    gamma_bound,
    governor_rate,
    lyapunov_value,
    partitioned_torque,
    pd_accel,
    reference_point,
)
from thrusterbiped.errors import SingularDynamicsError
from thrusterbiped.gait import output_data
from thrusterbiped.integrate import rk4_step


def x_a_of(x):
    return np.concatenate([x[1:3], x[4:6]])


def rand_x(rng, angle=0.5, rate=1.0):
    q, dq = random_pinned_state(rng, angle, rate)
    return np.concatenate([q, dq])


def test_pd_accel_is_the_diagonal_law(rng, gait):
    for _ in range(200):
        y = rng.standard_normal(2)
        dq = rng.standard_normal(2)
        w = rng.standard_normal(2)
        v = pd_accel(y, dq, w, gait)
        assert np.allclose(v, gait.kp * y + gait.kd * (dq - w), atol=1e-14)
    assert np.array_equal(pd_accel(np.zeros(2), w, w, gait), np.zeros(2))


def test_fbl_torque_inverts_the_input_map(rng, gait, params):
    for _ in range(100):
        x = rand_x(rng)
        od = output_data(x, gait, params)
        v = rng.standard_normal(2)
        u = oracles.fbl_torque(od, v)
        assert np.max(np.abs(od.LgLfh @ u + od.Lf2h + v)) < 1e-9


def test_torque_rows_encode_the_exact_torque_box(rng, gait, params):
    # rows 8:10 must be u_max - u_fbl and rows 10:12 u_max + u_fbl, where
    # u_fbl is the feedback-linearizing torque for the current governor state
    for _ in range(50):
        x = rand_x(rng)
        w = rng.standard_normal(2)
        od = output_data(x, gait, params)
        cdata = constraint_data(od, gait)
        x_a = x_a_of(x)
        x_w = reference_point(od, w)
        rows = cdata.C_x @ x_a + cdata.C_w @ x_w + cdata.C_limit

        u_fbl = oracles.fbl_torque(od, pd_accel(od.y, x[4:6], w, gait))
        scale = 1.0 + np.max(np.abs(u_fbl))
        assert np.max(np.abs(rows[8:10] - (gait.u_max - u_fbl))) < 1e-9 * scale
        assert np.max(np.abs(rows[10:12] - (gait.u_max + u_fbl))) < 1e-9 * scale
        assert np.allclose(rows[0:4], gait.x_max - x_a, atol=1e-12)
        assert np.allclose(rows[4:8], gait.x_max + x_a, atol=1e-12)


def test_rows_positive_on_the_designed_gait(gait, params):
    for s in (0.1, 0.5, 0.9):
        x = on_manifold_state(gait, s, -0.9)
        od = output_data(x, gait, params)
        cdata = constraint_data(od, gait)
        x_w = reference_point(od, od.dh_d_dt)
        rows = cdata.C_x @ x_a_of(x) + cdata.C_w @ x_w + cdata.C_limit
        assert np.all(rows > 0.0)


def test_lyapunov_is_the_weighted_tracking_energy(rng):
    for _ in range(1000):
        kp = rng.uniform(0.5, 50.0, 2)
        kd = rng.uniform(0.5, 50.0, 2)
        P = 0.5 * np.diag(np.concatenate([kp, kd]))
        x_a = rng.standard_normal(4)
        x_w = rng.standard_normal(4)
        e = x_a - x_w
        want = 0.5 * (kp @ e[:2] ** 2 + kd @ e[2:] ** 2)
        assert abs(lyapunov_value(x_a, x_w, P) - want) < 1e-12 * (1.0 + want)
    assert lyapunov_value(x_w, x_w, P) == 0.0


def synthetic_cdata(rng, m=6):
    C_x = rng.standard_normal((m, 4))
    C_w = 0.3 * rng.standard_normal((m, 4))
    C_limit = rng.uniform(0.5, 3.0, m)
    P = 0.5 * np.diag(rng.uniform(0.5, 3.0, 4))
    return ConstraintData(C_x, C_w, C_limit, P)


def test_gamma_single_row_closed_form(rng):
    for _ in range(200):
        c = rng.standard_normal(4)
        P = 0.5 * np.diag(rng.uniform(0.5, 4.0, 4))
        x_w = rng.standard_normal(4)
        lim = rng.uniform(0.5, 3.0)
        cdata = ConstraintData(c[None, :], np.zeros((1, 4)), np.array([lim]), P)
        r = c @ x_w + lim
        got = gamma_bound(x_w, cdata)
        if r <= 0.0:
            assert got == 0.0
        else:
            want = min(r ** 2 / (c ** 2 @ (1.0 / np.diag(P))), GAMMA_CAP)
            assert abs(got - want) < 1e-12 * (1.0 + want)


def test_gamma_zero_on_and_past_the_boundary():
    c = np.array([1.0, 0.0, 0.0, 0.0])
    P = 0.5 * np.eye(4)
    cdata = ConstraintData(c[None, :], np.zeros((1, 4)), np.array([2.0]), P)
    assert gamma_bound(np.array([-2.0, 0.0, 0.0, 0.0]), cdata) == 0.0
    assert gamma_bound(np.array([-2.5, 0.0, 0.0, 0.0]), cdata) == 0.0


def test_gamma_skips_unbounded_and_dead_rows(rng):
    P = 0.5 * np.eye(4)
    x_w = rng.standard_normal(4)
    inf = np.full(3, np.inf)
    cdata = ConstraintData(rng.standard_normal((3, 4)), np.zeros((3, 4)), inf, P)
    assert gamma_bound(x_w, cdata) == GAMMA_CAP

    # a row with no x_a dependence cannot bind, but a violated one voids the set
    dead = ConstraintData(np.zeros((1, 4)), np.zeros((1, 4)), np.array([1.0]), P)
    assert gamma_bound(x_w, dead) == GAMMA_CAP
    dead_neg = ConstraintData(np.zeros((1, 4)), np.zeros((1, 4)), np.array([-1.0]), P)
    assert gamma_bound(x_w, dead_neg) == 0.0


def test_gamma_matches_projection_oracle(rng, gait, params):
    for _ in range(200):
        cdata = synthetic_cdata(rng)
        cdata.C_x[2] = 0.0
        cdata.C_limit[4] = np.inf
        x_w = rng.standard_normal(4)
        got = gamma_bound(x_w, cdata)
        want = oracles.gamma_projection(x_w, *cdata[:4])
        want = min(want, GAMMA_CAP)
        assert abs(got - want) < 1e-9 * (1.0 + want)

    for _ in range(20):
        x = rand_x(rng, angle=0.3, rate=0.5)
        od = output_data(x, gait, params)
        cdata = constraint_data(od, gait)
        x_w = reference_point(od, rng.standard_normal(2))
        got = gamma_bound(x_w, cdata)
        want = min(oracles.gamma_projection(x_w, *cdata[:4]), GAMMA_CAP)
        assert abs(got - want) < 1e-9 * (1.0 + want)


def test_gamma_level_set_stays_inside_the_rows(rng, gait, params):
    # every point of the open sublevel set {V < Gamma} must satisfy all rows
    checked = 0
    while checked < 20:
        x = rand_x(rng, angle=0.3, rate=0.5)
        od = output_data(x, gait, params)
        cdata = constraint_data(od, gait)
        x_w = reference_point(od, 0.3 * rng.standard_normal(2))
        g = gamma_bound(x_w, cdata)
        if g <= 0.0 or g >= GAMMA_CAP:
            continue
        checked += 1
        pr = np.diag(cdata.P)
        for _ in range(100):
            e = rng.standard_normal(4)
            e *= np.sqrt(0.999 * g / (e ** 2 @ pr))
            rows = cdata.C_x @ (x_w + e) + cdata.C_w @ x_w + cdata.C_limit
            assert np.min(rows[np.isfinite(cdata.C_limit)]) > -1e-9


def test_governor_rate_margin_and_sign_laws(rng):
    w = np.array([0.2, -0.4])
    target = np.array([1.0, -1.5])
    assert np.array_equal(governor_rate(w, target, 0.0, 100.0, 50.0, 0.01),
                          np.zeros(2))
    assert np.array_equal(governor_rate(w, target, -3.0, 100.0, 50.0, 0.01),
                          np.zeros(2))
    assert np.max(np.abs(governor_rate(w, w, 5.0, 100.0, 50.0, 0.01))) == 0.0

    for _ in range(200):
        w = rng.standard_normal(2)
        target = rng.standard_normal(2)
        margin = rng.uniform(0.0, 5.0)
        dw = governor_rate(w, target, margin, 100.0, 50.0, 0.01)
        amp = min(100.0 * margin, 50.0)
        assert np.all(np.sign(dw) == np.sign(target - w))
        assert np.max(np.abs(dw)) <= amp + 1e-12

    # far from the target the slew saturates at the amplitude
    dw = governor_rate(np.zeros(2), np.array([1.0, -1.0]), 10.0, 100.0, 50.0, 0.01)
    assert np.max(np.abs(np.abs(dw) - 50.0)) < 1e-8


def test_governor_rate_drives_w_to_the_target():
    target = np.array([0.7, -0.3])
    w = target + np.array([0.5, -0.5])

    def f(t, w):
        return governor_rate(w, target, 1e9, 100.0, 50.0, 0.01)

    t, dt = 0.0, 1e-4
    for _ in range(500):
        w = rk4_step(f, t, w, dt)
        t += dt
    assert np.max(np.abs(w - target)) < 1e-3 * 0.5


def test_partitioned_torque_matches_direct_solve(rng, params):
    for _ in range(300):
        x = rand_x(rng)
        dw = rng.standard_normal(2)
        v = rng.standard_normal(2)
        terms = ss_dynamics(x[:3], x[3:], params)
        D, H = terms.D, terms.H

        # unknowns (ddq1, u2, u3) with the actuated accelerations pinned
        M = np.array([[D[0, 0], 0.0, 0.0],
                      [D[1, 0], -1.0, 0.0],
                      [D[2, 0], 0.0, -1.0]])
        rhs = -H - D[:, 1:] @ (dw - v)
        u_ref = np.linalg.solve(M, rhs)[1:]

        u = partitioned_torque(x, dw, v, params)
        assert np.max(np.abs(u - u_ref)) < 1e-8 * (1.0 + np.max(np.abs(u_ref)))

        ddq = solve_ddq(terms, terms.B @ u - terms.H)
        assert np.max(np.abs(ddq[1:] - (dw - v))) < 1e-8


def test_partitioned_torque_drift_term(rng, params):
    for _ in range(50):
        x = rand_x(rng)
        terms = ss_dynamics(x[:3], x[3:], params)
        D, H = terms.D, terms.H
        u = partitioned_torque(x, np.zeros(2), np.zeros(2), params)
        beta2 = H[1:] - D[1:, 0] * (H[0] / D[0, 0])
        assert np.max(np.abs(u - beta2)) < 1e-10 * (1.0 + np.max(np.abs(beta2)))
        ddq = solve_ddq(terms, terms.B @ u - terms.H)
        assert np.max(np.abs(ddq[1:])) < 1e-9


def test_partitioned_torque_rejects_singular_partition(params):
    x = np.zeros(6)
    D = np.eye(3)
    D[0, 0] = 0.0
    terms = DynTerms(D=D, H=np.zeros(3), B=np.zeros((3, 2)))
    with pytest.raises(SingularDynamicsError):
        partitioned_torque(x, np.zeros(2), np.zeros(2), params, terms=terms)


def test_initial_w_starts_with_zero_velocity_error(rng, gait, params):
    ctrl = SsController(gait, params)
    x = rand_x(rng, angle=0.3, rate=0.5)
    w = ctrl.initial_w(x)
    assert np.array_equal(w, x[4:6])
    od = output_data(x, gait, params)
    cdata = constraint_data(od, gait)
    x_w = reference_point(od, w)
    V = lyapunov_value(x_a_of(x), x_w, cdata.P)
    want = 0.5 * gait.kp @ od.y ** 2
    assert abs(V - want) < 1e-12 * (1.0 + want)


def test_sample_reports_saturation_and_clips(gait, params):
    x = on_manifold_state(gait, 0.4, -0.9)
    z = np.concatenate([x, x[4:6]])

    ctrl = SsController(gait, params)
    smp = ctrl.sample(z)
    assert not smp.saturated
    assert np.array_equal(smp.u, smp.u_raw)

    tight = dataclasses.replace(gait, u_max=np.array([1e-3, 1e-3]))
    ctrl_tight = SsController(tight, params)
    smp = ctrl_tight.sample(z)
    assert smp.saturated
    assert np.max(np.abs(smp.u)) <= 1e-3 + 1e-15
    assert np.max(np.abs(smp.u_raw)) > 1e-3


def test_writing_into_a_sample_leaves_the_kept_evaluation_intact(gait, params):
    x = on_manifold_state(gait, 0.4, -0.9)
    z = np.concatenate([x, x[4:6]])
    want = SsController(gait, params).field(0.0, z)

    ctrl = SsController(gait, params)
    smp = ctrl.sample(z)
    for arr in (smp.u, smp.u_raw, smp.y, smp.dy, smp.w, smp.h_d, smp.dh_d_dt,
                smp.ddq):
        arr[:] = np.nan
    assert np.array_equal(ctrl.field(0.0, z), want)
    assert np.array_equal(ctrl.sample(z).u, SsController(gait, params).sample(z).u)


def test_field_integrates_the_sampled_accelerations(gait, params, monkeypatch):
    x = on_manifold_state(gait, 0.4, -0.9)
    z = np.concatenate([x, x[4:6]])
    want = SsController(gait, params).field(0.0, z)

    ctrl = SsController(gait, params)
    smp = ctrl.sample(z)
    assert np.array_equal(smp.ddq, pinned_vector_field(x, smp.u, params)[3:])

    def no_solve(*args):
        raise AssertionError("field solved for ddq again")

    monkeypatch.setattr(erg, "solve_ddq", no_solve)
    got = ctrl.field(0.0, z)
    assert np.array_equal(got[:3], z[3:6])
    assert np.array_equal(got[3:6], smp.ddq)
    assert np.array_equal(got, want)


def test_closed_loop_respects_boxes_and_margin(one_step_log, gait):
    log = one_step_log
    for name, bound in (("u2", gait.u_max[0]), ("u3", gait.u_max[1])):
        vals = log.column(name, phase_tag="SS")
        assert vals.size > 0
        assert np.max(np.abs(vals)) <= bound + 1e-6
    for i, name in enumerate(("q2", "q3", "dq2", "dq3")):
        vals = log.column(name, phase_tag="SS")
        assert np.max(np.abs(vals)) <= gait.x_max[i] + 1e-6
    margin = log.column("Gamma", phase_tag="SS") - log.column("V", phase_tag="SS")
    assert np.min(margin) > -1e-9
