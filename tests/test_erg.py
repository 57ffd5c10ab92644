import dataclasses

import numpy as np
import pytest

import oracles
from conftest import pinned_vector_field, random_pinned_state
from test_gait import on_manifold_state
from thrusterbiped import erg
from thrusterbiped.dynamics import solve_ddq, ss_dynamics
from thrusterbiped.erg import (
    GAMMA_CAP,
    SsController,
    constraint_data,
    gamma_bound,
    governor_rate,
    lyapunov_value,
    partitioned_torque,
    pd_accel,
)
from thrusterbiped.errors import DecouplingSingularityError, SingularDynamicsError
from thrusterbiped.gait import output_data
from thrusterbiped.integrate import rk4_step


def x_a_of(x):
    return np.concatenate([x[1:3], x[4:6]])


def rand_x(rng, angle=0.5, rate=1.0):
    q, dq = random_pinned_state(rng, angle, rate)
    return np.concatenate([q, dq])


def torque_rows(od, gait):
    """`constraint_data` of an output evaluation, from its arrays."""
    return constraint_data(od.LgLfh.tolist(), od.Lf2h.tolist(), gait)


def gamma_of(x_w, od, gait):
    return gamma_bound(list(x_w), *torque_rows(od, gait), gait)


def test_pd_accel_is_the_diagonal_law(rng, gait):
    for _ in range(200):
        y = rng.standard_normal(2)
        dq = rng.standard_normal(2)
        w = rng.standard_normal(2)
        v = pd_accel(y.tolist(), dq.tolist(), w.tolist(), gait.pd_gains)
        assert np.allclose(v, gait.kp * y + gait.kd * (dq - w), atol=1e-14)
    assert pd_accel([0.0, 0.0], w.tolist(), w.tolist(), gait.pd_gains) == [0.0, 0.0]


def test_fbl_torque_inverts_the_input_map(rng, gait, params):
    for _ in range(100):
        x = rand_x(rng)
        od = output_data(x, gait, params)
        v = rng.standard_normal(2)
        u = oracles.fbl_torque(od, v)
        assert np.max(np.abs(od.LgLfh @ u + od.Lf2h + v)) < 1e-9


def test_torque_rows_encode_the_exact_torque_box(rng, gait, params):
    # the torque rows k.x_a - k.x_w + limit must be u_max - u_fbl and
    # u_max + u_fbl, where u_fbl is the feedback-linearizing torque for the
    # current governor state
    for _ in range(50):
        x = rand_x(rng)
        w = rng.standard_normal(2)
        od = output_data(x, gait, params)
        k2, k3, limits = torque_rows(od, gait)
        K = np.array([k2, k3, [-v for v in k2], [-v for v in k3]])
        e = x_a_of(x) - np.concatenate([od.h_d, w])
        rows = K @ e + np.array(limits)

        v = pd_accel(od.y.tolist(), x[4:6].tolist(), w.tolist(), gait.pd_gains)
        u_fbl = oracles.fbl_torque(od, np.array(v))
        scale = 1.0 + np.max(np.abs(u_fbl))
        assert np.max(np.abs(rows[0:2] - (gait.u_max - u_fbl))) < 1e-9 * scale
        assert np.max(np.abs(rows[2:4] - (gait.u_max + u_fbl))) < 1e-9 * scale


def test_torque_rows_match_the_numpy_rows(rng, gait, params):
    # the adjugate W^-1 of constraint_data and np.linalg.inv round apart:
    # by a few ulp, amplified by the condition number of W
    for _ in range(200):
        od = output_data(rand_x(rng), gait, params)
        k2, k3, limits = torque_rows(od, gait)
        C_x, _, C_limit, _ = oracles.constraint_rows(od.LgLfh, od.Lf2h, gait)
        tol = 4.0 * np.finfo(float).eps * np.linalg.cond(od.LgLfh)
        got_x = np.array([k2, k3, [-v for v in k2], [-v for v in k3]])
        assert np.max(np.abs(got_x - C_x[8:])) <= tol * np.max(np.abs(C_x[8:]))
        drift = np.linalg.solve(od.LgLfh, od.Lf2h)
        assert (np.max(np.abs(np.array(limits) - C_limit[8:]))
                <= tol * (np.max(gait.u_max) + np.max(np.abs(drift))))


def test_rows_positive_on_the_designed_gait(gait, params):
    for s in (0.1, 0.5, 0.9):
        x = on_manifold_state(gait, s, -0.9)
        od = output_data(x, gait, params)
        # on the manifold with w = dh_d/dt the tracking error is zero, so
        # the torque rows are their limits and the state rows x_max -+ x_a
        assert np.max(np.abs(x_a_of(x) - np.concatenate([od.h_d, od.dh_d_dt]))) < 1e-12
        assert np.all(np.abs(x_a_of(x)) < gait.x_max)
        assert min(torque_rows(od, gait)[2]) > 0.0


def test_lyapunov_is_the_weighted_tracking_energy(rng):
    for _ in range(1000):
        kp = rng.uniform(0.5, 50.0, 2)
        kd = rng.uniform(0.5, 50.0, 2)
        P = 0.5 * np.diag(np.concatenate([kp, kd]))
        e = rng.standard_normal(4)
        want = 0.5 * (kp @ e[:2] ** 2 + kd @ e[2:] ** 2)
        assert abs(lyapunov_value(e.tolist(), P) - want) < 1e-12 * (1.0 + want)
    assert lyapunov_value([0.0] * 4, P) == 0.0


def box_gait(gait, x_max=None, u_max=None):
    return dataclasses.replace(
        gait, x_max=gait.x_max if x_max is None else np.asarray(x_max, dtype=float),
        u_max=gait.u_max if u_max is None else np.asarray(u_max, dtype=float))


def test_gamma_single_row_closed_form(rng, gait):
    # unbounded state box and one finite torque row: Gamma is that row's
    # level r^2 / (k P^-1 k'), r its value at x_a = x_w
    free = box_gait(gait, x_max=np.full(4, np.inf))
    inf = float("inf")
    p = 1.0 / np.diag(free.tracking_metric)
    for _ in range(200):
        k = rng.standard_normal(4)
        lim = rng.uniform(-0.5, 3.0)
        x_w = rng.standard_normal(4).tolist()
        got = gamma_bound(x_w, k.tolist(), [0.0] * 4, [lim, inf, inf, inf], free)
        if lim <= 0.0:
            assert got == 0.0
        else:
            want = min(lim ** 2 / (k ** 2 @ p), GAMMA_CAP)
            assert abs(got - want) < 1e-12 * (1.0 + want)


def test_gamma_zero_on_and_past_the_boundary(gait):
    inf = float("inf")
    unbounded = [inf] * 4
    k = [0.0] * 4
    for q2 in (-gait.x_max[0], -1.25 * gait.x_max[0], gait.x_max[0]):
        assert gamma_bound([q2, 0.0, 0.0, 0.0], k, k, unbounded, gait) == 0.0
    assert gamma_bound([0.0] * 4, k, k, unbounded, gait) > 0.0


def test_gamma_skips_unbounded_and_dead_rows(rng, gait):
    free = box_gait(gait, x_max=np.full(4, np.inf))
    inf = float("inf")
    x_w = rng.standard_normal(4).tolist()
    k2, k3 = rng.standard_normal(4).tolist(), rng.standard_normal(4).tolist()
    assert gamma_bound(x_w, k2, k3, [inf] * 4, free) == GAMMA_CAP

    # a row with no x_a dependence cannot bind, but a violated one voids the set
    dead = [0.0] * 4
    assert gamma_bound(x_w, dead, dead, [1.0, inf, inf, inf], free) == GAMMA_CAP
    assert gamma_bound(x_w, dead, dead, [-1.0, inf, inf, inf], free) == 0.0


def test_gamma_matches_projection_oracle(rng, gait, params):
    # gamma_bound against the projection onto each row of the numpy rows
    for case in range(200):
        W = rng.standard_normal((2, 2)) + 2.0 * np.eye(2)
        Lf2h = rng.standard_normal(2)
        x_max = rng.uniform(0.5, 3.0, 4)
        x_max[case % 5:case % 5 + 1] = np.inf
        g = box_gait(gait, x_max=x_max, u_max=rng.uniform(0.5, 3.0, 2))
        x_w = rng.standard_normal(4)
        got = gamma_bound(x_w.tolist(), *constraint_data(W.tolist(), Lf2h.tolist(), g), g)
        want = oracles.gamma_projection(x_w, *oracles.constraint_rows(W, Lf2h, g))
        want = min(want, GAMMA_CAP)
        assert abs(got - want) < 1e-9 * (1.0 + want)

    for _ in range(20):
        x = rand_x(rng, angle=0.3, rate=0.5)
        od = output_data(x, gait, params)
        x_w = np.concatenate([od.h_d, rng.standard_normal(2)])
        got = gamma_of(x_w, od, gait)
        rows = oracles.constraint_rows(od.LgLfh, od.Lf2h, gait)
        want = min(oracles.gamma_projection(x_w, *rows), GAMMA_CAP)
        assert abs(got - want) < 1e-9 * (1.0 + want)


def test_gamma_level_set_stays_inside_the_rows(rng, gait, params):
    # every point of the open sublevel set {V < Gamma} must satisfy all rows
    checked = 0
    while checked < 20:
        x = rand_x(rng, angle=0.3, rate=0.5)
        od = output_data(x, gait, params)
        x_w = np.concatenate([od.h_d, 0.3 * rng.standard_normal(2)])
        g = gamma_of(x_w, od, gait)
        if g <= 0.0 or g >= GAMMA_CAP:
            continue
        checked += 1
        C_x, C_w, C_limit, P = oracles.constraint_rows(od.LgLfh, od.Lf2h, gait)
        pr = np.diag(P)
        for _ in range(100):
            e = rng.standard_normal(4)
            e *= np.sqrt(0.999 * g / (e ** 2 @ pr))
            rows = C_x @ (x_w + e) + C_w @ x_w + C_limit
            assert np.min(rows[np.isfinite(C_limit)]) > -1e-9


def test_governor_rate_margin_and_sign_laws(rng):
    w = [0.2, -0.4]
    target = [1.0, -1.5]
    assert governor_rate(w, target, 0.0, 100.0, 50.0, 0.01) == [0.0, 0.0]
    assert governor_rate(w, target, -3.0, 100.0, 50.0, 0.01) == [0.0, 0.0]
    assert np.max(np.abs(governor_rate(w, w, 5.0, 100.0, 50.0, 0.01))) == 0.0

    for _ in range(200):
        w = rng.standard_normal(2)
        target = rng.standard_normal(2)
        margin = rng.uniform(0.0, 5.0)
        dw = np.array(governor_rate(w.tolist(), target.tolist(), margin, 100.0, 50.0, 0.01))
        amp = min(100.0 * margin, 50.0)
        assert np.all(np.sign(dw) == np.sign(target - w))
        assert np.max(np.abs(dw)) <= amp + 1e-12

    # far from the target the slew saturates at the amplitude
    dw = np.array(governor_rate([0.0, 0.0], [1.0, -1.0], 10.0, 100.0, 50.0, 0.01))
    assert np.max(np.abs(np.abs(dw) - 50.0)) < 1e-8


def test_governor_rate_drives_w_to_the_target():
    target = np.array([0.7, -0.3])
    w = target + np.array([0.5, -0.5])

    def f(t, w):
        return np.array(governor_rate(w.tolist(), target.tolist(), 1e9, 100.0, 50.0, 0.01))

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

        u = np.array(partitioned_torque(D.tolist(), H.tolist(), *(dw - v).tolist()))
        assert np.max(np.abs(u - u_ref)) < 1e-8 * (1.0 + np.max(np.abs(u_ref)))

        ddq = np.linalg.solve(D, terms.B @ u - H)
        assert np.max(np.abs(ddq[1:] - (dw - v))) < 1e-8


def test_partitioned_torque_drift_term(rng, params):
    for _ in range(50):
        x = rand_x(rng)
        terms = ss_dynamics(x[:3], x[3:], params)
        D, H = terms.D, terms.H
        u = np.array(partitioned_torque(D.tolist(), H.tolist(), 0.0, 0.0))
        beta2 = H[1:] - D[1:, 0] * (H[0] / D[0, 0])
        assert np.max(np.abs(u - beta2)) < 1e-10 * (1.0 + np.max(np.abs(beta2)))
        ddq = np.linalg.solve(D, terms.B @ u - H)
        assert np.max(np.abs(ddq[1:])) < 1e-9


def test_partitioned_torque_rejects_singular_partition():
    D = np.eye(3)
    D[0, 0] = 0.0
    with pytest.raises(SingularDynamicsError):
        partitioned_torque(D.tolist(), [0.0] * 3, 0.0, 0.0)


def test_initial_w_starts_with_zero_velocity_error(rng, gait, params):
    ctrl = SsController(gait, params)
    x = rand_x(rng, angle=0.3, rate=0.5)
    w = ctrl.initial_w(x)
    assert np.array_equal(w, x[4:6])
    od = output_data(x, gait, params)
    V = lyapunov_value((x_a_of(x) - np.concatenate([od.h_d, w])).tolist(),
                       gait.tracking_metric)
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


@pytest.mark.parametrize("case", ["default", "tight torque", "unbounded state",
                                  "governor off"])
def test_pipeline_is_the_composition_of_the_layer_functions(rng, gait, params, case):
    # the controller chains the public layer functions; composing them here
    # must give the controller's values bit for bit, and its Gamma must
    # match the projection onto the numpy constraint rows
    if case == "tight torque":
        gait = dataclasses.replace(gait, u_max=np.array([0.5, 0.2]))
    elif case == "unbounded state":
        gait = dataclasses.replace(gait, x_max=np.array([np.inf, 1.2, np.inf, 10.0]))
    governed = case != "governor off"
    checked = 0
    for _ in range(300):
        z = np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-2.0, 2.0, 5)])
        x, w = z[:6], z[6:].tolist()
        ctrl = SsController(gait, params, governor_enabled=governed)
        try:
            smp = ctrl.sample(z)
        except DecouplingSingularityError:
            continue
        terms = ss_dynamics(x[:3], x[3:], params)
        od = output_data(x, gait, params, terms=terms)
        k2, k3, limits = torque_rows(od, gait)
        x_w = od.h_d.tolist() + w
        V = lyapunov_value((x_a_of(x) - np.array(x_w)).tolist(), gait.tracking_metric)
        Gamma = gamma_bound(x_w, k2, k3, limits, gait)
        dw = governor_rate(w, od.dh_d_dt.tolist(), Gamma - V, ctrl.kappa,
                           ctrl.rate_cap, ctrl.sign_eps) if governed else [0.0, 0.0]
        v = pd_accel(od.y.tolist(), x[4:6].tolist(), w, gait.pd_gains)
        u_raw = partitioned_torque(terms.D.tolist(), terms.H.tolist(),
                                   dw[0] - v[0], dw[1] - v[1])
        u = np.clip(u_raw, -gait.u_max, gait.u_max)
        (ddq,) = solve_ddq(terms.D.tolist(), [(terms.B @ u - terms.H).tolist()])
        assert smp.V == V and smp.Gamma == Gamma
        assert np.array_equal(smp.u_raw, u_raw) and np.array_equal(smp.u, u)
        assert np.array_equal(smp.ddq, ddq)
        assert np.array_equal(ctrl.field(0.0, z), np.concatenate([x[3:], ddq, dw]))
        rows = oracles.constraint_rows(od.LgLfh, od.Lf2h, gait)
        want = min(oracles.gamma_projection(np.array(x_w), *rows), GAMMA_CAP)
        assert abs(Gamma - want) <= 1e-9 * (1.0 + want)
        checked += 1
    assert checked > 250


@pytest.mark.parametrize("entry", [0, 2, 3, 5, 6, 7])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_field_rejects_a_non_finite_state_by_name(gait, params, entry, value):
    x = on_manifold_state(gait, 0.4, -0.9)
    z = np.concatenate([x, x[4:6]])
    z[entry] = value
    name = "q" if entry < 3 else "dq" if entry < 6 else "w"
    with pytest.raises(ValueError, match=f"^{name} contains non-finite entries$"):
        SsController(gait, params).field(0.0, z)


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
