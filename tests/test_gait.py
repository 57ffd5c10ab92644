import dataclasses

import numpy as np
import pytest

import oracles
from conftest import pinned_vector_field
from thrusterbiped.dynamics import extend_pinned_state
from thrusterbiped.errors import DecouplingSingularityError, GaitDesignError
from thrusterbiped.events import impact_map, relabel
from thrusterbiped.gait import (
    GaitDesignSpec,
    bezier_eval,
    decoupling_or_raise,
    design_gait,
    nominal_start_state,
    output_data,
    phase,
    zero_dynamics_residual,
)
from thrusterbiped.integrate import integrate_rk4, rk4_step


def on_manifold_state(gait, s, theta_dot):
    span = gait.theta_minus - gait.theta_plus
    sp = 1.0 / span
    h, dh, _ = bezier_eval(gait.bezier, s)
    theta = gait.theta_plus + s * span
    return np.array([theta, h[0], h[1],
                     theta_dot, dh[0] * sp * theta_dot, dh[1] * sp * theta_dot])


def independent_y(x, gait):
    span = gait.theta_minus - gait.theta_plus
    s = (x[0] - gait.theta_plus) / span
    s = min(max(s, 0.0), 1.0)
    return x[1:3] - oracles.bernstein_value(gait.bezier, s)


def test_phase_endpoints(gait):
    assert phase(gait.theta_plus, gait).s == 0.0
    assert phase(gait.theta_minus, gait).s == 1.0
    mid = 0.5 * (gait.theta_plus + gait.theta_minus)
    assert abs(phase(mid, gait).s - 0.5) < 1e-15


def test_constant_curve_has_zero_derivatives():
    coeffs = np.full((2, 6), 0.7)
    for s in (0.0, 0.31, 1.0):
        v, d1, d2 = bezier_eval(coeffs, s)
        assert np.max(np.abs(v - 0.7)) < 1e-15
        assert np.max(np.abs(d1)) < 1e-15
        assert np.max(np.abs(d2)) < 1e-15


def test_bezier_eval_rejects_rows_of_another_degree():
    for coeffs in (np.zeros((2, 5)), np.zeros(7), np.float64(0.0)):
        with pytest.raises(ValueError, match="must have 6 control points"):
            bezier_eval(coeffs, 0.5)


def test_curve_interpolates_endpoints(gait):
    v0, _, _ = bezier_eval(gait.bezier, 0.0)
    v1, _, _ = bezier_eval(gait.bezier, 1.0)
    assert np.array_equal(v0, gait.bezier[:, 0])
    assert np.array_equal(v1, gait.bezier[:, -1])


def test_curve_matches_bernstein_basis(gait, rng):
    for s in rng.uniform(0.0, 1.0, size=200):
        v, _, _ = bezier_eval(gait.bezier, s)
        assert np.max(np.abs(v - oracles.bernstein_value(gait.bezier, s))) < 1e-12
    for s in np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, size=200)]):
        assert np.array_equal(bezier_eval(gait.bezier, s),
                              oracles.de_casteljau_numpy(gait.bezier, s))


def test_curve_derivatives_match_differences(gait, rng):
    for s in rng.uniform(0.05, 0.95, size=50):
        v, d1, d2 = bezier_eval(gait.bezier, s)
        _, d1_fd, d2_fd = oracles.bernstein_fd(gait.bezier, s)
        assert np.max(np.abs(d1 - d1_fd)) < 1e-7
        assert np.max(np.abs(d2 - d2_fd)) < 1e-5


def test_phase_clamping_outside_design_range(gait, params):
    x = on_manifold_state(gait, 0.5, -0.5)
    x[0] = gait.theta_minus - 0.01  # past touchdown
    od = output_data(x.tolist(), gait, params)
    assert od.s == 1.0
    assert od.s_raw > 1.0
    assert np.array_equal(od.h_d, bezier_eval(gait.bezier, 1.0)[0])


def test_outputs_vanish_on_manifold(gait, params, rng):
    for s in rng.uniform(0.0, 1.0, size=20):
        x = on_manifold_state(gait, s, rng.uniform(-1.0, -0.1))
        od = output_data(x.tolist(), gait, params)
        assert np.max(np.abs(od.y)) < 1e-12
        assert np.max(np.abs(od.dy)) < 1e-12


def test_output_acceleration_matches_flow(gait, params, rng):
    # ddy from the Lie terms must match a second difference of y along the
    # actual flow under constant torque
    for _ in range(5):
        s = rng.uniform(0.3, 0.7)
        x0 = on_manifold_state(gait, s, -0.5)
        x0[1:3] += rng.uniform(-0.05, 0.05, size=2)
        x0[3:] += rng.uniform(-0.2, 0.2, size=3)
        u = rng.uniform(-2.0, 2.0, size=2)
        od = output_data(x0.tolist(), gait, params)
        ddy = np.array(od.Lf2h) + np.array(od.LgLfh) @ u

        def flow_to(tau, n=100):
            x = x0.copy()
            h = tau / n
            for _ in range(n):
                x = rk4_step(lambda t, z: pinned_vector_field(z, u, params),
                             0.0, x, h)
            return x

        y0 = independent_y(x0, gait)

        def second_difference(d):
            yp = independent_y(flow_to(d), gait)
            ym = independent_y(flow_to(-d), gait)
            return (yp - 2.0 * y0 + ym) / (d * d)

        coarse = second_difference(2e-4)
        fine = second_difference(1e-4)
        ddy_fd = (4.0 * fine - coarse) / 3.0
        assert np.max(np.abs(ddy - ddy_fd)) < 1e-4


def test_linearizing_torque_cancels_drift(gait, params, rng):
    for _ in range(20):
        s = rng.uniform(0.05, 0.95)
        x = on_manifold_state(gait, s, -0.5)
        x[1:] += rng.uniform(-0.1, 0.1, size=5)
        od = output_data(x.tolist(), gait, params)
        decoupling_or_raise(od.LgLfh)
        W, drift = np.array(od.LgLfh), np.array(od.Lf2h)
        u_star = np.linalg.solve(W, -drift)
        assert np.max(np.abs(drift + W @ u_star)) < 1e-10


def test_decoupling_rejects_singular_input_map():
    with pytest.raises(DecouplingSingularityError):
        decoupling_or_raise([[1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("key, value", [
    ("u_max", [-1.0, -1.0]),
    ("u_max", [0.0, 3.0]),
    ("u_max", [3.0, np.nan]),
    ("x_max", [-1.2, -1.2, -10.0, -10.0]),
    ("x_max", [1.2, 1.2, 0.0, 10.0]),
    ("x_max", [1.2, np.nan, 10.0, 10.0]),
    ("x_max", [1.2, 1.2, -np.inf, 10.0]),
])
def test_gait_rejects_non_positive_or_nan_limits(gait, key, value):
    with pytest.raises(ValueError, match=f"^{key} entries must be positive$"):
        dataclasses.replace(gait, **{key: np.array(value)})


def test_designed_endpoints_reproduce_boundary_postures(gait, params):
    q2_minus = -2.0 * gait.theta_minus
    q3_minus = GaitDesignSpec().torso_lean - gait.theta_minus - q2_minus
    assert abs(gait.theta_plus + gait.theta_minus) < 1e-15
    assert np.max(np.abs(gait.bezier[:, -1] - [q2_minus, q3_minus])) < 1e-14
    assert np.max(np.abs(gait.bezier[:, 0]
                         - [-q2_minus, q2_minus + q3_minus])) < 1e-14


def test_designed_endpoints_are_relabel_consistent(gait):
    from thrusterbiped.events import RELABEL_Q

    end = np.array([gait.theta_minus, gait.bezier[0, -1], gait.bezier[1, -1]])
    start = np.array([gait.theta_plus, gait.bezier[0, 0], gait.bezier[1, 0]])
    assert np.max(np.abs(RELABEL_Q @ end - start)) < 1e-14


def test_design_rejects_bad_boundary_data(params):
    with pytest.raises(GaitDesignError):
        design_gait(dataclasses.replace(GaitDesignSpec(), step_length=2.0), params)
    with pytest.raises(GaitDesignError):
        design_gait(dataclasses.replace(GaitDesignSpec(), step_length=-0.1), params)
    with pytest.raises(GaitDesignError):
        design_gait(dataclasses.replace(GaitDesignSpec(), step_duration=0.0), params)
    with pytest.raises(GaitDesignError):
        design_gait(
            dataclasses.replace(GaitDesignSpec(), impact_theta_dot=0.5), params)


def test_design_reports_ground_violation_location(params):
    # swing slope above the graze gearing puts the foot under ground right
    # after the step starts; the error must say where
    spec = dataclasses.replace(GaitDesignSpec(), start_slopes=(0.5, 0.0))
    with pytest.raises(GaitDesignError) as err:
        design_gait(spec, params)
    assert "s=" in str(err.value)


def test_designed_step_completes_on_reduced_flow(gait, params):
    done, trace = oracles.reduced_step_completes(gait, params, -0.15)
    assert done
    assert trace[-1] <= gait.theta_minus + 1e-9
    # phase advances monotonically on the restriction
    assert np.all(np.diff(trace) < 0.0)


def test_swing_foot_clears_ground_along_design(gait, params):
    span = gait.theta_minus - gait.theta_plus
    for s in np.linspace(0.0, 1.0, 1000):
        h = oracles.bernstein_value(gait.bezier, s)
        theta = gait.theta_plus + s * span
        clearance = params.l * (np.cos(theta) - np.cos(theta + h[0]))
        assert clearance > -1e-9
        assert np.all(np.abs(h) <= gait.x_max[:2] + 1e-12)


def test_residual_zero_on_manifold(gait, params, rng):
    for s in rng.uniform(0.0, 1.0, size=10):
        x = on_manifold_state(gait, s, -0.4)
        assert zero_dynamics_residual(x, gait, params) < 1e-24


def test_residual_counts_position_error_quadratically(gait, params):
    x = on_manifold_state(gait, 0.4, -0.4)
    x[1] += 0.1  # same rates, so dy stays zero
    assert abs(zero_dynamics_residual(x, gait, params) - 0.01) < 1e-12


def test_impact_alone_leaves_the_manifold(gait, params):
    # without the double-support correction the relabeled post-impact state
    # carries a visible invariance defect
    x_pre = on_manifold_state(gait, 1.0, -0.5)
    q_e, dq_e = extend_pinned_state(x_pre[:3], x_pre[3:], np.zeros(2), params)
    imp = impact_map(q_e, dq_e, params)
    q_e2, dq_e2 = relabel(q_e, imp.dq_e_plus)
    x_post = np.concatenate([q_e2[:3], dq_e2[:3]])
    assert zero_dynamics_residual(x_post, gait, params) > 1e-3


def test_nominal_start_state_matches_design(gait):
    x0 = nominal_start_state(gait)
    assert x0[0] == gait.theta_plus
    assert np.array_equal(x0[1:3], gait.bezier[:, 0])
    assert np.array_equal(x0[3:], [0.0, 0.0, gait.q3dot_start])


def test_exact_torque_holds_manifold_over_a_step(gait, params):
    x0 = on_manifold_state(gait, 1e-6, -0.15)

    def field(t, x):
        od = output_data(x.tolist(), gait, params)
        decoupling_or_raise(od.LgLfh)
        u = np.linalg.solve(np.array(od.LgLfh), -np.array(od.Lf2h))
        return pinned_vector_field(x, u, params)

    res = integrate_rk4(field, x0, 0.0, 5.0, 2e-4,
                        guard=lambda x: x[0] - gait.theta_minus)
    assert res.event is not None
    worst = max(np.linalg.norm(output_data(x.tolist(), gait, params).y)
                for x in res.x[::10])
    assert worst < 1e-6


def test_phase_advances_monotonically_in_closed_loop(one_step_log):
    q1 = one_step_log.column("q1", "SS")
    assert q1.size > 100
    assert np.all(np.diff(q1) < 0.0)
