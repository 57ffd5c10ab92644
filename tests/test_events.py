import numpy as np
import pytest

import oracles
from conftest import contact_arrays, ext_arrays
from thrusterbiped.dynamics import energies, extend_pinned_state
from thrusterbiped.errors import EventLocationError, SingularImpactError
from thrusterbiped.events import (
    RELABEL_Q,
    impact_map,
    locate_event,
    relabel,
    swing_foot_descending,
    touchdown_guard,
)


def impact_state(rng, params):
    """Pre-touchdown state: legs well separated so both contacts are independent."""
    q = np.array([
        rng.uniform(-0.4, 0.4),
        rng.choice([-1.0, 1.0]) * rng.uniform(0.15, 0.6),
        rng.uniform(-0.4, 0.4),
    ])
    dq = rng.uniform(-1.5, 1.5, size=3)
    return extend_pinned_state(q, dq, np.zeros(2), params)


def test_guard_zero_when_legs_coincide(params):
    assert touchdown_guard(np.array([0.25, 0.0, 0.1, 0, 0, 0]), params) == 0.0


def test_guard_zero_at_mirror_posture(params):
    for q1 in (0.05, 0.2, 0.37):
        x = np.array([q1, -2.0 * q1, 0.1, 0, 0, 0])
        assert abs(touchdown_guard(x, params)) < 1e-12


def test_guard_equals_swing_foot_height(params, rng):
    for _ in range(50):
        q = rng.uniform(-0.6, 0.6, size=3)
        x = np.concatenate([q, rng.uniform(-1, 1, size=3)])
        q_e, dq_e = extend_pinned_state(q, x[3:], np.zeros(2), params)
        _, p2, _, _ = contact_arrays(q_e, dq_e, params)
        assert abs(touchdown_guard(x, params) - p2[1]) < 1e-12


def test_descent_rate_equals_contact_jacobian_row(params, rng):
    for _ in range(50):
        q = rng.uniform(-0.6, 0.6, size=3)
        dq = rng.uniform(-2, 2, size=3)
        x = np.concatenate([q, dq])
        q_e, dq_e = extend_pinned_state(q, dq, np.zeros(2), params)
        _, _, J, _ = contact_arrays(q_e, dq_e, params)
        assert abs(swing_foot_descending(x, params) - J[3] @ dq_e) < 1e-12


def test_locate_event_linear_guard():
    # state is scalar t itself under the default linear interpolation
    ev = locate_event(0.0, np.array([0.0]), 1.0, np.array([1.0]),
                      guard=lambda x: 0.37 - x[0])
    assert abs(ev.t - 0.37) < 1e-10
    assert ev.iterations <= 60


def test_locate_event_zero_at_start():
    ev = locate_event(2.0, np.array([0.5]), 3.0, np.array([1.0]),
                      guard=lambda x: 0.0 * x[0])
    assert ev.t == 2.0
    assert ev.iterations == 0


def test_locate_event_cubic_guard():
    ev = locate_event(0.0, np.array([0.0]), 1.0, np.array([1.0]),
                      guard=lambda x: 0.027 - x[0] ** 3)
    assert abs(ev.t - 0.3) < 1e-9
    assert ev.iterations <= 60


def test_locate_event_requires_sign_change():
    with pytest.raises(EventLocationError):
        locate_event(0.0, np.array([0.0]), 1.0, np.array([1.0]),
                     guard=lambda x: 1.0 + x[0])
    with pytest.raises(EventLocationError):
        locate_event(0.0, np.array([0.0]), 1.0, np.array([1.0]),
                     guard=lambda x: -0.5 + x[0])


def test_impact_at_rest_is_identity(params, rng):
    q_e, _ = impact_state(rng, params)
    res = impact_map(q_e, np.zeros(5), params)
    assert np.max(np.abs(res.dq_e_plus)) < 1e-12
    assert np.max(np.abs(res.lambda_imp)) < 1e-12


def test_impact_matches_velocity_projection(params, rng):
    for _ in range(1000):
        q_e, dq_e = impact_state(rng, params)
        res = impact_map(q_e, dq_e, params)
        D, _ = ext_arrays(q_e, dq_e, params)
        _, _, J, _ = contact_arrays(q_e, dq_e, params)
        dq_plus, lam = oracles.impact_projection(D, J, dq_e)
        assert np.max(np.abs(res.dq_e_plus - dq_plus)) < 1e-9
        assert np.max(np.abs(res.lambda_imp - lam)) < 1e-9


def test_impact_dissipates_kinetic_energy(params, rng):
    for _ in range(200):
        q_e, dq_e = impact_state(rng, params)
        res = impact_map(q_e, dq_e, params)
        K_minus, _ = energies(q_e, dq_e, params, "extended")
        K_plus, _ = energies(q_e, res.dq_e_plus, params, "extended")
        assert K_plus <= K_minus + 1e-12


def test_impact_zeroes_both_foot_velocities(params, rng):
    for _ in range(200):
        q_e, dq_e = impact_state(rng, params)
        res = impact_map(q_e, dq_e, params)
        _, _, J, _ = contact_arrays(q_e, dq_e, params)
        assert np.max(np.abs(J @ res.dq_e_plus)) < 1e-9


def test_impact_impulse_balances_momentum_change(params, rng):
    for _ in range(200):
        q_e, dq_e = impact_state(rng, params)
        res = impact_map(q_e, dq_e, params)
        D, _ = ext_arrays(q_e, dq_e, params)
        _, _, J, _ = contact_arrays(q_e, dq_e, params)
        gap = D @ (res.dq_e_plus - dq_e) - J.T @ res.lambda_imp
        assert np.max(np.abs(gap)) < 1e-9


def test_impact_rejects_coincident_feet(params):
    q_e, dq_e = extend_pinned_state(
        np.array([0.2, 0.0, 0.1]), np.array([0.5, 0.1, -0.2]),
        np.zeros(2), params)
    with pytest.raises(SingularImpactError):
        impact_map(q_e, dq_e, params)


def test_impact_rejects_nearly_collinear_legs(params):
    # leg-block determinant -l^2 sin(1e-13) ~ -4e-14, below the 1e-12 bound
    q_e, dq_e = extend_pinned_state(
        np.array([0.2, 1e-13, 0.1]), np.array([0.5, 0.1, -0.2]),
        np.zeros(2), params)
    with pytest.raises(SingularImpactError):
        impact_map(q_e, dq_e, params)


@pytest.mark.parametrize("name", ["q_e", "dq_e"])
def test_impact_map_rejects_non_finite_states(params, name):
    for bad in (np.nan, np.inf):
        state = {"q_e": np.zeros(5), "dq_e": np.zeros(5)}
        state[name][3] = bad
        with pytest.raises(ValueError, match=f"^{name} contains non-finite entries"):
            impact_map(state["q_e"], state["dq_e"], params)


def test_impact_states_stay_clear_of_the_collinear_guard(params, rng):
    # |q2| >= 0.15 keeps the leg-block determinant l^2 |sin q2| near 0.06,
    # ten orders above the guard
    for _ in range(2000):
        q_e, dq_e = impact_state(rng, params)
        impact_map(q_e, dq_e, params)


def test_relabel_is_an_involution(params, rng):
    assert np.array_equal(RELABEL_Q @ RELABEL_Q, np.eye(3))
    q_e, dq_e = impact_state(rng, params)
    q2, dq2 = relabel(q_e, dq_e)
    q3, dq3 = relabel(q2, dq2)
    assert np.max(np.abs(q3 - q_e)) < 1e-15
    assert np.max(np.abs(dq3 - dq_e)) < 1e-15


def test_relabel_swaps_leg_roles(params, rng):
    for _ in range(50):
        q_e, dq_e = impact_state(rng, params)
        p1, p2, J, _ = contact_arrays(q_e, dq_e, params)
        q2, dq2 = relabel(q_e, dq_e)
        p1_new, p2_new, J_new, _ = contact_arrays(q2, dq2, params)
        # foot positions trade places, the hip stays put
        assert np.max(np.abs(p1_new - p2)) < 1e-10
        assert np.max(np.abs(p2_new - p1)) < 1e-10
        assert np.array_equal(q2[3:], q_e[3:])
        assert np.array_equal(dq2[3:], dq_e[3:])
        # absolute link angles are preserved under the swap
        assert abs(q2[0] - (q_e[0] + q_e[1])) < 1e-15
        assert abs((q2[0] + q2[1] + q2[2]) - (q_e[0] + q_e[1] + q_e[2])) < 1e-15
        # foot velocities trade places as well
        v = (J @ dq_e).reshape(2, 2)
        v2 = (J_new @ dq2).reshape(2, 2)
        assert np.max(np.abs(v2[0] - v[1])) < 1e-10
        assert np.max(np.abs(v2[1] - v[0])) < 1e-10
