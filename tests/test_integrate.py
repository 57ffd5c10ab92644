import numpy as np
import pytest

from thrusterbiped.errors import NumericalFailureError
from thrusterbiped.integrate import integrate_rk4, rk4_step


def test_exponential_decay_accuracy():
    res = integrate_rk4(lambda t, x: -x, np.array([1.0]), 0.0, 1.0, 1e-3)
    assert abs(res.t[-1] - 1.0) < 1e-12
    assert abs(res.x[-1, 0] - np.exp(-1.0)) < 1e-10
    assert res.event is None and res.abort_reason is None


def test_oscillator_energy_decay_matches_the_closed_form():
    # on z' = (z2, -z1) one RK4 step of size h is a rotation scaled by |R|,
    # with |R|^2 = 1 - h^6/72 + h^8/576, so the energy after n steps is
    # exactly 0.5 |R|^(2n); ten periods at twenty steps each lose ~2.6e-3 of it
    h = 2.0 * np.pi / 20.0
    n = 200
    x = np.array([1.0, 0.0])

    def field(t, z):
        return np.array([z[1], -z[0]])

    for k in range(n):
        x = rk4_step(field, k * h, x, h)
    energy = 0.5 * (x[0] ** 2 + x[1] ** 2)
    exact = 0.5 * (1.0 - h**6 / 72.0 + h**8 / 576.0) ** n
    assert 1.0 - exact / 0.5 > 2e-3
    assert abs(energy - exact) < 1e-12 * exact


def test_guard_event_at_analytic_root():
    res = integrate_rk4(lambda t, x: -x, np.array([1.0]), 0.0, 2.0, 1e-3,
                        guard=lambda x: x[0] - 0.5)
    assert res.event is not None
    assert abs(res.event.t - np.log(2.0)) < 1e-9
    assert res.t[-1] == res.event.t


def test_nonfinite_state_raises():
    def field(t, x):
        return np.array([np.nan if t >= 0.5 else -x[0]])

    with pytest.raises(NumericalFailureError):
        integrate_rk4(field, np.array([1.0]), 0.0, 1.0, 0.05)


def test_rejects_bad_steps():
    with pytest.raises(ValueError):
        integrate_rk4(lambda t, x: -x, np.array([1.0]), 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate_rk4(lambda t, x: -x, np.array([1.0]), 1.0, 1.0, 1e-3)
    with pytest.raises(ValueError):
        integrate_rk4(lambda t, x: -x, np.array([np.nan]), 0.0, 1.0, 1e-3)


def test_unarmed_crossings_are_ignored():
    # crossing at t = ln 2 is ignored because arming requires x < 0.4;
    # integration then runs to the horizon
    res = integrate_rk4(lambda t, x: -x, np.array([1.0]), 0.0, 2.0, 1e-3,
                        guard=lambda x: x[0] - 0.5,
                        guard_armed=lambda x: x[0] < 0.4)
    assert res.event is None


def test_grazing_crossings_are_skipped():
    # parabola dips to -eps at t = 1 and recovers; the slope filter sees a
    # near-tangential crossing and integration continues to the horizon
    def field(t, x):
        return np.array([2.0 * (t - 1.0)])

    eps = 1e-6
    res = integrate_rk4(field, np.array([1.0 - eps]), 0.0, 3.0, 1e-2,
                        guard=lambda x: x[0],
                        guard_descending=lambda x: -0.05)
    assert res.event is not None  # slope filter accepts descending crossings

    res2 = integrate_rk4(field, np.array([1.0 - eps]), 0.0, 3.0, 1e-2,
                         guard=lambda x: x[0],
                         guard_descending=lambda x: 0.05)
    assert res2.event is None
    assert abs(res2.t[-1] - 3.0) < 1e-12
