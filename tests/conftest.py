import dataclasses

import numpy as np
import pytest

import oracles
from thrusterbiped.config import default_scenario
from thrusterbiped.dynamics import (
    B_SS,
    contact_kinematics,
    contact_solve,
    ext_dynamics,
    solve_ddq,
    ss_dynamics,
)
from thrusterbiped.gait import GaitDesignSpec, design_gait
from thrusterbiped.harness import run_walk
from thrusterbiped.params import ModelParams


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def gait(params):
    return design_gait(GaitDesignSpec(), params)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="session")
def default_cfg():
    return default_scenario()


@pytest.fixture(scope="session")
def one_step_log(default_cfg):
    """One full gait cycle; shared by tests that only inspect logged samples."""
    cfg = dataclasses.replace(
        default_cfg, sim=dataclasses.replace(default_cfg.sim, n_steps=1))
    log = run_walk(cfg)
    assert log.completed_steps == 1, log.aborted
    return log


def random_pinned_state(rng, angle=0.5, rate=1.0):
    q = rng.uniform(-angle, angle, size=3)
    dq = rng.uniform(-rate, rate, size=3)
    return q, dq


def random_extended_state(rng, angle=0.5, rate=1.0):
    q_e = np.concatenate([
        rng.uniform(-angle, angle, size=3),
        rng.uniform(-1.0, 1.0, size=2),
    ])
    dq_e = np.concatenate([
        rng.uniform(-rate, rate, size=3),
        rng.uniform(-rate, rate, size=2),
    ])
    return q_e, dq_e


def ss_arrays(q, dq, params):
    """D and H of `ss_dynamics` at an array state, as arrays."""
    D, H = ss_dynamics(np.asarray(q, dtype=float).tolist(),
                       np.asarray(dq, dtype=float).tolist(), params)
    return np.array(D), np.array(H)


def ext_arrays(q_e, dq_e, params):
    """D and H of `ext_dynamics` at an array state, as arrays."""
    D, H, _ = ext_dynamics(np.asarray(q_e, dtype=float).tolist(),
                           np.asarray(dq_e, dtype=float).tolist(), params)
    return np.array(D), np.array(H)


def contact_arrays(q_e, dq_e, params):
    """p1, p2, the 4x5 J and Jdot qdot of `contact_kinematics`, as arrays."""
    p1, p2, legs, jdot_qdot = contact_kinematics(
        np.asarray(q_e, dtype=float).tolist(), np.asarray(dq_e, dtype=float).tolist(),
        params)
    return (np.array(p1), np.array(p2), oracles.contact_jacobian(legs),
            np.array(jdot_qdot))


def solve_columns(D, legs, rhs_dyn, rhs_con):
    """`contact_solve` on the columns of two arrays; (x, lam) as arrays."""
    out = contact_solve(D, legs, zip(rhs_dyn.T.tolist(), rhs_con.T.tolist()))
    return np.array([x for x, _ in out]).T, np.array([lam for _, lam in out]).T


def pinned_vector_field(x_s, u, params):
    """Single-support state derivative for x_s = [q, dq] under torque u.

    The package's pinned model, `ss_dynamics` and `solve_ddq`, as an
    ``f(x)`` for the integrators; D ddq = B u - H.
    """
    x_s = np.asarray(x_s, dtype=float)
    D, H = ss_dynamics(x_s[:3].tolist(), x_s[3:].tolist(), params)
    rhs = np.array(B_SS) @ np.asarray(u, dtype=float) - np.array(H)
    (ddq,) = solve_ddq(D, [rhs.tolist()])
    return np.concatenate([x_s[3:], ddq])
