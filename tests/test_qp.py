import numpy as np
import pytest

import oracles
from thrusterbiped.qp import INFEASIBLE, OPTIMAL, solve_qp


def random_spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + n * np.eye(n)


def test_unconstrained_minimum():
    P = np.diag([2.0, 4.0])
    q = np.array([-2.0, 8.0])
    sol = solve_qp(P, q)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.z, [1.0, -2.0], atol=1e-12)
    assert sol.active == []


def test_box_constrained_known_solution():
    # min 0.5||z||^2 - c.z with z <= b clips each coordinate independently
    c = np.array([3.0, -1.0, 0.5])
    b = np.array([1.0, 2.0, 0.2])
    sol = solve_qp(np.eye(3), -c, np.eye(3), b)
    assert sol.status == OPTIMAL
    assert np.allclose(sol.z, np.minimum(c, b), atol=1e-9)
    assert np.allclose(sol.duals, np.maximum(c - b, 0.0), atol=1e-9)
    assert sorted(sol.active) == [0, 2]


def test_single_plane_projection():
    sol = solve_qp(np.eye(2), np.zeros(2), np.array([[1.0, 1.0]]),
                   np.array([-2.0]))
    assert sol.status == OPTIMAL
    assert np.allclose(sol.z, [-1.0, -1.0], atol=1e-10)
    assert np.allclose(sol.duals, [1.0], atol=1e-10)


def test_infeasible_pair_detected():
    # z >= 1 and z <= -1 cannot both hold
    G = np.array([[1.0], [-1.0]])
    h = np.array([-1.0, -1.0])
    sol = solve_qp(np.eye(1), np.zeros(1), G, h)
    assert sol.status == INFEASIBLE


def test_indefinite_hessian_rejected():
    # min 0.5 (z1^2 - z2^2) + z2 is unbounded below along z2; its stationary
    # point (0, 1) is a saddle, not a minimum
    with pytest.raises(ValueError, match="P must be positive definite"):
        solve_qp(np.diag([1.0, -1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError, match="P must be positive definite"):
        solve_qp(np.diag([1.0, 0.0]), np.zeros(2), np.eye(2), np.ones(2))


def test_zero_row_rejected():
    G = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        solve_qp(np.eye(2), np.zeros(2), G, np.ones(2))


def test_random_instances_satisfy_kkt(rng):
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(0, 21))
        P = random_spd(rng, n)
        q = rng.standard_normal(n) * 2.0
        if m == 0:
            sol = solve_qp(P, q)
            assert sol.status == OPTIMAL
            assert np.max(np.abs(P @ sol.z + q)) < 1e-9
            continue
        G = rng.standard_normal((m, n))
        z_feas = rng.standard_normal(n)
        h = G @ z_feas + rng.uniform(0.0, 1.0, m)
        sol = solve_qp(P, q, G, h)
        assert sol.status == OPTIMAL, trial
        res = oracles.kkt_residuals(P, q, G, h, sol.z, sol.duals)
        assert res["stationarity"] < 1e-7
        assert res["primal"] < 1e-8
        assert res["dual"] == 0.0
        assert res["complementarity"] < 1e-6


def test_matches_enumeration_oracle(rng):
    for trial in range(200):
        n = int(rng.integers(2, 4))
        m = int(rng.integers(1, 7))
        P = random_spd(rng, n)
        q = rng.standard_normal(n) * 2.0
        G = rng.standard_normal((m, n))
        z_feas = rng.standard_normal(n) * 0.5
        h = G @ z_feas + rng.uniform(0.1, 1.0, m)
        sol = solve_qp(P, q, G, h)
        assert sol.status == OPTIMAL
        z_ref = oracles.qp_brute_force(P, q, G, h)
        assert z_ref is not None
        assert np.max(np.abs(sol.z - z_ref)) < 1e-7, trial


def test_tight_feasible_set_still_solves(rng):
    # all rows active at the optimum: project the origin onto a small simplex
    for trial in range(100):
        n = 3
        P = np.eye(n)
        q = np.zeros(n)
        G = -np.eye(n)
        h = -np.ones(n) * rng.uniform(0.1, 2.0)
        sol = solve_qp(P, q, G, h)
        assert sol.status == OPTIMAL
        assert np.allclose(sol.z, -h, atol=1e-9)
        res = oracles.kkt_residuals(P, q, G, h, sol.z, sol.duals)
        assert res["stationarity"] < 1e-9
