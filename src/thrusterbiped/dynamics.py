"""Closed-form rigid-body dynamics of the planar three-link biped.

Coordinates
-----------
Pinned (single support) generalized coordinates ``q = [q1, q2, q3]``:

* ``q1``  absolute stance-leg angle, CCW from the world vertical; a link at
  absolute angle ``phi`` points along ``(-sin phi, cos phi)`` from foot to
  hip.  Forward walking has ``q1`` decreasing.
* ``q2``  swing leg relative to the stance leg (absolute ``q1 + q2``).
* ``q3``  torso relative to the swing leg (absolute ``q1 + q2 + q3``).

Extended coordinates ``q_e = [q1, q2, q3, ph_x, ph_y]`` append the hip
position; used around impact and in double support.

All terms below are hand-derived from the point-mass Jacobians
(``D = sum m J^T J``, ``H = sum m J^T (Jdot qdot) + grad V``) and hard-coded;
the finite-difference oracles in the test suite gate them.
"""

from __future__ import annotations

from math import cos, sin
from typing import NamedTuple

import numpy as np

from .errors import SingularContactError, SingularDynamicsError
from .params import ModelParams


class DynTerms(NamedTuple):
    """Manipulator terms: D(q) ddq + H(q, dq) = B u."""

    D: np.ndarray
    H: np.ndarray
    B: np.ndarray


class ContactKinematics(NamedTuple):
    """Foot positions and the stacked two-foot contact Jacobian.

    Rows of J are ordered (p1_x, p1_y, p2_x, p2_y); jdot_qdot is the
    velocity-product acceleration d(J qdot)/dt - J qddot of those rows.
    """

    p1: np.ndarray
    p2: np.ndarray
    J: np.ndarray
    jdot_qdot: np.ndarray


# actuation matrices are configuration independent: u2 acts on the relative
# swing-hip coordinate, u3 on the relative torso coordinate
_B_SS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
_B_EXT = np.array(
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]
)


def _require_finite(name: str, value: np.ndarray) -> None:
    if not np.isfinite(value).all():
        raise ValueError(f"{name} contains non-finite entries")


def ss_dynamics(q: np.ndarray, dq: np.ndarray, params: ModelParams) -> DynTerms:
    """Pinned single-support terms (stance foot at the origin)."""
    q = np.asarray(q, dtype=float)
    dq = np.asarray(dq, dtype=float)
    _require_finite("q", q)
    _require_finite("dq", dq)

    mh, mT, mk = params.m_h, params.m_T, params.m_k
    l, lT = params.l, params.l_T
    lh = 0.5 * l

    q1, q2, q3 = q
    s1, c1 = sin(q1), cos(q1)
    s12, c12 = sin(q1 + q2), cos(q1 + q2)
    s123, c123 = sin(q1 + q2 + q3), cos(q1 + q2 + q3)
    c2, s2 = cos(q2), sin(q2)
    c23, s23 = cos(q2 + q3), sin(q2 + q3)

    d11 = (
        mh * l * l
        + mT * (l * l + lT * lT + 2.0 * l * lT * c23)
        + mk * lh * lh
        + mk * (l * l + lh * lh - 2.0 * l * lh * c2)
    )
    d12 = mT * (lT * lT + l * lT * c23) + mk * (lh * lh - l * lh * c2)
    d13 = mT * (lT * lT + l * lT * c23)
    d22 = mT * lT * lT + mk * lh * lh
    d23 = mT * lT * lT
    d33 = mT * lT * lT
    D = np.array([[d11, d12, d13], [d12, d22, d23], [d13, d23, d33]])

    dq1, dq2, dq3 = dq
    w12 = dq1 + dq2
    w123 = dq1 + dq2 + dq3
    # velocity-product (Coriolis/centrifugal) terms
    h1 = mT * l * lT * s23 * (dq1 * dq1 - w123 * w123) + mk * l * lh * s2 * (
        w12 * w12 - dq1 * dq1
    )
    h2 = l * dq1 * dq1 * (mT * lT * s23 - mk * lh * s2)
    h3 = mT * l * lT * s23 * dq1 * dq1

    # gravity, stance-foot ground height as datum
    g = params.g
    A = l * (mh + mT + mk) + lh * mk
    Bc = -lh * mk
    Cc = lT * mT
    g1 = -g * (A * s1 + Bc * s12 + Cc * s123)
    g2 = -g * (Bc * s12 + Cc * s123)
    g3 = -g * Cc * s123

    H = np.array([h1 + g1, h2 + g2, h3 + g3])
    return DynTerms(D, H, _B_SS)


def _ext_terms(q_e: np.ndarray, dq_e: np.ndarray, params: ModelParams):
    """Shared assembly for the unpinned 5-DOF model."""
    mh, mT, mk = params.m_h, params.m_T, params.m_k
    l, lT = params.l, params.l_T
    lh = 0.5 * l
    Mtot = mh + mT + 2.0 * mk

    q1, q2, q3 = q_e[0], q_e[1], q_e[2]
    s1, c1 = sin(q1), cos(q1)
    s12, c12 = sin(q1 + q2), cos(q1 + q2)
    s123, c123 = sin(q1 + q2 + q3), cos(q1 + q2 + q3)

    D = np.zeros((5, 5))
    D[0, 0] = mT * lT * lT + 2.0 * mk * lh * lh
    D[0, 1] = D[1, 0] = mT * lT * lT + mk * lh * lh
    D[0, 2] = D[2, 0] = mT * lT * lT
    D[1, 1] = mT * lT * lT + mk * lh * lh
    D[1, 2] = D[2, 1] = mT * lT * lT
    D[2, 2] = mT * lT * lT
    D[0, 3] = D[3, 0] = -mT * lT * c123 + mk * lh * (c1 + c12)
    D[0, 4] = D[4, 0] = -mT * lT * s123 + mk * lh * (s1 + s12)
    D[1, 3] = D[3, 1] = -mT * lT * c123 + mk * lh * c12
    D[1, 4] = D[4, 1] = -mT * lT * s123 + mk * lh * s12
    D[2, 3] = D[3, 2] = -mT * lT * c123
    D[2, 4] = D[4, 2] = -mT * lT * s123
    D[3, 3] = Mtot
    D[4, 4] = Mtot

    dq1, dq2 = dq_e[0], dq_e[1]
    w12 = dq1 + dq2
    w123 = w12 + dq_e[2]
    g = params.g

    H = np.zeros(5)
    H[0] = g * (-mT * lT * s123 + mk * lh * (s1 + s12))
    H[1] = g * (-mT * lT * s123 + mk * lh * s12)
    H[2] = -g * mT * lT * s123
    H[3] = (
        mT * lT * s123 * w123 * w123
        - mk * lh * (s1 * dq1 * dq1 + s12 * w12 * w12)
    )
    H[4] = (
        -mT * lT * c123 * w123 * w123
        + mk * lh * (c1 * dq1 * dq1 + c12 * w12 * w12)
        + g * Mtot
    )
    return D, H, s123, c123


def ext_dynamics(q_e: np.ndarray, dq_e: np.ndarray, params: ModelParams) -> DynTerms:
    """Unpinned 5-DOF terms (hip position appended), joint torques only."""
    q_e = np.asarray(q_e, dtype=float)
    dq_e = np.asarray(dq_e, dtype=float)
    _require_finite("q_e", q_e)
    _require_finite("dq_e", dq_e)
    D, H, _, _ = _ext_terms(q_e, dq_e, params)
    return DynTerms(D, H, _B_EXT)


def ds_dynamics(q_e: np.ndarray, dq_e: np.ndarray, params: ModelParams) -> DynTerms:
    """Double-support terms with input eta = [u2, u3, F_th].

    Positive thrust presses from the torso tip toward the ground along the
    torso-link axis.  Applied at the torso mass point it exerts no moment on
    the joint coordinates and acts on the hip-translation rows only.
    """
    q_e = np.asarray(q_e, dtype=float)
    dq_e = np.asarray(dq_e, dtype=float)
    _require_finite("q_e", q_e)
    _require_finite("dq_e", dq_e)
    D, H, s123, c123 = _ext_terms(q_e, dq_e, params)
    B = np.zeros((5, 3))
    B[:, :2] = _B_EXT
    B[3, 2] = s123
    B[4, 2] = -c123
    return DynTerms(D, H, B)


def contact_kinematics(
    q_e: np.ndarray, dq_e: np.ndarray, params: ModelParams
) -> ContactKinematics:
    """Both foot positions plus J and its velocity-product term."""
    q_e = np.asarray(q_e, dtype=float)
    dq_e = np.asarray(dq_e, dtype=float)
    _require_finite("q_e", q_e)
    _require_finite("dq_e", dq_e)

    l = params.l
    q1, q2 = q_e[0], q_e[1]
    xh, yh = q_e[3], q_e[4]
    s1, c1 = sin(q1), cos(q1)
    s12, c12 = sin(q1 + q2), cos(q1 + q2)

    p1 = np.array([xh + l * s1, yh - l * c1])
    p2 = np.array([xh + l * s12, yh - l * c12])

    J = np.zeros((4, 5))
    J[0, 0] = l * c1
    J[1, 0] = l * s1
    J[0, 3] = J[2, 3] = 1.0
    J[1, 4] = J[3, 4] = 1.0
    J[2, 0] = J[2, 1] = l * c12
    J[3, 0] = J[3, 1] = l * s12

    dq1 = dq_e[0]
    w12 = dq1 + dq_e[1]
    jdot_qdot = np.array(
        [
            -l * s1 * dq1 * dq1,
            l * c1 * dq1 * dq1,
            -l * s12 * w12 * w12,
            l * c12 * w12 * w12,
        ]
    )
    return ContactKinematics(p1, p2, J, jdot_qdot)


def energies(
    q: np.ndarray, dq: np.ndarray, params: ModelParams, model: str = "pinned"
) -> tuple[float, float]:
    """(kinetic, potential) energy; datum is the ground/stance-foot height."""
    q = np.asarray(q, dtype=float)
    dq = np.asarray(dq, dtype=float)
    mh, mT, mk = params.m_h, params.m_T, params.m_k
    l, lT = params.l, params.l_T
    lh = 0.5 * l
    g = params.g

    if model == "pinned":
        if q.shape != (3,):
            raise ValueError("pinned energies expect 3 coordinates")
        D, _, _ = ss_dynamics(q, dq, params)
        c1 = cos(q[0])
        c12 = cos(q[0] + q[1])
        c123 = cos(q[0] + q[1] + q[2])
        V = g * (
            mh * l * c1
            + mT * (l * c1 + lT * c123)
            + mk * lh * c1
            + mk * (l * c1 - lh * c12)
        )
    elif model == "extended":
        if q.shape != (5,):
            raise ValueError("extended energies expect 5 coordinates")
        D, _, _ = ext_dynamics(q, dq, params)
        c1 = cos(q[0])
        c12 = cos(q[0] + q[1])
        c123 = cos(q[0] + q[1] + q[2])
        yh = q[4]
        V = g * (
            mh * yh
            + mT * (yh + lT * c123)
            + mk * (yh - lh * c1)
            + mk * (yh - lh * c12)
        )
    else:
        raise ValueError(f"unknown model flavor {model!r}")
    K = 0.5 * float(dq @ D @ dq)
    return K, float(V)


def solve_ddq(terms: DynTerms, force: np.ndarray) -> np.ndarray:
    """Solve D ddq = force, mapping linear-algebra failure to a domain error."""
    try:
        ddq = np.linalg.solve(terms.D, force)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by params
        raise SingularDynamicsError(str(exc)) from exc
    if not np.isfinite(ddq).all():
        raise SingularDynamicsError("non-finite joint accelerations")
    return ddq


def pinned_vector_field(x_s: np.ndarray, u: np.ndarray, params: ModelParams) -> np.ndarray:
    """Single-support state derivative for x_s = [q, dq] under torque u."""
    x_s = np.asarray(x_s, dtype=float)
    u = np.asarray(u, dtype=float)
    if x_s.shape != (6,):
        raise ValueError("x_s must have shape (6,)")
    _require_finite("x_s", x_s)
    _require_finite("u", u)
    q, dq = x_s[:3], x_s[3:]
    terms = ss_dynamics(q, dq, params)
    ddq = solve_ddq(terms, terms.B @ u - terms.H)
    out = np.empty(6)
    out[:3] = dq
    out[3:] = ddq
    return out


def hip_position_pinned(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Hip position with the stance foot at the origin."""
    l = params.l
    return np.array([-l * sin(q[0]), l * cos(q[0])])


def hip_velocity_pinned(q: np.ndarray, dq: np.ndarray, params: ModelParams) -> np.ndarray:
    l = params.l
    return np.array([-l * cos(q[0]) * dq[0], -l * sin(q[0]) * dq[0]])


def swing_foot_pinned(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Swing foot position with the stance foot at the origin."""
    l = params.l
    return np.array(
        [
            -l * sin(q[0]) + l * sin(q[0] + q[1]),
            l * cos(q[0]) - l * cos(q[0] + q[1]),
        ]
    )


def extend_pinned_state(
    q: np.ndarray, dq: np.ndarray, stance: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray]:
    """Lift a pinned state to extended coordinates with a world stance foot."""
    stance = np.asarray(stance, dtype=float)
    q_e = np.empty(5)
    dq_e = np.empty(5)
    q_e[:3] = q
    dq_e[:3] = dq
    q_e[3:] = stance + hip_position_pinned(q, params)
    dq_e[3:] = hip_velocity_pinned(q, dq, params)
    return q_e, dq_e


def contact_solve(
    D: np.ndarray, J: np.ndarray, rhs_dyn: np.ndarray, rhs_con: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the contact saddle-point system ``[[D, -J^T], [J, 0]]``.

    ``D x - J^T lam = rhs_dyn`` and ``J x = rhs_con``; the right-hand sides
    may carry several columns.  Returns (x, lam).  Used for the constrained
    flow (x = accelerations, lam = forces) and for the impact (x = post-impact
    velocities, lam = impulses).
    """
    n, m = D.shape[0], J.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = D
    kkt[:n, n:] = -J.T
    kkt[n:, :n] = J
    if np.linalg.cond(kkt) > 1e12:
        raise SingularContactError("contact KKT matrix is ill-conditioned")
    sol = np.linalg.solve(kkt, np.concatenate([rhs_dyn, rhs_con]))
    return sol[:n], sol[n:]


def ss_contact_force(
    q: np.ndarray, dq: np.ndarray, u: np.ndarray, params: ModelParams
) -> np.ndarray:
    """Stance-foot reaction (lam_T, lam_N) implied by the pinned model.

    Computed from the unpinned dynamics with the stance-point acceleration
    constrained to zero; the pinned model never produces these forces itself
    but the friction cone still has to hold for the pin to be physical.
    """
    q_e, dq_e = extend_pinned_state(np.asarray(q, float), np.asarray(dq, float),
                                    np.zeros(2), params)
    terms = ext_dynamics(q_e, dq_e, params)
    ck = contact_kinematics(q_e, dq_e, params)
    _, lam = contact_solve(terms.D, ck.J[:2],
                           terms.B @ np.asarray(u, dtype=float) - terms.H,
                           -ck.jdot_qdot[:2])
    return lam
