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
the finite-difference oracles in the test suite gate them.  They are
evaluated on Python floats, with no LAPACK call.

Every model function here takes and returns Python floats, so the
controllers and the walk log use them without building arrays: in single
support `ss_dynamics`, `solve_ddq` (the closed-form 3x3 solve),
`ss_contact_force` and `hip_velocity_pinned`; for the unpinned model
`ext_dynamics` (D, H and the thrust direction), `contact_kinematics` (foot
positions, J's leg block and J's velocity-product term) and `contact_solve`.
The boundary functions that the run harness calls with arrays take and
return arrays: `extend_pinned_state`, `hip_position_pinned`,
`swing_foot_pinned` and `energies`.

The two-foot contact solve (`contact_solve`, behind double support and the
impact map) relies on the structure of the contact Jacobian: no foot moves
with the torso, and each foot moves one-to-one with the hip.  The system is
then singular exactly when the legs are collinear (q2 = 0, where both feet
coincide): its 2x2 leg block has determinant -l^2 sin q2, and a magnitude at
or below 1e-12 (max |J_ij|)^2 raises SingularContactError.
"""

from __future__ import annotations

from math import cos, isfinite, sin
from typing import NamedTuple

import numpy as np

from .errors import SingularContactError, SingularDynamicsError
from .params import ModelParams


class DynTerms(NamedTuple):
    """Pinned manipulator terms D(q) ddq + H(q, dq) = B_SS u, as Python floats."""

    D: tuple  # three rows of three
    H: tuple  # three


# the single-support actuation matrix, rows q1..q3, is configuration
# independent: u2 acts on the relative swing-hip coordinate, u3 on the
# relative torso coordinate
B_SS = ((0.0, 0.0), (1.0, 0.0), (0.0, 1.0))


def _finite(name: str, vals):
    """``vals`` unchanged if all of them are finite."""
    if not all(map(isfinite, vals)):
        raise ValueError(f"{name} contains non-finite entries")
    return vals


def _com_moments(params: ModelParams) -> tuple[float, float, float]:
    """c_k of the mass moment M p_com = sum_k c_k (-sin phi_k, cos phi_k).

    Pinned model, stance foot at the origin; phi_k are the absolute angles
    of the stance leg, the swing leg and the torso.
    """
    mh, mT, mk = params.m_h, params.m_T, params.m_k
    lh = 0.5 * params.l
    return params.l * (mh + mT + mk) + lh * mk, -lh * mk, params.l_T * mT


def ss_dynamics(q, dq, params: ModelParams) -> DynTerms:
    """Pinned single-support terms (stance foot at the origin).

    q and dq are triples of Python floats; a non-finite entry raises
    ValueError.  D comes back as three rows and H as a triple.
    """
    q1, q2, q3 = _finite("q", q)
    dq1, dq2, dq3 = _finite("dq", dq)

    mh, mT, mk = params.m_h, params.m_T, params.m_k
    l, lT = params.l, params.l_T
    lh = 0.5 * l

    s1 = sin(q1)
    s12 = sin(q1 + q2)
    s123 = sin(q1 + q2 + q3)
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
    D = ((d11, d12, d13), (d12, d22, d23), (d13, d23, d33))

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
    A, Bc, Cc = _com_moments(params)
    g1 = -g * (A * s1 + Bc * s12 + Cc * s123)
    g2 = -g * (Bc * s12 + Cc * s123)
    g3 = -g * Cc * s123

    return DynTerms(D, (h1 + g1, h2 + g2, h3 + g3))


def ext_dynamics(q_e, dq_e, params: ModelParams):
    """D (rows), H and the thrust direction of the unpinned 5-DOF model.

    The hip position is appended to q; the joint torques act on the q2 and
    q3 rows.  Takes and returns Python floats; a non-finite entry raises
    ValueError.  The thrust direction (sin, -cos of the absolute torso angle) is
    the hip-translation part of the thrust column of the input matrix.
    """
    q1, q2, q3, _, _ = _finite("q_e", q_e)
    dq1, dq2, dq3, _, _ = _finite("dq_e", dq_e)
    mh, mT, mk = params.m_h, params.m_T, params.m_k
    l, lT = params.l, params.l_T
    lh = 0.5 * l
    Mtot = mh + mT + 2.0 * mk

    s1, c1 = sin(q1), cos(q1)
    s12, c12 = sin(q1 + q2), cos(q1 + q2)
    s123, c123 = sin(q1 + q2 + q3), cos(q1 + q2 + q3)

    d00 = mT * lT * lT + 2.0 * mk * lh * lh
    d01 = mT * lT * lT + mk * lh * lh
    d02 = mT * lT * lT
    d11 = mT * lT * lT + mk * lh * lh
    d12 = mT * lT * lT
    d22 = mT * lT * lT
    d03 = -mT * lT * c123 + mk * lh * (c1 + c12)
    d04 = -mT * lT * s123 + mk * lh * (s1 + s12)
    d13 = -mT * lT * c123 + mk * lh * c12
    d14 = -mT * lT * s123 + mk * lh * s12
    d23 = -mT * lT * c123
    d24 = -mT * lT * s123
    D = (
        (d00, d01, d02, d03, d04),
        (d01, d11, d12, d13, d14),
        (d02, d12, d22, d23, d24),
        (d03, d13, d23, Mtot, 0.0),
        (d04, d14, d24, 0.0, Mtot),
    )

    w12 = dq1 + dq2
    w123 = w12 + dq3
    g = params.g
    H = (
        g * (-mT * lT * s123 + mk * lh * (s1 + s12)),
        g * (-mT * lT * s123 + mk * lh * s12),
        -g * mT * lT * s123,
        mT * lT * s123 * w123 * w123
        - mk * lh * (s1 * dq1 * dq1 + s12 * w12 * w12),
        -mT * lT * c123 * w123 * w123
        + mk * lh * (c1 * dq1 * dq1 + c12 * w12 * w12)
        + g * Mtot,
    )
    return D, H, (s123, -c123)


def contact_kinematics(q_e, dq_e, params: ModelParams):
    """Foot positions p1, p2, J's leg block and J's velocity-product term.

    Python floats in and out; a non-finite entry raises ValueError.  J
    stacks the rows (p1_x, p1_y, p2_x, p2_y) of both feet.  Its leg block,
    the columns of q1 and q2, comes row by row as (a00, a01, ..., a31), the
    form `contact_solve` takes: no foot moves with the torso, and each foot
    moves one-to-one with the hip, so the other three columns are fixed.
    The velocity-product term is d(J qdot)/dt - J qddot of the four rows.
    """
    q1, q2, _, xh, yh = _finite("q_e", q_e)
    dq1, dq2, _, _, _ = _finite("dq_e", dq_e)
    l = params.l
    s1, c1 = sin(q1), cos(q1)
    s12, c12 = sin(q1 + q2), cos(q1 + q2)
    w12 = dq1 + dq2
    return (
        (xh + l * s1, yh - l * c1),
        (xh + l * s12, yh - l * c12),
        (l * c1, 0.0, l * s1, 0.0, l * c12, l * c12, l * s12, l * s12),
        (-l * s1 * dq1 * dq1, l * c1 * dq1 * dq1,
         -l * s12 * w12 * w12, l * c12 * w12 * w12),
    )


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
        D, _ = ss_dynamics(q.tolist(), dq.tolist(), params)
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
        D, _, _ = ext_dynamics(q.tolist(), dq.tolist(), params)
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
    K = 0.5 * float(dq @ np.array(D) @ dq)
    return K, float(V)


def solve_ddq(D, cols) -> list[tuple[float, float, float]]:
    """Solve D x = f for each column f of ``cols`` (triples of floats).

    D is the 3x3 single-support mass matrix as three rows of Python floats.
    Closed form: D^-1 = adj(D) / det(D).  A determinant that is not positive
    (D is symmetric positive definite for valid parameters) or a non-finite
    result raises SingularDynamicsError.
    """
    (a, b, c), (d, e, f), (g, h, i) = D
    # adjugate = transposed cofactor matrix
    A00, A01, A02 = e * i - f * h, c * h - b * i, b * f - c * e
    A10, A11, A12 = f * g - d * i, a * i - c * g, c * d - a * f
    A20, A21, A22 = d * h - e * g, b * g - a * h, a * e - b * d
    det = a * A00 + b * A10 + c * A20
    if not det > 0.0:
        raise SingularDynamicsError("mass matrix determinant is not positive")

    out = []
    for f0, f1, f2 in cols:
        x0 = (A00 * f0 + A01 * f1 + A02 * f2) / det
        x1 = (A10 * f0 + A11 * f1 + A12 * f2) / det
        x2 = (A20 * f0 + A21 * f1 + A22 * f2) / det
        if not (isfinite(x0) and isfinite(x1) and isfinite(x2)):
            raise SingularDynamicsError("non-finite joint accelerations")
        out.append((x0, x1, x2))
    return out


def _hip_position(q1: float, l: float) -> tuple[float, float]:
    return -l * sin(q1), l * cos(q1)


def hip_velocity_pinned(q1: float, dq1: float, l: float) -> tuple[float, float]:
    """Hip velocity with the stance foot at rest, for leg length l."""
    return -l * cos(q1) * dq1, -l * sin(q1) * dq1


def _swing_foot(q1: float, q2: float, l: float) -> tuple[float, float]:
    return (-l * sin(q1) + l * sin(q1 + q2),
            l * cos(q1) - l * cos(q1 + q2))


def hip_position_pinned(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Hip position with the stance foot at the origin."""
    return np.array(_hip_position(q[0], params.l))


def swing_foot_pinned(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Swing foot position with the stance foot at the origin."""
    return np.array(_swing_foot(q[0], q[1], params.l))


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
    dq_e[3:] = hip_velocity_pinned(q[0], dq[0], params.l)
    return q_e, dq_e


def contact_solve(D, legs, cols) -> list[tuple[tuple, tuple]]:
    """Solve the contact saddle-point system ``[[D, -J^T], [J, 0]]``.

    ``D x - J^T lam = rhs_dyn`` and ``J x = rhs_con`` for each column of
    ``cols``, given as (rhs_dyn, rhs_con) pairs of 5 and 4 floats.  ``D`` is
    the five rows of the mass matrix and ``legs`` J's leg block
    (a00, a01, a10, a11, a20, a21, a30, a31) row by row, as
    `contact_kinematics` returns it; J's torso column is zero and its hip
    columns are the unit rows.  Returns one (x, lam) pair of tuples per
    column.  Used for the constrained flow (x = accelerations, lam = forces)
    and for the impact (x = post-impact velocities, lam = impulses).

    Null-space elimination on Python floats: rows (p2 - p1) leave the 2x2
    leg block L, which gives the two leg coordinates, rows p1 the hip, the
    torso row D[2] the torso coordinate, and J^T lam = D x - rhs_dyn the
    forces.  Collinear legs (see above) or a non-finite result raise
    SingularContactError.
    """
    a00, a01, a10, a11, a20, a21, a30, a31 = legs
    L00, L01, L10, L11 = a20 - a00, a21 - a01, a30 - a10, a31 - a11
    det = L00 * L11 - L01 * L10
    big = max(1.0, abs(a00), abs(a01), abs(a10), abs(a11),
              abs(a20), abs(a21), abs(a30), abs(a31))
    if not abs(det) > 1e-12 * big * big:
        raise SingularContactError("contact legs are (nearly) collinear")
    D0, D1, D2, D3, D4 = D
    D00, D01, D02, D03, D04 = D0
    D10, D11, D12, D13, D14 = D1
    D20, D21, D22, D23, D24 = D2
    D30, D31, D32, D33, D34 = D3
    D40, D41, D42, D43, D44 = D4
    if not D22 > 0.0:
        raise SingularContactError("torso inertia is not positive")

    out = []
    for (f0, f1, f2, f3, f4), (r0, r1, r2, r3) in cols:
        e0, e1 = r2 - r0, r3 - r1
        x0 = (L11 * e0 - L01 * e1) / det
        x1 = (L00 * e1 - L10 * e0) / det
        x3 = r0 - a00 * x0 - a01 * x1
        x4 = r1 - a10 * x0 - a11 * x1
        x2 = (f2 - D20 * x0 - D21 * x1 - D23 * x3 - D24 * x4) / D22
        # J^T lam = w = D x - rhs_dyn; the hip columns give lam_p1 + lam_p2
        w0 = D00 * x0 + D01 * x1 + D02 * x2 + D03 * x3 + D04 * x4 - f0
        w1 = D10 * x0 + D11 * x1 + D12 * x2 + D13 * x3 + D14 * x4 - f1
        w3 = D30 * x0 + D31 * x1 + D32 * x2 + D33 * x3 + D34 * x4 - f3
        w4 = D40 * x0 + D41 * x1 + D42 * x2 + D43 * x3 + D44 * x4 - f4
        b0 = w0 - a00 * w3 - a10 * w4
        b1 = w1 - a01 * w3 - a11 * w4
        lam2 = (L11 * b0 - L10 * b1) / det
        lam3 = (L00 * b1 - L01 * b0) / det
        x = (x0, x1, x2, x3, x4)
        lam = (w3 - lam2, w4 - lam3, lam2, lam3)
        if not (all(map(isfinite, x)) and all(map(isfinite, lam))):
            raise SingularContactError("non-finite contact solution")
        out.append((x, lam))
    return out


def ss_contact_force(q, dq, ddq, params: ModelParams) -> tuple[float, float]:
    """Stance-foot reaction (lam_T, lam_N) for pinned joint accelerations ddq.

    q, dq and ddq are triples of Python floats.  The pinned model never
    produces this force itself, but the friction cone still has to hold for
    the pin to be physical.  Gravity and the reaction are the only external
    forces in single support, so Newton's law on the centre of mass gives
    it: lam = M a_com + (0, M g).  With the link angles
    phi = (q1, q1 + q2, q1 + q2 + q3) and e(phi) = (-sin phi, cos phi), the
    mass moment is M p_com = sum_k c_k e(phi_k), so M a_com is the sum of
    c_k (e'(phi_k) ddphi_k + e''(phi_k) dphi_k^2).  ddq is taken as given:
    the single-support controller passes the accelerations it integrates.
    """
    q1, q2, q3 = q
    dq1, dq2, dq3 = dq
    a1, a2, a3 = ddq
    lamT = 0.0
    lamN = params.weight
    for ck, phi, rate, acc in zip(
        _com_moments(params),
        (q1, q1 + q2, q1 + q2 + q3),
        (dq1, dq1 + dq2, dq1 + dq2 + dq3),
        (a1, a1 + a2, a1 + a2 + a3),
    ):
        s, c = sin(phi), cos(phi)
        lamT += ck * (s * rate * rate - c * acc)
        lamN -= ck * (s * acc + c * rate * rate)
    return lamT, lamN
