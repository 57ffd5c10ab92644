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
evaluated on Python floats, with no LAPACK call.  The unpinned model has a
float core: `_ext_terms` (D, H and the thrust direction), `_contact_terms`
(foot positions, J's leg entries and J's velocity-product term) and
`_contact_core` (the contact solve) take and return Python floats, so the
double-support right-hand side in `nmpc` runs from state to forces without
building an array.  `ext_dynamics`, `ds_dynamics`, `contact_kinematics` and
`contact_solve` are array wrappers around those cores.

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
# torso and hip columns of the contact Jacobian: each foot row moves with the
# hip, and no foot moves with the torso
_J_TORSO_HIP = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def _finite(name: str, vals: list[float]) -> list[float]:
    """``vals`` unchanged if all of them are finite."""
    if not all(map(isfinite, vals)):
        raise ValueError(f"{name} contains non-finite entries")
    return vals


def _finite_floats(name: str, value: np.ndarray) -> list[float]:
    """The entries of ``value`` as Python floats, all of them finite."""
    return _finite(name, np.asarray(value, dtype=float).tolist())


def _com_moments(params: ModelParams) -> tuple[float, float, float]:
    """c_k of the mass moment M p_com = sum_k c_k (-sin phi_k, cos phi_k).

    Pinned model, stance foot at the origin; phi_k are the absolute angles
    of the stance leg, the swing leg and the torso.
    """
    mh, mT, mk = params.m_h, params.m_T, params.m_k
    lh = 0.5 * params.l
    return params.l * (mh + mT + mk) + lh * mk, -lh * mk, params.l_T * mT


def ss_dynamics(q: np.ndarray, dq: np.ndarray, params: ModelParams) -> DynTerms:
    """Pinned single-support terms (stance foot at the origin)."""
    q1, q2, q3 = _finite_floats("q", q)
    dq1, dq2, dq3 = _finite_floats("dq", dq)

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
    D = np.array([[d11, d12, d13], [d12, d22, d23], [d13, d23, d33]])

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

    H = np.array([h1 + g1, h2 + g2, h3 + g3])
    return DynTerms(D, H, _B_SS)


def _ext_terms(q_e: list[float], dq_e: list[float], params: ModelParams):
    """D (rows), H and the thrust direction of the unpinned 5-DOF model.

    Takes and returns Python floats; the caller has checked the state finite.
    The thrust direction (sin, -cos of the absolute torso angle) is the
    hip-translation part of the thrust column of B.
    """
    q1, q2, q3, _, _ = q_e
    dq1, dq2, dq3, _, _ = dq_e
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


def _ext_state(q_e: np.ndarray, dq_e: np.ndarray) -> tuple[list[float], list[float]]:
    return _finite_floats("q_e", q_e), _finite_floats("dq_e", dq_e)


def ext_dynamics(q_e: np.ndarray, dq_e: np.ndarray, params: ModelParams) -> DynTerms:
    """Unpinned 5-DOF terms (hip position appended), joint torques only."""
    D, H, _ = _ext_terms(*_ext_state(q_e, dq_e), params)
    return DynTerms(np.array(D), np.array(H), _B_EXT)


def ds_dynamics(q_e: np.ndarray, dq_e: np.ndarray, params: ModelParams) -> DynTerms:
    """Double-support terms with input eta = [u2, u3, F_th].

    Positive thrust presses from the torso tip toward the ground along the
    torso-link axis.  Applied at the torso mass point it exerts no moment on
    the joint coordinates and acts on the hip-translation rows only.
    """
    D, H, (tx, ty) = _ext_terms(*_ext_state(q_e, dq_e), params)
    B = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, tx],
        [0.0, 0.0, ty],
    ])
    return DynTerms(np.array(D), np.array(H), B)


def _contact_terms(q_e: list[float], dq_e: list[float], params: ModelParams):
    """Foot positions, J's leg entries and J's velocity-product term.

    Python floats in and out.  The leg entries (l cos q1, l sin q1,
    l cos(q1 + q2), l sin(q1 + q2)) fill J's first column; the second
    column repeats the foot-2 ones.
    """
    q1, q2, _, xh, yh = q_e
    dq1, dq2, _, _, _ = dq_e
    l = params.l
    s1, c1 = sin(q1), cos(q1)
    s12, c12 = sin(q1 + q2), cos(q1 + q2)
    w12 = dq1 + dq2
    return (
        (xh + l * s1, yh - l * c1),
        (xh + l * s12, yh - l * c12),
        (l * c1, l * s1, l * c12, l * s12),
        (-l * s1 * dq1 * dq1, l * c1 * dq1 * dq1,
         -l * s12 * w12 * w12, l * c12 * w12 * w12),
    )


def contact_kinematics(
    q_e: np.ndarray, dq_e: np.ndarray, params: ModelParams
) -> ContactKinematics:
    """Both foot positions plus J and its velocity-product term."""
    p1, p2, (j0, j1, j2, j3), jdot_qdot = _contact_terms(
        *_ext_state(q_e, dq_e), params)
    J = np.array([
        [j0, 0.0, 0.0, 1.0, 0.0],
        [j1, 0.0, 0.0, 0.0, 1.0],
        [j2, j2, 0.0, 1.0, 0.0],
        [j3, j3, 0.0, 0.0, 1.0],
    ])
    return ContactKinematics(np.array(p1), np.array(p2), J, np.array(jdot_qdot))


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
    """Solve D ddq = force for the 3x3 single-support mass matrix.

    Closed form: D^-1 = adj(D) / det(D), evaluated on Python floats.  ``force``
    is a vector (3,) or a block of right-hand-side columns (3, k); the result
    has the same shape.  A determinant that is not positive (D is symmetric
    positive definite for valid parameters) or a non-finite result raises
    SingularDynamicsError.
    """
    (a, b, c), (d, e, f), (g, h, i) = terms.D.tolist()
    # adjugate = transposed cofactor matrix
    A00, A01, A02 = e * i - f * h, c * h - b * i, b * f - c * e
    A10, A11, A12 = f * g - d * i, a * i - c * g, c * d - a * f
    A20, A21, A22 = d * h - e * g, b * g - a * h, a * e - b * d
    det = a * A00 + b * A10 + c * A20
    if not det > 0.0:
        raise SingularDynamicsError("mass matrix determinant is not positive")

    rhs = np.asarray(force, dtype=float)
    cols = [rhs.tolist()] if rhs.ndim == 1 else rhs.T.tolist()
    out = []
    for f0, f1, f2 in cols:
        x0 = (A00 * f0 + A01 * f1 + A02 * f2) / det
        x1 = (A10 * f0 + A11 * f1 + A12 * f2) / det
        x2 = (A20 * f0 + A21 * f1 + A22 * f2) / det
        if not (isfinite(x0) and isfinite(x1) and isfinite(x2)):
            raise SingularDynamicsError("non-finite joint accelerations")
        out.append((x0, x1, x2))
    if rhs.ndim == 1:
        return np.array(out[0])
    return np.array(out).T


def pinned_vector_field(x_s: np.ndarray, u: np.ndarray, params: ModelParams) -> np.ndarray:
    """Single-support state derivative for x_s = [q, dq] under torque u."""
    x_s = np.asarray(x_s, dtype=float)
    u = np.asarray(u, dtype=float)
    if x_s.shape != (6,):
        raise ValueError("x_s must have shape (6,)")
    _finite_floats("x_s", x_s)
    _finite_floats("u", u)
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


def _contact_core(D, legs, cols) -> list[tuple[tuple, tuple]]:
    """Null-space elimination of the contact system on Python floats.

    ``D`` is the five rows of the mass matrix, ``legs`` J's leg block
    (a00, a01, a10, a11, a20, a21, a30, a31) row by row, and ``cols`` the
    right-hand-side columns as (rhs_dyn, rhs_con) pairs of 5 and 4 floats.
    Returns one (x, lam) pair of tuples per column; see `contact_solve`.
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


def contact_solve(
    D: np.ndarray, J: np.ndarray, rhs_dyn: np.ndarray, rhs_con: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve the contact saddle-point system ``[[D, -J^T], [J, 0]]``.

    ``D x - J^T lam = rhs_dyn`` and ``J x = rhs_con``; the right-hand sides
    are vectors or blocks of columns, (5,) and (4,) or (5, k) and (4, k).
    Returns (x, lam).  Used for the constrained flow (x = accelerations,
    lam = forces) and for the impact (x = post-impact velocities,
    lam = impulses).

    Solved by null-space elimination on Python floats.  J must have the
    model's structure: a zero torso column and unit hip columns, so that
    rows (p2 - p1) leave the 2x2 leg block L = J[2:, :2] - J[:2, :2].  L
    gives the two leg coordinates, rows p1 the hip, the torso row D[2] the
    torso coordinate, and J^T lam = D x - rhs_dyn the forces.  A J without
    that structure raises ValueError.  The system is singular, and raises
    SingularContactError, when |det L| (-l^2 sin q2 for the model's J) is at
    or below 1e-12 (max |J_ij|)^2, i.e. the legs are (nearly) collinear, or
    when the result is not finite.
    """
    J_rows = np.asarray(J, dtype=float).tolist()
    if [row[2:] for row in J_rows] != _J_TORSO_HIP:
        raise ValueError("J must have a zero torso column and unit hip columns")
    legs = [a for row in J_rows for a in row[:2]]
    dyn = np.asarray(rhs_dyn, dtype=float)
    con = np.asarray(rhs_con, dtype=float)
    if dyn.shape[1:] != con.shape[1:]:
        raise ValueError("rhs_dyn and rhs_con need the same number of columns")
    if dyn.ndim == 1:
        cols = [(dyn.tolist(), con.tolist())]
    else:
        cols = zip(dyn.T.tolist(), con.T.tolist())
    out = _contact_core(np.asarray(D, dtype=float).tolist(), legs, cols)
    if dyn.ndim == 1:
        x, lam = out[0]
        return np.array(x), np.array(lam)
    return np.array([x for x, _ in out]).T, np.array([lam for _, lam in out]).T


def ss_contact_force(
    q: np.ndarray, dq: np.ndarray, ddq: np.ndarray, params: ModelParams
) -> np.ndarray:
    """Stance-foot reaction (lam_T, lam_N) for pinned joint accelerations ddq.

    The pinned model never produces this force itself, but the friction cone
    still has to hold for the pin to be physical.  Gravity and the reaction
    are the only external forces in single support, so Newton's law on the
    centre of mass gives it: lam = M a_com + (0, M g).  With the link angles
    phi = (q1, q1 + q2, q1 + q2 + q3) and e(phi) = (-sin phi, cos phi), the
    mass moment is M p_com = sum_k c_k e(phi_k), so M a_com is the sum of
    c_k (e'(phi_k) ddphi_k + e''(phi_k) dphi_k^2).  ddq is taken as given:
    the single-support controller passes the accelerations it integrates.
    """
    q1, q2, q3 = np.asarray(q, dtype=float).tolist()
    dq1, dq2, dq3 = np.asarray(dq, dtype=float).tolist()
    a1, a2, a3 = np.asarray(ddq, dtype=float).tolist()
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
    return np.array([lamT, lamN])
