"""Hybrid transitions: touchdown guard, impact map, leg relabeling."""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, sin
from typing import Callable

import numpy as np

from .dynamics import contact_kinematics, contact_solve, ext_dynamics
from .errors import EventLocationError, SingularContactError, SingularImpactError
from .params import ModelParams

# Leg-role swap under the frozen angle conventions: the new stance angle is
# the old swing absolute angle, the new relative angles follow from keeping
# every physical link direction fixed.  R @ R = I.
RELABEL_Q = np.array(
    [
        [1.0, 1.0, 0.0],
        [0.0, -1.0, 0.0],
        [0.0, 1.0, 1.0],
    ]
)

RELABEL_EXT = np.eye(5)
RELABEL_EXT[:3, :3] = RELABEL_Q


@dataclass
class GuardEvent:
    t: float
    x: np.ndarray
    guard_value: float
    iterations: int


@dataclass
class ImpactResult:
    dq_e_plus: np.ndarray     # post-impact extended velocities (5,)
    lambda_imp: np.ndarray    # contact impulses (p1_x, p1_y, p2_x, p2_y), N s


def touchdown_guard(x_s: np.ndarray, params: ModelParams) -> float:
    """Swing-foot height above ground for a pinned single-support state."""
    q1 = x_s[0]
    return params.l * (cos(q1) - cos(q1 + x_s[1]))


def swing_foot_descending(x_s: np.ndarray, params: ModelParams) -> float:
    """Vertical swing-foot velocity; negative means descending."""
    q1, q2 = x_s[0], x_s[1]
    dq1, dq2 = x_s[3], x_s[4]
    return params.l * (-sin(q1) * dq1 + sin(q1 + q2) * (dq1 + dq2))


def locate_event(
    t0: float,
    x0: np.ndarray,
    t1: float,
    x1: np.ndarray,
    guard: Callable[[np.ndarray], float],
    interp: Callable[[float], np.ndarray] | None = None,
    max_iter: int = 60,
    g_tol: float = 1e-10,
    t_tol: float = 1e-10,
) -> GuardEvent:
    """Bisect a guard sign change inside a bracketing step.

    ``interp`` maps a time in [t0, t1] to a state; the default is linear
    interpolation between the bracket endpoints.  The returned state is the
    last probe on the non-penetrating side (guard >= 0) unless the refined
    guard value already meets ``g_tol``.
    """
    x0 = np.asarray(x0, dtype=float)
    x1 = np.asarray(x1, dtype=float)
    g0 = guard(x0)
    g1 = guard(x1)
    if g0 <= 0.0:
        if g0 >= -1e-12:
            return GuardEvent(t0, x0.copy(), g0, 0)
        raise EventLocationError("guard is negative at the bracket start")
    if g1 > 0.0:
        raise EventLocationError("guard does not change sign over the bracket")
    if interp is None:
        def interp(t: float) -> np.ndarray:
            a = (t - t0) / (t1 - t0)
            return (1.0 - a) * x0 + a * x1

    ta, tb = t0, t1
    xa = x0
    best = (t1, x1, g1)
    for it in range(1, max_iter + 1):
        tm = 0.5 * (ta + tb)
        xm = interp(tm)
        gm = guard(xm)
        if abs(gm) < g_tol:
            return GuardEvent(tm, np.asarray(xm, dtype=float).copy(), gm, it)
        if gm > 0.0:
            ta, xa = tm, xm
        else:
            tb = tm
            best = (tm, xm, gm)
        if tb - ta < t_tol:
            # return the pre-impact side of the final bracket
            return GuardEvent(ta, np.asarray(xa, dtype=float).copy(), guard(xa), it)
    return GuardEvent(best[0], np.asarray(best[1], dtype=float).copy(), best[2], max_iter)


def impact_map(q_e: np.ndarray, dq_e: np.ndarray, params: ModelParams) -> ImpactResult:
    """Two-point inelastic impact: both feet at rest immediately after.

    Solves the 9x9 momentum/constraint system
    ``[[D_e, -J^T], [J, 0]] [dq+; Lambda] = [D_e dq-; 0]``.
    """
    dq_e = np.asarray(dq_e, dtype=float)
    q = np.asarray(q_e, dtype=float).tolist()
    dq = dq_e.tolist()
    D, _, _ = ext_dynamics(q, dq, params)
    _, _, legs, _ = contact_kinematics(q, dq, params)
    # the momentum D_e dq- as numpy's matrix-vector product rounds it
    momentum = (np.array(D) @ dq_e).tolist()
    try:
        ((dq_plus, impulse),) = contact_solve(
            D, legs, [(momentum, (0.0, 0.0, 0.0, 0.0))])
    except SingularContactError as exc:
        raise SingularImpactError("impact KKT system is numerically singular") from exc
    return ImpactResult(np.array(dq_plus), np.array(impulse))


def relabel(q_e: np.ndarray, dq_e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Swap leg roles after impact; hip position and velocity are unchanged."""
    q_e = np.asarray(q_e, dtype=float)
    dq_e = np.asarray(dq_e, dtype=float)
    return RELABEL_EXT @ q_e, RELABEL_EXT @ dq_e
