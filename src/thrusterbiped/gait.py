"""Gait parameterization: phase variable, Bezier outputs, gait synthesis.

The actuated coordinates track ``h_d(s)``, a degree-5 Bezier polynomial in
the normalized phase ``s = (theta - theta_plus) / (theta_minus - theta_plus)``
with ``theta = q1``.  A gait is the Bezier coefficients, the phase endpoints,
tracking gains, and the actuation/state limits used by the reference
governor.

`output_data` takes and returns Python floats: the Bezier rows come by de
Casteljau with unrolled levels, and the drift and input columns by the
dynamics' closed-form solve `solve_ddq`.  The single-support controller
checks the decoupling matrix with `decoupling_or_raise` on its rows as
floats.  A gait keeps its gains, diag(P^-1) and limits as floats for that
controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import asin, sin, sqrt
from typing import NamedTuple

import numpy as np

from .dynamics import B_SS, DynTerms, solve_ddq, ss_dynamics
from .errors import DecouplingSingularityError, GaitDesignError
from .params import ModelParams

BEZIER_DEGREE = 5
_B_COLS = tuple(zip(*B_SS))  # the input columns of the pinned model


@dataclass
class GaitParams:
    """One designed step, shared by the SS controller and the DS target."""

    bezier: np.ndarray          # (2, 6) rows: q2, q3 control points
    theta_plus: float           # stance angle at step start
    theta_minus: float          # stance angle at touchdown
    kp: np.ndarray              # (2,) diagonal outer-loop position gains
    kd: np.ndarray              # (2,) diagonal outer-loop rate gains
    u_max: np.ndarray           # (2,) actuator torque limits, N m
    x_max: np.ndarray           # (4,) |q_a| and |dq_a| bounds for the governor
    q3dot_start: float = 0.0    # designed torso rate at SS start (DS target)
    # derived once per gait in __post_init__, read by the control loop
    bezier_points: tuple = field(init=False, repr=False, compare=False)
    tracking_metric: np.ndarray = field(init=False, repr=False, compare=False)
    state_limits: list = field(init=False, repr=False, compare=False)
    pd_gains: list = field(init=False, repr=False, compare=False)
    metric_inverse: list = field(init=False, repr=False, compare=False)
    torque_caps: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.bezier = np.asarray(self.bezier, dtype=float)
        if self.bezier.shape != (2, BEZIER_DEGREE + 1):
            raise ValueError(f"bezier must be a 2x{BEZIER_DEGREE + 1} table")
        if self.theta_minus == self.theta_plus:
            raise ValueError("theta_minus must differ from theta_plus")
        self.kp = np.asarray(self.kp, dtype=float)
        self.kd = np.asarray(self.kd, dtype=float)
        self.u_max = np.asarray(self.u_max, dtype=float)
        self.x_max = np.asarray(self.x_max, dtype=float)
        if np.any(self.kp <= 0.0) or np.any(self.kd <= 0.0):
            raise ValueError("gains must be positive")
        # NaN fails the comparison too; +inf leaves a state bound open
        for name, lim in (("u_max", self.u_max), ("x_max", self.x_max)):
            if not np.all(lim > 0.0):
                raise ValueError(f"{name} entries must be positive")
        self.bezier_points = _control_points(self.bezier)
        # governor metric P = diag(Kp/2, Kd/2) and the limits of its eight
        # state-box rows, x_max - x_a >= 0 and x_a + x_max >= 0; the control
        # loop reads the gains, diag(P^-1) and u_max as Python floats
        self.pd_gains = self.kp.tolist() + self.kd.tolist()
        self.tracking_metric = np.diag(0.5 * np.array(self.pd_gains))
        self.tracking_metric.flags.writeable = False
        self.metric_inverse = (1.0 / self.tracking_metric.diagonal()).tolist()
        self.state_limits = self.x_max.tolist() * 2
        self.torque_caps = self.u_max.tolist()


class PhaseData(NamedTuple):
    theta: float
    s: float            # unclamped normalized phase
    ds_dtheta: float


class OutputData(NamedTuple):
    """Python floats; each pair is one entry per actuated row (q2, q3)."""

    y: tuple        # tracking error of the actuated coordinates
    dy: tuple       # its time derivative along the flow
    Lf2h: tuple     # drift part of ddy
    LgLfh: tuple    # input map of ddy, two rows of two
    h_d: tuple
    dh_d_dt: tuple
    s: float        # clamped phase used for evaluation
    s_raw: float    # unclamped phase


def _control_points(coeffs: np.ndarray) -> tuple:
    """Per Bezier row: its control points and those of its two s-derivatives.

    The derivative curves use the scaled forward differences of the control
    points.  A gait computes these once; bezier_eval recomputes them per call.
    """
    m = BEZIER_DEGREE
    points = []
    for row in np.reshape(coeffs, (-1, m + 1)).tolist():
        d1 = [m * (q - p) for p, q in zip(row, row[1:])]
        d2 = [(m - 1) * (q - p) for p, q in zip(d1, d1[1:])]
        points.append((tuple(row), tuple(d1), tuple(d2)))
    return tuple(points)


def bezier_eval(coeffs: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, first, and second s-derivative of Bezier rows at phase s.

    De Casteljau recursion on Python floats, row by row.  Every level of the
    recursion is a convex combination of neighbouring points, so s = 0 and
    s = 1 return the first and last control points exactly.  A power basis
    evaluated by Horner would be cheaper, but its value at s = 1 is a rounded
    sum of coefficients, and the clamped phase relies on h_d(1) being the last
    control point.  Rows must have BEZIER_DEGREE + 1 control points.
    """
    b = np.asarray(coeffs, dtype=float)
    if b.ndim == 0 or b.shape[-1] != BEZIER_DEGREE + 1:
        raise ValueError(f"Bezier rows must have {BEZIER_DEGREE + 1} control points")
    val, der1, der2 = _bezier_rows(_control_points(b), float(s))
    lead = b.shape[:-1]
    return (np.array(val).reshape(lead), np.array(der1).reshape(lead),
            np.array(der2).reshape(lead))


def _bezier_rows(points: tuple, s: float) -> tuple[list, list, list]:
    """Value and both s-derivatives of each row of _control_points."""
    t = 1.0 - s
    val, der1, der2 = [], [], []
    for row, d1, d2 in points:
        val.append(_de_casteljau(row, s, t))
        der1.append(_de_casteljau(d1, s, t))
        der2.append(_de_casteljau(d2, s, t))
    return val, der1, der2


def _de_casteljau(points: tuple, s: float, t: float) -> float:
    """Point of one Bezier curve at s, with t = 1 - s.

    Each level of the triangle replaces point j by t p_j + s p_(j+1), the
    levels unrolled.  The curves are a degree-5 row and its two derivatives,
    so six, five or four points.
    """
    n = len(points)
    if n == 6:
        p0, p1, p2, p3, p4, p5 = points
        points = (t * p0 + s * p1, t * p1 + s * p2, t * p2 + s * p3,
                  t * p3 + s * p4, t * p4 + s * p5)
    if n >= 5:
        p0, p1, p2, p3, p4 = points
        points = (t * p0 + s * p1, t * p1 + s * p2, t * p2 + s * p3,
                  t * p3 + s * p4)
    p0, p1, p2, p3 = points
    p0, p1, p2 = t * p0 + s * p1, t * p1 + s * p2, t * p2 + s * p3
    p0, p1 = t * p0 + s * p1, t * p1 + s * p2
    return t * p0 + s * p1


def phase(q1: float, gait: GaitParams) -> PhaseData:
    """Normalized phase; unclamped so callers can see overshoot."""
    span = gait.theta_minus - gait.theta_plus
    return PhaseData(q1, (q1 - gait.theta_plus) / span, 1.0 / span)


def output_data(
    x_s, gait: GaitParams, params: ModelParams, terms: DynTerms | None = None
) -> OutputData:
    """Tracking outputs and their Lie derivatives at a single-support state.

    ``ddy = Lf2h + LgLfh @ u`` along the closed-loop flow; outside [0, 1] the
    phase is clamped, so h_d holds the endpoint value while the slope terms
    keep the endpoint tangent (a hard zero-slope switch would step the torque
    during small phase overshoots before touchdown).  One closed-form solve
    D^-1 [-H, B] gives the drift and input columns of the joint
    accelerations.  x_s is six Python floats, and ``terms`` the
    `ss_dynamics` of that state if the caller has them.
    """
    q1, q2, q3, dq1, dq2, dq3 = x_s
    if terms is None:
        terms = ss_dynamics(x_s[:3], x_s[3:], params)

    ph = phase(q1, gait)
    s = min(max(ph.s, 0.0), 1.0)
    (h2, h3), (dh2, dh3), (dd2, dd3) = _bezier_rows(gait.bezier_points, s)
    sp = ph.ds_dtheta

    (f1, f2, f3), (g11, g21, g31), (g12, g22, g32) = solve_ddq(
        terms.D, [[-v for v in terms.H], *_B_COLS])

    a2, a3 = dh2 * sp, dh3 * sp
    sdot = sp * dq1
    dh_dt2, dh_dt3 = dh2 * sdot, dh3 * sdot
    return OutputData(
        y=(q2 - h2, q3 - h3),
        dy=(dq2 - dh_dt2, dq3 - dh_dt3),
        Lf2h=(f2 - a2 * f1 - dd2 * sdot ** 2, f3 - a3 * f1 - dd3 * sdot ** 2),
        LgLfh=((g21 - a2 * g11, g22 - a2 * g12), (g31 - a3 * g11, g32 - a3 * g12)),
        h_d=(h2, h3),
        dh_d_dt=(dh_dt2, dh_dt3),
        s=s,
        s_raw=ph.s,
    )


def decoupling_or_raise(W: list) -> None:
    """Check LgLfh, given as two rows of floats, for invertibility.

    The spectral condition number must stay below 1e8.  For a 2x2 matrix
    the singular values come in closed form from the Frobenius norm and
    determinant, which avoids an SVD in the control loop.
    """
    (a, b), (c, d) = W
    f2 = a ** 2 + b ** 2 + c ** 2 + d ** 2
    det = a * d - b * c
    root = sqrt(max(f2 * f2 - 4.0 * det * det, 0.0))
    s1 = sqrt(max((f2 + root) / 2.0, 0.0))
    s2 = sqrt(max((f2 - root) / 2.0, 0.0))
    if s2 <= s1 * 1e-8:
        raise DecouplingSingularityError("LgLfh condition number exceeds 1e8")


def zero_dynamics_residual(x_s: np.ndarray, gait: GaitParams, params: ModelParams) -> float:
    """Squared distance from the tracking manifold: ||y||^2 + ||dy||^2."""
    od = output_data(np.asarray(x_s, dtype=float).tolist(), gait, params)
    y, dy = np.array(od.y), np.array(od.dy)
    return float(y @ y + dy @ dy)


@dataclass
class GaitDesignSpec:
    """Boundary data for design_gait.

    The nominal step is symmetric (both feet on the ground at touchdown
    forces theta_plus = -theta_minus).  End-of-step joint rates set the
    Bezier end slope.  impact_theta_dot only scales those rates into path
    slopes; the realized touchdown rates scale with the actual theta rate.
    """

    step_length: float = 0.10
    step_duration: float = 0.50
    torso_lean: float = -0.30
    impact_q2dot: float = 1.20
    impact_q3dot: float = -3.00
    impact_theta_dot: float = -0.90
    q3dot_start: float = -0.50
    # dh_d/ds at s = 0 per actuated row.  The step starts with theta_dot = 0,
    # so any start slope is velocity-consistent; a swing-leg slope just under
    # the ground-graze gearing (dq2/dtheta = -2) lets the path advance as soon
    # as theta moves, which pumps momentum into the unactuated angle early.
    # None selects that near-graze default, scaled to the step span.
    start_slopes: tuple[float, float] | None = None
    interior_offsets: tuple[tuple[float, float], tuple[float, float]] = (
        (0.0, 0.0),
        (0.0, 0.0),
    )
    kp: tuple[float, float] = (100.0, 100.0)
    kd: tuple[float, float] = (12.0, 12.0)
    u_max: tuple[float, float] = (3.0, 3.0)
    x_max: tuple[float, float, float, float] = (1.2, 1.2, 10.0, 10.0)


def design_gait(design: GaitDesignSpec, params: ModelParams) -> GaitParams:
    """Build Bezier coefficients from boundary postures and rates.

    Endpoints are consistent with the leg-relabel map by construction.  The
    swing foot of a point-foot pair clears the ground iff q2*(q2 + 2*theta)
    stays nonnegative, so the swing row is projected to cross zero exactly at
    mid-stance (s = 1/2, where theta = 0) with a slope above the graze
    gearing; the full path is then checked for clearance and for a descending
    swing foot at touchdown.
    """
    l = params.l
    if not 0.0 < design.step_length < 2.0 * l:
        raise GaitDesignError("step length must lie in (0, 2*l)")
    if design.step_duration <= 0.0:
        raise GaitDesignError("step duration must be positive")
    if design.impact_theta_dot >= 0.0:
        raise GaitDesignError("impact_theta_dot must be negative (forward step)")

    theta_minus = -asin(design.step_length / (2.0 * l))
    theta_plus = -theta_minus
    q2_minus = -2.0 * theta_minus
    q3_minus = design.torso_lean - theta_minus - q2_minus
    b5 = np.array([q2_minus, q3_minus])
    b0 = np.array([-q2_minus, q2_minus + q3_minus])

    span = theta_minus - theta_plus
    sdot_minus = design.impact_theta_dot / span  # > 0
    dq_a_minus = np.array([design.impact_q2dot, design.impact_q3dot])
    slope1 = dq_a_minus / sdot_minus
    b4 = b5 - slope1 / BEZIER_DEGREE
    if design.start_slopes is None:
        start = np.array([0.9 * 2.0 * abs(span), 0.0])
    else:
        start = np.asarray(design.start_slopes, dtype=float)
    b1 = b0 + start / BEZIER_DEGREE

    off = np.asarray(design.interior_offsets, dtype=float)
    b2 = b1 + (b4 - b1) / 3.0 + off[0]
    b3 = b1 + 2.0 * (b4 - b1) / 3.0 + off[1]

    # pin the swing row to zero at s = 1/2: shift b2, b3 equally so the
    # Bezier midpoint value (b0 + 5b1 + 10b2 + 10b3 + 5b4 + b5)/32 vanishes
    mid = (b0[0] + 5.0 * b1[0] + 10.0 * (b2[0] + b3[0]) + 5.0 * b4[0] + b5[0])
    shift = -mid / 20.0
    b2[0] += shift
    b3[0] += shift

    gait = GaitParams(
        bezier=np.column_stack([b0, b1, b2, b3, b4, b5]),
        theta_plus=theta_plus,
        theta_minus=theta_minus,
        kp=np.asarray(design.kp, dtype=float),
        kd=np.asarray(design.kd, dtype=float),
        u_max=np.asarray(design.u_max, dtype=float),
        x_max=np.asarray(design.x_max, dtype=float),
        q3dot_start=design.q3dot_start,
    )
    _check_design(gait, params)
    return gait


def _check_design(gait: GaitParams, params: ModelParams) -> None:
    l = params.l
    span = gait.theta_minus - gait.theta_plus
    ss = np.linspace(0.0, 1.0, 1001)
    triples = [bezier_eval(gait.bezier, s) for s in ss]
    h = np.array([t[0] for t in triples])
    theta = gait.theta_plus + ss * span
    q2 = h[:, 0]

    for i, s in enumerate(ss):
        if np.any(np.abs(h[i]) > gait.x_max[:2]):
            raise GaitDesignError(f"designed h_d exceeds x_max at s={s:.3f}")

    p2v = l * (np.cos(theta) - np.cos(theta + q2))
    interior = (ss > 1e-9) & (ss < 1.0 - 1e-9)
    bad = interior & (p2v < -1e-9)
    if np.any(bad):
        s_bad = float(ss[np.argmax(bad)])
        raise GaitDesignError(f"swing foot below ground at s={s_bad:.3f}")

    # the legs must pass each other with the stance leg vertical, and faster
    # than the graze gearing, so the foot-height zero at mid-stance is a
    # tangency from above rather than a crossing
    _, dh_mid, _ = bezier_eval(gait.bezier, 0.5)
    if dh_mid[0] <= 2.0 * abs(span) * 1.01:
        raise GaitDesignError("swing row mid-stance slope below graze gearing")

    # touchdown must approach from above
    _, dh1, _ = bezier_eval(gait.bezier, 1.0)
    dtheta = -1.0  # sign only; theta decreases
    dq2 = dh1[0] / span * dtheta
    dp2v = l * (-sin(gait.theta_minus) * dtheta
                + sin(gait.theta_minus + q2[-1]) * (dtheta + dq2))
    if dp2v >= 0.0:
        raise GaitDesignError("designed swing foot is not descending at touchdown")


def nominal_start_state(gait: GaitParams) -> np.ndarray:
    """Designed SS start: boundary posture at rest except the torso rate."""
    h0, _, _ = bezier_eval(gait.bezier, 0.0)
    return np.array([gait.theta_plus, h0[0], h0[1], 0.0, 0.0, gait.q3dot_start])
