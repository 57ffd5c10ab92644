"""Single-support control: PD outer loop, torque partition, reference governor.

The controller tracks h_d(s) with a diagonal PD law whose velocity reference
w is not dh_d/dt directly but a governed copy of it.  The governor moves w
toward dh_d/dt only as fast as an invariant-set bound allows, which keeps the
commanded torque inside its box without ever clipping the closed-loop law.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import NamedTuple

import numpy as np

from .dynamics import DynTerms, ss_dynamics, solve_ddq
from .errors import SingularDynamicsError
from .gait import GaitParams, OutputData, decoupling_or_raise, output_data
from .params import ModelParams

GAMMA_CAP = 1e6
_X_A = [1, 2, 4, 5]  # positions of x_a = (q_a, dq_a) in z = (q, dq, w)


class ConstraintData(NamedTuple):
    """Affine rows C(x_a, x_w) = C_x x_a + C_w x_w + C_limit >= 0.

    Rows 0-7 bound the augmented tracking state x_a = (q_a, dq_a) by x_max;
    rows 8-11 are the exact torque box |u| <= u_max rewritten through the
    closed-loop input map.
    """

    C_x: np.ndarray      # (12, 4)
    C_w: np.ndarray      # (12, 4)
    C_limit: np.ndarray  # (12,)
    P: np.ndarray        # (4, 4) ellipsoid metric for the level-set bound


def pd_accel(y: np.ndarray, dq_a: np.ndarray, w: np.ndarray, gait: GaitParams) -> np.ndarray:
    """Outer-loop commanded acceleration v = Kp y + Kd (dq_a - w)."""
    return gait.kp * y + gait.kd * (dq_a - w)


def partitioned_torque(
    x_s: np.ndarray,
    dw_a: np.ndarray,
    v: np.ndarray,
    params: ModelParams,
    terms: DynTerms | None = None,
) -> np.ndarray:
    """Torque from the unactuated/actuated partition of the dynamics.

    Solving the q1 row for ddq1 and substituting back gives
    u = beta1 (dw_a - v) + beta2 with the Schur complement beta1 and drift
    beta2; the closed loop then satisfies ddq_a = dw_a - v exactly.
    """
    if terms is None:
        x_s = np.asarray(x_s, dtype=float)
        terms = ss_dynamics(x_s[:3], x_s[3:], params)
    (d11, d12, d13), (d21, d22, d23), (d31, d32, d33) = terms.D.tolist()
    h1, h2, h3 = terms.H.tolist()
    if abs(d11) < 1e-12:
        raise SingularDynamicsError("unactuated inertia vanished in torque partition")
    e2, e3 = np.subtract(dw_a, v).tolist()
    r1 = h1 / d11
    u2 = ((d22 - d21 * d12 / d11) * e2 + (d23 - d21 * d13 / d11) * e3
          + (h2 - d21 * r1))
    u3 = ((d32 - d31 * d12 / d11) * e2 + (d33 - d31 * d13 / d11) * e3
          + (h3 - d31 * r1))
    return np.array([u2, u3])


# state box rows of C_x: x_max - x_a >= 0, then x_a + x_max >= 0
_STATE_ROWS = np.vstack([-np.eye(4), np.eye(4)]).tolist()
_ZERO_ROWS = np.zeros((8, 4)).tolist()


def constraint_data(od: OutputData, gait: GaitParams) -> ConstraintData:
    """Torque and state box as affine rows in (x_a, x_w), x_w = (h_d, w).

    The torque rows need W^-1 for the decoupling matrix W = LgLfh; it comes
    from the 2x2 adjugate over the determinant that decoupling_or_raise
    bounds away from zero.
    """
    (a, b), (c, d) = decoupling_or_raise(od).tolist()
    det = a * d - b * c
    i00, i01, i10, i11 = d / det, -b / det, -c / det, a / det
    kp2, kp3 = gait.kp.tolist()
    kd2, kd3 = gait.kd.tolist()
    l2, l3 = od.Lf2h.tolist()
    wi_l2 = i00 * l2 + i01 * l3
    wi_l3 = i10 * l2 + i11 * l3
    u2, u3 = gait.u_max.tolist()

    # torque box, exact: u = -W^-1 (Lf2h + Kp(q_a - h_d) + Kd(dq_a - w));
    # k2, k3 are the rows of [W^-1 Kp, W^-1 Kd]
    k2 = [i00 * kp2, i01 * kp3, i00 * kd2, i01 * kd3]
    k3 = [i10 * kp2, i11 * kp3, i10 * kd2, i11 * kd3]
    n2 = [-v for v in k2]
    n3 = [-v for v in k3]
    C_x = np.array(_STATE_ROWS + [k2, k3, n2, n3])
    C_w = np.array(_ZERO_ROWS + [n2, n3, k2, k3])
    C_limit = np.array(gait.state_limits + [u2 + wi_l2, u3 + wi_l3,
                                            u2 - wi_l2, u3 - wi_l3])
    return ConstraintData(C_x, C_w, C_limit, gait.tracking_metric)


def reference_point(od: OutputData, w: np.ndarray) -> np.ndarray:
    return np.concatenate([od.h_d, w])


def lyapunov_value(x_a: np.ndarray, x_w: np.ndarray, P: np.ndarray) -> float:
    e = x_a - x_w
    return float(e @ P @ e)


def gamma_bound(x_w: np.ndarray, cdata: ConstraintData) -> float:
    """Largest level of (x_a-x_w)' P (x_a-x_w) inscribed in the constraint set.

    Per row: Gamma_i = r_i^2 / (C_x,i P^-1 C_x,i') with r_i the row value at
    x_a = x_w.  Rows that do not involve x_a, or whose limit is infinite, do
    not bind; a reference already on or past a boundary gives zero.
    """
    r = cdata.C_x @ x_w + cdata.C_w @ x_w + cdata.C_limit
    den = cdata.C_x ** 2 @ (1.0 / cdata.P.diagonal())
    best = GAMMA_CAP
    for ri, di, li in zip(r.tolist(), den.tolist(), cdata.C_limit.tolist()):
        if not isfinite(li):
            continue
        if di < 1e-14:
            if ri < 0.0:
                return 0.0
            continue
        if ri <= 0.0:
            return 0.0
        best = min(best, ri ** 2 / di)
    return best


def governor_rate(
    w: np.ndarray,
    target: np.ndarray,
    margin: float,
    kappa: float,
    rate_cap: float,
    sign_eps: float,
) -> np.ndarray:
    """dw: capped speed toward the target, scaled by the safety margin."""
    amp = min(kappa * max(margin, 0.0), rate_cap)
    return amp * np.tanh((target - w) / sign_eps)


@dataclass
class SsSample:
    """Everything the harness logs at one SS node; ddq is what the field integrates."""

    u: np.ndarray
    u_raw: np.ndarray
    y: np.ndarray
    dy: np.ndarray
    V: float
    Gamma: float
    w: np.ndarray
    h_d: np.ndarray
    dh_d_dt: np.ndarray
    s: float
    saturated: bool
    ddq: np.ndarray


class SsController:
    """Stateful SS layer: augmented field in z = (q, dq, w).

    The governor state w rides along with the mechanical state so a single
    RK4 pass integrates both consistently.  The last pipeline evaluation, ddq
    included, is kept, keyed by the bytes of z: a node sampled for the log is
    the state at which the next RK4 step's first stage calls the field, and a
    byte-exact key can never hand back the result for another state.
    """

    def __init__(
        self,
        gait: GaitParams,
        params: ModelParams,
        kappa: float = 100.0,
        rate_cap: float = 200.0,
        sign_eps: float = 1e-2,
        governor_enabled: bool = True,
    ) -> None:
        self.gait = gait
        self.params = params
        self.kappa = kappa
        self.rate_cap = rate_cap
        self.sign_eps = sign_eps
        self.governor_enabled = governor_enabled
        self._last = (None, None)  # (z.tobytes(), _pipeline result)

    def initial_w(self, x_s: np.ndarray) -> np.ndarray:
        """Feasible start: w at the current actuated rates.

        Starting w at the current rates makes the velocity error zero, so the
        invariant-set margin Gamma - V is nonnegative from the first sample;
        the governor then slews w toward dh_d/dt as the margin allows.
        """
        return np.asarray(x_s, dtype=float)[4:6].copy()

    def _pipeline(self, z: np.ndarray):
        z = np.asarray(z, dtype=float)
        key = z.tobytes()
        if key == self._last[0]:
            return self._last[1]
        x_s = z[:6]
        w = z[6:8]
        terms = ss_dynamics(z[:3], z[3:6], self.params)
        od = output_data(x_s, self.gait, self.params, terms=terms)
        cdata = constraint_data(od, self.gait)
        x_w = reference_point(od, w)
        V = lyapunov_value(z[_X_A], x_w, cdata.P)
        Gamma = gamma_bound(x_w, cdata)
        if self.governor_enabled:
            dw = governor_rate(w, od.dh_d_dt, Gamma - V, self.kappa,
                               self.rate_cap, self.sign_eps)
        else:
            dw = np.zeros(2)
        v = pd_accel(od.y, z[4:6], w, self.gait)
        u_raw = partitioned_torque(x_s, dw, v, self.params, terms=terms)
        u = np.array([min(max(ui, -cap), cap)
                      for ui, cap in zip(u_raw.tolist(), self.gait.u_max.tolist())])
        ddq = solve_ddq(terms, terms.B @ u - terms.H)
        result = ddq, od, V, Gamma, dw, u, u_raw
        self._last = (key, result)
        return result

    def field(self, t: float, z: np.ndarray) -> np.ndarray:
        ddq, _, _, _, dw, _, _ = self._pipeline(z)
        return np.concatenate((z[3:6], ddq, dw))

    def sample(self, z: np.ndarray) -> SsSample:
        """Logged quantities at z, as copies that leave the kept result intact."""
        ddq, od, V, Gamma, _, u, u_raw = self._pipeline(z)
        sat = bool(np.any(np.abs(u_raw) > self.gait.u_max + 1e-12))
        return SsSample(u.copy(), u_raw.copy(), od.y.copy(), od.dy.copy(), V,
                        Gamma, z[6:8].copy(), od.h_d.copy(), od.dh_d_dt.copy(),
                        od.s, sat, ddq.copy())
