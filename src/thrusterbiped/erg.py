"""Single-support control: PD outer loop, torque partition, reference governor.

The controller tracks h_d(s) with a diagonal PD law whose velocity reference
w is not dh_d/dt directly but a governed copy of it.  The governor moves w
toward dh_d/dt only as fast as an invariant-set bound allows, which keeps the
commanded torque inside its box without ever clipping the closed-loop law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import DynTerms, ss_dynamics, solve_ddq
from .errors import SingularDynamicsError
from .gait import GaitParams, OutputData, decoupling_or_raise, output_data
from .params import ModelParams

GAMMA_CAP = 1e6


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
    x_s = np.asarray(x_s, dtype=float)
    if terms is None:
        terms = ss_dynamics(x_s[:3], x_s[3:], params)
    D, H = terms.D, terms.H
    d1 = D[0, 0]
    if abs(d1) < 1e-12:
        raise SingularDynamicsError("unactuated inertia vanished in torque partition")
    beta1 = D[1:, 1:] - np.outer(D[1:, 0], D[0, 1:]) / d1
    beta2 = H[1:] - D[1:, 0] * (H[0] / d1)
    return beta1 @ (dw_a - v) + beta2


def constraint_data(od: OutputData, gait: GaitParams) -> ConstraintData:
    """Torque and state box as affine rows in (x_a, x_w), x_w = (h_d, w)."""
    W = decoupling_or_raise(od)
    Wi_kp = np.linalg.solve(W, np.diag(gait.kp))
    Wi_kd = np.linalg.solve(W, np.diag(gait.kd))
    wi_l = np.linalg.solve(W, od.Lf2h)

    C_x = np.zeros((12, 4))
    C_w = np.zeros((12, 4))
    C_limit = np.zeros(12)

    # state box: x_max - x_a >= 0 and x_a + x_max >= 0
    C_x[0:4] = -np.eye(4)
    C_limit[0:4] = gait.x_max
    C_x[4:8] = np.eye(4)
    C_limit[4:8] = gait.x_max

    # torque box, exact: u = -W^-1 (Lf2h + Kp(q_a - h_d) + Kd(dq_a - w))
    K_block = np.hstack([Wi_kp, Wi_kd])  # (2, 4)
    C_x[8:10] = K_block
    C_x[10:12] = -K_block
    C_w[8:10, 0:2] = -Wi_kp
    C_w[10:12, 0:2] = Wi_kp
    C_w[8:10, 2:4] = -Wi_kd
    C_w[10:12, 2:4] = Wi_kd
    C_limit[8:10] = gait.u_max + wi_l
    C_limit[10:12] = gait.u_max - wi_l

    P = 0.5 * np.diag(np.concatenate([gait.kp, gait.kd]))
    return ConstraintData(C_x, C_w, C_limit, P)


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
    pinv = 1.0 / np.diag(cdata.P)
    best = GAMMA_CAP
    for i in range(r.shape[0]):
        if not np.isfinite(cdata.C_limit[i]):
            continue
        den = float(cdata.C_x[i] ** 2 @ pinv)
        if den < 1e-14:
            if r[i] < 0.0:
                return 0.0
            continue
        if r[i] <= 0.0:
            return 0.0
        best = min(best, float(r[i]) ** 2 / den)
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
    """Everything the harness logs at one SS integration node."""

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


class SsController:
    """Stateful SS layer: augmented field in z = (q, dq, w).

    The governor state w rides along with the mechanical state so a single
    RK4 pass integrates both consistently.
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

    def initial_w(self, x_s: np.ndarray) -> np.ndarray:
        """Feasible start: w at the current actuated rates.

        Starting w at the current rates makes the velocity error zero, so the
        invariant-set margin Gamma - V is nonnegative from the first sample;
        the governor then slews w toward dh_d/dt as the margin allows.
        """
        return np.asarray(x_s, dtype=float)[4:6].copy()

    def _pipeline(self, z: np.ndarray):
        x_s = z[:6]
        w = z[6:8]
        terms = ss_dynamics(x_s[:3], x_s[3:], self.params)
        od = output_data(x_s, self.gait, self.params, terms=terms)
        cdata = constraint_data(od, self.gait)
        x_a = np.concatenate([x_s[1:3], x_s[4:6]])
        x_w = reference_point(od, w)
        V = lyapunov_value(x_a, x_w, cdata.P)
        Gamma = gamma_bound(x_w, cdata)
        if self.governor_enabled:
            dw = governor_rate(w, od.dh_d_dt, Gamma - V, self.kappa,
                               self.rate_cap, self.sign_eps)
        else:
            dw = np.zeros(2)
        v = pd_accel(od.y, x_s[4:6], w, self.gait)
        u_raw = partitioned_torque(x_s, dw, v, self.params, terms=terms)
        u = np.clip(u_raw, -self.gait.u_max, self.gait.u_max)
        return terms, od, V, Gamma, dw, u, u_raw

    def field(self, t: float, z: np.ndarray) -> np.ndarray:
        terms, _, _, _, dw, u, _ = self._pipeline(z)
        ddq = solve_ddq(terms, terms.B @ u - terms.H)
        out = np.empty(8)
        out[0:3] = z[3:6]
        out[3:6] = ddq
        out[6:8] = dw
        return out

    def sample(self, z: np.ndarray) -> SsSample:
        _, od, V, Gamma, _, u, u_raw = self._pipeline(z)
        sat = bool(np.any(np.abs(u_raw) > self.gait.u_max + 1e-12))
        return SsSample(u, u_raw, od.y, od.dy, V, Gamma, z[6:8].copy(),
                        od.h_d, od.dh_d_dt, od.s, sat)
