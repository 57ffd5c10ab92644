"""Single-support control: PD outer loop, torque partition, reference governor.

The controller tracks h_d(s) with a diagonal PD law whose velocity reference
w is not dh_d/dt directly but a governed copy of it.  The governor moves w
toward dh_d/dt only as fast as an invariant-set bound allows, which keeps the
commanded torque inside its box without ever clipping the closed-loop law.

Each layer (`pd_accel`, `partitioned_torque`, `constraint_data`,
`lyapunov_value`, `gamma_bound`, `governor_rate`) is an array wrapper around a
private core on Python floats.  `SsController` chains the cores: a field call
builds the arrays of `ss_dynamics` and `output_data` and the returned
8-vector, and nothing in between.  Gamma comes from the constraint rows'
structure, `_box_gamma`, not from 12x4 matrices.  V keeps numpy's fused
multiply-add dot products and the governor keeps `np.tanh`, so the controller
returns the same bits as the composed public functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import NamedTuple

import numpy as np

from .dynamics import DynTerms, _finite, _solve_ddq, ss_dynamics
from .errors import SingularDynamicsError
from .gait import GaitParams, OutputData, _check_decoupling, output_data
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


def _pd_accel(y, dq_a, w, gains) -> list[float]:
    kp2, kp3, kd2, kd3 = gains
    return [kp2 * y[0] + kd2 * (dq_a[0] - w[0]),
            kp3 * y[1] + kd3 * (dq_a[1] - w[1])]


def pd_accel(y: np.ndarray, dq_a: np.ndarray, w: np.ndarray, gait: GaitParams) -> np.ndarray:
    """Outer-loop commanded acceleration v = Kp y + Kd (dq_a - w)."""
    return np.array(_pd_accel(np.asarray(y, dtype=float).tolist(),
                              np.asarray(dq_a, dtype=float).tolist(),
                              np.asarray(w, dtype=float).tolist(), gait.pd_gains))


def _partitioned_torque(D, H, e2: float, e3: float) -> list[float]:
    """`partitioned_torque` for D's rows and H as floats, e = dw_a - v."""
    (d11, d12, d13), (d21, d22, d23), (d31, d32, d33) = D
    h1, h2, h3 = H
    if abs(d11) < 1e-12:
        raise SingularDynamicsError("unactuated inertia vanished in torque partition")
    r1 = h1 / d11
    u2 = ((d22 - d21 * d12 / d11) * e2 + (d23 - d21 * d13 / d11) * e3
          + (h2 - d21 * r1))
    u3 = ((d32 - d31 * d12 / d11) * e2 + (d33 - d31 * d13 / d11) * e3
          + (h3 - d31 * r1))
    return [u2, u3]


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
    return np.array(_partitioned_torque(terms.D.tolist(), terms.H.tolist(),
                                        *np.subtract(dw_a, v).tolist()))


# state box rows of C_x: x_max - x_a >= 0, then x_a + x_max >= 0
_STATE_ROWS = np.vstack([-np.eye(4), np.eye(4)]).tolist()
_ZERO_ROWS = np.zeros((8, 4)).tolist()


def _torque_rows(W, Lf2h, gait: GaitParams):
    """Rows k2, k3 of [W^-1 Kp, W^-1 Kd] and the four torque-row limits.

    W = LgLfh (rows) and Lf2h are Python floats; W^-1 comes from the 2x2
    adjugate over the determinant that the decoupling check bounds away
    from zero.
    """
    _check_decoupling(W)
    (a, b), (c, d) = W
    det = a * d - b * c
    i00, i01, i10, i11 = d / det, -b / det, -c / det, a / det
    kp2, kp3, kd2, kd3 = gait.pd_gains
    l2, l3 = Lf2h
    wi_l2 = i00 * l2 + i01 * l3
    wi_l3 = i10 * l2 + i11 * l3
    u2, u3 = gait.torque_caps
    k2 = [i00 * kp2, i01 * kp3, i00 * kd2, i01 * kd3]
    k3 = [i10 * kp2, i11 * kp3, i10 * kd2, i11 * kd3]
    return k2, k3, [u2 + wi_l2, u3 + wi_l3, u2 - wi_l2, u3 - wi_l3]


def constraint_data(od: OutputData, gait: GaitParams) -> ConstraintData:
    """Torque and state box as affine rows in (x_a, x_w), x_w = (h_d, w).

    The torque box is exact: u = -W^-1 (Lf2h + Kp(q_a - h_d) + Kd(dq_a - w))
    with the decoupling matrix W = LgLfh, so k2, k3 are the rows of
    [W^-1 Kp, W^-1 Kd].
    """
    k2, k3, torque_limits = _torque_rows(od.LgLfh.tolist(), od.Lf2h.tolist(), gait)
    n2 = [-v for v in k2]
    n3 = [-v for v in k3]
    C_x = np.array(_STATE_ROWS + [k2, k3, n2, n3])
    C_w = np.array(_ZERO_ROWS + [n2, n3, k2, k3])
    C_limit = np.array(gait.state_limits + torque_limits)
    return ConstraintData(C_x, C_w, C_limit, gait.tracking_metric)


def reference_point(od: OutputData, w: np.ndarray) -> np.ndarray:
    return np.concatenate([od.h_d, w])


def _lyapunov(e: list, P: np.ndarray) -> float:
    # numpy's matvec and dot accumulate with fused multiply-adds, which
    # Python floats cannot reproduce; V stays bit-identical on numpy
    e = np.array(e)
    return float(e @ P @ e)


def lyapunov_value(x_a: np.ndarray, x_w: np.ndarray, P: np.ndarray) -> float:
    return _lyapunov(np.subtract(x_a, x_w).tolist(), P)


def _gamma_rows(r, den, lim) -> float:
    """Gamma from the per-row values r_i, C_x,i P^-1 C_x,i' and limits."""
    best = GAMMA_CAP
    for ri, di, li in zip(r, den, lim):
        if not isfinite(li):
            continue
        if di < 1e-14:
            if ri < 0.0:
                return 0.0
            continue
        if ri <= 0.0:
            return 0.0
        level = ri ** 2 / di
        if level < best:
            best = level
    return best


def gamma_bound(x_w: np.ndarray, cdata: ConstraintData) -> float:
    """Largest level of (x_a-x_w)' P (x_a-x_w) inscribed in the constraint set.

    Per row: Gamma_i = r_i^2 / (C_x,i P^-1 C_x,i') with r_i the row value at
    x_a = x_w.  Rows that do not involve x_a, or whose limit is infinite, do
    not bind; a reference already on or past a boundary gives zero.
    """
    r = cdata.C_x @ x_w + cdata.C_w @ x_w + cdata.C_limit
    p = (1.0 / cdata.P.diagonal()).tolist()
    den = [_metric_norm(row, p) for row in cdata.C_x.tolist()]
    return _gamma_rows(r.tolist(), den, cdata.C_limit.tolist())


def _metric_norm(c, p) -> float:
    """C_x,i P^-1 C_x,i' for a row c of four and p = diag(P^-1).

    The one summation order of every Gamma denominator, so `gamma_bound` and
    the controller's `_box_gamma` agree bit for bit under any BLAS.  It is the
    order in which OpenBLAS's matvec sums a row of four, so both also equal
    numpy's ``C_x**2 @ diag(P^-1)`` under the OpenBLAS build that
    ``tests/data/ss_pipeline_reference.csv`` was written with.
    """
    c0, c1, c2, c3 = c
    p0, p1, p2, p3 = p
    return (c0 * c0 * p0 + c2 * c2 * p2) + (c1 * c1 * p1 + c3 * c3 * p3)


def _box_gamma(x_w: list, k2: list, k3: list, torque_limits: list,
               gait: GaitParams) -> float:
    """`gamma_bound` of the `constraint_data` rows, on Python floats.

    Row by row, each value is the one `gamma_bound` forms from the 12x4
    blocks:
    - a state row has one unit entry, so r_i = x_max -+ x_w,j and the
      denominator is the j-th entry of diag(P^-1);
    - a torque row has C_w,i = -C_x,i, so its x_a and x_w parts cancel
      exactly at x_a = x_w and r_i is its limit;
    - a torque row's denominator is `_metric_norm` of its k, the function
      `gamma_bound` sums every row with.
    """
    p = gait.metric_inverse
    lim = gait.state_limits + torque_limits
    r = ([li - xi for li, xi in zip(lim[:4], x_w)]
         + [li + xi for li, xi in zip(lim[4:8], x_w)] + torque_limits)
    den2, den3 = _metric_norm(k2, p), _metric_norm(k3, p)
    den = p * 2 + [den2, den3, den2, den3]
    return _gamma_rows(r, den, lim)


def _governor_rate(w, target, margin: float, kappa: float, rate_cap: float,
                   sign_eps: float) -> list[float]:
    amp = min(kappa * max(margin, 0.0), rate_cap)
    # np.tanh, not math.tanh: the two differ in the last bit
    return [float(amp * np.tanh((ti - wi) / sign_eps)) for wi, ti in zip(w, target)]


def governor_rate(
    w: np.ndarray,
    target: np.ndarray,
    margin: float,
    kappa: float,
    rate_cap: float,
    sign_eps: float,
) -> np.ndarray:
    """dw: capped speed toward the target, scaled by the safety margin."""
    return np.array(_governor_rate(np.asarray(w, dtype=float).tolist(),
                                   np.asarray(target, dtype=float).tolist(),
                                   margin, kappa, rate_cap, sign_eps))


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
        """(dz/dt, outputs, V, Gamma, u, u_raw) at z, all but the outputs as floats."""
        z = np.asarray(z, dtype=float)
        key = z.tobytes()
        if key == self._last[0]:
            return self._last[1]
        zl = z.tolist()
        if not all(map(isfinite, zl)):
            _finite("q", zl[:3])
            _finite("dq", zl[3:6])
            _finite("w", zl[6:])
        w = zl[6:]
        gait = self.gait
        terms = ss_dynamics(z[:3], z[3:6], self.params)
        od = output_data(z[:6], gait, self.params, terms=terms)
        D, H = terms.D.tolist(), terms.H.tolist()
        k2, k3, torque_limits = _torque_rows(od.LgLfh.tolist(), od.Lf2h.tolist(), gait)
        x_w = od.h_d.tolist() + w
        V = _lyapunov([zl[1] - x_w[0], zl[2] - x_w[1], zl[4] - x_w[2], zl[5] - x_w[3]],
                      gait.tracking_metric)
        Gamma = _box_gamma(x_w, k2, k3, torque_limits, gait)
        if self.governor_enabled:
            dw = _governor_rate(w, od.dh_d_dt.tolist(), Gamma - V, self.kappa,
                                self.rate_cap, self.sign_eps)
        else:
            dw = [0.0, 0.0]
        v = _pd_accel(od.y.tolist(), zl[4:6], w, gait.pd_gains)
        u_raw = _partitioned_torque(D, H, dw[0] - v[0], dw[1] - v[1])
        u = [min(max(ui, -cap), cap) for ui, cap in zip(u_raw, gait.torque_caps)]
        u2, u3 = u
        # D ddq = B u - H
        (ddq,) = _solve_ddq(D, [[b2 * u2 + b3 * u3 - h
                                 for (b2, b3), h in zip(terms.B.tolist(), H)]])
        result = zl[3:6] + list(ddq) + dw, od, V, Gamma, u, u_raw
        self._last = (key, result)
        return result

    def field(self, t: float, z: np.ndarray) -> np.ndarray:
        return np.array(self._pipeline(z)[0])

    def sample(self, z: np.ndarray) -> SsSample:
        """Logged quantities at z, as copies that leave the kept result intact."""
        rate, od, V, Gamma, u, u_raw = self._pipeline(z)
        sat = any(abs(ui) > cap + 1e-12 for ui, cap in zip(u_raw, self.gait.torque_caps))
        return SsSample(np.array(u), np.array(u_raw), od.y.copy(), od.dy.copy(), V,
                        Gamma, np.array(z[6:8], dtype=float), od.h_d.copy(),
                        od.dh_d_dt.copy(), od.s, sat, np.array(rate[3:6]))
