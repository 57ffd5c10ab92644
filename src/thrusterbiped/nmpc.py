"""Double-support control: contact-constrained dynamics and predictive steering.

With both feet pinned the mechanism is a rigid triangle; only the torso joint
moves, and the joint torques plus thrust mostly shape the ground-reaction
forces.  The controller exploits exactly that: a receding-horizon program
brakes the torso toward the next step's initial rate while thrust presses the
contact forces deep enough into the friction cone to make the braking torque
admissible.

All predictions use one linearization per solve: dynamics by central finite
differences (thrust/torque columns exact through the contact solve), contact
forces as an affine map of state and input.  Each sample solves one dense QP.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import contact_kinematics, contact_solve, ds_dynamics
from .params import ModelParams
from .qp import INFEASIBLE, OPTIMAL, QpSolution, solve_qp

N_X = 10
N_ETA = 3


class DsForces(NamedTuple):
    ddq: np.ndarray      # (5,)
    lam: np.ndarray      # (4,) [lamT1, lamN1, lamT2, lamN2]


def ds_rhs(x_d: np.ndarray, eta: np.ndarray, params: ModelParams) -> DsForces:
    """Accelerations and contact forces with both feet pinned.

    KKT system of the constrained dynamics; the velocity-level constraint
    drift is damped at rate `params.d` so long integrations stay on the
    contact manifold.
    """
    x_d = np.asarray(x_d, dtype=float)
    q, dq = x_d[:5], x_d[5:]
    terms = ds_dynamics(q, dq, params)
    ck = contact_kinematics(q, dq, params)
    ddq, lam = contact_solve(terms.D, ck.J, terms.B @ eta - terms.H,
                             -ck.jdot_qdot - params.d * (ck.J @ dq))
    return DsForces(ddq, lam)


def ds_field(x_d: np.ndarray, eta: np.ndarray, params: ModelParams) -> np.ndarray:
    """Reduced first-order form of ds_rhs (forces eliminated)."""
    out = np.empty(N_X)
    out[:5] = x_d[5:]
    out[5:] = ds_rhs(x_d, eta, params).ddq
    return out


def ds_affine_maps(
    x_d: np.ndarray, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact input maps at fixed state: ddq and lam are affine in eta.

    Returns (ddq0, G_ddq, lam0, G_lam) with ddq = ddq0 + G_ddq @ eta and
    lam = lam0 + G_lam @ eta, obtained from one multi-RHS KKT solve.
    """
    x_d = np.asarray(x_d, dtype=float)
    q, dq = x_d[:5], x_d[5:]
    terms = ds_dynamics(q, dq, params)
    ck = contact_kinematics(q, dq, params)
    rhs_con = np.zeros((4, 1 + N_ETA))
    rhs_con[:, 0] = -ck.jdot_qdot - params.d * (ck.J @ dq)
    ddq, lam = contact_solve(terms.D, ck.J, np.column_stack([-terms.H, terms.B]),
                             rhs_con)
    return ddq[:, 0], ddq[:, 1:], lam[:, 0], lam[:, 1:]


def linearize_discretize(
    f: Callable[[np.ndarray, np.ndarray], np.ndarray],
    x: np.ndarray,
    eta: np.ndarray,
    T_s: float,
    B_exact: np.ndarray,
    rel_step: float = 1e-6,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward-Euler discretization of the Jacobian linearization of f.

    x[k+1] ~ A x[k] + B eta[k] + c.  State Jacobian by central differences
    with relative step; the input Jacobian is the exact column map B_exact.
    """
    x = np.asarray(x, dtype=float)
    eta = np.asarray(eta, dtype=float)
    n = x.shape[0]
    f0 = f(x, eta)

    J = np.empty((n, n))
    for j in range(n):
        h = rel_step * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (f(xp, eta) - f(xm, eta)) / (2.0 * h)

    A = np.eye(n) + T_s * J
    B = T_s * B_exact
    c = x + T_s * f0 - A @ x - B @ eta
    return A, B, c


def linearize_ds(
    x_d: np.ndarray, eta: np.ndarray, T_s: float, params: ModelParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DS-dynamics discretization with the exact thrust/torque column map."""
    _, G_ddq, _, _ = ds_affine_maps(x_d, params)
    B_exact = np.zeros((N_X, N_ETA))
    B_exact[5:, :] = G_ddq
    return linearize_discretize(
        lambda xx, ee: ds_field(xx, ee, params), x_d, eta, T_s, B_exact
    )


def linearize_forces(
    x_d: np.ndarray, eta: np.ndarray, params: ModelParams, rel_step: float = 1e-6
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Affine contact-force model lam ~ lam0 + L_x (x - x_d) + L_eta (eta - eta0).

    The input block is exact (KKT is affine in eta); the state block is a
    central finite difference.
    """
    x_d = np.asarray(x_d, dtype=float)
    eta = np.asarray(eta, dtype=float)
    _, _, lam_base, lam_gain = ds_affine_maps(x_d, params)
    lam0 = lam_base + lam_gain @ eta

    Lx = np.empty((4, N_X))
    for j in range(N_X):
        h = rel_step * max(1.0, abs(x_d[j]))
        xp = x_d.copy()
        xm = x_d.copy()
        xp[j] += h
        xm[j] -= h
        Lx[:, j] = (ds_rhs(xp, eta, params).lam - ds_rhs(xm, eta, params).lam) / (2.0 * h)
    return lam0, Lx, lam_gain


def reference_trajectory(x_d0: np.ndarray, x_target: np.ndarray, n_nodes: int) -> np.ndarray:
    """Componentwise straight line from the current state to the target."""
    if n_nodes < 2:
        raise ValueError("need at least two reference nodes")
    return np.linspace(np.asarray(x_d0, float), np.asarray(x_target, float), n_nodes)


@dataclass
class NmpcProblem:
    """One receding-horizon instance over n_int input intervals of T_s."""

    n_int: int
    T_s: float
    r_d: np.ndarray        # (n_int + 1, 10) reference nodes
    w_x: np.ndarray        # (10,)
    w_eta: np.ndarray      # (3,) input-increment weights, all > 0
    eta_lo: np.ndarray     # (3,)
    eta_hi: np.ndarray     # (3,)
    x_lo: np.ndarray       # (10,)
    x_hi: np.ndarray       # (10,)
    mu_s: float = 0.3
    eps_normal: float = 0.1

    def __post_init__(self) -> None:
        if self.n_int < 1:
            raise ValueError("horizon must contain at least one interval")
        self.r_d = np.asarray(self.r_d, dtype=float)
        if self.r_d.shape != (self.n_int + 1, N_X):
            raise ValueError("reference table shape mismatch")
        for name in ("w_x", "w_eta", "eta_lo", "eta_hi", "x_lo", "x_hi"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if np.any(self.w_eta <= 0.0):
            raise ValueError("input-increment weights must be positive")


@dataclass
class NmpcSolution:
    eta_seq: np.ndarray      # (n_int, 3)
    x_pred: np.ndarray       # (n_int + 1, 10)
    lambda_pred: np.ndarray  # (n_int, 4)
    objective: float
    status: str
    qp_iterations: int = 0


def solve_nmpc(
    prob: NmpcProblem,
    x_d1: np.ndarray,
    params: ModelParams,
    eta_base: np.ndarray | None = None,
) -> NmpcSolution:
    """Condense the linearized horizon into one dense QP and solve it.

    Friction-cone and minimum-normal-force rows use the affine force model at
    nodes 0..n_int-1; state boxes apply at nodes 1..n_int.  An infeasible or
    stalled QP returns zero input with the corresponding status.
    """
    x1 = np.asarray(x_d1, dtype=float)
    K = prob.n_int
    eta0 = np.zeros(N_ETA) if eta_base is None else np.asarray(eta_base, dtype=float)

    A, B, c = linearize_ds(x1, eta0, prob.T_s, params)
    lam0, Lx, Le = linearize_forces(x1, eta0, params)

    # prediction: x[k] = x_free[k] + S[k] @ z, z = stacked inputs
    nz = N_ETA * K
    x_free = np.empty((K + 1, N_X))
    x_free[0] = x1
    S = np.zeros((K + 1, N_X, nz))
    for k in range(K):
        x_free[k + 1] = A @ x_free[k] + c
        S[k + 1] = A @ S[k]
        S[k + 1][:, N_ETA * k:N_ETA * (k + 1)] += B

    # quadratic cost in z
    P = np.zeros((nz, nz))
    qv = np.zeros(nz)
    Wx = prob.w_x
    for k in range(1, K + 1):
        Sw = S[k] * Wx[:, None]
        P += S[k].T @ Sw
        qv += Sw.T @ (x_free[k] - prob.r_d[k])
    Dfull = np.eye(nz)
    for k in range(1, K):
        Dfull[N_ETA * k:N_ETA * (k + 1), N_ETA * (k - 1):N_ETA * k] = -np.eye(N_ETA)
    Weta = np.tile(prob.w_eta, K)
    P += Dfull.T @ (Dfull * Weta[:, None])
    P *= 2.0
    qv *= 2.0

    rows: list[np.ndarray] = []
    rhs: list[float] = []

    eye_z = np.eye(nz)
    for k in range(K):
        blk = eye_z[N_ETA * k:N_ETA * (k + 1)]
        rows.append(blk)
        rhs.extend(prob.eta_hi)
        rows.append(-blk)
        rhs.extend(-prob.eta_lo)

    for k in range(1, K + 1):
        rows.append(S[k])
        rhs.extend(prob.x_hi - x_free[k])
        rows.append(-S[k])
        rhs.extend(x_free[k] - prob.x_lo)

    mu = prob.mu_s
    cone = np.array([
        [1.0, -mu, 0.0, 0.0],
        [-1.0, -mu, 0.0, 0.0],
        [0.0, 0.0, 1.0, -mu],
        [0.0, 0.0, -1.0, -mu],
        [0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
    ])
    cone_rhs = np.array([0.0, 0.0, 0.0, 0.0, -prob.eps_normal, -prob.eps_normal])
    for k in range(K):
        Mlam = Lx @ S[k]
        Mlam[:, N_ETA * k:N_ETA * (k + 1)] += Le
        lam_const = lam0 + Lx @ (x_free[k] - x1) - Le @ eta0
        rows.append(cone @ Mlam)
        rhs.extend(cone_rhs - cone @ lam_const)

    G = np.vstack(rows)
    h = np.array(rhs)

    # early-horizon position boxes have zero sensitivity to the inputs; drop
    # trivially satisfied rows, and fail fast on unsatisfiable ones
    live = np.linalg.norm(G, axis=1) > 1e-9
    dead_bad = ~live & (h < -1e-9)
    if np.any(dead_bad):
        zero = np.zeros((K, N_ETA))
        return NmpcSolution(zero, x_free.copy(), _predict_forces(
            zero, x_free, x1, eta0, lam0, Lx, Le), float("nan"), INFEASIBLE, 0)
    finite = np.isfinite(h)
    keep = live & finite
    G = G[keep]
    h = h[keep]

    sol: QpSolution = solve_qp(P, qv, G, h)
    if sol.status != OPTIMAL:
        zero = np.zeros((K, N_ETA))
        return NmpcSolution(zero, x_free.copy(), _predict_forces(
            zero, x_free, x1, eta0, lam0, Lx, Le), float("nan"), sol.status,
            sol.iterations)

    z = sol.z
    eta_seq = z.reshape(K, N_ETA)
    x_pred = x_free + np.einsum("kij,j->ki", S, z)
    lam_pred = _predict_forces(eta_seq, x_pred, x1, eta0, lam0, Lx, Le)

    obj = 0.0
    for k in range(1, K + 1):
        e = x_pred[k] - prob.r_d[k]
        obj += float(e @ (Wx * e))
    prev = np.zeros(N_ETA)
    for k in range(K):
        de = eta_seq[k] - prev
        obj += float(de @ (prob.w_eta * de))
        prev = eta_seq[k]
    return NmpcSolution(eta_seq, x_pred, lam_pred, obj, OPTIMAL, sol.iterations)


def _predict_forces(eta_seq, x_pred, x1, eta0, lam0, Lx, Le):
    K = eta_seq.shape[0]
    lam = np.empty((K, 4))
    for k in range(K):
        lam[k] = lam0 + Lx @ (x_pred[k] - x1) + Le @ (eta_seq[k] - eta0)
    return lam


@dataclass
class NmpcController:
    """Shrinking-horizon steering over a fixed DS time envelope.

    reset() pins the reference line and constraint boxes for one DS phase;
    __call__ solves the QP for the remaining horizon and applies the first
    input.  The previous solution is kept as the linearization base.
    """

    params: ModelParams
    T_s: float = 1e-3
    n_int: int = 20
    w_x: np.ndarray = field(default_factory=lambda: np.array(
        [0.0, 10.0, 10.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0]))
    w_eta: np.ndarray = field(default_factory=lambda: np.array([1e-3, 1e-3, 1e-4]))
    u_max: np.ndarray = field(default_factory=lambda: np.array([3.0, 3.0]))
    f_th_max: float = 40.0
    mu_s: float = 0.3
    eps_normal: float = 0.1
    angle_max: float = 1.2
    rate_max: float = 10.0
    hip_box: float = 1.0
    thrust_enabled: bool = True

    def __post_init__(self) -> None:
        self.w_x = np.asarray(self.w_x, dtype=float)
        self.w_eta = np.asarray(self.w_eta, dtype=float)
        self.u_max = np.asarray(self.u_max, dtype=float)
        self._r_d: np.ndarray | None = None
        self._x_lo: np.ndarray | None = None
        self._x_hi: np.ndarray | None = None
        self._prev: np.ndarray | None = None
        self.status_log: list[tuple[int, str, int, float]] = []

    def reset(self, x_d0: np.ndarray, x_target: np.ndarray) -> None:
        x_d0 = np.asarray(x_d0, dtype=float)
        self._r_d = reference_trajectory(x_d0, x_target, self.n_int + 1)
        ang, rate, hip = self.angle_max, self.rate_max, self.hip_box
        lo = np.array([-ang, -ang, -ang, x_d0[3] - hip, x_d0[4] - hip,
                       -rate, -rate, -rate, -rate, -rate])
        hi = np.array([ang, ang, ang, x_d0[3] + hip, x_d0[4] + hip,
                       rate, rate, rate, rate, rate])
        self._x_lo, self._x_hi = lo, hi
        self._prev = None
        self.status_log = []

    def __call__(self, sample: int, x_d: np.ndarray) -> np.ndarray:
        if self._r_d is None:
            raise RuntimeError("controller used before reset()")
        K = self.n_int - sample
        if K < 1:
            return np.zeros(N_ETA)
        fmax = self.f_th_max if self.thrust_enabled else 0.0
        prob = NmpcProblem(
            n_int=K,
            T_s=self.T_s,
            r_d=self._r_d[sample:],
            w_x=self.w_x,
            w_eta=self.w_eta,
            eta_lo=np.array([-self.u_max[0], -self.u_max[1], 0.0]),
            eta_hi=np.array([self.u_max[0], self.u_max[1], fmax]),
            x_lo=self._x_lo,
            x_hi=self._x_hi,
            mu_s=self.mu_s,
            eps_normal=self.eps_normal,
        )
        base = None
        if self._prev is not None and self._prev.shape[0] >= 2:
            base = self._prev[1]
        solution = solve_nmpc(prob, x_d, self.params, eta_base=base)
        self.status_log.append(
            (sample, solution.status, solution.qp_iterations, solution.objective))
        if solution.status != OPTIMAL:
            self._prev = None
            return np.zeros(N_ETA)
        self._prev = solution.eta_seq
        return solution.eta_seq[0].copy()


class DsTrace(NamedTuple):
    t: np.ndarray          # (n+1,)
    x: np.ndarray          # (n+1, 10)
    lam: np.ndarray        # (n+1, 4)
    eta: np.ndarray        # (n+1, 3) zero-order-hold input active at each node
    contact_violation: bool
    statuses: list[tuple[int, str, int, float]]


def simulate_ds(
    x_d0: np.ndarray,
    controller,
    T_env: float,
    dt: float,
    params: ModelParams,
    T_s: float = 1e-3,
) -> tuple[DsTrace, np.ndarray]:
    """Integrate the DS phase under zero-order-hold inputs.

    `controller(sample_index, state) -> eta` is queried every T_s; RK4
    substeps of size dt run in between.  Contact forces are recorded at every
    substep node; a nonpositive normal force flags the trace but does not
    stop it (the fixed envelope is the exit condition).
    """
    x = np.asarray(x_d0, dtype=float).copy()
    if T_env <= 0.0:
        lam = ds_rhs(x, np.zeros(N_ETA), params).lam
        trace = DsTrace(np.array([0.0]), x[None, :].copy(), lam[None, :],
                        np.zeros((1, N_ETA)), bool(np.any(lam[[1, 3]] <= 0.0)), [])
        return trace, x.copy()

    n_samples = max(1, int(round(T_env / T_s)))
    n_sub = max(1, int(round(T_s / dt)))
    h = T_env / (n_samples * n_sub)

    ts = [0.0]
    xs = [x.copy()]
    lams = []
    etas = []
    violated = False
    t = 0.0
    for j in range(n_samples):
        eta = np.asarray(controller(j, x), dtype=float)

        def f(xx, eta=eta):
            return ds_field(xx, eta, params)

        for _ in range(n_sub):
            # the logged forces' solve also gives the first RK4 stage
            forces = ds_rhs(x, eta, params)
            lams.append(forces.lam.copy())
            etas.append(eta.copy())
            if forces.lam[1] <= 0.0 or forces.lam[3] <= 0.0:
                violated = True

            k1 = np.concatenate([x[5:], forces.ddq])
            k2 = f(x + 0.5 * h * k1)
            k3 = f(x + 0.5 * h * k2)
            k4 = f(x + h * k3)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            t += h
            ts.append(t)
            xs.append(x.copy())

    final_forces = ds_rhs(x, etas[-1], params)
    lams.append(final_forces.lam.copy())
    etas.append(etas[-1].copy())
    if final_forces.lam[1] <= 0.0 or final_forces.lam[3] <= 0.0:
        violated = True

    statuses = list(getattr(controller, "status_log", []))
    trace = DsTrace(np.array(ts), np.array(xs), np.array(lams), np.array(etas),
                    violated, statuses)
    return trace, x.copy()
