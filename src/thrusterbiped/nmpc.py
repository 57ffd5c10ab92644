"""Double-support control: contact-constrained dynamics and predictive steering.

With both feet pinned the mechanism is a rigid triangle; only the torso joint
moves, and the joint torques plus thrust mostly shape the ground-reaction
forces.  The controller exploits exactly that: a receding-horizon program
brakes the torso toward the next step's initial rate while thrust presses the
contact forces deep enough into the friction cone to make the braking torque
admissible.

Each sample linearizes once and solves one dense QP, as in the real-time
iteration scheme (Diehl, Bock & Schloeder 2005).  One central-difference
sweep over the state gives both the dynamics model and the affine
contact-force model, since every perturbed contact solve returns the
accelerations and the forces together.  The mass matrix, J's leg block and
the thrust direction depend on the positions only, so one multi-RHS contact
solve at the base point gives the exact thrust/torque columns and every
velocity-perturbed column; only the q1..q3 perturbations solve on their own,
and the hip-position columns are exactly zero.  `ds_rhs`, the sweep and the
RK4 substeps of `simulate_ds` run on Python floats from the state to the
forces: they call `dynamics`' float functions and build numpy arrays only
for their results.

Consecutive samples end on nearly the same QP rows, so the controller hot
starts each QP (as qpOASES does; Ferreau et al. 2014) from the previous
sample's active rows, named by labels that do not depend on the row order.
The QP's optimum is unique, so the warm start moves the inputs only by
rounding; `qp` states the entering rule that keeps the active-set path from
depending on the last bits of P.

The condensing uses the horizon's structure: A and B are fixed, so every
input block of the prediction matrix S[k] is a power A^i B.  The K products
A^i B are built once and S is gathered from them; the tracking cost is one
batched contraction over the stacked S, the input-increment cost is written
in its block-tridiagonal closed form, and the constraint rows are assembled
as whole blocks.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .dynamics import contact_kinematics, contact_solve, ext_dynamics
from .params import ModelParams
from .qp import INFEASIBLE, OPTIMAL, QpSolution, solve_qp

N_X = 10
N_ETA = 3
N_CONE = 6  # friction-cone and minimum-normal-force rows per node
BOX, STATE, CONE = "box", "state", "cone"


class DsForces(NamedTuple):
    ddq: np.ndarray      # (5,)
    lam: np.ndarray      # (4,) [lamT1, lamN1, lamT2, lamN2]


def _ds_system(vals: list[float], params: ModelParams):
    """The contact system at the state ``vals``, on Python floats.

    Returns D's rows, J's leg block, H, the thrust direction and the
    contact right-hand side -Jdot qdot - d J qdot, whose damping at rate
    `params.d` keeps long integrations on the contact manifold.
    """
    q = vals[:5]
    dq = vals[5:]
    D, H, thrust = ext_dynamics(q, dq, params)
    _, _, legs, jdq = contact_kinematics(q, dq, params)
    j0, _, j1, _, j2, _, j3, _ = legs
    v1, v2, _, v4, v5 = dq
    d = params.d
    # J dq with each row's terms t0..t4 grouped as numpy's float64
    # matrix-vector product groups them, ((t0 + t2) + (t1 + t3)) + t4, so the
    # result equals the array expression -jdot_qdot - d * (J @ dq)
    con = (
        -jdq[0] - d * (j0 * v1 + v4),
        -jdq[1] - d * (j1 * v1 + v5),
        -jdq[2] - d * (j2 * v1 + (j2 * v2 + v4)),
        -jdq[3] - d * (j3 * v1 + j3 * v2 + v5),
    )
    return D, legs, H, thrust, con


def ds_rhs(x_d: np.ndarray, eta: np.ndarray, params: ModelParams) -> DsForces:
    """Accelerations and contact forces with both feet pinned.

    One contact solve (see `_ds_system`) with the right-hand side B eta - H.
    """
    ddq, lam = _ds_forces(np.asarray(x_d, dtype=float).tolist(),
                          np.asarray(eta, dtype=float).tolist(), params)
    return DsForces(np.array(ddq), np.array(lam))


def _ds_forces(x: list[float], eta: list[float], params: ModelParams):
    """`ds_rhs` on Python floats: the (ddq, lam) tuples of one contact solve."""
    D, legs, H, thrust, con = _ds_system(x, params)
    ((ddq, lam),) = contact_solve(D, legs, [(_input_rhs(H, thrust, eta), con)])
    return ddq, lam


def _input_rhs(H, thrust, eta):
    """The dynamics right-hand side B eta - H on Python floats."""
    (h0, h1, h2, h3, h4), (tx, ty), (u2, u3, f) = H, thrust, eta
    return (-h0, u2 - h1, u3 - h2, tx * f - h3, ty * f - h4)


class DsLinearization(NamedTuple):
    """Discrete model x[k+1] ~ A x[k] + B eta[k] + c and affine forces
    lam ~ lam0 + Lx (x - x_d) + Le (eta - eta0) about the base point."""

    A: np.ndarray       # (10, 10)
    B: np.ndarray       # (10, 3)
    c: np.ndarray       # (10,)
    lam0: np.ndarray    # (4,)
    Lx: np.ndarray      # (4, 10)
    Le: np.ndarray      # (4, 3)


def linearize_ds(
    x_d: np.ndarray, eta: np.ndarray, T_s: float, params: ModelParams
) -> DsLinearization:
    """Forward-Euler discretized dynamics and affine contact forces at (x_d, eta).

    The state columns come from one central-difference sweep with relative
    step 1e-6, run on Python floats: each perturbed contact solve fills a
    column of both the acceleration and the force Jacobian, and the arrays
    are built once at the end.  D, J's leg block and the thrust direction
    depend on the positions only, so one multi-RHS contact solve at the base
    point serves the free column, the three exact input columns, the base
    point at ``eta`` and all ten velocity-perturbed columns, each with its own
    H and contact right-hand side.  Nothing in the pinned model depends on
    where the hip sits, so the hip-position columns (q4, q5) are exactly zero
    and are not solved; q1, q2 and q3 take a solve per side.  That is seven
    contact solves in all.
    """
    x = np.asarray(x_d, dtype=float)
    eta = np.asarray(eta, dtype=float)
    xs = x.tolist()
    etas = eta.tolist()
    D, legs, H, thrust, con = _ds_system(xs, params)
    tx, ty = thrust

    # x moved by +h and by -h along each swept entry; the hip-position
    # entries 3 and 4 enter neither D, J, H nor the contact right-hand side
    swept = (0, 1, 2, 5, 6, 7, 8, 9)
    moved, steps = [], []
    for j in swept:
        h = 1e-6 * max(1.0, abs(xs[j]))
        moved += [xs[:j] + [xj] + xs[j + 1:] for xj in (xs[j] + h, xs[j] - h)]
        steps.append(2.0 * h)

    zero = (0.0, 0.0, 0.0, 0.0)
    cols = [
        (tuple(-h for h in H), con),
        ((0.0, 1.0, 0.0, 0.0, 0.0), zero),
        ((0.0, 0.0, 1.0, 0.0, 0.0), zero),
        ((0.0, 0.0, 0.0, tx, ty), zero),
        (_input_rhs(H, thrust, etas), con),
    ]
    for xs_j in moved[6:]:  # the velocity-moved states
        _, _, H_j, _, con_j = _ds_system(xs_j, params)
        cols.append((_input_rhs(H_j, thrust, etas), con_j))
    out = contact_solve(D, legs, cols)
    maps = np.array([ddq + lam for ddq, lam in out[:4]]).T
    G_ddq, lam_base, Le = maps[:5, 1:], maps[5:, 0], maps[5:, 1:]
    ddq0 = out[4][0]
    solved = [_ds_forces(xs_j, etas, params) for xs_j in moved[:6]] + out[5:]

    # row j: d(dq, ddq, lam)/dx_j
    diff = np.zeros((N_X, N_X + 4))
    rows = [[*xs_j[5:], *ddq, *lam] for xs_j, (ddq, lam) in zip(moved, solved)]
    for j, plus, minus, step in zip(swept, rows[::2], rows[1::2], steps):
        diff[j] = [(a - b) / step for a, b in zip(plus, minus)]

    A = np.eye(N_X) + T_s * diff[:, :N_X].T
    B = np.zeros((N_X, N_ETA))
    B[5:] = T_s * G_ddq
    f0 = np.array(xs[5:] + list(ddq0))
    c = x + T_s * f0 - A @ x - B @ eta
    return DsLinearization(A, B, c, lam_base + Le @ eta, diff[:, N_X:].T, Le)


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
    # active rows at the optimum as (block, node, index); see `solve_nmpc`
    active: list[tuple[str, int, int]] = field(default_factory=list)


def _row_blocks(K: int):
    """(block, first row, first node, rows per node) of the QP's row blocks."""
    nz = N_ETA * K
    return ((BOX, 0, 0, 2 * N_ETA), (STATE, 2 * nz, 1, 2 * N_X),
            (CONE, 2 * nz + 2 * K * N_X, 0, N_CONE))


def _label_row(label: tuple[str, int, int], K: int) -> int | None:
    """The QP row of a (block, node, index) label; None if K has no such row."""
    block, node, index = label
    for name, start, first, per in _row_blocks(K):
        if name == block and first <= node < first + K and 0 <= index < per:
            return start + (node - first) * per + index
    return None


def _row_label(row: int, K: int) -> tuple[str, int, int]:
    """The (block, node, index) label of a QP row."""
    for name, start, first, per in reversed(_row_blocks(K)):
        if row >= start:
            node, index = divmod(row - start, per)
            return name, first + node, index
    raise ValueError("negative row index")


def solve_nmpc(
    prob: NmpcProblem,
    x_d1: np.ndarray,
    params: ModelParams,
    eta_base: np.ndarray | None = None,
    active: Sequence[tuple[str, int, int]] = (),
) -> NmpcSolution:
    """Condense the linearized horizon into one dense QP and solve it.

    The prediction is x[k] = x_free[k] + S[k] z, and block j < k of S[k] is
    A^(k-1-j) B (see the module docstring).  Friction-cone and
    minimum-normal-force rows use the affine force model at nodes
    0..n_int-1; state boxes apply at nodes 1..n_int.  An infeasible or
    stalled QP returns zero input with the corresponding status; so does a
    violated row that no input can reach (status infeasible, 0 iterations).

    Rows are labelled (block, node, index), independent of the row order:
    block `BOX` is node k's upper then lower input bounds, `STATE` node k's
    upper then lower state bounds and `CONE` node k's six force rows.  The
    solution reports its active rows so; `active` passes labels the QP
    starts its active set from (see `qp.solve_qp`).  Labels with no row in
    this problem, or whose row the filter for input-free rows dropped, are
    skipped.
    """
    x1 = np.asarray(x_d1, dtype=float)
    K = prob.n_int
    eta0 = np.zeros(N_ETA) if eta_base is None else np.asarray(eta_base, dtype=float)

    A, B, c, lam0, Lx, Le = linearize_ds(x1, eta0, prob.T_s, params)

    # prediction: x[k] = x_free[k] + S[k] @ z, z = stacked inputs
    nz = N_ETA * K
    x_free = np.empty((K + 1, N_X))
    x_free[0] = x1
    # Phi[i] = A^i B, and a zero block at index K for the blocks j >= k
    Phi = np.zeros((K + 1, N_X, N_ETA))
    Phi[0] = B
    for k in range(K):
        x_free[k + 1] = A @ x_free[k] + c
        if k + 1 < K:
            Phi[k + 1] = A @ Phi[k]
    ks = np.arange(K + 1)[:, None]
    js = np.arange(K)[None, :]
    S = Phi[np.where(js < ks, ks - 1 - js, K)]
    S = S.transpose(0, 2, 1, 3).reshape(K + 1, N_X, nz)

    # quadratic cost in z: state tracking over nodes 1..K, one batched
    # contraction summed node by node, which keeps the bits of the per-node
    # loop in `solve_nmpc_dense` (tests/oracles.py); one GEMM over the
    # stacked S would round P differently
    Sw = S[1:] * prob.w_x[:, None]
    P = np.matmul(S[1:].transpose(0, 2, 1), Sw).sum(axis=0)
    err = (x_free[1:] - prob.r_d[1:])[:, :, None]
    qv = np.matmul(Sw.transpose(0, 2, 1), err)[:, :, 0].sum(axis=0)
    # input increments eta[k] - eta[k-1] (eta[-1] = 0): block tridiagonal,
    # 2 W on the diagonal (W on the last block) and -W beside it
    w = np.tile(prob.w_eta, K)
    diag = np.arange(nz)
    P[diag, diag] += w + np.concatenate([w[N_ETA:], np.zeros(N_ETA)])
    off = diag[:-N_ETA]
    P[off, off + N_ETA] -= w[N_ETA:]
    P[off + N_ETA, off] -= w[N_ETA:]
    P *= 2.0
    qv *= 2.0

    # input boxes, state boxes at nodes 1..K, then the cone rows at 0..K-1
    eye = np.eye(nz).reshape(K, 1, N_ETA, nz)
    box = np.concatenate([eye, -eye], axis=1).reshape(2 * nz, nz)
    box_rhs = np.tile(np.concatenate([prob.eta_hi, -prob.eta_lo]), K)
    xf = x_free[1:]
    state = np.stack([S[1:], -S[1:]], axis=1).reshape(2 * K * N_X, nz)
    state_rhs = np.stack([prob.x_hi - xf, xf - prob.x_lo], axis=1).ravel()

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
    # force sensitivities Lx S[k], plus Le on each node's own input block
    Mlam = (Lx @ S[:K]).reshape(K, 4, K, N_ETA)
    node = np.arange(K)
    Mlam[node, :, node, :] += Le
    Mlam = Mlam.reshape(K, 4, nz)
    lam_const = lam0 + _times(Lx, x_free[:K] - x1) - Le @ eta0
    G = np.concatenate([box, state, (cone @ Mlam).reshape(N_CONE * K, nz)])
    h = np.concatenate([box_rhs, state_rhs, (cone_rhs - _times(cone, lam_const)).ravel()])

    # early-horizon position boxes have zero sensitivity to the inputs; drop
    # trivially satisfied rows, and fail fast on unsatisfiable ones
    live = np.einsum("ij,ij->i", G, G) > 1e-18
    if np.any(~live & (h < -1e-9)):
        sol = QpSolution(np.zeros(nz), INFEASIBLE, 0)
    else:
        kept = np.flatnonzero(live & np.isfinite(h))
        start = []
        if active:
            pos = dict(zip(kept.tolist(), range(len(kept))))
            start = [pos[r] for r in (_label_row(lab, K) for lab in active) if r in pos]
        sol = solve_qp(P, qv, G[kept], h[kept], active=start)
    if sol.status != OPTIMAL:
        zero = np.zeros((K, N_ETA))
        return NmpcSolution(zero, x_free.copy(), _predict_forces(
            zero, x_free, x1, eta0, lam0, Lx, Le), float("nan"), sol.status,
            sol.iterations)

    z = sol.z
    eta_seq = z.reshape(K, N_ETA)
    x_pred = x_free + np.einsum("kij,j->ki", S, z)
    lam_pred = _predict_forces(eta_seq, x_pred, x1, eta0, lam0, Lx, Le)

    e = x_pred[1:] - prob.r_d[1:]
    de = np.diff(eta_seq, axis=0, prepend=np.zeros((1, N_ETA)))
    obj = float(np.sum(e * e * prob.w_x) + np.sum(de * de * prob.w_eta))
    return NmpcSolution(eta_seq, x_pred, lam_pred, obj, OPTIMAL, sol.iterations,
                        [_row_label(int(kept[i]), K) for i in sol.active])


def _times(M: np.ndarray, V: np.ndarray) -> np.ndarray:
    """M @ v for every row v of V, each rounded as a single matvec."""
    return np.matmul(M, V[:, :, None])[:, :, 0]


def _predict_forces(eta_seq, x_pred, x1, eta0, lam0, Lx, Le):
    """Affine force model at nodes 0..K-1 of a predicted trajectory."""
    K = eta_seq.shape[0]
    return lam0 + _times(Lx, x_pred[:K] - x1) + _times(Le, eta_seq - eta0)


@dataclass
class NmpcController:
    """Shrinking-horizon steering over a fixed DS time envelope.

    reset() pins the reference line and constraint boxes for one DS phase;
    __call__ solves the QP for the remaining horizon and applies the first
    input.  The previous solution is kept as the linearization base, and its
    active rows as the QP's starting active set: each label both at its own
    node and shifted one node back, since rows bind either at a fixed time
    (they move one node closer each sample) or at a fixed distance from the
    current state (the friction cone of the first few nodes, in the shipped
    scenario).  The first sample of a phase, and the one after a failed
    solve, start cold.
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
        self._active: list[tuple[str, int, int]] = []
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
        self._active = []
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
        shifted = [(block, node - 1, index) for block, node, index in self._active
                   if node > 0]
        warm = list(dict.fromkeys(self._active + shifted))
        solution = solve_nmpc(prob, x_d, self.params, eta_base=base, active=warm)
        self.status_log.append(
            (sample, solution.status, solution.qp_iterations, solution.objective))
        if solution.status != OPTIMAL:
            self._prev = None
            self._active = []
            return np.zeros(N_ETA)
        self._prev = solution.eta_seq
        self._active = solution.active
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

    The substeps run on Python floats: the state is a list of 10 floats, each
    RK4 stage is one contact solve, and every stage and update is formed in
    the order the array expressions x + (h/2) k and
    x + (h/6) (k1 + 2 k2 + 2 k3 + k4) round in, so the result does not depend
    on which form computes it.  The controller gets an array of the state
    once per sample, and the trace's arrays are built once at the end.
    """
    if T_env <= 0.0:
        x = np.asarray(x_d0, dtype=float).copy()
        lam = ds_rhs(x, np.zeros(N_ETA), params).lam
        trace = DsTrace(np.array([0.0]), x[None, :].copy(), lam[None, :],
                        np.zeros((1, N_ETA)), bool(np.any(lam[[1, 3]] <= 0.0)), [])
        return trace, x.copy()

    n_samples = max(1, int(round(T_env / T_s)))
    n_sub = max(1, int(round(T_s / dt)))
    h = T_env / (n_samples * n_sub)
    half, sixth = 0.5 * h, h / 6.0

    def stage(x, step, k, eta):
        """The RK4 slope at x + step * k."""
        xk = [a + step * b for a, b in zip(x, k)]
        return xk[5:] + list(_ds_forces(xk, eta, params)[0])

    x = np.asarray(x_d0, dtype=float).tolist()
    ts = [0.0]
    xs = [x]
    lams = []
    etas = []
    violated = False
    t = 0.0
    for j in range(n_samples):
        eta = np.asarray(controller(j, np.array(x)), dtype=float).tolist()
        for _ in range(n_sub):
            # the logged forces' solve also gives the first RK4 stage
            ddq, lam = _ds_forces(x, eta, params)
            lams.append(lam)
            etas.append(eta)
            if lam[1] <= 0.0 or lam[3] <= 0.0:
                violated = True

            k1 = x[5:] + list(ddq)
            k2 = stage(x, half, k1, eta)
            k3 = stage(x, half, k2, eta)
            k4 = stage(x, h, k3, eta)
            x = [a + sixth * (((b1 + 2.0 * b2) + 2.0 * b3) + b4)
                 for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
            t += h
            ts.append(t)
            xs.append(x)

    lam = ds_rhs(x, etas[-1], params).lam.tolist()
    lams.append(lam)
    etas.append(etas[-1])
    if lam[1] <= 0.0 or lam[3] <= 0.0:
        violated = True

    statuses = list(getattr(controller, "status_log", []))
    trace = DsTrace(np.array(ts), np.array(xs), np.array(lams), np.array(etas),
                    violated, statuses)
    return trace, np.array(x)
