"""Dense strictly-convex QP solver, dual active-set (Goldfarb-Idnani).

Solves  min_z 0.5 z'Pz + q'z  s.t.  G z <= h  with P symmetric positive
definite.  The dual method starts from the unconstrained optimum and adds
violated constraints one at a time, so it needs no feasible starting point;
that matters here because the predictive controller's friction rows are
violated at zero input exactly when the controller has work to do.

P is factored once per call, P = L L', and the solver works from
J0 = L^-T as Goldfarb and Idnani do (1983, Math. Prog. 27), so every P^-1
product of an iteration is a matrix-vector product with J0 J0'.  Sizes in
this project are small (tens of variables, hundreds of rows), so each step
solves the small active-set system afresh instead of carrying rank-one
updates of a factorization.  A P that is not positive definite raises
ValueError.

The entering row is the lowest-indexed one whose violation is within a
relative TIE_RTOL of the largest.  Goldfarb-Idnani may enter any violated
row, and the rule keeps rows that tie up to rounding (the thrust caps of two
nodes) from letting the last bits of P choose the active-set path.  The
ratio test for the row that leaves stays exact.

A caller that expects the optimum's active set, such as a receding-horizon
controller whose consecutive problems end on nearly the same rows, can pass
it as `active`.  The solver then solves the equality-constrained problem on
those rows, drops the row with the most negative multiplier until every
multiplier is nonnegative, and continues from that dual-feasible point; a set
with (nearly) dependent rows starts cold instead.  Any dual-feasible start
leads to the same unique optimum and detects an infeasible problem as a
cold start does; `iterations`, which `max_iter` bounds, counts only the
active-set iterations after the start.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITER = "max_iter"
TIE_RTOL = 1e-9  # violations within this fraction of the largest tie


@dataclass
class QpSolution:
    z: np.ndarray
    status: str
    iterations: int
    active: list[int] = field(default_factory=list)
    duals: np.ndarray | None = None  # multipliers for G z <= h rows


def solve_qp(
    P: np.ndarray,
    q: np.ndarray,
    G: np.ndarray | None = None,
    h: np.ndarray | None = None,
    max_iter: int | None = None,
    tol: float = 1e-10,
    feas_tol: float = 1e-9,
    active: Sequence[int] | None = None,
) -> QpSolution:
    P = np.asarray(P, dtype=float)
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    try:
        L = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise ValueError("P must be positive definite") from None
    J0 = np.linalg.inv(L).T
    P_inv = J0 @ J0.T
    z = -(P_inv @ q)
    if G is None or len(G) == 0:
        return QpSolution(z, OPTIMAL, 0, [], np.zeros(0))

    G = np.asarray(G, dtype=float)
    h = np.asarray(h, dtype=float)
    m = G.shape[0]
    row_norm = np.sqrt(np.einsum("ij,ij->i", G, G))
    if np.any(row_norm < tol):
        raise ValueError("constraint row with (near) zero normal")

    def normals(rows):
        """Unit normals and right-hand sides of the given rows."""
        return G[rows] / row_norm[rows, None], h[rows] / row_norm[rows]

    if max_iter is None:
        max_iter = 10 * (m + n) + 100

    active, u, z = _dual_feasible_start(active or [], normals, m, P_inv, z, tol)
    iters = 0

    while True:
        slack = (G @ z - h) / row_norm
        if active:
            slack[active] = -np.inf  # active rows are tight by construction
        worst = slack.max()
        if worst <= feas_tol:
            duals = np.zeros(m)
            for idx, ui in zip(active, u):
                duals[idx] = ui / row_norm[idx]
            return QpSolution(z, OPTIMAL, iters, list(active), duals)
        p = int(np.argmax(slack >= worst - TIE_RTOL * worst))

        a = -G[p] / row_norm[p]  # violated row as a 'greater-equal' normal
        bp = -h[p] / row_norm[p]
        u_p = 0.0

        while True:
            iters += 1
            if iters > max_iter:
                return QpSolution(z, MAX_ITER, iters, list(active), None)

            Pia = P_inv @ a
            if active:
                N = -normals(active)[0]  # active normals, rows
                PiNT = P_inv @ N.T
                M = N @ PiNT
                r = np.linalg.solve(M, N @ Pia)
                zdir = Pia - PiNT @ r
            else:
                r = np.zeros(0)
                zdir = Pia

            t1 = np.inf
            blocking = -1
            for j in range(len(active)):
                if r[j] > tol:
                    step = u[j] / r[j]
                    if step < t1:
                        t1 = step
                        blocking = j

            denom = float(a @ zdir)
            t2 = (bp - float(a @ z)) / denom if denom > tol else np.inf

            if not np.isfinite(t1) and not np.isfinite(t2):
                return QpSolution(z, INFEASIBLE, iters, list(active), None)

            if t2 <= t1:
                # full primal step: row p becomes active and tight
                z = z + t2 * zdir
                for j in range(len(active)):
                    u[j] -= t2 * r[j]
                u_p += t2
                active.append(p)
                u.append(u_p)
                break
            # partial step: a blocking active row leaves the basis
            if np.isfinite(t1):
                if np.isfinite(t2):
                    z = z + t1 * zdir
                for j in range(len(active)):
                    u[j] -= t1 * r[j]
                u_p += t1
                active.pop(blocking)
                u.pop(blocking)
                continue
            return QpSolution(z, INFEASIBLE, iters, list(active), None)


def _dual_feasible_start(rows, normals, m, P_inv, z, tol):
    """(active, duals, z) of the equality-constrained QP on a subset of rows.

    Starts from the distinct valid indices of ``rows`` and drops the row with
    the most negative multiplier until all are nonnegative.  Rows whose
    normals are (nearly) dependent, by the same test the main loop applies
    before it adds a row, give the cold start ([], [], z).
    """
    rows = [i for i in dict.fromkeys(rows) if 0 <= i < m]
    while rows:
        N, b = normals(rows)
        PiNT = P_inv @ N.T
        M = N @ PiNT
        try:
            C = np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            break
        if np.min(np.diag(C)) ** 2 <= tol:
            break
        u = np.linalg.solve(M, N @ z - b)
        k = int(np.argmin(u))
        if u[k] >= 0.0:
            return rows, u.tolist(), z - PiNT @ u
        rows.pop(k)
    return [], [], z
