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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
MAX_ITER = "max_iter"


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
    row_norm = np.linalg.norm(G, axis=1)
    if np.any(row_norm < tol):
        raise ValueError("constraint row with (near) zero normal")
    Gn = G / row_norm[:, None]
    hn = h / row_norm

    if max_iter is None:
        max_iter = 10 * (m + n) + 100

    active: list[int] = []
    u: list[float] = []  # duals of active rows, >= 0
    iters = 0

    while True:
        slack = Gn @ z - hn
        if active:
            slack[active] = -np.inf  # active rows are tight by construction
        p = int(np.argmax(slack))
        if slack[p] <= feas_tol:
            duals = np.zeros(m)
            for idx, ui in zip(active, u):
                duals[idx] = ui / row_norm[idx]
            return QpSolution(z, OPTIMAL, iters, list(active), duals)

        a = -Gn[p]  # violated row as a 'greater-equal' normal
        bp = -hn[p]
        u_p = 0.0

        while True:
            iters += 1
            if iters > max_iter:
                return QpSolution(z, MAX_ITER, iters, list(active), None)

            Pia = P_inv @ a
            if active:
                N = Gn[active] * -1.0  # active normals, rows
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
