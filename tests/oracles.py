"""Independent reference implementations used to gate the package.

Everything here is derived from first principles (point-mass geometry,
finite differences, projection formulas) rather than from the closed-form
expressions in the package, so agreement is evidence and not tautology.
"""

from __future__ import annotations

from math import comb, cos, sin

import numpy as np

from thrusterbiped.params import ModelParams


# ---------------------------------------------------------------------------
# point-mass geometry


def mass_points_pinned(q: np.ndarray, params: ModelParams) -> list[tuple[float, np.ndarray]]:
    """(mass, position) pairs with the stance foot at the origin.

    A link at absolute angle phi points along (-sin phi, cos phi) from its
    lower joint; the swing leg hangs from the hip, so its direction flips.
    """
    q1, q2, q3 = q
    l, lT, lh = params.l, params.l_T, 0.5 * params.l
    hip = np.array([-l * sin(q1), l * cos(q1)])
    a12 = q1 + q2
    a123 = a12 + q3
    return [
        (params.m_k, 0.5 * hip),
        (params.m_h, hip),
        (params.m_T, hip + lT * np.array([-sin(a123), cos(a123)])),
        (params.m_k, hip + lh * np.array([sin(a12), -cos(a12)])),
    ]


def mass_points_ext(q_e: np.ndarray, params: ModelParams) -> list[tuple[float, np.ndarray]]:
    """(mass, position) pairs in extended coordinates (hip appended)."""
    q1, q2, q3, xh, yh = q_e
    lT, lh = params.l_T, 0.5 * params.l
    hip = np.array([xh, yh])
    a12 = q1 + q2
    a123 = a12 + q3
    return [
        (params.m_k, hip + lh * np.array([sin(q1), -cos(q1)])),
        (params.m_h, hip),
        (params.m_T, hip + lT * np.array([-sin(a123), cos(a123)])),
        (params.m_k, hip + lh * np.array([sin(a12), -cos(a12)])),
    ]


def foot_points_ext(q_e: np.ndarray, params: ModelParams) -> np.ndarray:
    """Stacked (p1_x, p1_y, p2_x, p2_y) for the extended configuration."""
    q1, q2, _, xh, yh = q_e
    l = params.l
    return np.array([
        xh + l * sin(q1), yh - l * cos(q1),
        xh + l * sin(q1 + q2), yh - l * cos(q1 + q2),
    ])


def _stacked_positions(q: np.ndarray, params: ModelParams, ext: bool) -> np.ndarray:
    pts = mass_points_ext(q, params) if ext else mass_points_pinned(q, params)
    return np.concatenate([p for _, p in pts])


def _masses(params: ModelParams) -> np.ndarray:
    return np.array([params.m_k, params.m_h, params.m_T, params.m_k])


def position_jacobian(q: np.ndarray, params: ModelParams, ext: bool,
                      h: float = 1e-6) -> np.ndarray:
    """d(stacked mass positions)/dq by central differences."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    J = np.empty((8, n))
    for j in range(n):
        qp = q.copy()
        qm = q.copy()
        qp[j] += h
        qm[j] -= h
        J[:, j] = (_stacked_positions(qp, params, ext)
                   - _stacked_positions(qm, params, ext)) / (2.0 * h)
    return J


def kinetic_geometry(q: np.ndarray, dq: np.ndarray, params: ModelParams,
                     ext: bool) -> float:
    """Kinetic energy from point-mass velocities, J by finite differences."""
    J = position_jacobian(q, params, ext)
    v = (J @ np.asarray(dq, dtype=float)).reshape(4, 2)
    m = _masses(params)
    return 0.5 * float(np.sum(m * np.sum(v * v, axis=1)))


def potential_geometry(q: np.ndarray, params: ModelParams, ext: bool) -> float:
    pts = mass_points_ext(q, params) if ext else mass_points_pinned(q, params)
    return params.g * sum(m * p[1] for m, p in pts)


def mass_matrix_fd(q: np.ndarray, params: ModelParams, ext: bool,
                   h: float = 1e-4) -> np.ndarray:
    """Hessian of the kinetic energy in dq by central second differences.

    K is exactly quadratic in dq, so the stencil error comes only from the
    finite-difference position Jacobian inside kinetic_geometry.
    """
    n = np.asarray(q).shape[0]
    D = np.empty((n, n))

    def K(dq):
        return kinetic_geometry(q, dq, params, ext)

    e = np.eye(n)
    for i in range(n):
        for j in range(i, n):
            val = (K(h * (e[i] + e[j])) - K(h * (e[i] - e[j]))
                   - K(h * (-e[i] + e[j])) + K(-h * (e[i] + e[j]))) / (4.0 * h * h)
            D[i, j] = D[j, i] = val
    return D


def gravity_fd(q: np.ndarray, params: ModelParams, ext: bool,
               h: float = 1e-7) -> np.ndarray:
    """Gradient of the potential in q by central differences."""
    q = np.asarray(q, dtype=float)
    n = q.shape[0]
    out = np.empty(n)
    for j in range(n):
        qp = q.copy()
        qm = q.copy()
        qp[j] += h
        qm[j] -= h
        out[j] = (potential_geometry(qp, params, ext)
                  - potential_geometry(qm, params, ext)) / (2.0 * h)
    return out


def thrust_column_geometry(q_e: np.ndarray, params: ModelParams,
                           h: float = 1e-7) -> np.ndarray:
    """Generalized force of a unit thrust by the virtual-work route.

    The thrust acts at the torso mass point, directed from that point toward
    the hip (pressing the mechanism down); the generalized force is J_p' f
    with J_p the point Jacobian, differenced here.
    """
    q_e = np.asarray(q_e, dtype=float)

    def torso_point(qq):
        return mass_points_ext(qq, params)[2][1]

    a123 = q_e[0] + q_e[1] + q_e[2]
    f = -np.array([-sin(a123), cos(a123)])
    Jp = np.empty((2, 5))
    for j in range(5):
        qp = q_e.copy()
        qm = q_e.copy()
        qp[j] += h
        qm[j] -= h
        Jp[:, j] = (torso_point(qp) - torso_point(qm)) / (2.0 * h)
    return Jp.T @ f


# ---------------------------------------------------------------------------
# generic finite differences


def line_derivative(fun, x: np.ndarray, v: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """d/ds fun(x + s v) at s = 0 by the fourth-order central stencil."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return (-fun(x + 2.0 * h * v) + 8.0 * fun(x + h * v)
            - 8.0 * fun(x - h * v) + fun(x - 2.0 * h * v)) / (12.0 * h)


def centre_of_mass_pinned(q: np.ndarray, params: ModelParams) -> np.ndarray:
    """Centre of mass of the pinned mass points (stance foot at the origin)."""
    pts = mass_points_pinned(q, params)
    return sum(m * p for m, p in pts) / sum(m for m, _ in pts)


def fd_jacobian(fun, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(fun(x))
    J = np.empty((f0.shape[0], x.shape[0]))
    for j in range(x.shape[0]):
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        J[:, j] = (np.atleast_1d(fun(xp)) - np.atleast_1d(fun(xm))) / (2.0 * h)
    return J


def linearize_discretize(f, x, eta, T_s, B_exact, rel_step=1e-6):
    """Forward-Euler discretization of the Jacobian linearization of f.

    x[k+1] ~ A x[k] + B eta[k] + c.  State Jacobian by central differences
    with relative step; the input Jacobian is the exact column map B_exact.
    The package's former generic helper, kept as the reference for its
    double-support linearization.
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


def linearize_ds_two_sweeps(x_d, eta, T_s, params):
    """(A, B, c, lam0, Lx, Le) by two separate central-difference sweeps.

    The dynamics come from `linearize_discretize` on `ds_field`, the force
    Jacobian from a second sweep over `ds_rhs(...).lam`; each sweep takes its
    exact input map from its own `ds_affine_maps` call.
    """
    from thrusterbiped.nmpc import ds_rhs

    x = np.asarray(x_d, dtype=float)
    eta = np.asarray(eta, dtype=float)
    _, G_ddq, _, _ = ds_affine_maps(x, params)
    B_exact = np.zeros((10, 3))
    B_exact[5:, :] = G_ddq
    A, B, c = linearize_discretize(
        lambda xx, ee: ds_field(xx, ee, params), x, eta, T_s, B_exact)

    _, _, lam_base, Le = ds_affine_maps(x, params)
    Lx = np.empty((4, 10))
    for j in range(10):
        h = 1e-6 * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += h
        xm[j] -= h
        Lx[:, j] = (ds_rhs(xp, eta, params).lam
                    - ds_rhs(xm, eta, params).lam) / (2.0 * h)
    return A, B, c, lam_base + Le @ eta, Lx, Le


# ---------------------------------------------------------------------------
# double support on arrays: the package's former array forms


def ds_field(x_d, eta, params):
    """Reduced first-order form of `ds_rhs` (forces eliminated)."""
    from thrusterbiped.nmpc import ds_rhs

    out = np.empty(10)
    out[:5] = x_d[5:]
    out[5:] = ds_rhs(x_d, eta, params).ddq
    return out


def ds_affine_maps(x_d, params):
    """Exact input maps at fixed state: ddq and lam are affine in eta.

    Returns (ddq0, G_ddq, lam0, G_lam) with ddq = ddq0 + G_ddq @ eta and
    lam = lam0 + G_lam @ eta, from one contact solve with four right-hand
    sides: the free column and the three input columns of B.
    """
    from thrusterbiped.dynamics import _contact_core
    from thrusterbiped.nmpc import _ds_system

    D, legs, H, (tx, ty), con = _ds_system(
        np.asarray(x_d, dtype=float).tolist(), params)
    zero = (0.0, 0.0, 0.0, 0.0)
    out = _contact_core(D, legs, [
        (tuple(-h for h in H), con),
        ((0.0, 1.0, 0.0, 0.0, 0.0), zero),
        ((0.0, 0.0, 1.0, 0.0, 0.0), zero),
        ((0.0, 0.0, 0.0, tx, ty), zero),
    ])
    cols = np.array([x + lam for x, lam in out]).T
    return cols[:5, 0], cols[:5, 1:], cols[5:, 0], cols[5:, 1:]


def simulate_ds_arrays(x_d0, controller, T_env, dt, params, T_s=1e-3):
    """The package's former `simulate_ds`: RK4 substeps on numpy arrays.

    Kept as the reference for the substep loop on Python floats, which must
    give the same trace bit for bit.
    """
    from thrusterbiped.nmpc import N_ETA, DsTrace, ds_rhs

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


# ---------------------------------------------------------------------------
# Bezier curves by the Bernstein-basis formula


def bernstein_value(coeffs: np.ndarray, s: float) -> np.ndarray:
    b = np.asarray(coeffs, dtype=float)
    m = b.shape[-1] - 1
    w = np.array([comb(m, k) * s**k * (1.0 - s) ** (m - k) for k in range(m + 1)])
    return b @ w


def bernstein_fd(coeffs: np.ndarray, s: float, h: float = 1e-5):
    """(value, d/ds, d2/ds2) with derivatives by central differences."""
    v0 = bernstein_value(coeffs, s)
    vp = bernstein_value(coeffs, s + h)
    vm = bernstein_value(coeffs, s - h)
    return v0, (vp - vm) / (2.0 * h), (vp - 2.0 * v0 + vm) / (h * h)


def de_casteljau_numpy(coeffs: np.ndarray, s: float):
    """(value, d/ds, d2/ds2) by numpy de Casteljau sweeps over all rows at once.

    The package's former evaluator.  The scalar one performs the same
    floating-point operations in the same order, so the two agree bit for bit.
    """
    b = np.asarray(coeffs, dtype=float)
    m = b.shape[-1] - 1

    def dc(pts: np.ndarray) -> np.ndarray:
        p = pts
        while p.shape[-1] > 1:
            p = (1.0 - s) * p[..., :-1] + s * p[..., 1:]
        return p[..., 0]

    d1 = m * np.diff(b, axis=-1)
    d2 = (m - 1) * np.diff(d1, axis=-1) if m >= 2 else np.zeros_like(b[..., :1])
    return dc(b), dc(d1), dc(d2)


# ---------------------------------------------------------------------------
# feedback linearization


def fbl_torque(od, v: np.ndarray) -> np.ndarray:
    """Exact feedback-linearizing torque: ddy = -v under this input."""
    return np.linalg.solve(od.LgLfh, -(od.Lf2h + v))


def constraint_rows(LgLfh: np.ndarray, Lf2h: np.ndarray, gait):
    """(C_x, C_w, C_limit, P) of the governor's constraint set, in plain numpy.

    C_x x_a + C_w x_w + C_limit >= 0 in x_a = (q_a, dq_a) and
    x_w = (h_d, w).  Rows 0-7 are the state box |x_a| <= x_max.  Rows 8-11
    are the torque box |u| <= u_max for the feedback-linearizing torque
    u = -W^-1 (Lf2h + Kp (q_a - h_d) + Kd (dq_a - w)), W = LgLfh, with W^-1
    from np.linalg.inv.  P = diag(Kp, Kd) / 2 is the Lyapunov metric.
    """
    Wi = np.linalg.inv(np.asarray(LgLfh, dtype=float))
    K = Wi @ np.hstack([np.diag(gait.kp), np.diag(gait.kd)])
    u_drift = Wi @ np.asarray(Lf2h, dtype=float)
    eye = np.eye(4)
    C_x = np.vstack([-eye, eye, K, -K])
    C_w = np.vstack([np.zeros((8, 4)), -K, K])
    C_limit = np.concatenate([gait.x_max, gait.x_max,
                              gait.u_max + u_drift, gait.u_max - u_drift])
    P = 0.5 * np.diag(np.concatenate([gait.kp, gait.kd]))
    return C_x, C_w, C_limit, P


# ---------------------------------------------------------------------------
# contact saddle-point system by a dense LU solve

def contact_solve_dense(D: np.ndarray, J: np.ndarray, rhs_dyn: np.ndarray,
                        rhs_con: np.ndarray):
    """(x, lam) of ``[[D, -J'], [J, 0]] [x; lam] = [rhs_dyn; rhs_con]``.

    One pivoted LU solve of the assembled matrix, with no use of J's
    structure; the package's former contact solve.
    """
    n, m = D.shape[0], J.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = D
    kkt[:n, n:] = -J.T
    kkt[n:, :n] = J
    sol = np.linalg.solve(kkt, np.concatenate([rhs_dyn, rhs_con]))
    return sol[:n], sol[n:]


# ---------------------------------------------------------------------------
# impact by velocity projection

def impact_projection(D: np.ndarray, J: np.ndarray, dq_minus: np.ndarray):
    """Post-impact velocity as the D-metric projection onto ker J.

    Minimizing (dq - dq-)' D (dq - dq-) subject to J dq = 0 gives
    dq+ = dq- - D^-1 J' (J D^-1 J')^-1 J dq-, impulse = -(J D^-1 J')^-1 J dq-.
    """
    Di_Jt = np.linalg.solve(D, J.T)
    S = J @ Di_Jt
    lam = -np.linalg.solve(S, J @ dq_minus)
    return dq_minus + Di_Jt @ lam, lam


# ---------------------------------------------------------------------------
# level-set bound by constrained projection

def gamma_projection(x_w: np.ndarray, C_x: np.ndarray, C_w: np.ndarray,
                     C_limit: np.ndarray, P: np.ndarray) -> float:
    """Smallest V(x) = (x-x_w)' P (x-x_w) over all constraint boundaries.

    Each finite row is an affine plane in x; the minimizer over one plane
    solves the bordered system [[2P, c'], [c, 0]] [x; nu] = [2P x_w; -b].
    Rows without x dependence cannot be reached by x alone: a violated one
    pins the bound to zero, a satisfied one is ignored.
    """
    best = np.inf
    for i in range(C_x.shape[0]):
        if not np.isfinite(C_limit[i]):
            continue
        c = C_x[i]
        b = float(C_w[i] @ x_w + C_limit[i])
        r = float(c @ x_w + b)
        if np.linalg.norm(c) < 1e-12:
            if r < 0.0:
                return 0.0
            continue
        if r <= 0.0:
            return 0.0
        n = x_w.shape[0]
        M = np.zeros((n + 1, n + 1))
        M[:n, :n] = 2.0 * P
        M[:n, n] = c
        M[n, :n] = c
        rhs = np.concatenate([2.0 * P @ x_w, [-b]])
        sol = np.linalg.solve(M, rhs)
        x_star = sol[:n]
        e = x_star - x_w
        best = min(best, float(e @ P @ e))
    return best


def on_plane_samples(x_w: np.ndarray, c: np.ndarray, b: float,
                     rng: np.random.Generator, count: int,
                     radius: float) -> np.ndarray:
    """Random points satisfying c . x + b = 0, spread around x_w."""
    n = x_w.shape[0]
    x0 = x_w - c * (c @ x_w + b) / (c @ c)
    # orthonormal tangent basis of the plane
    Q, _ = np.linalg.qr(np.column_stack([c, rng.standard_normal((n, n - 1))]))
    T = Q[:, 1:]
    coords = rng.uniform(-radius, radius, size=(count, n - 1))
    return x0 + coords @ T.T


# ---------------------------------------------------------------------------
# reduced phase-plane integration of the designed step

def reduced_step_completes(gait, params: ModelParams, theta_dot0: float,
                           t_max: float = 3.0, dt: float = 1e-3):
    """Integrate the pinned dynamics restricted to the tracking manifold.

    On the manifold q_a = h(s), dq_a = h'(s) s' theta_dot; the unactuated row
    of D ddq + H = B u has a zero input row, which closes a scalar second
    order ODE in theta.  Returns (completed, theta trace).
    """
    from thrusterbiped.dynamics import ss_dynamics
    from thrusterbiped.gait import bezier_eval

    span = gait.theta_minus - gait.theta_plus
    sp = 1.0 / span

    def accel(theta, theta_dot):
        s = min(max((theta - gait.theta_plus) * sp, 0.0), 1.0)
        h, dh, d2h = bezier_eval(gait.bezier, s)
        q = np.array([theta, h[0], h[1]])
        dq_a = dh * (sp * theta_dot)
        dq = np.array([theta_dot, dq_a[0], dq_a[1]])
        terms = ss_dynamics(q, dq, params)
        D0 = terms.D[0]
        denom = D0[0] + D0[1:] @ (dh * sp)
        curv = D0[1:] @ (d2h * (sp * theta_dot) ** 2)
        return -(terms.H[0] + curv) / denom

    theta = gait.theta_plus
    theta_dot = theta_dot0
    trace = [theta]
    t = 0.0
    while t < t_max:
        k1v = accel(theta, theta_dot)
        k1x = theta_dot
        k2v = accel(theta + 0.5 * dt * k1x, theta_dot + 0.5 * dt * k1v)
        k2x = theta_dot + 0.5 * dt * k1v
        k3v = accel(theta + 0.5 * dt * k2x, theta_dot + 0.5 * dt * k2v)
        k3x = theta_dot + 0.5 * dt * k2v
        k4v = accel(theta + dt * k3x, theta_dot + dt * k3v)
        k4x = theta_dot + dt * k3v
        theta += (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        theta_dot += (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        t += dt
        trace.append(theta)
        if theta <= gait.theta_minus:
            return True, np.array(trace)
        if theta_dot >= 0.0:
            # the step stalled; theta can only recede from here
            break
    return False, np.array(trace)


# ---------------------------------------------------------------------------
# exact small-QP solution by active-set enumeration

def qp_brute_force(P, q, G, h, tol=1e-9):
    """Exact minimizer of 0.5 z'Pz + q'z s.t. Gz <= h for small instances.

    Tries every candidate active set up to size n; a candidate is the answer
    when its equality-constrained stationary point is primal feasible with
    nonnegative multipliers.  Assumes a nondegenerate instance.
    """
    import itertools

    n = q.shape[0]
    m = G.shape[0]
    best = None
    best_obj = np.inf
    for k in range(0, n + 1):
        for subset in itertools.combinations(range(m), k):
            S = list(subset)
            M = np.zeros((n + k, n + k))
            M[:n, :n] = P
            if k:
                M[:n, n:] = G[S].T
                M[n:, :n] = G[S]
            rhs = np.concatenate([-q, h[S]])
            try:
                sol = np.linalg.solve(M, rhs)
            except np.linalg.LinAlgError:
                continue
            z, lam = sol[:n], sol[n:]
            if np.any(lam < -tol):
                continue
            if np.any(G @ z - h > tol):
                continue
            obj = 0.5 * z @ P @ z + q @ z
            if obj < best_obj - 1e-12:
                best_obj = obj
                best = z
    return best


def kkt_residuals(P, q, G, h, z, duals) -> dict[str, float]:
    """Stationarity, feasibility, and complementarity norms of a QP solution."""
    stat = P @ z + q + G.T @ duals
    primal = G @ z - h
    return {
        "stationarity": float(np.linalg.norm(stat, np.inf)),
        "primal": float(max(primal.max(initial=-np.inf), 0.0)),
        "dual": float(max(-duals.min(initial=0.0), 0.0)),
        "complementarity": float(np.abs(duals * primal).max(initial=0.0)),
    }


# ---------------------------------------------------------------------------
# constrained accelerations by null-space elimination

def ds_terms(q_e, dq_e, params: ModelParams):
    """`ext_dynamics` with the thrust column appended to B: input (u2, u3, F_th).

    The thrust column is J_p' f, with J_p the exact Jacobian of the torso
    mass point and f the unit direction from that point toward the hip (see
    `thrust_column_geometry` for the finite-difference form).
    """
    from thrusterbiped.dynamics import ext_dynamics

    terms = ext_dynamics(q_e, dq_e, params)
    a123 = q_e[0] + q_e[1] + q_e[2]
    f = np.array([sin(a123), -cos(a123)])
    Jp = np.zeros((2, 5))
    Jp[:, :3] = params.l_T * np.array([[-cos(a123)], [-sin(a123)]])
    Jp[:, 3:] = np.eye(2)
    return terms._replace(B=np.column_stack([terms.B, Jp.T @ f]))


def ds_nullspace_accel(q, dq, eta, params):
    """Both-feet-pinned accelerations without the KKT formulation.

    Decomposes ddq into a particular solution of the damped constraint
    equation plus a null-space motion, then projects the dynamics onto the
    tangent space; forces come from a least-squares fit of the residual.
    """
    from thrusterbiped.dynamics import contact_kinematics

    terms = ds_terms(q, dq, params)
    ck = contact_kinematics(q, dq, params)
    rhs_c = -ck.jdot_qdot - params.d * (ck.J @ dq)

    ddq_p = np.linalg.pinv(ck.J) @ rhs_c
    _, _, Vt = np.linalg.svd(ck.J)
    Z = Vt[4:].T  # (5, 1) tangent direction of the contact manifold
    M = Z.T @ terms.D @ Z
    rhs = Z.T @ (terms.B @ eta - terms.H - terms.D @ ddq_p)
    s = np.linalg.solve(M, rhs)
    ddq = ddq_p + Z @ s
    lam, *_ = np.linalg.lstsq(ck.J.T, terms.D @ ddq + terms.H - terms.B @ eta,
                              rcond=None)
    return ddq, lam


# ---------------------------------------------------------------------------
# brute-force thrust grid for the 3-interval predictive program

def thrust_grid_best(x1, r_d, w_x, w_eta_f, f_stage_grids, T_s, params,
                     mu, eps):
    """Best zero-torque thrust sequence over a dense grid, checked against
    the same affine prediction and cone model the program uses.

    Returns (best objective, best (f1, f2, f3), objective spread); the best
    objective is inf when no grid point is cone-feasible.
    """
    from thrusterbiped.nmpc import linearize_ds

    A, B, c, lam0, Lx, Le = linearize_ds(x1, np.zeros(3), T_s, params)
    bf = B[:, 2]
    le = Le[:, 2]
    g1, g2, g3 = f_stage_grids

    x0_next = A @ x1 + c
    X1 = x0_next[None, :] + np.outer(g1, bf)                        # f1
    X2 = (X1 @ A.T + c)[None, :, :] + np.outer(g2, bf)[:, None, :]  # f2 x f1
    X3 = np.einsum("abj,ij->abi", X2, A) + c
    X3 = X3[None, :, :, :] + np.outer(g3, bf)[:, None, None, :]     # f3 x f2 x f1

    def stage_cost(X, node):
        e = X - r_d[node]
        return np.einsum("...i,i,...i->...", e, w_x, e)

    obj = (stage_cost(X1, 1)[None, None, :]
           + stage_cost(X2, 2)[None, :, :]
           + stage_cost(X3, 3))
    f1 = g1[None, None, :]
    f2 = g2[None, :, None]
    f3 = g3[:, None, None]
    obj = obj + w_eta_f * (f1 ** 2 + (f2 - f1) ** 2 + (f3 - f2) ** 2)

    def cone_ok(lam):
        lT1, lN1, lT2, lN2 = lam[..., 0], lam[..., 1], lam[..., 2], lam[..., 3]
        return ((np.abs(lT1) <= mu * lN1) & (np.abs(lT2) <= mu * lN2)
                & (lN1 >= eps) & (lN2 >= eps))

    def lam_of(X_prev, f):
        return lam0 + (X_prev - x1) @ Lx.T + np.multiply.outer(f, le)

    ok0 = cone_ok(lam0 + np.multiply.outer(g1, le))
    ok1 = cone_ok(lam_of(X1, g2[:, None]))
    ok2 = cone_ok(lam_of(X2, g3[:, None, None]))
    feasible = ok0[None, None, :] & ok1[None, :, :] & ok2
    spread = float(obj.std())
    obj = np.where(feasible, obj, np.inf)
    best = float(np.min(obj))
    if not np.isfinite(best):
        return best, None, spread
    i3, i2, i1 = np.unravel_index(int(np.argmin(obj)), obj.shape)
    return best, (float(g1[i1]), float(g2[i2]), float(g3[i3])), spread


def torque_thrust_grid_best(x1, r_d, w_x, w_u3, w_f, u3_grid, f_grid, T_s,
                            params, mu, eps):
    """Dense grid over (u3, f_th) pairs on a 2-interval horizon, u2 = 0.

    Candidate sequences apply one (u3, f) pair per interval; feasibility uses
    the same affine force model as the program.  Returns (best objective,
    ((u3_1, f_1), (u3_2, f_2)), objective spread).
    """
    from thrusterbiped.nmpc import linearize_ds

    A, B, c, lam0, Lx, Le = linearize_ds(x1, np.zeros(3), T_s, params)

    U3, F = np.meshgrid(u3_grid, f_grid, indexing="ij")
    u3 = U3.ravel()
    f = F.ravel()
    m = u3.shape[0]
    dX = np.outer(u3, B[:, 1]) + np.outer(f, B[:, 2])    # (m, 10) input kick
    dlam = np.outer(u3, Le[:, 1]) + np.outer(f, Le[:, 2])

    def cone_ok(lam):
        return ((np.abs(lam[..., 0]) <= mu * lam[..., 1])
                & (np.abs(lam[..., 2]) <= mu * lam[..., 3])
                & (lam[..., 1] >= eps) & (lam[..., 3] >= eps))

    def stage_cost(X, node):
        e = X - r_d[node]
        return np.einsum("...i,i,...i->...", e, w_x, e)

    X1 = (A @ x1 + c)[None, :] + dX                       # stage-1 states, (m, 10)
    lam_node0 = lam0[None, :] + dlam
    ok0 = cone_ok(lam_node0)

    X2 = (X1 @ A.T + c)[None, :, :] + dX[:, None, :]      # (m2, m1, 10)
    lam_node1 = lam0[None, None, :] + np.einsum(
        "abj,ij->abi", X1[None, :, :] - x1[None, None, :], Lx) + dlam[:, None, :]
    ok1 = cone_ok(lam_node1)

    obj = stage_cost(X1, 1)[None, :] + stage_cost(X2, 2)
    obj = obj + (w_u3 * u3 ** 2 + w_f * f ** 2)[None, :]
    obj = obj + (w_u3 * np.subtract.outer(u3, u3) ** 2
                 + w_f * np.subtract.outer(f, f) ** 2)
    spread = float(obj.std())
    feasible = ok0[None, :] & ok1
    obj = np.where(feasible, obj, np.inf)
    best = float(np.min(obj))
    if not np.isfinite(best):
        return best, None, spread
    i2, i1 = np.unravel_index(int(np.argmin(obj)), obj.shape)
    pick = lambda i: (float(u3[i]), float(f[i]))
    return best, (pick(i1), pick(i2)), spread


# ---------------------------------------------------------------------------
# condensed predictive program, one dense S[k] product per horizon node

def solve_nmpc_dense(
    prob: NmpcProblem,
    x_d1: np.ndarray,
    params: ModelParams,
    eta_base: np.ndarray | None = None,
) -> NmpcSolution:
    """The package's former `solve_nmpc`: condensing that rebuilds every S[k].

    Kept as the reference for the structured condensing through A^i B.

    Friction-cone and minimum-normal-force rows use the affine force model at
    nodes 0..n_int-1; state boxes apply at nodes 1..n_int.  An infeasible or
    stalled QP returns zero input with the corresponding status; so does a
    violated row that no input can reach (status infeasible, 0 iterations).
    """
    from thrusterbiped.nmpc import N_ETA, N_X, NmpcSolution, linearize_ds
    from thrusterbiped.qp import INFEASIBLE, OPTIMAL, QpSolution, solve_qp

    x1 = np.asarray(x_d1, dtype=float)
    K = prob.n_int
    eta0 = np.zeros(N_ETA) if eta_base is None else np.asarray(eta_base, dtype=float)

    A, B, c, lam0, Lx, Le = linearize_ds(x1, eta0, prob.T_s, params)

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
    if np.any(~live & (h < -1e-9)):
        sol = QpSolution(np.zeros(nz), INFEASIBLE, 0)
    else:
        keep = live & np.isfinite(h)
        sol = solve_qp(P, qv, G[keep], h[keep])
    if sol.status != OPTIMAL:
        zero = np.zeros((K, N_ETA))
        return NmpcSolution(zero, x_free.copy(), _predict_forces_loop(
            zero, x_free, x1, eta0, lam0, Lx, Le), float("nan"), sol.status,
            sol.iterations)

    z = sol.z
    eta_seq = z.reshape(K, N_ETA)
    x_pred = x_free + np.einsum("kij,j->ki", S, z)
    lam_pred = _predict_forces_loop(eta_seq, x_pred, x1, eta0, lam0, Lx, Le)

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


def _predict_forces_loop(eta_seq, x_pred, x1, eta0, lam0, Lx, Le):
    K = eta_seq.shape[0]
    lam = np.empty((K, 4))
    for k in range(K):
        lam[k] = lam0 + Lx @ (x_pred[k] - x1) + Le @ (eta_seq[k] - eta0)
    return lam
