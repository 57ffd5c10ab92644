"""Correctness checks on the simulator's outputs, computed apart from it.

Every check here works from written outputs (``trace.csv``, ``steps.csv``,
``scenario_resolved.json``, ``sweep_summary.csv``) or, for the DS-recovery
workload, from the arrays ``simulate_ds`` returns.  The point-mass geometry
below is the benchmark's own: it does not call the package's dynamics, so a
fault there cannot hide behind a matching fault here.

Geometry (frozen angle conventions of the model): a link at absolute angle
phi points along (-sin phi, cos phi) from its lower end.  The hip mass sits
at the hip, each leg mass halfway down its leg, the torso mass l_T up the
torso link.  Absolute angles are q1 (stance leg), q1+q2 (swing leg) and
q1+q2+q3 (torso).  Thrust presses along (sin q123, -cos q123).

Each ``check_*`` function returns a list of failure messages; empty means
the output passed.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass

import numpy as np

# Tolerances.  Each sits well above what the unmodified program produces on
# the benchmark workloads (see README) and well below what a real fault gives.
NEWTON_TOL_N = 1e-3       # |M a_com - sum F| per finite-difference stencil
KINK_TOL = 1e-3           # N m, SS torque second difference marking a kink
CONE_TOL = 1e-6           # slack on |lam_T| <= mu lam_N, as a ratio
BOX_TOL = 1e-9            # slack on torque and thrust boxes
GOVERNOR_TOL = 1e-9       # slack on Gamma >= V
IMPACT_ENERGY_TOL = 1e-9  # relative slack on KE_post <= KE_pre
FOOT_REST_TOL = 1e-8      # m/s, foot speed just after impact
DS_DRIFT_TOL = 1e-6       # m, foot drift from its DS start position
SWEEP_TOL = 1e-12         # slack on max ||y|| ordering across torque caps


@dataclass(frozen=True)
class Geometry:
    m_T: float
    m_h: float
    m_k: float
    l_T: float
    l: float
    g: float

    @property
    def mass(self) -> float:
        return self.m_T + self.m_h + 2.0 * self.m_k

    @classmethod
    def from_model(cls, model: dict) -> "Geometry":
        return cls(*(float(model[k]) for k in ("m_T", "m_h", "m_k", "l_T", "l", "g")))


@dataclass(frozen=True)
class Limits:
    mu: float
    u_max: tuple[float, float]
    f_th_max: float
    q3dot_start: float

    @classmethod
    def from_scenario(cls, scenario: dict) -> "Limits":
        return cls(
            mu=float(scenario["sim"]["mu_s"]),
            u_max=tuple(float(v) for v in scenario["gait"]["u_max"]),
            f_th_max=float(scenario["model"]["f_th_max"]),
            q3dot_start=float(scenario["gait"]["q3dot_start"]),
        )


Rows = dict  # column name -> np.ndarray; "phase" holds str tags


def read_trace(path: str) -> Rows:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        body = list(reader)
    cols: Rows = {}
    for j, name in enumerate(header):
        if name == "phase":
            cols[name] = np.array([r[j] for r in body])
        else:
            cols[name] = np.array([float(r[j]) for r in body])
    return cols


def take(rows: Rows, idx) -> Rows:
    return {k: v[idx] for k, v in rows.items()}


def _angles(rows: Rows):
    q1 = rows["q1"]
    q12 = q1 + rows["q2"]
    return q1, q12, q12 + rows["q3"]


def com_position(rows: Rows, geo: Geometry) -> tuple[np.ndarray, np.ndarray]:
    q1, q12, q123 = _angles(rows)
    x, y = rows["ph_x"], rows["ph_y"]
    lh = 0.5 * geo.l
    cx = (geo.m_h * x
          + geo.m_T * (x - geo.l_T * np.sin(q123))
          + geo.m_k * (x + lh * np.sin(q1))
          + geo.m_k * (x + lh * np.sin(q12)))
    cy = (geo.m_h * y
          + geo.m_T * (y + geo.l_T * np.cos(q123))
          + geo.m_k * (y - lh * np.cos(q1))
          + geo.m_k * (y - lh * np.cos(q12)))
    return cx / geo.mass, cy / geo.mass


def external_force(rows: Rows, geo: Geometry) -> tuple[np.ndarray, np.ndarray]:
    """Contact forces, thrust and gravity; NaN force columns (SS) count as 0."""
    _, _, q123 = _angles(rows)
    f_th = np.nan_to_num(rows["F_th"])
    lt = np.nan_to_num(rows["lamT1"]) + np.nan_to_num(rows["lamT2"])
    ln = np.nan_to_num(rows["lamN1"]) + np.nan_to_num(rows["lamN2"])
    return lt + f_th * np.sin(q123), ln - f_th * np.cos(q123) - geo.mass * geo.g


def newton_residuals(rows: Rows, geo: Geometry) -> np.ndarray:
    """|M a_com - F| at every node whose five-node stencil sees smooth motion.

    a_com is the fourth-order central second difference of the centre of
    mass.  A stencil is skipped when it straddles a phase boundary, an
    uneven step (the located touchdown node), a change of the
    zero-order-hold DS input, or a kink of the SS torque (saturation or
    governor switching), where the motion is not smooth enough for the
    difference formula.  NaN marks a skipped node.
    """
    t = rows["t"]
    n = t.shape[0]
    res = np.full(n, np.nan)
    if n < 5:
        return res
    cx, cy = com_position(rows, geo)
    fx, fy = external_force(rows, geo)
    c = slice(2, n - 2)
    h = np.diff(t)
    h0 = h[1:-2]
    ok = h0 > 0.0
    for k in range(4):
        ok &= np.abs(h[k:n - 4 + k] - h0) <= 1e-6 * h0
    ph = rows["phase"]
    ds = ph[c] == "DS"
    for k in (0, 1, 3, 4):
        ok &= ph[k:n - 4 + k] == ph[c]
        for name in ("u2", "u3", "F_th"):
            col = rows[name]
            ok &= ~ds | (col[k:n - 4 + k] == col[c])
    for name in ("u2", "u3"):
        col = np.nan_to_num(rows[name])
        d2 = np.abs(col[2:] - 2.0 * col[1:-1] + col[:-2])
        kink = np.maximum(np.maximum(d2[:-2], d2[1:-1]), d2[2:])
        ok &= ds | (kink <= KINK_TOL)

    def second(v):
        return (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2] + 16.0 * v[3:-1]
                - v[4:]) / (12.0 * h0 * h0)

    rx = geo.mass * second(cx) - fx[c]
    ry = geo.mass * second(cy) - fy[c]
    res[c] = np.where(ok, np.hypot(rx, ry), np.nan)
    return res


def check_newton(rows: Rows, geo: Geometry) -> list[str]:
    res = newton_residuals(rows, geo)
    res = res[np.isfinite(res)]
    if 2 * res.size < rows["t"].shape[0]:
        return [f"newton: only {res.size} of {rows['t'].shape[0]} nodes checkable"]
    worst = float(res.max())
    if not worst <= NEWTON_TOL_N:
        return [f"newton: residual {worst:.3g} N over {NEWTON_TOL_N:g} N"]
    return []


def check_cone(rows: Rows, mu: float) -> list[str]:
    out = []
    ph = rows["phase"]
    feet = [("lamT1", "lamN1", (ph == "SS") | (ph == "DS")),
            ("lamT2", "lamN2", ph == "DS")]
    for tc, nc, sel in feet:
        lt, ln = rows[tc][sel], rows[nc][sel]
        if not np.all(ln > 0.0):
            out.append(f"cone: {nc} not positive")
        elif not np.all(np.abs(lt) <= (mu + CONE_TOL) * ln):
            out.append(f"cone: |{tc}| above mu*{nc}")
    return out


def check_boxes(rows: Rows, lim: Limits) -> list[str]:
    out = []
    ph = rows["phase"]
    sel = (ph == "SS") | (ph == "DS")
    for name, cap in (("u2", lim.u_max[0]), ("u3", lim.u_max[1])):
        if not np.all(np.abs(rows[name][sel]) <= cap + BOX_TOL):
            out.append(f"boxes: |{name}| above {cap:g}")
    f_ss = rows["F_th"][ph == "SS"]
    f_ds = rows["F_th"][ph == "DS"]
    if not np.all(f_ss == 0.0):
        out.append("boxes: thrust in single support")
    if not np.all((f_ds >= -BOX_TOL) & (f_ds <= lim.f_th_max + BOX_TOL)):
        out.append(f"boxes: F_th outside [0, {lim.f_th_max:g}]")
    return out


def check_governor(rows: Rows) -> list[str]:
    sel = rows["phase"] == "SS"
    margin = rows["Gamma"][sel] - rows["V"][sel]
    if not np.all(margin >= -GOVERNOR_TOL):
        return [f"governor: Gamma - V reaches {float(margin.min()):.3g}"]
    return []


def _link_velocities(row: dict, geo: Geometry):
    """Velocities of (hip, stance leg, swing leg, torso, foot 1, foot 2)."""
    q1 = row["q1"]
    q12 = q1 + row["q2"]
    q123 = q12 + row["q3"]
    w1 = row["dq1"]
    w12 = w1 + row["dq2"]
    w123 = w12 + row["dq3"]
    vh = np.array([row["dph_x"], row["dph_y"]])
    lh = 0.5 * geo.l

    def down(angle, rate, length):  # d/dt of length*(sin a, -cos a)
        return length * rate * np.array([math.cos(angle), math.sin(angle)])

    return (vh,
            vh + down(q1, w1, lh),
            vh + down(q12, w12, lh),
            vh - geo.l_T * w123 * np.array([math.cos(q123), math.sin(q123)]),
            vh + down(q1, w1, geo.l),
            vh + down(q12, w12, geo.l))


def kinetic_energy(row: dict, geo: Geometry) -> float:
    vh, v1, v2, vt, _, _ = _link_velocities(row, geo)
    return 0.5 * (geo.m_h * vh @ vh + geo.m_k * (v1 @ v1 + v2 @ v2)
                  + geo.m_T * vt @ vt)


def check_impact(pre: dict, post: dict, geo: Geometry) -> list[str]:
    out = []
    k_pre, k_post = kinetic_energy(pre, geo), kinetic_energy(post, geo)
    if not k_post <= k_pre * (1.0 + IMPACT_ENERGY_TOL):
        out.append(f"impact: kinetic energy rose {k_pre:.6g} -> {k_post:.6g} J")
    _, _, _, _, f1, f2 = _link_velocities(post, geo)
    speed = max(float(np.hypot(*f1)), float(np.hypot(*f2)))
    if not speed <= FOOT_REST_TOL:
        out.append(f"impact: foot moves at {speed:.3g} m/s after impact")
    return out


def foot_positions(rows: Rows, geo: Geometry):
    q1, q12, _ = _angles(rows)
    x, y = rows["ph_x"], rows["ph_y"]
    return (np.stack([x + geo.l * np.sin(q1), y - geo.l * np.cos(q1)], axis=1),
            np.stack([x + geo.l * np.sin(q12), y - geo.l * np.cos(q12)], axis=1))


def check_ds_contact(rows: Rows, geo: Geometry) -> list[str]:
    out = []
    for k, p in enumerate(foot_positions(rows, geo), start=1):
        drift = float(np.max(np.linalg.norm(p - p[0], axis=1)))
        if not drift <= DS_DRIFT_TOL:
            out.append(f"ds contact: foot {k} drifts {drift:.3g} m")
    return out


def check_braking(rows: Rows, q3dot_start: float) -> list[str]:
    err = np.abs(rows["dq3"] - q3dot_start)
    if not err[-1] < err[0]:
        return [f"ds braking: torso-rate error {err[0]:.4g} -> {err[-1]:.4g}"]
    return []


def check_ds_block(rows: Rows, geo: Geometry, lim: Limits) -> list[str]:
    return (check_newton(rows, geo) + check_cone(rows, lim.mu)
            + check_boxes(rows, lim) + check_ds_contact(rows, geo)
            + check_braking(rows, lim.q3dot_start))


def check_ss_block(rows: Rows, geo: Geometry, lim: Limits) -> list[str]:
    return (check_newton(rows, geo) + check_cone(rows, lim.mu)
            + check_boxes(rows, lim) + check_governor(rows))


def split_cycles(rows: Rows) -> list[tuple[np.ndarray, int, np.ndarray]]:
    """(SS rows, IMPACT row, DS rows) index sets of every complete cycle."""
    ph = rows["phase"]
    impacts = np.flatnonzero(ph == "IMPACT")
    cycles = []
    start = 0
    for i in impacts:
        end = i + 1
        while end < ph.shape[0] and ph[end] == "DS":
            end += 1
        cycles.append((np.arange(start, i), int(i), np.arange(i + 1, end)))
        start = end
    return cycles


def row_at(rows: Rows, i: int) -> dict:
    return {k: v[i] for k, v in rows.items()}


def check_cycle(rows: Rows, cycle, geo: Geometry, lim: Limits) -> list[str]:
    ss, imp, ds = cycle
    if ss.size < 3 or ds.size < 3:
        return ["cycle: missing single- or double-support rows"]
    return (check_ss_block(take(rows, ss), geo, lim)
            + check_impact(row_at(rows, int(ss[-1])), row_at(rows, imp), geo)
            + check_ds_block(take(rows, ds), geo, lim))


def max_tracking_error(rows: Rows) -> float:
    sel = rows["phase"] == "SS"
    return float(np.max(np.hypot(rows["y1"][sel], rows["y2"][sel])))


@dataclass
class RunCheck:
    """Outcome of checking one `run` output directory."""

    failed: int
    failures: list
    max_y: float


def check_run_dir(out_dir: str, n_steps: int) -> RunCheck:
    """Check a `thrusterbiped run` output directory cycle by cycle.

    A gait cycle fails when it was not completed, when the program flagged
    an NMPC fallback or a DS contact violation for it, or when any
    independent check rejects its rows.
    """
    with open(os.path.join(out_dir, "scenario_resolved.json"), encoding="utf-8") as fh:
        scenario = json.load(fh)
    geo = Geometry.from_model(scenario["model"])
    lim = Limits.from_scenario(scenario)
    rows = read_trace(os.path.join(out_dir, "trace.csv"))
    with open(os.path.join(out_dir, "steps.csv"), newline="", encoding="utf-8") as fh:
        steps = list(csv.DictReader(fh))

    failures = []
    bad = set()
    cycles = split_cycles(rows)
    for k in range(n_steps):
        msgs = []
        if k >= len(cycles) or k >= len(steps):
            msgs.append("run: gait cycle not completed")
        else:
            if int(steps[k]["nmpc_fallbacks"]) != 0:
                msgs.append("run: NMPC fallback")
            if int(steps[k]["ds_contact_violation"]) != 0:
                msgs.append("run: DS contact violation flagged")
            msgs += check_cycle(rows, cycles[k], geo, lim)
        if msgs:
            bad.add(k)
            failures += [f"{out_dir} cycle {k}: {m}" for m in msgs]
    return RunCheck(len(bad), failures, max_tracking_error(rows))


def check_sweep(caps_and_max_y: list[tuple[float, float]]) -> list[str]:
    """max ||y|| must not decrease as the torque cap tightens."""
    ordered = sorted(caps_and_max_y, key=lambda cy: -cy[0])
    out = []
    for (c0, y0), (c1, y1) in zip(ordered, ordered[1:]):
        if not y1 >= y0 - SWEEP_TOL:
            out.append(f"sweep: max||y|| falls from {y0:.5g} at u_max={c0:g} "
                       f"to {y1:.5g} at u_max={c1:g}")
    return out
