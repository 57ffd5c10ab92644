"""Hybrid executive: alternate single support, impact, double support.

One gait cycle is: integrate the pinned SS dynamics under the governed
tracking controller until the swing foot strikes the ground, apply the
two-point inelastic impact and relabel the legs, then run the fixed-envelope
DS phase under the predictive controller, whose exit state seeds the next SS
phase.  Everything is logged row-by-row into one trace with a phase tag.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .config import ScenarioConfig, _write_lines, save_config
from .dynamics import (
    hip_position_pinned,
    hip_velocity_pinned,
    ss_contact_force,
    swing_foot_pinned,
    extend_pinned_state,
)
from .erg import SsController
from .events import impact_map, relabel, swing_foot_descending, touchdown_guard
from .gait import nominal_start_state, output_data, zero_dynamics_residual
from .integrate import integrate_rk4
from .nmpc import NmpcController, simulate_ds

TRACE_COLUMNS = [
    "t", "phase", "q1", "q2", "q3", "ph_x", "ph_y",
    "dq1", "dq2", "dq3", "dph_x", "dph_y",
    "u2", "u3", "F_th", "lamT1", "lamN1", "lamT2", "lamN2",
    "y1", "y2", "dy1", "dy2", "V", "Gamma", "w1", "w2", "s",
]

STEP_COLUMNS = [
    "step", "t_start", "ss_duration", "residual_post_impact",
    "residual_ss_start", "residual_ratio", "start_diff_to_next",
    "max_u2", "max_u3", "erg_saturations", "min_lam_n",
    "max_cone_ratio", "max_f_th", "peak_normal_sum",
    "ds_contact_violation", "nmpc_fallbacks",
]

SS_TIMEOUT = 5.0          # abort if a single step takes longer than this
ARM_TRAVEL_FRACTION = 0.05  # swing-foot forward travel that arms the guard
# Tracking error makes the swing foot graze the ground where the legs cross
# (the designed tangency cannot be exact in closed loop); those micro-dips
# descend at ~1e-4 m/s versus ~1e-2 m/s at a real touchdown, so a small
# descent-rate floor filters them without delaying the true event.
TOUCHDOWN_RATE_MIN = 2e-3  # m/s

NAN = float("nan")


@dataclass
class StepRecord:
    index: int
    t_start: float
    ss_duration: float
    residual_post_impact: float
    residual_ss_start: float
    start_state: np.ndarray
    max_abs_u: np.ndarray
    erg_saturations: int
    min_lam_n: float
    max_cone_ratio: float
    max_f_th: float
    peak_normal_sum: float
    ds_contact_violation: bool
    nmpc_fallbacks: int


@dataclass
class GaitLog:
    rows: list = field(default_factory=list)     # entries ordered as TRACE_COLUMNS
    steps: list = field(default_factory=list)    # StepRecord per completed step
    completed_steps: int = 0
    aborted: str | None = None

    def column(self, name: str, phase_tag: str | None = None) -> np.ndarray:
        """One numeric column, optionally restricted to a phase tag."""
        idx = TRACE_COLUMNS.index(name)
        vals = [r[idx] for r in self.rows
                if phase_tag is None or r[1] == phase_tag]
        return np.array(vals, dtype=float)


def _fall_reason(x_s: np.ndarray, params) -> str | None:
    q1 = x_s[0]
    if params.l * math.cos(q1) < 0.2 * params.l:
        return "fall: hip height below 0.2*l"
    if abs(q1) > 0.5 * math.pi:
        return "fall: stance angle left the +-pi/2 band"
    return None


def run_walk(cfg: ScenarioConfig, start_state: np.ndarray | None = None) -> GaitLog:
    """Execute the configured number of gait cycles; see module docstring.

    ``start_state`` overrides the designed on-gait initial state; ablation
    studies use it to start exactly on the tracking manifold.
    """
    cfg.validate()
    params = cfg.model.to_params()
    gait = cfg.gait.to_gait()
    ss_ctrl = SsController(
        gait, params,
        kappa=cfg.erg.kappa,
        rate_cap=cfg.erg.rate_cap,
        sign_eps=cfg.erg.sign_eps,
        governor_enabled=cfg.erg.enabled,
    )
    n_int = max(1, int(round(cfg.sim.ds_envelope / cfg.nmpc.T_s)))
    nmpc = NmpcController(
        params,
        T_s=cfg.nmpc.T_s,
        n_int=n_int,
        w_x=np.asarray(cfg.nmpc.w_x, dtype=float),
        w_eta=np.asarray(cfg.nmpc.w_eta, dtype=float),
        u_max=np.asarray(gait.u_max, dtype=float),
        f_th_max=cfg.model.f_th_max,
        mu_s=cfg.sim.mu_s,
        eps_normal=cfg.nmpc.eps_normal,
        angle_max=cfg.nmpc.angle_max,
        rate_max=cfg.nmpc.rate_max,
        hip_box=cfg.nmpc.hip_box,
        thrust_enabled=cfg.nmpc.thrust_enabled,
    )

    log = GaitLog()
    if start_state is None:
        x_s = nominal_start_state(gait)
    else:
        x_s = np.asarray(start_state, dtype=float).copy()
    stance = np.zeros(2)
    t = 0.0

    for k in range(cfg.sim.n_steps):
        step_t0 = t
        start_state = x_s.copy()

        z0 = np.concatenate([x_s, ss_ctrl.initial_w(x_s)])
        p2x0 = stance[0] + swing_foot_pinned(x_s[:3], params)[0]
        arm_dist = ARM_TRAVEL_FRACTION * params.l
        # the swing foot grazes ground height where the legs cross (q2 = 0);
        # require q2 past half its touchdown value so that region stays dead
        q2_arm = 0.5 * gait.bezier[0, -1]

        max_abs_u = np.zeros(2)
        saturations = 0
        min_lam_n = np.inf
        max_ratio = 0.0

        def log_node(ti, zi):
            """One SS trace row, logged where the integrator creates the node."""
            nonlocal max_abs_u, saturations, min_lam_n, max_ratio
            smp = ss_ctrl.sample(zi)
            lam1 = ss_contact_force(zi[:3], zi[3:6], smp.ddq, params)
            hip = stance + hip_position_pinned(zi[:3], params)
            dhip = hip_velocity_pinned(zi[:3], zi[3:6], params)
            log.rows.append([
                ti, "SS", zi[0], zi[1], zi[2], hip[0], hip[1],
                zi[3], zi[4], zi[5], dhip[0], dhip[1],
                smp.u[0], smp.u[1], 0.0, lam1[0], lam1[1], NAN, NAN,
                smp.y[0], smp.y[1], smp.dy[0], smp.dy[1],
                smp.V, smp.Gamma, smp.w[0], smp.w[1], smp.s,
            ])
            max_abs_u = np.maximum(max_abs_u, np.abs(smp.u))
            saturations += int(smp.saturated)
            if lam1[1] < min_lam_n:
                min_lam_n = float(lam1[1])
            ratio = abs(lam1[0]) / lam1[1] if lam1[1] > 0.0 else np.inf
            max_ratio = max(max_ratio, float(ratio))

        def accept_node(ti, zi):
            log_node(ti, zi)
            return _fall_reason(zi[:6], params)

        log_node(t, z0)

        result = integrate_rk4(
            ss_ctrl.field, z0, t, t + SS_TIMEOUT, cfg.sim.dt_ss,
            guard=lambda z: touchdown_guard(z[:6], params),
            guard_armed=lambda z: (
                stance[0] + swing_foot_pinned(z[:3], params)[0] - p2x0 > arm_dist
                and z[1] > q2_arm
            ),
            guard_descending=lambda z: (
                swing_foot_descending(z[:6], params) + TOUCHDOWN_RATE_MIN
            ),
            abort=accept_node,
        )
        if result.event is not None:
            log_node(result.t[-1], result.x[-1])

        if result.abort_reason is not None:
            log.aborted = result.abort_reason
            return log
        if result.event is None:
            log.aborted = "single-support phase exceeded the time limit"
            return log

        # impact and relabel
        t = result.event.t
        x_pre = result.event.x[:6]
        q_e, dq_e = extend_pinned_state(x_pre[:3], x_pre[3:], stance, params)
        imp = impact_map(q_e, dq_e, params)
        q_e2, dq_e2 = relabel(q_e, imp.dq_e_plus)
        new_stance = np.array(
            [stance[0] + swing_foot_pinned(x_pre[:3], params)[0], 0.0])

        x_post = np.concatenate([q_e2[:3], dq_e2[:3]])
        od_post = output_data(x_post, gait, params)
        log.rows.append([
            t, "IMPACT", q_e2[0], q_e2[1], q_e2[2], q_e2[3], q_e2[4],
            dq_e2[0], dq_e2[1], dq_e2[2], dq_e2[3], dq_e2[4],
            NAN, NAN, NAN, NAN, NAN, NAN, NAN,
            od_post.y[0], od_post.y[1], od_post.dy[0], od_post.dy[1],
            NAN, NAN, NAN, NAN, od_post.s_raw,
        ])
        residual_post = zero_dynamics_residual(x_post, gait, params)

        # double support toward the designed next-step start
        x_d0 = np.concatenate([q_e2, dq_e2])
        ss0 = nominal_start_state(gait)
        hip_t = new_stance + hip_position_pinned(ss0[:3], params)
        x_target = np.concatenate([ss0[:3], hip_t, ss0[3:], np.zeros(2)])
        nmpc.reset(x_d0, x_target)
        trace, x_df = simulate_ds(
            x_d0, nmpc, cfg.sim.ds_envelope, cfg.sim.dt_ds, params,
            T_s=cfg.nmpc.T_s)

        max_f_th = 0.0
        peak_normal_sum = 0.0
        for ti, xi, lami, etai in zip(trace.t, trace.x, trace.lam, trace.eta):
            sub = np.concatenate([xi[:3], xi[5:8]])
            od = output_data(sub, gait, params)
            log.rows.append([
                t + ti, "DS", xi[0], xi[1], xi[2], xi[3], xi[4],
                xi[5], xi[6], xi[7], xi[8], xi[9],
                etai[0], etai[1], etai[2],
                lami[0], lami[1], lami[2], lami[3],
                od.y[0], od.y[1], od.dy[0], od.dy[1],
                NAN, NAN, NAN, NAN, od.s_raw,
            ])
            min_lam_n = min(min_lam_n, float(lami[1]), float(lami[3]))
            for lt, ln in ((lami[0], lami[1]), (lami[2], lami[3])):
                ratio = abs(lt) / ln if ln > 0.0 else np.inf
                max_ratio = max(max_ratio, float(ratio))
            max_f_th = max(max_f_th, float(etai[2]))
            peak_normal_sum = max(peak_normal_sum, float(lami[1] + lami[3]))

        t = t + trace.t[-1]
        stance = new_stance
        x_s = np.concatenate([x_df[:3], x_df[5:8]])
        fallbacks = sum(1 for item in trace.statuses if item[1] != "optimal")

        log.steps.append(StepRecord(
            index=k,
            t_start=step_t0,
            ss_duration=result.t[-1] - step_t0,
            residual_post_impact=residual_post,
            residual_ss_start=zero_dynamics_residual(x_s, gait, params),
            start_state=start_state,
            max_abs_u=max_abs_u,
            erg_saturations=saturations,
            min_lam_n=min_lam_n,
            max_cone_ratio=max_ratio,
            max_f_th=max_f_th,
            peak_normal_sum=peak_normal_sum,
            ds_contact_violation=trace.contact_violation,
            nmpc_fallbacks=fallbacks,
        ))
        log.completed_steps = k + 1

        reason = _fall_reason(x_s, params)
        if reason is not None:
            log.aborted = reason
            return log

    return log


def step_metrics(log: GaitLog) -> list[dict]:
    """Per-step table: invariance residuals, ratios, gait-to-gait distance."""
    table = []
    for i, rec in enumerate(log.steps):
        ratio = (rec.residual_ss_start / rec.residual_post_impact
                 if rec.residual_post_impact > 0.0 else 0.0)
        if i + 1 < len(log.steps):
            diff = float(np.linalg.norm(
                log.steps[i + 1].start_state - rec.start_state))
        else:
            diff = NAN
        table.append(dict(zip(STEP_COLUMNS, (
            rec.index, rec.t_start, rec.ss_duration, rec.residual_post_impact,
            rec.residual_ss_start, ratio, diff,
            float(rec.max_abs_u[0]), float(rec.max_abs_u[1]),
            rec.erg_saturations, rec.min_lam_n, rec.max_cone_ratio,
            rec.max_f_th, rec.peak_normal_sum,
            int(rec.ds_contact_violation), rec.nmpc_fallbacks,
        ), strict=True)))
    return table


def max_tracking_error(log: GaitLog) -> float:
    """Largest ||y|| over all single-support samples."""
    y1 = log.column("y1", "SS")
    y2 = log.column("y2", "SS")
    if y1.size == 0:
        return 0.0
    return float(np.max(np.hypot(y1, y2)))


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _csv_lines(columns: list[str], rows):
    yield ",".join(columns) + "\n"
    for row in rows:
        yield ",".join(_fmt(v) for v in row) + "\n"


def write_logs(log: GaitLog, out_dir: str, cfg: ScenarioConfig) -> dict[str, str]:
    """Write trace.csv, steps.csv, scenario_resolved.json, summary.txt.

    Each file appears only once complete (temp + rename); on failure every
    file written by this call is removed.
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    paths = {
        "trace": os.path.join(out_dir, "trace.csv"),
        "steps": os.path.join(out_dir, "steps.csv"),
        "config": os.path.join(out_dir, "scenario_resolved.json"),
        "summary": os.path.join(out_dir, "summary.txt"),
    }
    steps = ([entry[c] for c in STEP_COLUMNS] for entry in step_metrics(log))
    try:
        _write_lines(paths["trace"],
                     _csv_lines(TRACE_COLUMNS, log.rows[::cfg.io.log_decimation]))
        written.append(paths["trace"])
        _write_lines(paths["steps"], _csv_lines(STEP_COLUMNS, steps))
        written.append(paths["steps"])
        save_config(cfg, paths["config"])
        written.append(paths["config"])
        _write_lines(paths["summary"], [summary_text(log)])
    except Exception:
        for p in written:
            os.remove(p)
        raise
    return paths


def summary_text(log: GaitLog) -> str:
    lines = [f"steps completed: {log.completed_steps}"]
    lines.append(f"status: {'aborted: ' + log.aborted if log.aborted else 'ok'}")
    if log.steps:
        table = step_metrics(log)
        worst_ratio = max(e["residual_ratio"] for e in table)
        lines.append(f"worst invariance residual ratio: {worst_ratio:.6g}")
        lines.append(f"min normal force: {min(e['min_lam_n'] for e in table):.6g} N")
        lines.append(
            f"max cone ratio: {max(e['max_cone_ratio'] for e in table):.6g}")
        lines.append(
            f"peak normal-force sum: "
            f"{max(e['peak_normal_sum'] for e in table):.6g} N")
        lines.append(f"max thrust: {max(e['max_f_th'] for e in table):.6g} N")
        lines.append(
            f"nmpc fallbacks: {sum(e['nmpc_fallbacks'] for e in table)}")
    return "\n".join(lines) + "\n"
