#!/usr/bin/env python3
"""Benchmark of the thrusterbiped simulator: end-to-end rates and per-layer timing.

Usage, from the repository root:

    python3 perfbench/run.py --workload walk_default --seed 1 --seconds 40 --trace 0

Workloads (see README.md for why each exists):

* ``walk_default``: ``thrusterbiped run`` on the shipped default scenario,
  shortened to WALK_STEPS gait cycles per round; mostly single support.
* ``ds_recovery``: impact, relabel and one double-support phase under the
  NMPC controller per input, from a stored pre-impact state of the default
  walk with seeded joint-rate factors; no single support.
* ``sweep_umax``: ``thrusterbiped sweep`` over the CLI's default torque caps
  on the default scenario shortened to SWEEP_STEPS gait cycles.  Not listed
  in BENCHMARK.json: its threads share the interpreter lock, so the reference
  work can only bracket a whole round, and it is for runs by hand.

A run does whole rounds of its workload until ``--seconds`` have passed and
checks every round's outputs with the independent checks in checks.py.
Every timing is scaled to the nominal speed of the machine by the reference
work of reference.py, timed between stretches of program work, and each
repeated unit of work is taken at its median over its repeats.
With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds, prints the per-layer metrics and the
tracing overhead, and fails the run if a traced round's outputs differ by a
single byte from an untraced one.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from time import perf_counter

# The load model is one process whose only concurrency is the CLI sweep's
# thread pool, so BLAS runs single-threaded (set before numpy loads).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

WALK_STEPS = 2     # gait cycles per `thrusterbiped run` round
SWEEP_STEPS = 2    # gait cycles per level per `thrusterbiped sweep` round
DS_INPUTS = 10     # DS phases per ds_recovery round
REPLAYS = 4        # serial timed re-runs of each DS phase of a CLI round
SPLIT_EVERY = 100  # rk4_step calls per split of a walk round's wall time
REPLAY_TOL = 1e-9  # max state difference between a replay and its logged phase
RATE_SPREAD = 0.2  # joint-rate factors are drawn from 1 +- RATE_SPREAD

# Pinned state (q1, q2, q3, dq1, dq2, dq3) just before the second touchdown
# of the shipped default walk.  Stored, not simulated, so that ds_recovery
# does no single-support work and an SS change cannot move its inputs.
PRE_IMPACT = (
    -0.07920744561618408, 0.15841489292797772, -0.3790161045147645,
    -0.3092375926875344, 0.41231842495356025, -1.0375666970388073,
)


def process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


class TimedController:
    """Times each call of the wrapped DS controller, by sample index."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.ms: dict[int, float] = {}

    @property
    def status_log(self):
        return self.inner.status_log

    def __call__(self, sample: int, x_d):
        t0 = perf_counter()
        eta = self.inner(sample, x_d)
        self.ms[sample] = (perf_counter() - t0) * 1e3
        return eta


class Repeats(dict):
    """Scaled times of each repeated unit of work, by key."""

    def add(self, key, value: float) -> None:
        self.setdefault(key, []).append(value)

    def medians(self) -> list[float]:
        """Each key's median over its repeats, in the order the keys came."""
        return [statistics.median(v) for v in self.values()]


class DsTimer:
    """Runs DS phases through `simulate_ds` with a timed controller.

    One timer lives for the whole run.  Every round repeats the same phases
    with the same inputs, so each phase (by key) and each controller call
    (by key and sample) is timed once per repeat.  Each time is scaled to the
    nominal machine speed by the gauge; the metrics take each one's median
    over its repeats.
    """

    def __init__(self, gauge: reference.Gauge) -> None:
        self.gauge = gauge
        self.call_ms = Repeats()
        self.phase_s = Repeats()

    def run(self, simulate, key, x_d0, controller, *args, **kwargs):
        """`simulate(x_d0, controller, ...)`; returns its result, the phase's
        wall seconds and the gauge's scale factor for it."""
        timed = TimedController(controller)
        t0 = perf_counter()
        out = simulate(x_d0, timed, *args, **kwargs)
        dt = perf_counter() - t0
        scale = self.gauge.factor()
        self.phase_s.add(key, dt * scale)
        for sample, ms in timed.ms.items():
            self.call_ms.add((key, sample), ms * scale)
        return out, dt, scale


class Splits:
    """Splits a command's wall time at every SPLIT_EVERY-th call of a function.

    The walk is deterministic, so the k-th call of `integrate.rk4_step` is the
    same point of the command in every round.  At each split the gauge
    measures the reference work, outside the split's timing, and scales the
    split to the nominal machine speed.  The sum over the splits of each
    one's median over the rounds is the command's wall time at nominal speed.
    """

    def __init__(self, module, name: str) -> None:
        self.module = module
        self.name = name
        self.rounds: list[np.ndarray] = []  # scaled split times of each round
        self.scaled_s = 0.0  # the last command's wall time at nominal speed
        self.mismatch = False  # a round split into another number of parts

    @contextlib.contextmanager
    def timing(self, gauge: reference.Gauge):
        """Times the block in splits; the caller has started the gauge."""
        inner = getattr(self.module, self.name)
        scaled = []
        start = [perf_counter()]

        def close() -> None:
            dt = perf_counter() - start[0]
            scaled.append(dt * gauge.factor())
            start[0] = perf_counter()

        def counted(*args, **kwargs):
            counted.calls += 1
            if counted.calls % SPLIT_EVERY == 0:
                close()
            return inner(*args, **kwargs)

        counted.calls = 0
        setattr(self.module, self.name, counted)
        try:
            yield
        finally:
            close()
            setattr(self.module, self.name, inner)
        self.scaled_s = sum(scaled)
        if self.rounds and len(scaled) != len(self.rounds[0]):
            self.mismatch = True
        else:
            self.rounds.append(np.array(scaled))

    def total(self) -> float:
        return float(np.median(np.vstack(self.rounds), axis=0).sum())


class Round:
    """Outcome of one round: operations, wall time of its timed part at
    nominal speed, failures, output digest."""

    def __init__(self, ops: int, wall: float, failed: int, failures: list,
                 out_digest: str) -> None:
        self.ops = ops
        self.wall = wall
        self.failed = failed
        self.failures = failures
        self.digest = out_digest


X_COLUMNS = ("q1", "q2", "q3", "ph_x", "ph_y", "dq1", "dq2", "dq3", "dph_x", "dph_y")


def make_controller(tb, cfg):
    """The DS controller exactly as `harness.run_walk` builds it from `cfg`."""
    gait = cfg.gait.to_gait()
    n_int = max(1, int(round(cfg.sim.ds_envelope / cfg.nmpc.T_s)))
    return tb.nmpc.NmpcController(
        cfg.model.to_params(), T_s=cfg.nmpc.T_s, n_int=n_int,
        w_x=np.asarray(cfg.nmpc.w_x, dtype=float),
        w_eta=np.asarray(cfg.nmpc.w_eta, dtype=float),
        u_max=np.asarray(gait.u_max, dtype=float),
        f_th_max=cfg.model.f_th_max, mu_s=cfg.sim.mu_s,
        eps_normal=cfg.nmpc.eps_normal, angle_max=cfg.nmpc.angle_max,
        rate_max=cfg.nmpc.rate_max, hip_box=cfg.nmpc.hip_box,
        thrust_enabled=cfg.nmpc.thrust_enabled)


def ds_target(tb, cfg, stance_x: float) -> np.ndarray:
    """DS target as `harness.run_walk` sets it: the designed SS start state
    over the new stance foot, at rest."""
    ss0 = tb.gait.nominal_start_state(cfg.gait.to_gait())
    hip = np.array([stance_x, 0.0]) + tb.dynamics.hip_position_pinned(
        ss0[:3], cfg.model.to_params())
    return np.concatenate([ss0[:3], hip, ss0[3:], np.zeros(2)])


# -- workloads ----------------------------------------------------------------

class Workload:
    def __init__(self, tb, cfg, out_dir: str, seed: int) -> None:
        self.tb = tb
        self.cfg = cfg
        self.out = out_dir
        self.seed = seed
        self.tracer = None  # when set, traces the timed part of a round
        self.gauge = reference.Gauge()
        self.timer = DsTimer(self.gauge)
        self.peak_rss_mb = None  # ru_maxrss after the first timed command

    def _mark_peak(self) -> None:
        """Keep the process's peak RSS at the end of the first timed part.

        ru_maxrss only grows; read before any check or replay runs, it is the
        peak of set-up and of the program's own work, without the checker's."""
        if self.peak_rss_mb is None:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _traced(self):
        return self.tracer if self.tracer is not None else contextlib.nullcontext()

    def _cli(self, argv: list[str], *timers) -> tuple[int, float]:
        """Run one CLI command in this process, inside the given timing
        contexts; exit code and wall seconds."""
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
            err = stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
            stack.enter_context(self._traced())
            for timer in timers:
                stack.enter_context(timer)
            t0 = perf_counter()
            code = self.tb.cli.main(argv)
            wall = perf_counter() - t0
        self._mark_peak()
        if code != 0:
            sys.stderr.write(err.getvalue())
        return code, wall

    def _check_and_replay(self, run_dir: str, n_steps: int, key):
        """Check a `run` output directory, then re-run its DS phases serially.

        The CLI's own DS phases run inside the sweep's thread pool, where a
        call's time includes waiting for the interpreter lock, and inside the
        walk's splits, where the gauge cannot bracket them.  The replay gives
        every workload the same serial controller timing; each phase starts
        from its logged post-impact row, runs REPLAYS times, and must
        reproduce the logged DS block.
        """
        res = checks.check_run_dir(run_dir, n_steps)
        tb = self.tb
        cfg = tb.config.load_config(os.path.join(run_dir, "scenario_resolved.json"),
                                    apply_env=False)
        params = cfg.model.to_params()
        controller = make_controller(tb, cfg)
        rows = checks.read_trace(os.path.join(run_dir, "trace.csv"))
        gc.collect()  # the checks' garbage is not collected inside a timed phase
        self.gauge.start()
        for k, (_, imp, ds) in enumerate(checks.split_cycles(rows)):
            x_d0 = np.array([rows[c][imp] for c in X_COLUMNS])
            x_target = ds_target(tb, cfg, x_d0[3] + params.l * np.sin(x_d0[0]))
            logged = np.column_stack([rows[c][ds] for c in X_COLUMNS])
            for _ in range(REPLAYS):
                controller.reset(x_d0, x_target)
                (trace, _), _, _ = self.timer.run(
                    tb.nmpc.simulate_ds, (key, k), x_d0, controller,
                    cfg.sim.ds_envelope, cfg.sim.dt_ds, params, T_s=cfg.nmpc.T_s)
                if trace.x.shape != logged.shape or \
                        not np.max(np.abs(trace.x - logged)) <= REPLAY_TOL:
                    res.failures.append(f"{run_dir} cycle {k}: DS replay differs")
                    res.failed = n_steps
        return res


class WalkDefault(Workload):
    def setup(self) -> None:
        self.cfg.sim.n_steps = WALK_STEPS
        self.cfg_path = os.path.join(self.out, "scenario.json")
        self.tb.config.save_config(self.cfg, self.cfg_path)
        self.splits = Splits(self.tb.integrate, "rk4_step")

    def steps_per_s(self) -> float:
        """Gait cycles per second of the command at nominal speed."""
        return WALK_STEPS / self.splits.total()

    def round(self) -> Round:
        run_dir = os.path.join(self.out, "run")
        # Traced rounds are not split, since the tracer wraps the same
        # functions; their time, scaled as a whole, serves only the tracing
        # overhead.
        timers = () if self.tracer else (self.splits.timing(self.gauge),)
        self.gauge.start()
        code, wall = self._cli(["run", self.cfg_path, "--output-dir", run_dir,
                                "--no-env"], *timers)
        wall = wall * self.gauge.factor() if self.tracer else self.splits.scaled_s
        if code != 0:
            return Round(WALK_STEPS, wall, WALK_STEPS, [f"run exited {code}"], "")
        res = self._check_and_replay(run_dir, WALK_STEPS, "walk")
        if self.splits.mismatch:
            res.failures.append("rk4_step call count differs between rounds")
            res.failed = WALK_STEPS
        return Round(WALK_STEPS, wall, res.failed, res.failures,
                     digest(file_bytes(os.path.join(run_dir, "trace.csv"))))


class SweepUmax(Workload):
    def setup(self) -> None:
        self.cfg.sim.n_steps = SWEEP_STEPS
        self.cfg_path = os.path.join(self.out, "scenario.json")
        self.tb.config.save_config(self.cfg, self.cfg_path)
        self.levels = [float(v) for v in self.tb.cli.build_parser().parse_args(
            ["sweep"]).u_max.split(",")]
        self.round_s: list[float] = []  # each round's wall time at nominal speed

    def steps_per_s(self) -> float:
        """Gait cycles per second of the median round at nominal speed."""
        return SWEEP_STEPS * len(self.levels) / statistics.median(self.round_s)

    def round(self) -> Round:
        sweep_dir = os.path.join(self.out, "sweep")
        ops = SWEEP_STEPS * len(self.levels)
        self.gauge.start()
        code, wall = self._cli(["sweep", "--config", self.cfg_path,
                                "--output-dir", sweep_dir, "--no-env"])
        wall *= self.gauge.factor()
        if not self.tracer:
            self.round_s.append(wall)
        if code != 0:
            return Round(ops, wall, ops, [f"sweep exited {code}"], "")
        with open(os.path.join(sweep_dir, "sweep_summary.csv"), newline="",
                  encoding="utf-8") as fh:
            summary = list(csv.DictReader(fh))
        failures, failed, caps_y, blobs = [], 0, [], []
        for entry in summary:
            res = self._check_and_replay(entry["out_dir"], SWEEP_STEPS, entry["u_max"])
            failed += res.failed
            failures += res.failures
            caps_y.append((float(entry["u_max"]), res.max_y))
            blobs.append(file_bytes(os.path.join(entry["out_dir"], "trace.csv")))
        sweep_fail = checks.check_sweep(caps_y)
        if sorted(float(e["u_max"]) for e in summary) != sorted(self.levels):
            sweep_fail.append("sweep: summary levels differ from the CLI default")
        if sweep_fail:
            failures += sweep_fail
            failed = ops
        return Round(ops, wall, failed, failures, digest(*blobs))


class DsRecovery(Workload):
    def setup(self) -> None:
        tb, cfg = self.tb, self.cfg
        self.params = cfg.model.to_params()
        rng = np.random.default_rng(self.seed)
        pre = np.array(PRE_IMPACT)
        self.inputs = []
        for _ in range(DS_INPUTS):
            x = pre.copy()
            x[3:] *= rng.uniform(1.0 - RATE_SPREAD, 1.0 + RATE_SPREAD, size=3)
            self.inputs.append(x)
        self.controller = make_controller(tb, cfg)
        self.step_s = Repeats()
        scenario = tb.config.config_to_dict(cfg)
        self.geo = checks.Geometry.from_model(scenario["model"])
        self.lim = checks.Limits.from_scenario(scenario)

    def _phase(self, i: int):
        """One recovery; returns its outputs and its time at nominal speed."""
        x = self.inputs[i]
        tb, params = self.tb, self.params
        t0 = perf_counter()
        q_e, dq_e = tb.dynamics.extend_pinned_state(x[:3], x[3:], np.zeros(2), params)
        imp = tb.events.impact_map(q_e, dq_e, params)
        q_p, dq_p = tb.events.relabel(q_e, imp.dq_e_plus)
        stance_x = tb.dynamics.swing_foot_pinned(x[:3], params)[0]
        x_d0 = np.concatenate([q_p, dq_p])
        self.controller.reset(x_d0, ds_target(tb, self.cfg, stance_x))
        prep = perf_counter() - t0
        (trace, _), dt, scale = self.timer.run(
            tb.nmpc.simulate_ds, i, x_d0, self.controller, self.cfg.sim.ds_envelope,
            self.cfg.sim.dt_ds, params, T_s=self.cfg.nmpc.T_s)
        self.step_s.add(i, (prep + dt) * scale)
        return q_p, dq_p, trace, (prep + dt) * scale

    def steps_per_s(self) -> float:
        """Recoveries per second at nominal speed, each input at its median
        over the rounds."""
        return len(self.step_s) / sum(self.step_s.medians())

    def _check(self, x, q_p, dq_p, trace) -> list[str]:
        leg = self.geo.l
        pre = dict(zip(("q1", "q2", "q3", "dq1", "dq2", "dq3"), x))
        pre["dph_x"] = -leg * np.cos(x[0]) * x[3]
        pre["dph_y"] = -leg * np.sin(x[0]) * x[3]
        post = dict(zip(X_COLUMNS[:3] + X_COLUMNS[5:], np.concatenate([q_p[:3], dq_p])))
        out = checks.check_impact(pre, post, self.geo)
        rows = {"t": trace.t, "phase": np.full(trace.t.shape[0], "DS")}
        for names, arr in ((X_COLUMNS, trace.x), (("u2", "u3", "F_th"), trace.eta),
                           (("lamT1", "lamN1", "lamT2", "lamN2"), trace.lam)):
            rows.update(zip(names, arr.T))
        out += checks.check_ds_block(rows, self.geo, self.lim)
        if any(s[1] != "optimal" for s in trace.statuses):
            out.append("ds: NMPC fallback")
        if trace.contact_violation:
            out.append("ds: contact violation flagged")
        return out

    def round(self) -> Round:
        failures, failed, blobs = [], 0, []
        self.gauge.start()
        with self._traced():
            results = [self._phase(i) for i in range(len(self.inputs))]
        self._mark_peak()
        wall = sum(r[3] for r in results)
        for i, (x, (q_p, dq_p, trace, _)) in enumerate(zip(self.inputs, results)):
            msgs = self._check(x, q_p, dq_p, trace)
            if msgs:
                failed += 1
                failures += [f"ds input {i}: {m}" for m in msgs]
            blobs += [a.tobytes() for a in (dq_p, trace.x, trace.lam, trace.eta)]
        return Round(len(self.inputs), wall, failed, failures, digest(*blobs))


KINDS = {"walk_default": WalkDefault, "ds_recovery": DsRecovery,
         "sweep_umax": SweepUmax}


# -- per-layer metrics --------------------------------------------------------

def _hooks():
    """Counters read from results; each hook gets (result, open span keys, counters)."""
    def locate(res, stack, c):
        c["bisection_iters"] += res.iterations

    def integrate(res, stack, c):
        c["ss_events"] += res.event is not None

    def qp(res, stack, c):
        c["qp_iterations"] += res.iterations
        c["qp_active"] += len(res.active)

    def nmpc(res, stack, c):
        c["fallbacks"] += res.status != "optimal"

    def simulate(res, stack, c):
        c["ds_substeps"] += res[0].t.shape[0] - 1

    def ds_rhs(res, stack, c):
        if "nmpc.simulate_ds" in stack and "nmpc.solve_nmpc" not in stack:
            c["ds_rhs_outside"] += 1

    def run_walk(res, stack, c):
        c["trace_rows"] += len(res.rows)

    return {
        "events.locate_event": locate,
        "integrate.integrate_rk4": integrate,
        "qp.solve_qp": qp,
        "nmpc.solve_nmpc": nmpc,
        "nmpc.simulate_ds": simulate,
        "nmpc.ds_rhs": ds_rhs,
        "harness.run_walk": run_walk,
    }


def layer_metrics(tracer, n_rounds: int, default_scenario_s: float,
                  overhead_s: float, overhead_pct: float) -> dict:
    """Per-layer metrics; counts and self times are per traced round."""
    stats, ctr = tracer.merged()

    def calls(key):
        s = stats.get(key)
        return len(s.durations) if s else 0

    def med(key, scale):
        s = stats.get(key)
        return statistics.median(s.durations) * scale if s else 0.0

    def self_s(layer):
        return sum(s.self_s for k, s in stats.items()
                   if k.startswith(layer + ".")) / n_rounds

    def ratio(a, b):
        return a / b if b else 0.0

    n = n_rounds
    us, ms = 1e6, 1e3
    m = {
        "erg.field_calls": (calls("erg.SsController.field") / n, "count"),
        "erg.field_us": (med("erg.SsController.field", us), "us"),
        "erg.sample_calls": (calls("erg.SsController.sample") / n, "count"),
        "erg.sample_us": (med("erg.SsController.sample", us), "us"),
        "erg.sample_per_field": (ratio(calls("erg.SsController.sample"),
                                       calls("erg.SsController.field")), "ratio"),
        "erg.constraint_data_us": (med("erg.constraint_data", us), "us"),
        "erg.gamma_bound_us": (med("erg.gamma_bound", us), "us"),
        "erg.partitioned_torque_us": (med("erg.partitioned_torque", us), "us"),
        "erg.self_s": (self_s("erg"), "s"),
        "gait.output_data_calls": (calls("gait.output_data") / n, "count"),
        "gait.output_data_us": (med("gait.output_data", us), "us"),
        "gait.bezier_eval_us": (med("gait.bezier_eval", us), "us"),
        "gait.self_s": (self_s("gait"), "s"),
        "dynamics.ss_dynamics_calls": (calls("dynamics.ss_dynamics") / n, "count"),
        "dynamics.ss_dynamics_us": (med("dynamics.ss_dynamics", us), "us"),
        "dynamics.ss_contact_force_us": (med("dynamics.ss_contact_force", us), "us"),
        "dynamics.self_s": (self_s("dynamics"), "s"),
        "integrate.rk4_steps": (calls("integrate.rk4_step") / n, "count"),
        "integrate.self_s": (self_s("integrate"), "s"),
        "events.locate_event_calls": (calls("events.locate_event") / n, "count"),
        "events.grazing_skips": (
            (calls("events.locate_event") - ctr["ss_events"]) / n, "count"),
        "events.bisection_iters": (ctr["bisection_iters"] / n, "count"),
        "events.impact_map_us": (med("events.impact_map", us), "us"),
        "nmpc.controller_calls": (calls("nmpc.NmpcController.__call__") / n, "count"),
        "nmpc.solve_nmpc_ms": (med("nmpc.solve_nmpc", ms), "ms"),
        "nmpc.linearize_ds_ms": (med("nmpc.linearize_ds", ms), "ms"),
        "nmpc.linearize_forces_ms": (med("nmpc.linearize_forces", ms), "ms"),
        "nmpc.ds_affine_maps_calls": (calls("nmpc.ds_affine_maps") / n, "count"),
        "nmpc.fallbacks": (ctr["fallbacks"] / n, "count"),
        "nmpc.self_s": (self_s("nmpc"), "s"),
        "nmpc.ds_rhs_calls": (calls("nmpc.ds_rhs") / n, "count"),
        "nmpc.ds_rhs_us": (med("nmpc.ds_rhs", us), "us"),
        "nmpc.kkt_per_substep": (ratio(ctr["ds_rhs_outside"],
                                       ctr["ds_substeps"]), "ratio"),
        "qp.solve_qp_calls": (calls("qp.solve_qp") / n, "count"),
        "qp.solve_qp_ms": (med("qp.solve_qp", ms), "ms"),
        "qp.iterations": (ctr["qp_iterations"] / n, "count"),
        "qp.iterations_per_solve": (ratio(ctr["qp_iterations"],
                                          calls("qp.solve_qp")), "ratio"),
        "qp.active_rows": (ratio(ctr["qp_active"], calls("qp.solve_qp")),
                           "count"),
        "qp.self_s": (self_s("qp"), "s"),
        "harness.write_logs_s": (med("harness.write_logs", 1.0), "s"),
        "harness.trace_rows": (ctr["trace_rows"] / n, "count"),
        "harness.self_s": (self_s("harness"), "s"),
        "cli.self_s": (self_s("cli"), "s"),
        "config.default_scenario_s": (default_scenario_s, "s"),
        "bench.trace_overhead_s": (overhead_s, "s"),
        "bench.trace_overhead_pct": (overhead_pct, "%"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


# -- command line -------------------------------------------------------------

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(KINDS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_package() -> argparse.Namespace:
    """The checkout's layer modules by short name.

    ImportError when the package is absent from the checkout's ``src``; an
    installed copy elsewhere is not benchmarked."""
    tb = argparse.Namespace(**{
        name: importlib.import_module(f"thrusterbiped.{name}") for name in LAYERS})
    if not os.path.abspath(tb.config.__file__).startswith(SRC + os.sep):
        raise ImportError(f"thrusterbiped loaded from outside {SRC}")
    return tb


def make_workload(tb, name: str, seed: int, out_dir: str):
    """Build the scenario and the workload's inputs; returns the workload and
    the time `default_scenario` took."""
    t0 = perf_counter()
    cfg = tb.config.default_scenario()
    default_scenario_s = perf_counter() - t0
    cfg.sim.seed = seed
    workload = KINDS[name](tb, cfg, out_dir, seed)
    workload.setup()
    return workload, default_scenario_s


def main(argv=None) -> int:
    args = parse_args(argv)
    # The set-up is one cold stretch: the reference is measured once before
    # the package loads and once after the inputs are made, and the first
    # measurement's own time is taken out of the set-up time.
    t0 = perf_counter()
    ref_before = reference.seconds(repeats=5)
    ref_s = perf_counter() - t0
    try:
        tb = load_package()
    except ImportError as exc:
        sys.stderr.write(f"cannot import the thrusterbiped package: {exc}\n")
        return 2
    out_dir = os.path.join(HERE, "out", args.workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    workload, default_scenario_s = make_workload(tb, args.workload, args.seed, out_dir)
    setup_raw_s = process_age() - ref_s
    setup_s = setup_raw_s * 2.0 * reference.NOMINAL_S / (
        ref_before + reference.seconds(repeats=5))

    tracer = Tracer(_hooks()) if args.trace else None
    plain: list[Round] = []
    traced: list[Round] = []
    t_start = perf_counter()
    while perf_counter() - t_start < args.seconds or (tracer and not traced):
        plain.append(workload.round())
        if tracer is not None:
            workload.tracer = tracer
            traced.append(workload.round())
            workload.tracer = None

    rounds = plain + traced
    attempted = sum(r.ops for r in rounds)
    failed = sum(r.failed for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    digests = {r.digest for r in rounds}
    if len(digests) != 1:
        failures.append("outputs differ between rounds (traced vs untraced)")
    for msg in failures[:20]:
        sys.stderr.write(f"check failed: {msg}\n")
    refs = workload.gauge.refs
    sys.stderr.write(f"reference work: median {statistics.median(refs) * 1e3:.3f} ms over "
                     f"{len(refs)} measurements (nominal {reference.NOMINAL_S * 1e3:.3f} ms); "
                     f"unscaled setup {setup_raw_s:.4f} s\n")
    correct = not failures

    if tracer is None:
        control = workload.timer.call_ms.medians()
        metrics = {
            "setup_s": (setup_s, "s"),
            "steps_per_s": (workload.steps_per_s(), "1/s"),
            "ds_phases_per_s": (len(workload.timer.phase_s)
                                / sum(workload.timer.phase_s.medians()), "1/s"),
            "control_ms_p50": (statistics.median(control), "ms"),
            "control_ms_p95": (statistics.quantiles(control, n=20,
                                                    method="inclusive")[18], "ms"),
            "peak_rss_mb": (workload.peak_rss_mb, "MB"),
        }
        metrics = {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}
    else:
        wall_plain = statistics.median(r.wall for r in plain)
        wall_traced = statistics.median(r.wall for r in traced)
        metrics = layer_metrics(tracer, len(traced), default_scenario_s,
                                wall_traced - wall_plain,
                                100.0 * (wall_traced / wall_plain - 1.0))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
