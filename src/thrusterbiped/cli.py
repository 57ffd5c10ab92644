"""Command-line entry points.

Subcommands: `run` executes a scenario; `design-gait` synthesizes Bezier
coefficients from boundary data and prints a config fragment; `sweep` reruns
a scenario over a list of torque limits; `validate` loads and checks a config
without simulating.  Exit codes: 0 ok, 2 config error, 3 fall or abort,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import os
import sys

import numpy as np

from .config import GaitConfig, ScenarioConfig, _write_lines, default_scenario, load_config
from .errors import (
    BipedError,
    ConfigError,
    EventLocationError,
    GaitDesignError,
    NumericalFailureError,
)
from .gait import GaitDesignSpec, design_gait
from .harness import max_tracking_error, run_walk, summary_text, write_logs

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ABORT = 3
EXIT_NUMERICAL = 4


def _run_one(cfg: ScenarioConfig, out_dir: str, emit_plots: bool) -> tuple[int, str]:
    log = run_walk(cfg)
    write_logs(log, out_dir, cfg)
    if emit_plots:
        from .plots import emit_run_plots

        emit_run_plots(log, out_dir)
    text = summary_text(log)
    if log.aborted is not None:
        return EXIT_ABORT, text
    return EXIT_OK, text


def cmd_run(args) -> int:
    cfg = load_config(args.config, apply_env=not args.no_env)
    out_dir = args.output_dir or cfg.io.output_dir
    code, text = _run_one(cfg, out_dir, args.emit_plots)
    sys.stdout.write(text)
    sys.stdout.write(f"outputs: {out_dir}\n")
    return code


def cmd_design_gait(args) -> int:
    spec = GaitDesignSpec(
        step_length=args.step_length,
        step_duration=args.step_duration,
        torso_lean=args.torso_lean,
        impact_q2dot=args.impact_q2dot,
        impact_q3dot=args.impact_q3dot,
        impact_theta_dot=args.impact_theta_dot,
        q3dot_start=args.q3dot_start,
    )
    cfg = default_scenario()
    params = cfg.model.to_params()
    gait = design_gait(spec, params)
    fragment = {"gait": dataclasses.asdict(GaitConfig.from_gait(gait))}
    text = json.dumps(fragment, indent=2, sort_keys=True) + "\n"
    if args.out:
        _write_lines(args.out, [text])
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _sweep_dir(level: float) -> str:
    return f"umax_{level:g}"


def _parse_levels(text: str) -> list[float]:
    """Torque caps from a comma-separated list; each needs its own directory."""
    try:
        levels = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"--u-max: {exc}") from exc
    if not levels:
        raise ConfigError("sweep needs at least one u_max level")
    dirs = [_sweep_dir(lv) for lv in levels]
    dup = sorted({d for d in dirs if dirs.count(d) > 1})
    if dup:
        raise ConfigError(f"--u-max levels repeat: {', '.join(dup)}")
    return levels


def _level_config(cfg: ScenarioConfig, level: float) -> ScenarioConfig:
    """``cfg`` with both torque caps at ``level``, checked like a loaded config."""
    sub = copy.deepcopy(cfg)
    sub.gait.u_max = [level, level]
    sub.validate()
    return sub


def _sweep_level(sub: ScenarioConfig, level: float, out_root: str):
    out_dir = os.path.join(out_root, _sweep_dir(level))
    log = run_walk(sub)
    write_logs(log, out_dir, sub)
    max_u = 0.0
    for col in ("u2", "u3"):
        vals = np.abs(log.column(col, "SS"))
        if vals.size:
            max_u = max(max_u, float(vals.max()))
    return {
        "u_max": level,
        "completed_steps": log.completed_steps,
        "aborted": log.aborted or "",
        "max_abs_u": max_u,
        "max_tracking_error": max_tracking_error(log),
        "out_dir": out_dir,
    }


def cmd_sweep(args) -> int:
    levels = _parse_levels(args.u_max)
    cfg = load_config(args.config, apply_env=not args.no_env) if args.config \
        else default_scenario()
    # every level is checked before the first one runs
    subs = [_level_config(cfg, lv) for lv in levels]
    out_root = args.output_dir or os.path.join(cfg.io.output_dir, "sweep")
    os.makedirs(out_root, exist_ok=True)
    results = [_sweep_level(sub, lv, out_root) for sub, lv in zip(subs, levels)]

    cols = ["u_max", "completed_steps", "aborted", "max_abs_u",
            "max_tracking_error", "out_dir"]
    path = os.path.join(out_root, "sweep_summary.csv")
    lines = [",".join(cols) + "\n"]
    lines += [",".join(str(entry[c]) for c in cols) + "\n" for entry in results]
    _write_lines(path, lines)
    for entry in results:
        sys.stdout.write(
            f"u_max={entry['u_max']:g}: steps={entry['completed_steps']} "
            f"max|u|={entry['max_abs_u']:.4f} "
            f"max||y||={entry['max_tracking_error']:.5f} "
            f"{entry['aborted']}\n")
    sys.stdout.write(f"summary: {path}\n")
    bad = [e for e in results if e["aborted"]]
    return EXIT_ABORT if bad else EXIT_OK


def cmd_validate(args) -> int:
    load_config(args.config, apply_env=not args.no_env)
    sys.stdout.write("config ok\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thrusterbiped",
        description="Thruster-assisted planar biped walking simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--output-dir", default=None)
    p_run.add_argument("--emit-plots", action="store_true")
    p_run.add_argument("--no-env", action="store_true",
                       help="ignore BIPED_* environment overrides")
    p_run.set_defaults(func=cmd_run)

    dflt = GaitDesignSpec()
    p_dg = sub.add_parser("design-gait", help="emit gait coefficients")
    p_dg.add_argument("--step-length", type=float, default=dflt.step_length)
    p_dg.add_argument("--step-duration", type=float, default=dflt.step_duration)
    p_dg.add_argument("--torso-lean", type=float, default=dflt.torso_lean)
    p_dg.add_argument("--impact-q2dot", type=float, default=dflt.impact_q2dot)
    p_dg.add_argument("--impact-q3dot", type=float, default=dflt.impact_q3dot)
    p_dg.add_argument("--impact-theta-dot", type=float,
                      default=dflt.impact_theta_dot)
    p_dg.add_argument("--q3dot-start", type=float, default=dflt.q3dot_start)
    p_dg.add_argument("--out", default=None)
    p_dg.set_defaults(func=cmd_design_gait)

    p_sw = sub.add_parser("sweep", help="rerun over torque-limit levels")
    p_sw.add_argument("--u-max", default="3.0,1.4,1.2",
                      help="comma-separated torque limits "
                           "(default: generous, moderate, conservative)")
    p_sw.add_argument("--config", default=None)
    p_sw.add_argument("--output-dir", default=None)
    p_sw.add_argument("--no-env", action="store_true")
    p_sw.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config")
    p_val.add_argument("--no-env", action="store_true")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, GaitDesignError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (NumericalFailureError, EventLocationError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except BipedError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ABORT


if __name__ == "__main__":
    sys.exit(main())
