"""Scenario configuration: strict schema, JSON serialization, env overrides.

A scenario file must spell out every key (no silent defaults on load);
`default_scenario()` is the one source of shipped defaults and `save_config`
always writes the complete tree, so round-trips are exact.  The `model`
section is `params.ModelParams` itself; the other sections are the
dataclasses below.  `validate()` checks the whole tree, gait and model
included, and reports every problem as `ConfigError`.  Environment
variables with the ``BIPED_`` prefix override single keys for CI use:
``BIPED_SIM__N_STEPS=3`` maps to ``sim.n_steps``; values parse as JSON with a
plain-string fallback.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from dataclasses import dataclass, field
from math import inf, isfinite

import numpy as np

from .errors import ConfigError
from .gait import GaitParams
from .params import ModelParams

SCHEMA_VERSION = 1
ENV_PREFIX = "BIPED_"
# limits that +inf leaves open, as non-binding rows; every other number of a
# scenario must be finite
OPEN_LIMITS = ("gait.u_max", "gait.x_max", "nmpc.angle_max", "nmpc.rate_max",
               "nmpc.hip_box", "model.f_th_max")


@dataclass
class GaitConfig:
    bezier: list = field(default_factory=list)   # 2 rows x 6 control points
    theta_plus: float = 0.0
    theta_minus: float = 0.0
    kp: list = field(default_factory=lambda: [100.0, 100.0])
    kd: list = field(default_factory=lambda: [12.0, 12.0])
    u_max: list = field(default_factory=lambda: [3.0, 3.0])
    x_max: list = field(default_factory=lambda: [1.2, 1.2, 10.0, 10.0])
    q3dot_start: float = -0.5

    def to_gait(self) -> GaitParams:
        return GaitParams(
            bezier=np.asarray(self.bezier, dtype=float),
            theta_plus=float(self.theta_plus),
            theta_minus=float(self.theta_minus),
            kp=np.asarray(self.kp, dtype=float),
            kd=np.asarray(self.kd, dtype=float),
            u_max=np.asarray(self.u_max, dtype=float),
            x_max=np.asarray(self.x_max, dtype=float),
            q3dot_start=float(self.q3dot_start),
        )

    @classmethod
    def from_gait(cls, gait: GaitParams) -> GaitConfig:
        """Plain-list copy of a designed gait, as a scenario file stores it."""
        return cls(
            bezier=[[float(v) for v in row] for row in gait.bezier],
            theta_plus=float(gait.theta_plus),
            theta_minus=float(gait.theta_minus),
            kp=[float(v) for v in gait.kp],
            kd=[float(v) for v in gait.kd],
            u_max=[float(v) for v in gait.u_max],
            x_max=[float(v) for v in gait.x_max],
            q3dot_start=float(gait.q3dot_start),
        )


@dataclass
class ErgConfig:
    kappa: float = 100.0
    rate_cap: float = 50.0
    sign_eps: float = 0.01
    enabled: bool = True


@dataclass
class NmpcConfig:
    T_s: float = 1e-3
    # torso rate gets the heavy weight: the DS brake must hand the next step
    # a torso rate near its designed start value
    w_x: list = field(default_factory=lambda: [0.0, 10.0, 10.0, 0.0, 0.0,
                                               1.0, 1.0, 10.0, 1.0, 1.0])
    w_eta: list = field(default_factory=lambda: [1e-3, 1e-3, 1e-4])
    eps_normal: float = 0.1
    angle_max: float = 1.2
    rate_max: float = 10.0
    hip_box: float = 1.0
    thrust_enabled: bool = True


@dataclass
class SimConfig:
    dt_ss: float = 2e-4
    dt_ds: float = 1e-4
    n_steps: int = 10
    ds_envelope: float = 0.02
    mu_s: float = 0.3


@dataclass
class IoConfig:
    output_dir: str = "out"
    log_decimation: int = 1


@dataclass
class ScenarioConfig:
    schema_version: int = SCHEMA_VERSION
    model: ModelParams = field(default_factory=ModelParams)
    gait: GaitConfig = field(default_factory=GaitConfig)
    erg: ErgConfig = field(default_factory=ErgConfig)
    nmpc: NmpcConfig = field(default_factory=NmpcConfig)
    sim: SimConfig = field(default_factory=SimConfig)
    io: IoConfig = field(default_factory=IoConfig)

    def validate(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version}")
        for name, value in _numbers(config_to_dict(self)):
            if not (isfinite(value) or (value == inf and name in OPEN_LIMITS)):
                raise ConfigError(f"{name} must be finite"
                                  + (" or +inf" if name in OPEN_LIMITS else ""))
        for name, vec, n in (
            ("gait.kp", self.gait.kp, 2), ("gait.kd", self.gait.kd, 2),
            ("gait.u_max", self.gait.u_max, 2), ("gait.x_max", self.gait.x_max, 4),
            ("nmpc.w_x", self.nmpc.w_x, 10), ("nmpc.w_eta", self.nmpc.w_eta, 3),
        ):
            if len(vec) != n:
                raise ConfigError(f"{name} must have {n} entries")
        for failed, problem in (
            (min(self.nmpc.w_x) < 0.0, "nmpc.w_x entries must be nonnegative"),
            (min(self.nmpc.w_eta) <= 0.0, "nmpc.w_eta entries must be positive"),
            (self.erg.sign_eps <= 0.0, "erg.sign_eps must be positive"),
            (self.erg.kappa <= 0.0, "erg.kappa must be positive"),
            (self.erg.rate_cap <= 0.0, "erg.rate_cap must be positive"),
            (min(self.nmpc.angle_max, self.nmpc.rate_max, self.nmpc.hip_box) <= 0.0,
             "nmpc.angle_max, nmpc.rate_max and nmpc.hip_box must be positive"),
            (self.nmpc.eps_normal < 0.0, "nmpc.eps_normal must be nonnegative"),
            (self.sim.mu_s <= 0.0, "sim.mu_s must be positive"),
            (self.sim.dt_ss <= 0.0 or self.sim.dt_ds <= 0.0,
             "integration steps must be positive"),
            (self.sim.n_steps < 0, "sim.n_steps must be nonnegative"),
            (self.sim.ds_envelope <= 0.0, "sim.ds_envelope must be positive"),
            (self.nmpc.T_s <= 0.0, "nmpc.T_s must be positive"),
            (self.io.log_decimation < 1, "io.log_decimation must be >= 1"),
        ):
            if failed:
                raise ConfigError(problem)
        for name, check in (("model", self.model.validate),
                            ("gait", self.gait.to_gait)):
            try:
                check()
            except ValueError as exc:
                raise ConfigError(f"{name}: {exc}") from exc


_SECTION_TYPES = {
    "model": ModelParams, "gait": GaitConfig, "erg": ErgConfig,
    "nmpc": NmpcConfig, "sim": SimConfig, "io": IoConfig,
}


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return dataclasses.asdict(cfg)


def _numbers(value, name: str = ""):
    """(dotted field name, number) for every number in a config dict."""
    if isinstance(value, dict):
        for key, v in value.items():
            yield from _numbers(v, f"{name}.{key}" if name else key)
    elif isinstance(value, list):
        for v in value:
            yield from _numbers(v, name)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield name, value


def _has_json_type(value, type_name: str) -> bool:
    """Whether a JSON value fits a field declared as ``type_name``.

    An int fits a float; a bool is never a number; a list holds numbers or
    lists of them.  `ScenarioConfig.validate` checks that numbers are finite.
    """
    if type_name == "list":
        return isinstance(value, list) and all(
            _has_json_type(v, "float") or _has_json_type(v, "list") for v in value)
    if isinstance(value, bool):
        return type_name == "bool"
    return isinstance(value, {"float": (int, float), "int": int, "str": str,
                              "bool": bool}[type_name])


def _build_section(cls, data: dict, where: str):
    names = [f.name for f in dataclasses.fields(cls)]
    unknown = sorted(set(data) - set(names))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(set(names) - set(data))
    if missing:
        raise ConfigError(f"missing keys in {where}: "
                          + ", ".join(f"{where}.{k}" for k in missing))
    kwargs = {}
    for f in dataclasses.fields(cls):
        value = data[f.name]
        if not _has_json_type(value, f.type):
            raise ConfigError(f"{where}.{f.name} must be of type {f.type}")
        if f.type == "float":
            value = float(value)
        kwargs[f.name] = value
    return cls(**kwargs)


def dict_to_config(data: dict) -> ScenarioConfig:
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be a mapping")
    unknown = sorted(set(data) - set(_SECTION_TYPES) - {"schema_version"})
    if unknown:
        raise ConfigError(f"unknown top-level keys: {', '.join(unknown)}")
    if "schema_version" not in data:
        raise ConfigError("missing keys in config: schema_version")
    missing = sorted(set(_SECTION_TYPES) - set(data))
    if missing:
        raise ConfigError(f"missing keys in config: {', '.join(missing)}")
    sections = {}
    for name, cls in _SECTION_TYPES.items():
        if not isinstance(data[name], dict):
            raise ConfigError(f"section {name} must be a mapping")
        sections[name] = _build_section(cls, data[name], name)
    cfg = ScenarioConfig(schema_version=int(data["schema_version"]), **sections)
    cfg.validate()
    return cfg


def apply_env_overrides(data: dict, environ=None) -> dict:
    environ = os.environ if environ is None else environ
    for key, raw in sorted(environ.items()):
        if not key.startswith(ENV_PREFIX):
            continue
        path = key[len(ENV_PREFIX):].lower()
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        if "__" in path:
            section, leaf = path.split("__", 1)
            if section not in _SECTION_TYPES:
                raise ConfigError(f"env override {key}: unknown section {section}")
            if not isinstance(data.get(section), dict):
                raise ConfigError(f"env override {key}: section missing in config")
            data[section][leaf] = value
        else:
            data[path] = value
    return data


def load_config(path: str, apply_env: bool = True) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if apply_env:
        data = apply_env_overrides(data)
    return dict_to_config(data)


def _write_lines(path: str, lines) -> None:
    """Stream the strings of ``lines`` into ``path``, all or nothing.

    They go to ``path + ".tmp"``, renamed to ``path`` once complete and
    removed on any failure, which leaves ``path`` untouched.
    """
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def save_config(cfg: ScenarioConfig, path: str) -> None:
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(config_to_dict(cfg))
    _write_lines(path, itertools.chain(chunks, ["\n"]))


def default_scenario() -> ScenarioConfig:
    """Shipped tuning: default model parameters and the default gait design.

    No scenario file ships with the package; write one with `save_config`.
    """
    from .gait import GaitDesignSpec, design_gait

    model = ModelParams()
    gait = design_gait(GaitDesignSpec(), model.to_params())
    cfg = ScenarioConfig(model=model, gait=GaitConfig.from_gait(gait))
    cfg.validate()
    return cfg
