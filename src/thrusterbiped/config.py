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
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .gait import GaitParams
from .params import ModelParams

SCHEMA_VERSION = 1
ENV_PREFIX = "BIPED_"


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
        bez = np.asarray(self.gait.bezier, dtype=float)
        if bez.shape != (2, 6):
            raise ConfigError("gait.bezier must be a 2x6 table")
        for name, vec, n in (
            ("gait.kp", self.gait.kp, 2), ("gait.kd", self.gait.kd, 2),
            ("gait.u_max", self.gait.u_max, 2), ("gait.x_max", self.gait.x_max, 4),
            ("nmpc.w_x", self.nmpc.w_x, 10), ("nmpc.w_eta", self.nmpc.w_eta, 3),
        ):
            if len(vec) != n:
                raise ConfigError(f"{name} must have {n} entries")
        if self.sim.dt_ss <= 0.0 or self.sim.dt_ds <= 0.0:
            raise ConfigError("integration steps must be positive")
        if self.sim.n_steps < 0:
            raise ConfigError("sim.n_steps must be nonnegative")
        if self.sim.ds_envelope <= 0.0:
            raise ConfigError("sim.ds_envelope must be positive")
        if self.nmpc.T_s <= 0.0:
            raise ConfigError("nmpc.T_s must be positive")
        if self.io.log_decimation < 1:
            raise ConfigError("io.log_decimation must be >= 1")
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
        if f.type == "float" and isinstance(value, int) and not isinstance(value, bool):
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


def save_config(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


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
