"""Planar three-link biped walking with thruster-assisted double support.

Layers, bottom to top: rigid-body dynamics and contact kinematics
(`dynamics`), hybrid transitions (`events`), gait parameterization (`gait`),
the governed single-support tracking controller (`erg`), the double-support
predictive controller (`nmpc`) on top of a dense QP solver (`qp`), and the
simulation harness with config, logging, and CLI (`harness`, `config`,
`cli`).
"""

from .config import ScenarioConfig, default_scenario, load_config, save_config
from .dynamics import (
    DynTerms,
    contact_kinematics,
    energies,
    ext_dynamics,
    ss_contact_force,
    ss_dynamics,
)
from .erg import SsController
from .errors import (
    BipedError,
    ConfigError,
    DecouplingSingularityError,
    EventLocationError,
    GaitDesignError,
    NumericalFailureError,
    SingularContactError,
    SingularDynamicsError,
    SingularImpactError,
)
from .events import impact_map, relabel, touchdown_guard
from .gait import GaitDesignSpec, GaitParams, design_gait, zero_dynamics_residual
from .harness import GaitLog, run_walk, step_metrics, write_logs
from .nmpc import NmpcController, NmpcProblem, simulate_ds, solve_nmpc
from .params import ModelParams
from .qp import solve_qp

__version__ = "0.1.0"

__all__ = [
    "BipedError",
    "ConfigError",
    "DecouplingSingularityError",
    "DynTerms",
    "EventLocationError",
    "GaitDesignError",
    "GaitDesignSpec",
    "GaitLog",
    "GaitParams",
    "ModelParams",
    "NmpcController",
    "NmpcProblem",
    "NumericalFailureError",
    "ScenarioConfig",
    "SingularContactError",
    "SingularDynamicsError",
    "SingularImpactError",
    "SsController",
    "contact_kinematics",
    "default_scenario",
    "design_gait",
    "energies",
    "ext_dynamics",
    "impact_map",
    "load_config",
    "relabel",
    "run_walk",
    "save_config",
    "simulate_ds",
    "solve_nmpc",
    "solve_qp",
    "ss_contact_force",
    "ss_dynamics",
    "step_metrics",
    "touchdown_guard",
    "write_logs",
    "zero_dynamics_residual",
]
