import dataclasses

import numpy as np
import pytest

from thrusterbiped.config import default_scenario
from thrusterbiped.gait import GaitDesignSpec, design_gait
from thrusterbiped.harness import run_walk
from thrusterbiped.params import ModelParams


@pytest.fixture(scope="session")
def params():
    return ModelParams()


@pytest.fixture(scope="session")
def gait(params):
    return design_gait(GaitDesignSpec(), params)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


@pytest.fixture(scope="session")
def default_cfg():
    return default_scenario()


@pytest.fixture(scope="session")
def one_step_log(default_cfg):
    """One full gait cycle; shared by tests that only inspect logged samples."""
    cfg = dataclasses.replace(
        default_cfg, sim=dataclasses.replace(default_cfg.sim, n_steps=1))
    log = run_walk(cfg)
    assert log.completed_steps == 1, log.aborted
    return log


def random_pinned_state(rng, angle=0.5, rate=1.0):
    q = rng.uniform(-angle, angle, size=3)
    dq = rng.uniform(-rate, rate, size=3)
    return q, dq


def random_extended_state(rng, angle=0.5, rate=1.0):
    q_e = np.concatenate([
        rng.uniform(-angle, angle, size=3),
        rng.uniform(-1.0, 1.0, size=2),
    ])
    dq_e = np.concatenate([
        rng.uniform(-rate, rate, size=3),
        rng.uniform(-rate, rate, size=2),
    ])
    return q_e, dq_e
