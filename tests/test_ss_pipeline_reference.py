"""The single-support control pipeline against values stored from an earlier version.

``data/ss_pipeline_reference.csv`` holds 300 single-support states z = (q, dq, w):
200 nodes of the 1-step default walk and 100 seeded random states.  For each
it stores what ``SsController`` returned there before the pipeline moved onto
Python floats: the field, the clipped and raw torques, V and Gamma.  Floats
are written by ``repr``, so they read back exactly, and the current pipeline
must reproduce every one of them bit for bit.

To rewrite the file from the current code (only when a change of behaviour is
intended):  PYTHONPATH=src python tests/test_ss_pipeline_reference.py
"""

import csv
import dataclasses
import os

import numpy as np
import pytest

from thrusterbiped.erg import SsController
from thrusterbiped.errors import DecouplingSingularityError
from thrusterbiped.harness import TRACE_COLUMNS

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                         "ss_pipeline_reference.csv")
WALK_NODES = 200
RANDOM_STATES = 100
SEED = 10
Z = ["q1", "q2", "q3", "dq1", "dq2", "dq3", "w1", "w2"]
VALUES = ([f"field{i}" for i in range(8)]
          + ["u2", "u3", "u_raw2", "u_raw3", "V", "Gamma"])


def walk_states(log) -> list[np.ndarray]:
    """WALK_NODES single-support nodes of a walk log, evenly spread."""
    cols = [TRACE_COLUMNS.index(c) for c in Z]
    ss = [r for r in log.rows if r[1] == "SS"]
    picks = np.linspace(0, len(ss) - 1, WALK_NODES).round().astype(int)
    return [np.array([ss[i][c] for c in cols], dtype=float) for i in picks]


def random_states(gait, params) -> list[np.ndarray]:
    """RANDOM_STATES seeded states around the gait, some far from it.

    The rates and w spread wide enough that the torque saturates and the
    governor margin is negative at some of them.  A draw whose decoupling
    matrix is singular is skipped.
    """
    rng = np.random.default_rng(SEED)
    out = []
    while len(out) < RANDOM_STATES:
        z = np.concatenate([rng.uniform(-0.5, 0.5, 3), rng.uniform(-2.0, 2.0, 5)])
        try:
            SsController(gait, params).field(0.0, z)
        except DecouplingSingularityError:
            continue
        out.append(z)
    return out


def pipeline_values(ctrl: SsController, z: np.ndarray) -> list[float]:
    f = ctrl.field(0.0, z)
    smp = ctrl.sample(z)
    return [*f.tolist(), *smp.u.tolist(), *smp.u_raw.tolist(), smp.V, smp.Gamma]


def write_reference(states, gait, params) -> None:
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(",".join(Z + VALUES) + "\n")
        for z in states:
            vals = z.tolist() + pipeline_values(SsController(gait, params), z)
            fh.write(",".join(repr(float(v)) for v in vals) + "\n")


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == Z + VALUES
    return np.array(rows[1:], dtype=float)


def test_reference_states_are_walk_nodes_and_seeded_draws(one_step_log, gait,
                                                          params, reference):
    # the walk may move within the 1e-9 bound of the stored trace; the
    # seeded draws do not depend on it
    assert reference.shape == (WALK_NODES + RANDOM_STATES, len(Z) + len(VALUES))
    stored = reference[:, :len(Z)]
    walk = np.array(walk_states(one_step_log))
    assert np.max(np.abs(stored[:WALK_NODES] - walk)) <= 1e-9
    assert np.array_equal(stored[WALK_NODES:], np.array(random_states(gait, params)))


def test_pipeline_matches_the_stored_reference(gait, params, reference):
    for row in reference:
        z = row[:len(Z)]
        got = pipeline_values(SsController(gait, params), z)
        assert np.array_equal(got, row[len(Z):]), z


if __name__ == "__main__":
    from thrusterbiped.config import default_scenario
    from thrusterbiped.harness import run_walk

    cfg = default_scenario()
    log = run_walk(dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, n_steps=1)))
    assert log.completed_steps == 1, log.aborted
    gait, params = cfg.gait.to_gait(), cfg.model.to_params()
    write_reference(walk_states(log) + random_states(gait, params), gait, params)
