"""The 1-step default walk against a trace stored from an earlier version.

Criterion 8 compares two runs of the current code with each other; this test
compares the current run with ``data/one_step_reference.csv``, written before
the single-support control path was rewritten in closed form.  Floating-point
operation order may differ, so the columns are compared within stated bounds,
not bit for bit.

The file keeps every 10th trace row, every IMPACT row and the last row, each
led by its index in the full trace, with floats written by ``repr`` so they
read back exactly.  To rewrite it from the current code (only when a change
of behaviour is intended):  PYTHONPATH=src python tests/test_reference_trace.py
"""

import csv
import dataclasses
import os

import numpy as np
import pytest

from thrusterbiped.harness import TRACE_COLUMNS

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                         "one_step_reference.csv")
STRIDE = 10
STATE_AND_OUTPUTS = [
    "t", "q1", "q2", "q3", "ph_x", "ph_y", "dq1", "dq2", "dq3", "dph_x", "dph_y",
    "y1", "y2", "dy1", "dy2", "V", "w1", "w2", "s",
]
FORCES_AND_BOUND = ["u2", "u3", "F_th", "lamT1", "lamN1", "lamT2", "lamN2", "Gamma"]


def kept_rows(rows):
    """(index, row) pairs of the rows the reference keeps."""
    last = len(rows) - 1
    return [(i, r) for i, r in enumerate(rows)
            if i % STRIDE == 0 or r[1] == "IMPACT" or i == last]


def write_reference(rows) -> None:
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(",".join(["row"] + TRACE_COLUMNS) + "\n")
        for i, row in kept_rows(rows):
            fh.write(",".join([str(i)] + [v if isinstance(v, str) else repr(float(v))
                                          for v in row]) + "\n")


@pytest.fixture(scope="module")
def reference():
    with open(REFERENCE, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["row"] + TRACE_COLUMNS
    return [(int(r[0]), r[1:]) for r in rows[1:]]


def test_columns_are_all_checked():
    assert sorted(["phase"] + STATE_AND_OUTPUTS + FORCES_AND_BOUND) == sorted(TRACE_COLUMNS)


def test_one_step_walk_matches_the_stored_reference(one_step_log, reference):
    kept = kept_rows(one_step_log.rows)
    # the last row is always kept, so equal indices mean equal row counts
    assert [i for i, _ in kept] == [i for i, _ in reference]
    got = [r for _, r in kept]
    ref = [r for _, r in reference]
    phase = TRACE_COLUMNS.index("phase")
    assert [r[phase] for r in got] == [r[phase] for r in ref]

    for names, bound in ((STATE_AND_OUTPUTS, 1e-9), (FORCES_AND_BOUND, 1e-8)):
        for name in names:
            i = TRACE_COLUMNS.index(name)
            a = np.array([r[i] for r in got], dtype=float)
            b = np.array([float(r[i]) for r in ref])
            assert np.array_equal(np.isnan(a), np.isnan(b)), name
            ok = ~np.isnan(b)
            assert np.max(np.abs(a[ok] - b[ok]), initial=0.0) <= bound, name


if __name__ == "__main__":
    from thrusterbiped.config import default_scenario
    from thrusterbiped.harness import run_walk

    cfg = default_scenario()
    log = run_walk(dataclasses.replace(cfg, sim=dataclasses.replace(cfg.sim, n_steps=1)))
    assert log.completed_steps == 1, log.aborted
    write_reference(log.rows)
