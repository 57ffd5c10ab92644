"""Fixed-step RK4 integration with guard-event location."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalFailureError
from .events import GuardEvent, locate_event

Field = Callable[[float, np.ndarray], np.ndarray]


def rk4_step(field: Field, t: float, x: np.ndarray, dt: float) -> np.ndarray:
    k1 = field(t, x)
    k2 = field(t + 0.5 * dt, x + 0.5 * dt * k1)
    k3 = field(t + 0.5 * dt, x + 0.5 * dt * k2)
    k4 = field(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@dataclass
class IntegrationResult:
    t: np.ndarray             # (n+1,)
    x: np.ndarray             # (n+1, dim)
    event: GuardEvent | None  # set when the guard fired
    abort_reason: str | None  # set when the abort callback stopped the run


def integrate_rk4(
    field: Field,
    x0: np.ndarray,
    t0: float,
    t1: float,
    dt: float,
    guard: Callable[[np.ndarray], float] | None = None,
    guard_armed: Callable[[np.ndarray], bool] | None = None,
    guard_descending: Callable[[np.ndarray], float] | None = None,
    abort: Callable[[float, np.ndarray], str | None] | None = None,
) -> IntegrationResult:
    """Integrate until t1, a located guard crossing, or an abort.

    The guard fires on a positive-to-nonpositive transition over one step,
    with both bracketing states satisfying ``guard_armed`` when given.  The
    crossing is refined by bisection over the RK4 sub-step from the bracket
    start, so the event state carries integrator-order accuracy.  When
    ``guard_descending`` is given, crossings where it is non-negative at the
    root are ignored (grazing) and integration continues.

    ``abort(t, x)`` runs once per accepted node, in order, after the node is
    stored and before the next step starts from that same array; a result
    other than None stops the run with that reason.  It does not see ``x0``
    or an event state.  Callers may rely on this to evaluate a node in the
    callback and reuse it at the next step's first stage.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t1 <= t0:
        raise ValueError("t1 must exceed t0")
    x = np.asarray(x0, dtype=float).copy()
    if not np.isfinite(x).all():
        raise ValueError("x0 contains non-finite entries")

    ts = [t0]
    xs = [x.copy()]
    t = t0
    g_prev = guard(x) if guard is not None else None
    armed_prev = guard_armed(x) if guard_armed is not None else True

    while t < t1 - 1e-15:
        h = min(dt, t1 - t)
        x_new = rk4_step(field, t, x, h)
        t_new = t + h
        if not np.isfinite(x_new).all():
            raise NumericalFailureError(f"non-finite state at t={t_new:.6f}")

        fire = False
        if guard is not None:
            g_new = guard(x_new)
            armed_new = guard_armed(x_new) if guard_armed is not None else True
            fire = (
                g_prev is not None
                and g_prev > 0.0
                and g_new <= 0.0
                and armed_prev
                and armed_new
            )
        if fire:
            event = locate_event(
                t, x, t_new, x_new, guard,
                interp=lambda tau, _t0=t, _x0=x: rk4_step(field, _t0, _x0, tau - _t0),
            )
            if guard_descending is None or guard_descending(event.x) < 0.0:
                ts.append(event.t)
                xs.append(event.x.copy())
                return IntegrationResult(np.array(ts), np.array(xs), event, None)
            # grazing touch: step past it and keep going

        x = x_new
        t = t_new
        ts.append(t)
        xs.append(x.copy())
        if guard is not None:
            g_prev = g_new
            armed_prev = armed_new
        if abort is not None:
            reason = abort(t, x)
            if reason is not None:
                return IntegrationResult(np.array(ts), np.array(xs), None, reason)

    return IntegrationResult(np.array(ts), np.array(xs), None, None)
