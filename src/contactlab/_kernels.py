"""The fixed-step RK4 integrator behind every flow in the package.

A flow is given by plain callables: a right-hand side ``rhs(u) -> du`` whose
output has the state's shape, an optional projection ``project(u) -> u``
applied after each step (it may work in place on the stepped state), and, for
:func:`rk4_until_event`, a scalar event ``event(u) -> float``.  States are
``(d,)`` vectors; :func:`rk4_final` also advances ``(m, d)`` row batches in
lockstep.  A right-hand side of the wrong output shape, or a state that turns
non-finite, raises ``ValueError``.
"""

from __future__ import annotations

import math

import numpy as np

# |t| / step may exceed a whole number of steps by rounding alone; a residue
# below this fraction of a step is not a further step
_SCHEDULE_SLACK = 1e-9


def rk4_step(rhs, u, h):
    """One classical RK4 step of signed size h."""
    k1 = rhs(u)
    if np.shape(k1) != u.shape:
        raise ValueError(f"right-hand side returned shape {np.shape(k1)} "
                         f"for a state of shape {u.shape}")
    k2 = rhs(u + 0.5 * h * k1)
    k3 = rhs(u + 0.5 * h * k2)
    k4 = rhs(u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _schedule(t, step):
    """Step sizes covering |t|: ceil(|t| / step) steps, each the smaller of
    step and the time still to go."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    remaining = abs(t)
    for _ in range(math.ceil(remaining / step - _SCHEDULE_SLACK)):
        h = min(step, remaining)
        remaining -= h
        yield h


def _advance(rhs, u, h, project):
    u = rk4_step(rhs, u, h)
    if project is not None:
        u = project(u)
    if not np.isfinite(u).all():
        raise ValueError("flow state became non-finite")
    return u


def rk4_final(rhs, u0, t, step, project=None):
    """The state after flowing for signed time t; u0 is (d,) or (m, d)."""
    u = np.array(u0, dtype=float)
    sgn = 1.0 if t >= 0.0 else -1.0
    for h in _schedule(t, step):
        u = _advance(rhs, u, sgn * h, project)
    return u


def rk4_record(rhs, u0, t, step, project=None):
    """Like rk4_final, but returns (times, states) of the whole sampled
    trajectory; times are the elapsed |t| whatever the direction."""
    u = np.array(u0, dtype=float)
    sgn = 1.0 if t >= 0.0 else -1.0
    times, states = [0.0], [u]
    elapsed = 0.0
    for h in _schedule(t, step):
        u = _advance(rhs, u, sgn * h, project)
        elapsed += h
        times.append(elapsed)
        states.append(u)
    return np.array(times), np.array(states)


def rk4_until_event(rhs, u0, event, target, step, max_time, event_tol,
                    project=None, direction=1.0):
    """March until ``event(u) - target`` changes sign or comes within
    event_tol, then bisect the crossing inside the last step.

    ``direction`` is +1.0 (forward) or -1.0 (backward).  Returns
    ``(t_event, times, states)`` with times the elapsed |t|; t_event is None
    when no crossing occurred within max_time, and otherwise the last row of
    states is the refined event point.
    """
    u = np.array(u0, dtype=float)
    times, states = [0.0], [u]
    v_prev = event(u) - target
    if abs(v_prev) <= event_tol:
        return 0.0, np.array(times), np.array(states)
    t_now = 0.0
    for h in _schedule(max_time, step):
        u_next = _advance(rhs, u, direction * h, project)
        v_next = event(u_next) - target
        if abs(v_next) <= event_tol or v_prev * v_next < 0.0:
            # refine inside (0, h] by bisection on the substep size
            lo, hi = 0.0, h
            u_hit, t_hit = u_next, h
            for _ in range(60):
                if hi - lo < 1e-17:
                    break
                mid = 0.5 * (lo + hi)
                u_mid = _advance(rhs, u, direction * mid, project)
                v_mid = event(u_mid) - target
                if abs(v_mid) <= event_tol:
                    u_hit, t_hit = u_mid, mid
                    break
                if v_prev * v_mid < 0.0:
                    hi, u_hit, t_hit = mid, u_mid, mid
                else:
                    lo = mid
            times.append(t_now + t_hit)
            states.append(u_hit)
            return t_now + t_hit, np.array(times), np.array(states)
        t_now += h
        u, v_prev = u_next, v_next
        times.append(t_now)
        states.append(u)
    return None, np.array(times), np.array(states)
