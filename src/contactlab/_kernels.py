"""The fixed-step RK4 integrator behind every flow in the package.

A flow is given by plain callables: a right-hand side ``rhs(u) -> du`` whose
output has the state's shape, for the fixed-time flows an optional projection
``project(u) -> u`` applied after each step (it may work in place on the
stepped state), and, for :func:`rk4_until_event`, which projects nothing, an
event ``event(u) -> (m,)``.  :func:`rk4_final` and :func:`rk4_record` take
``(d,)`` vectors or ``(m, d)`` row batches, which they advance in lockstep;
:func:`rk4_until_event` takes only ``(m, d)`` batches, so a lone start is
its one-row batch, and it records the trajectory of every row on request.
Every flow runs forward in time: the backward flow of a field is the forward
flow of the negated field, which RK4 steps with the same bits.  A negative
time, a right-hand side of the wrong output shape, a state that turns
non-finite, or an event start that is not a row batch raises ``ValueError``.
"""

from __future__ import annotations

import math

import numpy as np

# t / step may exceed a whole number of steps by rounding alone; a residue
# below this fraction of a step is not a further step
_SCHEDULE_SLACK = 1e-9


def rk4_step(rhs, u, h):
    """One classical RK4 step of size h."""
    k1 = rhs(u)
    if np.shape(k1) != u.shape:
        raise ValueError(f"right-hand side returned shape {np.shape(k1)} "
                         f"for a state of shape {u.shape}")
    k2 = rhs(u + 0.5 * h * k1)
    k3 = rhs(u + 0.5 * h * k2)
    k4 = rhs(u + h * k3)
    return u + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _schedule(t, step):
    """Step sizes covering t >= 0: ceil(t / step) steps, each the smaller of
    step and the time still to go."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    if t < 0.0:
        raise ValueError(f"flow time {t} is negative: flow the negated field "
                         "forward for the backward flow")
    remaining = t
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
    """The state after flowing for time t >= 0; u0 is (d,) or (m, d)."""
    u = np.array(u0, dtype=float)
    for h in _schedule(t, step):
        u = _advance(rhs, u, h, project)
    return u


def rk4_record(rhs, u0, t, step, project=None):
    """Like rk4_final, but returns (times, states) of the whole sampled
    trajectory."""
    u = np.array(u0, dtype=float)
    times, states = [0.0], [u]
    elapsed = 0.0
    for h in _schedule(t, step):
        u = _advance(rhs, u, h, project)
        elapsed += h
        times.append(elapsed)
        states.append(u)
    return np.array(times), np.array(states)


def rk4_until_event(rhs, u0, event, target, step, max_time, event_tol, record=False):
    """March an ``(m, d)`` batch of starts in lockstep until each row's
    ``event(u) - target`` changes sign or comes within event_tol, then
    bisect every crossing inside its last step.

    ``event`` maps the batch to an ``(m,)`` column.  Each row freezes at its
    own crossing, and one vectorised bisection then refines every frozen row,
    row for row the same arithmetic as a one-row batch of that row.  Returns
    ``(t_event, ends)``: t_event is NaN for a row that did not cross, and its
    end is then its state at max_time.  With ``record`` it also returns each
    row's ``(times, states)``, its start, its state after every step it
    marched past and its refined event point.
    """
    u = np.array(u0, dtype=float)
    if u.ndim != 2:
        raise ValueError(f"a row batch must have shape (m, d), got {u.shape}")
    starts = u
    t_event = np.full(len(u), np.nan)
    ends = u.copy()
    v = event(u) - target
    on_event = np.abs(v) <= event_tol
    t_event[on_event] = 0.0
    rows = np.flatnonzero(~on_event)  # batch indices of the marching rows
    # until it crosses, a row's event value keeps the sign of its start, so a
    # step's sign change or |v| <= event_tol is side * v <= event_tol
    u, side = u[rows], np.sign(v[rows])
    # per crossing step: the rows that froze, their sides, pre-step and
    # stepped states, the step and the time before it
    frozen = []
    marched = []  # with record: (time, rows, states) after each step
    t_now = 0.0
    for h in _schedule(max_time, step):
        if not rows.size:
            break
        u_next = _advance(rhs, u, h, None)
        hit = side * (event(u_next) - target) <= event_tol
        n_hit = np.count_nonzero(hit)  # cheaper than hit.any() on small arrays
        if n_hit:
            frozen.append((rows[hit], side[hit], u[hit], u_next[hit],
                           np.full(n_hit, h), np.full(n_hit, t_now)))
            keep = ~hit
            rows, side, u_next = rows[keep], side[keep], u_next[keep]
        t_now += h
        u = u_next
        if record and rows.size:
            marched.append((t_now, rows, u))
    ends[rows] = u
    if frozen:
        hit_rows, side, u_pre, u_hit, h_hit, t_pre = (np.concatenate(part)
                                                     for part in zip(*frozen))
        t_hit, ends[hit_rows] = _bisect_crossings(rhs, event, target, event_tol,
                                                  side, u_pre, u_hit, h_hit)
        t_event[hit_rows] = t_pre + t_hit
    if not record:
        return t_event, ends
    return t_event, ends, _trajectories(starts, t_event, ends, marched)


def _trajectories(starts, t_event, ends, marched):
    """Each row's (times, states): its start, its state after every step it
    marched past, and its refined event point when t_event > 0.

    A row leaves the marching rows once and never returns, so it holds the
    first steps of ``marched``, as many as it marched past.
    """
    m, d = starts.shape
    n_steps = np.zeros(m, dtype=int)
    path = np.empty((len(marched), m, d))
    for k, (_, rows, u) in enumerate(marched):
        path[k, rows] = u
        n_steps[rows] += 1
    times = np.array([0.0] + [t for t, _, _ in marched])
    out = []
    for i, n in enumerate(n_steps):
        t_i, s_i = times[:n + 1], np.concatenate([starts[i:i + 1], path[:n, i]])
        if t_event[i] > 0.0:  # False for NaN, a row that never crossed
            t_i, s_i = np.append(t_i, t_event[i]), np.concatenate([s_i, ends[i:i + 1]])
        out.append((t_i, s_i))
    return out


def _bisect_crossings(rhs, event, target, event_tol, side, u_pre, u_hit, h):
    """Refine each frozen row's crossing inside (0, h] by bisection on its
    substep size; returns the substeps and states of the refined points.

    A row stops once its bracket is below 1e-17 or its event value is within
    event_tol; the rows still open are kept compacted, so a step of the loop
    touches only them.
    """
    t_out, u_out = h.copy(), u_hit.copy()
    rows = np.arange(len(h))  # output indices of the open rows
    lo, hi, t_hit = np.zeros(len(h)), h.copy(), h.copy()
    for _ in range(60):
        done = hi - lo < 1e-17
        if np.count_nonzero(done):
            t_out[rows[done]], u_out[rows[done]] = t_hit[done], u_hit[done]
            keep = ~done
            rows, lo, hi, t_hit, u_hit = rows[keep], lo[keep], hi[keep], t_hit[keep], u_hit[keep]
            side, u_pre = side[keep], u_pre[keep]
        if not rows.size:
            break
        mid = 0.5 * (lo + hi)
        u_mid = _advance(rhs, u_pre, mid[:, None], None)
        x = side * (event(u_mid) - target)
        take = x <= event_tol  # crossed, or within event_tol
        t_hit = np.where(take, mid, t_hit)
        u_hit = np.where(take[:, None], u_mid, u_hit)
        # a row within event_tol gets lo = hi = mid, a zero bracket that stops it
        hi = np.where(take, mid, hi)
        lo = np.where(x < -event_tol, lo, mid)
    t_out[rows], u_out[rows] = t_hit, u_hit
    return t_out, u_out
