"""Deterministic fixed-step RK4 flows with event detection and projection.

Every flow runs through the one integrator in :mod:`contactlab._kernels`,
which takes the field, event and projection as plain callables: a field
``rhs(u) -> du`` such as :func:`surgery.reeb_field`, an event
``event(u) -> float`` such as :func:`surgery.page_value`, and a projection
``project(u) -> u`` such as :func:`surgery.unit_w_projection`, which keeps a
flow on its constraint set and is applied after every step of a fixed-time
flow; the event flows take none.  Every flow runs forward in time; a
backward flow is the forward flow of the negated field, and a negative time
raises ``ValueError``.  The fixed-time flows take a bare RK4 step;
:class:`IntegratorConfig` holds the event flows' step, time bound and event
tolerance.
:func:`flow_rows_until_event` flows an ``(m, d)`` batch of starts in
lockstep; its callables take the batch, and its event gives one value per row.
:func:`trajectories_until_event` runs the same batch and keeps each row's
sampled trajectory, and :func:`flow_until_event` is its one-row call.
:func:`flow_record` records an ``(m, d)`` batch as it records one start.
Every row of a batch repeats its lone flow bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels

Array = np.ndarray


@dataclass(frozen=True)
class IntegratorConfig:
    """The event flows' RK4 step, time bound and event tolerance."""

    step: float = 1e-3
    max_time: float = 10.0
    event_tol: float = 1e-10

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.step, self.max_time, self.event_tol)):
            raise ValueError("step, max_time and event tolerance must be positive and finite")
        if not self.step < self.max_time:
            raise ValueError("step must be smaller than max_time")


@dataclass
class Trajectory:
    times: Array
    points: Array
    t_event: Optional[float] = None  # elapsed time of the detected event, if any

    def __post_init__(self):
        if len(self.times) != len(self.points):
            raise ValueError("times and points must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")


Field = Callable[[Array], Array]
Projection = Optional[Callable[[Array], Array]]


def flow_fixed_time(rhs: Field, start: Array, t: float,
                    step: float, project: Projection = None) -> Array:
    """Classical RK4 for time t >= 0 with post-step constraint projection."""
    return _kernels.rk4_final(rhs, start, float(t), step, project)


def flow_record(rhs: Field, start: Array, t: float,
                step: float, project: Projection = None) -> Trajectory:
    """The sampled trajectory over time t >= 0; an (m, d) batch of starts
    gives points of shape (steps + 1, m, d)."""
    times, states = _kernels.rk4_record(rhs, start, float(t), step, project)
    return Trajectory(times, states)


def flow_until_event(rhs: Field, start: Array,
                     event: Callable[[Array], float], target: float,
                     cfg: IntegratorConfig) -> Trajectory:
    """Integrate one ``(d,)`` start until ``event(u)`` crosses the target
    (bisection-refined): the one-row call of :func:`trajectories_until_event`,
    with the field and event called on the row, so they keep the float
    operands and speed of a lone state.

    When a crossing occurs within cfg.max_time, ``trajectory.t_event`` is its
    time and ``trajectory.points[-1]`` the refined event point; otherwise
    ``t_event`` is None and callers must check it.
    """
    (traj,) = trajectories_until_event(
        lambda u: rhs(u[0])[None], np.asarray(start, dtype=float)[None],
        lambda u: np.array([event(u[0])]), target, cfg)
    return traj


def flow_rows_until_event(rhs: Field, starts: Array,
                          event: Callable[[Array], Array], target: float,
                          cfg: IntegratorConfig) -> tuple[Array, Array]:
    """Integrate an (m, d) batch of starts in lockstep, each row until its
    event crosses the target; the field and event take batches.

    Returns ``(t_event, ends)``.  Row i's crossing is refined exactly as in
    a lone :func:`flow_until_event` from ``starts[i]``; ``t_event[i]`` is NaN
    when it did not cross within cfg.max_time, and ``ends[i]`` is then its
    state at max_time.
    """
    return _kernels.rk4_until_event(rhs, starts, event, float(target), cfg.step,
                                    cfg.max_time, cfg.event_tol)


def trajectories_until_event(rhs: Field, starts: Array,
                             event: Callable[[Array], Array], target: float,
                             cfg: IntegratorConfig) -> list[Trajectory]:
    """:func:`flow_rows_until_event`, keeping each row's sampled trajectory:
    row i's Trajectory equals a lone :func:`flow_until_event` from
    ``starts[i]`` bit for bit, times, points and t_event."""
    t_event, _, paths = _kernels.rk4_until_event(
        rhs, starts, event, float(target), cfg.step, cfg.max_time,
        cfg.event_tol, record=True)
    return [Trajectory(times, states, None if math.isnan(t) else float(t))
            for t, (times, states) in zip(t_event, paths)]

