"""Deterministic fixed-step RK4 flows with event detection and projection.

Every flow runs through the one integrator in :mod:`contactlab._kernels`,
which takes the field, event and projection as plain callables: a field
``rhs(u) -> du`` such as :func:`surgery.reeb_field`, an event
``event(u) -> float`` such as :func:`surgery.page_value`, and a projection
``project(u) -> u`` such as :func:`surgery.unit_w_projection`, which keeps a
flow on its constraint set and is applied after every step of a fixed-time
flow; the event flows take none.
:func:`flow_rows_until_event` flows an ``(m, d)`` batch of starts in
lockstep; its callables take the batch, and its event gives one value per row.
:func:`trajectories_until_event` runs the same batch and keeps each row's
sampled trajectory, and :func:`flow_record` records an ``(m, d)`` batch as it
records one start.  Every row of a batch repeats its lone flow bit for bit.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels

Array = np.ndarray


@dataclass(frozen=True)
class IntegratorConfig:
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

    @property
    def end(self) -> Array:
        return self.points[-1]


Field = Callable[[Array], Array]
Projection = Optional[Callable[[Array], Array]]


def flow_fixed_time(rhs: Field, start: Array, t: float,
                    cfg: IntegratorConfig, project: Projection = None) -> Array:
    """Classical RK4 for signed time t with post-step constraint projection."""
    return _kernels.rk4_final(rhs, start, float(t), cfg.step, project)


def flow_record(rhs: Field, start: Array, t: float,
                cfg: IntegratorConfig, project: Projection = None) -> Trajectory:
    """The sampled trajectory over signed time t; an (m, d) batch of starts
    gives points of shape (steps + 1, m, d)."""
    times, states = _kernels.rk4_record(rhs, start, float(t), cfg.step, project)
    return Trajectory(times, states)


def flow_until_event(rhs: Field, start: Array,
                     event: Callable[[Array], float], target: float,
                     cfg: IntegratorConfig) -> Trajectory:
    """Integrate until ``event(u)`` crosses the target (bisection-refined).

    When a crossing occurs within cfg.max_time, ``trajectory.t_event`` is its
    time and ``trajectory.end`` the refined event point; otherwise
    ``t_event`` is None and callers must check it.
    """
    t_event, times, states = _kernels.rk4_until_event(
        rhs, start, event, float(target), cfg.step, cfg.max_time, cfg.event_tol)
    return Trajectory(times, states, t_event)


def _row_batch(starts: Array) -> Array:
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2:
        raise ValueError(f"a row batch must have shape (m, d), got {starts.shape}")
    return starts


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
    return _kernels.rk4_until_event(rhs, _row_batch(starts), event, float(target), cfg.step,
                                    cfg.max_time, cfg.event_tol)


def trajectories_until_event(rhs: Field, starts: Array,
                             event: Callable[[Array], Array], target: float,
                             cfg: IntegratorConfig) -> list[Trajectory]:
    """:func:`flow_rows_until_event`, keeping each row's sampled trajectory:
    row i's Trajectory equals a lone :func:`flow_until_event` from
    ``starts[i]`` bit for bit, times, points and t_event."""
    t_event, _, paths = _kernels.rk4_until_event(
        rhs, _row_batch(starts), event, float(target), cfg.step, cfg.max_time,
        cfg.event_tol, record=True)
    return [Trajectory(times, states, None if math.isnan(t) else float(t))
            for t, (times, states) in zip(t_event, paths)]


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, path) -> None:
    """Write rows (time, c0, c1, ...) with a header; deterministic ordering."""
    dim = traj.points.shape[1] if len(traj.points) else 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + [f"c{i}" for i in range(dim)])
        for t, row in zip(traj.times, traj.points):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
