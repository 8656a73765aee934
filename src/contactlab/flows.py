"""Deterministic fixed-step RK4 flows with event detection and projection.

Every flow runs through the one integrator in :mod:`contactlab._kernels`,
which takes the field, event and projection as plain callables.  A flow
that must stay on a constraint set takes its projection ``project(u) -> u``
as an argument, such as :func:`surgery.unit_w_projection` or
:func:`surgery.level_projection`; it is applied after every step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _kernels, surgery
from .forms import VectorFieldOracle

Array = np.ndarray


@dataclass(frozen=True)
class IntegratorConfig:
    step: float = 1e-3
    max_time: float = 10.0
    event_tol: float = 1e-10

    def __post_init__(self):
        if self.step <= 0.0 or self.max_time <= 0.0:
            raise ValueError("step and max_time must be positive")
        if self.step >= self.max_time:
            raise ValueError("step must be smaller than max_time")
        if self.event_tol <= 0.0:
            raise ValueError("event tolerance must be positive")


@dataclass(frozen=True)
class EventSpec:
    """A named scalar observable along the flow."""

    name: str
    func: Callable[[Array], float]


def page_event(nxy: int, nzw: int) -> EventSpec:
    return EventSpec("page", surgery.page_value(nxy, nzw))


def level_event(nxy: int, nzw: int, delta: float) -> EventSpec:
    return EventSpec("level", surgery.level_value(nxy, nzw, delta))


@dataclass
class Trajectory:
    times: Array
    points: Array
    event: Optional[tuple[str, float, Array]] = None

    def __post_init__(self):
        if len(self.times) != len(self.points):
            raise ValueError("times and points must have equal length")
        if len(self.times) > 1 and not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")

    @property
    def end(self) -> Array:
        return self.points[-1]


Projection = Optional[Callable[[Array], Array]]


def flow_fixed_time(field: VectorFieldOracle, start: Array, t: float,
                    cfg: IntegratorConfig, project: Projection = None) -> Array:
    """Classical RK4 for signed time t with post-step constraint projection."""
    return _kernels.rk4_final(field.func, start, float(t), cfg.step, project)


def flow_record(field: VectorFieldOracle, start: Array, t: float,
                cfg: IntegratorConfig, project: Projection = None) -> Trajectory:
    times, states = _kernels.rk4_record(field.func, start, float(t), cfg.step, project)
    return Trajectory(times, states)


def flow_until_event(field: VectorFieldOracle, start: Array, event: EventSpec,
                     target: float, cfg: IntegratorConfig,
                     direction: float = 1.0, project: Projection = None) -> Trajectory:
    """Integrate until the event observable crosses the target (bisection-refined).

    A trajectory without an event record means no crossing occurred within
    cfg.max_time; callers must inspect ``trajectory.event``.
    """
    t_event, times, states = _kernels.rk4_until_event(
        field.func, start, event.func, float(target), cfg.step, cfg.max_time,
        cfg.event_tol, project, float(direction))
    traj = Trajectory(times, states)
    if t_event is not None:
        traj.event = (event.name, float(t_event), states[-1].copy())
    return traj


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: Trajectory, path, coord_names: Optional[list[str]] = None) -> None:
    """Write rows (time, coords...) with a header; deterministic ordering."""
    dim = traj.points.shape[1] if len(traj.points) else 0
    if coord_names is None:
        coord_names = [f"c{i}" for i in range(dim)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time"] + coord_names)
        for t, row in zip(traj.times, traj.points):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
