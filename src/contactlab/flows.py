"""Deterministic fixed-step RK4 flows with event detection and projection.

Every flow runs through the one integrator in :mod:`contactlab._kernels`,
which takes the field, event and projection as plain callables.  A
projection acts on the flat block state of the surgery model, so it needs a
field that carries its block layout.
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
    projection: Optional[str] = None  # None, "unit_w" or "level_f"
    level_delta: float = 0.1

    def __post_init__(self):
        if self.step <= 0.0 or self.max_time <= 0.0:
            raise ValueError("step and max_time must be positive")
        if self.step >= self.max_time:
            raise ValueError("step must be smaller than max_time")
        if self.event_tol <= 0.0:
            raise ValueError("event tolerance must be positive")
        if self.projection not in (None, "unit_w", "level_f"):
            raise ValueError(f"unknown projection {self.projection!r}")


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


def _projection(constraint: str, nxy: int, nzw: int, delta: float):
    if constraint == "unit_w":
        return surgery.unit_w_projection(nxy, nzw)
    if constraint == "level_f":
        return surgery.level_projection(nxy, nzw, delta)
    raise ValueError(f"unknown constraint {constraint!r}")


def _field_projection(field: VectorFieldOracle, cfg: IntegratorConfig):
    if cfg.projection is None:
        return None
    if field.blocks is None:
        raise ValueError("projection requested but the field carries no block layout")
    return _projection(cfg.projection, *field.blocks, cfg.level_delta)


def flow_fixed_time(field: VectorFieldOracle, start: Array, t: float,
                    cfg: IntegratorConfig) -> Array:
    """Classical RK4 for signed time t with post-step constraint projection."""
    return _kernels.rk4_final(field.func, start, float(t), cfg.step,
                              _field_projection(field, cfg))


def flow_record(field: VectorFieldOracle, start: Array, t: float,
                cfg: IntegratorConfig) -> Trajectory:
    times, states = _kernels.rk4_record(field.func, start, float(t), cfg.step,
                                        _field_projection(field, cfg))
    return Trajectory(times, states)


def flow_until_event(field: VectorFieldOracle, start: Array, event: EventSpec,
                     target: float, cfg: IntegratorConfig,
                     direction: float = 1.0) -> Trajectory:
    """Integrate until the event observable crosses the target (bisection-refined).

    A trajectory without an event record means no crossing occurred within
    cfg.max_time; callers must inspect ``trajectory.event``.
    """
    t_event, times, states = _kernels.rk4_until_event(
        field.func, start, event.func, float(target), cfg.step, cfg.max_time,
        cfg.event_tol, _field_projection(field, cfg), float(direction))
    traj = Trajectory(times, states)
    if t_event is not None:
        traj.event = (event.name, float(t_event), states[-1].copy())
    return traj


def project_constraint(pt: Array, constraint: str, nxy: int, nzw: int,
                       delta: float = 0.1, max_displacement: float = 1e-6) -> Array:
    """Retract a drifted point onto the constraint set.

    Raises when the correction exceeds ``max_displacement`` (the point was
    not close to the constraint) or when the Newton projection stalls.
    """
    u = np.asarray(pt, dtype=float)
    out = _projection(constraint, nxy, nzw, delta)(u.copy())
    moved = float(np.linalg.norm(out - u))
    if moved > max_displacement:
        raise ValueError(f"projection displaced the point by {moved:.3e} "
                         f"(> {max_displacement:.3e}); state had drifted too far")
    if constraint == "level_f":
        residual = surgery.level_value(nxy, nzw, delta)(out)
        if abs(residual) > 1e-10:
            raise ValueError(f"Newton projection stalled with residual {residual:.3e}")
    return out


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
