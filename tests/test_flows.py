"""Fixed-step flows: order, events, projection, export."""

import csv
import math

import numpy as np
import pytest

from contactlab import flows, surgery
from contactlab.flows import (IntegratorConfig, flow_fixed_time,
                              flow_record, flow_until_event, trajectory_to_csv)
from contactlab.surgery import ModelPoint

rng = np.random.default_rng(21)
CFG = IntegratorConfig(step=1e-3, max_time=5.0, event_tol=1e-12)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(step=2.0, max_time=1.0)


def test_zero_time_is_identity():
    fld = surgery.reeb_field(0, 2)
    u0 = np.array([0.1, 0.2, 1.0, 0.0])
    assert np.array_equal(flow_fixed_time(fld, u0, 0.0, CFG.step), u0)


def test_reeb_flow_matches_linear_transport():
    # page-time s moves z to (s - eps) w + r with w frozen
    fld = surgery.reeb_field(0, 2)
    start = ModelPoint(np.zeros(0), np.zeros(0), np.array([-0.1, 0.5]),
                       np.array([1.0, 0.0]))
    out = flow_fixed_time(fld, start.as_array(), 0.2, CFG.step)
    assert np.max(np.abs(out - np.array([0.1, 0.5, 1.0, 0.0]))) < 1e-12


def test_order_four_convergence():
    fld = surgery.liouville_field(0, 2)
    u0 = np.array([0.3, -0.2, 0.7, 0.4])
    exact = np.concatenate([u0[:2] * math.exp(2.0), u0[2:] * math.exp(-1.0)])
    errs = []
    for step in (0.02, 0.01):
        errs.append(np.max(np.abs(flow_fixed_time(fld, u0, 1.0, step) - exact)))
    assert errs[0] / errs[1] >= 8.0


def test_backward_flow_inverts_forward():
    fld = surgery.liouville_field(1, 2)
    u0 = rng.standard_normal(6)
    fwd = flow_fixed_time(fld, u0, 0.7, CFG.step)
    back = flow_fixed_time(fld, fwd, -0.7, CFG.step)
    assert np.max(np.abs(back - u0)) < 1e-11


def test_event_already_satisfied_gives_zero_length():
    fld = surgery.reeb_field(0, 2)
    start = np.array([0.1, 0.5, 1.0, 0.0])  # theta already 0.1
    traj = flow_until_event(fld, start, surgery.page_value(0, 2), 0.1, CFG)
    assert traj.t_event is not None
    assert traj.t_event == 0.0
    assert len(traj.times) == 1


def test_event_detection_at_page_value():
    start = ModelPoint(np.zeros(0), np.zeros(0), np.array([-0.1, 0.5]),
                       np.array([1.0, 0.0]))
    on_s1 = surgery.limit_transfer_to_s1(start, 0.05)
    fld = surgery.handle_hamiltonian_rhs(0, 2, 0.05)
    traj = flow_until_event(fld, on_s1, surgery.page_value(0, 2), 0.1, CFG)
    assert traj.t_event is not None
    # page speed two on the flat piece: the stop time is eps
    assert abs(traj.t_event - 0.1) < 1e-10


def test_no_event_within_bound_reports_absence():
    fld = surgery.reeb_field(0, 2)
    start = np.array([-0.1, 0.5, 1.0, 0.0])
    short = IntegratorConfig(step=1e-3, max_time=0.05, event_tol=1e-12)
    traj = flow_until_event(fld, start, surgery.page_value(0, 2), 10.0, short)
    assert traj.t_event is None
    assert traj.times[-1] == pytest.approx(0.05)


def test_projection_unit_w_keeps_constraint():
    fld = surgery.reeb_field(0, 2)
    start = np.array([-0.1, 0.5, 0.6, 0.8])
    traj = flow_record(fld, start, 1.0, 1e-3, surgery.unit_w_projection(0, 2))
    for row in traj.points:
        assert abs(row[2:] @ row[2:] - 1.0) < 1e-12


def test_non_finite_state_raises():
    def cubic(u):
        with np.errstate(over="ignore"):
            return np.array([u[0] ** 3, u[1] ** 3], dtype=float)

    with pytest.raises(ValueError, match="finite"):
        flow_fixed_time(cubic, np.array([5.0, 5.0]), 10.0, 0.5)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        flows.Trajectory(np.array([0.0, 0.0]), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        flows.Trajectory(np.array([0.0, 1.0]), np.zeros((3, 3)))


def test_trajectory_csv_export(tmp_path):
    fld = surgery.reeb_field(0, 2)
    traj = flow_record(fld, np.array([-0.1, 0.5, 1.0, 0.0]), 0.01, 2e-3)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["time", "c0", "c1", "c2", "c3"]
    assert len(rows) == len(traj.times) + 1
    assert float(rows[1][1]) == pytest.approx(-0.1)
    # empty trajectory still writes the header
    empty = flows.Trajectory(np.zeros(0), np.zeros((0, 4)))
    path2 = tmp_path / "empty.csv"
    trajectory_to_csv(empty, path2)
    with open(path2) as fh:
        rows2 = list(csv.reader(fh))
    assert len(rows2) == 1
