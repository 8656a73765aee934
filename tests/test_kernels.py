"""The RK4 integrator over plain callables, and the model functions it flows.

The model fields, events and projections keep the scalar-loop arithmetic of
their earlier integer-coded kernels; the loops below are that source, kept
as the reference the flat-state functions must match bit for bit.
"""

import math

import numpy as np
import pytest

from contactlab import _kernels as k
from contactlab import flows, sphere, surgery
from contactlab.flows import IntegratorConfig
from contactlab.forms import VectorFieldOracle
from contactlab.profiles import (DehnTwistProfile, HandleProfile, handle_f, handle_f_d,
                                 handle_f_d_column, handle_g, handle_g_d, handle_g_d_column,
                                 twist_g1)

rng = np.random.default_rng(33)
DELTA = 0.05


def _loop_norms(u, nxy, nzw):
    base = 2 * nxy
    w2 = 0.0
    for i in range(nzw):
        w2 += u[base + nzw + i] * u[base + nzw + i]
    rho2 = 0.0
    for i in range(base + nzw):
        rho2 += u[i] * u[i]
    return rho2, w2


def _loop_field(kind, u, nxy, nzw, param):
    du = np.zeros(u.size)
    base = 2 * nxy
    for i in range(nzw):
        z, w = base + i, base + nzw + i
        if kind == "liouville":
            du[z], du[w] = 2.0 * u[z], -u[w]
        elif kind == "liouville_a":
            du[z], du[w] = (1.0 + param) * u[z], -param * u[w]
        elif kind == "reeb":
            du[z] = u[w]
        else:
            rho2, w2 = _loop_norms(u, nxy, nzw)
            du[z] = 2.0 * handle_f_d(w2, param) * u[w]
            du[w] = 2.0 * handle_g_d(rho2, param) * u[z]
    if kind == "liouville":
        for i in range(base):
            du[i] = 0.5 * u[i]
    return du


FIELDS = {
    "liouville": lambda nxy, nzw: surgery.liouville_field(nxy, nzw),
    "liouville_a": lambda nxy, nzw: surgery.liouville_a_field(nxy, nzw, 7.0),
    "reeb": lambda nxy, nzw: surgery.reeb_field(nxy, nzw),
    "handle": lambda nxy, nzw: surgery.handle_hamiltonian_field(nxy, nzw, HandleProfile(DELTA)),
}


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_model_fields_match_scalar_loops(kind):
    param = 7.0 if kind == "liouville_a" else DELTA
    for nxy, nzw in [(0, 2), (1, 2), (2, 3)]:
        fld = FIELDS[kind](nxy, nzw)
        for _ in range(20):
            u = rng.standard_normal(2 * nxy + 2 * nzw) * rng.uniform(0.2, 1.5)
            assert np.array_equal(fld.func(u), _loop_field(kind, u, nxy, nzw, param))


def test_model_field_and_page_rows_match_lone_states():
    # a row batch runs the same arithmetic, on columns, as each lone state
    for nxy, nzw in [(0, 2), (1, 2), (0, 4)]:
        batch = rng.standard_normal((40, 2 * nxy + 2 * nzw)) * rng.uniform(0.2, 1.5, (40, 1))
        page = surgery.page_value(nxy, nzw)
        assert np.array_equal(page(batch), [page(u) for u in batch])
        for kind in ("reeb", "handle"):
            func = FIELDS[kind](nxy, nzw).func
            assert np.array_equal(func(batch), [func(u) for u in batch])
        # with the smoothing width carried as a last state coordinate
        widths = rng.choice([0.02, 0.05, 0.2], size=(40, 1))
        carried = surgery.handle_hamiltonian_rhs(nxy, nzw)
        out = carried(np.hstack([batch, widths]))
        assert not out[:, -1].any()
        for u, width, row in zip(batch, widths[:, 0], out):
            fixed = surgery.handle_hamiltonian_rhs(nxy, nzw, float(width))
            assert np.array_equal(row[:-1], fixed(u))
            assert np.array_equal(row, carried(np.append(u, width)))


@pytest.mark.parametrize("delta", [0.01, 0.05, 0.2])
def test_handle_derivative_columns_match_scalar_forms(delta):
    breaks = np.array([1.0 - delta, 1.0 - 0.5 * delta, 1.0, 1.0 + delta])
    s = np.concatenate([breaks, np.nextafter(breaks, 0.0), np.nextafter(breaks, 2.0),
                        rng.uniform(1.0 - 1.5 * delta, 1.0 + 1.5 * delta, 150),
                        rng.uniform(0.0, 2.0, 150)])
    for column, scalar in ((handle_f_d_column, handle_f_d), (handle_g_d_column, handle_g_d)):
        ref = np.array([scalar(float(v), delta) for v in s])
        assert np.array_equal(column(s, delta), ref)
        # a column of smoothing widths gives each row its own scalar result
        assert np.array_equal(column(s, np.full(s.size, delta)), ref)


def test_model_events_match_scalar_loops():
    nxy, nzw = 1, 3
    base = 2 * nxy
    for _ in range(50):
        u = rng.standard_normal(2 * nxy + 2 * nzw) * rng.uniform(0.2, 1.5)
        rho2, w2 = _loop_norms(u, nxy, nzw)
        page = 0.0
        for i in range(nzw):
            page += u[base + i] * u[base + nzw + i]
        assert surgery.page_value(nxy, nzw)(u) == page
        assert surgery.wnorm2_value(nxy, nzw)(u) == w2
        assert surgery.level_value(nxy, nzw, DELTA)(u) == \
            -handle_f(w2, DELTA) + handle_g(rho2, DELTA)


def test_margins_match_scalar_loop():
    nxy, nzw = 1, 2
    base = 2 * nxy
    pts = rng.standard_normal((50, 6))
    ref = np.empty(len(pts))
    for row in range(len(pts)):
        xy2 = z2 = w2 = 0.0
        for i in range(base):
            xy2 += pts[row, i] * pts[row, i]
        for i in range(nzw):
            z2 += pts[row, base + i] * pts[row, base + i]
            w2 += pts[row, base + nzw + i] * pts[row, base + nzw + i]
        ref[row] = (0.5 * xy2 + 2.0 * z2) * handle_g_d(xy2 + z2, 0.1) \
            + w2 * handle_f_d(w2, 0.1)
    got = surgery.transversality_margins(pts, nxy, nzw, HandleProfile(0.1))
    assert np.array_equal(got, ref)


def test_scalar_kernels_match_profile_dataclasses():
    hp = HandleProfile(0.07)
    tw = DehnTwistProfile(1.3, 2)
    for s in np.linspace(0.0, 2.0, 300):
        assert abs(hp.f(s) - handle_f(s, 0.07)) < 1e-15
        assert abs(hp.g_d(s) - handle_g_d(s, 0.07)) < 1e-13
        assert abs(tw.g1(s) - twist_g1(s, 1.3, 2)) < 1e-13


def test_twist_batch_matches_pointwise_twist():
    profile = DehnTwistProfile(1.0, 2)
    q = rng.standard_normal((20, 3))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    p = rng.standard_normal((20, 3)) * 0.7
    p -= (p * q).sum(axis=1, keepdims=True) * q
    p[0] = 0.0
    q_b, p_b = sphere.dehn_twist_batch(q, p, profile)
    for i in range(len(q)):
        out = sphere.dehn_twist(sphere.SpherePoint(q[i], p[i]), profile)
        assert np.allclose(q_b[i], out.q, rtol=1e-13, atol=1e-14)
        assert np.allclose(p_b[i], out.p, rtol=1e-13, atol=1e-14)


def test_projection_kernels():
    u = np.array([0.0, 0.0, 0.6, 0.8000001])
    out = surgery.unit_w_projection(0, 2)(u.copy())
    assert abs(out[2:] @ out[2:] - 1.0) < 1e-15
    v = np.array([0.9, 0.1, 0.1, 0.95])
    out = surgery.level_projection(0, 2, 0.1)(v.copy())
    assert abs(surgery.level_value(0, 2, 0.1)(out)) < 1e-12


# ---------------------------------------------------------------------------
# the integrator
# ---------------------------------------------------------------------------

def _pendulum(u):
    # polynomial, so a row of a batch and a lone row see identical arithmetic
    x, y = u[..., 0], u[..., 1]
    return np.stack([y, -x - 0.3 * x * x * x], axis=-1)


def test_fixed_time_takes_no_residue_step():
    # ten subtractions of 0.1 from 1.0 leave about 1.4e-16, which is no step
    calls = []

    def counted(u):
        calls.append(None)
        return _pendulum(u)

    k.rk4_final(counted, np.array([0.5, 0.0]), 1.0, 0.1)
    assert len(calls) == 4 * 10
    times, _ = k.rk4_record(_pendulum, np.array([0.5, 0.0]), 1.0, 0.1)
    assert len(times) == 11


@pytest.mark.parametrize("step", [0.1, 0.02, 0.001])
def test_record_end_equals_fixed_time_flow(step):
    fld = surgery.liouville_field(1, 2)
    u0 = np.array([0.3, -0.1, 0.2, 0.5, 0.7, 0.4])
    cfg = IntegratorConfig(step=step, max_time=2.0)
    assert np.array_equal(flows.flow_record(fld, u0, 1.0, cfg).end,
                          flows.flow_fixed_time(fld, u0, 1.0, cfg))


def test_batch_rows_equal_single_row_flows():
    starts = rng.uniform(-1.0, 1.0, (7, 2))
    batch = k.rk4_final(_pendulum, starts, -0.73, 0.05)
    for row, start in zip(batch, starts):
        assert np.array_equal(row, k.rk4_final(_pendulum, start, -0.73, 0.05))


def _bad_shape(u):
    return np.zeros(u.shape[-1] + 1)


def _nan_past_half(u):
    # moves every coordinate at unit speed, and turns NaN once x passes 0.5
    return np.where(u[..., :1] < 0.5, 1.0, np.nan) * np.ones_like(u)


@pytest.mark.parametrize("rhs,match", [(_bad_shape, "shape"), (_nan_past_half, "finite")])
def test_bad_fields_raise_from_every_flow(rhs, match):
    fld = VectorFieldOracle(2, rhs)
    cfg = IntegratorConfig(step=0.1, max_time=2.0)
    def never(u):
        return 1.0

    start = np.zeros(2)
    with pytest.raises(ValueError, match=match):
        flows.flow_fixed_time(fld, start, 1.5, cfg)
    with pytest.raises(ValueError, match=match):
        flows.flow_record(fld, start, 1.5, cfg)
    with pytest.raises(ValueError, match=match):
        flows.flow_until_event(fld, start, never, 0.0, cfg)
    with pytest.raises(ValueError, match=match):
        k.rk4_final(rhs, np.zeros((3, 2)), 1.5, 0.1)
    with pytest.raises(ValueError, match=match):
        flows.flow_rows_until_event(fld, np.zeros((3, 2)), lambda u: np.ones(len(u)), 0.0, cfg)


def test_batch_field_returning_one_row_raises():
    with pytest.raises(ValueError, match="shape"):
        k.rk4_final(lambda u: np.ones(2), np.zeros((3, 2)), 1.0, 0.1)


def test_event_time_is_bisected_inside_the_last_step():
    # x' = 1 from 0 meets x = 0.2345 between steps of 0.1
    t_ev, times, states = k.rk4_until_event(
        lambda u: np.ones_like(u), np.zeros(1), lambda u: float(u[0]), 0.2345,
        0.1, 1.0, 1e-12)
    assert math.isclose(t_ev, 0.2345, abs_tol=1e-12)
    assert times[-1] == t_ev and len(times) == 4
    assert abs(states[-1, 0] - 0.2345) <= 1e-12


def _x_event(u):
    return u[..., 0]  # a float for a lone state, a column for a batch


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_batched_event_rows_equal_one_row_runs(direction):
    step, max_time = 0.05, 3.0
    starts = np.vstack([[0.3, 0.0],    # on the event at t = 0
                        [0.0, 0.0],    # an equilibrium: never crosses
                        [0.1, 0.0],    # oscillates below the target: never crosses
                        rng.uniform(-1.0, 1.0, (9, 2))])
    t_batch, ends = k.rk4_until_event(_pendulum, starts, _x_event, 0.3, step, max_time,
                                      1e-12, direction=direction)
    crossing_steps = set()
    for start, t_row, end in zip(starts, t_batch, ends):
        t_one, times, states = k.rk4_until_event(_pendulum, start, _x_event, 0.3, step,
                                                 max_time, 1e-12, direction=direction)
        assert np.array_equal(end, states[-1])
        if t_one is None:
            assert math.isnan(t_row)
            assert times[-1] == pytest.approx(max_time)
        else:
            assert t_row == t_one
            crossing_steps.add(math.floor(t_one / step))
    assert t_batch[0] == 0.0 and np.isnan(t_batch[1]) and np.isnan(t_batch[2])
    assert len(crossing_steps) >= 4  # rows froze on different steps


def test_batched_event_rows_with_a_projection_equal_one_row_runs():
    # the projection rescales each row; a batch projects row by row
    def project(u):
        u /= np.linalg.norm(u, axis=-1, keepdims=True)
        return u

    def rotate(u):
        return np.stack([-u[..., 1], u[..., 0]], axis=-1)

    starts = rng.uniform(0.2, 1.0, (6, 2))
    starts /= np.linalg.norm(starts, axis=1, keepdims=True)
    t_batch, ends = k.rk4_until_event(rotate, starts, _x_event, -0.5, 0.01, 5.0, 1e-12,
                                      project)
    for start, t_row, end in zip(starts, t_batch, ends):
        t_one, _, states = k.rk4_until_event(rotate, start, _x_event, -0.5, 0.01, 5.0,
                                             1e-12, project)
        assert t_row == t_one and np.array_equal(end, states[-1])
