"""The RK4 integrator over plain callables, and the model functions it flows.

The model fields, events and projections keep the scalar-loop arithmetic of
their earlier integer-coded kernels; the loops below are that source, kept
as the reference the flat-state functions must match bit for bit.
"""

import math

import numpy as np
import pytest

from contactlab import _kernels as k
from contactlab import flows, forms, sphere, surgery
from contactlab.flows import IntegratorConfig
from contactlab.surgery import ModelPoint
from contactlab.profiles import (DehnTwistProfile, handle_f, handle_f_d, handle_g, handle_g_d,
                                 smoothstep, twist_g1)

rng = np.random.default_rng(33)
DELTA = 0.05


# The handle functions as scalar twins, one branch per piece: the references
# that the one form over floats and columns must equal bit for bit.

def _scalar_handle_f(s, delta):
    if s <= 1.0 - delta:
        return 1.0
    if s >= 1.0 - 0.5 * delta:
        return s + delta
    t = min((s - (1.0 - delta)) / (0.5 * delta), 1.0)
    return 1.0 + (s + delta - 1.0) * (t * t * t * (10.0 + t * (-15.0 + 6.0 * t)))


def _scalar_handle_f_d(s, delta):
    if s <= 1.0 - delta:
        return 0.0
    if s >= 1.0 - 0.5 * delta:
        return 1.0
    t = min((s - (1.0 - delta)) / (0.5 * delta), 1.0)
    u = t * (1.0 - t)
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t)) \
        + (s + delta - 1.0) * (30.0 * u * u) * (2.0 / delta)


def _scalar_handle_g(s, delta):
    if s <= 1.0:
        return s
    if s >= 1.0 + delta:
        return 1.0 + delta
    t = min((s - 1.0) / delta, 1.0)
    sm = t * t * t * (10.0 + t * (-15.0 + 6.0 * t))
    return (1.0 - sm) * s + sm * (1.0 + delta)


def _scalar_handle_g_d(s, delta):
    if s <= 1.0:
        return 1.0
    if s >= 1.0 + delta:
        return 0.0
    t = min((s - 1.0) / delta, 1.0)
    u = t * (1.0 - t)
    return (1.0 - t * t * t * (10.0 + t * (-15.0 + 6.0 * t))) \
        + (30.0 * u * u) * (1.0 + delta - s) / delta


def _same_bits(got, ref):
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and got.tobytes() == ref.tobytes()


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
            du[z] = 2.0 * _scalar_handle_f_d(w2, param) * u[w]
            du[w] = 2.0 * _scalar_handle_g_d(rho2, param) * u[z]
    if kind == "liouville":
        for i in range(base):
            du[i] = 0.5 * u[i]
    return du


FIELDS = {
    "liouville": lambda nxy, nzw: surgery.liouville_field(nxy, nzw),
    "liouville_a": lambda nxy, nzw: surgery.liouville_a_field(nxy, nzw, 7.0),
    "reeb": lambda nxy, nzw: surgery.reeb_field(nxy, nzw),
    "handle": lambda nxy, nzw: surgery.handle_hamiltonian_rhs(nxy, nzw, DELTA),
}


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_model_fields_match_scalar_loops(kind):
    param = 7.0 if kind == "liouville_a" else DELTA
    for nxy, nzw in [(0, 2), (1, 2), (2, 3)]:
        fld = FIELDS[kind](nxy, nzw)
        for _ in range(20):
            u = rng.standard_normal(2 * nxy + 2 * nzw) * rng.uniform(0.2, 1.5)
            assert np.array_equal(fld(u), _loop_field(kind, u, nxy, nzw, param))


def test_model_field_and_page_rows_match_lone_states():
    # a row batch runs the same arithmetic, on columns, as each lone state
    for nxy, nzw in [(0, 2), (1, 2), (0, 4)]:
        batch = rng.standard_normal((40, 2 * nxy + 2 * nzw)) * rng.uniform(0.2, 1.5, (40, 1))
        page = surgery.page_value(nxy, nzw)
        assert np.array_equal(page(batch), [page(u) for u in batch])
        for kind in ("reeb", "handle"):
            func = FIELDS[kind](nxy, nzw)
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


def _window_samples(delta):
    """The profile joints, their float neighbours, and draws around and beyond
    both blend windows."""
    breaks = np.array([1.0 - delta, 1.0 - 0.5 * delta, 1.0, 1.0 + delta])
    return np.concatenate([breaks, np.nextafter(breaks, 0.0), np.nextafter(breaks, 2.0),
                           rng.uniform(1.0 - 1.5 * delta, 1.0 + 1.5 * delta, 150),
                           rng.uniform(0.0, 2.0, 150)])


def _smoothstep_handle_f(s, delta):
    """handle_f as first written, through the clamped smoothstep."""
    if s <= 1.0 - delta:
        return 1.0
    if s >= 1.0 - 0.5 * delta:
        return s + delta
    return 1.0 + (s + delta - 1.0) * smoothstep((s - (1.0 - delta)) / (0.5 * delta))


def _smoothstep_handle_g(s, delta):
    """handle_g as first written, through the clamped smoothstep."""
    if s <= 1.0:
        return s
    if s >= 1.0 + delta:
        return 1.0 + delta
    sm = smoothstep((s - 1.0) / delta)
    return (1.0 - sm) * s + sm * (1.0 + delta)


def _assert_one_form_matches(one_form, scalar, delta):
    """A float gives a float, and floats and columns, under a float or a
    column of smoothing widths, all give the scalar twin's bits."""
    s = _window_samples(delta)
    ref = [scalar(float(v), delta) for v in s]
    floats = [one_form(float(v), delta) for v in s]
    assert all(type(v) is float for v in floats)
    assert _same_bits(floats, ref)
    assert _same_bits(one_form(s, delta), ref)
    # a column of smoothing widths gives each row its own scalar result
    assert _same_bits(one_form(s, np.full(s.size, delta)), ref)
    # one-row columns lie on one piece each: flat rows skip the blend, and a
    # window row computes it alone
    assert _same_bits(np.concatenate([one_form(s[i:i + 1], delta) for i in range(s.size)]), ref)


@pytest.mark.parametrize("delta", [0.01, 0.05, 0.2])
def test_handle_function_columns_match_scalar_forms(delta):
    s = _window_samples(delta)
    for one_form, scalar, first in ((handle_f, _scalar_handle_f, _smoothstep_handle_f),
                                    (handle_g, _scalar_handle_g, _smoothstep_handle_g)):
        assert _same_bits([scalar(float(v), delta) for v in s],
                          [first(float(v), delta) for v in s])
        _assert_one_form_matches(one_form, scalar, delta)


@pytest.mark.parametrize("delta", [0.01, 0.05, 0.2])
def test_handle_derivative_columns_match_scalar_forms(delta):
    _assert_one_form_matches(handle_f_d, _scalar_handle_f_d, delta)
    _assert_one_form_matches(handle_g_d, _scalar_handle_g_d, delta)


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
            -_scalar_handle_f(w2, DELTA) + _scalar_handle_g(rho2, DELTA)


def _rows_across_the_windows(nxy, nzw):
    """Random rows, and rows of S_1 whose |w|^2 and rho^2 fall in the blend windows."""
    scaled = rng.standard_normal((40, 2 * nxy + 2 * nzw)) * rng.uniform(0.2, 1.5, (40, 1))
    return np.vstack([scaled, surgery.sample_s1_points(rng, 40, nxy, nzw, DELTA)])


@pytest.mark.parametrize("nxy, nzw", [(0, 2), (1, 2), (1, 3)])
def test_margins_match_scalar_loop(nxy, nzw):
    base = 2 * nxy
    pts = _rows_across_the_windows(nxy, nzw)
    ref = np.empty(len(pts))
    for row in range(len(pts)):
        xy2 = z2 = w2 = 0.0
        for i in range(base):
            xy2 += pts[row, i] * pts[row, i]
        for i in range(nzw):
            z2 += pts[row, base + i] * pts[row, base + i]
            w2 += pts[row, base + nzw + i] * pts[row, base + nzw + i]
        # g' at the rho^2 of the level function and the page flow
        rho2, _ = _loop_norms(pts[row], nxy, nzw)
        ref[row] = (0.5 * xy2 + 2.0 * z2) * _scalar_handle_g_d(rho2, DELTA) \
            + w2 * _scalar_handle_f_d(w2, DELTA)
    got = surgery.transversality_margins(pts, nxy, nzw, DELTA)
    assert np.array_equal(got, ref)


def test_level_and_wnorm2_rows_match_lone_states():
    for nxy, nzw in [(0, 2), (1, 2), (1, 3)]:
        batch = _rows_across_the_windows(nxy, nzw)
        for value in (surgery.level_value(nxy, nzw, DELTA), surgery.wnorm2_value(nxy, nzw)):
            assert np.array_equal(value(batch), [value(u) for u in batch])


def _twist_reference(u, profile, d):
    """The twist of one point as first written: np.linalg.norm and branches."""
    q, p = u[:d], u[d:]
    norm = np.linalg.norm(p)
    if norm == 0.0:
        return np.concatenate([(-1.0 if profile.k % 2 else 1.0) * q, p])
    if norm >= profile.p0:
        return u.copy()
    t = twist_g1(norm, profile.p0, profile.k)
    c, s = math.cos(t), math.sin(t)
    return np.concatenate([c * q + (s / norm) * p, -norm * s * q + c * p])


def _twist_rows(n, profile):
    """Points with p = 0, with 0 < |p| < p0 and with |p| >= p0."""
    d = n + 1
    rows = sphere.random_sphere_points(rng, 40, n, 0.0, 2.0 * profile.p0)
    rows[:3, d:] = 0.0
    norms = np.linalg.norm(rows[:, d:], axis=1)
    assert (norms == 0.0).any() and (norms >= profile.p0).any()
    assert ((norms > 0.0) & (norms < profile.p0)).any()
    return rows


@pytest.mark.parametrize("n, profile", [(1, DehnTwistProfile(1.0, 1)),
                                        (2, DehnTwistProfile(1.3, 2)),
                                        (3, DehnTwistProfile(0.7, 3))])
def test_twist_map_rows_match_lone_images(n, profile):
    rows = _twist_rows(n, profile)
    before = rows.copy()
    twist = sphere.dehn_twist_map(profile, n).func
    out = twist(rows)
    assert np.array_equal(rows, before)  # the batch is not written to
    lone = [twist(u) for u in rows]
    assert np.array_equal(out, lone)
    assert np.array_equal(lone, [_twist_reference(u, profile, n + 1) for u in rows])


@pytest.mark.parametrize("n, profile", [(1, DehnTwistProfile(1.0, 1)),
                                        (3, DehnTwistProfile(0.7, 3))])
def test_twist_map_rotates_in_blocks_with_the_bits_of_one_block(monkeypatch, n, profile):
    # blocks of 7 turning rows, the last one short, against the whole batch
    rows = _twist_rows(n, profile)
    whole = sphere.dehn_twist_map(profile, n).func(rows)
    monkeypatch.setattr(sphere, "_TWIST_ROWS", 7)
    assert np.array_equal(sphere.dehn_twist_map(profile, n).func(rows), whole)


@pytest.mark.parametrize("nzw, nxy", [(2, 0), (2, 1), (3, 0)])
def test_straightening_rows_match_lone_points(nzw, nxy):
    rows = rng.standard_normal((30, 1 + 2 * nzw + 2 * nxy))
    mapping = surgery.psi_w_map(nzw, nxy)
    images = mapping.func(rows)
    assert np.array_equal(images, [mapping.func(u) for u in rows])
    jac = mapping.jac(rows)
    assert jac.flags.c_contiguous
    assert np.array_equal(jac, [mapping.jac(u) for u in rows])
    # three stacks of directions, one vector per row in each
    vecs = rng.standard_normal((3,) + rows.shape)
    target, source = surgery.alpha_model_form(nxy, nzw), surgery.alpha_chart_form(nzw, nxy)
    assert np.array_equal(forms.pullback_eval(mapping, target, rows, [vecs]),
                          [[forms.pullback_eval(mapping, target, u, [v]) for u, v in zip(rows, vs)]
                           for vs in vecs])
    assert np.array_equal(source(rows, vecs), [[source(u, v) for u, v in zip(rows, vs)]
                                               for vs in vecs])


@pytest.mark.parametrize("c_val", [1.0, 4.0, 9.0])
def test_conformality_rows_match_lone_points(c_val):
    # rescaling-conformality's pullback: 30 chart rows, each against the 7 basis vectors
    rows = rng.standard_normal((30, 7))
    mapping, source = surgery.phi_c_map(2, 1, c_val), surgery.alpha_chart_form(2, 1)
    eye = np.eye(7)
    vecs = np.broadcast_to(eye[:, None], (7, 30, 7))
    assert np.array_equal(forms.pullback_eval(mapping, source, rows, [vecs]),
                          [[forms.pullback_eval(mapping, source, u, [v]) for u in rows]
                           for v in eye])
    assert np.array_equal(source(rows, vecs), [[source(u, v) for u in rows] for v in eye])


def test_fd_jacobian_rows_match_lone_jacobians():
    for func, rows in ((sphere.dehn_twist_map(DehnTwistProfile(1.0, 1), 2).func,
                        _twist_rows(2, DehnTwistProfile(1.0, 1))),
                       (surgery.psi_w_map(2, 1).func, rng.standard_normal((30, 7)))):
        jac = forms.fd_jacobian(func, rows, 1e-5)
        assert jac.shape == (len(rows), func(rows[0]).size, rows.shape[1])
        assert jac.flags.c_contiguous
        assert np.array_equal(jac, [forms.fd_jacobian(func, u, 1e-5) for u in rows])


def _fd_jacobian_reference(func, x, h):
    """fd_jacobian as first written: one pair of calls per coordinate direction."""
    eye = np.eye(x.shape[-1])
    return np.stack([(func(x + h * e) - func(x - h * e)) / (2.0 * h) for e in eye], axis=-1)


def test_fd_jacobian_repeats_one_call_per_direction_bitwise():
    for func, rows in ((sphere.dehn_twist_map(DehnTwistProfile(1.0, 1), 3).func,
                        _twist_rows(3, DehnTwistProfile(1.0, 1))),
                       (surgery.psi_w_map(2, 1).func, rng.standard_normal((30, 7)))):
        for h in (1e-5, 1e-3):
            assert np.array_equal(forms.fd_jacobian(func, rows, h),
                                  _fd_jacobian_reference(func, rows, h))
            assert np.array_equal(forms.fd_jacobian(func, rows[0], h),
                                  _fd_jacobian_reference(func, rows[:1], h)[0])


def test_fd_jacobian_refuses_a_row_that_turns_non_finite():
    def func(u):
        return np.where(u > 1.0, np.inf, u)

    rows = rng.uniform(-0.5, 0.5, (5, 3))
    assert np.isfinite(forms.fd_jacobian(func, rows)).all()
    rows[3, 1] = 1.0  # the forward difference along e_1 leaves the finite range
    with pytest.raises(ValueError, match="non-finite"):
        forms.fd_jacobian(func, rows)
    with pytest.raises(ValueError, match="non-finite"):
        forms.fd_jacobian(func, rows[3])


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
    out = surgery.level_projection(0, 2, 0.1)(v[None].copy())
    assert abs(surgery.level_value(0, 2, 0.1)(out)[0]) < 1e-12
    with pytest.raises(ValueError, match="row batch"):
        surgery.level_projection(0, 2, 0.1)(v.copy())


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
    assert np.array_equal(flows.flow_record(fld, u0, 1.0, step).points[-1],
                          flows.flow_fixed_time(fld, u0, 1.0, step))


def _backward_pendulum(u):
    return -_pendulum(u)


def test_batch_rows_equal_single_row_flows():
    starts = rng.uniform(-1.0, 1.0, (7, 2))
    batch = k.rk4_final(_backward_pendulum, starts, 0.73, 0.05)
    for row, start in zip(batch, starts):
        assert np.array_equal(row, k.rk4_final(_backward_pendulum, start, 0.73, 0.05))


def _signed_rk4_reference(rhs, u, t, step):
    """rk4_final as first written, for signed time t: |t| in steps of sign t."""
    sgn, remaining = (1.0 if t >= 0.0 else -1.0), abs(t)
    for _ in range(math.ceil(remaining / step - 1e-9)):
        h = min(step, remaining)
        remaining -= h
        u = k.rk4_step(rhs, u, sgn * h)
    return u


def test_negated_field_repeats_the_signed_backward_flow():
    # RK4 stages of the negated field are the negated stages, so the forward
    # flow of -X is the old signed-time backward flow of X bit for bit
    liouville = surgery.liouville_field(1, 2)
    for rhs, starts in ((_pendulum, rng.uniform(-1.0, 1.0, (7, 2))),
                        (liouville, rng.standard_normal((5, 6)))):
        back = k.rk4_final(lambda u: -rhs(u), starts, 0.73, 0.05)
        assert np.array_equal(back, _signed_rk4_reference(rhs, starts, -0.73, 0.05))
    # handle_memberships' form of the negated Liouville field: (-s) u is -(s u)
    starts = rng.standard_normal((5, 6))
    backward = -liouville(np.ones(6))
    assert np.array_equal(k.rk4_final(lambda u: backward * u, starts, 0.73, 0.05),
                          _signed_rk4_reference(liouville, starts, -0.73, 0.05))


@pytest.mark.parametrize("kernel", [k.rk4_final, k.rk4_record])
def test_fixed_time_flows_refuse_a_negative_time(kernel):
    with pytest.raises(ValueError, match="negated field"):
        kernel(_pendulum, np.array([0.5, 0.0]), -0.1, 0.05)
    with pytest.raises(ValueError, match="negated field"):
        kernel(_pendulum, np.zeros((3, 2)), -1e-300, 0.05)


def _bad_shape(u):
    return np.zeros(u.shape[-1] + 1)


def _nan_past_half(u):
    # moves every coordinate at unit speed, and turns NaN once x passes 0.5
    return np.where(u[..., :1] < 0.5, 1.0, np.nan) * np.ones_like(u)


@pytest.mark.parametrize("rhs,match", [(_bad_shape, "shape"), (_nan_past_half, "finite")])
def test_bad_fields_raise_from_every_flow(rhs, match):
    cfg = IntegratorConfig(step=0.1, max_time=2.0)

    def never(u):
        return 1.0

    start = np.zeros(2)
    with pytest.raises(ValueError, match=match):
        flows.flow_fixed_time(rhs, start, 1.5, cfg.step)
    with pytest.raises(ValueError, match=match):
        flows.flow_record(rhs, start, 1.5, cfg.step)
    with pytest.raises(ValueError, match=match):
        flows.flow_until_event(rhs, start, never, 0.0, cfg)
    with pytest.raises(ValueError, match=match):
        k.rk4_final(rhs, np.zeros((3, 2)), 1.5, 0.1)
    with pytest.raises(ValueError, match=match):
        flows.flow_rows_until_event(rhs, np.zeros((3, 2)), lambda u: np.ones(len(u)), 0.0, cfg)


def test_batch_field_returning_one_row_raises():
    with pytest.raises(ValueError, match="shape"):
        k.rk4_final(lambda u: np.ones(2), np.zeros((3, 2)), 1.0, 0.1)


def test_event_time_is_bisected_inside_the_last_step():
    # x' = 1 from 0 meets x = 0.2345 between steps of 0.1
    traj = flows.flow_until_event(
        lambda u: np.ones_like(u), np.zeros(1), lambda u: float(u[0]), 0.2345,
        IntegratorConfig(step=0.1, max_time=1.0, event_tol=1e-12))
    assert math.isclose(traj.t_event, 0.2345, abs_tol=1e-12)
    assert traj.times[-1] == traj.t_event and len(traj.times) == 4
    assert abs(traj.points[-1][0] - 0.2345) <= 1e-12


def test_event_kernel_refuses_a_lone_start():
    with pytest.raises(ValueError, match=r"row batch must have shape \(m, d\)"):
        k.rk4_until_event(_pendulum, np.zeros(2), _x_event, 0.3, 0.05, 3.0, 1e-12)


def _x_event(u):
    return u[..., 0]  # a float for a lone state, a column for a batch


def _lone_pendulum_flow(field, start):
    """The lone flow of one start along the field."""
    return flows.flow_until_event(field, start, _x_event, 0.3,
                                  IntegratorConfig(step=0.05, max_time=3.0, event_tol=1e-12))


# forward, and backward as the forward flow of the negated field
@pytest.mark.parametrize("field", [_pendulum, _backward_pendulum], ids=["forward", "backward"])
def test_batched_event_rows_equal_one_row_runs(field):
    step, max_time = 0.05, 3.0
    starts = np.vstack([[0.3, 0.0],    # on the event at t = 0
                        [0.0, 0.0],    # an equilibrium: never crosses
                        [0.1, 0.0],    # oscillates below the target: never crosses
                        rng.uniform(-1.0, 1.0, (9, 2))])
    t_batch, ends = k.rk4_until_event(field, starts, _x_event, 0.3, step, max_time, 1e-12)
    crossing_steps = set()
    for start, t_row, end in zip(starts, t_batch, ends):
        lone = _lone_pendulum_flow(field, start)
        assert np.array_equal(end, lone.points[-1])
        if lone.t_event is None:
            assert math.isnan(t_row)
            assert lone.times[-1] == pytest.approx(max_time)
        else:
            assert t_row == lone.t_event
            crossing_steps.add(math.floor(lone.t_event / step))
    assert t_batch[0] == 0.0 and np.isnan(t_batch[1]) and np.isnan(t_batch[2])
    assert len(crossing_steps) >= 4  # rows froze on different steps


@pytest.mark.parametrize("field", [_pendulum, _backward_pendulum], ids=["forward", "backward"])
def test_recorded_event_rows_equal_one_row_trajectories(field):
    # a row on the event at t = 0, rows that never cross, and rows that cross
    # on different steps; each row keeps its lone times, states and t_event
    starts = np.vstack([[0.3, 0.0], [0.0, 0.0], [0.1, 0.0],
                        rng.uniform(-1.0, 1.0, (9, 2))])
    t_batch, ends, paths = k.rk4_until_event(field, starts, _x_event, 0.3, 0.05, 3.0,
                                             1e-12, record=True)
    for start, t_row, end, (times, states) in zip(starts, t_batch, ends, paths):
        lone = _lone_pendulum_flow(field, start)
        assert np.array_equal(times, lone.times) and np.array_equal(states, lone.points)
        assert np.array_equal(end, lone.points[-1])
        assert (lone.t_event is None and math.isnan(t_row)) or t_row == lone.t_event
    assert len(paths[0][0]) == 1 and len(paths[1][0]) == 61  # at rest, and all 60 steps


def test_batch_trajectories_equal_lone_page_flows():
    # the page flow from S_1 to page +eps, with a start already on that page
    # and one whose page value never reaches it within the time bound
    fld = surgery.handle_hamiltonian_rhs(0, 2, DELTA)
    page = surgery.page_value(0, 2)
    cfg = IntegratorConfig(step=1e-3, max_time=0.15, event_tol=1e-12)
    starts = []
    for r_norm in (0.1, 0.3, 0.6, 0.8):
        start = ModelPoint(np.zeros(0), np.zeros(0), np.array([-0.1, r_norm]),
                           np.array([1.0, 0.0]))
        starts.append(surgery.limit_transfer_to_s1(start, DELTA))
    starts += [np.array([0.1, 0.5, 1.0, 0.0]), np.array([-0.5, 0.0, 1.0, 0.0])]
    trajs = flows.trajectories_until_event(fld, starts, page, 0.1, cfg)
    for start, traj in zip(starts, trajs):
        lone = flows.flow_until_event(fld, start, page, 0.1, cfg)
        assert np.array_equal(traj.times, lone.times)
        assert np.array_equal(traj.points, lone.points)
        assert traj.t_event == lone.t_event
    assert trajs[4].t_event == 0.0 and trajs[5].t_event is None


def test_liouville_a_field_and_unit_w_projection_rows_equal_lone_states():
    for nxy, nzw in [(0, 2), (1, 2), (0, 4)]:
        batch = rng.standard_normal((30, 2 * nxy + 2 * nzw)) * rng.uniform(0.2, 1.5, (30, 1))
        batch[0, 2 * nxy + nzw:] = 0.0  # w = 0 is left as it is
        field = surgery.liouville_a_field(nxy, nzw, 1000.0)
        assert np.array_equal(field(batch), [field(u) for u in batch])
        project = surgery.unit_w_projection(nxy, nzw)
        lone = [project(u.copy()) for u in batch]
        rows = batch.copy()
        assert project(rows) is rows  # in place, as on a lone state
        assert np.array_equal(rows, lone)


def test_batched_reeb_record_equals_lone_records():
    fld = surgery.reeb_field(0, 2)
    unit_w = surgery.unit_w_projection(0, 2)
    starts = surgery.random_s_minus1_points(rng, 5, 0, 2)
    traj = flows.flow_record(fld, starts, 0.3, 1e-3, unit_w)
    for i, start in enumerate(starts):
        lone = flows.flow_record(fld, start, 0.3, 1e-3, unit_w)
        assert np.array_equal(traj.times, lone.times)
        assert np.array_equal(traj.points[:, i], lone.points)


def _newton_reference(u, nxy, nzw, delta):
    """level_projection of one state as first written, in floats."""
    b = 2 * nxy + nzw
    for _ in range(8):
        rho2, w2 = _loop_norms(u, nxy, nzw)
        fval = -_scalar_handle_f(w2, delta) + _scalar_handle_g(rho2, delta)
        if abs(fval) < 1e-13:
            break
        grad = np.empty(u.size)
        grad[:b] = (2.0 * _scalar_handle_g_d(rho2, delta)) * u[:b]
        grad[b:] = (-2.0 * _scalar_handle_f_d(w2, delta)) * u[b:]
        gnorm2 = 0.0
        for g in grad:
            gnorm2 += g * g
        if gnorm2 == 0.0:
            break
        u -= (fval / gnorm2) * grad
    return u


@pytest.mark.parametrize("nxy, nzw", [(0, 2), (1, 2), (1, 3)])
def test_level_projection_rows_equal_lone_newton_steps(nxy, nzw):
    # rows already on the level, rows that need several steps, and the origin,
    # where the gradient vanishes
    # (the batch spans more than one block of Newton rows)
    d = 2 * nxy + 2 * nzw
    rows = np.vstack([np.zeros(d), surgery.sample_s1_points(rng, 10, nxy, nzw, DELTA),
                      rng.standard_normal((1100, d)) * rng.uniform(0.3, 1.5, (1100, 1))])
    project = surgery.level_projection(nxy, nzw, DELTA)
    lone = [project(u[None].copy())[0] for u in rows]
    ref = [_newton_reference(u.copy(), nxy, nzw, DELTA) for u in rows[:50]]
    out = rows.copy()
    assert project(out) is out
    assert np.array_equal(out, lone) and np.array_equal(out[:50], ref)
    assert np.array_equal(out[0], np.zeros(d))
