"""Embedded sphere cotangent bundle: sampled rows, geodesic flow, twists."""

import math

import numpy as np
import pytest
from conftest import declarations

from contactlab import sphere
from contactlab.forms import fd_jacobian
from contactlab.profiles import DehnTwistProfile, twist_g1
from contactlab.sphere import (SpherePoint, canonical_one_form, dehn_twist,
                               dehn_twist_batch, geodesic_flow, tangent_frames)

rng = np.random.default_rng(5)


class _ScriptedRng:
    """Hands out fixed normal draws, so a degenerate first draw can be forced."""

    def __init__(self, normals):
        self.normals = [np.asarray(v, dtype=float) for v in normals]

    def standard_normal(self, size):
        return self.normals.pop(0)

    def random(self):
        return 0.5


def test_sphere_sampler_redraws_a_degenerate_direction():
    # the first fiber draw is parallel to q, so its tangent part vanishes
    rng_s = _ScriptedRng([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    (row,) = sphere.random_sphere_points(rng_s, 1, 1, 0.0, 2.0)
    assert np.array_equal(row[:2], [0.0, 1.0])
    assert np.allclose(row[2:], [1.0, 0.0])
    assert not rng_s.normals


def test_random_frame_redraws_both_vectors_of_a_degenerate_draw():
    rng_s = _ScriptedRng([[3.0, 0.0], [1.0, 0.0], [0.0, 2.0], [1.0, -1.0]])
    q, v = sphere.random_frame(rng_s, 2)
    assert np.array_equal(q, [0.0, 1.0]) and np.allclose(v, [1.0, 0.0])
    assert not rng_s.normals


@pytest.mark.parametrize("d", [1, 0])
def test_random_frame_rejects_dimension_below_two(d):
    with pytest.raises(ValueError, match="at least 2"):
        sphere.random_frame(np.random.default_rng(0), d)


def _monodromy_frame_reference(rng, nzw):
    """monodromy._random_frame as first written, which the twist-smooth
    check also wrote out by hand: no redraw."""
    w = rng.standard_normal(nzw)
    w /= np.linalg.norm(w)
    v = rng.standard_normal(nzw)
    v -= (v @ w) * w
    v /= np.linalg.norm(v)
    return w, v


def _sampler_frame_reference(rng, d):
    """The frame of random_sphere_points' loop as first written."""
    while True:
        q = rng.standard_normal(d)
        q /= np.linalg.norm(q)
        v = rng.standard_normal(d)
        v -= (v @ q) * q
        norm = np.linalg.norm(v)
        if norm >= 1e-12:
            break
    return q, v / norm


@pytest.mark.parametrize("reference", [_monodromy_frame_reference, _sampler_frame_reference])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_random_frame_repeats_the_hand_written_draws_bitwise(reference, d):
    frame_rng, ref_rng = np.random.default_rng(d), np.random.default_rng(d)
    for _ in range(200):
        q, v = sphere.random_frame(frame_rng, d)
        q_ref, v_ref = reference(ref_rng, d)
        assert np.array_equal(q, q_ref) and np.array_equal(v, v_ref)
    assert frame_rng.random() == ref_rng.random()  # the same draws, in the same order


@pytest.mark.parametrize("n", [0, -1])
def test_sphere_sampler_rejects_dimension_below_one(n):
    with pytest.raises(ValueError, match="at least 1"):
        sphere.random_sphere_points(np.random.default_rng(0), 3, n, 0.0, 2.0)


def _sphere_point_reference(rng, n, p_low, p_high):
    """random_sphere_point as first written: one validated point per call."""
    while True:
        q = rng.standard_normal(n + 1)
        q /= np.linalg.norm(q)
        v = rng.standard_normal(n + 1)
        v -= (v @ q) * q
        norm = np.linalg.norm(v)
        if norm >= 1e-12:
            break
    target = p_low + (p_high - p_low) * rng.random()
    return SpherePoint(q, v / norm * target)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_sphere_rows_repeat_the_lone_points_bitwise(n):
    for seed, (p_low, p_high) in enumerate([(0.0, 2.0), (1e-3, 2.0), (0.0, 0.0), (1.0, 3.0)]):
        ref_rng, rng_ = np.random.default_rng([n, seed]), np.random.default_rng([n, seed])
        ref = [_sphere_point_reference(ref_rng, n, p_low, p_high).as_array()
               for _ in range(300)]
        rows = sphere.random_sphere_points(rng_, 300, n, p_low, p_high)
        assert rows.shape == (300, 2 * (n + 1))
        assert np.array_equal(rows, ref)
        assert rng_.random() == ref_rng.random()  # the same draws, in the same order
    assert sphere.random_sphere_points(rng, 0, n, 0.0, 2.0).shape == (0, 2 * (n + 1))


def test_sphere_point_validates_constraints():
    with pytest.raises(ValueError):
        SpherePoint(np.array([1.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        SpherePoint(np.array([1.0, 0.0]), np.array([0.5, 0.0]))


def test_canonical_form_values():
    lam = canonical_one_form(4)
    pt = np.array([1.0, 0.0, 0.0, 0.3])  # [q | p]
    assert lam(pt, np.array([0.0, 1.0, 0.0, 0.0])) == pytest.approx(0.3)
    assert lam(pt, np.array([0.0, 0.0, 1.0, -2.0])) == 0.0
    zero = np.array([0.0, 1.0, 0.0, 0.0])
    assert lam(zero, rng.standard_normal(4)) == 0.0


def test_geodesic_flow_quarter_and_half_period():
    q, p = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    q_t, p_t = geodesic_flow(q, p, math.pi / 2.0)
    assert np.allclose(q_t, [0.0, 1.0], atol=1e-12)
    assert np.allclose(p_t, [-1.0, 0.0], atol=1e-12)
    p2 = np.array([0.0, 2.0])
    q_t, p_t = geodesic_flow(q, p2, math.pi)
    assert np.allclose(q_t, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(p_t, [0.0, -2.0], atol=1e-12)
    assert np.allclose(np.concatenate(geodesic_flow(q, p2, 0.0)), [1.0, 0.0, 0.0, 2.0])


def test_geodesic_flow_preserves_norm_and_constraints():
    for row in sphere.random_sphere_points(rng, 50, 2, 0.2, 3.0):
        q, p = row[:3], row[3:]
        q_t, p_t = geodesic_flow(q, p, float(rng.uniform(-10, 10)))
        assert abs(np.linalg.norm(p_t) - np.linalg.norm(p)) < 1e-9
        assert abs(q_t @ q_t - 1.0) < 1e-9
        assert abs(q_t @ p_t) < 1e-9


def test_geodesic_flow_rejects_zero_fiber():
    with pytest.raises(ValueError, match="normalization"):
        geodesic_flow(np.array([1.0, 0.0]), np.zeros(2), 0.5)


def test_twist_zero_fiber_parity():
    q = np.array([1.0, 0.0])
    odd = dehn_twist(SpherePoint(q, np.zeros(2)), DehnTwistProfile(1.0, 1))
    assert np.allclose(odd.q, -q) and np.allclose(odd.p, 0.0)
    even = dehn_twist(SpherePoint(q, np.zeros(2)), DehnTwistProfile(1.0, 2))
    assert np.allclose(even.q, q) and np.allclose(even.p, 0.0)


def test_twist_identity_outside_support():
    profile = DehnTwistProfile(1.0, 1)
    pt = SpherePoint(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    out = dehn_twist(pt, profile)
    assert np.array_equal(out.q, pt.q) and np.array_equal(out.p, pt.p)


def test_twist_matches_geodesic_flow_at_profile_angle():
    profile = DehnTwistProfile(1.0, 1)
    pt = SpherePoint(np.array([1.0, 0.0]), np.array([0.0, 0.5]))
    expected = geodesic_flow(pt.q, pt.p, twist_g1(0.5, profile.p0, profile.k))
    out = dehn_twist(pt, profile)
    assert np.allclose(out.as_array(), np.concatenate(expected), atol=1e-14)


def test_twist_batch_agrees_with_pointwise():
    profile = DehnTwistProfile(1.0, 2)
    rows = sphere.random_sphere_points(rng, 40, 2, 0.0, 2.0)
    pts = [SpherePoint(row[:3], row[3:]) for row in rows]
    pts.append(SpherePoint(np.array([0.0, 0.0, 1.0]), np.zeros(3)))
    q = np.array([p.q for p in pts])
    p = np.array([p.p for p in pts])
    q_out, p_out = dehn_twist_batch(q, p, profile)
    for i, pt in enumerate(pts):
        single = dehn_twist(pt, profile)
        assert np.allclose(q_out[i], single.q, atol=1e-13)
        assert np.allclose(p_out[i], single.p, atol=1e-13)


def test_tangent_frame_spans_constraint_directions():
    (row,) = sphere.random_sphere_points(rng, 1, 3, 0.3, 1.0)
    d = 4
    q, p = row[:d], row[d:]
    frame = tangent_frames(q[None], p[None])[0]
    assert len(frame) == 6
    for v in frame:
        assert abs(q @ v[:d]) < 1e-12
        assert abs(q @ v[d:] + p @ v[:d]) < 1e-12
    assert np.linalg.matrix_rank(np.array(frame)) == 6


def test_twist_symplectomorphism_spot_check():
    from contactlab.suites import twist_pullback_residual
    res = twist_pullback_residual(np.random.default_rng(2), 2, 40, DehnTwistProfile(1.0, 1))
    assert res < 1e-6


def _dlam_reference(u, v):
    d = u.size // 2
    return float(u[d:] @ v[:d] - v[d:] @ u[:d])


def _twist_residual_reference(rng, n, count, profile, h_fd):
    """twist_pullback_residual as first written: one lone Jacobian per point,
    and both frame vectors pushed again for every pair."""
    twist = sphere.dehn_twist_map(profile, n)
    worst = 0.0
    for _ in range(count):
        pt = _sphere_point_reference(rng, n, 1e-3, 2.0 * profile.p0)
        u = pt.as_array()
        jac = fd_jacobian(twist.func, u, h_fd)
        frame = tangent_frames(pt.q[None], pt.p[None])[0]
        for i in range(len(frame)):
            for j in range(i + 1, len(frame)):
                lhs = _dlam_reference(jac @ frame[i], jac @ frame[j])
                rhs = _dlam_reference(frame[i], frame[j])
                worst = max(worst, abs(lhs - rhs))
    return worst


@pytest.mark.parametrize("n", [1, 2, 3])
def test_twist_residual_repeats_the_pointwise_reference_bitwise(n):
    from contactlab.suites import twist_pullback_residual
    for seed, profile in ((0, DehnTwistProfile(1.0, 1)), (5, DehnTwistProfile(1.3, 2))):
        ref_rng, rng_ = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = _twist_residual_reference(ref_rng, n, 40, profile, 1e-5)
        assert twist_pullback_residual(rng_, n, 40, profile) == ref
        assert rng_.random() == ref_rng.random()  # the same draws, in the same order


def _frame_reference(q, p):
    """A point's tangent frame as first written: Gram-Schmidt over the lone columns."""
    d = q.size
    mat = np.eye(d) - np.outer(q, q)
    basis = []
    for col in range(d):
        v = mat[:, col]
        for u in basis:
            v = v - (v @ u) * u
        norm = np.linalg.norm(v)
        if norm > 1e-8:
            basis.append(v / norm)
        if len(basis) == d - 1:
            break
    return ([np.concatenate([u, -(p @ u) * q]) for u in basis]
            + [np.concatenate([np.zeros(d), u]) for u in basis])


def _frame_rows(n, count):
    """(count, 2(n+1)) bundle points, with axis-aligned and coordinate-plane q among them."""
    frame_rng = np.random.default_rng(n)
    d = n + 1
    qs = [np.eye(d)[i] * s for i in range(d) for s in (1.0, -1.0)]
    qs += [np.array([1.0, 1.0] + [0.0] * (d - 2)) / math.sqrt(2.0),
           np.array([0.0] * (d - 2) + [0.6, -0.8])]
    rows = [np.concatenate([q, 0.7 * np.roll(q, 1) - 0.7 * (q @ np.roll(q, 1)) * q]) for q in qs]
    return np.vstack([rows, sphere.random_sphere_points(frame_rng, count - len(rows), n,
                                                         0.0, 2.0)])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_frame_batch_repeats_the_lone_gram_schmidt_bitwise(n):
    rows = _frame_rows(n, 400)
    d = n + 1
    # strided views of the row batch, as the residual checks pass them
    frames = sphere.tangent_frames(rows[:, :d], rows[:, d:])
    assert frames.shape == (len(rows), 2 * n, 2 * d)
    for u, frame in zip(rows, frames):
        ref = _frame_reference(u[:d].copy(), u[d:].copy())
        assert np.array_equal(frame, ref)
        assert np.array_equal(tangent_frames(u[None, :d], u[None, d:])[0], ref)


def test_frame_callers_take_one_batch_per_dimension(monkeypatch):
    from contactlab import suites
    calls = []
    batch = sphere.tangent_frames

    def counted(q, p):
        calls.append(len(q))
        return batch(q, p)

    monkeypatch.setattr(sphere, "tangent_frames", counted)
    for n in (1, 2, 3):
        suites.twist_pullback_residual(np.random.default_rng(n), n, 30, DehnTwistProfile())
    assert calls == [30, 30, 30]
    calls.clear()
    for n, k in ((2, 1), (3, 1), (3, 2)):
        suites.strictness_residual(np.random.default_rng(n), n, k, 25)
    assert calls == [25, 25, 25]


def test_twist_check_images_stay_on_the_bundle(monkeypatch):
    # the twist checks map row batches, which no SpherePoint validates: every
    # image row must still satisfy the bundle constraints to SpherePoint's 1e-10
    from contactlab.forms import SmoothMap
    from contactlab.reports import run_check

    checks = ("twist-compact-support", "twist-zero-section-antipode", "twist-k-fold-composition")
    images = []
    twist_map = sphere.dehn_twist_map

    def recorded(profile, n):
        twist = twist_map(profile, n)

        def func(u):
            out = twist.func(u)
            images.append(np.array(out, ndmin=2))
            return out

        return SmoothMap(twist.domain_dim, func)

    monkeypatch.setattr(sphere, "dehn_twist_map", recorded)
    for seed in (0, 5, 103):
        declared = declarations(suite="dehn-twist", seed=seed)
        assert all(run_check(*declared[name]).passed for name in checks)
    rows = np.vstack(images)
    assert len(rows) == 3 * (100 + 50 + 3 * 100 + 1)
    q, p = rows[:, :3], rows[:, 3:]
    assert np.max(np.abs(np.vecdot(q, q) - 1.0)) < 1e-10
    assert np.max(np.abs(np.vecdot(q, p))) < 1e-10
