"""Embedded sphere cotangent bundle: points, geodesic flow, twists."""

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


def test_random_sphere_point_redraws_a_degenerate_direction():
    # the first fiber draw is parallel to q, so its tangent part vanishes
    rng_s = _ScriptedRng([[1.0, 0.0], [2.0, 0.0], [0.0, 3.0], [1.0, 1.0]])
    pt = sphere.random_sphere_point(rng_s, 1, 0.0, 2.0)
    assert np.array_equal(pt.q, [0.0, 1.0])
    assert np.allclose(pt.p, [1.0, 0.0])
    assert not rng_s.normals


@pytest.mark.parametrize("n", [0, -1])
def test_random_sphere_point_rejects_dimension_below_one(n):
    with pytest.raises(ValueError, match="at least 1"):
        sphere.random_sphere_point(np.random.default_rng(0), n)


def test_sphere_point_validates_constraints():
    with pytest.raises(ValueError):
        SpherePoint(np.array([1.0, 1.0]), np.zeros(2))
    with pytest.raises(ValueError):
        SpherePoint(np.array([1.0, 0.0]), np.array([0.5, 0.0]))


def test_canonical_form_values():
    lam = canonical_one_form(4)
    pt = SpherePoint(np.array([1.0, 0.0]), np.array([0.0, 0.3])).as_array()
    assert lam(pt, np.array([0.0, 1.0, 0.0, 0.0])) == pytest.approx(0.3)
    assert lam(pt, np.array([0.0, 0.0, 1.0, -2.0])) == 0.0
    zero = SpherePoint(np.array([0.0, 1.0]), np.zeros(2)).as_array()
    assert lam(zero, rng.standard_normal(4)) == 0.0


def test_geodesic_flow_quarter_and_half_period():
    pt = SpherePoint(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    out = geodesic_flow(pt, math.pi / 2.0)
    assert np.allclose(out.q, [0.0, 1.0], atol=1e-12)
    assert np.allclose(out.p, [-1.0, 0.0], atol=1e-12)
    pt2 = SpherePoint(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
    out2 = geodesic_flow(pt2, math.pi)
    assert np.allclose(out2.q, [-1.0, 0.0], atol=1e-12)
    assert np.allclose(out2.p, [0.0, -2.0], atol=1e-12)
    assert np.allclose(geodesic_flow(pt2, 0.0).as_array(), pt2.as_array())


def test_geodesic_flow_preserves_norm_and_constraints():
    for _ in range(50):
        pt = sphere.random_sphere_point(rng, 2, 0.2, 3.0)
        t = float(rng.uniform(-10, 10))
        out = geodesic_flow(pt, t)
        assert abs(np.linalg.norm(out.p) - np.linalg.norm(pt.p)) < 1e-9
        assert abs(out.q @ out.q - 1.0) < 1e-9
        assert abs(out.q @ out.p) < 1e-9


def test_geodesic_flow_rejects_zero_fiber():
    with pytest.raises(ValueError, match="normalization"):
        geodesic_flow(SpherePoint(np.array([1.0, 0.0]), np.zeros(2)), 0.5)


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
    expected = geodesic_flow(pt, twist_g1(0.5, profile.p0, profile.k))
    out = dehn_twist(pt, profile)
    assert np.allclose(out.as_array(), expected.as_array(), atol=1e-14)


def test_twist_batch_agrees_with_pointwise():
    profile = DehnTwistProfile(1.0, 2)
    pts = [sphere.random_sphere_point(rng, 2, 0.0, 2.0) for _ in range(40)]
    pts.append(SpherePoint(np.array([0.0, 0.0, 1.0]), np.zeros(3)))
    q = np.array([p.q for p in pts])
    p = np.array([p.p for p in pts])
    q_out, p_out = dehn_twist_batch(q, p, profile)
    for i, pt in enumerate(pts):
        single = dehn_twist(pt, profile)
        assert np.allclose(q_out[i], single.q, atol=1e-13)
        assert np.allclose(p_out[i], single.p, atol=1e-13)


def test_tangent_frame_spans_constraint_directions():
    pt = sphere.random_sphere_point(rng, 3, 0.3, 1.0)
    frame = tangent_frames(pt.q[None], pt.p[None])[0]
    assert len(frame) == 6
    d = pt.q.size
    for v in frame:
        assert abs(pt.q @ v[:d]) < 1e-12
        assert abs(pt.q @ v[d:] + pt.p @ v[:d]) < 1e-12
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
        pt = sphere.random_sphere_point(rng, n, 1e-3, 2.0 * profile.p0)
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
    rows += [sphere.random_sphere_point(frame_rng, n, 0.0, 2.0).as_array()
             for _ in range(count - len(rows))]
    return np.array(rows)


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
