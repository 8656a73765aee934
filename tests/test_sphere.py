"""Embedded sphere cotangent bundle: points, geodesic flow, twists."""

import math

import numpy as np
import pytest

from contactlab import sphere
from contactlab.profiles import DehnTwistProfile
from contactlab.sphere import (SpherePoint, canonical_form_eval, dehn_twist,
                               dehn_twist_batch, geodesic_flow, tangent_frame)

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
    pt = SpherePoint(np.array([1.0, 0.0]), np.array([0.0, 0.3]))
    assert canonical_form_eval(pt, np.array([0.0, 1.0, 0.0, 0.0])) == pytest.approx(0.3)
    assert canonical_form_eval(pt, np.array([0.0, 0.0, 1.0, -2.0])) == 0.0
    zero = SpherePoint(np.array([0.0, 1.0]), np.zeros(2))
    assert canonical_form_eval(zero, rng.standard_normal(4)) == 0.0


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
    expected = geodesic_flow(pt, profile.g1(0.5))
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
    frame = tangent_frame(pt)
    assert len(frame) == 6
    d = pt.q.size
    for v in frame:
        assert abs(pt.q @ v[:d]) < 1e-12
        assert abs(pt.q @ v[d:] + pt.p @ v[:d]) < 1e-12
    assert np.linalg.matrix_rank(np.array(frame)) == 6


def test_twist_symplectomorphism_spot_check():
    from contactlab.suites import twist_pullback_residual
    res = twist_pullback_residual(np.random.default_rng(2), 2, 40,
                                  DehnTwistProfile(1.0, 1), 1e-5)
    assert res < 1e-6
