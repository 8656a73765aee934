"""Flat surgery model: forms, fields, straightening, transfers, membership."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactlab import forms, surgery
from contactlab.profiles import HandleProfile
from contactlab.sphere import SpherePoint
from contactlab.surgery import (ModelPoint, SurgeryConfig, f_eval,
                                handle_membership, hamiltonian_field_xf,
                                limit_transfer_to_s1, liouville_X, psi_w,
                                psi_w_inverse, phi_c, reeb_s_minus1,
                                theta_page, transfer_to_s1_finite_a,
                                transfer_to_s_minus1, transversality_margin)

rng = np.random.default_rng(9)
PROFILE = HandleProfile(0.05)


def legendrian_point(z, w):
    return ModelPoint(np.zeros(0), np.zeros(0), np.asarray(z, float),
                      np.asarray(w, float))


def test_model_point_block_validation():
    with pytest.raises(ValueError):
        ModelPoint(np.zeros(2), np.zeros(1), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError):
        ModelPoint(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))
    pt = ModelPoint(np.zeros(1), np.zeros(1), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert pt.n == 3 and pt.k == 1
    back = ModelPoint.from_array(pt.as_array(), 1, 2)
    assert np.array_equal(back.as_array(), pt.as_array())


def test_liouville_field_formula():
    pt = ModelPoint(np.array([1.0]), np.array([0.0]),
                    np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    out = liouville_X(pt)
    assert np.allclose(out.x, [0.5]) and np.allclose(out.y, [0.0])
    assert np.allclose(out.z, [0.0, 0.0]) and np.allclose(out.w, [-1.0, 0.0])


def test_straightening_frozen_example():
    sp = SpherePoint(np.array([1.0, 0.0]), np.array([0.0, 0.3]))
    out = psi_w(0.2, sp, np.zeros(0), np.zeros(0))
    assert np.allclose(out.z, [0.2, 0.3])
    assert np.allclose(out.w, [1.0, 0.0])
    assert abs(out.w @ out.w - 1.0) < 1e-14


def test_straightening_zero_section_is_isotropic_sphere():
    sp = SpherePoint(np.array([0.0, 1.0]), np.zeros(2))
    out = psi_w(0.0, sp, np.zeros(0), np.zeros(0))
    assert np.allclose(out.z, 0.0)
    assert abs(np.linalg.norm(out.w) - 1.0) < 1e-14
    # tangent directions of the sphere pair to zero under the contact form
    v = np.array([0.0, 0.0, 1.0, 0.0])  # w-direction orthogonal to w = (0, 1)
    assert abs(surgery.alpha_s_minus1_eval(out, v)) < 1e-14


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_straightening_roundtrip(seed):
    local = np.random.default_rng(seed)
    pt = surgery.random_s_minus1_point(local, 1, 3)
    z, sp, x, y = psi_w_inverse(pt)
    assert abs(sp.q @ sp.p) < 1e-12
    back = psi_w(z, sp, x, y)
    assert np.max(np.abs(back.as_array() - pt.as_array())) < 1e-10


def test_rescaling_values():
    sp = SpherePoint(np.array([1.0, 0.0]), np.array([0.0, 0.3]))
    z, sp2, x, y = phi_c(0.1, sp, np.array([1.0]), np.array([2.0]), 4.0)
    assert z == pytest.approx(0.4)
    assert np.allclose(sp2.p, [0.0, 1.2])
    assert np.allclose(x, [2.0]) and np.allclose(y, [4.0])
    z1, sp1, x1, y1 = phi_c(0.1, sp, np.array([1.0]), np.array([2.0]), 1.0)
    assert z1 == pytest.approx(0.1) and np.allclose(x1, [1.0])
    with pytest.raises(ValueError):
        phi_c(0.1, sp, np.zeros(1), np.zeros(1), -2.0)


def test_handle_function_frozen_values():
    profile = HandleProfile(0.1)
    on_s1 = legendrian_point([math.sqrt(1.5), 0.0], [1.0, 0.0])
    assert f_eval(on_s1, profile) == pytest.approx(0.0, abs=1e-14)
    origin = legendrian_point([0.0, 0.0], [0.0, 0.0])
    assert f_eval(origin, profile) == pytest.approx(-1.0)
    outside = legendrian_point([0.0, 0.0], [2.0, 0.0])
    assert f_eval(outside, profile) == pytest.approx(-(4.0 + 0.1))


def test_transversality_margin_frozen_values():
    profile = HandleProfile(0.1)
    outer = legendrian_point([math.sqrt(1.5), 0.0], [1.0, 0.0])
    assert transversality_margin(outer, profile) == pytest.approx(1.0)
    inner = legendrian_point([1.0, 0.0], [0.8, 0.0])
    assert transversality_margin(inner, profile) == pytest.approx(2.0)


def test_margin_is_half_the_liouville_derivative():
    # dF(X) along the expanding field equals twice the reported margin
    profile = HandleProfile(0.1)
    for _ in range(25):
        pt = ModelPoint(rng.standard_normal(1), rng.standard_normal(1),
                        rng.standard_normal(2), rng.standard_normal(2))
        margin = transversality_margin(pt, profile)
        grad = surgery.grad_f(pt, profile)
        x_vec = liouville_X(pt).as_array()
        assert abs(float(grad @ x_vec) - 2.0 * margin) < 1e-10


def test_hamiltonian_field_contracts_to_minus_df():
    profile = HandleProfile(0.1)
    for _ in range(25):
        pt = legendrian_point(rng.standard_normal(2), rng.standard_normal(2))
        xf = hamiltonian_field_xf(pt, profile).as_array()
        grad = surgery.grad_f(pt, profile)
        for v in np.eye(4):
            assert abs(surgery.omega0_eval(pt, xf, v) + grad @ v) < 1e-12


def test_reeb_field_values():
    pt = legendrian_point([0.2, -0.1], [1.0, 0.0])
    r = reeb_s_minus1(pt)
    assert np.allclose(r.z, [1.0, 0.0]) and np.allclose(r.w, 0.0)
    assert abs(surgery.alpha_s_minus1_eval(pt, r.as_array()) - 1.0) < 1e-14
    pt2 = legendrian_point([0.0, 0.0], [0.0, 1.0])
    assert np.allclose(reeb_s_minus1(pt2).z, [0.0, 1.0])


def test_limit_transfer_frozen_example():
    pt = legendrian_point([-0.1, 0.5], [1.0, 0.0])
    out = limit_transfer_to_s1(pt, PROFILE)
    assert np.allclose(out.z, [-0.19611613513818404, 0.9805806756909202])
    assert np.allclose(out.w, [0.5099019513592785, 0.0])
    assert abs(f_eval(out, PROFILE)) < 1e-10


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_limit_transfer_preserves_page_value(seed):
    local = np.random.default_rng(seed)
    w = local.standard_normal(2)
    w /= np.linalg.norm(w)
    z = local.standard_normal(2) * 0.4
    if np.linalg.norm(z) < 1e-3:
        z = np.array([0.3, 0.1])
    pt = legendrian_point(z, w)
    out = limit_transfer_to_s1(pt, PROFILE)
    assert abs(theta_page(out) - theta_page(pt)) < 1e-12


def test_limit_transfer_identity_on_level_set():
    # |z| = 1 with |w| = 1 and rho^2 >= 1 + delta is already on the far flat piece
    pt = legendrian_point([1.2, 0.0], [1.0, 0.0])
    assert abs(f_eval(pt, PROFILE)) < 1e-14
    out = limit_transfer_to_s1(pt, PROFILE)
    assert np.allclose(out.as_array(), pt.as_array())


def test_limit_transfer_rejects_removed_locus():
    with pytest.raises(ValueError, match="removed"):
        limit_transfer_to_s1(legendrian_point([0.0, 0.0], [1.0, 0.0]), PROFILE)


def test_finite_transfer_converges_to_limit():
    pt = legendrian_point([-0.1, 0.5], [1.0, 0.0])
    lim = limit_transfer_to_s1(pt, PROFILE).as_array()
    errs = []
    for a in (10.0, 100.0, 1000.0):
        out = transfer_to_s1_finite_a(pt, a, PROFILE).as_array()
        errs.append(np.max(np.abs(out - lim)))
    assert errs[0] > errs[1] > errs[2]
    # order 1/a: tenfold speed shrinks the error about tenfold
    assert 5.0 < errs[0] / errs[1] < 20.0
    assert np.max(np.abs(transfer_to_s1_finite_a(pt, 1000.0, PROFILE).as_array()
                         - lim)) < 2e-3


def test_inverse_transfer_normalizes_w():
    pt = legendrian_point([-0.19611613513818404, 0.9805806756909202],
                          [0.5099019513592785, 0.0])
    back = transfer_to_s_minus1(pt)
    assert abs(np.linalg.norm(back.w) - 1.0) < 1e-14
    assert abs(theta_page(back) - theta_page(pt)) < 1e-14


def test_membership_desk_cases():
    origin = ModelPoint(np.zeros(1), np.zeros(1), np.zeros(2), np.zeros(2))
    assert handle_membership(origin, PROFILE) is False
    far = ModelPoint(np.zeros(1), np.zeros(1), np.array([3.0, 0.0]), np.zeros(2))
    assert handle_membership(far, PROFILE) is False
    inflated = ModelPoint(np.zeros(1), np.zeros(1), np.zeros(2), np.array([1.5, 0.0]))
    assert handle_membership(inflated, PROFILE) is False
    pts = surgery.sample_s1_points(rng, 6, 1, 2, PROFILE, rho2_max=1.8)
    hits = sum(handle_membership(ModelPoint.from_array(row, 1, 2), PROFILE) is True
               for row in pts)
    assert hits >= 5


def test_s1_sampler_lands_on_level_set():
    for delta in (0.05, 0.1):
        profile = HandleProfile(delta)
        pts = surgery.sample_s1_points(rng, 200, 1, 2, profile)
        for row in pts:
            assert abs(f_eval(ModelPoint.from_array(row, 1, 2), profile)) < 1e-10


def test_surgery_config_validation():
    with pytest.raises(ValueError):
        SurgeryConfig(epsilon=0.3)
    with pytest.raises(ValueError):
        SurgeryConfig(a=-1.0)
    cfg = SurgeryConfig(a=math.inf)
    assert cfg.a == math.inf


def test_strictness_spot_check():
    from contactlab.suites import strictness_residual
    assert strictness_residual(np.random.default_rng(1), 3, 2, 30) < 1e-8
