"""Shape functions: handle pair, twist angle, binding collar coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactlab.profiles import (BindingProfile, DehnTwistProfile, HandleProfile, handle_f,
                                 handle_f_d, handle_g, handle_g_d, handle_g_inverse,
                                 hermite_quintic, hermite_quintic_d)


def test_hermite_endpoint_conditions():
    args = (2.0, -1.5, 0.7, 3.0, 0.4, -2.0)
    assert abs(hermite_quintic(0.0, *args) - 2.0) < 1e-14
    assert abs(hermite_quintic(1.0, *args) - 3.0) < 1e-14
    assert abs(hermite_quintic_d(0.0, *args) + 1.5) < 1e-14
    assert abs(hermite_quintic_d(1.0, *args) - 0.4) < 1e-14
    # second derivatives by finite differences
    h = 1e-5
    s0 = (hermite_quintic_d(h, *args) - hermite_quintic_d(0.0, *args)) / h
    s1 = (hermite_quintic_d(1.0, *args) - hermite_quintic_d(1.0 - h, *args)) / h
    assert abs(s0 - 0.7) < 1e-3
    assert abs(s1 + 2.0) < 1e-3


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.2])
def test_handle_profile_piecewise_constraints(delta):
    for s in np.linspace(0.0, 1.0 - delta, 20):
        assert handle_f(s, delta) == 1.0
    for s in np.linspace(1.0 - delta / 2.0, 3.0, 20):
        assert abs(handle_f(s, delta) - (s + delta)) < 1e-14
    for s in np.linspace(0.0, 1.0, 20):
        assert handle_g(s, delta) == s
    for s in np.linspace(1.0 + delta, 3.0, 20):
        assert abs(handle_g(s, delta) - (1.0 + delta)) < 1e-14


@pytest.mark.parametrize("delta", [0.05, 0.1])
def test_handle_profile_monotone_with_consistent_derivatives(delta):
    ss = np.linspace(0.0, 2.0, 4001)
    f_vals = np.array([handle_f(s, delta) for s in ss])
    g_vals = np.array([handle_g(s, delta) for s in ss])
    assert np.all(np.diff(f_vals) >= -1e-15)
    assert np.all(np.diff(g_vals) >= -1e-15)
    h = 1e-6
    for s in np.linspace(0.9, 1.15, 60):
        fd = (handle_f(s + h, delta) - handle_f(s - h, delta)) / (2 * h)
        gd = (handle_g(s + h, delta) - handle_g(s - h, delta)) / (2 * h)
        assert abs(fd - handle_f_d(s, delta)) < 1e-6
        assert abs(gd - handle_g_d(s, delta)) < 1e-6


def test_handle_profile_rejects_bad_delta():
    with pytest.raises(ValueError):
        HandleProfile(0.3)
    with pytest.raises(ValueError):
        HandleProfile(0.0)


@given(st.floats(min_value=1.0, max_value=1.099))
@settings(max_examples=40, deadline=None)
def test_g_inverse_roundtrip(s):
    assert abs(handle_g_inverse(handle_g(s, 0.1), 0.1) - s) < 1e-10


def g_inverse_reference(delta, v):
    """handle_g_inverse of one float as first written."""
    if v <= 1.0:
        return v
    if v >= 1.0 + delta:
        raise ValueError("not attained")
    lo, hi = 1.0, 1.0 + delta
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if handle_g(mid, delta) < v:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("delta", [0.01, 0.05, 0.1, 0.2])
def test_g_inverse_column_and_float_equal_the_scalar_bisection(delta):
    rng = np.random.default_rng(17)
    top = 1.0 + delta
    v = np.concatenate([rng.uniform(0.0, top, 400), rng.uniform(1.0, top, 400),
                        [0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(top, 0.0)]])
    ref = np.array([g_inverse_reference(delta, float(x)) for x in v])
    assert np.array_equal(handle_g_inverse(v, delta), ref)
    lone = [handle_g_inverse(float(x), delta) for x in v[::10]]
    assert all(type(x) is float for x in lone) and np.array_equal(lone, ref[::10])
    assert handle_g_inverse(np.empty(0), delta).shape == (0,)
    with pytest.raises(ValueError, match="not attained"):
        handle_g_inverse(np.array([0.5, top]), delta)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_twist_profile_constraints(k):
    tw = DehnTwistProfile(1.0, k)
    assert abs(tw.g1(0.0) - k * math.pi) < 1e-12
    assert tw.g1_d(0.0) < 0.0
    assert tw.g1(1.0) == 0.0
    assert tw.g1(5.0) == 0.0
    vals = [tw.g1(s) for s in np.linspace(0, 1, 500)]
    assert all(b - a <= 1e-12 for a, b in zip(vals, vals[1:]))


def test_twist_profile_linear_in_multiplicity():
    one = DehnTwistProfile(1.0, 1)
    three = DehnTwistProfile(1.0, 3)
    for s in np.linspace(0, 1, 50):
        assert abs(three.g1(s) - 3.0 * one.g1(s)) < 1e-12


def test_binding_profile_shape():
    bp = BindingProfile()
    rs = np.linspace(1e-4, 0.999, 5000)
    h1 = np.array([bp.h1(r) for r in rs])
    h1d = np.array([bp.h1_d(r) for r in rs])
    h2 = np.array([bp.h2(r) for r in rs])
    h2d = np.array([bp.h2_d(r) for r in rs])
    assert h1.min() > 0
    assert h1d.max() <= 0.0
    assert h2d.min() >= 0.0
    for r in (0.6, 0.75, 0.95):
        assert abs(bp.h1(r) - math.exp(0.5 - r)) < 1e-14
        assert abs(bp.h2(r) - 1.0) < 1e-14
    for r in (0.01, 0.2, 0.3):
        assert abs(bp.h2(r) - r * r) < 1e-14
    positivity = h1 * h2d - h1d * h2
    assert positivity.min() > 0


def test_binding_profile_derivative_consistency():
    bp = BindingProfile()
    h = 1e-6
    for r in np.linspace(0.05, 0.95, 40):
        assert abs((bp.h1(r + h) - bp.h1(r - h)) / (2 * h) - bp.h1_d(r)) < 1e-6
        assert abs((bp.h2(r + h) - bp.h2(r - h)) / (2 * h) - bp.h2_d(r)) < 1e-6


def test_binding_h2_ratio_smooth_at_axis():
    bp = BindingProfile()
    assert bp.h2_over_r2(0.0) == 1.0
    for r in (1e-8, 1e-4, 0.1, 0.29):
        assert abs(bp.h2_over_r2(r) - 1.0) < 1e-12
    assert abs(bp.h2_over_r2(0.5) - bp.h2(0.5) / 0.25) < 1e-14
