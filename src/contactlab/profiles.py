"""Scalar shape functions for handles, twists and binding collars.

Every profile blends exact pieces (flat, linear, exponential) with quintic
polynomials so the result is C^2 across the joints.  The model fields,
events and batch scans call the plain scalar functions below with the
smoothing width or support radius as an argument (the handle derivatives also
have column forms for row batches); the dataclasses hold those parameters.
Transversality and contact positivity are *checked* numerically by the test
suites, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def _smoothstep_poly(t):
    return t * t * t * (10.0 + t * (-15.0 + 6.0 * t))


def _smoothstep_d_poly(t):
    u = t * (1.0 - t)
    return 30.0 * u * u


def smoothstep(t):
    if t <= 0.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return _smoothstep_poly(t)


def smoothstep_d(t):
    if t <= 0.0 or t >= 1.0:
        return 0.0
    return _smoothstep_d_poly(t)


def handle_f(s, delta):
    if s <= 1.0 - delta:
        return 1.0
    if s >= 1.0 - 0.5 * delta:
        return s + delta
    t = (s - (1.0 - delta)) / (0.5 * delta)
    return 1.0 + (s + delta - 1.0) * smoothstep(t)


# The blend branches of handle_f_d and handle_g_d take Python floats or NumPy
# columns alike.  The caller picks the branch and caps the window coordinate t
# at 1, where the smoothstep polynomials meet the flat pieces exactly, so a
# column form equals its scalar form bit for bit.

def _f_d_blend(s, t, delta):
    return _smoothstep_poly(t) + (s + delta - 1.0) * _smoothstep_d_poly(t) * (2.0 / delta)


def _g_d_blend(s, t, delta):
    return (1.0 - _smoothstep_poly(t)) + _smoothstep_d_poly(t) * (1.0 + delta - s) / delta


def handle_f_d(s, delta):
    if s <= 1.0 - delta:
        return 0.0
    if s >= 1.0 - 0.5 * delta:
        return 1.0
    return _f_d_blend(s, min((s - (1.0 - delta)) / (0.5 * delta), 1.0), delta)


def handle_f_d_column(s, delta):
    """handle_f_d on a column s; delta is a float or a column."""
    t = np.minimum((s - (1.0 - delta)) / (0.5 * delta), 1.0)
    return np.where(s <= 1.0 - delta, 0.0,
                    np.where(s >= 1.0 - 0.5 * delta, 1.0, _f_d_blend(s, t, delta)))


def handle_g(s, delta):
    if s <= 1.0:
        return s
    if s >= 1.0 + delta:
        return 1.0 + delta
    t = (s - 1.0) / delta
    sm = smoothstep(t)
    return (1.0 - sm) * s + sm * (1.0 + delta)


def handle_g_d(s, delta):
    if s <= 1.0:
        return 1.0
    if s >= 1.0 + delta:
        return 0.0
    return _g_d_blend(s, min((s - 1.0) / delta, 1.0), delta)


def handle_g_d_column(s, delta):
    """handle_g_d on a column s; delta is a float or a column."""
    t = np.minimum((s - 1.0) / delta, 1.0)
    return np.where(s <= 1.0, 1.0, np.where(s >= 1.0 + delta, 0.0, _g_d_blend(s, t, delta)))


# initial-slope weight of the angle profile: small enough that twist
# Jacobians across a 1e-3 sphere around the zero section match to 1e-4
# (the antipodal mismatch scales like 4 |g1'(0)| * radius), yet strictly
# nonzero so the profile leaves k*pi with negative slope
_TWIST_TILT = 0.005


def twist_g1(s, p0, k):
    if s <= 0.0:
        return k * math.pi
    if s >= p0:
        return 0.0
    u = 1.0 - s / p0
    shape = smoothstep(u) + _TWIST_TILT * (u ** 4 - u ** 3)
    return k * math.pi * shape


def twist_g1_d(s, p0, k):
    if s < 0.0 or s >= p0:
        return 0.0
    u = 1.0 - s / p0
    shape_d = smoothstep_d(u) + _TWIST_TILT * (4.0 * u ** 3 - 3.0 * u ** 2)
    return -k * math.pi * shape_d / p0


def hermite_quintic(t: float, v0: float, d0: float, s0: float,
                    v1: float, d1: float, s1: float) -> float:
    """Quintic Hermite on [0,1] with prescribed value / 1st / 2nd derivative at both ends."""
    t2, t3 = t * t, t * t * t
    t4, t5 = t2 * t2, t2 * t3
    h0 = 1.0 - 10.0 * t3 + 15.0 * t4 - 6.0 * t5
    h1 = t - 6.0 * t3 + 8.0 * t4 - 3.0 * t5
    h2 = 0.5 * t2 - 1.5 * t3 + 1.5 * t4 - 0.5 * t5
    h3 = 10.0 * t3 - 15.0 * t4 + 6.0 * t5
    h4 = -4.0 * t3 + 7.0 * t4 - 3.0 * t5
    h5 = 0.5 * t3 - t4 + 0.5 * t5
    return v0 * h0 + d0 * h1 + s0 * h2 + v1 * h3 + d1 * h4 + s1 * h5


def hermite_quintic_d(t: float, v0: float, d0: float, s0: float,
                      v1: float, d1: float, s1: float) -> float:
    t2, t3 = t * t, t * t * t
    t4 = t2 * t2
    h0 = -30.0 * t2 + 60.0 * t3 - 30.0 * t4
    h1 = 1.0 - 18.0 * t2 + 32.0 * t3 - 15.0 * t4
    h2 = t - 4.5 * t2 + 6.0 * t3 - 2.5 * t4
    h3 = 30.0 * t2 - 60.0 * t3 + 30.0 * t4
    h4 = -12.0 * t2 + 28.0 * t3 - 15.0 * t4
    h5 = 1.5 * t2 - 4.0 * t3 + 2.5 * t4
    return v0 * h0 + d0 * h1 + s0 * h2 + v1 * h3 + d1 * h4 + s1 * h5


@dataclass(frozen=True)
class HandleProfile:
    """The pair (f, g) shaping the surgered hypersurface, with smoothing width delta.

    f == 1 on [0, 1-delta], f(s) == s + delta for s >= 1 - delta/2, increasing.
    g(s) == s for s <= 1, g == 1 + delta for s >= 1 + delta, increasing.
    """

    delta: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.delta < 0.25:
            raise ValueError(f"delta must lie in (0, 1/4), got {self.delta}")

    def f(self, s: float) -> float:
        return handle_f(s, self.delta)

    def f_d(self, s: float) -> float:
        return handle_f_d(s, self.delta)

    def g(self, s: float) -> float:
        return handle_g(s, self.delta)

    def g_d(self, s: float) -> float:
        return handle_g_d(s, self.delta)

    def g_inverse(self, v: float) -> float:
        """Invert g on [0, 1+delta): bisection on the monotone blend window,
        to a bracket of width 1e-14."""
        if v <= 1.0:
            return v
        if v >= 1.0 + self.delta:
            raise ValueError(f"g saturates at {1.0 + self.delta}; {v} not attained")
        lo, hi = 1.0, 1.0 + self.delta
        while hi - lo > 1e-14:
            mid = 0.5 * (lo + hi)
            if self.g(mid) < v:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


@dataclass(frozen=True)
class DehnTwistProfile:
    """Amount of normalized geodesic flow for a k-fold twist.

    g1 decreases from k*pi at 0 (with strictly negative slope) to 0 at the
    support radius p0, and is identically 0 beyond it.
    """

    p0: float = 1.0
    k: int = 1

    def __post_init__(self):
        if self.p0 <= 0.0:
            raise ValueError("support radius p0 must be positive")
        if self.k < 1:
            raise ValueError("twist multiplicity k must be a positive integer")

    def g1(self, s: float) -> float:
        return twist_g1(s, self.p0, self.k)

    def g1_d(self, s: float) -> float:
        return twist_g1_d(s, self.p0, self.k)


class BindingProfile:
    """Coefficients of the collar form h1(r)*(boundary 1-form) + h2(r)*dphi.

    h1 is positive, non-increasing and equals exp(1/2 - r) from the matching
    radius on; h2 rises like r^2 near the axis and is constant 1 from the
    matching radius on.  h1 = exp(1/2 - q(r)) with a monotone C^2 exponent q
    that flattens to a constant below BLEND_LO, so h1' = -q' h1 <= 0 holds by
    construction; contact positivity h1*h2' - h1'*h2 > 0 is still verified
    numerically downstream.
    """

    BLEND_LO = 0.3
    MATCHING_RADIUS = 0.6  # in (1/2, 1), so the collar ends inside the unit disk

    def _t(self, r: float) -> float:
        return (r - self.BLEND_LO) / (self.MATCHING_RADIUS - self.BLEND_LO)

    def _q(self, r: float) -> float:
        rm = self.MATCHING_RADIUS
        width = rm - self.BLEND_LO
        if r <= self.BLEND_LO:
            return rm - 0.5 * width
        if r >= rm:
            return r
        return hermite_quintic(self._t(r), rm - 0.5 * width, 0.0, 0.0,
                               rm, width, 0.0)

    def _q_d(self, r: float) -> float:
        rm = self.MATCHING_RADIUS
        width = rm - self.BLEND_LO
        if r <= self.BLEND_LO:
            return 0.0
        if r >= rm:
            return 1.0
        return hermite_quintic_d(self._t(r), rm - 0.5 * width, 0.0, 0.0,
                                 rm, width, 0.0) / width

    def h1(self, r: float) -> float:
        return math.exp(0.5 - self._q(r))

    def h1_d(self, r: float) -> float:
        return -self._q_d(r) * self.h1(r)

    def h2(self, r: float) -> float:
        if r <= self.BLEND_LO:
            return r * r
        if r >= self.MATCHING_RADIUS:
            return 1.0
        width = self.MATCHING_RADIUS - self.BLEND_LO
        lo = self.BLEND_LO
        return hermite_quintic(self._t(r), lo * lo, 2.0 * lo * width, 2.0 * width * width,
                               1.0, 0.0, 0.0)

    def h2_d(self, r: float) -> float:
        if r <= self.BLEND_LO:
            return 2.0 * r
        if r >= self.MATCHING_RADIUS:
            return 0.0
        width = self.MATCHING_RADIUS - self.BLEND_LO
        lo = self.BLEND_LO
        return hermite_quintic_d(self._t(r), lo * lo, 2.0 * lo * width, 2.0 * width * width,
                                 1.0, 0.0, 0.0) / width

    def h2_over_r2(self, r: float) -> float:
        """h2(r)/r^2, finite across r = 0; needed for the Cartesian disk chart."""
        if abs(r) <= self.BLEND_LO:
            return 1.0
        return self.h2(abs(r)) / (r * r)
