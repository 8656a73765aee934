"""Scalar shape functions for handles, twists and binding collars.

Every profile blends exact pieces (flat, linear, exponential) with quintic
polynomials so the result is C^2 across the joints.  The model fields,
events and batch scans call the plain functions below with the smoothing
width or support radius as an argument; the handle functions and their
derivatives take a float or a column of row values alike.  The dataclasses
hold those parameters.
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


def _pieces(s, lo, hi, width, low, high, blend):
    """low where s <= lo, high where s >= hi, and between them blend(t) at the
    window coordinate t = (s - lo) / width capped at 1, where the smoothstep
    polynomials meet the flat pieces exactly.

    One form for a Python float s, which computes only its own piece with
    ``if`` and ``min`` and gives a float, and for a NumPy column s or lo,
    which computes every piece with ``np.where`` and ``np.minimum``.
    """
    below = s <= lo
    if isinstance(below, np.ndarray):
        return np.where(below, low, np.where(s >= hi, high,
                                             blend(np.minimum((s - lo) / width, 1.0))))
    return low if below else high if s >= hi else blend(min((s - lo) / width, 1.0))


# The handle functions and their derivatives, each over a float or a column
# s with delta a float or a column.

def handle_f(s, delta):
    return _pieces(s, 1.0 - delta, 1.0 - 0.5 * delta, 0.5 * delta, 1.0, s + delta,
                   lambda t: 1.0 + (s + delta - 1.0) * _smoothstep_poly(t))


def handle_f_d(s, delta):
    return _pieces(s, 1.0 - delta, 1.0 - 0.5 * delta, 0.5 * delta, 0.0, 1.0,
                   lambda t: _smoothstep_poly(t)
                   + (s + delta - 1.0) * _smoothstep_d_poly(t) * (2.0 / delta))


def _g_blend(s, sm, delta):
    return (1.0 - sm) * s + sm * (1.0 + delta)


def handle_g(s, delta):
    return _pieces(s, 1.0, 1.0 + delta, delta, s, 1.0 + delta,
                   lambda t: _g_blend(s, _smoothstep_poly(t), delta))


def handle_g_d(s, delta):
    return _pieces(s, 1.0, 1.0 + delta, delta, 1.0, 0.0,
                   lambda t: (1.0 - _smoothstep_poly(t))
                   + _smoothstep_d_poly(t) * (1.0 + delta - s) / delta)


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

    def g(self, s: float) -> float:
        return handle_g(s, self.delta)

    def g_inverse(self, v):
        """Invert g on [0, 1+delta), for a float or a column v: bisection on
        the monotone blend window, each value to a bracket of width 1e-14.

        A column is bisected with a mask, each value with the stopping rule
        and arithmetic of a lone float.  Non-finite values and values g does
        not attain raise ValueError.
        """
        v = np.asarray(v, dtype=float)
        top = 1.0 + self.delta
        if not np.isfinite(v).all():
            raise ValueError(f"g_inverse needs finite values, got {v[~np.isfinite(v)][0]}")
        if (v >= top).any():
            raise ValueError(f"g saturates at {top}; {v[v >= top][0]} not attained")
        lo, hi = np.ones(v.shape), np.full(v.shape, top)
        open_ = v > 1.0
        while True:
            open_ &= hi - lo > 1e-14
            if not open_.any():
                break
            mid = 0.5 * (lo + hi)
            below = handle_g(mid, self.delta) < v
            lo = np.where(open_ & below, mid, lo)
            hi = np.where(open_ & ~below, mid, hi)
        out = np.where(v > 1.0, 0.5 * (lo + hi), v)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DehnTwistProfile:
    """Amount of normalized geodesic flow for a k-fold twist.

    g1 decreases from k*pi at 0 (with strictly negative slope) to 0 at the
    support radius p0, and is identically 0 beyond it.
    """

    p0: float = 1.0
    k: int = 1

    def __post_init__(self):
        # an infinite p0 twists by k*pi everywhere, with no compact support
        if not 0.0 < self.p0 < math.inf:
            raise ValueError(f"support radius p0 must be positive and finite, got {self.p0!r}")
        # a fractional k moves the zero section by k % 2 while g1(0) = k*pi
        if isinstance(self.k, bool) or not isinstance(self.k, (int, np.integer)) or self.k < 1:
            raise ValueError(f"twist multiplicity k must be a positive integer, got {self.k!r}")

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
