"""The embedded model of the sphere's cotangent bundle and its twists.

Points are pairs (q, p) in R^{n+1} x R^{n+1} subject to q.q = 1 and q.p = 0.
The canonical 1-form is p dq, the normalized geodesic flow is the rotation

    sigma_t(q, p) = (cos t * q + sin t / |p| * p,  -|p| sin t * q + cos t * p),

and the generalized right-handed Dehn twist applies sigma through the angle
profile g1(|p|), extended across p = 0 by (-1)^k * q.

The module computes on (q, p) arrays and on (m, 2(n+1)) rows [q | p]: the
sampler draws rows, and the twist map, its frames and the geodesic flow take
arrays.  ``SpherePoint`` is only the type of :func:`dehn_twist`, the
one-point adapter that perfbench/worker.py drives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forms import KFormOracle, SmoothMap, one_form
from .profiles import DehnTwistProfile, twist_g1

Array = np.ndarray

CONSTRAINT_TOL = 1e-10


@dataclass(frozen=True)
class SpherePoint:
    """A point of the embedded cotangent bundle: unit base vector q, fiber
    covector p; the argument and image of the one-point :func:`dehn_twist`."""

    q: Array
    p: Array

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        p = np.asarray(self.p, dtype=float)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", p)
        if q.shape != p.shape or q.ndim != 1:
            raise ValueError("q and p must be 1-d arrays of equal length")
        if not all(map(math.isfinite, q.tolist() + p.tolist())):
            raise ValueError("q and p must be finite")
        if not abs(q @ q - 1.0) < CONSTRAINT_TOL:
            raise ValueError(f"|q.q - 1| = {abs(q @ q - 1.0):.2e} violates the unit constraint")
        if not abs(q @ p) < CONSTRAINT_TOL:
            raise ValueError(f"|q.p| = {abs(q @ p):.2e} violates orthogonality")

    @property
    def n(self) -> int:
        return self.q.size - 1

    def as_array(self) -> Array:
        return np.concatenate([self.q, self.p])

    @staticmethod
    def from_array(u: Array) -> "SpherePoint":
        u = np.asarray(u, dtype=float)
        d = u.size // 2
        return SpherePoint(u[:d], u[d:])


def canonical_one_form(dim_total: int) -> KFormOracle:
    """p dq as an ambient 1-form on R^{2(n+1)}, with analytic derivative oracle."""
    d = dim_total // 2

    def coeffs(u):
        return np.concatenate([u[d:], np.zeros(d)])

    def coeffs_jac(u):
        j = np.zeros((dim_total, dim_total))
        j[:d, d:] = np.eye(d)
        return j

    return one_form(dim_total, coeffs, coeffs_jac)


def _rotate(q: Array, p: Array, norm, c, s) -> tuple[Array, Array]:
    """sigma_t(q, p) for |p| = norm > 0, c = cos t and s = sin t; for (m, d)
    rows q and p, norm, c and s are (m, 1) columns."""
    return c * q + (s / norm) * p, -norm * s * q + c * p


def geodesic_flow(q: Array, p: Array, t: float) -> tuple[Array, Array]:
    """Normalized geodesic flow of the point (q, p) for time t; requires
    p != 0, preserves |p|.

    The one public form of the rotation, not a one-row twin: dehn_twist_map
    shares only the private formula _rotate, at its own angle per row."""
    norm = np.linalg.norm(p)
    if norm == 0.0:
        raise ValueError("normalization undefined at p = 0")
    return _rotate(q, p, norm, math.cos(t), math.sin(t))


def dehn_twist(pt: SpherePoint, profile: DehnTwistProfile) -> SpherePoint:
    """Generalized right-handed Dehn twist: sigma_{g1(|p|)}, and (-1)^k q at p = 0.
    The one-point adapter of dehn_twist_map that perfbench/worker.py drives
    and perfbench/layers.py traces; the checks map rows with dehn_twist_map."""
    return SpherePoint.from_array(dehn_twist_map(profile, pt.n).func(pt.as_array()))


def dehn_twist_batch(points_q: Array, points_p: Array, profile: DehnTwistProfile):
    """Twist each (q, p) row pair; rows with |p| = 0 map to ((-1)^k q, 0).  The
    package never calls it: it is perfbench/worker.py's reference for dehn_twist."""
    q = np.asarray(points_q, dtype=float)
    p = np.asarray(points_p, dtype=float)
    m, d = q.shape
    q_out = np.empty((m, d))
    p_out = np.empty((m, d))
    flip = 1.0 if profile.k % 2 == 0 else -1.0
    for row in range(m):
        norm = 0.0
        for i in range(d):
            norm += p[row, i] ** 2
        norm = math.sqrt(norm)
        if norm == 0.0:
            for i in range(d):
                q_out[row, i] = flip * q[row, i]
                p_out[row, i] = 0.0
            continue
        t = twist_g1(norm, profile.p0, profile.k)
        c = math.cos(t)
        s = math.sin(t)
        for i in range(d):
            q_out[row, i] = c * q[row, i] + (s / norm) * p[row, i]
            p_out[row, i] = -norm * s * q[row, i] + c * p[row, i]
    return q_out, p_out


def dehn_twist_map(profile: DehnTwistProfile, n: int) -> SmoothMap:
    """The twist as a map of the ambient R^{2(n+1)}.

    The matrix formula is applied verbatim off the constraint set; along
    constraint-tangent directions its derivative agrees with the intrinsic
    tangent map, which is what the pullback checks differentiate.  ``func``
    takes a (2(n+1),) point or an (m, 2(n+1)) row batch; the angle g1(|p|)
    and its cosine and sine are taken per row in floats, so a row of a batch
    repeats the bits of its lone image.
    """
    d = n + 1
    sign = -1.0 if profile.k % 2 else 1.0

    def func(u):
        rows = np.array(u, dtype=float, ndmin=2)
        q, p = rows[:, :d], rows[:, d:]
        norm = np.sqrt(np.vecdot(p, p))
        # |p| = 0 maps to (sign q, 0); |p| >= p0 is left as it is
        at_zero = norm == 0.0
        rows[at_zero, :d] *= sign
        turn = np.flatnonzero(~(at_zero | (norm >= profile.p0)))
        if turn.size:
            angles = [twist_g1(r, profile.p0, profile.k) for r in norm[turn].tolist()]
            cos = np.array([[math.cos(t)] for t in angles])
            sin = np.array([[math.sin(t)] for t in angles])
            rows[turn, :d], rows[turn, d:] = _rotate(q[turn], p[turn], norm[turn, None], cos, sin)
        return rows.reshape(np.shape(u))

    return SmoothMap(2 * d, func)


def tangent_frames(q: Array, p: Array) -> Array:
    """The (m, 2n, 2(n+1)) tangent frames of (m, n+1) rows q, p on the bundle.

    Horizontal lifts (u, -(p.u) q) and vertical vectors (0, u) over an
    orthonormal basis u of the hyperplane q-perp.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    d = q.shape[1]
    basis = _orthonormal_complements(q)
    frames = np.zeros((q.shape[0], 2 * (d - 1), 2 * d))
    frames[:, :d - 1, :d] = basis
    frames[:, :d - 1, d:] = -np.vecdot(p[:, None], basis)[..., None] * q[:, None]
    frames[:, d - 1:, d:] = basis
    return frames


def _orthonormal_complements(q: Array) -> Array:
    """(m, d-1, d) orthonormal bases of q-perp for (m, d) unit rows q.

    Gram-Schmidt on the projected coordinate directions, in column order: a
    row skips a column whose projected remainder has norm <= 1e-8 and stops
    at d - 1 vectors.  Each row repeats the bits of the loop over its lone
    columns, since every dot product sees the operand layout the loop gives
    it (a strided column of the projector, a norm of a contiguous copy).
    """
    m, d = q.shape
    mat = np.eye(d) - q[:, :, None] * q[:, None, :]
    vecs = np.zeros((m, d - 1, d))
    count = np.zeros(m, dtype=int)
    rows = np.arange(m)
    for col in range(d):
        v = mat[:, :, col]
        for k in range(min(col, d - 1)):
            has = count > k
            if not has.any():
                break
            proj = v - np.vecdot(v, vecs[:, k])[:, None] * vecs[:, k]
            v = np.where(has[:, None], proj, v)
        contiguous = np.ascontiguousarray(v)
        norm = np.sqrt(np.vecdot(contiguous, contiguous))
        take = (norm > 1e-8) & (count < d - 1)
        vecs[rows[take], count[take]] = v[take] / norm[take, None]
        count += take
    return vecs


def random_sphere_points(rng: np.random.Generator, count: int, n: int,
                         p_low: float, p_high: float) -> Array:
    """(count, 2(n+1)) rows [q | p], drawn one point at a time: a uniform
    random direction q on the sphere and a fiber covector p with norm in
    [p_low, p_high).

    Needs n >= 1: the fibers of S^0 are zero-dimensional, so no direction
    exists to scale.
    """
    if n < 1:
        raise ValueError(f"the sphere dimension must be at least 1, got {n}")
    rows = np.empty((count, 2 * (n + 1)))
    for row in rows:
        while True:
            q = rng.standard_normal(n + 1)
            q /= np.linalg.norm(q)
            v = rng.standard_normal(n + 1)
            v -= (v @ q) * q
            norm = np.linalg.norm(v)
            if norm >= 1e-12:
                break
        target = p_low + (p_high - p_low) * rng.random()
        row[:n + 1], row[n + 1:] = q, v / norm * target
    return rows
