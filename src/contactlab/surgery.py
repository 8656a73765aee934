"""The flat surgery model: ambient R^{2n} with (x, y; z, w) blocks.

The symplectic form is omega0 = dx^dy + dz^dw with Liouville field
X = (x/2, y/2, 2z, -w).  The hypersurface S_{-1} = {|w|^2 = 1} carries the
induced contact form alpha = (x dy - y dx)/2 + 2z dw + w dz and models a
neighborhood of an isotropic sphere before surgery; S_1, the zero set of
F = -f(|w|^2) + g(|x|^2 + |y|^2 + |z|^2), models the result of the surgery.

Each model quantity (F, its gradient, the page field X_F, the Reeb field,
the Liouville field, the page function and the forms) is written once, as a
plain callable on the flat state; flows, events, projections and the
pointwise checks all call that one form.  The samplers, the tangent frames
of S_{-1} and the inverse straightening take or give (m, d) rows;
``ModelPoint`` is only the type of the one-point adapters that the benchmark
drives (:func:`limit_transfer_to_s1`, :func:`handle_membership` and
``monodromy.post_surgery_pipeline``).  The Liouville transfers between S_{-1}
and S_1 return flat states; the two onto S_1 take (m, d) rows and share one
masked lockstep bracket-and-bisect search for the zero of F along each row's
path, a lone transfer being the one-row call.  Every function of the
surgered hypersurface takes its smoothing width delta as a float (the
transfers and the page field also per row).

Flat ambient layout is the block vector [x | y | z | w]; the sphere-bundle
chart for the neighborhood straightening map is [z_scalar | q | p | x | y].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .forms import KFormOracle, SmoothMap, one_form
from .profiles import handle_f, handle_f_d, handle_g, handle_g_d, handle_g_inverse
from .sphere import _orthonormal_complements

Array = np.ndarray

S_TOL = 1e-8


@dataclass(frozen=True)
class ModelPoint:
    """A point of the model split into (x, y, z, w) blocks; x, y may be empty.
    The argument of the one-point adapters."""

    x: Array
    y: Array
    z: Array
    w: Array

    def __post_init__(self):
        blocks = [np.asarray(getattr(self, name), dtype=float) for name in "xyzw"]
        for name, arr in zip("xyzw", blocks):
            object.__setattr__(self, name, arr)
        # one pass over all the floats; the offending block is named only on failure
        if not (all(arr.ndim == 1 for arr in blocks)
                and all(map(math.isfinite, np.concatenate(blocks).tolist()))):
            bad = next(name for name, arr in zip("xyzw", blocks)
                       if arr.ndim != 1 or not np.all(np.isfinite(arr)))
            raise ValueError(f"block {bad} must be a finite 1-d array")
        if self.x.size != self.y.size or self.z.size != self.w.size:
            raise ValueError("paired blocks must have equal lengths")
        if self.z.size < 1:
            raise ValueError("the (z, w) blocks must be nonempty")

    @property
    def nxy(self) -> int:
        return self.x.size

    @property
    def nzw(self) -> int:
        return self.z.size

    def as_array(self) -> Array:
        return np.concatenate([self.x, self.y, self.z, self.w])

    @staticmethod
    def from_array(u: Array, nxy: int, nzw: int) -> "ModelPoint":
        u = np.asarray(u, dtype=float)
        return ModelPoint(u[:nxy], u[nxy:2 * nxy],
                          u[2 * nxy:2 * nxy + nzw], u[2 * nxy + nzw:])


@dataclass(frozen=True)
class SurgeryConfig:
    """Page half-angle of a surgery run, whose transfers run at infinite
    Liouville speed.  Only ``monodromy.post_surgery_pipeline`` reads it, for
    perfbench/worker.py, which also passes the unread ``delta``; the rest of
    the package takes the half-angle as a float."""

    epsilon: float = 0.1
    delta: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.25:
            raise ValueError("page half-angle must lie in (0, 1/4)")


# ---------------------------------------------------------------------------
# forms and fields
# ---------------------------------------------------------------------------

def _omega0_flat(v1: Array, v2: Array, nxy: int, nzw: int):
    """dx^dy + dz^dw on two (d,) vectors, or on each row pair of (m, d) rows."""
    b = 2 * nxy
    val = (np.vecdot(v1[..., :nxy], v2[..., nxy:b])
           - np.vecdot(v1[..., nxy:b], v2[..., :nxy]))
    val += (np.vecdot(v1[..., b:b + nzw], v2[..., b + nzw:])
            - np.vecdot(v1[..., b + nzw:], v2[..., b:b + nzw]))
    return val


def omega0_form(nxy: int, nzw: int) -> KFormOracle:
    """dx^dy + dz^dw on two ambient vectors in block layout; on (m, d) vectors
    it gives the (m,) values of their row pairs."""
    dim = 2 * nxy + 2 * nzw
    form = KFormOracle(2, dim, lambda x, u, v: _omega0_flat(u, v, nxy, nzw))
    form.d_oracle = lambda x, u, v, w: 0.0
    return form


# ---------------------------------------------------------------------------
# model fields, events and projections on the flat block state
# ---------------------------------------------------------------------------
# A (d,) state is read as a list of Python floats and an (m, d) row batch as
# a list of NumPy columns; one expression serves both, with sums and dot
# products in index order and squares written as products, so a row of a
# batch repeats the bits of its lone flow.

def _operands(u: Array) -> list:
    return u.tolist() if u.ndim == 1 else list(u.T)


def _sum_sq(values: list):
    total = 0.0
    for v in values:
        total = total + v * v
    return total


def _rho2_w2(v: list, nxy: int, nzw: int):
    """|x|^2 + |y|^2 + |z|^2 and |w|^2 of a flat state given as operands."""
    b = 2 * nxy + nzw
    return _sum_sq(v[:b]), _sum_sq(v[b:b + nzw])


def liouville_field(nxy: int, nzw: int):
    """The Liouville field (x/2, y/2, 2z, -w) of a flat state."""
    scale = np.concatenate([np.full(2 * nxy, 0.5), np.full(nzw, 2.0), np.full(nzw, -1.0)])

    def func(u):
        return scale * u

    return func


def liouville_a_field(nxy: int, nzw: int, a: float):
    """The speed-a Liouville field ((1+a) z, -a w) of a flat state, on a (d,)
    state or an (m, d) row batch."""
    b = 2 * nxy
    a = float(a)

    def func(u):
        du = np.zeros(u.shape)
        du[..., b:b + nzw] = (1.0 + a) * u[..., b:b + nzw]
        du[..., b + nzw:] = -a * u[..., b + nzw:]
        return du

    return func


def alpha_model_form(nxy: int, nzw: int) -> KFormOracle:
    """The ambient 1-form (x dy - y dx)/2 + 2 z dw + w dz with analytic derivative;
    its coefficients take a (d,) state or an (m, d) row batch."""
    dim = 2 * nxy + 2 * nzw
    b = 2 * nxy

    def coeffs(u):
        c = np.empty(u.shape)
        c[..., :nxy] = -0.5 * u[..., nxy:b]
        c[..., nxy:b] = 0.5 * u[..., :nxy]
        c[..., b:b + nzw] = u[..., b + nzw:]
        c[..., b + nzw:] = 2.0 * u[..., b:b + nzw]
        return c

    def coeffs_jac(u):
        j = np.zeros((dim, dim))
        for i in range(nxy):
            j[i, nxy + i] = -0.5
            j[nxy + i, i] = 0.5
        for i in range(nzw):
            j[b + i, b + nzw + i] = 1.0
            j[b + nzw + i, b + i] = 2.0
        return j

    return one_form(dim, coeffs, coeffs_jac)


def reeb_field(nxy: int, nzw: int):
    """The Reeb field of alpha on S_{-1}, the w vector placed in the z slot,
    on a (d,) state or an (m, d) row batch."""
    b = 2 * nxy

    def func(u):
        du = np.zeros(u.shape)
        du[..., b:b + nzw] = u[..., b + nzw:]
        return du

    return func


def page_value(nxy: int, nzw: int):
    """The page function z . w of a flat state: a float for a (d,) state, a
    column for an (m, d) row batch."""
    b = 2 * nxy

    def value(u):
        v = _operands(u)
        total = 0.0
        for z, w in zip(v[b:b + nzw], v[b + nzw:b + 2 * nzw]):
            total = total + z * w
        return total

    return value


def wnorm2_value(nxy: int, nzw: int):
    """|w|^2 of a flat state: a float for a (d,) state, a column for an (m, d)
    row batch."""
    b = 2 * nxy + nzw
    return lambda u: _sum_sq(_operands(u)[b:])


def unit_w_projection(nxy: int, nzw: int):
    """Rescale the w block of a flat state, in place, to unit length; on a
    (d,) state or each row of an (m, d) batch, a zero w left as it is."""
    b = 2 * nxy + nzw

    def project(u):
        norm = np.sqrt(_sum_sq(_operands(u)[b:]))
        u[..., b:] /= np.where(norm > 0.0, norm, 1.0)[..., None]  # x / 1.0 is x
        return u

    return project


def s_minus1_tangent_frames(points: Array, nxy: int, nzw: int) -> Array:
    """(m, d-1, d) bases of the tangent spaces of S_{-1} at (m, d) rows: all
    x, y, z directions, then an orthonormal basis of w-perp in the w slots."""
    b = 2 * nxy + nzw
    w = points[:, b:]
    frames = np.zeros((len(points), b + nzw - 1, b + nzw))
    frames[:, :b, :b] = np.eye(b)
    frames[:, b:, b:] = _orthonormal_complements(w / np.sqrt(np.vecdot(w, w))[:, None])
    return frames


# ---------------------------------------------------------------------------
# the neighborhood straightening map and its conformal rescaling
# ---------------------------------------------------------------------------

def chart_pack(z: float, q: Array, p: Array, x: Array, y: Array) -> Array:
    return np.concatenate([[float(z)], q, p, x, y])


def psi_w_inverse(points: Array, nxy: int, nzw: int) -> Array:
    """The chart rows [z | q | p | x | y] of (m, d) rows of S_{-1}: q = w,
    z = z.w and p = z - (z.w) w; a row off |w|^2 = 1 is refused."""
    if not (np.abs(wnorm2_value(nxy, nzw)(points) - 1.0) < S_TOL).all():
        raise ValueError("inverse straightening needs |w|^2 = 1")
    b = 2 * nxy
    z, w = points[:, b:b + nzw], points[:, b + nzw:]
    z_val = np.vecdot(z, w)[:, None]
    return np.hstack([z_val, w, z - z_val * w, points[:, :b]])


def psi_w_map(nzw: int, nxy: int) -> SmoothMap:
    """The straightening map psi_w: (z, q, p, x, y) -> (x, y; z q + p, q) onto
    S_{-1}, on the flat chart [z | q | p | x | y] with analytic Jacobian.

    ``func`` and ``jac`` take a (d,) chart point, giving a (d_out,) image and a
    (d_out, d) Jacobian, or an (m, d) row batch, giving (m, d_out) images and
    C-contiguous (m, d_out, d) Jacobians.
    """
    dim_in = 1 + 2 * nzw + 2 * nxy
    dim_out = 2 * nxy + 2 * nzw

    def func(u):
        z = u[..., :1]
        q = u[..., 1:1 + nzw]
        p = u[..., 1 + nzw:1 + 2 * nzw]
        return np.concatenate([u[..., 1 + 2 * nzw:], z * q + p, q], axis=-1)

    def jac(u):
        j = np.zeros(u.shape[:-1] + (dim_out, dim_in))
        for i in range(nxy):
            j[..., i, 1 + 2 * nzw + i] = 1.0              # x block
            j[..., nxy + i, 1 + 2 * nzw + nxy + i] = 1.0  # y block
        b = 2 * nxy
        for i in range(nzw):
            j[..., b + i, 0] = u[..., 1 + i]              # d(zq+p)/dz = q
            j[..., b + i, 1 + i] = u[..., 0]              # d(zq+p)/dq = z
            j[..., b + i, 1 + nzw + i] = 1.0              # d(zq+p)/dp
            j[..., b + nzw + i, 1 + i] = 1.0              # dw/dq
        return j

    return SmoothMap(dim_in, func, jac=jac)


def alpha_chart_form(nzw: int, nxy: int) -> KFormOracle:
    """dz + p dq + (x dy - y dx)/2 on the sphere-bundle chart, analytic
    derivative; its coefficients take a (d,) point or an (m, d) row batch."""
    dim = 1 + 2 * nzw + 2 * nxy

    def coeffs(u):
        c = np.zeros(u.shape)
        c[..., 0] = 1.0
        c[..., 1:1 + nzw] = u[..., 1 + nzw:1 + 2 * nzw]  # p dq
        xs = u[..., 1 + 2 * nzw:1 + 2 * nzw + nxy]
        ys = u[..., 1 + 2 * nzw + nxy:]
        c[..., 1 + 2 * nzw:1 + 2 * nzw + nxy] = -0.5 * ys
        c[..., 1 + 2 * nzw + nxy:] = 0.5 * xs
        return c

    def coeffs_jac(u):
        j = np.zeros((dim, dim))
        for i in range(nzw):
            j[1 + i, 1 + nzw + i] = 1.0
        for i in range(nxy):
            j[1 + 2 * nzw + i, 1 + 2 * nzw + nxy + i] = -0.5
            j[1 + 2 * nzw + nxy + i, 1 + 2 * nzw + i] = 0.5
        return j

    return one_form(dim, coeffs, coeffs_jac)


def phi_c_map(nzw: int, nxy: int, C: float) -> SmoothMap:
    """Conformal rescaling (z, q, p, x, y) -> (Cz, q, Cp, sqrt(C) x, sqrt(C) y)
    on the sphere-bundle chart."""
    if not C > 0.0:
        raise ValueError("scaling constant must be positive")
    dim = 1 + 2 * nzw + 2 * nxy
    scale = np.ones(dim)
    scale[0] = C
    scale[1 + nzw:1 + 2 * nzw] = C
    scale[1 + 2 * nzw:] = math.sqrt(C)
    return SmoothMap(dim, lambda u: scale * u, jac=lambda u: np.diag(scale))


# ---------------------------------------------------------------------------
# the surgered hypersurface
# ---------------------------------------------------------------------------

def _handle_value(rho2, w2, delta: float):
    """The handle function -f(|w|^2) + g(rho^2), on floats or on columns; S_1
    is its zero set."""
    return -handle_f(w2, delta) + handle_g(rho2, delta)


def _handle_gradient(u: Array, rho2, w2, nzw: int, delta: float) -> Array:
    """The gradient 2 g'(rho^2) (x, y, z) and -2 f'(|w|^2) w of a (d,) flat
    state with float rho2, w2, or of (m, d) rows with their columns."""
    b = u.shape[-1] - nzw
    grad = u.copy()  # products in place, on columns: no (m, d) temporaries
    grad.T[:b] *= 2.0 * handle_g_d(rho2, delta)
    grad.T[b:] *= -2.0 * handle_f_d(w2, delta)
    return grad


def transversality_margins(points: Array, nxy: int, nzw: int, delta: float) -> Array:
    """(|x|^2/2 + |y|^2/2 + 2|z|^2) g' + |w|^2 f' of each row, positive on all of S_1.

    The Liouville directional derivative of the handle function is exactly
    twice this margin; both vanish together, so positivity of either one is
    the transversality statement.
    """
    v = _operands(np.asarray(points, dtype=float))
    b = 2 * nxy
    rho2, w2 = _rho2_w2(v, nxy, nzw)
    return (0.5 * _sum_sq(v[:b]) + 2.0 * _sum_sq(v[b:b + nzw])) \
        * handle_g_d(rho2, delta) + w2 * handle_f_d(w2, delta)


def handle_hamiltonian_rhs(nxy: int, nzw: int, delta: Optional[float] = None):
    """The page flow field X_F, 2 f'(|w|^2) w in the z slot and 2 g'(rho^2) z
    in the w slot, on a (d,) state or an (m, d) row batch; i_X omega0 = -dF.

    With ``delta`` None the state carries one more coordinate, its row's
    smoothing width, which the flow leaves fixed: rows of different smoothing
    widths then flow as one batch.
    """
    b = 2 * nxy
    dim = b + 2 * nzw
    zero_xy = [0.0] * b
    tail = [] if delta is not None else [0.0]

    def func(u):
        v = _operands(u)
        width = v[dim] if delta is None else delta
        rho2, w2 = _rho2_w2(v, nxy, nzw)
        cf = 2.0 * handle_f_d(w2, width)
        cg = 2.0 * handle_g_d(rho2, width)
        terms = [cf * c for c in v[b + nzw:dim]] + [cg * c for c in v[b:b + nzw]]
        if u.ndim == 1:
            return np.array(zero_xy + terms + tail)
        du = np.zeros(u.shape)
        du[:, b:dim] = np.transpose(terms)
        return du

    return func


def level_value(nxy: int, nzw: int, delta: float):
    """The handle function -f(|w|^2) + g(|x|^2 + |y|^2 + |z|^2) of a flat
    state: a float for a (d,) state, a column for an (m, d) row batch."""
    def value(u):
        return _handle_value(*_rho2_w2(_operands(u), nxy, nzw), delta)

    return value


def level_gradient(nxy: int, nzw: int, delta: float):
    """The gradient of the handle function of a flat state."""
    def gradient(u):
        return _handle_gradient(u, *_rho2_w2(u.tolist(), nxy, nzw), nzw, delta)

    return gradient


# rows per Newton batch: the column temporaries of a 10,000-row scan would
# otherwise raise the process's peak memory by about a megabyte
_NEWTON_ROWS = 1024


def level_projection(nxy: int, nzw: int, delta: float):
    """Newton steps, in place, onto the zero level of the handle function,
    for an (m, d) row batch.

    The rows step on columns, a block of rows at a time, each row with its
    own stopping rules (|value| < 1e-13, a zero gradient, 8 steps) and the
    arithmetic of one state in floats.  A lone state is the one-row batch.
    """
    def project_rows(u):
        rows, sub = np.arange(len(u)), u.copy()  # the rows still stepping
        for _ in range(8):
            rho2, w2 = _rho2_w2(_operands(sub), nxy, nzw)
            fval = _handle_value(rho2, w2, delta)
            grad = _handle_gradient(sub, rho2, w2, nzw, delta)
            gnorm2 = _sum_sq(list(grad.T))
            step = ~(np.abs(fval) < 1e-13) & ~(gnorm2 == 0.0)
            if not step.all():
                rows, sub, grad, fval, gnorm2 = (a[step] for a in (rows, sub, grad, fval, gnorm2))
                if not rows.size:
                    break
            grad *= (fval / gnorm2)[:, None]
            sub -= grad
            u[rows] = sub

    def project(u):
        if u.ndim != 2:
            raise ValueError(f"a row batch must have shape (m, d), got {u.shape}")
        for lo in range(0, len(u), _NEWTON_ROWS):
            project_rows(u[lo:lo + _NEWTON_ROWS])  # a view, projected in place
        return u

    return project


# ---------------------------------------------------------------------------
# Liouville transfer between the hypersurfaces
# ---------------------------------------------------------------------------

def _level_crossings(fn, starts: list, widen, tries: int) -> Array:
    """A zero of fn along each row's transfer path parameter, the rows in
    lockstep, each with the rules of a lone search; ``fn(s, rows)`` and
    ``widen(s, rising, rows)`` take the parameters s of the row indices rows.

    The first of a row's ``starts`` (one column per start) with |fn| <= 1e-12
    is its answer.  Otherwise its parameter moves from the first start by
    ``widen``, with ``rising`` true where fn is negative there, until fn
    changes sign within ``tries`` moves, or ValueError is raised; bisection
    of that bracket stops once |fn| <= 1e-10, the bracket reaches rounding
    size, or after 200 halvings.
    """
    out, f0 = starts[0].copy(), fn(starts[0], np.arange(len(starts[0])))
    rows = np.flatnonzero(~(np.abs(f0) <= 1e-12))
    for s in starts[1:]:
        hit = np.abs(fn(s[rows], rows)) <= 1e-12
        out[rows[hit]] = s[rows[hit]]
        rows = rows[~hit]
    s0, f0 = out[rows], f0[rows]
    s1, f1, seeking = s0.copy(), f0.copy(), np.arange(rows.size)  # positions in rows
    for _ in range(tries):
        if not seeking.size:
            break
        s1[seeking] = widen(s1[seeking], f0[seeking] < 0.0, rows[seeking])
        f1[seeking] = fn(s1[seeking], rows[seeking])
        seeking = seeking[~(f1[seeking] * f0[seeking] <= 0.0)]
    if seeking.size:
        raise ValueError("no level crossing along the transfer path")
    swap = (s1 < s0) | ((s1 == s0) & (f1 < f0))  # sorted([(s0, f0), (s1, f1)])
    lo, hi, f_lo, f_hi = np.where(swap, [s1, s0, f1, f0], [s0, s1, f0, f1])
    out[rows] = np.where(np.abs(f_lo) <= 1e-10, lo, hi)
    open_ = (np.abs(f_lo) > 1e-10) & (np.abs(f_hi) > 1e-10)
    rows, (lo, hi, f_lo) = rows[open_], np.array([lo, hi, f_lo])[:, open_]
    for _ in range(200):
        if not rows.size:
            break
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid, rows)
        done = (np.abs(f_mid) <= 1e-10) | ((hi - lo) < 1e-16 * np.maximum(1.0, np.abs(mid)))
        out[rows[done]] = mid[done]
        left = f_lo * f_mid <= 0.0
        lo, hi, f_lo = np.where(left, [lo, mid, f_lo], [mid, hi, f_mid])[:, ~done]
        rows = rows[~done]
    out[rows] = 0.5 * (lo + hi)
    return out


def _transfers(points: Array, nxy: int, nzw: int, delta, path, starts, widen,
               tries: int) -> Array:
    """The flat states where each row's ``path(s, rows)`` meets S_1 under its
    smoothing width, by :func:`_level_crossings` from the start columns
    ``starts(|z| of each row)``."""
    z_norms = np.array([np.linalg.norm(z) for z in points[:, 2 * nxy:2 * nxy + nzw]])
    if (z_norms == 0.0).any():
        raise ValueError("no image: the z = 0 locus is removed by the surgery")
    delta = np.broadcast_to(delta, len(points))

    def level(s, rows):
        return _handle_value(*_rho2_w2(_operands(path(s, rows)), nxy, nzw), delta[rows])

    return path(_level_crossings(level, starts(z_norms), widen, tries), np.arange(len(points)))


def limit_transfers_to_s1(points: Array, nxy: int, nzw: int, delta) -> Array:
    """Infinite-speed Liouville transfer of each (m, d) row: slide along
    (u z, w / u) until the handle function, under a smoothing width given
    once or per row, vanishes; returns the rows on S_1, each with the bits
    of its lone transfer.

    On inward flat-piece inputs this is the closed map (z / |z|, |z| w); the
    page value z.w is preserved exactly along the whole path.
    """
    points, b = np.asarray(points, dtype=float), 2 * nxy

    def path(u, rows):
        return np.hstack([points[rows, :b], u[:, None] * points[rows, b:b + nzw],
                          points[rows, b + nzw:] / u[:, None]])

    # u = 1/|z| lands exactly on the inward flat piece
    return _transfers(points, nxy, nzw, delta, path,
                      lambda nz: [np.ones(nz.size), np.ones(nz.size) if nxy else 1.0 / nz],
                      lambda u, rising, rows: u * np.where(rising, 2.0, 0.5), 200)


def finite_transfers_to_s1(points: Array, nxy: int, nzw: int, a, delta) -> Array:
    """Finite-speed transfer of each (m, d) row along ((1+a) z, -a w), with a
    and the smoothing width given once or per row: closed-form flow plus a
    level-set bisection in the flow time; returns the rows on S_1."""
    points, b = np.asarray(points, dtype=float), 2 * nxy
    a = np.broadcast_to(np.asarray(a, dtype=float), len(points))
    if not (a > 0.0).all():
        raise ValueError("Liouville parameter a must be positive")

    def path(t, rows):  # math.exp of each row, as its lone transfer takes it
        grow = np.array([math.exp(v) for v in ((1.0 + a[rows]) * t).tolist()])
        shrink = np.array([math.exp(v) for v in (-a[rows] * t).tolist()])
        return np.hstack([points[rows, :b], grow[:, None] * points[rows, b:b + nzw],
                          shrink[:, None] * points[rows, b + nzw:]])

    def widen(t, rising, rows):
        return t + np.where(rising, 1.0, -1.0) * 0.1 / (1.0 + a[rows])

    return _transfers(points, nxy, nzw, delta, path, lambda nz: [np.zeros(nz.size)], widen, 400)


def limit_transfer_to_s1(pt: ModelPoint, delta: float) -> Array:
    """The one-row call of :func:`limit_transfers_to_s1`; returns the flat
    state.  A one-point adapter that perfbench/layers.py traces and the
    tests call: no package code calls it."""
    return limit_transfers_to_s1(pt.as_array()[None], pt.nxy, pt.nzw, delta)[0]


def transfers_to_s_minus1(points: Array, nxy: int, nzw: int) -> Array:
    """Inverse transfer of each (m, d) row onto |w|^2 = 1: (|w| z, w / |w|),
    keeping z.w."""
    points, b = np.asarray(points, dtype=float), 2 * nxy
    w = points[:, b + nzw:]
    nw = np.sqrt(np.vecdot(w, w))[:, None]
    if (nw == 0.0).any():
        raise ValueError("cannot rescale onto |w| = 1 from w = 0")
    return np.hstack([points[:, :b], nw * points[:, b:b + nzw], w / nw])


# ---------------------------------------------------------------------------
# handle membership by flow oracle
# ---------------------------------------------------------------------------

def handle_membership(pt: ModelPoint, delta: float) -> Optional[bool]:
    """Membership of one point in the handle region: the one-row case of
    :func:`handle_memberships`, a one-point adapter that perfbench/layers.py
    traces and the tests call."""
    return handle_memberships(pt.as_array()[None], pt.nxy, pt.nzw, delta)[0]


def handle_memberships(points: Array, nxy: int, nzw: int,
                       delta: float) -> list[Optional[bool]]:
    """Membership in the handle region of each row of an (m, d) batch, decided
    by flowing along the Liouville field.

    A row is True when its backward flow meets the gluing collar on |w|^2 = 1
    (within radius 1.5 of the core) and its forward flow meets the surgered
    hypersurface; False when either is provably unreachable; None when the
    flow oracle is inconclusive within the time bound.  The rows that flow
    backward march as one batch along the negated field, and then the rows
    that flow forward.
    """
    step, max_time, event_tol = 1e-3, 12.0, 1e-10  # the flow oracle's RK4
    u0 = np.array(points, dtype=float)
    liouville = liouville_field(nxy, nzw)
    drift = liouville(u0)
    rho2_0, w2_0 = _rho2_w2(_operands(u0), nxy, nzw)
    # at rest, or |w| = 0, which stays 0 along the flow and never reaches the collar
    ruled_out = (np.sqrt(np.vecdot(drift, drift)) < 1e-14) | (w2_0 == 0.0)
    inconclusive = np.zeros(len(u0), dtype=bool)

    # backward flow to |w|^2 = 1, except where |w| > 1 and it only inflates |w|
    reach_glue = np.zeros(len(u0), dtype=bool)
    rows = np.flatnonzero(~ruled_out & ~(np.sqrt(w2_0) > 1.0 + 1e-12))
    if rows.size:
        # the forward flow of the negated field: the Liouville field scales
        # u by s = liouville(1), and (-s) u has the bits of -(s u)
        backward = -liouville(np.ones(u0.shape[1]))
        t_hit, ends = _kernels.rk4_until_event(
            lambda u: backward * u, u0[rows], wnorm2_value(nxy, nzw), 1.0, step, max_time,
            event_tol)
        crossed = ~np.isnan(t_hit)
        rho2, _ = _rho2_w2(_operands(ends), nxy, nzw)
        reach_glue[rows] = crossed & (rho2 <= 1.5 ** 2)  # the gluing collar's radius
        inconclusive[rows[~crossed]] = True

    # forward flow to S_1, except on the w axis, where the level value caps out below zero
    level = level_value(nxy, nzw, delta)
    f0 = level(u0)
    reach_s1 = np.zeros(len(u0), dtype=bool)
    on_axis = (f0 < 0.0) & (np.sqrt(rho2_0) < 1e-14)
    rows = np.flatnonzero(~ruled_out & ~inconclusive & ~on_axis)
    if rows.size:
        t_hit, ends = _kernels.rk4_until_event(
            liouville, u0[rows], level, 0.0, step, max_time, event_tol)
        crossed = ~np.isnan(t_hit)
        reach_s1[rows] = crossed
        # the level value only grows along the forward flow
        receding = (f0[rows] > 0.0) & (level(ends) >= f0[rows])
        inconclusive[rows[~crossed & ~receding]] = True

    return [None if open_ else bool(glue and s1)
            for open_, glue, s1 in zip(inconclusive, reach_glue, reach_s1)]


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def random_s_minus1_points(rng: np.random.Generator, count: int, nxy: int,
                           nzw: int) -> Array:
    """(count, d) rows of S_{-1} in flat block layout, drawn one point at a
    time: uniform unit w, Gaussian z and x, y of scales 0.8 and 0.5."""
    if nzw < 1:
        raise ValueError(f"the (z, w) blocks must be nonempty, got nzw = {nzw}")
    rows = np.empty((count, 2 * nxy + 2 * nzw))
    for row in rows:
        w = rng.standard_normal(nzw)
        w /= np.linalg.norm(w)
        z = rng.standard_normal(nzw) * 0.8 / math.sqrt(nzw)
        x = rng.standard_normal(nxy) * 0.5
        y = rng.standard_normal(nxy) * 0.5
        row[:] = np.concatenate([x, y, z, w])
    return rows


def sample_s1_points(rng: np.random.Generator, count: int, nxy: int, nzw: int,
                     delta: float, rho2_max: float = 4.0) -> Array:
    """Points of the surgered hypersurface, as rows in flat block layout.

    Mixes the inward piece (|w|^2 drawn in [0, 1], radial coordinate solved
    from the profile) with the outward flat piece (|w|^2 = 1, radial
    coordinate free), then Newton-projects the rows onto the exact level set.
    Each point's draws are taken in turn; the inward radii, the rows and
    their projection are computed on columns.
    """
    w2, rho2 = np.empty(count), np.empty(count)
    inward = np.zeros(count, dtype=bool)
    w_dir, r_dir = np.empty((count, nzw)), np.empty((count, 2 * nxy + nzw))
    for i in range(count):
        if rng.random() < 0.7:
            inward[i] = True
            w2[i] = rng.random()  # |w|^2 in [0, 1]
        else:
            w2[i] = 1.0
            rho2[i] = (1.0 + delta) + (rho2_max - (1.0 + delta)) * rng.random()
        w_dir[i] = rng.standard_normal(nzw)
        r_dir[i] = rng.standard_normal(2 * nxy + nzw)
    rho2[inward] = handle_g_inverse(handle_f(w2[inward], delta), delta)
    w_dir /= np.sqrt(np.vecdot(w_dir, w_dir))[:, None]
    r_dir /= np.sqrt(np.vecdot(r_dir, r_dir))[:, None]
    out = np.hstack([np.sqrt(rho2)[:, None] * r_dir, np.sqrt(w2)[:, None] * w_dir])
    return level_projection(nxy, nzw, delta)(out)
