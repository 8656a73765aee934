"""The flat surgery model: ambient R^{2n} with (x, y; z, w) blocks.

The symplectic form is omega0 = dx^dy + dz^dw with Liouville field
X = (x/2, y/2, 2z, -w).  The hypersurface S_{-1} = {|w|^2 = 1} carries the
induced contact form alpha = (x dy - y dx)/2 + 2z dw + w dz and models a
neighborhood of an isotropic sphere before surgery; S_1, the zero set of
F = -f(|w|^2) + g(|x|^2 + |y|^2 + |z|^2), models the result of the surgery.

Flat ambient layout is the block vector [x | y | z | w]; the sphere-bundle
chart for the neighborhood straightening map is [z_scalar | q | p | x | y].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .forms import KFormOracle, SmoothMap, VectorFieldOracle, one_form
from .profiles import (HandleProfile, handle_f, handle_f_d, handle_f_d_column, handle_g,
                       handle_g_d, handle_g_d_column)
from .sphere import SpherePoint, _orthonormal_complement

Array = np.ndarray

S_TOL = 1e-8


@dataclass(frozen=True)
class ModelPoint:
    """A point of the model split into (x, y, z, w) blocks; x, y may be empty."""

    x: Array
    y: Array
    z: Array
    w: Array

    def __post_init__(self):
        for name in ("x", "y", "z", "w"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise ValueError(f"block {name} must be a finite 1-d array")
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

    @property
    def n(self) -> int:
        return self.nxy + self.nzw

    @property
    def k(self) -> int:
        return self.nzw - 1

    def as_array(self) -> Array:
        return np.concatenate([self.x, self.y, self.z, self.w])

    @staticmethod
    def from_array(u: Array, nxy: int, nzw: int) -> "ModelPoint":
        u = np.asarray(u, dtype=float)
        return ModelPoint(u[:nxy], u[nxy:2 * nxy],
                          u[2 * nxy:2 * nxy + nzw], u[2 * nxy + nzw:])

    def theta(self) -> float:
        return float(self.z @ self.w)

    def on_s_minus1(self) -> bool:
        return abs(self.w @ self.w - 1.0) < S_TOL


@dataclass(frozen=True)
class SurgeryConfig:
    """Page half-angle and Liouville speed of a surgery run.  Nothing here reads
    ``delta``; perfbench/worker.py ``check_page_transport`` passes it."""

    epsilon: float = 0.1
    a: float = math.inf  # math.inf dispatches to the closed-form limit transfer
    delta: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.25:
            raise ValueError("page half-angle must lie in (0, 1/4)")
        if not (self.a == math.inf or self.a > 0.0):
            raise ValueError("Liouville parameter a must be positive or infinite")


# ---------------------------------------------------------------------------
# forms and fields
# ---------------------------------------------------------------------------

def omega0_eval(pt: ModelPoint, v1: Array, v2: Array) -> float:
    """dx^dy + dz^dw on two ambient vectors in block layout."""
    nxy, nzw = pt.nxy, pt.nzw
    return _omega0_flat(np.asarray(v1, dtype=float), np.asarray(v2, dtype=float), nxy, nzw)


def _omega0_flat(v1: Array, v2: Array, nxy: int, nzw: int) -> float:
    b = 2 * nxy
    val = v1[:nxy] @ v2[nxy:b] - v1[nxy:b] @ v2[:nxy]
    val += v1[b:b + nzw] @ v2[b + nzw:] - v1[b + nzw:] @ v2[b:b + nzw]
    return float(val)


def omega0_form(nxy: int, nzw: int) -> KFormOracle:
    dim = 2 * nxy + 2 * nzw
    form = KFormOracle(2, dim, lambda x, u, v: _omega0_flat(u, v, nxy, nzw))
    form.d_oracle = lambda x, u, v, w: 0.0
    return form


def liouville_X(pt: ModelPoint) -> ModelPoint:
    return ModelPoint(0.5 * pt.x, 0.5 * pt.y, 2.0 * pt.z, -pt.w)


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


def liouville_field(nxy: int, nzw: int) -> VectorFieldOracle:
    dim = 2 * nxy + 2 * nzw
    scale = np.concatenate([np.full(2 * nxy, 0.5), np.full(nzw, 2.0), np.full(nzw, -1.0)])

    def func(u):
        return scale * u

    return VectorFieldOracle(dim, func)


def liouville_X_a(pt: ModelPoint, a: float) -> ModelPoint:
    return ModelPoint(np.zeros_like(pt.x), np.zeros_like(pt.y),
                      (1.0 + a) * pt.z, -a * pt.w)


def liouville_a_field(nxy: int, nzw: int, a: float) -> VectorFieldOracle:
    dim = 2 * nxy + 2 * nzw
    b = 2 * nxy
    a = float(a)

    def func(u):
        du = np.zeros(u.size)
        du[b:b + nzw] = (1.0 + a) * u[b:b + nzw]
        du[b + nzw:] = -a * u[b + nzw:]
        return du

    return VectorFieldOracle(dim, func)


def alpha_s_minus1_eval(pt: ModelPoint, v: Array) -> float:
    """(x dy - y dx)/2 + 2 z dw + w dz on a tangent vector of S_{-1}."""
    if not pt.on_s_minus1():
        raise ValueError("point is not on the |w|^2 = 1 hypersurface")
    v_w = np.asarray(v, dtype=float)[2 * pt.nxy + pt.nzw:]
    if abs(pt.w @ v_w) > S_TOL:
        raise ValueError("vector is not tangent to the hypersurface")
    return alpha_model_form(pt.nxy, pt.nzw)(pt.as_array(), np.asarray(v, dtype=float))


def alpha_model_form(nxy: int, nzw: int) -> KFormOracle:
    """The ambient 1-form (x dy - y dx)/2 + 2 z dw + w dz with analytic derivative."""
    dim = 2 * nxy + 2 * nzw
    b = 2 * nxy

    def coeffs(u):
        c = np.empty(dim)
        c[:nxy] = -0.5 * u[nxy:b]
        c[nxy:b] = 0.5 * u[:nxy]
        c[b:b + nzw] = u[b + nzw:]
        c[b + nzw:] = 2.0 * u[b:b + nzw]
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


def reeb_s_minus1(pt: ModelPoint) -> ModelPoint:
    """The Reeb field of alpha on S_{-1}: the w vector placed in the z slot."""
    return ModelPoint(np.zeros_like(pt.x), np.zeros_like(pt.y),
                      pt.w.copy(), np.zeros_like(pt.w))


def reeb_field(nxy: int, nzw: int) -> VectorFieldOracle:
    """The Reeb field on a (d,) state or an (m, d) row batch."""
    dim = 2 * nxy + 2 * nzw
    b = 2 * nxy

    def func(u):
        du = np.zeros(u.shape)
        du[..., b:b + nzw] = u[..., b + nzw:]
        return du

    return VectorFieldOracle(dim, func)


def theta_page(pt: ModelPoint) -> float:
    """The page function z . w."""
    return pt.theta()


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
    """|w|^2 of a flat state."""
    b = 2 * nxy + nzw
    return lambda u: _sum_sq(u.tolist()[b:])


def unit_w_projection(nxy: int, nzw: int):
    """Rescale the w block of a flat state, in place, to unit length."""
    b = 2 * nxy + nzw

    def project(u):
        norm = math.sqrt(_sum_sq(u.tolist()[b:]))
        if norm > 0.0:
            u[b:] /= norm
        return u

    return project


def s_minus1_tangent_frame(pt: ModelPoint) -> list[Array]:
    """Basis of the tangent space of S_{-1}: all x, y, z directions plus w-perp."""
    dim = 2 * pt.nxy + 2 * pt.nzw
    b = 2 * pt.nxy
    frame = [np.eye(dim)[i] for i in range(b + pt.nzw)]
    for u in _orthonormal_complement(pt.w / np.linalg.norm(pt.w)):
        v = np.zeros(dim)
        v[b + pt.nzw:] = u
        frame.append(v)
    return frame


# ---------------------------------------------------------------------------
# the neighborhood straightening map and its conformal rescaling
# ---------------------------------------------------------------------------

def chart_pack(z: float, q: Array, p: Array, x: Array, y: Array) -> Array:
    return np.concatenate([[float(z)], q, p, x, y])


def chart_unpack(u: Array, nzw: int, nxy: int):
    u = np.asarray(u, dtype=float)
    z = float(u[0])
    q = u[1:1 + nzw]
    p = u[1 + nzw:1 + 2 * nzw]
    x = u[1 + 2 * nzw:1 + 2 * nzw + nxy]
    y = u[1 + 2 * nzw + nxy:]
    return z, q, p, x, y


def psi_w(z: float, sp: SpherePoint, x: Array, y: Array) -> ModelPoint:
    """Straightening map (z, q, p, x, y) -> (x, y; z q + p, q) onto S_{-1}."""
    return ModelPoint(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                      z * sp.q + sp.p, sp.q.copy())


def psi_w_inverse(pt: ModelPoint) -> tuple[float, SpherePoint, Array, Array]:
    """Decompose a point of S_{-1}: q = w, z = z.w, p = z - (z.w) w."""
    if not pt.on_s_minus1():
        raise ValueError("inverse straightening needs |w|^2 = 1")
    z_val = float(pt.z @ pt.w)
    p = pt.z - z_val * pt.w
    return z_val, SpherePoint(pt.w.copy(), p), pt.x.copy(), pt.y.copy()


def psi_w_map(nzw: int, nxy: int) -> SmoothMap:
    """psi_w on the flat chart [z | q | p | x | y] with analytic Jacobian."""
    dim_in = 1 + 2 * nzw + 2 * nxy
    dim_out = 2 * nxy + 2 * nzw

    def func(u):
        z, q, p, x, y = chart_unpack(u, nzw, nxy)
        return np.concatenate([x, y, z * q + p, q])

    def jac(u):
        z = u[0]
        q = u[1:1 + nzw]
        j = np.zeros((dim_out, dim_in))
        for i in range(nxy):
            j[i, 1 + 2 * nzw + i] = 1.0                  # x block
            j[nxy + i, 1 + 2 * nzw + nxy + i] = 1.0      # y block
        b = 2 * nxy
        for i in range(nzw):
            j[b + i, 0] = q[i]                           # d(zq+p)/dz
            j[b + i, 1 + i] = z                          # d(zq+p)/dq
            j[b + i, 1 + nzw + i] = 1.0                  # d(zq+p)/dp
            j[b + nzw + i, 1 + i] = 1.0                  # dw/dq
        return j

    return SmoothMap(dim_in, dim_out, func, jac=jac)


def alpha_chart_form(nzw: int, nxy: int) -> KFormOracle:
    """dz + p dq + (x dy - y dx)/2 on the sphere-bundle chart, analytic derivative."""
    dim = 1 + 2 * nzw + 2 * nxy

    def coeffs(u):
        c = np.zeros(dim)
        c[0] = 1.0
        c[1:1 + nzw] = u[1 + nzw:1 + 2 * nzw]            # p dq
        xs = u[1 + 2 * nzw:1 + 2 * nzw + nxy]
        ys = u[1 + 2 * nzw + nxy:]
        c[1 + 2 * nzw:1 + 2 * nzw + nxy] = -0.5 * ys
        c[1 + 2 * nzw + nxy:] = 0.5 * xs
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


def phi_c(z: float, sp: SpherePoint, x: Array, y: Array, C: float):
    """Conformal rescaling (z, q, p, x, y) -> (Cz, q, Cp, sqrt(C) x, sqrt(C) y)."""
    if C <= 0.0:
        raise ValueError("scaling constant must be positive")
    root = math.sqrt(C)
    return C * z, SpherePoint(sp.q.copy(), C * sp.p), root * np.asarray(x), root * np.asarray(y)


def phi_c_map(nzw: int, nxy: int, C: float) -> SmoothMap:
    if C <= 0.0:
        raise ValueError("scaling constant must be positive")
    dim = 1 + 2 * nzw + 2 * nxy
    scale = np.ones(dim)
    scale[0] = C
    scale[1 + nzw:1 + 2 * nzw] = C
    scale[1 + 2 * nzw:] = math.sqrt(C)
    return SmoothMap(dim, dim, lambda u: scale * u, jac=lambda u: np.diag(scale))


# ---------------------------------------------------------------------------
# the surgered hypersurface
# ---------------------------------------------------------------------------

def f_eval(pt: ModelPoint, profile: HandleProfile) -> float:
    """The handle function -f(|w|^2) + g(|x|^2 + |y|^2 + |z|^2); S_1 is its zero set."""
    w2 = float(pt.w @ pt.w)
    rho2 = float(pt.x @ pt.x + pt.y @ pt.y + pt.z @ pt.z)
    return -profile.f(w2) + profile.g(rho2)


def grad_f(pt: ModelPoint, profile: HandleProfile) -> Array:
    w2 = float(pt.w @ pt.w)
    rho2 = float(pt.x @ pt.x + pt.y @ pt.y + pt.z @ pt.z)
    gp = profile.g_d(rho2)
    fp = profile.f_d(w2)
    return np.concatenate([2.0 * gp * pt.x, 2.0 * gp * pt.y,
                           2.0 * gp * pt.z, -2.0 * fp * pt.w])


def transversality_margin(pt: ModelPoint, profile: HandleProfile) -> float:
    """(|x|^2/2 + |y|^2/2 + 2|z|^2) g' + |w|^2 f', positive on all of S_1.

    The Liouville directional derivative of the handle function is exactly
    twice this margin; both vanish together, so positivity of either one is
    the transversality statement.
    """
    return _margin(pt.as_array().tolist(), pt.nxy, pt.nzw, profile.delta)


def transversality_margins(points: Array, nxy: int, nzw: int,
                           profile: HandleProfile) -> Array:
    pts = np.asarray(points, dtype=float)
    out = np.empty(len(pts))
    for i, row in enumerate(pts):
        out[i] = _margin(row.tolist(), nxy, nzw, profile.delta)
    return out


def _margin(v: list, nxy: int, nzw: int, delta: float) -> float:
    b = 2 * nxy
    xy2 = _sum_sq(v[:b])
    z2 = _sum_sq(v[b:b + nzw])
    w2 = _sum_sq(v[b + nzw:])
    return (0.5 * xy2 + 2.0 * z2) * handle_g_d(xy2 + z2, delta) + w2 * handle_f_d(w2, delta)


def hamiltonian_field_xf(pt: ModelPoint, profile: HandleProfile) -> ModelPoint:
    """2 g' z in the w slot plus 2 f' w in the z slot; satisfies i_X omega0 = -dF."""
    w2 = float(pt.w @ pt.w)
    rho2 = float(pt.x @ pt.x + pt.y @ pt.y + pt.z @ pt.z)
    return ModelPoint(np.zeros_like(pt.x), np.zeros_like(pt.y),
                      2.0 * profile.f_d(w2) * pt.w, 2.0 * profile.g_d(rho2) * pt.z)


def handle_hamiltonian_field(nxy: int, nzw: int, profile: HandleProfile) -> VectorFieldOracle:
    return VectorFieldOracle(2 * nxy + 2 * nzw,
                             handle_hamiltonian_rhs(nxy, nzw, profile.delta))


def handle_hamiltonian_rhs(nxy: int, nzw: int, delta: Optional[float] = None):
    """The page flow field, 2 f'(|w|^2) w in the z slot and 2 g'(rho^2) z in
    the w slot, on a (d,) state or an (m, d) row batch.

    With ``delta`` None the state carries one more coordinate, its row's
    smoothing width, which the flow leaves fixed: rows under different handle
    profiles then flow as one batch.
    """
    b = 2 * nxy
    dim = b + 2 * nzw
    zero_xy = [0.0] * b
    tail = [] if delta is not None else [0.0]

    def func(u):
        rows = u.ndim == 2
        v = _operands(u)
        width = v[dim] if delta is None else delta
        rho2, w2 = _rho2_w2(v, nxy, nzw)
        f_d, g_d = (handle_f_d_column, handle_g_d_column) if rows else (handle_f_d, handle_g_d)
        cf = 2.0 * f_d(w2, width)
        cg = 2.0 * g_d(rho2, width)
        terms = [cf * c for c in v[b + nzw:dim]] + [cg * c for c in v[b:b + nzw]]
        if not rows:
            return np.array(zero_xy + terms + tail)
        du = np.zeros(u.shape)
        du[:, b:dim] = np.transpose(terms)
        return du

    return func


def level_value(nxy: int, nzw: int, delta: float):
    """The handle function -f(|w|^2) + g(|x|^2 + |y|^2 + |z|^2) of a flat state."""
    def value(u):
        rho2, w2 = _rho2_w2(u.tolist(), nxy, nzw)
        return -handle_f(w2, delta) + handle_g(rho2, delta)

    return value


def level_projection(nxy: int, nzw: int, delta: float):
    """Newton steps, in place, onto the zero level of the handle function."""
    b = 2 * nxy + nzw

    def project(u):
        for _ in range(8):
            rho2, w2 = _rho2_w2(u.tolist(), nxy, nzw)
            fval = -handle_f(w2, delta) + handle_g(rho2, delta)
            if abs(fval) < 1e-13:
                break
            grad = np.empty(u.size)
            grad[:b] = (2.0 * handle_g_d(rho2, delta)) * u[:b]
            grad[b:] = (-2.0 * handle_f_d(w2, delta)) * u[b:]
            gnorm2 = _sum_sq(grad.tolist())
            if gnorm2 == 0.0:
                break
            u -= (fval / gnorm2) * grad
        return u

    return project


# ---------------------------------------------------------------------------
# Liouville transfer between the hypersurfaces
# ---------------------------------------------------------------------------

def _bisect_root(fn, lo: float, hi: float) -> float:
    """Bisection for a sign change of fn on [lo, hi]: stops once |fn| <= 1e-10,
    the bracket reaches rounding size, or after 200 halvings."""
    f_lo = fn(lo)
    f_hi = fn(hi)
    if abs(f_lo) <= 1e-10:
        return lo
    if abs(f_hi) <= 1e-10:
        return hi
    if f_lo * f_hi > 0.0:
        raise ValueError("root not bracketed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid)
        if abs(f_mid) <= 1e-10 or (hi - lo) < 1e-16 * max(1.0, abs(mid)):
            return mid
        if f_lo * f_mid <= 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def limit_transfer_to_s1(pt: ModelPoint, profile: HandleProfile) -> ModelPoint:
    """Infinite-speed Liouville transfer: slide along (u z, w / u) until the
    handle function vanishes.

    On inward flat-piece inputs this is the closed map (z / |z|, |z| w); the
    page value z.w is preserved exactly along the whole path.
    """
    nz = float(np.linalg.norm(pt.z))
    if nz == 0.0:
        raise ValueError("no image: the z = 0 locus is removed by the surgery")

    def path(u):
        return ModelPoint(pt.x, pt.y, u * pt.z, pt.w / u)

    def fval(u):
        return f_eval(path(u), profile)

    if abs(fval(1.0)) <= 1e-12:
        return path(1.0)
    # flat shortcut: u = 1/|z| lands exactly on the inward flat piece
    if pt.nxy == 0:
        u_flat = 1.0 / nz
        if abs(fval(u_flat)) <= 1e-12:
            return path(u_flat)
    lo, hi = 1.0, 1.0
    f0 = fval(1.0)
    step = 2.0 if f0 < 0.0 else 0.5
    for _ in range(200):
        hi *= step
        if fval(hi) * f0 <= 0.0:
            break
    else:
        raise ValueError("no level crossing along the transfer path")
    u_star = _bisect_root(fval, min(lo, hi), max(lo, hi))
    return path(u_star)


def transfer_to_s1_finite_a(pt: ModelPoint, a: float, profile: HandleProfile) -> ModelPoint:
    """Finite-speed transfer along ((1+a) z, -a w): closed-form flow plus a
    level-set bisection in the flow time."""
    if a == math.inf:
        return limit_transfer_to_s1(pt, profile)
    if a <= 0.0:
        raise ValueError("Liouville parameter a must be positive")
    nz = float(np.linalg.norm(pt.z))
    if nz == 0.0:
        raise ValueError("no image: the z = 0 locus is removed by the surgery")

    def path(t):
        return ModelPoint(pt.x, pt.y, math.exp((1.0 + a) * t) * pt.z,
                          math.exp(-a * t) * pt.w)

    def fval(t):
        return f_eval(path(t), profile)

    f0 = fval(0.0)
    if abs(f0) <= 1e-12:
        return path(0.0)
    t_hi = 0.0
    dt = (1.0 if f0 < 0.0 else -1.0) * 0.1 / (1.0 + a)
    for _ in range(400):
        t_hi += dt
        if fval(t_hi) * f0 <= 0.0:
            break
    else:
        raise ValueError("no level crossing along the finite-speed transfer")
    t_star = _bisect_root(fval, min(0.0, t_hi), max(0.0, t_hi))
    return path(t_star)


def transfer_to_s_minus1(pt: ModelPoint) -> ModelPoint:
    """Inverse transfer onto |w|^2 = 1: (|w| z, w / |w|), preserving z.w."""
    nw = float(np.linalg.norm(pt.w))
    if nw == 0.0:
        raise ValueError("cannot rescale onto |w| = 1 from w = 0")
    return ModelPoint(pt.x, pt.y, nw * pt.z, pt.w / nw)


# ---------------------------------------------------------------------------
# handle membership by flow oracle
# ---------------------------------------------------------------------------

def handle_membership(pt: ModelPoint, profile: HandleProfile) -> Optional[bool]:
    """Membership in the handle region, decided by flowing along the Liouville field.

    True when the backward flow meets the gluing collar on |w|^2 = 1 (within
    radius 1.5 of the core) and the forward flow meets the surgered
    hypersurface; False when either is provably unreachable; None when the
    flow oracle is inconclusive within the time bound.
    """
    step, max_time, event_tol = 1e-3, 12.0, 1e-10  # the flow oracle's RK4
    u0 = pt.as_array()
    nxy, nzw = pt.nxy, pt.nzw
    field_speed = np.linalg.norm(liouville_X(pt).as_array())
    if field_speed < 1e-14:
        return False

    w_norm = float(np.linalg.norm(pt.w))
    if w_norm == 0.0:
        return False  # |w| stays 0 along the flow, never reaches the collar
    liouville = liouville_field(nxy, nzw).func
    if w_norm > 1.0 + 1e-12:
        reach_glue = False  # backward flow inflates |w| further
    else:
        t_hit, _, states = _kernels.rk4_until_event(
            liouville, u0, wnorm2_value(nxy, nzw), 1.0, step, max_time, event_tol,
            direction=-1.0)
        if t_hit is not None:
            hit = ModelPoint.from_array(states[-1], nxy, nzw)
            rho2 = float(hit.x @ hit.x + hit.y @ hit.y + hit.z @ hit.z)
            reach_glue = rho2 <= 1.5 ** 2  # the gluing collar's radius
        else:
            return None

    f0 = f_eval(pt, profile)
    rho0 = float(np.linalg.norm(np.concatenate([pt.x, pt.y, pt.z])))
    if f0 < 0.0 and rho0 < 1e-14:
        reach_s1 = False  # on the w axis the level value caps out below zero
    else:
        t_hit, _, states = _kernels.rk4_until_event(
            liouville, u0, level_value(nxy, nzw, profile.delta), 0.0, step, max_time,
            event_tol)
        if t_hit is not None:
            reach_s1 = True
        else:
            f_end = f_eval(ModelPoint.from_array(states[-1], nxy, nzw), profile)
            if f0 > 0.0 and f_end >= f0:
                reach_s1 = False  # level value only grows along the forward flow
            else:
                return None

    return bool(reach_glue and reach_s1)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def random_s_minus1_point(rng: np.random.Generator, nxy: int, nzw: int) -> ModelPoint:
    """A point of S_{-1}: uniform unit w, Gaussian z and x, y of scales 0.8 and 0.5."""
    w = rng.standard_normal(nzw)
    w /= np.linalg.norm(w)
    z = rng.standard_normal(nzw) * 0.8 / math.sqrt(nzw)
    x = rng.standard_normal(nxy) * 0.5 if nxy else np.zeros(0)
    y = rng.standard_normal(nxy) * 0.5 if nxy else np.zeros(0)
    return ModelPoint(x, y, z, w)


def sample_s1_points(rng: np.random.Generator, count: int, nxy: int, nzw: int,
                     profile: HandleProfile, rho2_max: float = 4.0) -> Array:
    """Points of the surgered hypersurface, as rows in flat block layout.

    Mixes the inward piece (|w|^2 drawn in [0, 1], radial coordinate solved
    from the profile) with the outward flat piece (|w|^2 = 1, radial
    coordinate free), then Newton-projects onto the exact level set.
    """
    dim = 2 * nxy + 2 * nzw
    out = np.empty((count, dim))
    delta = profile.delta
    project = level_projection(nxy, nzw, delta)
    for i in range(count):
        if rng.random() < 0.7:
            s = rng.random()  # |w|^2 in [0, 1]
            rho2 = profile.g_inverse(profile.f(s))
        else:
            s = 1.0
            rho2 = (1.0 + delta) + (rho2_max - (1.0 + delta)) * rng.random()
        w_dir = rng.standard_normal(nzw)
        w_dir /= np.linalg.norm(w_dir)
        r_dir = rng.standard_normal(2 * nxy + nzw)
        r_dir /= np.linalg.norm(r_dir)
        u = np.empty(dim)
        u[:2 * nxy] = math.sqrt(rho2) * r_dir[:2 * nxy]
        u[2 * nxy:2 * nxy + nzw] = math.sqrt(rho2) * r_dir[2 * nxy:]
        u[2 * nxy + nzw:] = math.sqrt(s) * w_dir
        out[i] = project(u)
    return out
