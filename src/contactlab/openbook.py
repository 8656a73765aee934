"""Open book assembly: mapping-torus and binding forms, gluing, exactness
correction of the monodromy, Lagrangian-to-Legendrian correction, and
Reeb/page transversality checks.

Product charts are flat: a mapping torus point is (sigma-coords..., phi), a
collar point is (s, boundary-coords..., phi), a binding point is
(boundary-coords..., r, phi) in polar or (boundary-coords..., u, v) in
Cartesian disk coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels, flows
from .flows import IntegratorConfig
from .forms import (KFormOracle, ScalarField, SmoothMap, VectorFieldOracle,
                    exterior_derivative, one_form, reeb_coefficients)
# not called here; kept as a module attribute because perfbench/layers.py
# rebinds openbook.pullback_eval to time it
from .forms import pullback_eval  # noqa: F401
from .profiles import BindingProfile, smoothstep, smoothstep_d
from .sphere import SpherePoint, canonical_one_form, tangent_frame

Array = np.ndarray


# ---------------------------------------------------------------------------
# domains and candidate symplectomorphisms
# ---------------------------------------------------------------------------

@dataclass
class BatchedMapOps:
    """Vectorized twins of a map: func (m,d)->(m,d), jac (m,d)->(m,d,d).

    ``func_jac`` returns both at once; a map whose Jacobian rides along with
    its own computation supplies it so callers needing both pay once.
    """

    func: Callable[[Array], Array]
    jac: Callable[[Array], Array]
    func_jac: Optional[Callable[[Array], tuple[Array, Array]]] = None

    def __post_init__(self):
        if self.func_jac is None:
            self.func_jac = lambda pts: (self.func(pts), self.jac(pts))


@dataclass
class ExactSymplecticDomain:
    """A star-shaped coordinate patch with an exact symplectic primitive.

    ``lam_batch`` gives the coefficient rows of lambda for a batch of points
    and ``dlambda_const`` the constant coefficient matrix of d lambda; the
    exactness correction solves for its field with that matrix.
    """

    dim: int
    lam: KFormOracle
    sample_box: Array  # (dim, 2) bounds
    lam_batch: Callable[[Array], Array]
    dlambda_const: Array

    def __post_init__(self):
        self.sample_box = np.asarray(self.sample_box, dtype=float)
        if self.sample_box.shape != (self.dim, 2):
            raise ValueError("sample_box must be (dim, 2) bounds")

    def dlambda_matrix(self, x: Array) -> Array:
        """d(lambda) at x by central differences of lambda (step 1e-5): the tests'
        reference for ``dlambda_const`` and a span perfbench/layers.py traces."""
        basis = np.eye(self.dim)
        mat = np.zeros((self.dim, self.dim))
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                mat[i, j] = exterior_derivative(self.lam, x, [basis[i], basis[j]], 1e-5)
                mat[j, i] = -mat[i, j]
        return mat

    def sample(self, rng: np.random.Generator, count: int) -> Array:
        lo, hi = self.sample_box[:, 0], self.sample_box[:, 1]
        return lo + (hi - lo) * rng.random((count, self.dim))


def standard_disk_domain(half_width: float = 1.0) -> ExactSymplecticDomain:
    """R^2 with the rotational primitive (x dy - y dx)/2 of dx^dy.  Every caller
    uses half-width 1.0; the argument stays because perfbench/worker.py passes it."""
    lam = one_form(2, lambda u: 0.5 * np.array([-u[1], u[0]]),
                   lambda u: 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]]))
    box = np.array([[-half_width, half_width], [-half_width, half_width]])
    return ExactSymplecticDomain(
        2, lam, box,
        lam_batch=lambda pts: 0.5 * np.stack([-pts[:, 1], pts[:, 0]], axis=1),
        dlambda_const=np.array([[0.0, 1.0], [-1.0, 0.0]]))


@dataclass
class SymplectomorphismCandidate:
    """A map expected to preserve d(lambda), equal to the identity outside its
    (dim, 2) support box.  ``mapping`` is its one-point form, built from the
    batched ops as they are when the candidate is made."""

    batched: BatchedMapOps
    support_box: Array
    mapping: SmoothMap = field(init=False)

    def __post_init__(self):
        self.support_box = np.asarray(self.support_box, dtype=float)
        func, jac = self.batched.func, self.batched.jac
        dim = len(self.support_box)
        self.mapping = SmoothMap(dim, dim, lambda u: func(u[None, :])[0],
                                 jac=lambda u: jac(u[None, :])[0])

    def image_and_jacobian(self, x: Array) -> tuple[Array, Array]:
        """psi(x) and its Jacobian at one point, from one batched call."""
        img, jac = self.batched.func_jac(np.asarray(x, dtype=float)[None, :])
        return img[0], jac[0]


def identity_candidate(dim: int) -> SymplectomorphismCandidate:
    """The identity map, which needs no correction; its support box is the
    origin alone."""
    return SymplectomorphismCandidate(
        BatchedMapOps(lambda pts: pts.copy(),
                      lambda pts: np.tile(np.eye(dim), (len(pts), 1, 1))),
        np.zeros((dim, 2)))


def radial_twist_map(amplitude: float, support_radius: float) -> SymplectomorphismCandidate:
    """Rotation by the radius-dependent angle a(|u|^2): an exact, closed-form,
    compactly supported symplectomorphism of the standard plane."""
    r02 = support_radius ** 2

    # the fifth power keeps the angle C^4 at the support circle, which the
    # Gauss-Legendre line integrals downstream rely on
    def angle_np(s):
        return amplitude * np.clip(1.0 - s / r02, 0.0, None) ** 5

    def angle_d_np(s):
        return -5.0 * amplitude * np.clip(1.0 - s / r02, 0.0, None) ** 4 / r02

    def func_batch(pts):
        s = np.einsum("mi,mi->m", pts, pts)
        t = angle_np(s)
        c, sn = np.cos(t), np.sin(t)
        return np.stack([c * pts[:, 0] - sn * pts[:, 1],
                         sn * pts[:, 0] + c * pts[:, 1]], axis=1)

    def jac_batch(pts):
        s = np.einsum("mi,mi->m", pts, pts)
        t = angle_np(s)
        c, sn = np.cos(t), np.sin(t)
        rot = np.empty((len(pts), 2, 2))
        rot[:, 0, 0] = c
        rot[:, 0, 1] = -sn
        rot[:, 1, 0] = sn
        rot[:, 1, 1] = c
        rot_d = np.empty_like(rot)
        rot_d[:, 0, 0] = -sn
        rot_d[:, 0, 1] = -c
        rot_d[:, 1, 0] = c
        rot_d[:, 1, 1] = -sn
        rotated = np.einsum("mij,mj->mi", rot_d, pts)
        return rot + 2.0 * angle_d_np(s)[:, None, None] * \
            np.einsum("mi,mj->mij", rotated, pts)

    box = np.array([[-support_radius, support_radius]] * 2)
    return SymplectomorphismCandidate(BatchedMapOps(func_batch, jac_batch), box)


def strip_shear_map(amplitude: float, half_width: float):
    """Closed-form shear (x, y) -> (x, y - c(x)) with a polynomial bump c.

    The time-1 flow of the x-dependent Hamiltonian; it satisfies
    psi^* lambda = lambda - d(h0) for the returned explicit primitive h0.
    """
    r0 = half_width

    def c_np(x):
        return amplitude * np.clip(1.0 - (x / r0) ** 2, 0.0, None) ** 4

    def c_d_np(x):
        return -8.0 * amplitude * x / r0 ** 2 * np.clip(1.0 - (x / r0) ** 2, 0.0, None) ** 3

    def c_int(x):
        # integral of c from 0 to x, saturating outside the strip
        t = np.clip(x / r0, -1.0, 1.0)
        poly = t - (4.0 / 3.0) * t ** 3 + (6.0 / 5.0) * t ** 5 \
            - (4.0 / 7.0) * t ** 7 + t ** 9 / 9.0
        return amplitude * r0 * poly

    def func_batch(pts):
        return np.stack([pts[:, 0], pts[:, 1] - c_np(pts[:, 0])], axis=1)

    def jac_batch(pts):
        jac = np.zeros((len(pts), 2, 2))
        jac[:, 0, 0] = 1.0
        jac[:, 1, 1] = 1.0
        jac[:, 1, 0] = -c_d_np(pts[:, 0])
        return jac

    def h0(u):
        # psi^* lambda - lambda = ((c - x c')/2) dx = -d h0
        return -(float(c_int(u[0])) - 0.5 * u[0] * float(c_np(u[0])))

    box = np.array([[-half_width, half_width], [-50.0, 50.0]])
    return SymplectomorphismCandidate(BatchedMapOps(func_batch, jac_batch), box), h0


def bump_variational_terms(amplitude, r02, base, x, y, j00, j01, j10, j11):
    """The variational field of the bump H = A (1 - |u|^2/r0^2)_+^4 as the six
    terms (X_H, d/dt J) for the state (x, y, J00, J01, J10, J11).

    Operands are Python floats or NumPy columns alike; ``base`` is the clipped
    (1 - |u|^2/r0^2)_+, which the caller computes because only the clip
    differs between the two.  Powers are written as products: NumPy's
    vectorised ``pow`` and libm's disagree in the last bit on some inputs.
    """
    base2 = base * base
    base3 = base2 * base
    # X_H = J_std grad H with grad H = coeff * u
    coeff = -8.0 * amplitude / r02 * base3
    # Hess H = 2 A q'(s) I + 4 A q''(s) u u^T with q(s) = (1 - s/r0^2)^4
    diag = 2.0 * amplitude * (-4.0 * base3 / r02)
    outer = 4.0 * amplitude * (12.0 * base2 / (r02 * r02))
    h00 = diag + outer * (x * x)
    h01 = outer * (x * y)
    h11 = diag + outer * (y * y)
    # J_std = [[0, 1], [-1, 0]] turns Hess H into rows (h01, h11), (-h00, -h01)
    nh00 = -h00
    return (coeff * y, -coeff * x,
            h01 * j00 + h11 * j10, h01 * j01 + h11 * j11,
            nh00 * j00 - h01 * j10, nh00 * j01 - h01 * j11)


def hamiltonian_bump_map(amplitude: float, support_radius: float,
                         step: float = 0.01) -> SymplectomorphismCandidate:
    """Time-1 flow of the Hamiltonian field of a compactly supported bump on
    the plane; d(lambda)-preserving by construction (up to integrator error).

    The Jacobian rides along as the variational flow, so both the map and its
    derivative come from one integration.  A single point flows in Python
    floats, where NumPy's per-call cost on one-row arrays would dominate; a
    batch flows in NumPy columns.  Both run :func:`bump_variational_terms`,
    so a row's bits do not depend on the route.
    """
    r02 = support_radius ** 2

    def float_field(u):
        x, y, j00, j01, j10, j11 = u.tolist()
        base = max(1.0 - (x * x + y * y) / r02, 0.0)
        return np.array(bump_variational_terms(amplitude, r02, base, x, y,
                                               j00, j01, j10, j11))

    def column_field(u):
        x, y = u[:, 0], u[:, 1]
        base = np.maximum(1.0 - (x * x + y * y) / r02, 0.0)
        out = np.empty_like(u)
        for k, term in enumerate(bump_variational_terms(amplitude, r02, base, x, y, u[:, 2],
                                                        u[:, 3], u[:, 4], u[:, 5])):
            out[:, k] = term
        return out

    def func_jac_batch(pts):
        # the variational flow carries the trajectory: its x-columns are the map
        if len(pts) == 1:
            (x, y), = pts.tolist()
            out = _kernels.rk4_final(float_field, [x, y, 1.0, 0.0, 0.0, 1.0],
                                     1.0, step)[None, :]
        else:
            state = np.zeros((len(pts), 6))
            state[:, :2] = pts
            state[:, 2] = 1.0
            state[:, 5] = 1.0
            out = _kernels.rk4_final(column_field, state, 1.0, step)
        return out[:, :2], out[:, 2:].reshape(len(pts), 2, 2)

    box = np.array([[-support_radius, support_radius]] * 2)
    return SymplectomorphismCandidate(
        BatchedMapOps(lambda pts: func_jac_batch(pts)[0],
                      lambda pts: func_jac_batch(pts)[1], func_jac_batch), box)


# ---------------------------------------------------------------------------
# mapping torus, gluing, binding
# ---------------------------------------------------------------------------

def mapping_torus_form(lam: KFormOracle) -> KFormOracle:
    """lambda + dphi on (sigma-coords..., phi)."""
    dim = lam.dim + 1

    def ev(u, v):
        return lam(u[:-1], np.asarray(v, dtype=float)[:-1]) + float(v[-1])

    form = KFormOracle(1, dim, ev)
    if lam.d_oracle is not None:
        form.d_oracle = lambda u, a, b: lam.d_oracle(
            u[:-1], np.asarray(a, dtype=float)[:-1], np.asarray(b, dtype=float)[:-1])
    return form


def glue_map(boundary_dim: int) -> SmoothMap:
    """(x, r, phi) -> (1/2 - r, x, phi): the annulus-to-collar identification."""
    d = boundary_dim

    def func(u):
        out = np.empty(d + 2)
        out[0] = 0.5 - u[d]
        out[1:d + 1] = u[:d]
        out[d + 1] = u[d + 1]
        return out

    def jac(u):
        j = np.zeros((d + 2, d + 2))
        j[0, d] = -1.0
        for i in range(d):
            j[1 + i, i] = 1.0
        j[d + 1, d + 1] = 1.0
        return j

    return SmoothMap(d + 2, d + 2, func, jac=jac)


def collar_form(lam_boundary: KFormOracle) -> KFormOracle:
    """exp(s) * lambda_boundary + dphi on (s, x..., phi)."""
    d = lam_boundary.dim
    dim = d + 2

    def ev(u, v):
        v = np.asarray(v, dtype=float)
        return math.exp(u[0]) * lam_boundary(u[1:d + 1], v[1:d + 1]) + float(v[-1])

    return KFormOracle(1, dim, ev)


def binding_form_polar(profile: BindingProfile, lam_boundary: KFormOracle) -> KFormOracle:
    """h1(r) lambda_boundary + h2(r) dphi on (x..., r, phi), 0 <= r < 1."""
    d = lam_boundary.dim
    dim = d + 2

    def ev(u, v):
        r = float(u[d])
        if not 0.0 <= r < 1.0:
            raise ValueError(f"radial coordinate {r} outside [0, 1)")
        v = np.asarray(v, dtype=float)
        return profile.h1(r) * lam_boundary(u[:d], v[:d]) + profile.h2(r) * float(v[-1])

    def d_oracle(u, a, b):
        r = float(u[d])
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        val = profile.h1_d(r) * (a[d] * lam_boundary(u[:d], b[:d])
                                 - b[d] * lam_boundary(u[:d], a[:d]))
        val += profile.h1(r) * exterior_derivative(lam_boundary, u[:d], [a[:d], b[:d]])
        val += profile.h2_d(r) * (a[d] * b[-1] - b[d] * a[-1])
        return val

    form = KFormOracle(1, dim, ev)
    form.d_oracle = d_oracle
    return form


def binding_form_cartesian(profile: BindingProfile, lam_boundary: KFormOracle) -> KFormOracle:
    """h1 lambda_boundary + (h2(r)/r^2)(u dv - v du) on (x..., u, v).

    The quadratic rise of h2 makes the disk factor smooth across r = 0; this
    chart is what the even-extension smoothness test differentiates.
    """
    d = lam_boundary.dim
    dim = d + 2

    def ev(u, v):
        uu, vv = float(u[d]), float(u[d + 1])
        r = math.hypot(uu, vv)
        v = np.asarray(v, dtype=float)
        ratio = profile.h2_over_r2(r)
        return profile.h1(r) * lam_boundary(u[:d], v[:d]) \
            + ratio * (uu * v[d + 1] - vv * v[d])

    return KFormOracle(1, dim, ev)


# ---------------------------------------------------------------------------
# exactness correction of the monodromy
# ---------------------------------------------------------------------------

@dataclass
class GirouxResult:
    psi_hat: SmoothMap
    h: Callable[[Array], float]
    y_field: VectorFieldOracle
    mu_closedness: float
    cond_max: float
    base_point: Array


def giroux_correction(domain: ExactSymplecticDomain,
                      psi: SymplectomorphismCandidate,
                      flow_cfg: IntegratorConfig,
                      rng: np.random.Generator,
                      closedness_samples: int = 12) -> GirouxResult:
    """Isotope psi to psi_hat with psi_hat^* lambda = lambda - dh.

    The correcting field Y solves i_Y d(lambda) = -(psi^* lambda - lambda)
    pointwise; psi_hat = psi o (time-1 flow of Y).  The primitive h is
    produced by quadrature of the contraction i_Y lambda along the Y-flow
    (normalized to vanish at the centre of the sample box), which
    differentiates to -(psi_hat^* lambda - lambda) when the correction
    succeeds; the identity is a *checked* output, not an assumption.  Inputs
    with |d(psi^* lambda - lambda)| > 1e-6 at a sample are rejected.
    """
    base_point = domain.sample_box.mean(axis=1)
    lam = domain.lam

    def mu_vec(x):
        image, jac = psi.image_and_jacobian(x)
        basis = np.eye(domain.dim)
        return np.array([lam(image, jac @ e) - lam(x, e) for e in basis])

    mu_form = one_form(domain.dim, mu_vec)

    # precondition: mu must be closed
    worst_dmu = 0.0
    basis = np.eye(domain.dim)
    for x in domain.sample(rng, closedness_samples):
        for i in range(domain.dim):
            for j in range(i + 1, domain.dim):
                worst_dmu = max(worst_dmu, abs(exterior_derivative(
                    mu_form, x, [basis[i], basis[j]], 1e-4)))
    if worst_dmu > 1e-6:
        raise ValueError(f"psi^* lambda - lambda is not closed (residual {worst_dmu:.2e}); "
                         "the input does not preserve d(lambda)")

    def y_func(x):
        return np.linalg.solve(domain.dlambda_const.T, -mu_vec(x))

    y_field = VectorFieldOracle(domain.dim, y_func)

    # one flow serves both outputs: the Y-flow augmented with the quadrature
    # variable sdot = lambda(Y), whose end state holds the time-1 image (for
    # psi_hat) and the primitive's raw value (for h)
    def augmented(state):
        x = state[:-1]
        y = y_func(x)
        return np.append(y, lam(x, y))

    aug_field = VectorFieldOracle(domain.dim + 1, augmented)
    last = {"key": None, "end": None}  # memo of the last start point

    def flow_end(x):
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        if key != last["key"]:
            last["end"] = flows.flow_fixed_time(aug_field, np.append(x, 0.0), 1.0, flow_cfg)
            last["key"] = key
        return last["end"]

    psi_hat = SmoothMap(domain.dim, domain.dim,
                        lambda x: psi.mapping(flow_end(x)[:-1].copy()))

    h_base = float(flow_end(base_point)[-1])

    def h(x):
        return -(float(flow_end(x)[-1]) - h_base)

    return GirouxResult(psi_hat=psi_hat, h=h, y_field=y_field,
                        mu_closedness=worst_dmu,
                        cond_max=float(np.linalg.cond(domain.dlambda_const)),
                        base_point=base_point)


def make_batched_y(domain: ExactSymplecticDomain,
                   psi: SymplectomorphismCandidate) -> Callable[[Array], Array]:
    """Vectorized correcting field: rows Y with i_Y d(lambda) = -(psi^*lambda - lambda).

    Agreement with the pointwise solve is a tested property.
    """
    solve_mat = np.linalg.inv(domain.dlambda_const.T)

    def y_batch(pts):
        img, jac = psi.batched.func_jac(pts)
        mu = np.einsum("mi,mik->mk", domain.lam_batch(img), jac) \
            - domain.lam_batch(pts)
        return -(mu @ solve_mat.T)

    return y_batch


@dataclass
class GirouxBatchEval:
    """Primitive values and corrected images over a batch of points."""

    points: Array     # (m, d)
    h: Array          # (m,) normalized to vanish at the base point
    psi_hat: Array    # (m, d)


def giroux_flow_batch(domain: ExactSymplecticDomain,
                      psi: SymplectomorphismCandidate, points: Array,
                      flow_cfg: IntegratorConfig) -> GirouxBatchEval:
    """One vectorized integration of the correcting flow with its quadrature
    variable, for every requested point at once; h vanishes at the centre of
    the sample box, as in :func:`giroux_correction`."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    base_point = domain.sample_box.mean(axis=1)
    y_batch = make_batched_y(domain, psi)
    d = domain.dim
    stacked = np.vstack([points, base_point[None, :]])
    aug = np.concatenate([stacked, np.zeros((len(stacked), 1))], axis=1)

    def field(u):
        x = u[:, :d]
        y = y_batch(x)
        s_dot = np.einsum("mi,mi->m", domain.lam_batch(x), y)
        return np.concatenate([y, s_dot[:, None]], axis=1)

    out = _kernels.rk4_final(field, aug, 1.0, flow_cfg.step)
    h_raw = out[:, d]
    h = -(h_raw[:-1] - h_raw[-1])
    psi_hat = psi.batched.func(out[:-1, :d])
    return GirouxBatchEval(points=points, h=h, psi_hat=psi_hat)


def path_quadrature(segments: Sequence[tuple[Array, Array]], nodes: int):
    """Composite Gauss-Legendre rule along straight segments.

    Returns (points, weights, directions); a line integral of a 1-form nu is
    then sum_i weights[i] * nu(points[i])(directions[i]).  Four panels per
    segment keep the rule accurate across the finitely-smooth joints of bump
    profiles.
    """
    panels = 4
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
    pts, weights, dirs = [], [], []
    for a, b in segments:
        a = np.asarray(a, dtype=float)
        direction = np.asarray(b, dtype=float) - a
        for j in range(panels):
            lo = a + (j / panels) * direction
            for xi, wq in zip(gl_x, gl_w):
                t = 0.5 * (xi + 1.0)
                pts.append(lo + (t / panels) * direction)
                weights.append(0.5 * wq / panels)
                dirs.append(direction)
    return np.array(pts), np.array(weights), np.array(dirs)


def line_integral_primitive(nu: Callable[[Array, Array], float], base: Array,
                            x: Array, nodes: int) -> float:
    """-(integral of the 1-form nu) along the straight segment base -> x, by
    composite Gauss-Legendre quadrature."""
    nodes_pts, weights, dirs = path_quadrature(
        [(np.asarray(base, dtype=float), np.asarray(x, dtype=float))], nodes)
    total = 0.0
    for p, w, d in zip(nodes_pts, weights, dirs):
        total += w * nu(p, d)
    return -total


# ---------------------------------------------------------------------------
# Lagrangian sphere -> Legendrian realization over the sphere bundle
# ---------------------------------------------------------------------------

def _slerp(q0: Array, q1: Array, t: float) -> tuple[Array, Array]:
    """Great-circle interpolation on the unit sphere with velocity."""
    dot = float(np.clip(q0 @ q1, -1.0, 1.0))
    ang = math.acos(dot)
    if ang < 1e-12:
        return q0.copy(), np.zeros_like(q0)
    s = math.sin(ang)
    point = (math.sin((1.0 - t) * ang) * q0 + math.sin(t * ang) * q1) / s
    vel = ang * (-math.cos((1.0 - t) * ang) * q0 + math.cos(t * ang) * q1) / s
    return point, vel


@dataclass
class LegendrianRealization:
    lam_tilde: KFormOracle
    contact_form: KFormOracle
    g: Callable[[Array, Array], float]


# the cut-off rho(|p|) is 1 for |p| <= RHO_IN and 0 for |p| >= RHO_OUT
RHO_IN, RHO_OUT = 0.3, 0.8


def legendrian_realization(n: int, lam: KFormOracle, nodes: int = 48,
                           path_check: int = 0) -> LegendrianRealization:
    """Correct a primitive on a sphere-bundle neighborhood so the zero section
    becomes Legendrian for dt + corrected form.

    Requires n > 1 so that every closed 1-form on the sphere is exact and the
    potential g of (lam - p dq) is recoverable by line integration.  Paths run
    from the base point e_0 along a great circle on the zero section and then
    straight up the fiber; with ``path_check`` > 0 the potential is
    re-integrated through detour waypoints at that many points and a mismatch
    (a closedness failure of lam - p dq) raises instead of silently returning
    a path-dependent g.
    """
    if n <= 1:
        raise ValueError("realization needs sphere dimension n > 1 "
                         "(closed 1-forms on the base must be exact)")
    d = n + 1
    dim = 2 * d
    base_q = np.eye(d)[0]
    lam_can = canonical_one_form(dim)

    def mu(x, v):
        return lam(x, v) - lam_can(x, v)

    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)

    def _zero_section_leg(q_from: Array, q_to: Array) -> float:
        total = 0.0
        for xi, wi in zip(gl_x, gl_w):
            t = 0.5 * (xi + 1.0)
            point, vel = _slerp(q_from, q_to, t)
            x = np.concatenate([point, np.zeros(d)])
            v = np.concatenate([vel, np.zeros(d)])
            total += 0.5 * wi * mu(x, v)
        return total

    def g(q: Array, p: Array, waypoint: Optional[Array] = None) -> float:
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        # great circle(s) on the zero section from base_q to q, then straight
        # up the fiber from (q, 0) to (q, p)
        if waypoint is None:
            total = _zero_section_leg(base_q, q)
        else:
            total = _zero_section_leg(base_q, waypoint) + _zero_section_leg(waypoint, q)
        for xi, wi in zip(gl_x, gl_w):
            t = 0.5 * (xi + 1.0)
            x = np.concatenate([q, t * p])
            v = np.concatenate([np.zeros(d), p])
            total += 0.5 * wi * mu(x, v)
        return total

    if path_check > 0:
        mu_form = KFormOracle(1, dim, mu)
        check_rng_local = np.random.default_rng(path_check)
        for _ in range(path_check):
            q = check_rng_local.standard_normal(d)
            q /= np.linalg.norm(q)
            p = check_rng_local.standard_normal(d) * 0.2
            p -= (p @ q) * q
            # detour on the zero section: sees base-direction defects
            waypoint = check_rng_local.standard_normal(d)
            waypoint /= np.linalg.norm(waypoint)
            gap = abs(g(q, p) - g(q, p, waypoint=waypoint))
            if gap > 1e-6:
                raise ValueError(
                    f"path-dependence detected (potential differs by {gap:.2e} "
                    "across detours); lam - p dq is not closed on the neighborhood")
            # the differential of lam - p dq on bundle tangent pairs: sees
            # mixed base/fiber defects that zero-section detours cannot
            frame = tangent_frame(SpherePoint(q, p))
            x = np.concatenate([q, p])
            for i in range(len(frame)):
                for j in range(i + 1, len(frame)):
                    dmu = exterior_derivative(mu_form, x, [frame[i], frame[j]], 1e-5)
                    if abs(dmu) > 1e-5:
                        raise ValueError(
                            f"path-dependence detected (d(lam - p dq) = {dmu:.2e} "
                            "on a tangent pair); the potential is ill-defined")

    def rho(r: float) -> float:
        if r <= RHO_IN:
            return 1.0
        if r >= RHO_OUT:
            return 0.0
        return 1.0 - smoothstep((r - RHO_IN) / (RHO_OUT - RHO_IN))

    def rho_d(r: float) -> float:
        return -smoothstep_d((r - RHO_IN) / (RHO_OUT - RHO_IN)) / (RHO_OUT - RHO_IN)

    def lam_tilde_eval(x, v):
        # d(rho g) = rho' d|p| g + rho dg with dg = mu on the neighborhood
        x = np.asarray(x, dtype=float)
        v = np.asarray(v, dtype=float)
        q, p = x[:d], x[d:]
        r = float(np.linalg.norm(p))
        val = lam(x, v) - rho(r) * mu(x, v)
        rd = rho_d(r)
        if rd != 0.0 and r > 0.0:
            dnorm = float(p @ v[d:]) / r
            val -= rd * dnorm * g(q, p)
        return val

    lam_tilde = KFormOracle(1, dim, lam_tilde_eval)

    def contact_eval(u, v):
        return float(v[0]) + lam_tilde_eval(u[1:], np.asarray(v, dtype=float)[1:])

    contact = KFormOracle(1, dim + 1, contact_eval)
    return LegendrianRealization(lam_tilde=lam_tilde, contact_form=contact, g=g)


# ---------------------------------------------------------------------------
# adaptedness: Reeb transversality to the pages
# ---------------------------------------------------------------------------

def reeb_transversality_check(alpha: KFormOracle, theta: ScalarField,
                              samples: Sequence[tuple[Array, Sequence[Array]]],
                              h_fd: float = 1e-5) -> float:
    """min over samples of the Reeb derivative of the page function.

    Each sample is (point, tangent frame); the Reeb field is solved from
    alpha(R) = 1, i_R d(alpha) = 0 in the frame.  Positivity of the returned
    minimum is the adaptedness condition.
    """
    worst = math.inf
    for pt, frame in samples:
        coeff = reeb_coefficients(alpha, pt, frame, h_fd)
        r_vec = sum(c * np.asarray(v, dtype=float) for c, v in zip(coeff, frame))
        grad = theta.gradient(pt)
        worst = min(worst, float(grad @ r_vec))
    return worst
