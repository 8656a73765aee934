"""Open book assembly: mapping-torus and binding forms, gluing, exactness
correction of the monodromy, Lagrangian-to-Legendrian correction, and
Reeb/page transversality checks.

Product charts are flat: a mapping torus point is (sigma-coords..., phi), a
collar point is (s, boundary-coords..., phi), a binding point is
(boundary-coords..., r, phi) in polar or (boundary-coords..., u, v) in
Cartesian disk coordinates.

A candidate monodromy is its row map, a :class:`forms.SmoothMap` over (m, d)
rows of points: a single point is the one-row batch, and a line integral of
its pullback defect is a sum over one row batch of quadrature nodes.  A
domain declares lambda once, and its form and d lambda derive from that.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import _kernels, forms
from .flows import IntegratorConfig
from .forms import KFormOracle, SmoothMap, exterior_derivative, one_form, reeb_coefficients
# not called here; kept as a module attribute because perfbench/layers.py
# rebinds openbook.pullback_eval to time it
from .forms import pullback_eval  # noqa: F401
from .profiles import BindingProfile, smoothstep, smoothstep_d
from .sphere import canonical_one_form, tangent_frames

Array = np.ndarray


# ---------------------------------------------------------------------------
# domains and candidate symplectomorphisms
# ---------------------------------------------------------------------------

@dataclass
class ExactSymplecticDomain:
    """A star-shaped coordinate patch with an exact symplectic primitive.

    lambda is declared once, by its coefficients ``lam_coeffs`` at a point or
    over (m, d) rows and their constant Jacobian ``lam_jac`` J, an init-only
    argument.  The form ``lam`` and the matrix ``dlambda_const = J^T - J`` of
    d lambda, with which the exactness correction solves for its field,
    derive from them.
    """

    dim: int
    sample_box: Array  # (dim, 2) bounds
    lam_coeffs: Callable[[Array], Array]
    lam_jac: InitVar[Array]
    lam: KFormOracle = field(init=False)
    dlambda_const: Array = field(init=False)

    def __post_init__(self, lam_jac):
        self.sample_box = np.asarray(self.sample_box, dtype=float)
        if self.sample_box.shape != (self.dim, 2):
            raise ValueError("sample_box must be (dim, 2) bounds")
        self.lam = one_form(self.dim, self.lam_coeffs, lambda u: lam_jac)
        self.dlambda_const = lam_jac.T - lam_jac

    def dlambda_matrix(self, x: Array) -> Array:
        """d(lambda) at x, entry by entry, by the exterior derivative of ``lam``:
        the tests' reference for ``dlambda_const`` and a span perfbench/layers.py traces."""
        basis = np.eye(self.dim)
        return np.array([[exterior_derivative(self.lam, x, [u, v]) for v in basis] for u in basis])

    def sample(self, rng: np.random.Generator, count: int) -> Array:
        lo, hi = self.sample_box[:, 0], self.sample_box[:, 1]
        return lo + (hi - lo) * rng.random((count, self.dim))


def standard_disk_domain(half_width: float = 1.0) -> ExactSymplecticDomain:
    """R^2 with the rotational primitive (x dy - y dx)/2 of dx^dy.  Every caller
    uses half-width 1.0; the argument stays because perfbench/worker.py passes it."""
    box = np.array([[-half_width, half_width], [-half_width, half_width]])
    return ExactSymplecticDomain(
        2, box, lambda u: 0.5 * np.stack([-u[..., 1], u[..., 0]], axis=-1),
        0.5 * np.array([[0.0, -1.0], [1.0, 0.0]]))


@dataclass
class SymplectomorphismCandidate:
    """A map expected to preserve d(lambda), equal to the identity outside a
    bounded support.  It is its row map: ``batched`` takes (m, d) rows to
    (m, d) images and (m, d, d) Jacobians, and a single point is the one-row
    batch."""

    batched: SmoothMap


def identity_candidate(dim: int) -> SymplectomorphismCandidate:
    """The identity map, which needs no correction."""
    return SymplectomorphismCandidate(
        SmoothMap(dim, lambda pts: pts.copy(),
                  jac=lambda pts: np.tile(np.eye(dim), (len(pts), 1, 1))))


def radial_twist_map(amplitude: float, support_radius: float) -> SymplectomorphismCandidate:
    """Rotation by the radius-dependent angle a(|u|^2): an exact, closed-form,
    compactly supported symplectomorphism of the standard plane."""
    r02 = support_radius ** 2

    def turn(pts):
        # the angle a(s) = A (1 - s/r0^2)_+^5 and its cosine and sine, which
        # the image and the Jacobian share; the carried pair computes them
        # once.  The fifth power keeps the angle C^4 at the support circle,
        # which the Gauss-Legendre line integrals downstream rely on.  Powers
        # are written as products, as in bump_variational_terms: NumPy picks
        # its integer-power kernels by CPU, and their last bits with them
        x0, x1 = pts[:, 0], pts[:, 1]
        base = np.maximum(1.0 - (x0 * x0 + x1 * x1) / r02, 0.0)
        b2 = base * base
        b4 = b2 * b2
        angle = amplitude * (b4 * base)
        return x0, x1, b4, np.cos(angle), np.sin(angle)

    def image(x0, x1, _b4, c, sn):
        out = np.empty((len(x0), 2))
        out[:, 0] = c * x0 - sn * x1
        out[:, 1] = sn * x0 + c * x1
        return out

    def jacobian(x0, x1, b4, c, sn):
        # R(a) + 2 a'(s) R'(a) u u^T, with R'(a) u = (-sn x0 - c x1, c x0 - sn x1)
        # and a'(s) = -5A (1 - s/r0^2)_+^4 / r0^2
        coeff = 2.0 * (-5.0 * amplitude * b4 / r02)
        rd0 = -sn * x0 - c * x1
        rd1 = c * x0 - sn * x1
        jac = np.empty((len(x0), 2, 2))
        jac[:, 0, 0] = c + coeff * (rd0 * x0)
        jac[:, 0, 1] = -sn + coeff * (rd0 * x1)
        jac[:, 1, 0] = sn + coeff * (rd1 * x0)
        jac[:, 1, 1] = c + coeff * (rd1 * x1)
        return jac

    def func_jac_batch(pts):
        parts = turn(pts)
        return image(*parts), jacobian(*parts)

    return SymplectomorphismCandidate(
        SmoothMap(2, lambda pts: image(*turn(pts)),
                  jac=lambda pts: jacobian(*turn(pts)), func_jac=func_jac_batch))


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

    return SymplectomorphismCandidate(SmoothMap(2, func_batch, jac=jac_batch)), h0


def bump_variational_terms(amplitude, r02, u):
    """The variational field of the bump H = A (1 - |u|^2/r0^2)_+^4 as one
    ``(6, m)`` array (X_H, d/dt J) for the ``(6, m)`` state u, whose rows are
    the components (x, y, J00, J01, J10, J11) of m points.

    Powers are written as products, the arithmetic of the matrix-form
    reference that tier-1 pins the map against; only the scalar prefactors
    that this arithmetic takes first are computed once.  The Jacobian rows
    (J00, J01) and (J10, J11) enter as two ``(2, m)`` blocks.
    """
    x, y = u[0], u[1]
    j0, j1 = u[2:4], u[4:6]
    xx, yy = x * x, y * y
    base = np.maximum(1.0 - (xx + yy) / r02, 0.0)
    base2 = base * base
    base3 = base2 * base
    # X_H = J_std grad H with grad H = coeff * u
    coeff = (-8.0 * amplitude / r02) * base3
    # Hess H = 2 A q'(s) I + 4 A q''(s) u u^T with q(s) = (1 - s/r0^2)^4
    diag = (2.0 * amplitude) * (-4.0 * base3 / r02)
    outer = (4.0 * amplitude) * (12.0 * base2 / (r02 * r02))
    h00 = diag + outer * xx
    h01 = outer * (x * y)
    h11 = diag + outer * yy
    # J_std = [[0, 1], [-1, 0]] turns Hess H into rows (h01, h11), (-h00, -h01)
    out = np.empty(u.shape)
    out[0] = coeff * y
    out[1] = -coeff * x
    out[2:4] = h01 * j0 + h11 * j1
    out[4:6] = (-h00) * j0 - h01 * j1
    return out


def hamiltonian_bump_map(amplitude: float, support_radius: float,
                         step: float = 0.01) -> SymplectomorphismCandidate:
    """Time-1 flow of the Hamiltonian field of a compactly supported bump on
    the plane; d(lambda)-preserving by construction (up to integrator error).

    The Jacobian rides along as the variational flow, so both the map and its
    derivative come from one integration of :func:`bump_variational_terms`
    on :func:`_kernels.rk4_final`, over a ``(6, m)`` state whose contiguous
    rows are the components of all m points; a single point is the
    one-row batch.
    """
    r02 = support_radius ** 2

    def row_field(u):
        return bump_variational_terms(amplitude, r02, u)

    def func_jac_batch(pts):
        # the variational flow carries the trajectory: its first two rows are the map
        state = np.zeros((6, len(pts)))
        state[:2] = pts.T
        state[2] = 1.0
        state[5] = 1.0
        out = _kernels.rk4_final(row_field, state, 1.0, step)
        return out[:2].T, out[2:].T.reshape(len(pts), 2, 2)

    return SymplectomorphismCandidate(
        SmoothMap(2, lambda pts: func_jac_batch(pts)[0],
                  jac=lambda pts: func_jac_batch(pts)[1], func_jac=func_jac_batch))


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

    return SmoothMap(d + 2, func, jac=jac)


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
    mu_closedness: float
    cond_max: float


def _pullback_defect_rows(domain: ExactSymplecticDomain, psi: SymplectomorphismCandidate,
                          pts: Array) -> Array:
    """Coefficient rows of mu = psi^* lambda - lambda over an (m, d) batch."""
    img, jac = psi.batched.func_jac(pts)
    return np.einsum("mi,mik->mk", domain.lam_coeffs(img), jac) - domain.lam_coeffs(pts)


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
    with |d(psi^* lambda - lambda)| > 1e-6 at a sample are rejected; d mu is
    taken by :func:`forms.fd_jacobian` of step 1e-4, one batch for all samples.

    ``h(x)`` is the one-row call of :func:`giroux_flow_batch`, and
    ``psi_hat`` maps a point or rows through one call, keeping the shape of
    its input; each equals its row of a batch bit for bit.
    The Y-flow reads only ``flow_cfg.step``; the argument stays an
    :class:`IntegratorConfig` because ``perfbench/worker.py`` passes one.
    """
    d = domain.dim
    samples = domain.sample(rng, closedness_samples)
    # grad[n, j, i]: the derivative of mu_j along e_i at sample n
    grad = forms.fd_jacobian(lambda pts: _pullback_defect_rows(domain, psi, pts), samples, 1e-4)
    i, j = np.triu_indices(d, 1)
    dmu = grad[:, j, i] - grad[:, i, j]
    worst_dmu = float(np.max(np.abs(dmu), initial=0.0))
    if worst_dmu > 1e-6:
        raise ValueError(f"psi^* lambda - lambda is not closed (residual {worst_dmu:.2e}); "
                         "the input does not preserve d(lambda)")

    step = flow_cfg.step
    return GirouxResult(
        psi_hat=SmoothMap(d, lambda x: giroux_flow_batch(domain, psi, x, step)
                          .psi_hat.reshape(np.shape(x))),
        h=lambda x: float(giroux_flow_batch(domain, psi, x, step).h[0]),
        mu_closedness=worst_dmu, cond_max=float(np.linalg.cond(domain.dlambda_const)))


def make_batched_y(domain: ExactSymplecticDomain,
                   psi: SymplectomorphismCandidate) -> Callable[[Array], Array]:
    """Vectorized correcting field: rows Y with i_Y d(lambda) = -(psi^*lambda - lambda)."""
    solve_mat = np.linalg.inv(domain.dlambda_const.T)

    def y_batch(pts):
        return -(_pullback_defect_rows(domain, psi, pts) @ solve_mat.T)

    return y_batch


@dataclass
class GirouxBatchEval:
    """Primitive values and corrected images over a batch of points."""

    points: Array     # (m, d)
    h: Array          # (m,) normalized to vanish at the base point
    psi_hat: Array    # (m, d)


def giroux_flow_batch(domain: ExactSymplecticDomain,
                      psi: SymplectomorphismCandidate, points: Array,
                      step: float) -> GirouxBatchEval:
    """One vectorized integration to time 1 of the correcting flow with its
    quadrature variable, at the RK4 step ``step``, for every requested point
    at once; h vanishes at the centre of the sample box."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    base_point = domain.sample_box.mean(axis=1)
    y_batch = make_batched_y(domain, psi)
    d = domain.dim
    stacked = np.vstack([points, base_point[None, :]])
    aug = np.concatenate([stacked, np.zeros((len(stacked), 1))], axis=1)

    def field(u):
        x = u[:, :d]
        y = y_batch(x)
        out = np.empty_like(u)
        out[:, :d] = y
        out[:, d] = np.einsum("mi,mi->m", domain.lam_coeffs(x), y)
        return out

    out = _kernels.rk4_final(field, aug, 1.0, step)
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


# ---------------------------------------------------------------------------
# Lagrangian sphere -> Legendrian realization over the sphere bundle
# ---------------------------------------------------------------------------

@dataclass
class LegendrianRealization:
    lam_tilde: KFormOracle
    contact_form: KFormOracle
    g: Callable[[Array, Array], float]


# the cut-off rho(|p|) is 1 for |p| <= RHO_IN and 0 for |p| >= RHO_OUT
RHO_IN, RHO_OUT = 0.3, 0.8
# Gauss-Legendre nodes per path leg; path-check detours (also their rng seed)
REALIZATION_NODES, PATH_CHECK_DETOURS = 32, 2


def legendrian_realization(n: int, lam: KFormOracle) -> LegendrianRealization:
    """Correct a primitive on a sphere-bundle neighborhood so the zero section
    becomes Legendrian for dt + corrected form.

    Requires n > 1 so that every closed 1-form on the sphere is exact and the
    potential g of (lam - p dq) is recoverable by line integration.  Paths run
    from the base point e_0 along a great circle on the zero section, through
    a quarter-circle waypoint when the end lies in the far hemisphere, and
    then straight up the fiber.  ``lam`` must take (m, 2(n+1)) row batches,
    as :func:`forms.one_form` builds them: g evaluates the nodes of each path
    leg as one row call, and a form that does not take rows is refused with a
    ValueError.  The potential is re-integrated through detour waypoints at
    ``PATH_CHECK_DETOURS`` points, and a mismatch (a closedness failure of
    lam - p dq) raises instead of silently returning a path-dependent g.
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

    gl_x, gl_w = np.polynomial.legendre.leggauss(REALIZATION_NODES)
    nodes, half_w = (0.5 * (gl_x + 1.0))[:, None], 0.5 * gl_w

    def leg(x: Array, v: Array, total: float) -> float:
        # the leg's terms w_i mu(x_i)(v_i) from one row call of mu, added to
        # the running total in node order
        try:
            values = lam(x, v)
            if np.shape(values) != (len(x),):
                raise ValueError(f"it gives shape {np.shape(values)} for {len(x)} rows")
        except (TypeError, ValueError, IndexError) as exc:
            raise ValueError("legendrian_realization needs a 1-form that takes "
                             f"(m, {dim}) row batches, as forms.one_form builds them; "
                             f"this one fails on rows: {exc}") from exc
        for term in half_w * (values - lam_can(x, v)):
            total += term
        return total

    def arc(q_from: Array, q_to: Array, total: float) -> float:
        # the great circle from q_from to q_to on the zero section
        ang = math.acos(float(np.clip(q_from @ q_to, -1.0, 1.0)))
        if ang < 1e-12:
            return total
        s = math.sin(ang)
        x, v = np.zeros((2, len(nodes), dim))
        x[:, :d] = (np.sin((1.0 - nodes) * ang) * q_from + np.sin(nodes * ang) * q_to) / s
        v[:, :d] = ang * (-np.cos((1.0 - nodes) * ang) * q_from
                          + np.cos(nodes * ang) * q_to) / s
        return leg(x, v, total)

    def zero_section_path(q_from: Array, q_to: Array, total: float) -> float:
        if q_from @ q_to >= 0.0:
            return arc(q_from, q_to, total)
        # near -q_from the great circle is undefined (sin(pi) is 1.2e-16):
        # go through the point a quarter circle from q_from towards q_to,
        # which g, path-independent by closedness, does not see
        waypoint = q_to - (q_to @ q_from) * q_from
        if not waypoint.any():
            waypoint = np.eye(d)[np.argmin(np.abs(q_from))]
            waypoint -= (waypoint @ q_from) * q_from
        waypoint /= np.linalg.norm(waypoint)
        return arc(waypoint, q_to, arc(q_from, waypoint, total))

    def g(q: Array, p: Array, waypoint: Optional[Array] = None) -> float:
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        # great circle(s) on the zero section from base_q to q, then straight
        # up the fiber from (q, 0) to (q, p)
        if waypoint is None:
            total = zero_section_path(base_q, q, 0.0)
        else:
            total = zero_section_path(waypoint, q, zero_section_path(base_q, waypoint, 0.0))
        x, v = np.zeros((2, len(nodes), dim))
        x[:, :d] = q
        x[:, d:] = nodes * p
        v[:, d:] = p
        return float(leg(x, v, total))

    mu_form = KFormOracle(1, dim, mu)
    check_rng_local = np.random.default_rng(PATH_CHECK_DETOURS)
    for _ in range(PATH_CHECK_DETOURS):
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
        frame = tangent_frames(q[None], p[None])[0]
        x = np.concatenate([q, p])
        for i in range(len(frame)):
            for j in range(i + 1, len(frame)):
                dmu = exterior_derivative(mu_form, x, [frame[i], frame[j]])
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

def reeb_transversality_check(alpha: KFormOracle, grad_theta: Callable[[Array], Array],
                              samples: Sequence[tuple[Array, Sequence[Array]]]) -> float:
    """min over samples of the Reeb derivative of the page function theta,
    given by its gradient ``grad_theta``.

    Each sample is (point, tangent frame); the Reeb field is solved from
    alpha(R) = 1, i_R d(alpha) = 0 in the frame.  Positivity of the returned
    minimum is the adaptedness condition.  A NaN derivative is returned as
    the minimum (Python's min would keep the running minimum past it).
    """
    worst = math.inf
    for pt, frame in samples:
        coeff = reeb_coefficients(alpha, pt, frame)
        r_vec = sum(c * np.asarray(v, dtype=float) for c, v in zip(coeff, frame))
        grad = grad_theta(pt)
        value = float(grad @ r_vec)
        if value != value:
            return value
        worst = min(worst, value)
    return worst
