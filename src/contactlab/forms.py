"""Pointwise exterior calculus on oracle-defined objects.

Maps and k-forms are stored as evaluation callables plus optional analytic
derivative oracles; central finite differences are the fallback.
:class:`SmoothMap` is the one map type, over points or row batches.  A vector
field is a plain callable ``field(x) -> v``, the form the flows integrate.
Everything lives in a single ambient chart: points are 1-d float arrays,
tangent vectors are arrays of the same length.

Conventions:
  * wedge products follow the shuffle (determinant) convention, so
    (dx ^ dy)(e_x, e_y) = 1 and omega^n = n! * vol for the standard form;
  * the exterior derivative uses the alternating-sum formula with constant
    extensions of the vector arguments, so no Lie-bracket terms appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray

DEFAULT_FD_STEP = 1e-5


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def fd_directional(func: Callable[[Array], float], x: Array, v: Array,
                   h: float = DEFAULT_FD_STEP):
    """Central-difference directional derivative.

    For an (m, d) row batch ``x``, a ``func`` that maps rows to (m,) values and
    a direction of shape (d,) or (m, d), gives the (m,) derivatives, each
    equal to its lone value when ``func`` treats rows so.
    """
    d = (func(x + h * v) - func(x - h * v)) / (2.0 * h)
    if not np.all(np.isfinite(d)):
        raise ValueError("directional derivative is not finite; "
                         "function not differentiable here or step too small")
    return d


def fd_jacobian(func: Callable[[Array], Array], x: Array,
                h: float = DEFAULT_FD_STEP) -> Array:
    """Jacobian by central differences, one column per coordinate direction.

    A (d,) point gives the (out, d) Jacobian.  An (m, d) row batch, for a
    ``func`` that maps (m, d) rows to (m, out) rows, gives the C-contiguous
    (m, out, d) Jacobians of its rows, each equal to its lone Jacobian when
    ``func`` treats rows so.
    """
    x = np.asarray(x, dtype=float)
    eye = np.eye(x.shape[-1])
    jac = np.stack([(np.asarray(func(x + h * e)) - np.asarray(func(x - h * e))) / (2.0 * h)
                    for e in eye], axis=-1)
    if not np.all(np.isfinite(jac)):
        raise ValueError("Jacobian evaluation produced non-finite entries")
    return jac


# ---------------------------------------------------------------------------
# oracle types
# ---------------------------------------------------------------------------

@dataclass
class SmoothMap:
    """A map between ambient charts with an analytic or finite-difference Jacobian.

    ``func_jac`` gives the image and the Jacobian at once: carried by a map
    whose Jacobian rides along with its flow, else ``(func(x), jacobian(x))``
    with both looked up at call time.
    """

    domain_dim: int
    func: Callable[[Array], Array]
    jac: Optional[Callable[[Array], Array]] = None
    func_jac: Optional[Callable[[Array], tuple[Array, Array]]] = None

    def __post_init__(self):
        if self.func_jac is None:
            self.func_jac = lambda x: (self.func(x), self.jacobian(x))

    def __call__(self, x: Array) -> Array:
        return np.asarray(self.func(np.asarray(x, dtype=float)), dtype=float)

    def jacobian(self, x: Array) -> Array:
        if self.jac is not None:
            return np.asarray(self.jac(np.asarray(x, dtype=float)), dtype=float)
        return fd_jacobian(self.func, x)


@dataclass
class KFormOracle:
    """A degree-k form given by evaluation on a point and k tangent vectors.

    ``d_oracle``, when present, evaluates the exterior derivative analytically
    with the signature (pt, v_1, ..., v_{k+1}).  A form whose ``func`` takes
    rows, as :func:`one_form` builds them, also takes an (m, d) row batch.
    """

    degree: int
    dim: int
    func: Callable[..., float]
    d_oracle: Optional[Callable[..., float]] = None

    def __call__(self, x: Array, *vectors: Array):
        if len(vectors) != self.degree:
            raise ValueError(f"degree-{self.degree} form applied to {len(vectors)} vectors")
        x = np.asarray(x, dtype=float)
        value = self.func(x, *vectors)
        return float(value) if x.ndim == 1 else value


def one_form(dim: int, coeffs: Callable[[Array], Array],
             coeffs_jac: Optional[Callable[[Array], Array]] = None) -> KFormOracle:
    """The 1-form sum_i a_i(x) dx_i;  an analytic coefficient Jacobian supplies
    the exact exterior derivative d(a_i dx_i)(u, v) = (Ja u).v - (Ja v).u.

    When ``coeffs`` takes an (m, d) row batch, so does the form: a vector of
    shape (m, d), or a stack (..., m, d), gives the values of shape (..., m),
    each equal to its lone value.
    """
    def ev(x, v):
        if x.ndim == 1:
            return float(np.dot(coeffs(x), v))
        return np.vecdot(coeffs(x), v)

    d_oracle = None
    if coeffs_jac is not None:
        def d_oracle(x, u, v):
            j = coeffs_jac(x)
            return float(np.dot(j @ u, v) - np.dot(j @ v, u))

    return KFormOracle(1, dim, ev, d_oracle=d_oracle)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def exterior_derivative(form: KFormOracle, pt: Array, vectors: Sequence[Array],
                        h_fd: float = DEFAULT_FD_STEP):
    """(d form)(pt)(v_0 ... v_k) with constant extensions of the arguments.

    Without a ``d_oracle``, a form that takes rows also takes an (m, d) row
    batch ``pt``, with vectors of shape (d,) or (m, d), and gives the (m,)
    values, each equal to its lone value.
    """
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    if len(vectors) != form.degree + 1:
        raise ValueError("exterior derivative needs degree+1 vectors")
    if form.d_oracle is not None:
        return float(form.d_oracle(pt, *vectors))
    total = 0.0
    for i, vi in enumerate(vectors):
        rest = vectors[:i] + vectors[i + 1:]
        total += (-1.0) ** i * fd_directional(
            lambda x: form(x, *rest), pt, vi, h_fd)
    return total


def pullback_eval(mapping: SmoothMap, form: KFormOracle, pt: Array,
                  vectors: Sequence[Array]) -> float:
    """(mapping^* form)(pt)(v_1 ... v_k) = form(mapping(pt))(J v_1, ..., J v_k).

    An (m, d) row batch ``pt``, for a map and a form that take rows, takes
    vectors of shape (m, d), or stacks (..., m, d), and gives the values of
    shape (..., m), each equal to its lone value.
    """
    pt = np.asarray(pt, dtype=float)
    if mapping.domain_dim != pt.shape[-1]:
        raise ValueError("point dimension does not match map domain")
    jac = mapping.jacobian(pt)
    image = mapping(pt)
    if pt.ndim == 1:
        pushed = [jac @ np.asarray(v, dtype=float) for v in vectors]
    else:
        pushed = [(jac @ np.asarray(v, dtype=float)[..., None])[..., 0] for v in vectors]
    return form(image, *pushed)


def liouville_residual(field: Callable[[Array], Array], omega: KFormOracle, pt: Array,
                       frame: Sequence[Array]):
    """max over frame pairs of |d(i_X omega)(v_i, v_j) - omega(v_i, v_j)|.

    By Cartan's formula (omega closed) this is the defect of L_X omega = omega.
    An (m, d) row batch ``pt``, for a field and a form that take rows, gives
    the (m,) residuals, each equal to its lone value; the frame vectors have
    shape (d,) or (m, d).
    """
    pt = np.asarray(pt, dtype=float)
    contraction = KFormOracle(1, omega.dim, lambda x, v: omega(x, field(x), v))
    worst = 0.0
    frame = [np.asarray(v, dtype=float) for v in frame]
    for i in range(len(frame)):
        for j in range(i + 1, len(frame)):
            d_val = exterior_derivative(contraction, pt, [frame[i], frame[j]])
            worst = np.maximum(worst, np.abs(d_val - omega(pt, frame[i], frame[j])))
    return float(worst) if pt.ndim == 1 else worst


def _pfaffian(mat: Array) -> float:
    n = mat.shape[0]
    if n % 2 == 1:
        return 0.0
    if n == 0:
        return 1.0
    if n == 2:
        return mat[0, 1]
    total = 0.0
    idx = list(range(1, n))
    for pos, j in enumerate(idx):
        keep = [i for i in range(n) if i != 0 and i != j]
        sub = mat[np.ix_(keep, keep)]
        total += (-1.0) ** pos * mat[0, j] * _pfaffian(sub)
    return total


def contact_volume(alpha: KFormOracle, pt: Array, frame: Sequence[Array]) -> float:
    """(alpha ^ (d alpha)^n)(frame) for a (2n+1)-vector frame.

    Sign follows the order of the frame.  Uses (d alpha)^n = n! Pf(B) with
    B_ij = d alpha(v_i, v_j).
    """
    frame = [np.asarray(v, dtype=float) for v in frame]
    m = len(frame)
    if m % 2 != 1:
        raise ValueError("contact volume needs an odd number of frame vectors")
    gram = np.array([[np.dot(u, v) for v in frame] for u in frame])
    if abs(np.linalg.det(gram)) < 1e-12:
        raise ValueError("degenerate frame")
    n = (m - 1) // 2
    a_vals = np.array([alpha(pt, v) for v in frame])
    b = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            b[i, j] = exterior_derivative(alpha, pt, [frame[i], frame[j]])
            b[j, i] = -b[i, j]
    factorial_n = float(math.factorial(n))
    total = 0.0
    for i in range(m):
        keep = [r for r in range(m) if r != i]
        total += (-1.0) ** i * a_vals[i] * factorial_n * _pfaffian(b[np.ix_(keep, keep)])
    return total


def standard_complex_structure(dim: int) -> Array:
    """J pairing interleaved coordinate blocks: J e_{2m} = e_{2m+1}, J e_{2m+1} = -e_{2m}."""
    if dim % 2 != 0:
        raise ValueError("complex structure needs an even ambient dimension")
    j = np.zeros((dim, dim))
    for m in range(dim // 2):
        j[2 * m + 1, 2 * m] = 1.0
        j[2 * m, 2 * m + 1] = -1.0
    return j


def psh_gram_matrix(gradient: Callable[[Array], Array], pt: Array,
                    vectors: Sequence[Array]) -> Array:
    """Gram matrix of the candidate metric -d(df o J)(U, J V) on the given
    vectors, for the potential f with analytic gradient ``gradient``.

    Positive definiteness of the result is the strict plurisubharmonicity test;
    the caller inspects the leading minors or eigenvalues.
    """
    pt = np.asarray(pt, dtype=float)
    j_std = standard_complex_structure(pt.size)
    eta = KFormOracle(1, pt.size, lambda x, v: float(np.dot(gradient(x), j_std @ v)))
    vectors = [np.asarray(v, dtype=float) for v in vectors]
    m = len(vectors)
    gram = np.empty((m, m))
    for a in range(m):
        for b in range(m):
            gram[a, b] = -exterior_derivative(eta, pt, [vectors[a], j_std @ vectors[b]])
    return gram


def reeb_coefficients(alpha: KFormOracle, pt: Array, frame: Sequence[Array]) -> Array:
    """Coefficients of the Reeb field in the frame basis: alpha(R) = 1, i_R dalpha = 0.

    Solved as a stacked linear system per point; raises when the frame does
    not determine a unique solution (condition reported in the message).
    """
    frame = [np.asarray(v, dtype=float) for v in frame]
    m = len(frame)
    rows = np.empty((m + 1, m))
    rhs = np.zeros(m + 1)
    for j in range(m):
        for i in range(m):
            rows[j, i] = exterior_derivative(alpha, pt, [frame[i], frame[j]])
    for i in range(m):
        rows[m, i] = alpha(pt, frame[i])
    rhs[m] = 1.0
    coeff, residual, rank, svals = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < m:
        raise ValueError(f"Reeb system is rank deficient (rank {rank} < {m}); "
                         f"singular values {svals}")
    check = rows @ coeff - rhs
    if np.max(np.abs(check)) > 1e-6:
        raise ValueError("Reeb solve residual too large; frame may not span the tangent space")
    return coeff
