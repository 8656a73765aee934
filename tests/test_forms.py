"""Exterior-calculus core: derivative, pullback, contractions, psh metric."""

import math

import numpy as np
import pytest
import sympy as sp

from contactlab import surgery
from contactlab.forms import (KFormOracle, SmoothMap, exterior_derivative, fd_directional,
                              fd_jacobian, liouville_residual, one_form, psh_gram_matrix,
                              pullback_eval, contact_volume, reeb_coefficients)

rng = np.random.default_rng(11)


def rotational_form():
    return one_form(2, lambda u: 0.5 * np.array([-u[1], u[0]]),
                    lambda u: 0.5 * np.array([[0.0, -1.0], [1.0, 0.0]]))


def test_exterior_derivative_of_exact_form_vanishes():
    # d(d phi) for phi = x^2 y, via FD coefficients (no analytic oracle)
    dphi = KFormOracle(1, 2, lambda u, v: float(
        np.array([2.0 * u[0] * u[1], u[0] ** 2]) @ v))
    for _ in range(20):
        x = rng.standard_normal(2)
        val = exterior_derivative(dphi, x, [np.eye(2)[0], np.eye(2)[1]], 1e-5)
        assert abs(val) < 1e-8


def test_rotational_form_derivative_is_area_form():
    lam = KFormOracle(1, 2, lambda u, v: float(0.5 * (-u[1] * v[0] + u[0] * v[1])))
    for _ in range(10):
        x = rng.standard_normal(2)
        val = exterior_derivative(lam, x, [np.eye(2)[0], np.eye(2)[1]], 1e-5)
        assert abs(val - 1.0) < 1e-9


def test_canonical_two_form_value_matches_symbolic_oracle():
    # sympy oracle for d(p dq) on the chart (q1, q2, p1, p2)
    q1, q2, p1, p2 = sp.symbols("q1 q2 p1 p2")
    coords = [q1, q2, p1, p2]
    lam_coeffs = [p1, p2, 0, 0]
    i, j = 1, 3  # vectors e_q2, e_p2
    oracle = sp.diff(lam_coeffs[j], coords[i]) - sp.diff(lam_coeffs[i], coords[j])
    oracle_val = float(oracle.subs({q1: 1, q2: 0, p1: 0, p2: 0.3}))
    assert oracle_val == -1.0  # frozen

    lam = KFormOracle(1, 4, lambda u, v: float(u[2:] @ v[:2]))
    x = np.array([1.0, 0.0, 0.0, 0.3])
    val = exterior_derivative(lam, x, [np.eye(4)[1], np.eye(4)[3]], 1e-5)
    assert abs(val - oracle_val) < 1e-9


def test_second_exterior_derivative_vanishes():
    # d^2 = 0 on an analytic 1-form, 100 random points
    lam = KFormOracle(1, 3, lambda u, v: float(
        np.array([math.sin(u[1]), u[0] * u[2], u[1] ** 2]) @ v))

    def d_lam(x, a, b):
        return exterior_derivative(lam, x, [a, b], 1e-4)

    d_form = KFormOracle(2, 3, d_lam)
    basis = np.eye(3)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-1, 1, 3)
        worst = max(worst, abs(exterior_derivative(
            d_form, x, [basis[0], basis[1], basis[2]], 1e-3)))
    assert worst < 1e-5


def test_antisymmetry_of_evaluations():
    mat = np.array([[0.0, 2.0], [-2.0, 0.0]])
    om = KFormOracle(2, 2, lambda x, u, v: float(u @ mat @ v))
    for _ in range(50):
        x = rng.standard_normal(2)
        u, v = rng.standard_normal(2), rng.standard_normal(2)
        assert abs(om(x, u, v) + om(x, v, u)) < 1e-10


def test_pullback_through_identity():
    lam = rotational_form()
    x = rng.standard_normal(2)
    v = rng.standard_normal(2)
    identity = SmoothMap(2, lambda u: u, jac=lambda u: np.eye(2))
    assert abs(pullback_eval(identity, lam, x, [v]) - lam(x, v)) < 1e-14


def test_smooth_map_func_jac_defaults_to_its_callables_at_call_time():
    square = SmoothMap(2, lambda u: u * u, jac=lambda u: np.diag(2.0 * u))
    x = np.array([0.3, -0.7])
    img, jac = square.func_jac(x)
    assert np.array_equal(img, x * x) and np.array_equal(jac, np.diag(2.0 * x))
    # rebound callables are the ones it calls
    square.func = lambda u: -u
    square.jac = lambda u: -np.eye(2)
    img, jac = square.func_jac(x)
    assert np.array_equal(img, -x) and np.array_equal(jac, -np.eye(2))
    # without an analytic Jacobian, the finite-difference one
    fd_only = SmoothMap(2, lambda u: u * u)
    assert np.array_equal(fd_only.func_jac(x)[1], fd_only.jacobian(x))
    # a carried func_jac is called as it is
    carried = SmoothMap(2, square.func, func_jac=lambda u: ("image", "jacobian"))
    assert carried.func_jac(x) == ("image", "jacobian")


def test_pullback_functoriality():
    # (g o f)^* equals f^* g^* with analytic Jacobians
    f = SmoothMap(2, lambda u: np.array([u[0] + u[1] ** 2, math.sin(u[0])]),
                  jac=lambda u: np.array([[1.0, 2.0 * u[1]],
                                          [math.cos(u[0]), 0.0]]))
    g = SmoothMap(2, lambda u: np.array([u[0] * u[1], u[0] - u[1]]),
                  jac=lambda u: np.array([[u[1], u[0]], [1.0, -1.0]]))
    comp = SmoothMap(2, lambda u: g(f(u)), jac=lambda u: g.jacobian(f(u)) @ f.jacobian(u))
    lam = rotational_form()
    g_pulled = KFormOracle(1, 2, lambda y, w: pullback_eval(g, lam, y, [w]))
    for _ in range(25):
        x = rng.standard_normal(2)
        v = rng.standard_normal(2)
        direct = pullback_eval(comp, lam, x, [v])
        assert abs(direct - pullback_eval(f, g_pulled, x, [v])) < 1e-8


def test_fd_jacobian_second_order():
    def func(u):
        return np.array([math.sin(u[0]) * u[1], math.exp(u[0] - 0.5 * u[1])])

    def jac(u):
        return np.array([
            [math.cos(u[0]) * u[1], math.sin(u[0])],
            [math.exp(u[0] - 0.5 * u[1]), -0.5 * math.exp(u[0] - 0.5 * u[1])]])

    x = np.array([0.3, 0.8])
    e1 = np.max(np.abs(fd_jacobian(func, x, 1e-3) - jac(x)))
    e2 = np.max(np.abs(fd_jacobian(func, x, 5e-4) - jac(x)))
    assert 3.0 <= e1 / e2 <= 5.0


def test_liouville_check_zero_field_fails():
    om = surgery.omega0_form(1, 0)  # dx^dy on the plane
    res = liouville_residual(lambda u: np.zeros(2), om, np.zeros(2), list(np.eye(2)))
    assert abs(res - 1.0) < 1e-9  # the defect is |omega| itself


def test_liouville_check_radial_field():
    om = surgery.omega0_form(1, 0)
    res = liouville_residual(lambda u: 0.5 * u, om, rng.standard_normal(2), list(np.eye(2)))
    assert res < 1e-9


def test_contact_volume_standard_form():
    # dz + x dy on (x, y, z): volume 1 on the coordinate frame
    alpha = one_form(3, lambda u: np.array([0.0, u[0], 1.0]),
                     lambda u: np.array([[0.0, 0.0, 0.0],
                                         [1.0, 0.0, 0.0],
                                         [0.0, 0.0, 0.0]]))
    val = contact_volume(alpha, np.zeros(3), list(np.eye(3)))
    assert abs(val - 1.0) < 1e-10
    val = contact_volume(alpha, np.array([2.0, -1.0, 0.5]), list(np.eye(3)))
    assert abs(val - 1.0) < 1e-10


def test_contact_volume_closed_form_is_zero():
    alpha = one_form(3, lambda u: np.array([0.0, 0.0, 1.0]),
                     lambda u: np.zeros((3, 3)))
    val = contact_volume(alpha, np.zeros(3), list(np.eye(3)))
    assert abs(val) < 1e-12


def test_contact_volume_rejects_degenerate_frame():
    alpha = one_form(3, lambda u: np.array([0.0, u[0], 1.0]))
    frame = [np.eye(3)[0], np.eye(3)[0], np.eye(3)[2]]
    with pytest.raises(ValueError, match="degenerate"):
        contact_volume(alpha, np.zeros(3), frame)


def _sympy_psh_gram(expr, x, y, at):
    """Independent symbolic oracle for -d(df o J)(U, J V) on the plane."""
    fx, fy = sp.diff(expr, x), sp.diff(expr, y)
    eta = [fy, -fx]  # df o J with J e_x = e_y, J e_y = -e_x
    deta = sp.simplify(sp.diff(eta[1], x) - sp.diff(eta[0], y))
    d_mat = sp.Matrix([[0, deta], [-deta, 0]])
    j_mat = sp.Matrix([[0, -1], [1, 0]])
    gram = sp.zeros(2, 2)
    for a in range(2):
        for b in range(2):
            u = sp.zeros(2, 1)
            u[a] = 1
            gram[a, b] = -(u.T * d_mat * (j_mat[:, b]))[0]
    return np.array(gram.subs({x: at[0], y: at[1]})).astype(float)


def test_psh_gram_matches_symbolic_oracle():
    x, y = sp.symbols("x y")
    at = (0.3, -0.7)
    cases = [
        ((x ** 2 + y ** 2) / 4, lambda u: 0.5 * u),            # identity Gram
        (x ** 2 - y ** 2, lambda u: np.array([2 * u[0], -2 * u[1]])),  # zero Gram
    ]
    for expr, grad in cases:
        oracle = _sympy_psh_gram(expr, x, y, at)
        gram = psh_gram_matrix(grad, np.array(at), list(np.eye(2)))
        assert np.max(np.abs(gram - oracle)) < 1e-6
    # frozen oracle values
    assert np.allclose(_sympy_psh_gram((x ** 2 + y ** 2) / 4, x, y, at), np.eye(2))
    assert np.allclose(_sympy_psh_gram(x ** 2 - y ** 2, x, y, at), np.zeros((2, 2)))


def test_psh_positive_definite_only_for_subharmonic():
    # f = |u|^2/4, then the constant f = 3
    gram = psh_gram_matrix(lambda u: 0.5 * u, np.array([0.1, 0.2]), list(np.eye(2)))
    assert np.all(np.linalg.eigvalsh(0.5 * (gram + gram.T)) > 0.5)
    gram = psh_gram_matrix(lambda u: np.zeros(2), np.array([0.1, 0.2]), list(np.eye(2)))
    assert np.max(np.abs(gram)) < 1e-8


def test_reeb_solver_on_product_form():
    # alpha = lambda_disk + dphi: the Reeb field is the circle direction
    alpha = KFormOracle(1, 3, lambda u, v: float(
        0.5 * (-u[1] * v[0] + u[0] * v[1]) + v[2]))
    coeff = reeb_coefficients(alpha, np.array([0.2, 0.1, 0.5]), list(np.eye(3)))
    assert np.max(np.abs(coeff - np.array([0.0, 0.0, 1.0]))) < 1e-6


def test_analytic_and_fd_jacobians_agree_on_supplied_maps():
    from contactlab.surgery import psi_w_map, phi_c_map
    for mapping in (psi_w_map(2, 1), phi_c_map(2, 1, 3.0)):
        for _ in range(5):
            x = rng.standard_normal(mapping.domain_dim)
            analytic = mapping.jacobian(x)
            numeric = fd_jacobian(mapping.func, x, 1e-5)
            assert np.max(np.abs(analytic - numeric)) < 1e-9


def test_exterior_derivative_alternates_in_its_arguments():
    lam = KFormOracle(1, 3, lambda u, v: float(
        np.array([u[1] * u[2], math.cos(u[0]), u[0] ** 2]) @ v))
    x = rng.standard_normal(3)
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    ab = exterior_derivative(lam, x, [u, v], 1e-5)
    ba = exterior_derivative(lam, x, [v, u], 1e-5)
    assert abs(ab + ba) < 1e-6
    # analytic oracle path flips exactly
    from contactlab.surgery import alpha_model_form
    alpha = alpha_model_form(1, 2)
    y = rng.standard_normal(6)
    a, b = rng.standard_normal(6), rng.standard_normal(6)
    assert abs(exterior_derivative(alpha, y, [a, b])
               + exterior_derivative(alpha, y, [b, a])) < 1e-10


def _liouville_cases():
    """The fields and forms of liouville-expansion and liouville-speed-family."""
    yield surgery.liouville_field(1, 2), surgery.omega0_form(1, 2), 6
    for a in (0.0, 1.0, 10.0):
        yield surgery.liouville_a_field(0, 2, a), surgery.omega0_form(0, 2), 4


def test_liouville_rows_repeat_their_lone_residuals_bitwise():
    rows_rng = np.random.default_rng(24)
    for fld, om, dim in _liouville_cases():
        pts = rows_rng.standard_normal((40, dim))
        for frame in (list(np.eye(dim)), list(rows_rng.standard_normal((dim, dim)))):
            out = liouville_residual(fld, om, pts, frame)
            assert out.shape == (40,)
            lone = [liouville_residual(fld, om, u, frame) for u in pts]
            assert all(isinstance(r, float) for r in lone)
            assert np.array_equal(out, lone)


def test_directional_derivative_refuses_a_row_that_turns_non_finite():
    def func(x):
        return np.where(x[:, 0] > 1.0, np.inf, x[:, 0])

    rows = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert np.array_equal(fd_directional(func, rows[:1], np.eye(2)[0]), [1.0])
    with pytest.raises(ValueError, match="not finite"):
        fd_directional(func, rows, np.eye(2)[0])
