"""Open book assembly: gluing, binding, exactness correction, realization."""

import math

import numpy as np
import pytest

from contactlab import _kernels, forms, openbook as ob, sphere
from contactlab.flows import IntegratorConfig, flow_fixed_time
from contactlab.forms import ScalarField, VectorFieldOracle, pullback_eval
from contactlab.profiles import BindingProfile

rng = np.random.default_rng(41)
FLOW = IntegratorConfig(step=0.02, max_time=2.0)


def circle_form():
    return forms.one_form(1, lambda u: np.array([1.0]), lambda u: np.zeros((1, 1)))


def test_mapping_torus_form_values():
    domain = ob.standard_disk_domain()
    alpha = ob.mapping_torus_form(domain.lam)
    x = np.array([0.3, 0.0, 1.2])
    assert alpha(x, np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0)
    assert alpha(x, np.array([1.0, 0.0, 0.0])) == pytest.approx(0.0)
    vol = forms.contact_volume(alpha, x, list(np.eye(3)))
    assert vol > 0


def test_glue_map_frozen_values():
    glue = ob.glue_map(1)
    assert glue(np.array([0.3, 0.5, 1.0]))[0] == pytest.approx(0.0)
    assert glue(np.array([0.3, 0.9, 1.0]))[0] == pytest.approx(-0.4)
    out = glue(np.array([0.7, 0.6, 2.0]))
    assert out[1] == pytest.approx(0.7) and out[2] == pytest.approx(2.0)


def test_glue_pullback_identity():
    collar = ob.collar_form(circle_form())
    glue = ob.glue_map(1)
    for _ in range(20):
        u = np.array([rng.uniform(0, 6.28), rng.uniform(0.51, 0.99),
                      rng.uniform(0, 6.28)])
        for v in np.eye(3):
            lhs = pullback_eval(glue, collar, u, [v])
            rhs = math.exp(0.5 - u[1]) * v[0] + v[2]
            assert abs(lhs - rhs) < 1e-12


def test_binding_form_matches_glued_form_on_overlap():
    profile = BindingProfile()
    beta = ob.binding_form_polar(profile, circle_form())
    collar = ob.collar_form(circle_form())
    glue = ob.glue_map(1)
    for _ in range(30):
        u = np.array([rng.uniform(0, 6.28),
                      rng.uniform(profile.MATCHING_RADIUS, 0.999),
                      rng.uniform(0, 6.28)])
        for v in np.eye(3):
            assert abs(pullback_eval(glue, collar, u, [v]) - beta(u, v)) < 1e-14


def test_binding_form_rejects_radius_out_of_range():
    beta = ob.binding_form_polar(BindingProfile(), circle_form())
    with pytest.raises(ValueError):
        beta(np.array([0.0, 1.2, 0.0]), np.eye(3)[0])


def test_binding_volume_positive_on_grid():
    profile = BindingProfile()
    beta = ob.binding_form_polar(profile, circle_form())
    for r in np.linspace(0.01, 0.95, 30):
        vol = forms.contact_volume(beta, np.array([0.5, r, 1.0]), list(np.eye(3)))
        pred = profile.h1(r) * profile.h2_d(r) - profile.h1_d(r) * profile.h2(r)
        assert vol > 0
        assert abs(vol - pred) < 1e-8


def test_cartesian_binding_form_even_across_axis():
    profile = BindingProfile()
    beta = ob.binding_form_cartesian(profile, circle_form())
    center = np.array([0.4, 0.0, 0.0])
    for ang in np.linspace(0, 2 * math.pi, 7):
        offset = 1e-3 * np.array([0.0, math.cos(ang), math.sin(ang)])
        for v in np.eye(3):
            sym = beta(center + offset, v) + beta(center - offset, v) \
                - 2.0 * beta(center, v)
            assert abs(sym) < 1e-9


def test_correcting_field_solves_contraction_equation():
    domain = ob.standard_disk_domain()
    candidate = ob.radial_twist_map(0.6, 0.8)
    result = ob.giroux_correction(domain, candidate, FLOW, rng=rng)
    for x in domain.sample(rng, 10):
        y_vec = result.y_field(x)
        b = domain.dlambda_matrix(x)
        jac = candidate.mapping.jacobian(x)
        for j, e in enumerate(np.eye(2)):
            mu_j = domain.lam(candidate.mapping(x), jac @ e) - domain.lam(x, e)
            assert abs(float(y_vec @ b[:, j]) + mu_j) < 1e-9


def test_giroux_identity_map():
    domain = ob.standard_disk_domain()
    candidate = ob.identity_candidate(2)
    result = ob.giroux_correction(domain, candidate, FLOW, rng=rng)
    for x in domain.sample(rng, 10):
        assert np.max(np.abs(result.psi_hat(x) - x)) < 1e-12
        assert abs(result.h(x)) < 1e-12


def test_giroux_rejects_non_symplectic_input():
    domain = ob.standard_disk_domain()
    squeeze = ob.BatchedMapOps(lambda pts: pts * np.array([2.0, 1.0]),
                               lambda pts: np.tile(np.diag([2.0, 1.0]), (len(pts), 1, 1)))
    candidate = ob.SymplectomorphismCandidate(squeeze, np.array([[-2.0, 2.0]] * 2))
    with pytest.raises(ValueError, match="not closed|preserve"):
        ob.giroux_correction(domain, candidate, FLOW, rng=rng)


def test_giroux_residual_small_sample():
    domain = ob.standard_disk_domain()
    candidate = ob.radial_twist_map(0.8, 0.8)
    result = ob.giroux_correction(domain, candidate, FLOW, rng=rng)
    h_fd = 1e-5
    worst = 0.0
    for x in domain.sample(rng, 8):
        for v in np.eye(2):
            nu = pullback_eval(result.psi_hat, domain.lam, x, [v]) - domain.lam(x, v)
            dh = (result.h(x + h_fd * v) - result.h(x - h_fd * v)) / (2 * h_fd)
            worst = max(worst, abs(nu + dh))
    assert worst < 1e-5


def test_batched_flow_agrees_with_pointwise():
    domain = ob.standard_disk_domain()
    candidate = ob.radial_twist_map(0.8, 0.8)
    result = ob.giroux_correction(domain, candidate, FLOW, rng=rng)
    pts = domain.sample(rng, 5)
    ev = ob.giroux_flow_batch(domain, candidate, pts, FLOW)
    for i, x in enumerate(pts):
        assert abs(result.h(x) - ev.h[i]) < 1e-9
        assert np.max(np.abs(result.psi_hat(x) - ev.psi_hat[i])) < 1e-9


def test_batched_y_agrees_with_solve():
    domain = ob.standard_disk_domain()
    candidate = ob.radial_twist_map(0.8, 0.8)
    y_batch = ob.make_batched_y(domain, candidate)
    result = ob.giroux_correction(domain, candidate, FLOW, rng=rng)
    pts = domain.sample(rng, 6)
    rows = y_batch(pts)
    for i, x in enumerate(pts):
        assert np.max(np.abs(rows[i] - result.y_field(x))) < 1e-10


def test_shear_candidate_primitive():
    candidate, h0 = ob.strip_shear_map(0.5, 0.8)
    domain = ob.standard_disk_domain()

    def nu(x, v):
        jac = candidate.mapping.jacobian(x)
        return domain.lam(candidate.mapping(x), jac @ v) - domain.lam(x, v)

    # nu = -d h0: check by finite differences of the explicit primitive
    for _ in range(15):
        x = rng.uniform(-0.9, 0.9, 2)
        for v in np.eye(2):
            fd = (h0(x + 1e-6 * v) - h0(x - 1e-6 * v)) / 2e-6
            assert abs(nu(x, v) + fd) < 1e-8


def test_candidate_identity_outside_support():
    candidate = ob.radial_twist_map(0.7, 0.6)
    samples = np.array([[0.9, 0.2], [-0.8, 0.7], [0.61, 0.61]])
    box = candidate.support_box
    assert not np.any(np.all((samples >= box[:, 0]) & (samples <= box[:, 1]), axis=1))
    for x in samples:
        assert np.array_equal(candidate.mapping(x), x)


def test_hamiltonian_bump_is_symplectic():
    candidate = ob.hamiltonian_bump_map(0.15, 0.8, step=0.01)
    for _ in range(5):
        x = rng.uniform(-0.75, 0.75, 2)
        jac = candidate.mapping.jacobian(x)
        assert abs(np.linalg.det(jac) - 1.0) < 1e-9


def _einsum_bump_variational_field(amplitude, r02):
    """The bump map's variational field in matrix form, as a reference."""
    j_std = np.array([[0.0, 1.0], [-1.0, 0.0]])

    def field(u):
        m = len(u)
        x = u[:, :2]
        s = np.einsum("mi,mi->m", x, x)
        base = np.clip(1.0 - s / r02, 0.0, None)
        coeff = -8.0 * amplitude / r02 * (base * base * base)
        x_h = np.stack([coeff * x[:, 1], -coeff * x[:, 0]], axis=1)
        hess = 2.0 * amplitude * (-4.0 * (base * base * base) / r02)[:, None, None] \
            * np.eye(2)[None] \
            + 4.0 * amplitude * (12.0 * (base * base) / (r02 * r02))[:, None, None] \
            * np.einsum("mi,mj->mij", x, x)
        dx = np.einsum("ij,mjk->mik", j_std, hess)
        jac = u[:, 2:].reshape(m, 2, 2)
        return np.concatenate([x_h, np.einsum("mij,mjk->mik", dx, jac).reshape(m, 4)],
                              axis=1)

    return field


def test_bump_func_jac_is_one_integration_of_both():
    candidate = ob.hamiltonian_bump_map(0.15, 0.8, step=0.05)
    # inside the support, outside it, and on its boundary circle
    pts = np.vstack([rng.uniform(-0.75, 0.75, (6, 2)), rng.uniform(0.85, 1.2, (3, 2)),
                     [[0.8, 0.0], [0.0, -0.8]]])
    img, jac = candidate.batched.func_jac(pts)
    assert np.array_equal(img, candidate.batched.func(pts))
    assert np.array_equal(jac, candidate.batched.jac(pts))
    assert np.array_equal(img[6:], pts[6:])
    # the flat column field repeats the matrix form's arithmetic exactly
    state = np.hstack([pts, np.tile([1.0, 0.0, 0.0, 1.0], (len(pts), 1))])
    ref = _kernels.rk4_final(_einsum_bump_variational_field(0.15, 0.8 ** 2), state, 1.0, 0.05)
    assert np.array_equal(img, ref[:, :2])
    assert np.array_equal(jac, ref[:, 2:].reshape(-1, 2, 2))


def test_bump_field_float_and_column_forms_agree_bitwise():
    amplitude, r02 = 0.15, 0.8 ** 2
    local = np.random.default_rng(17)
    # 100 points each inside the support, outside it and on its boundary circle
    radii = np.concatenate([local.uniform(0.0, 0.8, 100), local.uniform(0.8, 1.5, 100),
                            np.full(100, 0.8)])
    angles = local.uniform(0.0, 2.0 * math.pi, 300)
    states = np.column_stack([radii * np.cos(angles), radii * np.sin(angles),
                              local.standard_normal((300, 4))])
    x, y = states[:, 0], states[:, 1]
    base = np.maximum(1.0 - (x * x + y * y) / r02, 0.0)
    columns = np.column_stack(ob.bump_variational_terms(
        amplitude, r02, base, x, y, *states[:, 2:].T))
    assert np.count_nonzero(base == 0.0) > 100 and np.count_nonzero(base > 0.0) > 100
    for row, expected in zip(states.tolist(), columns):
        xf, yf, *jac = row
        base_f = max(1.0 - (xf * xf + yf * yf) / r02, 0.0)
        terms = ob.bump_variational_terms(amplitude, r02, base_f, xf, yf, *jac)
        assert all(type(t) is float for t in terms)
        assert np.array_equal(np.array(terms), expected)


def test_bump_single_row_flow_matches_its_row_of_a_batch():
    candidate = ob.hamiltonian_bump_map(0.15, 0.8, step=0.01)
    local = np.random.default_rng(23)
    radii = np.concatenate([local.uniform(0.0, 0.8, 21), local.uniform(0.8, 1.2, 6),
                            np.full(4, 0.8)])
    angles = local.uniform(0.0, 2.0 * math.pi, 31)
    pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    img, jac = candidate.batched.func_jac(pts)
    for i in range(len(pts)):
        img_i, jac_i = candidate.batched.func_jac(pts[i:i + 1])
        assert img_i.shape == (1, 2) and jac_i.shape == (1, 2, 2)
        assert np.array_equal(img_i[0], img[i])
        assert np.array_equal(jac_i[0], jac[i])


def test_default_func_jac_pairs_func_and_jac():
    candidate = ob.radial_twist_map(0.8, 0.8)
    pts = rng.uniform(-1.0, 1.0, (5, 2))
    img, jac = candidate.batched.func_jac(pts)
    assert np.array_equal(img, candidate.batched.func(pts))
    assert np.array_equal(jac, candidate.batched.jac(pts))


@pytest.mark.parametrize("make", [lambda: ob.radial_twist_map(0.8, 0.8),
                                  lambda: ob.hamiltonian_bump_map(0.15, 0.8, step=0.05)])
def test_shared_flow_matches_separate_integrations(make):
    domain = ob.standard_disk_domain()
    candidate = make()
    coarse = IntegratorConfig(step=0.25, max_time=2.0)
    result = ob.giroux_correction(domain, candidate, coarse, rng=rng, closedness_samples=2)
    x = np.array([0.3, -0.2])

    def augmented(state):
        y = result.y_field(state[:-1])
        return np.append(y, domain.lam(state[:-1], y))

    aug = VectorFieldOracle(3, augmented)

    def h_raw(p):
        return float(flow_fixed_time(aug, np.append(p, 0.0), 1.0, coarse)[-1])

    h_sep = -(h_raw(x) - h_raw(result.base_point))
    psi_hat_sep = candidate.mapping(flow_fixed_time(result.y_field, x, 1.0, coarse))
    assert result.h(x) == h_sep
    assert np.array_equal(result.psi_hat(x), psi_hat_sep)
    assert abs(h_sep) > 1e-3  # the flow does move this point


def test_h_then_psi_hat_integrates_the_flow_once(monkeypatch):
    domain = ob.standard_disk_domain()
    candidate = ob.hamiltonian_bump_map(0.15, 0.8, step=0.05)
    coarse = IntegratorConfig(step=0.25, max_time=2.0)
    result = ob.giroux_correction(domain, candidate, coarse, rng=rng, closedness_samples=2)
    assert result.cond_max == np.linalg.cond(domain.dlambda_const)
    counts = {"func_jac": 0, "rk4": 0}
    func_jac = candidate.batched.func_jac
    rk4 = _kernels.rk4_final

    def counted_func_jac(pts):
        counts["func_jac"] += 1
        return func_jac(pts)

    def counted_rk4(*args):
        counts["rk4"] += 1
        return rk4(*args)

    def no_fd(*args, **kwargs):
        raise AssertionError("d(lambda) is constant on this domain")

    candidate.batched.func_jac = counted_func_jac
    monkeypatch.setattr(_kernels, "rk4_final", counted_rk4)
    monkeypatch.setattr(ob.ExactSymplecticDomain, "dlambda_matrix", no_fd)
    x = np.array([0.3, -0.2])
    result.h(x)
    result.psi_hat(x)
    y_evals = 4 * round(1.0 / coarse.step)
    # one Y evaluation per func_jac call, one bump integration each, plus
    # the Y-flow itself and the bump map applied once to its end point for psi_hat
    assert counts == {"func_jac": y_evals, "rk4": y_evals + 2}


def test_legendrian_realization_requires_higher_dimension():
    lam = sphere.canonical_one_form(4)
    with pytest.raises(ValueError, match="n > 1"):
        ob.legendrian_realization(1, lam)


def test_legendrian_realization_trivial_case():
    # lambda = lambda_can: the potential is constant and nothing changes
    n = 2
    lam = sphere.canonical_one_form(2 * (n + 1))
    real = ob.legendrian_realization(n, lam)
    vals = []
    for _ in range(5):
        sp = sphere.random_sphere_point(rng, n, 0.0, 0.25)
        vals.append(real.g(sp.q, sp.p))
        x = np.concatenate([sp.q, sp.p])
        for v in sphere.tangent_frame(sp):
            assert abs(real.lam_tilde(x, v) - lam(x, v)) < 1e-10
    assert np.max(vals) - np.min(vals) < 1e-10


def test_legendrian_correction_is_exact_in_the_cutoff_band():
    # lambda = lambda_can + d(xi), as in the legendrian-realization check; in
    # the band RHO_IN < |p| < RHO_OUT the correction d(rho g) carries rho'
    n, d = 2, 3
    lam_can = sphere.canonical_one_form(2 * d)
    cvec = np.array([0.3, -0.2, 0.4])

    def lam_eval(x, v):
        q, p = x[:d], x[d:]
        grad_xi = np.concatenate([cvec * (1.0 + p @ p), 2.0 * (q @ cvec) * p])
        return lam_can(x, v) + float(grad_xi @ np.asarray(v, dtype=float))

    lam = forms.KFormOracle(1, 2 * d, lam_eval)
    real = ob.legendrian_realization(n, lam, nodes=32)
    local = np.random.default_rng(5)
    worst = 0.0
    for _ in range(6):
        sp = sphere.random_sphere_point(local, n, 0.32, 0.78)
        x = np.concatenate([sp.q, sp.p])
        frame = sphere.tangent_frame(sp)
        for i in range(len(frame)):
            for j in range(i + 1, len(frame)):
                pair = [frame[i], frame[j]]
                worst = max(worst, abs(forms.exterior_derivative(real.lam_tilde, x, pair, 1e-4)
                                       - forms.exterior_derivative(lam, x, pair, 1e-4)))
    assert worst < 1e-6


def test_reeb_transversality_three_cases():
    domain = ob.standard_disk_domain()
    alpha = ob.mapping_torus_form(domain.lam)
    theta = ScalarField(3, lambda u: float(u[2]),
                        grad=lambda u: np.array([0.0, 0.0, 1.0]))
    samples = [(np.array([0.2, -0.3, 1.0]), list(np.eye(3)))]
    assert ob.reeb_transversality_check(alpha, theta, samples) == pytest.approx(1.0, abs=1e-8)

    alpha_bad = forms.one_form(3, lambda u: np.array([0.0, u[0], 1.0]),
                               lambda u: np.array([[0.0, 0.0, 0.0],
                                                   [1.0, 0.0, 0.0],
                                                   [0.0, 0.0, 0.0]]))
    theta_bad = ScalarField(3, lambda u: float(u[1]),
                            grad=lambda u: np.array([0.0, 1.0, 0.0]))
    assert abs(ob.reeb_transversality_check(alpha_bad, theta_bad, samples)) < 1e-9


def test_legendrian_realization_detects_path_dependence():
    n = 2
    d = n + 1

    def bad_eval(x, v):
        # canonical form plus a term whose differential survives on tangent pairs
        val = float(x[d:] @ np.asarray(v, dtype=float)[:d])
        val += float(x[0] * x[d + 1] * np.asarray(v, dtype=float)[1])
        return val

    bad = forms.KFormOracle(1, 2 * d, bad_eval)
    with pytest.raises(ValueError, match="path-dependence"):
        ob.legendrian_realization(n, bad, path_check=4)
    # the honest canonical form sails through the same validation
    lam = sphere.canonical_one_form(2 * d)
    ob.legendrian_realization(n, lam, path_check=3)
