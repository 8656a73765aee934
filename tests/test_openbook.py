"""Open book assembly: gluing, binding, exactness correction, realization."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from conftest import declarations

from contactlab import _kernels, forms, openbook as ob, sphere, suites
from contactlab.flows import IntegratorConfig, flow_fixed_time
from contactlab.forms import pullback_eval
from contactlab.profiles import BindingProfile
from contactlab.reports import check_rng, run_check

rng = np.random.default_rng(41)
FLOW = IntegratorConfig(step=0.02, max_time=2.0)


def one_row(smooth_map, x):
    """The image and Jacobian of a row map at one point: its one-row batch."""
    return smooth_map(x[None, :])[0], smooth_map.jacobian(x[None, :])[0]


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
    pts = domain.sample(rng, 10)
    for x, y_vec in zip(pts, ob.make_batched_y(domain, candidate)(pts)):
        b = domain.dlambda_matrix(x)
        image, jac = one_row(candidate.batched, x)
        for j, e in enumerate(np.eye(2)):
            mu_j = domain.lam(image, jac @ e) - domain.lam(x, e)
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
    squeeze = forms.SmoothMap(2, lambda pts: pts * np.array([2.0, 1.0]),
                              jac=lambda pts: np.tile(np.diag([2.0, 1.0]), (len(pts), 1, 1)))
    candidate = ob.SymplectomorphismCandidate(squeeze)
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


def test_batched_flow_agrees_with_pointwise(monkeypatch):
    # h(x) and psi_hat(x) are one-row calls of the batch: equal to its rows bitwise
    def no_fd(*args, **kwargs):
        raise AssertionError("d(lambda) is constant on this domain")

    monkeypatch.setattr(ob.ExactSymplecticDomain, "dlambda_matrix", no_fd)
    domain = ob.standard_disk_domain()
    coarse = IntegratorConfig(step=0.25, max_time=2.0)
    for candidate, cfg in ((ob.radial_twist_map(0.8, 0.8), FLOW),
                           (ob.hamiltonian_bump_map(0.15, 0.8, step=0.05), coarse)):
        result = ob.giroux_correction(domain, candidate, cfg, rng=rng)
        assert result.cond_max == np.linalg.cond(domain.dlambda_const)
        # inside the support, off it, and the base point itself
        pts = np.vstack([domain.sample(rng, 5), [[0.9, 0.1], [0.0, 0.0]]])
        ev = ob.giroux_flow_batch(domain, candidate, pts, cfg.step)
        for i, x in enumerate(pts):
            assert result.h(x) == ev.h[i]
            assert np.array_equal(result.psi_hat(x), ev.psi_hat[i])
        assert np.array_equal(ev.psi_hat[-2], pts[-2])  # Y vanishes off the support
        assert ev.h[-1] == 0.0


def _pointwise_mu_closedness(domain, candidate, samples):
    """max |d mu(e_0, e_1)| by exterior_derivative of the one-point form
    mu = psi^* lambda - lambda, central differences of step 1e-4."""
    def mu_vec(x):
        image, jac = one_row(candidate.batched, x)
        return np.array([domain.lam(image, jac @ e) - domain.lam(x, e) for e in np.eye(2)])

    mu = forms.one_form(2, mu_vec)
    return max(abs(forms.exterior_derivative(mu, x, list(np.eye(2)), 1e-4)) for x in samples)


@pytest.mark.parametrize("make", [lambda: ob.radial_twist_map(0.8, 0.8),
                                  lambda: ob.strip_shear_map(0.5, 0.8)[0],
                                  lambda: ob.hamiltonian_bump_map(0.15, 0.8, step=0.05)])
def test_batched_mu_closedness_matches_pointwise_exterior_derivative(make):
    domain = ob.standard_disk_domain()
    candidate = make()
    result = ob.giroux_correction(domain, candidate, FLOW, rng=np.random.default_rng(3),
                                  closedness_samples=8)
    ref = _pointwise_mu_closedness(domain, candidate,
                                   domain.sample(np.random.default_rng(3), 8))
    assert abs(result.mu_closedness - ref) < 1e-12


def _closedness_reference(domain, candidate, samples):
    """The closedness precondition of giroux_correction as first written: a
    hand-built stencil, sample by sample, and its own quotients."""
    d, fd = samples.shape[1], 1e-4
    offsets = fd * np.eye(d)
    stencil = np.concatenate([samples[:, None, :] + offsets, samples[:, None, :] - offsets],
                             axis=1)
    mu = ob._pullback_defect_rows(domain, candidate, stencil.reshape(-1, d)).reshape(-1, 2, d, d)
    grad = (mu[:, 0] - mu[:, 1]) / (2.0 * fd)
    i, j = np.triu_indices(d, 1)
    return float(np.max(np.abs(grad[:, i, j] - grad[:, j, i]), initial=0.0))


def _giroux_batched_eval_reference(domain, candidate, samples, step):
    """suites._giroux_batched_eval as first written, its stencil by hand."""
    fd = 1e-5
    m, d = samples.shape
    variants = [samples]
    for i in range(d):
        e = np.zeros(d)
        e[i] = fd
        variants.append(samples + e)
        variants.append(samples - e)
    ev = ob.giroux_flow_batch(domain, candidate, np.vstack(variants), step)
    h = ev.h.reshape(2 * d + 1, m)
    ph = ev.psi_hat.reshape(2 * d + 1, m, d)
    dh = np.stack([(h[1 + 2 * i] - h[2 + 2 * i]) / (2.0 * fd) for i in range(d)], axis=1)
    jac = np.stack([(ph[1 + 2 * i] - ph[2 + 2 * i]) / (2.0 * fd) for i in range(d)], axis=2)
    nu = np.einsum("mi,mik->mk", domain.lam_coeffs(ph[0]), jac) - domain.lam_coeffs(samples)
    return {"h": h[0], "dh": dh, "psi_hat": ph[0], "jac": jac, "nu": nu}


@pytest.mark.parametrize("make", [lambda: ob.radial_twist_map(0.8, 0.8),
                                  lambda: ob.strip_shear_map(0.5, 0.8)[0],
                                  lambda: ob.hamiltonian_bump_map(0.15, 0.8, step=0.05)])
def test_giroux_stencils_repeat_the_hand_written_ones_bitwise(make):
    domain = ob.standard_disk_domain()
    candidate = make()
    result = ob.giroux_correction(domain, candidate, FLOW, rng=np.random.default_rng(3),
                                  closedness_samples=8)
    samples = domain.sample(np.random.default_rng(3), 8)
    assert result.mu_closedness == _closedness_reference(domain, candidate, samples)
    ev = suites._giroux_batched_eval(domain, candidate, samples, 0.05)
    ref = _giroux_batched_eval_reference(domain, candidate, samples, 0.05)
    assert ev.keys() == ref.keys()
    for key in ref:
        assert np.array_equal(ev[key], ref[key]), key


def test_bump_jacobian_stencil_repeats_the_hand_written_one_bitwise():
    # bump-map-carried-jacobian as first written: the points, then their
    # +e0, -e0, +e1, -e1 neighbours, and the quotients by hand
    bump = ob.hamiltonian_bump_map(0.15, 0.8, step=0.02)
    pts, fd = rng.uniform(-0.8, 0.8, (12, 2)), 1e-5
    shifts = fd * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    rows = np.vstack([pts, *(pts + e for e in shifts)])
    assert np.array_equal(forms.fd_stencil(pts, fd), rows)
    img = bump.batched.func(rows)
    central = np.stack([(img[12:24] - img[24:36]) / (2.0 * fd),
                        (img[36:48] - img[48:]) / (2.0 * fd)], axis=2)
    assert np.array_equal(forms.fd_quotients(img[12:], 12, fd), central)


def test_giroux_refuses_a_non_finite_defect():
    domain = ob.standard_disk_domain()
    undefined = forms.SmoothMap(2, lambda pts: np.full_like(pts, np.nan),
                                jac=lambda pts: np.tile(np.eye(2), (len(pts), 1, 1)))
    candidate = ob.SymplectomorphismCandidate(undefined)
    with pytest.raises(ValueError, match="not finite"):
        ob.giroux_correction(domain, candidate, FLOW, rng=rng)


def test_disk_domain_lam_coeff_rows_equal_lam_and_its_differential():
    # lambda is declared once; the form and d lambda derive from its coefficients
    domain = ob.standard_disk_domain()
    pts = np.vstack([domain.sample(rng, 20), [[0.0, 0.0], [-1.0, 1.0]]])
    rows = domain.lam_coeffs(pts)
    for x, row in zip(pts, rows):
        assert np.array_equal(row, [domain.lam(x, e) for e in np.eye(2)])
        assert np.array_equal(domain.lam_coeffs(x), row)
        assert np.max(np.abs(domain.dlambda_matrix(x) - domain.dlambda_const)) < 1e-9
    assert np.array_equal(domain.dlambda_const, [[0.0, 1.0], [-1.0, 0.0]])


def _pointwise_line_primitive(nu, base, x, nodes):
    """-(integral of the 1-form nu) along the straight segment base -> x, one
    quadrature node at a time: the reference for the row quadrature."""
    nodes_pts, weights, dirs = ob.path_quadrature(
        [(np.asarray(base, dtype=float), np.asarray(x, dtype=float))], nodes)
    total = 0.0
    for p, w, d in zip(nodes_pts, weights, dirs):
        total += w * nu(p, d)
    return -total


@pytest.mark.parametrize("seed", [0, 5, 103])
def test_shear_row_primitives_equal_pointwise_line_integrals(seed):
    # the shear check's primitives: nu on one row batch of all its nodes
    domain = ob.standard_disk_domain()
    candidate, _ = ob.strip_shear_map(0.5, 0.8)
    targets = domain.sample(check_rng(seed, "giroux-shear-h0"), 12)

    def nu_psi(x, v):
        image, jac = one_row(candidate.batched, x)
        return domain.lam(image, jac @ v) - domain.lam(x, v)

    ref = np.array([_pointwise_line_primitive(nu_psi, np.zeros(2), x, suites.QUAD_NODES)
                    for x in targets])
    rows = suites._line_primitives(domain, candidate, targets)
    assert rows.tobytes() == ref.tobytes()


def test_support_check_rows_equal_one_row_calls():
    # the boundary points of the correction-fixes-support check, in one row call
    candidate = ob.radial_twist_map(0.8, 0.8)
    boundary = np.array([[0.95, 0.9], [-0.95, 0.9], [0.95, -0.9], [0.9, 0.95]])
    rows = candidate.batched(boundary)
    for x, row in zip(boundary, rows):
        assert row.tobytes() == candidate.batched(x[None, :])[0].tobytes()


def test_shear_candidate_primitive():
    candidate, h0 = ob.strip_shear_map(0.5, 0.8)
    domain = ob.standard_disk_domain()

    def nu(x, v):
        image, jac = one_row(candidate.batched, x)
        return domain.lam(image, jac @ v) - domain.lam(x, v)

    # nu = -d h0: check by finite differences of the explicit primitive
    for _ in range(15):
        x = rng.uniform(-0.9, 0.9, 2)
        for v in np.eye(2):
            fd = (h0(x + 1e-6 * v) - h0(x - 1e-6 * v)) / 2e-6
            assert abs(nu(x, v) + fd) < 1e-8


def test_candidate_identity_outside_support():
    candidate = ob.radial_twist_map(0.7, 0.6)
    samples = np.array([[0.9, 0.2], [-0.8, 0.7], [0.61, 0.61]])
    box = np.array([[-0.6, 0.6]] * 2)  # the square about the support disk
    assert not np.any(np.all((samples >= box[:, 0]) & (samples <= box[:, 1]), axis=1))
    for x in samples:
        assert np.array_equal(candidate.batched(x[None, :])[0], x)


def test_hamiltonian_bump_is_symplectic():
    candidate = ob.hamiltonian_bump_map(0.15, 0.8, step=0.01)
    for _ in range(5):
        x = rng.uniform(-0.75, 0.75, 2)
        jac = candidate.batched.jacobian(x[None, :])[0]
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


@pytest.mark.parametrize("step", [0.01, 0.02])
def test_bump_single_row_flow_matches_its_row_of_a_batch(step):
    candidate = ob.hamiltonian_bump_map(0.15, 0.8, step=step)
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


def test_bump_map_checks_catch_a_scaled_hamiltonian_field(monkeypatch):
    # X_H * (1 + 1e-7) with the Hessian left as it is: the integrated-flow
    # check, at step 0.05, reads 7.4e-8 against 1e-5, and 2.3e-7 even at
    # 1e-6, so only these two see it
    declared = declarations(suite="giroux")
    terms = ob.bump_variational_terms

    def scaled(*args):
        out = terms(*args)
        out[:2] *= 1.0 + 1e-7  # X_H; the Jacobian rows are left as they are
        return out

    monkeypatch.setattr(ob, "bump_variational_terms", scaled)
    for name in ("bump-map-exact-rotation", "bump-map-carried-jacobian"):
        *_, tolerance, body = declared[name]
        assert body()[0] > tolerance


def test_integrated_flow_check_fails_a_scaled_correcting_field(monkeypatch):
    # Y * (1 + 1e-4) reads 2.21e-5 against 1e-5 at step 0.05, as at step 0.02
    declared = declarations(suite="giroux")
    make_batched_y = ob.make_batched_y

    def scaled(domain, psi):
        y_batch = make_batched_y(domain, psi)
        return lambda pts: y_batch(pts) * (1.0 + 1e-4)

    monkeypatch.setattr(ob, "make_batched_y", scaled)
    *_, tolerance, body = declared["exactness-correction-integrated-flow"]
    assert body()[0] > tolerance


def test_bump_checks_count_their_field_calls(monkeypatch):
    # counts, not times: the integrated-flow check flows Y at step 0.05 over
    # a bump map at step 0.05, 81 maps x 80 field calls plus 80 for the
    # closedness stencil; the two map checks make one step-0.02 map each
    declared = declarations(suite="giroux")
    terms = ob.bump_variational_terms
    calls = []

    def counted(*args):
        calls.append(1)
        return terms(*args)

    monkeypatch.setattr(ob, "bump_variational_terms", counted)
    for name, expected in (("exactness-correction-integrated-flow", 81 * 80 + 80),
                           ("bump-map-exact-rotation", 200),
                           ("bump-map-carried-jacobian", 200)):
        calls.clear()
        declared[name][-1]()
        assert len(calls) == expected, name


def test_path_check_fails_a_scaled_correcting_field_at_both_steps(monkeypatch):
    # Y * (1 + 1e-3) reads 4.27e-5 against 1e-5 at the shipped step 0.1, at
    # 0.05 and at 0.02: the residual measures the quadrature, not the flow,
    # so the coarser step still catches the defect.  Y * (1 + 1e-4) reads 4.3e-6
    declared = declarations(suite="giroux")
    make_batched_y = ob.make_batched_y

    def scaled(domain, psi):
        y_batch = make_batched_y(domain, psi)
        return lambda pts: y_batch(pts) * (1.0 + 1e-3)

    monkeypatch.setattr(ob, "make_batched_y", scaled)
    *_, tolerance, body = declared["primitive-path-independence"]
    assert body()[0] > tolerance

    batched_eval = suites._giroux_batched_eval
    steps = []

    def at_fine_step(domain, candidate, samples, step):
        # the check's own nodes, flowed at 0.02
        steps.append(step)
        return batched_eval(domain, candidate, samples, 0.02)

    monkeypatch.setattr(suites, "_giroux_batched_eval", at_fine_step)
    assert body()[0] > tolerance
    assert steps == [suites.PATH_FLOW_STEP] * 4


# the checks whose correcting flow moved to a coarser declared step, the
# constant that declares it, and the finer step it moved from
COARSE_GIROUX_STEPS = [
    ("exactness-correction-identity", "GIROUX_FLOW", IntegratorConfig(step=0.02, max_time=2.0)),
    ("exactness-correction-twist", "GIROUX_FLOW", IntegratorConfig(step=0.02, max_time=2.0)),
    ("exactness-correction-shear", "GIROUX_FLOW", IntegratorConfig(step=0.02, max_time=2.0)),
    ("correction-fixes-support", "GIROUX_FLOW", IntegratorConfig(step=0.02, max_time=2.0)),
    ("primitive-path-independence", "PATH_FLOW_STEP", 0.05)]


@pytest.mark.parametrize("check, constant, finer", COARSE_GIROUX_STEPS)
def test_declared_giroux_steps_read_what_the_finer_step_reads(monkeypatch, check, constant,
                                                                finer):
    # the verdict and the residual of the finer step, to within 1e-3 of the
    # tolerance.  The integrated-flow check also reads GIROUX_FLOW but kept
    # its step 0.05; its reading follows the step (5.7e-8 at seed 0, about
    # 2.5^4 times that at 0.02), and its own pins are the field-call counts
    coarse = run_check(*declarations(suite="giroux")[check])
    monkeypatch.setattr(suites, constant, finer)
    fine = run_check(*declarations(suite="giroux")[check])
    assert coarse.passed and fine.passed
    assert abs(coarse.max_residual - fine.max_residual) < 1e-3 * coarse.tolerance


@pytest.mark.parametrize("check", ["exactness-correction-twist", "exactness-correction-shear"])
@pytest.mark.parametrize("step", [None, 0.02])
def test_twist_and_shear_checks_fail_a_scaled_correcting_field(monkeypatch, check, step):
    # Y * (1 + 1e-4) reads 1.27e-5 (twist) and 3.15e-5 (shear) against 1e-5
    # at the shipped step 0.05, as at 0.02
    if step is not None:
        monkeypatch.setattr(suites, "GIROUX_FLOW", IntegratorConfig(step=step, max_time=2.0))
    make_batched_y = ob.make_batched_y

    def scaled(domain, psi):
        y_batch = make_batched_y(domain, psi)
        return lambda pts: y_batch(pts) * (1.0 + 1e-4)

    monkeypatch.setattr(ob, "make_batched_y", scaled)
    *_, tolerance, body = declarations(suite="giroux")[check]
    assert body()[0] > tolerance


def test_path_check_counts_its_y_field_calls(monkeypatch):
    # counts, not times: four flows of 1,926 rows, each 10 RK4 steps of 4
    # stages at step 0.1, where step 0.05 made 320 calls and 0.02 made 800
    declared = declarations(suite="giroux")
    make_batched_y = ob.make_batched_y
    rows = []

    def counted(domain, psi):
        y_batch = make_batched_y(domain, psi)

        def y(pts):
            rows.append(len(pts))
            return y_batch(pts)
        return y

    monkeypatch.setattr(ob, "make_batched_y", counted)
    declared["primitive-path-independence"][-1]()
    assert rows == [1926] * (4 * 10 * 4)


def test_default_func_jac_pairs_func_and_jac():
    candidate, _ = ob.strip_shear_map(0.5, 0.8)
    pts = rng.uniform(-1.0, 1.0, (5, 2))
    img, jac = candidate.batched.func_jac(pts)
    assert np.array_equal(img, candidate.batched.func(pts))
    assert np.array_equal(jac, candidate.batched.jac(pts))


def test_twist_carried_func_jac_equals_func_and_jac_bitwise():
    candidate = ob.radial_twist_map(0.8, 0.8)
    local = np.random.default_rng(7)
    # inside the support, outside it, and on its boundary circle
    pts = np.vstack([local.uniform(-0.75, 0.75, (40, 2)), local.uniform(0.85, 1.2, (6, 2)),
                     [[0.8, 0.0], [0.0, -0.8]]])
    img, jac = candidate.batched.func_jac(pts)
    assert img.tobytes() == candidate.batched.func(pts).tobytes()
    assert jac.tobytes() == candidate.batched.jac(pts).tobytes()
    assert np.array_equal(img[40:], pts[40:])


TWIST_RECORDS = ("exactness-correction-twist", "primitive-path-independence",
                 "correction-fixes-support")


def test_twist_records_keep_their_bytes_under_lowered_cpu_kernels(fresh_interpreter_env):
    # NumPy picks its SIMD kernels by CPU and OpenBLAS its core type, each at
    # run time; a child with the dispatch targets above NumPy's baseline
    # turned off and OpenBLAS held to Nehalem stands in for an older CPU.  On
    # a CPU without those targets the child disables fewer and checks less
    from numpy._core import _multiarray_umath as umath
    lowered = [target for target in umath.__cpu_dispatch__
               if target not in umath.__cpu_baseline__ and umath.__cpu_features__.get(target)]
    code = ("import json, sys;"
            "from contactlab.config import config_from_dict;"
            "from contactlab.reports import run_check;"
            "from contactlab.suites import declared_checks;"
            "names = json.loads(sys.argv[1]);"
            "print(json.dumps({d[0]: run_check(*d).as_dict() for d in"
            " declared_checks(config_from_dict({'suite': 'giroux'})) if d[0] in names}))")
    child = subprocess.run(
        [sys.executable, "-c", code, json.dumps(TWIST_RECORDS)],
        env=dict(fresh_interpreter_env, NPY_DISABLE_CPU_FEATURES=" ".join(lowered),
                 OPENBLAS_CORETYPE="Nehalem"),
        capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    lowered_records = json.loads(child.stdout)
    declared = declarations(suite="giroux")
    for name in TWIST_RECORDS:
        here = json.dumps(run_check(*declared[name]).as_dict(), sort_keys=True)
        assert json.dumps(lowered_records[name], sort_keys=True) == here, name


def _separate_integrations(domain, candidate, x, step):
    """h(x) and psi_hat(x) from their own one-point flows of the batched Y
    field: the augmented flow for h, with the one-point lambda, and the bare
    Y-flow for psi_hat."""
    y_batch = ob.make_batched_y(domain, candidate)

    def y_field(p):
        return y_batch(p[None, :])[0]

    def augmented(state):
        y = y_field(state[:-1])
        return np.append(y, domain.lam(state[:-1], y))

    def h_raw(p):
        return float(flow_fixed_time(augmented, np.append(p, 0.0), 1.0, step)[-1])

    return (-(h_raw(x) - h_raw(domain.sample_box.mean(axis=1))),
            candidate.batched(flow_fixed_time(y_field, x, 1.0, step)[None, :])[0])


@pytest.mark.parametrize("make", [lambda: ob.radial_twist_map(0.8, 0.8),
                                  lambda: ob.hamiltonian_bump_map(0.15, 0.8, step=0.05)])
def test_shared_flow_matches_separate_integrations(make):
    domain = ob.standard_disk_domain()
    candidate = make()
    coarse = IntegratorConfig(step=0.25, max_time=2.0)
    result = ob.giroux_correction(domain, candidate, coarse, rng=rng, closedness_samples=2)
    x = np.array([0.3, -0.2])
    h_sep, psi_hat_sep = _separate_integrations(domain, candidate, x, coarse.step)
    # one ulp or so: the batch takes lambda(Y) by einsum, the reference by np.dot
    assert result.h(x) == pytest.approx(h_sep, rel=1e-15, abs=0.0)
    assert np.array_equal(result.psi_hat(x), psi_hat_sep)
    assert abs(h_sep) > 1e-3  # the flow does move this point


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
    rows = sphere.random_sphere_points(rng, 5, n, 0.0, 0.25)
    for x, frame in zip(rows, sphere.tangent_frames(rows[:, :n + 1], rows[:, n + 1:])):
        vals.append(real.g(x[:n + 1], x[n + 1:]))
        for v in frame:
            assert abs(real.lam_tilde(x, v) - lam(x, v)) < 1e-10
    assert np.max(vals) - np.min(vals) < 1e-10


def xi_perturbed_form(d):
    """lambda = p dq + d(xi) for xi = (q . c)(1 + |p|^2), as the
    legendrian-realization check builds it: a row form without a coefficient
    Jacobian.  Returns the form and xi."""
    cvec = np.array([0.3, -0.2, 0.4])

    def coeffs(x):
        q, p = x[..., :d], x[..., d:]
        pp = np.vecdot(p, p)[..., None]
        return np.concatenate([p + cvec * (1.0 + pp), 2.0 * (q @ cvec)[..., None] * p],
                              axis=-1)

    def xi(q, p):
        return float((q @ cvec) * (1.0 + p @ p))

    return forms.one_form(2 * d, coeffs), xi


def test_legendrian_correction_is_exact_in_the_cutoff_band():
    # lambda = lambda_can + d(xi), as in the legendrian-realization check; in
    # the band RHO_IN < |p| < RHO_OUT the correction d(rho g) carries rho'
    n, d = 2, 3
    lam, _ = xi_perturbed_form(d)
    real = ob.legendrian_realization(n, lam)
    local = np.random.default_rng(5)
    worst = 0.0
    rows = sphere.random_sphere_points(local, 6, n, 0.32, 0.78)
    for x, frame in zip(rows, sphere.tangent_frames(rows[:, :d], rows[:, d:])):
        for i in range(len(frame)):
            for j in range(i + 1, len(frame)):
                pair = [frame[i], frame[j]]
                worst = max(worst, abs(forms.exterior_derivative(real.lam_tilde, x, pair, 1e-4)
                                       - forms.exterior_derivative(lam, x, pair, 1e-4)))
    assert worst < 1e-6


def _float_loop_potential(lam, q, p):
    """g(q, p) of lambda - p dq by the realization's rule, one node at a time:
    the great circle from e_0 to q (q . e_0 >= 0), then the fiber, with the
    terms added in node order."""
    d = len(q)
    lam_can = sphere.canonical_one_form(2 * d)
    base = np.eye(d)[0]
    gl_x, gl_w = np.polynomial.legendre.leggauss(ob.REALIZATION_NODES)
    ang = math.acos(float(np.clip(base @ q, -1.0, 1.0)))
    total = 0.0
    for xi_node, wi in zip(gl_x, gl_w):
        t = 0.5 * (xi_node + 1.0)
        point = (math.sin((1.0 - t) * ang) * base + math.sin(t * ang) * q) / math.sin(ang)
        vel = ang * (-math.cos((1.0 - t) * ang) * base + math.cos(t * ang) * q) / math.sin(ang)
        x, v = np.concatenate([point, np.zeros(d)]), np.concatenate([vel, np.zeros(d)])
        total += 0.5 * wi * (lam(x, v) - lam_can(x, v))
    for xi_node, wi in zip(gl_x, gl_w):
        t = 0.5 * (xi_node + 1.0)
        x, v = np.concatenate([q, t * p]), np.concatenate([np.zeros(d), p])
        total += 0.5 * wi * (lam(x, v) - lam_can(x, v))
    return total


def test_legendrian_potential_on_rows_equals_a_float_loop_quadrature():
    n, d = 2, 3
    lam, _ = xi_perturbed_form(d)
    real = ob.legendrian_realization(n, lam)
    local = np.random.default_rng(17)
    rows = sphere.random_sphere_points(local, 12, n, 0.0, 0.25)
    checked = 0
    for x in rows:
        q, p = x[:d], x[d:]
        if q[0] < 0.0:
            continue  # the far hemisphere goes through a waypoint
        loop = _float_loop_potential(lam, q, p)
        assert abs(loop) > 0.05
        assert real.g(q, p) == pytest.approx(loop, rel=1e-14, abs=0.0)
        checked += 1
    assert checked >= 4


def test_legendrian_potential_is_defined_at_the_antipode_of_the_base():
    # the great circle from e_0 to -e_0 is undefined (sin(pi) = 1.2e-16): g
    # goes through a quarter-circle waypoint, and g - xi stays the constant
    # it reads everywhere else, at -e_0 and within 1e-9 of it
    n, d = 2, 3
    lam, xi = xi_perturbed_form(d)
    real = ob.legendrian_realization(n, lam)
    base = np.eye(d)[0]
    offset = real.g(base, np.zeros(d)) - xi(base, np.zeros(d))
    near = -base + 1e-9 * np.eye(d)[1]
    near /= np.linalg.norm(near)
    fiber = np.array([0.0, 0.1, -0.15])
    cases = [(-base, np.zeros(d)), (-base, fiber), (near, np.zeros(d)),
             (near, fiber - (fiber @ near) * near)]
    for x in sphere.random_sphere_points(np.random.default_rng(3), 6, n, 0.0, 0.25):
        cases.append((x[:d], x[d:]))
    for q, p in cases:
        assert abs(real.g(q, p) - xi(q, p) - offset) < 1e-9, q


def test_legendrian_realization_refuses_a_pointwise_form():
    # a form that cannot take (m, d) rows is named, not integrated wrongly
    n, d = 2, 3
    lam_can = sphere.canonical_one_form(2 * d)
    pointwise = forms.KFormOracle(1, 2 * d, lambda x, v: float(lam_can(x, v)))
    with pytest.raises(ValueError, match="row batches"):
        ob.legendrian_realization(n, pointwise)
    # a form that gives one value for the whole batch is refused too
    summed = forms.KFormOracle(1, 2 * d, lambda x, v: np.sum(lam_can(x, v)))
    with pytest.raises(ValueError, match="row batches"):
        ob.legendrian_realization(n, summed)


def test_reeb_transversality_three_cases():
    domain = ob.standard_disk_domain()
    alpha = ob.mapping_torus_form(domain.lam)
    samples = [(np.array([0.2, -0.3, 1.0]), list(np.eye(3)))]
    # the gradient of the page function u[2]
    val = ob.reeb_transversality_check(alpha, lambda u: np.array([0.0, 0.0, 1.0]), samples)
    assert val == pytest.approx(1.0, abs=1e-8)

    alpha_bad = forms.one_form(3, lambda u: np.array([0.0, u[0], 1.0]),
                               lambda u: np.array([[0.0, 0.0, 0.0],
                                                   [1.0, 0.0, 0.0],
                                                   [0.0, 0.0, 0.0]]))
    # the gradient of the page function u[1]
    val_bad = ob.reeb_transversality_check(alpha_bad, lambda u: np.array([0.0, 1.0, 0.0]),
                                           samples)
    assert abs(val_bad) < 1e-9


def test_reeb_transversality_check_returns_a_nan_after_the_first_sample():
    # min(1.0, nan) is 1.0: a fold by min would report the first sample's
    # positive derivative and pass the adaptedness condition
    domain = ob.standard_disk_domain()
    alpha = ob.mapping_torus_form(domain.lam)
    samples = [(np.array([0.2, -0.3, 1.0]), list(np.eye(3))),
               (np.array([0.1, 0.4, 2.0]), list(np.eye(3))),
               (np.array([-0.3, 0.1, 0.5]), list(np.eye(3)))]
    grads = iter([np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, math.nan]),
                  np.array([0.0, 0.0, 1.0])])
    val = ob.reeb_transversality_check(alpha, lambda u: next(grads), samples)
    assert math.isnan(val)


def test_legendrian_realization_detects_path_dependence():
    n = 2
    d = n + 1

    def bad_coeffs(x):
        # canonical form plus x0 x_{d+1} dx_1, whose differential survives on
        # tangent pairs
        c = np.concatenate([x[..., d:], np.zeros(x[..., d:].shape)], axis=-1)
        c[..., 1] += x[..., 0] * x[..., d + 1]
        return c

    bad = forms.one_form(2 * d, bad_coeffs)
    with pytest.raises(ValueError, match="path-dependence"):
        ob.legendrian_realization(n, bad)
    # the honest canonical form sails through the same validation
    lam = sphere.canonical_one_form(2 * d)
    ob.legendrian_realization(n, lam)
