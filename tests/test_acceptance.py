"""Acceptance gate: every headline criterion at its stated tolerance.

Each criterion records a pass/fail line (printed in the terminal summary)
and asserts, so the suite fails loudly on any regression.  Tolerances and
sample counts are pinned here, independent of the runtime configuration.
"""

import math
import time

import numpy as np

from contactlab import forms, monodromy as mono, moves as mv, openbook as ob, sphere, \
    surgery
from contactlab.flows import IntegratorConfig
from contactlab.profiles import BindingProfile, DehnTwistProfile
from contactlab.suites import (_giroux_batched_eval, strictness_residual,
                               twist_pullback_residual, _random_chain,
                               _sample_page)

from conftest import ACCEPTANCE_RESULTS


def record(num, name, passed, detail=""):
    ACCEPTANCE_RESULTS.append((num, name, bool(passed), detail))
    assert passed, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_dehn_twist_symplectomorphism():
    t0 = time.perf_counter()
    profile = DehnTwistProfile(1.0, 1)
    worst = 0.0
    for n in (1, 2, 3):
        rng = np.random.default_rng([100, n])
        worst = max(worst, twist_pullback_residual(rng, n, 500, profile))
    # pointwise identity beyond the support radius, exactly
    rng = np.random.default_rng(101)
    support_defect = 0.0
    for _ in range(100):
        pt = sphere.random_sphere_point(rng, 2, 1.0, 3.0)
        out = sphere.dehn_twist(pt, profile)
        support_defect = max(support_defect,
                             float(np.max(np.abs(out.as_array() - pt.as_array()))))
    # the zero section maps to its antipode, exactly
    antipode_defect = 0.0
    for _ in range(50):
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        out = sphere.dehn_twist(sphere.SpherePoint(q, np.zeros(4)), profile)
        antipode_defect = max(antipode_defect, float(np.max(np.abs(out.q + q))))
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-6 and support_defect == 0.0 and antipode_defect == 0.0 \
        and elapsed < 10.0
    record(1, "twist preserves the canonical symplectic form", passed,
           f"residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_straightening_strictness():
    t0 = time.perf_counter()
    worst = 0.0
    for n, k in ((2, 1), (3, 1), (3, 2)):
        rng = np.random.default_rng([200, n, k])
        worst = max(worst, strictness_residual(rng, n, k, 500))
    elapsed = time.perf_counter() - t0
    passed = worst < 1e-8 and elapsed < 5.0
    record(2, "neighborhood straightening is strict", passed,
           f"residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_liouville_and_transversality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(300)
    fld = surgery.liouville_field(1, 2)
    om = surgery.omega0_form(1, 2)
    frame = list(np.eye(6))
    worst_liouville = 0.0
    for _ in range(100):
        pt = rng.standard_normal(6)
        worst_liouville = max(worst_liouville,
                              forms.liouville_residual(fld, om, pt, frame))
    min_margin = math.inf
    for delta in (0.05, 0.1):
        pts = surgery.sample_s1_points(rng, 10000, 1, 2, delta)
        margins = surgery.transversality_margins(pts, 1, 2, delta)
        min_margin = min(min_margin, float(margins.min()))
    elapsed = time.perf_counter() - t0
    passed = worst_liouville < 1e-6 and min_margin > 0.0 and elapsed < 30.0
    record(3, "Liouville expansion and level-set transversality", passed,
           f"residual {worst_liouville:.2e}, min margin {min_margin:.2e}, {elapsed:.1f}s")


def test_criterion_04_monodromy_core():
    t0 = time.perf_counter()
    flow_cfg = IntegratorConfig(step=1e-3, max_time=2.0, event_tol=1e-12)
    worst_pipeline = 0.0
    worst_matrix = 0.0
    worst_wnorm = 0.0
    for nzw in (2, 3, 4):
        rng = np.random.default_rng([400, nzw])
        starts = np.array([mono.admissible_start(rng, nzw, 0.1, 0.05) for _ in range(200)])
        (ends,) = mono.post_surgery_pipeline_batch([starts], 0.1, 0.05, flow_cfg)
        closed = mono.post_surgery_closed_form(starts, 0.1)
        worst_pipeline = max(worst_pipeline, float(np.max(np.abs(ends - closed))))
        worst_wnorm = max(worst_wnorm, float(np.max(np.abs(
            np.linalg.norm(closed[:, nzw:], axis=1) - 1.0))))
        tw = mono.recognize_dehn_twist(starts, closed, 0.1)
        worst_matrix = max(worst_matrix, float(np.max(tw.matrix_residual)))
    elapsed = time.perf_counter() - t0
    passed = worst_pipeline < 1e-6 and worst_matrix < 1e-9 \
        and worst_wnorm < 1e-12 and elapsed < 60.0
    record(4, "surgery transport matches the closed form and the twist matrix",
           passed, f"pipeline {worst_pipeline:.2e}, matrix {worst_matrix:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_05_pre_surgery_triviality():
    flow_cfg = IntegratorConfig(step=1e-3, max_time=2.0, event_tol=1e-13)
    rng = np.random.default_rng(500)
    drawn = {}  # block size, then start, per start; flowed as one batch
    for _ in range(100):
        nzw = int(rng.integers(2, 5))
        drawn.setdefault(nzw, []).append(mono.admissible_start(rng, nzw, 0.1, 0.05))
    groups = [np.array(rows) for rows in drawn.values()]
    worst = 0.0
    for starts, outs in zip(groups, mono.pre_surgery_monodromy(groups, 0.1, flow_cfg)):
        w_in, r_in = mono.page_decomposition(starts, -0.1)
        w_out, r_out = mono.page_decomposition(outs, +0.1)
        worst = max(worst, float(np.max(np.abs(w_out - w_in))),
                    float(np.max(np.abs(r_out - r_in))))
    record(5, "transport before surgery fixes the page decomposition",
           worst < 1e-10, f"drift {worst:.2e}")


def test_criterion_06_correction_bounds():
    rng = np.random.default_rng(600)
    flow_cfg = IntegratorConfig(step=1e-3, max_time=2.0, event_tol=1e-12)
    # smoothing-window deviation shrinks linearly with the smoothing width
    deltas = [0.02, 0.01, 0.005]
    slopes = {}
    proportional = True
    for nzw, devs in mono.delta_deviation_scan(rng, deltas, 13, (2, 3), 0.24,
                                               flow_cfg).items():
        slope = mono.fit_log_slope(list(devs), list(devs.values()))
        slopes[nzw] = (slope, {d: devs[d] / d for d in devs})
        if not 0.7 <= slope <= 1.3:
            proportional = False
        if not devs[0.02] > devs[0.01] > devs[0.005]:
            proportional = False
    # finite-speed transfer error decreases monotonically in the speed
    start = mono.admissible_start(rng, 2, 0.1, 0.05)
    errs = mono.a_convergence_scan(start, [10.0, 100.0, 1000.0, 10000.0],
                                   0.1, 0.05, flow_cfg)
    ordered = [errs[a] for a in (10.0, 100.0, 1000.0, 10000.0)]
    monotone = all(b < a for a, b in zip(ordered, ordered[1:]))
    detail = ", ".join(f"S^{n - 1} slope {s:.2f}" for n, (s, _) in slopes.items())
    record(6, "smoothing-window and finite-speed corrections are controlled",
           proportional and monotone, detail)


def test_criterion_07_exactness_correction():
    domain = ob.standard_disk_domain(1.0)
    step = 0.02  # the correcting flow's RK4 step
    rng = np.random.default_rng(700)
    worst = 0.0
    cases = [
        ob.identity_candidate(2),
        ob.radial_twist_map(0.8, 0.8),
        ob.strip_shear_map(0.5, 0.8)[0],
    ]
    for candidate in cases:
        samples = domain.sample(rng, 200)
        ev = _giroux_batched_eval(domain, candidate, samples, step)
        worst = max(worst, float(np.max(np.abs(ev["nu"] + ev["dh"]))))
    # path independence of the primitive for the twist case
    candidate = ob.radial_twist_map(0.8, 0.8)
    base = domain.sample_box.mean(axis=1)
    worst_path = 0.0
    for x in domain.sample(rng, 4):
        corner = np.array([x[0], base[1]])
        paths = ([(base, x)], [(base, corner), (corner, x)])
        quads = [ob.path_quadrature(segs, 32) for segs in paths]
        all_nodes = np.vstack([q[0] for q in quads])
        rows = _giroux_batched_eval(domain, candidate, all_nodes, step)["nu"]
        vals = []
        offset = 0
        for nodes, weights, dirs in quads:
            chunk = rows[offset:offset + len(nodes)]
            vals.append(-float(np.einsum("m,mi,mi->", weights, chunk, dirs)))
            offset += len(nodes)
        worst_path = max(worst_path, abs(vals[0] - vals[1]))
    passed = worst < 1e-5 and worst_path < 1e-5
    record(7, "exactness correction of candidate monodromies", passed,
           f"residual {worst:.2e}, path defect {worst_path:.2e}")


def test_criterion_08_open_book_assembly():
    profile = BindingProfile()
    lam_b = forms.one_form(1, lambda u: np.array([1.0]), lambda u: np.zeros((1, 1)))
    domain = ob.standard_disk_domain(1.0)
    alpha = ob.mapping_torus_form(domain.lam)
    rng = np.random.default_rng(800)
    min_torus = math.inf
    for _ in range(100):
        x = np.append(domain.sample(rng, 1)[0], rng.uniform(0, 2 * math.pi))
        min_torus = min(min_torus, forms.contact_volume(alpha, x, list(np.eye(3))))
    beta = ob.binding_form_polar(profile, lam_b)
    min_binding = math.inf
    for r in np.linspace(0.01, 0.95, 96):
        vol = forms.contact_volume(beta, np.array([0.4, r, 1.1]), list(np.eye(3)))
        min_binding = min(min_binding, vol)
    collar = ob.collar_form(lam_b)
    glue = ob.glue_map(1)
    overlap = 0.0
    for _ in range(50):
        u = np.array([rng.uniform(0, 6.28),
                      rng.uniform(profile.MATCHING_RADIUS, 0.999),
                      rng.uniform(0, 6.28)])
        for v in np.eye(3):
            overlap = max(overlap, abs(
                forms.pullback_eval(glue, collar, u, [v]) - beta(u, v)))
    passed = min_torus > 0 and min_binding > 0 and overlap < 1e-14
    record(8, "positive assembled contact forms that agree on the overlap",
           passed, f"min volumes {min_torus:.2e}/{min_binding:.2e}, "
                   f"overlap {overlap:.1e}")


def test_criterion_09_move_soundness():
    rng = np.random.default_rng(900)
    unknowns = 0
    for _ in range(1000):
        desc = _sample_page(rng)
        target = _random_chain(rng, desc, int(rng.integers(1, 7)))
        if mv.equivalent_up_to_moves(desc, target, depth=6) is not True:
            unknowns += 1
    roundtrip_bad = 0
    for _ in range(200):
        desc = _sample_page(rng)
        if desc.page.disks:
            if mv.destabilize(mv.stabilize(desc, desc.page.disks[0].label)) != desc:
                roundtrip_bad += 1
    false_true = 0
    for i in range(100):
        desc = _sample_page(rng)
        page2 = mv.AbstractPage(
            desc.page.half_dim,
            desc.page.handles + (mv.Handle(f"zz{i}", 1, "std+D2"),),
            desc.page.spheres, desc.page.disks)
        if mv.equivalent_up_to_moves(desc, mv.OpenBookDesc(page2, desc.word),
                                     depth=4) is True:
            false_true += 1
    passed = unknowns == 0 and roundtrip_bad == 0 and false_true == 0
    record(9, "move calculus is sound and three-valued", passed,
           f"{unknowns} unrecognized chains, {false_true} false equivalences")


def test_criterion_10_deterministic_reports(all_suite_report, reduced_all_child_report):
    same = all_suite_report.to_json().encode() == reduced_all_child_report
    record(10, "identical seed gives byte-identical reports", same,
           "in this process and in a fresh interpreter")
