"""Page transport before and after surgery, twist recognition, words."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactlab import flows, monodromy as mono, reports, suites, surgery
from contactlab.config import config_from_dict
from contactlab.flows import IntegratorConfig
from contactlab.profiles import HandleProfile
from contactlab.sphere import SpherePoint
from contactlab.surgery import ModelPoint, SurgeryConfig

rng = np.random.default_rng(55)
EPS = 0.1
PROFILE = HandleProfile(0.05)
CONFIG = SurgeryConfig(epsilon=EPS, delta=0.05)
FLOW = IntegratorConfig(step=1e-3, max_time=2.0, event_tol=1e-12)


def worked_start():
    return mono.build_start(np.array([1.0, 0.0]), np.array([0.0, 0.5]), EPS)


def test_page_decomposition_roundtrip():
    start = worked_start()
    dec = mono.PageDecomposition.of(start, -EPS)
    assert np.allclose(dec.w, [1.0, 0.0])
    assert np.allclose(dec.r, [0.0, 0.5])
    assert np.allclose(dec.z(), start.z)
    with pytest.raises(ValueError):
        mono.PageDecomposition.of(start, +EPS)
    with pytest.raises(ValueError):
        mono.PageDecomposition(np.array([1.0, 1.0]), np.zeros(2), -EPS)


def test_pre_surgery_monodromy_is_trivial():
    (out,) = mono.pre_surgery_monodromy([worked_start()], EPS, FLOW)
    dec = mono.PageDecomposition.of(out, +EPS)
    assert np.max(np.abs(dec.w - [1.0, 0.0])) < 1e-12
    assert np.max(np.abs(dec.r - [0.0, 0.5])) < 1e-12
    assert np.allclose(out.z, [0.1, 0.5])


def test_pre_surgery_zero_fiber_runs_along_the_sphere():
    start = mono.build_start(np.array([0.0, 1.0]), np.zeros(2), EPS)
    (out,) = mono.pre_surgery_monodromy([start], EPS, FLOW)
    assert np.max(np.abs(out.z - EPS * np.array([0.0, 1.0]))) < 1e-12


def test_closed_form_frozen_worked_point():
    out = mono.post_surgery_closed_form(worked_start(), EPS)
    assert np.allclose(out.w, [0.9230769230769231, 0.38461538461538464])
    assert np.allclose(out.z, [-0.1, 0.5])
    assert abs(np.linalg.norm(out.w) - 1.0) < 1e-15
    assert abs(out.theta() - EPS) < 1e-15


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_closed_form_lands_on_hypersurface(seed):
    local = np.random.default_rng(seed)
    nzw = int(local.integers(2, 5))
    start = mono.admissible_start(local, nzw, EPS, 0.05)
    out = mono.post_surgery_closed_form(start, EPS)
    # |w + 2 eps z / |z|^2| = 1 exactly because z.w = -eps
    assert abs(float(out.w @ out.w) - 1.0) < 1e-12
    assert abs(out.theta() - EPS) < 1e-12


def test_closed_form_rejects_surgered_locus():
    bad = ModelPoint(np.zeros(0), np.zeros(0), np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        mono.post_surgery_closed_form(bad, 0.0 + EPS)


def test_pipeline_matches_closed_form_on_worked_point():
    res = mono.post_surgery_pipeline(worked_start(), CONFIG, PROFILE, FLOW)
    assert res.closed_vs_pipeline < 1e-6
    # stage 1 lands on the surgered hypersurface, stage 3 back on |w| = 1
    on_s1 = surgery.limit_transfer_to_s1(worked_start(), PROFILE)
    assert abs(surgery.level_value(0, 2, PROFILE.delta)(on_s1)) < 1e-10
    back = surgery.transfer_to_s_minus1(on_s1, 0, 2)
    assert abs(float(np.linalg.norm(back[2:])) - 1.0) < 1e-12
    assert abs(float(np.linalg.norm(res.pipeline_point.w)) - 1.0) < 1e-12


def test_pipeline_finite_speed_convergence():
    errs = mono.a_convergence_scan(worked_start(), [10.0, 100.0, 1000.0, 10000.0],
                                   CONFIG, PROFILE, FLOW)
    ordered = [errs[a] for a in (10.0, 100.0, 1000.0, 10000.0)]
    assert all(b < a for a, b in zip(ordered, ordered[1:]))
    assert errs[1000.0] < 5e-3
    assert errs[10000.0] < 5e-4


def test_recognition_reproduces_block_matrix():
    res = mono.post_surgery_pipeline(worked_start(), CONFIG, PROFILE, FLOW)
    tw = mono.recognize_dehn_twist(res, EPS)
    assert tw.matrix_residual < 1e-9
    assert tw.circle_defect < 1e-12
    # frozen circle functions for r^2 = 1/4, eps = 1/10
    assert -tw.cos_g == pytest.approx(0.24 / 0.26)
    assert tw.sin_g == pytest.approx(2 * EPS * 0.5 / 0.26)


def test_recognition_quarter_circle_at_r_equals_eps():
    start = mono.build_start(np.array([1.0, 0.0]), np.array([0.0, EPS]), EPS)
    res = mono.post_surgery_pipeline(start, CONFIG, PROFILE, FLOW)
    tw = mono.recognize_dehn_twist(res, EPS)
    assert abs(tw.cos_g) < 1e-12
    assert tw.sin_g == pytest.approx(1.0)


def test_recognition_needs_fiber_part():
    start = mono.build_start(np.array([1.0, 0.0]), np.zeros(2), EPS)
    closed = mono.post_surgery_closed_form(start, EPS)
    res = mono.MonodromyResult(start, closed, closed, 0.0)
    with pytest.raises(ValueError, match="r != 0"):
        mono.recognize_dehn_twist(res, EPS)


def test_far_fiber_transport_is_nearly_identity():
    w = np.array([1.0, 0.0])
    start = mono.build_start(w, np.array([0.0, 1000.0 * EPS]), EPS)
    out = mono.post_surgery_closed_form(start, EPS)
    assert np.max(np.abs(out.w - w)) < 3e-3


def test_recognized_angle_closed_form():
    # cos g = (eps^2 - r^2)/(r^2 + eps^2) means g = 2 atan(|r|/eps)
    for r_norm in (0.05, 0.3, 1.0):
        start = mono.build_start(np.array([1.0, 0.0]), np.array([0.0, r_norm]), EPS)
        closed = mono.post_surgery_closed_form(start, EPS)
        g = mono.recognize_dehn_twist(mono.MonodromyResult(start, closed, closed, 0.0), EPS).g
        assert abs(math.cos(g) - (EPS ** 2 - r_norm ** 2) / (EPS ** 2 + r_norm ** 2)) < 1e-12
        assert g == pytest.approx(2.0 * math.atan(r_norm / EPS), abs=1e-12)


def test_pipeline_dimensions_spot():
    for nzw in (2, 3, 4):
        worst = 0.0
        for _ in range(10):
            start = mono.admissible_start(rng, nzw, EPS, PROFILE.delta)
            res = mono.post_surgery_pipeline(start, CONFIG, PROFILE, FLOW)
            worst = max(worst, res.closed_vs_pipeline)
        assert worst < 1e-6


def test_window_scan_reports_linear_slope():
    wconf = SurgeryConfig(epsilon=0.24, delta=0.05)
    devs = mono.delta_deviation_scan(rng, [0.02, 0.01, 0.005], 10, (2,), wconf, FLOW)[2]
    slope = mono.fit_log_slope(list(devs), list(devs.values()))
    assert 0.7 <= slope <= 1.3


def test_window_deviation_does_not_depend_on_the_frame():
    wconf = SurgeryConfig(epsilon=0.24, delta=0.05)
    for nzw in (2, 3):
        devs = [mono.delta_deviation_scan(np.random.default_rng(seed), [0.01], 1, (nzw,),
                                          wconf, FLOW)[nzw][0.01]
                for seed in (1, 2)]
        assert abs(devs[0] - devs[1]) <= 1e-12


def _run_window_check(monkeypatch, seed: int = 0):
    """The monodromy suite's smoothing-window-bound record, with every other
    check of the suite skipped."""
    def one_check(name, *args):
        if name == "smoothing-window-bound":
            return reports.run_check(name, *args)
        anchor, ops, tolerance, _ = args
        return reports.CheckRecord(name=name, anchor=anchor, samples=0, max_residual=0.0,
                                   tolerance=tolerance, passed=True, ops=ops)

    monkeypatch.setattr(suites, "run_check", one_check)
    report = suites.run_suite(config_from_dict({"suite": "monodromy", "seed": seed}))
    return next(c for c in report.checks if c.name == "smoothing-window-bound")


@pytest.mark.parametrize("seed", [103, 115])
def test_window_slopes_hold_at_default_settings(seed, monkeypatch):
    record = _run_window_check(monkeypatch, seed)
    assert record.passed
    for fit in record.details.values():
        assert suites.WINDOW_EXPONENT_LOW <= fit["slope"] <= suites.WINDOW_EXPONENT_HIGH


def test_log_slope_needs_two_distinct_abscissae():
    assert mono.fit_log_slope([1.0, 10.0], [2.0, 20.0]) == pytest.approx(1.0)
    for xs in ([0.01], [0.01, 0.01]):
        with pytest.raises(ValueError, match="two distinct"):
            mono.fit_log_slope(xs, [1.0] * len(xs))


def test_log_slope_rejects_non_positive_or_non_finite_ordinates():
    for bad in (0.0, -1e-3, math.nan, math.inf):
        with pytest.raises(ValueError, match="positive finite"):
            mono.fit_log_slope([0.02, 0.04, 0.08], [1e-3, bad, 4e-3])


def test_zero_deviation_fails_the_window_check(monkeypatch):
    # a zero deviation has no logarithm: the check must record the error, not
    # pass on a NaN slope that max(0.0, nan) hides
    monkeypatch.setattr(mono, "delta_deviation_scan",
                        lambda rng, deltas, count, blocks, *rest: {
                            nzw: {d: (0.0 if i == 0 else d) for i, d in enumerate(deltas)}
                            for nzw in blocks})
    record = _run_window_check(monkeypatch)
    assert not record.passed
    assert record.details["error"].startswith("ValueError: a log slope needs")


def test_word_identity_and_single_letter():
    base = mono.ChartPoint("A", SpherePoint(np.array([1.0, 0.0]),
                                            np.array([0.0, 0.4])))
    out = mono.composed_monodromy_word(base, [], CONFIG)
    assert np.allclose(out.point.as_array(), base.point.as_array())
    # one positive letter equals the closed-form transport on decompositions
    start = mono.build_start(base.point.q, base.point.p, EPS)
    closed = mono.post_surgery_closed_form(start, EPS)
    dec = mono.PageDecomposition.of(closed, +EPS)
    one = mono.composed_monodromy_word(base, [("A", 1)], CONFIG)
    assert np.max(np.abs(one.point.q - dec.w)) < 1e-12
    assert np.max(np.abs(one.point.p - dec.r)) < 1e-12


def test_word_inverse_letters_cancel():
    base = mono.ChartPoint("A", SpherePoint(np.array([0.0, 1.0, 0.0]),
                                            np.array([0.3, 0.0, 0.4])))
    out = mono.composed_monodromy_word(base, [("A", 1), ("A", -1)], CONFIG)
    assert np.max(np.abs(out.point.as_array() - base.point.as_array())) < 1e-12


def test_word_other_chart_acts_as_identity():
    base = mono.ChartPoint("A", SpherePoint(np.array([1.0, 0.0]),
                                            np.array([0.0, 0.4])))
    out = mono.composed_monodromy_word(base, [("B", 1), ("B", 1)], CONFIG)
    assert np.allclose(out.point.as_array(), base.point.as_array())


def test_word_rejects_bad_power():
    base = mono.ChartPoint("A", SpherePoint(np.array([1.0, 0.0]),
                                            np.array([0.0, 0.4])))
    with pytest.raises(ValueError):
        mono.composed_monodromy_word(base, [("A", 2)], CONFIG)


def test_page_speed_residual_on_worked_point():
    from contactlab import flows
    on_s1 = surgery.limit_transfer_to_s1(worked_start(), PROFILE)
    fld = surgery.handle_hamiltonian_rhs(0, 2, PROFILE.delta)
    traj = flows.flow_until_event(fld, on_s1, surgery.page_value(0, 2),
                                  EPS, FLOW)
    assert mono.page_speed_residual(traj, 0, 2, EPS) < 1e-8


def _same_result(a, b):
    return (np.array_equal(a.start.as_array(), b.start.as_array())
            and np.array_equal(a.pipeline_point.as_array(), b.pipeline_point.as_array())
            and np.array_equal(a.closed_form_point.as_array(), b.closed_form_point.as_array())
            and a.closed_vs_pipeline == b.closed_vs_pipeline)


@pytest.mark.parametrize("nzw", [2, 3, 4])
def test_batched_pipeline_rows_equal_one_start_pipelines(nzw):
    local = np.random.default_rng(100 + nzw)
    starts = [mono.admissible_start(local, nzw, EPS, PROFILE.delta) for _ in range(12)]
    profiles = [PROFILE] * len(starts)
    # smoothing-window starts, each under its own width, share the batch
    for delta in (0.02, 0.01, 0.005):
        for frac in (0.02, 0.5, 0.98):
            starts.append(mono.rounded_window_start(local, nzw, EPS, delta, frac))
            profiles.append(HandleProfile(delta))
    batch = mono.post_surgery_pipeline_batch(starts, CONFIG, profiles, FLOW)
    for start, profile, res in zip(starts, profiles, batch):
        assert _same_result(res, mono.post_surgery_pipeline(start, CONFIG, profile, FLOW))


def test_batched_reeb_transport_equals_one_start_transports():
    local = np.random.default_rng(7)
    starts = [mono.admissible_start(local, 3, EPS, 0.05) for _ in range(9)]
    batch = mono.pre_surgery_monodromy(starts, EPS, FLOW)
    for start, out in zip(starts, batch):
        assert np.array_equal(out.as_array(),
                              mono.pre_surgery_monodromy([start], EPS, FLOW)[0].as_array())


def test_mixed_block_batches_equal_per_block_batches_and_lone_pipelines():
    # starts of three z/w sizes, drawn in turn, share one zero-padded batch
    local = np.random.default_rng(12)
    starts, profiles = [], []
    for i in range(18):
        nzw = (2, 4, 3)[i % 3]
        if i % 2:
            starts.append(mono.admissible_start(local, nzw, EPS, PROFILE.delta))
            profiles.append(PROFILE)
        else:
            delta = (0.02, 0.01, 0.005)[i % 3]
            starts.append(mono.rounded_window_start(local, nzw, EPS, delta, local.random()))
            profiles.append(HandleProfile(delta))
    mixed = mono.post_surgery_pipeline_batch(starts, CONFIG, profiles, FLOW)
    for nzw in (2, 3, 4):
        block = [i for i, s in enumerate(starts) if s.nzw == nzw]
        per_block = mono.post_surgery_pipeline_batch(
            [starts[i] for i in block], CONFIG, [profiles[i] for i in block], FLOW)
        for i, res in zip(block, per_block):
            assert _same_result(mixed[i], res)
            assert _same_result(mixed[i], mono.post_surgery_pipeline(starts[i], CONFIG,
                                                                     profiles[i], FLOW))
    outs = mono.pre_surgery_monodromy(starts, EPS, FLOW)
    for start, out in zip(starts, outs):
        (lone,) = mono.pre_surgery_monodromy([start], EPS, FLOW)
        assert (out.nxy, out.nzw) == (start.nxy, start.nzw)
        assert np.array_equal(out.as_array(), lone.as_array())


def test_padded_page_flow_rows_keep_their_event_times():
    # the stage-2 flow of rows padded to the widest block, under that block's
    # field and event, against each block's own batch: t_event and end states
    local = np.random.default_rng(13)
    starts = [mono.admissible_start(local, nzw, EPS, PROFILE.delta)
              for nzw in (2, 3, 4, 2, 3, 4, 2)]
    on_s1 = [surgery.limit_transfer_to_s1(s, PROFILE) for s in starts]
    nxy, nzw, cols = mono._padding(starts)
    padded = mono._padded_rows(on_s1, cols, 2 * nxy + 2 * nzw)
    t_wide, ends_wide = flows.flow_rows_until_event(
        surgery.handle_hamiltonian_rhs(nxy, nzw, PROFILE.delta), padded,
        surgery.page_value(nxy, nzw), EPS, FLOW)
    assert not ends_wide[0, [2, 3, 6, 7]].any()  # the padding stays exactly zero
    for n in (2, 3, 4):
        block = [i for i, s in enumerate(starts) if s.nzw == n]
        t_own, ends_own = flows.flow_rows_until_event(
            surgery.handle_hamiltonian_rhs(0, n, PROFILE.delta),
            np.array([on_s1[i] for i in block]), surgery.page_value(0, n), EPS, FLOW)
        assert np.array_equal(t_wide[block], t_own)
        assert np.array_equal(np.array([ends_wide[i, cols[i]] for i in block]), ends_own)


def test_a_convergence_scan_equals_lone_pipelines():
    # the scan as first written: one pipeline per speed
    a_values = [10.0, 100.0, 1000.0, 10000.0]
    for start in (worked_start(), mono.admissible_start(rng, 3, EPS, PROFILE.delta)):
        ref = mono.post_surgery_pipeline(start, CONFIG, PROFILE, FLOW).pipeline_point.as_array()
        expected = {}
        for a in a_values:
            (res,) = mono._pipeline([start], [a], [PROFILE], EPS, FLOW)
            expected[a] = float(np.max(np.abs(res.pipeline_point.as_array() - ref)))
        errs = mono.a_convergence_scan(start, a_values, CONFIG, PROFILE, FLOW)
        assert list(errs.items()) == list(expected.items())


def test_window_scan_of_two_blocks_equals_one_block_scans():
    wconf = SurgeryConfig(epsilon=0.24, delta=0.05)
    both = mono.delta_deviation_scan(np.random.default_rng(3), [0.02, 0.01], 4, (2, 3),
                                     wconf, FLOW)
    local = np.random.default_rng(3)
    for nzw in (2, 3):
        assert both[nzw] == mono.delta_deviation_scan(local, [0.02, 0.01], 4, (nzw,),
                                                      wconf, FLOW)[nzw]


def test_pipeline_batch_refuses_missing_profiles():
    local = np.random.default_rng(8)
    starts = [mono.admissible_start(local, 2, EPS, 0.05),
              mono.admissible_start(local, 3, EPS, 0.05)]
    with pytest.raises(ValueError, match="one handle profile per start"):
        mono.post_surgery_pipeline_batch(starts[:1], CONFIG, [PROFILE] * 2, FLOW)


@pytest.mark.parametrize("m", [1, 5])
def test_pipeline_builds_two_model_points_per_start(monkeypatch, m):
    # the pipeline point and the closed form; the stages pass flat rows
    local = np.random.default_rng(9)
    starts = [mono.admissible_start(local, 3, EPS, PROFILE.delta) for _ in range(m)]
    built = []
    validate = ModelPoint.__post_init__

    def counted(self):
        built.append(None)
        validate(self)

    monkeypatch.setattr(ModelPoint, "__post_init__", counted)
    mono.post_surgery_pipeline_batch(starts, CONFIG, [PROFILE] * m, FLOW)
    assert len(built) == 2 * m


def test_monodromy_suite_flows_one_event_batch_per_batched_check(monkeypatch):
    # counts, not times: every batched check makes one batched kernel call, and
    # only the two single-start checks flow a lone start; every transfer
    # search runs on row batches, one per check or per pipeline block group
    from collections import Counter

    from contactlab import _kernels
    from contactlab.config import config_from_dict

    from conftest import REDUCED_ALL

    calls = Counter()
    running = []
    run_check = suites.run_check

    def named(name, *args):
        running.append(name)
        return run_check(name, *args)

    def counted(kernel):
        original = getattr(_kernels, kernel)

        def wrapper(rhs, u0, *args, **kwargs):
            calls[running[-1], kernel, "lone" if np.ndim(u0) == 1 else "batch"] += 1
            return original(rhs, u0, *args, **kwargs)

        return wrapper

    searched = {}
    level_crossings = surgery._level_crossings

    def searched_rows(fn, starts, *args):
        searched.setdefault(running[-1], []).append(len(starts[0]))
        return level_crossings(fn, starts, *args)

    monkeypatch.setattr(suites, "run_check", named)
    for kernel in ("rk4_until_event", "rk4_record"):
        monkeypatch.setattr(_kernels, kernel, counted(kernel))
    monkeypatch.setattr(surgery, "_level_crossings", searched_rows)
    report = suites.run_suite(config_from_dict(dict(REDUCED_ALL, suite="monodromy")))
    assert report.passed
    n, window = REDUCED_ALL["n_monodromy"], 3 * REDUCED_ALL["n_window"]
    assert searched == {
        "pipeline-vs-closed-form": [n, n, n],  # one search per z/w block size
        "worked-page-point": [1], "twist-angle-extremes": [1],
        "page-speed-law": [20], "transfer-preserves-page": [101],
        "finite-speed-transfer": [13],
        "finite-speed-convergence": [1, 4],  # the limit reference, then every finite a
        "smoothing-window-bound": [window, window]}
    batched = ["pre-surgery-trivial", "pipeline-vs-closed-form", "page-speed-law",
               "finite-speed-transfer", "finite-speed-convergence", "smoothing-window-bound"]
    expected = Counter({(name, "rk4_until_event", "batch"): 1 for name in batched})
    expected["flow-invariants", "rk4_record", "batch"] = 1
    for name in ("worked-page-point", "twist-angle-extremes"):
        expected[name, "rk4_until_event", "lone"] = 1
    assert calls == expected
