"""Page transport before and after surgery, twist recognition, words."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import REDUCED_ALL, declarations
from hypothesis import given, settings, strategies as st

from contactlab import flows, monodromy as mono, reports, suites, surgery
from contactlab.flows import IntegratorConfig
from contactlab.profiles import HandleProfile
from contactlab.sphere import geodesic_flow
from contactlab.surgery import ModelPoint, SurgeryConfig

rng = np.random.default_rng(55)
EPS, DELTA = 0.1, 0.05
# the records that only the one-start post_surgery_pipeline takes
PROFILE = HandleProfile(DELTA)
CONFIG = SurgeryConfig(epsilon=EPS, delta=DELTA)
FLOW = IntegratorConfig(step=1e-3, max_time=2.0, event_tol=1e-12)


def worked_start():
    """The page -eps row with w = (1, 0) and r = (0, 1/2), as a one-row batch."""
    return mono.build_start(np.array([1.0, 0.0]), np.array([0.0, 0.5]), EPS)[None]


def reeb_closed_form(starts):
    """(z + 2 eps w, w): the Reeb flow moves z along w at unit page speed."""
    n = starts.shape[1] // 2
    return np.hstack([starts[:, :n] + 2.0 * EPS * starts[:, n:], starts[:, n:]])


def test_page_decomposition_roundtrip():
    start = worked_start()
    w, r = mono.page_decomposition(start, -EPS)
    assert np.allclose(w, [[1.0, 0.0]])
    assert np.allclose(r, [[0.0, 0.5]])
    assert np.allclose(-EPS * w + r, start[:, :2])
    with pytest.raises(ValueError, match="sits on page"):
        mono.page_decomposition(start, +EPS)


def test_pre_surgery_monodromy_is_trivial():
    (out,) = mono.pre_surgery_monodromy([worked_start()], EPS, FLOW)
    w, r = mono.page_decomposition(out, +EPS)
    assert np.max(np.abs(w - [1.0, 0.0])) < 1e-12
    assert np.max(np.abs(r - [0.0, 0.5])) < 1e-12
    assert np.allclose(out[0, :2], [0.1, 0.5])


def test_pre_surgery_zero_fiber_runs_along_the_sphere():
    start = mono.build_start(np.array([0.0, 1.0]), np.zeros(2), EPS)[None]
    (out,) = mono.pre_surgery_monodromy([start], EPS, FLOW)
    assert np.max(np.abs(out[0, :2] - EPS * np.array([0.0, 1.0]))) < 1e-12


def test_pre_surgery_refuses_starts_off_the_page_or_the_hypersurface():
    with pytest.raises(ValueError, match="-eps page"):
        mono.pre_surgery_monodromy([worked_start()], -EPS, FLOW)
    with pytest.raises(ValueError, match=r"\|w\|\^2 = 1"):
        mono.pre_surgery_monodromy([np.array([[-0.05, 0.5, 2.0, 0.0]])], EPS, FLOW)


def test_closed_form_frozen_worked_point():
    out = mono.post_surgery_closed_form(worked_start(), EPS)[0]
    assert np.allclose(out[2:], [0.9230769230769231, 0.38461538461538464])
    assert np.allclose(out[:2], [-0.1, 0.5])
    assert abs(np.linalg.norm(out[2:]) - 1.0) < 1e-15
    assert abs(out[:2] @ out[2:] - EPS) < 1e-15


@given(st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_closed_form_lands_on_hypersurface(seed):
    local = np.random.default_rng(seed)
    nzw = int(local.integers(2, 5))
    start = mono.admissible_start(local, nzw, EPS, 0.05)
    z, w = np.split(mono.post_surgery_closed_form(start[None], EPS)[0], 2)
    # |w + 2 eps z / |z|^2| = 1 exactly because z.w = -eps
    assert abs(float(w @ w) - 1.0) < 1e-12
    assert abs(float(z @ w) - EPS) < 1e-12


def test_closed_form_rejects_surgered_locus():
    # z = 0 sits on the page 0 only
    with pytest.raises(ValueError, match="the z = 0 locus is removed by the surgery"):
        mono.post_surgery_closed_form(np.array([[0.0, 0.0, 1.0, 0.0]]), 0.0)


def test_one_start_pipeline_matches_closed_form_on_worked_point():
    row = worked_start()
    start = ModelPoint.from_array(row[0], 0, 2)
    res = mono.post_surgery_pipeline(start, CONFIG, PROFILE, FLOW)
    closed = mono.post_surgery_closed_form(row, EPS)[0]
    assert np.max(np.abs(res.pipeline_point.as_array() - closed)) < 1e-6
    # stage 1 lands on the surgered hypersurface, stage 3 back on |w| = 1
    on_s1 = surgery.limit_transfers_to_s1(row, 0, 2, DELTA)
    assert abs(surgery.level_value(0, 2, DELTA)(on_s1[0])) < 1e-10
    back = surgery.transfers_to_s_minus1(on_s1, 0, 2)[0]
    assert abs(float(np.linalg.norm(back[2:])) - 1.0) < 1e-12
    assert abs(float(np.linalg.norm(res.pipeline_point.w)) - 1.0) < 1e-12


def test_one_start_pipeline_is_the_one_row_batch():
    local = np.random.default_rng(4)
    for nzw in (2, 3):
        row = mono.admissible_start(local, nzw, EPS, DELTA)[None]
        res = mono.post_surgery_pipeline(ModelPoint.from_array(row[0], 0, nzw), CONFIG,
                                         PROFILE, FLOW)
        (batch,) = mono.post_surgery_pipeline_batch([row], EPS, DELTA, FLOW)
        assert np.array_equal(res.pipeline_point.as_array(), batch[0])


def test_pipeline_finite_speed_convergence():
    errs = mono.a_convergence_scan(worked_start()[0], [10.0, 100.0, 1000.0, 10000.0],
                                   EPS, DELTA, FLOW)
    ordered = [errs[a] for a in (10.0, 100.0, 1000.0, 10000.0)]
    assert all(b < a for a, b in zip(ordered, ordered[1:]))
    assert errs[1000.0] < 5e-3
    assert errs[10000.0] < 5e-4


def test_recognition_reproduces_block_matrix():
    start = worked_start()
    tw = mono.recognize_dehn_twist(start, mono.post_surgery_closed_form(start, EPS), EPS)
    assert tw.matrix_residual[0] < 1e-9
    assert tw.circle_defect[0] < 1e-12
    # frozen circle functions for r^2 = 1/4, eps = 1/10
    assert -tw.cos_g[0] == pytest.approx(0.24 / 0.26)
    assert tw.sin_g[0] == pytest.approx(2 * EPS * 0.5 / 0.26)


def test_recognition_quarter_circle_at_r_equals_eps():
    start = mono.build_start(np.array([1.0, 0.0]), np.array([0.0, EPS]), EPS)[None]
    tw = mono.recognize_dehn_twist(start, mono.post_surgery_closed_form(start, EPS), EPS)
    assert abs(tw.cos_g[0]) < 1e-12
    assert tw.sin_g[0] == pytest.approx(1.0)


def test_recognition_needs_fiber_part():
    start = mono.build_start(np.array([1.0, 0.0]), np.zeros(2), EPS)[None]
    closed = mono.post_surgery_closed_form(start, EPS)
    with pytest.raises(ValueError, match="r != 0"):
        mono.recognize_dehn_twist(start, closed, EPS)


def test_recognition_refuses_an_image_off_the_plus_page():
    start = worked_start()
    closed = mono.post_surgery_closed_form(start, EPS)
    closed[0, 0] += 1e-6  # z.w moves by 1e-6 off the +eps page
    with pytest.raises(ValueError, match="point sits on page 1.000e-01, not 1.000e-01"):
        mono.recognize_dehn_twist(start, closed, EPS)
    with pytest.raises(ValueError, match="sits on page"):
        mono.recognize_dehn_twist(closed, closed, EPS)


def test_recognition_rows_equal_one_row_recognitions():
    local = np.random.default_rng(6)
    starts = np.array([mono.admissible_start(local, 3, EPS, DELTA) for _ in range(8)])
    closed = mono.post_surgery_closed_form(starts, EPS)
    rows = mono.recognize_dehn_twist(starts, closed, EPS)
    for i in range(len(starts)):
        one = mono.recognize_dehn_twist(starts[i:i + 1], closed[i:i + 1], EPS)
        for name in ("cos_g", "sin_g", "g", "matrix_residual", "circle_defect"):
            assert getattr(one, name)[0] == getattr(rows, name)[i]


def test_far_fiber_transport_is_nearly_identity():
    w = np.array([1.0, 0.0])
    start = mono.build_start(w, np.array([0.0, 1000.0 * EPS]), EPS)[None]
    out = mono.post_surgery_closed_form(start, EPS)
    assert np.max(np.abs(out[0, 2:] - w)) < 3e-3


def test_recognized_angle_closed_form():
    # cos g = (eps^2 - r^2)/(r^2 + eps^2) means g = 2 atan(|r|/eps)
    r_norms = np.array([0.05, 0.3, 1.0])
    starts = mono.build_start(np.tile([1.0, 0.0], (3, 1)),
                              np.outer(r_norms, [0.0, 1.0]), EPS)
    closed = mono.post_surgery_closed_form(starts, EPS)
    for r_norm, g in zip(r_norms, mono.recognize_dehn_twist(starts, closed, EPS).g):
        assert abs(math.cos(g) - (EPS ** 2 - r_norm ** 2) / (EPS ** 2 + r_norm ** 2)) < 1e-12
        assert g == pytest.approx(2.0 * math.atan(r_norm / EPS), abs=1e-12)


def test_pipeline_dimensions_spot():
    groups = [np.array([mono.admissible_start(rng, nzw, EPS, DELTA) for _ in range(10)])
              for nzw in (2, 3, 4)]
    for starts, ends in zip(groups, mono.post_surgery_pipeline_batch(groups, EPS, DELTA, FLOW)):
        assert ends.shape == starts.shape
        assert np.max(np.abs(ends - mono.post_surgery_closed_form(starts, EPS))) < 1e-6


def test_window_scan_reports_linear_slope():
    devs = mono.delta_deviation_scan(rng, [0.02, 0.01, 0.005], 10, (2,), 0.24, FLOW)[2]
    slope = mono.fit_log_slope(list(devs), list(devs.values()))
    assert 0.7 <= slope <= 1.3


def test_window_deviation_does_not_depend_on_the_frame():
    for nzw in (2, 3):
        devs = [mono.delta_deviation_scan(np.random.default_rng(seed), [0.01], 1, (nzw,),
                                          0.24, FLOW)[nzw][0.01]
                for seed in (1, 2)]
        assert abs(devs[0] - devs[1]) <= 1e-12


def _run_monodromy_check(check: str, seed: int = 0):
    """The monodromy suite's record of one check, run alone."""
    return reports.run_check(*declarations(suite="monodromy", seed=seed)[check])


@pytest.mark.parametrize("seed", [103, 115])
def test_window_slopes_hold_at_default_settings(seed):
    record = _run_monodromy_check("smoothing-window-bound", seed)
    assert record.passed
    for fit in record.details.values():
        assert suites.WINDOW_EXPONENT_LOW <= fit["slope"] <= suites.WINDOW_EXPONENT_HIGH


# the checks that flow at a declared step coarser than 1e-3: the constant
# that declares it, and its value at step 1e-3
PAGE_FLOW_1E3 = dataclasses.replace(suites.PAGE_FLOW, step=1e-3)
COARSE_STEP_CHECKS = [("pre-surgery-trivial", "PAGE_FLOW", PAGE_FLOW_1E3),
                      ("pipeline-vs-closed-form", "PAGE_FLOW", PAGE_FLOW_1E3),
                      ("finite-speed-convergence", "PAGE_FLOW", PAGE_FLOW_1E3),
                      ("flow-invariants", "INVARIANT_FLOW_STEP", 1e-3)]


@pytest.mark.parametrize("check, constant, at_1e3", COARSE_STEP_CHECKS)
def test_declared_steps_read_what_step_1e3_reads(monkeypatch, check, constant, at_1e3):
    # each declared step keeps the verdict and the residual of step 1e-3 to
    # within 1e-3 of the check's tolerance; finite-speed-convergence, whose
    # tolerance is 0, keeps every transfer error to within 1e-10
    coarse = _run_monodromy_check(check)
    monkeypatch.setattr(suites, constant, at_1e3)
    fine = _run_monodromy_check(check)
    assert coarse.passed and fine.passed
    assert abs(coarse.max_residual - fine.max_residual) <= 1e-3 * coarse.tolerance
    if check == "finite-speed-convergence":
        assert coarse.details["errors"].keys() == fine.details["errors"].keys()
        for a, err in coarse.details["errors"].items():
            assert abs(err - fine.details["errors"][a]) <= 1e-10


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
    record = _run_monodromy_check("smoothing-window-bound")
    assert not record.passed
    assert record.details["error"].startswith("ValueError: a log slope needs")


def test_word_identity_and_single_letter():
    base = np.array([[1.0, 0.0, 0.0, 0.4]])  # [q | p] in chart A
    out = mono.composed_monodromy_word(base, "A", [], EPS)
    assert np.array_equal(out, base)
    # one positive letter equals the closed-form transport on decompositions
    start = mono.build_start(base[:, :2], base[:, 2:], EPS)
    w, r = mono.page_decomposition(mono.post_surgery_closed_form(start, EPS), +EPS)
    one = mono.composed_monodromy_word(base, "A", [("A", 1)], EPS)
    assert np.max(np.abs(one[:, :2] - w)) < 1e-12
    assert np.max(np.abs(one[:, 2:] - r)) < 1e-12


def test_word_inverse_letters_cancel():
    base = np.array([[0.0, 1.0, 0.0, 0.3, 0.0, 0.4]])
    out = mono.composed_monodromy_word(base, "A", [("A", 1), ("A", -1)], EPS)
    assert np.max(np.abs(out - base)) < 1e-12


def test_word_other_chart_acts_as_identity():
    base = np.array([[1.0, 0.0, 0.0, 0.4]])
    out = mono.composed_monodromy_word(base, "A", [("B", 1), ("B", 1)], EPS)
    assert np.array_equal(out, base)


def test_word_rejects_bad_power():
    base = np.array([[1.0, 0.0, 0.0, 0.4]])
    with pytest.raises(ValueError):
        mono.composed_monodromy_word(base, "A", [("A", 2)], EPS)


def test_twist_letter_refuses_the_surgered_locus_and_repeats_the_geodesic_flow():
    local = np.random.default_rng(14)
    q = local.standard_normal((6, 3))
    q /= np.linalg.norm(q, axis=1)[:, None]
    p = local.standard_normal((6, 3))
    p -= np.vecdot(p, q)[:, None] * q
    rows = np.hstack([q, p])
    for power in (1, -1):
        out = mono.twist_letter_action(rows, EPS, power)
        for row, image in zip(rows, out):
            # the twist letter as first written: the geodesic flow of one point
            angle = power * (math.pi - 2.0 * math.atan2(float(np.linalg.norm(row[3:])), EPS))
            expected = geodesic_flow(row[:3], row[3:], angle)
            assert np.array_equal(image, np.concatenate(expected))
    with pytest.raises(ValueError, match="surgered locus r = 0"):
        mono.twist_letter_action(np.array([[1.0, 0.0, 0.0, 0.0]]), EPS, 1)


def test_page_speed_law_fails_flows_that_stop_at_the_start(monkeypatch):
    # with the page value sign-flipped, every start sits on the event at t = 0;
    # its one-point trajectory fits -eps + 2s exactly, so only the stop time
    # tells: the flat-piece flow from page -eps reaches page +eps at t = eps
    page_value = surgery.page_value
    monkeypatch.setattr(surgery, "page_value",
                        lambda nxy, nzw: (lambda u, value=page_value(nxy, nzw): -value(u)))
    record = _run_monodromy_check("page-speed-law")
    assert not record.passed
    assert record.max_residual == pytest.approx(EPS)


def test_page_speed_law_fails_a_residual_that_turns_nan_after_the_first_trajectory(monkeypatch):
    # max(0.0, nan) is 0.0: a fold by max would keep the first trajectory's
    # finite residual and pass the check
    residual = mono.page_speed_residual
    calls = []

    def nan_from_the_second(traj, eps):
        calls.append(traj)
        return math.nan if len(calls) == 2 else residual(traj, eps)

    monkeypatch.setattr(mono, "page_speed_residual", nan_from_the_second)
    record = _run_monodromy_check("page-speed-law")
    assert len(calls) == 20
    assert not record.passed and math.isnan(record.max_residual)


def test_page_speed_residual_on_worked_point():
    on_s1 = surgery.limit_transfers_to_s1(worked_start(), 0, 2, DELTA)[0]
    fld = surgery.handle_hamiltonian_rhs(0, 2, DELTA)
    traj = flows.flow_until_event(fld, on_s1, surgery.page_value(0, 2),
                                  EPS, FLOW)
    assert mono.page_speed_residual(traj, EPS) < 1e-8


@pytest.mark.parametrize("nzw", [2, 3, 4])
def test_batched_pipeline_rows_equal_per_group_batches_and_the_closed_form(nzw):
    local = np.random.default_rng(100 + nzw)
    starts = [mono.admissible_start(local, nzw, EPS, DELTA) for _ in range(12)]
    deltas = [DELTA] * len(starts)
    # smoothing-window starts, each under its own width, share the batch
    for delta in (0.02, 0.01, 0.005):
        for frac in (0.02, 0.5, 0.98):
            starts.append(mono.rounded_window_start(local, nzw, EPS, delta, frac))
            deltas.append(delta)
    starts = np.array(starts)
    (batch,) = mono.post_surgery_pipeline_batch([starts], EPS, deltas, FLOW)
    # the same rows in groups of one smoothing width, one group per call
    for lo, hi in ((0, 12), (12, 15), (15, 18), (18, 21)):
        (part,) = mono.post_surgery_pipeline_batch([starts[lo:hi]], EPS, deltas[lo], FLOW)
        assert np.array_equal(part, batch[lo:hi])
    closed = mono.post_surgery_closed_form(starts[:12], EPS)
    assert np.max(np.abs(batch[:12] - closed)) < 1e-6


def test_batched_reeb_transport_equals_per_group_batches_and_the_closed_form():
    local = np.random.default_rng(7)
    starts = np.array([mono.admissible_start(local, 3, EPS, 0.05) for _ in range(9)])
    (batch,) = mono.pre_surgery_monodromy([starts], EPS, FLOW)
    parts = mono.pre_surgery_monodromy([starts[:4]], EPS, FLOW) \
        + mono.pre_surgery_monodromy([starts[4:]], EPS, FLOW)
    assert np.array_equal(np.vstack(parts), batch)
    assert np.max(np.abs(batch - reeb_closed_form(starts))) < 1e-12


def _mixed_groups(seed):
    """Starts of three z/w sizes, drawn in turn, grouped by size, with the
    smoothing width of each row."""
    local = np.random.default_rng(seed)
    drawn = {2: [], 4: [], 3: []}
    for i in range(18):
        nzw = (2, 4, 3)[i % 3]
        if i % 2:
            drawn[nzw].append((mono.admissible_start(local, nzw, EPS, DELTA), DELTA))
        else:
            delta = (0.02, 0.01, 0.005)[i % 3]
            drawn[nzw].append((mono.rounded_window_start(local, nzw, EPS, delta, local.random()),
                               delta))
    groups = [np.array([row for row, _ in rows]) for rows in drawn.values()]
    deltas = [[delta for _, delta in rows] for rows in drawn.values()]
    return groups, deltas


def test_mixed_block_batches_equal_per_block_batches_and_the_closed_form():
    # the groups of three z/w sizes share one zero-padded batch
    groups, deltas = _mixed_groups(12)
    mixed = mono.post_surgery_pipeline_batch(groups, EPS, sum(deltas, []), FLOW)
    for starts, widths, ends in zip(groups, deltas, mixed):
        (own,) = mono.post_surgery_pipeline_batch([starts], EPS, widths, FLOW)
        assert ends.shape == starts.shape
        assert np.array_equal(ends, own)
        flat = np.array(widths) == DELTA
        closed = mono.post_surgery_closed_form(starts[flat], EPS)
        assert np.max(np.abs(ends[flat] - closed)) < 1e-6
    outs = mono.pre_surgery_monodromy(groups, EPS, FLOW)
    for starts, out in zip(groups, outs):
        (own,) = mono.pre_surgery_monodromy([starts], EPS, FLOW)
        assert np.array_equal(out, own)
        assert np.max(np.abs(out - reeb_closed_form(starts))) < 1e-12


def test_padded_page_flow_rows_keep_their_event_times():
    # the stage-2 flow of rows padded to the widest block, under that block's
    # field and event, against each block's own batch: t_event and end states
    local = np.random.default_rng(13)
    sizes = (2, 3, 4, 2, 3, 4, 2)
    starts = [mono.admissible_start(local, nzw, EPS, DELTA) for nzw in sizes]
    on_s1 = [surgery.limit_transfers_to_s1(np.array([s for s, n in zip(starts, sizes)
                                                     if n == nzw]), 0, nzw, DELTA)
             for nzw in (2, 3, 4)]
    wide, padded = mono._padded(on_s1)
    t_wide, ends_wide = flows.flow_rows_until_event(
        surgery.handle_hamiltonian_rhs(0, wide, DELTA), padded,
        surgery.page_value(0, wide), EPS, FLOW)
    assert not ends_wide[0, [2, 3, 6, 7]].any()  # the padding stays exactly zero
    lo = 0
    for n, rows, ends in zip((2, 3, 4), on_s1, mono._unpadded(ends_wide, on_s1, wide)):
        t_own, ends_own = flows.flow_rows_until_event(
            surgery.handle_hamiltonian_rhs(0, n, DELTA), rows, surgery.page_value(0, n),
            EPS, FLOW)
        assert np.array_equal(t_wide[lo:lo + len(rows)], t_own)
        assert np.array_equal(ends, ends_own)
        lo += len(rows)


def test_a_convergence_scan_equals_one_pipeline_per_speed():
    # the scan as first written: one pipeline per speed
    a_values = [10.0, 100.0, 1000.0, 10000.0]
    for start in (worked_start(), mono.admissible_start(rng, 3, EPS, DELTA)[None]):
        (ref,) = mono.post_surgery_pipeline_batch([start], EPS, DELTA, FLOW)
        expected = {}
        for a in a_values:
            (res,) = mono.post_surgery_pipeline_batch([start], EPS, DELTA, FLOW, [a])
            expected[a] = float(np.max(np.abs(res - ref)))
        errs = mono.a_convergence_scan(start[0], a_values, EPS, DELTA, FLOW)
        assert list(errs.items()) == list(expected.items())


def test_window_scan_of_two_blocks_equals_one_block_scans():
    both = mono.delta_deviation_scan(np.random.default_rng(3), [0.02, 0.01], 4, (2, 3),
                                     0.24, FLOW)
    local = np.random.default_rng(3)
    for nzw in (2, 3):
        assert both[nzw] == mono.delta_deviation_scan(local, [0.02, 0.01], 4, (nzw,),
                                                      0.24, FLOW)[nzw]


def test_pipeline_batch_refuses_a_wrong_length_delta_sequence():
    local = np.random.default_rng(8)
    groups = [mono.admissible_start(local, 2, EPS, 0.05)[None],
              mono.admissible_start(local, 3, EPS, 0.05)[None]]
    for count, deltas in ((1, [DELTA] * 2), (2, [DELTA])):
        with pytest.raises(ValueError, match="once or once per start"):
            mono.post_surgery_pipeline_batch(groups[:count], EPS, deltas, FLOW)


def test_row_monodromy_builds_no_model_point(monkeypatch):
    # the row functions pass arrays; only the one-start adapter, at the
    # benchmark's ModelPoint boundary, builds its one answer
    local = np.random.default_rng(9)
    starts = np.array([mono.admissible_start(local, 3, EPS, DELTA) for _ in range(5)])
    built = []
    validate = ModelPoint.__post_init__

    def counted(self):
        built.append(None)
        validate(self)

    monkeypatch.setattr(ModelPoint, "__post_init__", counted)
    (ends,) = mono.post_surgery_pipeline_batch([starts], EPS, DELTA, FLOW)
    closed = mono.post_surgery_closed_form(starts, EPS)
    mono.recognize_dehn_twist(starts, closed, EPS)
    mono.pre_surgery_monodromy([starts], EPS, FLOW)
    mono.delta_deviation_scan(local, [0.02, 0.01], 2, (2, 3), 0.24, FLOW)
    mono.a_convergence_scan(starts[0], [10.0, 100.0], EPS, DELTA, FLOW)
    assert not built
    start = ModelPoint.from_array(starts[0], 0, 3)
    built.clear()
    mono.post_surgery_pipeline(start, CONFIG, PROFILE, FLOW)
    assert len(built) == 1


def test_monodromy_suite_flows_one_event_batch_per_batched_check(monkeypatch):
    # counts, not times: every batched check makes one batched kernel call, and
    # no check but integrator-order flows a lone start; every transfer search
    # runs on row batches, one per check or per pipeline block group.  Each
    # check flows at its declared step, none at IntegratorConfig's default
    from collections import Counter

    from contactlab import _kernels

    calls = Counter()
    steps = {}
    running = []

    def counted(kernel, step_at):
        original = getattr(_kernels, kernel)

        def wrapper(rhs, u0, *args, **kwargs):
            calls[running[-1], kernel, "lone" if np.ndim(u0) == 1 else "batch"] += 1
            steps.setdefault(running[-1], set()).add(args[step_at])
            return original(rhs, u0, *args, **kwargs)

        return wrapper

    searched = {}
    level_crossings = surgery._level_crossings

    def searched_rows(fn, starts, *args):
        searched.setdefault(running[-1], []).append(len(starts[0]))
        return level_crossings(fn, starts, *args)

    # the step follows the event target, or the flow time
    for kernel, step_at in (("rk4_until_event", 2), ("rk4_record", 1), ("rk4_final", 1)):
        monkeypatch.setattr(_kernels, kernel, counted(kernel, step_at))
    monkeypatch.setattr(surgery, "_level_crossings", searched_rows)
    for name, declared in declarations(**dict(REDUCED_ALL, suite="monodromy")).items():
        running.append(name)
        assert reports.run_check(*declared).passed, name
    n, window = REDUCED_ALL["n_monodromy"], 3 * REDUCED_ALL["n_window"]
    assert searched == {
        "pipeline-vs-closed-form": [n, n, n],  # one search per z/w block size
        "page-speed-law": [20], "transfer-preserves-page": [101],
        "finite-speed-transfer": [13],
        "finite-speed-convergence": [1, 4],  # the limit reference, then every finite a
        "smoothing-window-bound": [window, window]}
    # every event flow is a row batch
    batched = ["pre-surgery-trivial", "pipeline-vs-closed-form", "page-speed-law",
               "finite-speed-transfer", "finite-speed-convergence", "smoothing-window-bound"]
    expected = Counter({(name, "rk4_until_event", "batch"): 1 for name in batched})
    expected["flow-invariants", "rk4_record", "batch"] = 1
    expected["flow-invariants", "rk4_final", "batch"] = 1
    expected["integrator-order", "rk4_final", "lone"] = 2  # the closed-form linear flow
    assert calls == expected
    page, window = suites.PAGE_FLOW, suites.WINDOW_FLOW
    assert (page.step, window.step, suites.INVARIANT_FLOW_STEP) == (5e-3, 1e-3, 1e-2)
    assert (page.max_time, page.event_tol) == (window.max_time, window.event_tol) == (2.0, 1e-12)
    assert steps == {
        "pre-surgery-trivial": {page.step}, "pipeline-vs-closed-form": {page.step},
        "finite-speed-convergence": {page.step},
        "smoothing-window-bound": {window.step}, "page-speed-law": {window.step},
        "flow-invariants": {suites.INVARIANT_FLOW_STEP},
        "finite-speed-transfer": {1e-5}, "integrator-order": {0.02, 0.01}}
