"""Flat surgery model: forms, fields, straightening, transfers, membership."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from contactlab import _kernels, forms, sphere, surgery
from contactlab.profiles import HandleProfile
from contactlab.sphere import SpherePoint
from contactlab.surgery import (ModelPoint, SurgeryConfig, handle_membership,
                                limit_transfer_to_s1, psi_w, psi_w_inverse, phi_c_map,
                                transfer_to_s_minus1, transversality_margins)

from test_kernels import _scalar_handle_f, _scalar_handle_g
from test_profiles import g_inverse_reference

rng = np.random.default_rng(9)
PROFILE = HandleProfile(0.05)


def legendrian_point(z, w):
    return ModelPoint(np.zeros(0), np.zeros(0), np.asarray(z, float),
                      np.asarray(w, float))


def test_model_point_block_validation():
    with pytest.raises(ValueError, match="paired blocks must have equal lengths"):
        ModelPoint(np.zeros(2), np.zeros(1), np.zeros(2), np.zeros(2))
    with pytest.raises(ValueError, match="the \\(z, w\\) blocks must be nonempty"):
        ModelPoint(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0))
    # the first offending block in x, y, z, w order is named
    zw = np.array([1.0, 0.0])
    for blocks, named in [
            ((np.zeros(1), np.array([math.nan]), zw, zw), "y"),
            ((np.zeros(0), np.zeros(0), zw, np.array([0.0, -math.inf])), "w"),
            ((np.zeros(0), np.zeros(0), np.ones((1, 2)), zw), "z"),
            ((np.zeros(0), np.zeros(0), np.array(1.0), np.ones(1)), "z"),
            ((np.array([math.inf]), np.ones((1, 1)), zw, zw), "x")]:
        with pytest.raises(ValueError, match=f"block {named} must be a finite 1-d array"):
            ModelPoint(*blocks)
    pt = ModelPoint(np.zeros(1), np.zeros(1), np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    back = ModelPoint.from_array(pt.as_array(), 1, 2)
    assert np.array_equal(back.as_array(), pt.as_array())


def test_liouville_field_formula():
    pt = ModelPoint(np.array([1.0]), np.array([0.0]),
                    np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    out = ModelPoint.from_array(surgery.liouville_field(1, 2)(pt.as_array()), 1, 2)
    assert np.allclose(out.x, [0.5]) and np.allclose(out.y, [0.0])
    assert np.allclose(out.z, [0.0, 0.0]) and np.allclose(out.w, [-1.0, 0.0])


def test_straightening_frozen_example():
    sp = SpherePoint(np.array([1.0, 0.0]), np.array([0.0, 0.3]))
    out = psi_w(0.2, sp, np.zeros(0), np.zeros(0))
    assert np.allclose(out.z, [0.2, 0.3])
    assert np.allclose(out.w, [1.0, 0.0])
    assert abs(out.w @ out.w - 1.0) < 1e-14


def test_straightening_zero_section_is_isotropic_sphere():
    sp = SpherePoint(np.array([0.0, 1.0]), np.zeros(2))
    out = psi_w(0.0, sp, np.zeros(0), np.zeros(0))
    assert np.allclose(out.z, 0.0)
    assert abs(np.linalg.norm(out.w) - 1.0) < 1e-14
    # tangent directions of the sphere pair to zero under the contact form
    v = np.array([0.0, 0.0, 1.0, 0.0])  # w-direction orthogonal to w = (0, 1)
    assert out.on_s_minus1() and abs(out.w @ v[2:]) < surgery.S_TOL
    assert abs(surgery.alpha_model_form(0, 2)(out.as_array(), v)) < 1e-14


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_straightening_roundtrip(seed):
    local = np.random.default_rng(seed)
    pt = surgery.random_s_minus1_point(local, 1, 3)
    z, sp, x, y = psi_w_inverse(pt)
    assert abs(sp.q @ sp.p) < 1e-12
    back = psi_w(z, sp, x, y)
    assert np.max(np.abs(back.as_array() - pt.as_array())) < 1e-10


def test_rescaling_values():
    u = surgery.chart_pack(0.1, np.array([1.0, 0.0]), np.array([0.0, 0.3]),
                           np.array([1.0]), np.array([2.0]))
    # the chart layout [z | q | p | x | y] with (nzw, nxy) = (2, 1)
    assert np.allclose(phi_c_map(2, 1, 4.0).func(u), [0.4, 1.0, 0.0, 0.0, 1.2, 2.0, 4.0])
    assert np.allclose(phi_c_map(2, 1, 1.0).func(u), u)
    with pytest.raises(ValueError):
        phi_c_map(2, 1, -2.0)


def test_handle_function_frozen_values():
    profile = HandleProfile(0.1)
    on_s1 = legendrian_point([math.sqrt(1.5), 0.0], [1.0, 0.0])
    level = surgery.level_value(0, 2, profile.delta)
    assert level(on_s1.as_array()) == pytest.approx(0.0, abs=1e-14)
    origin = legendrian_point([0.0, 0.0], [0.0, 0.0])
    assert level(origin.as_array()) == pytest.approx(-1.0)
    outside = legendrian_point([0.0, 0.0], [2.0, 0.0])
    assert level(outside.as_array()) == pytest.approx(-(4.0 + 0.1))


def test_transversality_margin_frozen_values():
    profile = HandleProfile(0.1)
    outer = legendrian_point([math.sqrt(1.5), 0.0], [1.0, 0.0])
    inner = legendrian_point([1.0, 0.0], [0.8, 0.0])
    margins = transversality_margins(np.array([outer.as_array(), inner.as_array()]),
                                     0, 2, profile)
    assert margins[0] == pytest.approx(1.0)
    assert margins[1] == pytest.approx(2.0)


def test_margin_is_half_the_liouville_derivative():
    # dF(X) along the expanding field equals twice the reported margin
    profile = HandleProfile(0.1)
    for _ in range(25):
        pt = ModelPoint(rng.standard_normal(1), rng.standard_normal(1),
                        rng.standard_normal(2), rng.standard_normal(2))
        u = pt.as_array()
        grad = surgery.level_gradient(1, 2, profile.delta)(u)
        x_vec = surgery.liouville_field(1, 2)(u)
        margin = transversality_margins(u[None], 1, 2, profile)[0]
        assert abs(float(grad @ x_vec) - 2.0 * margin) < 1e-10


def test_hamiltonian_field_contracts_to_minus_df():
    profile = HandleProfile(0.1)
    for _ in range(25):
        u = legendrian_point(rng.standard_normal(2), rng.standard_normal(2)).as_array()
        xf = surgery.handle_hamiltonian_rhs(0, 2, profile.delta)(u)
        grad = surgery.level_gradient(0, 2, profile.delta)(u)
        for v in np.eye(4):
            assert abs(surgery.omega0_form(0, 2)(u, xf, v) + grad @ v) < 1e-12


def test_reeb_field_values():
    reeb = surgery.reeb_field(0, 2)
    pt = legendrian_point([0.2, -0.1], [1.0, 0.0])
    r = reeb(pt.as_array())
    assert np.allclose(r[:2], [1.0, 0.0]) and np.allclose(r[2:], 0.0)
    assert pt.on_s_minus1() and abs(pt.w @ r[2:]) < surgery.S_TOL
    assert abs(surgery.alpha_model_form(0, 2)(pt.as_array(), r) - 1.0) < 1e-14
    pt2 = legendrian_point([0.0, 0.0], [0.0, 1.0])
    assert np.allclose(reeb(pt2.as_array())[:2], [0.0, 1.0])


def _random_flat_states(local, count=150):
    for nxy in (0, 1, 2):
        for nzw in (2, 3):
            for _ in range(count):
                yield nxy, nzw, local.standard_normal(2 * nxy + 2 * nzw) * 0.6


def test_level_gradient_is_the_gradient_level_projection_steps_with(monkeypatch):
    steps = []
    gradient = surgery._handle_gradient

    def recorded(u, *args):
        grad = gradient(u, *args)
        steps.append((u.copy(), grad))
        return grad

    monkeypatch.setattr(surgery, "_handle_gradient", recorded)
    profile = HandleProfile(0.1)
    for nxy, nzw, u in _random_flat_states(np.random.default_rng(2)):
        steps.clear()
        surgery.level_projection(nxy, nzw, profile.delta)(u)
        newton = list(steps)  # level_gradient below records too
        assert newton  # a random point is off the level set
        level_gradient = surgery.level_gradient(nxy, nzw, profile.delta)
        for at, grad in newton:
            assert np.array_equal(level_gradient(at), grad)


def test_margin_takes_g_prime_at_the_level_functions_rho2(monkeypatch):
    args = []
    g_d = surgery.handle_g_d

    def recorded(s, delta):
        args.append(s)
        return g_d(s, delta)

    monkeypatch.setattr(surgery, "handle_g_d", recorded)
    local = np.random.default_rng(3)
    for nxy in (1, 2):
        for nzw in (2, 3):
            pts = local.standard_normal((100, 2 * nxy + 2 * nzw))
            args.clear()
            surgery.transversality_margins(pts, nxy, nzw, PROFILE)
            [column] = args  # one g' evaluation, on the column of all rows
            assert len(column) == len(pts)
            for row, rho2 in zip(pts, column):
                assert rho2 == surgery._rho2_w2(row.tolist(), nxy, nzw)[0]


def _bisect_reference(fn, lo, hi):
    f_lo, f_hi = fn(lo), fn(hi)
    if abs(f_lo) <= 1e-10:
        return lo
    if abs(f_hi) <= 1e-10:
        return hi
    assert f_lo * f_hi <= 0.0
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


def _transfer_reference(pt, a, profile):
    """The transfers as first written: ModelPoint paths under the handle
    function, a bracket search, then a bisection that evaluates both ends again."""
    level = surgery.level_value(pt.nxy, pt.nzw, profile.delta)

    if a == math.inf:
        def path(u):
            return ModelPoint(pt.x, pt.y, u * pt.z, pt.w / u)

        def fval(u):
            return level(path(u).as_array())

        if abs(fval(1.0)) <= 1e-12:
            return path(1.0)
        if pt.nxy == 0:
            u_flat = 1.0 / float(np.linalg.norm(pt.z))
            if abs(fval(u_flat)) <= 1e-12:
                return path(u_flat)
        f0 = fval(1.0)
        hi = 1.0
        step = 2.0 if f0 < 0.0 else 0.5
        for _ in range(200):
            hi *= step
            if fval(hi) * f0 <= 0.0:
                break
        return path(_bisect_reference(fval, min(1.0, hi), max(1.0, hi)))

    def path(t):
        return ModelPoint(pt.x, pt.y, math.exp((1.0 + a) * t) * pt.z,
                          math.exp(-a * t) * pt.w)

    def fval(t):
        return level(path(t).as_array())

    f0 = fval(0.0)
    if abs(f0) <= 1e-12:
        return path(0.0)
    t_hi = 0.0
    dt = (1.0 if f0 < 0.0 else -1.0) * 0.1 / (1.0 + a)
    for _ in range(400):
        t_hi += dt
        if fval(t_hi) * f0 <= 0.0:
            break
    return path(_bisect_reference(fval, min(0.0, t_hi), max(0.0, t_hi)))


def test_transfers_repeat_the_reference_search_bitwise(monkeypatch):
    built = []
    validate = ModelPoint.__post_init__

    def counted(self):
        built.append(None)
        validate(self)

    local = np.random.default_rng(5)
    signs = set()
    for nxy in (0, 1):
        for nzw in (2, 3):
            starts = [surgery.random_s_minus1_point(local, nxy, nzw) for _ in range(6)]
            # |w| below 1 raises F above zero; rows of the S_1 sampler start on it
            for _ in range(6):
                w = local.standard_normal(nzw)
                w *= local.uniform(0.2, 0.9) / np.linalg.norm(w)
                starts.append(ModelPoint(local.standard_normal(nxy), local.standard_normal(nxy),
                                         local.standard_normal(nzw), w))
            rows = surgery.sample_s1_points(local, 4, nxy, nzw, PROFILE)
            starts += [ModelPoint.from_array(row, nxy, nzw) for row in rows]
            for start in starts:
                f0 = surgery.level_value(nxy, nzw, PROFILE.delta)(start.as_array())
                signs.add(0 if abs(f0) <= 1e-12 else int(math.copysign(1.0, f0)))
                for a in (50.0, 1000.0, math.inf):
                    ref = _transfer_reference(start, a, PROFILE)
                    monkeypatch.setattr(ModelPoint, "__post_init__", counted)
                    built.clear()
                    if a == math.inf:
                        out = limit_transfer_to_s1(start, PROFILE)
                    else:
                        out = surgery.finite_transfers_to_s1(start.as_array()[None], nxy, nzw,
                                                             a, PROFILE.delta)[0]
                    monkeypatch.setattr(ModelPoint, "__post_init__", validate)
                    assert not built  # flat states throughout, the result too
                    assert np.array_equal(out, ref.as_array())
    assert signs == {-1, 0, 1}


def _lone_level_crossing(fn, starts, widen, tries):
    """The per-point search the row transfers replaced, as first written."""
    values = []
    for s in starts:
        f = fn(s)
        if abs(f) <= 1e-12:
            return s
        values.append(f)
    s0, f0 = starts[0], values[0]
    s1 = s0
    for _ in range(tries):
        s1 = widen(s1, f0 < 0.0)
        f1 = fn(s1)
        if f1 * f0 <= 0.0:
            break
    else:
        raise ValueError("no level crossing along the transfer path")
    (lo, f_lo), (hi, f_hi) = sorted([(s0, f0), (s1, f1)])
    if abs(f_lo) <= 1e-10:
        return lo
    if abs(f_hi) <= 1e-10:
        return hi
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


def _lone_transfer(pt, a, delta):
    """One transfer as the per-point search first ran it, under the scalar
    handle functions: the limit transfer at a = inf, else the finite one."""
    def level(u):
        b = u.size - pt.nzw
        rho2 = w2 = 0.0
        for v in u[:b].tolist():
            rho2 = rho2 + v * v
        for v in u[b:].tolist():
            w2 = w2 + v * v
        return -_scalar_handle_f(w2, delta) + _scalar_handle_g(rho2, delta)

    if a == math.inf:
        def path(u):
            return np.concatenate([pt.x, pt.y, u * pt.z, pt.w / u])

        def widen(u, rising):
            return u * (2.0 if rising else 0.5)
    else:
        if not a > 0.0:
            raise ValueError("Liouville parameter a must be positive")

        def path(t):
            return np.concatenate([pt.x, pt.y, math.exp((1.0 + a) * t) * pt.z,
                                   math.exp(-a * t) * pt.w])

        def widen(t, rising):
            return t + (1.0 if rising else -1.0) * 0.1 / (1.0 + a)
    nz = float(np.linalg.norm(pt.z))
    if nz == 0.0:
        raise ValueError("no image: the z = 0 locus is removed by the surgery")
    if a != math.inf:
        starts, tries = [0.0], 400
    else:
        starts, tries = ([1.0] if pt.nxy else [1.0, 1.0 / nz]), 200
    return path(_lone_level_crossing(lambda s: level(path(s)), starts, widen, tries))


def _transfer_rows(local, nxy, nzw, deltas):
    """Rows on both sides of S_1, rows of it, and rows whose blocks sit in
    the smoothing windows of f and g, one per smoothing width."""
    rows = []
    for i, delta in enumerate(deltas):
        kind = i % 4
        if kind == 0:  # |w| = 1: the handle function is negative, the search widens up
            rows.append(surgery.random_s_minus1_point(local, nxy, nzw).as_array())
            continue
        if kind == 3:
            rows.append(surgery.sample_s1_points(local, 1, nxy, nzw, HandleProfile(delta))[0])
            continue
        w = local.standard_normal(nzw)
        z = local.standard_normal(nzw)
        if kind == 1:  # |w| < 1 and |z| > 1: positive, the search widens down
            w *= local.uniform(0.2, 0.9) / np.linalg.norm(w)
            z *= local.uniform(1.2, 2.0) / np.linalg.norm(z)
        else:  # |w|^2 in f's window and |z|^2 in g's
            w *= math.sqrt(1.0 - delta * local.uniform(0.0, 1.0)) / np.linalg.norm(w)
            z *= math.sqrt(1.0 + delta * local.uniform(0.0, 1.0)) / np.linalg.norm(z)
        rows.append(np.concatenate([np.zeros(2 * nxy), z, w]))
    return np.array(rows)


@pytest.mark.parametrize("nxy, nzw", [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3)])
def test_row_transfers_repeat_the_lone_search_bitwise(nxy, nzw):
    local = np.random.default_rng(41 + 10 * nxy + nzw)
    deltas = local.uniform(0.005, 0.2, 24)
    rows = _transfer_rows(local, nxy, nzw, deltas)
    speeds = local.choice([10.0, 100.0, 1e3, 1e4], len(rows))
    pts = [ModelPoint.from_array(row, nxy, nzw) for row in rows]
    signs = {0 if abs(f) <= 1e-12 else int(math.copysign(1.0, f))
             for f in (surgery.level_value(nxy, nzw, d)(row) for row, d in zip(rows, deltas))}
    assert signs == {-1, 0, 1}
    limit = surgery.limit_transfers_to_s1(rows, nxy, nzw, deltas)
    finite = surgery.finite_transfers_to_s1(rows, nxy, nzw, speeds, deltas)
    for pt, a, delta, lim, fin in zip(pts, speeds, deltas, limit, finite):
        assert lim.tobytes() == _lone_transfer(pt, math.inf, delta).tobytes()
        assert fin.tobytes() == _lone_transfer(pt, a, delta).tobytes()
        # the lone calls are the one-row batches
        assert limit_transfer_to_s1(pt, HandleProfile(delta)).tobytes() == lim.tobytes()
        lone = surgery.finite_transfers_to_s1(pt.as_array()[None], nxy, nzw, a, delta)[0]
        assert lone.tobytes() == fin.tobytes()
    # one smoothing width and one speed for all rows
    lim = surgery.limit_transfers_to_s1(rows, nxy, nzw, 0.05)
    fin = surgery.finite_transfers_to_s1(rows, nxy, nzw, 100.0, 0.05)
    for pt, row_lim, row_fin in zip(pts, lim, fin):
        assert row_lim.tobytes() == _lone_transfer(pt, math.inf, 0.05).tobytes()
        assert row_fin.tobytes() == _lone_transfer(pt, 100.0, 0.05).tobytes()


def test_row_transfers_refuse_each_bad_row_as_the_lone_search():
    good = np.array([[0.0, 0.0, -0.1, 0.5, 1.0, 0.0]] * 2)
    no_z = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    # w = 0 and |x| = 2: the handle function stays at delta along both paths
    no_crossing = np.array([2.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    for bad, a, message in [(no_z, 100.0, "removed"), (good[0], 0.0, "must be positive"),
                            (good[0], -1.0, "must be positive"),
                            (good[0], math.nan, "must be positive"),
                            (no_crossing, 100.0, "no level crossing")]:
        rows = np.vstack([good, bad])
        with pytest.raises(ValueError, match=message):
            _lone_transfer(ModelPoint.from_array(bad, 1, 2), a, 0.05)
        with pytest.raises(ValueError, match=message):
            surgery.finite_transfers_to_s1(rows, 1, 2, [100.0, 100.0, a], 0.05)
        if a == 100.0:
            with pytest.raises(ValueError, match=message):
                _lone_transfer(ModelPoint.from_array(bad, 1, 2), math.inf, 0.05)
            with pytest.raises(ValueError, match=message):
                surgery.limit_transfers_to_s1(rows, 1, 2, [0.05, 0.1, 0.05])


def test_limit_transfer_frozen_example():
    pt = legendrian_point([-0.1, 0.5], [1.0, 0.0])
    out = limit_transfer_to_s1(pt, PROFILE)
    assert np.allclose(out[:2], [-0.19611613513818404, 0.9805806756909202])
    assert np.allclose(out[2:], [0.5099019513592785, 0.0])
    assert abs(surgery.level_value(0, 2, PROFILE.delta)(out)) < 1e-10


@given(st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_limit_transfer_preserves_page_value(seed):
    local = np.random.default_rng(seed)
    w = local.standard_normal(2)
    w /= np.linalg.norm(w)
    z = local.standard_normal(2) * 0.4
    if np.linalg.norm(z) < 1e-3:
        z = np.array([0.3, 0.1])
    pt = legendrian_point(z, w)
    out = limit_transfer_to_s1(pt, PROFILE)
    assert abs(float(out[:2] @ out[2:]) - surgery.page_value(0, 2)(pt.as_array())) < 1e-12


def test_limit_transfer_identity_on_level_set():
    # |z| = 1 with |w| = 1 and rho^2 >= 1 + delta is already on the far flat piece
    pt = legendrian_point([1.2, 0.0], [1.0, 0.0])
    assert abs(surgery.level_value(0, 2, PROFILE.delta)(pt.as_array())) < 1e-14
    out = limit_transfer_to_s1(pt, PROFILE)
    assert np.allclose(out, pt.as_array())


def test_limit_transfer_rejects_removed_locus():
    with pytest.raises(ValueError, match="removed"):
        limit_transfer_to_s1(legendrian_point([0.0, 0.0], [1.0, 0.0]), PROFILE)


def test_finite_transfer_converges_to_limit():
    pt = legendrian_point([-0.1, 0.5], [1.0, 0.0])
    lim = limit_transfer_to_s1(pt, PROFILE)
    errs = []
    for a in (10.0, 100.0, 1000.0):
        out = surgery.finite_transfers_to_s1(pt.as_array()[None], 0, 2, a, PROFILE.delta)[0]
        errs.append(np.max(np.abs(out - lim)))
    assert errs[0] > errs[1] > errs[2]
    # order 1/a: tenfold speed shrinks the error about tenfold
    assert 5.0 < errs[0] / errs[1] < 20.0
    assert errs[2] < 2e-3


def test_inverse_transfer_normalizes_w():
    pt = legendrian_point([-0.19611613513818404, 0.9805806756909202],
                          [0.5099019513592785, 0.0])
    back = transfer_to_s_minus1(pt.as_array(), 0, 2)
    assert abs(np.linalg.norm(back[2:]) - 1.0) < 1e-14
    assert abs(float(back[:2] @ back[2:]) - surgery.page_value(0, 2)(pt.as_array())) < 1e-14


def test_inverse_transfer_repeats_the_model_point_formula_bitwise():
    local = np.random.default_rng(12)
    for nxy in (0, 1, 2):
        for nzw in (2, 3, 4):
            for _ in range(20):
                pt = ModelPoint(local.standard_normal(nxy), local.standard_normal(nxy),
                                local.standard_normal(nzw),
                                local.uniform(0.1, 2.0) * local.standard_normal(nzw))
                # the inverse transfer as first written, on model points
                nw = float(np.linalg.norm(pt.w))
                ref = ModelPoint(pt.x, pt.y, nw * pt.z, pt.w / nw)
                back = transfer_to_s_minus1(pt.as_array(), nxy, nzw)
                assert np.array_equal(back, ref.as_array())
    with pytest.raises(ValueError, match="w = 0"):
        transfer_to_s_minus1(np.array([0.3, 0.1, 0.0, 0.0]), 0, 2)


def test_membership_desk_cases():
    origin = ModelPoint(np.zeros(1), np.zeros(1), np.zeros(2), np.zeros(2))
    assert handle_membership(origin, PROFILE) is False
    far = ModelPoint(np.zeros(1), np.zeros(1), np.array([3.0, 0.0]), np.zeros(2))
    assert handle_membership(far, PROFILE) is False
    inflated = ModelPoint(np.zeros(1), np.zeros(1), np.zeros(2), np.array([1.5, 0.0]))
    assert handle_membership(inflated, PROFILE) is False
    pts = surgery.sample_s1_points(rng, 6, 1, 2, PROFILE, rho2_max=1.8)
    hits = sum(handle_membership(ModelPoint.from_array(row, 1, 2), PROFILE) is True
               for row in pts)
    assert hits >= 5


def _membership_reference(pt, profile):
    """handle_membership as first written: lone flows from one point."""
    step, max_time, event_tol = 1e-3, 12.0, 1e-10
    u0 = pt.as_array()
    nxy, nzw = pt.nxy, pt.nzw
    liouville = surgery.liouville_field(nxy, nzw)
    if np.linalg.norm(liouville(u0)) < 1e-14:
        return False
    rho2_0, w2_0 = surgery._rho2_w2(u0.tolist(), nxy, nzw)
    if w2_0 == 0.0:
        return False
    if math.sqrt(w2_0) > 1.0 + 1e-12:
        reach_glue = False
    else:
        t_hit, _, states = _kernels.rk4_until_event(
            liouville, u0, surgery.wnorm2_value(nxy, nzw), 1.0, step, max_time, event_tol,
            direction=-1.0)
        if t_hit is None:
            return None
        reach_glue = surgery._rho2_w2(states[-1].tolist(), nxy, nzw)[0] <= 1.5 ** 2
    level = surgery.level_value(nxy, nzw, profile.delta)
    f0 = level(u0)
    if f0 < 0.0 and math.sqrt(rho2_0) < 1e-14:
        reach_s1 = False
    else:
        t_hit, _, states = _kernels.rk4_until_event(
            liouville, u0, level, 0.0, step, max_time, event_tol)
        if t_hit is not None:
            reach_s1 = True
        elif f0 > 0.0 and level(states[-1]) >= f0:
            reach_s1 = False
        else:
            return None
    return bool(reach_glue and reach_s1)


def test_batched_membership_repeats_the_lone_flows():
    local = np.random.default_rng(4)
    rows = [
        np.zeros(6),                                  # the origin: at rest
        [0.0, 0.0, 3.0, 0.0, 0.0, 0.0],               # w = 0
        [0.0, 0.0, 0.0, 0.0, 1.5, 0.0],               # |w| > 1, on the w axis
        [0.0, 0.0, 0.0, 0.0, 0.5, 0.0],               # |w| < 1, on the w axis
        [1e-10, 0.0, 0.0, 0.0, 0.5, 0.0],             # forward flow inconclusive
        [0.3, 0.0, 0.2, 0.0, 1e-8, 0.0],              # backward flow inconclusive
        [1.2, 0.3, 0.5, 0.1, 0.4, 0.2],               # F > 0: the level value recedes
    ]
    rows += [surgery.random_s_minus1_point(local, 1, 2).as_array() for _ in range(4)]
    rows = np.vstack(rows + [surgery.sample_s1_points(local, 8, 1, 2, PROFILE, rho2_max=1.8)])
    ref = [_membership_reference(ModelPoint.from_array(u, 1, 2), PROFILE) for u in rows]
    assert {True, False, None} <= set(ref)
    assert surgery.handle_memberships(rows, 1, 2, PROFILE) == ref


def _sampler_reference(rng, count, nxy, nzw, profile, rho2_max=4.0):
    """sample_s1_points as first written: one row assembled and projected at a
    time, the projection in floats."""
    dim = 2 * nxy + 2 * nzw
    out = np.empty((count, dim))
    delta = profile.delta
    project = surgery.level_projection(nxy, nzw, delta)
    for i in range(count):
        if rng.random() < 0.7:
            s = rng.random()
            rho2 = g_inverse_reference(profile, profile.f(s))
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


@pytest.mark.parametrize("nxy, nzw", [(0, 2), (1, 2), (1, 3), (2, 4)])
def test_s1_sampler_repeats_the_pointwise_reference_bitwise(nxy, nzw):
    for seed, delta, rho2_max in ((0, 0.05, 4.0), (1, 0.1, 1.8), (5, 0.2, 4.0)):
        ref_rng, rng_ = np.random.default_rng(seed), np.random.default_rng(seed)
        profile = HandleProfile(delta)
        ref = _sampler_reference(ref_rng, 60, nxy, nzw, profile, rho2_max)
        assert np.array_equal(surgery.sample_s1_points(rng_, 60, nxy, nzw, profile, rho2_max),
                              ref)
        assert rng_.random() == ref_rng.random()


def test_s1_sampler_lands_on_level_set():
    for delta in (0.05, 0.1):
        profile = HandleProfile(delta)
        pts = surgery.sample_s1_points(rng, 200, 1, 2, profile)
        level = surgery.level_value(1, 2, profile.delta)
        for row in pts:
            assert abs(level(row)) < 1e-10


def test_surgery_config_validation():
    with pytest.raises(ValueError):
        SurgeryConfig(epsilon=0.3)


def test_strictness_spot_check():
    from contactlab.suites import strictness_residual
    assert strictness_residual(np.random.default_rng(1), 3, 2, 30) < 1e-8


def _strictness_reference(rng, n, k, count):
    """strictness_residual as first written: a lone pullback per point and vector."""
    nzw, nxy = k + 1, n - k - 1
    mapping = surgery.psi_w_map(nzw, nxy)
    target = surgery.alpha_model_form(nxy, nzw)
    source = surgery.alpha_chart_form(nzw, nxy)
    dim_in = 1 + 2 * nzw + 2 * nxy
    eye = np.eye(dim_in)
    worst = 0.0
    for _ in range(count):
        sp = sphere.random_sphere_point(rng, nzw - 1, 0.05, 1.5)
        z = float(rng.uniform(-1.0, 1.0))
        x = rng.standard_normal(nxy)
        y = rng.standard_normal(nxy)
        u = surgery.chart_pack(z, sp.q, sp.p, x, y)
        vecs = [eye[0]]
        for v in sphere.tangent_frame(sp):
            vv = np.zeros(dim_in)
            vv[1:1 + 2 * nzw] = v
            vecs.append(vv)
        vecs.extend(eye[1 + 2 * nzw + i] for i in range(2 * nxy))
        for v in vecs:
            lhs = forms.pullback_eval(mapping, target, u, [v])
            worst = max(worst, abs(lhs - source(u, v)))
    return worst


@pytest.mark.parametrize("n, k", [(2, 1), (3, 1), (3, 2)])
def test_strictness_repeats_the_pointwise_reference_bitwise(n, k):
    from contactlab.suites import strictness_residual
    for seed in (0, 5):
        ref_rng, rng_ = np.random.default_rng(seed), np.random.default_rng(seed)
        ref = _strictness_reference(ref_rng, n, k, 40)
        assert strictness_residual(rng_, n, k, 40) == ref
        assert rng_.random() == ref_rng.random()
