"""Named verification suites, declared in one registry.

Each suite body is registered by ``@suite(name)``; definition order is the
order in which the "all" suite runs them.  A body is called as
``body(cfg, check)`` and declares each of its checks once, by
``@check(name, anchor, ops, tolerance)`` directly above a closure that returns
``(max_residual, samples, details)``.  :func:`declared_checks` collects the
declarations ``(name, anchor, ops, tolerance, body)`` without running a body;
:func:`run_suite` runs each one as ``run_check(*declared)``, through
:func:`contactlab.reports.run_check`, into a
:class:`contactlab.reports.CheckRecord`.  Anchors quote the identity being
verified; `ops` lists the public operations a check exercises (the "all"
suite must cover every operation in QUOTED_OPS).  A check's tolerance, any
bound inside its body, and the geometry and numerics it runs at are written
at the check: as the callee's default where one exists, as a literal, or as
a module constant beside the checks that share it.  A scenario sets only the
suite, the seed, the sample counts and the move-search depth.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from . import flows, forms, monodromy as mono, moves as mv, openbook as ob, sphere, surgery
from .config import ScenarioConfig
from .flows import IntegratorConfig
from .profiles import BindingProfile, DehnTwistProfile, twist_g1, twist_g1_d
from .reports import VerificationReport, check_rng, run_check

Array = np.ndarray

# every operation whose defining formula comes from the source model must be
# exercised at least once by the "all" suite.  The labels name formulas; each
# maps to the dotted path, within contactlab, of the callable that computes
# the formula for the checks that quote the label.  "flow_until_event" is the
# event-detected RK4 loop that every event flow runs, and
# "recognize_dehn_twist" the block-matrix prediction that the recognizer and
# twist-word-composition both read.
QUOTED_OPS = {
    "pullback_eval": "forms.pullback_eval",
    "liouville_residual": "forms.liouville_residual",
    "contact_volume": "forms.contact_volume",
    "psh_gram_matrix": "forms.psh_gram_matrix",
    "canonical_form_eval": "sphere.canonical_one_form",
    "geodesic_flow": "sphere.geodesic_flow",
    "dehn_twist": "sphere.dehn_twist_map",
    "omega0_eval": "surgery.omega0_form",
    "liouville_X": "surgery.liouville_field",
    "liouville_X_a": "surgery.liouville_a_field",
    "alpha_s_minus1_eval": "surgery.alpha_model_form",
    "reeb_s_minus1": "surgery.reeb_field",
    "theta_page": "surgery.page_value",
    "psi_w": "surgery.psi_w_map",
    "psi_w_inverse": "surgery.psi_w_inverse",
    "phi_c": "surgery.phi_c_map",
    "f_eval": "surgery.level_value",
    "transversality_margin": "surgery.transversality_margins",
    "hamiltonian_field_xf": "surgery.handle_hamiltonian_rhs",
    "limit_transfer_to_s1": "surgery.limit_transfers_to_s1",
    "transfer_to_s1_finite_a": "surgery.finite_transfers_to_s1",
    "handle_membership": "surgery.handle_memberships",
    "flow_fixed_time": "flows.flow_fixed_time",
    "flow_until_event": "_kernels.rk4_until_event",
    "mapping_torus_form": "openbook.mapping_torus_form",
    "glue_map": "openbook.glue_map",
    "binding_form_polar": "openbook.binding_form_polar",
    "giroux_correction": "openbook.giroux_correction",
    "legendrian_realization": "openbook.legendrian_realization",
    "reeb_transversality_check": "openbook.reeb_transversality_check",
    "pre_surgery_monodromy": "monodromy.pre_surgery_monodromy",
    "post_surgery_closed_form": "monodromy.post_surgery_closed_form",
    "post_surgery_pipeline": "monodromy.post_surgery_pipeline_batch",
    "recognize_dehn_twist": "monodromy.twist_prediction",
    "composed_monodromy_word": "monodromy.composed_monodromy_word",
    "cyclic_rotate": "moves.cyclic_rotate",
    "conjugate": "moves.conjugate",
    "subcritical_attach": "moves.subcritical_attach",
    "stabilize": "moves.stabilize",
    "destabilize": "moves.destabilize",
}


# suite name -> body, filled by @suite in definition order, which is the
# order the "all" suite runs them in
SUITES: dict[str, Callable[[ScenarioConfig, Callable], None]] = {}


def suite(name: str):
    """Register a suite body ``body(cfg, check)`` under ``name``."""
    def register(body):
        SUITES[name] = body
        return body
    return register


def suite_names() -> list[str]:
    """The registered suites in run order, then "all"."""
    return [*SUITES, "all"]


def _worst_of(*values: float) -> float:
    """The largest of the values, or the first NaN among them.

    Python's max keeps its running maximum when a later argument is NaN
    (max(0.0, nan) is 0.0), so a residual that turns NaN after the first
    sample would pass.  Without a NaN this returns the object max returns."""
    for value in values:
        if value != value:
            return value
    return max(values)


# the least contact volume or transversality margin a positivity check accepts;
# its residual is this floor minus the smallest value seen
POSITIVITY_FLOOR = 1e-8


def _dlam_can(u: Array, v: Array) -> Array:
    """d(p dq)(u, v) of each row pair of two (m, 2d) batches."""
    d = u.shape[-1] // 2
    return np.vecdot(u[..., d:], v[..., :d]) - np.vecdot(v[..., d:], u[..., :d])


# ===========================================================================
# dehn-twist suite
# ===========================================================================

def twist_pullback_residual(rng: np.random.Generator, n: int, count: int,
                            profile: DehnTwistProfile) -> float:
    """max defect of the twist preserving d(p dq) on constraint-tangent frames.

    The points are drawn one at a time; their frames and Jacobians are taken
    as row batches, and each frame vector is pushed forward once.
    """
    if not count:
        return 0.0
    points = sphere.random_sphere_points(rng, count, n, 1e-3, 2.0 * profile.p0)
    frames = sphere.tangent_frames(points[:, :n + 1], points[:, n + 1:])
    jac = forms.fd_jacobian(sphere.dehn_twist_map(profile, n).func, points)
    pushed = (jac[:, None] @ frames[..., None])[..., 0]
    worst = 0.0
    for i in range(frames.shape[1]):
        for j in range(i + 1, frames.shape[1]):
            lhs = _dlam_can(pushed[:, i], pushed[:, j])
            rhs = _dlam_can(frames[:, i], frames[:, j])
            worst = _worst_of(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


@suite("dehn-twist")
def suite_dehn_twist(cfg: ScenarioConfig, check) -> None:
    profile = DehnTwistProfile()

    @check("twist-symplectomorphism",
           "pullback of d(p dq) through the twist equals d(p dq) on the bundle tangent spaces",
           ["dehn_twist"], 1e-6)
    def symplecto():
        worst = 0.0
        total = 0
        for n in (1, 2, 3):
            rng = check_rng(cfg.seed, f"twist-symplecto-{n}")
            worst = _worst_of(worst, twist_pullback_residual(rng, n, cfg.n_twist, profile))
            total += cfg.n_twist
        return worst, total, {"dims": [1, 2, 3]}

    @check("twist-compact-support",
           "the twist is the pointwise identity once |p| reaches the support radius",
           ["dehn_twist"], 0.0)
    def support():
        rng = check_rng(cfg.seed, "twist-support")
        rows = sphere.random_sphere_points(rng, 100, 2, profile.p0, 3.0 * profile.p0)
        out = sphere.dehn_twist_map(profile, 2).func(rows)
        return float(np.max(np.abs(out - rows))), 100, {}

    @check("twist-zero-section-antipode",
           "a single twist acts on the zero section as q -> -q",
           ["dehn_twist"], 0.0)
    def zero_section():
        rng = check_rng(cfg.seed, "twist-zero-section")
        draws = [rng.standard_normal(3) for _ in range(50)]
        qs = np.array([q / np.linalg.norm(q) for q in draws])
        out = sphere.dehn_twist_map(profile, 2).func(np.hstack([qs, np.zeros((50, 3))]))
        worst = _worst_of(float(np.max(np.abs(out[:, :3] + qs))),
                          float(np.max(np.abs(out[:, 3:]))))
        return worst, 50, {}

    @check("geodesic-flow-constraints",
           "the normalized geodesic rotation preserves |p| and the bundle constraints",
           ["geodesic_flow"], 1e-9)
    def geodesic():
        rng = check_rng(cfg.seed, "geodesic")
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(1, 4))
            (row,) = sphere.random_sphere_points(rng, 1, n, 0.1, 3.0)
            q, p = row[:n + 1], row[n + 1:]
            t = float(rng.uniform(-10, 10))
            q_t, p_t = sphere.geodesic_flow(q, p, t)
            worst = _worst_of(worst, abs(q_t @ q_t - 1.0), abs(q_t @ p_t),
                              abs(np.linalg.norm(p_t) - np.linalg.norm(p)))
        # quarter period with |p| = 1 swaps (q, p) -> (p, -q)
        q, p = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        q_t, p_t = sphere.geodesic_flow(q, p, math.pi / 2.0)
        worst = _worst_of(worst, float(np.max(np.abs(q_t - p))), float(np.max(np.abs(p_t + q))))
        # half period with |p| = 2 maps to the antipode: frozen arithmetic
        q_t, p_t = sphere.geodesic_flow(np.array([1.0, 0.0]), np.array([0.0, 2.0]), math.pi)
        worst = _worst_of(worst, float(np.max(np.abs(q_t - np.array([-1.0, 0.0])))),
                          float(np.max(np.abs(p_t - np.array([0.0, -2.0])))))
        return worst, 102, {}

    @check("canonical-form-values",
           "p dq vanishes on the zero section and on fiber directions, and pairs p with dq",
           ["canonical_form_eval"], 1e-12)
    def canonical_values():
        lam = sphere.canonical_one_form(4)
        # (q, p) = ((1, 0), 0) on the zero section, then ((1, 0), (0, 0.3))
        zero, pt = np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0, 0.3])
        worst = _worst_of(abs(lam(zero, np.array([0.3, 0.7, 0.0, 0.1]))),
                          abs(lam(pt, np.array([0.0, 1.0, 0.0, 0.0])) - 0.3),
                          abs(lam(pt, np.array([0.0, 0.0, 0.4, -0.2]))))
        return worst, 3, {}

    @check("twist-smooth-across-zero-section",
           "twist Jacobians match across a small sphere in p around the zero section",
           ["dehn_twist"], 1e-4)
    def smoothness():
        rng = check_rng(cfg.seed, "twist-smooth")
        twist = sphere.dehn_twist_map(profile, 2)
        worst = 0.0
        for _ in range(20):
            q = rng.standard_normal(3)
            q /= np.linalg.norm(q)
            d = rng.standard_normal(3)
            d -= (d @ q) * q
            d /= np.linalg.norm(d)
            u_plus = np.concatenate([q, 1e-3 * d])
            u_minus = np.concatenate([q, -1e-3 * d])
            j_plus = forms.fd_jacobian(twist.func, u_plus, 1e-5)
            j_minus = forms.fd_jacobian(twist.func, u_minus, 1e-5)
            worst = _worst_of(worst, float(np.max(np.abs(j_plus - j_minus))))
        return worst, 20, {}

    @check("twist-k-fold-composition",
           "two single twists compose to the doubled angle profile exactly",
           ["dehn_twist", "geodesic_flow"], 1e-12)
    def k_fold():
        rng = check_rng(cfg.seed, "twist-kfold")
        single = sphere.dehn_twist_map(profile, 2).func
        double = sphere.dehn_twist_map(DehnTwistProfile(k=2), 2).func
        rows = sphere.random_sphere_points(rng, 100, 2, 1e-3, 2.0 * profile.p0)
        worst = float(np.max(np.abs(single(single(rows)) - double(rows))))
        # zero section: the double twist fixes q exactly
        q = np.array([0.0, 1.0, 0.0])
        fixed = double(np.concatenate([q, np.zeros(3)]))
        worst = _worst_of(worst, float(np.max(np.abs(fixed[:3] - q))))
        return worst, 101, {}

    @check("twist-angle-profile",
           "the angle profile starts at k*pi with strictly negative slope and "
           "decreases to 0 at the support radius",
           ["dehn_twist"], 1e-12)
    def profile_shape():
        worst = 0.0
        p0 = profile.p0
        for k in (1, 2, 3):
            worst = _worst_of(worst, abs(twist_g1(0.0, p0, k) - k * math.pi))
            worst = _worst_of(worst, abs(twist_g1(p0, p0, k)), abs(twist_g1(2.0 * p0, p0, k)))
            if twist_g1_d(0.0, p0, k) >= 0.0:
                worst = _worst_of(worst, 1.0)
            ss = np.linspace(0.0, p0, 400)
            vals = np.array([twist_g1(s, p0, k) for s in ss])
            worst = _worst_of(worst, float(np.max(np.maximum(np.diff(vals), 0.0))))
        return worst, 3, {}


# ===========================================================================
# weinstein-strictness suite
# ===========================================================================

def strictness_residual(rng: np.random.Generator, n: int, k: int, count: int) -> float:
    """max defect of psi_w pulling the model form back to the chart form, on
    the chart's z, sphere-bundle and (x, y) directions.

    The points are drawn one at a time; their frames and the pullback are
    then taken on the row batch, with one stack of rows per direction.
    """
    if not count:
        return 0.0
    nzw, nxy = k + 1, n - k - 1
    mapping = surgery.psi_w_map(nzw, nxy)
    target = surgery.alpha_model_form(nxy, nzw)
    source = surgery.alpha_chart_form(nzw, nxy)
    dim_in = 1 + 2 * nzw + 2 * nxy
    n_frame = 2 * nzw - 2
    # per point: e_z, the sphere-bundle frame in the (q, p) slots, then e_x and e_y
    u, vecs = np.empty((count, dim_in)), np.zeros((dim_in - 2, count, dim_in))
    vecs[0, :, 0] = 1.0
    vecs[1 + n_frame:, :, 1 + 2 * nzw:] = np.eye(2 * nxy)[:, None]
    for i in range(count):
        (row,) = sphere.random_sphere_points(rng, 1, nzw - 1, 0.05, 1.5)
        z = float(rng.uniform(-1.0, 1.0))
        x = rng.standard_normal(nxy)
        y = rng.standard_normal(nxy)
        u[i] = surgery.chart_pack(z, row[:nzw], row[nzw:], x, y)
    frames = sphere.tangent_frames(u[:, 1:1 + nzw], u[:, 1 + nzw:1 + 2 * nzw])
    vecs[1:1 + n_frame, :, 1:1 + 2 * nzw] = frames.transpose(1, 0, 2)
    lhs = forms.pullback_eval(mapping, target, u, [vecs])
    return float(np.max(np.abs(lhs - source(u, vecs))))


# tolerance of liouville-expansion, liouville-speed-family and page-hamiltonian-sign
LIOUVILLE_TOL = 1e-6


@suite("weinstein-strictness")
def suite_weinstein(cfg: ScenarioConfig, check) -> None:
    @check("straightening-strictness",
           "the sphere-bundle chart pulls (x dy - y dx)/2 + 2z dw + w dz back to "
           "dz + p dq + (x dy - y dx)/2",
           ["psi_w", "pullback_eval"], 1e-8)
    def strictness():
        worst = 0.0
        total = 0
        dims = ((2, 1), (3, 1), (3, 2))
        for n, k in dims:
            rng = check_rng(cfg.seed, f"strict-{n}-{k}")
            worst = _worst_of(worst, strictness_residual(rng, n, k, cfg.n_strict))
            total += cfg.n_strict
        return worst, total, {"dims": [list(d) for d in dims]}

    @check("straightening-roundtrip",
           "decomposing z into (z.w) w + fiber part inverts the chart exactly",
           ["psi_w", "psi_w_inverse"], 1e-10)
    def roundtrip():
        rng = check_rng(cfg.seed, "psiw-roundtrip")
        rows = surgery.random_s_minus1_points(rng, 100, 1, 2)
        chart = surgery.psi_w_inverse(rows, 1, 2)  # [z | q(2) | p(2) | x | y]
        back = surgery.psi_w_map(2, 1).func(chart)
        worst = _worst_of(float(np.max(np.abs(back - rows))),
                          float(np.max(np.abs(np.vecdot(chart[:, 1:3], chart[:, 3:5])))))
        # frozen hand projection: z-block (-0.1, 0.5) against w = (1, 0)
        (chart,) = surgery.psi_w_inverse(np.array([[-0.1, 0.5, 1.0, 0.0]]), 0, 2)
        worst = _worst_of(worst, abs(chart[0] + 0.1),
                          float(np.max(np.abs(chart[3:] - np.array([0.0, 0.5])))))
        return worst, 101, {}

    @check("rescaling-conformality",
           "(z,q,p,x,y) -> (Cz,q,Cp,sqrt(C)x,sqrt(C)y) scales the contact form by C",
           ["phi_c", "pullback_eval"], 1e-10)
    def conformality():
        rng = check_rng(cfg.seed, "conformality")
        worst = 0.0
        source = surgery.alpha_chart_form(2, 1)
        dim_in = 1 + 4 + 2
        eye = np.eye(dim_in)
        for c_val in (1.0, 4.0, 9.0):
            mapping = surgery.phi_c_map(2, 1, c_val)
            rows = []
            for _ in range(30):
                (row,) = sphere.random_sphere_points(rng, 1, 1, 0.05, 1.0)
                rows.append(surgery.chart_pack(float(rng.uniform(-1, 1)), row[:2], row[2:],
                                               rng.standard_normal(1), rng.standard_normal(1)))
            u = np.array(rows)
            # the 7 basis vectors of every row, as one (7, 30, 7) stack
            vecs = np.broadcast_to(eye[:, None], (dim_in, len(rows), dim_in))
            lhs = forms.pullback_eval(mapping, source, u, [vecs])
            worst = _worst_of(worst, float(np.max(np.abs(lhs - c_val * source(u, vecs)))))
        return worst, 90, {"C": [1.0, 4.0, 9.0]}

    @check("isotropic-sphere",
           "the contact form vanishes on the tangent spaces of {x=y=0, z=0, |w|=1}",
           ["alpha_s_minus1_eval", "psi_w"], 1e-12)
    def isotropic():
        rng = check_rng(cfg.seed, "isotropic")
        worst = 0.0
        alpha = surgery.alpha_model_form(1, 3)
        wnorm2 = surgery.wnorm2_value(1, 3)
        for _ in range(50):
            w = rng.standard_normal(3)
            w /= np.linalg.norm(w)
            u = np.concatenate([np.zeros(5), w])  # x | y | z(3) | w(3)
            if not abs(wnorm2(u) - 1.0) < surgery.S_TOL:
                raise ValueError("point is not on the |w|^2 = 1 hypersurface")
            for t in sphere._orthonormal_complements(w[None])[0]:
                if not abs(w @ t) <= surgery.S_TOL:
                    raise ValueError("vector is not tangent to the hypersurface")
                v = np.zeros(8)
                v[5:8] = t  # w-block of the flat layout (nxy=1, nzw=3)
                worst = _worst_of(worst, abs(alpha(u, v)))
        return worst, 50, {}

    @check("liouville-expansion",
           "the field (x/2, y/2, 2z, -w) satisfies L_X omega = omega for dx^dy + dz^dw",
           ["liouville_X", "liouville_residual"], LIOUVILLE_TOL)
    def liouville_main():
        rng = check_rng(cfg.seed, "liouville-main")
        fld = surgery.liouville_field(1, 2)
        om = surgery.omega0_form(1, 2)
        frame = list(np.eye(6))
        pts = rng.standard_normal((cfg.n_liouville, 6))  # x | y | z(2) | w(2) of each point
        worst = float(np.max(forms.liouville_residual(fld, om, pts, frame)))
        return worst, cfg.n_liouville, {}

    @check("liouville-speed-family",
           "((1+a) z, -a w) is Liouville for dz^dw at every speed a",
           ["liouville_X_a", "liouville_residual"], LIOUVILLE_TOL)
    def liouville_a():
        rng = check_rng(cfg.seed, "liouville-a")
        worst = 0.0
        om = surgery.omega0_form(0, 2)
        frame = list(np.eye(4))
        for a in (0.0, 1.0, 10.0):
            fld = surgery.liouville_a_field(0, 2, a)
            pts = rng.standard_normal((30, 4))  # z(2) | w(2) of each point
            worst = _worst_of(worst,
                              float(np.max(forms.liouville_residual(fld, om, pts, frame))))
        fld = surgery.liouville_a_field(0, 2, 1.0)
        vec = fld(np.array([1.0, 0.0, 0.0, 1.0]))
        worst = _worst_of(worst, float(np.max(np.abs(vec - np.array([2.0, 0.0, 0.0, -1.0])))))
        return worst, 91, {"a": [0.0, 1.0, 10.0]}

    @check("level-set-transversality",
           "(|x|^2/2 + |y|^2/2 + 2|z|^2) g' + |w|^2 f' stays positive on the "
           "surgered hypersurface (it is half the Liouville derivative of the level function)",
           ["transversality_margin", "f_eval"], 0.0)
    def transversality():
        worst_floor = -math.inf
        total = 0
        mins = {}
        for delta in (0.05, 0.1):
            rng = check_rng(cfg.seed, f"scan-{delta}")
            pts = surgery.sample_s1_points(rng, cfg.n_surface_scan, 1, 2, delta)
            margins = surgery.transversality_margins(pts, 1, 2, delta)
            mins[str(delta)] = float(margins.min())
            worst_floor = _worst_of(worst_floor, POSITIVITY_FLOOR - float(margins.min()))
            total += cfg.n_surface_scan
        # frozen flat-piece values of the margin, rows (z | w) outer and inner
        frozen = np.array([[math.sqrt(1.5), 0.0, 1.0, 0.0], [1.0, 0.0, 0.8, 0.0]])
        outer, inner = surgery.transversality_margins(frozen, 0, 2, 0.1)
        worst = _worst_of(worst_floor, abs(outer - 1.0), abs(inner - 2.0))
        return worst, total + 2, {"min_margin": mins}

    @check("handle-function-values",
           "-f(|w|^2) + g(|x|^2+|y|^2+|z|^2) takes its frozen values on the "
           "flat pieces, at the origin and far out the w axis",
           ["f_eval"], 1e-12)
    def f_values():
        level = surgery.level_value(0, 2, 0.1)  # flat layout z(2) | w(2)
        worst = abs(level(np.array([math.sqrt(1.5), 0.0, 1.0, 0.0])))
        worst = _worst_of(worst, abs(level(np.zeros(4)) + 1.0))
        worst = _worst_of(worst, abs(level(np.array([0.0, 0.0, 2.0, 0.0])) + (4.0 + 0.1)))
        return worst, 3, {}

    @check("page-hamiltonian-sign",
           "2 g' z d_w + 2 f' w d_z contracts the symplectic form to minus the "
           "differential of the handle function",
           ["hamiltonian_field_xf", "omega0_eval"], LIOUVILLE_TOL)
    def hamiltonian_sign():
        rng = check_rng(cfg.seed, "xf-sign")
        xf_field = surgery.handle_hamiltonian_rhs(0, 2, 0.05)  # flat layout z(2) | w(2)
        gradient = surgery.level_gradient(0, 2, 0.05)
        omega = surgery.omega0_form(0, 2)
        worst = 0.0
        for _ in range(100):
            u = np.concatenate([rng.standard_normal(2) * 0.9, rng.standard_normal(2) * 0.9])
            xf = xf_field(u)
            grad = gradient(u)
            for v in np.eye(4):
                worst = _worst_of(worst, abs(omega(u, xf, v) + grad @ v))
        # flat piece |z| = 1: the field is 2 z in the w slot
        u = np.array([1.0, 0.0, 0.3, 0.1])
        xf = xf_field(u)
        worst = _worst_of(worst, float(np.max(np.abs(xf[2:] - 2.0 * u[:2]))),
                          float(np.max(np.abs(xf[:2]))))
        return worst, 101, {"convention": "i_X omega = -dF"}

    @check("reeb-field-on-model",
           "the w vector in the z slot has alpha(R) = 1 and contracts d(alpha) "
           "to zero on the hypersurface tangent spaces",
           ["reeb_s_minus1", "alpha_s_minus1_eval"], 1e-7)
    def reeb_properties():
        rng = check_rng(cfg.seed, "reeb-props")
        worst = 0.0
        alpha = surgery.alpha_model_form(0, 2)
        reeb = surgery.reeb_field(0, 2)  # flat layout z(2) | w(2)
        rows = surgery.random_s_minus1_points(rng, 20, 0, 2)
        for u, frame in zip(rows, surgery.s_minus1_tangent_frames(rows, 0, 2)):
            r_vec = reeb(u)
            worst = _worst_of(worst, abs(alpha(u, r_vec) - 1.0))
            for v in frame:
                dval = forms.exterior_derivative(alpha, u, [r_vec, v])
                worst = _worst_of(worst, abs(dval))
        u = np.array([0.2, -0.4, 1.0, 0.0])
        r_vec = reeb(u)
        worst = _worst_of(worst, float(np.max(np.abs(r_vec[:2] - u[2:]))),
                          float(np.max(np.abs(r_vec[2:]))))
        return worst, 21, {}

    @check("page-function-values",
           "the page function z.w advances at unit rate along the Reeb field",
           ["theta_page", "flow_fixed_time"], 1e-10)
    def theta_values():
        page = surgery.page_value(0, 2)  # flat layout z(2) | w(2)
        u = np.array([-0.1, 0.5, 1.0, 0.0])
        worst = abs(page(u) + 0.1)
        worst = _worst_of(worst, abs(page(np.array([0.0, 0.0, 1.0, 0.0]))))
        # after Reeb time s the page value moves to -eps + s
        fld = surgery.reeb_field(0, 2)
        out = flows.flow_fixed_time(fld, u, 0.3, 1e-3)
        worst = _worst_of(worst, abs(float(out[:2] @ out[2:]) - (-0.1 + 0.3)))
        return worst, 3, {}

    @check("symplectic-form-values",
           "dx^dy + dz^dw on paired, repeated and mixed block vectors",
           ["omega0_eval"], 1e-14)
    def omega_values():
        omega = surgery.omega0_form(1, 2)
        u = np.zeros(6)
        e = np.eye(6)  # layout x | y | z(2) | w(2)
        worst = abs(omega(u, e[0], e[1]) - 1.0)   # (e_x1, e_y1)
        worst = _worst_of(worst, abs(omega(u, e[0], e[0])))
        v1 = e[2] + e[4]   # e_z1 + e_w1
        v2 = e[2] - e[4]
        worst = _worst_of(worst, abs(omega(u, v1, v2) + 2.0))
        return worst, 3, {}

    @check("plurisubharmonic-metric",
           "-d(df o J)(U, J V) is positive definite for the round quarter-square "
           "potential and degenerate or indefinite for harmonic ones",
           ["psh_gram_matrix"], 1e-6)
    def psh():
        worst = 0.0
        # f = |u|^2/4 on the plane: the candidate metric is the identity
        gram = forms.psh_gram_matrix(lambda u: 0.5 * u, np.array([0.3, -0.2]), list(np.eye(2)))
        worst = _worst_of(worst, float(np.max(np.abs(gram - np.eye(2)))))
        # constant f = 1.5: zero matrix, not positive definite
        gram = forms.psh_gram_matrix(lambda u: np.zeros(2), np.array([0.1, 0.4]), list(np.eye(2)))
        worst = _worst_of(worst, float(np.max(np.abs(gram))))
        # harmonic saddle f = u0^2 - u1^2: zero matrix as well (fails positivity)
        gram = forms.psh_gram_matrix(lambda u: np.array([2.0 * u[0], -2.0 * u[1]]),
                                     np.array([0.2, 0.3]), list(np.eye(2)))
        worst = _worst_of(worst, float(np.max(np.abs(gram))))
        # f = (u0^2 + u1^2)/4 - (u2^2 + u3^2)/4: genuinely indefinite on two complex lines
        gram = forms.psh_gram_matrix(lambda u: 0.5 * np.array([u[0], u[1], -u[2], -u[3]]),
                                     0.1 * np.ones(4), list(np.eye(4)))
        eig = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        if not (eig.min() < -0.5 and eig.max() > 0.5):
            worst = _worst_of(worst, 1.0)
        return worst, 4, {}

    @check("hypersurface-contact-volume",
           "alpha wedge (d alpha)^n is nowhere zero on tangent frames of the "
           "|w|^2 = 1 hypersurface",
           ["contact_volume", "alpha_s_minus1_eval"], 0.0)
    def contact_volume_sminus1():
        rng = check_rng(cfg.seed, "volume-sminus1")
        alpha = surgery.alpha_model_form(1, 2)
        liouville = surgery.liouville_field(1, 2)
        # positive ambient orientation pairs the coordinates (x1,y1,...,z1,w1,...)
        pair_order = [0, 1, 2, 4, 3, 5]  # block layout x|y|z(2)|w(2) reordered
        worst = -math.inf
        vol_min = math.inf
        rows = surgery.random_s_minus1_points(rng, 30, 1, 2)
        for u, frame in zip(rows, surgery.s_minus1_tangent_frames(rows, 1, 2)):
            # flip one frame vector so that (Liouville direction, frame) is a
            # positive ambient basis: the volume's sign is then intrinsic
            full = np.column_stack([liouville(u)] + list(frame))
            if np.linalg.det(full[pair_order, :]) < 0:
                frame[-1] = -frame[-1]
            vol = forms.contact_volume(alpha, u, frame)
            vol_min = min(vol_min, vol)
            worst = _worst_of(worst, POSITIVITY_FLOOR - vol)
        return _worst_of(worst, 0.0), 30, {"min_volume": vol_min}

    @check("handle-membership-oracle",
           "flow conditions: backward reach of the gluing collar and forward "
           "reach of the surgered hypersurface",
           ["handle_membership"], 0.0)
    def membership():
        rng = check_rng(cfg.seed, "membership")
        # the origin and a point far out the z axis: rows x | y | z(2) | w(2)
        origin_far = np.array([[0.0] * 6, [0.0, 0.0, 3.0, 0.0, 0.0, 0.0]])
        pts = surgery.sample_s1_points(rng, 10, 1, 2, 0.05, rho2_max=1.8)
        verdicts = surgery.handle_memberships(np.vstack([origin_far, pts]), 1, 2, 0.05)
        hits = sum(v is True for v in verdicts[2:])
        worst = 0.0 if all(v is False for v in verdicts[:2]) and hits >= 8 else 1.0
        return worst, 12, {"surface_hits": hits}

    @check("finite-difference-order",
           "central-difference Jacobians converge at second order against the analytic one",
           [], 0.0)
    def fd_order():
        # halving the step must cut the central-difference Jacobian error ~4x
        def func(u):
            return np.array([math.sin(u[0]) * u[1] ** 2, math.exp(0.3 * u[0] - u[1])])

        def jac(u):
            return np.array([
                [math.cos(u[0]) * u[1] ** 2, 2.0 * u[1] * math.sin(u[0])],
                [0.3 * math.exp(0.3 * u[0] - u[1]), -math.exp(0.3 * u[0] - u[1])],
            ])

        x = np.array([0.4, 0.7])
        errs = []
        for h in (1e-3, 5e-4):
            errs.append(float(np.max(np.abs(forms.fd_jacobian(func, x, h) - jac(x)))))
        factor = errs[0] / errs[1]
        worst = 0.0 if 3.0 <= factor <= 5.0 else abs(factor - 4.0)
        return worst, 2, {"factor": factor}


# ===========================================================================
# monodromy suite
# ===========================================================================

# pipeline-vs-closed-form's bound on the recognized twist's matrix residual,
# and the log-log slopes that smoothing-window-bound accepts as linear
TWIST_MATRIX_BOUND = 1e-9
WINDOW_EXPONENT_LOW, WINDOW_EXPONENT_HIGH = 0.7, 1.3
# z,w block sizes of the pages that pre-surgery-trivial and
# pipeline-vs-closed-form draw their starts on
PAGE_BLOCKS = (2, 3, 4)


@suite("monodromy")
def suite_monodromy(cfg: ScenarioConfig, check) -> None:
    eps, delta = 0.1, 0.05  # page half-angle and smoothing width
    flow_cfg = IntegratorConfig(max_time=2.0, event_tol=1e-12)

    @check("pre-surgery-trivial",
           "Reeb transport over page-time 2*eps keeps the (w, r) page decomposition fixed",
           ["pre_surgery_monodromy", "flow_until_event"], 1e-10)
    def pre_surgery():
        rng = check_rng(cfg.seed, "pre-surgery")
        drawn = {}  # block size, then start, per start
        for _ in range(50):
            nzw = int(rng.choice(PAGE_BLOCKS))
            drawn.setdefault(nzw, []).append(mono.admissible_start(rng, nzw, eps, 0.05))
        groups = [np.array(rows) for rows in drawn.values()]
        worst = 0.0
        for starts, outs in zip(groups, mono.pre_surgery_monodromy(groups, eps, flow_cfg)):
            w_in, r_in = mono.page_decomposition(starts, -eps)
            w_out, r_out = mono.page_decomposition(outs, +eps)
            worst = _worst_of(worst, float(np.max(np.abs(w_out - w_in))),
                              float(np.max(np.abs(r_out - r_in))))
        return worst, 50, {}

    @check("pipeline-vs-closed-form",
           "limit transfer + page flow + inverse transfer reproduces "
           "(z, w + 2 eps z/|z|^2), which the block circle matrix decomposes",
           ["post_surgery_pipeline", "post_surgery_closed_form", "recognize_dehn_twist",
            "limit_transfer_to_s1", "flow_until_event"], 1e-6)
    def pipeline():
        worst = 0.0
        worst_matrix = 0.0
        worst_wnorm = 0.0
        groups = []
        for nzw in PAGE_BLOCKS:
            rng = check_rng(cfg.seed, f"pipeline-{nzw}")
            groups.append(np.array([mono.admissible_start(rng, nzw, eps, delta)
                                    for _ in range(cfg.n_monodromy)]))
        for starts, ends in zip(groups, mono.post_surgery_pipeline_batch(groups, eps, delta,
                                                                         flow_cfg)):
            closed = mono.post_surgery_closed_form(starts, eps)
            worst = _worst_of(worst, float(np.max(np.abs(ends - closed))))
            w = closed[:, closed.shape[1] // 2:]
            worst_wnorm = _worst_of(worst_wnorm,
                                    float(np.max(np.abs(np.sqrt(np.vecdot(w, w)) - 1.0))))
            tw = mono.recognize_dehn_twist(starts, closed, eps)
            worst_matrix = _worst_of(worst_matrix, float(np.max(tw.matrix_residual)),
                                     float(np.max(tw.circle_defect)))
        details = {"matrix_residual": worst_matrix, "wnorm_defect": worst_wnorm}
        if worst_matrix > TWIST_MATRIX_BOUND:
            worst = _worst_of(worst, 1.0)
        if worst_wnorm > 1e-12:
            worst = _worst_of(worst, 1.0)
        return worst, sum(map(len, groups)), details

    @check("worked-page-point",
           "the page point with w = (1,0), r = (0,1/2), eps = 1/10 lands on "
           "w = (12/13, 5/13) with matching circle functions",
           ["post_surgery_closed_form", "recognize_dehn_twist"], 1e-6)
    def worked_point():
        start = mono.build_start(np.array([1.0, 0.0]), np.array([0.0, 0.5]), 0.1)[None]
        out = mono.post_surgery_closed_form(start, 0.1)
        w_out = out[0, 2:]
        worst = float(np.max(np.abs(w_out - np.array([12.0 / 13.0, 5.0 / 13.0]))))
        tw = mono.recognize_dehn_twist(start, out, 0.1)
        minus_cos_g, sin_g = -float(tw.cos_g[0]), float(tw.sin_g[0])
        worst = _worst_of(worst, abs(minus_cos_g - 12.0 / 13.0))
        return worst, 1, {"w_out": [float(v) for v in w_out],
                          "minus_cos_g": minus_cos_g, "sin_g": sin_g}

    @check("twist-angle-extremes",
           "the recognized angle passes through the quarter circle at |r| = eps "
           "and the transport approaches the identity for |r| >> eps",
           ["recognize_dehn_twist", "post_surgery_closed_form"], 1e-9)
    def twist_tail():
        # far from the surgered sphere the transport displacement shrinks to 2*eps/|r|
        w = np.array([1.0, 0.0])
        r_norm = 1000.0 * eps
        start = mono.build_start(w, np.array([0.0, r_norm]), eps)[None]
        out = mono.post_surgery_closed_form(start, eps)
        displacement = float(np.max(np.abs(out[0, 2:] - w)))
        worst = 0.0 if displacement < 3e-3 else displacement
        # |r| = eps gives the quarter-circle matrix (0, 1/|r|; -|r|, 0)
        start2 = mono.build_start(w, np.array([0.0, eps]), eps)[None]
        tw = mono.recognize_dehn_twist(start2, mono.post_surgery_closed_form(start2, eps), eps)
        worst = _worst_of(worst, abs(float(tw.cos_g[0])), abs(float(tw.sin_g[0]) - 1.0))
        return worst, 2, {"far_displacement": displacement}

    @check("page-speed-law",
           "along the flat-piece page flow the page value grows as -eps + 2s",
           ["flow_until_event", "theta_page"], 1e-8)
    def page_speed():
        rng = check_rng(cfg.seed, "page-speed")
        starts = np.array([mono.admissible_start(rng, 2, eps, delta) for _ in range(20)])
        on_s1 = surgery.limit_transfers_to_s1(starts, 0, 2, delta)
        fld = surgery.handle_hamiltonian_rhs(0, 2, delta)
        worst = 0.0
        for traj in flows.trajectories_until_event(fld, on_s1, surgery.page_value(0, 2),
                                                   +eps, flow_cfg):
            worst = _worst_of(worst, mono.page_speed_residual(traj, eps))
            # at page speed 2 the flow from page -eps reaches page +eps at time eps
            miss = 1.0 if traj.t_event is None else abs(traj.t_event - eps)
            if miss > 1e-8:
                worst = _worst_of(worst, miss)
        return worst, 20, {}

    @check("transfer-preserves-page",
           "the infinite-speed transfer (z/|z|, |z| w) keeps z.w fixed exactly",
           ["limit_transfer_to_s1", "theta_page"], 1e-12)
    def transfer_theta():
        rng = check_rng(cfg.seed, "transfer-theta")
        starts = [mono.admissible_start(rng, 3, eps, delta) for _ in range(100)]
        # last, the point z = (-0.1, 0.5, 0), w = (1, 0, 0), whose closed-form
        # image is (z/|z|, |z| w)
        example = np.array([-0.1, 0.5, 0.0, 1.0, 0.0, 0.0])
        outs = surgery.limit_transfers_to_s1(starts + [example], 0, 3, delta)
        worst = 0.0
        for start, out in zip(starts, outs):
            worst = _worst_of(worst,
                              abs(float(out[:3] @ out[3:]) - float(start[:3] @ start[3:])))
        z_norm = math.sqrt(0.26)
        closed = np.array([-0.1 / z_norm, 0.5 / z_norm, 0.0, z_norm, 0.0, 0.0])
        worst = _worst_of(worst, float(np.max(np.abs(outs[-1] - closed))))
        return worst, 101, {}

    @check("finite-speed-transfer",
           "the closed-form ((1+a)z, -aw) transfer agrees with event-detected "
           "integration of the same field and fixes points already on the level set",
           ["transfer_to_s1_finite_a", "flow_until_event"], 1e-8)
    def finite_transfer():
        rng = check_rng(cfg.seed, "finite-transfer")
        starts = [mono.admissible_start(rng, 2, eps, delta) for _ in range(10)]
        # and rows already on the surgered hypersurface, at speed 50: zero transfer time
        on_level = [row for row in surgery.sample_s1_points(check_rng(cfg.seed, "ft2"), 3, 0, 2,
                                                            delta)
                    if float(np.linalg.norm(row[:2])) != 0.0]
        outs = surgery.finite_transfers_to_s1(starts + on_level, 0, 2,
                                              [1000.0] * 10 + [50.0] * len(on_level),
                                              delta)
        fld = surgery.liouville_a_field(0, 2, 1000.0)
        level = surgery.level_value(0, 2, delta)
        cfg_i = IntegratorConfig(step=1e-5, max_time=0.5, event_tol=1e-13)
        t_event, ends = flows.flow_rows_until_event(fld, starts, level, 0.0, cfg_i)
        worst = 0.0
        for t, end, closed_end in zip(t_event, ends, outs):
            if math.isnan(t):
                worst = _worst_of(worst, 1.0)
                continue
            worst = _worst_of(worst, float(np.max(np.abs(end - closed_end))))
        for row, out in zip(on_level, outs[10:]):
            worst = _worst_of(worst, float(np.max(np.abs(out - row))))
        return worst, 13, {}

    @check("finite-speed-convergence",
           "transfer error against the infinite-speed limit decreases monotonically in a",
           ["transfer_to_s1_finite_a", "post_surgery_pipeline"], 0.0)
    def a_convergence():
        rng = check_rng(cfg.seed, "a-conv")
        start = mono.admissible_start(rng, 2, eps, delta)
        a_values = (10.0, 100.0, 1000.0, 10000.0)
        errs = mono.a_convergence_scan(start, list(a_values), eps, delta, flow_cfg)
        ordered = [errs[a] for a in a_values]
        monotone = all(ordered[i + 1] < ordered[i] for i in range(len(ordered) - 1))
        worst = 0.0 if monotone else 1.0
        return worst, len(a_values), {"errors": {str(a): errs[a] for a in a_values}}

    @check("smoothing-window-bound",
           "pipeline-vs-closed-form deviation for starts inside the smoothing "
           "window shrinks linearly with the smoothing width",
           ["post_surgery_pipeline", "limit_transfer_to_s1"], 0.0)
    def window_fit():
        rng = check_rng(cfg.seed, "window")
        deltas = (0.02, 0.01, 0.005)
        fits = {}
        worst = 0.0
        scan = mono.delta_deviation_scan(rng, list(deltas), cfg.n_window, (2, 3), 0.24,
                                         flow_cfg)
        for nzw, devs in scan.items():
            slope = mono.fit_log_slope(list(devs), list(devs.values()))
            cs = {str(d): devs[d] / d for d in devs}
            fits[str(nzw)] = {"slope": slope, "fitted_C": cs,
                              "deviations": {str(d): devs[d] for d in devs}}
            if not WINDOW_EXPONENT_LOW <= slope <= WINDOW_EXPONENT_HIGH:
                worst = _worst_of(worst, abs(slope - 1.0))
        return worst, 2 * cfg.n_window * len(deltas), fits

    @check("integrator-order",
           "halving the step cuts the endpoint error of the classical scheme by >= 8",
           ["flow_fixed_time"], 0.0)
    def flow_order():
        # quartic error decay against the closed-form linear flow
        z, w = np.array([0.3, -0.2]), np.array([0.7, 0.4])
        fld = surgery.liouville_field(0, 2)
        t_final = 1.0
        exact = np.concatenate([z * math.exp(2.0 * t_final), w * math.exp(-t_final)])
        errs = []
        for step in (0.02, 0.01):
            out = flows.flow_fixed_time(fld, np.concatenate([z, w]), t_final, step)
            errs.append(float(np.max(np.abs(out - exact))))
        factor = errs[0] / errs[1]
        worst = 0.0 if factor >= 8.0 else 8.0 - factor
        return worst, 2, {"factor": factor, "errors": errs}

    @check("flow-invariants",
           "Reeb flow preserves the collar constraint and unit pairing; the page "
           "Hamiltonian flow preserves the handle level set after projection",
           ["flow_fixed_time", "reeb_s_minus1"], 1e-8)
    def flow_invariants():
        rng = check_rng(cfg.seed, "flow-invariants")
        worst = 0.0
        # Reeb flow keeps alpha(R) = 1 and |w|^2 = 1 over time 1
        alpha = surgery.alpha_model_form(0, 2)
        fld = surgery.reeb_field(0, 2)
        unit_w = surgery.unit_w_projection(0, 2)
        starts = surgery.random_s_minus1_points(rng, 5, 0, 2)
        traj = flows.flow_record(fld, starts, 1.0, 1e-3, unit_w)
        sampled = traj.points[:: max(1, len(traj.points) // 20)]
        for i in range(len(starts)):
            for row in sampled[:, i]:
                w = row[2:]
                worst = _worst_of(worst, abs(float(w @ w) - 1.0))
                worst = _worst_of(worst, abs(alpha(row, fld(row)) - 1.0))
        # Hamiltonian page flow preserves the level value
        fld_h = surgery.handle_hamiltonian_rhs(0, 2, 0.1)
        on_level = surgery.level_projection(0, 2, 0.1)
        level = surgery.level_value(0, 2, 0.1)
        pts = surgery.sample_s1_points(check_rng(cfg.seed, "fi2"), 5, 0, 2, 0.1)
        for row in pts:
            out = flows.flow_fixed_time(fld_h, row, 0.25, 1e-3, on_level)
            worst = _worst_of(worst, abs(level(out)))
        return worst, 10, {}

    @check("twist-word-composition",
           "words of chart twists compose associatively and cyclic rotation "
           "conjugates the composed map",
           ["composed_monodromy_word", "recognize_dehn_twist"], 1e-8)
    def word_composition():
        worst = 0.0
        base = np.array([[1.0, 0.0, 0.0, 0.0, 0.4, 0.2]])  # [q | p] in chart A
        out = mono.composed_monodromy_word(base, "A", [], eps)
        worst = _worst_of(worst, float(np.max(np.abs(out - base))))
        # one letter equals the recognized block matrix action
        one = mono.composed_monodromy_word(base, "A", [("A", 1)], eps)
        w_pred, r_pred, _, _ = mono.twist_prediction(base[:, :3], base[:, 3:], eps)
        worst = _worst_of(worst, float(np.max(np.abs(one[:, :3] - w_pred))),
                          float(np.max(np.abs(one[:, 3:] - r_pred))))
        # cyclic rotation acts by conjugation at the orbit level
        word = [("A", 1), ("B", 1), ("A", -1), ("A", 1)]
        rotated = [word[-1]] + word[:-1]
        last = word[-1]
        m_word = mono.composed_monodromy_word(base, "A", word, eps)
        transported = mono.twist_letter_action(base, eps, -last[1])
        m_rot = mono.composed_monodromy_word(transported, "A", rotated, eps)
        m_expected = mono.twist_letter_action(m_word, eps, -last[1])
        worst = _worst_of(worst, float(np.max(np.abs(m_rot - m_expected))))
        return worst, 3, {}


# ===========================================================================
# giroux suite
# ===========================================================================

# the correcting flow's integrator, and the Gauss-Legendre nodes per segment
# of the line-integral primitives, in the giroux suite.  The correcting flow
# reads only the step, which giroux_flow_batch takes bare; GIROUX_FLOW and
# BUMP_FLOW stay IntegratorConfigs because openbook.giroux_correction takes
# one.  The identity, twist and shear checks and correction-fixes-support
# flow at GIROUX_FLOW's step 0.02, the integrated-flow check at BUMP_FLOW's
# 0.05, and primitive-path-independence at PATH_FLOW_STEP
GIROUX_FLOW = IntegratorConfig(step=0.02, max_time=2.0)
QUAD_NODES = 32
# primitive-path-independence's correcting-flow step.  Its residual compares
# line integrals of psi_hat^* lambda - lambda along two paths, and with h: it
# measures the quadrature, not the flow, and reads 3.09e-9 at seed 0 at this
# step as at 0.02.  Four flows of 1,926 rows make 320 Y-field calls here, 800
# at 0.02, and a Y scaled by 1 + 1e-3 fails the check at both steps
PATH_FLOW_STEP = 0.05


def _giroux_batched_eval(domain, candidate, samples: Array, step: float):
    """h, dh, psi_hat and its Jacobian over the samples from one vectorized
    integration of the correcting flow (center plus FD neighbors)."""
    fd = 1e-5
    m, d = samples.shape
    variants = [samples]
    for i in range(d):
        e = np.zeros(d)
        e[i] = fd
        variants.append(samples + e)
        variants.append(samples - e)
    allpts = np.vstack(variants)
    ev = ob.giroux_flow_batch(domain, candidate, allpts, step)
    h = ev.h.reshape(2 * d + 1, m)
    ph = ev.psi_hat.reshape(2 * d + 1, m, d)
    dh = np.stack([(h[1 + 2 * i] - h[2 + 2 * i]) / (2.0 * fd)
                   for i in range(d)], axis=1)
    jac = np.stack([(ph[1 + 2 * i] - ph[2 + 2 * i]) / (2.0 * fd)
                    for i in range(d)], axis=2)
    nu = np.einsum("mi,mik->mk", domain.lam_coeffs(ph[0]), jac) \
        - domain.lam_coeffs(samples)
    return {"h": h[0], "dh": dh, "psi_hat": ph[0], "jac": jac, "nu": nu}


def _giroux_case_residuals(seed: int, domain, candidate, name: str,
                           n_samples: int, flow_cfg: IntegratorConfig):
    """The checked correction, the residual of the exactness identity over a
    batched sample set, and the d(lambda) residual of the corrected map."""
    rng = check_rng(seed, name)
    result = ob.giroux_correction(domain, candidate, flow_cfg, rng=rng,
                                  closedness_samples=8)
    samples = domain.sample(rng, n_samples)
    ev = _giroux_batched_eval(domain, candidate, samples, flow_cfg.step)
    worst = float(np.max(np.abs(ev["nu"] + ev["dh"])))
    # d(lambda) is preserved by the corrected map
    b_mat = domain.dlambda_const
    pull = np.einsum("mia,ij,mjb->mab", ev["jac"], b_mat, ev["jac"])
    dl_resid = float(np.max(np.abs(pull - b_mat[None])))
    return result, worst, dl_resid


def _line_primitives(domain, candidate, targets: Array) -> Array:
    """-(integral of nu = psi^* lambda - lambda) along the straight segment
    from the origin to each target, by :func:`openbook.path_quadrature`.

    nu is evaluated once on the stacked nodes of all targets; each target then
    adds its terms w * nu in node order, as a running sum from 0.0 does.
    """
    segments = [(np.zeros(domain.dim), x) for x in targets]
    nodes, weights, dirs = ob.path_quadrature(segments, QUAD_NODES)
    nu = forms.pullback_eval(candidate.batched, domain.lam, nodes, [dirs]) \
        - domain.lam(nodes, dirs)
    totals = np.zeros(len(targets))
    for terms in (weights * nu).reshape(len(targets), -1).T:
        totals += terms
    return -totals


# tolerance of the three exactness-correction residual checks
GIROUX_RESIDUAL_TOL = 1e-5


# the Hamiltonian bump of the integrated-flow check and of the two checks on
# its map.  The two map checks hold the map at step 0.02 to 1e-8: they catch
# a defect in the bump field.  The integrated-flow check runs its Y-flow and
# its own bump map at step 0.05: the Y-flow evaluates the map 4/step + 1
# times and each map makes 4/step field calls, 81 x 80 where step 0.02 makes
# 201 x 200.  RK4's O(h^4) error raises its residual about 2.5^4-fold, to
# 5.7e-8 at seed 0 and at most 1.2e-7 over seeds 0-39, still 87 times below
# GIROUX_RESIDUAL_TOL
BUMP_AMPLITUDE, BUMP_RADIUS = 0.15, 0.8
# the integrated-flow check's Y-flow; its bump map takes the same step
BUMP_FLOW = IntegratorConfig(step=0.05, max_time=2.0)


@suite("giroux")
def suite_giroux(cfg: ScenarioConfig, check) -> None:
    domain = ob.standard_disk_domain()
    bump = ob.hamiltonian_bump_map(BUMP_AMPLITUDE, BUMP_RADIUS, step=0.02)
    coarse_bump = ob.hamiltonian_bump_map(BUMP_AMPLITUDE, BUMP_RADIUS, step=BUMP_FLOW.step)

    @check("exactness-correction-identity",
           "the identity needs no correction: zero field, constant primitive",
           ["giroux_correction"], 1e-9)
    def identity_case():
        candidate = ob.identity_candidate(2)
        rng = check_rng(cfg.seed, "giroux-id")
        # the closedness precondition draws its samples before these
        ob.giroux_correction(domain, candidate, GIROUX_FLOW, rng=rng)
        samples = domain.sample(rng, 40)
        ev = ob.giroux_flow_batch(domain, candidate, samples, GIROUX_FLOW.step)
        worst = _worst_of(float(np.max(np.abs(ev.psi_hat - samples))),
                          float(np.max(np.abs(ev.h))))
        return worst, 40, {}

    @check("exactness-correction-twist",
           "after the correcting flow, the pullback of the primitive differs "
           "from it by an exact form: |psi_hat^* lambda - lambda + dh| small",
           ["giroux_correction"], GIROUX_RESIDUAL_TOL)
    def twist_case():
        candidate = ob.radial_twist_map(0.8, 0.8)
        result, worst, dl = _giroux_case_residuals(
            cfg.seed, domain, candidate, "giroux-twist", cfg.n_giroux, GIROUX_FLOW)
        return worst, cfg.n_giroux, {"mu_closedness": result.mu_closedness,
                                     "cond_max": result.cond_max,
                                     "dlambda_residual": dl}

    @check("exactness-correction-shear",
           "a map already satisfying the exactness identity has its known "
           "primitive recovered by line integration, up to an additive constant",
           ["giroux_correction"], GIROUX_RESIDUAL_TOL)
    def shear_case():
        candidate, h0 = ob.strip_shear_map(0.5, 0.8)
        _, worst, dl = _giroux_case_residuals(
            cfg.seed, domain, candidate, "giroux-shear", cfg.n_giroux, GIROUX_FLOW)
        # the map already satisfies psi^* lambda = lambda - d h0: the
        # line-integral primitive of its defect recovers h0 up to a constant
        rng = check_rng(cfg.seed, "giroux-shear-h0")
        targets = domain.sample(rng, 12)
        h_lines = _line_primitives(domain, candidate, targets)
        offsets = [h_line - h0(x) for h_line, x in zip(h_lines, targets)]
        spread = float(np.max(offsets) - np.min(offsets))
        worst = _worst_of(worst, spread)
        return worst, cfg.n_giroux, {"h0_offset_spread": spread,
                                     "dlambda_residual": dl}

    @check("exactness-correction-integrated-flow",
           "the correction also succeeds on a map built by integrating a "
           "compactly supported Hamiltonian field",
           ["giroux_correction"], GIROUX_RESIDUAL_TOL)
    def numeric_flow_case():
        result, worst, dl = _giroux_case_residuals(
            cfg.seed, domain, coarse_bump, "giroux-bump", cfg.n_giroux_numeric, BUMP_FLOW)
        return worst, cfg.n_giroux_numeric, {"mu_closedness": result.mu_closedness,
                                             "dlambda_residual": dl}

    @check("bump-map-exact-rotation",
           "the time-1 flow of H = A (1 - |u|^2/r0^2)_+^4 turns each circle about "
           "the origin by c(|u|^2) = -8A/r0^2 (1 - |u|^2/r0^2)_+^3",
           ["flow_fixed_time"], 1e-8)
    def bump_rotation():
        rng = check_rng(cfg.seed, "bump-rotation")
        pts = rng.uniform(-BUMP_RADIUS, BUMP_RADIUS, (12, 2))
        base = np.maximum(1.0 - (pts * pts).sum(axis=1) / BUMP_RADIUS ** 2, 0.0)
        c = -8.0 * BUMP_AMPLITUDE / BUMP_RADIUS ** 2 * base ** 3
        cos, sin = np.cos(c), np.sin(c)
        exact = np.stack([cos * pts[:, 0] + sin * pts[:, 1],
                          -sin * pts[:, 0] + cos * pts[:, 1]], axis=1)
        return float(np.max(np.abs(bump.batched.func(pts) - exact))), len(pts), {}

    @check("bump-map-carried-jacobian",
           "the Jacobian carried by the bump map's variational flow is the "
           "derivative of the map: it matches central differences of the map",
           ["flow_fixed_time"], 1e-8)
    def bump_jacobian():
        rng = check_rng(cfg.seed, "bump-jacobian")
        pts = rng.uniform(-BUMP_RADIUS, BUMP_RADIUS, (12, 2))
        fd = 1e-5
        # the points, then their +e0, -e0, +e1, -e1 neighbours, as one flow
        shifts = fd * np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        img, jac = bump.batched.func_jac(np.vstack([pts, *(pts + e for e in shifts)]))
        img = img.reshape(5, len(pts), 2)
        central = np.stack([(img[1] - img[2]) / (2.0 * fd),
                            (img[3] - img[4]) / (2.0 * fd)], axis=2)
        return float(np.max(np.abs(jac[:len(pts)] - central))), len(pts), {}

    @check("primitive-path-independence",
           "the line-integral primitive agrees across independent paths and with "
           "the flow-quadrature primitive",
           ["giroux_correction"], 1e-5)
    def path_independence():
        candidate = ob.radial_twist_map(0.8, 0.8)
        rng = check_rng(cfg.seed, "giroux-path")
        base = domain.sample_box.mean(axis=1)
        targets = domain.sample(rng, 4)
        worst = 0.0
        for x in targets:
            # radial path and an axis-aligned dog-leg through (x0, base1)
            corner = np.array([x[0], base[1]])
            paths = ([(base, x)], [(base, corner), (corner, x)])
            quads = [ob.path_quadrature(segs, QUAD_NODES) for segs in paths]
            all_nodes = np.vstack([q[0] for q in quads] + [x[None, :]])
            ev = _giroux_batched_eval(domain, candidate, all_nodes, PATH_FLOW_STEP)
            rows, h_vals = ev["nu"], ev["h"]
            integrals = []
            offset = 0
            for nodes, weights, dirs in quads:
                chunk = rows[offset:offset + len(nodes)]
                integrals.append(-float(np.einsum("m,mi,mi->", weights, chunk, dirs)))
                offset += len(nodes)
            worst = _worst_of(worst, abs(integrals[0] - integrals[1]))
            worst = _worst_of(worst, abs(integrals[0] - h_vals[-1]))
        return worst, 4, {}

    @check("correction-fixes-support",
           "the correcting field vanishes with the pullback defect, so the "
           "corrected map equals the input outside its support box",
           ["giroux_correction", "pullback_eval"], 1e-8)
    def support_case():
        candidate = ob.radial_twist_map(0.8, 0.8)
        boundary = np.array([[0.95, 0.9], [-0.95, 0.9], [0.95, -0.9], [0.9, 0.95]])
        ev = ob.giroux_flow_batch(domain, candidate, boundary, GIROUX_FLOW.step)
        worst = float(np.max(np.abs(ev.psi_hat - candidate.batched(boundary))))
        return worst, len(boundary), {}

    @check("legendrian-realization",
           "subtracting d(rho g) makes the zero section Legendrian for dt + "
           "corrected primitive without changing the symplectic form",
           ["legendrian_realization"], 1e-5)
    def legendrian():
        rng = check_rng(cfg.seed, "legendrian")
        n = 2
        d = n + 1
        dim = 2 * d
        lam_can = sphere.canonical_one_form(dim)

        # exact perturbation lambda = lambda_can + d(xi) with a known potential
        cvec = np.array([0.3, -0.2, 0.4])

        def xi(x):
            q, p = x[:d], x[d:]
            return float((q @ cvec) * (1.0 + p @ p))

        def grad_xi(x):
            q, p = x[:d], x[d:]
            return np.concatenate([cvec * (1.0 + p @ p), 2.0 * (q @ cvec) * p])

        def lam_eval(x, v):
            return lam_can(x, v) + float(grad_xi(x) @ np.asarray(v, dtype=float))

        lam = forms.KFormOracle(1, dim, lam_eval)
        real = ob.legendrian_realization(n, lam)
        worst = 0.0
        # the potential is recovered up to a constant
        offsets = []
        for x in sphere.random_sphere_points(rng, 8, n, 0.0, 0.25):
            offsets.append(real.g(x[:d], x[d:]) - xi(x))
        worst = _worst_of(worst, float(np.max(offsets) - np.min(offsets)))
        # corrected primitive vanishes on zero-section tangents
        qs = sphere.random_sphere_points(rng, 8, n, 0.0, 0.0)[:, :d]
        for q, basis in zip(qs, sphere._orthonormal_complements(qs)):
            x = np.concatenate([q, np.zeros(d)])
            for u in basis:
                v = np.concatenate([u, np.zeros(d)])
                worst = _worst_of(worst, abs(real.lam_tilde(x, v)))
                worst = _worst_of(worst, abs(real.contact_form(np.concatenate([[0.0], x]),
                                                               np.concatenate([[0.0], v]))))
        # the correction is exact: d lambda_tilde = d lambda on tangent frames,
        # inside the cut-off and then in its band RHO_IN < |p| < RHO_OUT,
        # where d(rho g) carries rho'
        for p_low, p_high in ((0.05, 0.2), (0.32, 0.78)):
            rows = sphere.random_sphere_points(rng, 4, n, p_low, p_high)
            for x, frame in zip(rows, sphere.tangent_frames(rows[:, :d], rows[:, d:])):
                for i in range(0, len(frame), 2):
                    for j in range(i + 1, len(frame), 3):
                        lhs = forms.exterior_derivative(real.lam_tilde, x,
                                                        [frame[i], frame[j]], 1e-4)
                        rhs = forms.exterior_derivative(lam, x, [frame[i], frame[j]], 1e-4)
                        worst = _worst_of(worst, abs(lhs - rhs))
        return worst, 24, {}


# ===========================================================================
# binding suite
# ===========================================================================

def _circle_boundary_form():
    return forms.one_form(1, lambda u: np.array([1.0]), lambda u: np.zeros((1, 1)))


def _s3_boundary_form():
    def coeffs(u):
        return np.array([-u[1], u[0], -u[3], u[2]])

    def jac(u):
        j = np.zeros((4, 4))
        j[0, 1] = -1.0
        j[1, 0] = 1.0
        j[2, 3] = -1.0
        j[3, 2] = 1.0
        return j

    return forms.one_form(4, coeffs, jac)


@suite("binding")
def suite_binding(cfg: ScenarioConfig, check) -> None:
    profile = BindingProfile()

    @check("mapping-torus-volume",
           "lambda + dphi has positive contact volume over the page and pairs "
           "the circle direction to one",
           ["mapping_torus_form", "contact_volume"], 0.0)
    def torus_volume():
        rng = check_rng(cfg.seed, "torus-volume")
        domain = ob.standard_disk_domain()
        alpha = ob.mapping_torus_form(domain.lam)
        worst = -math.inf
        vol_min = math.inf
        frame = list(np.eye(3))
        for _ in range(100):
            x = np.append(domain.sample(rng, 1)[0], rng.uniform(0, 2 * math.pi))
            vol = forms.contact_volume(alpha, x, frame)
            vol_min = min(vol_min, vol)
            worst = _worst_of(worst, POSITIVITY_FLOOR - vol)
        # frozen values: the circle direction pairs to 1, page vectors with
        # lambda(v) = 0 pair to 0
        x = np.array([0.3, 0.0, 1.0])
        worst = _worst_of(worst, abs(alpha(x, np.array([0.0, 0.0, 1.0])) - 1.0))
        worst = _worst_of(worst, abs(alpha(x, np.array([1.0, 0.0, 0.0]))))
        return _worst_of(worst, 0.0), 102, {"min_volume": vol_min}

    @check("glue-map-pullback",
           "(x, r, phi) -> (1/2 - r, x, phi) pulls exp(s) boundary-form + dphi "
           "back to exp(1/2 - r) boundary-form + dphi",
           ["glue_map", "pullback_eval"], 1e-8)
    def glue_pullback():
        rng = check_rng(cfg.seed, "glue")
        lam_b = _circle_boundary_form()
        collar = ob.collar_form(lam_b)
        glue = ob.glue_map(1)
        worst = 0.0
        for _ in range(40):
            u = np.array([rng.uniform(0, 2 * math.pi),
                          rng.uniform(0.5001, 0.9999),
                          rng.uniform(0, 2 * math.pi)])
            r = u[1]
            for v in np.eye(3):
                lhs = forms.pullback_eval(glue, collar, u, [v])
                rhs = math.exp(0.5 - r) * v[0] + v[2]
                worst = _worst_of(worst, abs(lhs - rhs))
        # frozen values of the collar coordinate
        worst = _worst_of(worst, abs(glue(np.array([0.3, 0.5, 1.0]))[0]))
        worst = _worst_of(worst, abs(glue(np.array([0.3, 0.9, 1.0]))[0] + 0.4))
        return worst, 42, {}

    @check("collar-binding-overlap",
           "the binding form equals the glued collar form on the matching annulus",
           ["binding_form_polar", "glue_map"], 1e-14)
    def overlap_agreement():
        rng = check_rng(cfg.seed, "overlap")
        lam_b = _circle_boundary_form()
        collar = ob.collar_form(lam_b)
        glue = ob.glue_map(1)
        beta = ob.binding_form_polar(profile, lam_b)
        worst = 0.0
        for _ in range(60):
            u = np.array([rng.uniform(0, 2 * math.pi),
                          rng.uniform(profile.MATCHING_RADIUS, 0.9999),
                          rng.uniform(0, 2 * math.pi)])
            for v in np.eye(3):
                worst = _worst_of(worst, abs(forms.pullback_eval(glue, collar, u, [v])
                                             - beta(u, v)))
        # binding-side frozen values: the phi coefficient saturates at 1,
        # and at the axis the boundary form is scaled by h1(0)
        u = np.array([0.7, profile.MATCHING_RADIUS + 0.1, 0.2])
        worst = _worst_of(worst, abs(beta(u, np.array([0.0, 0.0, 1.0])) - 1.0))
        u0 = np.array([0.7, 0.0, 0.2])
        worst = _worst_of(worst, abs(beta(u0, np.array([1.0, 0.0, 0.0])) - profile.h1(0.0)))
        return worst, 62, {}

    @check("binding-volume-circle",
           "h1 lambda + h2 dphi has contact volume h1 h2' - h1' h2 > 0 across "
           "the collar radii for the circle binding",
           ["binding_form_polar", "contact_volume"], 0.0)
    def binding_volume_s1():
        lam_b = _circle_boundary_form()
        beta = ob.binding_form_polar(profile, lam_b)
        worst = -math.inf
        vol_min = math.inf
        frame = list(np.eye(3))
        count = 0
        for r in np.linspace(0.01, 0.95, 48):
            for theta in (0.0, 2.1):
                u = np.array([theta, r, 0.7])
                vol = forms.contact_volume(beta, u, frame)
                pred = profile.h1(r) * profile.h2_d(r) - profile.h1_d(r) * profile.h2(r)
                worst = _worst_of(worst, POSITIVITY_FLOOR - vol,
                                  abs(vol - pred) - 1e-7)
                vol_min = min(vol_min, vol)
                count += 1
        return _worst_of(worst, 0.0), count, {"min_volume": vol_min}

    @check("binding-volume-three-sphere",
           "the collar form over the standard contact three-sphere binding has "
           "positive contact volume on the radii grid",
           ["binding_form_polar", "contact_volume"], 0.0)
    def binding_volume_s3():
        rng = check_rng(cfg.seed, "binding-s3")
        lam_b = _s3_boundary_form()
        beta = ob.binding_form_polar(profile, lam_b)
        worst = -math.inf
        vol_min = math.inf
        count = 0
        for r in np.linspace(0.05, 0.95, 10):
            for _ in range(4):
                q = rng.standard_normal(4)
                q /= np.linalg.norm(q)
                tangent = sphere._orthonormal_complements(q[None])[0]
                # orient the 3-frame so the boundary form is positive
                lam_vol = forms.contact_volume(lam_b, q, tangent)
                if lam_vol < 0:
                    tangent[2] = -tangent[2]
                frame = [np.concatenate([t, [0.0, 0.0]]) for t in tangent]
                frame.append(np.eye(6)[4])
                frame.append(np.eye(6)[5])
                u = np.concatenate([q, [r, 1.3]])
                vol = forms.contact_volume(beta, u, frame)
                vol_min = min(vol_min, vol)
                worst = _worst_of(worst, POSITIVITY_FLOOR - vol)
                count += 1
        return _worst_of(worst, 0.0), count, {"min_volume": vol_min}

    @check("binding-smooth-across-axis",
           "in Cartesian disk coordinates the collar form extends evenly and "
           "smoothly across the binding axis (h2/r^2 -> 1)",
           ["binding_form_polar"], 1e-6)
    def cartesian_smooth():
        lam_b = _circle_boundary_form()
        beta_c = ob.binding_form_cartesian(profile, lam_b)
        worst = 0.0
        # coefficients near the axis: beta = h1(0) dtheta + (u dv - v du),
        # compared across the axis by even extension
        for ang in np.linspace(0.0, 2 * math.pi, 9):
            d = np.array([math.cos(ang), math.sin(ang)])
            for rad in (1e-3, 1e-4):
                plus = np.array([0.4, rad * d[0], rad * d[1]])
                minus = np.array([0.4, -rad * d[0], -rad * d[1]])
                for v in np.eye(3):
                    worst = _worst_of(worst, abs(beta_c(plus, v) + beta_c(minus, v)
                                                 - 2.0 * beta_c(np.array([0.4, 0.0, 0.0]), v)))
        # the phi-part coefficient ratio h2/r^2 is exactly 1 near the axis
        worst = _worst_of(worst, abs(profile.h2_over_r2(0.0) - 1.0))
        worst = _worst_of(worst, abs(profile.h2_over_r2(1e-6) - 1.0))
        return worst, 38, {}

    @check("binding-profile-shape",
           "h1 > 0 drops exponentially past the matching radius, h2 rises "
           "quadratically near the axis and saturates at 1, and the contact "
           "positivity combination stays positive",
           ["binding_form_polar"], 0.0)
    def profile_invariants():
        rs = np.linspace(1e-3, 0.999, 2000)
        h1 = np.array([profile.h1(r) for r in rs])
        h1d = np.array([profile.h1_d(r) for r in rs])
        h2 = np.array([profile.h2(r) for r in rs])
        h2d = np.array([profile.h2_d(r) for r in rs])
        worst = 0.0
        if h1.min() <= 0:
            worst = 1.0
        worst = _worst_of(worst, float(h1d.max()))  # non-increasing
        worst = _worst_of(worst, float((-h2d).max()))  # non-decreasing
        # exponential matching beyond the matching radius
        for r in (profile.MATCHING_RADIUS, 0.8, 0.95):
            worst = _worst_of(worst, abs(profile.h1(r) - math.exp(0.5 - r)))
        for r in (profile.MATCHING_RADIUS, 0.9):
            worst = _worst_of(worst, abs(profile.h2(r) - 1.0))
        for r in (0.05, 0.2):
            worst = _worst_of(worst, abs(profile.h2(r) - r * r))
        pos = h1 * h2d - h1d * h2
        worst = _worst_of(worst, POSITIVITY_FLOOR - float(pos.min()))
        return _worst_of(worst, 0.0), len(rs), {"min_positivity": float(pos.min())}

    @check("reeb-page-transversality",
           "the Reeb derivative of the page function is 1 for the model open "
           "book and for the surgery hypersurface, and 0 for the constructed "
           "non-adapted form",
           ["reeb_transversality_check"], 1e-6)
    def transversality():
        worst = 0.0
        # model open book, page function u[2]: R = circle direction, page derivative 1
        domain = ob.standard_disk_domain()
        alpha = ob.mapping_torus_form(domain.lam)
        rng = check_rng(cfg.seed, "adapted")
        samples = []
        for _ in range(10):
            x = np.append(domain.sample(rng, 1)[0], rng.uniform(0, 2 * math.pi))
            samples.append((x, list(np.eye(3))))
        val = ob.reeb_transversality_check(alpha, lambda u: np.array([0.0, 0.0, 1.0]), samples)
        worst = _worst_of(worst, abs(val - 1.0))
        # constructed failure: the Reeb field is tangent to the pages of y = u[1]
        alpha_bad = forms.one_form(3, lambda u: np.array([0.0, u[0], 1.0]),
                                   lambda u: np.array([[0.0, 0.0, 0.0],
                                                       [1.0, 0.0, 0.0],
                                                       [0.0, 0.0, 0.0]]))
        val_bad = ob.reeb_transversality_check(
            alpha_bad, lambda u: np.array([0.0, 1.0, 0.0]), samples)
        worst = _worst_of(worst, abs(val_bad))
        # the surgery model page function z . w against its Reeb field
        alpha_model = surgery.alpha_model_form(0, 2)
        rows = surgery.random_s_minus1_points(rng, 10, 0, 2)
        samples_m = list(zip(rows, surgery.s_minus1_tangent_frames(rows, 0, 2)))
        val_m = ob.reeb_transversality_check(
            alpha_model, lambda u: np.concatenate([u[2:], u[:2]]), samples_m)
        worst = _worst_of(worst, abs(val_m - 1.0))
        return worst, 30, {"model": val_m, "bad": val_bad}


# ===========================================================================
# moves suite
# ===========================================================================

def _sample_page(rng) -> mv.OpenBookDesc:
    handles = tuple(mv.Handle(f"h{i}", int(rng.integers(1, 3)), "std+D2")
                    for i in range(int(rng.integers(1, 4))))
    spheres = tuple(mv.LagrangianSphere(f"B{i}", (handles[int(rng.integers(0, len(handles)))].label,))
                    for i in range(int(rng.integers(1, 4))))
    disks = tuple(mv.DiskBoundary(f"d{i}", f"t{i}")
                  for i in range(int(rng.integers(1, 3))))
    page = mv.AbstractPage(3, handles, spheres, disks)
    word = tuple((spheres[int(rng.integers(0, len(spheres)))].label,
                  (-1, 1)[int(rng.integers(0, 2))])
                 for _ in range(int(rng.integers(0, 4))))
    return mv.OpenBookDesc(page, mv.reduce_word(word))


def _random_chain(rng, desc: mv.OpenBookDesc, length: int) -> mv.OpenBookDesc:
    cur = desc
    for _ in range(length):
        options = []
        if cur.word:
            options.extend(["rot", "rotb"])
        if cur.page.spheres:
            options.append("conj")
        if cur.page.disks:
            options.append("stab")
        undone = mv.destabilize(cur)
        if undone is not None:
            options.append("destab")
        op = options[int(rng.integers(0, len(options)))]
        if op == "rot":
            cur = mv.cyclic_rotate(cur)
        elif op == "rotb":
            cur = mv.cyclic_rotate_back(cur)
        elif op == "conj":
            sph = cur.page.spheres[int(rng.integers(0, len(cur.page.spheres)))]
            cur = mv.conjugate(cur, sph.label, (-1, 1)[int(rng.integers(0, 2))])
        elif op == "stab":
            disk = cur.page.disks[int(rng.integers(0, len(cur.page.disks)))]
            cur = mv.stabilize(cur, disk.label)
        else:
            cur = undone
    return cur


GOLDEN_DESCRIPTOR = """page 3
handle h(d1) index 3 framing t1+core
handle h0 index 1 framing std+D2
sphere B0 supports h0
sphere S(d1) supports h(d1) disk d1 tag t1
disk d2 tag t2
word B0^+1 S(d1)^+1
"""


@suite("moves")
def suite_moves(cfg: ScenarioConfig, check) -> None:
    @check("move-roundtrips",
           "attach-then-cancel, conjugate-then-unconjugate and rotate-then-unrotate "
           "are the identity on descriptors",
           ["stabilize", "destabilize", "conjugate", "cyclic_rotate"], 0.0)
    def roundtrips():
        rng = np.random.default_rng([cfg.seed, 101])
        bad = 0
        for _ in range(200):
            desc = _sample_page(rng)
            if desc.page.disks:
                disk = desc.page.disks[0].label
                stab = mv.stabilize(desc, disk)
                if mv.destabilize(stab) != desc:
                    bad += 1
            if desc.page.spheres:
                sph = desc.page.spheres[0].label
                conj = mv.conjugate(mv.conjugate(desc, sph, 1), sph, -1)
                if conj != desc:
                    bad += 1
            if len(desc.word) >= 2:
                first, last = desc.word[0], desc.word[-1]
                cyclically_reduced = not (first[0] == last[0] and first[1] == -last[1])
                # a cyclically reducible word legitimately shrinks under
                # rotation plus free reduction, so only reduced words invert
                if cyclically_reduced and mv.cyclic_rotate_back(mv.cyclic_rotate(desc)) != desc:
                    bad += 1
        return float(bad), 200, {}

    @check("word-move-values",
           "rotation, conjugation with free reduction, and page attachment with "
           "untouched word behave on the frozen examples",
           ["cyclic_rotate", "conjugate", "subcritical_attach"], 0.0)
    def word_examples():
        page = mv.AbstractPage(
            3,
            (mv.Handle("h0", 1, "std+D2"), mv.Handle("h1", 2, "std+D2")),
            (mv.LagrangianSphere("A", ("h0",)), mv.LagrangianSphere("B", ("h1",))),
            (mv.DiskBoundary("d1", "t1"),))
        bad = 0
        d = mv.OpenBookDesc(page, (("A", 1), ("B", 1)))
        if mv.cyclic_rotate(d).word != (("B", 1), ("A", 1)):
            bad += 1
        single = mv.OpenBookDesc(page, (("A", 1),))
        if mv.conjugate(single, "B").word != (("B", -1), ("A", 1), ("B", 1)):
            bad += 1
        if mv.conjugate(single, "A").word != (("A", 1),):
            bad += 1
        if mv.cyclic_rotate(mv.OpenBookDesc(page, ())).word != ():
            bad += 1
        attached = mv.subcritical_attach(d, "h9", 1, "fr")
        if attached.word != d.word:
            bad += 1
        if len(attached.page.handles) != 3:
            bad += 1
        if not mv.is_positive_word(d.word) or mv.is_positive_word((("A", -1),)):
            bad += 1
        return float(bad), 7, {}

    @check("move-chain-recognition",
           "randomized chains of at most six sound moves are recognized by the "
           "bounded bidirectional search",
           ["cyclic_rotate", "conjugate", "stabilize", "destabilize"], 0.0)
    def chains():
        rng = np.random.default_rng([cfg.seed, 202])
        _sample_page(rng)  # a discarded draw: it sets which chains every seed tests
        unknowns = 0
        for _ in range(cfg.n_chains):
            desc = _sample_page(rng)
            target = _random_chain(rng, desc, int(rng.integers(1, 7)))
            if mv.equivalent_up_to_moves(desc, target, depth=cfg.search_depth) is not True:
                unknowns += 1
        return float(unknowns), cfg.n_chains, {}

    @check("no-false-equivalence",
           "pages with different subcritical inventories are never declared "
           "equivalent: the three-valued answer stays at unknown",
           ["subcritical_attach", "cyclic_rotate"], 0.0)
    def non_connected():
        rng = np.random.default_rng([cfg.seed, 303])
        false_positives = 0
        for i in range(cfg.n_nonconnected):
            desc = _sample_page(rng)
            extra = mv.Handle(f"hx{i}", 1, "std+D2")
            page2 = mv.AbstractPage(desc.page.half_dim,
                                    desc.page.handles + (extra,),
                                    desc.page.spheres, desc.page.disks)
            other = mv.OpenBookDesc(page2, desc.word)
            if mv.equivalent_up_to_moves(desc, other, depth=4) is True:
                false_positives += 1
        return float(false_positives), cfg.n_nonconnected, {}

    @check("descriptor-golden-text",
           "the canonical descriptor serialization matches the frozen golden "
           "file and round-trips",
           ["stabilize"], 0.0)
    def golden():
        page = mv.AbstractPage(
            3,
            (mv.Handle("h0", 1, "std+D2"),),
            (mv.LagrangianSphere("B0", ("h0",)),),
            (mv.DiskBoundary("d1", "t1"), mv.DiskBoundary("d2", "t2")))
        desc = mv.stabilize(mv.OpenBookDesc(page, (("B0", 1),)), "d1")
        text = mv.to_text(desc)
        bad = 0.0
        if text != GOLDEN_DESCRIPTOR:
            bad = 1.0
        if mv.from_text(text) != desc:
            bad = 1.0
        return bad, 1, {"text": text}


# ===========================================================================
# runner
# ===========================================================================

def declared_checks(cfg: ScenarioConfig) -> list[tuple]:
    """The configured suite's (or every suite's) checks in run order, each as
    ``(name, anchor, ops, tolerance, body)``, the arguments of ``run_check``;
    no body runs."""
    if cfg.suite not in suite_names():
        raise ValueError(f"unknown suite {cfg.suite!r}; pick from {suite_names()}")
    declared = []

    def check(name: str, anchor: str, ops: list[str], tolerance: float):
        def declare(body: Callable[[], tuple[float, int, dict]]):
            declared.append((name, anchor, ops, tolerance, body))
            return body
        return declare

    for name in SUITES if cfg.suite == "all" else [cfg.suite]:
        SUITES[name](cfg, check)
    return declared


def run_suite(cfg: ScenarioConfig) -> VerificationReport:
    """Execute the configured suite (or all of them) into one report."""
    # run_check is looked up at call time, so a tracer may rebind it
    records = [run_check(*declared) for declared in declared_checks(cfg)]
    echo = cfg.as_dict()
    echo.pop("out_dir", None)  # a write location must not affect report bytes
    return VerificationReport(suite=cfg.suite, config=echo, checks=records)
