"""Page-to-page return maps in the surgery model.

Before surgery the page transport is the Reeb flow and leaves the
(direction, fiber) decomposition of the page coordinates fixed.  After
surgery the transport is computed two independent ways: a three-stage flow
pipeline (transfer to the surgered hypersurface, Hamiltonian page flow,
transfer back) and the closed form

    (z, w)  |->  (z, w + 2 eps z / |z|^2),

and the two answers are compared, never silently merged.  The closed form is
then recognized as the normalized-geodesic-flow twist through the rational
circle parametrization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import flows, surgery
from .flows import IntegratorConfig, Trajectory
from .profiles import HandleProfile
from .sphere import SpherePoint, geodesic_flow
from .surgery import ModelPoint, SurgeryConfig

Array = np.ndarray

DECOMP_TOL = 1e-9


@dataclass(frozen=True)
class PageDecomposition:
    """Page coordinates split as z = side * w + r with w unit and w.r = 0."""

    w: Array
    r: Array
    side: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=float)
        r = np.asarray(self.r, dtype=float)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "r", r)
        if abs(w @ w - 1.0) >= DECOMP_TOL:
            raise ValueError("w must be a unit vector")
        if abs(w @ r) >= DECOMP_TOL:
            raise ValueError("r must be orthogonal to w")

    def z(self) -> Array:
        return self.side * self.w + self.r

    @staticmethod
    def of(pt: ModelPoint, side: float) -> "PageDecomposition":
        if abs(pt.theta() - side) >= 1e-7:
            raise ValueError(f"point sits on page {pt.theta():.3e}, not {side:.3e}")
        nw = float(np.linalg.norm(pt.w))
        w = pt.w / nw
        theta = float(pt.z @ w)
        return PageDecomposition(w, pt.z - theta * w, side)


def build_start(w: Array, r: Array, epsilon: float,
                nxy: int = 0) -> ModelPoint:
    """The page -eps point with direction w and fiber part r."""
    dec = PageDecomposition(np.asarray(w, dtype=float),
                            np.asarray(r, dtype=float), -epsilon)
    zeros = np.zeros(nxy)
    return ModelPoint(zeros, zeros.copy(), dec.z(), dec.w.copy())


@dataclass
class MonodromyResult:
    input: PageDecomposition
    output: PageDecomposition
    pipeline_point: ModelPoint
    closed_form_point: ModelPoint
    twist_angle: float
    residuals: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

def pre_surgery_monodromy(start: ModelPoint, epsilon: float,
                          cfg: IntegratorConfig) -> ModelPoint:
    """Reeb transport from page -eps to page +eps (trivial on decompositions)."""
    if abs(start.theta() + epsilon) > 1e-9:
        raise ValueError("start must sit on the -eps page")
    if not start.on_s_minus1():
        raise ValueError("start must lie on the |w|^2 = 1 hypersurface")
    fld = surgery.reeb_field(start.nxy, start.nzw)
    ev = flows.page_event(start.nxy, start.nzw)
    traj = flows.flow_until_event(fld, start.as_array(), ev, +epsilon, cfg)
    if traj.event is None:
        raise ValueError("page event not reached within the time bound")
    return ModelPoint.from_array(traj.event[2], start.nxy, start.nzw)


def post_surgery_closed_form(start: ModelPoint, epsilon: float) -> ModelPoint:
    """(z, w + 2 eps z / |z|^2); lands back on |w|^2 = 1 because z.w = -eps."""
    if abs(start.theta() + epsilon) > 1e-9:
        raise ValueError("start must sit on the -eps page")
    z2 = float(start.z @ start.z)
    if z2 == 0.0:
        raise ValueError("the z = 0 locus is removed by the surgery")
    return ModelPoint(start.x, start.y, start.z.copy(),
                      start.w + 2.0 * epsilon * start.z / z2)


def post_surgery_pipeline(start: ModelPoint, config: SurgeryConfig,
                          profile: HandleProfile,
                          cfg: IntegratorConfig | None = None) -> MonodromyResult:
    """Three-stage transport: Liouville transfer out, page flow, transfer back.

    Stage 2 stops on the page observable reaching +eps, not on elapsed time.
    The distance to the closed form is recorded in the residuals, along with
    per-stage diagnostics.
    """
    eps = config.epsilon
    if cfg is None:
        cfg = IntegratorConfig(step=1e-3, max_time=2.0, event_tol=1e-12)
    dec_in = PageDecomposition.of(start, -eps)
    if float(np.linalg.norm(start.z)) == 0.0:
        raise ValueError("the z = 0 locus is removed by the surgery")

    # stage 1: transfer to the surgered hypersurface
    if config.a == math.inf:
        on_s1 = surgery.limit_transfer_to_s1(start, profile)
    else:
        on_s1 = surgery.transfer_to_s1_finite_a(start, config.a, profile)
    res_stage1 = abs(surgery.f_eval(on_s1, profile))

    # stage 2: Hamiltonian page flow until the +eps page
    fld = surgery.handle_hamiltonian_field(start.nxy, start.nzw, profile)
    ev = flows.page_event(start.nxy, start.nzw)
    traj = flows.flow_until_event(fld, on_s1.as_array(), ev, +eps, cfg)
    if traj.event is None:
        raise ValueError("page event not reached during the page flow")
    at_page = ModelPoint.from_array(traj.event[2], start.nxy, start.nzw)
    res_stage2_theta = abs(at_page.theta() - eps)
    res_stage2_level = abs(surgery.f_eval(at_page, profile)
                           - surgery.f_eval(on_s1, profile))

    # stage 3: transfer back to |w|^2 = 1
    back = surgery.transfer_to_s_minus1(at_page)

    closed = post_surgery_closed_form(start, eps)
    dist = float(np.max(np.abs(back.as_array() - closed.as_array())))
    dec_out = PageDecomposition.of(closed, +eps)
    angle = recognized_angle(dec_in, eps)

    residuals = {
        "stage1_level": res_stage1,
        "stage2_theta": res_stage2_theta,
        "stage2_level_drift": res_stage2_level,
        "stage3_wnorm": abs(float(np.linalg.norm(back.w)) - 1.0),
        "closed_vs_pipeline": dist,
    }
    return MonodromyResult(input=dec_in, output=dec_out, pipeline_point=back,
                           closed_form_point=closed, twist_angle=angle,
                           residuals=residuals)


def page_speed_residual(traj: Trajectory, nxy: int, nzw: int, epsilon: float) -> float:
    """max |theta(s) - (-eps + 2s)| along a flat-piece page flow."""
    worst = 0.0
    for t, row in zip(traj.times, traj.points):
        theta = float(row[2 * nxy:2 * nxy + nzw] @ row[2 * nxy + nzw:])
        worst = max(worst, abs(theta - (-epsilon + 2.0 * t)))
    return worst


# ---------------------------------------------------------------------------
# twist recognition
# ---------------------------------------------------------------------------

def _circle_angle(r_norm: float, epsilon: float) -> float:
    """2*atan(|r|/eps): the circle angle g of the rational parametrization."""
    return 2.0 * math.atan2(r_norm, epsilon)


def recognized_angle(dec: PageDecomposition, epsilon: float) -> float:
    """The circle angle g with cos g = (eps^2 - r^2)/(r^2 + eps^2); equals
    2*atan(|r|/eps) by the rational parametrization."""
    return _circle_angle(float(np.linalg.norm(dec.r)), epsilon)


@dataclass
class RecognizedTwist:
    cos_g: float
    sin_g: float
    g: float
    g_tilde: float
    matrix_residual: float
    circle_defect: float


def recognize_dehn_twist(result: MonodromyResult, epsilon: float) -> RecognizedTwist:
    """Check that the closed-form transport acts on (w, r) as the block matrix

        [ -cos g        sin g / |r| ]
        [ -sin g * |r|  -cos g      ]

    with cos g = (eps^2 - r^2)/(r^2 + eps^2) and sin g = 2 eps |r|/(r^2+eps^2),
    i.e. as the normalized geodesic flow through pi - g."""
    w_in, r_in = result.input.w, result.input.r
    r2 = float(r_in @ r_in)
    r_norm = math.sqrt(r2)
    if r_norm == 0.0:
        raise ValueError("twist recognition needs r != 0 (off the surgered locus)")
    denom = r2 + epsilon ** 2
    cos_g = (epsilon ** 2 - r2) / denom
    sin_g = 2.0 * epsilon * r_norm / denom
    w_pred = -cos_g * w_in + (sin_g / r_norm) * r_in
    r_pred = -sin_g * r_norm * w_in - cos_g * r_in
    resid = max(float(np.max(np.abs(w_pred - result.output.w))),
                float(np.max(np.abs(r_pred - result.output.r))))
    g = math.atan2(sin_g, cos_g) % (2.0 * math.pi)
    return RecognizedTwist(cos_g=cos_g, sin_g=sin_g, g=g, g_tilde=math.pi - g,
                           matrix_residual=resid,
                           circle_defect=abs(cos_g ** 2 + sin_g ** 2 - 1.0))


# ---------------------------------------------------------------------------
# words of model twists in labeled charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChartPoint:
    """A page point living in one labeled model chart."""

    chart: str
    point: SpherePoint


def twist_letter_action(pt: SpherePoint, epsilon: float, power: int) -> SpherePoint:
    """One surgery twist on page coordinates: the normalized geodesic flow
    through power * (pi - g(|r|)); |r| is preserved, so inverses compose
    exactly."""
    r_norm = float(np.linalg.norm(pt.p))
    if r_norm == 0.0:
        raise ValueError("the twist letter is undefined on the surgered locus r = 0")
    return geodesic_flow(pt, power * (math.pi - _circle_angle(r_norm, epsilon)))


def composed_monodromy_word(start: ChartPoint, word: list[tuple[str, int]],
                            config: SurgeryConfig) -> ChartPoint:
    """Apply twist letters in word order; letters in other charts act as the
    identity (plumbing-free composition)."""
    for _, power in word:
        if power not in (-1, 1):
            raise ValueError("letter powers must be +1 or -1")
    current = start.point
    for chart, power in word:
        if chart == start.chart:
            current = twist_letter_action(current, config.epsilon, power)
    return ChartPoint(start.chart, current)


# ---------------------------------------------------------------------------
# samplers and scans
# ---------------------------------------------------------------------------

def _random_frame(rng: np.random.Generator, nzw: int) -> tuple[Array, Array]:
    """A random unit direction w and a random unit v orthogonal to it."""
    w = rng.standard_normal(nzw)
    w /= np.linalg.norm(w)
    v = rng.standard_normal(nzw)
    v -= (v @ w) * w
    v /= np.linalg.norm(v)
    return w, v


def admissible_start(rng: np.random.Generator, nzw: int, epsilon: float,
                     delta: float, r_floor: float = 0.05) -> ModelPoint:
    """A page -eps point whose transfer image stays on the inward flat piece:
    |z|^2 = eps^2 + |r|^2 < 1 - delta."""
    w, v = _random_frame(rng, nzw)
    r_cap = math.sqrt(max((1.0 - delta) - epsilon ** 2, 0.0)) * 0.98
    r_norm = r_floor + (r_cap - r_floor) * rng.random()
    return build_start(w, r_norm * v, epsilon)


def rounded_window_start(rng: np.random.Generator, nzw: int, epsilon: float,
                         delta: float, frac: float | None = None) -> ModelPoint:
    """A page -eps point with |z|^2 inside the smoothing window (1-delta, 1+delta).

    ``frac`` places |z|^2 at a chosen fraction of the window; None draws it."""
    w, v = _random_frame(rng, nzw)
    if frac is None:
        frac = rng.random()
    z2 = 1.0 - delta + 2.0 * delta * frac
    r_norm = math.sqrt(z2 - epsilon ** 2)
    return build_start(w, r_norm * v, epsilon)


def delta_deviation_scan(rng: np.random.Generator, deltas: list[float],
                         count: int, nzw: int, config: SurgeryConfig,
                         cfg: IntegratorConfig | None = None) -> dict[float, float]:
    """max Euclidean pipeline-vs-closed-form deviation over rounded-window
    starts, per delta.

    The transport is rotation-equivariant and the Euclidean norm is
    rotation-invariant, so the random frame of a start drops out and only the
    window fraction of |z|^2 matters; it is scanned on an even grid for a
    reproducible maximum.
    """
    out = {}
    fracs = np.linspace(0.02, 0.98, count)
    for delta in deltas:
        profile = HandleProfile(delta)
        conf = replace(config, delta=delta)
        worst = 0.0
        for frac in fracs:
            start = rounded_window_start(rng, nzw, config.epsilon, delta, float(frac))
            res = post_surgery_pipeline(start, conf, profile, cfg)
            worst = max(worst, float(np.linalg.norm(
                res.pipeline_point.as_array() - res.closed_form_point.as_array())))
        out[delta] = worst
    return out


def fit_log_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    if len(set(xs)) < 2:
        raise ValueError(f"a slope needs at least two distinct x values, got {list(xs)}")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


def a_convergence_scan(start: ModelPoint, a_values: list[float],
                       config: SurgeryConfig, profile: HandleProfile,
                       cfg: IntegratorConfig | None = None) -> dict[float, float]:
    """Pipeline error against the infinite-speed answer, per finite a."""
    conf_inf = replace(config, a=math.inf)
    ref = post_surgery_pipeline(start, conf_inf, profile, cfg).pipeline_point.as_array()
    out = {}
    for a in a_values:
        res = post_surgery_pipeline(start, replace(config, a=float(a)), profile, cfg)
        out[float(a)] = float(np.max(np.abs(res.pipeline_point.as_array() - ref)))
    return out
