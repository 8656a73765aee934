"""Page-to-page return maps in the surgery model.

Before surgery the page transport is the Reeb flow and leaves the
(direction, fiber) decomposition of the page coordinates fixed.  After
surgery the transport is computed two independent ways: a three-stage flow
pipeline (transfer to the surgered hypersurface, Hamiltonian page flow,
transfer back) and the closed form

    (z, w)  |->  (z, w + 2 eps z / |z|^2),

and the two answers are compared, never silently merged.  The pipeline's
stages pass flat rows and a result keeps only both answers and their
distance.  The closed form is then recognized as the
normalized-geodesic-flow twist through the rational circle parametrization.

The transports run a batch of starts as one lockstep batch of rows, and
starts of different block sizes share it: each row is zero-padded to the
widest blocks and flows under the widest block's field and event, which
gives every row the bits of its lone flow.  The scans draw all their starts
first, in their one-at-a-time order, and flow them as one batch.

Every transport takes the page half-angle eps and the smoothing width delta
as floats.  Only the one-start ``post_surgery_pipeline`` takes them in a
``SurgeryConfig`` and a ``HandleProfile``: perfbench/worker.py calls it so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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
        if not abs(w @ w - 1.0) < DECOMP_TOL:
            raise ValueError("w must be a unit vector")
        if not abs(w @ r) < DECOMP_TOL:
            raise ValueError("r must be orthogonal to w")

    def z(self) -> Array:
        return self.side * self.w + self.r

    @staticmethod
    def of(pt: ModelPoint, side: float) -> "PageDecomposition":
        if not abs(pt.theta() - side) < 1e-7:
            raise ValueError(f"point sits on page {pt.theta():.3e}, not {side:.3e}")
        nw = float(np.linalg.norm(pt.w))
        w = pt.w / nw
        theta = float(pt.z @ w)
        return PageDecomposition(w, pt.z - theta * w, side)


def build_start(w: Array, r: Array, epsilon: float) -> ModelPoint:
    """The page -eps point with direction w and fiber part r (empty x, y)."""
    dec = PageDecomposition(np.asarray(w, dtype=float),
                            np.asarray(r, dtype=float), -epsilon)
    return ModelPoint(np.zeros(0), np.zeros(0), dec.z(), dec.w.copy())


@dataclass
class MonodromyResult:
    pipeline_point: ModelPoint
    closed_form_point: ModelPoint
    closed_vs_pipeline: float  # max coordinate distance of the two answers


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

def _padding(starts: Sequence[ModelPoint]) -> tuple[int, int, list[Array]]:
    """The widest (x, y) and (z, w) block sizes of a batch and, per start, the
    columns of the zero-padded flat layout [x 0 | y 0 | z 0 | w 0] that hold
    its own coordinates.

    A padded row flows under the widest block's field and event bit for bit
    as its own row under its own: their sums run in index order, so the
    padding only adds exact zero products, and RK4 keeps the zeros zero.
    """
    wide_xy = max(s.nxy for s in starts)
    wide_zw = max(s.nzw for s in starts)
    offsets = (0, wide_xy, 2 * wide_xy, 2 * wide_xy + wide_zw)
    return wide_xy, wide_zw, [
        np.concatenate([off + np.arange(n)
                        for off, n in zip(offsets, (s.nxy, s.nxy, s.nzw, s.nzw))])
        for s in starts]


def _padded_rows(states: Sequence[Array], cols: list[Array], width: int) -> Array:
    rows = np.zeros((len(states), width))
    for row, c, u in zip(rows, cols, states):
        row[c] = u
    return rows


def _flow_to_page(rhs, states: Array, nxy: int, nzw: int,
                  target: float, cfg: IntegratorConfig, missed: str) -> Array:
    """The points where each row's flow reaches the page value target, as
    rows: one row flows alone, several flow as one row batch.

    No check flows a lone start; the one-row branch keeps the one-start
    calls fast, the benchmark's correctness pipelines and the tests' lone
    reference pipelines.  The surgery fields read a ``(1, d)`` row as NumPy
    columns, so the worked start's pipeline took 24-31 ms as a one-row batch
    against 4.5-10.6 ms alone (medians 26 against 4.8 ms), and the monodromy,
    acceptance and benchmark-contract tests 9.4-10.9 s against 7.4-8.1 s (a
    shared 2-vCPU machine).
    """
    page = surgery.page_value(nxy, nzw)
    if len(states) == 1:
        traj = flows.flow_until_event(rhs, states[0], page, target, cfg)
        if traj.t_event is None:
            raise ValueError(missed)
        return traj.end[None]
    t_event, ends = flows.flow_rows_until_event(rhs, states, page, target, cfg)
    if np.isnan(t_event).any():
        raise ValueError(missed)
    return ends


def pre_surgery_monodromy(starts: Sequence[ModelPoint], epsilon: float,
                          cfg: IntegratorConfig) -> list[ModelPoint]:
    """Reeb transport of each start from page -eps to page +eps (trivial on
    decompositions), the flows run as one row batch; starts of different
    block sizes share it, zero-padded to the widest."""
    if not starts:
        return []
    for start in starts:
        if not abs(start.theta() + epsilon) <= 1e-9:
            raise ValueError("start must sit on the -eps page")
        if not start.on_s_minus1():
            raise ValueError("start must lie on the |w|^2 = 1 hypersurface")
    nxy, nzw, cols = _padding(starts)
    states = _padded_rows([s.as_array() for s in starts], cols, 2 * nxy + 2 * nzw)
    ends = _flow_to_page(surgery.reeb_field(nxy, nzw), states, nxy, nzw, +epsilon, cfg,
                         "page event not reached within the time bound")
    return [ModelPoint.from_array(end[c], s.nxy, s.nzw)
            for s, c, end in zip(starts, cols, ends)]


def post_surgery_closed_form(start: ModelPoint, epsilon: float) -> ModelPoint:
    """(z, w + 2 eps z / |z|^2); lands back on |w|^2 = 1 because z.w = -eps."""
    if not abs(start.theta() + epsilon) <= 1e-9:
        raise ValueError("start must sit on the -eps page")
    z2 = float(start.z @ start.z)
    if z2 == 0.0:
        raise ValueError("the z = 0 locus is removed by the surgery")
    return ModelPoint(start.x, start.y, start.z.copy(),
                      start.w + 2.0 * epsilon * start.z / z2)


def post_surgery_pipeline(start: ModelPoint, config: SurgeryConfig,
                          profile: HandleProfile,
                          cfg: IntegratorConfig) -> MonodromyResult:
    """Three-stage transport: Liouville transfer out, page flow, transfer back.

    Stage 2 stops on the page observable reaching +eps, not on elapsed time.
    The result carries the closed form beside the pipeline's answer and the
    distance between them.
    """
    return post_surgery_pipeline_batch([start], config.epsilon, profile.delta, cfg)[0]


def post_surgery_pipeline_batch(starts: Sequence[ModelPoint], epsilon: float, delta,
                                cfg: IntegratorConfig) -> list[MonodromyResult]:
    """post_surgery_pipeline of each start, under a smoothing width given once
    or per start, with the stage-2 page flows run as one row batch (a lone
    flow for one start).

    Starts of different block sizes share the batch, zero-padded to the
    widest.  Each result equals the one-start pipeline's bit for bit.
    """
    if np.ndim(delta) and len(delta) != len(starts):
        raise ValueError("give the smoothing width once or once per start")
    return _pipeline(starts, [math.inf] * len(starts), delta, epsilon, cfg)


def _pipeline(starts: Sequence[ModelPoint], speeds: Sequence[float], delta, eps: float,
              cfg: IntegratorConfig) -> list[MonodromyResult]:
    """The three stages for a batch of starts, each with its own Liouville
    speed, under a smoothing width given once or per start."""
    if not starts:
        return []
    closed = [post_surgery_closed_form(start, eps) for start in starts]
    # stage 1: transfer to the surgered hypersurface, one row batch per block
    # sizes and limit or finite speed; each padded row carries its smoothing
    # width as a last coordinate, which the page flow leaves fixed
    nxy, nzw, cols = _padding(starts)
    dim = 2 * nxy + 2 * nzw
    states = np.zeros((len(starts), dim + 1))
    states[:, dim] = delta
    groups = {}
    for i, (start, a) in enumerate(zip(starts, speeds)):
        groups.setdefault((start.nxy, start.nzw, a == math.inf), []).append(i)
    for (gxy, gzw, limit), rows in groups.items():
        points = np.array([starts[i].as_array() for i in rows])
        deltas = states[rows, dim]
        states[np.ix_(rows, cols[rows[0]])] = (
            surgery.limit_transfers_to_s1(points, gxy, gzw, deltas) if limit else
            surgery.finite_transfers_to_s1(points, gxy, gzw, [speeds[i] for i in rows], deltas))
    # stage 2: Hamiltonian page flow until the +eps page
    ends = _flow_to_page(surgery.handle_hamiltonian_rhs(nxy, nzw), states, nxy, nzw, +eps, cfg,
                         "page event not reached during the page flow")
    # stage 3: transfer back to |w|^2 = 1, each row in its own block sizes
    results = []
    for start, c, end, closed_pt in zip(starts, cols, ends, closed):
        back = surgery.transfer_to_s_minus1(end[c], start.nxy, start.nzw)
        results.append(MonodromyResult(
            ModelPoint.from_array(back, start.nxy, start.nzw), closed_pt,
            float(np.max(np.abs(back - closed_pt.as_array())))))
    return results


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


@dataclass
class RecognizedTwist:
    cos_g: float
    sin_g: float
    g: float
    matrix_residual: float
    circle_defect: float


def recognize_dehn_twist(start: ModelPoint, image: ModelPoint,
                         epsilon: float) -> RecognizedTwist:
    """Check that image, the closed-form transport of start, acts on (w, r)
    as the block matrix

        [ -cos g        sin g / |r| ]
        [ -sin g * |r|  -cos g      ]

    with cos g = (eps^2 - r^2)/(r^2 + eps^2) and sin g = 2 eps |r|/(r^2+eps^2),
    i.e. as the normalized geodesic flow through pi - g."""
    dec_in = PageDecomposition.of(start, -epsilon)
    dec_out = PageDecomposition.of(image, +epsilon)
    w_in, r_in = dec_in.w, dec_in.r
    r2 = float(r_in @ r_in)
    r_norm = math.sqrt(r2)
    if r_norm == 0.0:
        raise ValueError("twist recognition needs r != 0 (off the surgered locus)")
    denom = r2 + epsilon ** 2
    cos_g = (epsilon ** 2 - r2) / denom
    sin_g = 2.0 * epsilon * r_norm / denom
    w_pred = -cos_g * w_in + (sin_g / r_norm) * r_in
    r_pred = -sin_g * r_norm * w_in - cos_g * r_in
    resid = max(float(np.max(np.abs(w_pred - dec_out.w))),
                float(np.max(np.abs(r_pred - dec_out.r))))
    g = math.atan2(sin_g, cos_g) % (2.0 * math.pi)
    return RecognizedTwist(cos_g=cos_g, sin_g=sin_g, g=g, matrix_residual=resid,
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
                            epsilon: float) -> ChartPoint:
    """Apply twist letters in word order; letters in other charts act as the
    identity (plumbing-free composition)."""
    for _, power in word:
        if power not in (-1, 1):
            raise ValueError("letter powers must be +1 or -1")
    current = start.point
    for chart, power in word:
        if chart == start.chart:
            current = twist_letter_action(current, epsilon, power)
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
                     delta: float) -> ModelPoint:
    """A page -eps point whose transfer image stays on the inward flat piece:
    |z|^2 = eps^2 + |r|^2 < 1 - delta, with |r| at least 0.05."""
    w, v = _random_frame(rng, nzw)
    r_cap = math.sqrt(max((1.0 - delta) - epsilon ** 2, 0.0)) * 0.98
    r_norm = 0.05 + (r_cap - 0.05) * rng.random()
    return build_start(w, r_norm * v, epsilon)


def rounded_window_start(rng: np.random.Generator, nzw: int, epsilon: float,
                         delta: float, frac: float) -> ModelPoint:
    """A page -eps point with |z|^2 inside the smoothing window (1-delta, 1+delta),
    at the fraction ``frac`` of the window; rng draws its frame."""
    w, v = _random_frame(rng, nzw)
    z2 = 1.0 - delta + 2.0 * delta * frac
    r_norm = math.sqrt(z2 - epsilon ** 2)
    return build_start(w, r_norm * v, epsilon)


def delta_deviation_scan(rng: np.random.Generator, deltas: list[float],
                         count: int, blocks: Sequence[int], epsilon: float,
                         cfg: IntegratorConfig) -> dict[int, dict[float, float]]:
    """max Euclidean pipeline-vs-closed-form deviation over rounded-window
    starts, per z/w block size and delta.

    The transport is rotation-equivariant and the Euclidean norm is
    rotation-invariant, so the random frame of a start drops out and only the
    window fraction of |z|^2 matters; it is scanned on an even grid for a
    reproducible maximum.  The starts are drawn block by block, then delta by
    delta, and all of them run as one batch.
    """
    fracs = np.linspace(0.02, 0.98, count)
    starts, widths = [], []
    for nzw in blocks:
        for delta in deltas:
            for frac in fracs:
                starts.append(rounded_window_start(rng, nzw, epsilon, delta, float(frac)))
                widths.append(delta)
    results = iter(post_surgery_pipeline_batch(starts, epsilon, widths, cfg))
    out = {}
    for nzw in blocks:
        out[nzw] = {}
        for delta in deltas:
            worst = 0.0
            for _ in range(count):
                res = next(results)
                worst = max(worst, float(np.linalg.norm(
                    res.pipeline_point.as_array() - res.closed_form_point.as_array())))
            out[nzw][delta] = worst
    return out


def fit_log_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    if len(set(xs)) < 2:
        raise ValueError(f"a slope needs at least two distinct x values, got {list(xs)}")
    if not all(math.isfinite(y) and y > 0.0 for y in ys):
        raise ValueError(f"a log slope needs positive finite y values, got {list(ys)}")
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    lx = lx - lx.mean()
    return float((lx @ (ly - ly.mean())) / (lx @ lx))


def a_convergence_scan(start: ModelPoint, a_values: list[float], epsilon: float,
                       delta: float, cfg: IntegratorConfig) -> dict[float, float]:
    """Pipeline error against the infinite-speed answer, per finite a; the
    pipelines of the limit and of every a run as one batch."""
    speeds = [math.inf] + [float(a) for a in a_values]
    ref, *finite = _pipeline([start] * len(speeds), speeds, delta, epsilon, cfg)
    ref = ref.pipeline_point.as_array()
    return {a: float(np.max(np.abs(res.pipeline_point.as_array() - ref)))
            for a, res in zip(speeds[1:], finite)}
