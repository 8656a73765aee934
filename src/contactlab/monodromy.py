"""Page-to-page return maps in the surgery model.

Every function here computes on rows ``[z | w]`` of page points, the (x, y)
blocks of the model being empty for every start: an (m, 2n) array holds m
points of one block size n.  Before surgery the page transport is the Reeb
flow and leaves the (direction, fiber) decomposition z = -eps w + r of the
page coordinates fixed.  After surgery the transport is computed two
independent ways: a three-stage flow pipeline (transfer to the surgered
hypersurface, Hamiltonian page flow, transfer back) and the closed form

    (z, w)  |->  (z, w + 2 eps z / |z|^2),

and the two answers are compared, never silently merged.  The closed form is
then recognized as the normalized-geodesic-flow twist through the rational
circle parametrization.

The transports take a sequence of block groups, one (m, 2n) array per block
size n, and flow all their rows as one lockstep batch: a group pads its rows
by fixed slices to the widest block, ``[z 0 | w 0]`` (and a last column for
the smoothing width in the pipeline), and flows under the widest block's
field and event, which gives every row the bits of its lone flow.  The
transfers on either side of the page flow run as one row call per group.
The scans draw all their starts first, in their one-at-a-time order, and
flow them as one batch.

Every transport takes the page half-angle eps and the smoothing width delta
as floats.  Only the one-start ``post_surgery_pipeline`` takes a validated
``ModelPoint`` with a ``SurgeryConfig`` and a ``HandleProfile``:
perfbench/worker.py calls it so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import flows, surgery
from .flows import IntegratorConfig, Trajectory
from .profiles import HandleProfile
from .sphere import _rotate, random_frame
from .surgery import ModelPoint, SurgeryConfig

Array = np.ndarray


def _halves(rows: Array) -> tuple[Array, Array]:
    """The z and w blocks of (m, 2n) rows."""
    n = rows.shape[-1] // 2
    return rows[..., :n], rows[..., n:]


def build_start(w: Array, r: Array, epsilon: float) -> Array:
    """The page -eps row [z | w] with z = -eps w + r, for a direction w and a
    fiber part r (or the rows of (m, n) arrays of them)."""
    w = np.asarray(w, dtype=float)
    return np.concatenate([-epsilon * w + np.asarray(r, dtype=float), w], axis=-1)


def _on_minus_page(starts, epsilon: float) -> Array:
    """The (m, 2n) rows of starts, refused unless each sits on the -eps page."""
    starts = np.asarray(starts, dtype=float)
    if not (np.abs(np.vecdot(*_halves(starts)) + epsilon) <= 1e-9).all():
        raise ValueError("start must sit on the -eps page")
    return starts


def page_decomposition(rows: Array, side: float) -> tuple[Array, Array]:
    """The unit directions w and fiber parts r, w.r = 0, of (m, 2n) rows on
    the page ``side``, where z = side * w + r."""
    z, w = _halves(rows)
    theta = np.vecdot(z, w)
    off = ~(np.abs(theta - side) < 1e-7)
    if off.any():
        raise ValueError(f"point sits on page {theta[off][0]:.3e}, not {side:.3e}")
    w = w / np.sqrt(np.vecdot(w, w))[:, None]
    return w, z - np.vecdot(z, w)[:, None] * w


@dataclass
class MonodromyResult:
    """The one-start pipeline's answer, for perfbench/worker.py."""

    pipeline_point: ModelPoint


# ---------------------------------------------------------------------------
# transports
# ---------------------------------------------------------------------------

def _padded(groups: Sequence[Array], width=None) -> tuple[int, Array]:
    """The widest block size n of block groups and their rows in one batch,
    each group's z and w at the fixed slices [:n] and [wide:wide + n] of the
    layout [z 0 | w 0], with the smoothing width (once or per row) as a last
    column when given.

    A padded row flows under the widest block's field and event bit for bit
    as its own row under its own: their sums run in index order, so the
    padding only adds exact zero products, and RK4 keeps the zeros zero.
    """
    wide = max(g.shape[1] // 2 for g in groups)
    states = np.zeros((sum(map(len, groups)), 2 * wide + (width is not None)))
    if width is not None:
        states[:, -1] = width
    lo = 0
    for g in groups:
        z, w = _halves(g)
        states[lo:lo + len(g), :z.shape[1]] = z
        states[lo:lo + len(g), wide:wide + z.shape[1]] = w
        lo += len(g)
    return wide, states


def _unpadded(states: Array, groups: Sequence[Array], wide: int) -> list[Array]:
    """The rows of a padded batch, back in the block sizes of their groups."""
    out, lo = [], 0
    for g in groups:
        n, rows = g.shape[1] // 2, states[lo:lo + len(g)]
        out.append(np.hstack([rows[:, :n], rows[:, wide:wide + n]]))
        lo += len(g)
    return out


def _flow_to_page(rhs, states: Array, n: int, target: float,
                  cfg: IntegratorConfig, missed: str) -> Array:
    """The points where each row's flow reaches the page value target, the
    rows flowing as one batch."""
    t_event, ends = flows.flow_rows_until_event(rhs, states, surgery.page_value(0, n),
                                                target, cfg)
    if np.isnan(t_event).any():
        raise ValueError(missed)
    return ends


def pre_surgery_monodromy(groups: Sequence[Array], epsilon: float,
                          cfg: IntegratorConfig) -> list[Array]:
    """Reeb transport of the rows of each block group from page -eps to page
    +eps (trivial on decompositions), all rows flowing as one batch."""
    if not groups:
        return []
    groups = [_on_minus_page(g, epsilon) for g in groups]
    for g in groups:
        n = g.shape[1] // 2
        if not (np.abs(surgery.wnorm2_value(0, n)(g) - 1.0) < surgery.S_TOL).all():
            raise ValueError("start must lie on the |w|^2 = 1 hypersurface")
    wide, states = _padded(groups)
    ends = _flow_to_page(surgery.reeb_field(0, wide), states, wide, +epsilon, cfg,
                         "page event not reached within the time bound")
    return _unpadded(ends, groups, wide)


def post_surgery_closed_form(starts: Array, epsilon: float) -> Array:
    """(z, w + 2 eps z / |z|^2) of each row; lands back on |w|^2 = 1 because
    z.w = -eps."""
    z, w = _halves(_on_minus_page(starts, epsilon))
    z2 = np.vecdot(z, z)
    if (z2 == 0.0).any():
        raise ValueError("the z = 0 locus is removed by the surgery")
    return np.hstack([z, w + 2.0 * epsilon * z / z2[:, None]])


def post_surgery_pipeline(start: ModelPoint, config: SurgeryConfig,
                          profile: HandleProfile,
                          cfg: IntegratorConfig) -> MonodromyResult:
    """The pipeline of one validated start with empty x and y blocks, as a
    one-row batch."""
    if start.nxy:
        raise ValueError("the page monodromy takes starts with empty x and y blocks")
    (end,) = post_surgery_pipeline_batch([np.concatenate([start.z, start.w])[None]],
                                         config.epsilon, profile.delta, cfg)
    return MonodromyResult(ModelPoint.from_array(end[0], 0, start.nzw))


def post_surgery_pipeline_batch(groups: Sequence[Array], epsilon: float, delta,
                                cfg: IntegratorConfig, speeds: Sequence = None) -> list[Array]:
    """Three-stage transport of the rows of each block group: Liouville
    transfer out, page flow, transfer back, under a smoothing width given
    once or per row (the rows counted across the groups in order).

    The transfer out of a group runs at its Liouville speed, given per group
    as None for the infinite-speed limit (every group's, by default) or as a
    finite a once or per row.  Stage 2 stops on the page observable reaching
    +eps, not on elapsed time, and flows every row as one batch.
    """
    if not groups:
        return []
    groups = [_on_minus_page(g, epsilon) for g in groups]
    rows = sum(map(len, groups))
    if np.ndim(delta) and len(delta) != rows:
        raise ValueError("give the smoothing width once or once per start")
    widths = np.broadcast_to(np.asarray(delta, dtype=float), rows)
    # stage 1: transfer to the surgered hypersurface, one row call per group
    on_s1, lo = [], 0
    for g, a in zip(groups, speeds or [None] * len(groups)):
        n, deltas = g.shape[1] // 2, widths[lo:lo + len(g)]
        on_s1.append(surgery.limit_transfers_to_s1(g, 0, n, deltas) if a is None
                     else surgery.finite_transfers_to_s1(g, 0, n, a, deltas))
        lo += len(g)
    # stage 2: Hamiltonian page flow until the +eps page; each padded row
    # carries its smoothing width as a last coordinate, which the flow leaves fixed
    wide, states = _padded(on_s1, widths)
    ends = _flow_to_page(surgery.handle_hamiltonian_rhs(0, wide), states, wide, +epsilon, cfg,
                         "page event not reached during the page flow")
    # stage 3: transfer back to |w|^2 = 1, one row call per group
    return [surgery.transfers_to_s_minus1(end, 0, end.shape[1] // 2)
            for end in _unpadded(ends, groups, wide)]


def page_speed_residual(traj: Trajectory, epsilon: float) -> float:
    """max |theta(s) - (-eps + 2s)| along a flat-piece page flow of [z | w]
    rows."""
    theta = np.vecdot(*_halves(traj.points))
    return float(np.max(np.abs(theta - (-epsilon + 2.0 * traj.times))))


# ---------------------------------------------------------------------------
# twist recognition
# ---------------------------------------------------------------------------

def _circle_angle(r_norm: float, epsilon: float) -> float:
    """2*atan(|r|/eps): the circle angle g of the rational parametrization."""
    return 2.0 * math.atan2(r_norm, epsilon)


def twist_prediction(w: Array, r: Array, epsilon: float) -> tuple[Array, Array, Array, Array]:
    """The block matrix

        [ -cos g        sin g / |r| ]
        [ -sin g * |r|  -cos g      ]

    applied to (w, r) rows, with cos g = (eps^2 - r^2)/(r^2 + eps^2) and
    sin g = 2 eps |r|/(r^2+eps^2): the images of w and r and the columns
    cos g and sin g."""
    r2 = np.vecdot(r, r)
    r_norm = np.sqrt(r2)
    if (r_norm == 0.0).any():
        raise ValueError("twist recognition needs r != 0 (off the surgered locus)")
    denom = r2 + epsilon ** 2
    cos_g = (epsilon ** 2 - r2) / denom
    sin_g = 2.0 * epsilon * r_norm / denom
    w_pred = -cos_g[:, None] * w + (sin_g / r_norm)[:, None] * r
    r_pred = (-sin_g * r_norm)[:, None] * w - cos_g[:, None] * r
    return w_pred, r_pred, cos_g, sin_g


@dataclass
class RecognizedTwist:
    """Per row: the circle functions and angle, and the residuals."""

    cos_g: Array
    sin_g: Array
    g: Array
    matrix_residual: Array
    circle_defect: Array


def recognize_dehn_twist(starts: Array, images: Array, epsilon: float) -> RecognizedTwist:
    """Check that images, the closed-form transports of the start rows, act
    on (w, r) as :func:`twist_prediction`'s block matrix, i.e. as the
    normalized geodesic flow through pi - g."""
    w_in, r_in = page_decomposition(starts, -epsilon)
    w_out, r_out = page_decomposition(images, +epsilon)
    w_pred, r_pred, cos_g, sin_g = twist_prediction(w_in, r_in, epsilon)
    resid = np.maximum(np.max(np.abs(w_pred - w_out), axis=1),
                       np.max(np.abs(r_pred - r_out), axis=1))
    return RecognizedTwist(cos_g=cos_g, sin_g=sin_g,
                           g=np.arctan2(sin_g, cos_g) % (2.0 * math.pi),
                           matrix_residual=resid,
                           circle_defect=np.abs(cos_g ** 2 + sin_g ** 2 - 1.0))


# ---------------------------------------------------------------------------
# words of model twists in labeled charts
# ---------------------------------------------------------------------------

def twist_letter_action(rows: Array, epsilon: float, power: int) -> Array:
    """One surgery twist on page rows [q | p]: the normalized geodesic flow
    through power * (pi - g(|p|)); |p| is preserved, so inverses compose
    exactly."""
    q, p = _halves(rows)
    norm = np.sqrt(np.vecdot(p, p))
    if (norm == 0.0).any():
        raise ValueError("the twist letter is undefined on the surgered locus r = 0")
    turns = [power * (math.pi - _circle_angle(r, epsilon)) for r in norm.tolist()]
    cos = np.array([[math.cos(t)] for t in turns])
    sin = np.array([[math.sin(t)] for t in turns])
    return np.hstack(_rotate(q, p, norm[:, None], cos, sin))


def composed_monodromy_word(rows: Array, chart: str, word: list[tuple[str, int]],
                            epsilon: float) -> Array:
    """Apply twist letters in word order to page rows of the labeled chart
    ``chart``; letters in other charts act as the identity (plumbing-free
    composition)."""
    for _, power in word:
        if power not in (-1, 1):
            raise ValueError("letter powers must be +1 or -1")
    for letter, power in word:
        if letter == chart:
            rows = twist_letter_action(rows, epsilon, power)
    return rows


# ---------------------------------------------------------------------------
# samplers and scans
# ---------------------------------------------------------------------------

def admissible_start(rng: np.random.Generator, nzw: int, epsilon: float,
                     delta: float) -> Array:
    """A page -eps row whose transfer image stays on the inward flat piece:
    |z|^2 = eps^2 + |r|^2 < 1 - delta, with |r| at least 0.05."""
    w, v = random_frame(rng, nzw)
    r_cap = math.sqrt(max((1.0 - delta) - epsilon ** 2, 0.0)) * 0.98
    r_norm = 0.05 + (r_cap - 0.05) * rng.random()
    return build_start(w, r_norm * v, epsilon)


def rounded_window_start(rng: np.random.Generator, nzw: int, epsilon: float,
                         delta: float, frac: float) -> Array:
    """A page -eps row with |z|^2 inside the smoothing window (1-delta, 1+delta),
    at the fraction ``frac`` of the window; rng draws its frame."""
    w, v = random_frame(rng, nzw)
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
    groups = [np.array([rounded_window_start(rng, nzw, epsilon, delta, float(frac))
                        for delta in deltas for frac in fracs]) for nzw in blocks]
    widths = [delta for _ in blocks for delta in deltas for _ in fracs]
    out = {}
    for nzw, starts, ends in zip(blocks, groups,
                                 post_surgery_pipeline_batch(groups, epsilon, widths, cfg)):
        diff = ends - post_surgery_closed_form(starts, epsilon)
        devs = np.sqrt(np.vecdot(diff, diff)).reshape(len(deltas), count)
        out[nzw] = {delta: float(np.max(dev)) for delta, dev in zip(deltas, devs)}
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


def a_convergence_scan(start: Array, a_values: list[float], epsilon: float,
                       delta: float, cfg: IntegratorConfig) -> dict[float, float]:
    """Pipeline error against the infinite-speed answer, per finite a, for
    one start row; the pipelines of the limit and of every a run as one
    batch."""
    speeds = [float(a) for a in a_values]
    start = np.asarray(start, dtype=float)[None]
    ref, finite = post_surgery_pipeline_batch(
        [start, np.repeat(start, len(speeds), axis=0)], epsilon, delta, cfg, [None, speeds])
    return {a: float(np.max(np.abs(row - ref[0]))) for a, row in zip(speeds, finite)}
