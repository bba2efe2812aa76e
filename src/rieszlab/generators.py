"""Deterministic constructors for the canonical test measures.

Every generator is a pure function of its arguments: the same spec produces
a bit-identical measure file.  Total masses are documented per kind and are
never silently renormalized.
"""

from __future__ import annotations

import warnings

import numpy as np

from rieszlab.measure import DiscreteMeasure, _count, _safe_resolution


class DecayTrendWarning(UserWarning):
    """Sparse-Cantor ratios do not produce a decaying density trend."""


def gen_plane(n: int, d: int, extent: float, spacing: float) -> DiscreteMeasure:
    """Uniform fencepost grid on an axis n-plane patch [0, extent]^n x {0}.

    Weight spacing**n per point, so the mass is (points per axis)**n times
    spacing**n.  The flat AD-regular baseline.
    """
    n, d = _count("n", n, 1), _count("d", d, 2)
    if not n < d:
        raise ValueError("need 1 <= n < d")
    if not (extent > 0 and spacing > 0):
        raise ValueError("extent and spacing must be positive")
    per_axis = int(np.floor(extent / spacing + 1e-12)) + 1
    axes = [np.arange(per_axis) * spacing for _ in range(n)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.zeros((per_axis**n, d))
    for a in range(n):
        pts[:, a] = mesh[a].ravel()
    w = np.full(pts.shape[0], float(spacing) ** n)
    return DiscreteMeasure(pts, w, n, _safe_resolution(pts, spacing))


def gen_segment(count: int, d: int = 2) -> DiscreteMeasure:
    """Unit-mass segment [0, 1] x {0} sampled at cell midpoints.

    count cells of width h = 1/count, one point of weight h per cell; the
    total mass is exactly 1 and no sample sits on an endpoint.
    """
    count, d = _count("count", count, 1), _count("d", d, 2)
    h = 1.0 / count
    pts = np.zeros((count, d))
    pts[:, 0] = (np.arange(count) + 0.5) * h
    return DiscreteMeasure(pts, np.full(count, h), 1, h)


def gen_lipschitz_graph(
    slope_bound: float,
    extent: float,
    spacing: float,
    seed: int,
    n: int = 1,
) -> DiscreteMeasure:
    """Graph of a seeded piecewise-linear function with slopes <= slope_bound.

    Built from 8 random-slope knot segments per axis, sampled at cell
    midpoints with the local arclength (n=1) or area (n=2) element as the
    weight.  The mass therefore lies in
    [extent**n, extent**n * sqrt(1 + slope_bound**2)] exactly.  extent must
    be an integer multiple of spacing.
    """
    if slope_bound < 0:
        raise ValueError("slope bound must be nonnegative")
    if n not in (1, 2):
        raise ValueError("graphs are supported for n = 1 and n = 2")
    n = _count("n", n, 1)
    cells = extent / spacing
    if abs(cells - round(cells)) > 1e-9:
        raise ValueError("extent must be an integer multiple of spacing")
    cells = int(round(cells))
    rng = np.random.default_rng(seed)
    knots = 8
    seg_len = extent / knots

    per_axis_bound = slope_bound / np.sqrt(n)
    slope_sets = [rng.uniform(-per_axis_bound, per_axis_bound, knots) for _ in range(n)]

    def height_and_slope(t: np.ndarray, slopes: np.ndarray):
        seg = np.minimum((t / seg_len).astype(int), knots - 1)
        knot_heights = np.concatenate([[0.0], np.cumsum(slopes) * seg_len])
        return knot_heights[seg] + slopes[seg] * (t - seg * seg_len), slopes[seg]

    mids = (np.arange(cells) + 0.5) * spacing
    axes = [g.ravel() for g in np.meshgrid(*[mids] * n, indexing="ij")]
    height, area = 0.0, 1.0  # the sum of one function per axis, and 1 + s_0^2 + s_1^2 left to right
    for t, slopes in zip(axes, slope_sets):
        h, s = height_and_slope(t, slopes)
        height, area = height + h, area + s**2
    pts = np.column_stack(axes + [height])
    return DiscreteMeasure(pts, spacing**n * np.sqrt(area), n, _safe_resolution(pts, spacing))


def _corner_measure(ratios: np.ndarray, weight_exponent: float) -> DiscreteMeasure:
    """Centers of the 4-corner cell hierarchy with the given per-level ratios.

    Each level splits every cell into its four corner cells; the final cell
    centers carry weight side**weight_exponent, and the final side is the
    resolution (the unit square's center for no levels).
    """
    lower_left = np.zeros((1, 2))
    side = 1.0
    for lam in ratios:
        child = side * float(lam)
        off = side - child
        offsets = np.array([[0.0, 0.0], [off, 0.0], [0.0, off], [off, off]])
        lower_left = (lower_left[:, None, :] + offsets[None, :, :]).reshape(-1, 2)
        side = child
    pts = lower_left + side / 2.0
    w = np.full(pts.shape[0], side**weight_exponent)
    return DiscreteMeasure(pts, w, 1, _safe_resolution(pts, side))


def gen_four_corners(level: int) -> DiscreteMeasure:
    """Level-k corner Cantor measure in the unit square.

    4**k points at the centers of the level-k cells (contraction ratio 1/4),
    each of weight 4**(-k); total mass 1 at every level.  Level 0 is the
    single center of the unit square by convention.  Levels above 12 are
    rejected (point-count guard).
    """
    level = _count("level", level, 0)
    if level > 12:
        raise ValueError("level must lie in [0, 12]")
    return _corner_measure(np.full(level, 0.25), 1.0)


def gen_sparse_cantor(ratios, weight_exponent: float = 1.0) -> DiscreteMeasure:
    """Corner Cantor measure with per-level contraction ratios in (0, 1/2).

    Each level splits every cell into four corner cells of the given ratio;
    the level-k cell centers carry weight (cell side)**weight_exponent.  At
    the constant ratio 1/4 with the default exponent this is exactly the
    four-corners measure (weights 4**-k), the non-decaying control.

    The hierarchy spreads, and the fine-scale density ratio decays, exactly
    when cell-count^-1 * scale^-n trends to zero along the levels, i.e. when
    the ratios exceed 1/4.  Ratio lists violating that trend (the control
    included) trigger a DecayTrendWarning; the measure is still returned.
    Exponents between n = 1 and the similarity exponent log 4 / log(1/ratio)
    keep macroscopic mass through refinement while the minimum density ratio
    decays with depth.  Total mass is 4**k * side_k**weight_exponent.

    An empty ratio list yields the single unit mass at the square center.
    """
    ratios = np.asarray(list(ratios), dtype=float)
    if np.any(ratios <= 0.0) or np.any(ratios >= 0.5):
        raise ValueError("ratios must lie strictly inside (0, 1/2)")
    if ratios.size > 8:
        raise ValueError("at most 8 levels (point-count guard)")
    if weight_exponent <= 0.0:
        raise ValueError("weight_exponent must be positive")
    sides = np.cumprod(ratios)
    depth = ratios.size
    # cell-count^{-1} * scale^{-n} along the hierarchy; must trend to 0
    trend = 4.0 ** (-np.arange(1, depth + 1)) / sides
    if depth >= 2 and trend[-1] >= 0.9 * trend[0]:
        warnings.warn(
            "ratios do not produce a decaying density trend "
            f"(trend {trend[0]:.3g} -> {trend[-1]:.3g})",
            DecayTrendWarning,
            stacklevel=2,
        )
    return _corner_measure(ratios, weight_exponent)


def gen_union(measures, separation: float) -> DiscreteMeasure:
    """Concatenate translated copies with pairwise support distance >= separation.

    Components are shifted along the first axis so consecutive bounding boxes
    are exactly `separation` apart; weights are untouched.
    """
    measures = list(measures)
    if not measures:
        raise ValueError("need at least one measure")
    n, d = measures[0].hausdorff_dim, measures[0].ambient_dim
    for m in measures:
        if (m.hausdorff_dim, m.ambient_dim) != (n, d):
            raise ValueError("all components must share (n, d)")
    if len(measures) == 1:
        return measures[0]
    parts, weights = [], []
    cursor = None
    for m in measures:
        pts = m.points.copy()
        if cursor is not None:
            pts[:, 0] += (cursor + separation) - pts[:, 0].min()
        cursor = pts[:, 0].max()
        parts.append(pts)
        weights.append(m.weights)
    pts = np.vstack(parts)
    w = np.concatenate(weights)
    h = min(m.resolution_h for m in measures)
    return DiscreteMeasure(pts, w, n, _safe_resolution(pts, h))
