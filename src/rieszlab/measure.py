"""Weighted point clouds and their multiscale geometric functionals.

A DiscreteMeasure is the single carrier for every measure in the package:
source measures, planar patch measures, reweighted ball restrictions and
their unions.  Ball masses, growth constants, AD-regularity constants and
density profiles are all evaluated on finite geometric radius grids bounded
below by the sampling resolution; a discrete cloud has no infinitesimal
scales, so the grid floor is the honest proxy and is part of every result.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree

_BALL_LEAF_CAP = 8  # points per leaf of the tree cached for ball sums
_LEAF_BLOCK = 1 << 16  # padded (center, point) entries per block of leaf pairs
_BRACKET_SPAN = 3  # the most radii a leaf pair may straddle and be settled by its bracket
_PAIR_CHUNK = 1 << 14  # node pairs per step of the pair walk, which bounds its pair lists and their temporaries
_UPWARD_BLOCK = 4096  # points per block of whole leaves in the upward pass's leaf step


def _count(name: str, value, least: int) -> int:
    """value as an int, if it is an integral number >= least: a bool, a
    fraction or a string is no count, and int() would take it without notice."""
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (real and float(value).is_integer() and value >= least):
        raise ValueError(f"{name} must be an integer >= {least}, not {value!r}")
    return int(value)


class EmptySelectionError(ValueError):
    """A restriction selected no points; downstream operators need N >= 1."""


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite weighted point cloud in R^d.

    Parameters
    ----------
    points : (N, d) array
        Support points, N >= 1.
    weights : (N,) array
        Strictly positive finite masses.  The total mass is exactly the sum
        of the weights; nothing is renormalized behind the caller's back.
    hausdorff_dim : int
        Dimension parameter n of the functionals evaluated against this
        measure (ball masses are compared to r**n).  Requires 1 <= n < d.
    resolution_h : float
        Typical inter-point spacing.  Scale grids should not descend below
        it: density ratios under the resolution are sampling noise.
    """

    points: np.ndarray
    weights: np.ndarray
    hausdorff_dim: int
    resolution_h: float

    def __post_init__(self):
        pts = np.ascontiguousarray(np.asarray(self.points, dtype=float))
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty (N, d) array")
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must be a (N,) array aligned with points")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if not (np.all(np.isfinite(w)) and np.all(w > 0.0)):
            raise ValueError("weights must be strictly positive and finite")
        n = _count("hausdorff_dim", self.hausdorff_dim, 1)
        d = pts.shape[1]
        if not n < d:
            raise ValueError(f"need 1 <= hausdorff_dim < ambient dim, got n={n}, d={d}")
        h = float(self.resolution_h)
        if not (np.isfinite(h) and h > 0.0):
            raise ValueError("resolution_h must be positive and finite")
        if pts.shape[0] >= 2 and h > _bbox_diagonal(pts) * (1.0 + 1e-12):  # a cheap necessary check
            raise ValueError("resolution_h exceeds the support diameter")
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "hausdorff_dim", n)
        object.__setattr__(self, "resolution_h", h)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @cached_property
    def kdtree(self) -> cKDTree:
        """Spatial index for ball queries, built once."""
        return cKDTree(self.points)

    @cached_property
    def ball_tree(self) -> "SpatialTree":
        """Median-split tree for ball sums, built once."""
        return _build_spatial_tree(self.points, self.weights, _BALL_LEAF_CAP)

    @cached_property
    def ball_tree_weights(self) -> np.ndarray:
        """Per-node weight sums of `ball_tree` by its upward pass, computed once."""
        return _node_sums(self.ball_tree, self.weights[self.ball_tree.perm])

    @cached_property
    def diameter(self) -> float:
        """Maximum pairwise distance (0 for N = 1), computed once.

        For any point c, |p - q| <= |p - c| + R with R = max_q |q - c|, so
        a point p can end a pair of length >= L only if |p - c| + R >= L.
        With c the bounding-box center and L a real pairwise distance (two
        farthest-point sweeps, from the point farthest from c), the dense
        max runs over the points that pass this test, with a relative slack
        of 1e-12 that absorbs the rounding of every distance; so it meets
        both ends of the pair the dense max over all points selects, and
        returns its value bit for bit.  Segments and flat sets keep a few
        candidates; a support on a sphere about c keeps every point.
        """
        pts = self.points
        lo, hi = self.bbox()
        r = np.sqrt(_sq_norm((pts - (lo + hi) / 2).T))
        far = pts[np.argmax(r)]
        for _ in range(2):
            dist = np.sqrt(_sq_norm((pts - far).T))
            far = pts[np.argmax(dist)]
        candidates = pts[r + r.max() >= dist.max() * (1.0 - 1e-12)]
        best = 0.0
        for i0 in range(0, len(candidates), 1024):
            r2 = _sq_norm(c[i0 : i0 + 1024, None] - c[None, :] for c in candidates.T)
            best = max(best, float(r2.max()))
        return float(np.sqrt(best))

    @cached_property
    def _bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.points.min(axis=0), self.points.max(axis=0)
        lo.setflags(write=False)
        hi.setflags(write=False)
        return lo, hi

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi): the per-axis min and max of the points, reduced once, read-only."""
        return self._bounds


@dataclass(frozen=True)
class ScaleGrid:
    """Geometric radius grid on [r_min, r_max] with `count` entries."""

    r_min: float
    r_max: float
    count: int

    def __post_init__(self):
        if not (self.r_min > 0.0 and np.isfinite(self.r_min)):
            raise ValueError("r_min must be positive")
        if not (self.r_max > self.r_min and np.isfinite(self.r_max)):
            raise ValueError("r_max must exceed r_min")
        object.__setattr__(self, "r_min", float(self.r_min))
        object.__setattr__(self, "r_max", float(self.r_max))
        object.__setattr__(self, "count", _count("count", self.count, 2))

    def radii(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.count)


def _sq_norm(diff) -> np.ndarray:
    """Squared Euclidean norm from per-axis differences, summed axis by axis.

    diff yields one array per axis (a list of planes, or a (d, ...) array),
    and the squares are added in axis order, ((d0 * d0 + d1 * d1) + d2 * d2)
    and so on.  This is the package's one squared-distance rule: every r2
    whose boundary decision must agree with another's (ball membership,
    box bounds, the truncation cut) is computed here.
    """
    axes = iter(diff)
    out = np.square(next(axes))
    for comp in axes:
        out += comp * comp
    return out


def _live_axes(points: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(d,) mask of the live axes, along which the points and targets do not all share one value:
    along a dead one every target-point difference is 0 and adds +0.0 to r2, so kernel sums skip it."""
    lo = np.minimum(points.min(axis=0, initial=np.inf), targets.min(axis=0, initial=np.inf))
    return np.maximum(points.max(axis=0, initial=-np.inf), targets.max(axis=0, initial=-np.inf)) > lo


def _as_points(mu: DiscreteMeasure, pts, what: str) -> np.ndarray:
    """pts as a finite (m, d) float array, one row per point, in the ambient dimension of mu."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != mu.ambient_dim:
        raise ValueError(f"{what} dimension mismatch: {pts.shape} against points in R^{mu.ambient_dim}")
    if not np.all(np.isfinite(pts)):
        raise ValueError(f"{what} coordinates must be finite")
    return pts


def total_mass(mu: DiscreteMeasure) -> float:
    """Sum of the weights, exactly as stored."""
    return float(np.sum(mu.weights))


def _ball_members(mu: DiscreteMeasure, centers, radii) -> list[np.ndarray]:
    """Ascending point indices of each closed ball B(centers[i], radii[i]).

    The package's one closed-ball rule: y lies in B(c, r) when
    sqrt(_sq_norm(c - y)) <= r, the distance ball_masses bins by.
    One query of the cached kdtree, at radii inflated by a relative 1e-9,
    gives candidates that hold every such point; the rule then decides.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.full(centers.shape[0], radii, dtype=float)
    # numpy sorts the members far faster than the kdtree sorts its lists
    near = mu.kdtree.query_ball_point(centers, radii * (1.0 + 1e-9), return_sorted=False)
    members = []
    for c, r, idx in zip(centers, radii, near):
        idx = np.fromiter(idx, dtype=np.intp, count=len(idx))
        diff = c - np.take(mu.points, idx, axis=0)  # take: a fast gather of whole rows
        members.append(np.sort(idx[np.sqrt(_sq_norm(diff.T)) <= r]))
    return members


def ball_mass(mu: DiscreteMeasure, center, r: float) -> float:
    """Mass of the closed ball B(center, r), summed in index order.

    A point y is in the ball when sqrt(_sq_norm(center - y)) <= r, the
    rule of `ball_masses`, so the two agree bit for bit whenever the
    weights sum exactly in any order (dyadic weights, say).
    """
    if not r > 0.0:
        raise ValueError("ball radius must be positive")
    (idx,) = _ball_members(mu, center, r)
    return float(np.sum(mu.weights[idx]))


def ball_masses(
    mu: DiscreteMeasure,
    centers: np.ndarray,
    radii: np.ndarray,
    values: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-ball sums over a grid of centers and radii.

    A point y lies in B(c, r) when sqrt(_sq_norm(c - y)) <= r, the
    package's one closed-ball rule, shared with `ball_mass` and every cover
    test of the construction.

    Returns a (len(centers), len(radii)) array of sums of `values` (the
    weights when values is None) inside each ball; values stacked as a
    (k, N) array give a (k, len(centers), len(radii)) table, one slice per
    row, each bit-identical to a call with that row alone.  One walk over
    (center node, source node) pairs serves every center, radius and row at
    once (`_pair_bins`).  When the centers are the support points, the walk
    pairs the cached `ball_tree` with itself and visits each unordered pair
    of nodes once, binning it for both ends; other centers get a tree of
    their own.  A pair of leaves that straddles a few radii is settled by
    its bracket: its total at the first radius beyond it, and for each
    straddled radius the sums within it.  Every point pair still meets the
    closed-ball rule one by one, exactly as it would alone, so dyadic
    values sum bit for bit as in index order; other values differ from
    index-order sums by rounding only.  The summation order is fixed by
    the walk, which makes the output deterministic.  Values must be finite.
    """
    centers = _as_points(mu, centers, "center")
    radii = np.asarray(radii, dtype=float).ravel()
    if not np.all(radii >= 0.0):  # radius 0 is the closed ball of the points at the center
        raise ValueError("ball radii must not be NaN or negative")
    vals = mu.weights if values is None else np.asarray(values, dtype=float)
    if vals.ndim not in (1, 2) or vals.shape[-1] != len(mu):
        raise ValueError(f"values of shape {vals.shape} do not align with the {len(mu)} points")
    if not np.all(np.isfinite(vals)):
        raise ValueError("values must be finite")
    if centers.shape[0] == 0:
        return np.zeros(vals.shape[:-1] + (0, radii.size))
    stacked = vals.ndim == 2
    order = np.argsort(radii, kind="stable")
    tree = mu.ball_tree
    vals = np.atleast_2d(vals)
    # a row equal to the weights takes their node sums cached on the measure
    sums = [mu.ball_tree_weights if np.array_equal(v, mu.weights) else _node_sums(tree, v[tree.perm]) for v in vals]
    vals = vals[:, tree.perm]
    if centers.shape == mu.points.shape and np.array_equal(centers, mu.points):
        ctree, rows = tree, slice(None)
    else:  # one leaf per distinct center: no center leaf is wider than a point
        centers, rows = np.unique(centers, axis=0, return_inverse=True)
        ctree = _build_spatial_tree(centers, np.ones(len(centers)), 1)
    out = np.empty((len(vals), centers.shape[0], radii.size))
    out[:, ctree.perm[:, None], order] = _pair_bins(ctree, tree, vals, sums, radii[order])
    out = out[:, rows]
    return out if stacked else out[0]


def _pair_walk(ctree: SpatialTree, tree: SpatialTree, settle) -> None:
    """Walk the pairs (a, b) of a center node and a source node from the roots.

    Chunks of at most _PAIR_CHUNK pairs go depth first to settle(a, b, dmin2,
    dmax2, mirror, leaves): [dmin2, dmax2] holds every point pair's _sq_norm
    as rounded (`_box_dist2`), and leaves marks the pairs of two leaves, which
    settle must settle.  It returns the mask of the pairs to open; each opens
    its wider inner node, or both when they are as wide.  When ctree is
    tree, each unordered pair is walked once: (a, a) opens into (L, L),
    (L, R) and (R, R), and settle counts the pairs marked mirror (a != b)
    for both ends, exactly, as _sq_norm(c - y) == _sq_norm(y - c).
    """
    c_leaf, s_leaf, symmetric = ctree.left < 0, tree.left < 0, ctree is tree
    pending = [(np.zeros(1, dtype=np.int64),) * 2]
    while pending:
        a, b = pending.pop()
        mirror = (a != b) if symmetric else np.zeros(a.size, dtype=bool)
        opened = settle(a, b, *_box_dist2(*_boxes(ctree, a), *_boxes(tree, b)), mirror, c_leaf[a] & s_leaf[b])
        a, b = a[opened], b[opened]
        split_a = ~c_leaf[a] & (s_leaf[b] | (ctree.radius[a] >= tree.radius[b]))
        split_b = ~s_leaf[b] & (c_leaf[a] | (tree.radius[b] >= ctree.radius[a]))
        ca = np.where(split_a, [ctree.left[a], ctree.right[a]], [a, np.full(a.size, -1)])
        cb = np.where(split_b, [tree.left[b], tree.right[b]], [b, np.full(b.size, -1)])
        keep = (ca[:, None] >= 0) & (cb[None, :] >= 0)
        if symmetric:
            keep[1, 0] &= a != b  # (R, L) of a self pair is (L, R) again
        a, b = np.broadcast_to(ca[:, None], keep.shape)[keep], np.broadcast_to(cb[None, :], keep.shape)[keep]
        pending += [(a[i : i + _PAIR_CHUNK], b[i : i + _PAIR_CHUNK]) for i in range(0, a.size, _PAIR_CHUNK)]


def _pair_bins(ctree: SpatialTree, tree: SpatialTree, vals, sums, sorted_radii) -> np.ndarray:
    """Per-center ball sums of the value rows: (k, centers in ctree order, radii).

    Radius r_k is met through its threshold t_k (`_sq_thresholds`): a point
    pair lies in the ball when its _sq_norm is <= t_k.  On `_pair_walk`, a
    pair (a, b) straddles the radii with dmin2 <= t_k < dmax2, first_in to
    first_all - 1, and lies wholly inside the balls from first_all on.  It
    is settled by this bracket when it straddles no radius, or when it is a
    pair of leaves that straddles at most _BRACKET_SPAN: b's sum, read from
    sums (the rows' `_node_sums` over tree), is binned at first_all in a's
    node bins (and a's in b's when mirrored), and `_inside_sums` adds the
    sums within each straddled radius.  A pair of leaves that straddles more
    is binned point pair by point pair after the walk (`_leaf_pair_bins`);
    any other pair is opened.  A downward pass adds node bins to centers,
    whose bins are then cumulated over the radii, and the inside sums added.
    Every point pair's membership is still decided one by one, bit-exact;
    dyadic values sum exactly, others differ from index-order sums by
    rounding only.
    """
    n_bins = sorted_radii.size + 1  # the last bin: beyond every radius
    thresholds = _sq_thresholds(sorted_radii)
    node_bins = np.zeros((len(vals), ctree.n_nodes, n_bins))
    inside = np.zeros((len(vals), ctree.points.shape[0], n_bins))
    wide = []  # (a, b, mirror) of the leaf pairs binned point pair by point pair

    def settle(a, b, dmin2, dmax2, mirror, both_leaves):
        first_in = np.searchsorted(thresholds, dmin2)
        first_all = np.searchsorted(thresholds, dmax2)
        span = first_all - first_in
        bracket = (span == 0) | (both_leaves & (span <= _BRACKET_SPAN))
        back = bracket & mirror
        keys = np.concatenate([a[bracket] * n_bins + first_all[bracket], b[back] * n_bins + first_all[back]])
        src = np.concatenate([b[bracket], a[back]])
        for nb, s in zip(node_bins, sums):
            np.add.at(nb.reshape(-1), keys, s[src])
        narrow = bracket & (span > 0)
        _inside_sums(ctree, tree, a[narrow], b[narrow], mirror[narrow], first_in[narrow], span[narrow], vals, thresholds, inside)
        pointwise = both_leaves & ~bracket
        wide.append((a[pointwise], b[pointwise], mirror[pointwise]))
        return ~bracket & ~both_leaves

    _pair_walk(ctree, tree, settle)
    for inner in ctree.levels:
        for child in (ctree.left[inner], ctree.right[inner]):
            node_bins[:, child] += node_bins[:, inner]
    leaves = ctree.leaves
    bins = np.repeat(node_bins[:, leaves], ctree.end[leaves] - ctree.start[leaves], axis=1)
    _leaf_pair_bins(ctree, tree, *map(np.concatenate, zip(*wide)), vals, thresholds, bins)
    np.cumsum(bins, axis=2, out=bins)
    bins += inside
    return bins[:, :, :-1]


def _sq_thresholds(radii: np.ndarray) -> np.ndarray:
    """t with t[k] the largest double such that sqrt(t[k]) <= radii[k].

    sqrt is correctly rounded, hence monotone, so a squared distance r2
    has sqrt(r2) <= radii[k] exactly when r2 <= t[k]; t is sorted when
    radii are.  radii * radii lies within a few ulps of t.
    """
    with np.errstate(over="ignore"):  # past sqrt(max double), t is the max double
        t = radii * radii
        while np.any(high := np.sqrt(t) > radii):
            t[high] = np.nextafter(t[high], 0.0)
        while np.any(low := (np.sqrt(up := np.nextafter(t, np.inf)) <= radii) & (t < np.inf)):
            t[low] = up[low]
    return t


def _leaf_pair_r2(ctree: SpatialTree, tree: SpatialTree, a: np.ndarray, b: np.ndarray):
    """(ia, ib, r2): the tree-order points of center leaves a and source
    leaves b, each padded to its tree's widest leaf (`_leaf_rows`), and the
    (pairs, wa, wb) _sq_norm of their differences.  A padded point has the
    distance NaN, inside no ball and binned after every threshold."""
    rows = []
    for t, leaves in ((ctree, a), (tree, b)):
        idx, valid = _leaf_rows(t, leaves, int((t.end - t.start)[t.leaves].max()))
        rows.append((idx, [np.where(valid, pc[idx], np.nan) for pc in t.points.T]))
    (ia, xa), (ib, xb) = rows
    return ia, ib, _sq_norm(pa[:, :, None] - pb[:, None, :] for pa, pb in zip(xa, xb))


def _leaf_block(ctree: SpatialTree, tree: SpatialTree) -> int:
    """Leaf pairs per block of at most _LEAF_BLOCK padded (center, point) entries."""
    wa, wb = (int((t.end - t.start)[t.leaves].max()) for t in (ctree, tree))
    return max(1, _LEAF_BLOCK // (wa * wb))


def _inside_sums(ctree, tree, a, b, mirror, first, span, vals, thresholds, inside) -> None:
    """Add, for each radius r_k that leaf pair (a, b) straddles, the values
    of b's points y with _sq_norm(c - y) <= t_k at each center c of a.

    Pair p straddles first[p] to first[p] + span[p] - 1, and inside is
    (k, centers, bins), indexed by k.  Where mirror is set (distinct
    leaves of one tree), the same membership adds a's values at b's
    points.  The (pair, radius) entries run in blocks of one leaf block's
    size; a pair's entries may fall in two blocks.
    """
    flat, n_bins = inside.reshape(len(vals), -1), inside.shape[2]
    ends = np.cumsum(span)
    total, per_block = int(ends[-1]) if ends.size else 0, _leaf_block(ctree, tree)
    for e0 in range(0, total, per_block):
        entry = np.arange(e0, min(e0 + per_block, total))
        p = np.searchsorted(ends, entry, side="right")
        k = first[p] + entry - (ends[p] - span[p])
        p0, p1 = p[0], p[-1] + 1
        ia, ib, r2 = _leaf_pair_r2(ctree, tree, a[p0:p1], b[p0:p1])
        m = np.flatnonzero(mirror[p])
        p -= p0
        within = (r2[p] <= thresholds[k][:, None, None]).astype(float)
        keys = np.concatenate([(ia[p] * n_bins + k[:, None]).ravel(), (ib[p[m]] * n_bins + k[m, None]).ravel()])
        for acc, v in zip(flat, vals):  # row by row, as a call with that row alone sums it
            sums = [np.matmul(within, v[ib][p][:, :, None]).ravel()]
            if m.size:
                sums.append(np.matmul(v[ia][p][:, None, :], within)[m].ravel())
            np.add.at(acc, keys, np.concatenate(sums))


def _leaf_pair_bins(ctree, tree, a, b, mirror, vals, thresholds, bins) -> None:
    """Bin the values of leaf b's points at leaf a's centers, point pair by point pair.

    bins is (k, centers, radii + 1), to be cumulated: a point pair goes to
    the bin of the first threshold at or above its _sq_norm, or to the
    last.  Where mirror is set, the same bins take a's values at b's points.
    """
    flat, n_bins = bins.reshape(len(vals), -1), bins.shape[2]
    per_block = _leaf_block(ctree, tree)
    for p0 in range(0, a.size, per_block):
        ia, ib, r2 = _leaf_pair_r2(ctree, tree, a[p0 : p0 + per_block], b[p0 : p0 + per_block])
        j = np.searchsorted(thresholds, r2)
        m = np.flatnonzero(mirror[p0 : p0 + per_block])
        keys, back_keys = (ia[:, :, None] * n_bins + j).ravel(), (ib[m][:, None, :] * n_bins + j[m]).ravel()
        for acc, v in zip(flat, vals):
            np.add.at(acc, keys, np.broadcast_to(v[ib][:, None, :], j.shape).ravel())
            np.add.at(acc, back_keys, np.broadcast_to(v[ia[m]][:, :, None], j[m].shape).ravel())


def _local_sums(mu: DiscreteMeasure, fw: np.ndarray, eps: float) -> np.ndarray:
    """(N, d): at each support point x, the sum of (x - y) * fw[y] over the y with _sq_norm(x - y) <= eps**2.

    That is the exact complement of the truncation cut r2 > eps**2, so the
    pairs where the two kernel modes differ (y = x adds 0).  On `_pair_walk`
    over the cached `ball_tree` and itself: pairs with dmin2 > eps**2 drop,
    leaf pairs are summed in padded blocks as in `_leaf_pair_bins`, and a
    mirrored pair adds -(x - y) * fw[x] at y.
    """
    tree, eps2, fw = mu.ball_tree, eps * eps, fw[mu.ball_tree.perm]
    out = np.zeros((mu.ambient_dim, len(mu) + 1))  # the last column takes the padding
    width = int((tree.end - tree.start)[tree.leaves].max())
    per_block = _leaf_block(tree, tree)

    def settle(a, b, dmin2, dmax2, mirror, leaves):
        near = dmin2 <= eps2
        pairs = np.flatnonzero(near & leaves)
        for p0 in range(0, pairs.size, per_block):
            blk = pairs[p0 : p0 + per_block]
            (ia, va), (ib, vb) = _leaf_rows(tree, a[blk], width), _leaf_rows(tree, b[blk], width)
            diff = [pc[ia][:, :, None] - pc[ib][:, None, :] for pc in tree.points.T]
            inside = _sq_norm(diff) <= eps2
            forward = np.where(inside & vb[:, None, :], fw[ib][:, None, :], 0.0)
            m = np.flatnonzero(mirror[blk])
            back = np.where(inside[m] & va[m][:, :, None], fw[ia[m]][:, :, None], 0.0)
            rows_a, rows_b = np.where(va, ia, -1).ravel(), np.where(vb[m], ib[m], -1).ravel()
            for o, plane in zip(out, diff):
                np.add.at(o, rows_a, np.einsum("pij,pij->pi", plane, forward).ravel())
                np.add.at(o, rows_b, -np.einsum("pij,pij->pj", plane[m], back).ravel())
        return near & ~leaves

    _pair_walk(tree, tree, settle)
    return out[:, :-1].T[np.argsort(tree.perm)]


def _check_grid_floor(mu: DiscreteMeasure, grid: ScaleGrid) -> None:
    if grid.r_min < mu.resolution_h * (1.0 - 1e-12):
        raise ValueError(
            f"grid floor {grid.r_min} is below the measure resolution "
            f"{mu.resolution_h}; density ratios under the resolution are noise"
        )


def density_ratios(
    mu: DiscreteMeasure,
    centers: np.ndarray,
    radii: np.ndarray,
    values: np.ndarray | None = None,
) -> np.ndarray:
    """Ball sums over r**n: the (len(centers), len(radii)) table of ratios.

    Entry [..., i, k] holds ball_masses(mu, centers, radii, values)[..., i, k]
    divided by radii[k]**n, the density ratio mu(B(x, r)) / r**n of the
    paper's density tests when values is None; stacked values give one
    table per row, as in ball_masses.  This is the package's one place
    where ball sums meet the scale r**n.
    """
    radii = np.asarray(radii, dtype=float).ravel()
    if not np.all(radii > 0.0):
        raise ValueError("density ratio radii must be positive")
    return ball_masses(mu, centers, radii, values) / radii**mu.hausdorff_dim


def growth_constant(mu: DiscreteMeasure, grid: ScaleGrid) -> float:
    """max over support points x and grid radii r of mu(B(x, r)) / r**n.

    The upper of the two `ad_constants`.
    """
    return ad_constants(mu, grid)[1]


def ad_constants(mu: DiscreteMeasure, grid: ScaleGrid) -> tuple[float, float]:
    """(c_lower, c_upper): min and max of mu(B(x, r)) / r**n over the grid.

    Two-sided regularity constants evaluated at the support points.  Always
    satisfies 0 <= c_lower <= c_upper; c_lower > 0 whenever every grid ball
    centered at a support point is nonempty (it contains its own center).
    """
    _check_grid_floor(mu, grid)
    ratios = density_ratios(mu, mu.points, grid.radii())
    return float(ratios.min()), float(ratios.max())


def density_profile(mu: DiscreteMeasure, x, grid: ScaleGrid) -> np.ndarray:
    """Rows (r, mu(B(x, r)) / r**n) for each grid radius.

    The max and min of the ratio column are the scale-range proxies for the
    upper and lower n-dimensional densities at x; true limiting densities
    would need r -> 0, which a discrete cloud cannot resolve.
    """
    (x,) = _as_points(mu, x, "center")
    lo, hi = mu.bbox()
    if np.any(x < lo - grid.r_max) or np.any(x > hi + grid.r_max):
        raise ValueError("query point lies outside the inflated bounding box")
    radii = grid.radii()
    return np.column_stack([radii, density_ratios(mu, x[None, :], radii)[0]])


def _bbox_diagonal(points: np.ndarray) -> float:
    """Length of the diagonal of the points' bounding box, which bounds their diameter above."""
    span = points.max(axis=0) - points.min(axis=0)
    return float(np.sqrt(np.dot(span, span)))


def _safe_resolution(points: np.ndarray, h: float) -> float:
    """Clamp a resolution guess so the DiscreteMeasure invariant holds."""
    if points.shape[0] < 2:
        return h
    diag = _bbox_diagonal(points)
    if diag <= 0.0:
        raise ValueError("cannot build a measure from coincident points")
    return min(h, diag)


def restrict(mu: DiscreteMeasure, keep) -> DiscreteMeasure:
    """Sub-measure with the selected points and their original weights.

    `keep` is a boolean mask or an integer index array.  An empty
    selection raises EmptySelectionError.
    """
    n_pts, arr = len(mu), np.asarray(keep)
    if arr.dtype == bool:
        if arr.shape != (n_pts,):
            raise ValueError("boolean mask must align with the point list")
        idx = np.flatnonzero(arr)
    else:
        idx = np.unique(arr.astype(int))
        if idx.size and (idx[0] < 0 or idx[-1] >= n_pts):
            raise IndexError("selection index out of range")
    if idx.size == 0:
        raise EmptySelectionError("restriction selected no points")
    pts = mu.points[idx]
    return DiscreteMeasure(
        pts, mu.weights[idx], mu.hausdorff_dim, _safe_resolution(pts, mu.resolution_h)
    )


def support_diameter(mu: DiscreteMeasure) -> float:
    """Maximum pairwise distance between support points (0 for N = 1)."""
    return mu.diameter


# ---------------------------------------------------------------------------
# median-split spatial tree
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpatialTree:
    """Flat-array hierarchy of axis-aligned boxes over a measure's support.

    A node's points are the contiguous range [start, end) of the tree
    order, and the leaves partition it.  Nodes are numbered depth by
    depth: the children of a depth's split nodes are numbered, left before
    right and in the tree order of their parents, after every node of
    that depth.  So leaf ids do not follow the tree order (a leaf precedes
    the deeper leaves to its left); `leaves` lists them in tree order.
    `levels` holds the inner nodes of each depth, root first, so a pass
    over it in order reaches every parent before its children.  The build
    sets both; the upward and downward passes read them.
    """

    perm: np.ndarray  # (N,) permutation: tree order -> original index
    points: np.ndarray  # (N, d) points in tree order
    start: np.ndarray  # (M,) first point of each node (tree order)
    end: np.ndarray  # (M,) one past the last point
    left: np.ndarray  # (M,) child ids, -1 for leaves
    right: np.ndarray
    box_lo: np.ndarray  # (M, d) per-axis minimum over the node's points
    box_hi: np.ndarray  # (M, d) per-axis maximum
    centroid: np.ndarray  # (M, d) weight centroid
    radius: np.ndarray  # (M,) max distance centroid -> box corner
    node_weight: np.ndarray  # (M,)
    leaves: np.ndarray  # leaf ids in tree order
    levels: tuple[np.ndarray, ...]  # per depth, root first: the ids of its inner nodes (none at the last)

    @property
    def n_nodes(self) -> int:
        return self.start.size


def _build_spatial_tree(pts: np.ndarray, w: np.ndarray, leaf_cap: int) -> SpatialTree:
    """Median-split tree built one depth at a time, deterministic for a fixed input order.

    Every node of a depth with more than leaf_cap points and a positive
    extent is split at once: one stable lexsort over (node, coordinate on
    the node's widest axis) orders each node's points as a stable argsort
    of that node alone would, and the children take the halves
    [start, mid) and [mid, end), mid = start + count // 2.  w weighs the
    centroids.
    """
    perm = np.arange(pts.shape[0])
    start, end = np.zeros(1, dtype=np.int64), np.full(1, pts.shape[0], dtype=np.int64)
    first_id = 0
    depths, levels = [], []
    while start.size:
        count = end - start
        first = np.cumsum(count) - count  # each node's offset among the depth's points
        owner = np.repeat(np.arange(start.size), count)
        idx = np.arange(count.sum()) + (start - first)[owner]
        sub, sw = pts[perm[idx]], w[perm[idx]]
        lo, hi = np.minimum.reduceat(sub, first), np.maximum.reduceat(sub, first)
        weight = np.add.reduceat(sw, first)
        centroid = np.add.reduceat(sub * sw[:, None], first) / weight[:, None]
        extent = hi - lo
        split = (count > leaf_cap) & (extent.max(axis=1) > 0.0)  # zero extent: no spatial split
        in_split = split[owner]
        sel, coord = idx[in_split], sub[in_split, extent.argmax(axis=1)[owner[in_split]]]
        perm[sel] = perm[sel[np.lexsort((coord, owner[in_split]))]]
        # children are numbered after every node of this depth, left before right
        left = np.where(split, first_id + start.size + 2 * np.cumsum(split) - 2, -1)
        right = np.where(split, left + 1, -1)
        levels.append(first_id + np.flatnonzero(split))
        first_id += start.size
        depths.append((start, end, left, right, lo, hi, centroid, weight))
        mid = start[split] + count[split] // 2
        start = np.column_stack([start[split], mid]).ravel()
        end = np.column_stack([mid, end[split]]).ravel()

    start, end, left, right, lo, hi, centroid, weight = (np.concatenate(a) for a in zip(*depths))
    reach = np.maximum(centroid - lo, hi - centroid)
    leaves = np.flatnonzero(left < 0)
    return SpatialTree(
        perm=perm,
        points=np.ascontiguousarray(pts[perm]),
        start=start,
        end=end,
        left=left,
        right=right,
        box_lo=lo,
        box_hi=hi,
        centroid=centroid,
        radius=np.sqrt(np.einsum("md,md->m", reach, reach)),
        node_weight=weight,
        leaves=leaves[np.argsort(start[leaves])],
        levels=tuple(levels),
    )


def _box_dist2(lo_a, hi_a, lo_b, hi_b):
    """Least and greatest squared distance between the points of two boxes, row by row.

    Per axis the gap is max(lo_b - hi_a, lo_a - hi_b, 0) and the span
    max(hi_b - lo_a, hi_a - lo_b); a point is the box lo = hi = q.  The
    boxes are tight, so these are differences of coordinates of the boxes'
    points, and every rounded operation on the way is monotone; so for
    points x of a and y of b the squared distance computed as in a direct
    sum, _sq_norm(x - y), lies in [dmin2, dmax2].  Gap and span share one
    buffer, so that at most two (rows, d) temporaries are live at once.
    """
    diff = np.subtract(lo_b, hi_a)
    np.maximum(np.maximum(diff, lo_a - hi_b, out=diff), 0.0, out=diff)
    dmin2 = _sq_norm(diff.T)
    np.maximum(np.subtract(hi_b, lo_a, out=diff), hi_a - lo_b, out=diff)
    return dmin2, _sq_norm(diff.T)


def _boxes(tree: SpatialTree, nodes: np.ndarray):
    """(box_lo, box_hi) rows of the given nodes; take is a fast gather of whole rows."""
    return np.take(tree.box_lo, nodes, axis=0), np.take(tree.box_hi, nodes, axis=0)


def _leaf_rows(tree: SpatialTree, leaves: np.ndarray, width: int):
    """(idx, valid): the (leaves, width) tree-order point indices of the
    given leaves, padded with each leaf's first point where valid is False."""
    first = tree.start[leaves, None]
    idx = first + np.arange(width)
    valid = idx < tree.end[leaves, None]
    return np.where(valid, idx, first), valid


def _node_sums(tree: SpatialTree, vals: np.ndarray, shift=lambda sums, delta: sums) -> np.ndarray:
    """Per-node sums of vals (in tree order, one row per point), by one upward pass.

    With a shift, each row of vals is an expansion about its own point, and
    each node's sum is taken about the node's centroid: shift(sums, delta)
    re-expresses sums about a center x as sums about x - delta.  It moves
    the points to their leaves' centroids and each child to its parent's.
    """
    leaves = tree.leaves  # reduceat needs the tree order
    first, count = tree.start[leaves], tree.end[leaves] - tree.start[leaves]
    # the leaf step runs in blocks of whole leaves, each opened by the leaf
    # that holds a multiple of _UPWARD_BLOCK, so its shifted rows stay small
    cuts = np.unique(np.searchsorted(first, np.arange(0, len(tree.points), _UPWARD_BLOCK), "right") - 1)
    leaf_sums = []
    for blk in np.split(np.arange(leaves.size), cuts[1:]):
        lo, hi = first[blk[0]], first[blk[-1]] + count[blk[-1]]
        delta = tree.points[lo:hi] - np.repeat(tree.centroid[leaves[blk]], count[blk], axis=0)
        leaf_sums.append(np.add.reduceat(shift(vals[lo:hi], delta), first[blk] - lo))
    leaf_sums = np.concatenate(leaf_sums)
    sums = np.empty((tree.n_nodes,) + leaf_sums.shape[1:], dtype=leaf_sums.dtype)
    sums[leaves] = leaf_sums
    for inner in reversed(tree.levels):
        left, right = tree.left[inner], tree.right[inner]
        sums[inner] = shift(sums[left], tree.centroid[left] - tree.centroid[inner])
        sums[inner] += shift(sums[right], tree.centroid[right] - tree.centroid[inner])
    return sums


# ---------------------------------------------------------------------------
# text tables: a "# d=<d> ... count=<N> ..." header line, optional further
# comment lines starting with '#', then N rows of numbers, written with 17
# significant digits so the round trip is bit-exact for float64.
#
# measure file:  # d=<d> n=<n> count=<N> h=<resolution>, rows "x1 ... xd w"
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^#\s*d=(?P<d>\d+)\s+n=(?P<n>\d+)\s+count=(?P<count>\d+)\s+h=(?P<h>[-+0-9.eE]+)\s*$"
)


def _write_table(path, header: str, rows: np.ndarray, comments: Sequence[str] = ()) -> None:
    lines = [header] + [f"# {comment}" for comment in comments]
    fmt = " ".join(["%.17g"] * rows.shape[1])
    lines += [fmt % tuple(row.tolist()) for row in rows]  # row by row: no list of every row at once
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_table(path, header_re: re.Pattern, what: str, extra_columns: int) -> tuple[re.Match, np.ndarray]:
    """(header match, (count, d + extra_columns) array) of a text table file."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise ValueError(f"{path}: empty {what} file")
    m = header_re.match(raw[0])
    if m is None:
        raise ValueError(f"{path}: malformed header line {raw[0]!r}")
    count, width = int(m["count"]), int(m["d"]) + extra_columns
    rows = [ln.split() for ln in raw[1:] if ln.strip() and not ln.lstrip().startswith("#")]
    if len(rows) != count:
        raise ValueError(f"{path}: header count {count} != {len(rows)} data rows")
    if count == 0 or any(len(row) != width for row in rows):
        raise ValueError(f"{path}: need at least one row, each of {width} columns")
    return m, np.array([[float(tok) for tok in row] for row in rows])


def write_measure(mu: DiscreteMeasure, path, extra_comments: Sequence[str] = ()) -> None:
    header = f"# d={mu.ambient_dim} n={mu.hausdorff_dim} count={len(mu)} h={mu.resolution_h:.17g}"
    _write_table(path, header, np.column_stack([mu.points, mu.weights]), extra_comments)


def read_measure(path) -> DiscreteMeasure:
    m, data = _read_table(path, _HEADER_RE, "measure", 1)
    d = int(m["d"])
    return DiscreteMeasure(data[:, :d], data[:, d], int(m["n"]), float(m["h"]))
