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
from typing import Sequence

import numpy as np
from scipy.spatial import cKDTree


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
        n = int(self.hausdorff_dim)
        d = pts.shape[1]
        if not 1 <= n < d:
            raise ValueError(f"need 1 <= hausdorff_dim < ambient dim, got n={n}, d={d}")
        h = float(self.resolution_h)
        if not (np.isfinite(h) and h > 0.0):
            raise ValueError("resolution_h must be positive and finite")
        if pts.shape[0] >= 2:
            # cheap necessary check: bbox diagonal bounds the diameter above
            span = pts.max(axis=0) - pts.min(axis=0)
            diag = float(np.sqrt(np.dot(span, span)))
            if h > diag * (1.0 + 1e-12):
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

    @property
    def kdtree(self) -> cKDTree:
        """Spatial index for ball queries, built lazily and cached."""
        tree = self.__dict__.get("_kdtree")
        if tree is None:
            tree = cKDTree(self.points)
            object.__setattr__(self, "_kdtree", tree)
        return tree

    @property
    def diameter(self) -> float:
        """Maximum pairwise distance (0 for N = 1), computed once and cached."""
        diam = self.__dict__.get("_diameter")
        if diam is None:
            best = 0.0
            for i0 in range(0, len(self), 1024):
                diff = self.points[i0 : i0 + 1024, None, :] - self.points[None, :, :]
                best = max(best, float(np.einsum("ijk,ijk->ij", diff, diff).max()))
            diam = float(np.sqrt(best))
            object.__setattr__(self, "_diameter", diam)
        return diam

    def bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.points.min(axis=0), self.points.max(axis=0)


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
        if int(self.count) < 2:
            raise ValueError("count must be at least 2")
        object.__setattr__(self, "r_min", float(self.r_min))
        object.__setattr__(self, "r_max", float(self.r_max))
        object.__setattr__(self, "count", int(self.count))

    def radii(self) -> np.ndarray:
        return np.geomspace(self.r_min, self.r_max, self.count)


def total_mass(mu: DiscreteMeasure) -> float:
    """Sum of the weights, exactly as stored."""
    return float(np.sum(mu.weights))


def ball_mass(mu: DiscreteMeasure, center, r: float) -> float:
    """Mass of the closed ball B(center, r)."""
    if not r > 0.0:
        raise ValueError("ball radius must be positive")
    center = np.asarray(center, dtype=float)
    idx = mu.kdtree.query_ball_point(center, r)
    if not idx:
        return 0.0
    return float(np.sum(mu.weights[idx]))


def ball_masses(
    mu: DiscreteMeasure,
    centers: np.ndarray,
    radii: np.ndarray,
    values: np.ndarray | None = None,
    chunk: int = 256,
) -> np.ndarray:
    """Closed-ball sums over a grid of centers and radii.

    Returns a (len(centers), len(radii)) array of sums of `values` (the
    weights when values is None) inside each ball.  Distances from each
    center are sorted once, so the cost per center is one O(N log N) pass
    regardless of how many radii are queried.  Summation order is fixed by
    the sort, which makes the output deterministic.
    """
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.asarray(radii, dtype=float)
    vals = mu.weights if values is None else np.asarray(values, dtype=float)
    out = np.empty((centers.shape[0], radii.size))
    pts = mu.points
    for i0 in range(0, centers.shape[0], chunk):
        blk = centers[i0 : i0 + chunk]
        diff = blk[:, None, :] - pts[None, :, :]
        dist = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        order = np.argsort(dist, axis=1, kind="stable")
        dist_sorted = np.take_along_axis(dist, order, axis=1)
        cums = np.cumsum(vals[order], axis=1)
        for row in range(blk.shape[0]):
            pos = np.searchsorted(dist_sorted[row], radii, side="right")
            out[i0 + row] = np.where(pos > 0, cums[row][np.maximum(pos - 1, 0)], 0.0)
    return out


def _check_grid_floor(mu: DiscreteMeasure, grid: ScaleGrid) -> None:
    if grid.r_min < mu.resolution_h * (1.0 - 1e-12):
        raise ValueError(
            f"grid floor {grid.r_min} is below the measure resolution "
            f"{mu.resolution_h}; density ratios under the resolution are noise"
        )


def growth_constant(mu: DiscreteMeasure, grid: ScaleGrid) -> float:
    """max over support points x and grid radii r of mu(B(x, r)) / r**n."""
    _check_grid_floor(mu, grid)
    radii = grid.radii()
    masses = ball_masses(mu, mu.points, radii)
    ratios = masses / radii[None, :] ** mu.hausdorff_dim
    return float(ratios.max())


def ad_constants(mu: DiscreteMeasure, grid: ScaleGrid) -> tuple[float, float]:
    """(c_lower, c_upper): min and max of mu(B(x, r)) / r**n over the grid.

    Two-sided regularity constants evaluated at the support points.  Always
    satisfies 0 <= c_lower <= c_upper; c_lower > 0 whenever every grid ball
    centered at a support point is nonempty (it contains its own center).
    """
    _check_grid_floor(mu, grid)
    radii = grid.radii()
    masses = ball_masses(mu, mu.points, radii)
    ratios = masses / radii[None, :] ** mu.hausdorff_dim
    return float(ratios.min()), float(ratios.max())


def density_profile(mu: DiscreteMeasure, x, grid: ScaleGrid) -> np.ndarray:
    """Rows (r, mu(B(x, r)) / r**n) for each grid radius.

    The max and min of the ratio column are the scale-range proxies for the
    upper and lower n-dimensional densities at x; true limiting densities
    would need r -> 0, which a discrete cloud cannot resolve.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = mu.bbox()
    if np.any(x < lo - grid.r_max) or np.any(x > hi + grid.r_max):
        raise ValueError("query point lies outside the inflated bounding box")
    radii = grid.radii()
    masses = ball_masses(mu, x[None, :], radii)[0]
    return np.column_stack([radii, masses / radii**mu.hausdorff_dim])


def _safe_resolution(points: np.ndarray, h: float) -> float:
    """Clamp a resolution guess so the DiscreteMeasure invariant holds."""
    if points.shape[0] < 2:
        return h
    span = points.max(axis=0) - points.min(axis=0)
    diag = float(np.sqrt(np.dot(span, span)))
    if diag <= 0.0:
        raise ValueError("cannot build a measure from coincident points")
    return min(h, diag)


def restrict(mu: DiscreteMeasure, keep) -> DiscreteMeasure:
    """Sub-measure with the selected points and their original weights.

    `keep` may be a boolean mask, an integer index array, or a callable
    mapping a point index to bool.  An empty selection raises
    EmptySelectionError.
    """
    n_pts = len(mu)
    if callable(keep):
        mask = np.fromiter((bool(keep(i)) for i in range(n_pts)), dtype=bool, count=n_pts)
        idx = np.flatnonzero(mask)
    else:
        arr = np.asarray(keep)
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
# measure file format
#
# First line:  # d=<d> n=<n> count=<N> h=<resolution>
# Optional further comment lines starting with '#'.
# Then N rows "x1 x2 ... xd w", written with 17 significant digits so the
# round trip is bit-exact for float64.
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(
    r"^#\s*d=(\d+)\s+n=(\d+)\s+count=(\d+)\s+h=([-+0-9.eE]+)\s*$"
)


def write_measure(mu: DiscreteMeasure, path, extra_comments: Sequence[str] = ()) -> None:
    lines = [
        f"# d={mu.ambient_dim} n={mu.hausdorff_dim} count={len(mu)} "
        f"h={mu.resolution_h:.17g}"
    ]
    for comment in extra_comments:
        lines.append(f"# {comment}")
    for p, w in zip(mu.points, mu.weights):
        coords = " ".join(f"{c:.17g}" for c in p)
        lines.append(f"{coords} {w:.17g}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_measure(path) -> DiscreteMeasure:
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise ValueError(f"{path}: empty measure file")
    m = _HEADER_RE.match(raw[0])
    if m is None:
        raise ValueError(f"{path}: malformed header line {raw[0]!r}")
    d, n, count, h = int(m.group(1)), int(m.group(2)), int(m.group(3)), float(m.group(4))
    rows = [ln for ln in raw[1:] if ln.strip() and not ln.lstrip().startswith("#")]
    if len(rows) != count:
        raise ValueError(f"{path}: header count {count} != {len(rows)} data rows")
    data = np.array([[float(tok) for tok in ln.split()] for ln in rows])
    if data.shape[1] != d + 1:
        raise ValueError(f"{path}: rows must have d+1 = {d + 1} columns")
    return DiscreteMeasure(data[:, :d], data[:, d], n, h)
