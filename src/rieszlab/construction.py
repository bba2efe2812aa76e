"""AD-regularization pipeline: density subsets, ball covers, planar patches.

Given a source measure, the pipeline extracts the subset passing an absolute
multiscale density test (threshold 1/p), then the relatively dense core
(threshold 1/(p s) against the dense subset).  Both tests read
`measure.density_ratios` tables; the source's table is computed once per
run and also decides the adaptive family member, whose density test the
whole support passes (`adaptive_family`).  Dense points outside the core
are covered by balls whose radius is one tenth of the distance to the core,
selected greedily largest-first and colored so that same-color balls are
pairwise disjoint.  Each selected ball receives a flat n-disk patch of half
its radius carrying the exact disk n-volume, a backdrop n-plane through the
core is added, and the union of the flat pieces with the core restriction is
the AD-regularized output measure.

For the operator comparison, a proxy measure reweights the source mass inside
each patch ball so its ball mass matches the patch mass exactly.  The local
and nonlocal transform splits, the ball-average transfer, and the ball
interaction operator all act on measures supported in the patch balls.

The half-radius patch balls are pairwise disjoint across the whole selection
(greedy selection separates centers by more than the larger cover radius),
so ball assignment is unambiguous; coloring is only needed for the full
cover balls, whose doubled-ball disjointness holds per color class.

Every point-in-ball decision (greedy coverage, the overlap count, the patch
plane fits, the patch-ball labelling of the proxy and of any operand
measure, and the coverage check) reads `measure._ball_members`, as do
verification's matching check and its domination queries: y lies in B(c, r)
when sqrt(_sq_norm(c - y)) <= r, the closed-ball rule of `ball_mass` and
`ball_masses`.  The coloring, verification's color check and the
interaction gaps read one ball-against-ball table, `_ball_gaps`.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from math import gamma, pi

import numpy as np
from scipy.spatial import cKDTree

from rieszlab.measure import (
    DiscreteMeasure,
    ScaleGrid,
    _ball_members,
    _count,
    _safe_resolution,
    _sq_norm,
    ball_masses,  # bound here for test_tracer_wraps_every_binding_and_restores_it
    ad_constants,
    density_ratios,
    restrict,
    support_diameter,
    total_mass,
    write_measure,
)
from rieszlab.kernels import KernelConfig, VectorField, kernel_sum

_MATCHING_TOL = 1e-10  # relative proxy-vs-patch mass mismatch accepted by verification
_DOMINATION_QUERIES = 200  # random ball queries of verification's domination check
_DOMINATION_CHUNK = 32  # domination queries per batched ball-membership call
_BACKDROP_EXTENT = 3.0  # half-width of the backdrop sampling, times the support diameter
_LOWER_FLOOR_FACTOR = 1.0 / 64.0  # lower-regularity floor of verification, times 1/(p s)
_OVERLAP_BASE = 4  # the cover's pointwise overlap cap in R^d is _OVERLAP_BASE**d


class EmptyCoreError(ValueError):
    """Density extraction produced an empty set; raise p or s."""


class EmptyExclusionError(ValueError):
    """Cover called with an empty exclusion set.

    No covering is needed when every target already lies in the reference
    set; handle that degenerate branch in the caller.
    """


class ZeroMassBallError(ValueError):
    """A patch ball carries no source mass; reports the offending center."""


class UnassignedPointError(ValueError):
    """A point of the operand measure lies in no patch ball."""


class CoverOverlapError(ValueError):
    """The selected balls overlap more often than the cap 4**d allows."""


class CoverInvariantError(RuntimeError):
    """A structural invariant of the greedy cover failed; this is a defect."""


@dataclass(frozen=True)
class DensitySubsetParams:
    """Density thresholds 1/p (absolute) and 1/(p s) (relative), plus the grid.

    The grid must reach exactly the support diameter of the measure the
    params are used against; its floor is the resolution proxy for r -> 0.
    """

    p: int
    s: int
    grid: ScaleGrid

    def __post_init__(self):
        object.__setattr__(self, "p", _count("p", self.p, 1))
        object.__setattr__(self, "s", _count("s", self.s, 1))


def density_params(
    mu: DiscreteMeasure, p: int, s: int, count: int = 28, r_floor: float | None = None
) -> DensitySubsetParams:
    """Params with the standard grid [4h, diam] for the given measure."""
    diam = support_diameter(mu)
    floor = 4.0 * mu.resolution_h if r_floor is None else float(r_floor)
    if not floor < diam:
        raise ValueError(f"grid floor {floor} must be below the diameter {diam}")
    return DensitySubsetParams(p, s, ScaleGrid(floor, diam, count))


def _check_params_grid(mu: DiscreteMeasure, params: DensitySubsetParams) -> None:
    diam = support_diameter(mu)
    if abs(params.grid.r_max - diam) > 1e-6 * max(diam, 1.0):
        raise ValueError(
            f"params grid must reach the support diameter {diam}, got {params.grid.r_max}"
        )


def extract_dense_set(ratios: np.ndarray, params: DensitySubsetParams) -> np.ndarray:
    """Indices whose ratio mu(B(x, r)) / r**n meets 1/p at every grid radius.

    `ratios` is the `density_ratios` table of mu at its own points on
    params.grid, one row per support point.
    """
    return np.flatnonzero(np.all(ratios >= (1.0 - 1e-12) / params.p, axis=1))


def extract_core_set(
    mu: DiscreteMeasure, dense_idx: np.ndarray, params: DensitySubsetParams, ratios: np.ndarray
) -> np.ndarray:
    """Subset of the dense set that stays dense relative to it.

    Applies the weaker threshold 1/(p s) to ratios of the restriction of mu
    to the dense set, read at the dense points from the table at every
    support point with the weights masked to the dense set (centers at the
    support points pair the support's tree with itself).  `ratios` is the
    table `extract_dense_set` read; when the dense set is the whole support
    the restriction is mu itself, and that table is reused.
    """
    dense_idx = np.asarray(dense_idx, dtype=int)
    if dense_idx.size < len(mu):
        mask = np.zeros(len(mu))
        mask[dense_idx] = 1.0
        ratios = density_ratios(mu, mu.points, params.grid.radii(), values=mu.weights * mask)
    ratios = ratios[dense_idx]
    ok = np.all(ratios >= (1.0 - 1e-12) / (params.p * params.s), axis=1)
    return dense_idx[ok]


# ---------------------------------------------------------------------------
# greedy bounded-overlap ball cover
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoverReport:
    """Greedy ball cover with clearance radii and a disjointness coloring.

    centers index the source measure; radii hold the clearance d(x), one
    tenth of the distance from each center to the exclusion set, which is
    the radius of the cover ball B(x, d(x)).  The half-radius patch balls
    B(x, d(x)/2) are pairwise disjoint across the entire selection; within
    one color class even the full cover balls are pairwise disjoint.
    """

    centers: np.ndarray
    center_points: np.ndarray
    radii: np.ndarray
    colors: np.ndarray
    max_overlap: int
    n_colors: int

    def __len__(self) -> int:
        return self.centers.size

    def patch_radii(self) -> np.ndarray:
        return self.radii / 2.0


def besicovitch_cover(mu: DiscreteMeasure, targets, exclusion) -> CoverReport:
    """Cover the target points by balls B(x, d(x)), d = dist(., exclusion)/10.

    Greedy largest-clearance-first selection, skipping any candidate already
    covered by a selected ball.  Selected centers are therefore separated by
    more than the larger of their clearances, every target is covered, and a
    greedy first-fit coloring of the ball intersection graph yields color
    classes with pairwise disjoint balls.  The pointwise overlap of the
    selected balls over the support is checked against the cap 4**d;
    CoverOverlapError reports an excess.
    """
    targets = np.asarray(targets, dtype=int)
    exclusion = np.asarray(exclusion, dtype=int)
    if exclusion.size == 0:
        raise EmptyExclusionError(
            "empty exclusion set: no covering is needed when the targets "
            "already belong to the reference set; use the degenerate branch"
        )
    if np.intersect1d(targets, exclusion).size:
        raise ValueError("targets and exclusion must be disjoint")
    cap = _OVERLAP_BASE**mu.ambient_dim
    tpts = mu.points[targets]
    expts = mu.points[exclusion]
    clearance = cKDTree(expts).query(tpts)[0] / 10.0
    if np.any(clearance <= 0.0):
        raise ValueError("a target coincides with an exclusion point")

    order = np.argsort(-clearance, kind="stable")  # ties: first index wins
    covered = np.zeros(len(mu), dtype=bool)  # over the whole support
    selected: list[int] = []
    members: list[np.ndarray] = []  # support points of each selected ball
    for i in order:
        if covered[targets[i]]:
            continue
        (ball,) = _ball_members(mu, tpts[i], clearance[i])
        selected.append(i)
        members.append(ball)
        covered[ball] = True
    sel = np.asarray(selected, dtype=int)
    cpts = tpts[sel]
    crad = clearance[sel]

    if not covered[targets].all():
        raise CoverInvariantError("greedy selection left a target uncovered")

    # first-fit coloring of the ball intersection graph, in selection order;
    # two balls clash when their gap is not positive, verification's rule
    k = sel.size
    gaps = _ball_gaps(cpts, crad)
    colors = np.zeros(k, dtype=int)
    for i in range(k):
        clash = set(colors[:i][gaps[i, :i] <= 0.0].tolist())
        c = 1
        while c in clash:
            c += 1
        colors[i] = c

    # pointwise overlap over the whole support
    max_overlap = int(np.bincount(np.concatenate([np.empty(0, np.intp)] + members)).max(initial=0))
    if max_overlap > cap:
        raise CoverOverlapError(
            f"cover overlap {max_overlap} exceeds the configured cap {cap}"
        )
    return CoverReport(
        centers=targets[sel],
        center_points=cpts,
        radii=crad,
        colors=colors,
        max_overlap=max_overlap,
        n_colors=int(colors.max(initial=0)),
    )


# ---------------------------------------------------------------------------
# flat pieces: disk patches and the backdrop plane
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiskPatch:
    """Discretized n-disk in the plane (center + span(basis)) of one ball.

    Sample points carry equal weights summing to the exact disk n-volume,
    so refining the spacing never changes the patch mass.
    """

    center: np.ndarray
    radius: float
    basis: np.ndarray  # (n, d) orthonormal
    spacing: float
    points: np.ndarray
    weights: np.ndarray

    @property
    def total_weight(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class BackdropPlane:
    """Bounded sampling of the background n-plane through the core set."""

    base_point: np.ndarray
    basis: np.ndarray
    extent: float
    spacing: float
    count: int


def _unit_ball_volume(n: int) -> float:
    return pi ** (n / 2.0) / gamma(n / 2.0 + 1.0)


def _sign_fix(vec: np.ndarray) -> np.ndarray:
    j = int(np.argmax(np.abs(vec)))
    return -vec if vec[j] < 0 else vec


def _orthonormal_basis(candidates: np.ndarray, n: int, d: int) -> np.ndarray:
    """First n independent directions from candidates, padded with axes."""
    rows = list(candidates) + list(np.eye(d))
    basis: list[np.ndarray] = []
    for row in rows:
        v = np.asarray(row, dtype=float)
        for b in basis:
            v = v - (v @ b) * b
        nrm = np.linalg.norm(v)
        if nrm > 1e-10:
            basis.append(_sign_fix(v / nrm))
        if len(basis) == n:
            break
    return np.asarray(basis)


def _lsq_directions(points: np.ndarray, weights: np.ndarray, center: np.ndarray, n: int) -> np.ndarray:
    """Top-n right singular directions of the weighted centered cloud."""
    q = (points - center) * np.sqrt(weights)[:, None]
    _, svals, vt = np.linalg.svd(q, full_matrices=False)
    keep = svals > 1e-12 * max(float(svals[0]), 1e-300)
    return vt[keep][:n]


def _cell_midpoints(n: int, half_width: float, cells: int) -> tuple[np.ndarray, float]:
    """Midpoints of the cells**n cubes tiling [-half_width, half_width]^n,
    one row each, and the cube side."""
    spacing = 2.0 * half_width / cells
    ax = -half_width + (np.arange(cells) + 0.5) * spacing
    mesh = np.meshgrid(*([ax] * n), indexing="ij")
    return np.column_stack([m.ravel() for m in mesh]), spacing


def _disk_offsets(n: int, radius: float, spacing_frac: float) -> tuple[np.ndarray, float, float]:
    """Midpoint samples of the n-disk; equal weights, exact total volume."""
    grid, spacing = _cell_midpoints(n, radius, max(int(round(2.0 / spacing_frac)), 2))
    inside = np.einsum("ij,ij->i", grid, grid) <= radius**2
    grid = grid[inside]
    volume = _unit_ball_volume(n) * radius**n if n > 1 else 2.0 * radius
    return grid, volume / grid.shape[0], spacing


def attach_patches(
    mu: DiscreteMeasure,
    cover: CoverReport,
    core_idx,
    spacing_frac: float = 1.0 / 16.0,
) -> tuple[list[DiskPatch], BackdropPlane, DiscreteMeasure, DiscreteMeasure | None]:
    """Flat n-disks on the cover balls plus the backdrop plane.

    Returns (patches, backdrop, flat_measure, patch_measure): flat_measure is
    the union of the backdrop samples and all patches; patch_measure holds
    the patches alone (None when the cover is empty).  Each patch lies in
    the least-squares plane of the source points inside its ball
    (deterministic SVD with sign-fixed directions, coordinate axes as
    fallback), sampled at 2 / spacing_frac cells per diameter.  The backdrop
    passes through the first core point, along the least-squares plane of
    the core (the first n axes for a one-point core), sampled over
    [-3 diam, 3 diam]^n at about an eighth of the smallest patch radius
    (diam / 128 without patches); its far tail contributes O(1/extent) to
    every tested functional.
    """
    if not (spacing_frac > 0.0 and np.isfinite(spacing_frac)):
        raise ValueError(f"spacing_frac must be positive and finite, got {spacing_frac}")
    core_idx = np.asarray(core_idx, dtype=int)
    if core_idx.size == 0:
        raise EmptyCoreError("backdrop plane needs a nonempty core")
    n, d = mu.hausdorff_dim, mu.ambient_dim

    patches: list[DiskPatch] = []
    members = _ball_members(mu, cover.center_points, cover.patch_radii())
    for near, center, r in zip(members, cover.center_points, cover.patch_radii()):
        dirs = _lsq_directions(mu.points[near], mu.weights[near], center, n)
        basis = _orthonormal_basis(dirs, n, d)
        offsets, w_each, spacing = _disk_offsets(n, r, spacing_frac)
        pts = center[None, :] + offsets @ basis
        patches.append(
            DiskPatch(
                center=center,
                radius=float(r),
                basis=basis,
                spacing=float(spacing),
                points=pts,
                weights=np.full(pts.shape[0], w_each),
            )
        )

    core_pts = mu.points[core_idx]
    base = core_pts[0]
    dirs = _lsq_directions(core_pts, mu.weights[core_idx], core_pts.mean(axis=0), n)
    bg_basis = _orthonormal_basis(dirs, n, d)
    diam = support_diameter(mu)
    extent = _BACKDROP_EXTENT * diam
    plane_spacing = min(p.radius for p in patches) / 8.0 if patches else diam / 128.0
    cells = max(int(round(2.0 * extent / plane_spacing)), 2)
    bg_offsets, bg_spacing = _cell_midpoints(n, extent, cells)
    bg_pts = base[None, :] + bg_offsets @ bg_basis
    bg_w = np.full(bg_pts.shape[0], bg_spacing**n)
    backdrop = BackdropPlane(base, bg_basis, float(extent), float(bg_spacing), bg_pts.shape[0])

    all_pts = [bg_pts] + [p.points for p in patches]
    all_w = [bg_w] + [p.weights for p in patches]
    h = min([bg_spacing] + [p.spacing for p in patches])
    flat = DiscreteMeasure(np.vstack(all_pts), np.concatenate(all_w), n, h)
    patch_measure = None
    if patches:
        ppts = np.vstack([p.points for p in patches])
        pw = np.concatenate([p.weights for p in patches])
        ph = min(p.spacing for p in patches)
        patch_measure = DiscreteMeasure(ppts, pw, n, _safe_resolution(ppts, ph))
    return patches, backdrop, flat, patch_measure


def build_regularized_measure(
    mu: DiscreteMeasure, core_idx, flat: DiscreteMeasure
) -> DiscreteMeasure:
    """Union of the flat pieces with the core restriction (concatenated)."""
    core_idx = np.asarray(core_idx, dtype=int)
    if core_idx.size == 0:
        return flat
    core = restrict(mu, core_idx)
    pts = np.vstack([flat.points, core.points])
    w = np.concatenate([flat.weights, core.weights])
    h = min(flat.resolution_h, core.resolution_h)
    return DiscreteMeasure(pts, w, mu.hausdorff_dim, h)


def build_proxy_measure(
    mu: DiscreteMeasure, cover: CoverReport, patches: list[DiskPatch]
) -> tuple[DiscreteMeasure | None, np.ndarray, np.ndarray | None]:
    """Reweighted restriction of mu to the patch balls.

    Inside the ball of center x the source weights are scaled by
    c_x = (patch mass) / mu(B_x), so the proxy ball mass equals the patch
    mass exactly.  Returns (proxy, coefficients, ball_of_point); the proxy is
    None for an empty cover.  A patch ball without source mass raises
    ZeroMassBallError naming the center.
    """
    k = len(cover)
    if k == 0:
        return None, np.empty(0), None
    if len(patches) != k:
        raise ValueError("patch list must align with the cover")
    members, label = _patch_ball_labels(mu, cover)
    masses = np.array([np.sum(mu.weights[idx]) for idx in members])
    if not masses.all():  # weights are positive: only an empty ball has no mass
        i = np.flatnonzero(masses == 0.0)[0]
        raise ZeroMassBallError(f"patch ball {i} (source index {cover.centers[i]}) has no source mass")
    coeffs = np.array([p.total_weight for p in patches]) / masses
    idx = np.concatenate(members)
    ball_of_point = label[idx]
    pts = mu.points[idx]
    w = mu.weights[idx] * coeffs[ball_of_point]
    proxy = DiscreteMeasure(pts, w, mu.hausdorff_dim, _safe_resolution(pts, mu.resolution_h))
    return proxy, coeffs, ball_of_point


# ---------------------------------------------------------------------------
# operators on ball-supported measures
# ---------------------------------------------------------------------------


def _patch_ball_labels(measure: DiscreteMeasure, cover: CoverReport) -> tuple[list[np.ndarray], np.ndarray]:
    """Each patch ball's points (ascending) and each point's ball, -1 for none.

    A point in two patch balls breaks the cover's disjointness and raises
    CoverInvariantError.
    """
    members = _ball_members(measure, cover.center_points, cover.patch_radii())
    label = np.full(len(measure), -1, dtype=int)
    claimed = np.concatenate([np.empty(0, dtype=np.intp)] + members)
    if np.bincount(claimed).max(initial=0) > 1:
        raise CoverInvariantError("patch balls are not disjoint")
    label[claimed] = np.repeat(np.arange(len(members)), [idx.size for idx in members])
    return members, label


def _assign_balls(measure: DiscreteMeasure, cover: CoverReport) -> np.ndarray:
    """Index of the patch ball containing each point (balls are disjoint)."""
    assignment = _patch_ball_labels(measure, cover)[1]
    if np.any(assignment < 0):
        bad = int(np.flatnonzero(assignment < 0)[0])
        raise UnassignedPointError(f"point {bad} lies in no patch ball")
    return assignment


def _ball_sums(points, fw, ball_of_point, cfg: KernelConfig, targets, target_ball, local: bool) -> np.ndarray:
    """Transform at each target from the sources in its own ball (local) or
    outside it (nonlocal); sources and targets carry their ball labels."""
    out = np.zeros((targets.shape[0], points.shape[1]))
    for b in np.unique(target_ball):
        at, src = target_ball == b, (ball_of_point == b) == local
        out[at] = kernel_sum(points[src], fw[src], cfg, targets[at])
    return out


def _ball_gaps(centers: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """|c_i - c_j| - r_i - r_j for every pair of balls: the gap between two
    closed balls, positive exactly when they are disjoint."""
    sep = np.sqrt(_sq_norm(c[:, None] - c[None, :] for c in centers.T))
    return sep - radii[:, None] - radii[None, :]


def split_local_nonlocal(
    measure: DiscreteMeasure,
    cover: CoverReport,
    f,
    cfg: KernelConfig,
    ball_of_point: np.ndarray | None = None,
) -> tuple[VectorField, VectorField]:
    """Transform split into within-ball and cross-ball parts.

    The local part at z sums only over the patch ball containing z, the
    nonlocal part over its complement; the two add up to the full transform
    exactly (same kernel, disjoint source index sets).
    """
    f = np.asarray(f, dtype=float)
    assignment = _assign_balls(measure, cover) if ball_of_point is None else np.asarray(ball_of_point)
    fw = f * measure.weights
    local = _ball_sums(measure.points, fw, assignment, cfg, measure.points, assignment, True)
    nonlocal_ = _ball_sums(measure.points, fw, assignment, cfg, measure.points, assignment, False)
    return VectorField(local), VectorField(nonlocal_)


def transfer_ball_averages(
    g, proxy: DiscreteMeasure, sigma: DiscreteMeasure, cover: CoverReport
) -> np.ndarray:
    """Ball-constant density f on the proxy matching sigma's ball integrals.

    On each patch ball, f = (integral of g against sigma) / proxy ball mass,
    so the matching condition holds to rounding.  When the ball masses agree
    (they do by construction of the proxy), Cauchy-Schwarz gives
    |f|_{L2(proxy)} <= |g|_{L2(sigma)}.
    """
    g = np.asarray(g, dtype=float)
    pa, sa = _assign_balls(proxy, cover), _assign_balls(sigma, cover)
    k = len(cover)
    nu_mass = np.bincount(pa, weights=proxy.weights, minlength=k)
    if np.any(nu_mass <= 0.0):
        bad = int(np.flatnonzero(nu_mass <= 0.0)[0])
        raise ZeroMassBallError(f"proxy ball {bad} has zero mass")
    g_int = np.bincount(sa, weights=g * sigma.weights, minlength=k)
    return (g_int / nu_mass)[pa]


def comparison_mismatch_ratio(
    f, g, proxy: DiscreteMeasure, sigma: DiscreteMeasure, cover: CoverReport, cfg: KernelConfig
) -> tuple[float, float]:
    """Squared nonlocal-transform mismatch between the proxy and sigma.

    For densities f on the proxy and g on sigma, integrates
    |Rnl_proxy f - Rnl_sigma g|^2 against proxy + sigma, where the nonlocal
    transform at z sums only over source points outside the patch ball
    containing z.  Returns (mismatch, mismatch / (|f|^2 + |g|^2)); the ratio
    is a measured constant, reported without asserting any bound.  Intended
    for (f, g) pairs satisfying the ball matching condition, for which the
    mismatch is controlled by the ball interaction operator.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    pa, sa = _assign_balls(proxy, cover), _assign_balls(sigma, cover)
    fw_p = f * proxy.weights
    fw_s = g * sigma.weights
    mismatch = 0.0
    for measure, assignment in ((proxy, pa), (sigma, sa)):
        from_proxy = _ball_sums(proxy.points, fw_p, pa, cfg, measure.points, assignment, False)
        from_sigma = _ball_sums(sigma.points, fw_s, sa, cfg, measure.points, assignment, False)
        diff = from_proxy - from_sigma
        mismatch += float(np.einsum("ij,ij->i", diff, diff) @ measure.weights)
    denom = float(np.sum(f**2 * proxy.weights) + np.sum(g**2 * sigma.weights))
    return mismatch, mismatch / denom if denom > 0 else 0.0


def ball_interaction_field(
    measure: DiscreteMeasure,
    cover: CoverReport,
    f,
    ball_of_point: np.ndarray | None = None,
) -> np.ndarray:
    """Cross-ball interaction sums r_x * gap(B(z), B_x)^-(n+1) * int_{B_x} f.

    The gap is the distance between the two closed patch balls; the output is
    constant on each ball.  Disjointness makes every gap strictly positive.
    """
    f = np.asarray(f, dtype=float)
    assignment = _assign_balls(measure, cover) if ball_of_point is None else np.asarray(ball_of_point)
    k = len(cover)
    integrals = np.bincount(assignment, weights=f * measure.weights, minlength=k)
    radii = cover.patch_radii()
    n = measure.hausdorff_dim
    gaps = _ball_gaps(cover.center_points, radii)
    np.fill_diagonal(gaps, np.inf)
    if np.any(gaps <= 0.0):
        raise CoverInvariantError("patch balls touch; interaction gaps must be positive")
    vals = np.einsum("jb,b->j", gaps ** (-(n + 1.0)), radii * integrals)
    return vals[assignment]


# ---------------------------------------------------------------------------
# pipeline driver, verification, serialization
# ---------------------------------------------------------------------------


@dataclass
class ConstructionResult:
    """Everything the pipeline produced, plus the grid it was run on.

    `ratios` is the source's `density_ratios` table at its own points on
    params.grid, which decided the dense set.
    """

    source: DiscreteMeasure
    params: DensitySubsetParams
    ratios: np.ndarray
    dense_idx: np.ndarray
    core_idx: np.ndarray
    cover: CoverReport
    patches: list[DiskPatch]
    backdrop: BackdropPlane
    flat_measure: DiscreteMeasure
    patch_measure: DiscreteMeasure | None
    regularized_measure: DiscreteMeasure
    proxy_measure: DiscreteMeasure | None
    proxy_coefficients: np.ndarray
    proxy_ball_of_point: np.ndarray | None

    @property
    def target_idx(self) -> np.ndarray:
        return np.setdiff1d(self.dense_idx, self.core_idx)


def run_construction(
    mu: DiscreteMeasure,
    params: DensitySubsetParams,
    spacing_frac: float = 1.0 / 16.0,
) -> ConstructionResult:
    """Full pipeline: density subsets, cover, patches, union, proxy.

    `spacing_frac` sets the patch sampling (`attach_patches`); the plane
    fits and the backdrop extent are fixed.
    """
    _check_params_grid(mu, params)
    ratios = density_ratios(mu, mu.points, params.grid.radii())
    return _construct(mu, params, ratios, spacing_frac=spacing_frac)


def _construct(
    mu: DiscreteMeasure,
    params: DensitySubsetParams,
    ratios: np.ndarray,
    spacing_frac: float = 1.0 / 16.0,
) -> ConstructionResult:
    """`run_construction` from the source's ratio table on params.grid."""
    dense = extract_dense_set(ratios, params)
    if dense.size == 0:
        raise EmptyCoreError(f"dense set is empty at p={params.p}; increase p")
    core = extract_core_set(mu, dense, params, ratios)
    if core.size == 0:
        raise EmptyCoreError(f"core is empty at p={params.p}, s={params.s}; increase s")
    targets = np.setdiff1d(dense, core)
    cover = besicovitch_cover(mu, targets, core)
    patches, backdrop, flat, patch_measure = attach_patches(mu, cover, core, spacing_frac)
    regularized = build_regularized_measure(mu, core, flat)
    proxy, coeffs, ball_of_point = build_proxy_measure(mu, cover, patches)
    return ConstructionResult(
        source=mu,
        params=params,
        ratios=ratios,
        dense_idx=dense,
        core_idx=core,
        cover=cover,
        patches=patches,
        backdrop=backdrop,
        flat_measure=flat,
        patch_measure=patch_measure,
        regularized_measure=regularized,
        proxy_measure=proxy,
        proxy_coefficients=coeffs,
        proxy_ball_of_point=ball_of_point,
    )


def adaptive_family(result: ConstructionResult) -> list[ConstructionResult]:
    """The result, then a member whose density test the whole support passes.

    The domination claim concerns such a family.  p* = ceil(1 / min ratio) + 1
    puts 1/p* below every ratio of the result's table, so on the result's
    grid the member's dense set and core are the whole support and its cover
    is empty, so the patch spacing has nothing to sample.  It reuses the
    table.  When p* <= p the result already is such a member and stands
    alone.
    """
    p_star = int(np.ceil(1.0 / result.ratios.min())) + 1
    if p_star <= result.params.p:
        return [result]
    params = DensitySubsetParams(p_star, 1, result.params.grid)
    return [result, _construct(result.source, params, result.ratios)]


@dataclass
class VerificationReport:
    """Pass/fail record of the checkable pipeline claims, with slack."""

    ad_range: tuple[float, float]
    ad_constants: tuple[float, float]
    ad_pass: bool
    lower_floor: float
    lower_floor_pass: bool
    matching_max_rel: float
    matching_pass: bool
    color_disjoint_pass: bool
    coverage_pass: bool
    max_overlap: int
    overlap_cap: int
    overlap_pass: bool
    domination_checked: int
    domination_worst: float
    domination_pass: bool

    def all_pass(self) -> bool:
        return all(v for k, v in asdict(self).items() if k.endswith("_pass"))

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}


def verify_construction(
    result: ConstructionResult,
    family: list[ConstructionResult] | None = None,
    seed: int = 7,
) -> VerificationReport:
    """Run the five checkable claims against a finished construction.

    (i) two-sided regularity constants of the regularized measure over
    [16 * patch spacing, diam]; (ii) proxy-vs-patch ball-mass matching,
    recomputed geometrically so tampering is caught; (iii) per-color
    disjointness of the doubled patch balls (the cover balls); (iv) coverage
    of every target point and pointwise overlap within the cap 4**d, from
    the cover balls recomputed on the source; (v) domination of the source
    by the family of regularized measures on random ball queries (family
    defaults to this result alone).  The lower-regularity floor
    1/(p s * 64) is a harness constant, not an asserted theory value.
    """
    mu = result.source
    reg = result.regularized_measure

    spacing = min((p.spacing for p in result.patches), default=result.flat_measure.resolution_h)
    r_lo = max(16.0 * spacing, reg.resolution_h)
    grid = ScaleGrid(r_lo, max(support_diameter(reg), r_lo * 4.0), 24)
    c_lo, c_hi = ad_constants(reg, grid)
    ad_pass = bool(c_lo > 0.0 and np.isfinite(c_hi))
    floor = _LOWER_FLOOR_FACTOR / (result.params.p * result.params.s)
    floor_pass = bool(c_lo >= floor)

    cover = result.cover
    worst_rel = 0.0
    if result.patches:
        proxy = result.proxy_measure
        balls = _ball_members(proxy, cover.center_points, [p.radius for p in result.patches])
        nu_mass = np.array([np.sum(proxy.weights[idx]) for idx in balls])
        patch_mass = np.array([p.total_weight for p in result.patches])
        worst_rel = float(np.max(np.abs(nu_mass - patch_mass) / patch_mass))
    matching_pass = bool(worst_rel <= _MATCHING_TOL)

    same_color = cover.colors[:, None] == cover.colors[None, :]
    np.fill_diagonal(same_color, False)
    color_ok = bool(np.all(_ball_gaps(cover.center_points, cover.radii)[same_color] > 0.0))

    balls = _ball_members(mu, cover.center_points, cover.radii)
    hits = np.bincount(np.concatenate([np.empty(0, np.intp)] + balls), minlength=len(mu))  # balls holding each point
    coverage_ok = bool(hits[result.target_idx].all())
    max_overlap, overlap_cap = int(hits.max()), _OVERLAP_BASE**mu.ambient_dim

    members = list(family) if family is not None else [result]
    rng = np.random.default_rng(seed)
    lo, hi = mu.bbox()
    span = np.where(hi > lo, hi - lo, 1.0)
    diam = support_diameter(mu) if len(mu) > 1 else 1.0
    centers, radii = np.empty((_DOMINATION_QUERIES, mu.ambient_dim)), np.empty(_DOMINATION_QUERIES)
    for q in range(_DOMINATION_QUERIES):  # each center, then its radius, from the one stream
        centers[q] = lo - 0.1 * span + rng.random(mu.ambient_dim) * 1.2 * span
        radii[q] = np.exp(rng.uniform(np.log(4.0 * mu.resolution_h), np.log(diam)))
    worst_dom = -np.inf
    for q0 in range(0, _DOMINATION_QUERIES, _DOMINATION_CHUNK):
        q = slice(q0, q0 + _DOMINATION_CHUNK)
        # each ball summed over its ascending members, as ball_mass sums it
        masses = [
            [float(np.sum(m.weights[idx])) for idx in _ball_members(m, centers[q], radii[q])]
            for m in [mu] + [member.regularized_measure for member in members]
        ]
        for mass_mu, *mass_family in zip(*masses):
            worst_dom = max(worst_dom, mass_mu - sum(mass_family))
    total = total_mass(mu)
    dom_pass = bool(worst_dom <= 1e-12 * total)

    return VerificationReport(
        ad_range=(grid.r_min, grid.r_max),
        ad_constants=(c_lo, c_hi),
        ad_pass=ad_pass,
        lower_floor=floor,
        lower_floor_pass=floor_pass,
        matching_max_rel=worst_rel,
        matching_pass=matching_pass,
        color_disjoint_pass=color_ok,
        coverage_pass=coverage_ok,
        max_overlap=max_overlap,
        overlap_cap=overlap_cap,
        overlap_pass=max_overlap <= overlap_cap,
        domination_checked=_DOMINATION_QUERIES,
        domination_worst=float(worst_dom),
        domination_pass=dom_pass,
    )


def save_construction(result: ConstructionResult, outdir, report: VerificationReport | None = None) -> None:
    """Serialize to a directory: measure files plus a JSON manifest."""
    os.makedirs(outdir, exist_ok=True)
    write_measure(result.flat_measure, os.path.join(outdir, "sigma.measure"))
    write_measure(result.regularized_measure, os.path.join(outdir, "regularized.measure"))
    if result.proxy_measure is not None:
        write_measure(result.proxy_measure, os.path.join(outdir, "proxy.measure"))
    params, cover = result.params, asdict(result.cover)
    manifest = {
        "p": params.p,
        "s": params.s,
        "grid": asdict(params.grid),
        "floor_radius": params.grid.r_min,
        "dense_count": result.dense_idx.size,
        "core_count": result.core_idx.size,
        **cover,
        "coefficients": result.proxy_coefficients,
        "backdrop": asdict(result.backdrop),
        "patches": [
            {
                "center": p.center,
                "radius": p.radius,
                "basis": p.basis,
                "spacing": p.spacing,
                "count": p.points.shape[0],
                "total_weight": p.total_weight,
            }
            for p in result.patches
        ],
    }
    if report is not None:
        manifest["verification"] = report.to_dict()
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, default=lambda a: a.tolist())
