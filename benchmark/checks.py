"""Output checks computed apart from the program.

Each check takes the program's output together with the inputs it was given
and returns a list of failure messages (empty when the output passes).
Reference values come from the theory (the norm of the Hilbert transform,
the growth of corner Cantor norms), from dense linear algebra written here,
or from explicit sums written here; none comes from a stored copy of an
earlier run.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

# Tolerances, also stated in README.md.
PI_REL_TOL = 0.07  # segment norm against pi, the norm of the Hilbert transform
WITNESS_REL_TOL = 1e-9  # |R f| / |f| of the reported witness against the reported norm
SVD_REL_TOL = 1e-5  # shortfall allowed against the dense-SVD sigma: ten times the solver's tol 1e-6
ROUND_REL = 1e-12  # float rounding slack on exact inequalities
GAP_REL_TOL = 1e-8  # program's gap and bound against the explicit recomputation


def _weighted_norm(values: np.ndarray, weights: np.ndarray) -> float:
    values = values.reshape(values.shape[0], -1)
    return float(np.sqrt(np.sum(values * values * weights[:, None])))


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def symmetrized_matrix(points: np.ndarray, weights: np.ndarray, n: int, eps: float) -> np.ndarray:
    """B[(i, a), j] = sqrt(w_i) K_a(x_i - x_j) sqrt(w_j), truncated kernel.

    K(x) = x / |x|**(n+1) for |x| > eps and 0 otherwise, so the top singular
    value of B is the L2(mu) norm of the truncated transform.
    """
    diff = points[:, None, :] - points[None, :, :]
    r2 = np.einsum("ijd,ijd->ij", diff, diff)
    far = r2 > eps * eps
    coef = np.zeros_like(r2)
    coef[far] = r2[far] ** (-0.5 * (n + 1))
    sw = np.sqrt(weights)
    ker = diff * (coef * sw[:, None] * sw[None, :])[:, :, None]
    return ker.transpose(0, 2, 1).reshape(-1, points.shape[0])


def dense_sigma(points: np.ndarray, weights: np.ndarray, n: int, eps: float) -> float:
    mat = symmetrized_matrix(points, weights, n, eps)
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def check_norm(
    reported: float,
    weights: np.ndarray,
    witness: np.ndarray,
    witness_field: np.ndarray,
    sigma: float | None = None,
    near_pi: bool = False,
) -> list[str]:
    """Checks on one reported operator norm.

    witness_field is the direct transform of the reported witness at the
    support points: |R f| / |f| in L2(mu) must equal the reported norm, so
    the norm is attained and is a lower bound.  With sigma (the dense-SVD
    value) the norm must lie in [sigma (1 - SVD_REL_TOL), sigma].  With
    near_pi it must be within PI_REL_TOL of pi.
    """
    errors = []
    ratio = _weighted_norm(witness_field, weights) / _weighted_norm(witness, weights)
    if not abs(ratio - reported) <= WITNESS_REL_TOL * reported:
        errors.append(f"witness gives |Rf|/|f| = {ratio!r}, reported norm {reported!r}")
    if near_pi and not abs(reported - np.pi) <= PI_REL_TOL * np.pi:
        errors.append(f"segment norm {reported!r} is not within {PI_REL_TOL:.0%} of pi")
    if sigma is not None:
        if reported > sigma * (1.0 + ROUND_REL):
            errors.append(f"norm {reported!r} exceeds the dense-SVD sigma {sigma!r}")
        if reported < sigma * (1.0 - SVD_REL_TOL):
            errors.append(
                f"norm {reported!r} falls short of the dense-SVD sigma {sigma!r} "
                f"by more than {SVD_REL_TOL:g}"
            )
    return errors


def check_rise(values: list[float]) -> list[str]:
    """Corner Cantor norms must rise strictly with the level."""
    return [
        f"norm at step {i + 1} ({b!r}) does not exceed the one before ({a!r})"
        for i, (a, b) in enumerate(zip(values, values[1:]))
        if not b > a
    ]


# ---------------------------------------------------------------------------
# treecode
# ---------------------------------------------------------------------------


def treecode_bound(opening_angle: float, expansion_order: int, planar: bool) -> float:
    """Truncation error of the far field, relative to the absolute sum.

    The planar series of order p drops terms of size theta**(p+1) relative to
    a far node's absolute contribution; the monopole drops the terms past the
    dipole, of size theta**2.
    """
    return opening_angle ** (expansion_order + 1) if planar else opening_angle**2


def absolute_sums(points, fweights, n: int, eps: float, regularized: bool, targets) -> np.ndarray:
    """sum_y |K(t - y)| |f(y) w(y)| at each target t, summed directly."""
    out = np.empty(targets.shape[0])
    afw = np.abs(fweights)
    for t0 in range(0, targets.shape[0], 32):
        diff = targets[t0 : t0 + 32, None, :] - points[None, :, :]
        r2 = np.einsum("tsd,tsd->ts", diff, diff)
        if regularized:
            mag = np.sqrt(r2) / np.maximum(r2, eps * eps) ** (0.5 * (n + 1))
        else:
            far = r2 > eps * eps
            mag = np.zeros_like(r2)
            mag[far] = r2[far] ** (-0.5 * n)
        out[t0 : t0 + 32] = mag @ afw
    return out


def check_treecode(approx: np.ndarray, exact: np.ndarray, abs_sums: np.ndarray, bound: float) -> list[str]:
    """|treecode - direct| / (absolute sum) at every sampled target within bound."""
    if approx.shape != exact.shape or not np.all(np.isfinite(approx)):
        return ["treecode field has the wrong shape or non-finite entries"]
    rel = np.linalg.norm(approx - exact, axis=1) / abs_sums
    worst = float(rel.max())
    if not worst <= bound:
        return [f"treecode error {worst:.3e} of the absolute sum exceeds the bound {bound:.3e}"]
    return []


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------


def pairwise_diameter(points: np.ndarray) -> float:
    best = 0.0
    for i0 in range(0, points.shape[0], 512):
        diff = points[i0 : i0 + 512, None, :] - points[None, :, :]
        best = max(best, float(np.einsum("ijd,ijd->ij", diff, diff).max()))
    return float(np.sqrt(best))


def dense_membership(points, weights, n: int, p: int, radii, sample) -> np.ndarray:
    """Whether mu(B(x, r)) >= r**n / p at every radius, by kd-tree ball queries."""
    tree = cKDTree(points)
    ok = np.ones(len(sample), dtype=bool)
    for k, i in enumerate(sample):
        for r in radii:
            mass = float(np.sum(weights[tree.query_ball_point(points[i], r)]))
            if mass < r**n / p * (1.0 - ROUND_REL):
                ok[k] = False
                break
    return ok


def check_construct(
    rows: dict[str, str],
    manifest: dict,
    core_rows: np.ndarray,
    points: np.ndarray,
    weights: np.ndarray,
    n_seg: int,
    heavy: np.ndarray,
    radii: np.ndarray,
    p: int,
    s: int,
    sample: np.ndarray,
) -> list[str]:
    """Checks on one CLI construct run on the mixed measure.

    rows are the artifact's check,value lines; core_rows the last
    core_count rows (coordinates, weight) of regularized.measure, which
    holds the flat pieces followed by the core restriction.  By design the
    core is the segment (indices below n_seg), the targets are the heavy
    points, and the haze lies outside the dense set.
    """
    errors = []
    if rows.get("all_pass") != "True":
        errors.append(f"artifact all_pass is {rows.get('all_pass')!r}")
    for key, value in rows.items():
        if key.endswith("_pass") and value != "True":
            errors.append(f"artifact {key} is {value!r}")
    if (manifest.get("p"), manifest.get("s")) != (p, s):
        errors.append(f"manifest p, s = {manifest.get('p')}, {manifest.get('s')}")
    grid = manifest.get("grid", {})
    if grid.get("count") != radii.size or not (
        np.isclose(grid.get("r_min", np.nan), radii[0], rtol=1e-12, atol=0.0)
        and np.isclose(grid.get("r_max", np.nan), radii[-1], rtol=1e-9, atol=0.0)
    ):
        errors.append(f"manifest grid {grid} is not [4h, diameter] with {radii.size} radii")
    if manifest.get("dense_count") != n_seg + heavy.size:
        errors.append(f"dense set has {manifest.get('dense_count')} points, expected {n_seg + heavy.size}")
    if manifest.get("core_count") != n_seg:
        errors.append(f"core has {manifest.get('core_count')} points, expected the {n_seg} segment points")
    if sorted(manifest.get("centers", [])) != sorted(heavy.tolist()):
        errors.append(f"cover centers {manifest.get('centers')} are not the heavy points {heavy.tolist()}")
    segment = np.column_stack([points[:n_seg], weights[:n_seg]])
    if core_rows.shape != segment.shape or not np.array_equal(core_rows, segment):
        errors.append("the core part of regularized.measure is not the segment")
    expected = (sample < n_seg) | np.isin(sample, heavy)
    got = dense_membership(points, weights, 1, p, radii, sample)
    if not np.array_equal(got, expected):
        bad = sample[got != expected].tolist()
        errors.append(f"dense-set membership differs from the design at points {bad}")
    return errors


# ---------------------------------------------------------------------------
# truncation gap
# ---------------------------------------------------------------------------


def explicit_gaps(points, fweights, n: int, eps: float) -> np.ndarray:
    """|regularized - truncated| at every support point, over 0 < |x - y| <= eps.

    The two kernels agree outside the closed eps-ball; inside it (centre
    excluded) the truncated kernel is 0 and the regularized one is
    (x - y) / eps**(n+1).  Distances are compared as squares, as the kernel
    definition does.
    """
    tree = cKDTree(points)
    eps2 = eps * eps
    gaps = np.empty(points.shape[0])
    for i, near in enumerate(tree.query_ball_point(points, eps * (1.0 + 1e-9))):
        near = np.asarray(near, dtype=int)
        diff = points[i] - points[near]
        r2 = np.einsum("sd,sd->s", diff, diff)
        inside = (r2 > 0.0) & (r2 <= eps2)
        vec = (diff[inside] * fweights[near[inside], None]).sum(axis=0) / eps ** (n + 1)
        gaps[i] = float(np.sqrt(vec @ vec))
    return gaps


def explicit_bounds(points, weights, f, n: int, radii) -> np.ndarray:
    """G * Mf(x) at every support point.

    G is the largest mu(B(x, r)) / r**n and Mf(x) the largest average of |f|
    over B(x, r), both over support points x and the given radii, with the
    closed balls counted by comparing each distance to each radius.
    """
    vals = np.column_stack([weights, np.abs(f) * weights])
    growth = 0.0
    maximal = np.empty(points.shape[0])
    for i0 in range(0, points.shape[0], 256):
        diff = points[i0 : i0 + 256, None, :] - points[None, :, :]
        dist = np.sqrt(np.einsum("ijd,ijd->ij", diff, diff))
        best = np.zeros(dist.shape[0])
        for r in radii:
            sums = (dist <= r).astype(float) @ vals
            growth = max(growth, float(sums[:, 0].max()) / r**n)
            best = np.maximum(best, sums[:, 1] / sums[:, 0])
        maximal[i0 : i0 + 256] = best
    return growth * maximal


def check_gap(result, gaps: np.ndarray, bounds: np.ndarray) -> list[str]:
    """The program's gap check against the explicit gaps and bounds."""
    errors = []
    if result.passed is not True:
        errors.append(f"program reports passed={result.passed!r}")
    if np.any(gaps > bounds * (1.0 + 1e-9)):
        errors.append("the explicit gap exceeds G * Mf at some support point")
    top = float(gaps.max())
    if not abs(result.max_gap - top) <= GAP_REL_TOL * top:
        errors.append(f"max_gap {result.max_gap!r} differs from the explicit {top!r}")
    ratio = float((gaps / bounds).max())
    if not abs(result.max_ratio - ratio) <= GAP_REL_TOL * max(ratio, 1e-300):
        errors.append(f"max_ratio {result.max_ratio!r} differs from the explicit {ratio!r}")
    excess = gaps - bounds
    tol = GAP_REL_TOL * float(bounds.max())
    worst = excess >= excess.max() - tol
    if not np.any(worst & (np.abs(bounds - result.bound) <= tol)):
        errors.append(f"bound {result.bound!r} is not G * Mf at a point of largest gap - bound")
    return errors
