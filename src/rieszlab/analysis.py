"""Spectral and geometric functionals: L2 operator norms and Menger curvature.

The transform maps scalar densities f on the support to d-vector fields; its
operator norm on L2(mu) is the largest singular value under the weighted
inner products <f, g> = sum f g w (scalars) and <F, G> = sum (F . G) w
(fields, Euclidean per point).  Substituting u = sqrt(w) f turns the weighted
problem into a plain Euclidean one for the symmetrized matrix

    B[a * N + i, j] = sqrt(w_i) K_a(x_i - x_j) sqrt(w_j),

so the norm is the top singular value of B.  Rows are component-major:
row a * N + i holds component a of target i.  operator_norm runs Lanczos
on B^T B with full reorthogonalization (Parlett, The Symmetric Eigenvalue
Problem, 1980) and stops once the top Ritz pair's relative residual is at
most tol, ARPACK's rule.  It keeps at most 64 basis vectors, 64 * N * 8
bytes, and restarts from the Ritz vector when they fill.  A dense
decomposition of B serves as the oracle for moderate N.

The kernel is odd, so each component block B_a is antisymmetric and every
support pair is stored once.  A block is exactly 0 when the support is
constant along its coordinate (a segment or a plane in a coordinate
subspace); only the m live components (measure._live_axes, the rule of the
kernel sums and the treecode too) are evaluated, stored and applied: the
operator's forward product gives their m rows of N, and its adjoint reads
such rows.
Below the dense cap, the cache is ceil(m / 2) Fortran-order N x N arrays:
array k holds the live block B_{2k}[i, j] (i < j) in its strict upper
triangle and B_{2k+1}[i, j] (i < j), transposed, in its strict lower one,
on a zero diagonal, with live blocks numbered in coordinate order.  A
product reads one triangle per BLAS dtrmv call: B_a u = U u - U^T u for an
upper component, L^T u - L u for a lower one, and B^T v = -sum_a B_a v_a.
Above the cap, and in adjoint_apply, the same blocks are applied as they
are evaluated, unstored.  The full matrix, with the dead components' rows
as zeros, is built only for the dense decomposition and the tests.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import dtrmv

from rieszlab.measure import DiscreteMeasure, _count, _live_axes, _safe_resolution, _sq_norm
from rieszlab.kernels import TRUNCATED, KernelConfig, _blocks

_RANDOM_START_SEED = 20240817
_BASIS_CAP = 64  # Lanczos vectors kept before operator_norm restarts
_EXACT_CAP = 2000  # largest support of curvature_c2's O(N^3) exact mode


class NonConvergenceError(RuntimeError):
    """The norm solver ran out of products; carries the best lower bound seen."""

    def __init__(self, message: str, estimate: "NormEstimate"):
        super().__init__(message)
        self.estimate = estimate


@dataclass(frozen=True)
class NormEstimate:
    """Operator-norm estimate together with the run that produced it.

    `witness` is the scalar density f = v / sqrt(w) of the returned unit
    vector v: the value equals |Bv| = |Rf| / |f| in the weighted norms, so
    every estimate is a certified lower bound for the true operator norm.
    `iterations` counts B^T B products (one forward and one adjoint pass
    each) and `residual` is the relative residual |B^T B v - theta v| /
    theta of the Ritz pair (theta, v) that v comes from, theta = value**2
    up to rounding.  `method` names the solver and its backend:
    "lanczos-dense" (the packed cache), "lanczos-direct" (its blocks,
    unstored), "dense-decomposition", or "single-point" for the zero norm
    of a one-point measure.
    """

    value: float
    iterations: int
    residual: float
    epsilon: float
    method: str
    witness: np.ndarray | None = None


@dataclass(frozen=True)
class CurvatureEstimate:
    """Triple-integral curvature c2 of a measure."""

    value: float
    triples_evaluated: int
    mode: str
    rel_stderr: float = 0.0
    insufficient_points: bool = False


# ---------------------------------------------------------------------------
# operator application in symmetrized coordinates
# ---------------------------------------------------------------------------


def _build_symmetrized_matrix(mu: DiscreteMeasure, cfg: KernelConfig) -> np.ndarray:
    """Dense ((d * N), N) matrix B in u = sqrt(w) f coordinates, from the
    kernel blocks of `kernel_sum`: the matrix of dense_operator_norm and the
    oracle of the packed cache.

    Rows are component-major: row a * N + i holds component a of target i,
    so each block's component plane is written into one contiguous stripe
    of rows, as (diff_a * coef) * sqrt(w_i) * sqrt(w_j) in place.
    """
    n_pts, d = len(mu), mu.ambient_dim
    sw = np.sqrt(mu.weights)
    out = np.empty((d, n_pts, n_pts))
    for t, s, diff, coef in _blocks(mu.points, mu.points, cfg):
        for a, plane in enumerate(diff):
            blk = out[a, t, s]
            np.multiply(plane, coef, out=blk)
            blk *= sw[t, None]
            blk *= sw[None, s]
    return out.reshape(d * n_pts, n_pts)


def _skew_blocks(points: np.ndarray, sw: np.ndarray, cfg: KernelConfig):
    """Yield (t, s, planes, keep) over the upper strips of B on the support
    `points` with sqrt-weights sw: planes[a] is B_a on rows t, columns s,
    bit for bit by the rule of _build_symmetrized_matrix, except in a
    strip's leading diagonal square, keep.shape[1] columns wide, which keeps
    j > i (keep) and is 0 elsewhere: the blocks of B_a sum to its strict
    upper triangle U_a, B_a = U_a - U_a^T.
    """
    for t, s, diff, coef in _blocks(points, points, cfg, upper=True):
        head = coef.shape[0] if s.start == t.start else 0
        drop = np.tri(coef.shape[0], head, dtype=bool)  # j <= i
        for plane in diff:
            plane *= coef
            plane *= sw[t, None]
            plane *= sw[None, s]
            np.copyto(plane[:, :head], 0.0, where=drop)
        yield t, s, diff, ~drop


def _packed_cache(points: np.ndarray, sw: np.ndarray, cfg: KernelConfig) -> list[np.ndarray]:
    """The packed cache of B on `points` (layout in the module docstring),
    written from _skew_blocks.  The diagonal stays 0: neither kernel mode
    has a self-term.
    """
    n_pts, d = points.shape
    cache = [np.zeros((n_pts, n_pts), order="F") for _ in range((d + 1) // 2)]
    for t, s, planes, keep in _skew_blocks(points, sw, cfg):
        head = keep.shape[1]
        for a, plane in enumerate(planes):
            # a view: B_{2k+1} goes transposed into the lower triangle
            blk = cache[a // 2][s, t].T if a % 2 else cache[a // 2][t, s]
            np.copyto(blk[:, :head], plane[:, :head], where=keep)
            blk[:, head:] = plane[:, head:]
    return cache


def _skew_products(cache: list[np.ndarray], vecs) -> np.ndarray:
    """Rows B_a x_a, one per component a, from the packed cache.

    dtrmv overwrites its vector in place and reads the Fortran-order cache
    without a copy.
    """
    n_pts = cache[0].shape[0]
    out, tmp = np.empty((len(vecs), n_pts)), np.empty(n_pts)
    for a, (x, row) in enumerate(zip(vecs, out)):
        tri, low = cache[a // 2], a % 2
        row[:] = x
        tmp[:] = x
        dtrmv(tri, row, lower=low, trans=low, overwrite_x=1)  # U u or L^T u
        dtrmv(tri, tmp, lower=low, trans=1 - low, overwrite_x=1)  # U^T u or L u
        row -= tmp
    return out


def _strip_products(points: np.ndarray, sw: np.ndarray, cfg: KernelConfig, vecs) -> np.ndarray:
    """Rows B_a x_a, one per component a, with nothing stored: each block U
    of _skew_blocks adds U x to rows t and subtracts U^T x from rows s."""
    out = np.zeros((len(vecs), len(points)))
    for t, s, planes, _ in _skew_blocks(points, sw, cfg):
        for plane, x, row in zip(planes, vecs, out):
            row[t] += plane @ x[s]
            row[s] -= x[t] @ plane
    return out


def _symmetrized_operator(
    mu: DiscreteMeasure, cfg: KernelConfig, dense_cache_cap: int
) -> tuple[Callable, Callable, str]:
    """(forward, adjoint, backend name) of B on the m live components only
    (see the module docstring): forward(u) gives the (m, N) rows B_a u of
    the live a in coordinate order, and adjoint(v) maps such rows to
    B^T v = -sum_a B_a v_a.  A constant coordinate's differences are
    exactly 0 and add +0.0 to r2, so every live entry keeps its bits.  The
    packed cache ("dense") serves while its ceil(m / 2) * N * N stored
    entries fit in dense_cache_cap, the same blocks applied as they are
    evaluated ("direct") above that.  Two or more support points have a
    live component."""
    live = _live_axes(mu.points, mu.points)
    points, sw = mu.points[:, live], np.sqrt(mu.weights)
    n_pts, m = points.shape
    if (m + 1) // 2 * n_pts * n_pts <= dense_cache_cap:
        products, backend = partial(_skew_products, _packed_cache(points, sw, cfg)), "dense"
    else:
        products, backend = partial(_strip_products, points, sw, cfg), "direct"

    def forward(u: np.ndarray) -> np.ndarray:
        return products([u] * m)

    def adjoint(v: np.ndarray) -> np.ndarray:
        return -products(v).sum(axis=0)

    return forward, adjoint, backend


def operator_norm(
    mu: DiscreteMeasure,
    cfg: KernelConfig,
    tol: float = 1e-6,
    max_iter: int = 500,
    dense_cache_cap: int = 60_000_000,
) -> NormEstimate:
    """Largest singular value of the transform on L2(mu) by Lanczos on B^T B.

    The Lanczos run starts from u0 = sqrt(w) / |sqrt(w)| + r / |r|, r a
    fixed-seed random vector: sqrt(w) alone can miss a top vector that a
    symmetry of mu keeps orthogonal to it.  Each B^T B product extends an
    orthonormal basis q_1, q_2, ..., kept whole and reorthogonalized in full
    by a second pass of classical Gram-Schmidt.  The run stops at the first
    product after which the top Ritz pair (theta, v = sum_i y_i q_i) of the
    tridiagonal projection has |beta_k y_k| <= tol * theta, ARPACK's rule;
    |beta_k y_k| / theta = |B^T B v - theta v| / theta is the relative
    residual.  The basis holds at most _BASIS_CAP = 64 vectors, 64 * N * 8
    bytes; when it is full, the run restarts from the current Ritz vector.
    The value is |Bv|, squared sum_ij y_i y_j <B q_i, B q_j>, from the Gram
    matrix q_i . B^T B q_j of the products already made: no further product.

    max_iter caps the number of B^T B products; when it runs out,
    NonConvergenceError carries the current Ritz pair, the best |Bv| seen,
    which is a lower bound.  B^T B annihilates u0 only when B = 0, as r is
    random; the norm is then 0, with u0 as its witness.  dense_cache_cap
    bounds the packed cache's stored entries, ceil(m / 2) * N * N (8 bytes
    each) for the m coordinates along which the support is not constant:
    N * N for a segment or a plane in a coordinate subspace of R^3; above
    it, each product evaluates the cache's blocks anew.
    """
    if len(mu) < 2:
        raise ValueError("operator_norm needs at least two support points")
    if not 0.0 < tol < 0.1:
        raise ValueError("tol must lie in (0, 0.1)")
    max_iter = _count("max_iter", max_iter, 1)
    n_pts, sw = len(mu), np.sqrt(mu.weights)
    forward, adjoint, backend = _symmetrized_operator(mu, cfg, dense_cache_cap)
    cap = min(_BASIS_CAP, n_pts)
    basis, gram = np.empty((cap, n_pts)), np.empty((cap, cap))
    alpha, beta = np.empty(cap), np.empty(cap)
    rand = np.random.default_rng(_RANDOM_START_SEED).standard_normal(n_pts)
    q = sw / np.linalg.norm(sw) + rand / np.linalg.norm(rand)
    q /= np.linalg.norm(q)
    k = 0  # basis[:k] is the current run's basis, q its next vector
    for count in range(1, max_iter + 1):
        basis[k] = q
        w = adjoint(forward(q))  # B^T B q
        k += 1
        h = basis[:k] @ w
        gram[:k, k - 1] = gram[k - 1, :k] = h  # <B q_i, B q_k> = q_i . B^T B q_k
        w -= h @ basis[:k]
        fix = basis[:k] @ w  # twice is enough (Kahan, in Parlett 1980)
        w -= fix @ basis[:k]
        alpha[k - 1], beta[k - 1] = h[-1] + fix[-1], np.linalg.norm(w)
        theta, vecs = eigh_tridiagonal(alpha[:k], beta[: k - 1])
        theta, y = max(float(theta[-1]), 0.0), vecs[:, -1]
        bound = beta[k - 1] * abs(y[-1])
        if bound <= tol * theta or count == max_iter:
            break
        if k == cap:  # restart from the Ritz vector
            q, k = y @ basis[:k], 0
            q /= np.linalg.norm(q)
        else:
            q = w / beta[k - 1]
    v = y @ basis[:k]
    vnorm = np.linalg.norm(v)
    est = NormEstimate(
        float(np.sqrt(max(y @ gram[:k, :k] @ y, 0.0)) / vnorm),
        count,
        float(bound / theta) if theta > 0.0 else 0.0,
        cfg.epsilon,
        f"lanczos-{backend}",
        witness=v / (vnorm * sw),
    )
    if bound > tol * theta:
        raise NonConvergenceError(f"Lanczos did not converge within {max_iter} products", est)
    return est


def dense_operator_norm(mu: DiscreteMeasure, cfg: KernelConfig) -> NormEstimate:
    """Oracle: largest singular value by dense decomposition of B."""
    if len(mu) < 2:
        raise ValueError("dense_operator_norm needs at least two support points")
    mat = _build_symmetrized_matrix(mu, cfg)
    _, svals, vt = np.linalg.svd(mat, full_matrices=False)
    witness = vt[0] / np.sqrt(mu.weights)
    return NormEstimate(float(svals[0]), 1, 0.0, cfg.epsilon, "dense-decomposition", witness)


def adjoint_apply(mu: DiscreteMeasure, cfg: KernelConfig, field) -> np.ndarray:
    """Adjoint of the transform under the weighted inner products.

    (R* F)(x_j) = sum_i K(x_i - x_j) . F(x_i) w(x_i); satisfies the bilinear
    identity <R f, F>_mu = <f, R* F>_mu; it is B^T (sqrt(w) F) / sqrt(w),
    with B^T on the live rows of sqrt(w) F alone (B_a = 0 for the others).
    """
    vals = np.asarray(field.values if hasattr(field, "values") else field, dtype=float)
    if vals.shape != (len(mu), mu.ambient_dim):
        raise ValueError("field must align with the measure's points")
    if len(mu) < 2:  # one point has no pair, and no live component
        return np.zeros(len(mu))
    sw = np.sqrt(mu.weights)
    _, adjoint, _ = _symmetrized_operator(mu, cfg, dense_cache_cap=0)
    return adjoint(vals.T[_live_axes(mu.points, mu.points)] * sw) / sw


# ---------------------------------------------------------------------------
# Menger curvature
# ---------------------------------------------------------------------------


def menger_curvature(x, y, z) -> float:
    """Inverse circumradius 1/R of the triangle (x, y, z).

    Computed as 4 Area / (|x-y| |y-z| |z-x|); collinear triples return 0,
    repeated points raise ValueError (the circle through them is undefined).
    """
    x, y, z = (np.asarray(p, dtype=float) for p in (x, y, z))
    u, v, w = y - x, z - x, z - y
    uu, vv, ww = float(u @ u), float(v @ v), float(w @ w)
    if uu == 0.0 or vv == 0.0 or ww == 0.0:
        raise ValueError("degenerate triple: repeated points have no circumradius")
    gram = uu * vv - float(u @ v) ** 2
    area = 0.5 * np.sqrt(max(gram, 0.0))
    return float(4.0 * area / np.sqrt(uu * vv * ww))


def _curvature_sq_from_sides(a2, b2, c2) -> np.ndarray:
    """(1/R)^2 from squared side lengths; 0 where a side vanishes."""
    num = 2.0 * (a2 * b2 + b2 * c2 + c2 * a2) - a2**2 - b2**2 - c2**2
    den = a2 * b2 * c2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den > 0.0, np.maximum(num, 0.0) / np.where(den > 0.0, den, 1.0), 0.0)
    return out


def curvature_c2(
    mu: DiscreteMeasure,
    mode: str = "exact",
    sample_count: int = 200_000,
    seed: int = 0,
) -> CurvatureEstimate:
    """Triple sum of (1/R)^2 w_i w_j w_k over ordered distinct triples.

    Exact mode exploits the permutation symmetry: it sums over unordered
    triples i < j < k via a squared-distance matrix and multiplies by 6.
    Triples with repeated coordinates have no circle and add 0.  Sampled
    mode is an unbiased Monte Carlo estimate over ordered distinct index
    triples with a reported relative standard error, which needs at least
    two samples.
    """
    if mode == "sampled":  # the mean of no sample is NaN, and so is the spread of one
        sample_count = _count("sample_count", sample_count, 2)
    elif mode != "exact":
        raise ValueError(f"unknown curvature mode {mode!r}")
    n_pts = len(mu)
    if n_pts < 3:
        return CurvatureEstimate(0.0, 0, mode, insufficient_points=True)
    w, n_ordered = mu.weights, n_pts * (n_pts - 1) * (n_pts - 2)
    if mode == "exact":
        if n_pts > _EXACT_CAP:
            raise ValueError(f"exact mode is O(N^3); N={n_pts} exceeds cap {_EXACT_CAP}")
        d2 = _sq_norm(c[:, None] - c[None, :] for c in mu.points.T)
        total = 0.0
        # for each i, vectorize over the pairs i < j < k: every unordered
        # triple once, so the ordered sum is 6 * total
        for i in range(n_pts - 2):
            a2, rest = d2[i, i + 1 :], w[i + 1 :]  # |x_i - x_j|^2, |x_i - x_k|^2
            kappa2 = np.triu(_curvature_sq_from_sides(a2[:, None], a2[None, :], d2[i + 1 :, i + 1 :]), k=1)
            total += w[i] * float(np.einsum("jk,j,k->", kappa2, rest, rest))
        return CurvatureEstimate(6.0 * total, n_ordered, "exact")
    rng = np.random.default_rng(seed)
    idx, size = np.empty((0, 3), dtype=np.int64), int(sample_count * 1.2) + 16
    while idx.shape[0] < sample_count:  # one draw with room for rejects, then top-ups
        draw = rng.integers(0, n_pts, size=(size, 3))
        distinct = (draw[:, 0] != draw[:, 1]) & (draw[:, 1] != draw[:, 2]) & (draw[:, 0] != draw[:, 2])
        idx, size = np.vstack([idx, draw[distinct]])[:sample_count], sample_count
    pi, pj, pk = mu.points[idx.T]
    kappa2 = _curvature_sq_from_sides(_sq_norm((pi - pj).T), _sq_norm((pi - pk).T), _sq_norm((pj - pk).T))
    vals = kappa2 * w[idx[:, 0]] * w[idx[:, 1]] * w[idx[:, 2]]
    value = n_ordered * float(vals.mean())
    stderr = n_ordered * float(vals.std(ddof=1)) / np.sqrt(vals.size)
    rel = stderr / value if value > 0.0 else 0.0
    return CurvatureEstimate(value, int(vals.size), "sampled", rel_stderr=rel)


# ---------------------------------------------------------------------------
# sweeps and the two-measure experiment
# ---------------------------------------------------------------------------


def norm_sweep(
    mu: DiscreteMeasure,
    epsilons,
    tol: float = 1e-6,
    mode: str = TRUNCATED,
    max_iter: int = 500,
) -> list[tuple[float, NormEstimate]]:
    """One operator-norm estimate per truncation radius, deterministically."""
    _count("max_iter", max_iter, 1)
    out = []
    for eps in epsilons:
        if eps < mu.resolution_h:
            raise ValueError(f"epsilon {eps} is below the resolution {mu.resolution_h}")
        cfg = KernelConfig(mu.hausdorff_dim, float(eps), mode)
        out.append((float(eps), operator_norm(mu, cfg, tol=tol, max_iter=max_iter)))
    return out


@dataclass(frozen=True)
class JointNormResult:
    norm_first: NormEstimate
    norm_second: NormEstimate
    norm_sum: NormEstimate
    merged: DiscreteMeasure


def merge_measures(mu: DiscreteMeasure, sigma: DiscreteMeasure) -> DiscreteMeasure:
    """Union measure: concatenated supports, coincident points merged by weight."""
    if mu.ambient_dim != sigma.ambient_dim or mu.hausdorff_dim != sigma.hausdorff_dim:
        raise ValueError("measures must share (n, d) to be merged")
    pts = np.vstack([mu.points, sigma.points])
    w = np.concatenate([mu.weights, sigma.weights])
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    wm = np.zeros(uniq.shape[0])
    np.add.at(wm, inverse, w)
    h = min(mu.resolution_h, sigma.resolution_h)
    return DiscreteMeasure(uniq, wm, mu.hausdorff_dim, _safe_resolution(uniq, h))


def _norm_or_zero(mu: DiscreteMeasure, cfg: KernelConfig, tol: float, max_iter: int) -> NormEstimate:
    # single-point measures carry no pairwise interaction: the transform is 0
    if len(mu) < 2:
        return NormEstimate(0.0, 0, 0.0, cfg.epsilon, "single-point")
    return operator_norm(mu, cfg, tol=tol, max_iter=max_iter)


def joint_norm_experiment(
    mu: DiscreteMeasure,
    sigma: DiscreteMeasure,
    cfg: KernelConfig,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> JointNormResult:
    """Norms of the transform on mu, sigma, and their union measure."""
    _count("max_iter", max_iter, 1)
    merged = merge_measures(mu, sigma)
    return JointNormResult(
        _norm_or_zero(mu, cfg, tol, max_iter),
        _norm_or_zero(sigma, cfg, tol, max_iter),
        _norm_or_zero(merged, cfg, tol, max_iter),
        merged,
    )
