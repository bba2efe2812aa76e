"""Vector Riesz-type kernels and their discrete transforms.

Two kernel modes share the homogeneity parameter n:

    truncated:    K(x) = x / |x|**(n+1)   if |x| > eps, else 0
    regularized:  K(x) = x / max(|x|, eps)**(n+1)

The truncation is strict (|x| = eps is excluded), the regularized kernel is
continuous with K(0) = 0.  A target coinciding with a source point therefore
contributes no self-term in either mode, which removes the principal-value
singularity from the discrete sums.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from rieszlab.measure import DiscreteMeasure, ScaleGrid, _as_points, _count, _local_sums, _read_table, _sq_norm, _write_table
from rieszlab.measure import _live_axes, ball_masses, density_ratios

TRUNCATED = "truncated"
REGULARIZED = "regularized"
_TARGET_CHUNK = 32  # targets per direct-sum block
_SOURCE_CHUNK = 16384  # sources per direct-sum block


@dataclass(frozen=True)
class KernelConfig:
    """Kernel homogeneity n, truncation radius eps, and mode."""

    n: int
    epsilon: float
    mode: str = TRUNCATED

    def __post_init__(self):
        object.__setattr__(self, "n", _count("kernel homogeneity n", self.n, 1))
        if not (self.epsilon > 0.0 and np.isfinite(self.epsilon)):
            raise ValueError("epsilon must be positive and finite")
        if self.mode not in (TRUNCATED, REGULARIZED):
            raise ValueError(f"unknown kernel mode {self.mode!r}")
        object.__setattr__(self, "epsilon", float(self.epsilon))


@dataclass(frozen=True)
class VectorField:
    """d-vector values attached index-for-index to a measure's points."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.ndim != 2:
            raise ValueError("values must be a (N, d) array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("vector field entries must be finite")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.shape[0]


def _inv_power(r2: np.ndarray, n: int) -> np.ndarray:
    """|x|^{-(n+1)} from squared radii; integer-power fast paths."""
    if n == 1:
        return 1.0 / r2
    if n == 2:
        return 1.0 / (r2 * np.sqrt(r2))
    if n == 3:
        return 1.0 / (r2 * r2)
    return r2 ** (-0.5 * (n + 1))


def _coef_from_r2(r2: np.ndarray, cfg: KernelConfig) -> np.ndarray:
    """1 / |x|^{n+1} from squared radii, with the mode's eps handling.

    Comparisons run in squared distances (r2 vs eps**2), with r2 taken by
    measure._sq_norm everywhere, so the direct sums and the treecode leaves
    agree bit for bit on the truncation boundary.
    """
    eps2 = cfg.epsilon * cfg.epsilon
    if cfg.mode == TRUNCATED:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(r2 > eps2, _inv_power(r2, cfg.n), 0.0)
    return _inv_power(np.maximum(r2, eps2), cfg.n)


def kernel_eval(x, cfg: KernelConfig) -> np.ndarray:
    """Evaluate the kernel at displacement(s) x, shape (..., d)."""
    x = np.asarray(x, dtype=float)
    return x * _coef_from_r2(_sq_norm(np.moveaxis(x, -1, 0)), cfg)[..., None]


def _blocks(points: np.ndarray, targets: np.ndarray, cfg: KernelConfig, upper: bool = False):
    """Yield (t, s, diff, coef) over (target chunk x source chunk) blocks.

    t and s slice the targets and the sources, diff is the list of d
    contiguous (T, S) planes of the components of t - y, and coef the
    kernel's 1 / |t - y|^{n+1}.  Blocks run over the sources of one target
    chunk before the next, in a fixed order.  With upper (the targets are
    the sources), each target chunk meets only the sources from its own
    first row onward: the upper strips of the pair matrix, whose first
    block holds the diagonal.
    """
    points, targets = points.T, targets.T  # one row per axis
    for t0 in range(0, targets.shape[1], _TARGET_CHUNK):
        t = slice(t0, t0 + _TARGET_CHUNK)
        for s0 in range(t0 if upper else 0, points.shape[1], _SOURCE_CHUNK):
            s = slice(s0, s0 + _SOURCE_CHUNK)
            diff = [tc[t, None] - pc[None, s] for tc, pc in zip(targets, points)]
            yield t, s, diff, _coef_from_r2(_sq_norm(diff), cfg)


def kernel_sum(
    points: np.ndarray, fweights: np.ndarray, cfg: KernelConfig, targets: np.ndarray
) -> np.ndarray:
    """Sum_j K(t - y_j) * fweights_j at each target t.

    Low-level engine behind riesz_apply; fweights is the already-multiplied
    f * w array.  Chunked over targets and sources with a fixed accumulation
    order, so the output is deterministic.  Dead axes (measure._live_axes)
    are skipped and their components are 0, as are all when none is live.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    fweights = np.asarray(fweights, dtype=float)
    live = _live_axes(points, targets)
    out = np.zeros((points.shape[1], targets.shape[0]))  # one row per component
    for t, s, diff, coef in _blocks(points[:, live], targets[:, live], cfg) if live.any() else ():
        coef *= fweights[None, s]
        for a, plane in zip(np.flatnonzero(live), diff):
            out[a, t] += np.einsum("ts,ts->t", plane, coef)
    return np.ascontiguousarray(out.T)


def _check_density(mu: DiscreteMeasure, f, targets) -> tuple[np.ndarray, np.ndarray]:
    """f as a finite array aligned with mu, and targets as a nonempty (m, d) array.

    The input check of every transform of f against mu at given points:
    riesz_apply, treecode.treecode_apply and maximal_function.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (len(mu),):
        raise ValueError("f must be a scalar array aligned with the measure")
    if not np.all(np.isfinite(f)):
        raise ValueError("f must be finite")
    targets = _as_points(mu, targets, "target")
    if targets.shape[0] == 0:
        raise ValueError("targets must be nonempty")
    return f, targets


def riesz_apply(
    mu: DiscreteMeasure,
    f,
    cfg: KernelConfig,
    targets,
) -> np.ndarray:
    """Transform of the weighted density f against mu at the given targets.

    Returns sum_y K(x - y) f(y) w(y) for each target x; a target sitting on
    a support point picks up no self-term in either kernel mode.
    """
    f, targets = _check_density(mu, f, targets)
    return kernel_sum(mu.points, f * mu.weights, cfg, targets)


def maximal_function(mu: DiscreteMeasure, f, x, grid: ScaleGrid) -> float:
    """Centered maximal average of |f| against mu over the grid radii at one point x."""
    f, x = _check_density(mu, f, x)
    if x.shape[0] > 1:
        raise ValueError(f"maximal_function takes one point x, got {x.shape[0]}")
    radii = grid.radii()
    values = np.stack([mu.weights, np.abs(f) * mu.weights])
    masses, sums = ball_masses(mu, x, radii, values)[:, 0]
    occupied = masses > 0.0
    if not occupied.any():
        raise ValueError("all grid balls around x are empty")
    return float(np.max(sums[occupied] / masses[occupied]))


@dataclass(frozen=True)
class GapCheckResult:
    """Outcome of the regularized-vs-truncated comparison."""

    max_gap: float
    bound: float
    passed: bool
    max_ratio: float


def truncation_gap_check(
    mu: DiscreteMeasure, f, cfg: KernelConfig, grid: ScaleGrid
) -> GapCheckResult:
    """Check |regularized - truncated| <= G * M(f) at every support point.

    The two transforms differ only over the punctured ball 0 < |x-y| <= eps,
    where the regularized kernel is (x-y) / eps**(n+1): the gap is that
    eps-local sum (`measure._local_sums`), with no full transform.  It is at
    most (mu(B(x, eps)) / eps**n) times the maximal average of |f|, hence at
    most G * Mf(x) with G the measured growth constant, for cfg.n the
    measure's n.  This is an exact inequality at the discrete level, so
    `passed` must come back True; only float rounding slack (1e-9 relative)
    is tolerated.  cfg.mode plays no part.

    G and Mf come from `density_ratios` at the support points, on the grid
    with eps appended: G is the largest ratio, and each average of |f| the
    |f|-weighted ratio over the plain one (never over an empty ball).
    """
    eps = cfg.epsilon
    if cfg.n != mu.hausdorff_dim:
        raise ValueError(f"kernel n={cfg.n} differs from the measure's hausdorff_dim={mu.hausdorff_dim}")
    if not (grid.r_min <= eps <= grid.r_max):
        raise ValueError("epsilon must lie within the grid range")
    f, _ = _check_density(mu, f, mu.points)
    radii = np.unique(np.append(grid.radii(), eps))

    gap = _inv_power(eps * eps, cfg.n) * _local_sums(mu, f * mu.weights, eps)
    gaps = np.sqrt(np.einsum("ij,ij->i", gap, gap))

    ratios, f_ratios = density_ratios(mu, mu.points, radii, np.stack([mu.weights, np.abs(f) * mu.weights]))
    bounds = float(ratios.max()) * (f_ratios / ratios).max(axis=1)

    scale = max(float(bounds.max()), float(gaps.max()), 1.0)
    ok = np.all(gaps <= bounds * (1.0 + 1e-9) + 1e-13 * scale)
    worst = int(np.argmax(gaps - bounds))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(bounds > 0.0, gaps / np.where(bounds > 0.0, bounds, 1.0), 0.0)
    return GapCheckResult(
        max_gap=float(gaps.max()),
        bound=float(bounds[worst]),
        passed=bool(ok),
        max_ratio=float(ratio.max()),
    )


# ---------------------------------------------------------------------------
# vector field file: a measure-style text table (measure._write_table) with
# header "# d=<d> count=<N>" and rows of d components.  Pairs with the
# measure file the field was computed against.
# ---------------------------------------------------------------------------

_FIELD_HEADER_RE = re.compile(r"^#\s*d=(?P<d>\d+)\s+count=(?P<count>\d+)\s*$")


def write_vector_field(field: VectorField, path) -> None:
    vals = field.values
    _write_table(path, f"# d={vals.shape[1]} count={vals.shape[0]}", vals)


def read_vector_field(path) -> VectorField:
    return VectorField(_read_table(path, _FIELD_HEADER_RE, "vector field", 0)[1])
