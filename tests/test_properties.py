"""Differential property tests: the fast paths against their dense oracles.

Measures are drawn on a lattice of spacing 1/4, so that duplicate points and
pairs exactly eps apart (eps a lattice distance) turn up often; both are
exact in binary, which puts the strict truncation boundary to the test.
Ball radii are lattice distances too, so that points lie exactly on the
closed-ball boundary.
"""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from rieszlab.analysis import (
    NonConvergenceError,
    _build_symmetrized_matrix,
    _symmetrized_operator,
    adjoint_apply,
    dense_operator_norm,
    operator_norm,
)
from functools import partial
from types import SimpleNamespace

from rieszlab import kernels, measure, treecode
from rieszlab.construction import split_local_nonlocal
from rieszlab.kernels import (
    REGULARIZED,
    TRUNCATED,
    KernelConfig,
    VectorField,
    kernel_eval,
    read_vector_field,
    riesz_apply,
    write_vector_field,
)
from rieszlab.measure import DiscreteMeasure, ball_masses, read_measure, write_measure
from rieszlab.treecode import TreecodeParams, build_tree, treecode_apply

SPACING = 0.25
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def lattice_points(draw, d, min_size, max_size=16):
    cells = draw(st.lists(st.tuples(*[st.integers(0, 6)] * d), min_size=min_size, max_size=max_size))
    return SPACING * np.array(cells, dtype=float)


@st.composite
def measures_and_kernels(draw, min_size=2, flat=False):
    """A lattice measure in d = 2 or 3 with positive weights, and a kernel
    whose eps is 1 to 4 lattice spacings.  With flat, the support may be
    constant along one axis or two (any of them, the middle one of R^3
    included), where the operator's blocks are exactly 0."""
    d = draw(st.sampled_from([2, 3]))
    points = lattice_points(draw, d, min_size)
    if flat:
        axes = draw(st.lists(st.integers(0, d - 1), max_size=d - 1, unique=True))
        points[:, axes] = SPACING * draw(st.integers(0, 6))
    span = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
    assume(span > 0.0)  # a measure needs a positive resolution below its diameter
    weights = draw(st.lists(st.floats(0.1, 2.0), min_size=len(points), max_size=len(points)))
    mu = DiscreteMeasure(points, weights, draw(st.integers(1, d - 1)), min(SPACING, span))
    eps = SPACING * draw(st.integers(1, 4))
    return mu, KernelConfig(mu.hausdorff_dim, eps, draw(st.sampled_from([TRUNCATED, REGULARIZED])))


def lattice_measure(draw, d, weights):
    """A lattice measure in R^d, big enough for a tree of several levels;
    two or more points must not all coincide."""
    points = lattice_points(draw, d, 1, max_size=48)
    span = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
    assume(len(points) == 1 or span > 0.0)
    w = draw(st.lists(weights, min_size=len(points), max_size=len(points)))
    return DiscreteMeasure(points, w, 1, min(SPACING, span) if span > 0.0 else SPACING)


def sq_dist(diff):
    """Squared norms over the last axis of diff, the squares added axis by
    axis in order, ((x0 * x0 + x1 * x1) + x2 * x2): the package's rule.
    einsum adds them in another order in d = 3, which moves some boundary
    points to the other side of a ball or of the truncation sphere."""
    out = diff[..., 0] * diff[..., 0]
    for a in range(1, diff.shape[-1]):
        out = out + diff[..., a] * diff[..., a]
    return out


def dense_ball_masses(mu, centers, radii, values=None, chunk=256):
    """Oracle for ball_masses: each center's distances sorted once, then cumulated."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    radii = np.asarray(radii, dtype=float)
    vals = mu.weights if values is None else np.asarray(values, dtype=float)
    out = np.empty((centers.shape[0], radii.size))
    pts = mu.points
    for i0 in range(0, centers.shape[0], chunk):
        blk = centers[i0 : i0 + chunk]
        diff = blk[:, None, :] - pts[None, :, :]
        dist = np.sqrt(sq_dist(diff))
        order = np.argsort(dist, axis=1, kind="stable")
        dist_sorted = np.take_along_axis(dist, order, axis=1)
        cums = np.cumsum(vals[order], axis=1)
        for row in range(blk.shape[0]):
            pos = np.searchsorted(dist_sorted[row], radii, side="right")
            out[i0 + row] = np.where(pos > 0, cums[row][np.maximum(pos - 1, 0)], 0.0)
    return out


def dense_diameter(points):
    """Oracle for DiscreteMeasure.diameter: the max over all pairs."""
    diff = points[:, None, :] - points[None, :, :]
    return float(np.sqrt(sq_dist(diff).max()))


def weighted_ratio(mu, f, cfg):
    """|R f| / |f| in L2(mu), with R applied by direct summation."""
    field = riesz_apply(mu, f, cfg, mu.points)
    return np.sqrt(np.sum(field * field * mu.weights[:, None]) / np.sum(f * f * mu.weights))


# constant in the middle coordinate of R^3, drawn alone only now and then
MIDDLE_FLAT = (
    DiscreteMeasure(SPACING * np.array([[0, 2, 0], [3, 2, 1], [1, 2, 5], [6, 2, 6], [2, 2, 2]]),
                    [0.5, 1.0, 1.5, 0.7, 1.2], 1, SPACING),
    KernelConfig(1, 2 * SPACING, TRUNCATED),
)


@PROPERTY_SETTINGS
@given(case=measures_and_kernels(flat=True), cap=st.sampled_from([0, 60_000_000]))
@example(case=MIDDLE_FLAT, cap=0)
@example(case=MIDDLE_FLAT, cap=60_000_000)
def test_lanczos_norm_matches_dense_svd(case, cap):
    mu, cfg = case
    dense = dense_operator_norm(mu, cfg).value
    est = operator_norm(mu, cfg, tol=1e-10, max_iter=2000, dense_cache_cap=cap)
    assert abs(est.value - dense) <= 1e-10 * dense
    if est.value > 0.0:
        assert est.residual <= 1e-8
        assert weighted_ratio(mu, est.witness, cfg) == pytest.approx(est.value, rel=1e-12)


@st.composite
def mirrored_measures(draw):
    """A lattice measure in d = 2 or 3 joined to its mirror image, under
    x -> -x or under the reflection of one axis, with the same weights: its
    top singular vector may be odd, orthogonal to the even sqrt(w)."""
    d = draw(st.sampled_from([2, 3]))
    half = lattice_points(draw, d, 1)
    axis = draw(st.sampled_from([None] + list(range(d))))
    flip = -np.ones(d) if axis is None else np.where(np.arange(d) == axis, -1.0, 1.0)
    points = np.vstack([half, half * flip])
    span = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
    assume(span > 0.0)
    w = draw(st.lists(st.floats(0.1, 2.0), min_size=len(half), max_size=len(half)))
    mu = DiscreteMeasure(points, w + w, draw(st.integers(1, d - 1)), min(SPACING, span))
    eps = SPACING * draw(st.integers(1, 4))
    return mu, KernelConfig(mu.hausdorff_dim, eps, draw(st.sampled_from([TRUNCATED, REGULARIZED])))


@PROPERTY_SETTINGS
@given(case=mirrored_measures(), tol=st.sampled_from([1e-4, 1e-7, 1e-10]), cap=st.sampled_from([0, 60_000_000]))
def test_norm_of_mirrored_measures_matches_dense_svd(case, tol, cap):
    mu, cfg = case
    dense = dense_operator_norm(mu, cfg).value
    est = operator_norm(mu, cfg, tol=tol, max_iter=2000, dense_cache_cap=cap)
    assert abs(est.value - dense) <= tol * dense


@PROPERTY_SETTINGS
@given(case=measures_and_kernels(), seed=st.integers(0, 2**32 - 1))
def test_adjoint_apply_is_the_adjoint_of_riesz_apply(case, seed):
    mu, cfg = case
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(len(mu))
    fields = rng.standard_normal((len(mu), mu.ambient_dim))
    forward = riesz_apply(mu, f, cfg, mu.points) * mu.weights[:, None]
    # small chunks so that the strips cross block edges; hypothesis rejects
    # function-scoped fixtures under @given, so patch in the body
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_TARGET_CHUNK", 3)
        patch.setattr(kernels, "_SOURCE_CHUNK", 5)
        adjoint = adjoint_apply(mu, cfg, VectorField(fields)) * mu.weights
    lhs, rhs = float(np.sum(forward * fields)), float(f @ adjoint)
    scale = np.sum(np.abs(forward) * np.abs(fields)) + np.sum(np.abs(f) * np.abs(adjoint)) + 1e-300
    assert abs(lhs - rhs) <= 1e-13 * scale


@PROPERTY_SETTINGS
@given(case=measures_and_kernels(flat=True), seed=st.integers(0, 2**32 - 1))
@example(case=MIDDLE_FLAT, seed=0)
def test_symmetrized_operator_paths_agree_and_are_adjoint(case, seed):
    mu, cfg = case
    rng = np.random.default_rng(seed)
    n_pts, d = len(mu), mu.ambient_dim
    u, v = rng.standard_normal(n_pts), rng.standard_normal((d, n_pts))
    mat = _build_symmetrized_matrix(mu, cfg)
    live = np.ptp(mu.points, axis=0) > 0.0
    assert not np.any(mat.reshape(d, n_pts, n_pts)[~live])  # the oracle's dead rows are exactly 0
    bu, btv = (mat @ u).reshape(d, n_pts), mat.T @ v.ravel()
    ops = [_symmetrized_operator(mu, cfg, dense_cache_cap=cap)[:2] for cap in (60_000_000, 0)]
    for got_bu, got_btv, rows in [(bu, btv, v)] + [(fwd(u), adj(v[live]), v[live]) for fwd, adj in ops]:
        scale = np.sum(np.abs(got_bu) * np.abs(rows)) + np.abs(u) @ np.abs(got_btv) + 1e-300
        assert abs(np.sum(got_bu * rows) - u @ got_btv) <= 1e-13 * scale
    for forward, adjoint in ops:
        for got, want in ((forward(u), bu[live]), (adjoint(v[live]), btv)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@PROPERTY_SETTINGS
@given(case=measures_and_kernels(min_size=8), data=st.data())
def test_nonconvergence_witness_reproduces_its_value(case, data):
    mu, cfg = case
    assume(dense_operator_norm(mu, cfg).value > 0.0)
    # a budget below the products of an unbudgeted run; a B of small rank
    # can end Lanczos exactly after one or two
    products = operator_norm(mu, cfg, tol=1e-10, max_iter=2000).iterations
    assume(products > 1)
    max_iter = data.draw(st.integers(1, products - 1))
    with pytest.raises(NonConvergenceError) as err:
        operator_norm(mu, cfg, tol=1e-10, max_iter=max_iter)
    est = err.value.estimate
    assert est.iterations == max_iter
    assert est.value > 0.0
    assert weighted_ratio(mu, est.witness, cfg) == pytest.approx(est.value, rel=1e-12)


POWERS_OF_TWO = st.integers(-4, 4).map(lambda k: 2.0**k)


@PROPERTY_SETTINGS
@given(data=st.data(), d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1))
def test_ball_masses_match_dense_oracle(data, d, seed):
    mu = lattice_measure(data.draw, d, POWERS_OF_TWO)
    centers = lattice_points(data.draw, d, 1, max_size=8)
    # lattice distances, unsorted and possibly repeated
    radii = SPACING * np.sqrt(data.draw(st.lists(st.integers(0, 110), min_size=1, max_size=8)))
    # dyadic weights sum exactly in any order, so every in/out decision shows
    assert np.array_equal(ball_masses(mu, centers, radii), dense_ball_masses(mu, centers, radii))
    values = np.random.default_rng(seed).uniform(0.1, 2.0, len(mu))
    np.testing.assert_allclose(
        ball_masses(mu, centers, radii, values),
        dense_ball_masses(mu, centers, radii, values),
        rtol=1e-13,
        atol=0.0,
    )
    # stacked values: one walk, each table bit-identical to its own call
    stacked = ball_masses(mu, centers, radii, np.stack([mu.weights, values]))
    assert np.array_equal(stacked, [ball_masses(mu, centers, radii), ball_masses(mu, centers, radii, values)])


@PROPERTY_SETTINGS
@given(d=st.sampled_from([2, 3]), size=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
def test_ball_masses_in_general_position(d, size, seed):
    # points in general position, with radii equal to rounded center-point
    # distances, so that points sit exactly on the closed-ball boundary
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((size, d)) * rng.uniform(0.01, 100.0)
    span = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
    mu = DiscreteMeasure(points, np.ones(size), 1, span / size)
    centers = np.vstack([points[: size // 2], rng.standard_normal((4, d)) * span])
    diff = centers[:, None, :] - points[None, :, :]
    dist = np.sqrt(sq_dist(diff))
    radii = rng.choice(dist.ravel(), size=6)
    assert np.array_equal(ball_masses(mu, centers, radii), dense_ball_masses(mu, centers, radii))
    values = rng.uniform(0.1, 2.0, size)
    np.testing.assert_allclose(
        ball_masses(mu, centers, radii, values),
        dense_ball_masses(mu, centers, radii, values),
        rtol=1e-13,
        atol=0.0,
    )


def dense_members(mu, center, r):
    """Oracle for measure._ball_members: the closed-ball rule over every point."""
    diff = center - mu.points
    return np.flatnonzero(np.sqrt(sq_dist(diff)) <= r)


@PROPERTY_SETTINGS
@given(data=st.data(), d=st.sampled_from([2, 3]))
def test_ball_mass_and_ball_members_follow_the_closed_ball_rule(data, d):
    mu = lattice_measure(data.draw, d, POWERS_OF_TWO)
    centers = lattice_points(data.draw, d, 1, max_size=8)
    # each radius is the distance from its center to a support point, so
    # that point lies exactly on the closed ball's boundary
    picks = data.draw(st.lists(st.integers(0, len(mu) - 1), min_size=len(centers), max_size=len(centers)))
    diff = centers - mu.points[picks]
    radii = np.sqrt(sq_dist(diff))
    assume(np.all(radii > 0.0))
    members = measure._ball_members(mu, centers, radii)
    for c, r, got in zip(centers, radii, members):
        want = dense_members(mu, c, r)
        assert np.array_equal(got, want)
        (alone,) = measure._ball_members(mu, c, r)
        assert np.array_equal(alone, want)
        # dyadic weights sum exactly in any order, so ball_mass and
        # ball_masses agree bit for bit exactly when their rules agree
        assert measure.ball_mass(mu, c, r) == ball_masses(mu, c[None], [r])[0, 0]


def random_points(mu, count, seed):
    rng = np.random.default_rng(seed)
    lo, hi = mu.bbox()
    return lo - 0.1 * (hi - lo) + rng.random((count, mu.ambient_dim)) * 1.2 * (hi - lo)


def test_ball_masses_blocks_match_dense_oracle(four_corners_4, monkeypatch):
    # blocks of one and of three leaf pairs and chunks of a few node pairs,
    # far smaller than the call: the walk is cut at many boundaries and must
    # still bin every pair of points exactly once, on the self path and on
    # a tree of other centers
    mu = four_corners_4
    radii = np.geomspace(mu.resolution_h, mu.diameter, 12)
    values = 2.0 ** np.random.default_rng(2).integers(-3, 4, len(mu))
    for leaf_block, pair_chunk in ((20, 3), (200, 64)):
        monkeypatch.setattr(measure, "_LEAF_BLOCK", leaf_block)
        monkeypatch.setattr(measure, "_PAIR_CHUNK", pair_chunk)
        for centers in (mu.points, np.vstack([mu.points, random_points(mu, 50, seed=4)])):
            assert np.array_equal(
                ball_masses(mu, centers, radii, np.stack([mu.weights, values])),
                [dense_ball_masses(mu, centers, radii), dense_ball_masses(mu, centers, radii, values)],
            )


def test_bracket_and_point_pair_rules_match_dense_oracle(monkeypatch):
    # a 2-D lattice and a fine geometric radius grid, with radius 0, repeated
    # radii and lattice distances (points on the closed-ball boundary): leaf
    # pairs straddle 1, 2, 3 and more radii, so the bracket settles some and
    # the point-pair rule bins the rest
    g = SPACING * np.arange(20.0)
    points = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(5)
    mu = DiscreteMeasure(points, 2.0 ** rng.integers(-3, 4, len(points)), 1, SPACING)
    q = SPACING**2 * np.array([1.0, 2.0, 5.0, 8.0, 9.0, 13.0, 18.0, 25.0, 29.0, 37.0, 50.0])
    lattice = np.sqrt(q)
    # some squared lattice distances are their radius's threshold itself
    assert np.any(measure._sq_thresholds(lattice) == q)
    radii = np.concatenate([np.geomspace(SPACING / 2, mu.diameter, 40), lattice, lattice[:3], [0.0]])
    values = rng.uniform(0.1, 2.0, len(mu))
    off = np.vstack([points[::7] + SPACING / 2, rng.uniform(-1.0, 6.0, (30, 2))])
    spans, wide = [], []
    inside_sums, leaf_pair_bins = measure._inside_sums, measure._leaf_pair_bins
    monkeypatch.setattr(measure, "_inside_sums", lambda *a: spans.append(a[6]) or inside_sums(*a))
    monkeypatch.setattr(measure, "_leaf_pair_bins", lambda *a: wide.append(a[2].size) or leaf_pair_bins(*a))
    # the default split, then blocks cut within a pair's entries, then
    # every straddling leaf pair by one rule alone
    span, block = measure._BRACKET_SPAN, measure._LEAF_BLOCK
    for bracket_span, leaf_block in ((span, block), (span, 200), (span, 20), (0, block), (1000, block), (1000, 20)):
        monkeypatch.setattr(measure, "_BRACKET_SPAN", bracket_span)
        monkeypatch.setattr(measure, "_LEAF_BLOCK", leaf_block)
        for centers in (mu.points, off):
            want = dense_ball_masses(mu, centers, radii)
            assert np.array_equal(ball_masses(mu, centers, radii), want)
            stacked = ball_masses(mu, centers, radii, np.stack([mu.weights, values]))
            assert np.array_equal(stacked[0], want)
            assert np.array_equal(stacked[1], ball_masses(mu, centers, radii, values))
            np.testing.assert_allclose(stacked[1], dense_ball_masses(mu, centers, radii, values), rtol=1e-13, atol=0.0)
    assert {1, 2, 3} <= set(np.concatenate(spans).tolist())
    assert sum(wide) > 0


@pytest.mark.parametrize("kind", ["lattice", "random"])
def test_sq_thresholds_decide_as_sqrt(kind):
    # t(r) is the largest double whose sqrt is <= r: its successor's is not
    rng = np.random.default_rng(11)
    if kind == "lattice":
        radii = SPACING * np.sqrt(np.arange(400.0))
    else:
        radii = np.concatenate([10.0 ** rng.uniform(-300, 300, 2000), rng.uniform(0.0, 4.0, 2000), [5e-324, 1.7e308]])
    t = measure._sq_thresholds(radii)
    with np.errstate(over="ignore"):  # the successor of the max double is inf
        after = np.nextafter(t, np.inf)
    assert np.all(np.sqrt(t) <= radii)
    assert np.all(np.sqrt(after) > radii)
    # so a squared distance lies in the ball by either test
    r2 = np.concatenate([t, after, np.nextafter(t, 0.0)])
    r = np.tile(radii, 3)
    assert np.array_equal(r2 <= np.tile(t, 3), np.sqrt(r2) <= r)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("copies", [9, 40])
@pytest.mark.parametrize("far_end", [1.0, -1.0])
def test_ball_masses_with_a_coincident_cluster(d, copies, far_end):
    # a cluster of coincident points at one end of the split axis makes a
    # zero-extent leaf beside a sibling that still splits, so leaf ids do
    # not follow the tree order; every node sum must still be its own
    line = np.zeros((9, d))
    line[:, 0] = np.arange(9.0)
    cluster = np.zeros((copies, d))
    cluster[:, 0] = 4.0 + far_end * 16.0
    points = np.vstack([line, cluster])
    mu = DiscreteMeasure(points, np.ones(len(points)), 1, 1.0)
    centers = np.vstack([points, np.full((1, d), 4.0)])
    radii = np.array([0.5, 1.0, 3.0, 8.0, 16.0, 20.0, 100.0])
    values = 2.0 ** (np.arange(len(points)) % 4)
    assert np.array_equal(ball_masses(mu, centers, radii), dense_ball_masses(mu, centers, radii))
    assert np.array_equal(
        ball_masses(mu, centers, radii, values), dense_ball_masses(mu, centers, radii, values)
    )
    assert np.all(ball_masses(mu, centers, radii[-1:]) == len(points))


COORD = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


@st.composite
def supports(draw):
    """Point sets on a lattice or in general position, and degenerate ones:
    collinear, coplanar in d = 3 (axis-aligned, tilted or rounded),
    lattices jittered by about an ulp, whose farthest pairs tie to within
    rounding, and antipodal pairs on a circle or sphere, all about equally
    far from the bounding-box center, so that the diameter's pruning keeps
    every point."""
    d = draw(st.sampled_from([2, 3]))
    kind = draw(st.sampled_from(["lattice", "jittered", "general", "line", "plane", "sphere"]))
    if kind == "lattice":
        return lattice_points(draw, d, 1, max_size=40)
    if kind == "jittered":
        points = lattice_points(draw, d, 1, max_size=40)
        jitter = st.floats(-1e-15, 1e-15, allow_nan=False)
        return points + np.array(draw(st.lists(st.tuples(*[jitter] * d), min_size=len(points), max_size=len(points))))
    if kind == "general":
        return np.array(draw(st.lists(st.tuples(*[COORD] * d), min_size=1, max_size=40)))
    if kind == "sphere":
        angle = st.floats(0.0, 2 * np.pi, allow_nan=False)
        t, p = np.array(draw(st.lists(st.tuples(angle, angle), min_size=1, max_size=20))).T
        axes = [np.cos(t), np.sin(t)] if d == 2 else [np.cos(t) * np.sin(p), np.sin(t) * np.sin(p), np.cos(p)]
        u = np.column_stack(axes)
        radius, offset = draw(st.floats(0.1, 10.0)), np.array(draw(st.tuples(*[COORD] * d)))
        return offset + radius * np.vstack([u, -u])
    # rows of coefficients times one or two spanning vectors, plus an offset
    rank = 1 if kind == "line" or d == 2 else 2
    exact = draw(st.booleans())
    entries = st.integers(-6, 6).map(lambda k: SPACING * k) if exact else COORD
    coeffs = np.array(draw(st.lists(st.tuples(*[entries] * rank), min_size=1, max_size=40)))
    basis = np.array(draw(st.lists(st.tuples(*[entries] * d), min_size=rank, max_size=rank)))
    offset = np.array(draw(st.tuples(*[entries] * d)))
    return coeffs @ basis + offset


@settings(PROPERTY_SETTINGS, max_examples=300)
@given(points=supports())
def test_hull_diameter_matches_dense_diameter(points):
    span = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
    assume(len(points) == 1 or span > 0.0)
    mu = DiscreteMeasure(points, np.ones(len(points)), 1, min(1e-3, span) if span > 0.0 else 1e-3)
    assert mu.diameter == dense_diameter(mu.points)


# ---------------------------------------------------------------------------
# the tree engine: depth build, upward moments, treecode at vanishing theta
# ---------------------------------------------------------------------------


def recursive_spatial_tree(mu, leaf_cap):
    """Oracle for measure._build_spatial_tree: the node-at-a-time build, which
    numbers both children of a split before either subtree."""
    pts = mu.points
    perm = np.arange(len(pts))
    nodes = []  # [start, end, left, right, lo, hi, centroid, weight]

    def add_node(lo, hi):
        sub, w = pts[perm[lo:hi]], mu.weights[perm[lo:hi]]
        centroid = (sub * w[:, None]).sum(axis=0) / w.sum()
        nodes.append([lo, hi, -1, -1, sub.min(axis=0), sub.max(axis=0), centroid, w.sum()])
        return len(nodes) - 1

    stack = [(add_node(0, len(pts)), 0, len(pts))]
    while stack:
        node, lo, hi = stack.pop()
        extent = nodes[node][5] - nodes[node][4]
        if hi - lo <= leaf_cap or float(np.max(extent)) == 0.0:
            continue
        order = np.argsort(pts[perm[lo:hi], int(np.argmax(extent))], kind="stable")
        perm[lo:hi] = perm[lo:hi][order]
        mid = lo + (hi - lo) // 2
        nodes[node][2:4] = add_node(lo, mid), add_node(mid, hi)
        stack += [(nodes[node][3], mid, hi), (nodes[node][2], lo, mid)]
    cols = [np.array(c) for c in zip(*nodes)]
    names = ("start", "end", "left", "right", "box_lo", "box_hi", "centroid", "node_weight")
    return SimpleNamespace(perm=perm, n_nodes=len(nodes), **dict(zip(names, cols)))


def loop_node_moments(tree, fw):
    """Oracle for the monopole moments: per node, sums of fw and fw * (y - c)."""
    out = np.zeros((tree.n_nodes, 1 + tree.points.shape[1]))
    for node in range(tree.n_nodes):
        s, e = tree.start[node], tree.end[node]
        out[node, 0] = fw[s:e].sum()
        out[node, 1:] = ((tree.points[s:e] - tree.centroid[node]) * fw[s:e, None]).sum(axis=0)
    return out


def loop_planar_moments(tree, fw, order):
    """Oracle for the planar moments: per node, sums of fw (zeta - c)^m."""
    zeta = tree.points[:, 0] + 1j * tree.points[:, 1]
    center = tree.centroid[:, 0] + 1j * tree.centroid[:, 1]
    moments = np.zeros((tree.n_nodes, order + 1), dtype=np.complex128)
    for node in range(tree.n_nodes):
        s, e = tree.start[node], tree.end[node]
        term = fw[s:e].astype(np.complex128)
        for m in range(order + 1):
            moments[node, m] = term.sum()
            term = term * (zeta[s:e] - center[node])
    return moments


@st.composite
def clustered_measures(draw):
    """A lattice measure in d = 2 or 3 with duplicate points and a cluster of
    up to 20 more copies of one of them, shuffled into the input order."""
    d = draw(st.sampled_from([2, 3]))
    points = lattice_points(draw, d, 2, max_size=48)
    copied = points[draw(st.integers(0, len(points) - 1))]
    points = np.vstack([points, np.repeat(copied[None, :], draw(st.integers(0, 20)), axis=0)])
    points = points[draw(st.permutations(range(len(points))))]
    span = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
    assume(span > 0.0)
    weights = draw(st.lists(st.floats(0.1, 2.0), min_size=len(points), max_size=len(points)))
    return DiscreteMeasure(points, weights, 1, min(SPACING, span))


def dyadic_with_radii(draw, mu):
    """mu with dyadic weights, which sum exactly in any order, and lattice
    radii (0 among them), so that points lie on the closed-ball boundary."""
    w = draw(st.lists(POWERS_OF_TWO, min_size=len(mu), max_size=len(mu)))
    radii = SPACING * np.sqrt(draw(st.lists(st.integers(0, 110), min_size=1, max_size=8)))
    return DiscreteMeasure(mu.points, w, 1, mu.resolution_h), radii


@PROPERTY_SETTINGS
@given(mu=clustered_measures(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_self_ball_masses_match_dense_oracle(mu, data, seed):
    # centers at the support points: the walk pairs the ball tree with
    # itself, and the cluster makes zero-extent leaves wider than the cap
    mu, radii = dyadic_with_radii(data.draw, mu)
    pts = mu.points
    assert np.array_equal(ball_masses(mu, pts, radii), dense_ball_masses(mu, pts, radii))
    values = np.random.default_rng(seed).uniform(0.1, 2.0, len(mu))
    np.testing.assert_allclose(
        ball_masses(mu, pts, radii, values), dense_ball_masses(mu, pts, radii, values), rtol=1e-13, atol=0.0
    )
    stacked = ball_masses(mu, pts, radii, np.stack([mu.weights, values]))
    assert np.array_equal(stacked, [ball_masses(mu, pts, radii), ball_masses(mu, pts, radii, values)])


@PROPERTY_SETTINGS
@given(mu=clustered_measures(), data=st.data())
def test_self_path_matches_center_tree_path(mu, data):
    # the support points in another order take a tree of their own
    mu, radii = dyadic_with_radii(data.draw, mu)
    perm = np.array(data.draw(st.permutations(range(len(mu)))))
    assert np.array_equal(ball_masses(mu, mu.points[perm], radii), ball_masses(mu, mu.points, radii)[perm])


@PROPERTY_SETTINGS
@given(mu=clustered_measures(), data=st.data())
def test_masked_self_rows_match_subset_centers(mu, data):
    # the restriction to a subset, summed at every support point (the self
    # path) or at the subset alone (a tree of the subset's points)
    mu, radii = dyadic_with_radii(data.draw, mu)
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=len(mu), max_size=len(mu))))
    assume(keep.any())
    idx, masked = np.flatnonzero(keep), mu.weights * keep
    assert np.array_equal(ball_masses(mu, mu.points, radii, masked)[idx], ball_masses(mu, mu.points[idx], radii, masked))


@st.composite
def local_sum_cases(draw, dyadic):
    """A lattice measure with (n, d) in {(1, 2), (1, 3), (2, 3)}, duplicate
    points and a cluster of copies, a density f, and eps**2 = k / 16: a
    lattice distance (k a square) or one that rounds (k not).  With dyadic,
    the weights and f are powers of two, so every sum is exact."""
    n, d = draw(st.sampled_from([(1, 2), (1, 3), (2, 3)]))
    points = lattice_points(draw, d, 2, max_size=48)
    copied = points[draw(st.integers(0, len(points) - 1))]
    points = np.vstack([points, np.repeat(copied[None, :], draw(st.integers(0, 12)), axis=0)])
    points = points[draw(st.permutations(range(len(points))))]
    span = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
    assume(span > 0.0)
    values = POWERS_OF_TWO if dyadic else st.floats(0.1, 2.0)
    w = draw(st.lists(values, min_size=len(points), max_size=len(points)))
    f = draw(st.lists(values, min_size=len(points), max_size=len(points)))
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=len(points), max_size=len(points)))
    mu = DiscreteMeasure(points, w, n, min(SPACING, span))
    return mu, np.multiply(f, signs), SPACING * np.sqrt(draw(st.integers(1, 20)))


def dense_local_sums(mu, fw, eps):
    """Oracle for measure._local_sums: (x - y) * fw[y] summed over every y
    with r2 <= eps**2, r2 by the package's rule."""
    diff = mu.points[:, None, :] - mu.points[None, :, :]
    inside = sq_dist(diff) <= eps * eps
    return np.einsum("xyd,xy->xd", diff, np.where(inside, fw[None, :], 0.0))


@PROPERTY_SETTINGS
@given(case=local_sum_cases(dyadic=True))
def test_local_sums_match_dense_oracle(case):
    # pairs exactly eps apart, duplicates and mirrored node pairs: every
    # in/out decision and every sign shows, as dyadic sums are exact
    mu, f, eps = case
    fw = f * mu.weights
    want = dense_local_sums(mu, fw, eps)
    assert np.array_equal(measure._local_sums(mu, fw, eps), want)
    # blocks of one leaf pair and chunks of a few node pairs
    for leaf_block, pair_chunk in ((1, 1), (100, 3)):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measure, "_LEAF_BLOCK", leaf_block)
            patch.setattr(measure, "_PAIR_CHUNK", pair_chunk)
            assert np.array_equal(measure._local_sums(mu, fw, eps), want)


@PROPERTY_SETTINGS
@given(case=local_sum_cases(dyadic=False))
def test_local_sums_are_the_gap_of_the_two_modes(case):
    # the regularized minus the truncated transform differs from zero
    # exactly on the pairs that the local sum covers
    mu, f, eps = case
    reg = riesz_apply(mu, f, KernelConfig(mu.hausdorff_dim, eps, REGULARIZED), mu.points)
    trunc = riesz_apply(mu, f, KernelConfig(mu.hausdorff_dim, eps, TRUNCATED), mu.points)
    fw = f * mu.weights
    gap = kernels._inv_power(eps * eps, mu.hausdorff_dim) * measure._local_sums(mu, fw, eps)
    # the largest absolute term of either transform: |K_reg(x - y) fw[y]|
    terms = kernel_eval(mu.points[:, None, :] - mu.points[None, :, :], KernelConfig(mu.hausdorff_dim, eps, REGULARIZED))
    scale = max(float((np.abs(terms) * np.abs(fw)[None, :, None]).max()), 1e-300)
    assert np.abs(gap - (reg - trunc)).max() <= 1e-12 * scale


@PROPERTY_SETTINGS
@given(mu=clustered_measures(), cap=st.integers(1, 9))
def test_depth_build_matches_recursive_build(mu, cap):
    tree, oracle = measure._build_spatial_tree(mu.points, mu.weights, cap), recursive_spatial_tree(mu, cap)
    assert np.array_equal(tree.perm, oracle.perm)
    # node ids differ between the builds: match the nodes by their ranges
    ids = {(s, e): i for i, (s, e) in enumerate(zip(tree.start, tree.end))}
    assert tree.n_nodes == len(ids) == oracle.n_nodes
    match = np.array([ids[(s, e)] for s, e in zip(oracle.start, oracle.end)])
    for side in ("left", "right"):
        kids = getattr(oracle, side)
        assert np.array_equal(getattr(tree, side)[match], np.where(kids >= 0, match[kids], -1))
    assert np.array_equal(tree.box_lo[match], oracle.box_lo)
    assert np.array_equal(tree.box_hi[match], oracle.box_hi)
    atol = 1e-13 * np.abs(mu.points).max()
    np.testing.assert_allclose(tree.centroid[match], oracle.centroid, rtol=1e-13, atol=atol)
    np.testing.assert_allclose(tree.node_weight[match], oracle.node_weight, rtol=1e-13, atol=0.0)
    # the leaves in tree order; each inner node once, in the level of its
    # depth, so after its parent
    inner = oracle.left >= 0
    leaves = np.flatnonzero(~inner)
    assert np.array_equal(tree.leaves, match[leaves[np.argsort(oracle.start[leaves])]])
    depth = np.zeros(oracle.n_nodes, dtype=int)
    for node in np.flatnonzero(inner):  # the oracle numbers parents before children
        depth[[oracle.left[node], oracle.right[node]]] = depth[node] + 1
    tree_depth = np.empty_like(depth)
    tree_depth[match] = depth
    listed = np.concatenate(tree.levels)
    assert np.array_equal(np.sort(listed), np.sort(match[inner]))
    assert np.array_equal(np.repeat(np.arange(len(tree.levels)), [lv.size for lv in tree.levels]), tree_depth[listed])


@PROPERTY_SETTINGS
@given(
    mu=clustered_measures(),
    cap=st.integers(1, 9),
    order=st.integers(0, 12),
    block=st.sampled_from([1, 3, 20]),
    seed=st.integers(0, 2**32 - 1),
)
def test_upward_moments_match_per_node_loops(mu, cap, order, block, seed):
    # d = 2 takes the planar series of the given order, d = 3 the monopole
    tree = measure._build_spatial_tree(mu.points, mu.weights, cap)
    fw = np.random.default_rng(seed).standard_normal(len(mu))
    if mu.ambient_dim == 2:
        args = (fw[:, None], partial(treecode._planar_shift, order))
        want = loop_planar_moments(tree, fw, order)
        scale = np.abs(want).max(axis=0)
    else:
        args = (fw,)
        want = loop_node_moments(tree, fw)[:, 0]
        scale = np.abs(want).max()
    assert len(mu) <= measure._UPWARD_BLOCK
    got = measure._node_sums(tree, *args)
    # against the largest moment of each order
    assert np.all(np.abs(got - want) <= 1e-12 * scale)
    # the leaf step in blocks of whole leaves, one leaf each at block = 1,
    # gives the sums of a single block bit for bit
    with mock.patch.object(measure, "_UPWARD_BLOCK", block):
        assert np.array_equal(measure._node_sums(tree, *args), got)


@PROPERTY_SETTINGS
@given(
    case=measures_and_kernels(),
    cap=st.integers(1, 9),
    order=st.integers(0, 8),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_treecode_matches_direct_as_theta_vanishes(case, cap, order, data, seed):
    # the planar series (d = 2, n = 1) or the monopole (any other n, d), in
    # either kernel mode; targets on the support and off it
    mu, cfg = case
    planar = mu.ambient_dim == 2 and cfg.n == 1
    params = TreecodeParams(opening_angle=1e-9, leaf_cap=cap, expansion_order=order if planar else 0)
    targets = np.vstack([mu.points, lattice_points(data.draw, mu.ambient_dim, 1)])
    f = np.random.default_rng(seed).standard_normal(len(mu))
    fast = treecode_apply(mu, f, cfg, build_tree(mu, params), params, targets)
    direct = riesz_apply(mu, f, cfg, targets)
    # |K| <= eps^-n in both modes
    bound = 1e-12 * np.sum(np.abs(f) * mu.weights) / cfg.epsilon**cfg.n
    assert np.all(np.abs(fast - direct) <= bound)


@PROPERTY_SETTINGS
@given(case=measures_and_kernels(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_local_plus_nonlocal_is_the_full_transform(case, data, seed):
    # any labelling of the points by balls, passed as ball_of_point; the
    # cover is read only to label the points, so none is given
    mu, cfg = case
    labels = np.array(data.draw(st.lists(st.integers(0, 3), min_size=len(mu), max_size=len(mu))))
    f = np.random.default_rng(seed).standard_normal(len(mu))
    local, nonlocal_ = split_local_nonlocal(mu, None, f, cfg, ball_of_point=labels)
    full = riesz_apply(mu, f, cfg, mu.points)
    # |K| <= eps^-n in both modes
    bound = 1e-12 * np.sum(np.abs(f) * mu.weights) / cfg.epsilon**cfg.n
    assert np.all(np.abs(local.values + nonlocal_.values - full) <= bound)


def same_bits(a, b) -> bool:
    """Equal as IEEE bit patterns, so -0.0 differs from 0.0."""
    a, b = np.atleast_1d(np.asarray(a, dtype=np.float64)), np.atleast_1d(np.asarray(b, dtype=np.float64))
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


_MAX = np.finfo(np.float64).max
_SPECIAL = (-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, 0.1 + 0.2, 1.0 / 3.0, -2.0 / 3.0, _MAX)


def file_floats(lo, hi):
    """Finite floats in [lo, hi]; -0.0, subnormals and values that need all
    17 significant digits are drawn often."""
    return st.one_of(st.sampled_from([v for v in _SPECIAL if lo <= v <= hi]), st.floats(lo, hi))


@st.composite
def file_measures(draw):
    """Measures whose coordinates stay below 1e100, so that the bounding-box
    check of DiscreteMeasure cannot overflow."""
    d = draw(st.sampled_from([2, 3]))
    count = draw(st.integers(1, 8))
    points = np.array(draw(st.lists(file_floats(-1e100, 1e100), min_size=count * d, max_size=count * d)))
    points = points.reshape(count, d)
    weights = draw(st.lists(file_floats(5e-324, 1e100), min_size=count, max_size=count))
    h = draw(file_floats(5e-324, 1e100))
    if count > 1:
        span = points.max(axis=0) - points.min(axis=0)
        diag = float(np.sqrt(np.dot(span, span)))
        assume(diag > 0.0)
        h = min(h, diag)
    return DiscreteMeasure(points, weights, draw(st.integers(1, d - 1)), h)


@PROPERTY_SETTINGS
@given(mu=file_measures())
@example(mu=DiscreteMeasure([[-0.0, 5e-324], [0.1 + 0.2, 1.0 / 3.0]], [5e-324, 0.1 + 0.2], 1, 1.0 / 3.0))
def test_measure_file_round_trips_bit_exactly(mu):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "mu.measure")
        write_measure(mu, path)
        back = read_measure(path)
    assert same_bits(back.points, mu.points) and same_bits(back.weights, mu.weights)
    assert same_bits(back.resolution_h, mu.resolution_h)
    assert back.hausdorff_dim == mu.hausdorff_dim


@PROPERTY_SETTINGS
@given(d=st.integers(1, 3), count=st.integers(1, 8), data=st.data())
def test_vector_field_file_round_trips_bit_exactly(d, count, data):
    entries = data.draw(st.lists(file_floats(-_MAX, _MAX), min_size=count * d, max_size=count * d))
    field = VectorField(np.reshape(entries, (count, d)))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "field.vf")
        write_vector_field(field, path)
        back = read_vector_field(path)
    assert same_bits(back.values, field.values)
