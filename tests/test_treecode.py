import threading
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import rieszlab as rl
from rieszlab.kernels import REGULARIZED, TRUNCATED, KernelConfig, riesz_apply
from rieszlab import treecode
from rieszlab.treecode import TreecodeParams, build_tree, treecode_apply


def scale_relative_error(approx, exact):
    """max per-target vector error over the max exact field magnitude.

    A plain per-target relative error is meaningless at symmetry points
    where the exact field cancels to ~0, so errors are measured against the
    field scale on the target set.
    """
    err = np.linalg.norm(approx - exact, axis=1).max()
    scale = np.linalg.norm(exact, axis=1).max()
    return err / scale


def random_targets(mu, count, seed):
    rng = np.random.default_rng(seed)
    lo, hi = mu.bbox()
    span = np.where(hi > lo, hi - lo, 1.0)
    return lo - 0.1 * span + rng.random((count, mu.ambient_dim)) * 1.2 * span


# ----------------------------------------------------------------------- tree


def test_tree_single_point():
    mu = rl.gen_four_corners(0)
    tree = build_tree(mu, TreecodeParams(leaf_cap=4))
    assert tree.n_nodes == 1
    assert tree.left[0] < 0


def test_tree_single_leaf_when_cap_large(four_corners_3):
    tree = build_tree(four_corners_3, TreecodeParams(leaf_cap=len(four_corners_3)))
    assert tree.n_nodes == 1
    assert np.array_equal(tree.perm, np.arange(len(four_corners_3)))


def test_tree_structure_invariants():
    mu = rl.gen_four_corners(6)
    params = TreecodeParams(leaf_cap=16)
    tree = build_tree(mu, params)
    # every point in exactly one leaf
    seen = np.zeros(len(mu), dtype=int)
    for node in range(tree.n_nodes):
        if tree.left[node] < 0:
            assert tree.end[node] - tree.start[node] <= params.leaf_cap
            seen[tree.perm[tree.start[node] : tree.end[node]]] += 1
    assert np.all(seen == 1)
    # node weight equals the sum of the child weights
    for node in range(tree.n_nodes):
        if tree.left[node] >= 0:
            kids = tree.node_weight[tree.left[node]] + tree.node_weight[tree.right[node]]
            assert tree.node_weight[node] == pytest.approx(kids, rel=1e-12)
    # weights match the covered index ranges
    for node in range(tree.n_nodes):
        w = mu.weights[tree.perm[tree.start[node] : tree.end[node]]].sum()
        assert tree.node_weight[node] == pytest.approx(w, rel=1e-12)


def test_params_validation():
    with pytest.raises(ValueError):
        TreecodeParams(opening_angle=1.5)
    with pytest.raises(ValueError):
        TreecodeParams(leaf_cap=0)
    with pytest.raises(ValueError):
        TreecodeParams(expansion_order=-1)


@pytest.mark.parametrize("field", ["leaf_cap", "expansion_order"])
@pytest.mark.parametrize("value", [2.5, 1.7, 0.5, True, np.bool_(True), float("nan"), "3"])
def test_params_reject_what_is_no_count(field, value):
    # int() would truncate these to a count: leaf_cap=2.5 to 2, and an
    # expansion order of 0.5 to 0, the monopole
    with pytest.raises(ValueError, match=field):
        TreecodeParams(**{field: value})


def test_params_take_integral_values_as_counts():
    params = TreecodeParams(leaf_cap=np.int64(8), expansion_order=4.0)
    assert (params.leaf_cap, params.expansion_order) == (8, 4)
    assert type(params.leaf_cap) is int and type(params.expansion_order) is int


# -------------------------------------------------------------------- apply


def test_single_leaf_identical_to_direct(four_corners_3):
    params = TreecodeParams(leaf_cap=len(four_corners_3))
    tree = build_tree(four_corners_3, params)
    f = np.ones(len(four_corners_3))
    cfg = KernelConfig(1, 0.02, TRUNCATED)
    targets = random_targets(four_corners_3, 20, seed=1)
    direct = riesz_apply(four_corners_3, f, cfg, targets)
    fast = treecode_apply(four_corners_3, f, cfg, tree, params, targets)
    assert np.array_equal(fast, direct)


@pytest.mark.parametrize("mode", [TRUNCATED, REGULARIZED])
def test_tiny_theta_matches_direct(mode, corpus):
    params = TreecodeParams(opening_angle=1e-9, leaf_cap=32)
    for name, mu in corpus.items():
        if len(mu) > 5000:
            continue
        tree = build_tree(mu, params)
        rng = np.random.default_rng(5)
        f = rng.uniform(0.5, 1.5, len(mu))
        cfg = KernelConfig(mu.hausdorff_dim, 4 * mu.resolution_h, mode)
        targets = random_targets(mu, 40, seed=2)
        direct = riesz_apply(mu, f, cfg, targets)
        fast = treecode_apply(mu, f, cfg, tree, params, targets)
        assert scale_relative_error(fast, direct) <= 1e-12, name


def test_planar_expansion_accuracy():
    mu = rl.gen_segment(4000)
    f = np.ones(len(mu))
    cfg = KernelConfig(1, 4 * mu.resolution_h, TRUNCATED)
    params = TreecodeParams(opening_angle=0.2, leaf_cap=32, expansion_order=10)
    tree = build_tree(mu, params)
    targets = random_targets(mu, 100, seed=3)
    direct = riesz_apply(mu, f, cfg, targets)
    fast = treecode_apply(mu, f, cfg, tree, params, targets)
    assert scale_relative_error(fast, direct) <= 1e-6


def test_error_monotone_in_theta(corpus):
    errors = {0.2: [], 0.5: []}
    for name, mu in corpus.items():
        if len(mu) > 5000:
            continue
        f = np.ones(len(mu))
        cfg = KernelConfig(mu.hausdorff_dim, 4 * mu.resolution_h, TRUNCATED)
        targets = random_targets(mu, 30, seed=4)
        direct = riesz_apply(mu, f, cfg, targets)
        for theta in (0.2, 0.5):
            params = TreecodeParams(opening_angle=theta, leaf_cap=32)
            tree = build_tree(mu, params)
            fast = treecode_apply(mu, f, cfg, tree, params, targets)
            errors[theta].append(scale_relative_error(fast, direct))
    assert np.median(errors[0.2]) <= np.median(errors[0.5])


def test_apply_deterministic(four_corners_4):
    params = TreecodeParams(opening_angle=0.3, leaf_cap=16)
    tree = build_tree(four_corners_4, params)
    f = np.linspace(0.5, 1.5, len(four_corners_4))
    cfg = KernelConfig(1, 0.02, TRUNCATED)
    targets = random_targets(four_corners_4, 50, seed=6)
    a = treecode_apply(four_corners_4, f, cfg, tree, params, targets)
    b = treecode_apply(four_corners_4, f, cfg, tree, params, targets)
    assert np.array_equal(a, b)
    tree2 = build_tree(four_corners_4, params)
    c = treecode_apply(four_corners_4, f, cfg, tree2, params, targets)
    assert np.array_equal(a, c)


def test_generic_monopole_path(plane_23):
    params = TreecodeParams(opening_angle=0.15, leaf_cap=32)
    tree = build_tree(plane_23, params)
    f = np.ones(len(plane_23))
    cfg = KernelConfig(2, 4 * plane_23.resolution_h, TRUNCATED)
    targets = random_targets(plane_23, 30, seed=7)
    direct = riesz_apply(plane_23, f, cfg, targets)
    fast = treecode_apply(plane_23, f, cfg, tree, params, targets)
    assert scale_relative_error(fast, direct) <= 5e-3


def test_inputs_checked_as_in_riesz_apply(segment_1024):
    # one check serves both paths: a target of the wrong dimension, no
    # targets, or an f that does not align with the measure is an error
    params = TreecodeParams(leaf_cap=32)
    tree = build_tree(segment_1024, params)
    cfg = KernelConfig(1, 0.01, TRUNCATED)
    f = np.ones(len(segment_1024))
    for dens, targets, message in (
        (f, [[0.5]], "target dimension mismatch"),
        (f, np.empty((0, 2)), "targets must be nonempty"),
        (f[:-1], [[0.5, 0.0]], "aligned with the measure"),
    ):
        with pytest.raises(ValueError, match=message):
            riesz_apply(segment_1024, dens, cfg, targets)
        with pytest.raises(ValueError, match=message):
            treecode_apply(segment_1024, dens, cfg, tree, params, targets)


def test_expansion_order_rejected_off_plane(plane_23):
    params = TreecodeParams(opening_angle=0.2, leaf_cap=32, expansion_order=4)
    tree = build_tree(plane_23, params)
    cfg = KernelConfig(2, 0.1, TRUNCATED)
    with pytest.raises(NotImplementedError):
        treecode_apply(plane_23, np.ones(len(plane_23)), cfg, tree, params, plane_23.points[:3])


def test_treecode_rejects_nonfinite_targets(segment_1024):
    params = TreecodeParams(opening_angle=0.3, leaf_cap=32)
    tree = build_tree(segment_1024, params)
    targets = np.array([[0.5, 0.0], [np.nan, 0.0]])
    with pytest.raises(ValueError, match="target coordinates must be finite"):
        treecode_apply(segment_1024, np.ones(len(segment_1024)), KernelConfig(1, 0.01), tree, params, targets)


def test_treecode_rejects_a_tree_of_another_measure(segment_1024):
    # a tree of another support with the same N once gave a wrong field
    # without an error, and one with another N an IndexError
    params = TreecodeParams(leaf_cap=32)
    cfg = KernelConfig(1, 0.01, TRUNCATED)
    f = np.ones(len(segment_1024))
    for other in (rl.gen_four_corners(5), rl.gen_four_corners(4)):  # 1024 and 256 points
        with pytest.raises(ValueError, match="tree was not built on the measure's points"):
            treecode_apply(segment_1024, f, cfg, build_tree(other, params), params, segment_1024.points[:3])


def test_regularized_inside_eps_exact():
    # a cluster entirely within eps of the target: every node reaching
    # within eps is opened, and the leaf sums apply the regularized rule
    mu = rl.gen_four_corners(4)
    f = np.linspace(0.5, 1.5, len(mu))
    eps = 8.0  # the whole unit square sits inside the eps-ball of any target
    cfg = KernelConfig(1, eps, REGULARIZED)
    params = TreecodeParams(opening_angle=0.9, leaf_cap=8)
    tree = build_tree(mu, params)
    targets = np.array([[3.0, 1.0], [-2.0, 0.5]])
    direct = riesz_apply(mu, f, cfg, targets)
    fast = treecode_apply(mu, f, cfg, tree, params, targets)
    assert np.allclose(fast, direct, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("mode", [TRUNCATED, REGULARIZED])
@pytest.mark.parametrize("path", ["planar", "monopole"])
def test_target_chunking_bit_identical(path, mode, segment_1024, plane_23, monkeypatch):
    # many targets in one call span an odd number of traversal chunks, which
    # the caller and a helper thread share; evaluating them in slices that
    # straddle those chunk boundaries, one at a time, or on one CPU (no
    # helper) must reproduce every row bit for bit
    mu = segment_1024 if path == "planar" else plane_23
    params = TreecodeParams(opening_angle=0.4, leaf_cap=16)
    tree = build_tree(mu, params)
    f = np.linspace(0.5, 1.5, len(mu))
    cfg = KernelConfig(mu.hausdorff_dim, 4 * mu.resolution_h, mode)
    chunk = treecode._TARGET_CHUNK
    targets = np.vstack([mu.points, random_targets(mu, 2 * chunk + 300 - len(mu), seed=8)])
    assert -(-targets.shape[0] // chunk) == 3
    whole = treecode_apply(mu, f, cfg, tree, params, targets)
    step = 777
    sliced = np.vstack([
        treecode_apply(mu, f, cfg, tree, params, targets[t0 : t0 + step])
        for t0 in range(0, targets.shape[0], step)
    ])
    assert np.array_equal(whole, sliced)
    for row in (0, step, chunk - 1, chunk, 2 * chunk, targets.shape[0] - 1):
        single = treecode_apply(mu, f, cfg, tree, params, targets[row : row + 1])
        assert np.array_equal(single[0], whole[row])
    monkeypatch.setattr(treecode.os, "sched_getaffinity", lambda pid: {0})
    assert np.array_equal(treecode_apply(mu, f, cfg, tree, params, targets), whole)


def test_chunk_error_reraises_and_stops_the_helper(segment_1024, monkeypatch):
    # a traversal that fails on the second chunk, whichever thread runs it,
    # fails the call, and no helper thread outlives it
    mu = segment_1024
    params = TreecodeParams(opening_angle=0.4, leaf_cap=16)
    tree = build_tree(mu, params)
    cfg = KernelConfig(1, 4 * mu.resolution_h, TRUNCATED)
    monkeypatch.setattr(treecode, "_TARGET_CHUNK", 100)
    assert len(mu) >= 3 * treecode._TARGET_CHUNK
    traverse, calls, lock = treecode._traverse, [], threading.Lock()

    def failing(*args):
        with lock:
            calls.append(None)
            second = len(calls) == 2
        if second:
            raise RuntimeError("chunk failed")
        return traverse(*args)

    monkeypatch.setattr(treecode, "_traverse", failing)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="chunk failed"):
        treecode_apply(mu, np.ones(len(mu)), cfg, tree, params, mu.points)
    assert threading.active_count() == before


@pytest.mark.parametrize("mode", [TRUNCATED, REGULARIZED])
def test_truncation_boundary_moderate_theta(mode, segment_1024):
    # targets on the support with eps an exact multiple of the spacing, so
    # sources sit at distance exactly eps: nodes straddling the eps sphere
    # must be opened and leaves must apply the strict r2 > eps2 cut of the
    # direct sum; the series order makes the far-field error negligible
    mu = segment_1024
    params = TreecodeParams(opening_angle=0.5, leaf_cap=4, expansion_order=48)
    tree = build_tree(mu, params)
    f = np.linspace(0.5, 1.5, len(mu))
    cfg = KernelConfig(1, 4 * mu.resolution_h, mode)
    direct = riesz_apply(mu, f, cfg, mu.points)
    fast = treecode_apply(mu, f, cfg, tree, params, mu.points)
    assert scale_relative_error(fast, direct) <= 1e-12


def check_rounded_box_bound(d):
    # a node's farthest squared distance taken from its box center and half
    # extent, sum((|t - c| + half)**2), can round below the r2 of its
    # farthest point; with eps*eps equal to such a bound the node straddles
    # the eps sphere, so it must be opened for the strict r2 > eps2 cut
    rng = np.random.default_rng(3)
    mu = rl.DiscreteMeasure(rng.random((256, d)), rng.uniform(0.5, 1.5, 256), 1, 1e-3)
    params = TreecodeParams(opening_angle=1e-9, leaf_cap=4)
    tree = build_tree(mu, params)
    targets = rng.random((64, d))
    cases = []
    for node in range(tree.n_nodes):
        sub = tree.points[tree.start[node] : tree.end[node]]
        lo, hi = sub.min(axis=0), sub.max(axis=0)
        bound = ((np.abs(targets - 0.5 * (lo + hi)) + 0.5 * (hi - lo)) ** 2).sum(axis=1)
        diff = targets[:, None, :] - sub[None, :, :]
        # r2 as the package takes it: squares added axis by axis, in order
        r2max = sum(diff[:, :, a] * diff[:, :, a] for a in range(d)).max(axis=1)
        eps = np.sqrt(bound)
        cases += [(t, eps[t]) for t in np.flatnonzero((bound < r2max) & (eps * eps == bound))]
    assert len(cases) >= 8
    f = rng.uniform(0.5, 1.5, len(mu))
    for t, eps in cases[:8]:
        cfg = KernelConfig(1, float(eps), TRUNCATED)
        direct = riesz_apply(mu, f, cfg, targets[t : t + 1])
        fast = treecode_apply(mu, f, cfg, tree, params, targets[t : t + 1])
        assert scale_relative_error(fast, direct) <= 1e-12


def test_truncation_boundary_at_rounded_box_bound():
    check_rounded_box_bound(2)


def test_truncation_boundary_at_rounded_box_bound_3d():
    # in d = 3 the order in which the squares are added changes r2
    check_rounded_box_bound(3)


def test_one_squared_distance_rule_in_3d():
    # points whose distance from the center rounds differently when the
    # squares are added as einsum adds them, (x0^2 + x2^2) + x1^2, than in
    # the package's axis order: with the radius and eps at the point's own
    # distance, every path must put it on the same side (inside the closed
    # ball, outside the strict truncation)
    rng = np.random.default_rng(11)
    points = rng.standard_normal((400, 3))
    mu = rl.DiscreteMeasure(points, np.ones(len(points)), 1, 1e-3)
    params = TreecodeParams(opening_angle=1e-9, leaf_cap=4)
    tree = build_tree(mu, params)
    center = rng.standard_normal(3)
    diff = center - points
    rule = (diff[:, 0] * diff[:, 0] + diff[:, 1] * diff[:, 1]) + diff[:, 2] * diff[:, 2]
    other = np.einsum("ij,ij->i", diff, diff)
    radius = np.sqrt(rule)
    picks = np.flatnonzero((np.sqrt(other) > radius) & (radius * radius == rule))
    assert len(picks) >= 4
    for i in picks[:8]:
        r = radius[i]
        want = np.flatnonzero(radius <= r)
        assert i in want
        (members,) = rl.measure._ball_members(mu, center, r)
        assert np.array_equal(members, want)
        assert rl.ball_masses(mu, center[None], [r])[0, 0] == len(want)
        cfg = KernelConfig(1, float(r), TRUNCATED)
        alone = np.zeros(len(mu))
        alone[i] = 1.0  # only point i carries weight: its term is all there is
        assert np.all(riesz_apply(mu, alone, cfg, center[None]) == 0.0)
        assert np.all(treecode_apply(mu, alone, cfg, tree, params, center[None]) == 0.0)
        f = rng.uniform(0.5, 1.5, len(mu))
        direct = riesz_apply(mu, f, cfg, center[None])
        fast = treecode_apply(mu, f, cfg, tree, params, center[None])
        assert scale_relative_error(fast, direct) <= 1e-12


# -------------------------------------------------- centroid cuts vs box bounds


def near_leaves(walk, targets, leaves):
    """The treecode's direct sums over (target, leaf) pairs, through the
    module's binding of the shared leaf sum, so that a patch of it sees them."""
    coef = partial(treecode._coef_from_r2, cfg=walk.cfg)
    return treecode._leaf_sums(walk.planes, targets, walk.tree.leaf_col[leaves], coef)


def box_rule_traverse(walk, targets):
    """The treecode walk with every (target, node) pair classified by its box bounds.

    This is the rule the centroid cuts of treecode._traverse stand in for:
    _box_dist2 on both boxes of every pair, as one chunk.
    """
    tree, truncated = walk.tree, walk.cfg.mode == TRUNCATED
    eps2 = walk.cfg.epsilon * walk.cfg.epsilon
    is_leaf = tree.left < 0
    out = np.zeros(targets.shape[::-1])  # one row per component, as _accumulate adds
    tgt, node = np.arange(targets.shape[0]), np.zeros(targets.shape[0], dtype=np.int64)
    while tgt.size:
        t = targets[tgt]
        dmin2, dmax2 = rl.measure._box_dist2(t, t, tree.box_lo[node], tree.box_hi[node])
        rel = t - tree.centroid[node]
        dist2 = np.einsum("pd,pd->p", rel, rel)
        separated = tree.radius[node] ** 2 < walk.theta * walk.theta * dist2
        far = (dmin2 > eps2) & separated
        near = ~far & (dmax2 > eps2) if truncated else ~far
        f = np.flatnonzero(far)
        treecode._accumulate(out, tgt[f], walk.far(rel[f], dist2[f], node[f]))
        leaf = np.flatnonzero(near & is_leaf[node])
        treecode._accumulate(out, tgt[leaf], near_leaves(walk, targets[tgt[leaf]], node[leaf]))
        opened = np.flatnonzero(near & ~is_leaf[node])
        tgt = np.repeat(tgt[opened], 2)
        node = np.column_stack([tree.left[node[opened]], tree.right[node[opened]]]).ravel()
    return out.T


def on_sphere(centers, radius, rng):
    """One point at the given radius about each center, in a random direction."""
    u = rng.standard_normal(centers.shape)
    return centers + radius * u / np.linalg.norm(u, axis=1, keepdims=True)


def boundary_targets(tree, eps, rng, per_leaf=4):
    """Targets on the eps-sphere about each leaf centroid, and within a few
    ulps of eps from a box corner along one axis, per_leaf of each per leaf."""
    leaves = np.repeat(np.flatnonzero(tree.left < 0), per_leaf)
    rows, d = np.arange(leaves.size), tree.points.shape[1]
    corner = np.where(rng.random((leaves.size, d)) < 0.5, tree.box_lo[leaves], tree.box_hi[leaves])
    axis = rng.integers(d, size=leaves.size)
    corner[rows, axis] += rng.choice([-eps, eps], size=leaves.size)
    corner[rows, axis] += rng.integers(-3, 4, size=leaves.size) * np.spacing(corner[rows, axis])
    return np.vstack([on_sphere(tree.centroid[leaves], eps, rng), corner])


# (ambient d, kernel n, expansion order): the planar series, and the monopole in d = 2 and 3
CUT_CASES = {"planar": (2, 1, 6), "monopole_2d": (2, 2, 0), "monopole_3d": (3, 1, 0)}


@pytest.mark.parametrize("mode", [TRUNCATED, REGULARIZED])
@pytest.mark.parametrize("case", sorted(CUT_CASES))
def test_centroid_cuts_decide_as_the_box_bounds(case, mode, monkeypatch):
    # the centroid cuts only stand in for the box bounds: on targets where
    # the bounds sit at eps to within rounding, the walk must give the box
    # rule's bits, and the pairs the cuts leave open must reach _box_dist2.
    # Clusters of coincident points split by count into nodes whose box is
    # one point, with centroids that round off their boxes; about such a
    # point, |t - c|^2 taken as einsum takes it and the box's dmin2 can
    # fall on either side of eps2 for the same target
    d, n, order = CUT_CASES[case]
    rng = np.random.default_rng(17)
    clusters = rng.random((4, d))
    points = np.vstack([rng.random((600, d)), np.repeat(clusters, 20, axis=0)])
    mu = rl.DiscreteMeasure(points, rng.uniform(0.5, 1.5, len(points)), 1, 1e-3)
    params = TreecodeParams(opening_angle=0.5, leaf_cap=6, expansion_order=order)
    tree = build_tree(mu, params)
    assert np.any((tree.box_lo > tree.centroid) | (tree.centroid > tree.box_hi))
    f = rng.uniform(0.5, 1.5, len(mu))
    cfg = KernelConfig(n, 0.2, mode)
    targets = np.vstack([
        boundary_targets(tree, cfg.epsilon, rng),
        on_sphere(np.repeat(clusters, 100, axis=0), cfg.epsilon, rng),
        random_targets(mu, 200, seed=4),
        mu.points[:100],
    ])
    box_dist2, leaf_sums, rows, summed = treecode._box_dist2, treecode._leaf_sums, [], []

    def counted(*args):
        rows.append(len(args[0]))
        return box_dist2(*args)

    def recorded(planes, at, cols, coef):  # the (target, leaf) pairs summed directly, in order
        summed.append((at.tobytes(), cols.tobytes()))
        return leaf_sums(planes, at, cols, coef)

    monkeypatch.setattr(treecode, "_box_dist2", counted)
    monkeypatch.setattr(treecode, "_leaf_sums", recorded)
    assert targets.shape[0] <= treecode._TARGET_CHUNK  # one chunk, walked as the oracle walks it
    fast = treecode_apply(mu, f, cfg, tree, params, targets)
    assert sum(rows) > 0
    walked, summed[:] = summed[:], []
    live = rl.measure._live_axes(mu.points, targets)
    assert live.all()  # the oracle walks uncut targets
    oracle = box_rule_traverse(treecode._walk(mu, f, cfg, tree, params, live), targets)
    # equal pairs: no node is skipped, opened or taken as far against the
    # box rule, not even a node within eps whose opening would add zeros
    assert walked == summed
    assert fast.tobytes() == oracle.tobytes()


# ------------------------------------------------------------------ live axes


def vertical(mu):
    """mu with its two coordinates swapped: a segment along the second axis."""
    return rl.DiscreteMeasure(mu.points[:, ::-1], mu.weights, mu.hausdorff_dim, mu.resolution_h)


# case -> (support, expansion order, live axes): the planar series on a segment
# along either axis, the monopole on a segment in R^3 and on a plane in R^3,
# and the planar series with no dead axis
FLAT_CASES = {
    "segment_2d": (lambda: rl.gen_segment(1500), 8, [True, False]),
    "segment_2d_vertical": (lambda: vertical(rl.gen_segment(1500)), 8, [False, True]),
    "segment_3d": (lambda: rl.gen_segment(1500, d=3), 0, [True, False, False]),
    "plane_z0": (lambda: rl.gen_plane(2, 3, 1.0, 1.0 / 30.0), 0, [True, True, False]),
    "corners_4": (lambda: rl.gen_four_corners(4), 8, [True, True]),
}


def on_the_flat(mu, count, seed):
    """Random targets about the support, at its value along every axis where it has one."""
    lo, hi = mu.bbox()
    return np.where(hi > lo, random_targets(mu, count, seed), lo)


def all_axes_live(monkeypatch):
    """Make the treecode walk and the direct sums carry every axis."""
    every = lambda points, targets: np.ones(np.shape(points)[1], dtype=bool)  # noqa: E731
    monkeypatch.setattr(treecode, "_live_axes", every)
    monkeypatch.setattr(rl.kernels, "_live_axes", every)


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("mode", [TRUNCATED, REGULARIZED])
@pytest.mark.parametrize("case", sorted(FLAT_CASES))
def test_live_axes_give_the_all_axes_bits(case, mode, cpus, monkeypatch):
    # on a support in a coordinate subspace through 0, with targets on it,
    # the dead axes add exact zeros everywhere: walking the live columns
    # alone must give the bits of the walk over every axis, and the direct
    # sums likewise, on one CPU and with the helper thread; a density of
    # both signs makes signed zeros in the dead components
    make, order, want = FLAT_CASES[case]
    mu = make()
    params = TreecodeParams(opening_angle=0.5, leaf_cap=16, expansion_order=order)
    tree = build_tree(mu, params)
    f = np.linspace(-1.0, 1.5, len(mu))
    cfg = KernelConfig(mu.hausdorff_dim, 4 * mu.resolution_h, mode)
    targets = np.vstack([mu.points, on_the_flat(mu, 500, seed=3)])
    monkeypatch.setattr(treecode, "_TARGET_CHUNK", 512)
    monkeypatch.setattr(treecode.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    live = rl.measure._live_axes(mu.points, targets)
    assert live.tolist() == want
    fast = treecode_apply(mu, f, cfg, tree, params, targets)
    direct = rl.kernels.kernel_sum(mu.points, f * mu.weights, cfg, targets)
    for out in (fast, direct):  # exact +0.0 in the dead columns
        assert np.all(out[:, ~live] == 0.0) and not np.signbit(out[:, ~live]).any()
    all_axes_live(monkeypatch)
    assert fast.tobytes() == treecode_apply(mu, f, cfg, tree, params, targets).tobytes()
    assert direct.tobytes() == rl.kernels.kernel_sum(mu.points, f * mu.weights, cfg, targets).tobytes()


def test_targets_off_the_flat_make_every_axis_live(monkeypatch):
    mu = rl.gen_plane(2, 3, 1.0, 1.0 / 30.0)
    params = TreecodeParams(opening_angle=0.5, leaf_cap=16)
    tree = build_tree(mu, params)
    f = np.linspace(-1.0, 1.5, len(mu))
    cfg = KernelConfig(2, 4 * mu.resolution_h, TRUNCATED)
    targets = np.vstack([mu.points[:200], random_targets(mu, 300, seed=5)])
    assert rl.measure._live_axes(mu.points, targets).all()
    fast = treecode_apply(mu, f, cfg, tree, params, targets)
    assert np.abs(fast[:, 2]).max() > 0.0
    all_axes_live(monkeypatch)
    assert fast.tobytes() == treecode_apply(mu, f, cfg, tree, params, targets).tobytes()


def test_flat_off_zero_agrees_with_all_axes_to_rounding(monkeypatch):
    # on the plane z = 0.37 the centroids round off 0.37, so the walk over
    # every axis carries rounding-sized offsets along z that the live walk
    # drops; the direct sums take only target-point differences, exact 0
    plane = rl.gen_plane(2, 3, 1.0, 1.0 / 30.0)
    mu = rl.DiscreteMeasure(plane.points + [0.0, 0.0, 0.37], plane.weights, 2, plane.resolution_h)
    params = TreecodeParams(opening_angle=0.5, leaf_cap=16)
    tree = build_tree(mu, params)
    assert np.any(tree.centroid[:, 2] != 0.37)
    f = np.linspace(-1.0, 1.5, len(mu))
    cfg = KernelConfig(2, 4 * mu.resolution_h, REGULARIZED)
    targets = np.vstack([mu.points, on_the_flat(mu, 500, seed=6)])
    fast = treecode_apply(mu, f, cfg, tree, params, targets)
    direct = rl.kernels.kernel_sum(mu.points, f * mu.weights, cfg, targets)
    assert np.all(fast[:, 2] == 0.0)
    all_axes_live(monkeypatch)
    every = treecode_apply(mu, f, cfg, tree, params, targets)
    assert np.abs(fast - every).max() <= 1e-15 * np.abs(every).max()
    assert direct.tobytes() == rl.kernels.kernel_sum(mu.points, f * mu.weights, cfg, targets).tobytes()


def loop_planar_series(moments, rel, nodes):
    """Out-of-place Horner steps on gathered row-major moments: the oracle of
    the in-place series on node-major planes, treecode._planar_series."""
    inv = 1.0 / (rel[:, 0] + 1j * rel[:, 1])
    coeffs = moments[nodes]
    acc = coeffs[:, -1]
    for m in range(coeffs.shape[1] - 2, -1, -1):
        acc = acc * inv + coeffs[:, m]
    acc = acc * inv
    return np.column_stack([acc.real, -acc.imag])


@pytest.mark.parametrize("axes", [(True, True), (True, False), (False, True)])
def test_planar_series_in_place_matches_the_out_of_place_steps(axes):
    # moments of a density of both signs; on a segment (one axis dead) the
    # upward pass on the live columns gives the moments of every column
    live = np.array(axes)
    rng = np.random.default_rng(9)
    points = np.zeros((700, 2))
    points[:, live] = rng.random((700, live.sum()))
    tree = rl.measure._build_spatial_tree(points, rng.uniform(0.5, 1.5, 700), 8)
    fw = rng.uniform(-1.0, 1.0, 700)[:, None]
    order = 7
    moments = rl.measure._node_sums(tree, fw, partial(treecode._planar_shift, order))
    cut = replace(tree, points=tree.points[:, live], centroid=tree.centroid[:, live])
    assert rl.measure._node_sums(cut, fw, partial(treecode._planar_shift, order, live=live)).tobytes() == moments.tobytes()
    nodes = rng.integers(tree.n_nodes, size=5000)
    targets = np.zeros((5000, 2))
    targets[:, live] = rng.uniform(-1.0, 2.0, (5000, live.sum()))
    rel = targets - tree.centroid[nodes]
    want = loop_planar_series(moments, rel, nodes)[:, live]
    got = treecode._planar_series(np.ascontiguousarray(moments.T), live, rel[:, live], None, nodes)
    assert np.column_stack(got).tobytes() == np.ascontiguousarray(want).tobytes()


def loop_near_leaves(walk, targets, leaves):
    """Each pair's terms added by a loop over the rows of its block: the
    oracle of the np.add.reduce sums of measure._leaf_sums."""
    *coords, fw = walk.planes
    cols = walk.tree.leaf_col[leaves]
    out = np.empty((cols.size, len(coords)))
    per_block = max(1, rl.measure._LEAF_BLOCK // fw.shape[0])
    for p0 in range(0, cols.size, per_block):
        rows = slice(p0, p0 + per_block)
        block = cols[rows]
        diff = [tc[None, rows] - np.take(pc, block, axis=1) for tc, pc in zip(targets.T, coords)]
        cw = treecode._coef_from_r2(rl.measure._sq_norm(diff), walk.cfg) * np.take(fw, block, axis=1)
        for a, plane in enumerate(diff):
            plane *= cw
            acc = np.zeros(plane.shape[1])
            for term in plane:
                acc += term
            out[rows, a] = acc
    return out


@pytest.mark.parametrize("per_block", [1, 3, None])
@pytest.mark.parametrize("case", ["cloud", "segment_3d"])
def test_near_leaf_sums_match_the_row_loop(case, per_block, monkeypatch):
    # leaves of 8 and more points, where a pairwise sum would differ; blocks
    # of one pair, a last block of one pair, and the default blocks.  With a
    # negative density every term of a full segment leaf wholly within eps
    # of a target on its right is -0.0, and the sum from +0.0 is +0.0
    rng = np.random.default_rng(12)
    if case == "cloud":
        mu = rl.DiscreteMeasure(rng.random((600, 2)), rng.uniform(0.5, 1.5, 600), 1, 1e-3)
    else:
        mu = rl.gen_segment(600, d=3)
    params = TreecodeParams(opening_angle=0.5, leaf_cap=16)
    tree = build_tree(mu, params)
    f = -rng.uniform(0.5, 1.5, len(mu))
    cfg = KernelConfig(1, 0.05, TRUNCATED)
    leaf_ids = np.flatnonzero(tree.left < 0)
    right = tree.box_hi[leaf_ids] + 0.5 * cfg.epsilon * np.eye(mu.ambient_dim)[0]
    targets = np.vstack([mu.points[:40], right, on_the_flat(mu, 27, seed=2)])
    live = rl.measure._live_axes(mu.points, targets)
    walk = treecode._walk(mu, f, cfg, tree, params, live)
    width = walk.planes[0].shape[0]
    assert width >= 8
    if per_block is not None:
        monkeypatch.setattr(rl.measure, "_LEAF_BLOCK", per_block * width)
    tgt = np.repeat(np.arange(targets.shape[0]), leaf_ids.size)
    keep = tgt.size - (tgt.size - 1) % 3  # a last block of one pair at per_block = 3
    at, leaves = targets[tgt[:keep]][:, live], np.tile(leaf_ids, targets.shape[0])[:keep]
    want = loop_near_leaves(walk, at, leaves)
    if case == "segment_3d":  # sums of -0.0 terms alone
        assert np.signbit(want[want == 0.0]).sum() == 0 < np.sum(want == 0.0)
    assert near_leaves(walk, at, leaves).T.tobytes() == want.tobytes()
