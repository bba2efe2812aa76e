from itertools import permutations

import numpy as np
import pytest

import rieszlab as rl
from rieszlab import analysis, kernels
from rieszlab.analysis import (
    NonConvergenceError,
    _build_symmetrized_matrix,
    _packed_cache,
    _symmetrized_operator,
    adjoint_apply,
    curvature_c2,
    dense_operator_norm,
    joint_norm_experiment,
    menger_curvature,
    merge_measures,
    norm_sweep,
    operator_norm,
)
from rieszlab.kernels import REGULARIZED, TRUNCATED, KernelConfig, VectorField, kernel_eval, riesz_apply
from rieszlab.measure import DiscreteMeasure


def wdot(values, other, weights):
    return float(np.sum(values * other * weights))


def field_dot(field_a, field_b, weights):
    return float(np.einsum("ij,ij->", field_a * weights[:, None], field_b))


# ------------------------------------------------------------- operator norm


def test_two_point_norm_hand_value():
    # two equal masses separated by 2 with eps = 1: the symmetrized matrix is
    # a single antisymmetric 2x2 block with entries +-w/2, hence norm w/2
    for w in (1.0, 0.3):
        mu = DiscreteMeasure([[0.0, 0.0], [2.0, 0.0]], [w, w], 1, 1.0)
        cfg = KernelConfig(1, 1.0, TRUNCATED)
        dense = dense_operator_norm(mu, cfg)
        assert dense.value == pytest.approx(w / 2.0, rel=1e-12)
        power = operator_norm(mu, cfg, tol=1e-10, max_iter=200)
        assert power.value == pytest.approx(w / 2.0, rel=1e-9)


def test_norm_linear_in_mass(four_corners_3):
    cfg = KernelConfig(1, 0.05, TRUNCATED)
    base = dense_operator_norm(four_corners_3, cfg).value
    scaled_mu = DiscreteMeasure(
        four_corners_3.points, 3.5 * four_corners_3.weights, 1, four_corners_3.resolution_h
    )
    scaled = dense_operator_norm(scaled_mu, cfg).value
    assert scaled == pytest.approx(3.5 * base, rel=1e-12)


def test_power_iteration_matches_dense(corpus):
    for name, mu in corpus.items():
        if len(mu) > 512:
            continue
        cfg = KernelConfig(mu.hausdorff_dim, 4 * mu.resolution_h, TRUNCATED)
        dense = dense_operator_norm(mu, cfg)
        power = operator_norm(mu, cfg, tol=1e-10, max_iter=4000)
        assert power.value == pytest.approx(dense.value, rel=1e-6), name


def test_norm_witness_is_certified_lower_bound(four_corners_3):
    cfg = KernelConfig(1, 0.05, TRUNCATED)
    est = operator_norm(four_corners_3, cfg, tol=1e-8, max_iter=1000)
    f = est.witness
    field = riesz_apply(four_corners_3, f, cfg, four_corners_3.points)
    num = np.sqrt(field_dot(field, field, four_corners_3.weights))
    den = np.sqrt(wdot(f, f, four_corners_3.weights))
    assert num / den <= est.value * (1 + 1e-12)
    assert est.value == pytest.approx(num / den, rel=1e-10)


def test_matrix_free_path_matches_dense(four_corners_3):
    # dense_cache_cap=0 forces the matrix-free products on the cache's blocks
    cfg = KernelConfig(1, 0.05, TRUNCATED)
    dense = dense_operator_norm(four_corners_3, cfg).value
    power = operator_norm(four_corners_3, cfg, tol=1e-10, max_iter=2000, dense_cache_cap=0)
    assert power.value == pytest.approx(dense, rel=1e-8)


@pytest.mark.parametrize("mode", [TRUNCATED, REGULARIZED])
def test_norm_finds_odd_top_vector_of_mirrored_measure(mode):
    # 64 points mirrored under x -> -x (the 78th draw of this generator):
    # the top singular vector is odd, orthogonal to the even sqrt(w), and
    # Lanczos from sqrt(w) alone stopped 1% short of the dense norm; at
    # tol 1e-4 the Ritz value is close to, and never above, the dense one
    rng = np.random.default_rng(2)
    for _ in range(78):
        k = int(rng.integers(12, 40))
        half = np.column_stack([rng.uniform(0.1, 2, k), rng.uniform(-1, 1, k)])
        wh = rng.uniform(0.1, 5, k)
    mu = DiscreteMeasure(np.vstack([half, half * [-1, 1]]), np.concatenate([wh, wh]), 1, 0.01)
    cfg = KernelConfig(1, 0.05, mode)
    dense = dense_operator_norm(mu, cfg).value
    for cap in (0, 60_000_000):
        coarse = operator_norm(mu, cfg, tol=1e-4, dense_cache_cap=cap).value
        assert dense * (1 - 1e-6) <= coarse <= dense * (1 + 1e-12)
        assert operator_norm(mu, cfg, tol=1e-10, dense_cache_cap=cap).value == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize("mode", [TRUNCATED, REGULARIZED])
def test_lanczos_residual_is_true_and_within_tol(mode):
    # Lanczos on 1024 points stops when the Ritz residual reaches tol, long
    # before the basis spans the space; the residual is recomputed from the
    # dense matrix
    mu = rl.gen_segment(1024)
    cfg = KernelConfig(1, 4 * mu.resolution_h, mode)
    mat = _build_symmetrized_matrix(mu, cfg)
    dense = dense_operator_norm(mu, cfg).value
    for tol in (1e-4, 1e-7, 1e-10):
        est = operator_norm(mu, cfg, tol=tol, max_iter=2000)
        v = est.witness * np.sqrt(mu.weights)
        v /= np.linalg.norm(v)
        residual = np.linalg.norm(mat.T @ (mat @ v) - est.value**2 * v) / est.value**2
        assert est.residual == pytest.approx(residual, rel=1e-6, abs=1e-13)
        assert est.residual <= tol
        assert est.value <= dense * (1 + 1e-12)
    assert est.value == pytest.approx(dense, rel=1e-12)


@pytest.mark.parametrize(
    "make, tol, most",
    [
        (lambda: rl.gen_segment(4096), 1e-7, 58),
        (lambda: rl.gen_four_corners(4), 1e-6, 16),
        (lambda: rl.gen_four_corners(5), 1e-6, 16),
        (lambda: rl.gen_four_corners(6), 1e-6, 16),
    ],
)
def test_lanczos_products_on_the_benchmark_cases(make, tol, most):
    # no restart floor: Lanczos stops at the first product whose Ritz
    # residual meets tol
    mu = make()
    est = operator_norm(mu, KernelConfig(1, 4 * mu.resolution_h, TRUNCATED), tol=tol, max_iter=2000)
    assert est.iterations <= most
    assert est.residual <= tol


def test_lanczos_restarts_from_its_ritz_vector(monkeypatch):
    mu = rl.gen_segment(1024)
    cfg = KernelConfig(1, 4 * mu.resolution_h, TRUNCATED)
    whole = operator_norm(mu, cfg, tol=1e-10, max_iter=2000)
    monkeypatch.setattr(analysis, "_BASIS_CAP", 8)
    est = operator_norm(mu, cfg, tol=1e-10, max_iter=2000)
    assert est.iterations > 8  # the basis filled and the run restarted
    mat = _build_symmetrized_matrix(mu, cfg)
    v = est.witness * np.sqrt(mu.weights)
    v /= np.linalg.norm(v)
    residual = np.linalg.norm(mat.T @ (mat @ v) - est.value**2 * v) / est.value**2
    assert est.residual == pytest.approx(residual, rel=1e-6, abs=1e-13)
    assert est.residual <= 1e-10
    assert est.value == pytest.approx(whole.value, rel=1e-12)


def test_lanczos_ends_exactly_on_a_rank_two_operator():
    # two stacks of 20 coincident points, eps below their distance: B maps
    # onto the two stacks' sqrt(w), so Lanczos meets beta = 0 at step two
    w = np.linspace(0.5, 1.5, 40)
    mu = DiscreteMeasure([[0.0, 0.0]] * 20 + [[1.0, 0.0]] * 20, w, 1, 0.1)
    cfg = KernelConfig(1, 0.5, TRUNCATED)
    est = operator_norm(mu, cfg, tol=1e-10)
    assert est.iterations == 2
    assert est.value == pytest.approx(dense_operator_norm(mu, cfg).value, rel=1e-12)
    assert est.value == pytest.approx(np.sqrt(w[:20].sum() * w[20:].sum()), rel=1e-12)


def test_norm_runs_repeat_bit_for_bit(four_corners_4):
    cfg = KernelConfig(1, 4 * four_corners_4.resolution_h, TRUNCATED)
    first, second = (operator_norm(four_corners_4, cfg, tol=1e-6) for _ in range(2))
    assert (first.value, first.iterations, first.residual) == (second.value, second.iterations, second.residual)
    assert first.witness.tobytes() == second.witness.tobytes()


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("mode", [TRUNCATED, REGULARIZED])
def test_symmetrized_rows_are_component_major(d, mode):
    # row a * N + i of the oracle is component a of target i, entry for
    # entry the kernel times sqrt(w_i) sqrt(w_j); both backends give and
    # read row a as component a, so they give the same products
    rng = np.random.default_rng(d)
    n_pts = 40
    mu = DiscreteMeasure(rng.random((n_pts, d)), rng.uniform(0.5, 1.5, n_pts), 1, 1e-3)
    cfg = KernelConfig(1, 0.2, mode)
    sw = np.sqrt(mu.weights)
    kern = kernel_eval(mu.points[:, None, :] - mu.points[None, :, :], cfg)
    mat = _build_symmetrized_matrix(mu, cfg)
    assert mat.shape == (d * n_pts, n_pts)
    for a in range(d):
        assert np.array_equal(mat[a * n_pts : (a + 1) * n_pts], kern[:, :, a] * sw[:, None] * sw[None, :])
    dense_forward, dense_adjoint, _ = _symmetrized_operator(mu, cfg, dense_cache_cap=60_000_000)
    forward, adjoint, _ = _symmetrized_operator(mu, cfg, dense_cache_cap=0)
    u, v = rng.standard_normal(n_pts), rng.standard_normal((d, n_pts))
    for got, want in ((forward(u), dense_forward(u)), (adjoint(v), dense_adjoint(v))):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("mode", [TRUNCATED, REGULARIZED])
@pytest.mark.parametrize("n_pts", [2, 31, 32, 33, 70])
@pytest.mark.parametrize("chunks", [None, (3, 5)])
def test_packed_cache_holds_the_oracles_upper_triangles(d, mode, n_pts, chunks, monkeypatch):
    # sizes around the 32-row chunk, and d = 3 with its unpaired third
    # component: array k holds B_2k above the diagonal and B_2k+1,
    # transposed, below it, each entry bit for bit the oracle's; small
    # chunks split each strip into several source blocks
    if chunks is not None:
        monkeypatch.setattr(kernels, "_TARGET_CHUNK", chunks[0])
        monkeypatch.setattr(kernels, "_SOURCE_CHUNK", chunks[1])
    rng = np.random.default_rng(n_pts + d)
    mu = DiscreteMeasure(rng.random((n_pts, d)), rng.uniform(0.5, 1.5, n_pts), 1, 1e-3)
    cfg = KernelConfig(1, 0.2, mode)
    oracle = _build_symmetrized_matrix(mu, cfg).reshape(d, n_pts, n_pts)
    cache = _packed_cache(mu.points, np.sqrt(mu.weights), cfg)
    assert len(cache) == (d + 1) // 2
    upper = np.triu_indices(n_pts, 1)
    for k, tri in enumerate(cache):
        assert tri.shape == (n_pts, n_pts) and tri.flags.f_contiguous
        assert np.array_equal(tri[upper], oracle[2 * k][upper])
        assert not np.any(np.diag(tri))
        if 2 * k + 1 < d:
            assert np.array_equal(tri.T[upper], oracle[2 * k + 1][upper])


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("mode", [TRUNCATED, REGULARIZED])
@pytest.mark.parametrize("chunks", [None, (3, 5)])
def test_matrix_free_products_match_the_oracle(d, mode, chunks, monkeypatch):
    # past the cap the packed cache's blocks are applied as they are
    # evaluated, and adjoint_apply is B^T (sqrt(w) F) / sqrt(w) on them;
    # small chunks put strip heads and diagonal squares across block edges
    if chunks is not None:
        monkeypatch.setattr(kernels, "_TARGET_CHUNK", chunks[0])
        monkeypatch.setattr(kernels, "_SOURCE_CHUNK", chunks[1])
    rng = np.random.default_rng(d)
    n_pts = 70
    mu = DiscreteMeasure(rng.random((n_pts, d)), rng.uniform(0.5, 1.5, n_pts), 1, 1e-3)
    cfg = KernelConfig(1, 0.2, mode)
    mat = _build_symmetrized_matrix(mu, cfg)
    forward, adjoint, backend = _symmetrized_operator(mu, cfg, dense_cache_cap=0)
    assert backend == "direct"
    u, v, field = rng.standard_normal(n_pts), rng.standard_normal((d, n_pts)), rng.standard_normal((n_pts, d))
    sw = np.sqrt(mu.weights)
    for got, want in [
        *zip(forward(u), (mat @ u).reshape(d, n_pts)),
        (adjoint(v), mat.T @ v.ravel()),
        (adjoint_apply(mu, cfg, VectorField(field)), mat.T @ (field * sw[:, None]).T.ravel() / sw),
    ]:
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize(
    "d, flat", [pytest.param(2, False, id="2"), pytest.param(3, False, id="3"), pytest.param(3, True, id="3-plane")]
)
def test_norm_method_names_the_backend_at_the_cap(d, flat):
    # the cap counts the packed cache's ceil(m / 2) * N * N stored entries,
    # m the live components: d for a support in general position, 2 for a
    # plane in a coordinate subspace of R^3, whose cache is one N * N array
    rng = np.random.default_rng(d)
    if flat:
        mu = rl.gen_plane(2, 3, 1.0, 0.25)
        n_pts, cap = len(mu), len(mu) ** 2
    else:
        n_pts = 20
        mu = DiscreteMeasure(rng.random((n_pts, d)), rng.uniform(0.5, 1.5, n_pts), 1, 1e-3)
        cap = (d + 1) // 2 * n_pts * n_pts
    cfg = KernelConfig(mu.hausdorff_dim, 0.2, TRUNCATED)
    dense = operator_norm(mu, cfg, tol=1e-10, dense_cache_cap=cap)
    direct = operator_norm(mu, cfg, tol=1e-10, dense_cache_cap=cap - 1)
    assert (dense.method, direct.method) == ("lanczos-dense", "lanczos-direct")
    assert dense.value == pytest.approx(direct.value, rel=1e-12)
    assert dense_operator_norm(mu, cfg).method == "dense-decomposition"


FLAT_AXES = [(2, (0,)), (2, (1,)), (3, (0,)), (3, (1,)), (3, (2,)), (3, (0, 1)), (3, (0, 2)), (3, (1, 2))]


@pytest.mark.parametrize("d, flat", FLAT_AXES)
@pytest.mark.parametrize("mode", [TRUNCATED, REGULARIZED])
@pytest.mark.parametrize("chunks", [None, (3, 5)])
def test_flat_supports_store_and_apply_only_live_blocks(d, flat, mode, chunks, monkeypatch):
    # a support constant along the axes `flat` (the middle one of R^3
    # among them) has B_a = 0 there: the oracle's rows are exactly 0, the
    # cache holds the live blocks bit for bit, and both backends give and
    # read the live rows alone and stay adjoint
    if chunks is not None:
        monkeypatch.setattr(kernels, "_TARGET_CHUNK", chunks[0])
        monkeypatch.setattr(kernels, "_SOURCE_CHUNK", chunks[1])
    rng = np.random.default_rng(len(flat) + d)
    n_pts = 45
    points = rng.random((n_pts, d))
    points[:, list(flat)] = rng.random(len(flat))
    mu = DiscreteMeasure(points, rng.uniform(0.5, 1.5, n_pts), 1, 1e-3)
    cfg = KernelConfig(1, 0.2, mode)
    live = np.ones(d, dtype=bool)
    live[list(flat)] = False
    oracle = _build_symmetrized_matrix(mu, cfg).reshape(d, n_pts, n_pts)
    assert not np.any(oracle[~live])
    blocks = oracle[live]
    cache = _packed_cache(mu.points[:, live], np.sqrt(mu.weights), cfg)
    assert len(cache) == (len(blocks) + 1) // 2
    upper = np.triu_indices(n_pts, 1)
    for a, block in enumerate(blocks):
        tri = cache[a // 2].T if a % 2 else cache[a // 2]
        assert np.array_equal(tri[upper], block[upper])
    u, v = rng.standard_normal(n_pts), rng.standard_normal((d, n_pts))
    mat = oracle.reshape(d * n_pts, n_pts)
    for cap, backend in ((60_000_000, "dense"), (0, "direct")):
        forward, adjoint, name = _symmetrized_operator(mu, cfg, dense_cache_cap=cap)
        assert name == backend
        bu, btv = forward(u), adjoint(v[live])
        assert bu.shape == (len(blocks), n_pts)
        scale = np.sum(np.abs(bu) * np.abs(v[live])) + np.abs(u) @ np.abs(btv)
        assert abs(np.sum(bu * v[live]) - u @ btv) <= 1e-13 * scale
        for got, want in [*zip(bu, blocks @ u), (btv, mat.T @ v.ravel())]:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


def test_plane_in_r3_caches_one_array():
    # a plane in a coordinate subspace of R^3 has two live components, held
    # in one N * N array, where a support in general position needs two
    import tracemalloc

    mu = rl.gen_plane(2, 3, 1.0, 1.0 / 32.0)
    n_pts = len(mu)
    cfg = KernelConfig(2, 4 * mu.resolution_h, TRUNCATED)
    tracemalloc.start()
    try:
        forward, adjoint, backend = _symmetrized_operator(mu, cfg, dense_cache_cap=n_pts * n_pts)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert backend == "dense"
    assert 8 * n_pts * n_pts <= held < peak < 1.5 * 8 * n_pts * n_pts


def test_adjoint_of_a_single_point_is_zero():
    mu = DiscreteMeasure([[0.5, 0.5]], [2.0], 1, 0.1)
    out = adjoint_apply(mu, KernelConfig(1, 0.1, REGULARIZED), VectorField(np.ones((1, 2))))
    assert np.array_equal(out, np.zeros(1))


def test_packed_products_copy_no_array():
    # dtrmv must read the Fortran-order cache in place: a copy of one
    # 2 MB array would show in the traced peak
    import tracemalloc

    mu = rl.gen_segment(512)
    cfg = KernelConfig(1, 4 * mu.resolution_h, TRUNCATED)
    forward, adjoint, backend = _symmetrized_operator(mu, cfg, dense_cache_cap=60_000_000)
    assert backend == "dense"
    u = np.random.default_rng(0).standard_normal(512)
    tracemalloc.start()
    try:
        adjoint(forward(u))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 512 * 512 / 8


def test_norm_zero_operator():
    # both points inside the truncation radius: the transform vanishes, and
    # the first product ends the run with the start vector as the witness
    mu = DiscreteMeasure([[0.0, 0.0], [0.5, 0.0]], [1.0, 4.0], 1, 0.25)
    est = operator_norm(mu, KernelConfig(1, 2.0, TRUNCATED), tol=1e-8)
    assert (est.value, est.iterations, est.residual) == (0.0, 1, 0.0)
    sw = np.sqrt(mu.weights)
    rand = np.random.default_rng(analysis._RANDOM_START_SEED).standard_normal(2)
    u0 = sw / np.linalg.norm(sw) + rand / np.linalg.norm(rand)
    np.testing.assert_allclose(est.witness * sw, u0 / np.linalg.norm(u0), rtol=1e-15)


def test_norm_requires_two_points():
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0], 1, 1e-3)
    with pytest.raises(ValueError):
        operator_norm(mu, KernelConfig(1, 0.1, TRUNCATED))


def test_norm_nonconvergence_carries_estimate(four_corners_4):
    cfg = KernelConfig(1, 0.02, TRUNCATED)
    with pytest.raises(NonConvergenceError) as err:
        operator_norm(four_corners_4, cfg, tol=1e-12, max_iter=2)
    assert err.value.estimate.value > 0


def test_norm_rigid_motion_invariance(four_corners_3):
    cfg = KernelConfig(1, 0.05, TRUNCATED)
    base = dense_operator_norm(four_corners_3, cfg).value
    theta = 0.7343
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = DiscreteMeasure(
        four_corners_3.points @ rot.T + np.array([3.0, -1.25]),
        four_corners_3.weights, 1, four_corners_3.resolution_h,
    )
    assert dense_operator_norm(moved, cfg).value == pytest.approx(base, rel=1e-9)


def test_norm_and_ballmass_scaling_law(four_corners_3):
    lam = 2.75
    n = four_corners_3.hausdorff_dim
    cfg = KernelConfig(n, 0.05, TRUNCATED)
    base = dense_operator_norm(four_corners_3, cfg).value
    scaled = DiscreteMeasure(
        lam * four_corners_3.points,
        lam**n * four_corners_3.weights,
        n,
        lam * four_corners_3.resolution_h,
    )
    got = dense_operator_norm(scaled, KernelConfig(n, lam * 0.05, TRUNCATED)).value
    assert got == pytest.approx(base, rel=1e-9)
    # ball-mass ratios are dilation invariant
    x = four_corners_3.points[7]
    r = 0.2
    ratio = rl.ball_mass(four_corners_3, x, r) / r**n
    ratio_scaled = rl.ball_mass(scaled, lam * x, lam * r) / (lam * r) ** n
    assert ratio_scaled == pytest.approx(ratio, rel=1e-12)


# -------------------------------------------------------------------- adjoint


def test_adjoint_identity_random(four_corners_3):
    mu = four_corners_3
    cfg = KernelConfig(1, 0.07, TRUNCATED)
    rng = np.random.default_rng(2)
    for _ in range(20):
        f = rng.standard_normal(len(mu))
        field = rng.standard_normal((len(mu), 2))
        lhs = field_dot(riesz_apply(mu, f, cfg, mu.points), field, mu.weights)
        rhs = wdot(f, adjoint_apply(mu, cfg, VectorField(field)), mu.weights)
        scale = np.linalg.norm(f) * np.linalg.norm(field)
        assert abs(lhs - rhs) <= 1e-10 * max(scale, 1.0)


def test_adjoint_two_point_matrix_transpose():
    mu = DiscreteMeasure([[0.0, 0.0], [2.0, 0.0]], [1.0, 1.0], 1, 1.0)
    cfg = KernelConfig(1, 1.0, TRUNCATED)
    forward = np.zeros((2, 2, 2))  # target, source, component
    for j in range(2):
        f = np.zeros(2)
        f[j] = 1.0
        forward[:, j, :] = riesz_apply(mu, f, cfg, mu.points)
    adj = np.zeros((2, 2, 2))  # target, source field index, component
    for i in range(2):
        for a in range(2):
            field = np.zeros((2, 2))
            field[i, a] = 1.0
            adj[:, i, a] = adjoint_apply(mu, cfg, VectorField(field))
    # <R e_j, E_{i,a}> = <e_j, R* E_{i,a}> with unit weights
    for i in range(2):
        for j in range(2):
            for a in range(2):
                assert forward[i, j, a] == pytest.approx(adj[j, i, a], abs=1e-14)


def test_adjoint_of_zero():
    mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0], 1, 0.5)
    out = adjoint_apply(mu, KernelConfig(1, 0.1, TRUNCATED), VectorField(np.zeros((2, 2))))
    assert np.allclose(out, 0.0)


# ------------------------------------------------------------------ curvature


def test_menger_collinear_zero():
    assert menger_curvature([0, 0], [1, 0], [2, 0]) == 0.0


def test_menger_right_triangle():
    assert menger_curvature([0, 0], [1, 0], [0, 1]) == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_menger_equilateral():
    pts = [[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]]
    assert menger_curvature(*pts) == pytest.approx(np.sqrt(3.0), rel=1e-12)


def test_menger_repeated_point_errors():
    with pytest.raises(ValueError):
        menger_curvature([0, 0], [0, 0], [1, 1])


def test_c2_collinear_zero(segment_1024):
    sub = rl.restrict(segment_1024, np.arange(0, 1024, 64))
    est = curvature_c2(sub, mode="exact")
    assert est.value == 0.0


def test_c2_equilateral_is_18():
    pts = np.array([[0, 0], [1, 0], [0.5, np.sqrt(3) / 2]])
    mu = DiscreteMeasure(pts, np.ones(3), 1, 0.5)
    est = curvature_c2(mu, mode="exact")
    assert est.value == pytest.approx(18.0, rel=1e-12)
    assert est.triples_evaluated == 6


def test_c2_too_few_points_flagged():
    mu = DiscreteMeasure([[0, 0], [1, 1]], np.ones(2), 1, 0.5)
    est = curvature_c2(mu, mode="exact")
    assert est.value == 0.0
    assert est.insufficient_points


@pytest.mark.parametrize("samples", [-5, 0, 1])
def test_c2_sampled_needs_two_samples(four_corners_3, samples):
    # the mean of no sample is NaN, and so is the spread of one
    with pytest.raises(ValueError, match="sample_count must be an integer >= 2"):
        curvature_c2(four_corners_3, mode="sampled", sample_count=samples)


def curvature_c2_naive(mu: DiscreteMeasure) -> float:
    """Brute-force oracle: loop over all ordered distinct triples."""
    total = 0.0
    for i, j, k in permutations(range(len(mu)), 3):
        try:
            kappa = menger_curvature(mu.points[i], mu.points[j], mu.points[k])
        except ValueError:
            continue  # repeated coordinates are excluded
        total += kappa**2 * mu.weights[i] * mu.weights[j] * mu.weights[k]
    return total


def test_c2_exact_matches_naive_oracle():
    # in d = 2 and 3, and with repeated points: a triple with two equal
    # points has no circle and adds 0
    for d, repeats in [(2, False), (3, False), (2, True), (3, True)]:
        rng = np.random.default_rng(13)
        pts = rng.standard_normal((48, d))
        if repeats:
            pts[40:] = pts[[0, 0, 3, 7, 7, 7, 20, 39]]
        w = rng.uniform(0.5, 2.0, 48)
        mu = DiscreteMeasure(pts, w, 1, 1e-3)
        est = curvature_c2(mu, mode="exact")
        assert est.value == pytest.approx(curvature_c2_naive(mu), rel=1e-12)


def test_c2_permutation_invariance():
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((30, 2))
    w = rng.uniform(0.5, 2.0, 30)
    mu = DiscreteMeasure(pts, w, 1, 1e-3)
    perm = rng.permutation(30)
    mu_p = DiscreteMeasure(pts[perm], w[perm], 1, 1e-3)
    a = curvature_c2(mu, mode="exact").value
    b = curvature_c2(mu_p, mode="exact").value
    assert a == pytest.approx(b, rel=1e-12)


def test_c2_rigid_motion_and_scaling(four_corners_3):
    sub = rl.restrict(four_corners_3, np.arange(0, 64, 2))
    base = curvature_c2(sub, mode="exact").value
    theta = 1.234
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = DiscreteMeasure(sub.points @ rot.T + 5.0, sub.weights, 1, sub.resolution_h)
    assert curvature_c2(moved, mode="exact").value == pytest.approx(base, rel=1e-9)
    lam, n = 3.0, 1
    scaled = DiscreteMeasure(lam * sub.points, lam**n * sub.weights, 1, lam * sub.resolution_h)
    expect = lam ** (3 * n - 2) * base
    assert curvature_c2(scaled, mode="exact").value == pytest.approx(expect, rel=1e-9)


def test_c2_sampled_within_stderr(four_corners_3):
    exact = curvature_c2(four_corners_3, mode="exact")
    sampled = curvature_c2(four_corners_3, mode="sampled", sample_count=200_000, seed=5)
    stderr = sampled.rel_stderr * sampled.value
    assert abs(sampled.value - exact.value) <= 3.0 * stderr


def test_c2_exact_cap_enforced(monkeypatch):
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((40, 2))
    mu = DiscreteMeasure(pts, np.ones(40), 1, 1e-3)
    monkeypatch.setattr(analysis, "_EXACT_CAP", 10)
    with pytest.raises(ValueError):
        curvature_c2(mu, mode="exact")


# -------------------------------------------------------------------- sweeps


def test_norm_sweep_single_matches_operator_norm(four_corners_3):
    eps = 4 * four_corners_3.resolution_h
    table = norm_sweep(four_corners_3, [eps], tol=1e-8)
    direct = operator_norm(four_corners_3, KernelConfig(1, eps, TRUNCATED), tol=1e-8)
    assert table[0][0] == eps
    assert table[0][1].value == pytest.approx(direct.value, rel=1e-12)


def test_norm_sweep_rejects_sub_resolution(four_corners_3):
    with pytest.raises(ValueError):
        norm_sweep(four_corners_3, [four_corners_3.resolution_h / 8])


def test_norm_sweep_segment_stability():
    # the spread shrinks with resolution: ~6% at N=1024, ~3% at N=2048
    mu = rl.gen_segment(1024)
    h = mu.resolution_h
    table = norm_sweep(mu, [4 * h, 8 * h, 16 * h], tol=1e-7)
    values = [est.value for _, est in table]
    assert max(values) / min(values) <= 1.10


# ----------------------------------------------------------- joint experiment


def test_joint_identical_measures_doubles(four_corners_3):
    cfg = KernelConfig(1, 0.05, TRUNCATED)
    res = joint_norm_experiment(four_corners_3, four_corners_3, cfg, tol=1e-10, max_iter=2000)
    assert len(res.merged) == len(four_corners_3)  # coincident points merged
    assert res.norm_sum.value == pytest.approx(2.0 * res.norm_first.value, rel=1e-9)


def test_joint_single_points():
    a = DiscreteMeasure([[0.0, 0.0]], [1.0], 1, 1e-3)
    b = DiscreteMeasure([[2.0, 0.0]], [1.0], 1, 1e-3)
    cfg = KernelConfig(1, 1.0, TRUNCATED)
    res = joint_norm_experiment(a, b, cfg)
    assert res.norm_first.value == 0.0
    assert res.norm_second.value == 0.0
    assert res.norm_sum.value == pytest.approx(0.5, rel=1e-9)  # two-point value


def test_joint_far_translate_close_to_max():
    # two identical far blocks make the top singular pair nearly degenerate;
    # the value is pinched between the pair, so a loose tolerance suffices
    mu = rl.gen_segment(256)
    cfg = KernelConfig(1, 4 * mu.resolution_h, TRUNCATED)
    for sep in (10.0, 100.0):
        shifted = DiscreteMeasure(
            mu.points + np.array([sep * 1.0, 0.0]), mu.weights, 1, mu.resolution_h
        )
        res = joint_norm_experiment(mu, shifted, cfg, tol=1e-4, max_iter=3000)
        top = max(res.norm_first.value, res.norm_second.value)
        assert abs(res.norm_sum.value - top) <= 0.15 * top


def test_merge_requires_matching_dims():
    a = DiscreteMeasure([[0.0, 0.0]], [1.0], 1, 1e-3)
    b = DiscreteMeasure([[0.0, 0.0, 0.0]], [1.0], 1, 1e-3)
    with pytest.raises(ValueError):
        merge_measures(a, b)
