import hashlib

import numpy as np
import pytest

import rieszlab as rl
from rieszlab.generators import DecayTrendWarning
from rieszlab.measure import ScaleGrid, density_profile, write_measure


def file_digest(mu, tmp_path, name):
    path = tmp_path / name
    write_measure(mu, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------------- plane


def test_plane_line_counts():
    mu = rl.gen_plane(1, 2, extent=1.0, spacing=0.25)
    assert len(mu) == 5
    assert rl.total_mass(mu) == pytest.approx(1.25, rel=1e-15)


def test_plane_surface_counts():
    mu = rl.gen_plane(2, 3, extent=1.0, spacing=0.5)
    assert len(mu) == 9
    assert np.allclose(mu.weights, 0.25)
    assert rl.total_mass(mu) == pytest.approx(2.25, rel=1e-15)


def test_plane_center_density():
    mu = rl.gen_plane(1, 2, extent=1.0, spacing=1.0 / 256.0)
    prof = density_profile(mu, [0.5, 0.0], ScaleGrid(16 / 256, 0.25, 8))
    assert np.all(np.abs(prof[:, 1] - 2.0) < 0.2)


def test_plane_rejects_bad_dims():
    with pytest.raises(ValueError):
        rl.gen_plane(2, 2, 1.0, 0.1)


# ---------------------------------------------------------------------- graph


def test_graph_zero_slope_is_flat():
    mu = rl.gen_lipschitz_graph(0.0, extent=1.0, spacing=1.0 / 64.0, seed=3)
    assert np.allclose(mu.points[:, 1], 0.0)
    assert np.allclose(mu.weights, 1.0 / 64.0)
    assert rl.total_mass(mu) == pytest.approx(1.0, rel=1e-12)


def test_graph_slope_bound_respected():
    mu = rl.gen_lipschitz_graph(1.0, extent=1.0, spacing=1.0 / 512.0, seed=9)
    dy = np.diff(mu.points[:, 1])
    dx = np.diff(mu.points[:, 0])
    assert np.max(np.abs(dy / dx)) <= 1.0 + 1e-9


def test_graph_mass_bounds():
    for seed in (0, 5, 11):
        for slope in (0.5, 1.0, 2.0):
            mu = rl.gen_lipschitz_graph(slope, extent=1.0, spacing=1.0 / 128.0, seed=seed)
            mass = rl.total_mass(mu)
            assert 1.0 - 1e-12 <= mass <= np.sqrt(1.0 + slope**2) + 1e-12


def test_graph_deterministic_hash(tmp_path):
    a = rl.gen_lipschitz_graph(1.0, 1.0, 1.0 / 64.0, seed=42)
    b = rl.gen_lipschitz_graph(1.0, 1.0, 1.0 / 64.0, seed=42)
    assert file_digest(a, tmp_path, "a.measure") == file_digest(b, tmp_path, "b.measure")
    c = rl.gen_lipschitz_graph(1.0, 1.0, 1.0 / 64.0, seed=43)
    assert file_digest(c, tmp_path, "c.measure") != file_digest(a, tmp_path, "a2.measure")


def test_graph_surface_mass_bounds():
    mu = rl.gen_lipschitz_graph(1.0, extent=1.0, spacing=1.0 / 32.0, seed=7, n=2)
    assert mu.ambient_dim == 3
    mass = rl.total_mass(mu)
    assert 1.0 - 1e-12 <= mass <= np.sqrt(2.0) + 1e-12


def two_branch_graph(slope_bound, extent, spacing, seed, n):
    """The graph as written per dimension, one hand-written branch each for n = 1 and n = 2."""
    cells = int(round(extent / spacing))
    rng = np.random.default_rng(seed)
    knots, seg_len = 8, extent / 8
    per_axis_bound = slope_bound if n == 1 else slope_bound / np.sqrt(2.0)
    slope_sets = [rng.uniform(-per_axis_bound, per_axis_bound, knots) for _ in range(n)]

    def height_and_slope(t, slopes):
        seg = np.minimum((t / seg_len).astype(int), knots - 1)
        knot_heights = np.concatenate([[0.0], np.cumsum(slopes) * seg_len])
        return knot_heights[seg] + slopes[seg] * (t - seg * seg_len), slopes[seg]

    mids = (np.arange(cells) + 0.5) * spacing
    if n == 1:
        y, s = height_and_slope(mids, slope_sets[0])
        return np.column_stack([mids, y]), spacing * np.sqrt(1.0 + s**2)
    gx, gy = np.meshgrid(mids, mids, indexing="ij")
    hx, sx = height_and_slope(gx.ravel(), slope_sets[0])
    hy, sy = height_and_slope(gy.ravel(), slope_sets[1])
    return np.column_stack([gx.ravel(), gy.ravel(), hx + hy]), spacing**2 * np.sqrt(1.0 + sx**2 + sy**2)


@pytest.mark.parametrize("n", [1, 2])
def test_graph_matches_two_branch_oracle(n):
    for seed in range(4):
        for slope in (0.0, 0.3, 1.0, 2.5):
            for spacing in (1.0 / 16.0, 1.0 / 32.0):
                mu = rl.gen_lipschitz_graph(slope, 1.0, spacing, seed, n=n)
                pts, w = two_branch_graph(slope, 1.0, spacing, seed, n)
                assert mu.points.tobytes() == pts.tobytes()
                assert mu.weights.tobytes() == w.tobytes()
                assert mu.resolution_h == rl.measure._safe_resolution(pts, spacing)


def test_graph_requires_divisible_extent():
    with pytest.raises(ValueError):
        rl.gen_lipschitz_graph(1.0, extent=1.0, spacing=0.3, seed=0)


# --------------------------------------------------------------- four corners


def test_four_corners_level0_convention():
    mu = rl.gen_four_corners(0)
    assert len(mu) == 1
    assert mu.points[0] == pytest.approx([0.5, 0.5])
    assert mu.weights[0] == 1.0


def test_four_corners_level1_positions():
    mu = rl.gen_four_corners(1)
    expected = {(1 / 8, 1 / 8), (7 / 8, 1 / 8), (1 / 8, 7 / 8), (7 / 8, 7 / 8)}
    got = {tuple(np.round(p, 12)) for p in mu.points}
    assert got == expected
    assert np.allclose(mu.weights, 0.25)


@pytest.mark.parametrize("level", [0, 2, 5])
def test_four_corners_unit_mass(level):
    assert rl.total_mass(rl.gen_four_corners(level)) == pytest.approx(1.0, rel=1e-12)


def test_four_corners_level_guard():
    with pytest.raises(ValueError):
        rl.gen_four_corners(13)


def test_four_corners_self_similar_counts():
    # exact cell counts hold for balls of radius 1.5 * 4^{-j}: that radius
    # exceeds the level-j cell diagonal sqrt(2) * 4^{-j} (so the whole cell
    # is captured) and stays below the inter-cell gap 2 * 4^{-j}.  radius
    # 4^{-j} itself clips the far corner of the own cell, so the literal
    # same-count claim fails there; 1.5 is the honest constant.
    for k in (3, 4, 5):
        mu = rl.gen_four_corners(k)
        for j in range(1, k + 1):
            r = 1.5 * 4.0 ** (-j)
            for idx in (0, len(mu) // 3, len(mu) - 1):
                x = mu.points[idx]
                count = int(np.sum(np.linalg.norm(mu.points - x, axis=1) <= r))
                assert count == 4 ** (k - j)


def test_four_corners_deterministic(tmp_path):
    a = rl.gen_four_corners(4)
    b = rl.gen_four_corners(4)
    assert file_digest(a, tmp_path, "fa.measure") == file_digest(b, tmp_path, "fb.measure")


# --------------------------------------------------------------- sparse cantor


def test_sparse_cantor_empty_ratio_list():
    mu = rl.gen_sparse_cantor([])
    assert len(mu) == 1
    assert rl.total_mass(mu) == 1.0


def test_sparse_cantor_quarter_is_four_corners_control():
    # one corner builder serves both: the same bits at every shared level
    for k in range(9):
        if k >= 2:
            with pytest.warns(DecayTrendWarning):
                ctrl = rl.gen_sparse_cantor([0.25] * k)
        else:
            ctrl = rl.gen_sparse_cantor([0.25] * k)
        fc = rl.gen_four_corners(k)
        assert np.array_equal(ctrl.points, fc.points)
        assert np.array_equal(ctrl.weights, fc.weights)
        assert ctrl.resolution_h == fc.resolution_h == (4.0 ** (-k) if k else 1.0)
        assert np.all(fc.weights == 4.0 ** (-k))


def test_sparse_cantor_ratio_validation():
    with pytest.raises(ValueError):
        rl.gen_sparse_cantor([0.6, 0.2])
    with pytest.raises(ValueError):
        rl.gen_sparse_cantor([0.25, -0.1])
    with pytest.raises(ValueError):
        rl.gen_sparse_cantor([0.3] * 9)


def test_sparse_cantor_spreading_has_no_warning(recwarn):
    rl.gen_sparse_cantor([0.49, 0.485, 0.48], weight_exponent=1.5)
    assert not [w for w in recwarn.list if issubclass(w.category, DecayTrendWarning)]


def test_sparse_cantor_min_density_decays_with_depth():
    from conftest import sparse_cantor_depth

    def min_density(mu):
        diam = rl.support_diameter(mu)
        grid = ScaleGrid(4 * mu.resolution_h, diam, 30)
        worst = np.inf
        for x in mu.points:
            prof = density_profile(mu, x, grid)
            worst = min(worst, prof[:, 1].min())
        return worst

    shallow = min_density(sparse_cantor_depth(2))
    deep = min_density(sparse_cantor_depth(6))
    assert deep < 0.5 * shallow


# ---------------------------------------------------------------------- union


def test_union_single_identity(four_corners_3):
    assert rl.gen_union([four_corners_3], 10.0) is four_corners_3


def test_union_mass_and_separation(segment_1024, four_corners_3):
    mu = rl.gen_union([segment_1024, four_corners_3], 10.0)
    assert rl.total_mass(mu) == pytest.approx(
        rl.total_mass(segment_1024) + rl.total_mass(four_corners_3), rel=1e-12
    )
    assert rl.support_diameter(mu) >= 10.0
    # actual gap between the two supports along the first axis
    n_a = len(segment_1024)
    gap = mu.points[n_a:, 0].min() - mu.points[:n_a, 0].max()
    assert gap == pytest.approx(10.0, rel=1e-12)


def test_union_requires_matching_dims(segment_1024, plane_23):
    with pytest.raises(ValueError):
        rl.gen_union([segment_1024, plane_23], 1.0)
