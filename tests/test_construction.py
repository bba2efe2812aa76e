import numpy as np
import pytest

import rieszlab as rl
from rieszlab import construction
from rieszlab.construction import (
    CoverOverlapError,
    CoverReport,
    EmptyExclusionError,
    ZeroMassBallError,
    _ball_gaps,
    _orthonormal_basis,
    adaptive_family,
    attach_patches,
    ball_interaction_field,
    besicovitch_cover,
    comparison_mismatch_ratio,
    build_proxy_measure,
    density_params,
    extract_core_set,
    extract_dense_set,
    run_construction,
    save_construction,
    split_local_nonlocal,
    transfer_ball_averages,
    verify_construction,
)
from rieszlab.kernels import REGULARIZED, KernelConfig, riesz_apply
from rieszlab.measure import DiscreteMeasure, read_measure


@pytest.fixture(scope="module")
def mixed_result(mixed_measure):
    params = density_params(mixed_measure, 2, 2)
    return run_construction(mixed_measure, params)


def source_ratios(mu, params):
    return rl.density_ratios(mu, mu.points, params.grid.radii())


def segment_measure(count=512, mass=1.0):
    h = 1.0 / count
    pts = np.zeros((count, 2))
    pts[:, 0] = (np.arange(count) + 0.5) * h
    return DiscreteMeasure(pts, np.full(count, mass / count), 1, h)


# ----------------------------------------------------------- density subsets


def test_dense_set_unit_segment_all():
    mu = segment_measure()
    params = density_params(mu, 2, 1)
    dense = extract_dense_set(source_ratios(mu, params), params)
    assert dense.size == len(mu)


def test_dense_set_far_light_outlier_excluded():
    # a segment of mass 4 retains itself through the whole-range test while
    # the light outlier fails at the grid floor
    mu = segment_measure(mass=4.0)
    pts = np.vstack([mu.points, [[3.5, 0.0]]])
    w = np.concatenate([mu.weights, [1e-6]])
    full = DiscreteMeasure(pts, w, 1, mu.resolution_h)
    params = density_params(full, 2, 1)
    dense = extract_dense_set(source_ratios(full, params), params)
    assert len(full) - 1 not in dense
    assert dense.size == len(mu)


def test_dense_set_single_point_convention():
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0], 1, 1e-3)
    params = rl.DensitySubsetParams(2, 1, rl.ScaleGrid(0.5, 1.0, 4))
    assert np.array_equal(extract_dense_set(source_ratios(mu, params), params), [0])


def test_dense_set_monotone_in_p(mixed_measure):
    sizes = []
    for p in (1, 2, 4, 8):
        params = density_params(mixed_measure, p, 1)
        sizes.append(extract_dense_set(source_ratios(mixed_measure, params), params).size)
    assert sizes == sorted(sizes)


def test_core_subset_of_dense_and_s1_segment():
    mu = segment_measure()
    params = density_params(mu, 2, 1)
    ratios = source_ratios(mu, params)
    dense = extract_dense_set(ratios, params)
    core = extract_core_set(mu, dense, params, ratios)
    assert np.array_equal(core, dense)  # threshold 1/(p*1) on the same masses


def test_core_reuse_matches_the_restricted_sums(mixed_measure):
    # on an all-dense measure the core reuses the source table; the masked
    # sums it stands for are the same table, bit for bit
    params = rl.DensitySubsetParams(1000, 3, density_params(mixed_measure, 2, 2).grid)
    ratios = source_ratios(mixed_measure, params)
    dense = extract_dense_set(ratios, params)
    assert dense.size == len(mixed_measure)
    restricted = rl.density_ratios(
        mixed_measure, mixed_measure.points[dense], params.grid.radii(),
        values=mixed_measure.weights * np.ones(len(mixed_measure)),
    )
    assert np.array_equal(restricted, ratios)
    assert np.array_equal(
        extract_core_set(mixed_measure, dense, params, ratios),
        extract_core_set(mixed_measure, dense, params, restricted),
    )


def test_core_empty_dense_empty():
    mu = segment_measure()
    params = density_params(mu, 2, 2)
    empty = np.array([], dtype=int)
    assert extract_core_set(mu, empty, params, source_ratios(mu, params)).size == 0


def test_two_parallel_heavy_segments_both_retained():
    a = segment_measure(count=256, mass=12.0)
    pts = np.vstack([a.points, a.points + np.array([0.0, 10.0])])
    w = np.concatenate([a.weights, a.weights])
    mu = DiscreteMeasure(pts, w, 1, a.resolution_h)
    params = density_params(mu, 2, 2)
    ratios = source_ratios(mu, params)
    dense = extract_dense_set(ratios, params)
    core = extract_core_set(mu, dense, params, ratios)
    assert dense.size == len(mu)
    assert core.size == len(mu)


def test_grid_must_reach_diameter(mixed_measure):
    bad = rl.DensitySubsetParams(2, 2, rl.ScaleGrid(0.01, 1.0, 8))
    with pytest.raises(ValueError, match="support diameter"):
        run_construction(mixed_measure, bad)


# ------------------------------------------------------------------ the cover


def test_cover_single_target():
    pts = np.array([[0.0, 0.0], [10.0, 0.0]])
    mu = DiscreteMeasure(pts, np.ones(2), 1, 1.0)
    cover = besicovitch_cover(mu, np.array([0]), np.array([1]))
    assert len(cover) == 1
    assert cover.radii[0] == pytest.approx(1.0)
    assert cover.n_colors == 1


def test_cover_two_far_targets_same_color():
    pts = np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 300.0]])
    mu = DiscreteMeasure(pts, np.ones(3), 1, 1.0)
    cover = besicovitch_cover(mu, np.array([0, 1]), np.array([2]))
    assert len(cover) == 2
    assert cover.n_colors == 1  # balls of radius ~30 at distance 100: disjoint
    assert np.all(cover.colors == 1)


def test_cover_skips_a_target_inside_a_selected_ball():
    # the target at 101 has the larger clearance, 10.1, and its ball holds
    # the target at 100, which therefore gets no ball of its own
    pts = np.array([[0.0, 0.0], [100.0, 0.0], [101.0, 0.0]])
    mu = DiscreteMeasure(pts, np.ones(3), 1, 1.0)
    cover = besicovitch_cover(mu, np.array([1, 2]), np.array([0]))
    assert cover.centers.tolist() == [2]
    assert cover.radii[0] == pytest.approx(10.1)
    assert cover.max_overlap == 1


def test_cover_overlap_above_cap_is_a_validation_error(monkeypatch):
    angles = 2 * np.pi * np.arange(50) / 50
    pts = np.vstack([np.column_stack([np.cos(angles), np.sin(angles)]), [[0.0, 0.0]]])
    mu = DiscreteMeasure(pts, np.ones(51), 1, 0.05)
    cover = besicovitch_cover(mu, np.arange(50), np.array([50]))
    assert 1 <= cover.max_overlap <= cover.overlap_cap == 4**2
    monkeypatch.setattr(construction, "_OVERLAP_BASE", 0)  # a cap of 0**2 = 0
    with pytest.raises(CoverOverlapError, match="exceeds the configured cap 0"):
        besicovitch_cover(mu, np.arange(50), np.array([50]))
    assert issubclass(CoverOverlapError, ValueError)


def test_cover_circle_invariants():
    angles = 2 * np.pi * np.arange(50) / 50
    pts = np.vstack([np.column_stack([np.cos(angles), np.sin(angles)]), [[0.0, 0.0]]])
    mu = DiscreteMeasure(pts, np.ones(51), 1, 0.05)
    cover = besicovitch_cover(mu, np.arange(50), np.array([50]))
    assert cover.n_colors >= 2
    assert cover.max_overlap <= cover.overlap_cap
    # full coverage
    dist = np.linalg.norm(pts[:50, None, :] - cover.center_points[None, :, :], axis=2)
    assert np.all((dist <= cover.radii[None, :]).any(axis=1))
    # per color, balls pairwise disjoint
    for color in range(1, cover.n_colors + 1):
        idx = np.flatnonzero(cover.colors == color)
        for a in range(idx.size):
            for b in range(a + 1, idx.size):
                sep = np.linalg.norm(cover.center_points[idx[a]] - cover.center_points[idx[b]])
                assert sep > cover.radii[idx[a]] + cover.radii[idx[b]]
    # first fit on the gap table: a ball of color c clashes (gap <= 0) with
    # an earlier ball of every color below c
    gaps = _ball_gaps(cover.center_points, cover.radii)
    for i, color in enumerate(cover.colors):
        clash = set(cover.colors[:i][gaps[i, :i] <= 0.0].tolist())
        assert set(range(1, color)) <= clash and color not in clash


@pytest.mark.parametrize("d", [2, 3])
def test_cover_of_no_targets_is_the_empty_greedy_record(d):
    pts = np.arange(3.0 * d).reshape(3, d)
    mu = DiscreteMeasure(pts, np.ones(3), 1, 0.5)
    cover = besicovitch_cover(mu, [], np.array([1]))
    for field, dtype, shape in (
        ("centers", np.int64, (0,)),
        ("center_points", np.float64, (0, d)),
        ("radii", np.float64, (0,)),
        ("colors", np.int64, (0,)),
    ):
        arr = getattr(cover, field)
        assert arr.dtype == dtype and arr.shape == shape, field
    assert (cover.max_overlap, cover.n_colors, cover.overlap_cap) == (0, 0, 4**d)
    assert type(cover.max_overlap) is int and type(cover.n_colors) is int


def test_cover_empty_exclusion_error():
    mu = segment_measure(count=8)
    with pytest.raises(EmptyExclusionError):
        besicovitch_cover(mu, np.arange(4), np.array([], dtype=int))


def test_cover_requires_disjoint_sets():
    mu = segment_measure(count=8)
    with pytest.raises(ValueError):
        besicovitch_cover(mu, np.array([0, 1]), np.array([1, 2]))


def test_clearance_is_tenth_lipschitz(mixed_measure, mixed_result):
    # |d(x) - d(y)| <= |x - y| / 10 for the clearance of any two points
    core_pts = mixed_measure.points[mixed_result.core_idx]
    from scipy.spatial import cKDTree

    tree = cKDTree(core_pts)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 5, size=(64, 2))
    d = tree.query(pts)[0] / 10.0
    for i in range(0, 64, 2):
        lhs = abs(d[i] - d[i + 1])
        rhs = np.linalg.norm(pts[i] - pts[i + 1]) / 10.0
        assert lhs <= rhs + 1e-12


# -------------------------------------------------------------- mixed measure


def test_mixed_measure_memberships(mixed_measure, mixed_result):
    res = mixed_result
    n_seg = 512
    # the core is exactly the segment
    assert np.array_equal(res.core_idx, np.arange(n_seg))
    # the targets are exactly the four heavy points
    heavy = np.flatnonzero(np.isclose(mixed_measure.weights, 0.25))
    assert np.array_equal(np.sort(res.target_idx), heavy)
    # haze is outside the dense set
    haze = np.flatnonzero(np.isclose(mixed_measure.weights, 0.12))
    assert np.intersect1d(res.dense_idx, haze).size == 0


def test_mixed_cover_geometry(mixed_result):
    cover = mixed_result.cover
    assert len(cover) == 4  # all four heavies selected
    assert cover.n_colors == 2  # the pair overlaps, singletons do not
    # doubled patch balls 2B_x stay away from the core
    core_pts = mixed_result.source.points[mixed_result.core_idx]
    for i in range(len(cover)):
        d = np.linalg.norm(core_pts - cover.center_points[i], axis=1).min()
        assert d > cover.radii[i]


def test_mixed_patches_and_flat(mixed_result):
    res = mixed_result
    for patch in res.patches:
        # exact disk mass and on-plane samples within the patch radius
        assert patch.total_weight == pytest.approx(2 * patch.radius, rel=1e-12)
        rel = patch.points - patch.center
        assert np.max(np.linalg.norm(rel, axis=1)) <= patch.radius * (1 + 1e-12)
        gram = patch.basis @ patch.basis.T
        assert np.allclose(gram, np.eye(patch.basis.shape[0]), atol=1e-12)
        # off-plane component vanishes
        proj = rel @ patch.basis.T @ patch.basis
        assert np.allclose(proj, rel, atol=1e-12)
    # flat measure = backdrop + patches, concatenated in that order
    n_bg = res.backdrop.count
    assert len(res.flat_measure) == n_bg + sum(len(p.points) for p in res.patches)
    assert rl.total_mass(res.flat_measure) == pytest.approx(
        res.backdrop.spacing * n_bg + sum(p.total_weight for p in res.patches), rel=1e-12
    )


def test_mixed_regularized_is_concatenation(mixed_result, mixed_measure):
    res = mixed_result
    reg = res.regularized_measure
    n_flat = len(res.flat_measure)
    assert np.array_equal(reg.points[:n_flat], res.flat_measure.points)
    assert np.array_equal(reg.points[n_flat:], mixed_measure.points[res.core_idx])
    assert np.array_equal(reg.weights[n_flat:], mixed_measure.weights[res.core_idx])


def test_mixed_proxy_matching_and_bound(mixed_result):
    res = mixed_result
    proxy = res.proxy_measure
    assert proxy is not None
    p = res.params.p
    for i, patch in enumerate(res.patches):
        idx = proxy.kdtree.query_ball_point(res.cover.center_points[i], patch.radius)
        nu_mass = proxy.weights[idx].sum()
        assert nu_mass == pytest.approx(patch.total_weight, rel=1e-10)
        # discrete echo of the uniform coefficient bound
        bound = p * patch.total_weight / patch.radius ** res.source.hausdorff_dim
        assert res.proxy_coefficients[i] <= bound * (1 + 1e-12)


def test_mixed_verification_all_pass(mixed_result):
    report = verify_construction(mixed_result, seed=11)
    assert report.matching_pass
    assert report.color_disjoint_pass
    assert report.coverage_pass
    assert report.overlap_pass
    assert report.ad_pass
    assert report.lower_floor_pass
    assert report.ad_constants[0] > 0
    assert isinstance(report.domination_pass, bool)  # single-member family is a report


def test_corrupted_coefficients_fail_matching(mixed_result):
    import dataclasses

    res = mixed_result
    bad_proxy = DiscreteMeasure(
        res.proxy_measure.points,
        2.0 * res.proxy_measure.weights,
        res.proxy_measure.hausdorff_dim,
        res.proxy_measure.resolution_h,
    )
    corrupted = dataclasses.replace(res, proxy_measure=bad_proxy)
    report = verify_construction(corrupted, seed=11)
    assert not report.matching_pass
    assert not report.all_pass()


def test_corrupted_cover_fails_color_and_coverage(mixed_result):
    import dataclasses

    res = mixed_result
    cover = res.cover
    assert cover.n_colors == 2  # the heavy pair's cover balls intersect
    one_color = dataclasses.replace(cover, colors=np.ones_like(cover.colors))
    report = verify_construction(dataclasses.replace(res, cover=one_color), seed=11)
    assert not report.color_disjoint_pass and report.coverage_pass
    moved = dataclasses.replace(cover, center_points=cover.center_points + 100.0)
    report = verify_construction(dataclasses.replace(res, cover=moved), seed=11)
    assert report.color_disjoint_pass and not report.coverage_pass


def test_overlap_is_recomputed_from_the_cover_balls(mixed_result):
    # 16 copies of ball 0 put its points in 17 balls, above the cap 4**2,
    # while the cover still records its own max_overlap
    import dataclasses

    res = mixed_result
    cover = res.cover
    assert verify_construction(res, seed=11).max_overlap == cover.max_overlap
    copies = {
        name: np.concatenate([getattr(cover, name)] + [getattr(cover, name)[:1]] * 16)
        for name in ("centers", "center_points", "radii", "colors")
    }
    patches = res.patches + [res.patches[0]] * 16
    tampered = dataclasses.replace(res, cover=dataclasses.replace(cover, **copies), patches=patches)
    report = verify_construction(tampered, seed=11)
    assert tampered.cover.max_overlap == cover.max_overlap
    assert report.max_overlap == 17 and not report.overlap_pass


def test_domination_with_adaptive_family(mixed_measure, mixed_result):
    # a large-p member makes the dense set the whole support, so the family
    # dominates the source on every ball query
    masses = rl.ball_masses(
        mixed_measure, mixed_measure.points, mixed_result.params.grid.radii()
    )
    ratios = mixed_result.params.grid.radii()[None, :] / np.maximum(masses, 1e-300)
    p_star = int(np.ceil(ratios.max())) + 1
    family = adaptive_family(mixed_result)
    top = family[-1]
    assert family[0] is mixed_result and top.params.p == p_star
    assert top.core_idx.size == len(mixed_measure)
    # both backdrops span 3 diameters: the extent is a constant of the pipeline
    assert top.backdrop.extent == mixed_result.backdrop.extent == 3.0 * rl.support_diameter(mixed_measure)
    report = verify_construction(mixed_result, family=family, seed=13)
    assert report.domination_pass


def test_adaptive_family_of_a_result_that_passes_alone():
    # every ratio of the uniform segment is about 1, so p* = 2 <= p
    mu = segment_measure()
    res = run_construction(mu, density_params(mu, 2, 1))
    assert int(np.ceil(1.0 / res.ratios.min())) + 1 <= res.params.p
    family = adaptive_family(res)
    assert len(family) == 1 and family[0] is res


def test_orthonormal_basis_orthogonalizes_later_candidates():
    basis = _orthonormal_basis(np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 0.0]]), 2, 3)
    np.testing.assert_allclose(basis @ basis.T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(basis, np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0]]) / np.sqrt(2.0), atol=1e-12)
    # a dependent candidate is dropped, and an axis completes the basis
    padded = _orthonormal_basis(np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]), 2, 3)
    np.testing.assert_allclose(padded, basis, atol=1e-12)


def test_geometric_shrinking_property(mixed_measure, mixed_result):
    # if a doubled patch ball meets the half of a core-centered ball, it is
    # swallowed by the full ball; exact consequence of the 1/10 clearance
    res = mixed_result
    rng = np.random.default_rng(5)
    core_pts = mixed_measure.points[res.core_idx]
    cover = res.cover
    hits = 0
    for _ in range(4000):
        z = core_pts[rng.integers(core_pts.shape[0])]
        radius = float(np.exp(rng.uniform(np.log(0.05), np.log(10.0))))
        for i in range(len(cover)):
            c, dd = cover.center_points[i], cover.radii[i]
            if np.linalg.norm(c - z) <= radius / 2 + dd:  # 2B_x meets Delta/2
                hits += 1
                assert np.linalg.norm(c - z) + dd <= radius + 1e-12  # 2B_x inside Delta
    assert hits > 0


# ------------------------------------------------- operators on ball supports


def test_attach_patches_zero_centers(mixed_measure):
    params = density_params(mixed_measure, 2, 2)
    ratios = source_ratios(mixed_measure, params)
    dense = extract_dense_set(ratios, params)
    core = extract_core_set(mixed_measure, dense, params, ratios)
    empty_cover = besicovitch_cover(mixed_measure, np.array([], dtype=int), core)
    patches, backdrop, flat, patch_measure = attach_patches(mixed_measure, empty_cover, core)
    assert patches == []
    assert patch_measure is None
    assert len(flat) == backdrop.count


@pytest.mark.parametrize("n, d", [(1, 2), (1, 3), (2, 3)])
def test_one_point_core_backdrop_spans_the_first_axes(n, d):
    pts = np.array([[0.3, 0.7, -0.2][:d], [2.3, 1.7, 0.8][:d]])
    mu = DiscreteMeasure(pts, np.array([1.0, 0.5]), n, 0.01)
    cover = besicovitch_cover(mu, [], np.array([0]))
    patches, backdrop, flat, _ = attach_patches(mu, cover, np.array([0]))
    assert np.array_equal(backdrop.basis, np.eye(d)[:n])
    assert np.array_equal(backdrop.base_point, pts[0])
    assert np.signbit(backdrop.basis).sum() == 0  # no -0.0 from the padding
    assert len(flat) == backdrop.count


@pytest.mark.parametrize("frac", [0.0, -0.25, np.inf, np.nan])
def test_patch_spacing_must_be_positive_and_finite(mixed_measure, frac):
    params = density_params(mixed_measure, 2, 2)
    with pytest.raises(ValueError, match="spacing_frac"):
        run_construction(mixed_measure, params, spacing_frac=frac)
    core = np.arange(len(mixed_measure))
    empty_cover = besicovitch_cover(mixed_measure, np.array([], dtype=int), core)
    with pytest.raises(ValueError, match="spacing_frac"):
        attach_patches(mixed_measure, empty_cover, core, spacing_frac=frac)


def test_disk_patch_area_2d():
    # n = 2 patches carry the exact disk area; the raw midpoint quadrature
    # before normalization is itself within 5%
    from rieszlab.construction import _disk_offsets

    offsets, w_each, spacing = _disk_offsets(2, 1.0, 1.0 / 16.0)
    assert offsets.shape[0] * w_each == pytest.approx(np.pi, rel=1e-12)
    raw = offsets.shape[0] * spacing**2
    assert raw == pytest.approx(np.pi, rel=0.05)


def test_proxy_single_center_definition():
    # one center, patch weight W, ball mass m -> coefficient W/m, nu(B) = W
    pts = np.array([[0.0, 0.0], [0.05, 0.0], [5.0, 0.0]])
    mu = DiscreteMeasure(pts, np.array([0.3, 0.2, 1.0]), 1, 0.05)
    cover = besicovitch_cover(mu, np.array([0]), np.array([2]))
    patches, _, _, _ = attach_patches(mu, cover, np.array([2]))
    proxy, coeffs, assignment = build_proxy_measure(mu, cover, patches)
    r = cover.radii[0] / 2
    inside = np.linalg.norm(pts - pts[0], axis=1) <= r
    m = mu.weights[inside].sum()
    assert coeffs[0] == pytest.approx(patches[0].total_weight / m, rel=1e-12)
    assert rl.total_mass(proxy) == pytest.approx(patches[0].total_weight, rel=1e-12)


def test_proxy_zero_mass_ball_error():
    pts = np.array([[0.0, 0.0], [40.0, 0.0]])
    mu = DiscreteMeasure(pts, np.ones(2), 1, 1.0)
    cover = besicovitch_cover(mu, np.array([0]), np.array([1]))
    patches, _, _, _ = attach_patches(mu, cover, np.array([1]))
    # shrink the ball artificially by tampering with the radii
    tiny = CoverReport(
        centers=cover.centers,
        center_points=cover.center_points + np.array([[0.0, 100.0]]),
        radii=cover.radii,
        colors=cover.colors,
        max_overlap=cover.max_overlap,
        n_colors=cover.n_colors,
        overlap_cap=cover.overlap_cap,
    )
    with pytest.raises(ZeroMassBallError):
        build_proxy_measure(mu, tiny, patches)


def test_local_nonlocal_single_ball(mixed_result):
    res = mixed_result
    proxy = res.proxy_measure
    assignment = res.proxy_ball_of_point
    mask = assignment == 0
    sub = DiscreteMeasure(
        proxy.points[mask], proxy.weights[mask], proxy.hausdorff_dim, proxy.resolution_h
    )
    one_cover = CoverReport(
        centers=res.cover.centers[:1],
        center_points=res.cover.center_points[:1],
        radii=res.cover.radii[:1],
        colors=res.cover.colors[:1],
        max_overlap=1,
        n_colors=1,
        overlap_cap=res.cover.overlap_cap,
    )
    cfg = KernelConfig(1, 4 * res.source.resolution_h, REGULARIZED)
    f = np.ones(len(sub))
    local, nonlocal_ = split_local_nonlocal(sub, one_cover, f, cfg)
    assert np.allclose(nonlocal_.values, 0.0)
    full = riesz_apply(sub, f, cfg, sub.points)
    assert np.allclose(local.values, full, rtol=1e-12, atol=1e-14)


def test_local_nonlocal_exact_decomposition(mixed_result):
    res = mixed_result
    proxy = res.proxy_measure
    cfg = KernelConfig(1, 4 * res.source.resolution_h, REGULARIZED)
    rng = np.random.default_rng(8)
    f = rng.uniform(-1.0, 1.0, len(proxy))
    local, nonlocal_ = split_local_nonlocal(
        proxy, res.cover, f, cfg, ball_of_point=res.proxy_ball_of_point
    )
    full = riesz_apply(proxy, f, cfg, proxy.points)
    total = local.values + nonlocal_.values
    scale = np.abs(full).max()
    assert np.allclose(total, full, rtol=1e-12, atol=1e-12 * scale)


def test_local_nonlocal_cross_support(mixed_result):
    # density supported in one ball, evaluated in another: all nonlocal
    res = mixed_result
    proxy = res.proxy_measure
    assignment = res.proxy_ball_of_point
    cfg = KernelConfig(1, 4 * res.source.resolution_h, REGULARIZED)
    f = (assignment == 0).astype(float)
    local, nonlocal_ = split_local_nonlocal(proxy, res.cover, f, cfg, ball_of_point=assignment)
    other = assignment == 1
    assert np.allclose(local.values[other], 0.0)
    full = riesz_apply(proxy, f, cfg, proxy.points[other])
    assert np.allclose(nonlocal_.values[other], full, rtol=1e-12, atol=1e-14)


def test_transfer_constant_and_zero(mixed_result):
    res = mixed_result
    sigma = res.patch_measure
    proxy = res.proxy_measure
    f = transfer_ball_averages(np.full(len(sigma), 3.25), proxy, sigma, res.cover)
    assert np.allclose(f, 3.25, rtol=1e-12)  # nu(B) = sigma(B) transfers constants
    f0 = transfer_ball_averages(np.zeros(len(sigma)), proxy, sigma, res.cover)
    assert np.allclose(f0, 0.0)


def test_transfer_matching_and_norm_inequality(mixed_result):
    res = mixed_result
    sigma = res.patch_measure
    proxy = res.proxy_measure
    rng = np.random.default_rng(12)
    from rieszlab.construction import _assign_balls

    sa = _assign_balls(sigma, res.cover)
    pa = res.proxy_ball_of_point
    assert np.array_equal(_assign_balls(proxy, res.cover), pa)  # the labels transfer_ball_averages uses
    for _ in range(50):
        g = rng.standard_normal(len(sigma))
        f = transfer_ball_averages(g, proxy, sigma, res.cover)
        for b in range(len(res.cover)):
            lhs = np.sum(f[pa == b] * proxy.weights[pa == b])
            rhs = np.sum(g[sa == b] * sigma.weights[sa == b])
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)
        norm_f = np.sqrt(np.sum(f**2 * proxy.weights))
        norm_g = np.sqrt(np.sum(g**2 * sigma.weights))
        assert norm_f <= norm_g * (1 + 1e-12)


def test_interaction_field_single_ball():
    pts = np.array([[0.0, 0.0], [40.0, 0.0]])
    mu = DiscreteMeasure(pts, np.ones(2), 1, 1.0)
    cover = besicovitch_cover(mu, np.array([0]), np.array([1]))
    sub = DiscreteMeasure(pts[:1], mu.weights[:1], 1, 1.0)
    out = ball_interaction_field(sub, cover, np.ones(1), ball_of_point=np.array([0]))
    assert np.allclose(out, 0.0)


def test_interaction_field_two_ball_hand_value():
    # balls of patch radius 1 at distance 5: gap 3; f = 1
    centers = np.array([[0.0, 0.0], [5.0, 0.0]])
    cover = CoverReport(
        centers=np.array([0, 1]),
        center_points=centers,
        radii=np.array([2.0, 2.0]),  # clearance 2 -> patch radius 1
        colors=np.array([1, 1]),
        max_overlap=1,
        n_colors=1,
        overlap_cap=16,
    )
    pts = np.array([[0.2, 0.0], [-0.3, 0.0], [5.1, 0.0]])
    w = np.array([0.4, 0.6, 2.0])
    measure = DiscreteMeasure(pts, w, 1, 0.1)
    out = ball_interaction_field(measure, cover, np.ones(3))
    # value on ball 1: r_2 * I_2 / gap^2 = 1 * 2.0 / 9
    assert out[0] == pytest.approx(2.0 / 9.0, rel=1e-12)
    assert out[1] == pytest.approx(2.0 / 9.0, rel=1e-12)
    # value on ball 2: r_1 * I_1 / gap^2 = 1 * 1.0 / 9
    assert out[2] == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_interaction_field_stable_across_resolutions(mixed_measure):
    # the measured operator constant |Tf| / |f| stays within a factor 2
    # across consecutive patch refinements
    norms = []
    for cells in (16, 32):
        res = run_construction(
            mixed_measure, density_params(mixed_measure, 2, 2), spacing_frac=1.0 / cells
        )
        proxy = res.proxy_measure
        f = np.ones(len(proxy))
        out = ball_interaction_field(proxy, res.cover, f, ball_of_point=res.proxy_ball_of_point)
        norm_f = np.sqrt(np.sum(f**2 * proxy.weights))
        norms.append(np.sqrt(np.sum(out**2 * proxy.weights)) / norm_f)
    assert 0.5 <= norms[0] / norms[1] <= 2.0


# ----------------------------------------------------------------- degenerate


def test_degenerate_branch_segment_only():
    mu = segment_measure()
    res = run_construction(mu, density_params(mu, 2, 1))
    assert res.target_idx.size == 0
    assert len(res.cover) == 0
    assert res.patches == []
    assert res.proxy_measure is None
    assert len(res.regularized_measure) == res.backdrop.count + len(mu)
    report = verify_construction(res, seed=3)
    assert report.matching_pass and report.coverage_pass and report.color_disjoint_pass
    assert report.ad_pass


# -------------------------------------------------------------- serialization


def test_save_construction_roundtrip(tmp_path, mixed_result):
    report = verify_construction(mixed_result, seed=11)
    outdir = tmp_path / "construction"
    save_construction(mixed_result, outdir, report)
    sigma = read_measure(outdir / "sigma.measure")
    assert len(sigma) == len(mixed_result.flat_measure)
    reg = read_measure(outdir / "regularized.measure")
    assert len(reg) == len(mixed_result.regularized_measure)
    proxy = read_measure(outdir / "proxy.measure")
    assert len(proxy) == len(mixed_result.proxy_measure)
    import json

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["p"] == 2 and manifest["s"] == 2
    assert len(manifest["centers"]) == len(mixed_result.cover)
    assert manifest["verification"]["matching_pass"]


def _manifest_oracle(result, report=None):
    """The manifest written out key by key: the reference for save_construction."""
    manifest = {
        "p": result.params.p,
        "s": result.params.s,
        "grid": {
            "r_min": result.params.grid.r_min,
            "r_max": result.params.grid.r_max,
            "count": result.params.grid.count,
        },
        "floor_radius": result.params.grid.r_min,
        "dense_count": int(result.dense_idx.size),
        "core_count": int(result.core_idx.size),
        "centers": result.cover.centers.tolist(),
        "center_points": result.cover.center_points.tolist(),
        "radii": result.cover.radii.tolist(),
        "colors": result.cover.colors.tolist(),
        "max_overlap": result.cover.max_overlap,
        "n_colors": result.cover.n_colors,
        "coefficients": result.proxy_coefficients.tolist(),
        "backdrop": {
            "base_point": result.backdrop.base_point.tolist(),
            "basis": result.backdrop.basis.tolist(),
            "extent": result.backdrop.extent,
            "spacing": result.backdrop.spacing,
            "count": result.backdrop.count,
        },
        "patches": [
            {
                "center": p.center.tolist(),
                "radius": p.radius,
                "basis": p.basis.tolist(),
                "spacing": p.spacing,
                "count": int(p.points.shape[0]),
                "total_weight": p.total_weight,
            }
            for p in result.patches
        ],
    }
    if report is not None:
        manifest["verification"] = report.to_dict()
    return manifest


def test_manifest_matches_the_key_by_key_oracle(tmp_path, mixed_result):
    import json

    member = adaptive_family(mixed_result)[1]
    assert mixed_result.patches and mixed_result.proxy_measure is not None
    assert mixed_result.cover.n_colors == 2
    assert len(member.cover) == 0 and member.proxy_measure is None
    assert member.proxy_coefficients.size == 0
    for name, result, report in (
        ("mixed", mixed_result, verify_construction(mixed_result, seed=11)),
        ("member", member, None),
    ):
        save_construction(result, tmp_path / name, report)
        written = (tmp_path / name / "manifest.json").read_text()
        assert written == json.dumps(_manifest_oracle(result, report), indent=2), name


def test_comparison_mismatch_ratio_reported(mixed_result):
    # measured constant for matched pairs: finite and recorded, no bound asserted
    res = mixed_result
    sigma, proxy = res.patch_measure, res.proxy_measure
    cfg = KernelConfig(1, 4 * res.source.resolution_h, REGULARIZED)
    rng = np.random.default_rng(31)
    ratios = []
    for _ in range(5):
        g = rng.standard_normal(len(sigma))
        f = transfer_ball_averages(g, proxy, sigma, res.cover)
        mismatch, ratio = comparison_mismatch_ratio(f, g, proxy, sigma, res.cover, cfg)
        assert np.isfinite(mismatch) and mismatch >= 0.0
        ratios.append(ratio)
    assert all(np.isfinite(r) for r in ratios)


def test_comparison_mismatch_matches_per_ball_loop(mixed_result):
    # reference: one pair of kernel sums over the other balls' sources per
    # ball and measure; only the order of the final sum differs
    res = mixed_result
    sigma, proxy = res.patch_measure, res.proxy_measure
    from rieszlab.construction import _assign_balls
    from rieszlab.kernels import kernel_sum

    sa, pa = _assign_balls(sigma, res.cover), res.proxy_ball_of_point
    cfg = KernelConfig(1, 4 * res.source.resolution_h, REGULARIZED)
    rng = np.random.default_rng(5)
    f, g = rng.standard_normal(len(proxy)), rng.standard_normal(len(sigma))
    want = 0.0
    for measure, labels in ((proxy, pa), (sigma, sa)):
        for b in range(len(res.cover)):
            at = labels == b
            diff = kernel_sum(proxy.points[pa != b], (f * proxy.weights)[pa != b], cfg, measure.points[at])
            diff -= kernel_sum(sigma.points[sa != b], (g * sigma.weights)[sa != b], cfg, measure.points[at])
            want += float(np.einsum("ij,ij->i", diff, diff) @ measure.weights[at])
    mismatch, _ = comparison_mismatch_ratio(f, g, proxy, sigma, res.cover, cfg)
    assert mismatch == pytest.approx(want, rel=1e-13)


def test_comparison_mismatch_zero_for_identical_inputs(mixed_result):
    # proxy compared against itself with the same density: exact zero
    res = mixed_result
    proxy = res.proxy_measure
    cfg = KernelConfig(1, 4 * res.source.resolution_h, REGULARIZED)
    f = np.linspace(0.5, 1.5, len(proxy))
    mismatch, ratio = comparison_mismatch_ratio(f, f, proxy, proxy, res.cover, cfg)
    assert mismatch == 0.0 and ratio == 0.0
