import time

import numpy as np
import pytest

from rieszlab import measure
from rieszlab.generators import gen_plane, gen_segment
from rieszlab.measure import (
    DiscreteMeasure,
    EmptySelectionError,
    ScaleGrid,
    ad_constants,
    ball_mass,
    ball_masses,
    density_profile,
    density_ratios,
    growth_constant,
    read_measure,
    restrict,
    support_diameter,
    total_mass,
    write_measure,
)


def point_mass(coords, w=1.0, n=1):
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    return DiscreteMeasure(coords, np.full(coords.shape[0], w), n, 1e-3)


def naive_ball_mass(mu, center, r):
    dist = np.linalg.norm(mu.points - np.asarray(center), axis=1)
    return float(mu.weights[dist <= r].sum())


# ---------------------------------------------------------------------- types


def test_measure_rejects_bad_inputs():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((0, 2)), np.zeros(0), 1, 0.1)
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((2, 2)), np.array([1.0, 0.0]), 1, 0.1)
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((1, 2)), np.array([np.nan]), 1, 0.1)
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((1, 2)), np.array([1.0]), 2, 0.1)  # n >= d
    with pytest.raises(ValueError):  # resolution above the diameter
        DiscreteMeasure(np.array([[0.0, 0.0], [0.1, 0.0]]), np.ones(2), 1, 5.0)


def _products(norm) -> int:
    # a budget of 2 stops Lanczos on its first factorization: the products run
    from rieszlab.analysis import NonConvergenceError

    with pytest.raises(NonConvergenceError) as err:
        norm()
    return err.value.estimate.iterations


def _counts(fc3):
    from rieszlab.analysis import joint_norm_experiment, norm_sweep, operator_norm
    from rieszlab.construction import DensitySubsetParams
    from rieszlab.kernels import KernelConfig

    cfg = KernelConfig(1, 0.1)
    return [
        ("kernel homogeneity n", lambda v: KernelConfig(v, 0.1).n),
        ("hausdorff_dim", lambda v: DiscreteMeasure(np.eye(3), np.ones(3), v, 0.5).hausdorff_dim),
        ("count", lambda v: ScaleGrid(0.1, 1.0, v).count),
        ("p", lambda v: DensitySubsetParams(v, 1, ScaleGrid(0.1, 1.0, 4)).p),
        ("s", lambda v: DensitySubsetParams(1, v, ScaleGrid(0.1, 1.0, 4)).s),
        ("max_iter", lambda v: _products(lambda: operator_norm(fc3, cfg, max_iter=v))),
        ("max_iter", lambda v: _products(lambda: norm_sweep(fc3, [0.1], max_iter=v))),
        ("max_iter", lambda v: _products(lambda: joint_norm_experiment(fc3, fc3, cfg, max_iter=v))),
    ]


@pytest.mark.parametrize("value", [1.5, True, float("nan"), float("inf"), "2"])
def test_counts_reject_what_is_no_count(value, four_corners_3):
    # int() would take each of these without notice: 1.5 as 1, True as 1,
    # and a max_iter of 2.5 would have run 3 products
    for name, make in _counts(four_corners_3):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            make(value)


@pytest.mark.parametrize("value", [2, 2.0, np.int64(2)])
def test_counts_take_integral_values(value, four_corners_3):
    for _, make in _counts(four_corners_3):
        got = make(value)
        assert got == 2 and type(got) is int


def test_bbox_is_reduced_once_and_read_only(four_corners_3):
    lo, hi = four_corners_3.bbox()
    assert np.array_equal(lo, four_corners_3.points.min(axis=0))
    assert np.array_equal(hi, four_corners_3.points.max(axis=0))
    again = four_corners_3.bbox()
    assert again[0] is lo and again[1] is hi  # the same arrays: no second reduction
    for bound in (lo, hi):
        with pytest.raises(ValueError):
            bound[0] = 5.0


def test_scale_grid_geometric():
    grid = ScaleGrid(0.01, 10.0, 50)
    radii = grid.radii()
    assert radii[0] == pytest.approx(0.01, rel=1e-15)
    assert radii[-1] == pytest.approx(10.0, rel=1e-15)
    ratios = radii[1:] / radii[:-1]
    assert np.allclose(ratios, ratios[0], rtol=1e-12)
    with pytest.raises(ValueError):
        ScaleGrid(1.0, 0.5, 10)
    with pytest.raises(ValueError):
        ScaleGrid(1.0, 2.0, 1)


# ----------------------------------------------------------------- total mass


def test_total_mass_examples(four_corners_3):
    assert total_mass(point_mass([[0.0, 0.0]])) == 1.0
    two = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.25, 0.75], 1, 0.5)
    assert total_mass(two) == pytest.approx(1.0, rel=1e-15)
    assert total_mass(four_corners_3) == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------------------------------ ball mass


def test_ball_mass_point_cases():
    mu = point_mass([[0.0, 0.0]])
    assert ball_mass(mu, [0.0, 0.0], 1.0) == 1.0
    mu2 = point_mass([[2.0, 0.0]])
    assert ball_mass(mu2, [0.0, 0.0], 1.0) == 0.0


def test_ball_mass_segment_interval(segment_1024):
    h = segment_1024.resolution_h
    got = ball_mass(segment_1024, [0.5, 0.0], 0.25)
    assert abs(got - 0.5) <= 2 * h


def test_ball_mass_matches_naive_oracle(four_corners_3):
    rng = np.random.default_rng(3)
    for _ in range(25):
        center = rng.uniform(-0.2, 1.2, size=2)
        r = float(rng.uniform(0.01, 1.5))
        assert ball_mass(four_corners_3, center, r) == pytest.approx(
            naive_ball_mass(four_corners_3, center, r), rel=1e-12, abs=1e-15
        )


def test_ball_masses_grid_matches_single(four_corners_3):
    radii = np.geomspace(0.05, 1.0, 7)
    table = ball_masses(four_corners_3, four_corners_3.points[:10], radii)
    ratios = density_ratios(four_corners_3, four_corners_3.points[:10], radii)
    for i in range(10):
        for j, r in enumerate(radii):
            mass = ball_mass(four_corners_3, four_corners_3.points[i], r)
            assert table[i, j] == pytest.approx(mass, rel=1e-12, abs=1e-15)
            assert ratios[i, j] == pytest.approx(mass / r, rel=1e-12, abs=1e-15)  # n = 1


def test_ball_masses_reuse_the_weights_node_sums(monkeypatch):
    # the weights' upward pass runs once per measure, for every call and
    # every stacked row equal to the weights; other rows get their own
    mu = gen_segment(300)
    calls = []
    node_sums = measure._node_sums
    monkeypatch.setattr(measure, "_node_sums", lambda *a: calls.append(None) or node_sums(*a))
    radii = [0.01, 0.1]
    single = ball_masses(mu, mu.points, radii)
    other = np.linspace(1.0, 2.0, len(mu))
    stacked = ball_masses(mu, mu.points, radii, np.stack([mu.weights.copy(), other, mu.weights]))
    assert len(calls) == 2
    assert np.array_equal(stacked[0], single) and np.array_equal(stacked[2], single)
    ball_masses(mu, mu.points[:5], radii)
    assert len(calls) == 2


def test_ball_masses_reject_nonfinite_values(segment_1024):
    # a non-finite value would spoil every sum of its leaf pair, not only
    # the balls that hold its point
    for bad in (np.inf, np.nan):
        values = np.ones(len(segment_1024))
        values[7] = bad
        with pytest.raises(ValueError, match="finite"):
            ball_masses(segment_1024, segment_1024.points, [0.1], values)


def test_ball_masses_rejects_misshapen_centers_and_values(four_corners_3):
    radii = [0.1, 0.5]
    with pytest.raises(ValueError, match="center dimension mismatch"):
        ball_masses(four_corners_3, [[0.5]], radii)
    for x in ([0.5], [0.5, 0.5, 0.5]):
        with pytest.raises(ValueError, match="center dimension mismatch"):
            density_profile(four_corners_3, x, ScaleGrid(0.1, 0.5, 2))
    n_pts = len(four_corners_3)
    for values in (np.ones(n_pts + 6), np.ones(n_pts - 1), np.ones((2, 3, n_pts))):
        with pytest.raises(ValueError, match="do not align"):
            ball_masses(four_corners_3, four_corners_3.points, radii, values)


def test_ball_masses_rejects_nonfinite_centers_and_nan_radii(segment_1024):
    # a NaN center fails no box comparison and a NaN radius sorts past every
    # distance: both would report a plausible table of wrong masses
    for center in ([np.nan, 0.5], [0.5, np.inf]):
        with pytest.raises(ValueError, match="center coordinates must be finite"):
            ball_masses(segment_1024, [center], [0.1])
    with pytest.raises(ValueError, match="radii must not be NaN"):
        ball_masses(segment_1024, [[0.5, 0.0]], [np.nan])


def test_ball_sums_reject_radii_below_zero(segment_1024):
    # a negative radius would report an empty ball, and a ratio at r = 0 is
    # 0 / 0; the closed ball of radius 0 itself holds the points at its center
    center = segment_1024.points[:1]
    with pytest.raises(ValueError, match="radii must not be NaN or negative"):
        ball_masses(segment_1024, center, [-1.0, 0.1])
    for radii in ([-1.0, 0.0], [0.0, 0.1]):
        with pytest.raises(ValueError, match="radii must be positive"):
            density_ratios(segment_1024, center, radii)
    assert ball_masses(segment_1024, center, [0.0])[0, 0] == segment_1024.weights[0]


def test_density_ratios_rejects_nonfinite_centers(segment_1024):
    with pytest.raises(ValueError, match="center coordinates must be finite"):
        density_ratios(segment_1024, [[np.nan, 0.0]], [0.1, 0.2])


def test_ball_mass_decides_by_the_rounded_distance():
    # points a relative 1e-10 outside the unit ball fall inside the kdtree's
    # inflated candidate query, and only the closed-ball rule drops them;
    # points on the boundary or just inside are kept
    eps = 1e-10
    pts = np.array([[1.0, 0.0], [0.0, -1.0], [1.0 + eps, 0.0], [0.0, 1.0 - eps], [0.0, -1.0 - eps]])
    mu = DiscreteMeasure(pts, [1.0, 2.0, 4.0, 8.0, 16.0], 1, 0.5)
    assert ball_mass(mu, [0.0, 0.0], 1.0) == 11.0
    assert ball_mass(mu, [0.0, 0.0], 1.0) == ball_masses(mu, [[0.0, 0.0]], [1.0])[0, 0]


def test_ball_mass_monotone_in_radius(four_corners_4):
    rng = np.random.default_rng(7)
    for _ in range(20):
        center = rng.uniform(0.0, 1.0, size=2)
        radii = np.sort(rng.uniform(0.01, 1.5, size=6))
        masses = [ball_mass(four_corners_4, center, r) for r in radii]
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))


# ------------------------------------------------------------ growth constant


def test_growth_constant_single_mass():
    mu = point_mass([[0.0, 0.0]])
    assert growth_constant(mu, ScaleGrid(1.0, 2.0, 9)) == pytest.approx(1.0, rel=1e-12)


def test_growth_constant_segment(segment_1024):
    h = segment_1024.resolution_h
    got = growth_constant(segment_1024, ScaleGrid(16 * h, 0.5, 12))
    assert got == pytest.approx(2.0, rel=0.10)


def test_growth_constant_four_corners_brute_force(four_corners_3):
    grid = ScaleGrid(4.0 ** (-2), 1.0, 10)
    got = growth_constant(four_corners_3, grid)
    best = 0.0
    for x in four_corners_3.points:
        for r in grid.radii():
            best = max(best, naive_ball_mass(four_corners_3, x, r) / r)
    assert got == pytest.approx(best, rel=1e-12)
    # the sup over the whole range [4^{-2}, 1] is ~1.021; a fine grid finds
    # the jump radii a 10-point grid misses
    dense = growth_constant(four_corners_3, ScaleGrid(4.0 ** (-2), 1.0, 512))
    assert 1.0 <= dense <= 4.0


def test_growth_constant_requires_resolved_grid(segment_1024):
    h = segment_1024.resolution_h
    with pytest.raises(ValueError):
        growth_constant(segment_1024, ScaleGrid(h / 10, 0.5, 8))


def test_growth_constant_restriction_monotone(four_corners_4):
    grid = ScaleGrid(4.0 ** (-3), 1.0, 8)
    rng = np.random.default_rng(5)
    full = growth_constant(four_corners_4, grid)
    for _ in range(5):
        keep = rng.random(len(four_corners_4)) < 0.6
        if not keep.any():
            continue
        sub = restrict(four_corners_4, keep)
        assert growth_constant(sub, grid) <= full + 1e-12


# ------------------------------------------------------------ density profile


def test_density_profile_single_mass():
    mu = point_mass([[0.0, 0.0]])
    prof = density_profile(mu, [0.0, 0.0], ScaleGrid(1.0, 2.0, 2))
    assert prof[0] == pytest.approx([1.0, 1.0])
    assert prof[1] == pytest.approx([2.0, 0.5])


def test_density_profile_segment_interior(segment_1024):
    h = segment_1024.resolution_h
    prof = density_profile(segment_1024, [0.5, 0.0], ScaleGrid(8 * h, 0.05, 10))
    assert np.all(np.abs(prof[:, 1] - 2.0) < 0.2)


def test_density_profile_outside_bbox_rejected(segment_1024):
    with pytest.raises(ValueError):
        density_profile(segment_1024, [50.0, 0.0], ScaleGrid(0.01, 0.1, 4))


def test_density_profile_rejects_nan_point(segment_1024):
    with pytest.raises(ValueError, match="center coordinates must be finite"):
        density_profile(segment_1024, [np.nan, 0.0], ScaleGrid(0.01, 0.1, 4))


def test_density_profile_sparse_cantor_decays():
    from conftest import sparse_cantor_depth

    mu = sparse_cantor_depth(6)
    diam = support_diameter(mu)
    grid = ScaleGrid(4 * mu.resolution_h, diam, 30)
    prof = density_profile(mu, mu.points[0], grid)
    finest, coarsest = prof[0, 1], prof[-1, 1]
    assert finest < 0.5 * coarsest


# --------------------------------------------------------------- ad constants


def test_ad_constants_segment(segment_1024):
    h = segment_1024.resolution_h
    c_lo, c_hi = ad_constants(segment_1024, ScaleGrid(16 * h, 0.25, 12))
    assert c_lo == pytest.approx(1.0, rel=0.15)  # endpoint balls are half covered
    assert c_hi == pytest.approx(2.0, rel=0.10)
    assert c_lo <= c_hi


def test_ad_constants_plane_patch(plane_23):
    h = plane_23.resolution_h
    c_lo, c_hi = ad_constants(plane_23, ScaleGrid(4 * h, 0.4, 10))
    assert np.pi / 4 <= c_lo <= c_hi <= 4 * np.pi


def test_ad_constants_single_point_shrinks_with_range():
    mu = point_mass([[0.0, 0.0]])
    lo2, _ = ad_constants(mu, ScaleGrid(1.0, 2.0, 8))
    lo4, _ = ad_constants(mu, ScaleGrid(1.0, 4.0, 8))
    assert lo2 > 0 and lo4 > 0
    assert lo2 / lo4 >= 1.0


def test_ad_constants_ordering_random(four_corners_4):
    c_lo, c_hi = ad_constants(four_corners_4, ScaleGrid(4.0 ** (-3), 1.0, 9))
    assert 0 <= c_lo <= c_hi


# ------------------------------------------------------------------- restrict


def test_restrict_identity(four_corners_3):
    same = restrict(four_corners_3, np.ones(len(four_corners_3), dtype=bool))
    assert np.array_equal(same.points, four_corners_3.points)
    assert np.array_equal(same.weights, four_corners_3.weights)


def test_restrict_empty_errors(four_corners_3):
    with pytest.raises(EmptySelectionError):
        restrict(four_corners_3, np.zeros(len(four_corners_3), dtype=bool))


def test_restrict_weight_threshold():
    mu = DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [0.1, 0.9], 1, 0.5)
    kept = restrict(mu, mu.weights > 0.5)
    assert len(kept) == 1
    assert total_mass(kept) == pytest.approx(0.9)


def test_restrict_additivity(four_corners_4):
    rng = np.random.default_rng(11)
    mask = rng.random(len(four_corners_4)) < 0.5
    if not mask.any() or mask.all():
        mask[:3] = True
        mask[3:] = False
    a = total_mass(restrict(four_corners_4, mask))
    b = total_mass(restrict(four_corners_4, ~mask))
    assert a + b == pytest.approx(total_mass(four_corners_4), rel=1e-12)


# ----------------------------------------------------------- support diameter


def test_support_diameter_cases(segment_1024):
    assert support_diameter(point_mass([[3.0, 1.0]])) == 0.0
    two = DiscreteMeasure([[0.0, 0.0], [3.0, 4.0]], [1.0, 1.0], 1, 1.0)
    assert support_diameter(two) == pytest.approx(5.0, rel=1e-15)
    h = segment_1024.resolution_h
    assert abs(support_diameter(segment_1024) - 1.0) <= h


def test_diameter_of_million_point_supports():
    # a segment and a flat square in d = 3 have known extreme points: the
    # first and last cell midpoints, and opposite corners of the grid
    for mu in (gen_segment(10**6), gen_plane(2, 3, 1.0, 1.0 / 1000)):
        t0 = time.perf_counter()
        diam = mu.diameter
        assert time.perf_counter() - t0 < 1.0
        assert diam == float(np.linalg.norm(mu.points[-1] - mu.points[0]))


# -------------------------------------------------------------------- file io


def test_measure_file_roundtrip(tmp_path, lip_graph):
    path = tmp_path / "graph.measure"
    write_measure(lip_graph, path)
    back = read_measure(path)
    assert np.array_equal(back.points, lip_graph.points)
    assert np.array_equal(back.weights, lip_graph.weights)
    assert back.resolution_h == lip_graph.resolution_h
    assert back.hausdorff_dim == lip_graph.hausdorff_dim


def test_table_rows_match_per_element_format(tmp_path):
    # one %-format per row writes the bytes that formatting each element
    # with f"{c:.17g}" wrote: signed zero, subnormals, extremes, integers
    rows = np.array(
        [[-0.0, 5e-324, 1e300], [-1e300, 3.0, -7.0], [0.1, 1.0 / 3.0, 2.0**53], [1e-310, -2.5, 0.0]]
    )
    path = tmp_path / "t.table"
    measure._write_table(path, "# header", rows, ["note"])
    want = ["# header", "# note"] + [" ".join(f"{c:.17g}" for c in row) for row in rows]
    assert path.read_bytes() == ("\n".join(want) + "\n").encode()


def test_measure_file_tolerates_extra_comments(tmp_path, four_corners_3):
    path = tmp_path / "fc.measure"
    write_measure(four_corners_3, path, extra_comments=["origin=test", "note"])
    back = read_measure(path)
    assert np.array_equal(back.points, four_corners_3.points)


def test_measure_file_rejects_malformed(tmp_path):
    path = tmp_path / "bad.measure"
    path.write_text("not a header\n0 0 1\n")
    with pytest.raises(ValueError):
        read_measure(path)


def test_measure_file_rejects_zero_count(tmp_path):
    path = tmp_path / "empty.measure"
    path.write_text("# d=2 n=1 count=0 h=0.5\n")
    with pytest.raises(ValueError, match="at least one row"):
        read_measure(path)
