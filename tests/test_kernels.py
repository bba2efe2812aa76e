import numpy as np
import pytest

import rieszlab as rl
from rieszlab.kernels import (
    REGULARIZED,
    TRUNCATED,
    KernelConfig,
    VectorField,
    kernel_eval,
    maximal_function,
    read_vector_field,
    riesz_apply,
    truncation_gap_check,
    write_vector_field,
)
from rieszlab.measure import DiscreteMeasure, ScaleGrid


def two_points(a, b, w=1.0):
    return DiscreteMeasure(np.array([a, b], dtype=float), np.array([w, w]), 1, 0.5)


# -------------------------------------------------------------------- kernels


def test_kernel_zero_at_origin():
    for mode in (TRUNCATED, REGULARIZED):
        cfg = KernelConfig(1, 0.5, mode)
        assert np.allclose(kernel_eval(np.zeros(2), cfg), 0.0)


def test_kernel_regularized_inside_eps():
    cfg = KernelConfig(1, 1.0, REGULARIZED)
    got = kernel_eval(np.array([0.5, 0.0]), cfg)
    assert got == pytest.approx([0.5, 0.0])


def test_kernel_truncated_boundary_is_excluded():
    cfg = KernelConfig(1, 1.0, TRUNCATED)
    assert np.allclose(kernel_eval(np.array([1.0, 0.0]), cfg), 0.0)
    assert np.allclose(kernel_eval(np.array([1.0 + 1e-12, 0.0]), cfg),
                       [1.0 / (1.0 + 1e-12), 0.0], rtol=1e-9)


def test_kernel_antisymmetry_random():
    # bit for bit, as the norm operator stores each pair once and applies
    # it with both signs; the random rows come with x = 0 and with
    # |(0.75, 1, 0)| = 1.25 = eps, whose squares are exact in binary
    rng = np.random.default_rng(0)
    x = np.vstack([rng.standard_normal((100, 3)), [[0.0, 0.0, 0.0], [0.75, 1.0, 0.0], [0.0, -1.0, 0.75]]])
    for mode in (TRUNCATED, REGULARIZED):
        cfg = KernelConfig(2, 1.25, mode)
        odd = kernel_eval(-x, cfg).view(np.uint64) == (-kernel_eval(x, cfg)).view(np.uint64)
        assert odd.all()


def test_kernel_gradient_bound_proxy():
    # discrete smoothness check: |K(x + delta e) - K(x)| <= 4 (n+1) / |x|^{n+1}
    # * |delta| for |delta| <= |x| / 8.  The constant follows from the
    # Jacobian bound (n+2) / r^{n+1} on the segment, inflated by (8/7)^{n+1}
    # for the worst point of the segment; it is valid for n <= 4.
    rng = np.random.default_rng(1)
    for n in (1, 2, 3):
        cfg = KernelConfig(n, 0.7, REGULARIZED)
        d = n + 1
        for _ in range(200):
            x = rng.standard_normal(d)
            r = np.linalg.norm(x)
            if abs(r - cfg.epsilon) < 1e-3 or r < 1e-3:
                continue
            axis = rng.integers(0, d)
            delta = rng.uniform(-r / 8, r / 8)
            step = np.zeros(d)
            step[axis] = delta
            lhs = np.linalg.norm(kernel_eval(x + step, cfg) - kernel_eval(x, cfg))
            assert lhs <= 4 * (n + 1) / r ** (n + 1) * abs(delta) + 1e-12


# ---------------------------------------------------------------- riesz apply


def test_riesz_symmetric_pair_cancels():
    mu = two_points([1.0, 0.0], [-1.0, 0.0])
    out = riesz_apply(mu, np.ones(2), KernelConfig(1, 0.5, TRUNCATED), [[0.0, 0.0]])
    assert np.allclose(out, 0.0, atol=1e-15)


def test_riesz_single_mass_value():
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0], 1, 1e-3)
    out = riesz_apply(mu, np.ones(1), KernelConfig(1, 1.0, TRUNCATED), [[2.0, 0.0]])
    assert out[0] == pytest.approx([0.5, 0.0])


def test_riesz_segment_closed_form():
    # off-axis field of the unit segment: first component cancels, second is
    # int_0^1 t / ((x - s)^2 + t^2) ds = 2 arctan(1 / (2 t)) at x = 1/2
    n_pts = 4096
    mu = rl.gen_segment(n_pts)
    t = 0.1
    cfg = KernelConfig(1, mu.resolution_h, TRUNCATED)
    out = riesz_apply(mu, np.ones(n_pts), cfg, [[0.5, t]])
    assert abs(out[0, 0]) < 1e-10
    exact = 2.0 * np.arctan(1.0 / (2.0 * t))
    assert out[0, 1] == pytest.approx(exact, rel=0.05)


def test_riesz_self_term_vanishes():
    mu = DiscreteMeasure([[0.0, 0.0]], [5.0], 1, 1e-3)
    for mode in (TRUNCATED, REGULARIZED):
        out = riesz_apply(mu, np.ones(1), KernelConfig(1, 0.1, mode), [[0.0, 0.0]])
        assert np.allclose(out, 0.0)


def test_riesz_rejects_bad_density(four_corners_3):
    cfg = KernelConfig(1, 0.1, TRUNCATED)
    with pytest.raises(ValueError):
        riesz_apply(four_corners_3, np.ones(3), cfg, [[0.0, 0.0]])
    bad = np.ones(len(four_corners_3))
    bad[0] = np.inf
    with pytest.raises(ValueError):
        riesz_apply(four_corners_3, bad, cfg, [[0.0, 0.0]])


def test_riesz_pair_contribution_antisymmetry():
    rng = np.random.default_rng(4)
    for _ in range(20):
        a, b = rng.standard_normal((2, 2))
        mu_a = DiscreteMeasure([a], [1.0], 1, 1e-6)
        mu_b = DiscreteMeasure([b], [1.0], 1, 1e-6)
        cfg = KernelConfig(1, 1e-3, TRUNCATED)
        at_a = riesz_apply(mu_b, np.ones(1), cfg, [a])
        at_b = riesz_apply(mu_a, np.ones(1), cfg, [b])
        assert np.allclose(at_a, -at_b, atol=1e-12)


def test_truncation_annulus_decomposition(four_corners_4):
    # sum over |x-y| > eps1 equals sum over |x-y| > eps2 plus the annulus
    mu = four_corners_4
    rng = np.random.default_rng(9)
    f = rng.uniform(0.5, 1.5, len(mu))
    eps1, eps2 = 0.05, 0.3
    targets = mu.points[::37]
    big = riesz_apply(mu, f, KernelConfig(1, eps1, TRUNCATED), targets)
    small = riesz_apply(mu, f, KernelConfig(1, eps2, TRUNCATED), targets)
    annulus = np.zeros_like(big)
    for row, x in enumerate(targets):
        diff = x[None, :] - mu.points
        r = np.linalg.norm(diff, axis=1)
        sel = (r > eps1) & (r <= eps2)
        if sel.any():
            ker = diff[sel] / r[sel, None] ** 2
            annulus[row] = ker.T @ (f[sel] * mu.weights[sel])
    assert np.allclose(big, small + annulus, rtol=1e-12, atol=1e-13)


# ----------------------------------------------------------- maximal function


def test_maximal_function_of_ones(four_corners_3):
    grid = ScaleGrid(0.1, 1.0, 6)
    got = maximal_function(four_corners_3, np.ones(len(four_corners_3)),
                           four_corners_3.points[5], grid)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_maximal_function_isolating_ball():
    mu = DiscreteMeasure([[0.0, 0.0], [10.0, 0.0]], [1.0, 1.0], 1, 1.0)
    f = np.array([1.0, 0.0])
    got = maximal_function(mu, f, np.array([0.0, 0.0]), ScaleGrid(1.0, 5.0, 4))
    assert got == pytest.approx(1.0)


def test_maximal_function_mean_between():
    mu = DiscreteMeasure([[-1.0, 0.0], [1.0, 0.0]], [1.0, 1.0], 1, 1.0)
    f = np.array([0.0, 2.0])
    got = maximal_function(mu, f, np.array([0.0, 0.0]), ScaleGrid(1.5, 2.0, 3))
    assert got == pytest.approx(1.0)


def test_maximal_function_rejects_misshapen_inputs(four_corners_3):
    grid = ScaleGrid(0.1, 1.0, 6)
    with pytest.raises(ValueError, match="aligned with the measure"):
        maximal_function(four_corners_3, np.ones(1), four_corners_3.points[5], grid)
    with pytest.raises(ValueError, match="target dimension mismatch"):
        maximal_function(four_corners_3, np.ones(len(four_corners_3)), [0.5], grid)


def test_maximal_function_takes_one_point():
    mu = rl.gen_segment(64)
    f = np.zeros(64)
    f[-4:] = 5.0
    grid = ScaleGrid(2.0 / 64.0, 0.1, 4)
    assert maximal_function(mu, f, mu.points[62], grid) == 5.0
    assert maximal_function(mu, f, mu.points[0], grid) == 0.0
    with pytest.raises(ValueError, match="one point"):
        maximal_function(mu, f, mu.points[[0, 62]], grid)


def test_maximal_function_empty_balls_error():
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0], 1, 1e-3)
    with pytest.raises(ValueError):
        maximal_function(mu, np.ones(1), np.array([50.0, 0.0]), ScaleGrid(0.1, 1.0, 3))


# --------------------------------------------------------- truncation gap


def test_gap_check_zero_density(four_corners_3):
    grid = ScaleGrid(4.0 ** (-3), 1.0, 10)
    res = truncation_gap_check(four_corners_3, np.zeros(len(four_corners_3)),
                               KernelConfig(1, 0.1, TRUNCATED), grid)
    assert res.max_gap == 0.0
    assert res.passed


def test_gap_check_single_point():
    mu = DiscreteMeasure([[0.0, 0.0]], [1.0], 1, 1e-3)
    grid = ScaleGrid(0.01, 1.0, 5)
    res = truncation_gap_check(mu, np.array([3.0]), KernelConfig(1, 0.1, TRUNCATED), grid)
    assert res.max_gap == 0.0
    assert res.passed


def test_gap_check_four_corners_level4(four_corners_4):
    grid = ScaleGrid(4.0 ** (-4), 1.0, 12)
    res = truncation_gap_check(four_corners_4, np.ones(len(four_corners_4)),
                               KernelConfig(1, 4.0 ** (-2), TRUNCATED), grid)
    assert res.passed
    assert 0.0 < res.max_ratio <= 1.0 + 1e-9


def test_gap_check_corpus_three_scales(corpus):
    rng = np.random.default_rng(21)
    for name, mu in corpus.items():
        diam = max(rl.support_diameter(mu), 8 * mu.resolution_h * 4)
        grid = ScaleGrid(mu.resolution_h, diam * 1.01, 14)
        f = rng.uniform(-2.0, 2.0, len(mu))
        for eps in (4 * mu.resolution_h, 8 * mu.resolution_h, 16 * mu.resolution_h):
            res = truncation_gap_check(mu, f, KernelConfig(mu.hausdorff_dim, eps, TRUNCATED), grid)
            assert res.passed, f"{name} eps={eps}"


def test_gap_check_rejects_a_kernel_n_other_than_the_measures():
    # G is measured against r**mu.n, the gap scaled by eps**-(cfg.n + 1):
    # with cfg.n != mu.n the bound is no bound, and a check of it fails
    # where the inequality holds
    mu = rl.gen_segment(64)
    eps = 4 * mu.resolution_h
    grid = ScaleGrid(mu.resolution_h, 1.0, 8)
    with pytest.raises(ValueError, match="hausdorff_dim"):
        truncation_gap_check(mu, np.ones(len(mu)), KernelConfig(2, eps, TRUNCATED), grid)


@pytest.mark.parametrize(
    "f, eps, match",
    [
        (np.array([1.0, np.nan, 1.0, 1.0]), 0.5, "f must be finite"),
        (np.ones(3), 0.5, "aligned with the measure"),
        (np.ones(4), 4.0, "within the grid range"),
    ],
    ids=["nan_f", "misaligned_f", "eps_outside_grid"],
)
def test_gap_check_rejects_bad_input(f, eps, match):
    mu = DiscreteMeasure(np.column_stack([np.arange(4.0) / 4, np.zeros(4)]), np.ones(4), 1, 0.25)
    with pytest.raises(ValueError, match=match):
        truncation_gap_check(mu, f, KernelConfig(1, eps, TRUNCATED), ScaleGrid(0.25, 1.0, 4))


# ---------------------------------------------------------------- vectorfield


def test_vector_field_roundtrip(tmp_path):
    field = VectorField(np.array([[1.0, -2.0], [0.25, 1e-17]]))
    path = tmp_path / "field.vec"
    write_vector_field(field, path)
    back = read_vector_field(path)
    assert np.array_equal(back.values, field.values)


def test_vector_field_rejects_nonfinite():
    with pytest.raises(ValueError):
        VectorField(np.array([[np.inf, 0.0]]))


def test_vector_field_file_rejects_zero_count(tmp_path):
    path = tmp_path / "empty.vec"
    path.write_text("# d=2 count=0\n")
    with pytest.raises(ValueError, match="at least one row"):
        read_vector_field(path)


def test_riesz_apply_rejects_nonfinite_targets():
    mu = two_points([0.0, 0.0], [1.0, 0.0])
    for target in ([np.nan, 0.0], [0.0, -np.inf]):
        with pytest.raises(ValueError, match="target coordinates must be finite"):
            riesz_apply(mu, np.ones(2), KernelConfig(1, 0.1), [target])


def test_maximal_function_rejects_nan_point():
    mu = two_points([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError, match="target coordinates must be finite"):
        maximal_function(mu, np.ones(2), [np.nan, 0.0], ScaleGrid(0.5, 2.0, 4))
