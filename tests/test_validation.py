"""Input checks of the public functions in one table, and edge paths that must not raise.

Every row is a call that must raise the named error; counts given as a
fraction or a bool must raise ValueError (measure._count), never numpy's
TypeError, so the CLI reports them as validation failures, while an
integral float is a count.
"""

import numpy as np
import pytest

import rieszlab as rl
from rieszlab.analysis import adjoint_apply, curvature_c2, dense_operator_norm, operator_norm
from rieszlab.construction import density_params
from rieszlab.kernels import TRUNCATED, KernelConfig, VectorField, kernel_eval
from rieszlab.measure import DiscreteMeasure, ScaleGrid, ball_mass, ball_masses, read_measure, restrict

SEGMENT = rl.gen_segment(16)
CFG = KernelConfig(1, 0.1, TRUNCATED)


def write_text(tmp_path, text):
    path = tmp_path / "m.measure"
    path.write_text(text)
    return path


def field_with(row, axis, value):
    """A raw field of ones on SEGMENT, whose axis 1 is dead, with one entry replaced."""
    field = np.ones((len(SEGMENT), 2))
    field[row, axis] = value
    return field


CASES = {
    # analysis
    "operator_norm_tol_high": (ValueError, lambda tmp: operator_norm(SEGMENT, CFG, tol=0.5)),
    "operator_norm_tol_zero": (ValueError, lambda tmp: operator_norm(SEGMENT, CFG, tol=0.0)),
    "dense_norm_one_point": (ValueError, lambda tmp: dense_operator_norm(rl.gen_segment(1), CFG)),
    "adjoint_misaligned_field": (ValueError, lambda tmp: adjoint_apply(SEGMENT, CFG, VectorField(np.zeros((3, 2))))),
    "adjoint_nan_field": (ValueError, lambda tmp: adjoint_apply(SEGMENT, CFG, field_with(3, 0, np.nan))),
    "adjoint_inf_on_dead_axis": (ValueError, lambda tmp: adjoint_apply(SEGMENT, CFG, field_with(3, 1, np.inf))),
    "curvature_unknown_mode": (ValueError, lambda tmp: curvature_c2(SEGMENT, mode="bogus")),
    "curvature_unknown_mode_two_points": (ValueError, lambda tmp: curvature_c2(rl.gen_segment(2), mode="bogus")),
    "curvature_fractional_samples": (ValueError, lambda tmp: curvature_c2(SEGMENT, "sampled", sample_count=2.5)),
    "curvature_string_samples": (ValueError, lambda tmp: curvature_c2(SEGMENT, "sampled", sample_count="5")),
    "kernel_unknown_mode": (ValueError, lambda tmp: KernelConfig(1, 0.1, "bogus")),
    # measure
    "density_params_floor_at_diameter": (ValueError, lambda tmp: density_params(SEGMENT, 2, 2, r_floor=2.0)),
    "ball_mass_zero_radius": (ValueError, lambda tmp: ball_mass(SEGMENT, [0.5, 0.0], 0.0)),
    "scale_grid_zero_floor": (ValueError, lambda tmp: ScaleGrid(0.0, 1.0, 4)),
    "measure_misaligned_weights": (ValueError, lambda tmp: DiscreteMeasure(np.zeros((3, 2)), np.ones(2), 1, 0.1)),
    "measure_nonfinite_points": (ValueError, lambda tmp: DiscreteMeasure([[0.0, 0.0], [np.nan, 1.0]], [1.0, 1.0], 1, 0.1)),
    "measure_nan_resolution": (ValueError, lambda tmp: DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0], 1, np.nan)),
    "measure_zero_resolution": (ValueError, lambda tmp: DiscreteMeasure([[0.0, 0.0], [1.0, 0.0]], [1.0, 1.0], 1, 0.0)),
    "restrict_misaligned_mask": (ValueError, lambda tmp: restrict(SEGMENT, np.ones(3, dtype=bool))),
    "restrict_index_out_of_range": (IndexError, lambda tmp: restrict(SEGMENT, [0, 16])),
    "restrict_negative_index": (IndexError, lambda tmp: restrict(SEGMENT, [-1, 2])),
    "restrict_callable_selector": (TypeError, lambda tmp: restrict(SEGMENT, lambda i: i < 5)),
    "restrict_fractional_indices": (TypeError, lambda tmp: restrict(SEGMENT, [0.5, 1.7])),
    "restrict_2d_indices": (ValueError, lambda tmp: restrict(SEGMENT, [[1, 2], [3, 4]])),
    "read_measure_empty_file": (ValueError, lambda tmp: read_measure(write_text(tmp, ""))),
    "read_measure_count_mismatch": (
        ValueError,
        lambda tmp: read_measure(write_text(tmp, "# d=2 n=1 count=2 h=0.5\n0 0 1\n")),
    ),
    # generators
    "plane_zero_spacing": (ValueError, lambda tmp: rl.gen_plane(1, 2, 1.0, 0.0)),
    "plane_negative_extent": (ValueError, lambda tmp: rl.gen_plane(1, 2, -1.0, 0.25)),
    "plane_fractional_n": (ValueError, lambda tmp: rl.gen_plane(1.5, 2, 1.0, 0.25)),
    "plane_string_n": (ValueError, lambda tmp: rl.gen_plane("1", 2, 1.0, 0.5)),
    "plane_string_d": (ValueError, lambda tmp: rl.gen_plane(1, "2", 1.0, 0.5)),
    "plane_inf_extent": (ValueError, lambda tmp: rl.gen_plane(1, 2, np.inf, 0.25)),
    "plane_nan_spacing": (ValueError, lambda tmp: rl.gen_plane(1, 2, 1.0, np.nan)),
    "plane_overflowing_cells": (ValueError, lambda tmp: rl.gen_plane(1, 2, 1e308, 1e-10)),
    "segment_zero_count": (ValueError, lambda tmp: rl.gen_segment(0)),
    "segment_fractional_count": (ValueError, lambda tmp: rl.gen_segment(2.5)),
    "segment_bool_count": (ValueError, lambda tmp: rl.gen_segment(True)),
    "segment_string_count": (ValueError, lambda tmp: rl.gen_segment("5")),
    "segment_fractional_d": (ValueError, lambda tmp: rl.gen_segment(4, d=2.5)),
    "four_corners_fractional_level": (ValueError, lambda tmp: rl.gen_four_corners(2.5)),
    "four_corners_bool_level": (ValueError, lambda tmp: rl.gen_four_corners(True)),
    "four_corners_string_level": (ValueError, lambda tmp: rl.gen_four_corners("2")),
    "graph_negative_slope": (ValueError, lambda tmp: rl.gen_lipschitz_graph(-0.5, 1.0, 0.125, 0)),
    "graph_zero_spacing": (ValueError, lambda tmp: rl.gen_lipschitz_graph(0.5, 1.0, 0.0, 0)),
    "graph_inf_extent": (ValueError, lambda tmp: rl.gen_lipschitz_graph(0.5, np.inf, 0.125, 0)),
    "graph_negative_extent": (ValueError, lambda tmp: rl.gen_lipschitz_graph(0.5, -1.0, 0.125, 0)),
    "graph_overflowing_cells": (ValueError, lambda tmp: rl.gen_lipschitz_graph(0.5, 1e308, 1e-10, 0)),
    "graph_inf_slope": (ValueError, lambda tmp: rl.gen_lipschitz_graph(np.inf, 1.0, 0.125, 0)),
    "graph_nan_slope": (ValueError, lambda tmp: rl.gen_lipschitz_graph(np.nan, 1.0, 0.125, 0)),
    "graph_n3": (ValueError, lambda tmp: rl.gen_lipschitz_graph(0.5, 1.0, 0.125, 0, n=3)),
    "graph_bool_n": (ValueError, lambda tmp: rl.gen_lipschitz_graph(0.5, 1.0, 0.125, 0, n=True)),
    "sparse_cantor_nine_levels": (ValueError, lambda tmp: rl.gen_sparse_cantor([0.3] * 9)),
    "sparse_cantor_zero_exponent": (ValueError, lambda tmp: rl.gen_sparse_cantor([0.3], weight_exponent=0.0)),
    "union_of_none": (ValueError, lambda tmp: rl.gen_union([], 1.0)),
    "union_negative_separation": (ValueError, lambda tmp: rl.gen_union([SEGMENT, SEGMENT], -1.0)),
    "union_zero_separation": (ValueError, lambda tmp: rl.gen_union([SEGMENT, SEGMENT], 0.0)),
    "union_nan_separation": (ValueError, lambda tmp: rl.gen_union([SEGMENT, SEGMENT], np.nan)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_invalid_input_raises(case, tmp_path):
    error, call = CASES[case]
    with pytest.raises(error):
        call(tmp_path)


def test_integral_float_counts_are_counts():
    assert rl.gen_segment(8.0, d=3.0).points.shape == (8, 3)
    surface = rl.gen_lipschitz_graph(0.5, 1.0, 0.125, 0, n=2.0)
    assert surface.points.tobytes() == rl.gen_lipschitz_graph(0.5, 1.0, 0.125, 0, n=2).points.tobytes()


def test_kernel_eval_generic_power():
    # n = 4 takes _inv_power's generic branch, r2 ** (-5 / 2)
    x = np.array([[3.0, 4.0, 0.0, 0.0, 0.0], [0.5, -1.0, 2.0, 0.25, 1.5]])
    want = x / np.linalg.norm(x, axis=1, keepdims=True) ** 5
    assert np.allclose(kernel_eval(x, KernelConfig(4, 1e-3, TRUNCATED)), want, rtol=1e-14, atol=0.0)


def test_ball_masses_of_no_centers():
    radii = np.array([0.1, 0.2, 0.4])
    assert ball_masses(SEGMENT, np.empty((0, 2)), radii).shape == (0, 3)
    stacked = np.vstack([SEGMENT.weights, np.arange(16.0)])
    assert ball_masses(SEGMENT, np.empty((0, 2)), radii, values=stacked).shape == (2, 0, 3)
