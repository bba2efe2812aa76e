"""Differential property tests: the fast paths against their dense oracles.

Measures are drawn on a lattice of spacing 1/4, so that duplicate points and
pairs exactly eps apart (eps a lattice distance) turn up often; both are
exact in binary, which puts the strict truncation boundary to the test.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rieszlab.analysis import (
    NonConvergenceError,
    _symmetrized_operator,
    dense_operator_norm,
    operator_norm,
)
from rieszlab.kernels import REGULARIZED, TRUNCATED, KernelConfig, adjoint_sum, kernel_sum, riesz_apply
from rieszlab.measure import DiscreteMeasure

SPACING = 0.25
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


def lattice_points(draw, d, min_size, max_size=16):
    cells = draw(st.lists(st.tuples(*[st.integers(0, 6)] * d), min_size=min_size, max_size=max_size))
    return SPACING * np.array(cells, dtype=float)


@st.composite
def measures_and_kernels(draw, min_size=2):
    """A lattice measure in d = 2 or 3 with positive weights, and a kernel
    whose eps is 1 to 4 lattice spacings."""
    d = draw(st.sampled_from([2, 3]))
    points = lattice_points(draw, d, min_size)
    span = np.linalg.norm(points.max(axis=0) - points.min(axis=0))
    assume(span > 0.0)  # a measure needs a positive resolution below its diameter
    weights = draw(st.lists(st.floats(0.1, 2.0), min_size=len(points), max_size=len(points)))
    mu = DiscreteMeasure(points, weights, draw(st.integers(1, d - 1)), min(SPACING, span))
    eps = SPACING * draw(st.integers(1, 4))
    return mu, KernelConfig(mu.hausdorff_dim, eps, draw(st.sampled_from([TRUNCATED, REGULARIZED])))


def weighted_ratio(mu, f, cfg):
    """|R f| / |f| in L2(mu), with R applied by direct summation."""
    field = riesz_apply(mu, f, cfg, mu.points)
    return np.sqrt(np.sum(field * field * mu.weights[:, None]) / np.sum(f * f * mu.weights))


@PROPERTY_SETTINGS
@given(case=measures_and_kernels(), cap=st.sampled_from([0, 60_000_000]))
def test_lanczos_norm_matches_dense_svd(case, cap):
    mu, cfg = case
    dense = dense_operator_norm(mu, cfg).value
    est = operator_norm(mu, cfg, tol=1e-10, max_iter=2000, dense_cache_cap=cap)
    assert abs(est.value - dense) <= 1e-10 * dense
    if est.value > 0.0:
        assert est.residual <= 1e-8
        assert weighted_ratio(mu, est.witness, cfg) == pytest.approx(est.value, rel=1e-12)


@PROPERTY_SETTINGS
@given(case=measures_and_kernels(), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_adjoint_sum_is_the_adjoint_of_kernel_sum(case, data, seed):
    mu, cfg = case
    targets = lattice_points(data.draw, mu.ambient_dim, 1)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(len(mu))
    fields = rng.standard_normal((len(targets), mu.ambient_dim))
    forward = kernel_sum(mu.points, f, cfg, targets)
    # small chunks so that the sums cross chunk boundaries
    adjoint = adjoint_sum(targets, fields, cfg, mu.points, target_chunk=3, source_chunk=5)
    lhs, rhs = float(np.sum(forward * fields)), float(f @ adjoint)
    scale = np.sum(np.abs(forward) * np.abs(fields)) + np.sum(np.abs(f) * np.abs(adjoint)) + 1e-300
    assert abs(lhs - rhs) <= 1e-13 * scale


@PROPERTY_SETTINGS
@given(case=measures_and_kernels(), seed=st.integers(0, 2**32 - 1))
def test_symmetrized_operator_paths_agree_and_are_adjoint(case, seed):
    mu, cfg = case
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(len(mu))
    v = rng.standard_normal(len(mu) * mu.ambient_dim)
    dense = _symmetrized_operator(mu, cfg, dense_cache_cap=60_000_000)
    direct = _symmetrized_operator(mu, cfg, dense_cache_cap=0)
    for op in (dense, direct):
        bu, btv = op.matvec(u), op.rmatvec(v)
        scale = np.abs(bu) @ np.abs(v) + np.abs(u) @ np.abs(btv) + 1e-300
        assert abs(bu @ v - u @ btv) <= 1e-13 * scale
    for got, want in ((direct.matvec(u), dense.matvec(u)), (direct.rmatvec(v), dense.rmatvec(v))):
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())


@PROPERTY_SETTINGS
@given(case=measures_and_kernels(min_size=8), max_iter=st.integers(1, 4))
def test_nonconvergence_witness_reproduces_its_value(case, max_iter):
    mu, cfg = case
    assume(dense_operator_norm(mu, cfg).value > 0.0)
    # the first Lanczos factorization alone takes min(N, 20) >= 8 products
    with pytest.raises(NonConvergenceError) as err:
        operator_norm(mu, cfg, tol=1e-10, max_iter=max_iter)
    est = err.value.estimate
    assert est.iterations == max_iter
    assert est.value > 0.0
    assert weighted_ratio(mu, est.witness, cfg) == pytest.approx(est.value, rel=1e-12)
