"""Each output check passes the program's output and fails a perturbed one.

Run from the repository root:

    python3 -m pytest -q benchmark

The inputs are smaller than the benchmark's so that the file runs in well
under a minute; the check functions are the ones the benchmark uses.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import rieszlab as rl  # noqa: E402
import rieszlab.measure  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


# -- norms --------------------------------------------------------------------


def _norm_case(mu, tol):
    cfg = rl.KernelConfig(1, 4.0 * mu.resolution_h, rl.TRUNCATED)
    est = rl.operator_norm(mu, cfg, tol=tol, max_iter=2000)
    field = rl.riesz_apply(mu, est.witness, cfg, mu.points)
    return est, field, checks.dense_sigma(mu.points, mu.weights, 1, cfg.epsilon)


@pytest.fixture(scope="module")
def corners_4():
    mu = rl.gen_four_corners(4)
    return (mu,) + _norm_case(mu, 1e-6)


@pytest.fixture(scope="module")
def segment_1024():
    mu = rl.gen_segment(1024)
    return (mu,) + _norm_case(mu, 1e-7)


def test_norm_check_passes_solver_output(corners_4, segment_1024):
    mu, est, field, sigma = corners_4
    assert checks.check_norm(est.value, mu.weights, est.witness, field, sigma=sigma) == []
    mu, est, field, sigma = segment_1024
    assert checks.check_norm(est.value, mu.weights, est.witness, field, sigma=sigma, near_pi=True) == []


@pytest.mark.parametrize("scale", [1.0 + 1e-6, 1.0 - 1e-6])
def test_norm_check_catches_scaled_norm(corners_4, scale):
    mu, est, field, sigma = corners_4
    errors = checks.check_norm(est.value * scale, mu.weights, est.witness, field, sigma=sigma)
    assert any("witness" in e for e in errors)


def test_norm_check_catches_norm_above_sigma(corners_4):
    mu, est, field, sigma = corners_4
    errors = checks.check_norm(sigma * 1.001, mu.weights, est.witness, field * (sigma * 1.001 / est.value), sigma=sigma)
    assert errors == [f"norm {sigma * 1.001!r} exceeds the dense-SVD sigma {sigma!r}"]


def test_norm_check_catches_early_stop(corners_4):
    # a weaker witness is a true lower bound, but one that stops short of sigma
    mu, est, _, sigma = corners_4
    cfg = rl.KernelConfig(1, 4.0 * mu.resolution_h, rl.TRUNCATED)
    early = rl.operator_norm(mu, cfg, tol=1e-2, max_iter=2000)
    field = rl.riesz_apply(mu, early.witness, cfg, mu.points)
    errors = checks.check_norm(early.value, mu.weights, early.witness, field, sigma=sigma)
    assert len(errors) == 1 and "falls short" in errors[0]


def test_norm_check_catches_segment_far_from_pi(segment_1024):
    mu, est, field, _ = segment_1024
    errors = checks.check_norm(est.value * 1.1, mu.weights, est.witness, field * 1.1, near_pi=True)
    assert len(errors) == 1 and "pi" in errors[0]


def test_rise_check():
    assert checks.check_rise([1.43, 1.67, 1.88]) == []
    assert len(checks.check_rise([1.43, 1.67, 1.67])) == 1
    assert len(checks.check_rise([1.67, 1.43, 1.88])) == 1


# -- treecode -----------------------------------------------------------------


@pytest.mark.parametrize(
    "mu, mode, order",
    [
        (rl.gen_segment(8192), rl.TRUNCATED, 10),
        (rl.gen_plane(2, 3, 1.0, 1.0 / 48.0), rl.REGULARIZED, 0),
    ],
    ids=["planar", "monopole"],
)
def test_treecode_check_catches_dropped_node(mu, mode, order):
    rng = np.random.default_rng(3)
    cfg = rl.KernelConfig(mu.hausdorff_dim, 4.0 * mu.resolution_h, mode)
    params = rl.TreecodeParams(opening_angle=0.3, expansion_order=order)
    f = rng.uniform(1.0, 2.0, len(mu))
    sample = np.sort(rng.choice(len(mu), 64, replace=False))
    tree = rl.build_tree(mu, params)
    field = rl.treecode_apply(mu, f, cfg, tree, params, mu.points)
    targets = mu.points[sample]
    exact = rl.riesz_apply(mu, f, cfg, targets)
    sums = checks.absolute_sums(mu.points, f * mu.weights, cfg.n, cfg.epsilon, mode == rl.REGULARIZED, targets)
    bound = checks.treecode_bound(0.3, order, planar=mode == rl.TRUNCATED)
    assert checks.check_treecode(field[sample], exact, sums, bound) == []

    # drop, at the first sampled target, the node outside it that adds the most
    where = int(np.flatnonzero(tree.perm == sample[0])[0])
    fw = (f * mu.weights)[tree.perm]
    best = None
    for node in range(tree.n_nodes):
        s, e = tree.start[node], tree.end[node]
        if s <= where < e:
            continue
        part = rl.kernels.kernel_sum(tree.points[s:e], fw[s:e], cfg, targets[:1])[0]
        if best is None or np.linalg.norm(part) > np.linalg.norm(best):
            best = part
    dropped = field[sample].copy()
    dropped[0] -= best
    assert len(checks.check_treecode(dropped, exact, sums, bound)) == 1


# -- construct ----------------------------------------------------------------


@pytest.fixture(scope="module")
def construct_run(tmp_path_factory):
    wl = workloads.Construct()
    wl.N_SEG = 512
    base = tmp_path_factory.mktemp("construct")
    wl.setup(5, str(base))
    (op,) = wl.operations(str(base))
    return wl, wl.collect(op.name, op.run())


def _perturbed(out, **changes):
    new = {"rows": dict(out["rows"]), "manifest": dict(out["manifest"]), "core_rows": out["core_rows"].copy()}
    for key, value in changes.items():
        part, field = key.split("__")
        new[part][field] = value
    return new


def _radii(wl):
    return np.geomspace(4.0 * wl.mu.resolution_h, checks.pairwise_diameter(wl.mu.points), wl.GRID_COUNT)


def test_construct_check_passes_cli_output(construct_run):
    wl, out = construct_run
    assert wl.check({"mixed": out}) == {"mixed": []}


@pytest.mark.parametrize(
    "changes",
    [
        {"rows__all_pass": "False"},
        {"rows__coverage_pass": "False"},
        {"manifest__core_count": 511},
        {"manifest__centers": [0, 1, 2, 3]},
    ],
    ids=["all_pass", "one_flag", "core_count", "centers"],
)
def test_construct_check_catches_flipped_output(construct_run, changes):
    wl, out = construct_run
    assert wl.check({"mixed": _perturbed(out, **changes)})["mixed"]


def test_construct_check_catches_wrong_core(construct_run):
    wl, out = construct_run
    bad = _perturbed(out)
    bad["core_rows"][7, 0] += 1e-3
    assert wl.check({"mixed": bad})["mixed"] == ["the core part of regularized.measure is not the segment"]


def test_dense_membership_recomputation_matches_design(construct_run):
    wl, _ = construct_run
    haze = np.setdiff1d(np.arange(wl.N_SEG, len(wl.mu)), wl.heavy)
    got = checks.dense_membership(wl.mu.points, wl.mu.weights, 1, 2, _radii(wl), haze)
    assert not got.any()
    assert checks.dense_membership(wl.mu.points, wl.mu.weights, 1, 2, _radii(wl), wl.heavy).all()


# -- gap check ----------------------------------------------------------------


@pytest.fixture(scope="module", params=["segment", "corners"])
def gap_run(request):
    mu = rl.gen_segment(512) if request.param == "segment" else rl.gen_four_corners(4)
    f = np.random.default_rng(9).uniform(-2.0, 2.0, len(mu))
    eps = 4.0 * mu.resolution_h
    lo, hi = mu.bbox()
    grid = rl.ScaleGrid(eps, float(np.linalg.norm(hi - lo)), 24)
    cfg = rl.KernelConfig(1, eps, rl.TRUNCATED)
    result = rl.truncation_gap_check(mu, f, cfg, grid)
    radii = np.unique(np.append(grid.radii(), eps))
    gaps = checks.explicit_gaps(mu.points, f * mu.weights, 1, eps)
    bounds = checks.explicit_bounds(mu.points, mu.weights, f, 1, radii)
    return result, gaps, bounds


def test_gap_check_passes_program_output(gap_run):
    result, gaps, bounds = gap_run
    assert checks.check_gap(result, gaps, bounds) == []


@pytest.mark.parametrize(
    "changes",
    [
        lambda r: {"bound": r.bound / 2.0},
        lambda r: {"max_gap": r.max_gap * (1.0 + 1e-6)},
        lambda r: {"max_ratio": r.max_ratio * 2.0},
        lambda r: {"passed": False},
    ],
    ids=["bound_halved", "gap_scaled", "ratio_doubled", "not_passed"],
)
def test_gap_check_catches_perturbed_result(gap_run, changes):
    result, gaps, bounds = gap_run
    assert checks.check_gap(dataclasses.replace(result, **changes(result)), gaps, bounds)


# -- harness ------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_restores_it():
    original = rieszlab.measure.ball_masses
    tracer = Tracer()
    try:
        assert rl.construction.ball_masses is rl.kernels.ball_masses is rl.ball_masses
        assert rl.ball_masses is not original
        mu = rl.gen_segment(64)
        rl.growth_constant(mu, rl.ScaleGrid(4.0 * mu.resolution_h, 0.5, 4))
    finally:
        tracer.close()
    assert rl.construction.ball_masses is original and rl.ball_masses is original
    metrics = tracer.layer_metrics()
    assert metrics["measure.ball_masses_calls"] == (1, "count")
    assert metrics["measure.ball_pairs"] == (64.0 * 64.0, "count")
    assert metrics["generators.gen_s"][0] > 0.0


def test_run_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "norms", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
