"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the value lines.
Every tolerance is fixed here; nothing is calibrated at run time.
"""

import dataclasses
import time

import numpy as np
import pytest

import rieszlab as rl
from conftest import build_mixed_measure, sparse_cantor_depth
from rieszlab.analysis import (
    curvature_c2,
    dense_operator_norm,
    norm_sweep,
    operator_norm,
)
from rieszlab.construction import (
    comparison_mismatch_ratio,
    density_params,
    run_construction,
    split_local_nonlocal,
    transfer_ball_averages,
    verify_construction,
)
from rieszlab.kernels import (
    REGULARIZED,
    TRUNCATED,
    KernelConfig,
    riesz_apply,
    truncation_gap_check,
)
from rieszlab.measure import DiscreteMeasure, ScaleGrid, ball_masses
from rieszlab.treecode import TreecodeParams, build_tree, treecode_apply


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPTANCE {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def scale_rel(approx, exact):
    return np.linalg.norm(approx - exact, axis=1).max() / np.linalg.norm(exact, axis=1).max()


@pytest.fixture(scope="module")
def mixed():
    return build_mixed_measure()


@pytest.fixture(scope="module")
def mixed_result(mixed):
    return run_construction(mixed, density_params(mixed, 2, 2))


# 1 -------------------------------------------------------------------------


def test_criterion_1_hilbert_calibration():
    t0 = time.perf_counter()
    mu = rl.gen_segment(4096)
    cfg = KernelConfig(1, 4 * mu.resolution_h, TRUNCATED)
    est = operator_norm(mu, cfg, tol=1e-7, max_iter=2000)
    rel = abs(est.value - np.pi) / np.pi
    elapsed = time.perf_counter() - t0
    report(
        1,
        rel <= 0.07 and elapsed <= 120.0,
        f"segment N=4096 eps=4h norm={est.value:.6f} vs pi, rel={rel:.4f} "
        f"({elapsed:.0f}s)",
    )


# 2 -------------------------------------------------------------------------


def test_criterion_2_dichotomy_trend():
    t0 = time.perf_counter()
    spreads = {}
    seg = rl.gen_segment(2048)
    graph = rl.gen_lipschitz_graph(1.0, 1.0, 1.0 / 2048.0, seed=11)
    for name, mu in (("segment", seg), ("graph", graph)):
        h = mu.resolution_h
        table = norm_sweep(mu, [4 * h, 8 * h, 16 * h], tol=1e-6)
        vals = [est.value for _, est in table]
        spreads[name] = max(vals) / min(vals)
    stable = all(s <= 1.10 for s in spreads.values())

    levels = [3, 4, 5, 6]
    norms = []
    for k in levels:
        mu = rl.gen_four_corners(k)
        cfg = KernelConfig(1, 4.0 * 4.0 ** (-k), TRUNCATED)
        norms.append(operator_norm(mu, cfg, tol=1e-6, max_iter=2000).value)
    increasing = all(a < b for a, b in zip(norms, norms[1:]))
    sq = np.array(norms) ** 2
    ks = np.array(levels, dtype=float)
    design = np.vstack([ks, np.ones_like(ks)]).T
    coef, *_ = np.linalg.lstsq(design, sq, rcond=None)
    pred = design @ coef
    r2 = 1.0 - ((sq - pred) ** 2).sum() / ((sq - sq.mean()) ** 2).sum()
    elapsed = time.perf_counter() - t0
    report(
        2,
        stable and increasing and coef[0] > 0 and r2 >= 0.9 and elapsed <= 600.0,
        f"spreads={ {k: round(v, 4) for k, v in spreads.items()} }, "
        f"corner norms={[round(v, 4) for v in norms]}, slope={coef[0]:.3f}, "
        f"R2={r2:.5f} ({elapsed:.0f}s)",
    )


# 3 -------------------------------------------------------------------------


def test_criterion_3_curvature_oracle():
    t0 = time.perf_counter()
    tri = DiscreteMeasure(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]]), np.ones(3), 1, 0.5
    )
    eq = curvature_c2(tri, mode="exact").value
    eq_ok = abs(eq - 18.0) <= 1e-12 * 18.0

    line = rl.gen_segment(64)
    collinear = curvature_c2(line, mode="exact").value
    col_ok = collinear == 0.0

    fc3 = rl.gen_four_corners(3)
    exact = curvature_c2(fc3, mode="exact")
    sampled = curvature_c2(fc3, mode="sampled", sample_count=150_000, seed=7)
    stderr = sampled.rel_stderr * sampled.value
    mc_ok = abs(sampled.value - exact.value) <= 3.0 * stderr
    elapsed = time.perf_counter() - t0
    report(
        3,
        eq_ok and col_ok and mc_ok and elapsed <= 60.0,
        f"equilateral={eq!r}, collinear={collinear!r}, "
        f"sampled={sampled.value:.4f} vs exact={exact.value:.4f} "
        f"(3se={3 * stderr:.4f}) ({elapsed:.0f}s)",
    )


# 4 -------------------------------------------------------------------------


def test_criterion_4_construction_verification(mixed, mixed_result):
    t0 = time.perf_counter()
    res = mixed_result

    # adaptive large-p member guarantees the family covers the support
    masses = ball_masses(mixed, mixed.points, res.params.grid.radii())
    p_star = int(np.ceil((res.params.grid.radii()[None, :] / masses).max())) + 1
    top = run_construction(mixed, density_params(mixed, p_star, 1))
    family = [res, top]
    rep = verify_construction(res, family=family, seed=17)

    # AD stability across two consecutive patch resolutions, same grid
    res_fine = run_construction(mixed, density_params(mixed, 2, 2), spacing_frac=1.0 / 32.0)
    spacing = min(p.spacing for p in res.patches)
    diam = rl.support_diameter(res.regularized_measure)
    grid = ScaleGrid(16.0 * spacing, diam, 24)
    coarse_ad = rl.ad_constants(res.regularized_measure, grid)
    fine_ad = rl.ad_constants(res_fine.regularized_measure, grid)
    ratio_lo = coarse_ad[0] / fine_ad[0]
    ratio_hi = coarse_ad[1] / fine_ad[1]
    ad_stable = 0.5 <= ratio_lo <= 2.0 and 0.5 <= ratio_hi <= 2.0

    # negative control: doubled proxy weights must break the matching
    bad = dataclasses.replace(
        res,
        proxy_measure=DiscreteMeasure(
            res.proxy_measure.points,
            2.0 * res.proxy_measure.weights,
            res.proxy_measure.hausdorff_dim,
            res.proxy_measure.resolution_h,
        ),
    )
    control_failed = not verify_construction(bad, seed=17).matching_pass

    elapsed = time.perf_counter() - t0
    ok = (
        rep.matching_pass
        and rep.matching_max_rel <= 1e-10
        and rep.color_disjoint_pass
        and rep.overlap_pass
        and rep.ad_pass
        and ad_stable
        and rep.domination_pass
        and control_failed
        and elapsed <= 300.0
    )
    report(
        4,
        ok,
        f"matching_rel={rep.matching_max_rel:.2e}, overlap={rep.max_overlap}<="
        f"{rep.overlap_cap}, ad={tuple(round(c, 3) for c in rep.ad_constants)}, "
        f"ad ratios=({ratio_lo:.3f},{ratio_hi:.3f}), domination_worst="
        f"{rep.domination_worst:.2e}, negative_control={'failed as required' if control_failed else 'DID NOT FAIL'} "
        f"({elapsed:.0f}s)",
    )


# 5 -------------------------------------------------------------------------


def test_criterion_5_exact_inequalities(mixed_result):
    t0 = time.perf_counter()
    rng = np.random.default_rng(29)

    corpus = {
        "segment": rl.gen_segment(1024),
        "plane": rl.gen_plane(2, 3, extent=1.0, spacing=1.0 / 21.0),
        "graph": rl.gen_lipschitz_graph(1.0, 1.0, 1.0 / 512.0, seed=11),
        "four_corners_3": rl.gen_four_corners(3),
        "four_corners_4": rl.gen_four_corners(4),
        "sparse_cantor_4": sparse_cantor_depth(4),
    }
    gap_ok = True
    worst_ratio = 0.0
    for name, mu in corpus.items():
        diam = rl.support_diameter(mu)
        grid = ScaleGrid(mu.resolution_h, diam * 1.01, 14)
        for f in (np.ones(len(mu)), rng.uniform(-2.0, 2.0, len(mu))):
            for eps in (4 * mu.resolution_h, 8 * mu.resolution_h, 16 * mu.resolution_h):
                res = truncation_gap_check(
                    mu, f, KernelConfig(mu.hausdorff_dim, eps, TRUNCATED), grid
                )
                gap_ok &= res.passed
                worst_ratio = max(worst_ratio, res.max_ratio)

    res = mixed_result
    sigma, proxy = res.patch_measure, res.proxy_measure
    pa = res.proxy_ball_of_point
    transfer_ok = True
    mismatch_ratios = []
    reg_cfg = KernelConfig(1, 4 * res.source.resolution_h, REGULARIZED)
    for draw in range(50):
        g = rng.standard_normal(len(sigma))
        f = transfer_ball_averages(g, proxy, sigma, res.cover)
        norm_f = np.sqrt(np.sum(f**2 * proxy.weights))
        norm_g = np.sqrt(np.sum(g**2 * sigma.weights))
        transfer_ok &= norm_f <= norm_g * (1 + 1e-12)
        if draw < 10:  # measured mismatch constant, reported without a bound
            mismatch_ratios.append(
                comparison_mismatch_ratio(f, g, proxy, sigma, res.cover, reg_cfg)[1]
            )

    cfg = KernelConfig(1, 4 * res.source.resolution_h, REGULARIZED)
    f = rng.uniform(-1.0, 1.0, len(proxy))
    local, nonlocal_ = split_local_nonlocal(proxy, res.cover, f, cfg, ball_of_point=pa)
    full = riesz_apply(proxy, f, cfg, proxy.points)
    split_err = np.abs(local.values + nonlocal_.values - full).max() / np.abs(full).max()
    split_ok = split_err <= 1e-12

    elapsed = time.perf_counter() - t0
    report(
        5,
        gap_ok and transfer_ok and split_ok,
        f"gap checks pass (worst gap/bound={worst_ratio:.3f}), transfer norm "
        f"inequality on 50 draws, local+nonlocal rel err={split_err:.2e}, "
        f"measured mismatch ratio max={max(mismatch_ratios):.3f} "
        f"({elapsed:.0f}s)",
    )


# 6 -------------------------------------------------------------------------


def test_criterion_6_treecode_certification(corpus):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)

    def targets_for(mu, count):
        lo, hi = mu.bbox()
        span = np.where(hi > lo, hi - lo, 1.0)
        return lo - 0.1 * span + rng.random((count, mu.ambient_dim)) * 1.2 * span

    errs = {}
    for name, mu in (("segment", rl.gen_segment(20000)), ("four_corners_7", rl.gen_four_corners(7))):
        f = np.ones(len(mu))
        cfg = KernelConfig(1, 4 * mu.resolution_h, TRUNCATED)
        params = TreecodeParams(opening_angle=0.2, leaf_cap=32, expansion_order=10)
        tree = build_tree(mu, params)
        targets = targets_for(mu, 100)
        direct = riesz_apply(mu, f, cfg, targets)
        fast = treecode_apply(mu, f, cfg, tree, params, targets)
        errs[name] = scale_rel(fast, direct)
    accuracy_ok = all(err <= 1e-6 for err in errs.values())

    tiny_ok = True
    for name, mu in corpus.items():
        if len(mu) > 5000:
            continue
        params = TreecodeParams(opening_angle=1e-9, leaf_cap=32)
        tree = build_tree(mu, params)
        f = np.ones(len(mu))
        cfg = KernelConfig(mu.hausdorff_dim, 4 * mu.resolution_h, TRUNCATED)
        targets = targets_for(mu, 30)
        direct = riesz_apply(mu, f, cfg, targets)
        fast = treecode_apply(mu, f, cfg, tree, params, targets)
        tiny_ok &= scale_rel(fast, direct) <= 1e-12

    big = rl.gen_segment(50000)
    f = np.ones(len(big))
    cfg = KernelConfig(1, 4 * big.resolution_h, TRUNCATED)
    params = TreecodeParams(opening_angle=0.3, leaf_cap=32)
    tree = build_tree(big, params)
    treecode_apply(big, f, cfg, tree, params, big.points[:16])  # warm-up call, kept out of the timing
    t_tree0 = time.perf_counter()
    treecode_apply(big, f, cfg, tree, params, big.points)
    t_tree = time.perf_counter() - t_tree0
    t_dir0 = time.perf_counter()
    riesz_apply(big, f, cfg, big.points)
    t_dir = time.perf_counter() - t_dir0
    speedup = t_dir / t_tree

    elapsed = time.perf_counter() - t0
    report(
        6,
        accuracy_ok and tiny_ok and speedup >= 5.0 and elapsed <= 300.0,
        f"theta=0.2 errs={ {k: f'{v:.1e}' for k, v in errs.items()} }, "
        f"theta=1e-9 matches to 1e-12: {tiny_ok}, speedup={speedup:.0f}x "
        f"(direct {t_dir:.0f}s vs treecode {t_tree:.2f}s) ({elapsed:.0f}s)",
    )


# 7 -------------------------------------------------------------------------


def test_criterion_7_vanishing_density():
    t0 = time.perf_counter()

    def min_density(mu):
        diam = rl.support_diameter(mu)
        grid = ScaleGrid(4 * mu.resolution_h, diam, 30)
        masses = ball_masses(mu, mu.points, grid.radii())
        ratios = masses / grid.radii()[None, :] ** mu.hausdorff_dim
        return float(ratios.min())

    shallow = min_density(sparse_cantor_depth(2))
    deep = min_density(sparse_cantor_depth(6))
    decay_ok = deep < 0.5 * shallow

    eps = 4.0 * 4.0 ** (-6)  # matched truncation radius for both measures
    sparse6 = sparse_cantor_depth(6)
    control = rl.gen_four_corners(6)
    norm_sparse = operator_norm(sparse6, KernelConfig(1, eps, TRUNCATED), tol=1e-6, max_iter=3000).value
    norm_control = operator_norm(control, KernelConfig(1, eps, TRUNCATED), tol=1e-6, max_iter=3000).value
    norm_ok = norm_sparse > norm_control

    elapsed = time.perf_counter() - t0
    report(
        7,
        decay_ok and norm_ok,
        f"min density depth2={shallow:.4f} depth6={deep:.4f} "
        f"(ratio {deep / shallow:.3f}), norms sparse={norm_sparse:.3f} > "
        f"control={norm_control:.3f} ({elapsed:.0f}s)",
    )


# 8 -------------------------------------------------------------------------


def test_criterion_8_spectral_oracle():
    t0 = time.perf_counter()
    small_corpus = {
        "segment_512": rl.gen_segment(512),
        "four_corners_3": rl.gen_four_corners(3),
        "four_corners_4": rl.gen_four_corners(4),
        "plane_484": rl.gen_plane(2, 3, extent=1.0, spacing=1.0 / 21.0),
        "graph_512": rl.gen_lipschitz_graph(1.0, 1.0, 1.0 / 512.0, seed=11),
        "sparse_cantor_4": sparse_cantor_depth(4),
    }
    worst = 0.0
    for name, mu in small_corpus.items():
        assert len(mu) <= 512, name
        cfg = KernelConfig(mu.hausdorff_dim, 4 * mu.resolution_h, TRUNCATED)
        dense = dense_operator_norm(mu, cfg).value
        power = operator_norm(mu, cfg, tol=1e-10, max_iter=5000).value
        worst = max(worst, abs(power - dense) / dense)
    elapsed = time.perf_counter() - t0
    report(8, worst <= 1e-6, f"worst power-vs-dense rel diff={worst:.2e} ({elapsed:.0f}s)")
