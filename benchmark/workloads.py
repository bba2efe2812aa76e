"""The four workloads: their inputs, timed operations and output checks.

A workload's ``setup`` makes its inputs from the seed (and writes the measure
files the CLI reads); ``operations`` lists the timed operations of one round;
``collect`` turns an operation's raw result into plain data (dicts, arrays,
numbers) that can be compared between rounds, outside the timed region;
``check`` runs the checks of checks.py on the first round's collected
outputs.  Every round runs the same operations on the same inputs.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

import rieszlab as rl
import rieszlab.analysis
import rieszlab.cli

import checks
from tracing import Capture


@dataclass
class Op:
    name: str
    run: Callable[[], object]


def _cli(argv: list) -> int:
    return rieszlab.cli.main([str(a) for a in argv])


def _expect_ok(code: int) -> None:
    if code != 0:
        raise RuntimeError(f"CLI exit code {code}")


def _artifact_rows(path: str) -> list[str]:
    with open(path) as fh:
        return [ln for ln in fh.read().splitlines() if ln and not ln.startswith("#")]


# metrics that only one workload measures, printed with the per-layer ones:
# name -> unit (see Workload.extra_metrics)
WORKLOAD_METRICS = {"norm_to_pi_s": "s", "targets_per_s": "targets/s"}


class Workload:
    name = ""

    def setup(self, seed: int, workdir: str) -> None:
        raise NotImplementedError

    def operations(self, round_dir: str) -> list[Op]:
        raise NotImplementedError

    def collect(self, name: str, raw):
        return raw

    def check(self, outputs: dict) -> dict[str, list[str]]:
        raise NotImplementedError

    def extra_metrics(self, rounds: list[dict[str, float]]) -> dict[str, tuple[float, str]]:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# norms: the CLI norm solver on the segment and on corner Cantor sets
# ---------------------------------------------------------------------------


class Norms(Workload):
    """CLI norm on the N=4096 segment (tol 1e-7) and four-corners levels 4-6 (tol 1e-6)."""

    name = "norms"
    # (operation, corner level or None for the segment, solver tolerance)
    CASES = (
        ("segment_4096", None, 1e-7),
        ("corners_4", 4, 1e-6),
        ("corners_5", 5, 1e-6),
        ("corners_6", 6, 1e-6),
    )
    SVD_LEVELS = (4, 5)
    _capture = None

    def setup(self, seed, workdir):
        self.measures, self.paths = {}, {}
        for name, level, _ in self.CASES:
            mu = rl.gen_segment(4096) if level is None else rl.gen_four_corners(level)
            path = os.path.join(workdir, f"{name}.measure")
            rl.write_measure(mu, path)
            self.measures[name], self.paths[name] = mu, path
        if self._capture is None:
            self._capture = Capture(rieszlab.analysis, "operator_norm")

    def operations(self, round_dir):
        ops = []
        for name, _, tol in self.CASES:
            out = os.path.join(round_dir, f"norm_{name}.csv")
            argv = ["norm", "--input", self.paths[name], "--tol", tol, "--max-iter", 2000, "--output", out]

            def run(argv=argv, out=out):
                self._capture.results.clear()
                code = _cli(argv)
                est = self._capture.results[-1] if self._capture.results else None
                return code, out, est

            ops.append(Op(name, run))
        return ops

    def collect(self, name, raw):
        code, out, est = raw
        _expect_ok(code)
        eps, value, iterations, _ = _artifact_rows(out)[1].split(",")
        return {
            "epsilon": float(eps),
            "norm": float(value),
            "iterations": int(iterations),
            "estimate": est.value,
            "witness": est.witness,
        }

    def check(self, outputs):
        errors = {}
        for name, level, _ in self.CASES:
            out, mu = outputs[name], self.measures[name]
            errs = []
            if out["estimate"] != out["norm"]:
                errs.append(f"artifact norm {out['norm']!r} != solver estimate {out['estimate']!r}")
            cfg = rl.KernelConfig(1, out["epsilon"], rl.TRUNCATED)
            field = rl.riesz_apply(mu, out["witness"], cfg, mu.points)
            sigma = None
            if level in self.SVD_LEVELS:
                sigma = checks.dense_sigma(mu.points, mu.weights, 1, out["epsilon"])
            errs += checks.check_norm(
                out["norm"], mu.weights, out["witness"], field, sigma=sigma, near_pi=level is None
            )
            errors[name] = errs
        corners = [name for name, level, _ in self.CASES if level is not None]
        for prev, name in zip(corners, corners[1:]):
            errors[name] += checks.check_rise([outputs[prev]["norm"], outputs[name]["norm"]])
        return errors

    def extra_metrics(self, rounds):
        return {"norm_to_pi_s": (float(np.median([r["segment_4096"] for r in rounds])), "s")}

    def close(self):
        if self._capture is not None:
            self._capture.close()


# ---------------------------------------------------------------------------
# treecode: tree build plus far-field traversal at every support point
# ---------------------------------------------------------------------------


class Treecode(Workload):
    """build_tree + treecode_apply at all points of three supports."""

    name = "treecode"
    THETA = 0.3
    SAMPLE = 256

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.cases = []
        for name, mu, mode, order in (
            ("segment_50000", rl.gen_segment(50000), rl.TRUNCATED, 10),
            ("corners_8", rl.gen_four_corners(8), rl.TRUNCATED, 10),
            ("plane_180", rl.gen_plane(2, 3, 1.0, 1.0 / 180.0), rl.REGULARIZED, 0),
        ):
            cfg = rl.KernelConfig(mu.hausdorff_dim, 4.0 * mu.resolution_h, mode)
            params = rl.TreecodeParams(opening_angle=self.THETA, expansion_order=order)
            # a positive density keeps far nodes' contributions coherent, so
            # that a dropped or mis-expanded node stands out of the absolute sum
            f = rng.uniform(1.0, 2.0, len(mu))
            sample = np.sort(rng.choice(len(mu), self.SAMPLE, replace=False))
            self.cases.append((name, mu, cfg, params, f, sample))
        self.targets = sum(len(mu) for _, mu, *_ in self.cases)

    def operations(self, round_dir):
        ops = []
        for name, mu, cfg, params, f, _ in self.cases:

            def run(mu=mu, cfg=cfg, params=params, f=f):
                tree = rl.build_tree(mu, params)
                return rl.treecode_apply(mu, f, cfg, tree, params, mu.points)

            ops.append(Op(name, run))
        return ops

    def check(self, outputs):
        errors = {}
        for name, mu, cfg, params, f, sample in self.cases:
            targets = mu.points[sample]
            exact = rl.riesz_apply(mu, f, cfg, targets)
            sums = checks.absolute_sums(
                mu.points, f * mu.weights, cfg.n, cfg.epsilon, cfg.mode == rl.REGULARIZED, targets
            )
            planar = mu.ambient_dim == 2 and cfg.n == 1
            bound = checks.treecode_bound(params.opening_angle, params.expansion_order, planar)
            field = outputs[name]
            if field.shape != mu.points.shape:
                errors[name] = [f"field shape {field.shape} != {mu.points.shape}"]
                continue
            errors[name] = checks.check_treecode(field[sample], exact, sums, bound)
        return errors

    def extra_metrics(self, rounds):
        per_round = [self.targets / sum(r.values()) for r in rounds]
        return {"targets_per_s": (float(np.median(per_round)), "targets/s")}


# ---------------------------------------------------------------------------
# construct: the CLI AD-regularization pipeline on the mixed measure
# ---------------------------------------------------------------------------


def mixed_measure(n_seg: int):
    """Segment of mass 12 plus four heavy points, each with rings of haze.

    The benchmark's own copy of the generator in tests/conftest.py.  At
    p = s = 2 the core is the segment, the targets are the four heavy
    points (weight 0.25), and the haze (weight 0.12, pairwise separations
    >= 0.4) lies outside the dense set.  Returns (measure, heavy indices).
    """
    parts, weights, heavy = [], [], []
    h = 1.0 / n_seg
    seg = np.zeros((n_seg, 2))
    seg[:, 0] = (np.arange(n_seg) + 0.5) * h
    parts.append(seg)
    weights.append(np.full(n_seg, 12.0 / n_seg))

    def size():
        return sum(p.shape[0] for p in parts)

    def ring(center, radius, count, phase):
        ang = phase + 2.0 * np.pi * np.arange(count) / count
        return center + radius * np.column_stack([np.cos(ang), np.sin(ang)])

    def cluster(center, phase):
        center = np.asarray(center, dtype=float)
        heavy.append(size())
        parts.append(center[None, :])
        weights.append(np.array([0.25]))
        for radius, count in ((0.5, 7), (0.9, 14), (1.3, 20)):
            parts.append(ring(center, radius, count, phase))
            weights.append(np.full(count, 0.12))
            phase += 0.37

    cluster((0.3, 3.0), phase=0.2)
    cluster((0.75, -2.6), phase=0.5)
    pair_mid = np.array([4.21, 2.0])
    heavy += [size(), size() + 1]
    parts.append(np.array([[4.0, 2.0], [4.42, 2.0]]))
    weights.append(np.array([0.25, 0.25]))
    phase = 0.11
    for radius, count in ((0.7, 10), (1.1, 17)):
        parts.append(ring(pair_mid, radius, count, phase))
        weights.append(np.full(count, 0.12))
        phase += 0.53
    mu = rl.DiscreteMeasure(np.vstack(parts), np.concatenate(weights), 1, h)
    return mu, np.asarray(heavy)


class Construct(Workload):
    """CLI construct (p = s = 2, family member on) on the mixed measure."""

    name = "construct"
    N_SEG = 4096
    P = S = 2
    GRID_COUNT = 28  # the CLI default

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.mu, self.heavy = mixed_measure(self.N_SEG)
        self.path = os.path.join(workdir, "mixed.measure")
        rl.write_measure(self.mu, self.path)
        haze = np.setdiff1d(np.arange(self.N_SEG, len(self.mu)), self.heavy)
        self.sample = np.concatenate(
            [np.sort(rng.choice(self.N_SEG, 32, replace=False)), self.heavy, np.sort(rng.choice(haze, 32, replace=False))]
        )

    def operations(self, round_dir):
        outdir = os.path.join(round_dir, "construct")
        out = os.path.join(round_dir, "construct.csv")
        argv = ["construct", "--input", self.path, "--p", self.P, "--s", self.S,
                "--outdir", outdir, "--output", out]
        return [Op("mixed", lambda: (_cli(argv), out, outdir))]

    def collect(self, name, raw):
        code, out, outdir = raw
        _expect_ok(code)
        rows = dict(ln.split(",", 1) for ln in _artifact_rows(out)[1:])
        with open(os.path.join(outdir, "manifest.json")) as fh:
            manifest = json.load(fh)
        regularized = np.loadtxt(os.path.join(outdir, "regularized.measure"), comments="#", ndmin=2)
        core = regularized[regularized.shape[0] - manifest["core_count"] :]
        return {"rows": rows, "manifest": manifest, "core_rows": core}

    def check(self, outputs):
        out = outputs["mixed"]
        radii = np.geomspace(4.0 * self.mu.resolution_h, checks.pairwise_diameter(self.mu.points), self.GRID_COUNT)
        errs = checks.check_construct(
            out["rows"], out["manifest"], out["core_rows"], self.mu.points, self.mu.weights,
            self.N_SEG, self.heavy, radii, self.P, self.S, self.sample,
        )
        return {"mixed": errs}


# ---------------------------------------------------------------------------
# gap_check: the regularized-vs-truncated inequality, direct sums and ball sums
# ---------------------------------------------------------------------------


SPARSE_RATIOS = [0.49, 0.485, 0.48, 0.475, 0.47, 0.465]


class GapCheck(Workload):
    """truncation_gap_check (eps = 4h, seeded f in [-2, 2]) on three measures."""

    name = "gap_check"
    GRID_COUNT = 24

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", rl.DecayTrendWarning)
            sparse = rl.gen_sparse_cantor(SPARSE_RATIOS, weight_exponent=1.5)
        self.cases = []
        for name, mu in (
            ("segment_4096", rl.gen_segment(4096)),
            ("corners_6", rl.gen_four_corners(6)),
            ("sparse_cantor_6", sparse),
        ):
            eps = 4.0 * mu.resolution_h
            lo, hi = mu.bbox()
            grid = rl.ScaleGrid(eps, float(np.linalg.norm(hi - lo)), self.GRID_COUNT)
            f = rng.uniform(-2.0, 2.0, len(mu))
            self.cases.append((name, mu, rl.KernelConfig(1, eps, rl.TRUNCATED), grid, f))

    def operations(self, round_dir):
        return [
            Op(name, lambda mu=mu, f=f, cfg=cfg, grid=grid: rl.truncation_gap_check(mu, f, cfg, grid))
            for name, mu, cfg, grid, f in self.cases
        ]

    def check(self, outputs):
        errors = {}
        for name, mu, cfg, grid, f in self.cases:
            radii = np.unique(np.append(grid.radii(), cfg.epsilon))
            gaps = checks.explicit_gaps(mu.points, f * mu.weights, cfg.n, cfg.epsilon)
            bounds = checks.explicit_bounds(mu.points, mu.weights, f, mu.hausdorff_dim, radii)
            errors[name] = checks.check_gap(outputs[name], gaps, bounds)
        return errors


WORKLOADS = {wl.name: wl for wl in (Norms, Treecode, Construct, GapCheck)}
