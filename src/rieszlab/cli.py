"""Command-line orchestration: generate corpora, run sweeps, build pipelines.

One command writes one artifact file (CSV with '#'-prefixed header lines:
tool version, config echo with every resolved parameter, input hash), plus a
result directory for `construct`.  Outputs are written atomically (temp file
in the target directory, then rename), so a failing run leaves no partial
artifact.  Exit codes: 0 success, 1 internal error (a defect, reported with
its traceback), 2 parameter validation failure (ValueError and its
subclasses: the validation errors of every module, malformed --config
files, and a cover overlap above its cap), 3 numerical non-convergence,
4 I/O failure.  A broken structural invariant (CoverInvariantError) or an
unsupported code path (NotImplementedError) is a defect and exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4


@dataclass
class ExperimentConfig:
    """Resolved parameters of one CLI invocation; echoed into the artifact."""

    command: str
    values: dict = field(default_factory=dict)

    def echo_lines(self) -> list[str]:
        lines = [f"command={self.command}"]
        for key in sorted(self.values):
            lines.append(f"{key}={self.values[key]}")
        return lines


def _hash_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _hash_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_atomic(path: str, write) -> None:
    """write(tmp) fills a temporary file beside path, which then replaces
    path; on any failure the temporary file is removed and path is untouched."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rieszlab-")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _artifact(path: str, config: ExperimentConfig, input_hash: str, header: str, rows: list[str]) -> None:
    from rieszlab import __version__

    lines = [f"# rieszlab {__version__}"]
    lines += [f"# {ln}" for ln in config.echo_lines()]
    lines.append(f"# input_sha256={input_hash}")
    lines.append(header)
    lines += rows
    _write_atomic(path, lambda tmp: Path(tmp).write_text("\n".join(lines) + "\n"))


def _load_measure(path: str):
    from rieszlab.measure import read_measure

    if not os.path.exists(path):
        raise FileNotFoundError(f"input measure {path!r} does not exist")
    return read_measure(path)


def _grid_from_args(mu, args):
    from rieszlab.measure import ScaleGrid, support_diameter

    r_min = args.r_min if args.r_min is not None else 4.0 * mu.resolution_h
    r_max = args.r_max if args.r_max is not None else support_diameter(mu)
    return ScaleGrid(r_min, r_max, args.grid_count)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_gen(args) -> int:
    from rieszlab import generators
    from rieszlab.measure import write_measure

    spec = (
        f"kind={args.kind} level={args.level} extent={args.extent} spacing={args.spacing} "
        f"count={args.count} slope={args.slope} seed={args.seed} ratios={args.ratios} "
        f"weight_exponent={args.weight_exponent} n={args.n} d={args.d} "
        f"separation={args.separation} inputs={args.inputs}"
    )
    if args.kind == "plane":
        mu = generators.gen_plane(args.n, args.d, args.extent, args.spacing)
    elif args.kind == "segment":
        mu = generators.gen_segment(args.count, d=args.d)
    elif args.kind == "lipschitz-graph":
        mu = generators.gen_lipschitz_graph(args.slope, args.extent, args.spacing, args.seed, n=args.n)
    elif args.kind == "four-corners":
        mu = generators.gen_four_corners(args.level)
    elif args.kind == "sparse-cantor":
        ratios = [float(tok) for tok in args.ratios.split(",")] if args.ratios else []
        mu = generators.gen_sparse_cantor(ratios, weight_exponent=args.weight_exponent)
    elif args.kind == "union":
        if not args.inputs:
            raise ValueError("union needs --inputs")
        parts = [_load_measure(p) for p in args.inputs]
        mu = generators.gen_union(parts, args.separation)
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    config = ExperimentConfig("gen", {"kind": args.kind, "spec": spec})
    comments = config.echo_lines() + [f"input_sha256={_hash_text(spec)}"]
    # measure format already starts with its own '#' header line
    _write_atomic(args.output, lambda tmp: write_measure(mu, tmp, extra_comments=comments))
    return EXIT_OK


def _cmd_density(args) -> int:
    from rieszlab.measure import density_profile

    mu = _load_measure(args.input)
    grid = _grid_from_args(mu, args)
    if args.center:
        x = [float(tok) for tok in args.center.split(",")]
    else:
        x = mu.points[args.point_index]
    profile = density_profile(mu, x, grid)
    config = ExperimentConfig(
        "density",
        {
            "input": args.input,
            "center": list(map(float, x)),
            "r_min": grid.r_min,
            "r_max": grid.r_max,
            "grid_count": grid.count,
        },
    )
    rows = [f"{r:.17g},{ratio:.17g}" for r, ratio in profile]
    rows.append(f"# upper_proxy={profile[:, 1].max():.17g} lower_proxy={profile[:, 1].min():.17g}")
    _artifact(args.output, config, _hash_file(args.input), "r,ratio", rows)
    return EXIT_OK


def _norm_row(eps: float, est) -> str:
    return f"{eps:.17g},{est.value:.17g},{est.iterations},{est.residual:.17g}"


def _cmd_norm(args) -> int:
    from rieszlab.analysis import dense_operator_norm, operator_norm
    from rieszlab.kernels import KernelConfig

    mu = _load_measure(args.input)
    eps = args.epsilon if args.epsilon is not None else 4.0 * mu.resolution_h
    cfg = KernelConfig(mu.hausdorff_dim, eps, args.mode)
    if args.method == "dense-decomposition":
        est = dense_operator_norm(mu, cfg)
    else:
        est = operator_norm(mu, cfg, tol=args.tol, max_iter=args.max_iter)
    config = ExperimentConfig(
        "norm",
        {
            "input": args.input,
            "epsilon": eps,
            "mode": args.mode,
            "method": args.method,
            "tol": args.tol,
            "max_iter": args.max_iter,
        },
    )
    _artifact(
        args.output, config, _hash_file(args.input), "epsilon,norm,iterations,residual",
        [_norm_row(eps, est)],
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from rieszlab.analysis import norm_sweep

    mu = _load_measure(args.input)
    epsilons = [float(tok) for tok in args.epsilons.split(",")]
    table = norm_sweep(mu, epsilons, tol=args.tol, mode=args.mode, max_iter=args.max_iter)
    config = ExperimentConfig(
        "sweep",
        {
            "input": args.input,
            "epsilons": epsilons,
            "mode": args.mode,
            "tol": args.tol,
            "max_iter": args.max_iter,
        },
    )
    rows = [_norm_row(eps, est) for eps, est in table]
    _artifact(args.output, config, _hash_file(args.input), "epsilon,norm,iterations,residual", rows)
    return EXIT_OK


def _cmd_curvature(args) -> int:
    from rieszlab.analysis import curvature_c2

    mu = _load_measure(args.input)
    est = curvature_c2(mu, mode=args.mode, sample_count=args.samples, seed=args.seed)
    config = ExperimentConfig(
        "curvature",
        {"input": args.input, "mode": args.mode, "samples": args.samples, "seed": args.seed},
    )
    stderr = est.rel_stderr * est.value
    rows = [f"{est.mode},{est.value:.17g},{est.triples_evaluated},{stderr:.17g}"]
    _artifact(args.output, config, _hash_file(args.input), "mode,value,triples,stderr", rows)
    return EXIT_OK


def _cmd_construct(args) -> int:
    from rieszlab.construction import (
        adaptive_family,
        density_params,
        run_construction,
        save_construction,
        verify_construction,
    )

    mu = _load_measure(args.input)
    params = density_params(mu, args.p, args.s, count=args.grid_count, r_floor=args.r_min)
    result = run_construction(
        mu,
        params,
        spacing_frac=1.0 / args.patch_cells,
        plane_policy=args.plane_policy,
        extent_factor=args.extent_factor,
    )
    family = [result] if args.no_family else adaptive_family(result)
    report = verify_construction(result, family=family, seed=args.seed)
    if args.outdir:
        save_construction(result, args.outdir, report)
    config = ExperimentConfig(
        "construct",
        {
            "input": args.input,
            "p": args.p,
            "s": args.s,
            "grid_count": args.grid_count,
            "patch_cells": args.patch_cells,
            "plane_policy": args.plane_policy,
            "extent_factor": args.extent_factor,
            "family_size": len(family),
            "outdir": args.outdir,
            "seed": args.seed,
        },
    )
    rep = report.to_dict()
    rows = [f"{key},{rep[key]}" for key in sorted(rep)]
    rows.append(f"all_pass,{report.all_pass()}")
    _artifact(args.output, config, _hash_file(args.input), "check,value", rows)
    return EXIT_OK


def _cmd_joint(args) -> int:
    from rieszlab.analysis import joint_norm_experiment
    from rieszlab.kernels import KernelConfig

    mu = _load_measure(args.input_a)
    sigma = _load_measure(args.input_b)
    eps = args.epsilon if args.epsilon is not None else 4.0 * max(mu.resolution_h, sigma.resolution_h)
    cfg = KernelConfig(mu.hausdorff_dim, eps, args.mode)
    res = joint_norm_experiment(mu, sigma, cfg, tol=args.tol, max_iter=args.max_iter)
    config = ExperimentConfig(
        "joint",
        {
            "input_a": args.input_a,
            "input_b": args.input_b,
            "epsilon": eps,
            "mode": args.mode,
            "tol": args.tol,
            "max_iter": args.max_iter,
        },
    )
    combined_hash = _hash_text(_hash_file(args.input_a) + _hash_file(args.input_b))
    rows = [
        f"first,{res.norm_first.value:.17g},{res.norm_first.iterations},{res.norm_first.residual:.17g}",
        f"second,{res.norm_second.value:.17g},{res.norm_second.iterations},{res.norm_second.residual:.17g}",
        f"sum,{res.norm_sum.value:.17g},{res.norm_sum.iterations},{res.norm_sum.residual:.17g}",
    ]
    _artifact(args.output, config, combined_hash, "component,norm,iterations,residual", rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rieszlab", description=__doc__)
    parser.add_argument("--config", default=None,
                        help="JSON file whose keys (kebab- or snake-case) override flags")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a measure file")
    g.add_argument("--kind", required=True,
                   choices=["plane", "segment", "lipschitz-graph", "four-corners", "sparse-cantor", "union"])
    g.add_argument("--level", type=int, default=3)
    g.add_argument("--extent", type=float, default=1.0)
    g.add_argument("--spacing", type=float, default=1.0 / 64.0)
    g.add_argument("--count", type=int, default=1024)
    g.add_argument("--slope", type=float, default=1.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--ratios", type=str, default="")
    g.add_argument("--weight-exponent", type=float, default=1.0)
    g.add_argument("--n", type=int, default=1)
    g.add_argument("--d", type=int, default=2)
    g.add_argument("--separation", type=float, default=10.0)
    g.add_argument("--inputs", nargs="*", default=[])
    g.add_argument("--output", required=True)
    g.set_defaults(func=_cmd_gen)

    dn = sub.add_parser("density", help="density profile at a point")
    dn.add_argument("--input", required=True)
    dn.add_argument("--center", type=str, default="")
    dn.add_argument("--point-index", type=int, default=0)
    dn.add_argument("--r-min", type=float, default=None)
    dn.add_argument("--r-max", type=float, default=None)
    dn.add_argument("--grid-count", type=int, default=24)
    dn.add_argument("--output", required=True)
    dn.set_defaults(func=_cmd_density)

    nm = sub.add_parser("norm", help="operator norm at one truncation radius")
    nm.add_argument("--input", required=True)
    nm.add_argument("--epsilon", type=float, default=None)
    nm.add_argument("--mode", choices=["truncated", "regularized"], default="truncated")
    nm.add_argument("--method", choices=["lanczos", "dense-decomposition"], default="lanczos")
    nm.add_argument("--tol", type=float, default=1e-6)
    nm.add_argument("--max-iter", type=int, default=500)
    nm.add_argument("--output", required=True)
    nm.set_defaults(func=_cmd_norm)

    sw = sub.add_parser("sweep", help="operator norms across truncation radii")
    sw.add_argument("--input", required=True)
    sw.add_argument("--epsilons", required=True, help="comma-separated radii")
    sw.add_argument("--mode", choices=["truncated", "regularized"], default="truncated")
    sw.add_argument("--tol", type=float, default=1e-6)
    sw.add_argument("--max-iter", type=int, default=500)
    sw.add_argument("--output", required=True)
    sw.set_defaults(func=_cmd_sweep)

    cv = sub.add_parser("curvature", help="triple-integral curvature")
    cv.add_argument("--input", required=True)
    cv.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    cv.add_argument("--samples", type=int, default=200000)
    cv.add_argument("--seed", type=int, default=0)
    cv.add_argument("--output", required=True)
    cv.set_defaults(func=_cmd_curvature)

    ct = sub.add_parser("construct", help="run the regularization pipeline")
    ct.add_argument("--input", required=True)
    ct.add_argument("--p", type=int, default=2)
    ct.add_argument("--s", type=int, default=2)
    ct.add_argument("--r-min", type=float, default=None)
    ct.add_argument("--grid-count", type=int, default=28)
    ct.add_argument("--patch-cells", type=int, default=16)
    ct.add_argument("--plane-policy", choices=["least-squares", "fixed-axis"],
                    default="least-squares")
    ct.add_argument("--extent-factor", type=float, default=3.0)
    ct.add_argument("--seed", type=int, default=7)
    ct.add_argument("--no-family", action="store_true",
                    help="check domination against this run alone")
    ct.add_argument("--outdir", default="")
    ct.add_argument("--output", required=True)
    ct.set_defaults(func=_cmd_construct)

    jt = sub.add_parser("joint", help="two-measure norm experiment")
    jt.add_argument("--input-a", required=True)
    jt.add_argument("--input-b", required=True)
    jt.add_argument("--epsilon", type=float, default=None)
    jt.add_argument("--mode", choices=["truncated", "regularized"], default="truncated")
    jt.add_argument("--tol", type=float, default=1e-6)
    jt.add_argument("--max-iter", type=int, default=500)
    jt.add_argument("--output", required=True)
    jt.set_defaults(func=_cmd_joint)

    return parser


_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _config_value(action: argparse.Action, key: str, value):
    """A --config value checked against its flag's type and choices, as
    argparse checks a command-line value; a mismatch is a ValueError."""
    if action.nargs == 0:  # a store_true switch
        if not isinstance(value, bool):
            raise ValueError(f"config key {key!r} needs true or false, got {value!r}")
        return value
    if value is None and action.default is None:
        return None
    many = action.nargs in ("*", "+")
    if many and not isinstance(value, list):
        raise ValueError(f"config key {key!r} needs a list, got {value!r}")
    convert = action.type or str
    items = value if many else [value]
    for item in items:
        if isinstance(item, bool) or not isinstance(item, _JSON_TYPES[convert]):
            raise ValueError(f"config key {key!r} needs a {convert.__name__}, got {item!r}")
        if action.choices is not None and item not in action.choices:
            raise ValueError(f"config key {key!r} must be one of {list(action.choices)}, got {item!r}")
    items = [convert(item) for item in items]
    return items if many else items[0]


def _apply_config_file(args, parser: argparse.ArgumentParser) -> None:
    import json

    with open(args.config) as fh:
        overrides = json.load(fh)
    if not isinstance(overrides, dict):
        raise ValueError("a --config file must hold one JSON object")
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    actions = {a.dest: a for a in commands.choices[args.command]._actions if a.dest != "help"}
    for key, value in overrides.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            raise ValueError(f"config key {key!r} does not match any flag of {args.command}")
        setattr(args, action.dest, _config_value(action, key, value))


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _apply_config_file(args, parser)
        return args.func(args)
    except OSError as exc:
        print(f"rieszlab: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"rieszlab: invalid configuration: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:
        from rieszlab.analysis import NonConvergenceError

        if isinstance(exc, NonConvergenceError):
            print(f"rieszlab: non-convergence: {exc}", file=sys.stderr)
            return EXIT_NONCONVERGENCE
        traceback.print_exc()
        print(f"rieszlab: internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
