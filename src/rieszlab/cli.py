"""Command-line orchestration: generate corpora, run sweeps, build pipelines.

One command writes one artifact file (CSV with '#'-prefixed header lines:
tool version, config echo with every resolved parameter, input hash), plus a
result directory for `construct`.  The echo is every parsed flag but
--output and --config, under its dest name, with the values the command
resolved (a default epsilon, the radius grid, ...) in place of the parsed
ones; no command lists its keys.  Outputs are written atomically (temp file
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
from pathlib import Path

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_VALIDATION = 2
EXIT_NONCONVERGENCE = 3
EXIT_IO = 4

_NOT_ECHOED = ("command", "func", "config", "output")


def _echo(args, resolved: dict) -> list[str]:
    """command=<name>, then key=value for every parsed flag but --output and
    --config, sorted by key, with the values in `resolved` overlaid."""
    values = {k: v for k, v in vars(args).items() if k not in _NOT_ECHOED}
    values.update(resolved)
    return [f"command={args.command}"] + [f"{k}={values[k]}" for k in sorted(values)]


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


def _artifact(args, resolved: dict, input_hash: str, header: str, rows: list[str]) -> None:
    """Write args.output: version, echo, input hash, then the CSV table."""
    from rieszlab import __version__

    lines = [f"# rieszlab {__version__}"]
    lines += [f"# {ln}" for ln in _echo(args, resolved)]
    lines.append(f"# input_sha256={input_hash}")
    lines.append(header)
    lines += rows
    _write_atomic(args.output, lambda tmp: Path(tmp).write_text("\n".join(lines) + "\n"))


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
    echo = _echo(args, {})
    if args.kind == "union":  # the inputs' contents, as joint hashes them
        input_hash = _hash_text("".join(_hash_file(p) for p in args.inputs))
    else:
        input_hash = _hash_text("\n".join(echo))
    comments = echo + [f"input_sha256={input_hash}"]
    # measure format already starts with its own '#' header line
    _write_atomic(args.output, lambda tmp: write_measure(mu, tmp, extra_comments=comments))
    return EXIT_OK


def _cmd_density(args) -> int:
    from rieszlab.measure import density_profile

    mu = _load_measure(args.input)
    grid = _grid_from_args(mu, args)
    if args.center:
        x = [float(tok) for tok in args.center.split(",")]
    elif 0 <= args.point_index < len(mu):
        x = mu.points[args.point_index]
    else:
        raise ValueError(f"--point-index {args.point_index} lies outside 0..{len(mu) - 1}")
    profile = density_profile(mu, x, grid)
    rows = [f"{r:.17g},{ratio:.17g}" for r, ratio in profile]
    rows.append(f"# upper_proxy={profile[:, 1].max():.17g} lower_proxy={profile[:, 1].min():.17g}")
    resolved = {"center": list(map(float, x)), "r_min": grid.r_min, "r_max": grid.r_max}
    _artifact(args, resolved, _hash_file(args.input), "r,ratio", rows)
    return EXIT_OK


def _norm_cells(est) -> str:
    """The norm, iterations and residual cells of a norm, sweep or joint row."""
    return f"{est.value:.17g},{est.iterations},{est.residual:.17g}"


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
    row = f"{eps:.17g},{_norm_cells(est)}"
    resolved = {"epsilon": eps, "method": est.method}
    _artifact(args, resolved, _hash_file(args.input), "epsilon,norm,iterations,residual", [row])
    return EXIT_OK


def _cmd_sweep(args) -> int:
    from rieszlab.analysis import norm_sweep

    mu = _load_measure(args.input)
    epsilons = [float(tok) for tok in args.epsilons.split(",")]
    table = norm_sweep(mu, epsilons, tol=args.tol, mode=args.mode, max_iter=args.max_iter)
    rows = [f"{eps:.17g},{_norm_cells(est)}" for eps, est in table]
    _artifact(args, {"epsilons": epsilons}, _hash_file(args.input), "epsilon,norm,iterations,residual", rows)
    return EXIT_OK


def _cmd_curvature(args) -> int:
    from rieszlab.analysis import curvature_c2

    mu = _load_measure(args.input)
    est = curvature_c2(mu, mode=args.mode, sample_count=args.samples, seed=args.seed)
    stderr = est.rel_stderr * est.value
    rows = [f"{est.mode},{est.value:.17g},{est.triples_evaluated},{stderr:.17g}"]
    _artifact(args, {}, _hash_file(args.input), "mode,value,triples,stderr", rows)
    return EXIT_OK


def _cmd_construct(args) -> int:
    from rieszlab.construction import (
        adaptive_family,
        density_params,
        run_construction,
        save_construction,
        verify_construction,
    )

    if args.patch_cells < 1:
        raise ValueError(f"--patch-cells must be at least 1, got {args.patch_cells}")
    mu = _load_measure(args.input)
    params = density_params(mu, args.p, args.s, count=args.grid_count, r_floor=args.r_min)
    result = run_construction(mu, params, spacing_frac=1.0 / args.patch_cells)
    family = [result] if args.no_family else adaptive_family(result)
    report = verify_construction(result, family=family, seed=args.seed)
    if args.outdir:
        save_construction(result, args.outdir, report)
    rep = report.to_dict()
    rows = [f"{key},{rep[key]}" for key in sorted(rep)]
    rows.append(f"all_pass,{report.all_pass()}")
    resolved = {"r_min": params.grid.r_min, "r_max": params.grid.r_max, "family_size": len(family)}
    _artifact(args, resolved, _hash_file(args.input), "check,value", rows)
    return EXIT_OK


def _cmd_joint(args) -> int:
    from rieszlab.analysis import joint_norm_experiment
    from rieszlab.kernels import KernelConfig

    mu = _load_measure(args.input_a)
    sigma = _load_measure(args.input_b)
    eps = args.epsilon if args.epsilon is not None else 4.0 * max(mu.resolution_h, sigma.resolution_h)
    cfg = KernelConfig(mu.hausdorff_dim, eps, args.mode)
    res = joint_norm_experiment(mu, sigma, cfg, tol=args.tol, max_iter=args.max_iter)
    combined_hash = _hash_text(_hash_file(args.input_a) + _hash_file(args.input_b))
    parts = (("first", res.norm_first), ("second", res.norm_second), ("sum", res.norm_sum))
    rows = [f"{name},{_norm_cells(est)}" for name, est in parts]
    _artifact(args, {"epsilon": eps}, combined_hash, "component,norm,iterations,residual", rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rieszlab", description=__doc__)
    parser.add_argument("--config", default=None,
                        help="JSON file whose keys (kebab- or snake-case) override flags")
    sub = parser.add_subparsers(dest="command", required=True)
    # flags shared by several subcommands, declared once
    output, source, solver = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    output.add_argument("--output", required=True)
    source.add_argument("--input", required=True)
    solver.add_argument("--mode", choices=["truncated", "regularized"], default="truncated")
    solver.add_argument("--tol", type=float, default=1e-6)
    solver.add_argument("--max-iter", type=int, default=500)

    g = sub.add_parser("gen", help="generate a measure file", parents=[output])
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
    g.set_defaults(func=_cmd_gen)

    dn = sub.add_parser("density", help="density profile at a point", parents=[source, output])
    dn.add_argument("--center", type=str, default="")
    dn.add_argument("--point-index", type=int, default=0)
    dn.add_argument("--r-min", type=float, default=None)
    dn.add_argument("--r-max", type=float, default=None)
    dn.add_argument("--grid-count", type=int, default=24)
    dn.set_defaults(func=_cmd_density)

    nm = sub.add_parser("norm", help="operator norm at one truncation radius", parents=[source, solver, output])
    nm.add_argument("--epsilon", type=float, default=None)
    nm.add_argument("--method", choices=["lanczos", "dense-decomposition"], default="lanczos")
    nm.set_defaults(func=_cmd_norm)

    sw = sub.add_parser("sweep", help="operator norms across truncation radii", parents=[source, solver, output])
    sw.add_argument("--epsilons", required=True, help="comma-separated radii")
    sw.set_defaults(func=_cmd_sweep)

    cv = sub.add_parser("curvature", help="triple-integral curvature", parents=[source, output])
    cv.add_argument("--mode", choices=["exact", "sampled"], default="exact")
    cv.add_argument("--samples", type=int, default=200000)
    cv.add_argument("--seed", type=int, default=0)
    cv.set_defaults(func=_cmd_curvature)

    ct = sub.add_parser("construct", help="run the regularization pipeline", parents=[source, output])
    ct.add_argument("--p", type=int, default=2)
    ct.add_argument("--s", type=int, default=2)
    ct.add_argument("--r-min", type=float, default=None)
    ct.add_argument("--grid-count", type=int, default=28)
    ct.add_argument("--patch-cells", type=int, default=16)
    ct.add_argument("--seed", type=int, default=7)
    ct.add_argument("--no-family", action="store_true",
                    help="check domination against this run alone")
    ct.add_argument("--outdir", default="")
    ct.set_defaults(func=_cmd_construct)

    jt = sub.add_parser("joint", help="two-measure norm experiment", parents=[solver, output])
    jt.add_argument("--input-a", required=True)
    jt.add_argument("--input-b", required=True)
    jt.add_argument("--epsilon", type=float, default=None)
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
