import pytest

import rieszlab as rl
from rieszlab.cli import EXIT_IO, EXIT_OK, EXIT_VALIDATION, main
from rieszlab.measure import read_measure


def run_cli(*args) -> int:
    return main([str(a) for a in args])


@pytest.fixture()
def fc3_file(tmp_path):
    path = tmp_path / "fc3.measure"
    assert run_cli("gen", "--kind", "four-corners", "--level", 3, "--output", path) == EXIT_OK
    return path


def test_gen_four_corners_level3(fc3_file):
    mu = read_measure(fc3_file)
    assert len(mu) == 64
    assert rl.total_mass(mu) == pytest.approx(1.0, rel=1e-12)


def test_gen_segment_and_union(tmp_path):
    a = tmp_path / "a.measure"
    b = tmp_path / "b.measure"
    u = tmp_path / "u.measure"
    assert run_cli("gen", "--kind", "segment", "--count", 64, "--output", a) == EXIT_OK
    assert run_cli("gen", "--kind", "segment", "--count", 32, "--output", b) == EXIT_OK
    assert run_cli("gen", "--kind", "union", "--inputs", a, b,
                   "--separation", 5.0, "--output", u) == EXIT_OK
    mu = read_measure(u)
    assert len(mu) == 96
    assert rl.support_diameter(mu) >= 5.0


def union_hash(path):
    with open(path) as fh:
        return [ln for ln in fh if ln.startswith("# input_sha256=")]


def test_gen_union_hash_follows_input_contents(tmp_path):
    # the echo names the --inputs paths only; the hash must see their contents
    a = tmp_path / "a.measure"
    u = tmp_path / "u.measure"
    assert run_cli("gen", "--kind", "segment", "--count", 8, "--output", a) == EXIT_OK
    assert run_cli("gen", "--kind", "union", "--inputs", a, a, "--output", u) == EXIT_OK
    before = union_hash(u)
    assert run_cli("gen", "--kind", "segment", "--count", 16, "--output", a) == EXIT_OK
    assert run_cli("gen", "--kind", "union", "--inputs", a, a, "--output", u) == EXIT_OK
    assert len(read_measure(u)) == 32
    assert len(before) == 1 and union_hash(u) != before


def test_gen_failing_write_leaves_no_file(tmp_path, monkeypatch):
    # the measure writer fails after writing part of its file: neither the
    # output nor the temporary file it was written to may stay behind
    import rieszlab.measure

    def broken(mu, path, extra_comments=()):
        with open(path, "w") as fh:
            fh.write("# d=2 n=1 count=16 h=0.0625\n")
        raise OSError("injected write failure")

    monkeypatch.setattr(rieszlab.measure, "write_measure", broken)
    out = tmp_path / "seg.measure"
    assert run_cli("gen", "--kind", "segment", "--count", 16, "--output", out) == EXIT_IO
    assert not out.exists()
    assert not list(tmp_path.glob(".rieszlab-*"))
    assert not list(tmp_path.iterdir())


def test_norm_missing_input_is_io_failure(tmp_path):
    out = tmp_path / "norm.csv"
    code = run_cli("norm", "--input", tmp_path / "absent.measure", "--output", out)
    assert code == EXIT_IO
    assert not out.exists()  # no partial artifact


def test_norm_bad_parameter_is_validation_failure(fc3_file, tmp_path):
    out = tmp_path / "norm.csv"
    code = run_cli("norm", "--input", fc3_file, "--epsilon", -1.0, "--output", out)
    assert code == EXIT_VALIDATION
    assert not out.exists()


def test_norm_artifact_schema(fc3_file, tmp_path):
    out = tmp_path / "norm.csv"
    assert run_cli("norm", "--input", fc3_file, "--epsilon", 0.05,
                   "--tol", 1e-8, "--output", out) == EXIT_OK
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")]
    assert header[0] == "epsilon,norm,iterations,residual"
    eps, norm, iters, residual = header[1].split(",")
    assert float(eps) == 0.05
    assert float(norm) > 0
    # config echo carries every resolved parameter, defaults included
    echo = "\n".join(ln for ln in lines if ln.startswith("#"))
    for key in ("command=norm", "max_iter=500", "mode=truncated", "input_sha256="):
        assert key in echo


def test_sweep_rerun_is_byte_identical(fc3_file, tmp_path):
    out1 = tmp_path / "sweep1.csv"
    out2 = tmp_path / "sweep2.csv"
    args = ["sweep", "--input", fc3_file, "--epsilons", "0.05,0.1", "--tol", "1e-7"]
    assert run_cli(*args, "--output", out1) == EXIT_OK
    assert run_cli(*args, "--output", out2) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_density_command(fc3_file, tmp_path):
    out = tmp_path / "density.csv"
    assert run_cli("density", "--input", fc3_file, "--center", "0.5,0.5",
                   "--r-min", 0.05, "--r-max", 1.0, "--grid-count", 8,
                   "--output", out) == EXIT_OK
    rows = [ln for ln in out.read_text().splitlines()
            if ln and not ln.startswith("#") and not ln.startswith("r,")]
    assert len(rows) == 8


@pytest.mark.parametrize(
    "point", [("--center", "0.5"), ("--center", "0.5,0.5,0.5"), ("--point-index", 64), ("--point-index", -1)]
)
def test_density_point_outside_the_measure_is_validation_failure(fc3_file, tmp_path, point):
    # a center of the wrong dimension, or an index outside 0..63 on the
    # 64-point measure
    out = tmp_path / "density.csv"
    assert run_cli("density", "--input", fc3_file, *point, "--output", out) == EXIT_VALIDATION
    assert not out.exists()


def test_density_at_the_last_point_index(fc3_file, tmp_path):
    out = tmp_path / "density.csv"
    assert run_cli("density", "--input", fc3_file, "--point-index", 63, "--output", out) == EXIT_OK
    center = read_measure(fc3_file).points[63]
    assert f"# center={list(map(float, center))}" in out.read_text().splitlines()


def test_norm_dense_decomposition_method(fc3_file, tmp_path):
    from rieszlab.analysis import dense_operator_norm

    out = tmp_path / "norm.csv"
    assert run_cli("norm", "--input", fc3_file, "--epsilon", 0.05,
                   "--method", "dense-decomposition", "--output", out) == EXIT_OK
    rows = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    eps, norm, iters, residual = rows[1].split(",")
    want = dense_operator_norm(read_measure(fc3_file), rl.KernelConfig(1, 0.05, rl.TRUNCATED))
    assert (float(norm), int(iters), float(residual)) == (want.value, 1, 0.0)
    assert "# method=dense-decomposition" in out.read_text().splitlines()


@pytest.mark.parametrize(
    "flag, cap, echoed",
    [("lanczos", None, "lanczos-dense"), ("lanczos", 0, "lanczos-direct"),
     ("dense-decomposition", None, "dense-decomposition")],
)
def test_norm_echoes_the_backend_that_ran(flag, cap, echoed, fc3_file, tmp_path, monkeypatch):
    # the echo overlays the parsed --method with the estimate's: a cache
    # cap of 0 sends lanczos to the direct products, with no flag for it
    from functools import partial

    from rieszlab import analysis

    if cap is not None:
        monkeypatch.setattr(analysis, "operator_norm", partial(analysis.operator_norm, dense_cache_cap=cap))
    out = tmp_path / "norm.csv"
    assert run_cli("norm", "--input", fc3_file, "--epsilon", 0.05, "--method", flag, "--output", out) == EXIT_OK
    methods = [ln for ln in out.read_text().splitlines() if ln.startswith("# method=")]
    assert methods == [f"# method={echoed}"]


def test_curvature_command_schema(fc3_file, tmp_path):
    out = tmp_path / "curv.csv"
    assert run_cli("curvature", "--input", fc3_file, "--mode", "exact",
                   "--output", out) == EXIT_OK
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert lines[0] == "mode,value,triples,stderr"
    mode, value, triples, stderr = lines[1].split(",")
    assert mode == "exact"
    assert int(triples) == 64 * 63 * 62


def test_joint_command(tmp_path):
    a = tmp_path / "a.measure"
    b = tmp_path / "b.measure"
    run_cli("gen", "--kind", "four-corners", "--level", 2, "--output", a)
    run_cli("gen", "--kind", "four-corners", "--level", 2, "--output", b)
    out = tmp_path / "joint.csv"
    assert run_cli("joint", "--input-a", a, "--input-b", b, "--epsilon", 0.1,
                   "--tol", 1e-8, "--output", out) == EXIT_OK
    lines = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    table = {ln.split(",")[0]: float(ln.split(",")[1]) for ln in lines[1:]}
    assert table["sum"] == pytest.approx(2.0 * table["first"], rel=1e-6)


def test_construct_command(tmp_path, mixed_measure, monkeypatch):
    # every module binding of ball_masses counts its calls: one ratio table
    # for the source, one for the restriction to the dense set, one for the
    # AD check; the family member reuses the source's table
    import sys

    import rieszlab.measure

    original = rieszlab.measure.ball_masses
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1]))
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("rieszlab"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    src = tmp_path / "mixed.measure"
    rl.write_measure(mixed_measure, src)
    out = tmp_path / "construct.csv"
    outdir = tmp_path / "result"
    assert run_cli("construct", "--input", src, "--p", 2, "--s", 2,
                   "--outdir", outdir, "--output", out) == EXIT_OK
    text = out.read_text()
    assert "matching_pass,True" in text
    assert "# family_size=2" in text.splitlines()
    assert (outdir / "manifest.json").exists()
    assert (outdir / "sigma.measure").exists()
    assert len(calls) == 3


@pytest.mark.parametrize("cells", [0, -4])
def test_construct_patch_cells_below_one_is_validation_failure(tmp_path, mixed_measure, cells):
    # 0 once exited 1 with a ZeroDivisionError, and -4 ran without complaint
    src = tmp_path / "mixed.measure"
    rl.write_measure(mixed_measure, src)
    out = tmp_path / "construct.csv"
    assert run_cli("construct", "--input", src, "--patch-cells", cells, "--output", out) == EXIT_VALIDATION
    assert not out.exists()


def test_construct_family_member_runs_on_the_callers_grid(tmp_path, monkeypatch):
    # p* is read off the caller's grid, so the member must run on it too;
    # there the whole lattice is dense and nothing needs a cover
    import numpy as np

    import rieszlab.construction

    h = 1.0 / 40.0
    axis = (np.arange(40) + 0.5) * h
    x, y = np.meshgrid(axis, axis, indexing="ij")
    mu = rl.DiscreteMeasure(np.column_stack([x.ravel(), y.ravel()]), np.full(1600, h * h), 1, h)
    src = tmp_path / "lattice.measure"
    rl.write_measure(mu, src)
    verify = rieszlab.construction.verify_construction
    families = []

    def recorded(result, **kwargs):
        families.append(kwargs["family"])
        return verify(result, **kwargs)

    monkeypatch.setattr(rieszlab.construction, "verify_construction", recorded)
    assert run_cli("construct", "--input", src, "--p", 2, "--s", 2, "--r-min", 0.3,
                   "--grid-count", 8, "--output", tmp_path / "construct.csv") == EXIT_OK
    (family,) = families
    result, member = family
    assert member.params.grid == result.params.grid
    assert (member.params.grid.r_min, member.params.grid.count) == (0.3, 8)
    assert member.params.p > result.params.p
    assert member.dense_idx.size == member.core_idx.size == len(mu)
    assert len(member.cover) == 0


def test_nonconvergence_exit_code(fc3_file, tmp_path):
    from rieszlab.cli import EXIT_NONCONVERGENCE

    out = tmp_path / "norm.csv"
    code = run_cli("norm", "--input", fc3_file, "--epsilon", 0.05,
                   "--tol", 1e-9, "--max-iter", 2, "--output", out)
    assert code == EXIT_NONCONVERGENCE
    assert not out.exists()


def test_internal_error_is_not_a_validation_failure(fc3_file, tmp_path, monkeypatch, capsys):
    # a defect such as a TypeError is reported with its traceback under its
    # own exit code, not as an invalid configuration
    import rieszlab.analysis
    from rieszlab.cli import EXIT_INTERNAL

    def broken(*args, **kwargs):
        raise TypeError("injected defect")

    monkeypatch.setattr(rieszlab.analysis, "operator_norm", broken)
    out = tmp_path / "norm.csv"
    code = run_cli("norm", "--input", fc3_file, "--output", out)
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "Traceback" in err and "injected defect" in err
    assert "invalid configuration" not in err
    assert not out.exists()


def test_config_file_overrides_flags(fc3_file, tmp_path):
    import json

    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"epsilon": 0.1, "max-iter": 400}))
    out = tmp_path / "norm.csv"
    assert run_cli("--config", cfg, "norm", "--input", fc3_file,
                   "--epsilon", 0.05, "--output", out) == EXIT_OK
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if not ln.startswith("#")][1]
    assert float(data.split(",")[0]) == 0.1  # config value won over the flag
    assert "# max_iter=400" in lines


@pytest.mark.parametrize(
    "overrides",
    [
        {"epsilon": "0.1"},
        {"max-iter": 400.0},
        {"tol": True},
        {"mode": "bogus"},
        {"no-such-flag": 1},
        {"func": "norm"},
        [["epsilon", 0.1]],
    ],
)
def test_config_file_of_the_wrong_shape_is_a_validation_failure(fc3_file, tmp_path, overrides, capsys):
    import json

    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps(overrides))
    out = tmp_path / "norm.csv"
    assert run_cli("--config", cfg, "norm", "--input", fc3_file, "--output", out) == EXIT_VALIDATION
    assert "invalid configuration" in capsys.readouterr().err
    assert not out.exists()


def _parsed_flags(command: str) -> set[str]:
    """Dest names of every flag of a subcommand but --output."""
    import argparse

    from rieszlab.cli import _build_parser

    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {a.dest for a in commands.choices[command]._actions} - {"help", "output"}


def _echo_keys(path) -> set[str]:
    return {ln[2:].split("=", 1)[0] for ln in path.read_text().splitlines() if ln.startswith("# ") and "=" in ln}


@pytest.mark.parametrize("command", ["gen", "density", "norm", "sweep", "curvature", "construct", "joint"])
def test_artifact_echoes_every_parsed_flag(command, fc3_file, mixed_measure, tmp_path):
    src = tmp_path / "mixed.measure"
    rl.write_measure(mixed_measure, src)
    argv = {
        "gen": ["--kind", "segment", "--count", 16],
        "density": ["--input", fc3_file, "--grid-count", 8],
        "norm": ["--input", fc3_file, "--epsilon", 0.05],
        "sweep": ["--input", fc3_file, "--epsilons", "0.05,0.1"],
        "curvature": ["--input", fc3_file],
        "construct": ["--input", src, "--no-family"],
        "joint": ["--input-a", fc3_file, "--input-b", fc3_file, "--epsilon", 0.1],
    }[command]
    out = tmp_path / "artifact"
    assert run_cli(command, *argv, "--output", out) == EXIT_OK
    keys = _echo_keys(out)
    assert _parsed_flags(command) <= keys
    assert {"command", "input_sha256"} <= keys
    assert "output" not in keys and "config" not in keys


def test_construct_headers_differ_in_r_min(mixed_measure, tmp_path):
    src = tmp_path / "mixed.measure"
    rl.write_measure(mixed_measure, src)
    headers = []
    for r_min in ("0.05", "1.0"):
        out = tmp_path / f"construct_{r_min}.csv"
        assert run_cli("construct", "--input", src, "--r-min", r_min, "--output", out) == EXIT_OK
        lines = out.read_text().splitlines()
        assert f"# r_min={float(r_min)}" in lines
        headers.append([ln for ln in lines if ln.startswith("#")])
    assert headers[0] != headers[1]


def test_density_at_a_nan_center_is_validation_failure(fc3_file, tmp_path):
    out = tmp_path / "density.csv"
    assert run_cli("density", "--input", fc3_file, "--center", "nan,0.5", "--output", out) == EXIT_VALIDATION
    assert not out.exists()


@pytest.mark.parametrize("samples", [-5, 0, 1])
def test_sampled_curvature_with_fewer_than_two_samples_is_validation_failure(fc3_file, tmp_path, samples):
    out = tmp_path / "curv.csv"
    assert run_cli("curvature", "--input", fc3_file, "--mode", "sampled",
                   "--samples", samples, "--output", out) == EXIT_VALIDATION
    assert not out.exists()


def test_norm_of_an_empty_measure_file_is_validation_failure(tmp_path):
    empty = tmp_path / "empty.measure"
    empty.write_text("# d=2 n=1 count=0 h=0.5\n")
    out = tmp_path / "norm.csv"
    assert run_cli("norm", "--input", empty, "--output", out) == EXIT_VALIDATION
    assert not out.exists()
