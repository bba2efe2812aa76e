"""Benchmark entry point: runs one workload in this process and prints its result.

Run from the repository root:

    python3 benchmark/run.py --workload norms --seed 1 --seconds 10 --trace 0

The package is imported from src/ without installing it.  The BLAS thread
count is set in the environment before numpy is imported.  Set-up time is
the median of several set-ups, each in a fresh interpreter (setup_once.py).
The workload then runs whole rounds of its operations, stops at the round
boundary nearest to --seconds (after at least one round), and checks the
outputs outside the timed region.  With --trace 1 it also runs one more
set-up and one more round with every layer's public functions wrapped, and
prints the per-layer metrics instead of the end-to-end ones, with the two
metrics that belong to one workload only (``norm_to_pi_s``,
``targets_per_s``) taken from the untraced rounds.  The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

WORKLOAD_NAMES = ("norms", "treecode", "construct", "gap_check")
BLAS_THREADS = 2  # capped at the CPUs this process may use
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MAX_RUN_S = 120.0  # no round starts that would end past this, whatever --seconds says

FAILED = object()


def _same(a, b) -> bool:
    """Bit-for-bit equality of collected outputs."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if hasattr(a, "shape"):
        return a.shape == b.shape and bool((a == b).all())
    return a == b


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_round(wl, round_dir: str) -> tuple[dict, dict]:
    """One round of the workload's operations: (seconds per op, raw results)."""
    os.makedirs(round_dir)
    times, raws = {}, {}
    for op in wl.operations(round_dir):
        t0 = time.perf_counter()
        try:
            raws[op.name] = op.run()
        except Exception:
            traceback.print_exc()
            raws[op.name] = FAILED
        times[op.name] = time.perf_counter() - t0
    return times, raws


def _account(wl, rounds_raw: list[dict]) -> tuple[int, int, bool]:
    """(attempted, failed, correct) over all rounds, running the checks.

    An operation fails when it raised, when its CLI exit code was nonzero,
    when its output differs from the first good output of the same operation,
    or when that output fails its check.
    """
    reference, bad = {}, []
    for raws in rounds_raw:
        bad_round = set()
        for name, raw in raws.items():
            try:
                if raw is FAILED:
                    raise RuntimeError("operation raised")
                data = wl.collect(name, raw)
            except Exception as exc:
                print(f"benchmark: {wl.name}/{name} failed: {exc}", file=sys.stderr)
                bad_round.add(name)
                continue
            if name not in reference:
                reference[name] = data
            elif not _same(data, reference[name]):
                print(f"benchmark: {wl.name}/{name} output differs between rounds", file=sys.stderr)
                bad_round.add(name)
        bad.append(bad_round)
    correct = True
    try:
        errors = wl.check(reference)
    except Exception:
        traceback.print_exc()
        errors = {name: ["check raised"] for name in rounds_raw[0]}
    for name, errs in errors.items():
        for err in errs:
            print(f"benchmark: {wl.name}/{name} check failed: {err}", file=sys.stderr)
        if errs:
            correct = False
            for bad_round in bad:
                bad_round.add(name)
    attempted = sum(len(raws) for raws in rounds_raw)
    return attempted, sum(len(b) for b in bad), correct


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "rieszlab", "__init__.py")):
        print(f"benchmark: no src/rieszlab under {root}; run from the repository root", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [src, here]
    import numpy
    import scipy

    from tracing import Tracer
    from workloads import WORKLOAD_METRICS, WORKLOADS

    env = {
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }
    print("# env " + json.dumps(env), flush=True)

    os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, ".bench_work"))
    wl = WORKLOADS[args.workload]()
    try:
        setup_times = []
        for i in range(SETUP_REPEATS):
            setup_dir = os.path.join(workdir, f"setup{i}")
            os.makedirs(setup_dir)
            probe = subprocess.run(
                [sys.executable, os.path.join(here, "setup_once.py"), args.workload, str(args.seed), setup_dir],
                capture_output=True, text=True, timeout=120, check=True,
            )
            setup_times.append(float(probe.stdout.split()[-1]))
        wl.setup(args.seed, setup_dir)

        rounds, rounds_raw, round_s = [], [], []
        start = time.perf_counter()
        while True:
            times, raws = _run_round(wl, os.path.join(workdir, f"round{len(rounds)}"))
            rounds.append(times)
            rounds_raw.append(raws)
            round_s.append(sum(times.values()))
            elapsed = time.perf_counter() - start
            # stop at the round boundary nearest to --seconds
            if elapsed + statistics.median(round_s) / 2 >= args.seconds:
                break
            if elapsed + round_s[-1] > MAX_RUN_S:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace:
            tracer = Tracer()
            try:
                traced_dir = os.path.join(workdir, "setup_traced")
                os.makedirs(traced_dir)
                wl.setup(args.seed, traced_dir)
            finally:
                tracer.close()
            gen_s = tracer.layer_metrics()["generators.gen_s"]
            tracer = Tracer()
            try:
                times, raws = _run_round(wl, os.path.join(workdir, "round_traced"))
            finally:
                tracer.close()
            rounds_raw.append(raws)
            metrics = tracer.layer_metrics()
            metrics["generators.gen_s"] = gen_s
            metrics["trace.overhead_s"] = (sum(times.values()) - statistics.median(round_s), "s")
            # from the untraced rounds; 0 on the workloads they do not apply to
            metrics.update({name: (0.0, unit) for name, unit in WORKLOAD_METRICS.items()})
            metrics.update(wl.extra_metrics(rounds))
        else:
            metrics = {
                "setup_s": (statistics.median(setup_times), "s"),
                "run_s": (statistics.median(round_s), "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
        t_checks = time.perf_counter()
        attempted, failed, correct = _account(wl, rounds_raw)
        checks_s = time.perf_counter() - t_checks
    finally:
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"# {args.workload}: {len(rounds)} round(s) of {len(rounds[0])} operations, "
        f"round_s={[round(s, 3) for s in round_s]}, setup_s={[round(s, 3) for s in setup_times]}, "
        f"checks_s={checks_s:.3f}",
        file=sys.stderr,
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
