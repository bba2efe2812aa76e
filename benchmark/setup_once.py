"""Time one set-up of a workload in a fresh interpreter.

    python3 benchmark/setup_once.py <workload> <seed> <workdir>

Run from the repository root.  Imports numpy, scipy and the package, makes
the workload's inputs from the seed and writes its measure files into
workdir, then prints the seconds this took, from before the first import.
run.py runs it several times and reports the median as ``setup_s``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), os.path.dirname(os.path.abspath(__file__))]
    from workloads import WORKLOADS

    WORKLOADS[workload]().setup(int(seed), workdir)
    print(repr(time.perf_counter() - _T0))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
