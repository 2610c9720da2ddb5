"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload valuate --seed 0 --seconds 10 \\
        --trace 0

Run from the root of a checkout. The program is imported from ``src/``
next to this directory; without it the run fails with exit code 2. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
With ``--setup-probe`` the process only sets up and prints the seconds
since it started; an untraced run starts two such processes, one after
the other, for its ``setup_s`` samples. See README.md.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One client in a closed loop: BLAS gets one thread (at most nproc), set
# before numpy loads so OpenBLAS starts with it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

SRC = Path(__file__).resolve().parents[1] / "src"
WORKLOAD_NAMES = ("valuate", "fto-showcase", "train-base", "gradcheck")


def load_program() -> str | None:
    """Import the package from ``src/`` beside this directory; returns an
    error message instead when it is not there."""
    if not (SRC / "mesval" / "__init__.py").is_file():
        return f"no program source at {SRC}/mesval"
    sys.path.insert(0, str(SRC))
    import mesval
    if Path(mesval.__file__).resolve().parent != SRC / "mesval":
        return f"imported mesval from {mesval.__file__}, not from {SRC}"
    import scipy.optimize  # noqa: F401  (the solver imports it lazily)
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the seconds from process "
                             "start as JSON and exit (an untraced run "
                             "starts this for its set-up samples)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    error = load_program()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    import harness
    if args.setup_probe:
        setup_s = harness.setup_probe(args.workload, args.seed, STARTED)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result = harness.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), STARTED)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
