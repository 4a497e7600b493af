#!/usr/bin/env python3
"""Empirical counts versus predictions for the standard base matrix.

Runs the nine-base matrix (2, 3, 5, 8, -2, -3, -4, 9/25, 1/2) for
t = 1..12 at a given prime bound and prints one CSV row per (g, t):
exact counts N and R, the naive and weighted prediction sums, the
closed form M, the density prediction A*Li and the ratio N/(A*Li).
The rows are those of `resindex report --format csv` for the matrix.

    python scripts/report_matrix.py --x 1000000 > matrix.csv
"""

import argparse
import sys
import time

from resindex import cli

BASES = ("2", "3", "5", "8", "-2", "-3", "-4", "9/25", "1/2")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--x", type=int, default=10**6)
    ap.add_argument("--t-max", type=int, default=12)
    ap.add_argument("--tol", type=float, default=1e-4, help="certified error for A(g,t)")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    t0 = time.perf_counter()
    argv = ["report", "--format", "csv", "--x", str(args.x), "--tol", repr(args.tol)]
    argv += ["--threads", str(args.threads)]
    argv += [f"--g={g}" for g in BASES]
    argv += [f"--t={t}" for t in range(1, args.t_max + 1)]
    code = cli.main(argv)
    print(f"# wall time {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
