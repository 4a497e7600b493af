#!/usr/bin/env python3
"""Run every finite-group oracle suite at full depth for the base matrix.

Runs `resindex verify` for the nine-base matrix (2, 3, 5, 8, -2, -3, -4,
9/25, 1/2): the three indicator routes, the character/Ramanujan identity
and all coset-density closed forms over groups up to order --max-n (360;
h up to --max-h, 8), and the weight oracles sigma = w*mu plus both w/r
Moebius relations over all counted primes up to --max-p (2000).  Stdout
is that of `resindex verify`; one wall-time line goes to stderr.  Exits 0
when every identity holds, 3 on any violation and 2 on bad input (a size
too small to check anything or above the oracle's bounds).

    python scripts/verify_lemmas.py
"""

import argparse
import sys
import time

from resindex import cli

BASES = ("2", "3", "5", "8", "-2", "-3", "-4", "9/25", "1/2")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=360)
    ap.add_argument("--max-h", type=int, default=8)
    ap.add_argument("--max-p", type=int, default=2000)
    args = ap.parse_args()

    t0 = time.perf_counter()
    argv = ["verify", "--max-n", str(args.max_n), "--max-h", str(args.max_h), "--max-p", str(args.max_p)]
    argv += [f"--g={g}" for g in BASES]
    code = cli.main(argv)
    print(f"# wall time {time.perf_counter() - t0:.1f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
