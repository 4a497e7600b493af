#!/usr/bin/env python3
"""Run every finite-group oracle suite at full depth and print a summary.

Covers the three indicator routes and the character/Ramanujan identity
(groups up to order 200), all coset-density closed forms (orders up to
360, h up to 8, both signs and all parity classes), and the weight
oracles sigma = w*mu plus both w/r Moebius relations for the nine-base
matrix over all counted primes up to 2000.  Exits 3 on any violation and
2, before any suite runs, on a size too small to check anything or above
the oracle's bounds.

    python scripts/verify_lemmas.py
"""

import argparse
import sys
import time

from resindex import oracle
from resindex.decompose import parse_g
from resindex.errors import ResindexError

BASES = ("2", "3", "5", "8", "-2", "-3", "-4", "9/25", "1/2")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-n", type=int, default=200)
    ap.add_argument("--rho-max-n", type=int, default=360)
    ap.add_argument("--max-h", type=int, default=8)
    ap.add_argument("--max-p", type=int, default=2000)
    args = ap.parse_args()

    gs = [parse_g(s) for s in BASES]
    try:
        for max_n in (args.max_n, args.rho_max_n):
            oracle.check_sizes(max_n, args.max_h, gs, args.max_p)
    except ResindexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    failed = False
    for build in (
        lambda: oracle.indicator_suite(args.max_n),
        lambda: oracle.remark_suite(args.max_n),
        lambda: oracle.rho_sigma_suite(args.rho_max_n, args.max_h),
        lambda: oracle.weight_oracle_suite(gs, args.max_p),
    ):
        t0 = time.perf_counter()
        res = build()
        status = "ok" if res.ok else "VIOLATION"
        print(f"{status:9s} {res.name}: {res.checks} checks, "
              f"{len(res.violations)} violations ({time.perf_counter() - t0:.1f}s)")
        for v in res.violations[:20]:
            print(f"    {v}")
        failed = failed or not res.ok
    return 3 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
