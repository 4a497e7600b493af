"""Command-line interface.

Subcommands:
    count      exact N_{g,t}(x) and R_{g,t}(x)
    heuristic  the prediction sums (naive, weighted, H, M, L, Q)
    density    Kummer degree, the density A(g,t) and the Artin constant
    verify     run the finite-group oracle suites (exit 3 on any violation)
    report     one empirical-versus-predicted row per requested (g, t)

Exit codes: 0 success, 2 bad input, 3 violated identity.  Output is
deterministic for a fixed command line and independent of --threads.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import arith, density, empirical, oracle
from .decompose import decompose_g, parse_g
from .errors import LemmaViolation, ResindexError

_DEFAULT_VERIFY_BASES = ("2", "-2", "8", "9/25", "-4")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.10g}"
    return str(v)


def _json_row(row: dict) -> dict:
    """Floats rounded to the 10 significant digits the other formats print."""
    return {k: (float(_fmt(v)) if isinstance(v, float) else v) for k, v in row.items()}


def _emit(rows: list[dict], fmt: str, out) -> None:
    """rows: list of ordered field->value dicts (values already primitive)."""
    if fmt == "json":
        payload = [_json_row(row) for row in rows]
        out.write(json.dumps(payload if len(payload) != 1 else payload[0], sort_keys=True))
        out.write("\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(rows[0].keys())
        for row in rows:
            writer.writerow([_fmt(v) for v in row.values()])
    else:
        for row in rows:
            out.write(" ".join(f"{k}={_fmt(v)}" for k, v in row.items()))
            out.write("\n")


def _cmd_count(args) -> int:
    g = parse_g(args.g)
    sw = empirical.sweep(g, args.x, (args.t,), threads=args.threads, split=True)
    _emit(
        [{"g": args.g, "t": args.t, "x": args.x, "N": sw.N[args.t], "R": sw.R[args.t]}],
        args.format,
        sys.stdout,
    )
    return 0


def _cmd_heuristic(args) -> int:
    g = parse_g(args.g)
    sw = empirical.sweep(g, args.x, (args.t,), threads=args.threads)
    t = args.t
    _emit(
        [
            {
                "g": args.g,
                "t": t,
                "x": args.x,
                "naive": sw.naive[t],
                "quadratic": sw.quad[t],
                "H": float(sw.H(t)),
                "M": float(sw.M(t)),
                "L": float(sw.L(t)),
                "Q": float(sw.Q(t)),
            }
        ],
        args.format,
        sys.stdout,
    )
    return 0


def _cmd_density(args) -> int:
    g = parse_g(args.g)
    dec = decompose_g(g)
    deg = density.kummer_degree(dec, args.t)
    # one Artin product for both fields: A = C * const is within tol when const is within tol / C
    c = density.density_factor(dec, args.t)
    const = density.artin_constant(min(args.tol, args.tol / c) if c else args.tol)
    a = float(c) * const
    if args.format == "text":
        print(f"g={args.g} decomposition: sign={dec.sign} g0={dec.g0} h={dec.h} e={dec.e} disc={dec.disc}")
        print("degrees of the first extensions (k, degree of step k*t):")
        mu = arith.moebius_sieve(10)
        for k in range(1, 11):
            if mu[k]:
                dk = density.kummer_degree(dec, k * args.t)
                print(f"  k={k:2d}  kt={k * args.t:3d}  degree={dk.degree}  nu={dk.nu}")
    _emit(
        [
            {
                "g": args.g,
                "t": args.t,
                "degree": deg.degree,
                "nu": str(deg.nu),
                "A": a,
                "artin_constant": const,
                "tol": args.tol,
            }
        ],
        args.format,
        sys.stdout,
    )
    return 0


def _cmd_verify(args) -> int:
    gs = [parse_g(s) for s in (args.g or list(_DEFAULT_VERIFY_BASES))]
    oracle.check_sizes(args.max_n, args.max_h, gs, args.max_p)
    suites = [
        oracle.indicator_suite(args.max_n),
        oracle.remark_suite(args.max_n),
        oracle.rho_sigma_suite(args.max_n, args.max_h),
        oracle.weight_oracle_suite(gs, args.max_p),
    ]
    failed = False
    for suite in suites:
        status = "ok" if suite.ok else "VIOLATION"
        print(f"{status} {suite.name}: {suite.checks} checks, {len(suite.violations)} violations")
        for v in suite.violations[:10]:
            print(f"    {v}")
        failed = failed or not suite.ok
    print(
        "convention: r(g,t;p) = t_h * sum_{d | (p-1)/t} w(g,dt;p) (h,dt) phi((p-1)/dt)/(p-1)"
        " (t_h multiplies the sum; enumeration rejects the 1/t_h variant)"
    )
    return 3 if failed else 0


def _cmd_report(args) -> int:
    gs = [parse_g(s) for s in args.g]
    ts = args.t or [1]
    empirical.check_args(args.x, ts, threads=args.threads)
    # every A(g,t) before any prime is sieved, so a tolerance they refuse exits 2 up front
    densities = [[density.artin_density_A(dec, t, args.tol) for t in ts] for dec in map(decompose_g, gs)]
    li = arith.log_integral(args.x)
    rows = []
    for g_text, sw, a_row in zip(args.g, empirical.sweeps(gs, args.x, ts, threads=args.threads), densities):
        for t, a in zip(ts, a_row):
            if args.format == "json":
                row = {
                    "g": str(sw.g),
                    "t": t,
                    "x": args.x,
                    "N": sw.N[t],
                    "R": sw.R[t],
                    "pi_t": sw.pi[t],
                    "split_t": sw.split[t],
                    "naive": sw.naive[t],
                    "quadratic": sw.quad[t],
                    "M": float(sw.M(t)),
                    "A": a,
                    "Li": li,
                }
            else:
                a_li = a * li
                row = {
                    "g": g_text,
                    "t": t,
                    "x": args.x,
                    "N": sw.N[t],
                    "R": sw.R[t],
                    "naive": sw.naive[t],
                    "quadratic": sw.quad[t],
                    "M": float(sw.M(t)),
                    "A_times_Li": a_li,
                    "ratio_N_over_ALi": sw.N[t] / a_li if a_li > 1e-12 else float("nan"),
                }
            rows.append(row)
    if args.format == "json":
        sys.stdout.write(json.dumps([_json_row(row) for row in rows], sort_keys=True))
        sys.stdout.write("\n")
    else:
        _emit(rows, args.format, sys.stdout)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="resindex", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, g_append=False, sweeps=True):
        if g_append:
            p.add_argument("--g", action="append", required=True, help="base, 'a' or 'a/b' (repeatable)")
        else:
            p.add_argument("--g", required=True, help="base, 'a' or 'a/b'")
        if sweeps:
            p.add_argument("--x", type=int, required=True, help="prime bound")
            p.add_argument("--threads", type=int, default=1, help="worker processes, at most the usable cores")
        p.add_argument("--format", choices=("text", "csv", "json"), default="text")

    p = sub.add_parser("count", help="exact index counts N and R")
    common(p)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("heuristic", help="prediction sums (naive, weighted, H, M, L, Q)")
    common(p)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_heuristic)

    p = sub.add_parser("density", help="Kummer degree, density A(g,t), Artin constant")
    common(p, sweeps=False)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("verify", help="run the finite-group oracle suites")
    p.add_argument("--max-n", type=int, default=200, help="largest group order")
    p.add_argument("--max-h", type=int, default=8)
    p.add_argument("--max-p", type=int, default=500, help="largest prime for the weight oracles")
    p.add_argument("--g", action="append", help="bases for the weight oracles (repeatable)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("report", help="empirical vs predicted comparison rows")
    common(p, g_append=True)
    p.add_argument("--t", type=int, action="append", help="index value (repeatable, default 1)")
    p.add_argument("--tol", type=float, default=1e-4, help="certified error for A(g,t)")
    p.set_defaults(func=_cmd_report)
    return top


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except LemmaViolation as exc:
        print(f"identity violation: {exc}", file=sys.stderr)
        return 3
    except ResindexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
