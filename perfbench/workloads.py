"""The benchmark's workloads: command lines made from a seed, and the checks
that hold each command's output to references.json.

references.json was taken from resindex 0.1.0 (regenerate it with
make_references.py only at a commit whose outputs are trusted).  Integer
fields and M must match exactly; naive and quadratic may differ by 1e-9
relative; a density value may differ by 2*tol, because two values that are
each certified within tol of the truth can be that far apart.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

WORKLOADS = ("matrix-1e6", "count-1e7", "verify-density")

BASES = ("2", "3", "5", "8", "-2", "-3", "-4", "9/25", "1/2")
MATRIX_TS = tuple(range(1, 13))
MATRIX_X = 10**6
MATRIX_TOL = 1e-4  # the `report` default
COUNT_T = 2
COUNT_X = 10**7
DENSITY_PAIRS = (("2", 1), ("-3", 2), ("9/25", 4))
DENSITY_TOL = 1e-6
REPORT_HEADER = ["g", "t", "x", "N", "R", "naive", "quadratic", "M", "A_times_Li", "ratio_N_over_ALi"]
REL_TOL = 1e-9

SUITE_LINE = re.compile(r"^(ok|VIOLATION) (\S+): (\d+) checks, (\d+) violations$")


@dataclass(frozen=True)
class Command:
    """One `resindex` invocation; ``params`` are what its check needs."""

    kind: str  # "report", "count", "verify" or "density"
    argv: tuple[str, ...]  # the arguments after the program name
    params: tuple = ()


def report_command(bases, ts) -> Command:
    argv = ["report"]
    argv += [f"--g={g}" for g in bases]
    for t in ts:
        argv += ["--t", str(t)]
    argv += ["--x", str(MATRIX_X), "--format", "csv", "--threads", "1"]
    return Command("report", tuple(argv), (tuple(bases), tuple(ts)))


def count_command(g: str) -> Command:
    argv = ("count", f"--g={g}", "--t", str(COUNT_T), "--x", str(COUNT_X), "--threads", "2", "--format", "json")
    return Command("count", argv, (g,))


def density_command(g: str, t: int) -> Command:
    argv = ("density", f"--g={g}", "--t", str(t), "--tol", repr(DENSITY_TOL), "--format", "json")
    return Command("density", argv, (g, t))


VERIFY_COMMAND = Command("verify", ("verify",))


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one iteration of ``workload``; the same seed gives the same list.

    The seed permutes bases and t of the matrix (the work stays the same) and
    picks the base of the count; the verify and density commands are fixed.
    """
    rng = random.Random(seed)
    if workload == "matrix-1e6":
        return [report_command(rng.sample(BASES, len(BASES)), rng.sample(MATRIX_TS, len(MATRIX_TS)))]
    if workload == "count-1e7":
        return [count_command(rng.choice(BASES))]
    if workload == "verify-density":
        return [VERIFY_COMMAND] + [density_command(g, t) for g, t in DENSITY_PAIRS]
    raise ValueError(f"unknown workload {workload!r}")


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)


def check(cmd: Command, returncode: int, stdout: str, refs: dict) -> list[str]:
    """Every way the command's exit code or output departs from the references."""
    if returncode != 0:
        return [f"{cmd.kind}: exit code {returncode}"]
    try:
        return _CHECKS[cmd.kind](stdout, refs[cmd.kind], *cmd.params)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"{cmd.kind}: unreadable output ({exc!r})"]


def _off(name: str, got, want) -> str:
    return f"{name}: got {got!r}, reference {want!r}"


def _check_report(stdout: str, ref: dict, bases, ts) -> list[str]:
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != REPORT_HEADER:
        return ["report: bad header"]
    want = [(g, t) for g in bases for t in ts]
    if len(rows) - 1 != len(want):
        return [_off("report rows", len(rows) - 1, len(want))]
    li = ref["Li"]
    problems = []
    for row, (g, t) in zip(rows[1:], want):
        got = dict(zip(REPORT_HEADER, row))
        exp = ref["rows"][f"{g},{t}"]
        where = f"report g={g} t={t}"
        if (got["g"], int(got["t"]), int(got["x"])) != (g, t, MATRIX_X):
            problems.append(_off(f"{where} key", (got["g"], got["t"], got["x"]), (g, t, MATRIX_X)))
            continue
        for key in ("N", "R"):
            if int(got[key]) != exp[key]:
                problems.append(_off(f"{where} {key}", int(got[key]), exp[key]))
        if float(got["M"]) != exp["M"]:
            problems.append(_off(f"{where} M", float(got["M"]), exp["M"]))
        for key in ("naive", "quadratic"):
            if not math.isclose(float(got[key]), exp[key], rel_tol=REL_TOL):
                problems.append(_off(f"{where} {key}", float(got[key]), exp[key]))
        a = float(got["A_times_Li"]) / li
        if not abs(a - exp["A"]) <= 2 * MATRIX_TOL:
            problems.append(_off(f"{where} A", a, exp["A"]))
    return problems


def _check_count(stdout: str, ref: dict, g: str) -> list[str]:
    got = json.loads(stdout)
    want = {"g": g, "t": COUNT_T, "x": COUNT_X, **ref[g]}
    return [_off(f"count g={g} {k}", got.get(k), v) for k, v in want.items() if got.get(k) != v]


def _check_verify(stdout: str, ref: dict) -> list[str]:
    seen = {}
    for line in stdout.splitlines():
        m = SUITE_LINE.match(line)
        if m:
            seen[m.group(2)] = (m.group(1), int(m.group(3)), int(m.group(4)))
    want = {name: ("ok", checks, 0) for name, checks in ref.items()}
    return [_off(f"verify {k}", seen.get(k), v) for k, v in want.items() if seen.get(k) != v] + [
        f"verify: unexpected suite {k}" for k in seen.keys() - want.keys()
    ]


def _check_density(stdout: str, ref: dict, g: str, t: int) -> list[str]:
    got = json.loads(stdout)
    exp = ref[f"{g},{t}"]
    where = f"density g={g} t={t}"
    problems = [
        _off(f"{where} {k}", got.get(k), v)
        for k, v in {"g": g, "t": t, "degree": exp["degree"], "nu": exp["nu"], "tol": DENSITY_TOL}.items()
        if got.get(k) != v
    ]
    for key in ("A", "artin_constant"):
        if not abs(got[key] - exp[key]) <= 2 * DENSITY_TOL:
            problems.append(_off(f"{where} {key}", got[key], exp[key]))
    return problems


_CHECKS = {
    "report": _check_report,
    "count": _check_count,
    "verify": _check_verify,
    "density": _check_density,
}
