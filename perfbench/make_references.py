#!/usr/bin/env python3
"""Write references.json from the resindex sources in this checkout.

    python3 perfbench/make_references.py

Run it only at a commit whose outputs are trusted: the benchmark holds
every later commit to these values.  It runs the nine-base report at 1e6
(json, which carries A and Li), `count` at 1e7 for every base the seed
can pick, `verify` and the density pairs; about four minutes on two cores.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as w


def cli(argv) -> str:
    result, _ = run.spawn(["-c", run.ENTRY, *argv], timeout_s=600.0)
    if result.returncode != 0:
        sys.exit(f"resindex {' '.join(argv)} failed:\n{result.stderr}")
    return result.stdout


def main() -> int:
    run.build()
    report_argv = [*w.report_command(w.BASES, w.MATRIX_TS).argv]
    report_argv[report_argv.index("csv")] = "json"
    rows = json.loads(cli(report_argv))
    lis = {row["Li"] for row in rows}
    if len(lis) != 1:
        sys.exit(f"report rows disagree on Li: {lis}")
    refs = {
        "report": {
            "Li": lis.pop(),
            "rows": {
                f"{row['g']},{row['t']}": {k: row[k] for k in ("N", "R", "naive", "quadratic", "M", "A")}
                for row in rows
            },
        },
        "count": {},
        "verify": {},
        "density": {},
    }
    for g in w.BASES:
        out = json.loads(cli(w.count_command(g).argv))
        refs["count"][g] = {"N": out["N"], "R": out["R"]}
        print(f"count g={g}: {refs['count'][g]}", file=sys.stderr)
    for line in cli(w.VERIFY_COMMAND.argv).splitlines():
        m = w.SUITE_LINE.match(line)
        if m:
            if m.group(1) != "ok" or m.group(4) != "0":
                sys.exit(f"verify reports a violation: {line}")
            refs["verify"][m.group(2)] = int(m.group(3))
    for g, t in w.DENSITY_PAIRS:
        out = json.loads(cli(w.density_command(g, t).argv))
        refs["density"][f"{g},{t}"] = {k: out[k] for k in ("degree", "nu", "A", "artin_constant")}
    w.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
