"""Tests of the benchmark itself: output checks, seeds and metric names.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads as w  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def refs():
    return w.load_references()


def fake_report(refs, bases, ts, edit=None) -> str:
    """The CSV `report` would print if it matched the references exactly."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(w.REPORT_HEADER)
    li = refs["report"]["Li"]
    for g in bases:
        for t in ts:
            row = dict(refs["report"]["rows"][f"{g},{t}"])
            row["A_times_Li"] = row["A"] * li
            if edit:
                edit(g, t, row)
            writer.writerow([g, t, w.MATRIX_X] + [row[k] for k in ("N", "R", "naive", "quadratic", "M", "A_times_Li")]
                            + [1.0])
    return out.getvalue()


def check_report(refs, stdout, bases=w.BASES, ts=w.MATRIX_TS):
    return w.check(w.report_command(bases, ts), 0, stdout, refs)


def test_report_matching_references_passes(refs):
    bases, ts = w.commands("matrix-1e6", 3)[0].params
    assert check_report(refs, fake_report(refs, bases, ts), bases, ts) == []


@pytest.mark.parametrize(
    "edit",
    [
        lambda row: row.update(N=row["N"] + 1),
        lambda row: row.update(R=row["R"] - 1),
        lambda row: row.update(M=row["M"] * (1 + 1e-9)),
        lambda row: row.update(naive=row["naive"] * (1 + 3e-9) + 1e-9),
        lambda row: row.update(A_times_Li=row["A_times_Li"] + 2.5 * w.MATRIX_TOL * 1e5),
    ],
    ids=["N", "R", "M", "naive", "A"],
)
def test_one_corrupted_report_value_fails(refs, edit):
    def corrupt(g, t, row):
        if (g, t) == ("-3", 7):
            edit(row)

    problems = check_report(refs, fake_report(refs, w.BASES, w.MATRIX_TS, corrupt))
    assert len(problems) == 1 and "g=-3 t=7" in problems[0]


def test_report_density_within_two_tol_passes(refs):
    li = refs["report"]["Li"]

    def shift(g, t, row):
        row["A_times_Li"] += 1.9 * w.MATRIX_TOL * li

    assert check_report(refs, fake_report(refs, w.BASES, w.MATRIX_TS, shift)) == []


def test_report_rows_out_of_order_fail(refs):
    stdout = fake_report(refs, w.BASES, w.MATRIX_TS)
    swapped = w.BASES[1:] + w.BASES[:1]
    assert check_report(refs, stdout, swapped, w.MATRIX_TS)


def test_count_checks(refs):
    cmd = w.count_command("9/25")
    good = {"g": "9/25", "t": w.COUNT_T, "x": w.COUNT_X, **refs["count"]["9/25"]}
    assert w.check(cmd, 0, json.dumps(good), refs) == []
    assert w.check(cmd, 0, json.dumps({**good, "N": good["N"] + 1}), refs)
    assert w.check(cmd, 2, json.dumps(good), refs)
    assert w.check(cmd, 0, "not json", refs)


def test_density_checks(refs):
    cmd = w.density_command("-3", 2)
    exp = refs["density"]["-3,2"]
    good = {"g": "-3", "t": 2, "tol": w.DENSITY_TOL, **exp}
    assert w.check(cmd, 0, json.dumps(good), refs) == []
    near = {**good, "A": exp["A"] + 1.5 * w.DENSITY_TOL}
    assert w.check(cmd, 0, json.dumps(near), refs) == []
    far = {**good, "A": exp["A"] + 2.5 * w.DENSITY_TOL}
    assert w.check(cmd, 0, json.dumps(far), refs)
    assert w.check(cmd, 0, json.dumps({**good, "degree": exp["degree"] + 1}), refs)


def test_verify_checks(refs):
    lines = [f"ok {name}: {checks} checks, 0 violations" for name, checks in refs["verify"].items()]
    assert w.check(w.VERIFY_COMMAND, 0, "\n".join(lines), refs) == []
    bad = [lines[0].replace("ok", "VIOLATION", 1).replace(" 0 violations", " 1 violations")] + lines[1:]
    assert w.check(w.VERIFY_COMMAND, 0, "\n".join(bad), refs)
    assert w.check(w.VERIFY_COMMAND, 0, "\n".join(lines[1:]), refs)
    assert w.check(w.VERIFY_COMMAND, 3, "\n".join(lines), refs)


def test_seed_fixes_the_commands_and_keeps_the_work():
    assert w.commands("matrix-1e6", 7) == w.commands("matrix-1e6", 7)
    orders = {w.commands("matrix-1e6", s)[0].params for s in range(5)}
    assert len(orders) > 1
    for bases, ts in orders:
        assert sorted(bases) == sorted(w.BASES) and sorted(ts) == list(w.MATRIX_TS)
    picked = {w.commands("count-1e7", s)[0].params[0] for s in range(40)}
    assert picked <= set(w.BASES) and len(picked) > 1
    assert w.commands("verify-density", 1) == w.commands("verify-density", 2)


def test_references_cover_every_seed_choice(refs):
    assert set(refs["count"]) == set(w.BASES)
    assert set(refs["report"]["rows"]) == {f"{g},{t}" for g in w.BASES for t in w.MATRIX_TS}
    assert set(refs["density"]) == {f"{g},{t}" for g, t in w.DENSITY_PAIRS}


def test_benchmark_json_names_the_printed_metrics():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.END_TO_END
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert per_layer == layers.PER_LAYER
    assert [x["name"] for x in BENCHMARK["workloads"]] == list(w.WORKLOADS)


def test_end_to_end_metrics_from_runs():
    runs = [[run.Run(0, "", "", wall, wall * 0.9, rss) for wall, rss in ((1.0, 50.0), (2.0, 80.0))],
            [run.Run(0, "", "", 4.0, 3.0, 60.0)]]
    metrics = run.end_to_end_metrics(runs, [0.2, 0.3, 0.25])
    assert set(metrics) == set(run.END_TO_END)
    assert metrics["wall_s"] == 3.5 and metrics["setup_s"] == 0.25 and metrics["peak_rss_mb"] == 80.0


def test_layer_metrics_self_times_and_counters():
    payload = {
        "spans": [
            ["cli.main", 0.0, 10.0, None],
            ["empirical.sweep", 1.0, 7.0, 0],
            ["arith.totient_sieve", 1.5, 3.5, 1],
            ["empirical.verify_split_criterion", 7.0, 9.0, 0],
        ],
        "counters": {"empirical.sweep.counted_primes": 800, "arith.phi_bytes": 64,
                     "empirical.sweep.thread_speedup": 0.8},
        "post_main_s": 1.0,
    }
    metrics = layers.layer_metrics([payload, layers.EMPTY_PAYLOAD], overhead_s=0.1)
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["cli.self_s"] == 2.0
    assert metrics["empirical.sweep_s"] == 6.0 and metrics["empirical.sweep_self_s"] == 4.0
    assert metrics["empirical.sweep.calls"] == 1 and metrics["empirical.sweep.primes_per_s"] == 800 / 6.0
    assert metrics["arith.phi_bytes"] == 64 and metrics["oracle.violations"] == 0
    assert metrics["empirical.sweep.thread_speedup"] == 0.8 and metrics["trace.overhead_s"] == 0.1
