import csv
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from resindex import arith, cli, density
from resindex.decompose import decompose_g, parse_g

ARTIN = 0.3739558136192023  # Artin's constant


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count_text(capsys):
    code, out = run(capsys, "count", "--g", "2", "--t", "1", "--x", "100")
    assert code == 0
    assert out.strip() == "g=2 t=1 x=100 N=12 R=24"


def test_count_json(capsys):
    code, out = run(capsys, "count", "--g", "-4", "--t", "2", "--x", "1000", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["N"] == 0 and data["R"] == 80


def test_heuristic_csv(capsys):
    code, out = run(capsys, "heuristic", "--g", "2", "--t", "2", "--x", "1000", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["g", "t", "x", "naive", "quadratic", "H", "M", "L", "Q"]
    header = dict(zip(rows[0], rows[1]))
    assert float(header["H"]) == float(header["M"])


def test_density_json(capsys):
    code, out = run(capsys, "density", "--g", "2", "--t", "1", "--tol", "1e-4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 1 and abs(data["A"] - 0.37395) < 1e-3


def test_report_csv_header(capsys):
    code, out = run(capsys, "report", "--g", "2", "--t", "1", "--t", "2", "--x", "5000", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["g", "t", "x", "N", "R", "naive", "quadratic", "M", "A_times_Li", "ratio_N_over_ALi"]
    assert len(rows) == 3


def test_report_vanishing_density_rows(capsys):
    code, out = run(
        capsys, "report", "--g", "9/25", "--g=-4", "--t", "1", "--t", "2", "--t", "3",
        "--x", "100000", "--format", "csv",
    )
    assert code == 0
    rows = {(r["g"], r["t"]): r for r in csv.DictReader(io.StringIO(out))}
    for key in (("9/25", "1"), ("9/25", "3"), ("-4", "2")):
        assert rows[key]["N"] == "0"
        assert float(rows[key]["A_times_Li"]) == 0.0
        assert rows[key]["ratio_N_over_ALi"] == "nan"
    assert float(rows[("-4", "1")]["A_times_Li"]) > 0


def test_report_thread_independence(capsys):
    outs = []
    for threads in ("1", "3", "7"):
        code, out = run(
            capsys, "report", "--g", "2", "--g", "-3", "--t", "1", "--t", "4",
            "--x", "20000", "--threads", threads, "--format", "csv",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("command", ["count", "heuristic"])
@pytest.mark.parametrize("t", ["1", "2", "3"])
def test_power_of_two_t_thread_independence(capsys, monkeypatch, command, t):
    # at t = 1 and 2 the kernel finds r's odd part on part of the rows only, and count
    # factors only those rows; at t = 3 count factors every row but skips the phi-sums.
    # The output must not depend on the worker count.  Three usable cores are claimed
    # so that --threads 3 starts three workers on any host
    from resindex import empirical

    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    monkeypatch.setattr(empirical.os, "sched_getaffinity", lambda pid: {0, 1, 2})
    outs = set()
    for g in ("2", "-4", "9/25", "1/2"):
        for threads in ("1", "2", "3"):
            code, out = run(capsys, command, f"--g={g}", "--t", t, "--x", "100000", "--threads", threads)
            assert code == 0 and f"g={g}" in out
            outs.add((g, out))
    assert len(outs) == 4


def test_error_exit_codes(capsys):
    code = cli.main(["count", "--g", "1", "--t", "1", "--x", "100"])
    assert code == 2
    code = cli.main(["count", "--g", "abc", "--t", "1", "--x", "100"])
    assert code == 2
    code = cli.main(["density", "--g", "2", "--t", "1", "--tol", "-1"])
    assert code == 2
    # beyond the Artin-constant cap
    code = cli.main(["density", "--g", "2", "--t", "1", "--tol", "1e-9"])
    assert code == 2
    # a NaN tolerance is not positive
    code = cli.main(["density", "--g", "2", "--t", "1", "--tol", "nan"])
    assert code == 2
    code = cli.main(["report", "--g", "2", "--t", "1", "--x", "1000", "--tol", "nan"])
    assert code == 2


def test_t_beyond_the_sieve_exits_2(capsys):
    # no sieved prime has t | p-1 for a t of 2^30 or more; 2^62 and 10^20
    # used to overflow the int64 moduli 2t and t with a traceback
    for t in ("1073741824", "4611686018427387904", "100000000000000000000"):
        for command in ("count", "heuristic", "report"):
            assert cli.main([command, "--g", "2", "--t", t, "--x", "1000"]) == 2, (command, t)
            out, err = capsys.readouterr()
            assert out == "" and err.startswith("error: ") and "Traceback" not in err
    code, out = run(capsys, "count", "--g", "2", "--t", "1000000007", "--x", "1000")
    assert code == 0 and out.strip() == "g=2 t=1000000007 x=1000 N=0 R=0"


def test_bases_too_large_to_factor_exit_2(capsys):
    # past int()'s 4300-digit limit; two 21-digit prime factors, past the rho
    # step budget; a 3898-digit composite, past the bound on a base's bits
    for g in ("7" * 5000, "10000000000000000016800000000000000005031", str(3 * 10**3897 + 3)):
        assert cli.main(["density", f"--g={g}", "--t", "1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")
    # two 10-digit prime factors still split
    code, out = run(capsys, "density", "--g", "1000000016000000063", "--t", "1")
    assert code == 0 and "A=0.373955839" in out


def test_verify_ok(capsys):
    code, out = run(capsys, "verify", "--max-n", "40", "--max-p", "60", "--g", "2", "--g", "-2")
    assert code == 0
    assert "VIOLATION" not in out
    assert "t_h multiplies the sum" in out


def test_verify_rejects_sizes_that_check_nothing(capsys):
    for argv in (["--max-n", "-3", "--max-p", "10"], ["--max-h", "0"], ["--max-n", "10", "--max-p", "2"]):
        code, out = run(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
    # the only prime <= 3 divides the base, so the weight oracle would check
    # nothing (a small --max-n skips the other suites' default-size work)
    for g in ("3", "9"):
        assert cli.main(["verify", "--g", g, "--max-p", "3", "--max-n", "10"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"base {g} has no counted prime <= 3" in err


def test_sizes_beyond_their_bounds_exit_2(capsys, monkeypatch):
    # refused before any suite runs and before any worker pool exists
    from resindex import empirical, oracle

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(empirical, "_pool", no_pool)
    cases = [
        ["verify", "--max-n", str(oracle._MAX_N + 1)],
        ["verify", "--max-h", str(oracle._MAX_H + 1)],
        ["verify", "--max-p", str(oracle._MAX_P + 1)],
        ["verify", "--max-p", "100000000000000000000"],
        ["verify", "--max-n", "800", "--max-p", "5"],  # base 9/25 has no counted prime <= 5
    ]
    for command in ("count", "heuristic", "report"):
        for threads in (empirical._MAX_THREADS + 1, 10**6):
            cases.append([command, "--g", "2", "--t", "1", "--x", "100000", "--threads", str(threads)])
    for argv in cases:
        t0 = time.perf_counter()
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "" and err.startswith("error: "), argv
        assert time.perf_counter() - t0 < 1, argv


def test_bad_arguments_exit_2_before_the_sieve(capsys, monkeypatch):
    # a sieve to 1e8 takes seconds, so every sweep argument and tolerance is refused before it
    def no_sieve(limit):
        raise AssertionError(f"the primes to {limit} were sieved")

    monkeypatch.setattr(arith, "primes", no_sieve)
    cases = [["report", "--g", "2", "--t", "1", "--x", "100000000", "--tol", tol] for tol in ("0", "nan", "1e-9", "5e-324")]
    for command in ("count", "heuristic", "report"):
        cases.append([command, "--g", "2", "--t", "1", "--x", "100000000", "--threads", "65"])
        cases.append([command, "--g", "2", "--t", "1073741824", "--x", "100000000"])
        cases.append([command, "--g", "2", "--t", "1", "--x", "1000000001"])
    for argv in cases:
        assert cli.main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), argv
    # an x beyond the sieve is refused before any A(g,t) as well
    def no_density(*args):
        raise AssertionError(f"A{args[1:]} was computed")

    monkeypatch.setattr(density, "artin_density_A", no_density)
    assert cli.main(["report", "--g", "2", "--t", "1", "--x", "1000000001"]) == 2
    assert capsys.readouterr().err == "error: x must be <= 1000000000, got 1000000001\n"


def test_density_builds_one_artin_product(capsys, monkeypatch):
    from resindex import density

    bounds = []
    product = density.artin_euler_product
    monkeypatch.setattr(density, "artin_euler_product", lambda b: bounds.append(b) or product(b))
    for g, t in (("2", 1), ("-3", 7), ("9/25", 1), ("5", 1)):
        bounds.clear()
        code, out = run(capsys, "density", f"--g={g}", "--t", str(t), "--tol", "1e-4", "--format", "json")
        assert code == 0 and len(bounds) == 1, (g, t)
        data = json.loads(out)
        c = density.density_factor(decompose_g(parse_g(g)), t)
        assert abs(data["artin_constant"] - ARTIN) <= 1e-4
        assert abs(data["A"] - float(c) * ARTIN) <= 1e-4, (g, t)


def test_density_on_wide_bases(capsys):
    # a 1024-bit prime over another: disc = 4PQ must never be factored (Pollard
    # rho gives up on it after seconds), only P and Q, which Miller-Rabin proves
    p, q = 2**1023 + 2**1000 + 863, 3 * 2**1022 + 1037
    assert arith.is_prime(p) and arith.is_prime(q) and p * q % 4 == 3
    t0 = time.perf_counter()
    code, out = run(capsys, "density", f"--g={p}/{q}", "--t", "1")
    assert code == 0 and "A=0.373955839" in out
    assert time.perf_counter() - t0 < 10
    dec = decompose_g(parse_g(f"{p}/{q}"))
    want = [1, 2, 6, 8, 20, 12, 42, 32, 54, 40, 110, 48]  # t * phi(t): nu = 1 while disc does not divide t
    assert [density.kummer_degree(dec, t).degree for t in range(1, 13)] == want
    # with P and Q in t, as in density_factor's k1-sum: nu = 2 where disc = 4PQ divides t
    for t in range(1, 13):
        k, nu = density.kummer_degree(dec, p * q * t), 2 if t % 4 == 0 else 1
        assert (k.degree, k.nu) == (want[t - 1] * p * (p - 1) * q * (q - 1) // nu, nu), t


def test_verify_exit_code_on_violation(capsys, monkeypatch):
    from resindex import oracle

    def broken(max_n):
        return oracle.SuiteResult(name="indicator", checks=1, violations=["synthetic failure"])

    monkeypatch.setattr(oracle, "indicator_suite", broken)
    code, out = run(capsys, "verify", "--max-n", "10", "--max-p", "20", "--g", "2")
    assert code == 3
    assert "VIOLATION" in out


def test_thread_validation(capsys):
    code = cli.main(["count", "--g", "2", "--t", "1", "--x", "100", "--threads", "0"])
    assert code == 2


def test_density_takes_no_threads(capsys):
    # density never sweeps primes, so it has no --threads option
    with pytest.raises(SystemExit) as exc:
        cli.main(["density", "--g", "2", "--t", "1", "--threads", "2"])
    assert exc.value.code == 2


NO_NUMPY_PROBE = """
import contextlib, io, sys

def no_numpy(step):
    assert "numpy" not in sys.modules, step

import resindex
no_numpy("import resindex")
import resindex.cli
no_numpy("import resindex.cli")
with contextlib.redirect_stdout(io.StringIO()):
    try:
        resindex.cli.main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0
    no_numpy("--help")
    for fmt in ("text", "csv", "json"):
        assert resindex.cli.main(["density", "--g", "-3", "--t", "2", "--format", fmt]) == 0
        no_numpy("density --format " + fmt)
    assert resindex.cli.main(["count", "--g", "2", "--t", "1", "--x", "1000"]) == 0
assert "numpy" in sys.modules
print("ok")
"""


def test_density_and_help_load_no_numpy():
    # a fresh interpreter: this one imported numpy long ago
    import resindex

    src = str(Path(resindex.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-c", NO_NUMPY_PROBE], capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert run.returncode == 0 and run.stdout == "ok\n", run.stderr
