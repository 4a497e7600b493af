"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Shared material: a prime table to 1e6, one exact pass over the 9-base
matrix at x = 1e5 (rational accumulators plus divisor tallies) and one
float pass at x = 1e6, each a single empirical.sweeps call.  Exact
identities are asserted with zero tolerance; the x = 1e6 comparisons use
the statistical bands stated with each criterion.
"""

import math
import time

import pytest

from conftest import BASES
from resindex import arith, cli, density, empirical, heuristic, oracle
from resindex.decompose import decompose_g

TS = tuple(range(1, 13))
X5 = 10**5
X6 = 10**6


def _announce(num, detail):
    print(f"\n[PASS] criterion {num}: {detail}")


@pytest.fixture(scope="module")
def sweeps5(table):
    t0 = time.perf_counter()
    out = dict(zip(BASES, empirical.sweeps(BASES, table, X5, TS, exact=True)))
    out["elapsed"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def sweeps6(table):
    t0 = time.perf_counter()
    out = dict(zip(BASES, empirical.sweeps(BASES, table, X6, TS)))
    out["elapsed"] = time.perf_counter() - t0
    return out


def test_criterion_1_splitting_criterion(table):
    t0 = time.perf_counter()
    swept = empirical.sweeps(BASES, table, X5, range(1, 25), split=True)
    elapsed = time.perf_counter() - t0
    assert all(sw.split_checks == sw.counted * 24 for sw in swept)
    checks = sum(sw.split_checks for sw in swept)
    assert elapsed <= 60.0, f"criterion 1 runtime {elapsed:.1f}s exceeds 1 minute"
    _announce(1, f"splitting criterion exact on {checks} (p,t) pairs in {elapsed:.1f}s")


def test_criterion_2_character_identities():
    ind = oracle.indicator_suite(200)
    rem = oracle.remark_suite(200)
    assert ind.ok, ind.violations[:3]
    assert rem.ok, rem.violations[:3]
    _announce(2, f"indicator routes agree ({ind.checks} checks); "
                 f"character sums equal Ramanujan sums ({rem.checks} checks)")


def test_criterion_3_coset_density_lemmas():
    res = oracle.rho_sigma_suite(360, 8)
    assert res.ok, res.violations[:3]
    _announce(3, f"coset-density closed forms match enumeration ({res.checks} checks, n <= 360, h <= 8)")


def test_criterion_4_weight_oracles():
    res = oracle.weight_oracle_suite(BASES, 2000)
    assert res.ok, res.violations[:3]
    _announce(4, f"sigma = w*mu, rho = r/t_h and both w/r Moebius relations exact "
                 f"({res.checks} checks, p <= 2000)")


def test_criterion_5_exact_sum_identities(sweeps5):
    mu = arith.moebius_sieve(X5)
    ids = 0
    for g in BASES:
        sw = sweeps5[g]
        for t in TS:
            assert sw.M(t) == sw.L(t) + sw.Q(t), (g, t, "M = L + Q")
            assert sw.H(t) == sw.M(t), (g, t, "H = M")
            r_kt = sw.R_all[t:X5:t]  # k = 1..(X5-1)/t
            n_from_r = int((mu[1 : r_kt.size + 1] * r_kt).sum())
            assert n_from_r == sw.N[t], (g, t, "N = sum mu(k) R_kt")
            left = heuristic.moebius_m_sum_from_tallies(sw.dec, t, sw.pi_all, sw.split_all)
            assert left == sw.quad_exact[t], (g, t, "sum mu(k) M_kt = weighted phi-sum")
            ids += 4
    _announce(5, f"{ids} exact rational identities hold with zero tolerance at x = 1e5")


def test_criterion_6_R_tracks_M(sweeps6):
    worst = 0.0
    for g in BASES:
        sw = sweeps6[g]
        for t in TS:
            m = float(sw.M(t))
            band = max(0.02 * m, 3 * math.sqrt(m) + 10)
            diff = abs(sw.R[t] - m)
            worst = max(worst, diff / band)
            assert diff <= band, (g, t, sw.R[t], m)
    _announce(6, f"|R - M| within band at x = 1e6 for all 108 pairs (worst ratio {worst:.2f})")


def test_criterion_7_quadratic_beats_naive(sweeps6):
    worst = 0.0
    beats = []
    for g in BASES:
        sw = sweeps6[g]
        for t in TS:
            q = sw.quad[t]
            band = max(0.02 * q, 3 * math.sqrt(q) + 10)
            diff = abs(sw.N[t] - q)
            worst = max(worst, diff / band)
            assert diff <= band, (g, t, sw.N[t], q)
            if sw.params[t].eps1 != 0 and abs(sw.N[t] - sw.naive[t]) > diff:
                beats.append((str(g), t))
    assert beats, "no (g,t) with eps1 != 0 had the weighted sum beat the naive one"
    g2 = BASES[0]
    sw = sweeps6[g2]
    _announce(
        7,
        f"|N - weighted| within band for all pairs (worst ratio {worst:.2f}); "
        f"weighted beats naive on {len(beats)} pairs with eps1 != 0, e.g. g=2, t=1: "
        f"N={sw.N[1]}, naive={sw.naive[1]:.1f}, weighted={sw.quad[1]:.1f}",
    )


def test_criterion_8_density_predictions(sweeps6):
    # The density is asymptotic (GRH error term), so a fixed relative band is
    # not a fixed statistical band: 5% of A*Li is 8.6 counting sigma at
    # A = 0.37 but only 1.45 sigma at A = 0.0107.  As in criteria 6 and 7 the
    # band is the larger of the relative one and a 3-sigma counting floor.
    assert sweeps6["elapsed"] <= 300.0, f"matrix sweep took {sweeps6['elapsed']:.0f}s"
    li = arith.log_integral(X6)
    checked = 0
    worst = 0.0
    misses = []
    for g in BASES:
        sw = sweeps6[g]
        dec = sw.dec
        for t in TS:
            a = density.artin_density_A(dec, t, 1e-4)
            if a >= 0.01:
                checked += 1
                m = a * li
                band = max(0.05 * m, 3 * math.sqrt(m) + 10)
                diff = abs(sw.N[t] - m)
                worst = max(worst, diff / band)
                if diff > band:
                    misses.append(
                        f"g={g} t={t}: N={sw.N[t]}, A*Li={m:.1f}, |N - A*Li| = {diff:.1f} > "
                        f"band {band:.1f} (deviation {diff / m * 100:.2f}%, "
                        f"z={(sw.N[t] - m) / math.sqrt(m):+.2f}, "
                        f"weighted heuristic predicts {sw.quad[t]:.1f})"
                    )
    a21 = density.artin_density_A(decompose_g(BASES[0]), 1, 5e-7)
    const = density.artin_constant(5e-7)
    assert abs(a21 - const) <= 1e-6
    if misses:
        print(
            f"\n[FAIL] criterion 8: {len(misses)} of {checked} qualifying pairs "
            f"exceed the band max(5% of A*Li, 3*sqrt(A*Li) + 10); A(2,1) = {a21:.9f} "
            f"does match the Euler product {const:.9f} to 1e-6 and the sweep took "
            f"{sweeps6['elapsed']:.0f}s"
        )
        for line in misses:
            print(f"       {line}")
    assert not misses, misses
    _announce(
        8,
        f"|N - A*Li| within max(5% of A*Li, 3*sqrt(A*Li) + 10) on all {checked} pairs "
        f"with A >= 0.01 (worst ratio {worst:.2f}); "
        f"A(2,1) = {a21:.9f} matches the Euler product {const:.9f} to 1e-6; "
        f"matrix sweep {sweeps6['elapsed']:.0f}s",
    )


def test_criterion_9_degree_statistics(sweeps6):
    worst = 0.0
    for g in BASES:
        sw = sweeps6[g]
        dec = sw.dec
        n = sw.counted
        for t in TS:
            q = 1.0 / density.kummer_degree(dec, t).degree
            f = sw.R[t] / n
            sd = math.sqrt(q * (1 - q) / n)
            if sd == 0:
                assert f == q, (g, t)
                continue
            z = abs(f - q) / sd
            worst = max(worst, z)
            assert z <= 4.0, (g, t, f, q, z)
    _announce(9, f"split fractions within 4 binomial standard deviations of 1/degree (worst z = {worst:.2f})")


def test_criterion_10_report_determinism(capsys):
    # x chosen so the sweep spans several shards and the merge order matters
    x = str(3 * 10**5)
    outs = []
    for threads in ("1", "4", "8"):
        code = cli.main(
            ["report", "--g", "2", "--g", "-3", "--g", "9/25", "--t", "1", "--t", "2",
             "--t", "6", "--x", x, "--threads", threads, "--format", "csv"]
        )
        assert code == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] == outs[2]
    for fmt in ("json", "text"):
        for threads in ("1", "8"):
            code = cli.main(
                ["report", "--g", "8", "--t", "3", "--x", x, "--threads", threads, "--format", fmt]
            )
            assert code == 0
            outs.append(capsys.readouterr().out)
    assert outs[3] == outs[4] and outs[5] == outs[6]
    _announce(10, "report output byte-identical across 1, 4 and 8 threads (csv, json, text)")
