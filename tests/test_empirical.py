import pickle
import tracemalloc
from collections import Counter
from dataclasses import fields, replace
from fractions import Fraction
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    BASE_STRINGS,
    BASES,
    brute_index,
    counted_primes,
    divisor_index,
    euler_criterion,
    trial_divisors,
)
from resindex import arith, cli, empirical, heuristic
from resindex.decompose import decompose_g, derive_params, parse_g
from resindex.errors import BoundError, CapabilityError, DomainError, LemmaViolation


def kernel_run(g, ps: list[int], table) -> tuple[np.ndarray, np.ndarray]:
    """r_g(p) and (disc/p) at the ascending counted primes ps, as the sweep finds them:
    the kernel on g's root, then the lift."""
    dec, ps = decompose_g(g), np.array(ps, dtype=np.int64)
    qs = empirical._factor_shard(ps - 1, table[: table.searchsorted(isqrt(int(ps[-1])), "right")])
    r0, leg = empirical._shard_indexes(empirical._root(dec), ps, qs)
    return empirical._lift(r0, ps - 1, dec), leg


# ---------------------------------------------------------------------------
# residual indexes


def test_residual_index_examples(small_table):
    assert kernel_run(parse_g("2"), [5, 7], small_table)[0].tolist() == [1, 2]
    # 2 and the primes dividing g are not counted: 7, 11 and 13 are
    assert empirical.sweep(parse_g("9/25"), 13, (1,)).counted == 3


def test_residual_index_against_brute_force(small_table):
    for g in map(parse_g, ("2", "-2", "9/25", "-27", "1/2", "8", "-4", "-1/4", str(2**12))):
        ps = counted_primes(g, 300, small_table)
        assert kernel_run(g, ps, small_table)[0].tolist() == [brute_index(g, p) for p in ps], g


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((Fraction(2), Fraction(3), Fraction(5, 3), Fraction(12))),
    st.integers(1, 12),
    st.sampled_from((1, -1)),
    st.booleans(),
)
def test_lift_equals_kernel(table, g0, h, sign, invert):
    # r of +-g0^h and +-g0^-h lifted from the root's r equals the kernel run on g itself
    g = sign * (1 / g0 if invert else g0) ** h
    dec = decompose_g(g)
    assert empirical._root(dec) == max(g0, 1 / g0)
    ps = np.array(counted_primes(g, 10**5, table))
    pm1 = ps - 1
    qs = empirical._factor_shard(pm1, table[: table.searchsorted(isqrt(10**5), "right")])
    r0, _ = empirical._shard_indexes(empirical._root(dec), ps, qs)
    assert np.array_equal(empirical._lift(r0, pm1, dec), empirical._shard_indexes(g, ps, qs)[0])
    # e = v2(r(g0^h)) against v = v2(p-1): the sign step doubles r at e = v-1, halves it at e = v
    rh = r0 * np.gcd(pm1 // r0, h)
    low_r, low_pm1 = rh & -rh, pm1 & -pm1
    assert (2 * low_r == low_pm1).any() and (low_r == low_pm1).any()


def test_kernel_legendre_column_is_the_disc_symbol(table):
    # the kernel's second column is (root/p), which must be (disc/p) at every counted p
    for g in (Fraction(2), Fraction(3), Fraction(12), Fraction(5, 3), Fraction(3 * 2**70), Fraction(5, 7**30)):
        ps = counted_primes(g, 10**5, table)
        disc = decompose_g(g).disc
        assert kernel_run(g, ps, table)[1].tolist() == [euler_criterion(disc, p) for p in ps], g


def window_primes(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi), lo >= 2, by a sieve of that window alone."""
    flags = np.ones(hi - lo, dtype=bool)
    for q in arith.primes(isqrt(hi)).tolist():
        flags[max(q * q, -(-lo // q) * q) - lo :: q] = False
    return (np.flatnonzero(flags) + lo).tolist()


FACTOR_WINDOWS = [
    # p-1 = 4 * (2*3*...*23) has nine distinct primes, the most below 1e9
    (892371481 - 20000, 892371481 + 20000, 1, 892371481),
    # 67^2 | p-1: a base prime above the dense ones divides twice
    (17957 - 3000, 17957 + 3000, 1, 17957),
    (80803 - 3000, 80803 + 3000, 1, 80803),
    (125693 - 3000, 125693 + 3000, 1, 125693),
    # the last shard below 1e9
    (10**9 - 200000, 10**9, 1, None),
    # no base prime above the dense ones; one value, or two
    (3, 4, 1, 3),
    (7, 8, 1, 7),
    (5, 8, 1, 5),
    # every other prime: sparse over a wide range, as the weight oracle passes its counted primes
    (3, 10**4, 2, 3),
]


@pytest.mark.parametrize(
    "lo, hi, step, named",
    FACTOR_WINDOWS,
    ids=[f"{lo}-{hi}-{named}" + (f"-step{step}" if step > 1 else "") for lo, hi, step, named in FACTOR_WINDOWS],
)
def test_factor_rows_match_factor_int(lo, hi, step, named):
    ps = np.array(window_primes(lo, hi)[-empirical.SHARD_PRIMES :: step])
    assert named is None or named in ps
    facs = [arith.factor_int(p - 1) for p in ps.tolist()]
    # the base primes of a sweep to ps[-1], and of one to 10**6, whose q up to 997 mostly miss small p
    for limit in {int(ps[-1]), max(int(ps[-1]), 10**6)}:
        qs = empirical._factor_shard(ps - 1, arith.primes(isqrt(limit)))
        assert qs.shape == (ps.size, max(map(len, facs))) and qs.dtype == np.int32
        for p, qrow, fac in zip(ps.tolist(), qs.tolist(), facs):
            assert qrow == [q for q, _ in fac] + [1] * (qs.shape[1] - len(fac)), p


def test_kernel_inverts_the_denominator(table, monkeypatch):
    # the kernel's power table is of a * b^-1 mod p, with b inverted by array Euclid
    ps = table[-2048:]
    qs = empirical._factor_shard(ps - 1, table[: table.searchsorted(isqrt(int(ps[-1])), "right")])
    bases = []
    power_table = arith.power_table
    monkeypatch.setattr(arith, "power_table", lambda base, *a: bases.append(base) or power_table(base, *a))
    prod = int(np.prod(ps.astype(object)))
    # b = 1 and b = -1 mod every p come last
    for b in (3, 25, 2**71, prod + 1, prod - 1):
        g = Fraction(7, b)
        assert g.denominator == b
        empirical._shard_indexes(g, ps, qs)
        assert bases[-1].tolist() == [7 * pow(b, -1, p) % p for p in ps.tolist()], b
    assert set(bases[-2].tolist()) == {7} and bases[-1].tolist() == (-7 % ps).tolist()


# ---------------------------------------------------------------------------
# counters


def test_count_exact_examples():
    g = parse_g("2")
    assert empirical.sweep(g, 20, (2,)).N[2] == 2  # p = 7, 17
    assert empirical.sweep(g, 20, (1,)).N[1] == 5  # 3, 5, 11, 13, 19
    assert empirical.sweep(g, 7, (7,)).N[7] == 0
    assert empirical.sweep(parse_g("-3"), 7, (7,)).N[7] == 0


def test_count_divisible_examples(small_table):
    g = parse_g("2")
    assert empirical.sweep(g, 20, (1,)).R[1] == 7
    assert empirical.sweep(g, 20, (2,)).R[2] == 2
    want = sum(1 for p in counted_primes(parse_g("4"), 100, small_table) if brute_index(parse_g("4"), p) % 2 == 0)
    assert empirical.sweep(parse_g("4"), 100, (2,)).R[2] == want


def test_count_progression():
    assert empirical.sweep(parse_g("2"), 20, (1, 4)).pi == {1: 7, 4: 3}  # 5, 13, 17
    assert empirical.sweep(parse_g("3"), 20, (4,)).pi == {4: 3}
    assert empirical.sweep(parse_g("2"), 3, (5,)).pi == {5: 0}


def test_count_split_quadratic():
    # disc = 8: 7 and 17 split, 17 also in p = 1 mod 4
    assert empirical.sweep(parse_g("2"), 20, (1, 4)).split == {1: 2, 4: 1}
    assert empirical.sweep(parse_g("2"), 5, (8,)).split == {8: 0}


def test_char_sums_examples(small_table):
    g = parse_g("2")
    # h = 1: only d = 1 contributes, L = pi(x;t,1)/t
    sw = empirical.sweep(g, 1000, (3,))
    assert sw.L(3) == Fraction(sum(p % 3 == 1 for p in counted_primes(g, 1000, small_table)), 3)
    assert empirical.sweep(g, 20, (2,)).Q(2) == Fraction(-3, 2)
    # g = 8 (h = 3), t = 3: brute-force the Ramanujan sums
    g8 = parse_g("8")
    sw = empirical.sweep(g8, 20, (3,))
    want = Fraction(0)
    for p in counted_primes(g8, 20, small_table):
        if (p - 1) % 3 == 0:
            r = brute_index(g8, p)
            want += Fraction(sum(arith.ramanujan_sum(d, r) for d in (1, 3)), 3)
    assert sw.L(3) == want == 3
    assert sw.Q(3) == 0  # (2h, t) = (6, 3) = 3, both divisors divide h


def test_r_decomposition_with_higher_characters(small_table):
    # t R = sum over d | t of c_d(r), split into L (d | (h,t)), Q (d | (2h,t), d not
    # dividing h) and the rest (d not dividing 2h), each brute-forced on its own
    x, ts = 3000, (1, 2, 3, 4, 6, 8, 12)
    for g in map(parse_g, ("2", "-4", "9/25", "-8", "64", "-64", "5/3")):
        h = decompose_g(g).h
        sw = empirical.sweep(g, x, ts)
        rs = [(p, brute_index(g, p)) for p in counted_primes(g, x, small_table)]
        for t in ts:
            r_t = [r for p, r in rs if (p - 1) % t == 0]
            parts = [Fraction(0)] * 3  # L, Q, higher
            for d in range(1, t + 1):
                if t % d == 0:
                    part = 0 if h % d == 0 else 1 if 2 * h % d == 0 else 2
                    parts[part] += Fraction(sum(arith.ramanujan_sum(d, r) for r in r_t), t)
            assert (sw.L(t), sw.Q(t)) == tuple(parts[:2]), (g, t)
            assert sw.R[t] == sum(parts), (g, t)


def test_charactersum_closed_forms_per_prime(small_table):
    # first-order block: sum_{d | (h,t)} c_d(r) equals (h,t) on p = 1 mod (h,t)
    # for positive g, and the same with an extra p = 1 mod 2(h,t) gate for
    # negative g; second-order block reduces to eps2 * (disc/p) * (h,t) with
    # the extra parity sign for negative g.
    for g in BASES:
        dec = decompose_g(g)
        for p in counted_primes(g, 800, small_table):
            r = brute_index(g, p)
            leg = euler_criterion(dec.disc, p)
            for t in range(1, 9):
                pa = derive_params(dec, t)
                ght = pa.gcd_ht
                if (p - 1) % ght == 0:
                    s1 = sum(arith.ramanujan_sum(d, r) for d in range(1, ght + 1) if ght % d == 0)
                    if dec.sign > 0:
                        assert s1 == ght
                    else:
                        assert s1 == (ght if (p - 1) % (2 * ght) == 0 else 0)
                g2 = gcd(2 * dec.h, t)
                if (p - 1) % g2 == 0:
                    s2 = sum(
                        arith.ramanujan_sum(d, r)
                        for d in range(1, g2 + 1)
                        if g2 % d == 0 and dec.h % d != 0
                    )
                    if pa.eps2 == 0:
                        assert s2 == 0
                    elif dec.sign > 0:
                        assert s2 == leg * ght
                    else:
                        sign = -1 if ((p - 1) >> (dec.e + 1)) & 1 else 1
                        assert s2 == sign * leg * ght


# ---------------------------------------------------------------------------
# structural invariants of the sweep


def test_partition_and_inclusion_exclusion(small_table):
    x = 2000
    for g in (parse_g("2"), parse_g("-4"), parse_g("1/2")):
        primes = counted_primes(g, x, small_table)
        rs = [brute_index(g, p) for p in primes]
        ts = sorted(set(rs))
        sw = empirical.sweep(g, x, tuple(ts), exact=True)
        # partition: exact-index counts over all occurring t cover every prime
        assert sum(sw.N[t] for t in ts) == len(primes) == sw.counted
        # R as a sum of N over multiples
        for t in (1, 2, 3):
            assert sw.R.get(t, sum(1 for r in rs if r % t == 0)) == sum(
                1 for r in rs if r % t == 0
            )
            want_R = sum(sw.N.get(k * t, 0) for k in range(1, max(rs) // t + 1))
            got_R = sum(1 for r in rs if r % t == 0)
            assert want_R == got_R
        # inclusion-exclusion: N_t = sum_k mu(k) R_{kt}
        mu = arith.moebius_sieve(x)
        for t in (1, 2, 3, 5):
            n_t = sum(1 for r in rs if r == t)
            r_kt = sw.R_all[t:x:t]  # k = 1..(x-1)/t
            total = int((mu[1 : r_kt.size + 1] * r_kt).sum())
            assert total == n_t


@pytest.mark.parametrize("n", [1, 2, 30, 997, 1024])
def test_sum_over_multiples_matches_divisor_counting(n):
    # mass at n itself (for n = 1024 the 2^10 needs the q^8 step) and at the
    # largest prime <= n, where only m = 1 and m = q see it
    rng = np.random.default_rng(n)
    f = rng.integers(0, 5, size=(3, n + 1))
    primes = arith.primes(n)
    f[:, n] += 7
    if primes.size:
        f[:, primes[-1]] += 11
    want = f.copy()
    for m in range(1, n + 1):
        want[:, m] = f[:, m::m].sum(axis=1)
    empirical._sum_over_multiples(f, primes)
    assert np.array_equal(f, want)


def test_sweep_matches_single_ops(small_table):
    g = parse_g("-3")
    sw = empirical.sweep(g, 500, (1, 2, 3, 4))
    primes = counted_primes(g, 500, small_table)
    for t in (1, 2, 3, 4):
        ones = [p for p in primes if (p - 1) % t == 0]
        assert sw.pi[t] == len(ones)
        assert sw.split[t] == sum(euler_criterion(decompose_g(g).disc, p) == 1 for p in ones)
        assert 0 <= sw.N[t] <= sw.R[t] <= sw.pi[t]


def test_sweep_thread_determinism():
    g = parse_g("8")
    a = empirical.sweep(g, 10**5, (1, 2, 3), threads=1, exact=True)
    b = empirical.sweep(g, 10**5, (1, 2, 3), threads=3, exact=True)
    for t in (1, 2, 3):
        assert a.N[t] == b.N[t] and a.R[t] == b.R[t]
        assert a.naive[t] == b.naive[t]  # bitwise float equality
        assert a.quad[t] == b.quad[t]
        assert a.naive_exact[t] == b.naive_exact[t]
        assert a.quad_exact[t] == b.quad_exact[t]
    for name in ("pi_all", "split_all", "R_all"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# the bases drop different excluded primes (3, 5, 7, 99991) from spans whose primes base 2
# counts whole, and 1/2 shares base 2's tally
_SWEEPS_BASES = tuple(
    map(Fraction, (99991, Fraction(-7, 99991), Fraction(9, 25), 3**50, 1024, -64, Fraction(1, 2), 2, 2))
)


def span_primes(table, x: int) -> list[list[int]]:
    """The odd primes of each of the sweep's spans at x, in order."""
    odd = table[1 : table.searchsorted(x, "right")].tolist()
    return [[p for p in odd if lo <= p < hi] for lo, hi in empirical._spans(x)]


def test_steps_cut_the_odd_primes_into_shared_chunks(table, monkeypatch):
    # the steps' spans tile [3, x + 1) in order, the same for every base; each base gets
    # a span's odd primes less exactly its excluded primes, and the bases that drop the
    # same primes of a span share one _tally_step call
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    calls = []
    tally_step = empirical._tally_step
    monkeypatch.setattr(
        empirical,
        "_tally_step",
        lambda plans, ts, ps, *a: calls.append(([p.g for p in plans], ps.tolist())) or tally_step(plans, ts, ps, *a),
    )
    second = span_primes(table, 10**5)[1]
    edges = Fraction(second[0], second[-1])  # excluded at the first and at the last position of span 1
    cases = ((10**5, _SWEEPS_BASES + (edges,)), (99991, _SWEEPS_BASES), (3, (Fraction(3), Fraction(2))))
    seen = {}
    for x, gs in cases:
        spans = empirical._spans(x)
        assert [lo for lo, _ in spans] + [x + 1] == [3] + [hi for _, hi in spans], x
        assert all(lo < hi for lo, hi in spans), x
        calls.clear()
        empirical.sweeps(gs, x, (1, 2))
        seen[x] = list(calls)
        counted = {g: counted_primes(g, x, table) for g in gs}
        held = [span for span in span_primes(table, x) if span]  # a span without primes has no call
        want = []
        for span in held:
            groups = {}
            for g in dict.fromkeys(gs):
                groups.setdefault(tuple(sorted(set(span) & set(counted[g]))), []).append(g)
            want += [(members, list(ps)) for ps, members in groups.items()]
        assert sorted(calls) == sorted(want), x
        # each base's primes over all steps are its counted primes, each span's in one call
        for g in gs:
            got = [ps for members, ps in calls if g in members]
            assert len(got) == len(held) and sum(got, []) == counted[g], (x, g)
    # an excluded prime first and last in a span, and a group with no primes, were reached
    assert ([edges], second[1:-1]) in seen[10**5]
    assert ([Fraction(3)], []) in seen[3]


def test_sweep_past_an_empty_last_span(table):
    # at x = 90855, a span edge and 5 * 18171, the last span [x, x + 1) holds no prime:
    # the sweep must equal the one at the prime before x, field by field
    x = 90855
    spans = empirical._spans(x)
    assert spans[-1] == (x, x + 1) and not arith.is_prime(x)
    prev = int(table[table.searchsorted(x, "right") - 1])
    gs = (parse_g("2"), parse_g("-4"), parse_g("9/25"), Fraction(1, 2))
    for sw, want in zip(
        empirical.sweeps(gs, x, (1, 2, 3), exact=True, split=True),
        empirical.sweeps(gs, prev, (1, 2, 3), exact=True, split=True),
    ):
        assert sw.x == x and want.x == prev
        for name in (f.name for f in fields(empirical.Sweep)):
            got, ref = getattr(sw, name), getattr(want, name)
            if isinstance(ref, np.ndarray):  # over m = 0..x: zero beyond prev, as p - 1 < prev
                assert np.array_equal(got[: prev + 1], ref) and not got[prev + 1 :].any(), (sw.g, name)
            elif name != "x":
                assert got == ref, (sw.g, name)  # floats bitwise


def test_sweeps_equal_per_base_sweeps(table, monkeypatch):
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x, ts = 10**5, (1, 3, 4)
    alone = [empirical.sweep(g, x, ts, exact=True) for g in _SWEEPS_BASES[:-1]]
    alone.append(alone[-1])
    for threads in (1, 3):
        together = empirical.sweeps(_SWEEPS_BASES, x, ts, threads=threads, exact=True)
        assert [sw.g for sw in together] == list(_SWEEPS_BASES)
        for g, sw, want in zip(_SWEEPS_BASES, together, alone):
            primes = counted_primes(g, x, table)
            assert sw.counted == want.counted == len(primes)
            assert all(sw.pi[t] == sum((p - 1) % t == 0 for p in primes) for t in ts)
            for name in empirical._COLUMNS + ("naive", "quad", "naive_exact", "quad_exact"):
                assert getattr(sw, name) == getattr(want, name), (threads, g, name)  # floats bitwise
            for name in ("pi_all", "split_all", "R_all"):
                assert np.array_equal(getattr(sw, name), getattr(want, name)), (threads, g, name)


def test_report_factors_each_step_once(table, monkeypatch):
    # one _factor_shard call per step that holds a prime serves all nine bases
    calls = []
    factor_shard = empirical._factor_shard
    monkeypatch.setattr(empirical, "_factor_shard", lambda *a: calls.append(a) or factor_shard(*a))
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x = 20000
    argv = ["report", "--x", str(x), "--t", "1", "--t", "2", "--format", "csv"]
    assert cli.main(argv + [f"--g={g}" for g in BASE_STRINGS]) == 0
    assert len(calls) == sum(map(bool, span_primes(table, x))) > 1


def test_report_runs_the_kernel_once_per_root(table, monkeypatch):
    # the nine bases have four roots, 2, 3, 5 and 5/3: one kernel run per root and step,
    # each reading its powers off one table, 5/3's inverse of 3 included
    calls, tables = [], []
    shard_indexes, power_table = empirical._shard_indexes, arith.power_table
    monkeypatch.setattr(empirical, "_shard_indexes", lambda g, *a: calls.append(g) or shard_indexes(g, *a))
    monkeypatch.setattr(arith, "power_table", lambda *a: tables.append(a) or power_table(*a))
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x = 20000
    argv = ["report", "--x", str(x), "--t", "1", "--t", "2", "--format", "csv"]
    assert cli.main(argv + [f"--g={g}" for g in BASE_STRINGS]) == 0
    steps = sum(map(bool, span_primes(table, x)))
    assert len(calls) == len(tables) == 4 * steps > 4
    assert set(calls) == {2, 3, 5, Fraction(5, 3)}


def test_report_tallies_once_per_key(table, monkeypatch):
    # 2 and 1/2 have one root, sign and h, so the nine bases have eight tallies: one
    # weights call per key, t and step
    calls = []
    weights = heuristic.weights
    monkeypatch.setattr(heuristic, "weights", lambda dec, *a: calls.append(dec) or weights(dec, *a))
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x = 20000
    argv = ["report", "--x", str(x), "--t", "1", "--t", "2", "--format", "csv"]
    assert cli.main(argv + [f"--g={g}" for g in BASE_STRINGS]) == 0
    steps = sum(map(bool, span_primes(table, x)))
    assert len(calls) == 8 * 2 * steps > 16
    assert len({(empirical._root(dec), dec.sign, dec.h) for dec in calls}) == 8


def test_sweep_invariant_violation_raises(monkeypatch, capsys):
    # an M one off from H must stop the sweep, and the CLI must exit 3
    m_from_counts = heuristic.m_from_counts
    monkeypatch.setattr(heuristic, "m_from_counts", lambda *args: m_from_counts(*args) + 1)
    with pytest.raises(LemmaViolation, match="sweep invariant"):
        empirical.sweep(parse_g("2"), 1000, (1, 2))
    assert cli.main(["report", "--g", "2", "--t", "1", "--t", "2", "--x", "1000"]) == 3
    assert "identity violation" in capsys.readouterr().err


def test_split_criterion_verification(small_table):
    sw = empirical.sweep(parse_g("-2"), 2000, range(1, 11), split=True)
    assert sw.split_checks == 10 * len(counted_primes(parse_g("-2"), 2000, small_table))


def test_sweep_split_check_counts_every_pair(monkeypatch):
    # split=True checks every counted prime and t inside the pass and changes no tally
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x, ts = 10**5, (1, 2, 4, 5)
    gs = (parse_g("9/25"), parse_g("-4"), Fraction(3**50), Fraction(1, 2**70), parse_g("2"))
    plain = empirical.sweeps(gs, x, ts)
    for threads in (1, 3):
        for sw, want in zip(empirical.sweeps(gs, x, ts, threads=threads, split=True), plain):
            assert want.split_checks == 0
            assert sw.split_checks == sw.counted * len(ts) > 0
            for name in empirical._COLUMNS + ("counted", "naive", "quad"):
                assert getattr(sw, name) == getattr(want, name), (threads, sw.g, name)  # floats bitwise


def test_count_factors_each_shard_once(table, monkeypatch):
    # count checks the splitting criterion on the sweep's r instead of a second kernel pass;
    # one thread keeps every step in this process, where the calls are counted
    calls = []
    factor_shard = empirical._factor_shard
    monkeypatch.setattr(empirical, "_factor_shard", lambda *a: calls.append(a) or factor_shard(*a))
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x = 20000
    assert cli.main(["count", "--g", "2", "--t", "2", "--x", str(x), "--threads", "1"]) == 0
    assert len(calls) == sum(map(bool, span_primes(table, x))) > 1


def test_worker_faults_exit_3(monkeypatch, capsys):
    # a fault in a forked worker reaches the caller as the same LemmaViolation; two usable
    # cores are claimed so that the two steps at 1e5 run in two workers on any host
    table_pow = arith.table_pow
    monkeypatch.setattr(arith, "table_pow", lambda tab, i, e, m: np.where(m % 7 == 3, 1, table_pow(tab, i, e, m)))
    monkeypatch.setattr(empirical.os, "sched_getaffinity", lambda pid: {0, 1})
    started = []
    pool = empirical._pool
    monkeypatch.setattr(empirical, "_pool", lambda workers: started.append(workers) or pool(workers))
    assert cli.main(["count", "--g", "2", "--t", "2", "--x", "100000", "--threads", "2"]) == 3
    assert started == [2]
    assert "splitting criterion" in capsys.readouterr().err


def same_tallies(a, b) -> bool:
    """Equal step tallies, arrays by dtype and bytes, so floats compare bitwise."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(same_tallies, a, b))
    return type(a) is type(b) and a == b


def test_step_reads_only_its_arguments(monkeypatch):
    # a worker gets its job and span as pickles: a copy of them must give the same tallies,
    # so _step depends on no object shared with the caller beyond what it is passed
    calls = []
    step = empirical._step
    monkeypatch.setattr(empirical, "_step", lambda job, span: calls.append((job, span)) or step(job, span))
    empirical.sweeps((parse_g("2"), parse_g("-4"), parse_g("9/25")), 10**5, (1, 2, 3), exact=True, split=True)
    assert len(calls) == 2
    for job, span in calls:
        assert same_tallies(step(*pickle.loads(pickle.dumps((job, span)))), step(job, span))


def test_split_check_catches_kernel_faults(monkeypatch, capsys):
    # a table_pow that claims g^e = 1 mod p for some primes corrupts r; the
    # algebraic side runs its own ladder, so the check must not agree with it,
    # also for 1/2, whose numerator side is 1 and runs no ladder
    table_pow = arith.table_pow
    monkeypatch.setattr(arith, "table_pow", lambda tab, i, e, m: np.where(m % 7 == 3, 1, table_pow(tab, i, e, m)))
    for g in ("2", "1/2"):
        with pytest.raises(LemmaViolation, match="splitting criterion"):
            empirical.sweep(parse_g(g), 10**4, (2,), split=True)
        assert cli.main(["count", f"--g={g}", "--t", "2", "--x", str(10**4)]) == 3
        assert "splitting criterion" in capsys.readouterr().err


def test_kernel_fault_off_the_two_power_orders_exits_3(monkeypatch, capsys):
    # a table_pow that gives 2 mod p for some primes hands the 2-part's squaring a y whose
    # order need not be a power of two: the kernel must stop at v2(p-1) squarings, and the
    # split check must catch the r it finds
    table_pow = arith.table_pow
    monkeypatch.setattr(arith, "table_pow", lambda tab, i, e, m: np.where(m % 7 == 3, 2, table_pow(tab, i, e, m)))
    assert cli.main(["count", "--g=3", "--t", "2", "--x", str(10**4)]) == 3
    assert "splitting criterion" in capsys.readouterr().err


def test_split_check_runs_no_ladder_on_a_unit_side(table, monkeypatch):
    # 1/2 is checked as 2^e = 1 mod p, and 2 as itself: one full-length ladder, e = (p-1)/t,
    # per t and step; 5/3 takes one full-length ladder and one of exponent 2t-1 for 3^(2t-1)
    calls = []
    pow_ladder = empirical._pow_ladder
    monkeypatch.setattr(empirical, "_pow_ladder", lambda *a: calls.append(a) or pow_ladder(*a))
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x, ts = 20000, (1, 2, 4)
    steps = sum(map(bool, span_primes(table, x)))
    for g, short in (("1/2", False), ("2", False), ("5/3", True)):
        calls.clear()
        assert empirical.sweep(parse_g(g), x, ts, split=True).split_checks > 0
        per = 1 + short
        assert len(calls) == per * len(ts) * steps > 0, g
        # step by step and t by t; for 5/3 the ladder of 3^(2t-1) comes first
        for i, (_, e, m) in enumerate(calls):
            t = ts[i // per % len(ts)]
            want = np.full(m.size, 2 * t - 1) if short and i % per == 0 else (m - 1) // t
            assert np.array_equal(e, want), (g, t)


def test_split_check_refuses_a_prime_dividing_den_at_t_1(small_table):
    # b = num * den^(2t-1) is 0 mod a prime dividing num or den, so even t = 1, whose exponent
    # is p-1, fails there: the check certifies the sweep's excluded primes 3 and 5 of 5/3
    g = Fraction(5, 3)
    ps = counted_primes(g, 200, small_table)
    for bad in (3, 5):
        with_bad = np.array(sorted(ps + [bad]))
        r = np.ones(with_bad.size, dtype=np.int64)
        with pytest.raises(LemmaViolation, match=f"g=5/3 p={bad} t=1:"):
            empirical._split_check(g, (1,), with_bad, r)
    assert empirical._split_check(g, (1,), np.array(ps), np.ones(len(ps), dtype=np.int64)) == len(ps)


def test_lift_is_certified(monkeypatch, capsys):
    # a lift that skips the sign step gives -4 the r of 4; the split check must catch it
    lift = empirical._lift
    monkeypatch.setattr(empirical, "_lift", lambda r0, pm1, dec: lift(r0, pm1, replace(dec, sign=1)))
    assert cli.main(["count", "--g=-4", "--t", "2", "--x", str(10**4)]) == 3
    assert "splitting criterion" in capsys.readouterr().err
    with pytest.raises(LemmaViolation, match="splitting criterion"):
        empirical.sweep(parse_g("-4"), 10**4, (2,), split=True)


SPLIT_BASES = (Fraction(2), Fraction(-4), Fraction(9, 25), Fraction(3**50), Fraction(1, 2**70), Fraction(5, 7**30))


@pytest.fixture(scope="module")
def near_1e9():
    """The 2180 primes in (10**9 - 45000, 10**9), ascending: residues near 2**30."""
    return [p for p in range(10**9 - 44999, 10**9, 2) if arith.is_prime(p)]


def test_pow_ladder_edges():
    # e = 0 and 1, and exponents of an odd and an even number of bits, alone (the ladder
    # then runs exactly their bit length) and mixed, on moduli near 2**30
    m = np.array([2**30 - 1, 2**30 - 3, 2**30 - 35, 999999937], dtype=np.int64)
    b = np.array([2**30 - 2, 3, 2**29 + 12345, 999999936], dtype=np.int64)
    exps = (0, 1, 2, 0b101, 0b1101101, 2**28 + 3, 2**29 - 1, 2**30 - 7)
    for e in exps:
        got = empirical._pow_ladder(b, np.full(m.size, e), m)
        assert got.tolist() == [pow(int(bi), e, int(mi)) for bi, mi in zip(b, m)], e
    e = np.array([0, 1, 0b1101101, 2**28 + 3])
    got = empirical._pow_ladder(b, e, m)
    assert got.tolist() == [pow(int(bi), int(ei), int(mi)) for bi, ei, mi in zip(b, e, m)]


def test_split_check_ladder_on_primes_near_1e9(table, near_1e9):
    # t = 1 takes the largest exponent, p-1, and every product comes near 2**60
    ps, ts = np.array(near_1e9), range(1, 25)
    for g in SPLIT_BASES:
        r, _ = kernel_run(g, near_1e9, table)
        assert empirical._split_check(g, ts, ps, r) == len(ps) * len(ts), g
        # t | r flipped at one prime (at t = 2 at least) must be caught there
        i = len(ps) // 3
        bad = r.copy()
        bad[i] += 1
        with pytest.raises(LemmaViolation, match=f"g={g} p={ps[i]} t="):
            empirical._split_check(g, ts, ps, bad)


def test_split_check_needs_no_kernel_routine(table, near_1e9, monkeypatch):
    # the algebraic side must not share a routine with the kernel that found r
    ps, ts = np.array(near_1e9), range(1, 13)
    rs = {g: kernel_run(g, near_1e9, table)[0] for g in SPLIT_BASES}

    def broken(*args):
        raise AssertionError("the split check reached a kernel routine")

    for name in ("power_table", "table_pow", "reduce_mod_vec"):
        monkeypatch.setattr(arith, name, broken)
    for g, r in rs.items():
        assert empirical._split_check(g, ts, ps, r) == len(ps) * len(ts), g


@pytest.mark.parametrize(
    "g",
    [
        Fraction(2**62 - 1),
        Fraction(-(2**62 - 1), 5),
        Fraction(7, 2**62 - 1),
        Fraction(-7, 9),
        # from 2**62 on, Python's % one prime at a time
        Fraction(2**62),
        Fraction(3, 2**62),
        Fraction(2**63 + 1),
        Fraction(-(2**63 + 1), 2**62 - 1),
    ],
)
def test_split_check_residues_at_the_int64_edge(small_table, monkeypatch, g):
    # numpy's % on num and den below 2**62 in magnitude agrees with Python's, signs included
    ps = np.array(counted_primes(g, 3000, small_table))
    r, _ = kernel_run(g, ps.tolist(), small_table)
    for v in (g.numerator, g.denominator):
        assert empirical._residues(v, ps).tolist() == [v % p for p in ps.tolist()], v
    ts = (1, 2, 3, 4, 6)
    pairs = empirical._split_check(g, ts, ps, r)
    monkeypatch.setattr(empirical, "_NUMPY_RESIDUES", 0)  # every value takes the map
    assert empirical._split_check(g, ts, ps, r) == pairs == ps.size * len(ts)


def test_step_footprint():
    # one step on the last full span below 1e7 (g = 5, t = 2, split) peaks below 3 MiB of traced
    # allocations, with the phi-sums (as heuristic) and without (as count); a factor slot over p-1
    # rather than (p-1)/2, with int64 rows, peaked at 3.3 MiB
    x, g, ts = 10**7, parse_g("5"), (2,)
    lo, hi = empirical._spans(x)[-2]
    assert hi <= x  # only the last span is cut short
    for sums in (True, False):
        job = (arith.primes(isqrt(x)), [[5]], [empirical._plan(g, ts)], ts, False, True, sums)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            empirical._step(job, (lo, hi))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, (sums, peak)


def test_sweep_bounds(monkeypatch):
    # a sweep sieves the base primes <= sqrt(x) itself, once, after refusing x beyond the
    # sieve; its steps sieve their own spans, and only exact=True sieves the primes to x
    limits = []
    sieve = arith.primes
    monkeypatch.setattr(arith, "primes", lambda limit: limits.append(limit) or sieve(limit))
    with pytest.raises(BoundError, match="x must be <= 1000000000"):
        empirical.sweep(parse_g("2"), arith.MAX_SIEVE_LIMIT + 1, (1,))
    assert limits == []
    sw = empirical.sweep(parse_g("2"), 30000, (1, 2), threads=2, exact=True, split=True)
    assert limits == [173, 30000] and sw.counted == 3244  # the odd primes: pi(30000) = 3245
    limits.clear()
    assert empirical.sweep(parse_g("2"), 30000, (1, 2), threads=2, split=True).counted == 3244
    assert limits == [173]
    # the arrays over m = 0..x of exact=True are refused above 1e7 before any work
    with pytest.raises(CapabilityError, match="exact tallies .* exceeds 10000000"):
        empirical.sweep(parse_g("2"), 10**7 + 1, (1,), exact=True)
    with pytest.raises(DomainError):
        empirical.sweep(parse_g("2"), 1, (1,))
    assert empirical.sweep(parse_g("2"), 2, (1,)).counted == 0
    assert empirical.sweep(parse_g("2"), 3, (1,)).N[1] == 1  # one shard of one prime
    sw = empirical.sweep(parse_g("2"), 3, (1,), exact=True)
    assert sw.pi_all[1] == sw.pi_all[2] == 1 and sw.pi_all.tolist() == [0, 1, 1, 0]
    assert empirical.sweep(parse_g("2"), 2, (1,), exact=True).R_all.tolist() == [0, 0, 0]
    with pytest.raises(DomainError):
        empirical.sweep(parse_g("2"), 100, (0,))
    with pytest.raises(DomainError):
        empirical.sweep(parse_g("2"), 100, (1,), threads=0)


def assert_counts_match_brute_force(g, x, ts, table):
    sw = empirical.sweep(g, x, ts, split=True)
    rs = [brute_index(g, p) for p in counted_primes(g, x, table)]
    assert sw.split_checks == len(rs) * len(ts)
    for t in ts:
        assert sw.N[t] == sum(1 for r in rs if r == t)
        assert sw.R[t] == sum(1 for r in rs if r % t == 0)


def test_sweep_matches_brute_force(small_table):
    for g in BASES:
        assert_counts_match_brute_force(g, 5000, tuple(range(1, 13)), small_table)


def column_references(g, primes: list[int], rs: list[int], t: int) -> dict[str, int]:
    """Every integer column at t from scalar references, for the counted primes of g and
    their residual indexes rs: pi, pi2, split and split2 by Euler's criterion, sum_r by
    the r case table one prime at a time, N and R from rs and L_num and Q_num as their
    Ramanujan sums."""
    dec = decompose_g(g)
    pa = derive_params(dec, t)
    ones = [(p, r, euler_criterion(dec.disc, p)) for p, r in zip(primes, rs) if (p - 1) % t == 0]
    twos = [leg for p, _, leg in ones if (p - 1) % (2 * t) == 0]
    low = Counter(r for _, r, _ in ones)
    ght, g2t = pa.gcd_ht, gcd(2 * dec.h, t)
    return {
        "pi": len(ones),
        "pi2": len(twos),
        "split": sum(leg == 1 for _, _, leg in ones),
        "split2": twos.count(1),
        "N": rs.count(t),
        "R": sum(r % t == 0 for r in rs),
        "sum_r": sum(int(heuristic.weights(dec, pa, p - 1, leg)[1]) for p, _, leg in ones),
        "L_num": sum(n * arith.ramanujan_sum(d, r) for r, n in low.items() for d in trial_divisors(ght)),
        "Q_num": sum(
            n * arith.ramanujan_sum(d, r) for r, n in low.items() for d in trial_divisors(g2t) if dec.h % d
        ),
    }


# bases that share a root and bases that share a tally (2 and 1/2, 5/3 and 3/5)
COLUMN_BASES = tuple(map(parse_g, ("2", "1/2", "8", "-2", "-4", "5/3", "3/5", "9/25", "-3")))


def test_every_column_matches_brute_force(table, monkeypatch):
    # every integer column against column_references, N and R from divisor_index; at
    # t = 1024 and 4096 some spans hold no p = 1 mod t
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x, ts = 10**5, tuple(range(1, 13)) + (1024, 4096)
    gs = COLUMN_BASES
    for t in (1024, 4096):
        hits = [any((p - 1) % t == 0 for p in span) for span in span_primes(table, x)]
        assert any(hits) and not all(hits), t
    for g, sw in zip(gs, empirical.sweeps(gs, x, ts)):
        primes = counted_primes(g, x, table)
        rs = [divisor_index(g, p) for p in primes]
        assert sw.counted == len(primes)
        for t in ts:
            want = column_references(g, primes, rs, t)
            assert {name: getattr(sw, name)[t] for name in empirical._COLUMNS} == want, (g, t)
    # the reference itself, against the walk through every power
    for g in gs:
        ps = counted_primes(g, 3000, table)
        assert [divisor_index(g, p) for p in ps] == [brute_index(g, p) for p in ps], g


def test_power_of_two_columns_match_brute_force(table, monkeypatch):
    # when every t is a power of two the kernel finds r's odd part only on the rows where
    # some key's r has its 2-part in ts; every column must still match the references
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    keeps = []
    shard_indexes = empirical._shard_indexes
    monkeypatch.setattr(empirical, "_shard_indexes", lambda *a: keeps.append(a[3]) or shard_indexes(*a))
    x = 10**5
    gs = COLUMN_BASES + (Fraction(3**50), Fraction(1, 2**70))
    primes = {g: counted_primes(g, x, table) for g in gs}
    rs = {g: [divisor_index(g, p) for p in primes[g]] for g in gs}
    for ts in ((1,), (2,), (4,), (1, 2, 4, 8, 1024)):
        keeps.clear()
        sws = empirical.sweeps(gs, x, ts)
        assert keeps and all(keep is not None for keep in keeps), ts
        for g, sw in zip(gs, sws):
            assert sw.counted == len(primes[g])
            for t in ts:
                want = column_references(g, primes[g], rs[g], t)
                assert {name: getattr(sw, name)[t] for name in empirical._COLUMNS} == want, (g, ts, t)


def test_power_of_two_t_reads_fewer_powers(monkeypatch):
    # at t = 2 the kernel tests p-1's odd primes only where r's 2-part is 2: for g = 5 it
    # reads at most 3/4 of the powers that the exact path, which finds all of r, reads
    elements, runs = [], []
    table_pow, shard_indexes = arith.table_pow, empirical._shard_indexes
    monkeypatch.setattr(arith, "table_pow", lambda tab, i, e, m: elements.append(i.size) or table_pow(tab, i, e, m))
    monkeypatch.setattr(empirical, "_shard_indexes", lambda *a: runs.append(a) or shard_indexes(*a))
    x = 10**5
    full = empirical.sweep(parse_g("5"), x, (2,), exact=True)
    steps = len(runs)
    assert steps and all(a[3] is None for a in runs)
    read_full = sum(elements)
    elements.clear()
    masked = empirical.sweep(parse_g("5"), x, (2,))
    assert sum(elements) <= 0.75 * read_full
    assert (masked.N, masked.R) == (full.N, full.R)
    # where the mask keeps a row its r is the whole r; elsewhere it is r's 2-part, and the
    # symbol is (g0/p) on every row.  r(-4) never has the 2-part 2, so -4 keeps no row
    gs = ("5", "-4", "9/25", "1/2")
    for g in gs[1:]:
        empirical.sweep(parse_g(g), x, (2,))
    assert len(runs) == 5 * steps
    kept_rows = Counter()
    for i, (root, ps, qs, keep, base) in enumerate(runs[steps:]):
        r, leg = shard_indexes(root, ps, qs, keep, base)
        whole, whole_leg = shard_indexes(root, ps, qs, None, base)
        kept = keep(whole & -whole)
        kept_rows[gs[i // steps]] += np.count_nonzero(kept)
        assert not kept.all(), root
        assert np.array_equal(r[kept], whole[kept]), root
        assert np.array_equal(r[~kept], (whole & -whole)[~kept]), root
        assert np.array_equal(leg, whole_leg), root
    assert kept_rows["-4"] == 0 < min(kept_rows[g] for g in ("5", "9/25", "1/2"))


def test_sweep_without_sums_keeps_every_integer_column(monkeypatch):
    # sums=False skips phi(p-1) and the phi-sums alone: every integer column and the split
    # checks equal those of sums=True, on the masked path (power-of-two ts) and the full one
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x = 10**5
    gs = COLUMN_BASES + (Fraction(3**50), Fraction(1, 2**70))
    for ts in ((1,), (2,), (4,), (1, 2, 4, 8, 1024), (3,), (1, 2, 3)):
        with_sums = empirical.sweeps(gs, x, ts, split=True)
        for sw, want in zip(empirical.sweeps(gs, x, ts, split=True, sums=False), with_sums):
            assert sw.naive is None and sw.quad is None, (sw.g, ts)
            assert want.naive is not None and want.quad is not None
            for name in empirical._COLUMNS + ("counted", "split_checks"):
                assert getattr(sw, name) == getattr(want, name), (sw.g, ts, name)
    # exact's rationals are the phi-sums
    with pytest.raises(DomainError, match="sums"):
        empirical.sweep(parse_g("2"), 100, (1,), exact=True, sums=False)


def test_count_factors_only_the_rows_it_tests(table, monkeypatch):
    # count skips the phi-sums, so at t = 2 only the rows whose p-1 the kernel tests are
    # factored (37% of the counted primes for g = 5); at t = 3 the kernel tests every row,
    # and each step's rows are factored once
    rows = []
    factor_shard = empirical._factor_shard
    monkeypatch.setattr(empirical, "_factor_shard", lambda pm1, base: rows.append(pm1.size) or factor_shard(pm1, base))
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x = 10**5
    counted = len(counted_primes(parse_g("5"), x, table))
    assert cli.main(["count", "--g", "5", "--t", "2", "--x", str(x), "--threads", "1"]) == 0
    assert 0 < sum(rows) <= 0.6 * counted
    rows.clear()
    assert cli.main(["count", "--g", "5", "--t", "3", "--x", str(x), "--threads", "1"]) == 0
    held = [span for span in span_primes(table, x) if span]
    assert rows == list(map(len, held))


def test_sweep_bases_beyond_int64(small_table):
    # a numerator or denominator too large for int64 is reduced mod p first
    for g in (Fraction(3**50), Fraction(1, 2**70), Fraction(2**71, 3**50), Fraction(-(3**50), 2**71)):
        assert_counts_match_brute_force(g, 10**4, (1, 2, 5, 10), small_table)
