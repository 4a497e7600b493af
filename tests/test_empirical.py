from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from conftest import BASES
from resindex import arith, cli, empirical, heuristic
from resindex.decompose import decompose_g, derive_params, excluded_primes, parse_g
from resindex.errors import CapabilityError, DomainError, LemmaViolation


def brute_index(g, p: int) -> int:
    a = g.numerator % p * pow(g.denominator, -1, p) % p
    x, o = a, 1
    while x != 1:
        x = x * a % p
        o += 1
    return (p - 1) // o


def counted_primes(g, x: int, table) -> list[int]:
    bad = excluded_primes(g)
    return [p for p in table.primes_upto(x).tolist() if p != 2 and p not in bad]


# ---------------------------------------------------------------------------
# residual_index


def test_residual_index_examples(small_table):
    out = empirical.residual_index(parse_g("2"), 7, small_table)
    assert (out.status, out.index) == ("counted", 2)
    out = empirical.residual_index(parse_g("2"), 5, small_table)
    assert (out.status, out.index) == ("counted", 1)
    out = empirical.residual_index(parse_g("9/25"), 5, small_table)
    assert out.status == "excluded" and out.index is None
    assert empirical.residual_index(parse_g("2"), 2, small_table).status == "excluded"
    with pytest.raises(DomainError):
        empirical.residual_index(parse_g("2"), 9, small_table)


def test_residual_index_against_brute_force(small_table):
    for g in (parse_g("2"), parse_g("-2"), parse_g("9/25"), parse_g("-27")):
        for p in counted_primes(g, 300, small_table):
            out = empirical.residual_index(g, p, small_table)
            assert out.index == brute_index(g, p)
            order = (p - 1) // out.index
            assert out.index * order == p - 1


# ---------------------------------------------------------------------------
# counters


def test_count_exact_examples(small_table):
    g = parse_g("2")
    assert empirical.sweep(g, small_table, 20, (2,)).N[2] == 2  # p = 7, 17
    assert empirical.sweep(g, small_table, 20, (1,)).N[1] == 5  # 3, 5, 11, 13, 19
    assert empirical.sweep(g, small_table, 7, (7,)).N[7] == 0
    assert empirical.sweep(parse_g("-3"), small_table, 7, (7,)).N[7] == 0


def test_count_divisible_examples(small_table):
    g = parse_g("2")
    assert empirical.sweep(g, small_table, 20, (1,)).R[1] == 7
    assert empirical.sweep(g, small_table, 20, (2,)).R[2] == 2
    want = sum(1 for p in counted_primes(parse_g("4"), 100, small_table) if brute_index(parse_g("4"), p) % 2 == 0)
    assert empirical.sweep(parse_g("4"), small_table, 100, (2,)).R[2] == want


def test_count_progression(small_table):
    assert empirical.count_progression(20, 4, small_table) == 3  # 5, 13, 17
    assert empirical.count_progression(20, 1, small_table, g=parse_g("2")) == 7
    assert empirical.count_progression(3, 5, small_table) == 0


def test_count_split_quadratic(small_table):
    assert empirical.count_split_quadratic(20, 1, 8, small_table, g=parse_g("2")) == 2  # 7, 17
    assert empirical.count_split_quadratic(20, 4, 8, small_table, g=parse_g("2")) == 1  # 17
    assert empirical.count_split_quadratic(5, 8, 8, small_table) == 0


def test_char_sums_examples(small_table):
    g = parse_g("2")
    # h = 1: only d = 1 contributes, L = pi(x;t,1)/t
    sw = empirical.sweep(g, small_table, 1000, (3,))
    assert sw.L(3) == Fraction(empirical.count_progression(1000, 3, small_table, g=g), 3)
    assert empirical.sweep(g, small_table, 20, (2,)).Q(2) == Fraction(-3, 2)
    # g = 8 (h = 3), t = 3: brute-force the Ramanujan sums
    g8 = parse_g("8")
    sw = empirical.sweep(g8, small_table, 20, (3,))
    want = Fraction(0)
    for p in counted_primes(g8, 20, small_table):
        if (p - 1) % 3 == 0:
            r = brute_index(g8, p)
            want += Fraction(sum(arith.ramanujan_sum(d, r) for d in (1, 3)), 3)
    assert sw.L(3) == want == 3
    assert sw.Q(3) == 0  # (2h, t) = (6, 3) = 3, both divisors divide h


def test_r_decomposition_with_higher_characters(small_table):
    # R = L + Q + (1/t) sum over d | t, d not dividing 2h of c_d(r)
    x = 3000
    for g in (parse_g("2"), parse_g("-4"), parse_g("9/25")):
        dec = decompose_g(g)
        for t in (1, 2, 3, 4, 6, 8, 12):
            sw = empirical.sweep(g, small_table, x, (t,))
            high = Fraction(0)
            divs = [d for d in range(1, t + 1) if t % d == 0 and (2 * dec.h) % d != 0]
            for p in counted_primes(g, x, small_table):
                if (p - 1) % t == 0:
                    r = brute_index(g, p)
                    high += Fraction(sum(arith.ramanujan_sum(d, r) for d in divs), t)
            assert sw.R[t] == sw.L(t) + sw.Q(t) + high


def test_charactersum_closed_forms_per_prime(small_table):
    # first-order block: sum_{d | (h,t)} c_d(r) equals (h,t) on p = 1 mod (h,t)
    # for positive g, and the same with an extra p = 1 mod 2(h,t) gate for
    # negative g; second-order block reduces to eps2 * (disc/p) * (h,t) with
    # the extra parity sign for negative g.
    for g in BASES:
        dec = decompose_g(g)
        for p in counted_primes(g, 800, small_table):
            r = brute_index(g, p)
            leg = arith.jacobi(dec.disc, p)
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
        sw = empirical.sweep(g, small_table, x, tuple(ts), exact=True)
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
    primes = arith.build_prime_table(max(n, 2)).primes_upto(n)
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
    sw = empirical.sweep(g, small_table, 500, (1, 2, 3, 4))
    for t in (1, 2, 3, 4):
        assert sw.pi[t] == empirical.count_progression(500, t, small_table, g=g)
        assert sw.split[t] == empirical.count_split_quadratic(
            500, t, decompose_g(g).disc, small_table, g=g
        )
        assert 0 <= sw.N[t] <= sw.R[t] <= sw.pi[t]


def test_sweep_thread_determinism(table):
    g = parse_g("8")
    a = empirical.sweep(g, table, 10**5, (1, 2, 3), threads=1, exact=True)
    b = empirical.sweep(g, table, 10**5, (1, 2, 3), threads=3, exact=True)
    for t in (1, 2, 3):
        assert a.N[t] == b.N[t] and a.R[t] == b.R[t]
        assert a.naive[t] == b.naive[t]  # bitwise float equality
        assert a.quad[t] == b.quad[t]
        assert a.naive_exact[t] == b.naive_exact[t]
        assert a.quad_exact[t] == b.quad_exact[t]
    for name in ("pi_all", "split_all", "R_all"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_sweep_invariant_violation_raises(small_table, monkeypatch, capsys):
    # an M one off from H must stop the sweep, and the CLI must exit 3
    m_from_counts = heuristic.m_from_counts
    monkeypatch.setattr(heuristic, "m_from_counts", lambda *args: m_from_counts(*args) + 1)
    with pytest.raises(LemmaViolation, match="sweep invariant"):
        empirical.sweep(parse_g("2"), small_table, 1000, (1, 2))
    assert cli.main(["report", "--g", "2", "--t", "1", "--t", "2", "--x", "1000"]) == 3
    assert "identity violation" in capsys.readouterr().err


def test_split_criterion_verification(small_table):
    checks = empirical.verify_split_criterion(parse_g("-2"), range(1, 11), 2000, small_table)
    assert checks == 10 * len(counted_primes(parse_g("-2"), 2000, small_table))


def test_sweep_bounds(small_table):
    with pytest.raises(CapabilityError):
        empirical.sweep(parse_g("2"), small_table, 10**5, (1,))
    with pytest.raises(DomainError):
        empirical.sweep(parse_g("2"), small_table, 1, (1,))
    assert empirical.sweep(parse_g("2"), small_table, 2, (1,)).counted == 0
    assert empirical.sweep(parse_g("2"), small_table, 3, (1,)).N[1] == 1  # one shard of one prime
    sw = empirical.sweep(parse_g("2"), small_table, 3, (1,), exact=True)
    assert sw.pi_all[1] == sw.pi_all[2] == 1 and sw.pi_all.tolist() == [0, 1, 1, 0]
    assert empirical.sweep(parse_g("2"), small_table, 2, (1,), exact=True).R_all.tolist() == [0, 0, 0]
    with pytest.raises(DomainError):
        empirical.sweep(parse_g("2"), small_table, 100, (0,))
    with pytest.raises(DomainError):
        empirical.sweep(parse_g("2"), small_table, 100, (1,), threads=0)


def assert_counts_match_brute_force(g, x, ts, table):
    sw = empirical.sweep(g, table, x, ts)
    rs = [brute_index(g, p) for p in counted_primes(g, x, table)]
    for t in ts:
        assert sw.N[t] == sum(1 for r in rs if r == t)
        assert sw.R[t] == sum(1 for r in rs if r % t == 0)


def test_sweep_matches_brute_force(small_table):
    for g in BASES:
        assert_counts_match_brute_force(g, 5000, tuple(range(1, 13)), small_table)


def test_sweep_bases_beyond_int64(small_table):
    # numerator or denominator too large for int64 is reduced mod p first
    for g in (Fraction(3**50), Fraction(1, 2**70)):
        assert_counts_match_brute_force(g, 10**4, (1, 2, 5, 10), small_table)
        assert empirical.verify_split_criterion(g, (1, 2, 5, 10), 10**4, small_table) > 0
