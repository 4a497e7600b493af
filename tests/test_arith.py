import cmath
import math
from fractions import Fraction
from math import gcd

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_index, euler_criterion
from resindex import arith, empirical
from resindex.errors import DomainError


# ---------------------------------------------------------------------------
# independent oracles


def segmented_recount(limit: int, block: int = 10**4) -> int:
    """Independent prime count by a plain segmented sieve (no numpy)."""
    base = []
    flags = [True] * (math.isqrt(limit) + 1)
    for i in range(2, len(flags)):
        if flags[i]:
            base.append(i)
            for j in range(i * i, len(flags), i):
                flags[j] = False
    count = len([p for p in base if p <= limit])
    lo = len(flags)
    while lo <= limit:
        hi = min(lo + block, limit + 1)
        seg = [True] * (hi - lo)
        for p in base:
            start = ((lo + p - 1) // p) * p
            for j in range(start, hi, p):
                seg[j - lo] = False
        count += sum(seg)
        lo = hi
    return count


def brute_primes(lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi), by trial division."""
    return [n for n in range(max(lo, 2), hi) if all(n % d for d in range(2, math.isqrt(n) + 1))]


def ramanujan_by_roots(d: int, n: int) -> complex:
    return sum(cmath.exp(2j * cmath.pi * k * n / d) for k in range(1, d + 1) if gcd(k, d) == 1)


# ---------------------------------------------------------------------------
# prime table


def test_primes_up_to_ten():
    assert arith.primes(10).tolist() == [2, 3, 5, 7]


def test_prime_count_at_1e6(table):
    assert len(table) == segmented_recount(10**6) == 78498


def test_prime_count_multi_segment():
    # 1e7 sieves in one odd_primes span over the base primes to isqrt(1e7); count pinned to the classic value
    assert len(arith.primes(10**7)) == len(list(arith.small_primes(10**7))) == 664579


def test_build_prime_table_by_small_segments():
    # every limit to 300 sits next to every small prime and every q*q; 20011 reaches past the base prime 139
    for limit in list(range(301)) + [20011]:
        got = arith.primes(limit)
        assert got.dtype == np.int64 and got.tolist() == brute_primes(2, limit + 1), limit


def test_odd_primes_match_brute_force():
    # base primes to 97 serve every span below 97**2 = 9409
    base = np.fromiter(arith.small_primes(100), dtype=np.int64)
    spans = [(3, 4), (3, 200), (0, 50), (1, 3), (2, 30), (5, 90)]  # from lo = 3 and spans holding base primes
    for q in (3, 7, 23, 97):  # lo just below, at and just above q*q, and a span starting at q
        spans += [(q * q - 2, q * q + 40), (q * q, q * q + 40), (q * q + 2, q * q + 60), (q, q * q + 1)]
    spans += [(lo, lo + 1) for lo in range(0, 9409, 97)]  # hi = lo + 1
    spans += [(lo, lo + 30) for lo in (9001, 9010, 9311)]  # narrower than the base prime 97
    for lo, hi in spans:
        got = arith.odd_primes(lo, hi, base)
        assert got.dtype == np.int64 and got.tolist() == [p for p in brute_primes(lo, hi) if p > 2], (lo, hi)


def test_small_primes_match_brute_force():
    for limit in list(range(301)) + [31623]:  # 31623 = isqrt(10**9) + 1, past the largest base sieve
        assert list(arith.small_primes(limit)) == brute_primes(2, limit + 1), limit


def test_table_invariants(table):
    assert np.all(table[1:] > table[:-1])
    for p in table[:: len(table) // 97].tolist():
        assert arith.is_prime(p)


# ---------------------------------------------------------------------------
# factorization and multiplicative functions


def test_factor_int_matches_table(small_table):
    # the sweep's shard sieve of p-1 against factor_int, every odd prime p <= 1e4
    ps = small_table[1:]
    qs = empirical._factor_shard(ps - 1, small_table[: small_table.searchsorted(math.isqrt(10**4), "right")])
    for p, qrow in zip(ps.tolist(), qs.tolist()):
        fac = arith.factor_int(p - 1)
        assert tuple(q for q, _ in fac) == tuple(q for q in qrow if q > 1)
        assert math.prod(q**e for q, e in fac) == p - 1
    for n in range(1, 4000, 7):
        fac = arith.factor_int(n)
        assert math.prod(q**e for q, e in fac) == n
        assert all(arith.is_prime(q) for q, _ in fac)


def test_phi_mu_examples():
    assert arith.euler_phi(arith.factor_int(1)) == 1
    assert arith.euler_phi(arith.factor_int(12)) == 4
    assert arith.euler_phi(arith.factor_int(97)) == 96
    assert arith.moebius(arith.factor_int(1)) == 1
    assert arith.moebius(arith.factor_int(6)) == 1
    assert arith.moebius(arith.factor_int(12)) == 0


def test_phi_mu_against_definitions():
    # direct definitions on a small range
    for n in range(1, 400):
        fac = arith.factor_int(n)
        assert arith.euler_phi(fac) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        square_free = all(n % (p * p) for p in range(2, n + 1) if arith.is_prime(p))
        if not square_free:
            assert arith.moebius(fac) == 0
    # and mu against the independent sieve on a larger one
    mu = arith.moebius_sieve(10**4)
    assert len(mu) == 10**4 + 1 and mu[0] == 0
    assert arith.moebius_sieve(0).tolist() == [0] and arith.moebius_sieve(1).tolist() == [0, 1]
    for n in range(1, 10**4 + 1):
        assert arith.moebius(arith.factor_int(n)) == int(mu[n])
    # beyond, against (-1)^omega(n) on squarefree n, sieved by every prime <= limit
    for limit in (2, 3, 4, 10, 97, 10**5 + 3):
        omega = np.zeros(limit + 1, dtype=np.int64)
        squarefree = np.ones(limit + 1, dtype=bool)
        for p in arith.primes(limit).tolist():
            omega[p::p] += 1
            squarefree[p * p :: p * p] = False
        want = np.where(squarefree, (-1) ** omega, 0)
        want[0] = 0
        assert np.array_equal(arith.moebius_sieve(limit), want), limit


def test_divisors():
    assert arith.divisors(arith.factor_int(12)) == [1, 2, 3, 4, 6, 12]
    assert arith.divisors(arith.factor_int(1)) == [1]


# ---------------------------------------------------------------------------
# Ramanujan sums


def test_ramanujan_examples():
    assert ramanujan_by_roots(4, 2).real == pytest.approx(-2, abs=1e-9)
    assert arith.ramanujan_sum(4, 2) == -2
    assert ramanujan_by_roots(6, 4).real == pytest.approx(-1, abs=1e-9)
    assert arith.ramanujan_sum(6, 4) == -1
    assert arith.ramanujan_sum(5, 0) == 4  # c_d(0) = phi(d)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 200), st.integers(0, 200))
def test_ramanujan_matches_roots_of_unity(d, n):
    z = ramanujan_by_roots(d, n)
    assert abs(z.imag) < 1e-6
    assert abs(z.real - arith.ramanujan_sum(d, n)) < 1e-6


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 60), st.integers(0, 60))
def test_ramanujan_divisor_sum(r, e):
    total = sum(arith.ramanujan_sum(d, e) for d in range(1, r + 1) if r % d == 0)
    assert total == (r if e % r == 0 else 0)


def test_ramanujan_table():
    tab = arith.ramanujan_table(6)
    assert [int(tab[g]) for g in (1, 2, 3, 6)] == [
        arith.ramanujan_sum(6, g) for g in (1, 2, 3, 6)
    ]


# ---------------------------------------------------------------------------
# quadratic symbols


def test_kronecker_examples(small_table):
    # (8/7) = 1 and (8/5) = -1, read off the parity of the kernel's r for the root 2 of disc 8
    ps = np.array([5, 7])
    qs = empirical._factor_shard(ps - 1, small_table[:1])
    leg = empirical._shard_indexes(Fraction(2), ps, qs)[1]
    assert leg.tolist() == [euler_criterion(8, p) for p in (5, 7)] == [-1, 1]


# ---------------------------------------------------------------------------
# multiplicative order


def kernel_orders(g, ps: list[int], table) -> list[int]:
    """ord(g mod p) at the ascending primes ps, from the kernel's residual indexes."""
    ps = np.array(ps, dtype=np.int64)
    qs = empirical._factor_shard(ps - 1, table[: table.searchsorted(math.isqrt(int(ps[-1])), "right")])
    return ((ps - 1) // empirical._shard_indexes(g, ps, qs)[0]).tolist()


def brute_order(a: int, p: int) -> int:
    return (p - 1) // brute_index(Fraction(a), p)


def test_order_examples(small_table):
    assert kernel_orders(Fraction(2), [7], small_table) == [3]
    assert kernel_orders(Fraction(5), [7], small_table) == [brute_order(5, 7)] == [6]
    # the bases 1 and p-1, of orders 1 and 2
    assert kernel_orders(Fraction(1), [3, 97, 3511], small_table) == [1, 1, 1]
    for p in (3, 97, 3511):
        assert kernel_orders(Fraction(p - 1), [p], small_table) == [2]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**6))
def test_order_divides_p_minus_1(small_table, a):
    ps = [p for p in (3, 5, 7, 11, 13, 17, 101, 997, 3511) if a % p]
    assert kernel_orders(Fraction(a), ps, small_table) == [brute_order(a, p) for p in ps]


def modpow(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base**exp % mod elementwise, read off one power table of the bases."""
    return arith.table_pow(arith.power_table(base, mod, exp.max(initial=0)), np.arange(mod.size), exp, mod)


# primes just below MAX_SIEVE_LIMIT, where a product of two residues nears
# 2**60, and a few small ones
_POW_PRIMES = (999999937, 999999929, 999999893, 3, 5, 7, 65537)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.sampled_from(_POW_PRIMES).flatmap(
            lambda p: st.tuples(
                st.just(p),
                st.integers(0, p - 1),
                st.one_of(st.sampled_from((0, p - 1)), st.integers(0, p - 1)),
            )
        ),
        max_size=12,
    ),
    st.integers(-(2**100), 2**100),
)
def test_vectorized_modpow_matches_pow(rows, n):
    ps = np.array([p for p, _, _ in rows], dtype=np.int64)
    bs = np.array([b for _, b, _ in rows], dtype=np.int64)
    es = np.array([e for _, _, e in rows], dtype=np.int64)
    assert modpow(bs, es, ps).tolist() == [pow(b, e, p) for p, b, e in rows]
    assert arith.reduce_mod_vec(n, ps).tolist() == [n % p for p, _, _ in rows]
    empty = np.zeros(0, dtype=np.int64)
    assert modpow(empty, empty, empty).size == 0
    # short and full-length exponents in one array: most run out of bits before the last step
    mixed = [(999999937, 12345, 0), (999999937, 12345, 1), (65537, 3, 2), (999999929, 7, 5)]
    mixed += [(999999893, 2, 999999891), (999999937, 999999936, 999999936), (7, 3, 6)]
    ps, bs, es = (np.array(col, dtype=np.int64) for col in zip(*mixed))
    assert modpow(bs, es, ps).tolist() == [pow(b, e, p) for p, b, e in mixed]


# the largest primes below 2**30, the bound on the moduli, and a few small ones
_TABLE_PRIMES = (1073741789, 1073741783, 1073741741, 3, 5, 7, 65537)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_table_pow_matches_pow(data):
    ps = data.draw(st.lists(st.sampled_from(_TABLE_PRIMES), max_size=12))
    bs = [data.draw(st.integers(0, p - 1)) for p in ps]
    max_exp = data.draw(st.integers(max([p - 1 for p in ps], default=0), 2**30))
    idx = data.draw(st.lists(st.integers(0, len(ps) - 1), max_size=12)) if ps else []
    es = [data.draw(st.one_of(st.sampled_from((0, 1, ps[i] - 1, max_exp)), st.integers(0, max_exp))) for i in idx]
    ps_a, bs_a, idx_a, es_a = (np.array(col, dtype=np.int64) for col in (ps, bs, idx, es))
    tab = arith.power_table(bs_a, ps_a, max_exp)
    assert tab.dtype == np.int32 and tab.shape == (max(1, (max_exp.bit_length() + 1) // 2), 4, len(ps))
    want = [pow(bs[i], e, ps[i]) for i, e in zip(idx, es)]
    assert arith.table_pow(tab, idx_a, es_a, ps_a[idx_a]).tolist() == want
    assert modpow(bs_a[idx_a], es_a, ps_a[idx_a]).tolist() == want


# ---------------------------------------------------------------------------
# logarithmic integral


def mp_li(x: float) -> float:
    # 30 digits: near x = 2 the difference cancels up to 9 of them
    with mpmath.workdps(30):
        return float(mpmath.li(x) - mpmath.li(2))


def test_log_integral_values():
    assert arith.log_integral(2) == 0.0
    for x in (2 + 1e-9, 2 + 1e-6, 2 + 1e-5, 2.5, 3, 10, 100, 99991, 10**6, 10**7, 10**8, 10**9):
        want = mp_li(x)
        # abs=0: approx's default absolute slack of 1e-12 would swamp Li(2 + 1e-9)
        assert arith.log_integral(x) == pytest.approx(want, rel=1e-9, abs=0)
    # frozen oracle values
    assert arith.log_integral(100) == pytest.approx(29.080977803962, rel=1e-9)
    assert arith.log_integral(10**6) == pytest.approx(78626.503995682, rel=1e-9)


def test_log_integral_domain():
    with pytest.raises(DomainError):
        arith.log_integral(1.5)


# ---------------------------------------------------------------------------
# exact accumulation helper


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 300)), max_size=40))
def test_exact_sum_matches_fractions(pairs):
    acc = arith.ExactSum()
    want = Fraction(0)
    for a, b in pairs:
        acc.add(a, b)
        want += Fraction(a, b)
    assert acc.value() == want
