from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resindex import arith
from resindex.decompose import (
    decompose_g,
    derive_params,
    excluded_primes,
    parse_g,
    quadratic_discriminant,
)
from resindex.errors import DomainError, ExcludedBaseError, ParseError


def test_parse_examples():
    assert parse_g("8") == Fraction(8)
    assert parse_g("-9/25") == Fraction(-9, 25)
    assert parse_g("2/4") == Fraction(1, 2)


def test_parse_rejects():
    for bad in ("1", "-1", "0", "5/5", "-3/3"):
        with pytest.raises(ExcludedBaseError):
            parse_g(bad)
    big = 1 << 1024  # one bit past the bound, in numerator or denominator
    for bad in ("", "x", "3.5", "1/2/3", "2/0", "+-3", str(big), f"-{big}", f"3/{big}", "9" * 5000):
        with pytest.raises(ParseError):
            parse_g(bad)
    assert parse_g(f"-{big - 1}/{big - 3}") == Fraction(1 - big, big - 3)


def test_decompose_examples():
    d = decompose_g(Fraction(8))
    assert (d.sign, d.g0, d.h, d.e, d.disc) == (1, Fraction(2), 3, 0, 8)
    d = decompose_g(Fraction(-4))
    assert (d.sign, d.g0, d.h, d.e, d.disc) == (-1, Fraction(2), 2, 1, 8)
    d = decompose_g(Fraction(9, 25))
    assert (d.sign, d.g0, d.h, d.e, d.disc) == (1, Fraction(3, 5), 2, 1, 60)
    d = decompose_g(Fraction(1, 2))
    assert (d.sign, d.g0, d.h, d.e, d.disc) == (1, Fraction(1, 2), 1, 0, 8)


def test_discriminant_examples():
    assert quadratic_discriminant(Fraction(2)) == 8
    assert quadratic_discriminant(Fraction(5)) == 5
    assert quadratic_discriminant(Fraction(3, 5)) == 60
    with pytest.raises(DomainError):
        quadratic_discriminant(Fraction(4))
    with pytest.raises(DomainError):
        quadratic_discriminant(Fraction(9, 4))
    with pytest.raises(DomainError):
        quadratic_discriminant(Fraction(-2))


def test_derive_params_examples():
    p = derive_params(decompose_g(Fraction(2)), 1)
    assert (p.tau, p.gcd_ht, p.h_t, p.t_h, p.eps1, p.eps2) == (0, 1, 1, 1, -1, 0)
    p = derive_params(decompose_g(Fraction(8)), 6)
    assert (p.tau, p.gcd_ht, p.h_t, p.t_h, p.eps1, p.eps2) == (1, 3, 1, 2, 1, 1)
    p = derive_params(decompose_g(Fraction(-4)), 2)
    assert (p.tau, p.gcd_ht, p.h_t, p.t_h, p.eps1, p.eps2) == (1, 2, 1, 1, -1, 0)
    with pytest.raises(DomainError):
        derive_params(decompose_g(Fraction(2)), 0)


def _is_fundamental(disc: int) -> bool:
    def squarefree(n):
        return all(e == 1 for _, e in arith.factor_int(n))

    if disc % 4 == 1:
        return squarefree(disc)
    if disc % 4 == 0:
        m = disc // 4
        return squarefree(m) and m % 4 in (2, 3)
    return False


@st.composite
def bases(draw):
    num = draw(st.integers(-(10**6), 10**6).filter(lambda n: n != 0))
    den = draw(st.integers(1, 10**6))
    g = Fraction(num, den)
    if g in (-1, 0, 1):
        # the excluded bases; shifting by 2 would turn -1 into 1
        g += 3
    return g


@settings(max_examples=300, deadline=None)
@given(bases())
def test_roundtrip_and_fundamental_disc(g):
    d = decompose_g(g)
    assert d.sign * d.g0**d.h == g
    assert d.g0 > 0
    assert d.e == arith.v2(d.h)
    # g0 is not an exact power: the gcd of its prime exponents is 1
    exps = [e for _, e in arith.factor_int(abs(d.g0.numerator))]
    exps += [e for _, e in arith.factor_int(d.g0.denominator)]
    from math import gcd

    acc = 0
    for e in exps:
        acc = gcd(acc, e)
    assert acc == 1
    assert d.disc > 1 and _is_fundamental(d.disc)


@settings(max_examples=200, deadline=None)
@given(bases(), st.integers(1, 64))
def test_params_invariants(g, t):
    d = decompose_g(g)
    p = derive_params(d, t)
    assert p.h_t * p.gcd_ht == d.h
    assert p.t_h * p.gcd_ht == t
    assert p.eps1 == (0 if p.tau < d.e else (-1 if p.tau == d.e else 1))
    assert p.eps2 == (0 if p.tau <= d.e else 1)
    if g < 0:
        # h_t is even exactly when tau < e
        assert (p.h_t % 2 == 0) == (p.tau < d.e)


def test_excluded_primes():
    assert excluded_primes(Fraction(9, 25)) == frozenset({2, 3, 5})
    assert excluded_primes(Fraction(2)) == frozenset({2})
    assert excluded_primes(Fraction(-27)) == frozenset({2, 3})
