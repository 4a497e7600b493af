from fractions import Fraction
from math import fsum, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASES
from resindex import arith, density, empirical
from resindex.decompose import decompose_g, parse_g
from resindex.errors import CapabilityError, DomainError, LemmaViolation


def test_kummer_degree_examples():
    dec2 = decompose_g(parse_g("2"))
    assert density.kummer_degree(dec2, 2).degree == 2
    d8 = density.kummer_degree(dec2, 8)
    assert (d8.degree, d8.nu) == (16, Fraction(2))
    dm4 = decompose_g(parse_g("-4"))
    d = density.kummer_degree(dm4, 2)
    assert (d.degree, d.nu) == (2, Fraction(1, 2))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BASES), st.integers(1, 200))
def test_degree_invariants(g, t):
    dec = decompose_g(g)
    pa_t_h = t // __import__("math").gcd(t, dec.h)
    res = density.kummer_degree(dec, t)
    phi_t = arith.euler_phi(arith.factor_int(t))
    assert res.degree == Fraction(phi_t * pa_t_h) / res.nu
    assert (2 * phi_t * t) % res.degree == 0
    assert 2 * res.degree >= phi_t * pa_t_h


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(BASES),
    st.integers(1, 60),
    st.integers(1, 30),
    st.sets(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]), max_size=3),
)
def test_degree_factorization(g, t, k1, primes):
    # degree(k1*k*t) = degree(k1*t) * k*phi(k) for squarefree k coprime to
    # 2*k1*t*h*disc: the step that turns the density into C(g,t) * Artin
    dec = decompose_g(g)
    k = prod(q for q in primes if (2 * k1 * t * dec.h * dec.disc) % q)
    phi_k = arith.euler_phi(arith.factor_int(k))
    big, small = density.kummer_degree(dec, k1 * k * t), density.kummer_degree(dec, k1 * t)
    assert (big.degree, big.nu) == (small.degree * k * phi_k, small.nu)


def test_density_factor_exact():
    # (48/2009)(6/5): the degree sum at t = 7 times the Q(sqrt(-3)) entanglement
    assert density.density_factor(decompose_g(parse_g("-3")), 7) == Fraction(288, 10045)
    assert density.density_factor(decompose_g(parse_g("2")), 1) == 1
    for g, t in (("9/25", 1), ("9/25", 3), ("-4", 2)):
        assert density.density_factor(decompose_g(parse_g(g)), t) == 0, (g, t)


def test_density_against_truncated_sum():
    # the defining sum sum_{k <= K} mu(k)/degree(kt), held within its tail
    # bound: terms are at most 2h/(kt phi(kt)), and
    # sum_{k > K} 1/(k phi(k)) < 2 * 1.9436 / K
    K = 3000
    mu = arith.moebius_sieve(K)
    ks = [k for k in range(1, K + 1) if mu[k]]
    for g in BASES:
        dec = decompose_g(g)
        for t in range(1, 13):
            truncated = fsum(int(mu[k]) / density.kummer_degree(dec, k * t).degree for k in ks)
            phi_t = arith.euler_phi(arith.factor_int(t))
            tail = 2 * 1.9436 * 2 * dec.h / (t * phi_t * K)
            a = density.artin_density_A(dec, t, 1e-6)
            assert abs(a - truncated) <= tail + 1e-6, (g, t, a, truncated, tail)


def test_kummer_degree_rejects_fractional_degree(monkeypatch):
    monkeypatch.setattr(density, "_nu", lambda dec, t, t_h: Fraction(3))
    with pytest.raises(LemmaViolation):
        density.kummer_degree(decompose_g(parse_g("2")), 1)


def test_negative_density_factor_raises(monkeypatch):
    # P = {2} for g = 2, t = 1; degrees 2 (k1 = 1) and 1 (k1 = 2) give C < 0
    fake = lambda dec, t: density.DegreeResult(t=t, degree=2 if t == 1 else 1, nu=Fraction(1))
    monkeypatch.setattr(density, "kummer_degree", fake)
    with pytest.raises(LemmaViolation):
        density.artin_density_A(decompose_g(parse_g("2")), 1, 1e-4)


def test_density_factor_prime_cap():
    # 2 and the 17 odd primes up to 61 would make 2**18 terms
    primorial = prod((3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61))
    with pytest.raises(CapabilityError):
        density.density_factor(decompose_g(Fraction(primorial)), 1)


def test_density_against_euler_product():
    dec = decompose_g(parse_g("2"))
    a = density.artin_density_A(dec, 1, 1e-4)
    oracle = density.artin_euler_product(2 * 10**5)
    assert a == pytest.approx(oracle, abs=2e-4)


def test_density_vanishing_matches_empty_counts():
    # a square base never has odd residual index
    dec = decompose_g(parse_g("9/25"))
    for t in (1, 3, 5):
        assert density.artin_density_A(dec, t, 1e-6) == 0.0
        assert empirical.sweep(parse_g("9/25"), 10**4, (t,)).N[t] == 0
    # and the weight for (-4, 2) vanishes identically
    dm4 = decompose_g(parse_g("-4"))
    assert density.artin_density_A(dm4, 2, 1e-6) == 0.0
    assert empirical.sweep(parse_g("-4"), 10**4, (2,)).N[2] == 0


def test_density_even_power_base_vs_counts():
    # g = 4 (h = 2): the degree sum for t = 2 against the empirical count
    g = parse_g("4")
    dec = decompose_g(g)
    a = density.artin_density_A(dec, 2, 1e-5)
    n = empirical.sweep(g, 10**6, (2,)).N[2]
    li = arith.log_integral(10**6)
    assert n / li == pytest.approx(a, rel=0.05)


def test_density_nonnegative_within_tolerance():
    for g in BASES:
        dec = decompose_g(g)
        for t in range(1, 13):
            assert density.artin_density_A(dec, t, 1e-4) >= -1e-4, (g, t)


def test_artin_constant():
    assert density.artin_euler_product(2) == 0.5
    # two independent truncation depths agree
    a = density.artin_constant(1e-6)
    b = density.artin_euler_product(4 * 10**6)
    assert abs(a - b) <= 1e-6
    assert a == pytest.approx(0.3739558136, abs=1e-6)
    assert density.artin_constant(1e-2) == pytest.approx(0.374, abs=1e-2)


def test_artin_euler_product_matches_numpy_reference():
    # the stdlib product takes numpy's order, so every bit agrees
    import numpy as np

    for bound in (2, 3, 4, 10, 10007, 10**6, 4 * 10**6):
        q = arith.primes(bound).astype(np.float64)
        assert density.artin_euler_product(bound) == float(np.prod(1.0 - 1.0 / (q * (q - 1.0)))), bound


def test_tolerance_validation():
    dec = decompose_g(parse_g("2"))
    with pytest.raises(DomainError):
        density.artin_density_A(dec, 1, 0.0)
    with pytest.raises(DomainError):
        density.artin_constant(0)
    for tol in (float("nan"), -1e-6):
        with pytest.raises(DomainError):
            density.artin_density_A(dec, 1, tol)
        with pytest.raises(DomainError):
            density.artin_constant(tol)
    # 1/tol overflows to inf, which has no ceiling
    with pytest.raises(CapabilityError):
        density.artin_constant(5e-324)
