from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASES
from resindex import arith, density, empirical
from resindex.decompose import decompose_g, parse_g
from resindex.errors import DomainError


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


def test_vectorized_degrees_match_scalar():
    for g in BASES:
        dec = decompose_g(g)
        for t in (1, 2, 3, 4, 6, 12):
            k = np.arange(1, 400, dtype=np.int64)
            mu = arith.moebius_sieve(400)[1:400]
            k = k[mu != 0]
            phi = arith.totient_sieve(400)[1:400][mu != 0]
            deg = density._degrees_vec(dec, t, k, phi)
            for i, kk in enumerate(k.tolist()):
                assert int(deg[i]) == density.kummer_degree(dec, kk * t).degree, (g, t, kk)


def test_density_against_euler_product():
    dec = decompose_g(parse_g("2"))
    a = density.artin_density_A(dec, 1, 1e-4)
    oracle = density.artin_euler_product(2 * 10**5)
    assert a == pytest.approx(oracle, abs=2e-4)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 8), st.integers(1, 24), st.sampled_from([1e-2, 1e-3, 1e-4]), st.sampled_from([1.0, 2.0]))
def test_truncation_point_meets_tail_bound(h, t, tol, scale):
    k = density._choose_k(h, t, tol, scale)
    assert density.tail_bound(h, t, k, scale) <= tol


def test_density_tail_certificate():
    # doubling the truncation (via a halved tolerance) moves the value by
    # less than the certified error
    dec = decompose_g(parse_g("8"))
    for t in (1, 2, 3):
        a1 = density.artin_density_A(dec, t, 1e-3)
        a2 = density.artin_density_A(dec, t, 5e-4)
        assert abs(a1 - a2) <= 1e-3


def test_density_vanishing_matches_empty_counts(small_table):
    # a square base never has odd residual index
    dec = decompose_g(parse_g("9/25"))
    for t in (1, 3, 5):
        assert abs(density.artin_density_A(dec, t, 1e-6)) <= 1e-6
        assert empirical.sweep(parse_g("9/25"), small_table, 10**4, (t,)).N[t] == 0
    # and the weight for (-4, 2) vanishes identically
    dm4 = decompose_g(parse_g("-4"))
    assert abs(density.artin_density_A(dm4, 2, 1e-6)) <= 1e-6
    assert empirical.sweep(parse_g("-4"), small_table, 10**4, (2,)).N[2] == 0


def test_density_even_power_base_vs_counts(table):
    # g = 4 (h = 2): the degree sum for t = 2 against the empirical count
    g = parse_g("4")
    dec = decompose_g(g)
    a = density.artin_density_A(dec, 2, 1e-5)
    n = empirical.sweep(g, table, 10**6, (2,)).N[2]
    li = arith.log_integral(10**6)
    assert n / li == pytest.approx(a, rel=0.05)


def test_density_nonnegative_within_tolerance():
    for g in BASES:
        dec = decompose_g(g)
        for t in range(1, 13):
            assert density.artin_density_A(dec, t, 1e-4) >= -1e-4, (g, t)


def test_wagstaff_examples():
    assert density.wagstaff_sum_S(1, 1, 1, 1e-4) == pytest.approx(
        density.artin_constant(1e-5), abs=2e-4
    )
    assert density.wagstaff_sum_S(1, 1, 4, 1e-4) == 0.0
    dec4 = decompose_g(parse_g("4"))
    assert density.wagstaff_sum_S(2, 1, 1, 1e-4) == pytest.approx(
        density.artin_density_A(dec4, 1, 1e-4), abs=2e-4
    )


def test_artin_constant():
    assert density.artin_euler_product(2) == 0.5
    # two independent truncation depths agree
    a = density.artin_constant(1e-6)
    b = density.artin_euler_product(4 * 10**6)
    assert abs(a - b) <= 1e-6
    assert a == pytest.approx(0.3739558136, abs=1e-6)
    assert density.artin_constant(1e-2) == pytest.approx(0.374, abs=1e-2)


def test_tolerance_validation():
    dec = decompose_g(parse_g("2"))
    with pytest.raises(DomainError):
        density.artin_density_A(dec, 1, 0.0)
    with pytest.raises(DomainError):
        density.wagstaff_sum_S(1, 1, 1, -1e-3)
    with pytest.raises(DomainError):
        density.artin_constant(0)
