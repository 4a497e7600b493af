from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BASES, counted_primes, euler_criterion
from resindex import empirical, heuristic
from resindex.decompose import decompose_g, derive_params, excluded_primes, parse_g


def weights(g, t, p):
    """(w(g,t;p), r(g,t;p)) for one prime, through the vectorized tables."""
    dec = decompose_g(g)
    pa = derive_params(dec, t)
    leg = euler_criterion(dec.disc, p)
    w, r = heuristic.weights(dec, pa, p - 1, leg)
    return int(w), int(r)


def test_weight_w_examples():
    assert weights(parse_g("2"), 1, 7)[0] == 0
    assert weights(parse_g("2"), 1, 5)[0] == 2
    assert weights(parse_g("-2"), 1, 7)[0] == 2


def test_weight_r_examples():
    assert weights(parse_g("2"), 2, 7)[1] == 2
    assert weights(parse_g("2"), 2, 13)[1] == 0
    assert weights(parse_g("2"), 3, 7)[1] == 1


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(BASES),
    st.sampled_from([3, 7, 11, 13, 17, 19, 23, 29, 41, 97, 113, 193, 577]),
    st.data(),
)
def test_weights_are_small_integers(g, p, data):
    # the case tables take t | p-1 as given, so t is drawn among the divisors of p-1
    if p in excluded_primes(g):
        return
    t = data.draw(st.sampled_from([d for d in range(1, p) if (p - 1) % d == 0]))
    w, r = weights(g, t, p)
    assert w in (0, 1, 2)
    assert r in (0, 1, 2)


# ---------------------------------------------------------------------------
# sums


def test_sum_naive_examples():
    g = parse_g("2")
    sw = empirical.sweep(g, 10, (1, 4), exact=True)
    assert sw.naive_exact[1] == Fraction(4, 3)
    assert sw.naive_exact[4] == Fraction(1, 4)
    assert empirical.sweep(g, 20, (7,), exact=True).naive_exact[7] == 0


def test_sum_quadratic_example():
    g = parse_g("2")
    # p=3: w=2, term 1/2; p=5: w=2, term 1/2; p=7: w=0
    sw = empirical.sweep(g, 10, (1,), exact=True)
    assert sw.quad_exact[1] == 2
    assert sw.quad[1] == pytest.approx(2.0)
    assert empirical.sweep(g, 20, (7,), exact=True).quad_exact[7] == 0


def test_sum_divisible_H_examples(small_table):
    g = parse_g("2")
    assert empirical.sweep(g, 20, (2,)).H(2) == 2
    # t = 1 for h = 1: r is identically 1, H = pi(x;1,1)
    assert empirical.sweep(g, 500, (1,)).H(1) == len(counted_primes(g, 500, small_table))
    # negative base, cross-checked against the closed form
    sw = empirical.sweep(parse_g("-2"), 20, (2,))
    assert sw.H(2) == sw.M(2)


def test_closed_form_M_examples(small_table):
    sw = empirical.sweep(parse_g("2"), 20, (1, 2))
    assert sw.M(2) == 2
    assert sw.M(1) == 7
    gm4 = parse_g("-4")
    # tau = e = 1: M = pi(x;2t,1)/t_h = pi(100;4,1)
    want = sum(p % 4 == 1 for p in counted_primes(gm4, 100, small_table))
    assert empirical.sweep(gm4, 100, (2,)).M(2) == want


def test_M_equals_L_plus_Q_and_H():
    x = 3000
    for g in BASES:
        sw = empirical.sweep(g, x, tuple(range(1, 9)))
        for t in range(1, 9):
            assert sw.M(t) == sw.L(t) + sw.Q(t)
            assert sw.H(t) == sw.M(t)


def test_moebius_m_sum_identity():
    x = 3000
    for g in (parse_g("2"), parse_g("-4"), parse_g("9/25")):
        sw = empirical.sweep(g, x, (1, 2, 3), exact=True)
        for t in (1, 2, 3):
            left = heuristic.moebius_m_sum_from_tallies(sw.dec, t, sw.pi_all, sw.split_all)
            assert left == sw.quad_exact[t]


def test_float_and_exact_sums_agree():
    g = parse_g("-3")
    sw = empirical.sweep(g, 5000, (1, 2, 3), exact=True)
    for t in (1, 2, 3):
        assert sw.naive[t] == pytest.approx(float(sw.naive_exact[t]), rel=1e-12)
        assert sw.quad[t] == pytest.approx(float(sw.quad_exact[t]), rel=1e-12, abs=1e-12)
