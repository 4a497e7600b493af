import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resindex import oracle
from resindex.decompose import parse_g
from resindex.errors import DomainError


ROUTES = ("definition", "ramanujan", "characters")


def test_cyclic_group_index_conventions():
    # the identity has full index: the class {gamma^12} in C_12 is {1}, of index exactly 12
    assert oracle.sigma(oracle.GroupScenario(12, 12, 12, 1, "*")) == 1


def test_indicator_examples():
    for route, f in zip(ROUTES, oracle.indicator_routes(12, 4)):
        assert f[4] == 1 and f[8] == 1 and f[1] == 0, route
    for route, f in zip(ROUTES, oracle.indicator_routes(12, 3)):
        assert f[4] == 0 and f[3] == 1, route
    for route, f in zip(ROUTES, oracle.indicator_routes(12, 6)):
        assert f[0] == 1, route  # identity has full index
    with pytest.raises(DomainError):
        oracle.indicator_routes(12, 5)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 100), st.data())
def test_indicator_modes_agree(n, data):
    divs = [t for t in range(1, n + 1) if n % t == 0]
    t = data.draw(st.sampled_from(divs))
    f_def, f_ram, f_char = oracle.indicator_routes(n, t)
    assert f_def.tolist() == f_ram.tolist() == f_char.tolist()
    assert f_def.tolist() == [int(math.gcd(gamma, n) % t == 0) for gamma in range(n)]


def test_rho_linear_examples():
    assert oracle.rho(oracle.GroupScenario(12, 2, 4, 1, "*")) == Fraction(1, 2)
    assert oracle.rho(oracle.GroupScenario(12, 1, 3, 1, "*")) == Fraction(1, 3)
    assert oracle.rho(oracle.GroupScenario(12, 24, 1, 1, "*")) == 1


def test_rho_signed_examples():
    assert oracle.rho(oracle.GroupScenario(12, 4, 4, -1, "*")) == 0
    assert oracle.rho(oracle.GroupScenario(12, 1, 2, -1, "*")) == Fraction(1, 2)
    assert oracle.rho(oracle.GroupScenario(4, 1, 2, 1, "odd")) == 0
    with pytest.raises(DomainError):
        oracle.GroupScenario(9, 1, 3, -1, "*")


def test_rho_zero_when_t_does_not_divide_n():
    assert oracle.rho(oracle.GroupScenario(10, 1, 3, 1, "even")) == 0


def test_sigma_examples():
    assert oracle.sigma(oracle.GroupScenario(12, 1, 2, 1, "*")) == Fraction(1, 6)
    assert oracle.sigma(oracle.GroupScenario(12, 2, 2, 1, "*")) == Fraction(1, 3)
    assert oracle.sigma(oracle.GroupScenario(12, 4, 2, 1, "*")) == 0
    assert oracle.sigma_closed_linear(12, 2, 2) == Fraction(1, 3)
    assert oracle.sigma_closed_linear(12, 4, 2) == 0
    with pytest.raises(DomainError):
        oracle.sigma(oracle.GroupScenario(12, 1, 2, 1, "*"), "nonsense")


@settings(max_examples=250, deadline=None)
@given(st.integers(1, 120), st.integers(1, 8), st.sampled_from([1, -1]), st.sampled_from(oracle.PARITIES), st.data())
def test_rho_sigma_random_scenarios(n, h, sign, parity, data):
    if sign < 0 and n % 2:
        n += 1
    divs = [t for t in range(1, n + 1) if n % t == 0]
    t = data.draw(st.sampled_from(divs))
    sc = oracle.GroupScenario(n, h, t, sign, parity)
    assert oracle.rho(sc) == oracle.rho_closed(sc)
    sig = oracle.sigma(sc, "direct")
    assert sig == oracle.sigma(sc, "moebius")
    if sign == 1 and parity == "*":
        assert sig == oracle.sigma_closed_linear(n, h, t)


def test_weight_check_examples():
    chk = oracle.verify_sigma_equals_w_mu(parse_g("2"), 7, 1)
    assert chk.ok and chk.sigma_direct == 0 and chk.w == 0
    chk = oracle.verify_sigma_equals_w_mu(parse_g("2"), 5, 1)
    assert chk.ok and chk.sigma_direct == 1 and chk.w == 2 and chk.mu_factor == Fraction(1, 2)
    chk = oracle.verify_sigma_equals_w_mu(parse_g("-4"), 13, 2)
    assert chk.ok
    with pytest.raises(DomainError):
        oracle.verify_sigma_equals_w_mu(parse_g("2"), 7, 4)  # 4 does not divide 6
    with pytest.raises(DomainError):
        oracle.verify_sigma_equals_w_mu(parse_g("9/25"), 5, 1)  # excluded prime


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([parse_g(s) for s in ("2", "8", "-2", "-4", "9/25", "-27")]),
    st.sampled_from([3, 5, 7, 11, 13, 17, 19, 29, 37, 41, 61, 73]),
    st.integers(1, 12),
)
def test_w_r_relations_random(g, p, t):
    from resindex.decompose import excluded_primes

    if p in excluded_primes(g) or (p - 1) % t:
        return
    assert oracle.verify_w_r_relations(g, p, t)
    assert oracle.verify_sigma_equals_w_mu(g, p, t).ok


def test_small_suites_pass():
    assert oracle.indicator_suite(40).ok
    assert oracle.remark_suite(40).ok
    assert oracle.rho_sigma_suite(60, 4).ok
    res = oracle.weight_oracle_suite([parse_g("2"), parse_g("-2")], 100)
    assert res.ok and res.checks > 0


def test_suites_reject_sizes_that_check_nothing():
    for suite, args in (
        (oracle.indicator_suite, (0,)),
        (oracle.remark_suite, (-3,)),
        (oracle.rho_sigma_suite, (0, 8)),
        (oracle.rho_sigma_suite, (10, 0)),
        (oracle.weight_oracle_suite, ([parse_g("2")], 2)),
    ):
        with pytest.raises(DomainError):
            suite(*args)


def test_suites_enumerate_each_group_once(monkeypatch):
    classes, bases = [], []
    class_indexes, decompose = oracle._class_indexes, oracle.decompose_g
    monkeypatch.setattr(oracle, "_class_indexes", lambda *a: classes.append(a) or class_indexes(*a))
    monkeypatch.setattr(oracle, "decompose_g", lambda g: bases.append(g) or decompose(g))
    res = oracle.rho_sigma_suite(12, 2)
    grid = {(n, h, s, par) for n in range(1, 13) for h in (1, 2) for s in (1, -1) for par in oracle.PARITIES}
    assert res.ok and sorted(classes) == sorted(c for c in grid if c[2] == 1 or c[0] % 2 == 0)
    classes.clear()
    gs = [parse_g("2"), parse_g("-3")]
    res = oracle.weight_oracle_suite(gs, 100)
    assert res.ok and bases == gs
    odd_primes = [p for p in range(3, 101) if all(p % q for q in range(2, p))]
    assert len(classes) == len(odd_primes) + len(odd_primes) - 1  # p = 3 divides -3


def test_weight_oracle_certifies_the_sweeps_legendre_symbol(monkeypatch):
    from resindex import arith

    legendre_vec = arith.legendre_vec
    monkeypatch.setattr(arith, "legendre_vec", lambda d, ps: -legendre_vec(d, ps))
    res = oracle.weight_oracle_suite([parse_g("2"), parse_g("-3")], 200)
    assert not res.ok
    assert any("parity of dlog(g0)" in v for v in res.violations)
