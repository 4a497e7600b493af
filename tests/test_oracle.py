from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resindex import oracle
from resindex.decompose import parse_g
from resindex.errors import DomainError


def test_cyclic_group_index_conventions():
    g12 = oracle.CyclicGroup(12)
    assert g12.index(0) == 12  # identity has full index
    assert g12.index(1) == 1
    assert g12.index(4) == 4 and g12.index(8) == 4
    assert g12.exponents().tolist() == list(range(12))


def test_indicator_examples():
    for mode in ("definition", "ramanujan", "characters"):
        assert oracle.indicator_f(4, 4, 12, mode) == 1
        assert oracle.indicator_f(4, 3, 12, mode) == 0
        assert oracle.indicator_f(0, 6, 12, mode) == 1  # identity has full index
    with pytest.raises(DomainError):
        oracle.indicator_f(1, 5, 12, "definition")
    with pytest.raises(DomainError):
        oracle.indicator_f(1, 1, 12, "nonsense")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 100), st.data())
def test_indicator_modes_agree(n, data):
    divs = [t for t in range(1, n + 1) if n % t == 0]
    t = data.draw(st.sampled_from(divs))
    gamma = data.draw(st.integers(0, n - 1))
    vals = {mode: oracle.indicator_f(gamma, t, n, mode) for mode in ("definition", "ramanujan", "characters")}
    assert len(set(vals.values())) == 1


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


def test_moebius_inversion_check():
    assert oracle.moebius_inversion_check(1, 12, lambda m: oracle.rho(oracle.GroupScenario(12, 1, m, 1, "*")))
    assert oracle.moebius_inversion_check(2, 16, lambda m: oracle.rho(oracle.GroupScenario(16, 2, m, -1, "even")))
    assert oracle.moebius_inversion_check(1, 24, lambda m: Fraction(0))
    # a rho-style function and its sigma both ways on every scenario class
    for parity in oracle.PARITIES:
        assert oracle.moebius_inversion_check(
            1, 36, lambda m, par=parity: oracle.rho(oracle.GroupScenario(36, 3, m, 1, par))
        )


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
