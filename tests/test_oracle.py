import cmath
import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_indicator, character_sum, euler_criterion
from resindex import arith, cli, oracle
from resindex.decompose import decompose_g, parse_g
from resindex.errors import BoundError, DomainError


ROUTES = ("definition", "ramanujan", "characters")


def densities(n: int, h: int, sign: int, parity: str) -> dict[int, tuple[Fraction, Fraction]]:
    """{t: (rho, sigma)} over the divisors t of n for one class, read off the suite's arrays."""
    lat = oracle._lattice(n)
    hist = oracle._class_indexes(n, h, sign, parity)
    rho = lat.divides @ hist
    assert np.array_equal(lat.mob @ rho, hist)  # sigma by Moebius inversion
    size = int(hist.sum())
    return {t: (Fraction(int(a), size), Fraction(int(b), size)) for t, a, b in zip(lat.divs.tolist(), rho, hist)}


def test_cyclic_group_index_conventions():
    # the identity has full index: the class {gamma^12} in C_12 is {1}, of index exactly 12
    assert densities(12, 12, 1, "*")[12][1] == 1


def test_lattice_of_12():
    lat = oracle._lattice(12)
    assert lat.divs.tolist() == [1, 2, 3, 4, 6, 12]
    assert lat.phi.tolist() == [4, 2, 2, 2, 1, 1]  # phi(12 / t)
    assert lat.divides[1].tolist() == [0, 1, 0, 1, 1, 1]  # the multiples of 2
    assert lat.mob[1].tolist() == [0, 1, 0, -1, -1, 1]  # mu(t/2) for t = 2, 4, 6, 12
    assert lat.mob[0].tolist() == [1, -1, -1, 0, 1, 0]  # mu(t)
    with pytest.raises(ValueError):
        lat.mob[0, 0] = 0  # cached arrays are shared, so read-only


def indicator_routes(n: int) -> dict[int, tuple[list[int], list[int]]]:
    """{t: (ramanujan, characters)} over the divisors t of n: the indicator of t | index(gamma),
    gamma = 0..n-1, summed over the rows d | t of the tables the indicator suite reads."""
    lat = oracle._lattice(n)
    ram, char = oracle._character_table(n)
    col = lat.divs[:, None]
    ram, char = lat.divides.T @ ram, lat.divides.T @ char / col
    assert not np.any(ram % col) and np.allclose(char, np.round(char.real), atol=1e-6)
    rows = zip(lat.divs.tolist(), (ram // col).tolist(), np.round(char.real).astype(int).tolist())
    return {t: (r, c) for t, r, c in rows}


def test_indicator_examples():
    routes = indicator_routes(12)
    for route, f in zip(ROUTES, (brute_indicator(12, 4), *routes[4])):
        assert f[4] == 1 and f[8] == 1 and f[1] == 0, route
    for route, f in zip(ROUTES, (brute_indicator(12, 3), *routes[3])):
        assert f[4] == 0 and f[3] == 1, route
    for route, f in zip(ROUTES, (brute_indicator(12, 6), *routes[6])):
        assert f[0] == 1, route  # identity has full index
    assert 5 not in routes  # one row per divisor of n


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 100), st.data())
def test_indicator_modes_agree(n, data):
    divs = oracle._lattice(n).divs.tolist()
    t = data.draw(st.sampled_from(divs))
    f_ram, f_char = indicator_routes(n)[t]
    assert f_ram == f_char == brute_indicator(n, t)
    # each character row d | t is the literal per-gamma sum over the units mod d
    _, char = oracle._character_table(n)
    for d, row in zip(divs, char):
        if t % d == 0:
            assert np.allclose(row, [character_sum(d, gamma) for gamma in range(n)], atol=1e-9), d


def test_character_sums_built_once_per_divisor(monkeypatch):
    calls, sums = [], oracle._character_sums
    monkeypatch.setattr(oracle, "_character_sums", lambda d: calls.append(d) or sums(d))
    assert oracle.indicator_suite(12).ok and oracle.remark_suite(12).ok
    rows = [d for n in range(1, 13) for d in range(1, n + 1) if n % d == 0]
    assert calls == rows + rows  # one sum per row of each n's table, never one per t


def test_character_fault_names_the_case(monkeypatch):
    sums, clean = oracle._character_sums, oracle.indicator_suite(12).checks

    def without_unit_2(d):  # the characters of order 5 lose chi_2
        return sums(d) - np.exp(4j * np.pi * np.arange(d) / d) if d == 5 else sums(d)

    monkeypatch.setattr(oracle, "_character_sums", without_unit_2)
    res = oracle.remark_suite(12)
    assert res.violations == [f"character sum != ramanujan sum at n={n}, d=5" for n in (5, 10)]
    cases = ((5, 5), (10, 5), (10, 10))
    res = oracle.indicator_suite(12)
    assert res.violations == [f"character route drifted at n={n}, t={t}" for n, t in cases]
    assert res.checks == clean - sum(3 * n for n, _ in cases)  # a drifted route adds no checks


def test_character_sums_match_the_definition():
    # the FFT route against the literal sum of zeta_d^(u k) over the units u mod d
    worst = max(
        abs(
            oracle._character_sums(d)[k]
            - sum(cmath.exp(2j * cmath.pi * u * k / d) for u in range(1, d + 1) if math.gcd(u, d) == 1)
        )
        for d in range(1, 121)
        for k in range(d)
    )
    assert worst < 1e-9


def test_ramanujan_fault_names_the_case(monkeypatch):
    table = arith.ramanujan_table
    monkeypatch.setattr(arith, "ramanujan_table", lambda d: table(d) + 3 * (d == 3))  # c_3 off by 3
    res = oracle.remark_suite(6)
    assert res.violations == [f"character sum != ramanujan sum at n={n}, d=3" for n in (3, 6)]
    # t = 3 sums one shifted row, still a multiple of 3; t = 6 does not
    assert oracle.indicator_suite(6).violations == [
        "indicator routes disagree at n=3, t=3",
        "indicator routes disagree at n=6, t=3",
        "ramanujan route not integral at n=6, t=6",
    ]


def rho(n: int, h: int, sign: int, parity: str, t: int) -> Fraction:
    """rho of one class at t | n, enumerated; asserted equal to its closed form first."""
    closed = oracle.rho_closed(n, h, sign, parity)[oracle._lattice(n).divs.tolist().index(t)]
    value = densities(n, h, sign, parity)[t][0]
    assert value == Fraction(int(closed), t)
    return value


def test_rho_linear_examples():
    assert rho(12, 2, 1, "*", 4) == Fraction(1, 2)
    assert rho(12, 1, 1, "*", 3) == Fraction(1, 3)
    assert rho(12, 24, 1, "*", 1) == 1


def test_rho_signed_examples():
    assert rho(12, 4, -1, "*", 4) == 0
    assert rho(12, 1, -1, "*", 2) == Fraction(1, 2)
    assert rho(4, 1, 1, "odd", 2) == 0


def test_rho_zero_when_t_does_not_divide_n():
    # every index divides n: the lattice of 10 holds the whole class, and no index is a multiple of 3
    d = densities(10, 1, 1, "even")
    assert 3 not in d and sum(sigma for _, sigma in d.values()) == 1


def test_sigma_examples():
    assert densities(12, 1, 1, "*")[2][1] == Fraction(1, 6)
    assert densities(12, 2, 1, "*")[2][1] == Fraction(1, 3)
    assert densities(12, 4, 1, "*")[2][1] == 0
    assert oracle.sigma_closed_linear(12, 2)[1] == 4  # t = 2: 12 * sigma = 12 * 1/3
    assert oracle.sigma_closed_linear(12, 4)[1] == 0


def test_closed_form_fault_names_the_case(monkeypatch):
    rho_closed = oracle.rho_closed

    def corrupted(n, h, sign, parity):
        out = rho_closed(n, h, sign, parity)
        return out + 1 if (sign, parity) == (-1, "even") else out

    monkeypatch.setattr(oracle, "rho_closed", corrupted)
    res = oracle.rho_sigma_suite(12, 2)
    cases = {(n, h, t) for n in range(2, 13, 2) for h in (1, 2) for t in range(1, n + 1) if n % t == 0}
    assert sorted(res.violations) == sorted(
        f"rho mismatch at n={n}, h={h}, sign=-1, parity=even, t={t}" for n, h, t in cases
    )


def test_closed_form_fault_names_its_h(monkeypatch):
    # the suite evaluates every h at once; row i of its arrays must be h = i + 1
    rho_closed = oracle.rho_closed
    hs = np.arange(1, 5)[:, None]
    for n in (12, 30, 64):
        for sign in (1, -1):
            for parity in oracle.PARITIES:
                rows = [rho_closed(n, h, sign, parity) for h in range(1, 5)]
                assert np.array_equal(rho_closed(n, hs, sign, parity), rows)
        rows = [oracle.sigma_closed_linear(n, h) for h in range(1, 5)]
        assert np.array_equal(oracle.sigma_closed_linear(n, hs), rows)
    monkeypatch.setattr(
        oracle, "rho_closed", lambda n, h, sign, parity: rho_closed(n, h, sign, parity) + (np.asarray(h) == 2)
    )
    res = oracle.rho_sigma_suite(12, 4)
    assert res.violations == [
        f"rho mismatch at n={n}, h=2, sign={sign}, parity={parity}, t={t}"
        for n in range(1, 13)
        for sign in (1, -1)
        if sign == 1 or n % 2 == 0
        for parity in oracle.PARITIES
        for t in oracle._lattice(n).divs.tolist()
    ]


def weight_check(g, p: int, t: int) -> tuple[Fraction, int, Fraction]:
    """sigma, w(g,t;p) and mu = (h,t) phi((p-1)/t)/(p-1) at one counted prime p of g and t | p-1,
    as the weight oracle reads them; (disc/p) by Euler's criterion."""
    dec = decompose_g(g)
    leg = euler_criterion(dec.disc, p)
    lat = oracle._lattice(p - 1)
    i = lat.divs.tolist().index(t)
    hist = oracle._locate_class(g, dec, p, leg)
    w, _ = oracle._weights(dec, p, leg)
    sigma = Fraction(int(hist[i]), int(hist.sum()))
    return sigma, int(w[i]), Fraction(math.gcd(dec.h, t) * int(lat.phi[i]), p - 1)


def test_dlog_table_inverts_the_primitive_root():
    for p in arith.build_prime_table(2000).primes[1:].tolist():
        log = oracle._dlog_table(p).tolist()
        root = oracle._smallest_primitive_root(p, arith.factor_int(p - 1))
        assert sorted(log[1:]) == list(range(p - 1)), p
        assert all(pow(root, log[x], p) == x for x in range(1, p)), p


def test_weight_check_examples():
    sigma, w, mu = weight_check(parse_g("2"), 7, 1)
    assert sigma == 0 and w == 0
    sigma, w, mu = weight_check(parse_g("2"), 5, 1)
    assert sigma == 1 and w == 2 and mu == Fraction(1, 2) and sigma == w * mu
    sigma, w, mu = weight_check(parse_g("-4"), 13, 2)
    assert sigma == w * mu
    for g, p in (("2", 7), ("2", 5), ("-4", 13)):
        assert oracle.weight_oracle_suite([parse_g(g)], p).ok


def test_default_check_counts():
    assert oracle.indicator_suite(200).checks == 361491
    assert oracle.remark_suite(200).checks == 120497
    assert oracle.rho_sigma_suite(200, 8).checks == 133560
    res = oracle.weight_oracle_suite([parse_g(g) for g in cli._DEFAULT_VERIFY_BASES], 500)
    assert res.ok and res.checks == 8205


def test_weight_oracle_on_six_bases():
    res = oracle.weight_oracle_suite([parse_g(s) for s in ("2", "8", "-2", "-4", "9/25", "-27")], 73)
    assert res.ok and res.checks > 0


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
    for suite, args in (
        (oracle.indicator_suite, (oracle._MAX_N + 1,)),
        (oracle.remark_suite, (10**20,)),
        (oracle.rho_sigma_suite, (oracle._MAX_N + 1, 8)),
        (oracle.rho_sigma_suite, (10, oracle._MAX_H + 1)),
        (oracle.weight_oracle_suite, ([parse_g("2")], oracle._MAX_P + 1)),
    ):
        with pytest.raises(BoundError):
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
    # the oracle reads (disc/p) from the kernel the sweep runs; a flipped column must show
    from resindex import empirical

    shard_indexes = empirical._shard_indexes

    def flipped(*args):
        r, leg = shard_indexes(*args)
        return r, -leg

    monkeypatch.setattr(empirical, "_shard_indexes", flipped)
    res = oracle.weight_oracle_suite([parse_g("2"), parse_g("-3")], 200)
    assert not res.ok
    assert any("parity of dlog(g0)" in v for v in res.violations)


def test_weight_fault_names_the_counting_case(monkeypatch):
    # w(2,3;p) off by one: sigma = w*mu fails at t = 3, and both Moebius relations read w(2,3;p)
    from resindex import heuristic

    weights_w_vec = heuristic.weights_w_vec
    monkeypatch.setattr(heuristic, "weights_w_vec", lambda dec, pa, *a: weights_w_vec(dec, pa, *a) + (pa.t == 3))
    res = oracle.weight_oracle_suite([parse_g("2")], 50)
    assert [v.split(":")[0] for v in res.violations] == [
        line
        for p in (7, 13, 19, 31, 37, 43)
        for line in (
            f"weight formulas disagree with counting at g=2, p={p}, t=3",
            f"w/r Moebius relations fail at g=2, p={p}, t=1",
            f"w/r Moebius relations fail at g=2, p={p}, t=3",
        )
    ]


def test_class_fault_names_the_prime(monkeypatch):
    # 2 decomposed as -(2): 2 lies in the class predicted for -2 exactly when -1 is a square mod p
    decompose = oracle.decompose_g
    monkeypatch.setattr(oracle, "decompose_g", lambda g: dataclasses.replace(decompose(g), sign=-decompose(g).sign))
    res = oracle.weight_oracle_suite([parse_g("2")], 100)
    primes = arith.build_prime_table(100).primes.tolist()
    assert res.violations == [f"g=2 mod {p} is not in its predicted class" for p in primes if p % 4 == 3]
    assert len(res.violations) == 13
