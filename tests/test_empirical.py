from collections import Counter
from dataclasses import replace
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
    qs = empirical._factor_shard(ps - 1, table.primes_upto(isqrt(int(ps[-1]))))
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
    qs = empirical._factor_shard(pm1, table.primes_upto(isqrt(10**5)))
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


# the bases drop different excluded primes (3, 5, 7, 99991) from chunks that base 2 counts
# whole, and 1/2 shares base 2's tally
_SWEEPS_BASES = tuple(
    map(Fraction, (99991, Fraction(-7, 99991), Fraction(9, 25), 3**50, 1024, -64, Fraction(1, 2), 2, 2))
)


def test_steps_cut_the_odd_primes_into_shared_chunks(table, monkeypatch):
    # step k covers odd[512k : 512(k+1)] for every base; each base gets that
    # chunk less exactly its excluded primes, and the bases that drop the same
    # primes of a chunk share one _tally_step call
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    calls = []
    tally_step = empirical._tally_step
    monkeypatch.setattr(
        empirical,
        "_tally_step",
        lambda plans, ts, ps, *a: calls.append(([p.g for p in plans], ps.tolist())) or tally_step(plans, ts, ps, *a),
    )
    odd = table.primes_upto(10**5)[1:].tolist()
    edges = Fraction(odd[512], odd[1023])  # excluded at the first and at the last position of chunk 1
    cases = ((10**5, _SWEEPS_BASES + (edges,)), (99991, _SWEEPS_BASES), (3, (Fraction(3), Fraction(2))))
    seen = {}
    for x, gs in cases:
        calls.clear()
        empirical.sweeps(gs, x, (1, 2))
        seen[x] = list(calls)
        counted = {g: counted_primes(g, x, table) for g in gs}
        chunks = [p for p in odd if p <= x]
        chunks = [chunks[lo : lo + 512] for lo in range(0, len(chunks), 512)]
        want = []
        for chunk in chunks:
            groups = {}
            for g in dict.fromkeys(gs):
                groups.setdefault(tuple(sorted(set(chunk) & set(counted[g]))), []).append(g)
            want += [(members, list(ps)) for ps, members in groups.items()]
        assert sorted(calls) == sorted(want), x
        # each base's primes over all steps are its counted primes, each chunk's in one call
        for g in gs:
            got = [ps for members, ps in calls if g in members]
            assert len(got) == len(chunks) and sum(got, []) == counted[g], (x, g)
    # an excluded prime first and last in a chunk, and a group with no primes, were reached
    assert ([edges], odd[513:1023]) in seen[10**5]
    assert ([Fraction(3)], []) in seen[3]


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
    # one _factor_shard call per step serves all nine bases
    calls = []
    factor_shard = empirical._factor_shard
    monkeypatch.setattr(empirical, "_factor_shard", lambda *a: calls.append(a) or factor_shard(*a))
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x = 20000
    argv = ["report", "--x", str(x), "--t", "1", "--t", "2", "--format", "csv"]
    assert cli.main(argv + [f"--g={g}" for g in BASE_STRINGS]) == 0
    odd_primes = len(table.primes_upto(x)) - 1
    assert len(calls) == -(-odd_primes // 512) > 1


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
    steps = -(-(len(table.primes_upto(x)) - 1) // 512)
    assert len(calls) == len(tables) == 4 * steps > 4
    assert set(calls) == {2, 3, 5, Fraction(5, 3)}


def test_report_tallies_once_per_key(table, monkeypatch):
    # 2 and 1/2 have one root, sign and h, so the nine bases have eight tallies: one
    # weights_w_vec call per key, t and step
    calls = []
    weights_w_vec = heuristic.weights_w_vec
    monkeypatch.setattr(heuristic, "weights_w_vec", lambda dec, *a: calls.append(dec) or weights_w_vec(dec, *a))
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x = 20000
    argv = ["report", "--x", str(x), "--t", "1", "--t", "2", "--format", "csv"]
    assert cli.main(argv + [f"--g={g}" for g in BASE_STRINGS]) == 0
    steps = -(-(len(table.primes_upto(x)) - 1) // 512)
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
    # count checks the splitting criterion on the sweep's r instead of a second kernel pass
    calls = []
    factor_shard = empirical._factor_shard
    monkeypatch.setattr(empirical, "_factor_shard", lambda *a: calls.append(a) or factor_shard(*a))
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x = 20000
    assert cli.main(["count", "--g", "2", "--t", "2", "--x", str(x), "--threads", "2"]) == 0
    odd_primes = len(table.primes_upto(x)) - 1
    assert len(calls) == -(-odd_primes // 512) > 1


def test_split_check_catches_kernel_faults(monkeypatch, capsys):
    # a table_pow that claims g^e = 1 mod p for some primes corrupts r; the
    # algebraic side runs its own ladder, so the check must not agree with it
    table_pow = arith.table_pow
    monkeypatch.setattr(arith, "table_pow", lambda tab, i, e, m: np.where(m % 7 == 3, 1, table_pow(tab, i, e, m)))
    with pytest.raises(LemmaViolation, match="splitting criterion"):
        empirical.sweep(parse_g("2"), 10**4, (2,), split=True)
    assert cli.main(["count", "--g", "2", "--t", "2", "--x", str(10**4)]) == 3
    assert "splitting criterion" in capsys.readouterr().err


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


def test_sweep_bounds(monkeypatch):
    # a sweep sieves the primes <= x itself, once, after refusing x beyond the sieve
    limits = []
    build = arith.build_prime_table
    monkeypatch.setattr(arith, "build_prime_table", lambda limit: limits.append(limit) or build(limit))
    with pytest.raises(BoundError, match="x must be <= 1000000000"):
        empirical.sweep(parse_g("2"), arith.MAX_SIEVE_LIMIT + 1, (1,))
    assert limits == []
    sw = empirical.sweep(parse_g("2"), 30000, (1, 2), threads=2, exact=True, split=True)
    assert limits == [30000] and sw.counted == 3244  # the odd primes: pi(30000) = 3245
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


def test_every_column_matches_brute_force(table, monkeypatch):
    # every integer column against scalar references, for bases that share a root and
    # bases that share a tally (2 and 1/2, 5/3 and 3/5): pi, pi2, split and split2 by
    # Euler's criterion, sum_r by the r case table one prime at a time, N and R from
    # divisor_index and L_num and Q_num as its Ramanujan sums; at t = 1024 and 4096 some
    # shards hold no p = 1 mod t
    monkeypatch.setattr(empirical, "SHARD_PRIMES", 512)
    x, ts = 10**5, tuple(range(1, 13)) + (1024, 4096)
    gs = tuple(map(parse_g, ("2", "1/2", "8", "-2", "-4", "5/3", "3/5", "9/25", "-3")))
    odd = table.primes_upto(x)[1:]
    shards = [odd[lo : lo + 512] for lo in range(0, odd.size, 512)]
    for t in (1024, 4096):
        hits = [((shard - 1) % t == 0).any() for shard in shards]
        assert any(hits) and not all(hits), t
    for g, sw in zip(gs, empirical.sweeps(gs, x, ts)):
        dec = decompose_g(g)
        primes = counted_primes(g, x, table)
        rs = [divisor_index(g, p) for p in primes]
        assert sw.counted == len(primes)
        for t in ts:
            pa = derive_params(dec, t)
            ones = [(p, r, euler_criterion(dec.disc, p)) for p, r in zip(primes, rs) if (p - 1) % t == 0]
            twos = [leg for p, _, leg in ones if (p - 1) % (2 * t) == 0]
            low = Counter(r for _, r, _ in ones)
            ght, g2t = pa.gcd_ht, gcd(2 * dec.h, t)
            want = {
                "pi": len(ones),
                "pi2": len(twos),
                "split": sum(leg == 1 for _, _, leg in ones),
                "split2": twos.count(1),
                "N": rs.count(t),
                "R": sum(r % t == 0 for r in rs),
                "sum_r": sum(int(heuristic.weights_r_vec(dec, pa, p - 1, leg)) for p, _, leg in ones),
                "L_num": sum(n * arith.ramanujan_sum(d, r) for r, n in low.items() for d in trial_divisors(ght)),
                "Q_num": sum(
                    n * arith.ramanujan_sum(d, r)
                    for r, n in low.items()
                    for d in trial_divisors(g2t)
                    if dec.h % d
                ),
            }
            assert {name: getattr(sw, name)[t] for name in empirical._COLUMNS} == want, (g, t)
    # the reference itself, against the walk through every power
    for g in gs:
        ps = counted_primes(g, 3000, table)
        assert [divisor_index(g, p) for p in ps] == [brute_index(g, p) for p in ps], g


def test_sweep_bases_beyond_int64(small_table):
    # a numerator too large for int64 is reduced mod p first; pow inverts a big denominator itself
    for g in (Fraction(3**50), Fraction(1, 2**70), Fraction(2**71, 3**50), Fraction(-(3**50), 2**71)):
        assert_counts_match_brute_force(g, 10**4, (1, 2, 5, 10), small_table)
