"""Exact counting of residual indices over primes.

For a base g and every counted prime p <= x (odd, ord_p(g) = 0) the engine
computes the residual index r_g(p) = (p-1) / ord(g mod p) once and folds it
into all requested per-t tallies in a single streamed pass:

    N_{g,t}(x)   primes with r_g(p) = t
    R_{g,t}(x)   primes with t | r_g(p)
    pi(x;t,1)    counted primes p = 1 mod t
    P_t(x)       counted primes p = 1 mod t with (disc/p) = 1
    L, Q         first/second-order character sums: Ramanujan sums of r
                 over d | (h,t), and over the d | (2h,t) not dividing h
    sum r(g,t;p), naive and weighted phi-sums (floats; exact=True adds
    exact rationals and the divisor tallies pi_all, split_all, R_all: int64
    arrays over m = 0..x counting the primes with m | p-1, those that also
    have (disc/p) = 1, and those with m | r_g(p))

A sweep needs only g, x and t: it sieves the base primes <= sqrt(x), and
step k sieves the odd primes of its own span [lo, hi) of [3, x] from
them (arith.odd_primes), the same span for every base (_spans: about
SHARD_PRIMES primes each), and factors their p-1 once, or, when the
sweep skips the phi-sums (sums=False, as `count` asks) and the kernel
tests only some rows, only the p-1 that it tests.  No table of the
primes <= x is built (exact=True alone builds one, for its divisor
tallies).  Each base drops its own excluded primes from the span, and
the bases that drop the same ones share one _tally_step.  It builds the
index of the primes with t | p-1, phi((p-1)/t), pi and pi2 once per t; the
Legendre column, split and split2 once per t and root; and N, R, L, Q,
sum_r and the weighted phi-sum once per t and (root, sign, h), which g
and 1/g share.  Without sums no phi, 1/(p-1) or float sum is built, and
every integer column and check stays.  sweeps serves several bases in
one pass and sweep is sweeps for one base.  A step yields, per base, one
int64 array of its integer tallies (a row per t) and one float array of
its phi-sums (None without sums); the arrays are summed, and the floats
fsum'med, in span order, so output is identical for any worker count; no
per-prime records are retained beyond the step being processed.  A step
is the module-level _step of one job tuple and its span, two ints; with
threads > 1 the steps run in forked worker processes (_pool), each task
carrying its job and span.
Every sweep ends by checking H = M exactly and 0 <= N <= R <= pi(x;t,1)
for each base and t.  One vectorized kernel, _shard_indexes, finds r for
a whole shard from the prime factors of p-1 (_factor_shard, int32
rows: the whole power of 2 at once, then, over the range of (p-1)/2, a
strided slice per power of each odd base prime below 64 and one array of
the multiples of all the larger ones), reading
every power of its order loop off one table of the base mod p
(arith.power_table; a fraction's denominator is inverted by array
Euclid, arith.inverse_mod_vec).  It finds r's 2-part on every row by
squaring g^(odd part of p-1) until it reaches 1, then r's odd part from
the odd primes of p-1.  It runs once per root
and step: g = sign * g0^h has the root g0 or 1/g0 (_root), shared by all
powers, inverses and negatives of g0, and _lift derives r_g(p) from the
root's r in closed form.  The same run gives the Legendre symbol
(g0/p) = (disc/p) of every such base, from the parity of the root's r.
The sweep and the weight oracle both reach r and (disc/p) that way.
When every t is a power of two (and exact is off) the sweep asks for r's
odd part only where some key's r has its 2-part among the ts (_mask_bits),
and the kernel tests p-1's odd primes on those rows alone: then
gcd(h, t) and gcd(2h, t) are powers of two too, so R, L, Q, sum_r, split
and the split check read only r's 2-part, and N_t = #[r = t] reads the
odd part only where the 2-part is t.  Any t with an odd factor, or
exact's R_all over every m, reads the odd part of every r.
With split=True (as `count` asks) the sweep also checks the splitting
criterion t | r_g(p) <=> (p = 1 mod t and g^((p-1)/t) = 1 mod p) on each
shard's r as soon as it is found (_split_check).  Its algebraic side is
a whole-shard base-4 ladder of its own (_pow_ladder) on num * den^(2t-1)
mod p for g = num/den (_residues), kept apart from arith's power tables
and reductions so that a fault in those cannot pass on both sides.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import fsum, gcd, isqrt, log

import numpy as np

from . import arith, heuristic
from .decompose import GDecomposition, HeuristicParams, Rational, decompose_g, derive_params, excluded_primes
from .errors import BoundError, CapabilityError, DomainError, LemmaViolation, check_range

SHARD_PRIMES = 8192

# exact=True holds three int64 arrays over m = 0..x and their bincount
# temporaries: about 0.5 GB at x = 1e7, more than fits at larger x.
_MAX_EXACT_X = 10**7

# The largest --threads accepted.  A pool starts min(threads, usable cores,
# steps) worker processes: each is a fork of the caller and holds one step's
# shard arrays at a time, so workers beyond the cores would add memory, not
# speed.
_MAX_THREADS = 64

# omega(p-1) <= 9 for p <= MAX_SIEVE_LIMIT = 1e9, since the product of the
# first ten primes, 6469693230, exceeds it; ten columns always suffice.
_FACTOR_COLUMNS = 10

# _factor_shard sieves by each odd base prime below this one at a time, by
# all the larger ones at once.  The array of multiples of q holds a 1/q share
# of the shard's range, so the small q would dominate it: with every odd q in
# the array pass a shard takes 1.3-1.9 times as long.  Over the range of
# (p-1)/2, cuts 32 / 64 / 128 took 2.22 / 2.15 / 2.12 ms at 1e6,
# 2.71 / 2.59 / 2.55 ms at 1e7 and 3.14 / 3.01 / 2.96 ms at 1e8 (the last
# full span below x, best of 25, interleaved, 2 vCPUs); 64 and 128 swapped
# places on a rerun, so 64 stays.
_DENSE_Q = 64


# ---------------------------------------------------------------------------
# the shard kernel


def _factor_shard(pm1: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Distinct prime factors of each value in the ascending array pm1.

    pm1 holds p-1 for a span's primes, or for any ascending subset of them
    (as _shard_indexes passes the rows it tests): the sieve still covers
    the range from the first value to the last, with fewer slots filled.
    Every value must be even, as p-1 of an odd prime is: column 0 is 2, and
    rest & -rest, the whole power of 2 in each value, is divided out at once.
    An odd q divides p-1 exactly when it divides (p-1)/2, so the odd base
    primes sieve the range [pm1[0]/2, pm1[-1]/2] of the halves, half the
    range of the values themselves.  base must include all primes
    <= sqrt(pm1[-1]), so what is left of a value after its base primes and
    their powers are divided out is 1 or a single prime.  An odd base prime
    q < _DENSE_Q hits densely and takes one strided slice per power of q.
    The multiples of all larger q come from one array of positions, q
    ascending; the hits that are some (p-1)/2 are ranked within their row by
    a stable sort, and each row is divided by its q's until none divides.
    Row i of the returned int32 [len(pm1), w] array lists the distinct
    primes of pm1[i] in ascending order, padded with 1, where w is the
    widest row's count (at most _FACTOR_COLUMNS); every entry is below 2**30,
    since pm1 is below MAX_SIEVE_LIMIT.  An empty pm1 gives a [0, 1] array.
    """
    n = pm1.size
    if not n:
        return np.full((0, 1), 2, dtype=np.int32)
    half = pm1 >> 1
    lo, hi = int(half[0]), int(half[-1])
    slot = np.full(hi - lo + 1, -1, dtype=np.int32)
    slot[half - lo] = np.arange(n, dtype=np.int32)
    qs = np.ones((n, _FACTOR_COLUMNS), dtype=np.int32)
    qs[:, 0] = 2
    filled = np.ones(n, dtype=np.int64)
    rest = pm1 // (pm1 & -pm1)
    base = base[base > 2]
    dense = int(np.searchsorted(base, _DENSE_Q))
    for q in base[:dense].tolist():
        qk = q
        while qk <= hi:
            hit = slot[-lo % qk :: qk]
            hit = hit[hit >= 0]
            if not hit.size:
                break
            if qk == q:
                qs[hit, filled[hit]] = q
                filled[hit] += 1
            rest[hit] //= q
            qk *= q
    large = base[dense:]
    first = -lo % large  # lo + first is the least multiple of q >= lo
    count = np.maximum((hi - lo - first) // large + 1, 0)
    # the j-th multiple of q is lo + first + j*q, at slot first + j*q (int32
    # holds it, as it holds the slot); k = start + j is its index among the
    # multiples of all q
    q_at = np.repeat(large.astype(np.int32), count)
    pos = np.arange(q_at.size, dtype=np.int32)
    pos -= np.repeat((np.cumsum(count) - count).astype(np.int32), count)
    pos *= q_at
    pos += np.repeat(first.astype(np.int32), count)
    rows = slot[pos]
    del pos
    keep = rows >= 0
    rows, q_at = rows[keep], q_at[keep]
    order = np.argsort(rows, kind="stable")  # q stays ascending within a row
    rows, q_at = rows[order], q_at[order]
    per_row = np.bincount(rows, minlength=n)
    rank = np.arange(rows.size) - (np.cumsum(per_row) - per_row)[rows]
    qs[rows, filled[rows] + rank] = q_at
    filled += per_row
    while rows.size:  # divide out every power of each large q
        np.floor_divide.at(rest, rows, q_at)
        more = rest[rows] % q_at == 0
        rows, q_at = rows[more], q_at[more]
    big = np.flatnonzero(rest > 1)
    qs[big, filled[big]] = rest[big]
    filled[big] += 1
    return qs[:, : int(filled.max())]


def _shard_indexes(
    g: Rational, ps: np.ndarray, qs: np.ndarray | None, keep=None, base: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Residual indexes r_g(p) and Legendre symbols (g/p) for an array of counted primes.

    The one order loop; every caller runs it on a base's root (_root) and
    lifts r (_lift).  qs holds the prime columns of p-1 for every row (see
    _factor_shard), or is None: then the rows that the odd primes' tests
    reach, and only those, are factored here by _factor_shard from the base
    primes base (all primes <= sqrt(max(ps)) at least).
    Every power is read off a single power table of g mod p
    (arith.power_table), since no exponent exceeds (p-1)/2.  For g = a/b
    that table is of a * b^-1 mod p, with b inverted modulo all of ps at
    once by extended Euclid (arith.inverse_mod_vec): ps are counted primes,
    so b is a unit mod p.

    The 2-part of ord(g mod p) comes first, for every row: y = g^o, o the
    odd part of p-1, has order 2^s with 2^s the 2-part of ord(g), so s is
    the number of squarings y <- y*y mod p that bring y to 1.  The order is
    then o * 2^s, and r's 2-part is (p-1) / (o * 2^s).  Then each odd
    prime q of p-1 tests g^(order/q) = 1 mod p, on the rows of the boolean
    mask keep(array of r's 2-parts) (all rows when keep is None), and the
    order loses q where it passes, until q no longer divides it or a test
    fails.  As the order stays a multiple of ord(g), such a test compares
    the q-parts of the two alone, so every live (row, q) pair is tested in
    one table read per round, and a row loses each q that passes.  A row
    outside keep's mask keeps an odd part of 1, so its r is r's 2-part
    alone.  r is even exactly where Euler's criterion g^((p-1)/2) = (g/p)
    gives 1, so the symbol is read off r's parity, which the mask leaves
    intact.  For a root g0 = a/b, (g0/p) = (disc/p) at every counted p,
    since ab is disc or disc/4 times a square prime to p.
    """
    pm1 = ps - 1
    a = arith.reduce_mod_vec(g.numerator, ps)
    if g.denominator != 1:
        a = a * arith.inverse_mod_vec(g.denominator, ps) % ps
    tab = arith.power_table(a, ps, int(pm1.max(initial=0)) >> 1)
    low = pm1 & -pm1
    order = pm1 // low
    live = np.arange(ps.size)
    y = arith.table_pow(tab, live, order, ps)
    # at most v2(p-1) squarings, so that a faulty power cannot loop here for ever
    for _ in range(int(low.max(initial=1)).bit_length() - 1):
        more = y != 1
        live, y = live[more], y[more]
        if not live.size:
            break
        order[live] <<= 1
        y = y * y % ps[live]
    np.minimum(order, pm1, out=order)
    rows = np.arange(ps.size) if keep is None else np.flatnonzero(keep(pm1 // order))
    # the odd prime columns of p-1 on the tested rows alone, one at a time
    cols = (col.take(rows) for col in qs.T[1:]) if qs is not None else _factor_shard(pm1[rows], base).T[1:]
    live, q = [rows[:0]], [rows[:0]]  # q is int64, as rows is
    for col in cols:
        hit = col > 1
        live.append(rows[hit])
        q.append(col[hit])
    live, q = np.concatenate(live), np.concatenate(q)
    while live.size:  # one round tests every live (row, q) pair at once
        hit = arith.table_pow(tab, live, order[live] // q, ps[live]) == 1
        live, q = live[hit], q[hit]
        np.floor_divide.at(order, live, q)  # a row may lose several q in one round
        more = order[live] % q == 0
        live, q = live[more], q[more]
    r = pm1 // order
    return r, 1 - 2 * (r & 1)


def _root(dec: GDecomposition) -> Rational:
    """The base whose kernel run serves g = sign * g0^h: g0 or 1/g0, whichever
    exceeds 1, since r(1/g) = r(g)."""
    return max(dec.g0, 1 / dec.g0)


def _lift(r0: np.ndarray, pm1: np.ndarray, dec: GDecomposition) -> np.ndarray:
    """r_g(p) for g = sign * g0^h from r0 = r_{g0}(p), where pm1 = p-1.

    ord(g0^h) = ord(g0) / gcd(ord(g0), h), so r(g0^h) = r0 * gcd((p-1)/r0, h).
    -1 is a^((p-1)/2) for a primitive root a, so negating leaves the odd part
    of r and moves only e = v2(r) against v = v2(p-1): e = v-1 becomes v
    (r doubles), e = v becomes v-1 (r halves), a smaller e stays.
    """
    r = r0 * np.gcd(pm1 // r0, dec.h) if dec.h > 1 else r0
    if dec.sign < 0:
        low_r, low_pm1 = r & -r, pm1 & -pm1
        r = np.where(2 * low_r == low_pm1, 2 * r, np.where(low_r == low_pm1, r // 2, r))
    return r


# ---------------------------------------------------------------------------
# the sweep engine

# The integer tally columns of one shard, one row per t; Sweep exposes each
# column as a dict keyed by t under the same name.
_COLUMNS = ("pi", "pi2", "split", "split2", "N", "R", "sum_r", "L_num", "Q_num")


@dataclass
class Sweep:
    """All per-t tallies of one pass over the counted primes p <= x."""

    g: Rational
    x: int
    ts: tuple[int, ...]
    dec: GDecomposition
    params: dict[int, HeuristicParams]
    counted: int
    pi: dict[int, int]
    pi2: dict[int, int]
    split: dict[int, int]
    split2: dict[int, int]
    N: dict[int, int]
    R: dict[int, int]
    sum_r: dict[int, int]
    L_num: dict[int, int]
    Q_num: dict[int, int]
    naive: dict[int, float] | None  # None when the sweep skipped the phi-sums
    quad: dict[int, float] | None
    split_checks: int = 0
    naive_exact: dict[int, Fraction] | None = None
    quad_exact: dict[int, Fraction] | None = None
    pi_all: np.ndarray | None = None
    split_all: np.ndarray | None = None
    R_all: np.ndarray | None = None

    def L(self, t: int) -> Fraction:
        """(1/t) * sum over p = 1 mod t of sum over d | (h,t) of c_d(r_g(p))."""
        return Fraction(self.L_num[t], t)

    def Q(self, t: int) -> Fraction:
        """(1/t) * sum over p = 1 mod t of sum over d | (2h,t), d not dividing h, of c_d(r_g(p))."""
        return Fraction(self.Q_num[t], t)

    def M(self, t: int) -> Fraction:
        return heuristic.m_from_counts(
            self.dec, self.params[t], self.pi[t], self.pi2[t], self.split[t], self.split2[t]
        )

    def H(self, t: int) -> Fraction:
        return Fraction(self.sum_r[t], self.params[t].t_h)


@dataclass(frozen=True)
class _SweepPlan:
    """One base's share of a sweep: its decomposition, its parameters per t,
    its root (_root) and its tally key (sign, h).  _lift, derive_params and
    the weight case table read only sign, h and e = v2(h), so g and 1/g,
    with one root and one key, share every tally."""

    g: Rational
    dec: GDecomposition
    params: dict[int, HeuristicParams]
    root: Rational
    key: tuple[int, int]


def _plan(g: Rational, ts: tuple[int, ...]) -> _SweepPlan:
    dec = decompose_g(g)
    params = {t: derive_params(dec, t) for t in ts}
    return _SweepPlan(g=g, dec=dec, params=params, root=_root(dec), key=(dec.sign, dec.h))


def _multiples(v: np.ndarray, k: int) -> int:
    """The number of entries of v divisible by k."""
    return v.size if k == 1 else int(np.count_nonzero(v % k == 0))


def _mask_bits(ts: tuple[int, ...], exact: bool) -> int:
    """The OR of ts when every t is a power of two and exact is off, else 0.

    Then gcd(h, t) and gcd(2h, t) are powers of two too: R, L, Q, sum_r,
    split and the split check read only r's 2-part, and N_t = #[r = t]
    reads its odd part only where its 2-part is t.  So the kernel finds the
    odd part only on the rows where some key's lifted r has its 2-part in
    ts (ts are distinct, so their sum is their OR); the lift of r's 2-part
    has the 2-part of the lift of r.  exact's R_all reads every r.
    """
    return 0 if exact or any(t & (t - 1) for t in ts) else sum(ts)


def _tally_step(
    plans: list[_SweepPlan],
    ts: tuple[int, ...],
    ps: np.ndarray,
    qs: np.ndarray | None,
    base: np.ndarray,
    exact: bool,
    split: bool,
    sums: bool,
) -> list[tuple]:
    """Tallies over the primes ps for every base in plans, each of which
    counts every prime in ps; qs holds the prime columns of p-1 (see
    _factor_shard), or is None when neither the phi-sums nor the kernel
    read every row: then each kernel run factors the rows it tests from the
    base primes base.

    Each column is built once at the widest level it does not depend on.
    Per step: phi(p-1) and 1/(p-1).  Per t: the index of the primes with
    t | p-1, the mask 2t | p-1 within them, phi((p-1)/t), the naive sum
    (float, and exact when asked), pi and pi2.  Per root (_root): one
    kernel run, which finds r's odd part only on the rows where its keys'
    tallies read it (_mask_bits), and per t its Legendre column, split and
    split2.  Per root and key (_SweepPlan): the lifted r (_lift) and, per t,
    N, R, L, Q, sum_r and the weighted phi-sum, one row that the bases with
    that root and key share.  When split, each base's own g is checked
    against its r (_split_check).  Without sums, nothing of phi, 1/(p-1) or
    the phi-sums is built.

    Entry b is (ints, floats, exact_parts, divisor_values, split_checks) for
    plans[b].  ints is int64 [len(ts), len(_COLUMNS)]; floats is [len(ts), 2]
    holding the naive and weighted phi-sums, or None without sums.  When
    exact, exact_parts lists (naive num, naive den, weighted num, weighted
    den) per t and divisor_values is (p-1, p-1 where (disc/p) = 1, r) as
    arrays.  When split, split_checks counts the (p, t) pairs checked; else
    it is 0.
    """
    pm1 = ps - 1
    if sums:
        phi = pm1.copy()  # phi(p-1) from the factor columns
        for q in qs.T:
            phi -= np.where(q > 1, phi // q, 0)
        inv = 1.0 / pm1.astype(np.float64)

    bits = _mask_bits(ts, exact)
    firsts: dict[Rational, dict] = {}  # root -> key -> the first plan with them
    for plan in plans:
        firsts.setdefault(plan.root, {}).setdefault(plan.key, plan)
    # root -> (its (disc/p), its rows); a row is key -> (its first plan, its r, its tallies)
    roots: dict[Rational, tuple] = {}
    for root, keyed in firsts.items():
        decs = [plan.dec for plan in keyed.values()]

        def keep(r2, decs=decs):
            lifted = [_lift(r2, pm1, dec) for dec in decs]
            return np.logical_or.reduce([r & -r & bits != 0 for r in lifted])

        r0, leg = _shard_indexes(root, ps, qs, keep if bits else None, base)
        rows = {}
        for key, plan in keyed.items():
            r = _lift(r0, pm1, plan.dec)
            divisor_values = (pm1, pm1[leg == 1], r) if exact else None
            ints = np.zeros((len(ts), len(_COLUMNS)), dtype=np.int64)
            floats = np.zeros((len(ts), 2)) if sums else None
            rows[key] = plan, r, (ints, floats, [], divisor_values)
        roots[root] = leg, rows
    out = []
    for plan in plans:
        _, r, tallies = roots[plan.root][1][plan.key]
        out.append(tallies + (_split_check(plan.g, ts, ps, r) if split else 0,))

    for i, t in enumerate(ts):
        at = np.flatnonzero(pm1 % t == 0)
        pm1_t = pm1.take(at)
        m2 = pm1_t % (2 * t) == 0
        pi, pi2 = at.size, np.count_nonzero(m2)
        if sums:
            # phi((p-1)/t) = phi(p-1) / (t * prod over q | t, q not dividing (p-1)/t, of (q-1)/q)
            phi_t = phi.take(at)
            for q, _ in arith.factor_int(t):
                lost = (pm1_t // t) % q != 0
                phi_t = np.where(lost, phi_t // (q - 1) * q, phi_t)
            phi_t //= t
            inv_t = inv.take(at)
            naive = float((phi_t * inv_t).sum())
        if exact:
            dens = pm1_t.tolist()
            nacc = arith.ExactSum()
            nacc.add_all(phi_t.tolist(), dens)
        for leg, rows in roots.values():
            leg_t = leg.take(at)
            up = leg_t == 1
            split_t, split2_t = np.count_nonzero(up), np.count_nonzero(up & m2)
            for plan, r, (ints, floats, exact_parts, _) in rows.values():
                pa = plan.params[t]
                r_t = r.take(at)
                w, rw = heuristic.weights(plan.dec, pa, pm1_t, leg_t)
                # sum over d | k of c_d(r) = k [k | r], at k = (h,t) for L and k = (2h,t) for L + Q
                g2t = gcd(2 * plan.dec.h, t)
                l_num = pa.gcd_ht * _multiples(r_t, pa.gcd_ht)
                ints[i] = (
                    pi,
                    pi2,
                    split_t,
                    split2_t,
                    np.count_nonzero(r_t == t),
                    _multiples(r_t, t),
                    rw.sum(),
                    l_num,
                    g2t * _multiples(r_t, g2t) - l_num,
                )
                if sums:
                    floats[i] = naive, pa.gcd_ht * float((w * phi_t * inv_t).sum())
                if exact:
                    qacc = arith.ExactSum()
                    qacc.add_all((w * phi_t).tolist(), dens)
                    exact_parts.append((nacc.num, nacc.den, pa.gcd_ht * qacc.num, qacc.den))
    return out


def _spans(x: int) -> list[tuple[int, int]]:
    """The spans [lo, hi) that tile [3, x + 1), one per step.  A span holds about
    SHARD_PRIMES primes: its width, 2 * floor(SHARD_PRIMES * log(lo + 8 * SHARD_PRIMES) / 2),
    is even, so every lo is odd, and depends on lo alone, so the grid is the
    same for every base and worker count."""
    edges = [3]
    while edges[-1] <= x:
        edges.append(min(edges[-1] + 2 * int(SHARD_PRIMES * log(edges[-1] + 8 * SHARD_PRIMES) / 2), x + 1))
    return list(zip(edges, edges[1:]))


def _step(job: tuple, span: tuple[int, int]) -> tuple[int, list[tuple]]:
    """(ps.size, entries) for the odd primes ps of one span (see _spans): entry b
    is _tally_step's entry for plans[b], over ps less the primes bads[b].  A
    span that holds no prime has no entries.

    job is (base, bads, plans, ts, exact, split, sums): the base primes <=
    sqrt(x), each plan's excluded primes, the plans and sweeps' flags.  job
    and span are all it reads, so it gives the same tallies in process and
    in a worker.  The span's p-1 are factored here only when the phi-sums or
    the kernel read every row (sums, or _mask_bits is 0); otherwise each
    kernel run factors the rows it tests.
    """
    base, bads, plans, ts, exact, split, sums = job
    lo, hi = span
    ps = arith.odd_primes(lo, hi, base)
    if not ps.size:
        return 0, []
    qs = _factor_shard(ps - 1, base) if sums or not _mask_bits(ts, exact) else None
    groups: dict[tuple[int, ...], list[int]] = {}  # excluded primes in the span -> the bases dropping them
    for b, bad in enumerate(bads):
        groups.setdefault(tuple(p for p in bad if lo <= p < hi), []).append(b)
    out = [None] * len(plans)
    for drop, members in groups.items():
        at = np.searchsorted(ps, drop)
        # np.delete copies, and most spans have no excluded prime in them
        own = (np.delete(ps, at), qs if qs is None else np.delete(qs, at, axis=0)) if drop else (ps, qs)
        for b, tally in zip(members, _tally_step([plans[b] for b in members], ts, *own, base, exact, split, sums)):
            out[b] = tally
    return ps.size, out


def _pool(workers: int):
    """A pool of `workers` processes for the steps of a sweep.

    They are forked: a fork starts with numpy already imported, where spawn
    re-imports it in every worker, and a 1e7 count ran slower under spawn
    than under fork; forkserver workers are not children of the caller, so
    their CPU time would not count in its rusage.  A fork is safe while the
    caller runs no other thread, and the pool forks every worker before it
    starts its own manager thread.  The pool's modules are imported here,
    not with this module, since they add about 14 ms to importing
    resindex.cli.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))


def _sum_over_multiples(f: np.ndarray, primes: np.ndarray) -> None:
    """In place, f[..., m] becomes the sum of f[..., j] over the multiples j
    of m, for m = 1..n on a last axis over 0..n; primes holds all primes <= n."""
    n = f.shape[-1] - 1
    for q in primes.tolist():
        qa = q
        while qa <= n:
            # numpy evaluates an overlapping in-place ufunc as if its input were
            # copied first, so a step adds f[m qa] from before it: after the steps
            # q, q^2, ..., q^(2^s), f[m] sums f[m q^j] over j < 2^(s+1).
            f[..., 1 : n // qa + 1] += f[..., qa::qa]
            qa *= qa


def check_args(x: int, ts, *, threads: int = 1, exact: bool = False, sums: bool = True) -> tuple[int, ...]:
    """Refuse, before anything is sieved or any pool exists, what sweeps refuses at these arguments
    (x outside [2, arith.MAX_SIEVE_LIMIT]; exact=True holds three int64 arrays over
    m = 0..x, so x above _MAX_EXACT_X; exact=True without sums, as exact's rationals are
    the phi-sums), and return ts as sweeps reads them: ints, each once, in order.  A
    caller with work of its own before the sweep calls it first."""
    check_range("x", x, 2, arith.MAX_SIEVE_LIMIT)
    if exact and not sums:
        raise DomainError("exact=True needs the phi-sums: sums=False refuses it")
    if exact and x > _MAX_EXACT_X:
        raise CapabilityError(f"exact tallies hold arrays over m = 0..x; x={x} exceeds {_MAX_EXACT_X}")
    check_range("threads", threads, 1, _MAX_THREADS)
    ts = tuple(dict.fromkeys(int(t) for t in ts))
    if any(t < 1 for t in ts):
        raise DomainError("all t must be >= 1")
    # no p <= MAX_SIEVE_LIMIT has t | p-1 for a t of more bits than that
    # limit, and smaller t keep every modulus (2t, lcm(2^(e+1), t)) in int64
    if any(t.bit_length() > arith.MAX_SIEVE_LIMIT.bit_length() for t in ts):
        raise BoundError(f"all t must be below 2^{arith.MAX_SIEVE_LIMIT.bit_length()}")
    return ts


def sweeps(
    gs,
    x: int,
    ts: tuple[int, ...] | list[int],
    *,
    threads: int = 1,
    exact: bool = False,
    split: bool = False,
    sums: bool = True,
) -> list[Sweep]:
    """One streamed pass over the primes p <= x for every base in gs and all t in ts.

    Sieves the base primes <= sqrt(x) (and, for exact=True alone, the
    primes <= x); step k sieves the odd primes of span k of _spans(x),
    the same for every base, and factors their p-1 at most once (see
    sums below).  Each base drops
    its own excluded primes from the span; the bases that drop the same
    ones share a _tally_step, so the work that does not depend on g is
    done once per step and drop set.  Returns one Sweep per entry of gs
    (a repeated base gets the same Sweep).  With threads > 1 the steps run in
    min(threads, usable cores, steps) forked worker processes (_pool).
    Results are independent of ``threads``: steps are merged in span
    order.  Raises LemmaViolation unless H = M exactly and
    0 <= N <= R <= pi(x;t,1) for every base and t.
    split=True also checks the splitting criterion on every counted prime
    and t as each step's r is found, and counts the pairs in split_checks.
    sums=False skips the naive and weighted phi-sums (naive and quad are
    None), and with them phi(p-1): every integer column and check stays,
    and a step factors only the p-1 that its kernel runs test (see _step).
    Refuses what check_args refuses before it sieves.
    """
    ts = check_args(x, ts, threads=threads, exact=exact, sums=sums)
    distinct = list(dict.fromkeys(gs))
    plans = [_plan(g, ts) for g in distinct]
    bads = [sorted(p for p in excluded_primes(g) if 2 < p <= x) for g in distinct]
    job = (arith.primes(isqrt(x)), bads, plans, ts, exact, split, sums)
    spans = _spans(x)
    workers = min(threads, len(os.sched_getaffinity(0)), len(spans))
    if workers > 1:
        with _pool(workers) as pool:
            steps = list(pool.map(partial(_step, job), spans))
    else:
        steps = [_step(job, span) for span in spans]
    odd = sum(n for n, _ in steps)
    tallies = [out for n, out in steps if n]
    primes = arith.primes(x) if exact else None  # for _sum_over_multiples

    done = {}
    for b, plan in enumerate(plans):
        own = [step[b] for step in tallies]
        ints = np.zeros((len(ts), len(_COLUMNS)), dtype=np.int64)
        for tally in own:
            ints += tally[0]
        columns = {name: dict(zip(ts, col)) for name, col in zip(_COLUMNS, ints.T.tolist())}
        # fsum over the steps in span order keeps the floats independent of the worker count
        sw = Sweep(
            g=plan.g,
            x=x,
            ts=ts,
            dec=plan.dec,
            params=plan.params,
            counted=odd - len(bads[b]),
            split_checks=sum(tally[4] for tally in own),
            naive={t: fsum(tally[1][i, 0] for tally in own) for i, t in enumerate(ts)} if sums else None,
            quad={t: fsum(tally[1][i, 1] for tally in own) for i, t in enumerate(ts)} if sums else None,
            **columns,
        )
        if exact:
            sw.naive_exact, sw.quad_exact = {}, {}
            for i, t in enumerate(ts):
                nacc, qacc = arith.ExactSum(), arith.ExactSum()
                for tally in own:
                    nn, nd, qn, qd = tally[2][i]
                    nacc.add(nn, nd)
                    qacc.add(qn, qd)
                sw.naive_exact[t] = nacc.value()
                sw.quad_exact[t] = qacc.value()
            empty = np.zeros(0, dtype=np.int64)
            values = (np.concatenate([empty] + [tally[3][j] for tally in own]) for j in range(3))
            counts = np.stack([np.bincount(v, minlength=x + 1) for v in values])
            _sum_over_multiples(counts, primes)
            sw.pi_all, sw.split_all, sw.R_all = counts
        for t in ts:
            if sw.H(t) != sw.M(t) or not 0 <= sw.N[t] <= sw.R[t] <= sw.pi[t]:
                raise LemmaViolation(
                    f"sweep invariant failed: g={plan.g} t={t} x={x}: H={sw.H(t)} M={sw.M(t)} "
                    f"N={sw.N[t]} R={sw.R[t]} pi={sw.pi[t]}"
                )
        done[plan.g] = sw
    return [done[g] for g in gs]


def sweep(
    g: Rational,
    x: int,
    ts: tuple[int, ...] | list[int],
    *,
    threads: int = 1,
    exact: bool = False,
    split: bool = False,
    sums: bool = True,
) -> Sweep:
    """sweeps for the one base g."""
    return sweeps((g,), x, ts, threads=threads, exact=exact, split=split, sums=sums)[0]


def _pow_ladder(b: np.ndarray, e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """b**e % m elementwise, for int64 arrays with 0 <= b < m < 2**30 (so
    every product is below 2**60).

    Left to right over the base-4 digits of e, with b, b**2 and b**3 at hand:
    each digit after the first costs two squarings and one multiply by the
    digit's power, 3 mulmods per 2 bits where square-and-multiply takes 4.
    """
    digits = (int(e.max(initial=0)).bit_length() + 1) // 2
    if not digits:
        return np.ones_like(m)
    n = m.size
    b2 = b * b % m
    powers = np.concatenate((np.ones_like(m), b, b2, b2 * b % m))  # b**d at d*n + i
    at = np.arange(n)
    acc = powers.take((e >> 2 * digits - 2) * n + at)
    for shift in range(2 * digits - 4, -1, -2):
        acc = acc * acc % m
        acc = acc * acc % m
        acc = acc * powers.take(((e >> shift) & 3) * n + at) % m
    return acc


# Below this bound a numerator or denominator fits int64 with room to spare,
# and numpy's floor % by a positive modulus agrees with Python's.
_NUMPY_RESIDUES = 2**62


def _residues(v: int, ps: np.ndarray) -> np.ndarray:
    """v mod p for every p in ps, by numpy % when |v| < _NUMPY_RESIDUES and by
    Python's % one prime at a time for wider v."""
    if -_NUMPY_RESIDUES < v < _NUMPY_RESIDUES:
        return np.int64(v) % ps
    return np.fromiter(map(v.__mod__, ps.tolist()), dtype=np.int64, count=ps.size)


def _split_check(g: Rational, ts, ps: np.ndarray, r: np.ndarray) -> int:
    """Check t | r <=> (p = 1 mod t and g^((p-1)/t) = 1 mod p) for the
    kernel's residual indexes r of the counted primes ps and every t in ts.

    The algebraic side is its own ladder (_pow_ladder) on g itself, with
    num and den reduced mod p by _residues, never the kernel's table and
    reduction routines in arith, so a fault in those cannot pass on both
    sides.  g = num/den is tested as b^e = 1 mod p with b = num * den^(2t-1),
    which needs no inverse and one full-length ladder: for a unit den,
    den^(2t*e) = den^(2(p-1)) = 1, so b^e = num^e * den^-e.  1/den is
    tested as den, whose order it shares, and a den of 1 runs no ladder for
    den^(2t-1).  t = 1 is checked too, though its algebraic side is
    Fermat's b^(p-1) = 1: at a counted prime dividing num or den, b = 0 for
    every t >= 1, so it still fails there and certifies the sweep's
    excluded primes, and it keeps the count of pairs checked at
    len(ps) * len(ts).  Returns that count; raises LemmaViolation on a
    mismatch.
    """
    num, den = (g.denominator, 1) if g.numerator == 1 else (g.numerator, g.denominator)
    nums = _residues(num, ps)
    dens = _residues(den, ps) if den != 1 else None
    for t in ts:
        # only p = 1 mod t can pass; the others keep algebraic False
        ones = np.flatnonzero((ps - 1) % t == 0)
        m = ps[ones]
        b = nums[ones]
        if dens is not None:
            b = b * _pow_ladder(dens[ones], np.full(m.size, 2 * t - 1), m) % m
        algebraic = np.zeros(ps.size, dtype=bool)
        algebraic[ones] = _pow_ladder(b, (m - 1) // t, m) == 1
        divides = r % t == 0
        bad = np.flatnonzero(algebraic != divides)
        if bad.size:
            i = int(bad[0])
            raise LemmaViolation(
                f"splitting criterion failed: g={g} p={ps[i]} t={t}: "
                f"t|r is {bool(divides[i])}, algebraic test is {bool(algebraic[i])}"
            )
    return ps.size * len(ts)
