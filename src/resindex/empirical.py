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

A sweep needs only g, x and t: it sieves the primes <= x once, and step
k takes the chunk odd[k*SHARD_PRIMES : (k+1)*SHARD_PRIMES] of the odd
primes <= x, the same for every base, and factors its p-1 once.
Each base drops its own excluded primes from the chunk, and the bases
that drop the same ones share one _tally_step.  It builds the index of
the primes with t | p-1, phi((p-1)/t), pi and pi2 once per t; the
Legendre column, split and split2 once per t and root; and N, R, L, Q,
sum_r and the weighted phi-sum once per t and (root, sign, h), which g
and 1/g share.  sweeps serves several bases in one pass and sweep is
sweeps for one base.  A step yields, per base, one int64 array of its
integer tallies (a row per t) and one float array of its phi-sums; the
arrays are summed, and the floats fsum'med, in chunk order, so output is
identical for any worker-thread count; no per-prime records are retained
beyond the step being processed.
Every sweep ends by checking H = M exactly and 0 <= N <= R <= pi(x;t,1)
for each base and t.  One vectorized kernel, _shard_indexes, finds r for
a whole shard from the prime factors of p-1 (_factor_shard), reading
every power of its order loop off one table of the base mod p
(arith.power_table).  It runs once per root and step: g = sign * g0^h has
the root g0 or 1/g0 (_root), shared by all powers, inverses and negatives
of g0, and _lift derives r_g(p) from the root's r in closed form.  The
same run gives the Legendre symbol (g0/p) = (disc/p) of every such base,
from the parity of the root's r.  The sweep and the weight oracle both
reach r and (disc/p) that way.  With split=True (as `count` asks) the
sweep also checks the splitting criterion t | r_g(p) <=> (p = 1 mod t and
g^((p-1)/t) = 1 mod p) on each shard's r as soon as it is found
(_split_check).  Its algebraic side is a whole-shard square-and-multiply
ladder of its own (_pow_ladder), kept apart from arith's power tables so
that a fault in those cannot pass on both sides.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import fsum, gcd, isqrt

import numpy as np

from . import arith, heuristic
from .decompose import GDecomposition, HeuristicParams, Rational, decompose_g, derive_params, excluded_primes
from .errors import BoundError, CapabilityError, DomainError, LemmaViolation, check_range

SHARD_PRIMES = 8192

# exact=True holds three int64 arrays over m = 0..x and their bincount
# temporaries: about 0.5 GB at x = 1e7, more than fits at larger x.
_MAX_EXACT_X = 10**7

# A pool starts min(threads, steps) OS threads, each holding one step's
# shard arrays, and x = 1e9 has about 6200 steps.
_MAX_THREADS = 64

# omega(p-1) <= 9 for p <= MAX_SIEVE_LIMIT = 1e9, since the product of the
# first ten primes, 6469693230, exceeds it; ten columns always suffice.
_FACTOR_COLUMNS = 10


# ---------------------------------------------------------------------------
# the shard kernel


def _factor_shard(pm1: np.ndarray, base: np.ndarray) -> np.ndarray:
    """Distinct prime factors of each value in the ascending array pm1.

    Sieves the range [pm1[0], pm1[-1]] by every prime power q^k of the base
    primes, which must include all primes <= sqrt(pm1[-1]); what is left of
    a value after that is 1 or a single prime.  Row i of the returned
    [len(pm1), _FACTOR_COLUMNS] array lists the distinct primes of pm1[i]
    in ascending order, padded with 1.
    """
    n = pm1.size
    lo, hi = int(pm1[0]), int(pm1[-1])
    slot = np.full(hi - lo + 1, -1, dtype=np.int64)
    slot[pm1 - lo] = np.arange(n)
    qs = np.ones((n, _FACTOR_COLUMNS), dtype=np.int64)
    filled = np.zeros(n, dtype=np.int64)
    rest = pm1.copy()
    for q in base.tolist():
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
    big = np.flatnonzero(rest > 1)
    qs[big, filled[big]] = rest[big]
    return qs


def _shard_indexes(g: Rational, ps: np.ndarray, qs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual indexes r_g(p) and Legendre symbols (g/p) for an array of counted primes.

    The one order loop; every caller runs it on a base's root (_root) and
    lifts r (_lift).  qs holds the prime columns of p-1 (see _factor_shard).
    ord(g mod p) starts at p-1 and loses each prime factor q while
    g^(order/q) = 1 mod p.  Every one of those powers is read off a single
    power table of g mod p (arith.power_table), since no exponent exceeds
    (p-1)/2.  For g = a/b that table is of a * b^-1 mod p, with the inverse
    from built-in pow(b, -1, p) per prime: ps are counted primes, so b is a
    unit mod p.  The first test, q = 2 at order p-1, is Euler's criterion
    g^((p-1)/2) = (g/p): it passes exactly where r comes out even, so the
    symbol is read off r's parity.  For a root g0 = a/b, (g0/p) = (disc/p) at
    every counted p, since ab is disc or disc/4 times a square prime to p.
    """
    pm1 = ps - 1
    a = arith.reduce_mod_vec(g.numerator, ps)
    if g.denominator != 1:
        a = a * np.fromiter(map(pow, repeat(g.denominator), repeat(-1), ps.tolist()), np.int64, ps.size) % ps
    tab = arith.power_table(a, ps, int(pm1.max(initial=0)) >> 1)
    order = pm1.copy()
    for j in range(_FACTOR_COLUMNS):
        live = np.flatnonzero(qs[:, j] > 1)
        if not live.size:
            break
        while live.size:
            q = qs[live, j]
            live = live[arith.table_pow(tab, live, order[live] // q, ps[live]) == 1]
            order[live] //= qs[live, j]
            live = live[order[live] % qs[live, j] == 0]
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
    naive: dict[int, float]
    quad: dict[int, float]
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
    both weight case tables read only sign, h and e = v2(h), so g and 1/g,
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


def _tally_step(
    plans: list[_SweepPlan], ts: tuple[int, ...], ps: np.ndarray, qs: np.ndarray, exact: bool, split: bool
) -> list[tuple]:
    """Tallies over the primes ps for every base in plans, each of which
    counts every prime in ps; qs holds the prime columns of p-1 (see
    _factor_shard).

    Each column is built once at the widest level it does not depend on.
    Per step: phi(p-1) and 1/(p-1).  Per t: the index of the primes with
    t | p-1, the mask 2t | p-1 within them, phi((p-1)/t), the naive sum
    (float, and exact when asked), pi and pi2.  Per root (_root): one
    kernel run, and per t its Legendre column, split and split2.  Per root
    and key (_SweepPlan): the lifted r (_lift) and, per t, N, R, L, Q,
    sum_r and the weighted phi-sum, one row that the bases with that root
    and key share.  When split, each base's own g is checked against its r
    (_split_check).

    Entry b is (ints, floats, exact_parts, divisor_values, split_checks) for
    plans[b].  ints is int64 [len(ts), len(_COLUMNS)]; floats is [len(ts), 2]
    holding the naive and weighted phi-sums.  When exact, exact_parts lists
    (naive num, naive den, weighted num, weighted den) per t and
    divisor_values is (p-1, p-1 where (disc/p) = 1, r) as arrays.  When
    split, split_checks counts the (p, t) pairs checked; else it is 0.
    """
    pm1 = ps - 1
    phi = pm1.copy()  # phi(p-1) from the factor columns
    for j in range(_FACTOR_COLUMNS):
        q = qs[:, j]
        phi -= np.where(q > 1, phi // q, 0)
    inv = 1.0 / pm1.astype(np.float64)

    # root -> (its r, its (disc/p), its rows); a row is key -> (its first plan, its r, its tallies)
    roots: dict[Rational, tuple] = {}
    out = []
    for plan in plans:
        kernel = roots.get(plan.root)
        if kernel is None:
            kernel = roots[plan.root] = *_shard_indexes(plan.root, ps, qs), {}
        r0, leg, rows = kernel
        row = rows.get(plan.key)
        if row is None:
            r = _lift(r0, pm1, plan.dec)
            divisor_values = (pm1, pm1[leg == 1], r) if exact else None
            ints = np.zeros((len(ts), len(_COLUMNS)), dtype=np.int64)
            row = rows[plan.key] = plan, r, (ints, np.zeros((len(ts), 2)), [], divisor_values)
        _, r, tallies = row
        out.append(tallies + (_split_check(plan.g, ts, ps, r) if split else 0,))

    for i, t in enumerate(ts):
        at = np.flatnonzero(pm1 % t == 0)
        pm1_t = pm1.take(at)
        m2 = pm1_t % (2 * t) == 0
        pi, pi2 = at.size, np.count_nonzero(m2)
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
        for _, leg, rows in roots.values():
            leg_t = leg.take(at)
            up = leg_t == 1
            split_t, split2_t = np.count_nonzero(up), np.count_nonzero(up & m2)
            for plan, r, (ints, floats, exact_parts, _) in rows.values():
                pa = plan.params[t]
                r_t = r.take(at)
                w = heuristic.weights_w_vec(plan.dec, pa, pm1_t, leg_t)
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
                    heuristic.weights_r_vec(plan.dec, pa, pm1_t, leg_t).sum(),
                    l_num,
                    g2t * _multiples(r_t, g2t) - l_num,
                )
                floats[i] = naive, pa.gcd_ht * float((w * phi_t * inv_t).sum())
                if exact:
                    qacc = arith.ExactSum()
                    qacc.add_all((w * phi_t).tolist(), dens)
                    exact_parts.append((nacc.num, nacc.den, pa.gcd_ht * qacc.num, qacc.den))
    return out


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


def check_args(x: int, ts, *, threads: int = 1, exact: bool = False) -> tuple[int, ...]:
    """Refuse, before any prime table or pool exists, what sweeps refuses at these arguments
    (x outside [2, arith.MAX_SIEVE_LIMIT]; exact=True holds three int64 arrays over
    m = 0..x, so x above _MAX_EXACT_X), and return ts as sweeps reads them: ints, each
    once, in order.  A caller with work of its own before the sweep calls it first."""
    check_range("x", x, 2, arith.MAX_SIEVE_LIMIT)
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
) -> list[Sweep]:
    """One streamed pass over the primes p <= x for every base in gs and all t in ts.

    Sieves the primes <= x once; step k cuts the odd ones at
    odd[k*SHARD_PRIMES : (k+1)*SHARD_PRIMES], the same chunk for every
    base, and factors its p-1 once.  Each base drops its own excluded
    primes from the chunk; the bases that drop the same ones share a
    _tally_step, so the work that does not depend on g is done once per
    step and drop set.  Returns one Sweep per entry of gs (a repeated base
    gets the same Sweep).  Results are independent of
    ``threads``: steps are merged in chunk order.  Raises LemmaViolation
    unless H = M exactly and 0 <= N <= R <= pi(x;t,1) for every base and t.
    split=True also checks the splitting criterion on every counted prime
    and t as each step's r is found, and counts the pairs in split_checks.
    Refuses what check_args refuses before it sieves.
    """
    ts = check_args(x, ts, threads=threads, exact=exact)
    distinct = list(dict.fromkeys(gs))
    plans = [_plan(g, ts) for g in distinct]
    table = arith.build_prime_table(x)
    odd = table.primes[1:]
    bads = [sorted(p for p in excluded_primes(g) if 2 < p <= x) for g in distinct]
    starts = range(0, odd.size, SHARD_PRIMES)
    base = table.primes_upto(isqrt(x))

    def step(start: int) -> list[tuple]:
        ps = odd[start : start + SHARD_PRIMES]
        qs = _factor_shard(ps - 1, base)
        first, last = int(ps[0]), int(ps[-1])
        groups: dict[tuple[int, ...], list[int]] = {}  # excluded primes in the chunk -> the bases dropping them
        for b, bad in enumerate(bads):
            groups.setdefault(tuple(p for p in bad if first <= p <= last), []).append(b)
        out = [None] * len(plans)
        for drop, members in groups.items():
            at = np.searchsorted(ps, drop)
            # np.delete copies, and most chunks have no excluded prime in them
            own = (np.delete(ps, at), np.delete(qs, at, axis=0)) if drop else (ps, qs)
            for b, tally in zip(members, _tally_step([plans[b] for b in members], ts, *own, exact, split)):
                out[b] = tally
        return out

    if threads > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tallies = list(pool.map(step, starts))
    else:
        tallies = [step(start) for start in starts]

    done = {}
    for b, plan in enumerate(plans):
        own = [step[b] for step in tallies]
        ints = np.zeros((len(ts), len(_COLUMNS)), dtype=np.int64)
        for tally in own:
            ints += tally[0]
        columns = {name: dict(zip(ts, col)) for name, col in zip(_COLUMNS, ints.T.tolist())}
        # fsum over the steps in chunk order keeps the floats thread-independent
        sw = Sweep(
            g=plan.g,
            x=x,
            ts=ts,
            dec=plan.dec,
            params=plan.params,
            counted=odd.size - len(bads[b]),
            split_checks=sum(tally[4] for tally in own),
            naive={t: fsum(tally[1][i, 0] for tally in own) for i, t in enumerate(ts)},
            quad={t: fsum(tally[1][i, 1] for tally in own) for i, t in enumerate(ts)},
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
            _sum_over_multiples(counts, table.primes)
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
) -> Sweep:
    """sweeps for the one base g."""
    return sweeps((g,), x, ts, threads=threads, exact=exact, split=split)[0]


def _pow_ladder(b: np.ndarray, e: np.ndarray, m: np.ndarray) -> np.ndarray:
    """b**e % m elementwise by right-to-left square-and-multiply, for int64
    arrays with 0 <= b < m < 2**30 (so every product is below 2**60)."""
    acc = np.ones_like(m)
    for _ in range(int(e.max(initial=0)).bit_length()):
        acc = np.where(e & 1, acc * b % m, acc)
        e = e >> 1
        b = b * b % m
    return acc


def _split_check(g: Rational, ts, ps: np.ndarray, r: np.ndarray) -> int:
    """Check t | r <=> (p = 1 mod t and g^((p-1)/t) = 1 mod p) for the
    kernel's residual indexes r of the counted primes ps and every t in ts.

    The algebraic side is its own square-and-multiply ladder (_pow_ladder)
    on g itself, never the kernel's table routines in arith, so a fault in
    those cannot pass on both sides.  g = num/den is tested as
    num^e = den^e mod p, which needs no inverse.  Returns the number of
    (p, t) pairs checked; raises LemmaViolation on a mismatch.
    """
    num, den = g.numerator, g.denominator
    primes = ps.tolist()
    # numerator and denominator mod p, once per shard; Python % keeps any width exact
    nums = np.fromiter(map(num.__mod__, primes), dtype=np.int64, count=len(primes))
    dens = np.fromiter(map(den.__mod__, primes), dtype=np.int64, count=len(primes)) if den != 1 else None
    for t in ts:
        # only p = 1 mod t can pass; the others keep algebraic False
        ones = np.flatnonzero((ps - 1) % t == 0)
        m = ps[ones]
        e = (m - 1) // t
        rhs = 1 if dens is None else _pow_ladder(dens[ones], e, m)
        algebraic = np.zeros(ps.size, dtype=bool)
        algebraic[ones] = _pow_ladder(nums[ones], e, m) == rhs
        divides = r % t == 0
        bad = np.flatnonzero(algebraic != divides)
        if bad.size:
            i = int(bad[0])
            raise LemmaViolation(
                f"splitting criterion failed: g={g} p={primes[i]} t={t}: "
                f"t|r is {bool(divides[i])}, algebraic test is {bool(algebraic[i])}"
            )
    return len(primes) * len(ts)
