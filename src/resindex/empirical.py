"""Exact counting of residual indices over primes.

For a base g and every counted prime p <= x (odd, ord_p(g) = 0) the engine
computes the residual index r_g(p) = (p-1) / ord(g mod p) once and folds it
into all requested per-t tallies in a single streamed pass:

    N_{g,t}(x)   primes with r_g(p) = t
    R_{g,t}(x)   primes with t | r_g(p)
    pi(x;t,1)    counted primes p = 1 mod t
    P_t(x)       counted primes p = 1 mod t with (disc/p) = 1
    L, Q         first/second-order character sums via Ramanujan sums
    sum r(g,t;p), naive and weighted phi-sums (floats; exact=True adds
    exact rationals and the divisor tallies pi_all, split_all, R_all: int64
    arrays over m = 0..x counting the primes with m | p-1, those that also
    have (disc/p) = 1, and those with m | r_g(p))

Primes are processed in fixed-size shards of each base's counted primes.
Each shard yields one int64 array of its integer tallies (a row per t) and
one float array of its phi-sums; the arrays are summed, and the floats
fsum'med, in shard order, so output is identical for any worker-thread
count; no per-prime records are retained beyond the shard being processed.
sweeps serves several bases in one pass: step k tallies the k-th shard of
every base, and since those shards differ only by the bases' few excluded
primes, the columns that do not depend on g (the prime factors of p-1,
phi(p-1), 1/(p-1) and, per t, the masks t | p-1, 2t | p-1 and
phi((p-1)/t)) are built once per step; sweep is sweeps for one base.
Every sweep ends by checking H = M exactly and 0 <= N <= R <= pi(x;t,1)
for each base and t.  One vectorized kernel, _shard_indexes, finds r for
a whole shard from the prime factors of p-1 (_factor_shard), reading
every power of its order loop off one table of the base mod p
(arith.power_table).  It runs once per root and step: g = sign * g0^h has
the root g0 or 1/g0 (_root), shared by all powers, inverses and negatives
of g0, and _lift derives r_g(p) from the root's r in closed form.  The
same run gives the Legendre symbol (g0/p) = (disc/p) of every such base,
from the parity of the root's r.  The sweep, residual_index,
verify_split_criterion and the weight oracle all reach r and (disc/p)
that way.  The splitting criterion t | r_g(p) <=> (p = 1 mod t and
g^((p-1)/t) = 1 mod p) is checked per shard by _split_check, on built-in
pow only: inside the sweep's pass on the r it has just found when
split=True (as `count` asks), or standalone by verify_split_criterion.
count_progression and count_split_quadratic count without the kernel, as
references for the sweep's pi and P_t columns.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import fsum, gcd, isqrt, lcm

import numpy as np

from . import arith, heuristic
from .decompose import GDecomposition, HeuristicParams, Rational, decompose_g, derive_params, excluded_primes
from .errors import CapabilityError, DomainError, LemmaViolation

SHARD_PRIMES = 8192

# omega(p-1) <= 9 for p <= MAX_SIEVE_LIMIT = 1e9, since the product of the
# first ten primes, 6469693230, exceeds it; ten columns always suffice.
_FACTOR_COLUMNS = 10


@dataclass(frozen=True)
class ResidualIndexOutcome:
    """Result of reducing g mod one odd prime."""

    p: int
    status: str  # "counted" or "excluded"
    index: int | None = None


def residual_index(g: Rational, p: int, table: arith.PrimeTable) -> ResidualIndexOutcome:
    """Index of the subgroup generated by g mod p inside (Z/pZ)*.

    Excluded (p = 2 or p divides numerator or denominator of g) primes get
    status 'excluded'; otherwise index * ord(g mod p) = p - 1.
    """
    if p > table.limit:
        raise CapabilityError(f"p={p} exceeds table limit {table.limit}")
    if not arith.is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p == 2 or (abs(g.numerator) * g.denominator) % p == 0:
        return ResidualIndexOutcome(p=p, status="excluded")
    # +-1 has no decomposition; as +-1^1 its root 1 has r = p-1
    dec = decompose_g(g) if abs(g) != 1 else GDecomposition(sign=int(g), g0=Fraction(1), h=1, e=0, disc=1)
    ps = np.array([p], dtype=np.int64)
    r = _indexes(dec, ps, _factor_shard(ps - 1, table.primes_upto(isqrt(p))))
    return ResidualIndexOutcome(p=p, status="counted", index=int(r[0]))


# ---------------------------------------------------------------------------
# the shard kernel


def _shards(odd: np.ndarray, x: int, g: Rational | None) -> list[tuple[int, int, np.ndarray]]:
    """The counted primes of g, cut into SHARD_PRIMES-sized shards in ascending order.

    odd holds the odd primes <= x.  Shard (lo, hi, drops) is odd[lo:hi] less
    the positions in drops, those of the primes dividing g's numerator or
    denominator (none when g is None).
    """
    bad = [p for p in sorted(excluded_primes(g)) if 2 < p <= x] if g is not None else []
    drops = np.searchsorted(odd, bad)
    starts = np.arange(0, odd.size - drops.size, SHARD_PRIMES)
    # counted prime number c (from 0) sits at position c plus the number of
    # excluded primes with at most c counted primes before them
    starts += np.searchsorted(drops - np.arange(drops.size), starts, side="right")
    cuts = [*starts.tolist(), odd.size]
    return [(lo, hi, drops[(lo <= drops) & (drops < hi)]) for lo, hi in zip(cuts, cuts[1:])]


def _counted_shards(table: arith.PrimeTable, x: int, g: Rational | None):
    """Odd primes p <= x, less those dividing g's numerator or denominator
    when g is given, as SHARD_PRIMES-sized arrays in ascending order."""
    odd = table.primes_upto(x)[1:]
    for lo, hi, drops in _shards(odd, x, g):
        yield np.delete(odd[lo:hi], drops - lo)


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
    (p-1)/2.  The first test, q = 2 at order p-1, is Euler's criterion
    g^((p-1)/2) = (g/p): it passes exactly where r comes out even, so the
    symbol is read off r's parity.  For a root g0 = a/b, (g0/p) = (disc/p) at
    every counted p, since ab is disc or disc/4 times a square prime to p.
    """
    pm1 = ps - 1
    a = arith.reduce_mod_vec(g.numerator, ps)
    if g.denominator != 1:
        a = a * arith.pow_mod_vec(arith.reduce_mod_vec(g.denominator, ps), ps - 2, ps) % ps
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


def _indexes(dec: GDecomposition, ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """r_g(p) for the decomposed base g: the kernel on its root, then _lift."""
    return _lift(_shard_indexes(_root(dec), ps, qs)[0], ps - 1, dec)


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
        return Fraction(self.L_num[t], t)

    def Q(self, t: int) -> Fraction:
        return Fraction(self.Q_num[t], t)

    def M(self, t: int) -> Fraction:
        return heuristic.m_from_counts(
            self.dec, self.params[t], self.pi[t], self.pi2[t], self.split[t], self.split2[t]
        )

    def H(self, t: int) -> Fraction:
        return Fraction(self.sum_r[t], self.params[t].t_h)


@dataclass(frozen=True)
class _SweepPlan:
    """One base's share of a sweep: its parameters per t and the lookup
    tables of its L and Q columns."""

    g: Rational
    dec: GDecomposition
    params: dict[int, HeuristicParams]
    lq_divs: np.ndarray
    lq: dict[int, np.ndarray]


def _plan(g: Rational, ts: tuple[int, ...]) -> _SweepPlan:
    dec = decompose_g(g)
    params = {t: derive_params(dec, t) for t in ts}
    # L sums c_d(r) over d | (h,t), Q over the d | (2h,t) not dividing h.  Every
    # such d divides D, the lcm over t of (2h,t), so c_d(r) = c_d(gcd(r, D)):
    # lq[t] holds both sums at each divisor of D (lq_divs, ascending), and a
    # base looks gcd(r, D) up in lq_divs once per shard for all t.
    lq_divs = np.array(arith.divisors(arith.factor_int(lcm(*(gcd(2 * dec.h, t) for t in ts)))))
    lq: dict[int, np.ndarray] = {}
    for t in ts:
        lq[t] = np.zeros((2, lq_divs.size), dtype=np.int64)
        for d in arith.divisors(arith.factor_int(gcd(2 * dec.h, t))):
            lq[t][int(dec.h % d != 0)] += arith.ramanujan_table(d)[np.gcd(lq_divs, d)]
    return _SweepPlan(g=g, dec=dec, params=params, lq_divs=lq_divs, lq=lq)


def _tally_step(
    plans: list[_SweepPlan],
    ts: tuple[int, ...],
    shards: list[tuple | None],
    odd: np.ndarray,
    base: np.ndarray,
    exact: bool,
    split: bool,
) -> list[tuple | None]:
    """Tallies of one shard of every base: shards[b] is base b's shard (see
    _shards), or None when base b has no shard in this step.

    The columns that do not depend on g -- the prime factors of p-1,
    phi(p-1), 1/(p-1) and, one t at a time, the primes with t | p-1 and
    2t | p-1 and phi((p-1)/t) -- are built once, over the window of odd
    covering every base's shard.  Each base then reads its own primes from
    them, so every sum runs over the same values in the same order as for a
    base swept alone.  The kernel runs once per root (_root): bases with one
    root exclude the same primes and have the same (disc/p), so they share
    its shard, r and Legendre column, and each lifts its own r from it
    (_lift).

    Entry b is None or (ints, floats, exact_parts, divisor_values,
    split_checks).  ints is int64 [len(ts), len(_COLUMNS)]; floats is
    [len(ts), 2] holding the naive and weighted phi-sums.  When exact,
    exact_parts lists (naive num, naive den, weighted num, weighted den) per
    t and divisor_values is (p-1, p-1 where (disc/p) = 1, r) as arrays.
    When split, each base's r is checked against the splitting criterion
    (_split_check) and split_checks counts the (p, t) pairs; else it is 0.
    """
    live = [(b, shard) for b, shard in enumerate(shards) if shard is not None]
    lo = min(shard[0] for _, shard in live)
    hi = max(shard[1] for _, shard in live)
    ps = odd[lo:hi]
    pm1 = ps - 1
    qs = _factor_shard(pm1, base)
    phi = pm1.copy()  # phi(p-1) from the factor columns
    for j in range(_FACTOR_COLUMNS):
        q = qs[:, j]
        phi -= np.where(q > 1, phi // q, 0)
    inv = 1.0 / pm1.astype(np.float64)

    out: list[tuple | None] = [None] * len(plans)
    mine = []
    roots: dict[Rational, tuple] = {}  # root -> (keep, its r, its (disc/p)): one kernel run per root
    for b, (first, last, drops) in live:
        plan = plans[b]
        root = _root(plan.dec)
        if root not in roots:
            # base b's primes: a slice of the window, or an index array where it
            # excludes some; bases with one root exclude the same primes
            keep = slice(first - lo, last - lo)
            if drops.size:
                keep = np.delete(np.arange(first, last), drops - first) - lo
            roots[root] = keep, *_shard_indexes(root, ps[keep], qs[keep])
        keep, r0, leg = roots[root]
        r = _lift(r0, pm1[keep], plan.dec)
        checks = _split_check(plan.g, ts, ps[keep], r) if split else 0
        divisor_values = (pm1[keep], pm1[keep][leg == 1], r) if exact else None
        ints = np.zeros((len(ts), len(_COLUMNS)), dtype=np.int64)
        out[b] = ints, np.zeros((len(ts), 2)), [], divisor_values, checks
        mine.append((b, keep, r, leg, np.searchsorted(plan.lq_divs, np.gcd(r, plan.lq_divs[-1]))))

    for i, t in enumerate(ts):
        mask = pm1 % t == 0
        idx = np.flatnonzero(mask)
        pm1_t = pm1[idx]
        m2 = pm1_t % (2 * t) == 0
        # phi((p-1)/t) = phi(p-1) / (t * prod over q | t, q not dividing (p-1)/t, of (q-1)/q)
        phi_t = phi[idx]
        for q, _ in arith.factor_int(t).factors:
            lost = (pm1_t // t) % q != 0
            phi_t = np.where(lost, phi_t // (q - 1) * q, phi_t)
        phi_t //= t
        inv_t = inv[idx]
        naive = phi_t * inv_t
        for b, keep, r, leg, r_div in mine:
            plan, pa = plans[b], plans[b].params[t]
            if isinstance(keep, slice):
                sub = slice(*np.searchsorted(idx, (keep.start, keep.stop)).tolist())
            else:
                sub = np.flatnonzero(np.isin(idx, keep))
            pm1_b, phi_b, m2_b = pm1_t[sub], phi_t[sub], m2[sub]
            mask_b = mask[keep]
            r_b, leg_b = r[mask_b], leg[mask_b]
            w = heuristic.weights_w_vec(plan.dec, pa, pm1_b, leg_b)
            l_num, q_num = plan.lq[t][:, r_div[mask_b]].sum(axis=1)
            ints, floats, exact_parts = out[b][:3]
            ints[i] = (
                pm1_b.size,
                m2_b.sum(),
                (leg_b == 1).sum(),
                (leg_b[m2_b] == 1).sum(),
                (r_b == t).sum(),
                (r_b % t == 0).sum(),
                heuristic.weights_r_vec(plan.dec, pa, pm1_b, leg_b).sum(),
                l_num,
                q_num,
            )
            floats[i] = float(naive[sub].sum()), pa.gcd_ht * float((w * phi_b * inv_t[sub]).sum())
            if exact:
                nacc, qacc = arith.ExactSum(), arith.ExactSum()
                dens = pm1_b.tolist()
                nacc.add_all(phi_b.tolist(), dens)
                qacc.add_all((w * phi_b).tolist(), dens)
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


def sweeps(
    gs,
    table: arith.PrimeTable,
    x: int,
    ts: tuple[int, ...] | list[int],
    *,
    threads: int = 1,
    exact: bool = False,
    split: bool = False,
) -> list[Sweep]:
    """One streamed pass over the primes p <= x for every base in gs and all t in ts.

    Step k tallies the k-th shard of every base; the shards of one step
    differ only by the bases' few excluded primes, so the work that does not
    depend on g is done once per step.  Returns one Sweep per entry of gs
    (a repeated base gets the same Sweep).  Results are independent of
    ``threads``: steps are merged in shard order.  Raises LemmaViolation
    unless H = M exactly and 0 <= N <= R <= pi(x;t,1) for every base and t.
    split=True also checks the splitting criterion on every counted prime
    and t as each shard's r is found, and counts the pairs in split_checks.
    """
    if x < 2:
        raise DomainError(f"x must be >= 2, got {x}")
    if x > table.limit:
        raise CapabilityError(f"x={x} exceeds table limit {table.limit}")
    if threads < 1:
        raise DomainError(f"threads must be >= 1, got {threads}")
    ts = tuple(dict.fromkeys(int(t) for t in ts))
    if any(t < 1 for t in ts):
        raise DomainError("all t must be >= 1")
    distinct = list(dict.fromkeys(gs))
    plans = [_plan(g, ts) for g in distinct]
    odd = table.primes_upto(x)[1:]
    shards = [_shards(odd, x, g) for g in distinct]
    steps = max(map(len, shards), default=0)
    base = table.primes_upto(isqrt(x))

    def step(k: int) -> list[tuple | None]:
        return _tally_step(plans, ts, [s[k] if k < len(s) else None for s in shards], odd, base, exact, split)

    if threads > 1 and steps > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tallies = list(pool.map(step, range(steps)))
    else:
        tallies = [step(k) for k in range(steps)]

    done = {}
    for b, (plan, cuts) in enumerate(zip(plans, shards)):
        own = [step[b] for step in tallies if step[b] is not None]
        ints = np.zeros((len(ts), len(_COLUMNS)), dtype=np.int64)
        for tally in own:
            ints += tally[0]
        columns = {name: dict(zip(ts, col)) for name, col in zip(_COLUMNS, ints.T.tolist())}
        # fsum over the shards in shard order keeps the floats thread-independent
        sw = Sweep(
            g=plan.g,
            x=x,
            ts=ts,
            dec=plan.dec,
            params=plan.params,
            counted=sum(hi - lo - drops.size for lo, hi, drops in cuts),
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
            _sum_over_multiples(counts, table.primes_upto(x))
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
    table: arith.PrimeTable,
    x: int,
    ts: tuple[int, ...] | list[int],
    *,
    threads: int = 1,
    exact: bool = False,
    split: bool = False,
) -> Sweep:
    """sweeps for the one base g."""
    return sweeps((g,), table, x, ts, threads=threads, exact=exact, split=split)[0]


# ---------------------------------------------------------------------------
# reference counters and the splitting-criterion check


def count_progression(x: int, t: int, table: arith.PrimeTable, g: Rational | None = None) -> int:
    """pi(x;t,1): odd primes p <= x with p = 1 mod t (counted ones when g given)."""
    if t < 1:
        raise DomainError("t must be >= 1")
    return sum(int(((ps - 1) % t == 0).sum()) for ps in _counted_shards(table, x, g))


def count_split_quadratic(
    x: int, t: int, disc: int, table: arith.PrimeTable, g: Rational | None = None
) -> int:
    """Primes p <= x with p = 1 mod t and (disc/p) = 1 (counted ones when g given)."""
    if t < 1:
        raise DomainError("t must be >= 1")
    return sum(
        1
        for ps in _counted_shards(table, x, g)
        for p in ps[(ps - 1) % t == 0].tolist()
        if arith.jacobi(disc, p) == 1
    )


def _split_check(g: Rational, ts, ps: np.ndarray, r: np.ndarray) -> int:
    """Check t | r <=> (p = 1 mod t and g^((p-1)/t) = 1 mod p) for the
    kernel's residual indexes r of the counted primes ps and every t in ts.

    The algebraic side uses built-in pow only, never the kernel's vector
    routines, so a fault in those cannot pass on both sides.  Returns the
    number of (p, t) pairs checked; raises LemmaViolation on a mismatch.
    """
    num, den = g.numerator, g.denominator
    primes = ps.tolist()
    # g mod p, once per shard
    residues = [num % p for p in primes] if den == 1 else [num * pow(den, -1, p) % p for p in primes]
    for t in ts:
        # only p = 1 mod t can pass; the others keep algebraic False
        ones = (ps - 1) % t == 0
        sel = ones.tolist()
        exps = ((ps[ones] - 1) // t).tolist()
        powers = map(pow, compress(residues, sel), exps, compress(primes, sel))
        algebraic = np.zeros(ps.size, dtype=bool)
        algebraic[ones] = np.fromiter(powers, dtype=np.int64, count=len(exps)) == 1
        divides = r % t == 0
        bad = np.flatnonzero(algebraic != divides)
        if bad.size:
            i = int(bad[0])
            raise LemmaViolation(
                f"splitting criterion failed: g={g} p={primes[i]} t={t}: "
                f"t|r is {bool(divides[i])}, algebraic test is {bool(algebraic[i])}"
            )
    return len(primes) * len(ts)


def verify_split_criterion(g: Rational, ts, x: int, table: arith.PrimeTable) -> int:
    """Assert t | r_g(p) <=> (p = 1 mod t and g^((p-1)/t) = 1 mod p).

    Checks every counted prime p <= x against every t in ts; returns the
    number of (p, t) pairs checked, raises LemmaViolation on any mismatch.
    """
    base = table.primes_upto(isqrt(x))
    dec = decompose_g(g)
    return sum(
        _split_check(g, ts, ps, _indexes(dec, ps, _factor_shard(ps - 1, base)))
        for ps in _counted_shards(table, x, g)
    )
