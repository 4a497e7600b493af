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

Primes are processed in fixed-size shards.  Each shard yields one int64
array of its integer tallies (a row per t) and one float array of its
phi-sums; the arrays are summed, and the floats fsum'med, in shard order,
so output is identical for any worker-thread count; no per-prime records
are retained beyond the shard being processed.  Every sweep ends by
checking H = M exactly and 0 <= N <= R <= pi(x;t,1) for each t.  One
vectorized kernel, _shard_indexes, factors p-1 and finds r_g(p) for a whole
shard; the sweep, the splitting-criterion check and residual_index all read
r from it.  count_progression and count_split_quadratic count without the
kernel, as references for the sweep's pi and P_t columns.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import fsum, gcd, isqrt

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


def _g_mod_p(g: Rational, p: int) -> int:
    a = g.numerator % p
    if g.denominator != 1:
        a = a * pow(g.denominator, -1, p) % p
    return a


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
    r, _ = _shard_indexes(g, np.array([p], dtype=np.int64), table.primes_upto(isqrt(p)))
    return ResidualIndexOutcome(p=p, status="counted", index=int(r[0]))


# ---------------------------------------------------------------------------
# the shard kernel


def _counted_shards(table: arith.PrimeTable, x: int, g: Rational | None) -> list[np.ndarray]:
    """Odd primes p <= x, less those dividing g's numerator or denominator
    when g is given, cut into SHARD_PRIMES-sized arrays in ascending order."""
    ps = table.primes_upto(x)
    ps = ps[ps > 2]
    if g is not None:
        bad = [p for p in sorted(excluded_primes(g)) if p != 2 and p <= x]
        if bad:
            ps = ps[~np.isin(ps, np.asarray(bad, dtype=np.int64))]
    return [ps[i : i + SHARD_PRIMES] for i in range(0, len(ps), SHARD_PRIMES)]


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


def _shard_indexes(g: Rational, ps: np.ndarray, base: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual indexes r_g(p) for an ascending array of counted primes.

    ``base`` must hold every prime <= sqrt(ps[-1] - 1).  ord(g mod p) starts
    at p-1 and loses each prime factor q while g^(order/q) = 1 mod p.
    Returns r with the prime columns of p-1 (see _factor_shard).
    """
    pm1 = ps - 1
    qs = _factor_shard(pm1, base)
    a = arith.reduce_mod_vec(g.numerator, ps)
    if g.denominator != 1:
        a = a * arith.pow_mod_vec(arith.reduce_mod_vec(g.denominator, ps), ps - 2, ps) % ps
    order = pm1.copy()
    for j in range(_FACTOR_COLUMNS):
        live = np.flatnonzero(qs[:, j] > 1)
        if not live.size:
            break
        while live.size:
            q = qs[live, j]
            live = live[arith.pow_mod_vec(a[live], order[live] // q, ps[live]) == 1]
            order[live] //= qs[live, j]
            live = live[order[live] % qs[live, j] == 0]
    return pm1 // order, qs


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
    g: Rational
    dec: GDecomposition
    ts: tuple[int, ...]
    params: dict[int, HeuristicParams]
    l_divs: dict[int, list[int]]
    q_divs: dict[int, list[int]]
    cd_tables: dict[int, np.ndarray]
    base: np.ndarray  # primes <= sqrt(x)
    exact: bool


def _tally_shard(plan: _SweepPlan, ps_arr: np.ndarray) -> tuple:
    """Tallies of one shard: (ints, floats, exact_parts, divisor_values).

    ints is int64 [len(ts), len(_COLUMNS)]; floats is [len(ts), 2] holding
    the naive and weighted phi-sums.  When plan.exact, exact_parts lists
    (naive num, naive den, weighted num, weighted den) per t and
    divisor_values is (p-1, p-1 where (disc/p) = 1, r) as arrays.
    """
    r, qs = _shard_indexes(plan.g, ps_arr, plan.base)
    pm1 = ps_arr - 1
    leg = arith.legendre_vec(plan.dec.disc, ps_arr)
    phi = pm1.copy()  # phi(p-1) from the factor columns
    for j in range(_FACTOR_COLUMNS):
        q = qs[:, j]
        phi -= np.where(q > 1, phi // q, 0)

    ints = np.zeros((len(plan.ts), len(_COLUMNS)), dtype=np.int64)
    floats = np.zeros((len(plan.ts), 2))
    exact_parts = [] if plan.exact else None
    for i, t in enumerate(plan.ts):
        pa = plan.params[t]
        mask = pm1 % t == 0
        pm1_t = pm1[mask]
        r_t = r[mask]
        leg_t = leg[mask]
        m2 = pm1_t % (2 * t) == 0
        w = heuristic.weights_w_vec(plan.dec, pa, pm1_t, leg_t)
        l_num = sum(int(plan.cd_tables[d][np.gcd(r_t, d)].sum()) for d in plan.l_divs[t])
        q_num = sum(int(plan.cd_tables[d][np.gcd(r_t, d)].sum()) for d in plan.q_divs[t])
        ints[i] = (
            pm1_t.size,
            m2.sum(),
            (leg_t == 1).sum(),
            (leg_t[m2] == 1).sum(),
            (r_t == t).sum(),
            (r_t % t == 0).sum(),
            heuristic.weights_r_vec(plan.dec, pa, pm1_t, leg_t).sum(),
            l_num,
            q_num,
        )
        # phi((p-1)/t) = phi(p-1) / (t * prod over q | t, q not dividing (p-1)/t, of (q-1)/q)
        phi_q = phi[mask]
        for q, _ in arith.factor_int(t).factors:
            lost = (pm1_t // t) % q != 0
            phi_q = np.where(lost, phi_q // (q - 1) * q, phi_q)
        phi_q //= t
        inv = 1.0 / pm1_t.astype(np.float64)
        floats[i] = float((phi_q * inv).sum()), pa.gcd_ht * float((w * phi_q * inv).sum())
        if exact_parts is not None:
            nacc = arith.ExactSum()
            qacc = arith.ExactSum()
            pm1_l = pm1_t.tolist()
            phi_l = phi_q.tolist()
            for k, wv in enumerate(w.tolist()):
                nacc.add(phi_l[k], pm1_l[k])
                if wv:
                    qacc.add(wv * phi_l[k], pm1_l[k])
            exact_parts.append((nacc.num, nacc.den, pa.gcd_ht * qacc.num, qacc.den))

    divisor_values = (pm1, pm1[leg == 1], r) if plan.exact else None
    return ints, floats, exact_parts, divisor_values


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


def sweep(
    g: Rational,
    table: arith.PrimeTable,
    x: int,
    ts: tuple[int, ...] | list[int],
    *,
    threads: int = 1,
    exact: bool = False,
) -> Sweep:
    """One streamed pass over the counted primes p <= x for all t in ts.

    Results are independent of ``threads``: the prime range is cut into
    fixed shards and shard tallies are merged in range order.  Raises
    LemmaViolation unless H = M exactly and 0 <= N <= R <= pi(x;t,1) for
    every t.
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
    dec = decompose_g(g)
    params = {t: derive_params(dec, t) for t in ts}

    l_divs: dict[int, list[int]] = {}
    q_divs: dict[int, list[int]] = {}
    cd_tables: dict[int, np.ndarray] = {}
    for t in ts:
        ght = params[t].gcd_ht
        g2t = gcd(2 * dec.h, t)
        l_divs[t] = [d for d in range(1, ght + 1) if ght % d == 0]
        q_divs[t] = [d for d in range(1, g2t + 1) if g2t % d == 0 and dec.h % d != 0]
        for d in l_divs[t] + q_divs[t]:
            if d not in cd_tables:
                cd_tables[d] = arith.ramanujan_table(d)

    plan = _SweepPlan(
        g=g,
        dec=dec,
        ts=ts,
        params=params,
        l_divs=l_divs,
        q_divs=q_divs,
        cd_tables=cd_tables,
        base=table.primes_upto(isqrt(x)),
        exact=exact,
    )
    shards = _counted_shards(table, x, g)

    if threads > 1 and len(shards) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            tallies = list(pool.map(lambda s: _tally_shard(plan, s), shards))
    else:
        tallies = [_tally_shard(plan, s) for s in shards]

    ints = np.zeros((len(ts), len(_COLUMNS)), dtype=np.int64)
    for tally in tallies:
        ints += tally[0]
    columns = {name: dict(zip(ts, col)) for name, col in zip(_COLUMNS, ints.T.tolist())}
    # fsum over the shards in shard order keeps the floats thread-independent
    out = Sweep(
        g=g,
        x=x,
        ts=ts,
        dec=dec,
        params=params,
        counted=sum(len(s) for s in shards),
        naive={t: fsum(tally[1][i, 0] for tally in tallies) for i, t in enumerate(ts)},
        quad={t: fsum(tally[1][i, 1] for tally in tallies) for i, t in enumerate(ts)},
        **columns,
    )
    if exact:
        out.naive_exact, out.quad_exact = {}, {}
        for i, t in enumerate(ts):
            nacc, qacc = arith.ExactSum(), arith.ExactSum()
            for tally in tallies:
                nn, nd, qn, qd = tally[2][i]
                nacc.add(nn, nd)
                qacc.add(qn, qd)
            out.naive_exact[t] = nacc.value()
            out.quad_exact[t] = qacc.value()
        empty = np.zeros(0, dtype=np.int64)
        values = (np.concatenate([empty] + [tally[3][j] for tally in tallies]) for j in range(3))
        counts = np.stack([np.bincount(v, minlength=x + 1) for v in values])
        _sum_over_multiples(counts, table.primes_upto(x))
        out.pi_all, out.split_all, out.R_all = counts
    for t in ts:
        if out.H(t) != out.M(t) or not 0 <= out.N[t] <= out.R[t] <= out.pi[t]:
            raise LemmaViolation(
                f"sweep invariant failed: g={g} t={t} x={x}: H={out.H(t)} M={out.M(t)} "
                f"N={out.N[t]} R={out.R[t]} pi={out.pi[t]}"
            )
    return out


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


def verify_split_criterion(g: Rational, ts, x: int, table: arith.PrimeTable) -> int:
    """Assert t | r_g(p) <=> (p = 1 mod t and g^((p-1)/t) = 1 mod p).

    Checks every counted prime p <= x against every t in ts; returns the
    number of (p, t) pairs checked, raises LemmaViolation on any mismatch.
    """
    base = table.primes_upto(isqrt(x))
    checks = 0
    for ps in _counted_shards(table, x, g):
        rs, _ = _shard_indexes(g, ps, base)
        for p, r in zip(ps.tolist(), rs.tolist()):
            n = p - 1
            a = _g_mod_p(g, p)
            for t in ts:
                divides = r % t == 0
                algebraic = n % t == 0 and pow(a, n // t, p) == 1
                if divides != algebraic:
                    raise LemmaViolation(
                        f"splitting criterion failed: g={g} p={p} t={t}: "
                        f"t|r is {divides}, algebraic test is {algebraic}"
                    )
                checks += 1
    return checks
