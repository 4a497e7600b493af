"""Per-prime heuristic weights and the prime sums built from them.

For a counted prime p (odd, coprime to the base) the weight w(g,t;p) in
{0,1,2} makes

    (h,t) * sum_{p<=x, p=1 mod t} w(g,t;p) * phi((p-1)/t)/(p-1)

an asymptotically exact prediction for N_{g,t}(x), the number of primes
whose residual index equals t; the companion weight r(g,t;p) plays the
same role for the divisibility count R_{g,t}(x) through

    H_{g,t}(x) = (1/t_h) * sum_{p<=x, p=1 mod t} r(g,t;p).

M_{g,t}(x) = L + Q (the first- and second-order character contributions
to R) has a closed form in terms of progression and quadratic-splitting
counts; H = M holds exactly for every x, which is what the identity tests
pin down.

Convention used throughout: a selector of 0 multiplies an expression that
is then simply not evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from . import arith
from .decompose import GDecomposition, HeuristicParams, Rational, derive_params
from .errors import DomainError


@dataclass(frozen=True)
class WeightContext:
    """Everything the weight case tables need about one counted prime."""

    params: HeuristicParams
    dec: GDecomposition
    p: int
    legendre: int


def weight_context(dec: GDecomposition, params: HeuristicParams, p: int) -> WeightContext:
    """Build a WeightContext, computing (disc/p)."""
    return WeightContext(params=params, dec=dec, p=p, legendre=arith.kronecker_symbol(dec.disc, p))


def weight_w(ctx: WeightContext) -> int:
    """The weight for exact residual index t; always an integer in {0,1,2}.

    g > 0: requires p = 1 mod t and ((p-1)/t, h_t) = 1, value
           1 + (eps1/2) * (1 + (-1)^((p-1)/2^e)) * (disc/p).
    g < 0, h_t odd: requires p = 1 mod lcm(2^(e+1), t) and the same gcd
           condition, value 1 + eps1 * (-1)^((p-1)/2^(e+1)) * (disc/p).
    g < 0, h_t even: 2 when p = 1 mod 2t and ((p-1)/2t, h_t) = 1.
    Otherwise 0.
    """
    pa, dec = ctx.params, ctx.dec
    n = ctx.p - 1
    if dec.sign > 0:
        if n % pa.t or gcd(n // pa.t, pa.h_t) != 1:
            return 0
        if pa.eps1 == 0:
            return 1
        # (1 + (-1)^k)/2 is 1 for even k, 0 for odd k
        even = 1 - ((n >> dec.e) & 1)
        return 1 + pa.eps1 * even * ctx.legendre
    if pa.h_t % 2 == 1:
        if n % lcm(1 << (dec.e + 1), pa.t) or gcd(n // pa.t, pa.h_t) != 1:
            return 0
        if pa.eps1 == 0:
            return 1
        sign = -1 if (n >> (dec.e + 1)) & 1 else 1
        return 1 + pa.eps1 * sign * ctx.legendre
    if n % (2 * pa.t) == 0 and gcd(n // (2 * pa.t), pa.h_t) == 1:
        return 2
    return 0


def weight_r(ctx: WeightContext) -> int:
    """The weight for t-divisible residual index; integer in {0,1,2}.

    g > 0: 1 + eps2 * (disc/p) when p = 1 mod t.
    g < 0: on p = 1 mod 2^(1-eps2) t the value is
           1 + eps2 * (-1)^((p-1)/2^(e+1)) * (disc/p).
    Otherwise 0.  Coset enumeration in (Z/pZ)* forces the eps2 coefficient
    in the negative case (a |eps1| coefficient fails at tau = e).
    """
    pa, dec = ctx.params, ctx.dec
    n = ctx.p - 1
    if dec.sign > 0:
        if n % pa.t:
            return 0
        return 1 + pa.eps2 * ctx.legendre
    if n % ((1 << (1 - pa.eps2)) * pa.t):
        return 0
    if pa.eps2 == 0:
        return 1
    sign = -1 if (n >> (dec.e + 1)) & 1 else 1
    return 1 + sign * ctx.legendre


# ---------------------------------------------------------------------------
# vectorized weights (same case tables over numpy arrays; exact integers)


def weights_w_vec(dec: GDecomposition, pa: HeuristicParams, pm1: np.ndarray, leg: np.ndarray) -> np.ndarray:
    """weight_w over arrays of p-1 and (disc/p) values."""
    t = pa.t
    if dec.sign > 0:
        cond = (pm1 % t == 0) & (np.gcd(pm1 // t, pa.h_t) == 1)
        if pa.eps1 == 0:
            return np.where(cond, 1, 0)
        even = 1 - ((pm1 >> dec.e) & 1)
        return np.where(cond, 1 + pa.eps1 * even * leg, 0)
    if pa.h_t % 2 == 1:
        m = lcm(1 << (dec.e + 1), t)
        cond = (pm1 % m == 0) & (np.gcd(pm1 // t, pa.h_t) == 1)
        if pa.eps1 == 0:
            return np.where(cond, 1, 0)
        sgn = 1 - 2 * ((pm1 >> (dec.e + 1)) & 1)
        return np.where(cond, 1 + pa.eps1 * sgn * leg, 0)
    cond = (pm1 % (2 * t) == 0) & (np.gcd(pm1 // (2 * t), pa.h_t) == 1)
    return np.where(cond, 2, 0)


def weights_r_vec(dec: GDecomposition, pa: HeuristicParams, pm1: np.ndarray, leg: np.ndarray) -> np.ndarray:
    """weight_r over arrays of p-1 and (disc/p) values."""
    t = pa.t
    if dec.sign > 0:
        return np.where(pm1 % t == 0, 1 + pa.eps2 * leg, 0)
    m = (1 << (1 - pa.eps2)) * t
    cond = pm1 % m == 0
    if pa.eps2 == 0:
        return np.where(cond, 1, 0)
    sgn = 1 - 2 * ((pm1 >> (dec.e + 1)) & 1)
    return np.where(cond, 1 + sgn * leg, 0)


# ---------------------------------------------------------------------------
# prime sums


def sum_naive(g: Rational, t: int, x: int, table: arith.PrimeTable, *, exact: bool = False):
    """sum_{p<=x, p=1 mod t} phi((p-1)/t)/(p-1) over counted primes.

    Float by default; exact=True returns the Fraction (slower, used by the
    identity tests).
    """
    from .empirical import sweep

    sw = sweep(g, table, x, (t,), exact=exact)
    return sw.naive_exact[t] if exact else sw.naive[t]


def sum_quadratic(g: Rational, t: int, x: int, table: arith.PrimeTable, *, exact: bool = False):
    """(h,t) * sum w(g,t;p) phi((p-1)/t)/(p-1): the corrected prediction for N."""
    from .empirical import sweep

    sw = sweep(g, table, x, (t,), exact=exact)
    return sw.quad_exact[t] if exact else sw.quad[t]


def sum_divisible_H(g: Rational, t: int, x: int, table: arith.PrimeTable) -> Fraction:
    """H_{g,t}(x) = (1/t_h) sum_{p<=x, p=1 mod t} r(g,t;p), exact."""
    from .empirical import sweep

    sw = sweep(g, table, x, (t,))
    return Fraction(sw.sum_r[t], sw.params[t].t_h)


def m_from_counts(
    dec: GDecomposition,
    pa: HeuristicParams,
    pi_t: int,
    pi_2t: int,
    split_t: int,
    split_2t: int,
) -> Fraction:
    """Closed form of M = L + Q from progression/splitting counts.

    g > 0: pi(x;t,1)/t_h for tau <= e, else 2 P_t / t_h.
    g < 0: pi(x;2t,1)/t_h for tau <= e;
           (4 P_2t - 2 P_t + 2 (pi_t - pi_2t)) / t_h for tau = e + 1;
           2 P_t / t_h for tau > e + 1,
    with P_m the count of counted primes p = 1 mod m having (disc/p) = 1.
    """
    if dec.sign > 0:
        num = pi_t if pa.tau <= dec.e else 2 * split_t
    elif pa.tau <= dec.e:
        num = pi_2t
    elif pa.tau == dec.e + 1:
        num = 4 * split_2t - 2 * split_t + 2 * (pi_t - pi_2t)
    else:
        num = 2 * split_t
    return Fraction(num, pa.t_h)


def closed_form_M(g: Rational, t: int, x: int, table: arith.PrimeTable) -> Fraction:
    """M_{g,t}(x) via its closed form (exact rational)."""
    from .empirical import sweep

    sw = sweep(g, table, x, (t,))
    return m_from_counts(sw.dec, sw.params[t], sw.pi[t], sw.pi2[t], sw.split[t], sw.split2[t])


def moebius_m_sum_from_tallies(
    dec: GDecomposition, t: int, x: int, pi_all: dict[int, int], split_all: dict[int, int]
) -> Fraction:
    """sum_k mu(k) M_{g,kt}(x) from precomputed divisor tallies, exact.

    pi_all[m] and split_all[m] must count the counted primes p <= x with
    m | p - 1, respectively those also having (disc/p) = 1.
    """
    if t < 1:
        raise DomainError("t must be >= 1")
    mu = arith.moebius_sieve((x - 1) // t if x > 1 else 1)
    acc = arith.ExactSum()
    for k in range(1, (x - 1) // t + 1):
        mk = int(mu[k])
        if mk == 0:
            continue
        m = k * t
        pi_m = pi_all.get(m, 0)
        if pi_m == 0:
            continue
        pa = derive_params(dec, m)
        val = m_from_counts(
            dec, pa, pi_m, pi_all.get(2 * m, 0), split_all.get(m, 0), split_all.get(2 * m, 0)
        )
        acc.add(mk * val.numerator, val.denominator)
    return acc.value()


def moebius_m_sum(g: Rational, t: int, x: int, table: arith.PrimeTable) -> Fraction:
    """sum_k mu(k) M_{g,kt}(x), exact.

    The sum is finite: M_{g,m}(x) counts primes p <= x with p = 1 mod m and
    vanishes for m > x - 1, so k runs up to (x-1)/t.
    """
    from .empirical import sweep

    sw = sweep(g, table, x, (), divisor_tallies=True)
    return moebius_m_sum_from_tallies(sw.dec, t, x, sw.pi_all, sw.split_all)
