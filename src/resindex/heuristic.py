"""The weight case tables over numpy arrays, the closed form M and the
Moebius M-sum from divisor tallies.

For a counted prime p (odd, coprime to the base) the weight w(g,t;p) in
{0,1,2} makes

    (h,t) * sum_{p<=x, p=1 mod t} w(g,t;p) * phi((p-1)/t)/(p-1)

an asymptotically exact prediction for N_{g,t}(x), the number of primes
whose residual index equals t; the companion weight r(g,t;p) plays the
same role for the divisibility count R_{g,t}(x) through

    H_{g,t}(x) = (1/t_h) * sum_{p<=x, p=1 mod t} r(g,t;p).

M_{g,t}(x) = L + Q (the first- and second-order character contributions
to R) has a closed form in terms of progression and quadratic-splitting
counts; H = M holds exactly for every x, which every sweep checks and the
identity tests pin down.  Its one case table serves m_from_counts (one t)
and the Moebius M-sum sum_k mu(k) M_{g,kt}(x), which reads every m = kt at
once from an exact sweep's divisor tallies (int64 arrays over m = 0..x).
The sums themselves are tallied by empirical.sweep, which calls the weight
functions here on whole shards; the finite-group oracles certify the same
functions, prime by prime.  Both evaluate w(g,t;p) and r(g,t;p) only at
p = 1 mod t, so the case tables take t | p-1 as given and test only the
stronger congruences (mod 2t and mod lcm(2^(e+1), t)).

Convention used throughout: a selector of 0 multiplies an expression that
is then simply not evaluated.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import numpy as np

from . import arith
from .decompose import GDecomposition, HeuristicParams
from .errors import DomainError


# ---------------------------------------------------------------------------
# the weight case tables, over arrays of p-1 and (disc/p) (or single ints)


def _gate(pm1: np.ndarray | int, m: int, q: int, h_t: int) -> np.ndarray | bool:
    """p = 1 mod m (no test at m = 1) and ((p-1)/q, h_t) = 1 (no test at h_t = 1)."""
    cond = pm1 % m == 0 if m > 1 else np.ones_like(pm1, dtype=bool)
    return cond & (np.gcd(pm1 // q, h_t) == 1) if h_t > 1 else cond


def weights_w_vec(
    dec: GDecomposition, pa: HeuristicParams, pm1: np.ndarray | int, leg: np.ndarray | int
) -> np.ndarray:
    """The weight w(g,t;p) for exact residual index t; integers in {0,1,2}.

    pm1 holds p-1 and leg (disc/p), as equal-shape arrays or as ints, at
    primes p = 1 mod t only (not tested here).
    g > 0: requires ((p-1)/t, h_t) = 1, value
           1 + (eps1/2) * (1 + (-1)^((p-1)/2^e)) * (disc/p).
    g < 0, h_t odd: requires p = 1 mod lcm(2^(e+1), t) and the same gcd
           condition, value 1 + eps1 * (-1)^((p-1)/2^(e+1)) * (disc/p).
    g < 0, h_t even: 2 when p = 1 mod 2t and ((p-1)/2t, h_t) = 1.
    Otherwise 0.
    """
    t = pa.t
    if dec.sign > 0:
        cond = _gate(pm1, 1, t, pa.h_t)
        if pa.eps1 == 0:
            return np.where(cond, 1, 0)
        even = 1 - ((pm1 >> dec.e) & 1)
        return np.where(cond, 1 + pa.eps1 * even * leg, 0)
    if pa.h_t % 2 == 1:  # h_t odd forces tau >= e, so eps1 != 0
        cond = _gate(pm1, lcm(1 << (dec.e + 1), t), t, pa.h_t)
        sgn = 1 - 2 * ((pm1 >> (dec.e + 1)) & 1)
        return np.where(cond, 1 + pa.eps1 * sgn * leg, 0)
    return np.where(_gate(pm1, 2 * t, 2 * t, pa.h_t), 2, 0)


def weights_r_vec(
    dec: GDecomposition, pa: HeuristicParams, pm1: np.ndarray | int, leg: np.ndarray | int
) -> np.ndarray:
    """The weight r(g,t;p) for t-divisible residual index; integers in {0,1,2}.

    pm1 holds p-1 and leg (disc/p), as equal-shape arrays or as ints, at
    primes p = 1 mod t only (not tested here).
    g > 0: 1 + eps2 * (disc/p).
    g < 0: on p = 1 mod 2^(1-eps2) t the value is
           1 + eps2 * (-1)^((p-1)/2^(e+1)) * (disc/p), else 0.
    Coset enumeration in (Z/pZ)* forces the eps2 coefficient in the
    negative case (a |eps1| coefficient fails at tau = e).
    """
    if dec.sign > 0:
        return 1 + pa.eps2 * leg
    if pa.eps2 == 0:
        return np.where(pm1 % (2 * pa.t) == 0, 1, 0)
    sgn = 1 - 2 * ((pm1 >> (dec.e + 1)) & 1)
    return 1 + sgn * leg


# ---------------------------------------------------------------------------
# the closed form of M


def _m_numerator(dec: GDecomposition, tau, pi_t, pi_2t, split_t, split_2t):
    """t_h * M: the case table of M = L + Q, over ints or equal-shape arrays.

    tau = v2(t); pi_m counts the counted primes p = 1 mod m and split_m
    those among them having (disc/p) = 1.
    g > 0: pi_t for tau <= e, else 2 split_t.
    g < 0: pi_2t for tau <= e;
           4 split_2t - 2 split_t + 2 (pi_t - pi_2t) for tau = e + 1;
           2 split_t for tau > e + 1.
    """
    if dec.sign > 0:
        return np.where(tau <= dec.e, pi_t, 2 * split_t)
    above = np.where(tau == dec.e + 1, 4 * split_2t - 2 * split_t + 2 * (pi_t - pi_2t), 2 * split_t)
    return np.where(tau <= dec.e, pi_2t, above)


def m_from_counts(
    dec: GDecomposition, pa: HeuristicParams, pi_t: int, pi_2t: int, split_t: int, split_2t: int
) -> Fraction:
    """Closed form of M = L + Q from progression/splitting counts (_m_numerator / t_h)."""
    return Fraction(int(_m_numerator(dec, pa.tau, pi_t, pi_2t, split_t, split_2t)), pa.t_h)


def moebius_m_sum_from_tallies(
    dec: GDecomposition, t: int, pi_all: np.ndarray, split_all: np.ndarray
) -> Fraction:
    """sum_k mu(k) M_{g,kt}(x) from divisor tallies, exact.

    pi_all[m] and split_all[m], int64 arrays over m = 0..x, must count the
    counted primes p <= x with m | p - 1, respectively those also having
    (disc/p) = 1.  The sum is finite: M_{g,m}(x) vanishes for m > x - 1,
    so k runs up to (x-1)/t.
    """
    if t < 1:
        raise DomainError("t must be >= 1")
    n = len(pi_all)
    m = np.arange(1, (n - 2) // t + 1, dtype=np.int64) * t
    mu = arith.moebius_sieve(m.size)[1:]
    # counts at 2m beyond x are 0: p - 1 <= x - 1
    pi, split = (np.concatenate([a, np.zeros(n, dtype=np.int64)]) for a in (pi_all, split_all))
    tau = np.frexp(m & -m)[1] - 1  # v2(m), exact: m & -m is a power of two
    num = mu * _m_numerator(dec, tau, pi[m], pi[2 * m], split[m], split[2 * m])
    live = np.flatnonzero(num)
    nums, dens = num[live].tolist(), (m[live] // np.gcd(m[live], dec.h)).tolist()
    acc = arith.ExactSum()
    acc.add_all(nums, dens)
    return acc.value()
