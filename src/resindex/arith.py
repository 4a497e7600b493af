"""Elementary number-theoretic kernels.

Sieving (small_primes, a stdlib sieve, yields the primes up to a small
limit; odd_primes sieves one span into an array, and build_prime_table and
each sweep step call it), factorization, the multiplicative functions phi
and mu, Ramanujan sums c_d(n), modular powers over int64 arrays and the
logarithmic integral Li(x) = int_2^x dt/log t, by Ramanujan's series for
li(x) less li(2).
Every modular power comes from one routine: power_table builds, once per
array of bases, the powers base^(d * 4^i) for every base-4 digit d and
position i, and table_pow reads any exponents off it by one gather and one
mulmod per digit.

numpy is imported inside the functions that build or read arrays, so the
integer functions (factor_int, euler_phi, moebius, v2, log_integral, ...)
and small_primes load none of it.

Everything here is deterministic; PrimeTable instances are immutable and
safe to share with forked worker processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import gcd, isqrt
from typing import TYPE_CHECKING, Iterator

from .errors import BoundError, CapabilityError, DomainError

if TYPE_CHECKING:
    import numpy as np

# Below 2**30, so a product of two residues mod a prime fits in int64.
MAX_SIEVE_LIMIT = 10**9
_SEGMENT = 1 << 22


# ---------------------------------------------------------------------------
# prime table


@dataclass(frozen=True)
class PrimeTable:
    """Primes up to ``limit``.

    ``primes`` is a strictly increasing int64 array of all primes <= limit.
    """

    limit: int
    primes: np.ndarray
    # Not a field: no table carries a smallest-prime-factor array any more,
    # but the benchmark's tracer (perfbench/trace_child.py) still reads it.
    spf = None

    def __post_init__(self):
        self.primes.flags.writeable = False

    def primes_upto(self, x: int) -> np.ndarray:
        """View of the primes <= x (requires x <= limit)."""
        if x > self.limit:
            raise CapabilityError(f"x={x} exceeds table limit {self.limit}")
        k = int(self.primes.searchsorted(x, side="right"))
        return self.primes[:k]


def small_primes(limit: int) -> Iterator[int]:
    """The primes <= limit, ascending, from an odd-only bytearray sieve.

    flags[i] stands for 2i + 3, so the sieve takes limit / 2 bytes.
    """
    if limit < 2:
        return
    yield 2
    flags = bytearray([1]) * ((limit - 1) // 2)
    for i in range((isqrt(limit) - 1) // 2):
        if flags[i]:
            p = 2 * i + 3
            start = (p * p - 3) // 2
            flags[start::p] = bytes(len(range(start, len(flags), p)))
    yield from compress(range(3, limit + 1, 2), flags)


def odd_primes(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """The odd primes in [lo, hi), for 0 <= lo <= hi, as an ascending int64 array.

    base must hold every prime <= sqrt(hi - 1).  Only the odd numbers of the
    span are sieved, and each odd base prime q strikes them from
    max(q*q, lo), so the base primes in the span are kept.
    """
    import numpy as np

    first = max(lo | 1, 3)  # the least odd number >= lo, 1 being no prime
    flags = np.ones(max(0, (hi - first + 1) // 2), dtype=bool)  # flags[i] stands for first + 2i
    for q in base[base > 2].tolist():
        if q * q >= hi:
            break
        start = max(q * q, (first + q - 1) // q * q)
        start += q * (start % 2 == 0)  # the least odd multiple
        flags[(start - first) // 2 :: q] = False
    return np.flatnonzero(flags) * 2 + first


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve all primes up to ``limit`` (odd_primes per segment, O(segment) memory)."""
    if limit < 2 or limit > MAX_SIEVE_LIMIT:
        raise BoundError(f"limit must be in [2, {MAX_SIEVE_LIMIT}], got {limit}")
    import numpy as np

    base = np.fromiter(small_primes(isqrt(limit)), dtype=np.int64)
    segments = [odd_primes(lo, min(lo + _SEGMENT, limit + 1), base) for lo in range(3, limit + 1, _SEGMENT)]
    return PrimeTable(limit=limit, primes=np.concatenate([np.array([2], dtype=np.int64)] + segments))


# ---------------------------------------------------------------------------
# factorization


# ((p, e), ...) sorted by prime; the factored value is prod(p**e for p, e in it)
Factorization = tuple[tuple[int, int], ...]


def _mr_witness(n: int, a: int) -> bool:
    """True if a witnesses that n is composite."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    return not any(_mr_witness(n, a) for a in _MR_BASES)


# Rho steps over all seeds: twice the most that 100 products of two random
# 30-bit primes took, and ~7 s on the 2048-bit product of two 1024-bit primes.
_RHO_STEPS = 10**5


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (deterministic seed sweep, _RHO_STEPS steps in all)."""
    steps = _RHO_STEPS
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1 and steps:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
            steps -= 1
        if 1 < d < n:
            return d
    raise CapabilityError(f"no factor of a {n.bit_length()}-bit cofactor in {_RHO_STEPS} Pollard rho steps")


@lru_cache(maxsize=1 << 16)
def factor_int(n: int) -> Factorization:
    """Full factorization of a positive integer (no sieve table needed).

    Trial division by small primes, then deterministic Miller-Rabin plus
    Pollard rho on remaining cofactors.  Cached: the oracle suites ask for
    the same small values millions of times.
    """
    if n < 1:
        raise DomainError(f"cannot factor {n}")
    fac: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            fac[p] = fac.get(p, 0) + 1
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < 10**5:
        while n % d == 0:
            fac[d] = fac.get(d, 0) + 1
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return tuple(sorted(fac.items()))


def euler_phi(fac: Factorization) -> int:
    """Euler's totient from a factorization."""
    out = 1
    for p, e in fac:
        out *= (p - 1) * p ** (e - 1)
    return out


def moebius(fac: Factorization) -> int:
    """Moebius mu: 0 on non-squarefree values, else (-1)^(#prime factors)."""
    if any(e > 1 for _, e in fac):
        return 0
    return -1 if len(fac) % 2 else 1


def divisors(fac: Factorization) -> list[int]:
    """All divisors, ascending."""
    out = [1]
    for p, e in fac:
        out = [d * p**k for d in out for k in range(e + 1)]
    out.sort()
    return out


def v2(n: int) -> int:
    """2-adic valuation of n >= 1."""
    if n < 1:
        raise DomainError("v2 needs n >= 1")
    return (n & -n).bit_length() - 1


# ---------------------------------------------------------------------------
# Moebius sieve and exact sums


def moebius_sieve(limit: int) -> np.ndarray:
    """Array m with m[n] = mu(n) for n <= limit (m[0] = 0).

    Sieves by the primes <= sqrt(limit) only: prod[n] is the product of
    those dividing n, and n has one more prime factor exactly when
    prod[n] < n, since two primes > sqrt(limit) exceed limit.
    """
    import numpy as np

    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    prod = np.ones(limit + 1, dtype=np.int64)
    for p in small_primes(isqrt(limit)):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        prod[p::p] *= p
    mu[prod < np.arange(limit + 1)] *= -1
    return mu


class ExactSum:
    """Incremental exact sum of small fractions a/b.

    Keeps an unreduced numerator/denominator pair and normalizes once at
    the end; each step costs O(len(den)) bigint work instead of a full gcd,
    which keeps long folds (tens of thousands of terms) fast.
    """

    __slots__ = ("num", "den")

    def __init__(self):
        self.num = 0
        self.den = 1

    def add(self, a: int, b: int) -> None:
        if a == 0:
            return
        g = gcd(self.den, b)
        f = b // g
        self.num = self.num * f + a * (self.den // g)
        self.den *= f

    def add_all(self, nums: list[int], dens: list[int]) -> None:
        """Add every nums[i] / dens[i].

        Blocks of 256 terms keep each block's denominator small, so the
        costly steps against the running one (which grows to the lcm of all
        denominators so far) come once per block, not once per term.
        """
        for i in range(0, len(nums), 256):
            block = ExactSum()
            for a, b in zip(nums[i : i + 256], dens[i : i + 256]):
                block.add(a, b)
            self.add(block.num, block.den)

    def value(self) -> Fraction:
        return Fraction(self.num, self.den)


# ---------------------------------------------------------------------------
# Ramanujan sums


def ramanujan_sum(d: int, n: int) -> int:
    """c_d(n), the sum of n-th powers of the primitive d-th roots of unity.

    Evaluated exactly through Hoelder's identity
    c_d(n) = mu(d/(d,n)) * phi(d) / phi(d/(d,n)).
    """
    if d < 1:
        raise DomainError("ramanujan_sum needs d >= 1")
    if n < 0:
        raise DomainError("ramanujan_sum needs n >= 0")
    g = gcd(d, n) if n else d
    m = d // g
    mfac = factor_int(m)
    mu_m = moebius(mfac)
    if mu_m == 0:
        return 0
    return mu_m * euler_phi(factor_int(d)) // euler_phi(mfac)


@lru_cache(maxsize=4096)
def ramanujan_table(d: int) -> np.ndarray:
    """Read-only tab with tab[g] = c_d(n) for every n with gcd(d, n) = g.

    Entries at non-divisor indexes are 0 and never looked up, since
    gcd(d, n) is always a divisor of d.
    """
    import numpy as np

    tab = np.zeros(d + 1, dtype=np.int64)
    for g in range(1, d + 1):
        if d % g == 0:
            tab[g] = ramanujan_sum(d, g)
    tab.flags.writeable = False
    return tab


def reduce_mod_vec(n: int, mods: np.ndarray) -> np.ndarray:
    """n mod m for every m in an int64 array of moduli below 2**30.

    n is any Python int: its base-2**30 digits are folded in by Horner's
    rule, so numerators, denominators and discriminants beyond int64 work.
    """
    import numpy as np

    out = np.zeros_like(mods)
    digits = []
    m = abs(n)
    while m:
        digits.append(m & 0x3FFFFFFF)
        m >>= 30
    for d in reversed(digits):
        out = ((out << 30) + d) % mods
    return out if n >= 0 else -out % mods


def inverse_mod_vec(n: int, mods: np.ndarray) -> np.ndarray:
    """n^-1 mod m for every m in an int64 array of moduli below 2**30, each prime to n.

    Extended Euclid on all moduli at once, from the pair (m, n mod m), with
    r = s * n mod m kept for both remainders.  A pass reduces each remainder
    by the other; a lane rests once either is 0, the other being gcd = 1 and
    its s the inverse.  Every |s| stays within m, so nothing leaves int64.
    """
    import numpy as np

    r0, r1 = mods.copy(), reduce_mod_vec(n, mods)
    s0, s1 = np.zeros_like(mods), np.ones_like(mods)
    while ((r0 != 0) & (r1 != 0)).any():
        for r, s, d, ds in ((r0, s0, r1, s1), (r1, s1, r0, s0)):
            q = np.floor_divide(r, d, out=np.zeros_like(r), where=d != 0)
            r -= q * d
            s -= q * ds
    return np.where(r0 == 0, s1, s0) % mods


def power_table(base: np.ndarray, mod: np.ndarray, max_exp: int) -> np.ndarray:
    """Fixed-base table for table_pow: tab[i, d, j] = base[j]**(d * 4**i) % mod[j].

    One row i per base-4 digit of max_exp (at least one), d = 0..3, for int64
    arrays base and mod with 2 <= mod < 2**30; a row costs three mulmods.
    Stored as int32 (every residue is below 2**30) to halve its footprint.
    """
    import numpy as np

    rows = max(1, (int(max_exp).bit_length() + 1) // 2)
    tab = np.empty((rows, 4, mod.size), dtype=np.int32)
    tab[:, 0] = 1
    b = base % mod  # base**(4**i) at row i
    for row in tab:
        b2 = b * b % mod
        row[1], row[2], row[3] = b, b2, b2 * b % mod
        b = b2 * b2 % mod
    return tab


def table_pow(tab: np.ndarray, idx: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base[idx]**exp % mod[idx] from tab = power_table(base, mod, max_exp).

    exp (every entry <= max_exp) and mod hold one entry per position in idx,
    mod being the moduli at those positions.  Each base-4 digit of exp costs
    one gather from the table and one mulmod; there are no squarings.
    """
    import numpy as np

    n = tab.shape[2]
    out = np.ones(idx.size, dtype=np.int64)
    for i in range((int(exp.max(initial=0)).bit_length() + 1) // 2):
        out *= tab[i].reshape(-1).take(((exp >> 2 * i) & 3) * n + idx)
        out %= mod
    return out


# ---------------------------------------------------------------------------
# logarithmic integral


# Euler's constant and li(2) = 1.04516378011749278484..., both rounded to double
_EULER_GAMMA = 0.5772156649015329
_LI_2 = 1.045163780117493
# Below 2 + _NEAR_2 the series cancels against li(2); the midpoint rule takes over
_NEAR_2 = 1e-5


def log_integral(x: float) -> float:
    """Li(x) = int_2^x dt/log t = li(x) - li(2), relative error below 1e-9.

    li(x) comes from Ramanujan's series, with L = log x,

      li(x) = gamma + log L + sqrt(x) * sum_{n>=1} (-1)^(n-1) L^n / (n! 2^(n-1))
                                        * sum_{k=0}^{floor((n-1)/2)} 1/(2k+1),

    summed until a term no longer changes the sum.  Its terms shrink once
    n > L, so x = 10^9 takes 50 of them.  Against mpmath it is within
    2e-15 for x >= 3.  Near x = 2 it cancels against li(2): the absolute
    error of a few 1e-16 is a relative error under 5e-11 for
    d = x - 2 >= _NEAR_2 = 1e-5.  Below that cut the midpoint rule
    d / log(2 + d/2) is used; its relative error is about 0.06 d^2, under
    6e-12.
    """
    if x < 2:
        raise DomainError(f"log_integral needs x >= 2, got {x}")
    if x == 2:
        return 0.0
    d = x - 2.0
    if d < _NEAR_2:
        return d / math.log(2.0 + d / 2)
    L = math.log(x)
    s, term, inner, n = 0.0, -2.0, 0.0, 0
    while True:
        n += 1
        term *= -L / (2 * n)  # (-1)^(n-1) L^n / (n! 2^(n-1))
        inner += (n % 2) / n  # 1 + 1/3 + ... + 1/(2k+1), k = floor((n-1)/2)
        step = term * inner
        if s + step == s:
            return (_EULER_GAMMA - _LI_2) + math.log(L) + math.sqrt(x) * s
        s += step
