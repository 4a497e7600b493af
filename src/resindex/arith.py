"""Elementary number-theoretic kernels.

Sieving (segmented Eratosthenes), factorization, the multiplicative
functions phi and mu, Ramanujan sums c_d(n), Jacobi and Legendre symbols,
modular powers over int64 arrays and the logarithmic integral
Li(x) = int_2^x dt/log t.

Everything here is deterministic; PrimeTable instances are immutable and
safe to share between worker threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from .errors import BoundError, CapabilityError, DomainError

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
        k = int(np.searchsorted(self.primes, x, side="right"))
        return self.primes[:k]


def _simple_sieve(limit: int) -> np.ndarray:
    """Plain boolean sieve, used for base primes up to sqrt(limit)."""
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve all primes up to ``limit`` (segmented, O(segment) memory)."""
    if limit < 2 or limit > MAX_SIEVE_LIMIT:
        raise BoundError(f"limit must be in [2, {MAX_SIEVE_LIMIT}], got {limit}")
    base = _simple_sieve(isqrt(limit))
    chunks = [base[base <= limit]]
    lo = int(isqrt(limit)) + 1
    while lo <= limit:
        hi = min(lo + _SEGMENT, limit + 1)
        flags = np.ones(hi - lo, dtype=bool)
        for p in base.tolist():
            start = ((lo + p - 1) // p) * p
            if start < hi:
                flags[start - lo :: p] = False
        chunks.append((np.flatnonzero(flags) + lo).astype(np.int64))
        lo = hi
    return PrimeTable(limit=limit, primes=np.concatenate(chunks))


# ---------------------------------------------------------------------------
# factorization


@dataclass(frozen=True)
class Factorization:
    """value == prod(p**e for p, e in factors); factors sorted by prime."""

    value: int
    factors: tuple[tuple[int, int], ...]


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
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    return not any(_mr_witness(n, a) for a in _MR_BASES)


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (deterministic seed sweep)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = gcd(abs(x - y), n)
        if d != n:
            return d
    raise CapabilityError(f"failed to split {n}")


@lru_cache(maxsize=1 << 16)
def factor_int(n: int) -> Factorization:
    """Full factorization of a positive integer (no sieve table needed).

    Trial division by small primes, then deterministic Miller-Rabin plus
    Pollard rho on remaining cofactors.  Cached: the oracle suites ask for
    the same small values millions of times.
    """
    if n < 1:
        raise DomainError(f"cannot factor {n}")
    value = n
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
        if m == 1:
            continue
        if is_prime(m):
            fac[m] = fac.get(m, 0) + 1
            continue
        f = _pollard_rho(m)
        stack.append(f)
        stack.append(m // f)
    return Factorization(value=value, factors=tuple(sorted(fac.items())))


def euler_phi(fac: Factorization) -> int:
    """Euler's totient from a factorization."""
    out = 1
    for p, e in fac.factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def moebius(fac: Factorization) -> int:
    """Moebius mu: 0 on non-squarefree values, else (-1)^(#prime factors)."""
    if any(e > 1 for _, e in fac.factors):
        return 0
    return -1 if len(fac.factors) % 2 else 1


def divisors(fac: Factorization) -> list[int]:
    """All divisors, ascending."""
    out = [1]
    for p, e in fac.factors:
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
    """Array m with m[n] = mu(n) for n <= limit (m[0] = 0)."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in _simple_sieve(limit).tolist():
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
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

    def value(self) -> Fraction:
        return Fraction(self.num, self.den)


# ---------------------------------------------------------------------------
# Ramanujan sums and quadratic symbols


def _phi_small(n: int) -> int:
    return euler_phi(factor_int(n))


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
    return mu_m * _phi_small(d) // euler_phi(mfac)


@lru_cache(maxsize=4096)
def ramanujan_table(d: int) -> np.ndarray:
    """Read-only tab with tab[g] = c_d(n) for every n with gcd(d, n) = g.

    Entries at non-divisor indexes are 0 and never looked up, since
    gcd(d, n) is always a divisor of d.
    """
    tab = np.zeros(d + 1, dtype=np.int64)
    for g in range(1, d + 1):
        if d % g == 0:
            tab[g] = ramanujan_sum(d, g)
    tab.flags.writeable = False
    return tab


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by quadratic reciprocity."""
    if n < 1 or n % 2 == 0:
        raise DomainError(f"jacobi needs odd n >= 1, got {n}")
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def reduce_mod_vec(n: int, mods: np.ndarray) -> np.ndarray:
    """n mod m for every m in an int64 array of moduli below 2**30.

    n is any Python int: its base-2**30 digits are folded in by Horner's
    rule, so numerators, denominators and discriminants beyond int64 work.
    """
    out = np.zeros_like(mods)
    digits = []
    m = abs(n)
    while m:
        digits.append(m & 0x3FFFFFFF)
        m >>= 30
    for d in reversed(digits):
        out = ((out << 30) + d) % mods
    return out if n >= 0 else -out % mods


def pow_mod_vec(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base**exp % mod elementwise, for int64 arrays with 2 <= mod < 2**30."""
    out = np.ones_like(mod)
    base = base % mod
    exp = exp.copy()
    while exp.any():
        odd = (exp & 1) == 1
        out = np.where(odd, out * base % mod, out)
        base = base * base % mod
        exp >>= 1
    return out


def legendre_vec(d: int, ps: np.ndarray) -> np.ndarray:
    """Legendre symbols (d/p) over an array of odd primes, by Euler's criterion."""
    pm1 = ps - 1
    s = pow_mod_vec(reduce_mod_vec(d, ps), pm1 >> 1, ps)
    return np.where(s == pm1, -1, s)


# ---------------------------------------------------------------------------
# logarithmic integral


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, b, fb, whole, m, fm, eps, depth):
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * eps:
        return left + right + delta / 15.0
    return _adaptive(f, a, fa, m, fm, left, lm, flm, eps / 2.0, depth - 1) + _adaptive(
        f, m, fm, b, fb, right, rm, frm, eps / 2.0, depth - 1
    )


def _integrate(f, a, b, eps):
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _adaptive(f, a, fa, b, fb, whole, m, fm, eps, 48)


def log_integral(x: float) -> float:
    """Li(x) = int_2^x dt/log t by adaptive Simpson (relative error <= 1e-9).

    The interval is split at t = 10 where the integrand's curvature is
    largest; each piece gets an absolute tolerance well under the target.
    """
    if x < 2:
        raise DomainError(f"log_integral needs x >= 2, got {x}")
    if x == 2:
        return 0.0
    f = lambda t: 1.0 / math.log(t)
    scale = max(1.0, (x - 2.0) / math.log(x))
    eps = 1e-13 * scale
    if x <= 10:
        return _integrate(f, 2.0, float(x), eps)
    return _integrate(f, 2.0, 10.0, eps / 2) + _integrate(f, 10.0, float(x), eps / 2)
