import cmath
import functools
import math

import pytest

from resindex import arith
from resindex.decompose import parse_g

# the base matrix exercised throughout: mixed signs, perfect powers, fractions
BASE_STRINGS = ("2", "3", "5", "8", "-2", "-3", "-4", "9/25", "1/2")
BASES = tuple(parse_g(s) for s in BASE_STRINGS)


def read_only_primes(limit: int):
    """arith.primes(limit), read-only, so a test cannot change a shared fixture."""
    ps = arith.primes(limit)
    ps.flags.writeable = False
    return ps


@pytest.fixture(scope="session")
def table():
    return read_only_primes(10**6)


@pytest.fixture(scope="session")
def small_table():
    return read_only_primes(10**4)


# brute-force references: the prime table and built-in pow only


def counted_primes(g, x: int, table) -> list[int]:
    """The odd primes p <= x that divide neither numerator nor denominator of g."""
    return [p for p in table[: table.searchsorted(x, "right")].tolist() if p != 2 and g.numerator * g.denominator % p]


def brute_index(g, p: int) -> int:
    """r_g(p) = (p-1) / ord(g mod p), the order found by repeated multiplication."""
    a = g.numerator % p * pow(g.denominator, -1, p) % p
    x, o = a, 1
    while x != 1:
        x = x * a % p
        o += 1
    return (p - 1) // o


@functools.lru_cache(maxsize=None)
def trial_divisors(n: int) -> tuple[int, ...]:
    """The divisors of n >= 1, ascending, by trial division."""
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return tuple(small + [n // d for d in reversed(small) if d * d != n])


def divisor_index(g, p: int) -> int:
    """r_g(p) as (p-1)/d for the least divisor d of p-1 with g^d = 1 mod p: brute_index
    without the walk through every power, for primes where that walk is too slow."""
    a = g.numerator % p * pow(g.denominator, -1, p) % p
    return (p - 1) // next(d for d in trial_divisors(p - 1) if pow(a, d, p) == 1)


def euler_criterion(d: int, p: int) -> int:
    """The Legendre symbol (d/p) for an odd prime p, as d^((p-1)/2) mod p."""
    r = pow(d % p, (p - 1) // 2, p)
    return 0 if r == 0 else (1 if r == 1 else -1)


def brute_indicator(n: int, t: int) -> list[int]:
    """[t | index(gamma)] in C_n for gamma = 0..n-1, the index being gcd(gamma, n) (n at gamma = 0)."""
    return [int(math.gcd(gamma, n) % t == 0) for gamma in range(n)]


def character_sum(d: int, gamma: int) -> complex:
    """The sum of chi(gamma) over the characters chi of order exactly d: zeta_d^(u gamma) over the units u mod d."""
    return sum(cmath.exp(2j * cmath.pi * u * gamma / d) for u in range(1, d + 1) if math.gcd(u, d) == 1)
