"""Canonical decomposition of the base g and derived per-(g, t) parameters.

A rational g outside {-1, 0, 1} is written g = sign * g0^h with g0 > 0 not
an exact power of a rational and h maximal (the gcd of all prime exponents
of |g|).  From g0 we take disc, the discriminant of the real quadratic
field Q(sqrt(g0)), and from (h, t) the valuations and sign selectors that
drive the weight formulas:

    tau = v2(t),  e = v2(h)
    eps1 = 0 / -1 / +1  according to tau < e / tau = e / tau > e
    eps2 = 0 if tau <= e else 1
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, prod

from . import arith
from .errors import DomainError, ExcludedBaseError, ParseError

Rational = Fraction

_G_RE = re.compile(r"^-?\d+(/\d+)?$")

# A larger numerator or denominator can keep factor_int busy for minutes.
_MAX_G_BITS = 1024


def parse_g(text: str) -> Rational:
    """Parse '[-]a' or '[-]a/b' into a reduced rational base.

    Rejects malformed strings, a numerator or denominator over _MAX_G_BITS
    bits, zero denominators and the excluded bases -1, 0, 1.
    """
    text = text.strip()
    if not _G_RE.match(text):
        raise ParseError(f"cannot parse base {text!r} (expected 'a' or 'a/b')")
    num_s, _, den_s = text.partition("/")
    try:  # int() itself refuses more than 4300 digits
        num, den = int(num_s), int(den_s or 1)
        if max(abs(num), den).bit_length() > _MAX_G_BITS:
            raise ValueError
    except ValueError:
        raise ParseError(f"numerator or denominator of {text[:20]}... exceeds {_MAX_G_BITS} bits") from None
    if den == 0:
        raise ParseError(f"zero denominator in {text!r}")
    g = Fraction(num, den)
    if g in (-1, 0, 1):
        raise ExcludedBaseError(f"base {g} is excluded (must avoid -1, 0, 1)")
    return g


@dataclass(frozen=True)
class GDecomposition:
    """g = sign * g0^h with g0 > 0 not an exact power; e = v2(h); disc = d(g0)."""

    sign: int
    g0: Rational
    h: int
    e: int
    disc: int

    def reconstruct(self) -> Rational:
        return self.sign * self.g0**self.h


@dataclass(frozen=True)
class HeuristicParams:
    """Valuations and gcd splits of (h, t) used by the weight case tables."""

    t: int
    tau: int
    gcd_ht: int
    h_t: int
    t_h: int
    eps1: int
    eps2: int


def _is_square(n: int) -> bool:
    r = isqrt(n)
    return r * r == n


def disc_primes(g0: Rational) -> list[int]:
    """The primes with an odd exponent in g0 = m/n: those of D, the squarefree
    part of m*n, whose product gives disc = D or 4D.

    Read off factor_int's cache of m and n, which decompose_g fills, so disc
    itself is never factored.
    """
    return [p for n in (g0.numerator, g0.denominator) for p, e in arith.factor_int(n) if e % 2]


def quadratic_discriminant(g0: Rational) -> int:
    """Discriminant of Q(sqrt(g0)) for positive non-square g0 = m/n.

    With D the squarefree part of m*n: D itself when D = 1 mod 4, else 4D.
    """
    if g0 <= 0:
        raise DomainError(f"g0 must be positive, got {g0}")
    if _is_square(g0.numerator) and _is_square(g0.denominator):
        raise DomainError(f"{g0} is a rational square; Q(sqrt(g0)) = Q")
    d = prod(disc_primes(g0))
    return d if d % 4 == 1 else 4 * d


def decompose_g(g: Rational) -> GDecomposition:
    """Split g into sign * g0^h (h maximal) and attach e = v2(h) and disc.

    The sign is carried separately: h is the gcd of the prime exponents of
    |g|, so e.g. -4 decomposes as -(2^2) with h = 2.
    """
    if g in (-1, 0, 1):
        raise DomainError(f"base {g} has no decomposition")
    sign = 1 if g > 0 else -1
    num = abs(g.numerator)
    den = g.denominator
    fn = arith.factor_int(num)
    fd = arith.factor_int(den)
    h = 0
    for _, e in fn:
        h = gcd(h, e)
    for _, e in fd:
        h = gcd(h, e)
    g0 = Fraction(1)
    for p, e in fn:
        g0 *= Fraction(p) ** (e // h)
    for p, e in fd:
        g0 /= Fraction(p) ** (e // h)
    return GDecomposition(sign=sign, g0=g0, h=h, e=arith.v2(h), disc=quadratic_discriminant(g0))


def derive_params(dec: GDecomposition, t: int) -> HeuristicParams:
    """Compute tau, (h,t), h_t, t_h and the sign selectors eps1, eps2."""
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    tau = arith.v2(t)
    ght = gcd(dec.h, t)
    eps1 = 0 if tau < dec.e else (-1 if tau == dec.e else 1)
    return HeuristicParams(
        t=t,
        tau=tau,
        gcd_ht=ght,
        h_t=dec.h // ght,
        t_h=t // ght,
        eps1=eps1,
        eps2=0 if tau <= dec.e else 1,
    )


def excluded_primes(g: Rational) -> frozenset[int]:
    """Primes p where g degenerates mod p: p = 2 or p | numerator*denominator."""
    bad = {2}
    for n in (abs(g.numerator), g.denominator):
        bad.update(p for p, _ in arith.factor_int(n))
    return frozenset(bad)
