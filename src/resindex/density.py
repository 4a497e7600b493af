"""Kummer-extension degrees and the residual-index densities built on them.

The degree of Q(zeta_t, g^(1/t)) over Q is phi(t) * t_h / nu with
nu in {1/2, 1, 2} determined by the parity of t_h and whether disc divides
t (or 2t).  The density of primes with residual index exactly t is
A(g,t) = sum over squarefree k of mu(k)/degree(kt).  nu depends on k only
through the primes dividing 2*t*h*disc, so A(g,t) is an exact rational
C(g,t), a finite sum over those primes, times the Artin constant
prod_q (1 - 1/(q(q-1))) (Wagstaff's Euler-product form); the product is
truncated with a certified error, so every returned density carries an
absolute error below the requested tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, prod

from . import arith
from .decompose import GDecomposition, disc_primes
from .errors import CapabilityError, DomainError, LemmaViolation

# density_factor sums 2**len(P) terms; 16 primes keep that under 65536.
_MAX_FACTOR_PRIMES = 16


@dataclass(frozen=True)
class DegreeResult:
    """Degree of Q(zeta_t, g^(1/t)) over Q, with the correction factor nu."""

    t: int
    degree: int
    nu: Fraction


def _nu(dec: GDecomposition, t: int, t_h: int) -> Fraction:
    disc = dec.disc
    if dec.sign > 0:
        if t_h % 2 == 0 and t % disc == 0:
            return Fraction(2)
        return Fraction(1)
    if t % 2 == 1:
        return Fraction(1)
    if t_h % 2 == 1:
        return Fraction(1, 2)
    if t_h % 4 == 2:
        if t % disc != 0 and (2 * t) % disc == 0:
            return Fraction(2)
        return Fraction(1)
    if t % disc == 0:
        return Fraction(2)
    return Fraction(1)


def kummer_degree(dec: GDecomposition, t: int) -> DegreeResult:
    """[Q(zeta_t, g^(1/t)) : Q] = phi(t) * t_h / nu, exactly.

    disc's primes are divided out of t before the cofactor is factored, so a
    t that carries them (density_factor's k1*t) costs no factoring of them.
    """
    if t < 1:
        raise DomainError("t must be >= 1")
    t_h = t // gcd(t, dec.h)
    nu = _nu(dec, t, t_h)
    rest, phi_t = t, 1
    for q in disc_primes(dec.g0):
        if rest % q == 0:
            rest //= q
            phi_t *= q - 1
            while rest % q == 0:
                rest //= q
                phi_t *= q
    phi_t *= arith.euler_phi(arith.factor_int(rest))
    degree = Fraction(phi_t * t_h) / nu
    if degree.denominator != 1:
        raise LemmaViolation(f"degree {degree} of Q(zeta_{t}, g^(1/{t})) is not an integer (nu={nu})")
    return DegreeResult(t=t, degree=int(degree), nu=nu)


def density_factor(dec: GDecomposition, t: int) -> Fraction:
    """The exact rational C(g,t) with A(g,t) = C(g,t) * Artin's constant.

    With P the primes dividing 2*t*h*disc (disc's taken from g0, see
    disc_primes), every squarefree k is k1*k2 with
    k1 | prod(P) and k2 coprime to P; then nu(k1*k2*t) = nu(k1*t) and
    degree(k1*k2*t) = degree(k1*t) * k2*phi(k2), so the k2-sum is the Artin
    product without its factors at P:

        C(g,t) = sum_{k1 | prod(P)} mu(k1)/degree(k1*t) * prod_{q in P} (1 - 1/(q(q-1)))^-1.
    """
    if t < 1:
        raise DomainError("t must be >= 1")
    primes = sorted({q for q, _ in arith.factor_int(2 * t * dec.h)}.union(disc_primes(dec.g0)))
    if len(primes) > _MAX_FACTOR_PRIMES:
        raise CapabilityError(
            f"2*t*h*disc has {len(primes)} prime factors; at most {_MAX_FACTOR_PRIMES} are supported"
        )
    terms = [(1, 1)]  # (mu(k1), k1) over the squarefree k1 | prod(primes)
    for q in primes:
        terms += [(-mu, k1 * q) for mu, k1 in terms]
    c = sum(Fraction(mu, kummer_degree(dec, k1 * t).degree) for mu, k1 in terms)
    for q in primes:
        c /= 1 - Fraction(1, q * (q - 1))
    if c < 0:
        raise LemmaViolation(f"negative density factor {c} for g={dec.reconstruct()}, t={t}")
    return c


def artin_density_A(dec: GDecomposition, t: int, tol: float) -> float:
    """Density sum_k mu(k)/[Q(zeta_kt, g^(1/kt)):Q], absolute error <= tol.

    C(g,t) is exact, so the error is C times that of the Artin constant.
    """
    if not tol > 0:  # also rejects NaN
        raise DomainError(f"tol must be positive, got {tol}")
    c = density_factor(dec, t)
    if c == 0:
        return 0.0
    return float(c) * artin_constant(tol / c)


def artin_euler_product(prime_bound: int) -> float:
    """prod_{q <= prime_bound} (1 - 1/(q(q-1))) over primes q.

    Multiplied in ascending order of q, one double at a time, the order
    numpy's prod takes over an array of the factors, so the two agree bit
    for bit.
    """
    if prime_bound < 2:
        raise DomainError("prime_bound must be >= 2")
    return prod(1.0 - 1.0 / (q * (q - 1.0)) for q in arith.small_primes(prime_bound))


def artin_constant(tol: float) -> float:
    """The Artin constant prod_q (1 - 1/(q(q-1))), absolute error <= tol.

    Truncating at B drops a factor within (1 - 1/B, 1), so the truncated
    product overshoots by less than 1/B.
    """
    if not tol > 0:  # also rejects NaN
        raise DomainError(f"tol must be positive, got {tol}")
    inverse = 1.0 / tol  # inf when tol is subnormal enough
    if inverse > 10**8:
        raise CapabilityError(f"tolerance {tol} too small for the product oracle")
    return artin_euler_product(max(3, ceil(inverse)))
