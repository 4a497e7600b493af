"""Exhaustive finite-group oracles for every identity the package relies on.

Cyclic groups of order n are modeled additively as exponents 0..n-1 of a
fixed generator; the index of an element a is gcd(a, n), so the identity
has index n, and the unique element of order 2 (when n is even) is n/2.
Each group is enumerated once: per (n, t) for the three routes of the
divisibility indicator, and per coset class into one histogram of indexes
(_class_indexes), from which rho and sigma, by counting and by Moebius
inversion, are read as exact Fractions.  The weight oracle locates the
class of a base g in (Z/pZ)* via discrete logs over the smallest primitive
root and checks, for every t | p-1, the weights and (disc/p) that the sweep
itself computes against that class's histogram; (disc/p) comes from the
sweep's own kernel run on the base's root (empirical._shard_indexes).
The four suites are the only way in: each runs its checks over a whole
grid and returns them as one SuiteResult.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import numpy as np

from . import arith, empirical, heuristic
from .decompose import GDecomposition, Rational, decompose_g, derive_params, excluded_primes
from .errors import DomainError, LemmaViolation

PARITIES = ("*", "even", "odd")

# largest t the weight oracle checks at each prime
MAX_T = 24


@dataclass(frozen=True)
class GroupScenario:
    """One coset-density question: the class {sign * gamma^(parity)h} in C_n."""

    n: int
    h: int
    t: int
    sign: int
    parity: str  # "*", "even" or "odd"

    def __post_init__(self):
        if self.parity not in PARITIES:
            raise DomainError(f"parity must be one of {PARITIES}")
        if self.sign not in (1, -1):
            raise DomainError("sign must be +1 or -1")
        if self.sign < 0 and self.n % 2:
            raise DomainError("sign -1 needs a group of even order")
        if min(self.n, self.h, self.t) < 1:
            raise DomainError("n, h, t must be >= 1")


def _indexes(n: int) -> np.ndarray:
    """index(gamma) = gcd(gamma, n) for gamma = 0..n-1, with index(0) = n."""
    idx = np.gcd(np.arange(n, dtype=np.int64), n)
    idx[0] = n
    return idx


# ---------------------------------------------------------------------------
# the divisibility indicator through three routes


def _character_sums(n: int, d: int) -> np.ndarray:
    """sum over the characters chi of C_n of order exactly d of chi(gamma), gamma = 0..n-1."""
    gammas = np.arange(n, dtype=np.int64)
    zeta = np.exp(2j * np.pi * np.arange(d) / d)  # chi_u(gamma) = zeta_d^(u * gamma)
    out = np.zeros(n, dtype=np.complex128)
    for u in range(1, d + 1):
        if gcd(u, d) == 1:
            out += zeta[u * gammas % d]
    return out


def indicator_routes(n: int, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The indicator of t | index(gamma) in C_n for gamma = 0..n-1, three ways.

    Returns (definition, ramanujan, characters): t | gcd(gamma, n) tested
    directly, (1/t) sum_{d|t} c_d(index), and the literal complex character
    sum (1/t) sum_{d|t} sum_{ord chi = d} chi(gamma) rounded to integers.
    Raises LemmaViolation when a route is not (near) integral.
    """
    if n < 1 or t < 1 or n % t:
        raise DomainError(f"need t | n, got t={t}, n={n}")
    idx = _indexes(n)
    ram = np.zeros(n, dtype=np.int64)
    char = np.zeros(n, dtype=np.complex128)
    for d in arith.divisors(arith.factor_int(t)):
        ram += arith.ramanujan_table(d)[np.gcd(idx, d)]
        char += _character_sums(n, d)
    if np.any(ram % t):
        raise LemmaViolation(f"ramanujan route not integral at n={n}, t={t}")
    f_char = np.round(char.real / t).astype(np.int64)
    if np.max(np.abs(char.real / t - f_char)) > 1e-6 or np.max(np.abs(char.imag)) > 1e-6 * t:
        raise LemmaViolation(f"character route drifted at n={n}, t={t}")
    return (idx % t == 0).astype(np.int64), ram // t, f_char


# ---------------------------------------------------------------------------
# coset densities: one index histogram per class, and the closed forms


def _class_progression(n: int, h: int, sign: int, parity: str) -> tuple[int, int]:
    """(offset, step) of the exponents of {sign * gamma^(parity)h} in C_n."""
    step = gcd(h, n) if parity == "*" else gcd(2 * h, n)
    off = 0 if parity in ("*", "even") else h % step
    if sign < 0:
        off = (off + n // 2) % step
    return off, step


@dataclass(frozen=True)
class _ClassIndexes:
    """Histogram of the indexes over one coset class: hist[i] elements have index i."""

    n: int
    hist: np.ndarray
    size: int

    def rho(self, t: int) -> Fraction:
        """Share of the class with t | index; 0 when t does not divide n."""
        return Fraction(int(self.hist[t::t].sum()), self.size)

    def sigma_direct(self, t: int) -> Fraction:
        return Fraction(int(self.hist[t]), self.size)

    def sigma_moebius(self, t: int) -> Fraction:
        """sum_{d | n/t} mu(d) rho(dt), the Moebius inversion of rho."""
        total = 0
        for d in arith.divisors(arith.factor_int(self.n // t)):
            md = arith.moebius(arith.factor_int(d))
            if md:
                total += md * int(self.hist[d * t :: d * t].sum())
        return Fraction(total, self.size)


def _class_indexes(n: int, h: int, sign: int, parity: str) -> _ClassIndexes:
    off, step = _class_progression(n, h, sign, parity)
    cls = _indexes(n)[off::step]
    return _ClassIndexes(n=n, hist=np.bincount(cls, minlength=n + 1), size=cls.size)


def rho_closed(sc: GroupScenario) -> Fraction:
    """Closed forms of the coset densities.

    With tau = v2(t), e = v2(h) and n the group order:
      (+1, *)    (t,h)/t
      (+1, even) (2h,t)/t
      (+1, odd)  2(h,t)/t - (2h,t)/t
      (-1, *)    0 if v2(n) = tau and tau <= e, else (t,h)/t
      (-1, even) 0 if v2(n) = tau and tau <= e+1, else (2h,t)/t
      (-1, odd)  0 if (v2(n) = tau and tau != e+1)
                   or (v2(n) >= tau+1 and tau >= e+1), else (2h,t)/t
    and 0 whenever t does not divide n.
    """
    n, h, t = sc.n, sc.h, sc.t
    if n % t:
        return Fraction(0)
    tau, e = arith.v2(t), arith.v2(h)
    v2n = arith.v2(n)
    if sc.sign == 1:
        if sc.parity == "*":
            return Fraction(gcd(t, h), t)
        if sc.parity == "even":
            return Fraction(gcd(2 * h, t), t)
        return Fraction(2 * gcd(h, t), t) - Fraction(gcd(2 * h, t), t)
    if sc.parity == "*":
        if v2n == tau and tau <= e:
            return Fraction(0)
        return Fraction(gcd(t, h), t)
    if sc.parity == "even":
        if v2n == tau and tau <= e + 1:
            return Fraction(0)
        return Fraction(gcd(2 * h, t), t)
    if (v2n == tau and tau != e + 1) or (v2n >= tau + 1 and tau >= e + 1):
        return Fraction(0)
    return Fraction(gcd(2 * h, t), t)


def sigma_closed_linear(n: int, h: int, t: int) -> Fraction:
    """Closed form for sigma on G^h: (h,t) phi(n/t)/n if (n/t, h_t) = 1 else 0."""
    if n % t:
        raise DomainError("need t | n")
    h_t = h // gcd(h, t)
    q = n // t
    if gcd(q, h_t) != 1:
        return Fraction(0)
    return Fraction(gcd(h, t) * arith.euler_phi(arith.factor_int(q)), n)


# ---------------------------------------------------------------------------
# concrete-group weight oracles


@dataclass(frozen=True)
class WeightCheck:
    """Outcome of checking the weight formulas against one (g, p, t).

    ok demands both identities: the exact-index one,
    sigma == w * mu_factor, and the divisible-index one, rho == r / t_h.
    """

    g: Rational
    p: int
    t: int
    sigma_direct: Fraction
    w: int
    mu_factor: Fraction
    rho_direct: Fraction
    r: int
    ok: bool


@dataclass(frozen=True)
class _BaseWeights:
    """A base over counted primes: (disc/p), and w(g,m;p), r(g,m;p) for every m | some p-1."""

    g: Rational
    dec: GDecomposition
    primes: np.ndarray
    leg: np.ndarray
    w: dict[int, np.ndarray]
    r: dict[int, np.ndarray]


def _base_weights(g: Rational, primes: np.ndarray) -> _BaseWeights:
    """(disc/p) as the sweep reads it, from the kernel run on g's root, and the weights."""
    dec = decompose_g(g)
    pm1 = primes - 1
    base = arith.build_prime_table(max(2, isqrt(int(pm1[-1])))).primes
    leg = empirical._shard_indexes(empirical._root(dec), primes, empirical._factor_shard(pm1, base))[1]
    ms = {m for n in pm1.tolist() for m in arith.divisors(arith.factor_int(n))}
    w, r = {}, {}
    for m in ms:
        pa = derive_params(dec, m)
        w[m] = heuristic.weights_w_vec(dec, pa, pm1, leg)
        r[m] = heuristic.weights_r_vec(dec, pa, pm1, leg)
    return _BaseWeights(g=g, dec=dec, primes=primes, leg=leg, w=w, r=r)


@dataclass(frozen=True)
class _GroupContext:
    """(Z/pZ)* for one base: the index histogram of g's class, and w, r at every m | p-1."""

    g: Rational
    dec: GDecomposition
    p: int
    indexes: _ClassIndexes
    w: dict[int, int]
    r: dict[int, int]


def _smallest_primitive_root(p: int, fac_pm1: arith.Factorization) -> int:
    qs = [q for q, _ in fac_pm1.factors]
    for cand in range(2, p):
        if all(pow(cand, (p - 1) // q, p) != 1 for q in qs):
            return cand
    raise LemmaViolation(f"no primitive root found mod {p}")


def _dlogs(p: int, root: int, targets: tuple[int, ...]) -> dict[int, int]:
    want = set(targets)
    out: dict[int, int] = {}
    x = 1
    for a in range(p - 1):
        if x in want and x not in out:
            out[x] = a
            if len(out) == len(want):
                break
        x = x * root % p
    missing = want - out.keys()
    if missing:
        raise LemmaViolation(f"elements {missing} not generated mod {p}")
    return out


def _group_context(base: _BaseWeights, i: int) -> _GroupContext:
    """Locate the class of g mod the i-th prime of base by discrete logs over the
    smallest primitive root: (disc/p) must match the parity of dlog(g0), and
    g itself must land in the class."""
    g, dec = base.g, base.dec
    p = int(base.primes[i])
    n = p - 1
    fac = arith.factor_int(n)
    root = _smallest_primitive_root(p, fac)
    g0_mod, g_mod = (x.numerator * pow(x.denominator, -1, p) % p for x in (dec.g0, g))
    logs = _dlogs(p, root, (g0_mod, g_mod))
    leg = int(base.leg[i])
    if (leg == 1) != (logs[g0_mod] % 2 == 0):
        raise LemmaViolation(f"(disc/p) does not match the parity of dlog(g0) at p={p}, g={g}")
    parity = "even" if leg == 1 else "odd"
    off, step = _class_progression(n, dec.h, dec.sign, parity)
    if (logs[g_mod] - off) % step:
        raise LemmaViolation(f"g={g} mod {p} is not in its predicted class")
    divs = arith.divisors(fac)
    return _GroupContext(
        g=g,
        dec=dec,
        p=p,
        indexes=_class_indexes(n, dec.h, dec.sign, parity),
        w={m: int(base.w[m][i]) for m in divs},
        r={m: int(base.r[m][i]) for m in divs},
    )


def _weight_check(ctx: _GroupContext, t: int) -> WeightCheck:
    """sigma(index = t) == w(g,t;p) (h,t) phi((p-1)/t)/(p-1) and rho(t | index) == r(g,t;p)/t_h."""
    n = ctx.p - 1
    pa = derive_params(ctx.dec, t)
    sig, rho_direct = ctx.indexes.sigma_direct(t), ctx.indexes.rho(t)
    mu_factor = Fraction(pa.gcd_ht * arith.euler_phi(arith.factor_int(n // t)), n)
    w, r = ctx.w[t], ctx.r[t]
    return WeightCheck(
        g=ctx.g,
        p=ctx.p,
        t=t,
        sigma_direct=sig,
        w=w,
        mu_factor=mu_factor,
        rho_direct=rho_direct,
        r=r,
        ok=sig == w * mu_factor and rho_direct == Fraction(r, pa.t_h),
    )


def _w_r_relations_hold(ctx: _GroupContext, t: int) -> bool:
    """Both Moebius relations between w and r at one (g, p, t), times p-1 (every m | p-1):

      sum_{d | (p-1)/t} mu(d) r(g,dt;p) (h,dt)/(dt)
          == w(g,t;p) (h,t) phi((p-1)/t)/(p-1)
    and
      r(g,t;p) == t_h * sum_{d | (p-1)/t} w(g,dt;p) (h,dt) phi((p-1)/(dt))/(p-1).
    """
    n = ctx.p - 1
    h = ctx.dec.h
    lhs = rhs = 0
    for d in arith.divisors(arith.factor_int(n // t)):
        m = d * t
        lhs += arith.moebius(arith.factor_int(d)) * ctx.r[m] * gcd(h, m) * (n // m)
        rhs += ctx.w[m] * gcd(h, m) * arith.euler_phi(arith.factor_int(n // m))
    pa = derive_params(ctx.dec, t)
    gevolg_ok = lhs == ctx.w[t] * pa.gcd_ht * arith.euler_phi(arith.factor_int(n // t))
    return gevolg_ok and ctx.r[t] * n == pa.t_h * rhs


# ---------------------------------------------------------------------------
# suites


@dataclass
class SuiteResult:
    name: str
    checks: int
    violations: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations


def indicator_suite(max_n: int) -> SuiteResult:
    """All three indicator routes agree for every n <= max_n, t | n, gamma."""
    if max_n < 1:
        raise DomainError(f"max_n must be >= 1, got {max_n}")
    res = SuiteResult(name="indicator", checks=0, violations=[])
    for n in range(1, max_n + 1):
        for t in arith.divisors(arith.factor_int(n)):
            try:
                f_def, f_ram, f_char = indicator_routes(n, t)
            except LemmaViolation as exc:
                res.violations.append(str(exc))
                continue
            if not (np.array_equal(f_def, f_ram) and np.array_equal(f_def, f_char)):
                res.violations.append(f"indicator routes disagree at n={n}, t={t}")
            res.checks += 3 * n
    return res


def remark_suite(max_n: int) -> SuiteResult:
    """sum_{ord chi = d} chi(gamma) == c_d(index(gamma)) for n <= max_n, d | n."""
    if max_n < 1:
        raise DomainError(f"max_n must be >= 1, got {max_n}")
    res = SuiteResult(name="character-ramanujan", checks=0, violations=[])
    for n in range(1, max_n + 1):
        idx = _indexes(n)
        for d in arith.divisors(arith.factor_int(n)):
            want = arith.ramanujan_table(d)[np.gcd(idx, d)]
            if np.max(np.abs(_character_sums(n, d) - want)) > 1e-6:
                res.violations.append(f"character sum != ramanujan sum at n={n}, d={d}")
            res.checks += n
    return res


def rho_sigma_suite(max_n: int, max_h: int = 8) -> SuiteResult:
    """Enumerated coset densities match every closed form on the full grid."""
    if min(max_n, max_h) < 1:
        raise DomainError(f"max_n and max_h must be >= 1, got {max_n} and {max_h}")
    res = SuiteResult(name="coset-density", checks=0, violations=[])
    for n in range(1, max_n + 1):
        divs = arith.divisors(arith.factor_int(n))
        for h in range(1, max_h + 1):
            for sign in (1, -1):
                if sign < 0 and n % 2:
                    continue
                for parity in PARITIES:
                    ci = _class_indexes(n, h, sign, parity)
                    for t in divs:
                        sc = GroupScenario(n=n, h=h, t=t, sign=sign, parity=parity)
                        if ci.rho(t) != rho_closed(sc):
                            res.violations.append(f"rho mismatch at {sc}")
                        sig_d = ci.sigma_direct(t)
                        if sig_d != ci.sigma_moebius(t):
                            res.violations.append(f"sigma routes disagree at {sc}")
                        if sign == 1 and parity == "*" and sig_d != sigma_closed_linear(n, h, t):
                            res.violations.append(f"sigma closed form fails at {sc}")
                        res.checks += 3
    return res


def weight_oracle_suite(gs, max_p: int) -> SuiteResult:
    """Weight formulas versus coset counts for every counted p <= max_p, t <= MAX_T.

    For each base: sigma == w * mu and rho == r / t_h on the concrete
    group, plus both Moebius relations between w and r (the one expressing
    r uses the t_h factor as a multiplier, which the enumeration forces).
    """
    if max_p < 3:
        raise DomainError(f"max_p must be >= 3, got {max_p}")
    res = SuiteResult(name="weight-oracle", checks=0, violations=[])
    primes = [p for p in range(3, max_p + 1) if arith.is_prime(p)]
    for g in gs:
        bad = excluded_primes(g)
        counted = [p for p in primes if p not in bad]
        if not counted:
            raise DomainError(f"base {g} has no counted prime <= {max_p}")
        base = _base_weights(g, np.array(counted, dtype=np.int64))
        for i, p in enumerate(base.primes.tolist()):
            try:
                ctx = _group_context(base, i)
            except LemmaViolation as exc:
                res.violations.append(str(exc))
                continue
            for t in arith.divisors(arith.factor_int(p - 1)):
                if t > MAX_T:
                    break
                check = _weight_check(ctx, t)
                if not check.ok:
                    res.violations.append(
                        f"weight formulas disagree with counting at g={g}, p={p}, t={t}: "
                        f"sigma={check.sigma_direct} vs w*mu={check.w * check.mu_factor}, "
                        f"rho={check.rho_direct} vs r/t_h={check.r}/t_h"
                    )
                if not _w_r_relations_hold(ctx, t):
                    res.violations.append(f"w/r Moebius relations fail at g={g}, p={p}, t={t}")
                res.checks += 3
    return res
