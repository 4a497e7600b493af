"""Exhaustive finite-group oracles for every identity the package relies on.

Cyclic groups of order n are modeled additively as exponents 0..n-1 of a
fixed generator; the index of an element a is gcd(a, n) and the unique
element of order 2 (when n is even) is n/2.  Density statements are then
counting statements over arithmetic progressions of exponents, so every
density here is an exact Fraction obtained by enumeration, with the closed
forms kept separately for comparison.

The weight oracles map a concrete base g and prime p onto such a group via
a discrete-log table over the smallest primitive root, and check the weight
formulas against literal coset counts in (Z/pZ)*.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from . import arith, heuristic
from .decompose import Rational, decompose_g, derive_params, excluded_primes
from .errors import DomainError, LemmaViolation

PARITIES = ("*", "even", "odd")


@dataclass(frozen=True)
class CyclicGroup:
    """C_n in exponent form; index(a) = gcd(a, n), so index(0) = n."""

    n: int

    def index(self, a: int) -> int:
        return gcd(a % self.n, self.n) or self.n

    def exponents(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.int64)


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


def class_exponents(sc: GroupScenario) -> np.ndarray:
    """Exponents of the scenario's class, an arithmetic progression mod n."""
    step = gcd(sc.h, sc.n) if sc.parity == "*" else gcd(2 * sc.h, sc.n)
    off = 0 if sc.parity in ("*", "even") else sc.h % step
    if sc.sign < 0:
        off = (off + sc.n // 2) % step
    return np.arange(off, sc.n, step, dtype=np.int64)


# ---------------------------------------------------------------------------
# the divisibility indicator through three routes


def _character_sum_of_order(n: int, d: int, gamma: int) -> complex:
    """sum over characters chi of order exactly d of chi(gamma) on C_n."""
    total = 0j
    base = n // d
    for u in range(1, d + 1):
        if gcd(u, d) == 1:
            j = base * u
            total += cmath.exp(2j * cmath.pi * j * gamma / n)
    return total


def indicator_f(gamma: int, t: int, n: int, mode: str) -> int:
    """1 when t divides the index of gamma in C_n, else 0.

    mode 'definition' tests t | gcd(gamma, n) directly; 'ramanujan' uses
    (1/t) sum_{d|t} c_d(index); 'characters' evaluates the literal complex
    character sum (1/t) sum_{d|t} sum_{ord chi = d} chi(gamma) and rounds.
    """
    if t < 1 or n < 1 or n % t:
        raise DomainError(f"need t | n, got t={t}, n={n}")
    gamma %= n
    if mode == "definition":
        return int((gcd(gamma, n) or n) % t == 0)
    if mode == "ramanujan":
        idx = gcd(gamma, n) or n
        total = sum(arith.ramanujan_sum(d, idx) for d in range(1, t + 1) if t % d == 0)
        if total % t:
            raise LemmaViolation(f"ramanujan indicator not integral at n={n}, t={t}, gamma={gamma}")
        return total // t
    if mode == "characters":
        total = sum(
            _character_sum_of_order(n, d, gamma) for d in range(1, t + 1) if t % d == 0
        )
        val = total.real / t
        nearest = round(val)
        if abs(total.imag) > 1e-6 * t or abs(val - nearest) > 1e-6:
            raise LemmaViolation(f"character indicator not near an integer at n={n}, t={t}")
        return int(nearest)
    raise DomainError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# coset densities: enumeration and closed forms


def rho(sc: GroupScenario) -> Fraction:
    """Fraction of the scenario's class with t-divisible index, by counting."""
    if sc.n % sc.t:
        return Fraction(0)
    cls = class_exponents(sc)
    return Fraction(int((cls % sc.t == 0).sum()), cls.size)


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


def sigma(sc: GroupScenario, mode: str = "direct") -> Fraction:
    """Fraction of the class with index exactly t.

    mode 'direct' counts gcd(a, n) == t over the class; 'moebius' computes
    sum_{d | n/t} mu(d) rho(scenario at dt).
    """
    if sc.n % sc.t:
        raise DomainError(f"need t | n, got t={sc.t}, n={sc.n}")
    if mode == "direct":
        cls = class_exponents(sc)
        idx = np.gcd(cls, sc.n)
        idx[cls == 0] = sc.n
        return Fraction(int((idx == sc.t).sum()), cls.size)
    if mode == "moebius":
        q = sc.n // sc.t
        total = Fraction(0)
        for d in range(1, q + 1):
            if q % d == 0:
                md = arith.moebius(arith.factor_int(d))
                if md:
                    total += md * rho(GroupScenario(sc.n, sc.h, d * sc.t, sc.sign, sc.parity))
        return total
    raise DomainError(f"unknown mode {mode!r}")


def sigma_closed_linear(n: int, h: int, t: int) -> Fraction:
    """Closed form for sigma on G^h: (h,t) phi(n/t)/n if (n/t, h_t) = 1 else 0."""
    if n % t:
        raise DomainError("need t | n")
    h_t = h // gcd(h, t)
    q = n // t
    if gcd(q, h_t) != 1:
        return Fraction(0)
    return Fraction(gcd(h, t) * arith.euler_phi(arith.factor_int(q)), n)


def moebius_inversion_check(t: int, n: int, sigma1) -> bool:
    """Both directions of Moebius inversion on the multiples of t dividing n.

    With sigma2(m) := sum_{d | n/m} mu(d) sigma1(dm), checks
    sigma1(m) == sum_{d | n/m} sigma2(dm) for every multiple m of t
    dividing n.
    """
    if n % t:
        raise DomainError("need t | n")
    mults = [m for m in range(t, n + 1, t) if n % m == 0]
    sigma2 = {}
    for m in mults:
        q = n // m
        total = Fraction(0)
        for d in range(1, q + 1):
            if q % d == 0:
                md = arith.moebius(arith.factor_int(d))
                if md:
                    total += md * Fraction(sigma1(d * m))
        sigma2[m] = total
    for m in mults:
        q = n // m
        back = sum((sigma2[d * m] for d in range(1, q + 1) if q % d == 0), Fraction(0))
        if back != Fraction(sigma1(m)):
            return False
    return True


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


def _smallest_primitive_root(p: int, fac_pm1: arith.Factorization) -> int:
    n = p - 1
    qs = [q for q, _ in fac_pm1.factors]
    for cand in range(2, p):
        if all(pow(cand, n // q, p) != 1 for q in qs):
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


def verify_sigma_equals_w_mu(g: Rational, p: int, t: int) -> WeightCheck:
    """Check the weight formulas against literal counts in (Z/pZ)*.

    The class of g (sign and quadratic-residue parity of g0) is located
    through the discrete log over the smallest primitive root; then
    sigma(class, index = t) must equal w(g,t;p) * (h,t) phi((p-1)/t)/(p-1)
    and rho(class, t | index) must equal r(g,t;p) / t_h.
    """
    if not arith.is_prime(p) or p == 2:
        raise DomainError(f"p={p} must be an odd prime")
    if p in excluded_primes(g):
        raise DomainError(f"p={p} is excluded for g={g}")
    n = p - 1
    if n % t:
        raise DomainError(f"need t | p-1, got t={t}, p={p}")
    dec = decompose_g(g)
    params = derive_params(dec, t)
    fac = arith.factor_int(n)
    root = _smallest_primitive_root(p, fac)
    g0_mod = dec.g0.numerator % p * pow(dec.g0.denominator, -1, p) % p
    g_mod = abs(g.numerator) % p * pow(g.denominator, -1, p) % p
    if dec.sign < 0:
        g_mod = (p - g_mod) % p
    logs = _dlogs(p, root, (g0_mod, g_mod))
    a = logs[g0_mod]
    leg = arith.kronecker_symbol(dec.disc, p)
    if (leg == 1) != (a % 2 == 0):
        raise LemmaViolation(f"(disc/p) does not match the parity of dlog(g0) at p={p}, g={g}")
    sc = GroupScenario(n=n, h=dec.h, t=t, sign=dec.sign, parity="even" if leg == 1 else "odd")
    # the reduction of g itself must land in the scenario's class
    cls = class_exponents(sc)
    step = int(cls[1] - cls[0]) if cls.size > 1 else n
    if (logs[g_mod] - int(cls[0])) % step:
        raise LemmaViolation(f"g={g} mod {p} is not in its predicted class")
    sig = sigma(sc, "direct")
    w = int(heuristic.weights_w_vec(dec, params, n, leg))
    r = int(heuristic.weights_r_vec(dec, params, n, leg))
    mu_factor = Fraction(params.gcd_ht * arith.euler_phi(arith.factor_int(n // t)), n)
    rho_direct = rho(sc)
    return WeightCheck(
        g=g,
        p=p,
        t=t,
        sigma_direct=sig,
        w=w,
        mu_factor=mu_factor,
        rho_direct=rho_direct,
        r=r,
        ok=sig == w * mu_factor and rho_direct == Fraction(r, params.t_h),
    )


def verify_w_r_relations(g: Rational, p: int, t: int) -> bool:
    """Exact Moebius relations tying the two weights together at one prime.

    Checks
      sum_{d | (p-1)/t} mu(d) r(g,dt;p) (h,dt)/(dt)
          == w(g,t;p) (h,t) phi((p-1)/t)/(p-1)
    and
      r(g,t;p) == t_h * sum_{d | (p-1)/t} w(g,dt;p) (h,dt) phi((p-1)/(dt))/(p-1).
    """
    dec = decompose_g(g)
    n = p - 1
    if n % t:
        raise DomainError("need t | p-1")
    leg = arith.kronecker_symbol(dec.disc, p)

    def w(m: int) -> int:
        return int(heuristic.weights_w_vec(dec, derive_params(dec, m), n, leg))

    def r(m: int) -> int:
        return int(heuristic.weights_r_vec(dec, derive_params(dec, m), n, leg))

    q = n // t
    divs = [d for d in range(1, q + 1) if q % d == 0]
    lhs = Fraction(0)
    rhs_sum = Fraction(0)
    for d in divs:
        md = arith.moebius(arith.factor_int(d))
        if md:
            lhs += Fraction(md * r(d * t) * gcd(dec.h, d * t), d * t)
        rhs_sum += Fraction(
            w(d * t) * gcd(dec.h, d * t) * arith.euler_phi(arith.factor_int(n // (d * t))),
            n,
        )
    pa = derive_params(dec, t)
    gevolg_ok = lhs == Fraction(w(t) * pa.gcd_ht * arith.euler_phi(arith.factor_int(q)), n)
    r_from_w_ok = r(t) == pa.t_h * rhs_sum
    return gevolg_ok and r_from_w_ok


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

    def raise_on_failure(self) -> None:
        if self.violations:
            raise LemmaViolation(f"{self.name}: {self.violations[0]} (+{len(self.violations) - 1} more)")


def indicator_suite(max_n: int) -> SuiteResult:
    """All three indicator routes agree for every n <= max_n, t | n, gamma."""
    res = SuiteResult(name="indicator", checks=0, violations=[])
    for n in range(1, max_n + 1):
        gammas = np.arange(n, dtype=np.int64)
        idx = np.gcd(gammas, n)
        idx[0] = n
        omega = np.exp(2j * np.pi * gammas / n)
        for t in range(1, n + 1):
            if n % t:
                continue
            f_def = (idx % t == 0).astype(np.int64)
            total = np.zeros(n, dtype=np.int64)
            char = np.zeros(n, dtype=np.complex128)
            for d in range(1, t + 1):
                if t % d == 0:
                    total += arith.ramanujan_table(d)[np.gcd(idx, d)]
                    base = n // d
                    for u in range(1, d + 1):
                        if gcd(u, d) == 1:
                            char += omega[(base * u * gammas) % n]
            if np.any(total % t):
                res.violations.append(f"ramanujan route not integral at n={n}, t={t}")
                continue
            f_ram = total // t
            f_char = np.round(char.real / t).astype(np.int64)
            if np.max(np.abs(char.real / t - f_char)) > 1e-6 or np.max(np.abs(char.imag)) > 1e-6 * t:
                res.violations.append(f"character route drifted at n={n}, t={t}")
            if not (np.array_equal(f_def, f_ram) and np.array_equal(f_def, f_char)):
                res.violations.append(f"indicator routes disagree at n={n}, t={t}")
            res.checks += 3 * n
    return res


def remark_suite(max_n: int) -> SuiteResult:
    """sum_{ord chi = d} chi(gamma) == c_d(index(gamma)) for n <= max_n, d | n."""
    res = SuiteResult(name="character-ramanujan", checks=0, violations=[])
    for n in range(1, max_n + 1):
        gammas = np.arange(n, dtype=np.int64)
        idx = np.gcd(gammas, n)
        idx[0] = n
        omega = np.exp(2j * np.pi * gammas / n)
        for d in range(1, n + 1):
            if n % d:
                continue
            char = np.zeros(n, dtype=np.complex128)
            base = n // d
            for u in range(1, d + 1):
                if gcd(u, d) == 1:
                    char += omega[(base * u * gammas) % n]
            want = arith.ramanujan_table(d)[np.gcd(idx, d)]
            if np.max(np.abs(char - want)) > 1e-6:
                res.violations.append(f"character sum != ramanujan sum at n={n}, d={d}")
            res.checks += n
    return res


def rho_sigma_suite(max_n: int, max_h: int = 8) -> SuiteResult:
    """Enumerated coset densities match every closed form on the full grid."""
    res = SuiteResult(name="coset-density", checks=0, violations=[])
    for n in range(1, max_n + 1):
        divs = [t for t in range(1, n + 1) if n % t == 0]
        for h in range(1, max_h + 1):
            for sign in (1, -1):
                if sign < 0 and n % 2:
                    continue
                for parity in PARITIES:
                    for t in divs:
                        sc = GroupScenario(n=n, h=h, t=t, sign=sign, parity=parity)
                        enum = rho(sc)
                        if enum != rho_closed(sc):
                            res.violations.append(f"rho mismatch at {sc}")
                        sig_d = sigma(sc, "direct")
                        if sig_d != sigma(sc, "moebius"):
                            res.violations.append(f"sigma routes disagree at {sc}")
                        if sign == 1 and parity == "*" and sig_d != sigma_closed_linear(n, h, t):
                            res.violations.append(f"sigma closed form fails at {sc}")
                        res.checks += 3
    return res


def weight_oracle_suite(gs, max_p: int, max_t: int = 24) -> SuiteResult:
    """Weight formulas versus coset counts for every counted p <= max_p.

    For each base: sigma == w * mu and rho == r / t_h on the concrete
    group, plus both Moebius relations between w and r (the one expressing
    r uses the t_h factor as a multiplier, which the enumeration forces).
    """
    res = SuiteResult(name="weight-oracle", checks=0, violations=[])
    primes = [p for p in range(3, max_p + 1) if arith.is_prime(p)]
    for g in gs:
        bad = excluded_primes(g)
        for p in primes:
            if p in bad:
                continue
            n = p - 1
            for t in range(1, min(max_t, n) + 1):
                if n % t:
                    continue
                try:
                    check = verify_sigma_equals_w_mu(g, p, t)
                    if not check.ok:
                        res.violations.append(
                            f"weight formulas disagree with counting at g={g}, p={p}, t={t}: "
                            f"sigma={check.sigma_direct} vs w*mu={check.w * check.mu_factor}, "
                            f"rho={check.rho_direct} vs r/t_h={check.r}/t_h"
                        )
                    if not verify_w_r_relations(g, p, t):
                        res.violations.append(f"w/r Moebius relations fail at g={g}, p={p}, t={t}")
                except LemmaViolation as exc:
                    res.violations.append(str(exc))
                res.checks += 3
    return res
