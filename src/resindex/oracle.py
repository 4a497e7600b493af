"""Exhaustive finite-group oracles for every identity the package relies on.

Cyclic groups of order n are modeled additively as exponents 0..n-1 of a
fixed generator; the index of an element a is gcd(a, n), so the identity
has index n, and the unique element of order 2 (when n is even) is n/2.
Every index divides n, so each suite works on the divisor lattice of n
(_lattice, cached per n): the divisors t, the divisibility matrix
[t_i | t_j], the Moebius matrix mu(t_j/t_i) and phi(n/t).  The character
suites read one table per n with a row per d | n (_character_table):
c_d(index(gamma)) and the sum of the characters of order d, one FFT of
the units' indicator [gcd(u, d) = 1] (_character_sums).  That route reads
nothing from arith, so it stays independent of the Ramanujan route
(Hoelder's formula over factor_int).  The remark suite compares the rows;
the indicator suite sums the rows d | t for every t | n in one product.
Its Ramanujan route certifies the identity sum over d | k of c_d(r) =
k [k | r] from which the sweep reads its L and Q columns.
Each coset class is enumerated into one histogram of indexes
(_class_indexes); the coset suite stacks a group's histograms over (h,
class), so rho = hist @ divides.T, sigma = rho @ mob.T and each closed
form are one array over (h, class, t), compared as cross-multiplied
integers.  The weight oracle takes the primes in its outer loop: each p
gets one primitive root and one discrete-log table (_dlog_table, baby and
giant steps), shared by all the bases, which locate their classes in
(Z/pZ)* and check, for every t | p-1 up to MAX_T, the weights and (disc/p)
that the sweep itself computes against that class's histogram; (disc/p)
comes from the sweep's own kernel run on the base's root
(empirical._shard_indexes).  The four suites are the only way in: each
runs its checks over a whole grid and returns them as one SuiteResult.
check_sizes refuses up front, as the suites do, a size that checks
nothing or exceeds its bound (_MAX_N, _MAX_H, _MAX_P).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

import numpy as np

from . import arith, empirical, heuristic
from .decompose import GDecomposition, Rational, decompose_g, derive_params, excluded_primes
from .errors import DomainError, LemmaViolation, check_range

PARITIES = ("*", "even", "odd")

# largest t the weight oracle checks at each prime
MAX_T = 24

# Each character suite takes one FFT per divisor d of every n <= max_n, the
# coset suite one enumeration per class (up to 6 * max_n * max_h), and the
# weight oracle one discrete-log table per prime p <= max_p and one class
# per (base, p): at these bounds the four suites take 0.7-0.9, 0.3,
# 1.6-2.3 and 1.3-1.8 s in process (2 vCPUs, Python 3.11, numpy 2.4).
_MAX_N = 1000
_MAX_H = 64
_MAX_P = 10**4


# maxsize=1: each suite takes its group orders one at a time, so all classes of C_n share one enumeration
@lru_cache(maxsize=1)
def _indexes(n: int) -> np.ndarray:
    """index(gamma) = gcd(gamma, n) for gamma = 0..n-1, with index(0) = gcd(0, n) = n."""
    idx = np.gcd(np.arange(n, dtype=np.int64), n)
    idx.flags.writeable = False  # shared by every class of C_n through the cache
    return idx


# ---------------------------------------------------------------------------
# the divisor lattice: one character row per divisor, one index histogram per class


@dataclass(frozen=True)
class _Lattice:
    """The divisors t of n, ascending, with divides[i, j] = [t_i | t_j],
    mob[i, j] = mu(t_j/t_i) where t_i | t_j (else 0) and phi[i] = phi(n/t_i)."""

    divs: np.ndarray
    divides: np.ndarray
    mob: np.ndarray
    phi: np.ndarray


# n <= max(_MAX_N, _MAX_P - 1) bounds the cache: about 16 MiB for every p - 1, p <= _MAX_P
@lru_cache(maxsize=None)
def _lattice(n: int) -> _Lattice:
    fac = arith.factor_int(n)
    divs = np.array(arith.divisors(fac), dtype=np.int64)
    quot = divs[None, :] // divs[:, None]
    divides = (quot * divs[:, None] == divs[None, :]).astype(np.int64)
    mob, phi = divides.copy(), n // divs
    for q, _ in fac:
        mob[quot % (q * q) == 0] = 0
        mob[quot % q == 0] *= -1
        phi = np.where(phi % q == 0, phi // q * (q - 1), phi)
    lat = _Lattice(divs=divs, divides=divides, mob=mob, phi=phi)
    for a in (divs, divides, mob, phi):
        a.flags.writeable = False  # shared by every caller through the cache
    return lat


def _character_sums(d: int) -> np.ndarray:
    """s[k] = sum over the characters chi of order exactly d of chi(gamma) for gamma = k mod d,
    k = 0..d-1.  chi_u(gamma) = zeta_d^(u * gamma) for the units u mod d, so s is the discrete
    Fourier transform of the units' indicator [gcd(u, d) = 1], one FFT for every k at once; the
    units are closed under u -> -u, so the sign convention of the transform does not matter.
    Its only input is gcd(u, d) = 1, nothing from arith, so this route stays independent of
    the Ramanujan route (Hoelder's formula over factor_int)."""
    return np.fft.fft(np.gcd(np.arange(d), d) == 1)


def _character_table(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(ram, char) over the divisors d of n, the rows of _lattice(n), and gamma = 0..n-1:
    ram[i] = c_d(index(gamma)) and char[i] = sum_{ord chi = d} chi(gamma)."""
    divs, gammas = _lattice(n).divs.tolist(), np.arange(n)  # gcd(gamma, d) = gcd(index(gamma), d)
    ram, char = np.empty((len(divs), n), dtype=np.int64), np.empty((len(divs), n), dtype=np.complex128)
    for i, d in enumerate(divs):
        ram[i] = arith.ramanujan_table(d)[np.gcd(gammas, d)]
        char[i] = _character_sums(d)[gammas % d]
    return ram, char


def _class_progression(n: int, h: int, sign: int, parity: str) -> tuple[int, int]:
    """(offset, step) of the exponents of {sign * gamma^(parity)h} in C_n."""
    step = gcd(h, n) if parity == "*" else gcd(2 * h, n)
    off = 0 if parity in ("*", "even") else h % step
    if sign < 0:
        off = (off + n // 2) % step
    return off, step


def _class_indexes(n: int, h: int, sign: int, parity: str) -> np.ndarray:
    """hist[i]: the elements of the class {sign * gamma^(parity)h} in C_n of index
    the i-th divisor of n (the enumeration: one bincount of its indexes)."""
    off, step = _class_progression(n, h, sign, parity)
    return np.bincount(_indexes(n)[off::step], minlength=n + 1)[_lattice(n).divs]


def rho_closed(n: int, h: int | np.ndarray, sign: int, parity: str) -> np.ndarray:
    """t * rho at every divisor t of n: the closed forms of the coset densities.

    rho is the share of the class {sign * gamma^(parity)h} in C_n whose index
    t divides.  h is an int or a column of them (one row per h).  With
    tau = v2(t), e = v2(h) and n the group order:
      (+1, *)    (t,h)/t
      (+1, even) (2h,t)/t
      (+1, odd)  2(h,t)/t - (2h,t)/t
      (-1, *)    0 if v2(n) = tau and tau <= e, else (t,h)/t
      (-1, even) 0 if v2(n) = tau and tau <= e+1, else (2h,t)/t
      (-1, odd)  0 if (v2(n) = tau and tau != e+1)
                   or (v2(n) >= tau+1 and tau >= e+1), else (2h,t)/t
    """
    t = _lattice(n).divs
    ht, h2t = np.gcd(h, t), np.gcd(2 * h, t)
    if sign == 1:
        return {"*": ht, "even": h2t, "odd": 2 * ht - h2t}[parity]
    # frexp of a power of two 2^k is exact: k + 1
    tau, e, v2n = np.frexp(t & -t)[1] - 1, np.frexp(h & -h)[1] - 1, arith.v2(n)
    if parity == "*":
        return np.where((v2n == tau) & (tau <= e), 0, ht)
    if parity == "even":
        return np.where((v2n == tau) & (tau <= e + 1), 0, h2t)
    return np.where(((v2n == tau) & (tau != e + 1)) | ((v2n >= tau + 1) & (tau >= e + 1)), 0, h2t)


def sigma_closed_linear(n: int, h: int | np.ndarray) -> np.ndarray:
    """n * sigma on G^h at every divisor t of n: (h,t) phi(n/t) if (n/t, h_t) = 1, else 0;
    h is an int or a column of them (one row per h)."""
    lat = _lattice(n)
    ht = np.gcd(h, lat.divs)
    return np.where(np.gcd(n // lat.divs, h // ht) == 1, ht * lat.phi, 0)


# ---------------------------------------------------------------------------
# concrete-group weight oracles


def _smallest_primitive_root(p: int, fac_pm1: arith.Factorization) -> int:
    qs = [q for q, _ in fac_pm1]
    for cand in range(2, p):
        if all(pow(cand, (p - 1) // q, p) != 1 for q in qs):
            return cand
    raise LemmaViolation(f"no primitive root found mod {p}")


# maxsize=1: weight_oracle_suite visits each prime once, for all of its bases
@lru_cache(maxsize=1)
def _dlog_table(p: int) -> np.ndarray:
    """log[x] = the discrete log of x = 1..p-1 to the smallest primitive root mod p (log[0] = -1).

    sqrt(p) baby steps root^j and sqrt(p) giant steps root^(m i), m = ceil(sqrt(p-1)), as
    Python ints; their products mod p, one int64 outer product (exact: each factor is below
    p <= _MAX_P), are root^(m i + j) in row-major order."""
    n = p - 1
    root = _smallest_primitive_root(p, arith.factor_int(n))
    m = isqrt(n - 1) + 1
    baby = np.array([pow(root, j, p) for j in range(m)])
    giant = np.array([pow(root, m * i, p) for i in range(-(-n // m))])
    log = np.full(p, -1, dtype=np.int64)
    log[(giant[:, None] * baby % p).ravel()[:n]] = np.arange(n)
    if np.any(log[1:] < 0):
        raise LemmaViolation(f"{root} does not generate (Z/{p}Z)*")
    log.flags.writeable = False  # shared by every base at p through the cache
    return log


def _locate_class(g: Rational, dec: GDecomposition, p: int, leg: int) -> np.ndarray:
    """The index histogram of g's class in (Z/pZ)*, located by discrete logs over
    the smallest primitive root: (disc/p) = leg must match the parity of
    dlog(g0), and g itself must land in the class."""
    n, log = p - 1, _dlog_table(p)
    log_g0, log_g = (int(log[x.numerator * pow(x.denominator, -1, p) % p]) for x in (dec.g0, g))
    if (leg == 1) != (log_g0 % 2 == 0):
        raise LemmaViolation(f"(disc/p) does not match the parity of dlog(g0) at p={p}, g={g}")
    parity = "even" if leg == 1 else "odd"
    off, step = _class_progression(n, dec.h, dec.sign, parity)
    if (log_g - off) % step:
        raise LemmaViolation(f"g={g} mod {p} is not in its predicted class")
    return _class_indexes(n, dec.h, dec.sign, parity)


def _weights(dec: GDecomposition, p: int, leg: int) -> tuple[np.ndarray, np.ndarray]:
    """w(g,m;p) and r(g,m;p) at every divisor m of p-1, from the case table the sweep runs."""
    pas = [derive_params(dec, m) for m in _lattice(p - 1).divs.tolist()]
    w, r = zip(*(heuristic.weights(dec, pa, p - 1, leg) for pa in pas))
    return np.array(w, dtype=np.int64), np.array(r, dtype=np.int64)


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


def _counted_primes(gs, max_p: int) -> list[np.ndarray]:
    """The counted primes p <= max_p of each base; a base with none checks nothing."""
    check_range("max_p", max_p, 3, _MAX_P)
    odd = arith.primes(max_p)[1:]
    out = []
    for g in gs:
        counted = odd[~np.isin(odd, [p for p in excluded_primes(g) if p <= max_p])]
        if not counted.size:
            raise DomainError(f"base {g} has no counted prime <= {max_p}")
        out.append(counted)
    return out


def check_sizes(max_n: int, max_h: int, gs, max_p: int) -> None:
    """Refuse, before any suite runs, what the suites would refuse at these sizes:
    a size that checks nothing, one above its bound, or a base with no
    counted prime <= max_p."""
    check_range("max_n", max_n, 1, _MAX_N)
    check_range("max_h", max_h, 1, _MAX_H)
    _counted_primes(gs, max_p)


_INDICATOR_FAILS = ("ramanujan route not integral", "character route drifted", "indicator routes disagree")


def indicator_suite(max_n: int) -> SuiteResult:
    """All three indicator routes agree for every n <= max_n, t | n, gamma: t | gcd(gamma, n),
    (1/t) sum_{d|t} c_d(index) and (1/t) sum_{d|t} sum_{ord chi = d} chi(gamma), the last two
    summed over the rows d | t of n's table, one product divides.T @ table for every t at once.
    A route not (near) integral at t checks nothing."""
    check_range("max_n", max_n, 1, _MAX_N)
    res = SuiteResult(name="indicator", checks=0, violations=[])
    for n in range(1, max_n + 1):
        lat = _lattice(n)
        col = lat.divs[:, None]
        ram, char = _character_table(n)
        f_ram, f_char = lat.divides.T @ ram, lat.divides.T @ char / col
        f_round = np.round(f_char.real)
        not_integral = np.any(f_ram % col, axis=1)
        drifted = ~not_integral & (
            (np.abs(f_char.real - f_round).max(axis=1) > 1e-6) | (np.abs(f_char.imag).max(axis=1) > 1e-6)
        )
        checked = ~not_integral & ~drifted
        f_def = _indexes(n) % col == 0
        disagree = checked & ~(np.all(f_def == f_ram // col, axis=1) & np.all(f_def == f_round, axis=1))
        # at most one failure per t, so argwhere lists them by t
        for j, k in np.argwhere(np.stack([not_integral, drifted, disagree], axis=1)).tolist():
            res.violations.append(f"{_INDICATOR_FAILS[k]} at n={n}, t={lat.divs[j]}")
        res.checks += 3 * n * int(checked.sum())
    return res


def remark_suite(max_n: int) -> SuiteResult:
    """sum_{ord chi = d} chi(gamma) == c_d(index(gamma)) for n <= max_n, d | n:
    n's character table against its Ramanujan table, row by row."""
    check_range("max_n", max_n, 1, _MAX_N)
    res = SuiteResult(name="character-ramanujan", checks=0, violations=[])
    for n in range(1, max_n + 1):
        divs = _lattice(n).divs
        ram, char = _character_table(n)
        bad = np.abs(char - ram).max(axis=1) > 1e-6
        res.violations.extend(f"character sum != ramanujan sum at n={n}, d={d}" for d in divs[bad].tolist())
        res.checks += n * divs.size
    return res


_DENSITY_FAILS = ("rho mismatch", "sigma routes disagree", "sigma closed form fails")


def rho_sigma_suite(max_n: int, max_h: int = 8) -> SuiteResult:
    """Enumerated coset densities match every closed form on the full grid.

    Per class and divisor t of n: rho against rho_closed, sigma against its
    Moebius inversion from rho and, on G^h itself, against sigma_closed_linear.
    Each n stacks its classes into one array over (h, class, t), so each
    route is one product or one closed form for every h at once.
    """
    check_range("max_n", max_n, 1, _MAX_N)
    check_range("max_h", max_h, 1, _MAX_H)
    res = SuiteResult(name="coset-density", checks=0, violations=[])
    hs = np.arange(1, max_h + 1)[:, None]
    for n in range(1, max_n + 1):
        lat = _lattice(n)
        classes = [(sign, parity) for sign in (1, -1) if sign > 0 or n % 2 == 0 for parity in PARITIES]
        hist = np.array([[_class_indexes(n, h, *c) for c in classes] for h in range(1, max_h + 1)])
        size = hist.sum(axis=2, keepdims=True)
        rho = hist @ lat.divides.T
        closed = np.stack([rho_closed(n, hs, *c) for c in classes], axis=1)
        linear = np.zeros(hist.shape, dtype=bool)
        linear[:, 0] = hist[:, 0] * n != sigma_closed_linear(n, hs) * size[:, 0]  # classes[0] is G^h
        bad = np.stack([rho * lat.divs != closed * size, rho @ lat.mob.T != hist, linear], axis=2)
        # argwhere walks (h, class, check, t) in the order the grid is listed
        for i, c, k, j in np.argwhere(bad).tolist():
            sign, parity = classes[c]
            res.violations.append(
                f"{_DENSITY_FAILS[k]} at n={n}, h={i + 1}, sign={sign}, parity={parity}, t={lat.divs[j]}"
            )
        res.checks += 3 * hist[..., 0].size * lat.divs.size
    return res


def weight_oracle_suite(gs, max_p: int) -> SuiteResult:
    """Weight formulas versus coset counts for every counted p <= max_p, t <= MAX_T.

    For each base: sigma == w * mu and rho == r / t_h on the concrete
    group, plus both Moebius relations between w and r (the one expressing
    r uses the t_h factor as a multiplier, which the enumeration forces):

      sum_{d | (p-1)/t} mu(d) r(g,dt;p) (h,dt)/(dt)
          == w(g,t;p) (h,t) phi((p-1)/t)/(p-1)
    and
      r(g,t;p) == t_h * sum_{d | (p-1)/t} w(g,dt;p) (h,dt) phi((p-1)/(dt))/(p-1).

    The primes are the outer loop, so every base at p reads one discrete-log
    table; the violations are still listed base by base.
    """
    res = SuiteResult(name="weight-oracle", checks=0, violations=[])
    bases, primes_of = [], _counted_primes(gs, max_p)
    base = arith.primes(isqrt(max_p))
    for g, primes in zip(gs, primes_of):
        dec = decompose_g(g)
        pm1 = primes - 1
        legs = empirical._shard_indexes(empirical._root(dec), primes, empirical._factor_shard(pm1, base))[1]
        bases.append((g, dec, dict(zip(primes.tolist(), legs.tolist())), []))
    for p in sorted(set(np.concatenate(primes_of).tolist())):  # np.unique would import numpy.ma
        n, lat = p - 1, _lattice(p - 1)
        k = int(np.searchsorted(lat.divs, MAX_T, side="right"))
        for g, dec, legs, violations in bases:
            if p not in legs:
                continue
            try:
                hist = _locate_class(g, dec, p, legs[p])
            except LemmaViolation as exc:
                violations.append(str(exc))
                continue
            w, r = _weights(dec, p, legs[p])
            ht = np.gcd(dec.h, lat.divs)
            t_h, size = lat.divs // ht, int(hist.sum())
            w_mu = w * ht * lat.phi  # (p-1) * w * mu
            rho = lat.divides @ hist
            counted = (hist * n == w_mu * size) & (rho * t_h == r * size)
            related = (lat.mob @ (r * ht * (n // lat.divs)) == w_mu) & (r * n == t_h * (lat.divides @ w_mu))
            for i in np.flatnonzero(~counted[:k]).tolist():
                violations.append(
                    f"weight formulas disagree with counting at g={g}, p={p}, t={lat.divs[i]}: "
                    f"sigma={hist[i]}/{size} vs w*mu={w_mu[i]}/{n}, rho={rho[i]}/{size} vs r/t_h={r[i]}/{t_h[i]}"
                )
            violations.extend(
                f"w/r Moebius relations fail at g={g}, p={p}, t={t}" for t in lat.divs[:k][~related[:k]].tolist()
            )
            res.checks += 3 * k
    for *_, violations in bases:
        res.violations.extend(violations)
    return res
