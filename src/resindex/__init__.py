"""Residual indices of a rational base modulo primes.

Exact counts of the primes p <= x whose residual index
r_g(p) = [(Z/pZ)* : <g mod p>] equals (or is divisible by) t, the
quadratic heuristic weights that predict those counts, Kummer-degree
densities, and exhaustive finite-group oracles for every identity in
between.
"""

from .arith import (
    Factorization,
    PrimeTable,
    build_prime_table,
    euler_phi,
    factor_int,
    log_integral,
    moebius,
    ramanujan_sum,
)
from .decompose import (
    GDecomposition,
    HeuristicParams,
    Rational,
    decompose_g,
    derive_params,
    parse_g,
    quadratic_discriminant,
)
from .density import DegreeResult, artin_constant, artin_density_A, kummer_degree
from .empirical import (
    ResidualIndexOutcome,
    count_progression,
    count_split_quadratic,
    residual_index,
    sweep,
    verify_split_criterion,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeResult",
    "Factorization",
    "GDecomposition",
    "HeuristicParams",
    "PrimeTable",
    "Rational",
    "ResidualIndexOutcome",
    "artin_constant",
    "artin_density_A",
    "build_prime_table",
    "count_progression",
    "count_split_quadratic",
    "decompose_g",
    "derive_params",
    "euler_phi",
    "factor_int",
    "kummer_degree",
    "log_integral",
    "moebius",
    "parse_g",
    "quadratic_discriminant",
    "ramanujan_sum",
    "residual_index",
    "sweep",
    "verify_split_criterion",
]
