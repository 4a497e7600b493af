"""Residual indices of a rational base modulo primes.

Exact counts of the primes p <= x whose residual index
r_g(p) = [(Z/pZ)* : <g mod p>] equals (or is divisible by) t, the
quadratic heuristic weights that predict those counts, Kummer-degree
densities, and exhaustive finite-group oracles for every identity in
between.

Each public name is imported from its module on first use, so importing
the package loads no numpy; the modules that build arrays load it.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULES = {
    "DegreeResult": "density",
    "Factorization": "arith",
    "GDecomposition": "decompose",
    "HeuristicParams": "decompose",
    "PrimeTable": "arith",
    "Rational": "decompose",
    "artin_constant": "density",
    "artin_density_A": "density",
    "build_prime_table": "arith",
    "decompose_g": "decompose",
    "derive_params": "decompose",
    "euler_phi": "arith",
    "factor_int": "arith",
    "kummer_degree": "density",
    "log_integral": "arith",
    "moebius": "arith",
    "parse_g": "decompose",
    "quadratic_discriminant": "decompose",
    "ramanujan_sum": "arith",
    "sweep": "empirical",
    "sweeps": "empirical",
}

__all__ = sorted(_MODULES)


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULES[name]}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value
