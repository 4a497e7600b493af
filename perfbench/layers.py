"""Per-layer metrics from the spans and counters that trace_child.py writes.

A payload is one traced command: ``spans`` is a list of
[name, start_s, end_s, parent_index] and ``counters`` maps metric names to
values taken from the wrapped calls' results.  A span's self time is its
duration minus its children's.  A layer the workload never reaches reads 0.

Which end-to-end metric each layer should move, and where:
  arith.*      wall_s and peak_rss_mb on count-1e7, a little on matrix-1e6
  empirical.*  wall_s on matrix-1e6 and count-1e7 (the split check on count-1e7 only)
  density.*    wall_s and peak_rss_mb on verify-density
  oracle.*     wall_s on verify-density
  cli.self_s   setup_s and wall_s everywhere
"""

from __future__ import annotations

import statistics

# metric -> the span whose summed duration it reports
SPAN_TIMES = {
    "arith.build_prime_table_s": "arith.build_prime_table",
    "arith.totient_sieve_s": "arith.totient_sieve",
    "arith.moebius_sieve_s": "arith.moebius_sieve",
    "arith.log_integral_s": "arith.log_integral",
    "empirical.sweep_s": "empirical.sweep",
    "empirical.verify_split_criterion_s": "empirical.verify_split_criterion",
    "heuristic.m_from_counts_s": "heuristic.m_from_counts",
    "density.artin_density_A_s": "density.artin_density_A",
    "density.artin_constant_s": "density.artin_constant",
    "density.kummer_degree_s": "density.kummer_degree",
    "oracle.indicator_suite_s": "oracle.indicator_suite",
    "oracle.remark_suite_s": "oracle.remark_suite",
    "oracle.rho_sigma_suite_s": "oracle.rho_sigma_suite",
    "oracle.weight_oracle_suite_s": "oracle.weight_oracle_suite",
}
SELF_TIMES = {"empirical.sweep_self_s": "empirical.sweep", "cli.self_s": "cli.main"}
CALLS = {"empirical.sweep.calls": "empirical.sweep", "density.artin_density_A.calls": "density.artin_density_A"}
# counters written by trace_child.py, summed over an iteration's commands
SUMMED = (
    "arith.primes",
    "empirical.sweep.counted_primes",
    "empirical.split_checks",
    "heuristic.identity_failures",
    "oracle.checks",
    "oracle.violations",
)
# array sizes (bytes computed from shapes, not measured), largest over the commands
MAXED = ("arith.spf_bytes", "arith.phi_bytes")

PER_LAYER = {
    **{name: "s" for name in SPAN_TIMES},
    **{name: "s" for name in SELF_TIMES},
    **{name: "count" for name in CALLS},
    **{name: "count" for name in SUMMED},
    **{name: "B_computed" for name in MAXED},
    "empirical.sweep.primes_per_s": "1/s",
    "empirical.sweep.thread_speedup": "ratio",
    "trace.overhead_s": "s",
}

EMPTY_PAYLOAD = {"spans": [], "counters": {}, "post_main_s": 0.0}


def _durations(spans) -> list[float]:
    return [end - start for _, start, end, _ in spans]


def self_durations(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    full = _durations(spans)
    own = list(full)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent is not None:
            own[parent] -= full[i]
    return own


def self_times(payloads) -> dict[str, float]:
    """Self time summed per span name over all payloads."""
    out: dict[str, float] = {}
    for p in payloads:
        for (name, *_), own in zip(p["spans"], self_durations(p["spans"])):
            out[name] = out.get(name, 0.0) + own
    return out


def layer_metrics(payloads, overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric for one traced iteration (one payload per command)."""
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for p in payloads:
        for (name, *_), dur in zip(p["spans"], _durations(p["spans"])):
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
    own = self_times(payloads)
    out: dict[str, float] = {}
    out.update({m: total.get(span, 0.0) for m, span in SPAN_TIMES.items()})
    out.update({m: own.get(span, 0.0) for m, span in SELF_TIMES.items()})
    out.update({m: calls.get(span, 0) for m, span in CALLS.items()})
    out.update({m: sum(p["counters"].get(m, 0) for p in payloads) for m in SUMMED})
    out.update({m: max((p["counters"].get(m, 0) for p in payloads), default=0) for m in MAXED})
    sweep_s = out["empirical.sweep_s"]
    out["empirical.sweep.primes_per_s"] = out["empirical.sweep.counted_primes"] / sweep_s if sweep_s else 0.0
    speedups = [p["counters"]["empirical.sweep.thread_speedup"] for p in payloads
                if "empirical.sweep.thread_speedup" in p["counters"]]
    out["empirical.sweep.thread_speedup"] = statistics.median(speedups) if speedups else 0.0
    out["trace.overhead_s"] = overhead_s
    return out
