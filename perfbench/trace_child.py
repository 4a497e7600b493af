"""Run one resindex CLI command in this process, with spans around its layers.

    python3 perfbench/trace_child.py SPANS.json CLI_ARGS...

The coarse public entry points the CLI reaches are replaced, as module
attributes, by wrappers that record a span (name, start, end, parent) and
take counters from the call's result; nothing under src/ changes.
Per-prime helpers (jacobi, pow) are not wrapped, so a command records only
a few hundred spans.  Spans stay in memory and are written to SPANS.json
when the command has ended.  After it, with the wrappers removed, the
child checks H = M and 0 <= N <= R <= pi(x;t,1) for every sweep, and
reruns the first sweep at the other thread count to get the speed-up.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

import layers
from resindex import arith, cli, density, empirical, heuristic, oracle

ENTRY_POINTS = (
    (arith, ("build_prime_table", "totient_sieve", "moebius_sieve", "log_integral")),
    (empirical, ("sweep", "verify_split_criterion")),
    (heuristic, ("m_from_counts",)),
    (density, ("artin_density_A", "artin_constant", "kummer_degree")),
    (oracle, ("indicator_suite", "remark_suite", "rho_sigma_suite", "weight_oracle_suite")),
    (cli, ("main",)),
)


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.sweeps: list[tuple] = []  # (span index, args, kwargs, result) of each sweep
        self._lock = threading.Lock()
        self._stacks = threading.local()
        self._originals: list[tuple] = []

    def install(self) -> None:
        for module, names in ENTRY_POINTS:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is not None:
                    self._originals.append((module, attr, fn))
                    setattr(module, attr, self._wrap(f"{layer}.{attr}", fn))

    def uninstall(self) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stacks.__dict__.setdefault("stack", [])
            with self._lock:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, stack[-1] if stack else None])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][1:3] = start, time.perf_counter()
                stack.pop()
            self._count(name, index, args, kwargs, result)
            return result

        return traced

    def _add(self, key: str, value) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _max(self, key: str, value) -> None:
        self.counters[key] = max(self.counters.get(key, 0), value)

    def _count(self, name, index, args, kwargs, result) -> None:
        if name == "arith.build_prime_table":
            self._add("arith.primes", len(result.primes))
            self._max("arith.spf_bytes", 0 if result.spf is None else result.spf.nbytes)
        elif name == "arith.totient_sieve":
            self._max("arith.phi_bytes", (result if result.base is None else result.base).nbytes)
        elif name == "empirical.sweep":
            self._add("empirical.sweep.counted_primes", result.counted)
            self.sweeps.append((index, args, kwargs, result))
        elif name == "empirical.verify_split_criterion":
            self._add("empirical.split_checks", result)
        elif name.startswith("oracle."):
            self._add("oracle.checks", result.checks)
            self._add("oracle.violations", len(result.violations))


def identity_failures(sweeps) -> int:
    """(g, t) pairs where H != M exactly or 0 <= N <= R <= pi(x;t,1) fails."""
    failures = 0
    for _, _, _, sw in sweeps:
        for t in sw.ts:
            if sw.H(t) != sw.M(t) or not 0 <= sw.N[t] <= sw.R[t] <= sw.pi[t]:
                failures += 1
    return failures


def thread_speedup(rec: Recorder) -> float | None:
    """Sweep time at threads=1 over threads=2 on the first sweep's input.

    The traced sweep's self time (its phi sieve is a child span) is set
    against an untraced rerun at the other thread count, whose phi sieve is
    already cached.
    """
    if not rec.sweeps:
        return None
    index, args, kwargs, _ = rec.sweeps[0]
    other = 1 if kwargs.get("threads", 1) > 1 else 2
    start = time.perf_counter()
    empirical.sweep(*args, **{**kwargs, "threads": other})
    rerun = time.perf_counter() - start
    traced = layers.self_durations(rec.spans)[index]
    return rerun / traced if other == 1 else traced / rerun


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    rec = Recorder()
    rec.install()
    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        main_end = time.perf_counter()
        rec.uninstall()
        rec.counters["heuristic.identity_failures"] = identity_failures(rec.sweeps)
        speedup = thread_speedup(rec)
        if speedup is not None:
            rec.counters["empirical.sweep.thread_speedup"] = speedup
        payload = {"spans": rec.spans, "counters": rec.counters, "post_main_s": time.perf_counter() - main_end}
        with open(spans_path, "w") as fh:
            json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
