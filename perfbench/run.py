#!/usr/bin/env python3
"""The resindex benchmark: cold-process CLI workloads with checked outputs.

    python3 perfbench/run.py --workload matrix-1e6 --seed 1 --seconds 36 --trace 0

Run it from the root of a checkout; it imports resindex from ``src/``.
Every CLI command runs in a fresh interpreter, because a user pays the cold
cost (prime table, phi/mu sieves, caches) on every call.  One client runs
the commands one at a time, back to back (closed loop), and each child uses
at most two threads.  Each output is checked against references.json; a
nonzero exit or a mismatch counts as a failed command.

``--trace 0`` runs whole iterations of the workload (its command list) for
``--seconds``, starting one only if it should end in time, and reports the
end-to-end metrics as medians over iterations.
``--trace 1`` runs one untraced and one traced iteration (trace_child.py)
and reports the per-layer metrics of layers.py.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  The line
before it carries informational fields (src_lines, error_rate, samples).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# The `resindex` console script, run from the checkout's sources.
ENTRY = "import sys; from resindex.cli import main; sys.exit(main())"
SETUP_PROBE = "import time, resindex.cli; print(repr(time.perf_counter()))"
SETUP_SAMPLES = 4
SETUP_SAMPLES_PER_ITERATION = 2
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Run:
    """One finished child process."""

    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # numpy's BLAS pool would add threads; the CLI's own --threads is the only parallelism
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], timeout_s: float = CHILD_TIMEOUT_S) -> tuple[Run, float]:
    """Run ``python3 args...`` in the checkout; returns the run and its start time.

    wait4 reaps the child and gives its own rusage (CPU time, peak RSS).  A
    child still running after timeout_s is killed and reaped.
    """
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        run = Run(
            returncode=proc.returncode,
            stdout=out.read().decode(errors="replace"),
            stderr=err.read().decode(errors="replace"),
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            maxrss_mb=usage.ru_maxrss / 1024.0,
        )
    return run, start


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter to the end of `import resindex.cli`.

    perf_counter reads CLOCK_MONOTONIC on Linux, one clock for every process,
    so the child's reading can be set against the parent's.
    """
    run, start = spawn(["-c", SETUP_PROBE])
    if run.returncode != 0:
        raise RuntimeError(f"import resindex.cli failed:\n{run.stderr}")
    return float(run.stdout) - start


class Tally:
    """Commands attempted and failed, with the first few failure reasons."""

    def __init__(self, refs: dict):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, cmd: workloads.Command, run: Run) -> None:
        self.attempted += 1
        problems = workloads.check(cmd, run.returncode, run.stdout, self.refs)
        if problems:
            self.failed += 1
            self.problems += problems[:3]
            if run.returncode != 0:
                self.problems.append(run.stderr.strip()[-500:])


def run_iteration(cmds, tally: Tally, trace_dir: Path | None = None) -> list[Run]:
    """Run each command once, in order; traced through trace_child.py when trace_dir is set."""
    runs = []
    for i, cmd in enumerate(cmds):
        if trace_dir is None:
            args = ["-c", ENTRY, *cmd.argv]
        else:
            args = [str(HERE / "trace_child.py"), str(trace_dir / f"spans-{i}.json"), *cmd.argv]
        run, _ = spawn(args)
        tally.record(cmd, run)
        runs.append(run)
    return runs


def end_to_end_metrics(iterations: list[list[Run]], setups: list[float]) -> dict:
    return {
        "wall_s": statistics.median(sum(r.wall_s for r in it) for it in iterations),
        "cpu_s": statistics.median(sum(r.cpu_s for r in it) for it in iterations),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r.maxrss_mb for it in iterations for r in it),
    }


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "resindex").rglob("*.py")))


def build() -> None:
    """Byte-compile the sources, as an install would, and make the output directory."""
    OUT.mkdir(exist_ok=True)
    done = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "resindex")], cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError("compileall failed")


def measure(workload: str, seed: int, seconds: int) -> tuple[dict, Tally, dict]:
    cmds = workloads.commands(workload, seed)
    tally = Tally(workloads.load_references())
    deadline = time.perf_counter() + seconds
    # set-up samples are spread over the run, so a passing slow spell of the host skews few of them
    setups = [measure_setup() for _ in range(SETUP_SAMPLES)]
    iterations = []
    while True:
        start = time.perf_counter()
        iterations.append(run_iteration(cmds, tally))
        setups += [measure_setup() for _ in range(SETUP_SAMPLES_PER_ITERATION)]
        now = time.perf_counter()
        if now + (now - start) > deadline:  # the next iteration would likely end late
            break
    metrics = end_to_end_metrics(iterations, setups)
    info = {
        "iteration_wall_s": [sum(r.wall_s for r in it) for it in iterations],
        "setup_samples_s": setups,
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, tally, info


def measure_traced(workload: str, seed: int) -> tuple[dict, Tally, dict]:
    cmds = workloads.commands(workload, seed)
    tally = Tally(workloads.load_references())
    plain = run_iteration(cmds, tally)
    trace_dir = Path(tempfile.mkdtemp(prefix="trace-", dir=OUT))
    traced = run_iteration(cmds, tally, trace_dir)
    payloads = []
    for i in range(len(cmds)):
        path = trace_dir / f"spans-{i}.json"
        payloads.append(json.loads(path.read_text()) if path.exists() else layers.EMPTY_PAYLOAD)
        path.unlink(missing_ok=True)
    trace_dir.rmdir()
    # the traced child's own post-command work (identity checks, thread rerun) is not overhead
    traced_wall = sum(r.wall_s - p["post_main_s"] for r, p in zip(traced, payloads))
    overhead = traced_wall - sum(r.wall_s for r in plain)
    metrics = layers.layer_metrics(payloads, overhead)
    trace_file = OUT / f"trace-{workload}-seed{seed}.json"
    trace_file.write_text(json.dumps([{"argv": c.argv, **p} for c, p in zip(cmds, payloads)]))
    info = {"trace_file": str(trace_file.relative_to(ROOT)), "self_s": layers.self_times(payloads)}
    return {k: (v, layers.PER_LAYER[k]) for k, v in metrics.items()}, tally, info


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "resindex" / "cli.py").is_file():
        print(f"error: no resindex sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    # a terminated benchmark still kills and reaps the child it is waiting for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    build()
    if args.trace:
        metrics, tally, info = measure_traced(args.workload, args.seed)
    else:
        metrics, tally, info = measure(args.workload, args.seed, args.seconds)
    info.update(
        workload=args.workload,
        seed=args.seed,
        commands=[" ".join(c.argv) for c in workloads.commands(args.workload, args.seed)],
        src_lines=src_lines(),
        error_rate=tally.failed / tally.attempted,
        problems=tally.problems[:20],
    )
    print(json.dumps({"info": info}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
