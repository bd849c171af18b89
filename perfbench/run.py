"""adagof benchmark: one workload per run, measured untraced or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The seed makes the workload's inputs.  The run repeats
the workload's operations, closed loop with one caller, until ``--seconds``
have passed and each has run at least once, then checks every output and
prints, one per line, the provenance, the digests, the operation accounting
and each metric with its unit.  The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` gives the end-to-end metrics.  Their times are thread CPU
times stated at a fixed reference speed by ``speed.SpeedProbe``: the shared
host's cores drift in speed by up to a factor of two, and the probe's fixed
kernel, run every 20 ms of CPU time while the measured code runs, tracks
that drift.  Every timed operation runs on one thread and opens no pool.

* ``setup_s``: median, over this process and two fresh ones, of the CPU
  time from interpreter start to the end of set-up (importing ``adagof``,
  making the inputs from the seed and, for the decisions workload,
  calibrating its two tables), at the reference speed;
* ``replicates_per_s``: Monte Carlo replicates drawn and evaluated (or
  samples decided) per second at the reference speed.  A workload has a
  fixed list of distinct operations, each repeated as often as the run
  allows; the figure is the replicates of one pass over the list over the
  sum of each operation's median time;
* ``peak_rss_mb``: peak resident memory of this process, read before the
  output checks run.

``replicates_per_s`` in raw thread CPU time, each process's set-up time and
the probe's kernel time are printed as ``note`` lines.

``--trace 1`` alternates untraced and traced operations and gives the
per-layer metrics of ``tracing.LAYER_METRICS``, the pools a pooled T2
table opens, the pool start-up cost and the tracing overhead (traced minus
untraced wall time per operation).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3


def import_package():
    """Import ``adagof`` from this checkout's sources, never from elsewhere."""
    if not (SRC / "adagof" / "__init__.py").is_file():
        sys.exit(f"error: no adagof sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import adagof

    if Path(adagof.__file__).resolve().parent != SRC / "adagof":
        sys.exit(f"error: imported adagof from {adagof.__file__}, not from {SRC}")
    return adagof


def timed_setup(name: str, seed: int):
    """Import the package and the workload, then set the workload up.
    Returns the set-up time (thread CPU time since the interpreter started,
    at the reference speed), the speed probe, the workload and its state."""
    before_probe = time.thread_time()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from speed import SpeedProbe

    probe = SpeedProbe()
    with probe.measure() as setup:
        import_package()
        from workloads import WORKLOADS

        workload = WORKLOADS[name]
        state = workload.setup(seed)
    return (before_probe + setup.net_s) * setup.scale(), probe, workload, state


def fresh_setup_s(name: str, seed: int) -> float:
    """Set-up time measured in a new interpreter, as a user pays it."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_ops(workload, state, seconds: float, tracer=None, probe=None):
    """Closed loop with one caller, until ``seconds`` have passed and every
    distinct operation has run at least once.  With a tracer, operations
    alternate untraced and traced; with a probe, untraced operations are
    measured by it.  Returns the wall times (s) of the untraced and of the
    traced operations, per distinct operation the probe's measurements of
    its untraced repetitions, and the replicates each distinct operation
    draws."""
    untraced, traced = [], []
    measured: dict[int, list] = {}
    units: dict[int, int] = {}
    seen = set()
    deadline = time.perf_counter() + seconds
    i = 0
    while (
        time.perf_counter() < deadline
        or len(seen) < workload.distinct_ops
        or (tracer is not None and not traced)
    ):
        key = i % workload.distinct_ops
        trace_this = tracer is not None and i % 2 == 1
        if trace_this:
            tracer.install()
        measurement = probe.measure() if probe is not None and not trace_this else contextlib.nullcontext()
        t0 = time.perf_counter()
        with measurement:
            try:
                out = workload.run_op(state, i)
            except Exception as exc:  # a failed operation is counted, not fatal
                out = exc
        wall = time.perf_counter() - t0
        if trace_this:
            tracer.uninstall()
        replicates = workload.collect(state, out)
        seen.add(key)
        if trace_this:
            traced.append(wall)
        else:
            untraced.append(wall)
            if probe is not None:
                measured.setdefault(key, []).append(measurement)
            units[key] = replicates
        i += 1
    return untraced, traced, measured, units


def replicates_per_s(times: dict[int, list[float]], units: dict[int, int]) -> float:
    """Replicates of one pass over the distinct operations, over the sum of
    each operation's median time (s)."""
    return sum(units[k] for k in times) / sum(statistics.median(t) for t in times.values())


def tail(values: list[float]) -> tuple[float, float]:
    """The highest of the 90th, 99th and 99.9th percentiles with at least
    ten samples beyond it (nearest rank), or (nan, nan) if none has."""
    ordered = sorted(values)
    best = (float("nan"), float("nan"))
    for p in (90.0, 99.0, 99.9):
        rank = -(-len(ordered) * p // 100)  # ceil
        if len(ordered) - rank >= 10:
            best = (p, ordered[int(rank) - 1])
    return best


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def provenance(workload, args) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "budgets": workload.budgets,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="print one set-up time and exit")
    args = parser.parse_args(argv)

    setup_s, probe, workload, state = timed_setup(args.workload, args.seed)
    if args.setup_only:
        print(repr(setup_s))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    untraced, traced, measured, units = run_ops(
        workload, state, args.seconds, tracer, None if args.trace else probe
    )
    rss = peak_rss_mb()
    check = workload.check(state)

    print("provenance " + json.dumps(provenance(workload, args), sort_keys=True))
    for name, digest in check.digests.items():
        print(f"digest {name} {digest}")
    for note in check.notes:
        print(f"note {note}")
    for error in check.errors[:20]:
        print(f"error {error}")
    print(f"failed_op_share {check.failed_op_share!r} ({check.failed} failed of {check.attempted} attempted)")

    if args.trace:
        from tracing import layer_metrics, pool_start_ms

        metrics = layer_metrics(tracer, traced, untraced, check.pools_opened)
        metrics["harness.pool_start_ms"] = (pool_start_ms(), "ms")
    else:
        latencies = {"op": untraced, **getattr(workload, "latencies", lambda st: {})(state)}
        for name, values in latencies.items():
            p, tail_s = tail(values)
            tail_text = f"{name}_p{p:g}_us {1e6 * tail_s!r}" if tail_s == tail_s else "no tail (under 11 samples)"
            print(f"latency {name}_p50_us {1e6 * statistics.median(values)!r} {tail_text} n={len(values)}")
        from speed import REFERENCE_S

        kernel_s = probe.kernel_s()
        normalized = {k: [m.normalized(kernel_s) for m in ms] for k, ms in measured.items()}
        raw = {k: [m.net_s for m in ms] for k, ms in measured.items()}
        print(f"note probe kernel median {1e6 * kernel_s!r} us, reference {1e6 * REFERENCE_S!r} us")
        print(f"note replicates_per_s in raw thread CPU time {replicates_per_s(raw, units)!r} 1/s")
        setups = [setup_s] + [fresh_setup_s(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        print(f"note setup_s of each process {setups!r}")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "replicates_per_s": (replicates_per_s(normalized, units), "1/s"),
            "peak_rss_mb": (rss, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(json.dumps({
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
