"""Layered benchmark of the compass engine.

    python3 perfbench/run.py --workload script-mix --seed 20141011 --seconds 30 --trace 0

Workloads (all closed loops with one client, single process, no threads):

* ``script-mix``   a generated DSL script through lex, parse, interpret,
                   trace dump and load, and SVG render; 1 in 20 is malformed
                   and must raise the expected ScriptError subclass.
* ``oracle-fuzz``  one ``fuzz.run_op`` call per item, round-robin over
                   ``fuzz.OPS``; throughput counts fuzz cases.
* ``deep-witness`` interior inversion with d/r down to 1e-3, or a
                   ``field_ops`` add/double/mul/conj/neg chain.

A run builds a seeded pool of fixed work, sized so that PASSES passes over
it take about ``--seconds`` on a 2-core x86-64 VM, and times every item in
each pass. Times are scaled to reference machine speed (see
KERNEL_NOMINAL_S), and an item's time is its median over the passes. Every
output is checked against the oracles (untimed) and must be bit-identical in
every pass. The first pass also writes the deterministic count ledger to
``.perfbench/``.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs items with
span wrappers installed for half of ``--seconds``, runs the same items again
untraced, prints the per-layer metrics and the tracing overhead, and writes
the spans to ``.perfbench/``.
``--workload all`` runs every workload, each in a fresh process.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 1 if any
output check failed, 2 if the engine source is missing.

The default seed is ``DEFAULT_SEED``; a claim made on it must also hold on
``HELDOUT_SEED``, which is kept out of tuning.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

DEFAULT_SEED = 20141011
HELDOUT_SEED = 1410
SETUP_REPEATS = 11
PROBE_ATTEMPTS = 3
PASSES = 5  # timed passes over the pool; an item's time is its median

# Speed normalisation. The benchmark shares its machine with other tenants,
# whose load moves the speed of the whole machine by 20-40 % over seconds to
# minutes; a per-item median cannot remove a slowdown that lasts a whole run.
# So the run also times a fixed engine-free kernel between items, and every
# item time it reports is scaled by KERNEL_NOMINAL_S over the median of the
# kernel samples taken around it: times read as on the reference machine (a
# 2-core x86-64 VM, Python 3.11), where the factor is about 1 when it is
# quiet. The raw values and the factors are printed with every run.
KERNEL_NOMINAL_S = 0.0025
KERNEL_EVERY_S = 0.05  # item seconds between two kernel samples
KERNEL_WINDOW = 2      # kernel samples on each side that scale a segment
WORKLOAD_NAMES = ("script-mix", "oracle-fuzz", "deep-witness")

END_TO_END_UNITS = {
    "items_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "circles_per_item": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def probe_setup() -> float:
    """One fresh-process setup probe. A probe that cannot start or is
    killed by the shared host is retried after a pause (PROBE_ATTEMPTS in
    all); it never measures engine output, so a retry hides no wrong result."""
    for attempt in range(1, PROBE_ATTEMPTS + 1):
        try:
            proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                                  capture_output=True, text=True, timeout=30, cwd=ROOT)
            if proc.returncode == 0:
                return float(proc.stdout.split()[-1])
            problem = f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        except (OSError, subprocess.TimeoutExpired) as err:
            problem = f"{type(err).__name__}: {err}"
        print(f"perfbench: setup probe attempt {attempt} failed, {problem}", file=sys.stderr)
        sleep(attempt)
    raise RuntimeError(f"setup probe failed {PROBE_ATTEMPTS} times")


def measure_setup() -> tuple[list[float], float]:
    """Seconds to import compass and warm its caches, each in a fresh
    process, and the speed factor of the kernel run between the probes."""
    times, kernel = [], []
    for _ in range(SETUP_REPEATS):
        kernel.append(kernel_seconds())
        times.append(probe_setup())
    kernel.append(kernel_seconds())
    return times, speed_factor(kernel)


def kernel_seconds() -> float:
    """Time one run of the speed kernel: small-tuple float work and a dict
    build, like the engine's inner loops but sharing no code with it."""
    start = perf_counter()
    points = []
    total = 0.0
    for i in range(3000):
        x = (i * 0.6180339887) % 1.0
        y = (i * 0.4142135623) % 1.0
        p = (x, y, math.hypot(x - 0.5, y - 0.5))
        points.append(p)
        total += p[2]
    index = {p: k for k, p in enumerate(points)}
    if len(index) != len(points) or not total > 0.0:
        raise RuntimeError("speed kernel computed a wrong result")
    return perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """Multiply a measured time by this to read it at reference speed."""
    return KERNEL_NOMINAL_S / statistics.median(samples)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    eleventh-largest sample. Returns (seconds, percentile, sample count)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


class Run:
    """One workload and seed: a pool of fixed work, timed item by item."""

    def __init__(self, workload, seed: int, seconds: float):
        self.wl = workload
        self.pool = workload.make_pool(seed, seconds / PASSES)
        self.reference: list = [None] * len(self.pool)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def execute(self, i: int, tracer=None, finished=None) -> float:
        """Run item i, check it against the oracles (untimed) and against its
        first run (bit for bit); return its wall time in seconds."""
        item = self.pool[i]
        if tracer is None:
            start = perf_counter()
            raw = self.wl.run(item)
            seconds = perf_counter() - start
        else:
            tracer.begin_item()
            raw = self.wl.run(item)
            seconds = tracer.end_item()
        outcome = self.wl.check(item, raw)
        if finished is not None:
            finished.add(self.wl, raw, outcome, tracer)
        first = self.reference[i]
        if first is None:
            self.reference[i] = outcome
        elif outcome.ok and outcome.coords != first.coords:
            outcome.ok = False
            outcome.problem = "output differs from the item's first run"
        self.attempted += 1
        if not outcome.ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"item {i}: {outcome.problem}")
        return seconds

    def timed_passes(self) -> tuple[list[float], list[float], list[float]]:
        """PASSES passes over the pool. Returns each item's median time at
        reference speed and as measured, and each pass's speed factor."""
        times = [[] for _ in self.pool]
        raw = [[] for _ in self.pool]
        factors = []
        for _ in range(PASSES):
            # segment k holds the items run between kernel samples k and k + 1
            kernel, segment = [kernel_seconds()], []
            since = 0.0
            for i in range(len(self.pool)):
                seconds = self.execute(i)
                segment.append(len(kernel) - 1)
                raw[i].append(seconds)
                times[i].append(seconds)
                since += seconds
                if since >= KERNEL_EVERY_S:
                    kernel.append(kernel_seconds())
                    since = 0.0
            kernel.append(kernel_seconds())
            local = [speed_factor(kernel[max(0, k - KERNEL_WINDOW + 1):k + KERNEL_WINDOW + 1])
                     for k in range(len(kernel) - 1)]
            for item_times, k in zip(times, segment):
                item_times[-1] *= local[k]
            factors.append(speed_factor(kernel))
        return ([statistics.median(t) for t in times], [statistics.median(t) for t in raw],
                factors)

    def items_per_s(self, latencies: list[float]) -> float:
        return len(latencies) * self.wl.units_per_item / sum(latencies)


def end_to_end(run: Run, latencies: list[float], raw: list[float], factors: list[float],
               setup: list[float], setup_factor: float) -> tuple[dict, list[str]]:
    ref = run.reference
    built = [o for o in ref if o.steps]
    tail_s, pct, n = tail(latencies)
    values = {
        "items_per_s": run.items_per_s(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "circles_per_item": sum(o.circles for o in built) / (len(built) * run.wl.units_per_item),
        "setup_s": statistics.median(setup) * setup_factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        f"latency_tail_ms is p{pct:.3f} of {n} samples (10 beyond it); each sample "
        f"is one item's median over {PASSES} passes",
        f"max_err {max(o.err for o in ref)!r} (worst oracle error over the pool)",
        f"error_rate {run.failed / run.attempted:.6g} ({run.failed} of {run.attempted} items)",
        f"setup_s median of {len(setup)} fresh processes, raw: "
        + ", ".join(f"{t:.4f}" for t in setup) + f"; speed factor {setup_factor:.4f}",
        "speed factor per pass: " + ", ".join(f"{f:.4f}" for f in factors)
        + f"; raw items_per_s {run.items_per_s(raw):.6g}, latency_p50_ms "
        f"{statistics.median(raw) * 1e3:.6g}, latency_tail_ms {tail(raw)[0] * 1e3:.6g}",
    ]
    return values, notes


def run_one(args) -> int:
    if not (SRC / "compass" / "__init__.py").is_file():
        print(f"perfbench: engine source not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import compass

    if Path(compass.__file__).resolve().parent != SRC / "compass":
        print(f"perfbench: compass resolved to {compass.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import ledger
    import setup_probe
    import tracing
    from workloads import WORKLOADS

    setup, setup_factor = measure_setup()
    setup_probe.warm()
    run = Run(WORKLOADS[args.workload](), args.seed, args.seconds)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} loop=closed clients=1 pool={len(run.pool)}")
    OUT.mkdir(exist_ok=True)
    if not args.trace:
        latencies, raw, factors = run.timed_passes()
        values, notes = end_to_end(run, latencies, raw, factors, setup, setup_factor)
        units = END_TO_END_UNITS
        book = ledger.ledger(args.workload, args.seed, run.reference, run.wl.units_per_item)
        path = OUT / f"ledger-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(book, indent=1, sort_keys=True) + "\n")
        notes.append(f"ledger in {path.relative_to(ROOT)}: circles {book['circles']}, steps "
                     f"{book['steps']}, picks {book['picks']} over {book['pool_items']} items; "
                     f"outputs {book['output_digest'][:16]}")
    else:
        tracer = tracing.Tracer()
        finished = tracing.Finished()
        traced = []
        start = perf_counter()
        with tracer.installed():
            while len(traced) < len(run.pool) and (
                    not traced or perf_counter() - start < args.seconds / 2):
                traced.append(run.execute(len(traced), tracer, finished))
        # the same items again without tracing; also checks the wrappers
        # left every output bit-identical
        untraced = [run.execute(i) for i in range(len(traced))]
        overhead = sum(untraced) / sum(traced)
        metrics = tracing.per_layer(tracer, finished, overhead,
                                    max(run.reference[i].err for i in range(len(traced))))
        values = {k: v for k, (v, _) in metrics.items()}
        units = {k: u for k, (_, u) in metrics.items()}
        spans = OUT / f"spans-{args.workload}-{args.seed}.json"
        tracer.write_spans(spans, {"workload": args.workload, "seed": args.seed})
        notes = [f"tracing overhead: traced items_per_s / untraced = {overhead:.4f} "
                 f"over {len(traced)} items; spans in {spans.relative_to(ROOT)}",
                 f"largest (sum of layer self times - item wall time) over the items: "
                 f"{tracer.worst_self_excess:.3g} s"]
        if tracer.worst_self_excess > 1e-9:
            run.failed += 1
            run.problems.append("layer self times exceed an item's wall time")

    for name, value in values.items():
        print(f"  {name:<52} {value!r:>24} {units[name]}")
    for line in notes:
        print(f"  # {line}")
    for problem in run.problems:
        print(f"  FAIL {problem}")
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if run.failed == 0 else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        status = max(status, proc.returncode)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
