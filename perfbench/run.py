"""charflow benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload scenarios|refine|push|all --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; charflow is imported from ``src/``.  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
also runs the same operations under the tracer and reports per-layer metrics
instead.  Every operation is checked; any failure makes ``correct`` false and
the exit code 1.  ``--workload all`` runs the three workloads one after
another, each in its own process, and exits nonzero if any of them does.
See README.md beside this file.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 5  # fresh processes timed per run for setup_s
WORKLOAD_NAMES = ("scenarios", "refine", "push")

# One client on one thread.  OpenBLAS's own pool only contends for the cores
# on these small arrays (a 10,000-atom push ran 3.4 s with it and 2.6 s
# without on a 2-core Xeon) and makes timings depend on the neighbours' load.
# Set before numpy is first imported; set-up probes inherit it.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_seconds(args, cycles):
    """Median wall time of fresh processes that import charflow, validate
    the run's configs and generate its inputs."""
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               args.workload, str(args.seed), str(cycles)]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, timeout=120,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return statistics.median(times)


class Loop:
    """Closed-loop execution of a run's operations, one at a time."""

    def __init__(self, ops, refs, scratch):
        self.ops = ops
        self.refs = refs
        self.scratch = scratch
        self.attempted = 0
        self.failures = []

    def execute(self, index, label, runner=None, keep_bytes=False):
        """Run, time and check one operation; returns (seconds, bytes)."""
        op = self.ops[index]
        out_dir = os.path.join(self.scratch, f"{label}-{index}")
        blob, seconds = None, math.nan
        try:
            start = time.perf_counter()
            result = runner(index, lambda: op.run(out_dir)) if runner \
                else op.run(out_dir)
            seconds = time.perf_counter() - start
            errors = op.check(result, out_dir, self.refs)
            if keep_bytes:
                blob = op.output_bytes(result, out_dir)
        except Exception as err:  # a failed operation is counted, not fatal
            errors = [f"raised {type(err).__name__}: {err}"]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.verdict(f"{label} op {index} ({op.key})", errors)
        return seconds, blob

    def verdict(self, label, errors):
        """Count one attempted check; record it as failed if it has errors.
        Operations, the determinism comparison and the traced run's design
        checks each count once."""
        self.attempted += 1
        if errors:
            self.failures.append(f"{label}: " + "; ".join(errors[:3]))

    def timed_pass(self, label, runner=None, keep=()):
        """Every operation once; returns the times and the output bytes of
        the operations indexed in ``keep``."""
        times, kept = [], {}
        for index in range(len(self.ops)):
            seconds, blob = self.execute(index, label, runner,
                                         keep_bytes=index in keep)
            times.append(seconds)
            if index in keep:
                kept[index] = blob
        return times, kept


def _tail(times):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond); the maximum when there are fewer
    than eleven samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _machine():
    import numpy
    import scipy
    return (f"nproc {os.cpu_count()}, {platform.machine()}, Python "
            f"{platform.python_version()}, NumPy {numpy.__version__}, "
            f"SciPy {scipy.__version__}")


def _run_all(args):
    """Each workload in its own process, so each has its own peak RSS."""
    worst = 0
    for name in WORKLOAD_NAMES:
        print(f"## {name}", flush=True)
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT)
        worst = max(worst, done.returncode)
    return worst


def main(argv=None):
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not os.path.isfile(os.path.join(SRC, "charflow", "__init__.py")):
        print(f"charflow sources not found under {SRC}; run from the root "
              f"of a charflow checkout", file=sys.stderr)
        return 2
    os.environ.update(ONE_THREAD)
    sys.path[:0] = [SRC, HERE]
    from workloads import REFINE_RUNGS, WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.trace:
        # Per-layer figures need neither a tail percentile nor set-up time;
        # halving the cycles keeps the untraced plus traced passes about as
        # long as an untraced run.
        cycles = workload.cycles(args.seconds / 2, least_ops=1)
        setup_s = None
    else:
        cycles = workload.cycles(args.seconds)
        setup_s = _setup_seconds(args, cycles)
    seeds, ops = workload.setup(args.seed, cycles)
    refs = workload.load_refs()
    scratch = os.path.join(SCRATCH, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    loop = Loop(ops, refs, scratch)
    # The first cycle runs once untimed before the timed loop, which warms
    # lazy imports and caches for every kind, and again inside it; each of
    # its operations must write the same bytes both times.
    warm = range(workload.ops_per_cycle)
    try:
        first = {i: loop.execute(i, "warm", keep_bytes=True)[1] for i in warm}
        times, again = loop.timed_pass("loop", keep=warm)
        for i in warm:
            loop.verdict(
                f"determinism of op {i} ({ops[i].key})",
                [] if first[i] is not None and first[i] == again[i]
                else ["its two runs wrote different bytes"])
        if args.trace:
            from tracing import Tracer, design_errors
            tracer = Tracer()
            tracer.install()
            try:
                traced_times, _ = loop.timed_pass("traced", tracer.run_op)
            finally:
                tracer.uninstall()
            tracer.write(os.path.join(SCRATCH, f"trace-{args.workload}.csv"))
            layer = tracer.metrics()
            loop.verdict("design checks", design_errors(
                args.workload, layer, [op.kind for op in ops],
                rungs=REFINE_RUNGS))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    measured = [t for t in times if not math.isnan(t)]
    if not measured:
        print("every operation raised; nothing was measured", file=sys.stderr)
        for failure in loop.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1
    n = len(measured)
    # A run mixes kinds whose costs differ up to a hundredfold, so a median
    # or percentile pooled over all operations lands on whichever kind sits
    # at that rank.  op_p50_s is taken per kind instead: the median time of
    # each kind's operations, averaged over the kinds, as each cycle runs
    # every kind once.
    by_kind = {}
    for t, op in zip(times, ops):
        if not math.isnan(t):
            by_kind.setdefault(op.kind, []).append(t)
    kind_p50 = {kind: statistics.median(ts) for kind, ts in by_kind.items()}
    p50 = math.fsum(kind_p50.values()) / len(kind_p50)
    tail, tail_pct, beyond = _tail(measured)
    ops_per_s = n / math.fsum(measured)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    end_to_end = {
        "setup_s": (setup_s, "s"),
        "op_p50_s": (p50, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    if setup_s is None:
        del end_to_end["setup_s"]
    failed = len(loop.failures)
    print(f"# machine: {_machine()}")
    print(f"# workload {args.workload}, seed {args.seed}: {len(ops)} "
          f"operations in {cycles} cycles, config seeds {seeds}")
    for kind, kind_times in by_kind.items():
        print(f"#   {kind}: median {kind_p50[kind]:.4f} s over "
              f"{len(kind_times)}")
    for name, (value, unit) in end_to_end.items():
        note = ""
        if name == "setup_s":
            note = f"  (median of {SETUP_PROBES} fresh processes)"
        print(f"{name:12s} {value:.6g} {unit}{note}")
    # Printed for reading only: with a few dozen operations of mixed kinds
    # the rank it picks moves between kinds from seed to seed.
    print(f"{'op_tail_s':12s} {tail:.6g} s  (p{tail_pct:.1f} of {n} "
          f"samples, {beyond} beyond; not a BENCHMARK.json metric)")
    print(f"{'fail_share':12s} {failed / loop.attempted:.6g} "
          f"({failed} failed of {loop.attempted} attempted)")
    for failure in loop.failures:
        print(f"# FAILED {failure}")

    if args.trace:
        traced = [t for t in traced_times if not math.isnan(t)]
        traced_rate = len(traced) / math.fsum(traced)
        layer["trace.overhead_ops_per_s"] = (ops_per_s - traced_rate, "1/s")
        layer["trace.overhead_pct"] = (
            100.0 * (ops_per_s - traced_rate) / ops_per_s, "%")
        for name, (value, unit) in layer.items():
            print(f"# {name} {value:.6g} {unit}")
        reported = layer
    else:
        reported = end_to_end
    result = {
        "correct": failed == 0,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in reported.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
