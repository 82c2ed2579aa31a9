"""Benchmark of blaschke3d: runs one workload, checks every output, and
prints the metrics as one JSON object on the last line of stdout.

    python3 perfbench/run.py --workload {fuzz,large-k,msum,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/`.
`--trace 0` measures the end-to-end metrics for S seconds with tracing off,
with times scaled to a reference speed (see REFERENCE_RATE below).
`--trace 1` runs a fixed number of units twice (untraced and traced),
plus a fixed CLI tour, a per-layer probe and cold-start probes, and reports
the per-layer metrics; its spans are written to
`.bench_build/perfbench/spans-<workload>-seed<N>.json`.  See README.md.
"""
from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

# fresh-process set-ups per run; one more runs first, untimed, to warm the
# bytecode and file caches that every user run finds warm
SETUP_REPEATS = 3
# units run twice by the traced run: untraced, then traced
TRACE_UNITS = {"fuzz": 2, "large-k": 2, "msum": 3, "cli": 6}

# A shared host's speed drifts by up to 40% over seconds to minutes, for
# every process alike, which would swamp the differences the bounds are
# meant to catch.  So the timed run reports its times at a reference speed:
# a fixed kernel that never touches blaschke3d is timed between units (at
# most once a second), and each unit's time is multiplied by the mean of
# the kernel's rates just before and just after it, divided by
# REFERENCE_RATE.  The raw figures are printed alongside.
REFERENCE_RATE = 4000.0   # kernel iterations per second at reference speed
REFERENCE_EVERY = 1.0     # seconds between kernel samples
REFERENCE_SAMPLE = 0.2    # seconds per kernel sample


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(TRACE_UNITS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit "
                         "(used to time set-up in a fresh process)")
    return ap.parse_args(argv)


def blas_threads():
    """Thread count of the OpenBLAS that NumPy loaded, or None."""
    import ctypes
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                return int(fn())
    return None


def environment():
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": blas_threads()}


class Speed:
    """Samples of the host's speed, from the reference kernel."""

    def __init__(self):
        import numpy
        self._points = numpy.random.default_rng(0).standard_normal((24, 3))
        self.rates = []
        self.taken = -REFERENCE_EVERY

    def kernel_rate(self):
        """Iterations per second of a fixed mix of interpreter work and
        small NumPy calls, like blaschke3d's own mix."""
        a = self._points
        n = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < REFERENCE_SAMPLE:
            for _ in range(50):
                row = (a @ a.T)[0]
                total = 0.0
                for v in row:
                    total += v
            n += 1
        return n / (time.perf_counter() - t0)

    def mark(self, force=False):
        """Sample the kernel if forced or the last sample is a second old;
        returns the index of the latest sample."""
        if force or time.perf_counter() - self.taken >= REFERENCE_EVERY:
            self.rates.append(self.kernel_rate())
            self.taken = time.perf_counter()
        return len(self.rates) - 1

    def scale(self, seconds, mark):
        """Seconds measured after sample `mark` (and before the next one),
        at reference speed."""
        return seconds * (self.rates[mark] + self.rates[mark + 1]) \
            / (2 * REFERENCE_RATE)


def setup_seconds(args, speed):
    """Median time from spawning a fresh interpreter until it has imported
    blaschke3d and built the workload's inputs, at reference speed and
    raw."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        mark = speed.mark(force=True)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        times.append((time.perf_counter() - t0, mark))
        proc.communicate(timeout=120)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up process failed ({proc.returncode})")
    speed.mark(force=True)
    times = times[1:]
    return (statistics.median(speed.scale(t, m) for t, m in times),
            statistics.median(t for t, _ in times))


def timed_indices(seconds, cycle):
    """Unit indices for `seconds` of work, rounded up to whole cycles."""
    t_end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < t_end or i % cycle:
        yield i
        i += 1


def new_stats():
    return {"attempted": 0, "failed": 0, "cpu": 0.0, "units": []}


def measure(wl, stats, indices, speed=None, tracer=None):
    """Closed loop, one client: unit i+1 starts when unit i is checked.
    Adds the units' counts, wall times and CPU time to `stats`."""
    child_cpu0 = getattr(wl, "child_cpu", 0.0)
    for i in indices:
        n = wl.size(i)
        mark = speed.mark() if speed else None
        span = tracer.begin("op", op=i) if tracer else None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result, error = wl.run(i), None
        except Exception as exc:  # a raising operation counts as failed
            result, error = None, exc
        elapsed = time.perf_counter() - t0
        stats["cpu"] += time.process_time() - cpu0
        if tracer:
            tracer.end(span, error)
        bad = n
        if error is None:
            try:
                bad = wl.check(i, result)
            except Exception as exc:  # so does output that fails to check
                error = exc
        if error is not None:
            print(f"{type(wl).__name__} unit {i}: {error!r}", file=sys.stderr)
        stats["attempted"] += n
        stats["failed"] += bad
        stats["units"].append((elapsed, n, mark))
    if speed:
        speed.mark(force=True)
    stats["cpu"] += getattr(wl, "child_cpu", 0.0) - child_cpu0
    return stats


def summarize(stats, cycle, speed=None):
    """Throughput and per-operation latency samples, at reference speed if
    `speed` is given.  One latency sample per cycle: the mean over a
    cycle's mix of input sizes, since a median over single operations of
    the mix would jump between sizes."""
    busy, latency, acc, count = 0.0, [], 0.0, 0
    for k, (elapsed, n, mark) in enumerate(stats["units"]):
        if speed:
            elapsed = speed.scale(elapsed, mark)
        busy += elapsed
        acc += elapsed
        count += n
        if (k + 1) % cycle == 0:
            latency.append(acc / count)
            acc, count = 0.0, 0
    return (stats["attempted"] - stats["failed"]) / busy, latency


def peak_rss_mb(wl):
    if hasattr(wl, "child_rss_mb"):
        return wl.child_rss_mb
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(args, workloads, workdir):
    speed = Speed()
    setup, raw_setup = setup_seconds(args, speed)
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    stats = measure(wl, new_stats(), timed_indices(args.seconds, wl.cycle),
                    speed)
    rate, latency = summarize(stats, wl.cycle, speed)
    raw_rate, raw_latency = summarize(stats, wl.cycle)
    metrics = {
        "throughput_ops_per_s": (rate, "1/s"),
        "latency_p50_s": (statistics.median(latency), "s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_rss_mb(wl), "MiB"),
    }
    info = {"latency_samples": len(latency),
            "ops_per_sample": wl.size(0) * wl.cycle,
            "reference_rate": {"mean": statistics.fmean(speed.rates),
                               "min": min(speed.rates),
                               "max": max(speed.rates),
                               "samples": len(speed.rates)},
            "raw": {"throughput_ops_per_s": raw_rate,
                    "latency_p50_s": statistics.median(raw_latency),
                    "setup_s": raw_setup}}
    return stats["attempted"], stats["failed"], True, metrics, info


def traced_run(args, workloads, workdir):
    import probe
    import tracing

    units = TRACE_UNITS[args.workload]
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer()
    plain, traced = new_stats(), new_stats()
    # alternate untraced and traced passes of each unit, so drift in the
    # machine's speed does not read as tracing overhead
    for i in range(units):
        measure(wl, plain, [i])
        tracer.install()
        wl.tracer = tracer
        try:
            measure(wl, traced, [i], tracer=tracer)
        finally:
            wl.tracer = None
            tracer.uninstall()
    tour_dir = workdir / "tour"
    tour_dir.mkdir()
    tour_inputs = workloads.CliInputs(probe.PROBE_SEED, tour_dir)
    tracer.install()
    try:
        tour_failed = probe.tour(tracer, tour_inputs)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer.spans)
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    metrics.update({
        "trace.overhead": (summarize(traced, 1)[0] / summarize(plain, 1)[0],
                           "ratio"),
        "trace.coverage": (tracing.coverage(tracer.spans), "ratio"),
        "process.cpu_s_per_op": (plain["cpu"] / plain["attempted"], "s"),
        "error_rate": (failed / attempted, "ratio"),
    })
    metrics.update(probe.layer_probe())
    metrics.update(probe.cold_start_probe(dict(os.environ)))
    spans_file = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(spans_file, {"workload": args.workload, "seed": args.seed,
                             "units": units, "environment": environment()})
    info = {"spans": str(spans_file.relative_to(ROOT)),
            "spans_recorded": len(tracer.spans), "tour_failed": tour_failed}
    return attempted, failed, not tour_failed, metrics, info


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "blaschke3d" / "__init__.py").is_file():
        print(f"error: blaschke3d sources not found under {SRC}",
              file=sys.stderr)
        return 2
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))
    import workloads

    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        if args.setup_only:
            workloads.WORKLOADS[args.workload](args.seed, workdir)
            print("ready", flush=True)
            return 0
        run = traced_run if args.trace else timed_run
        attempted, failed, correct, metrics, info = run(args, workloads,
                                                        workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "environment": environment(), **info}))
    print(json.dumps({
        "correct": correct and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
