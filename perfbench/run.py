"""gptrat benchmark: seeded query workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One single-threaded client runs the workload as a closed loop: each query
starts when the previous one has returned.  Inputs come in passes of fixed
composition generated from the seed (a fresh pass, with fresh numbers, each
time one is used up); the loop stops at the first query ending after
``--seconds`` of timed wall clock, once ``min_passes`` passes are complete.
Only complete passes count, so every run measures the same mix: throughput
is the median over passes, latencies pool the passes' queries.  Timings,
set-up samples included, are scaled by the machine's speed around them
(calibrate.py).  Answers are checked outside the timed clock (workloads.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same loop, then
one more pass with every layer wrapped (tracer.py), and prints the per-layer
metrics.  The last line of standard output is the result object; the line
before it carries the run's details and environment.
"""

from __future__ import annotations

import os
import sys
import time

SPAWN_CLOCK = time.perf_counter()  # before numpy is imported

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WARMUP_STREAM = 1_000_000
TRACE_STREAM = 1_000_001
WARMUP_S = 1.0
HARD_LIMIT_S = 100.0  # keeps a run far inside its time budget even on a slow commit
SETUP_SAMPLES = 20
PROBE_WINDOW_S = 2.0  # a timing is scaled by the probe median in the 2 s around it
PERCENTILES = (50, 75, 80, 85, 90, 95, 98, 99, 99.5, 99.8, 99.9)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import gptrat from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    import gptrat

    if not Path(gptrat.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"gptrat imported from {gptrat.__file__}, not from {ROOT / 'src'}")
    import calibrate
    import tracer
    import workloads

    return workloads, tracer, calibrate


def tail_percentile(n_samples: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    return max(p for p in PERCENTILES if n_samples * (1.0 - p / 100.0) >= 10.0 or p == 50)


def timed_loop(wl, seed, seconds, work_dir, first_pass, ledger, probe, setup):
    """Closed loop over fresh passes; returns the (start, latency) of each
    query of each complete pass.  The speed probe and, when given, the set-up
    samples run between queries, outside their time; the last set-up sample
    falls due before the loop can stop."""
    passes = []
    timed = 0.0
    batch, stream = first_pass, 0
    while True:
        lat, records = [], []
        wall = 0.0
        stop = False
        for q in batch:
            t0 = time.perf_counter()
            try:
                result, error = wl.run(q), None
            except Exception as exc:  # a failed query is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            lat.append((t0, time.perf_counter() - t0))
            wall += lat[-1][1]
            records.append((q, result, error))
            probe.maybe_run()
            elapsed = timed + wall
            while setup is not None and len(setup.samples) < SETUP_SAMPLES \
                    and elapsed >= len(setup.samples) * min(seconds, HARD_LIMIT_S) / SETUP_SAMPLES:
                setup.take()
            if elapsed >= HARD_LIMIT_S or (elapsed >= seconds and len(passes) >= wl.min_passes):
                stop = True
                break
        ledger.add(records, audit=stream == 0)
        if len(lat) == len(batch):
            passes.append(lat)
            timed += wall
            stop = stop or (timed >= seconds and len(passes) >= wl.min_passes)
        if stop:
            if not passes:  # only when the hard limit cut the first pass
                passes.append(lat)
            return passes
        stream += 1
        batch = wl.make_pass(seed, stream, work_dir)


def scaled(probe, timings):
    """Each (start, seconds) timing over the slowdown in the PROBE_WINDOW_S
    around its middle: its duration on the reference machine."""
    return [d / probe.slowdown(t + (d - PROBE_WINDOW_S) / 2, t + (d + PROBE_WINDOW_S) / 2) for t, d in timings]


def plain_wall(wl, batch):
    start = time.perf_counter()
    for q in batch:
        try:
            wl.run(q)
        except Exception:  # failures are counted from the traced pass of the same inputs
            pass
    return time.perf_counter() - start


def traced_pass(wl, seed, work_dir, ledger, tracer):
    """One pass with every layer wrapped, between two untraced runs of the
    same inputs; returns the tracer, the traced wall time and the overhead."""
    batch = wl.make_pass(seed, TRACE_STREAM, work_dir)
    before = plain_wall(wl, batch)
    tr = tracer.Tracer()
    records = []
    tr.install()
    try:
        start = time.perf_counter()
        for i, q in enumerate(batch):
            tr.query_id = i
            try:
                result, error = wl.run(q), None
            except Exception as exc:
                result, error = None, f"{type(exc).__name__}: {exc}"
            records.append((q, result, error))
        wall = time.perf_counter() - start
    finally:
        tr.uninstall()
    ledger.add(records, audit=True)
    after = plain_wall(wl, batch)
    return tr, wall, 1.0 - 0.5 * (before + after) / wall


def failures(wl, records, audit):
    out = []
    for q, result, error in records:
        if error is None:
            try:
                errs = wl.check(q, result, audit)
            except Exception as exc:
                errs = [f"check raised {type(exc).__name__}: {exc}"]
            error = "; ".join(errs) if errs else None
        if error is not None:
            out.append(f"{q.shape}: {error}")
    return out


class Ledger:
    """Counts attempted queries and checks their answers.

    Unaudited passes are checked as soon as they end, outside the timed
    clock, and dropped, so the run's memory does not grow with its
    throughput.  Audited records wait for `finish`, after the timed loop,
    because the oracle imports scipy.
    """

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failures = []
        self._audited = []

    def add(self, records, audit):
        self.attempted += len(records)
        if audit:
            self._audited += records
        else:
            self.failures += failures(self.wl, records, audit=False)

    def finish(self):
        self.failures += failures(self.wl, self._audited, audit=True)
        self._audited = []


class SetupSampler:
    """Times fresh interpreters from spawn until their inputs are ready.

    The samples are spread over the timed loop so that each can be scaled
    by the speed probe around it, like the query timings: the host's speed
    changes within a run, and a child interpreter cannot measure it itself.
    """

    def __init__(self, args, work_dir):
        self.args = args
        self.work_dir = work_dir
        self.samples: list[tuple[float, float]] = []  # (start, seconds)

    def take(self):
        child_dir = self.work_dir / f"setup-{len(self.samples)}"
        cmd = [sys.executable, __file__, "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--seconds", str(self.args.seconds), "--setup-child", str(child_dir)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        self.samples.append((t0, float(proc.stdout.split()[-1]) - t0))
        shutil.rmtree(child_dir, ignore_errors=True)


def environment():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # checkouts without git metadata
    import numpy

    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in (ROOT / "src" / "gptrat").glob("*.py"))
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_gptrat_lines": lines,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads, tracer, calibrate = import_package()
    except ImportError as exc:
        print(f"perfbench: cannot import the package: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    import numpy as np

    if args.setup_child:
        wl.make_pass(args.seed, 0, Path(args.setup_child))
        print(repr(time.perf_counter()))
        return 0

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    try:
        first = wl.make_pass(args.seed, 0, work_dir)
        main_setup_s = time.perf_counter() - SPAWN_CLOCK

        warm_until = time.perf_counter() + WARMUP_S
        for q in wl.make_pass(args.seed, WARMUP_STREAM, work_dir):
            try:
                wl.run(q)
            except Exception:  # warm-up answers are neither timed nor counted
                pass
            if time.perf_counter() >= warm_until:
                break

        ledger = Ledger(wl)
        probe = calibrate.SpeedProbe()
        setup = None if args.trace else SetupSampler(args, work_dir)
        passes = timed_loop(wl, args.seed, args.seconds, work_dir, first, ledger, probe, setup)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace:
            tr, traced_wall, overhead = traced_pass(wl, args.seed, work_dir, ledger, tracer)
            per_layer = tr.metrics(traced_wall, overhead)
            self_frac = sum(per_layer[f"{name}.self_s"] for name in tracer.WRAPPED) / traced_wall
            OUT_DIR.mkdir(exist_ok=True)
            tr.write(OUT_DIR / f"spans-{args.workload}.jsonl")

        audit_start = time.perf_counter()
        ledger.finish()
        audit_s = time.perf_counter() - audit_start
        correct = not ledger.failures
        if args.trace and self_frac > 1.0:
            print("perfbench: summed self times exceed the traced wall time", file=sys.stderr)
            correct = False
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for line in ledger.failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)

    pct = tail_percentile(wl.min_passes * len(first))
    raw_passes = [[d for _, d in lat] for lat in passes]
    scaled_passes = [scaled(probe, lat) for lat in passes]
    raw = [x for lat in raw_passes for x in lat]
    ref = [x for lat in scaled_passes for x in lat]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "pass_size": len(first),
        "pass_walls_s": [sum(lat) for lat in raw_passes],
        "pass_slowdowns": [sum(r) / sum(s) for r, s in zip(raw_passes, scaled_passes)],
        "speed_probes": len(probe.samples),
        "raw_queries_per_s": statistics.median(len(lat) / sum(lat) for lat in raw_passes),
        "raw_latency_p50_ms": 1e3 * statistics.median(raw),
        "raw_latency_tail_ms": 1e3 * float(np.percentile(raw, pct)),
        "latency_samples": len(raw),
        "latency_tail_percentile": pct,
        "main_setup_s": main_setup_s,
        "setup_samples_s": [d for _, d in setup.samples] if setup else [],
        "raw_setup_s": statistics.median(d for _, d in setup.samples) if setup else None,
        "audit_s": audit_s,
        "environment": environment(),
    }
    if args.trace:
        detail["trace_self_frac"] = self_frac
        metrics = {name: {"value": per_layer[name], "unit": unit} for name, unit in tracer.metric_specs()}
    else:
        metrics = {
            "queries_per_s": {"value": statistics.median(len(lat) / sum(lat) for lat in scaled_passes), "unit": "1/s"},
            "latency_p50_ms": {"value": 1e3 * statistics.median(ref), "unit": "ms"},
            "latency_tail_ms": {"value": 1e3 * float(np.percentile(ref, pct)), "unit": "ms"},
            "setup_s": {"value": statistics.median(scaled(probe, setup.samples)), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
            "passed_frac": {"value": 1.0 - len(ledger.failures) / ledger.attempted, "unit": "frac"},
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": len(ledger.failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
