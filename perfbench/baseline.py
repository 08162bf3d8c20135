"""Run every workload on several seeds and record medians and spreads.

    python3 perfbench/baseline.py --first-seed 101 --out perfbench/baseline.json

Each run is a separate `run.py` process with its own seed.  For every
end-to-end metric the output holds the median, the quartiles and the
spread (interquartile distance over the median), and the same for the
unscaled `raw_*` timings of the detail line, with each run's per-pass
slowdowns; one traced run per workload adds the per-layer metrics.  The
exit code is 1 if a run is incorrect or a metric's spread reaches a third
of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
RUNS = 10
RAW = ("raw_queries_per_s", "raw_latency_p50_ms", "raw_latency_tail_ms", "raw_setup_s")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True).stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def scaling_fit(details: list[dict]) -> dict:
    """Least-squares slope of log raw throughput against log slowdown over
    every pass of every run: -1 when the scaling matches the host's drift."""
    x = np.log([s for d in details for s in d["pass_slowdowns"]])
    y = np.log([d["pass_size"] / w for d in details for w in d["pass_walls_s"]])
    slope = float(np.polyfit(x, y, 1)[0]) if np.ptp(x) > 0 else None
    return {"passes": len(x), "slope": slope, "corr": float(np.corrcoef(x, y)[0, 1]) if slope else None}


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    report = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run_once(name, args.first_seed + i, spec["run_seconds"], 0) for i in range(RUNS)]
        entry = {
            "seeds": [args.first_seed + i for i in range(RUNS)],
            "correct": [r["correct"] for r, _ in runs],
            "failed": [r["failed"] for r, _ in runs],
            "tail_percentile": runs[0][1]["latency_tail_percentile"],
            "pass_slowdowns": [d["pass_slowdowns"] for _, d in runs],
            "pass_walls_s": [d["pass_walls_s"] for _, d in runs],
            "scaling_fit": scaling_fit([d for _, d in runs]),
            "end_to_end": {},
            "raw": {},
        }
        ok = ok and all(entry["correct"])
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r, _ in runs])
            s["unit"] = runs[0][0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            steady = s["spread"] < bound / 3
            ok = ok and steady
            print(f"{name:15s} {metric:16s} median {s['median']:12.5g} {s['unit']:5s} "
                  f"spread {s['spread']:.3f} (bound {bound}){'' if steady else '  NOT STEADY'}", flush=True)
        for key in RAW:
            s = entry["raw"][key] = summarize([d[key] for _, d in runs])
            print(f"{name:15s} {key:20s} median {s['median']:12.5g} spread {s['spread']:.3f} (unscaled)", flush=True)
        fit = entry["scaling_fit"]
        print(f"{name:15s} raw throughput vs slowdown: slope {fit['slope']}, corr {fit['corr']}, "
              f"{fit['passes']} passes", flush=True)
        traced, _ = run_once(name, args.first_seed, spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][name] = entry
        report["environment"] = runs[0][1]["environment"]
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
