"""Run the benchmark over several seeds and summarize each metric's spread.

Usage (from the repository root):

    python3 bench/repeat.py --seeds 1-10 --seconds 15 --out BENCH_baseline.json
    python3 bench/repeat.py --workloads large,compare --seeds 1-5 --seconds 15

For every workload it runs ``bench/run.py --trace 0`` once per seed and
reports, per end-to-end metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of
the median.  With ``--trace-seed S`` it adds one traced run per workload
and stores its per-layer metrics.  The benchmark runs one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
            "values": values}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out", help="write the summary JSON here")
    args = ap.parse_args(argv)
    summary = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [bench(workload, s, args.seconds, 0) for s in args.seeds]
        entry = {"correct": all(r["correct"] for r in runs),
                 "attempted": [r["attempted"] for r in runs],
                 "failed": [r["failed"] for r in runs], "metrics": {}}
        for name, m in runs[0]["metrics"].items():
            entry["metrics"][name] = {"unit": m["unit"], **spread(
                [r["metrics"][name]["value"] for r in runs])}
            s = entry["metrics"][name]
            print(f"{workload:13s} {name:18s} median {s['median']:.6g} {m['unit']:6s}"
                  f" quartiles {s['q1']:.6g}..{s['q3']:.6g}"
                  f" spread {s['iqr_share']:.4f}", flush=True)
        if args.trace_seed is not None:
            entry["layers"] = bench(workload, args.trace_seed, args.seconds, 1)["metrics"]
        summary["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
