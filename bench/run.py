"""passcheck benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload corpus-hard --seed 1 --seconds 15 --trace 0

Steps:
  1. generate the workload's models from --seed (bench/inputs.py), with an
     input digest and a reference verdict per model;
  2. --trace 0: time ``import passcheck`` plus loading every model file in
     SETUP_PROBES fresh interpreters (median is ``setup_s``), then run the
     timed closed loop, one caller, in one more fresh interpreter;
     --trace 1: run one untraced and one traced pass in a fresh interpreter
     and report the per-layer metrics of the traced pass;
  3. print every metric by name with its unit and, as the last line, one
     JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The benchmark and every interpreter it starts use one BLAS thread, and
``PASSCHECK_WORKERS`` is removed from their environment, so the default
single-worker path is measured.  Exit code 0 on a complete run, 2 when the
package sources are missing or a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("PASSCHECK_WORKERS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 3
# Children still running this many seconds after the start are killed, so a
# run ends, with exit code 2, within three minutes.
DEADLINE_S = 170
WORKLOADS = ("corpus-hard", "corpus-final", "large", "compare")

END_TO_END_UNITS = {"verify_ms_p50": "ms", "models_per_s": "1/s",
                    "evals_per_model": "count", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    pass


def child(args, deadline):
    """Run a Python child with the package sources importable."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    timeout = max(deadline - perf_counter(), 1.0)
    try:
        proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[:2]} passed the run deadline") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"child {args[:2]} exited with {proc.returncode}")
    return proc.stdout


def setup_seconds(inputs_dir, deadline):
    """Median of SETUP_PROBES fresh-interpreter import + load timings."""
    runs = [float(child([str(HERE / "measure.py"), "--setup-probe",
                         "--inputs", str(inputs_dir)], deadline).strip().splitlines()[-1])
            for _ in range(SETUP_PROBES)]
    return statistics.median(runs), runs


def main(argv=None):
    ap = argparse.ArgumentParser(description="passcheck benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S
    if not (SRC / "passcheck" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2

    import inputs

    inputs_dir = WORK / args.workload
    shutil.rmtree(inputs_dir, ignore_errors=True)
    t0 = perf_counter()
    manifest = inputs.generate(args.workload, args.seed, inputs_dir)
    gen_s = perf_counter() - t0
    n_models = sum(1 for e in manifest["entries"] if not e["warm_up"])
    shapes = sorted({(e["port_count"], e["n_terms"]) for e in manifest["entries"]
                     if not e["warm_up"]})
    print(f"workload {args.workload}  seed {args.seed}  mode "
          f"{'traced' if args.trace else 'untraced'}  models {n_models}")
    print(f"inputs: digest {manifest['digest']}  generator v"
          f"{manifest['generator_version']}  (P, n) {shapes[0]}..{shapes[-1]}  "
          f"generated in {gen_s:.2f} s (not part of setup_s)")

    try:
        if not args.trace:
            setup_s, probes = setup_seconds(inputs_dir, deadline)
        out = inputs_dir / "result.json"
        child([str(HERE / "measure.py"), "--inputs", str(inputs_dir),
               "--workload", args.workload, "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(out)], deadline)
        res = json.loads(out.read_text())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = res["env"]
    print("env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    n = res["attempted"]
    print(f"checks: attempted {n}  failed {res['failed']}  "
          f"error_share {res['errors'] / n:.4f}  "
          f"verdict_mismatch_share {res['verdict_mismatches'] / n:.4f}  "
          f"crossing_misses {res['crossing_misses']}  "
          f"unstable report digests {res['unstable_digests']}")
    tail = res["verify_tail"]
    print("verify_ms_tail: " + (
        f"p{tail['percentile']:g} = {tail['ms']:.4f} ms "
        f"({n} samples, {tail['beyond']} beyond)" if tail else
        f"absent ({n} samples; fewer than 11)"))

    if args.trace:
        metrics = res["layers"]
        print(f"trace: report digests traced vs untraced differ on "
              f"{res['traced_digest_differences']} of {n // 2} models; "
              f"overhead {metrics['trace.overhead_share']['value']:+.3f} "
              f"of untraced verify time; spans in {inputs_dir.name}/spans.jsonl")
        if res["missing"]:
            print("trace: missing names (their metrics are null): "
                  + ", ".join(res["missing"]))
        if metrics["trace.incomplete"]["value"]:
            print("trace: INCOMPLETE - traced kernel points below reported K")
    else:
        metrics = {k: {"value": setup_s if k == "setup_s" else res[k], "unit": unit}
                   for k, unit in END_TO_END_UNITS.items()}
        print(f"setup_s probes: {' '.join(f'{p:.4f}' for p in probes)}")
        print(f"verify time {res['verify_s']:.3f} s over {n} operations; "
              f"K per model: mean {res['evals_per_model']}, "
              f"median {res['evals_median']}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']!r:>24} {m['unit']}")
    # A changed report digest marks its operations failed, so failed == 0
    # covers every check.
    print(json.dumps({"correct": res["failed"] == 0, "attempted": n,
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
