"""Benchmark worker: set-up probe, timed closed loop, or traced run.

``run.py`` starts this file in a fresh interpreter, so the peak RSS and
import cost it reports belong to passcheck and its inputs alone.  It
imports nothing heavy at module level: the set-up probe times
``import passcheck`` itself.

Modes (see ``main``):
  --setup-probe          print seconds for ``import passcheck`` + load_model
                         of every input file;
  --trace 0              closed loop, one caller, whole passes over the
                         measured models until --seconds have elapsed;
  --trace 1              one untraced and one traced pass, interleaved;
                         per-layer metrics from the traced pass.

One operation is ``check_passivity`` followed by
``report.to_dict(include_timing=False)``, or ``compare_model`` on the
``compare`` workload.  Every operation's output is checked against the
reference verdict from the manifest outside the timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter

import spans

MODES = {"corpus-hard": "hard", "corpus-final": "final", "large": "hard",
         "compare": "hard"}
EDGE_REL_TOL = 1e-6
# Every 18th model of a corpus set is used for warm-up: all port counts
# and targets, before timing starts.
CORPUS_WARM_STRIDE = 18


def read_manifest(inputs_dir):
    with open(os.path.join(inputs_dir, "manifest.json")) as fh:
        return json.load(fh)


def setup_probe(inputs_dir):
    paths = [os.path.join(inputs_dir, e["file"])
             for e in read_manifest(inputs_dir)["entries"]]
    t0 = perf_counter()
    import passcheck
    for path in paths:
        passcheck.load_model(path)
    return perf_counter() - t0


# -- operations and checks -------------------------------------------------

def _finite(x):
    return x == "inf" or math.isfinite(x)


def _in_band(w, band):
    hi = band["omega_hi"]
    return (band["omega_lo"] * (1 - EDGE_REL_TOL) <= w
            and (hi == "inf" or w <= hi * (1 + EDGE_REL_TOL)))


def crossing_misses(bands, crossings):
    """Criterion 2 as a count: oracle crossings inside no adaptive band,
    plus adaptive band edges farther than 1e-6 relative from every crossing."""
    ws = [w for w in crossings if w > 0]
    misses = sum(1 for w in ws if not any(_in_band(w, b) for b in bands))
    for b in bands:
        for e in (b["omega_lo"], b["omega_hi"]):
            if e == "inf" or e <= 0:
                continue
            if not ws or min(abs(e - w) / w for w in ws) > EDGE_REL_TOL:
                misses += 1
    return misses


def judge(doc, entry, crossings):
    """(finite, verdict_ok, crossing_misses) of one operation's output."""
    if "classification" in doc:
        bands = doc["adaptive_bands"]
        finite = all(_finite(b[k]) for b in bands for k in b)
        ok = doc["classification"] == "TP" and doc["adaptive_passive"] == entry["passive"]
        return finite, ok, crossing_misses(bands, crossings)
    finite = (all(_finite(b[k]) for b in doc["bands"] for k in b)
              and all(_finite(s["phi"]) for s in doc["samples"]))
    return finite, doc["passive"] == entry["passive"], 0


class Workload:
    def __init__(self, name, inputs_dir):
        import passcheck.cli
        import passcheck.hamiltonian
        import passcheck.model
        import passcheck.verifier

        self.name = name
        self.mods = passcheck
        self.inputs_dir = inputs_dir
        entries = read_manifest(inputs_dir)["entries"]
        self.measured = [(e, self.load(e)) for e in entries if not e["warm_up"]]
        warm = [(e, self.load(e)) for e in entries if e["warm_up"]]
        self.warm = warm or self.measured[::CORPUS_WARM_STRIDE]
        self.crossings = []
        ham = passcheck.hamiltonian
        oracle = ham.imaginary_crossings

        def capture(*args, **kwargs):
            result = oracle(*args, **kwargs)
            self.crossings.extend(result.frequencies)
            return result

        ham.imaginary_crossings = capture

    def load(self, entry):
        return self.mods.model.load_model(os.path.join(self.inputs_dir, entry["file"]))

    def op(self, model):
        # Attributes are looked up per call so that the span recorder's
        # wrappers, when installed, are the ones that run.
        if self.name == "compare":
            return self.mods.cli.compare_model(model, mode="hard")
        report = self.mods.verifier.check_passivity(model, MODES[self.name])
        return report.to_dict(include_timing=False)

    def one(self, index, call=None):
        """Run and check measured model ``index``; returns an outcome dict."""
        entry, model = self.measured[index]
        self.crossings = []
        error = None
        t0 = perf_counter()
        try:
            doc = call(index, self.op, model) if call else self.op(model)
        except Exception:  # noqa: BLE001 - counted in error_share, never dropped
            doc = None
            error = traceback.format_exc(limit=3)
        seconds = perf_counter() - t0
        out = {"model": index, "seconds": seconds, "error": error,
               "digest": None, "mismatch": False, "misses": 0, "K": None}
        if doc is not None:
            finite, ok, misses = judge(doc, entry, self.crossings)
            out.update(digest=hashlib.sha256(
                json.dumps(doc, sort_keys=True).encode()).hexdigest(),
                mismatch=not ok, misses=misses, K=doc["total_evaluations"])
            if not finite:
                out["error"] = "non-finite value in output"
        if out["error"]:
            print(f"[{self.name}] model {entry['file']}: {out['error']}",
                  file=sys.stderr)
        return out

    def warm_up(self):
        for _, model in self.warm:
            self.op(model)

    def loop(self, seconds):
        """Closed loop of whole passes over the measured set until ``seconds``
        have elapsed.  Whole passes keep the mix of models, and so the
        median, the same whatever the machine's speed."""
        outcomes = []
        t0 = perf_counter()
        while not outcomes or perf_counter() - t0 < seconds:
            outcomes += [self.one(i) for i in range(len(self.measured))]
        return outcomes


def tail_percentile(n):
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 50.0):
        if n * (1 - p / 100) >= 10:
            return p
    return None


def summarize(outcomes):
    """End-to-end figures and check counts over a list of outcomes."""
    lat = sorted(o["seconds"] for o in outcomes)
    n = len(lat)
    # K is deterministic per model: its mean is over distinct models.
    ks = list({o["model"]: o["K"] for o in outcomes if o["K"] is not None}.values())
    digests = {}
    for o in outcomes:
        if o["digest"]:
            digests.setdefault(o["model"], set()).add(o["digest"])
    unstable = {m for m, d in digests.items() if len(d) > 1}
    failed = sum(1 for o in outcomes
                 if o["error"] or o["mismatch"] or o["misses"] or o["model"] in unstable)
    p_tail = tail_percentile(n)
    return {
        "attempted": n,
        "failed": failed,
        "errors": sum(1 for o in outcomes if o["error"]),
        "verdict_mismatches": sum(1 for o in outcomes if o["mismatch"]),
        "crossing_misses": sum(o["misses"] for o in outcomes),
        "unstable_digests": len(unstable),
        "verify_ms_p50": 1e3 * statistics.median(lat),
        "verify_tail": None if p_tail is None else {
            "percentile": p_tail,
            "ms": 1e3 * lat[min(n - 1, math.ceil(n * p_tail / 100) - 1)],
            "beyond": n - math.ceil(n * p_tail / 100)},
        "models_per_s": n / sum(lat),
        "evals_per_model": statistics.mean(ks) if ks else None,
        "evals_median": statistics.median(ks) if ks else None,
        "verify_s": sum(lat),
    }


# -- traced run ------------------------------------------------------------

KERNEL = "model.passivity_metric"
CATEGORIES = {"search.run": "search", "verifier.extract_bands": "refine",
              "hamiltonian.oracle_verdict": "oracle",
              "cli.dense_reference_check": "tiebreak"}
_ONE_POINT = {"points": 1}


def _kernel_flops(model):
    """Computed flops per metric point: 8 per complex multiply-add over the
    n * P^2 residue entries, plus 11 * P^3 for sigma_max of a complex P x P."""
    P = model.port_count
    return 8 * model.n_terms * P * P + 11 * P ** 3


def _search_counts(args, kwargs, result):
    trace = args[2] if len(args) > 2 else kwargs.get("trace")
    counts = {"evals": result.eval_count}
    if trace is not None:
        schedule = args[1].budget_schedule
        counts.update(
            iterations=len(trace),
            escalations=schedule.index(trace[-1]["budget"]) if trace else 0,
            budget_returns=sum(1 for t in trace if t["returning"]))
    return counts


def _takes(fn, param):
    """True when ``fn`` exists and has a parameter named ``param``."""
    try:
        return fn is not None and param in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def _with_trace(args, kwargs):
    if len(args) < 3 and kwargs.get("trace") is None:
        kwargs = {**kwargs, "trace": []}
    return args, kwargs


def install(rec, pc):
    """Wrap the public names of every layer; returns {span name: wrapped}."""
    v, h, c, m, r, s = (pc.verifier, pc.hamiltonian, pc.cli, pc.model,
                        pc.report, pc.search)
    many = lambda a, k, res: {"points": len(a[1])}  # noqa: E731
    one = lambda a, k, res: _ONE_POINT  # noqa: E731
    plan = [
        (v, "check_passivity", "verifier.check_passivity",
         lambda a, k, res: {"K": res.total_evaluations}),
        (v, "passivity_metric", KERNEL, one),
        (v, "passivity_metric_many", KERNEL, many),
        (h, "passivity_metric", KERNEL, one),
        (h, "passivity_metric_many", KERNEL, many),
        (v, "build_warp_map", "warp.build_warp_map", lambda a, k, res: {"L": res.L}),
        (s, "run", "search.run", _search_counts),
        (v, "merge_samples", "verifier.merge_samples", None),
        (v, "postprocess_edge_maxima", "verifier.postprocess_edge_maxima", None),
        (v, "extract_bands", "verifier.extract_bands",
         lambda a, k, res: {"bands": len(res)}),
        (h, "build_problem", "hamiltonian.build_problem",
         lambda a, k, res: {"dim": res.dim}),
        (h, "imaginary_crossings", "hamiltonian.imaginary_crossings", None),
        (h, "_band_peak", "hamiltonian.band_peak", None),
        (h, "oracle_verdict", "hamiltonian.oracle_verdict", None),
        (c, "realize", "model.realize", None),
        (c, "compare_model", "cli.compare_model", None),
        (v, "dense_reference_check", "cli.dense_reference_check", None),
        (r.PassivityReport, "to_dict", "report.to_dict",
         lambda a, k, res: {"samples": len(a[0].samples)}),
        (m, "load_model", "model.load_model", None),
    ]
    wrapped = {}
    traced_search = _takes(getattr(s, "run", None), "trace")
    for owner, attr, name, count in plan:
        prepare = _with_trace if (name == "search.run" and traced_search) else None
        ok = rec.wrap(owner, attr, name, count=count, prepare=prepare)
        wrapped[name] = wrapped.get(name, False) or ok
    wrapped["search.trace"] = wrapped["search.run"] and traced_search
    return wrapped


def layer_metrics(rec, wrapped, n_ops, flops_by_op, load_s, overhead):
    """Per-layer metrics of the traced pass, per operation unless stated."""
    own = rec.self_times()
    total = {}      # span name -> summed duration
    self_s = {}     # span name -> summed self time
    calls = {}
    counts = {}     # (span name, counter) -> sum
    points = {}     # kernel points by category
    flops = 0.0
    pts_in_check = 0
    for i, span in enumerate(rec.spans):
        name = span[spans.NAME]
        total[name] = total.get(name, 0.0) + span[spans.END] - span[spans.START]
        self_s[name] = self_s.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        for key, val in (span[spans.COUNTS] or {}).items():
            counts[(name, key)] = counts.get((name, key), 0) + val
        if name == KERNEL:
            pts = span[spans.COUNTS]["points"]
            cat = CATEGORIES.get(rec.nearest(i, CATEGORIES), "other")
            points[cat] = points.get(cat, 0) + pts
            flops += pts * flops_by_op.get(span[spans.OP], 0)
            if rec.nearest(i, ("verifier.check_passivity",)):
                pts_in_check += pts

    def per_op(x):
        return x / n_ops

    def mean(name, key):
        return counts.get((name, key), 0) / calls[name] if calls.get(name) else 0.0

    kpts = counts.get((KERNEL, "points"), 0)
    ksec = self_s.get(KERNEL, 0.0)
    reported_k = counts.get(("verifier.check_passivity", "K"), 0)
    incomplete = (not (wrapped[KERNEL] and wrapped["verifier.check_passivity"])
                  or pts_in_check < reported_k)
    specs = [
        # name, unit, span names it needs, value
        ("model.kernel_points", "count/op", [KERNEL], per_op(kpts)),
        ("model.kernel_calls", "count/op", [KERNEL], per_op(calls.get(KERNEL, 0))),
        ("model.kernel_self_s", "s/op", [KERNEL], per_op(ksec)),
        ("model.kernel_us_per_point", "us", [KERNEL],
         1e6 * ksec / kpts if kpts else 0.0),
        ("model.kernel_gflops", "GFLOP/s", [KERNEL],
         1e-9 * flops / ksec if ksec else 0.0),
        ("search.self_s", "s/op", ["search.run"], per_op(self_s.get("search.run", 0.0))),
        ("search.runs", "count/op", ["search.run"], per_op(calls.get("search.run", 0))),
        ("search.iterations", "count/op", ["search.trace"],
         per_op(counts.get(("search.run", "iterations"), 0))),
        ("search.escalations", "count/op", ["search.trace"],
         per_op(counts.get(("search.run", "escalations"), 0))),
        ("search.budget_returns", "count/op", ["search.trace"],
         per_op(counts.get(("search.run", "budget_returns"), 0))),
        ("search.kernel_points", "count/op", [KERNEL, "search.run"],
         per_op(points.get("search", 0))),
        ("search.evals", "count/op", ["search.run"],
         per_op(counts.get(("search.run", "evals"), 0))),
        ("warp.subbands", "count", ["warp.build_warp_map"],
         mean("warp.build_warp_map", "L")),
        ("warp.build_s", "s/op", ["warp.build_warp_map"],
         per_op(total.get("warp.build_warp_map", 0.0))),
        ("verifier.refine_self_s", "s/op", ["verifier.extract_bands"],
         per_op(self_s.get("verifier.extract_bands", 0.0))),
        ("verifier.refine_kernel_points", "count/op",
         [KERNEL, "verifier.extract_bands"], per_op(points.get("refine", 0))),
        ("verifier.bands", "count/op", ["verifier.extract_bands"],
         per_op(counts.get(("verifier.extract_bands", "bands"), 0))),
        ("verifier.merge_s", "s/op", ["verifier.merge_samples"],
         per_op(total.get("verifier.merge_samples", 0.0))),
        ("verifier.postprocess_s", "s/op", ["verifier.postprocess_edge_maxima"],
         per_op(total.get("verifier.postprocess_edge_maxima", 0.0))),
        ("verifier.unreported_points_share", "share",
         [KERNEL, "verifier.check_passivity"],
         None if incomplete else (pts_in_check - reported_k) / pts_in_check),
        ("hamiltonian.build_s", "s/op", ["hamiltonian.build_problem"],
         per_op(total.get("hamiltonian.build_problem", 0.0))),
        ("hamiltonian.eig_s", "s/op", ["hamiltonian.imaginary_crossings"],
         per_op(total.get("hamiltonian.imaginary_crossings", 0.0))),
        ("hamiltonian.dim", "count", ["hamiltonian.build_problem"],
         mean("hamiltonian.build_problem", "dim")),
        ("hamiltonian.peak_s", "s/op", ["hamiltonian.band_peak"],
         per_op(total.get("hamiltonian.band_peak", 0.0))),
        ("hamiltonian.kernel_points", "count/op", [KERNEL, "hamiltonian.oracle_verdict"],
         per_op(points.get("oracle", 0))),
        ("model.realize_s", "s/op", ["model.realize"],
         per_op(total.get("model.realize", 0.0))),
        ("cli.tiebreak_count", "count/op", ["cli.dense_reference_check"],
         per_op(calls.get("cli.dense_reference_check", 0))),
        ("cli.tiebreak_s", "s/op", ["cli.dense_reference_check"],
         per_op(total.get("cli.dense_reference_check", 0.0))),
        ("report.to_dict_s", "s/op", ["report.to_dict"],
         per_op(total.get("report.to_dict", 0.0))),
        ("report.samples", "count", ["report.to_dict"], mean("report.to_dict", "samples")),
        ("model.load_s", "s", ["model.load_model"], load_s),
        ("trace.overhead_share", "share", [], overhead),
        ("trace.incomplete", "flag", [], int(incomplete)),
    ]
    return {name: {"value": value if all(wrapped.get(n) for n in needs) else None,
                   "unit": unit}
            for name, unit, needs, value in specs}


def traced_run(work, inputs_dir):
    """One untraced and one traced pass, interleaved model by model (the
    order alternating) so that drift in machine speed does not show up as
    tracing overhead."""
    rec = spans.SpanRecorder()

    def traced_op(i):
        install(rec, work.mods)
        try:
            return work.one(i, rec.op)
        finally:
            rec.unwrap()

    untraced, traced = [], []
    for i in range(len(work.measured)):
        if i % 2:
            traced.append(traced_op(i))
        untraced.append(work.one(i))
        if not i % 2:
            traced.append(traced_op(i))
    wrapped = install(rec, work.mods)
    try:
        t0 = perf_counter()
        for entry, _ in work.measured + work.warm:
            rec.op(-1, work.load, entry)
        load_s = perf_counter() - t0
    finally:
        rec.unwrap()
    flops = {i: _kernel_flops(model) for i, (_, model) in enumerate(work.measured)}
    t_u = sum(o["seconds"] for o in untraced)
    t_t = sum(o["seconds"] for o in traced)
    metrics = layer_metrics(rec, wrapped, len(traced), flops, load_s, (t_t - t_u) / t_u)
    rec.write(os.path.join(inputs_dir, "spans.jsonl"))
    differ = sum(1 for a, b in zip(untraced, traced) if a["digest"] != b["digest"])
    return untraced + traced, metrics, sorted(set(rec.missing)), differ


# -- entry point -----------------------------------------------------------

def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PASSCHECK_WORKERS": os.environ.get("PASSCHECK_WORKERS", "unset"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True, help="directory written by inputs.py")
    ap.add_argument("--setup-probe", action="store_true")
    ap.add_argument("--workload", choices=sorted(MODES))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="result JSON path")
    args = ap.parse_args(argv)
    if args.setup_probe:
        print(repr(setup_probe(args.inputs)))
        return 0
    work = Workload(args.workload, args.inputs)
    work.warm_up()
    result = {"env": environment()}
    if args.trace:
        outcomes, metrics, missing, differ = traced_run(work, args.inputs)
        result.update(layers=metrics, missing=missing, traced_digest_differences=differ)
    else:
        outcomes = work.loop(args.seconds)
    result.update(summarize(outcomes))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
