"""End-to-end acceptance suite.

Each test prints one ``[criterion N] PASS/FAIL`` line; the assertions pin
the numeric tolerances.  The 200-model corpus is generated once per
session and shared by the agreement, crossing-accuracy, and effort tests.
"""

import math
import statistics
import time

import numpy as np
import pytest

from passcheck.cli import compare_model
from passcheck.corpus import generate_corpus
from passcheck.hamiltonian import build_problem, imaginary_crossings
from passcheck.model import (INF, PoleResidueModel, load_model,
                             passivity_metric, passivity_metric_many, realize)
from passcheck.search import SearchConfig, run
from passcheck.verifier import check_passivity, preset
from passcheck.warp import build_warp_map

CORPUS_SEED = 2026
CORPUS_SIZE = 200


def _verdict(n, ok, detail):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="session")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    manifest = generate_corpus(CORPUS_SEED, out, count=CORPUS_SIZE)
    models = [load_model(out / e["file"]) for e in manifest["entries"]]
    return manifest, models


def test_criterion_1_oracle_agreement(corpus):
    manifest, models = corpus
    t0 = time.perf_counter()
    labels = []
    silent_misses = 0
    for model in models:
        doc = compare_model(model, mode="hard")
        labels.append(doc["classification"])
        if doc["classification"] != "TP":
            assert "dense_check" in doc  # every disagreement adjudicated
            if doc["adaptive_passive"] and doc["dense_check"]["violation_found"]:
                silent_misses += 1
    elapsed = time.perf_counter() - t0
    tp_rate = labels.count("TP") / len(labels)
    ok = tp_rate >= 0.99 and silent_misses == 0 and elapsed < 600
    assert _verdict(1, ok,
                    f"TP {labels.count('TP')}/{len(labels)} ({tp_rate:.1%}), "
                    f"undetected violations: {silent_misses}, {elapsed:.0f}s")


def test_criterion_2_crossing_accuracy(corpus):
    manifest, models = corpus
    t0 = time.perf_counter()
    violating = [m for m, e in zip(models, manifest["entries"])
                 if e["target"] > 1.0 and realize(m).state_order <= 40][:50]
    assert len(violating) == 50
    missed = 0
    worst_edge = 0.0
    for model in violating:
        ws = imaginary_crossings(
            build_problem(realize(model)),
            dedup_tol=1e-9 * model.p_max).frequencies
        report = check_passivity(model, mode="hard")
        assert not report.passive
        for w in ws:
            if w > 0 and not any(b.contains(w) for b in report.bands):
                missed += 1
        edges = [e for b in report.bands for e in (b.omega_lo, b.omega_hi)
                 if 0.0 < e < INF]
        for e in edges:
            rel = min(abs(e - w) / w for w in ws if w > 0)
            worst_edge = max(worst_edge, rel)
    elapsed = time.perf_counter() - t0
    ok = missed == 0 and worst_edge <= 1e-6 and elapsed < 120
    assert _verdict(2, ok,
                    f"50 models: {missed} crossings outside bands, worst "
                    f"edge error {worst_edge:.2e} (<= 1e-6), {elapsed:.0f}s")


def test_criterion_3_analytic_siso():
    def siso(residue):
        return PoleResidueModel(
            poles=(complex(-1.0),), residues=(np.array([[residue]], dtype=complex),),
            is_pair=(False,), direct_term=np.zeros((1, 1)),
            port_count=1, omega_max=10.0)

    report = check_passivity(siso(2.0), mode="hard")
    peak_err = abs(report.bands[0].phi_peak - 2.0) if report.bands else INF
    edge_err = abs(report.bands[0].omega_hi - math.sqrt(3.0)) if report.bands else INF
    passive_all = all(check_passivity(siso(0.5), mode=m).passive
                      for m in ("soft", "hard", "final"))
    ok = (not report.passive and len(report.bands) == 1
          and peak_err <= 1e-9 and edge_err <= 1e-6 and passive_all)
    assert _verdict(3, ok,
                    f"2/(s+1): peak err {peak_err:.1e} (<= 1e-9), edge err "
                    f"{edge_err:.1e} (<= 1e-6); 0.5/(s+1) passive in all "
                    f"modes: {passive_all}")


def test_criterion_4_warp_properties(corpus):
    _, models = corpus
    rng = np.random.default_rng(99)
    maps = [build_warp_map(m, preset("hard").warp_params) for m in models[:20]]
    worst_rt = 0.0
    mono_fail = 0
    n = 10_000
    for k in range(n):
        wmap = maps[k % len(maps)]
        top = wmap.points[-2]  # last finite control point
        w = float(10.0 ** rng.uniform(-6, math.log10(top) + 1))
        back = wmap.unwarp(wmap.warp(w))
        worst_rt = max(worst_rt, abs(back - w) / w)
        w2 = w * (1.0 + 10.0 ** rng.uniform(-8, 1))
        if not wmap.warp(w) < wmap.warp(w2):
            mono_fail += 1
    exact = all(wmap.warp(p) == float(i)
                for wmap in maps
                for i, p in enumerate(wmap.points[:-1]))
    exact = exact and all(wmap.warp(INF) == float(wmap.L) for wmap in maps)
    ok = worst_rt <= 1e-12 and mono_fail == 0 and exact
    assert _verdict(4, ok,
                    f"{n} round trips worst rel err {worst_rt:.1e} (<= 1e-12), "
                    f"{mono_fail} monotonicity failures, control points exact: "
                    f"{exact}")


def test_criterion_5_search_bookkeeping():
    rng = np.random.default_rng(77)
    count_mismatch = 0
    partition_fail = 0
    monotone_fail = 0
    cases = 1000
    for _ in range(cases):
        amp = rng.uniform(0.3, 1.5)
        freq = rng.uniform(1, 40)
        phase = rng.uniform(0, 6)
        calls = [0]

        def f(z, a=amp, q=freq, c=phase):
            calls[0] += 1
            return a * (0.6 + 0.4 * math.sin(q * z + c))

        M = int(rng.choice([3, 5, 7]))
        cfg = SearchConfig(
            M=M,
            h0=int(rng.integers(0, 3)),
            delta_zeta=10.0 ** rng.uniform(-8, -3),
            delta_theta=10.0 ** rng.uniform(-9, -3),
            delta_eta=10.0 ** rng.uniform(-4, -1),
            epsilon0=10.0 ** rng.uniform(-4, -2),
            budget_schedule=tuple(range(int(rng.integers(5, 30)), 180,
                                        int(rng.integers(20, 60)))),
            basket_reuse=bool(rng.random() < 0.3),
        )
        trace = []
        res = run(f, cfg, trace=trace)
        if calls[0] != res.eval_count:
            count_mismatch += 1
        widths = sorted((i * M ** (-h), (i + 1) * M ** (-h))
                        for h, i, _ in res.leaves)
        covered = (abs(widths[0][0]) < 1e-15
                   and abs(widths[-1][1] - 1.0) < 1e-12
                   and all(abs(b1 - a2) < 1e-12
                           for (_, b1), (a2, _) in zip(widths, widths[1:])))
        if not covered:
            partition_fail += 1
        tm = [rec["theta_max"] for rec in trace]
        if any(a > b for a, b in zip(tm, tm[1:])):
            monotone_fail += 1
    ok = count_mismatch == 0 and partition_fail == 0 and monotone_fail == 0
    assert _verdict(5, ok,
                    f"{cases} configs: {count_mismatch} call-count mismatches, "
                    f"{partition_fail} partition breaks, {monotone_fail} "
                    f"theta_max regressions")


def test_criterion_6_effort_ordering(corpus):
    _, models = corpus
    medians = {}
    for mode in ("soft", "hard", "final"):
        ks = [check_passivity(m, mode=mode).total_evaluations for m in models]
        medians[mode] = statistics.median(ks)
    ok = medians["soft"] <= medians["hard"] <= medians["final"]
    assert _verdict(6, ok,
                    f"median K: soft {medians['soft']:.0f} <= hard "
                    f"{medians['hard']:.0f} <= final {medians['final']:.0f}")


def test_criterion_7_narrow_peak():
    # Q = |beta| / (2 |alpha|) = 1 / (2 * 5e-5) = 1e4; the resonance adds
    # ~2e-3 on top of a 0.999 baseline, so phi > 1 only over a relative
    # bandwidth of order 1e-4 around omega = 1.
    alpha = 5e-5
    model = PoleResidueModel(
        poles=(complex(-alpha, 1.0),),
        residues=(np.array([[2e-3 * alpha]], dtype=complex),),
        is_pair=(True,), direct_term=np.array([[0.999]]),
        port_count=1, omega_max=1.2)
    report = check_passivity(model, mode="hard")
    k = report.total_evaluations
    detected = (not report.passive
                and any(b.contains(1.0) for b in report.bands))
    width = min((b.omega_hi - b.omega_lo) for b in report.bands) if report.bands else INF
    grid = np.linspace(0.0, model.omega_max, k)
    uniform_max = float(np.max(passivity_metric_many(model, grid)))
    ok = (detected and 1e-5 <= width <= 1e-3
          and report.bands[0].phi_peak >= 1.0 + 5e-4
          and uniform_max <= 1.0)
    assert _verdict(7, ok,
                    f"hard mode detects (K={k}, rel bandwidth {width:.1e}); "
                    f"uniform grid of {k} points max phi {uniform_max:.6f} "
                    f"(misses: {uniform_max <= 1.0})")


def test_criterion_8_determinism(corpus):
    _, models = corpus
    import json
    identical = True
    for model in models[:10]:
        a = check_passivity(model, mode="hard").to_dict(include_timing=False)
        b = check_passivity(model, mode="hard").to_dict(include_timing=False)
        if json.dumps(a, sort_keys=True).encode() != \
                json.dumps(b, sort_keys=True).encode():
            identical = False
    assert _verdict(8, identical,
                    f"10 repeated runs byte-identical excluding timing: "
                    f"{identical}")
