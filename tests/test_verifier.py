import dataclasses
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from band_helpers import band_contains

import passcheck.verifier as verifier_mod
from passcheck import corpus, search
from passcheck.model import (INF, METRIC_BUDGET, PoleResidueModel, load_model,
                             passivity_metric, passivity_metric_many)
from passcheck.report import ViolationBand
from passcheck.search import SearchConfig
from passcheck.verifier import (PRESETS, EvaluatorError, check_passivity,
                                dense_reference_check, merge_samples,
                                postprocess_edge_maxima, preset)
from passcheck.warp import WarpMap, build_warp_map


def siso(pole, residue, direct=0.0, omega_max=10.0):
    return PoleResidueModel(
        poles=(complex(pole),), residues=(np.array([[residue]], dtype=complex),),
        is_pair=(False,), direct_term=np.array([[direct]]),
        port_count=1, omega_max=omega_max)


def resonant(damping, w0, residue_scale, direct=0.0, omega_max=None):
    p = complex(-damping * w0, w0 * math.sqrt(max(1 - damping ** 2, 0.0)))
    return PoleResidueModel(
        poles=(p,), residues=(np.array([[residue_scale * abs(p.real)]],
                                       dtype=complex),),
        is_pair=(True,), direct_term=np.array([[direct]]),
        port_count=1, omega_max=omega_max or 2.0 * w0)


class TestPresets:
    def test_names(self):
        assert sorted(PRESETS) == ["final", "hard", "soft"]

    def test_soft_values(self):
        p = preset("soft")
        assert p.warp_params.rho == 1e3
        assert (p.warp_params.R_cp, p.warp_params.R_rp) == (1, 2)
        assert p.search_config.M == 5
        assert p.search_config.budget_schedule[0] == 7
        assert p.search_config.budget_schedule[-1] == 100
        assert not p.search_config.basket_reuse

    def test_hard_values(self):
        p = preset("hard")
        assert math.isinf(p.warp_params.rho)
        assert (p.warp_params.R_cp, p.warp_params.R_rp) == (3, 3)
        assert p.search_config.delta_eta == 1e-2
        assert p.search_config.budget_schedule == tuple(range(10, 101, 10))

    def test_final_values(self):
        p = preset("final")
        assert p.search_config.M == 3
        assert p.search_config.epsilon0 == 1e-4
        assert p.search_config.budget_schedule == (50, 100, 150, 200, 250)
        assert p.search_config.basket_reuse

    def test_unknown_mode(self):
        with pytest.raises(KeyError):
            preset("extreme")


class TestEdgeMaxima:
    def test_interior_max_retained(self):
        samples = [(0.1, 0.1, 0.9, 0), (0.2, 0.2, 1.2, 0), (0.3, 0.3, 0.8, 0)]
        assert postprocess_edge_maxima(samples) == [1]

    def test_edge_sample_dominated_by_neighbor(self):
        # rising into the next subband: the subband-edge value 1.1 is not a
        # local max on the merged ordering and must be dropped
        samples = [(0.5, 0.5, 0.9, 0), (0.99, 0.99, 1.1, 0),
                   (1.01, 1.01, 1.3, 1), (1.5, 1.5, 0.8, 1)]
        assert postprocess_edge_maxima(samples) == [2]

    def test_below_threshold_ignored(self):
        samples = [(0.1, 0.1, 0.2, 0), (0.2, 0.2, 0.9, 0), (0.3, 0.3, 0.2, 0)]
        assert postprocess_edge_maxima(samples) == []

    def test_plateau_keeps_leftmost(self):
        samples = [(z, z, p, 0) for z, p in
                   [(0.1, 0.5), (0.2, 1.5), (0.3, 1.5), (0.4, 0.5)]]
        assert postprocess_edge_maxima(samples) == [1]

    def test_global_endpoints_are_half_neighborhood_maxima(self):
        samples = [(0.1, 0.1, 1.4, 0), (0.2, 0.2, 1.2, 0), (0.3, 0.3, 1.3, 0)]
        assert postprocess_edge_maxima(samples) == [0, 2]

    def test_matches_plateau_scan(self):
        def scan(samples):
            vals = [s[2] for s in samples]
            n = len(vals)
            retained = []
            i = 0
            while i < n:
                j = i
                while j + 1 < n and vals[j + 1] == vals[i]:
                    j += 1
                left_ok = i == 0 or vals[i - 1] < vals[i]
                right_ok = j == n - 1 or vals[j + 1] < vals[i]
                if left_ok and right_ok and vals[i] > 1.0:
                    retained.append(i)
                i = j + 1
            return retained

        rng = np.random.default_rng(19)
        cases = [[], [1.5], [0.5], [1.5] * 4, [1.2, 1.5, 1.1, 1.3]]
        for _ in range(2000):
            # runs of few distinct values: plateaus anywhere, ends included
            k = int(rng.integers(1, 12))
            levels = rng.choice([0.5, 1.0, 1.2, 1.5, 2.0], size=k)
            cases.append(np.repeat(levels, rng.integers(1, 5, size=k)))
        for vals in cases:
            samples = [(0.0, 0.0, float(p), 0) for p in vals]
            assert postprocess_edge_maxima(samples) == scan(samples)


class TestMergeSamples:
    def test_order_and_dedup(self):
        class Fake:
            def __init__(self, samples):
                self.samples = samples

        wmap = WarpMap((0.0, 1.0, INF))
        merged = merge_samples([Fake([(0.2, 0.5), (0.8, 0.6)]),
                                Fake([(0.0, 0.6), (0.5, 0.7)])], wmap)
        zetas = [m[1] for m in merged]
        assert zetas == sorted(zetas)
        assert len(zetas) == len(set(zetas))
        for w, z, phi, sb in merged:
            assert w == wmap.unwarp(z)
            assert sb == int(z)


class TestCheckPassivity:
    def test_analytic_violation(self):
        # H = 2/(s+1): non-passive on [0, sqrt(3)), peak exactly 2 at dc
        report = check_passivity(siso(-1.0, 2.0), mode="hard")
        assert not report.passive
        assert len(report.bands) == 1
        band = report.bands[0]
        assert band.omega_lo == 0.0
        assert band.omega_hi == pytest.approx(math.sqrt(3.0), abs=1e-6)
        assert band.phi_peak == pytest.approx(2.0, abs=1e-9)
        assert band.omega_peak == pytest.approx(0.0, abs=1e-6)

    def test_analytic_passive_all_modes(self):
        for mode in ("soft", "hard", "final"):
            report = check_passivity(siso(-1.0, 0.5), mode=mode)
            assert report.passive
            assert report.bands == []
            assert report.mode == mode

    def test_direct_term_band_reaches_infinity(self):
        report = check_passivity(siso(-1.0, 0.1, direct=1.1), mode="hard")
        assert not report.passive
        assert report.bands[-1].omega_hi == INF
        assert report.bands[-1].phi_peak >= 1.1
        # JSON has no infinity: the report writes it as the string "inf".
        assert report.to_dict()["bands"][-1]["omega_hi"] == "inf"

    def test_total_evaluations_counts_metric_calls(self, monkeypatch):
        model = siso(-1.0, 0.5)
        calls = [0]

        def counting(m, w):
            calls[0] += 1
            return passivity_metric(m, w)

        def counting_many(m, ws):
            calls[0] += len(ws)
            return passivity_metric_many(m, ws)

        monkeypatch.setattr(verifier_mod, "passivity_metric", counting)
        monkeypatch.setattr(verifier_mod, "passivity_metric_many", counting_many)
        report = check_passivity(model, mode="soft")
        # band refinement would add calls; passive run has none
        assert report.passive
        assert calls[0] == report.total_evaluations
        assert report.refine_evaluations == 0

        # A violating model: refinement points are counted apart from K.
        calls[0] = 0
        report = check_passivity(siso(-1.0, 2.0), mode="hard")
        assert not report.passive and report.refine_evaluations > 0
        assert calls[0] == report.total_evaluations + report.refine_evaluations

    def test_non_finite_refine_metric_raises(self, monkeypatch):
        # The search sees finite values; the band refinement gets NaN.
        monkeypatch.setattr(verifier_mod, "passivity_metric",
                            lambda m, w: math.nan)
        with pytest.raises(EvaluatorError, match="non-finite metric at omega="):
            check_passivity(siso(-1.0, 2.0), mode="hard")

    def test_rejects_invalid_model(self):
        with pytest.raises(ValueError):
            check_passivity(siso(1.0, 1.0), mode="soft")

    def test_gamma_override(self):
        report = check_passivity(siso(-1.0, 0.5), mode="hard", gamma=0.4)
        assert not report.passive
        assert report.gamma == 0.4
        assert report.bands[0].phi_peak == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("mode", ["soft", "hard", "final"])
    def test_gamma_scales_the_metric_only(self, mode):
        # Doubling residues and D doubles H exactly, so checking 2m at
        # gamma = 2 must sample, stop and refine exactly as m at gamma = 1.
        m = corpus._random_model(np.random.default_rng(10), 2, 6)
        m2 = dataclasses.replace(m, residues=tuple(2.0 * r for r in m.residues),
                                 direct_term=2.0 * m.direct_term)
        a = check_passivity(m, mode)
        b = check_passivity(m2, mode, gamma=2.0)
        assert b.total_evaluations == a.total_evaluations
        assert b.refine_evaluations == a.refine_evaluations
        assert b.passive == a.passive
        assert [(w, z, sb) for w, z, _, sb in b.samples] == \
            [(w, z, sb) for w, z, _, sb in a.samples]
        assert [s[2] for s in b.samples] == [2.0 * s[2] for s in a.samples]
        assert [(x.omega_lo, x.omega_hi, x.omega_peak, x.phi_peak)
                for x in b.bands] == \
            [(x.omega_lo, x.omega_hi, x.omega_peak, 2.0 * x.phi_peak)
             for x in a.bands]

    def test_verdict_consistent_with_samples(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            model = resonant(damping=float(10 ** rng.uniform(-3, 0)),
                             w0=float(10 ** rng.uniform(0, 2)),
                             residue_scale=float(rng.uniform(0.3, 3.0)))
            report = check_passivity(model, mode="hard")
            any_hot = any(phi > 1.0 for _, _, phi, _ in report.samples)
            if report.passive:
                assert not any_hot and report.bands == []
            else:
                assert report.bands
                for band in report.bands:
                    assert band.phi_peak > 1.0
                    assert band.omega_lo <= band.omega_peak <= band.omega_hi

    def test_report_round_trip(self):
        report = check_passivity(siso(-1.0, 2.0), mode="soft")
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["passive"] is report.passive is False
        assert doc["total_evaluations"] == report.total_evaluations
        assert doc["bands"] == [b.to_dict() for b in report.bands]

    def test_refine_evaluations_round_trip(self):
        report = check_passivity(siso(-1.0, 2.0), mode="hard")
        doc = report.to_dict()
        assert doc["refine_evaluations"] == report.refine_evaluations > 0

    def test_repeat_runs_identical_without_timing(self):
        a = check_passivity(siso(-1.0, 2.0), mode="final")
        b = check_passivity(siso(-1.0, 2.0), mode="final")
        assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)


class TestExtractBands:
    """Each hot run of samples (phi > 1 in a row) is one band."""

    @staticmethod
    def two_peaks():
        # Resonances at 10 and 12 rad/s; the metric dips to about 1.21
        # between them, so one hot run holds two retained maxima.
        poles = (complex(-1.0, 10.0), complex(-1.0, 12.0))
        return PoleResidueModel(
            poles=poles,
            residues=tuple(np.array([[1.2]], dtype=complex) for _ in poles),
            is_pair=(True, True), direct_term=np.array([[0.0]]),
            port_count=1, omega_max=30.0)

    def test_one_band_and_two_bisections_per_hot_run(self, monkeypatch):
        calls = []
        crossing = verifier_mod._crossing

        def counting(ev, hot, cold, phi_hot, phi_cold):
            calls.append((hot, cold))
            return crossing(ev, hot, cold, phi_hot, phi_cold)

        monkeypatch.setattr(verifier_mod, "_crossing", counting)
        model = self.two_peaks()
        report = check_passivity(model, mode="hard")
        hot = [i for i, s in enumerate(report.samples) if s[2] > 1.0]
        assert hot == list(range(hot[0], hot[-1] + 1))
        assert len(postprocess_edge_maxima(report.samples)) == 2
        assert len(report.bands) == 1
        assert len(calls) == 2
        band = report.bands[0]
        assert band.omega_lo < 10.0 < 12.0 < band.omega_hi
        assert passivity_metric(model, band.omega_lo) == pytest.approx(1.0, abs=1e-8)
        assert passivity_metric(model, band.omega_hi) == pytest.approx(1.0, abs=1e-8)
        assert band.phi_peak >= max(s[2] for s in report.samples)
        assert band.omega_peak == pytest.approx(12.0, rel=0.05)

    @pytest.mark.parametrize("mode", ["soft", "hard", "final"])
    def test_edges_to_double_precision(self, mode):
        # 2/(s+1) crosses 1 at exactly sqrt(3); a damped resonance's edges
        # lie where the metric is 1 to the last few bits.
        band, = check_passivity(siso(-1.0, 2.0), mode).bands
        assert band.omega_hi == pytest.approx(math.sqrt(3.0), rel=1e-14)
        for model in (self.two_peaks(),
                      resonant(damping=0.02, w0=10.0, residue_scale=1.2)):
            for band in check_passivity(model, mode).bands:
                for omega in (band.omega_lo, band.omega_hi):
                    assert abs(passivity_metric(model, omega) - 1.0) <= 1e-13

    @pytest.mark.parametrize("mode", ["soft", "hard", "final"])
    def test_refinement_never_evaluates_a_sample(self, monkeypatch, mode):
        seen = []
        one = verifier_mod.Evaluator.one

        def recording(ev, zeta):
            seen.append(zeta)
            return one(ev, zeta)

        monkeypatch.setattr(verifier_mod.Evaluator, "one", recording)
        for model in (self.two_peaks(), siso(-1.0, 2.0),
                      resonant(damping=0.02, w0=10.0, residue_scale=1.2)):
            seen.clear()
            report = check_passivity(model, mode)
            assert report.bands and seen
            assert not set(seen) & {s[1] for s in report.samples}


class TestLockstep:
    """All subband searches advance together, one batched call per round."""

    @staticmethod
    def per_subband(f, L, config):
        return [search.run(lambda t, ell=ell: f(ell + t), config)
                for ell in range(L)]

    @staticmethod
    def lockstep(f, L, config):
        return search.lockstep([search.steps(config) for _ in range(L)],
                               lambda zetas: [f(z) for z in zetas])

    @staticmethod
    def fields(res):
        return (res.samples, res.leaves, res.eval_count)

    @pytest.mark.parametrize("config", [
        PRESETS["soft"].search_config,
        PRESETS["hard"].search_config,
        PRESETS["final"].search_config,
        SearchConfig(M=5, h0=1, delta_eta=1e-2, basket_reuse=True,
                     budget_schedule=(10, 40, 80)),
    ], ids=["soft", "hard", "final", "basket-reuse"])
    def test_matches_per_subband_runs(self, config):
        def f(z):
            return 0.7 + 0.45 * math.sin(5.3 * z + 0.4) * math.exp(-0.05 * z)

        L = 7
        expected = self.per_subband(f, L, config)
        got = self.lockstep(f, L, config)
        assert [self.fields(r) for r in got] == [self.fields(r) for r in expected]

    def test_matches_per_subband_runs_when_escalating(self):
        # Just below the threshold everywhere: U1 and U2 hold, so budget
        # overruns escalate through the schedule.
        config = PRESETS["hard"].search_config

        def f(z):
            return 0.9996 - 1e-4 * (math.sin(2.1 * z) ** 2)

        trace = []
        search.run(f, config, trace=trace)
        assert trace[-1]["budget"] > config.budget_schedule[0]
        expected = self.per_subband(f, 4, config)
        got = self.lockstep(f, 4, config)
        assert [self.fields(r) for r in got] == [self.fields(r) for r in expected]

    def test_one_kernel_call_per_round(self, monkeypatch):
        model = resonant(damping=0.02, w0=10.0, residue_scale=1.2)
        config = PRESETS["hard"].search_config
        wmap = build_warp_map(model, PRESETS["hard"].warp_params)
        steps = []
        for ell in range(wmap.L):
            trace = []
            search.run(lambda t, ell=ell: passivity_metric(model, wmap.unwarp(ell + t)),
                       config, trace=trace)
            steps.append(1 + len(trace))
        calls = []

        def counting_many(m, ws):
            calls.append(len(ws))
            return passivity_metric_many(m, ws)

        monkeypatch.setattr(verifier_mod, "passivity_metric_many", counting_many)
        ev = verifier_mod.Evaluator(model, wmap)
        results = search.lockstep([search.steps(config) for _ in range(wmap.L)],
                                  lambda zetas: ev(zetas)[1].tolist())
        assert len(calls) <= max(steps)
        assert sum(calls) == sum(r.eval_count for r in results)

    def test_kernel_failure_flags_partial(self):
        # An error raised by evaluate in the second round, once every
        # search has begun, reaches the caller of lockstep as the same
        # object, unwrapped.
        error = FloatingPointError("kernel failed")
        rounds = []

        def evaluate(zetas):
            rounds.append(zetas)
            if len(rounds) > 1:
                raise error
            return [0.9] * len(zetas)

        with pytest.raises(FloatingPointError) as exc_info:
            search.lockstep([search.steps(PRESETS["hard"].search_config)
                             for _ in range(3)], evaluate)
        assert exc_info.value is error
        assert len(rounds) == 2


class TestPoleFree:
    """A model with only a direct term: sigma_max(D) at every frequency."""

    @staticmethod
    def direct_only(d):
        return PoleResidueModel(poles=(), residues=(), is_pair=(),
                                direct_term=np.array([[d]]), port_count=1,
                                omega_max=10.0)

    def test_passive(self):
        report = check_passivity(self.direct_only(0.5), mode="hard")
        assert report.passive
        assert report.bands == []
        # The chain {0, omega_max, inf}: 2 subbands of 13 samples each.
        assert report.total_evaluations == 26

    def test_violation_spans_whole_axis(self):
        report = check_passivity(self.direct_only(1.5), mode="hard")
        assert not report.passive
        assert report.bands == [ViolationBand(omega_lo=0.0, omega_hi=INF,
                                              omega_peak=INF, phi_peak=1.5)]


class TestLocatePeak:
    def test_peak_at_interval_end(self):
        # 2/(s+1) peaks at omega = 0, the left end of the swept interval,
        # below the first of the eight sweep midpoints.
        model = siso(-1.0, 2.0)
        wmap = build_warp_map(model, PRESETS["hard"].warp_params)
        ev = verifier_mod.Evaluator(model, wmap)
        best, (lo, hi) = verifier_mod.sweep(ev, 0.0, float(wmap.L), 8)
        assert lo == 0.0 and hi == 1.5 * (wmap.L / 8)
        omega, phi = verifier_mod.locate_peak(ev, lo, hi, best)
        assert phi == pytest.approx(2.0, abs=1e-12)
        assert omega < 1e-6


class TestDenseReferenceCheck:
    def test_single_midpoint(self):
        model = siso(-1.0, 2.0)
        violated, w, phi = dense_reference_check(model, count=1)
        # the single sample sits at the warped-axis midpoint
        assert phi == pytest.approx(passivity_metric(model, w))

    def test_detects_violation(self):
        violated, w, phi = dense_reference_check(siso(-1.0, 2.0), count=4096)
        assert violated
        assert phi == pytest.approx(2.0, abs=1e-4)
        assert w <= math.sqrt(3.0)

    def test_passive_clean(self):
        violated, _, phi = dense_reference_check(siso(-1.0, 0.5), count=4096)
        assert not violated
        assert phi <= 0.5 + 1e-12

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            dense_reference_check(siso(-1.0, 0.5), count=0)

    def test_memory_bounded_at_large_count(self):
        # P = 8 with 100 pole terms: unchunked, 2e5 points would need a
        # (2e5, 100) kernel matrix plus (2e5, 8, 8) H, well over 300 MB.
        rng = np.random.default_rng(31)
        poles = tuple(complex(-rng.uniform(0.1, 5), rng.uniform(1, 100))
                      for _ in range(50))
        model = PoleResidueModel(
            poles=poles,
            residues=tuple(0.01 * (rng.standard_normal((8, 8))
                                   + 1j * rng.standard_normal((8, 8)))
                           for _ in poles),
            is_pair=(True,) * 50, direct_term=0.1 * np.eye(8),
            port_count=8, omega_max=120.0)
        tracemalloc.start()
        try:
            dense_reference_check(model, count=2 * 10 ** 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20

    def test_memory_does_not_grow_with_count(self):
        # A P = 1, three-term model: the kernel is cheap, so the peak is
        # the sweep's own arrays, which must not scale with count.
        model = PoleResidueModel(
            poles=(complex(-1.0, 5.0), complex(-3.0)),
            residues=(np.array([[0.5 + 0.2j]]), np.array([[1.0 + 0j]])),
            is_pair=(True, False), direct_term=np.array([[0.1]]),
            port_count=1, omega_max=10.0)
        peaks = []
        for count in (10 ** 5, 10 ** 6):
            tracemalloc.start()
            try:
                dense_reference_check(model, count)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0]

    def test_blocks_keep_the_first_maximum(self):
        # A constant metric ties at every midpoint of every block, so the
        # first midpoint of the first block is the worst sample.
        flat = TestPoleFree.direct_only(0.5)
        wmap = build_warp_map(flat, verifier_mod.DENSE_WARP)
        count = METRIC_BUDGET + 5
        assert dense_reference_check(flat, count) == (
            False, wmap.unwarp(0.5 * (wmap.L / count)), 0.5)


class TestResonant:
    def test_sharp_resonance_band(self):
        model = resonant(damping=1e-3, w0=5.0, residue_scale=3.0)
        report = check_passivity(model, mode="hard")
        dense_violated, w_star, phi_star = dense_reference_check(model, 10 ** 5)
        assert report.passive == (not dense_violated)
        if not report.passive:
            assert any(band_contains(b, w_star) for b in report.bands)
            assert max(b.phi_peak for b in report.bands) >= phi_star - 1e-6


# Two models of the benchmark's corpus-hard workload (bench/inputs.generate,
# seeds 28 and 71) that every preset calls passive although each has a band
# with peak 1.001 next to a high-Q pair: (file, its SHA-256, a witness omega).
MISSED = [
    ("corpus_hard_seed28_model_0205.json",
     "efe282653e3fa2b2fae06e56d037768ef6bef6d6c2e4cc91d7cdd7b08ec2bf46", 1.1878),
    ("corpus_hard_seed71_model_0020.json",
     "05e0531b9354c1c76f43c17c8cf266296632b840344dce9d1412dddac7f51171", 3.1854),
]
MISSED_IDS = ["seed28", "seed71"]
DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, sha256, omega", MISSED, ids=MISSED_IDS)
def test_missed_model_violates(name, sha256, omega):
    path = DATA / name
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
    assert passivity_metric(load_model(path), omega) > 1.0


@pytest.mark.xfail(strict=True, reason="every preset misses this band")
@pytest.mark.parametrize("mode", sorted(PRESETS))
@pytest.mark.parametrize("name, sha256, omega", MISSED, ids=MISSED_IDS)
def test_missed_model_reported(name, sha256, omega, mode):
    report = check_passivity(load_model(DATA / name), mode=mode)
    assert not report.passive
