import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg  # noqa: F401 - loaded before any traced solve

from passcheck import corpus, hamiltonian
from passcheck.hamiltonian import (HamiltonianProblem, OracleUnavailable,
                                   build_problem, imaginary_crossings,
                                   oracle_verdict)
from passcheck.model import (INF, PoleResidueModel, StateSpaceModel,
                             passivity_metric, passivity_metric_many, realize)
from passcheck.verifier import check_passivity


def siso_ss(a, b, c, d):
    return StateSpaceModel(A=np.array([[a]], float), B=np.array([[b]], float),
                           C=np.array([[c]], float), D=np.array([[d]], float))


def siso_pr(pole, residue, direct=0.0, omega_max=10.0):
    return PoleResidueModel(
        poles=(complex(pole),), residues=(np.array([[residue]], dtype=complex),),
        is_pair=(False,), direct_term=np.array([[direct]]),
        port_count=1, omega_max=omega_max)


def crossing_oracle_siso(a, b, c, d):
    """Closed form: |c*b/(jw - a) + d|^2 = 1 solved for w >= 0.

    With g = c*b, |H|^2 = (d*w^2 + ... ) — write |H(jw)|^2 =
    ((g + d*(-a))^2 + d^2 w^2) / (a^2 + w^2) and solve = 1.
    """
    g = b * c
    num0 = (g - d * a) ** 2
    # (num0 + d^2 w^2) / (a^2 + w^2) = 1  ->  w^2 (d^2 - 1) = a^2 - num0
    if d ** 2 == 1.0:
        return []
    w2 = (a ** 2 - num0) / (d ** 2 - 1.0)
    if w2 < 0:
        return []
    return [math.sqrt(w2)]


class TestBuildProblem:
    def test_full_kind_generic_d(self):
        prob = build_problem(siso_ss(-1.0, 1.0, 2.0, 0.0))
        assert prob.b is None
        assert prob.dim == 2

    def test_pencil_kind_near_unit_d(self):
        prob = build_problem(siso_ss(-1.0, 1.0, 2.0, 1.0))
        assert prob.b is not None
        assert prob.dim == 4

    def test_full_matrix_entries(self):
        # A=-1, B=1, C=2, D=0: R=S=I, M = [[-1, 1], [-4, 1]]
        prob = build_problem(siso_ss(-1.0, 1.0, 2.0, 0.0))
        np.testing.assert_allclose(prob.a, [[-1.0, 1.0], [-4.0, 1.0]])

    def test_full_matrix_generic_blocks(self):
        a, b, c, d = -2.0, 0.7, 1.3, 0.4
        prob = build_problem(siso_ss(a, b, c, d))
        r = 1 - d * d
        expected = np.array([
            [a + b * d * c / r, b * b / r],
            [-c * c / r, -a - c * d * b / r],
        ])
        np.testing.assert_allclose(prob.a, expected, rtol=1e-14)

    def test_pencil_blocks(self):
        prob = build_problem(siso_ss(-1.0, 1.0, 2.0, 1.0))
        Me, K = prob.a, prob.b
        np.testing.assert_allclose(Me, [
            [-1, 0, 1, 0],
            [0, 1, 0, -2],
            [0, 1, -1, 1],
            [2, 0, 1, -1],
        ])
        np.testing.assert_allclose(K, np.diag([1.0, 1.0, 0.0, 0.0]))


class TestImaginaryCrossings:
    def test_gain_two_lowpass(self):
        # H = 2/(s+1): crossing at sqrt(3), matches the closed form
        prob = build_problem(siso_ss(-1.0, 1.0, 2.0, 0.0))
        ws = imaginary_crossings(prob).frequencies
        expected = crossing_oracle_siso(-1.0, 1.0, 2.0, 0.0)
        assert expected == pytest.approx([math.sqrt(3.0)])
        assert list(ws) == pytest.approx(expected, rel=1e-12)

    def test_passive_model_no_crossings(self):
        prob = build_problem(siso_ss(-1.0, 1.0, 0.5, 0.0))
        assert imaginary_crossings(prob).frequencies == ()

    def test_closed_form_random_siso(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            a = -rng.uniform(0.1, 5)
            b = rng.uniform(0.2, 2)
            c = rng.uniform(0.2, 3)
            d = rng.uniform(0, 0.9)
            prob = build_problem(siso_ss(a, b, c, d))
            got = sorted(imaginary_crossings(prob).frequencies)
            expected = crossing_oracle_siso(a, b, c, d)
            assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    def test_crossings_sit_on_threshold(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            pr = _random_pr(rng, P=2, pairs=2, reals=1)
            prob = build_problem(realize(pr))
            for w in imaginary_crossings(prob).frequencies:
                assert abs(passivity_metric(pr, w) - 1.0) <= 1e-6

    def test_spectral_symmetry(self):
        # Hamiltonian spectra come in {lam, -lam, conj(lam), -conj(lam)} sets
        rng = np.random.default_rng(29)
        pr = _random_pr(rng, P=2, pairs=2, reals=2)
        prob = build_problem(realize(pr))
        import scipy.linalg
        eigs = scipy.linalg.eigvals(prob.a)
        for lam in eigs:
            assert min(abs(eigs + lam)) <= 1e-7 * max(1.0, abs(lam))
            assert min(abs(eigs - np.conj(lam))) <= 1e-7 * max(1.0, abs(lam))

    def test_pencil_agrees_with_full(self):
        # same model analyzed both ways: nudge D across the switch by
        # building the pencil manually via a near-unity direct term
        rng = np.random.default_rng(31)
        pr = _random_pr(rng, P=2, pairs=1, reals=1)
        ss = realize(pr)
        full = build_problem(ss)
        assert full.b is None
        N, P = ss.state_order, ss.D.shape[0]
        Me = np.block([
            [ss.A, np.zeros((N, N)), ss.B, np.zeros((N, P))],
            [np.zeros((N, N)), -ss.A.T, np.zeros((N, P)), -ss.C.T],
            [np.zeros((P, N)), ss.B.T, -np.eye(P), ss.D.T],
            [ss.C, np.zeros((P, N)), ss.D, -np.eye(P)],
        ])
        K = np.zeros_like(Me)
        K[:2 * N, :2 * N] = np.eye(2 * N)
        pencil = HamiltonianProblem(Me, K)
        wf = np.array(imaginary_crossings(full, dedup_tol=1e-9).frequencies)
        wp = np.array(imaginary_crossings(pencil, dedup_tol=1e-9).frequencies)
        assert wf.size == wp.size
        np.testing.assert_allclose(wp, wf, rtol=1e-6, atol=1e-9)

    def test_dimension_guard(self, monkeypatch):
        prob = build_problem(siso_ss(-1.0, 1.0, 2.0, 0.0))
        monkeypatch.setattr(hamiltonian, "MAX_DENSE_DIM", 1)
        with pytest.raises(OracleUnavailable):
            imaginary_crossings(prob)

    def test_dedup(self):
        prob = HamiltonianProblem(np.diag([1j, 1j * (1 + 1e-12), 2j]))
        assert imaginary_crossings(prob, dedup_tol=1e-9).frequencies == (1.0, 2.0)
        assert imaginary_crossings(prob, dedup_tol=0).frequencies == (
            1.0, 1.0 + 1e-12, 2.0)

    def test_build_and_solve_in_place(self):
        # The standard form is written into one matrix and the eigensolver
        # overwrites it: no block copies and no solver copy at the peak.
        ss = realize(corpus._random_model(np.random.default_rng(5), 8, 60))
        tracemalloc.start()
        try:
            prob = build_problem(ss)
            nbytes = prob.a.nbytes
            imaginary_crossings(prob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert prob.b is None and prob.dim == 960
        assert peak < 1.7 * nbytes


def _random_pr(rng, P, pairs, reals):
    poles, residues, flags = [], [], []
    for _ in range(pairs):
        poles.append(complex(-rng.uniform(0.1, 3), rng.uniform(0.5, 40)))
        residues.append(0.4 * (rng.standard_normal((P, P))
                               + 1j * rng.standard_normal((P, P))))
        flags.append(True)
    for _ in range(reals):
        poles.append(complex(-rng.uniform(0.1, 30), 0.0))
        residues.append(0.4 * rng.standard_normal((P, P)).astype(complex))
        flags.append(False)
    return PoleResidueModel(poles=tuple(poles), residues=tuple(residues),
                            is_pair=tuple(flags),
                            direct_term=0.2 * rng.standard_normal((P, P)),
                            port_count=P, omega_max=100.0)


class TestOracleVerdict:
    def test_low_frequency_band(self):
        # H = 2/(s+1): |H| > 1 on [0, sqrt(3)), peak 2 at dc
        pr = siso_pr(-1.0, 2.0)
        passive, bands = oracle_verdict(realize(pr), pr)
        assert not passive
        assert len(bands) == 1
        assert bands[0].omega_lo == 0.0
        assert bands[0].omega_hi == pytest.approx(math.sqrt(3.0), rel=1e-9)
        assert bands[0].omega_peak == pytest.approx(0.0, abs=1e-6)
        assert bands[0].phi_peak == pytest.approx(2.0, rel=1e-9)

    def test_passive_model(self):
        pr = siso_pr(-1.0, 0.5)
        passive, bands = oracle_verdict(realize(pr), pr)
        assert passive and bands == []

    def test_direct_term_violation_to_infinity(self):
        pr = siso_pr(-1.0, 0.1, direct=1.5)
        passive, bands = oracle_verdict(realize(pr), pr)
        assert not passive
        assert bands[-1].omega_hi == INF
        assert bands[-1].phi_peak >= 1.5

    def test_band_contains_worst_frequency(self):
        rng = np.random.default_rng(37)
        hits = 0
        for _ in range(20):
            pr = _random_pr(rng, P=2, pairs=2, reals=1)
            passive, bands = oracle_verdict(realize(pr), pr)
            omegas = np.geomspace(1e-3, 1e3, 20001)
            phis = passivity_metric_many(pr, omegas)
            k = int(np.argmax(phis))
            if phis[k] > 1.0:
                hits += 1
                assert not passive
                w = omegas[k]
                assert any(b.omega_lo <= w <= b.omega_hi for b in bands)
                assert max(b.phi_peak for b in bands) >= phis[k] - 1e-9
            elif passive:
                assert bands == []
        assert hits >= 5  # the sweep actually exercised violating models

    def test_gamma_three_passive_both_routes(self):
        # H = 2/(s+1) peaks at 2 < 3.
        pr = siso_pr(-1.0, 2.0)
        passive, bands = oracle_verdict(realize(pr), pr, gamma=3.0)
        assert passive and bands == []
        assert check_passivity(pr, "hard", gamma=3.0).passive

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, math.nan, math.inf])
    def test_gamma_rejected_by_both_routes(self, gamma):
        pr = siso_pr(-1.0, 2.0)
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            oracle_verdict(realize(pr), pr, gamma=gamma)
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            check_passivity(pr, "hard", gamma=gamma)

    def test_gamma_band_edge_both_routes(self):
        # |H| = 2 / sqrt(1 + w^2) > 1.5 on [0, sqrt(7)/3).
        pr = siso_pr(-1.0, 2.0)
        edge = math.sqrt(7.0) / 3.0
        passive, bands = oracle_verdict(realize(pr), pr, gamma=1.5)
        report = check_passivity(pr, "hard", gamma=1.5)
        assert not passive and not report.passive
        for found in (bands, report.bands):
            assert len(found) == 1
            assert found[0].omega_lo == 0.0
            assert found[0].omega_hi == pytest.approx(edge, rel=1e-9)

    def test_narrow_resonance_peak_matches_adaptive(self):
        # A Q = 5e4 resonance (phi 1.7648 near w = 100) on a broad real-pole
        # response that peaks at 1.5 at dc: the band peak is the resonance.
        pr = PoleResidueModel(
            poles=(complex(-1e-3, 100.0), complex(-50.0)),
            residues=(np.array([[5e-4]], dtype=complex),
                      np.array([[15.0]], dtype=complex)),
            is_pair=(True, False), direct_term=np.array([[1.2]]),
            port_count=1, omega_max=120.0)
        passive, bands = oracle_verdict(realize(pr), pr)
        adaptive = check_passivity(pr, "hard").bands
        assert not passive
        peak = max(bands, key=lambda b: b.phi_peak)
        assert peak.phi_peak == pytest.approx(
            max(b.phi_peak for b in adaptive), rel=1e-9)
        assert peak.phi_peak == pytest.approx(1.7648, abs=1e-4)
        assert peak.omega_peak == pytest.approx(100.00004, abs=1e-6)

    def test_band_peak_at_band_edges(self):
        # H = diag(2/(s+1), 4.5/(s+3)): sigma_max > 1 up to sqrt(11.25).  At
        # sqrt(3) the smaller singular value, |2/(jw+1)|, crosses 1 and splits
        # the band.  Each band's maximum sits on its lower edge, which no
        # open-midpoint sweep evaluates.
        pr = PoleResidueModel(
            poles=(complex(-1.0), complex(-3.0)),
            residues=(np.diag([2.0, 0.0]).astype(complex),
                      np.diag([0.0, 4.5]).astype(complex)),
            is_pair=(False, False), direct_term=np.zeros((2, 2)),
            port_count=2, omega_max=10.0)
        passive, bands = oracle_verdict(realize(pr), pr)
        assert not passive
        r3 = math.sqrt(3.0)
        assert len(bands) == 2
        found = [getattr(b, k) for b in bands
                 for k in ("omega_lo", "omega_hi", "omega_peak", "phi_peak")]
        assert found == pytest.approx(
            [0.0, r3, 0.0, 2.0, r3, math.sqrt(11.25), r3, 4.5 / math.sqrt(12.0)],
            rel=1e-12)

    def test_verdict_matches_crossings(self):
        pr = siso_pr(-1.0, 0.5)
        prob = build_problem(realize(pr))
        assert imaginary_crossings(prob).frequencies == ()
        passive, _ = oracle_verdict(realize(pr), pr)
        assert passive
