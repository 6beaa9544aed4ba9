import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passcheck.warp import (WarpMap, WarpParams, assemble_control_points,
                            build_warp_map, pole_samples, tail_samples)
from passcheck.model import PoleResidueModel

INF = math.inf


def simple_map(points=(0.0, 1.0, 2.0, INF)):
    return WarpMap(points)


class TestPoleSamples:
    def test_complex_pair_r1(self):
        out = pole_samples([complex(-1, 10)], WarpParams(R_cp=1), omega_max=100.0)
        assert sorted(out) == pytest.approx([9.0, 10.0, 11.0])

    def test_real_pole_r2(self):
        # Closed-form tangents as independent check of the formula:
        # tan(pi/6) = 1/sqrt(3), tan(pi/3) = sqrt(3).
        expected = [0.0, 5 / math.sqrt(3), 5 * math.sqrt(3)]
        out = pole_samples([complex(-5, 0)], WarpParams(R_rp=2), omega_max=100.0)
        assert sorted(out) == pytest.approx(expected, rel=1e-12)
        assert sorted(out)[1] == pytest.approx(2.8867513, rel=1e-6)
        assert sorted(out)[2] == pytest.approx(8.6602540, rel=1e-6)

    def test_q_compensation(self):
        out = pole_samples([complex(-0.001, 10)],
                           WarpParams(R_cp=1), omega_max=100.0)
        # Q = 5000 > Q_MAX = 500: alpha is stretched by Q_STRETCH = 50.
        assert sorted(out) == pytest.approx([9.95, 10.0, 10.05])

    def test_no_q_compensation_below_threshold(self):
        out = pole_samples([complex(-1, 10)],
                           WarpParams(R_cp=1), omega_max=100.0)
        assert sorted(out) == pytest.approx([9.0, 10.0, 11.0])

    def test_hf_class_uses_r_hf(self):
        # |im| close to omega_max -> R_hf samples (2*R+1 candidates, some < 0 dropped)
        out_hf = pole_samples([complex(-1, 95)], WarpParams(R_cp=1, R_hf=5),
                              omega_max=100.0)
        assert len(out_hf) == 11

    def test_negative_samples_dropped(self):
        out = pole_samples([complex(-50, 10)], WarpParams(R_cp=2), omega_max=100.0)
        assert all(w >= 0 for w in out)


class TestTailSamples:
    def test_formula(self):
        # TAIL_COUNT = 3 samples over TAIL_DECADES = 0.5 decades
        out = tail_samples(1.0)
        assert out[:-1] == pytest.approx([1.0, 10 ** (1 / 6), 10 ** (1 / 3), 10 ** 0.5])
        assert out[-1] == INF

    def test_first_is_omega_max_exactly(self):
        assert tail_samples(3.7)[0] == 3.7

    def test_ghz_scale(self):
        w = 2 * math.pi * 1e9
        out = tail_samples(w)
        assert out == pytest.approx([w, w * 10 ** (1 / 6), w * 10 ** (1 / 3),
                                     w * 10 ** 0.5, INF])


class TestAssemble:
    def test_dedup_protects_zero(self):
        # delta_omega = p_max / (N * rho) = 1 / (10 * 1e3) * 1e-1 ... pick values
        # giving 1e-4: p_max=1, N=10, rho=1e3 -> 1e-4.
        cps = assemble_control_points([0.0, 1e-9, 1.0, INF],
                                      WarpParams(rho=1e3),
                                      state_order=10, p_max=1.0)
        assert cps == (0.0, 1.0, INF)

    def test_rho_inf_keeps_all(self):
        cands = [0.0, 1e-9, 1e-8, 0.5, 1.0, INF]
        cps = assemble_control_points(cands, WarpParams(rho=INF),
                                      state_order=10, p_max=1.0)
        assert cps == (0.0, 1e-9, 1e-8, 0.5, 1.0, INF)

    def test_cluster_keeps_smallest(self):
        cps = assemble_control_points([0.5, 0.50001, 0.50002, 1.0],
                                      WarpParams(rho=1e3),
                                      state_order=10, p_max=1.0)
        assert 0.5 in cps
        assert 0.50001 not in cps and 0.50002 not in cps

    def test_protected_tail_survives(self):
        cps = assemble_control_points([1.0, 1.0 + 1e-9], WarpParams(rho=1e3),
                                      state_order=10, p_max=1.0,
                                      protected=(1.0 + 1e-9,))
        assert 1.0 + 1e-9 in cps

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        cands = list(rng.uniform(0, 10, size=40))
        a = assemble_control_points(cands, WarpParams(rho=1e3), 20, 10.0)
        rng.shuffle(cands)
        b = assemble_control_points(cands, WarpParams(rho=1e3), 20, 10.0)
        assert a == b

    def test_rho_inf_count_is_distinct_candidates(self):
        cands = [0.3, 0.3, 0.7, 1.5]
        cps = assemble_control_points(cands, WarpParams(rho=INF), 10, 1.5)
        assert len(cps) == len(set(cands) | {0.0, INF})


class TestWarpMap:
    def test_linear_subbands(self):
        wm = simple_map()
        assert wm.warp(0.5) == pytest.approx(0.5)
        assert wm.warp(1.5) == pytest.approx(1.5)

    def test_projective_tail(self):
        wm = simple_map()
        assert wm.warp(4.0) == pytest.approx(2.5)
        assert wm.warp(INF) == 3.0

    def test_unwarp_tail(self):
        wm = simple_map()
        assert wm.unwarp(2.5) == pytest.approx(4.0)
        assert wm.unwarp(3.0) == INF

    def test_control_points_exact(self):
        pts = (0.0, 0.37, 1.9, 55.5, INF)
        wm = WarpMap(pts)
        for ell, w in enumerate(pts[:-1]):
            assert wm.warp(w) == float(ell)
            assert wm.unwarp(float(ell)) == w
        assert wm.unwarp(float(len(pts) - 1)) == INF

    @pytest.mark.parametrize("points, match", [
        ((0.0, INF), "from 0 to inf with L >= 2"),
        ((0.1, 1.0, INF), "from 0 to inf"),
        ((0.0, 1.0, 2.0), "from 0 to inf"),
        ((0.0, 2.0, 1.0, INF), "strictly increasing"),
        ((0.0, 1.0, 1.0, INF), "strictly increasing"),
    ], ids=["too-short", "no-zero", "no-inf", "decreasing", "repeated"])
    def test_rejects_invalid_chain(self, points, match):
        with pytest.raises(ValueError, match=match):
            WarpMap(points)

    def test_unwarp_many_matches_scalar(self):
        wm = WarpMap((0.0, 0.5, 2.0, 30.0, INF))
        # Subband ends and the floats on either side of them included.
        ends = np.arange(wm.L + 1, dtype=float)
        zetas = np.concatenate([np.linspace(0.0, wm.L, 101),
                                np.nextafter(ends, -1.0)[1:],
                                np.nextafter(ends, INF)[:-1]])
        batch = wm.unwarp_many(zetas)
        for z, w in zip(zetas, batch):
            assert w == wm.unwarp(z) or (math.isinf(w) and math.isinf(wm.unwarp(z)))

    # Far beyond the last finite control point the projective map compresses
    # frequencies into a zeta interval of machine-epsilon width, so round-trip
    # and strict-monotonicity guarantees hold over the band the verifier
    # actually samples (up to a few decades past the last control point).
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip(self, omega):
        wm = WarpMap((0.0, 0.3, 7.0, 123.0, 4e4, INF))
        back = wm.unwarp(wm.warp(omega))
        assert back == pytest.approx(omega, rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0, max_value=1e6),
           st.floats(min_value=1e-8, max_value=10.0))
    def test_monotone(self, w1, rel_gap):
        wm = WarpMap((0.0, 0.3, 7.0, 123.0, INF))
        w2 = w1 + rel_gap * max(w1, 1e-3)
        assert wm.warp(w1) < wm.warp(w2)


class TestBuildControlPoints:
    def test_includes_endpoints_and_tail(self):
        m = PoleResidueModel(poles=(complex(-1, 10),),
                             residues=(np.ones((1, 1), dtype=complex),),
                             is_pair=(True,), direct_term=np.zeros((1, 1)),
                             port_count=1, omega_max=20.0)
        wm = build_warp_map(m, WarpParams())
        assert wm.points[0] == 0.0 and wm.points[-1] == INF
        assert 20.0 in wm.points
        assert 20.0 * 10 ** 0.5 in wm.points
        assert wm.L == len(wm.points) - 1 >= 2

    def test_warn_outside_guidance(self):
        with pytest.warns(UserWarning):
            WarpParams(R_rp=1)
