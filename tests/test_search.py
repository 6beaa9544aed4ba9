import math

import numpy as np
import pytest

from passcheck.search import SearchConfig, cell_center, conditions, run
from passcheck.verifier import preset

HARD = preset("hard").search_config


class CountingF:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.seen = set()

    def __call__(self, z):
        self.calls += 1
        self.seen.add(z)
        return self.fn(z)


def peak(res):
    """(zeta, theta) of the first largest sample of ``res``."""
    return max(res.samples, key=lambda s: s[1])


def assert_cell_order(leaves, M):
    """``leaves`` partition [0, 1] as given: each cell starts where the one
    before it ends (exact integer arithmetic)."""
    assert leaves[0][1] == 0
    assert leaves[-1][1] + 1 == M ** leaves[-1][0]
    for (h1, i1, _), (h2, i2, _) in zip(leaves, leaves[1:]):
        assert (i1 + 1) * M ** h2 == i2 * M ** h1


class TestConfig:
    def test_rejects_even_m(self):
        with pytest.raises(ValueError, match="M must be odd and >= 3, got 4"):
            SearchConfig(M=4)

    def test_rejects_bad_schedule(self):
        with pytest.raises(ValueError, match="budget_schedule must be non-empty"):
            SearchConfig(budget_schedule=(10, 10))


class TestInitialization:
    def test_m3_h1_centers(self):
        f = CountingF(lambda z: z)
        run(f, SearchConfig(M=3, h0=1))
        for c in (1 / 6, 1 / 2, 5 / 6):
            assert any(abs(z - c) < 1e-15 for z in f.seen)

    def test_m5_h0_single_center(self):
        f = CountingF(lambda z: 0.2)
        res = run(f, SearchConfig(M=5, h0=0))
        assert 0.5 in f.seen
        assert peak(res)[1] == 0.2

    def test_constant_theta_max(self):
        res = run(lambda z: 0.5, SearchConfig(M=3, h0=1))
        assert peak(res)[1] == 0.5


class TestStopConditions:
    def test_s1_resolution(self):
        cfg = SearchConfig(M=5, delta_zeta=1e-8)
        s1, _, _ = conditions(cfg, 1e-3, 11, [0.1] * 5)[0]
        assert s1  # 5**-12 ~ 4.1e-9 < 1e-8

    def test_s2_constant_children(self):
        cfg = SearchConfig(M=5, delta_theta=1e-8)
        _, s2, _ = conditions(cfg, 1e-3, 1, [0.5] * 5)[0]
        assert s2

    def test_s3_far_from_threshold(self):
        cfg = SearchConfig(M=3, delta_eta=1.0)  # gate passes at any level
        _, _, s3 = conditions(cfg, 1e-3, 1, [0.90, 0.91, 0.92])[0]
        assert s3  # delta = 0.01 < |0.92 - 1| = 0.08

    def test_s3_blocked_by_gate(self):
        cfg = SearchConfig(M=3, delta_eta=1e-9)
        _, _, s3 = conditions(cfg, 1e-3, 1, [0.90, 0.91, 0.92])[0]
        assert not s3


class TestBudgetConditions:
    def test_u2_close_to_threshold(self):
        cfg = SearchConfig(M=5)
        u1, u2, _ = conditions(cfg, 1e-3, 1, [0.9, 0.99, 0.9995, 0.9, 0.9])[1]
        assert u1 and u2  # (1 - 0.9995)/0.9995 ~ 5e-4 < 1e-3

    def test_u1_false_above_threshold(self):
        cfg = SearchConfig(M=3)
        u1, u2, u3 = conditions(cfg, 1e-3, 1, [0.5, 1.2, 0.5])[1]
        assert not u1

    def test_u3_variation_dominates(self):
        cfg = SearchConfig(M=3, delta_eta=1.0)
        _, _, u3 = conditions(cfg, 1e-3, 1, [0.95, 0.97, 0.99])[1]
        assert u3  # delta = 0.04 > |1 - 0.99| = 0.01... 0.01 < 0.02 adjacent max

    def test_zero_value_children(self):
        cfg = SearchConfig(M=3)
        u1, u2, _ = conditions(cfg, 1e-3, 1, [0.0, 0.0, 0.0])[1]
        assert u1 and not u2


class TestExpansionAccounting:
    def test_middle_child_relabeled_not_reevaluated(self):
        f = CountingF(lambda z: -abs(z - 1 / 6))  # drives expansion of leaf (1,0)
        cfg = SearchConfig(M=3, h0=1, delta_theta=1e-30, delta_zeta=1e-2,
                           delta_eta=1e-30, budget_schedule=(10 ** 4,))
        res = run(f, cfg)
        assert f.calls == res.eval_count
        # the parent's center is never evaluated twice
        assert len(f.seen) == f.calls

    def test_call_counter_equals_k_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            amp = rng.uniform(0.5, 1.5)
            freq = rng.uniform(1, 30)
            f = CountingF(lambda z, a=amp, q=freq: a * abs(math.sin(q * z)))
            cfg = SearchConfig(
                M=int(rng.choice([3, 5, 7])),
                h0=int(rng.integers(0, 3)),
                delta_zeta=10.0 ** rng.uniform(-8, -3),
                delta_theta=10.0 ** rng.uniform(-9, -3),
                delta_eta=10.0 ** rng.uniform(-4, -1),
                budget_schedule=tuple(range(int(rng.integers(5, 30)), 200, 25)),
                basket_reuse=bool(rng.random() < 0.3),
            )
            res = run(f, cfg)
            assert f.calls == res.eval_count
            assert len(f.seen) == f.calls
            assert_cell_order(res.leaves, cfg.M)
            assert res.samples == [(cell_center(cfg.M, h, i), theta)
                                   for h, i, theta in res.leaves]

    def test_two_expansions_from_h0_zero(self):
        # unimodal f above threshold: root expansion, one child expansion,
        # then the budget overrun ends the run (no escalation, values > 1)
        f = CountingF(lambda z: 2.0 - (z - 0.5) ** 2)
        cfg = SearchConfig(M=3, h0=0, budget_schedule=(4,),
                           delta_theta=1e-30, delta_eta=1e-30)
        res = run(f, cfg)
        assert res.eval_count == 5  # 1 + 2 + 2 distinct centers


class TestPartitionIntegrity:
    def test_partition_after_run(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            M = int(rng.choice([3, 5]))
            f = lambda z: math.sin(13 * z) * 0.8 + 0.3
            cfg = SearchConfig(M=M, h0=1, budget_schedule=(20, 40, 60))
            res = run(f, cfg)
            assert_cell_order(res.leaves, M)


class TestRun:
    def test_constant_budget_return(self):
        # default schedule starts at 7: init 5 + one expansion (K=9) overruns,
        # and 0.5 is nowhere near the threshold, so the run ends immediately
        res = run(lambda z: 0.5, SearchConfig(M=5, h0=1))
        assert peak(res)[1] == 0.5
        assert res.eval_count == 9

    def test_constant_drains_via_s2(self):
        # with a huge budget every expansion sees zero variation (S2) and is
        # frozen; five expansions drain the five initial candidates
        res = run(lambda z: 0.5, SearchConfig(M=5, h0=1,
                                              budget_schedule=(10 ** 6,)))
        assert peak(res)[1] == 0.5
        assert res.eval_count == 25

    def test_parabola_peak_found_hard(self):
        res = run(lambda z: 1.2 - 4 * (z - 0.3) ** 2, HARD)
        zeta_max, theta_max = peak(res)
        assert theta_max == pytest.approx(1.2, abs=1e-6)
        assert abs(zeta_max - 0.3) <= HARD.delta_zeta * 10
        assert any(t > 1.0 for _, t in res.samples)

    def test_near_threshold_passive_escalates(self):
        f = CountingF(lambda z: 0.999 + 1e-4 * math.cos(40 * math.pi * z))
        res = run(f, HARD)
        # dense grid confirms max < 1 (frozen: max = 0.9991 at cos = 1)
        assert peak(res)[1] <= 0.9991 + 1e-12
        assert all(t < 1.0 for _, t in res.samples)
        assert res.eval_count > HARD.budget_schedule[0]

    def test_theta_max_monotone_in_trace(self):
        # each entry's theta_max is the largest value f has returned by then
        returned = []

        def f(z):
            returned.append(math.sin(40 * z))
            return returned[-1]

        trace = []
        res = run(f, HARD, trace=trace)
        tm = [rec["theta_max"] for rec in trace]
        assert all(a <= b for a, b in zip(tm, tm[1:]))
        assert tm == [max(returned[:rec["K"]]) for rec in trace]
        assert res.eval_count == len(res.leaves) == len(returned)

    def test_determinism(self):
        f = lambda z: 0.9 + 0.2 * math.sin(23 * z)
        a = run(f, HARD)
        b = run(f, HARD)
        assert a.samples == b.samples
        assert a.leaves == b.leaves
        assert a.eval_count == b.eval_count

    def test_unimodal_drains_candidates(self):
        # far below threshold: every leaf is frozen once its cell width
        # undercuts delta_eta, the candidate set drains, and the arg max
        # lands within one final-level cell of the true maximizer
        cfg = SearchConfig(M=5, h0=1, delta_zeta=1e-300, delta_theta=1e-300,
                           delta_eta=1e-3, budget_schedule=(10 ** 6,))
        zstar = 0.4137
        res = run(lambda z: 0.8 - (z - zstar) ** 2, cfg)
        assert abs(peak(res)[0] - zstar) <= 5.0 ** -5
        self_levels = {h for h, _, _ in res.leaves}
        assert self_levels == {5}  # uniform freeze depth for this f

    def test_evaluator_failure_flagged(self):
        # An error raised by f mid-search reaches the caller of run as the
        # same object, unwrapped.
        error = FloatingPointError("kernel failed")
        calls = []

        def flaky(z):
            calls.append(z)
            if len(calls) > 7:  # inside the first expansion's batch
                raise error
            return 0.9

        with pytest.raises(FloatingPointError) as exc_info:
            run(flaky, SearchConfig(M=5, h0=1, budget_schedule=(10 ** 6,),
                                    delta_theta=1e-300, delta_eta=1e-300))
        assert exc_info.value is error
        assert len(calls) == 8

    def test_samples_sorted_and_flagged(self):
        res = run(lambda z: 1.1 - z, HARD)
        zs = [z for z, _ in res.samples]
        assert zs == sorted(zs)
        hot = [z for z, t in res.samples if t > 1.0]
        assert hot and all(z <= 0.1 for z in hot)
