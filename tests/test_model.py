import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from passcheck.model import (INF, METRIC_BUDGET, ModelError, PoleResidueModel,
                             evaluate_transfer, evaluate_transfer_many, load_model,
                             model_from_dict, model_to_dict, passivity_metric,
                             passivity_metric_many, realize, save_model, sigma_max,
                             validate)


def siso(pole, residue, direct=0.0, omega_max=10.0):
    return PoleResidueModel(
        poles=(pole,), residues=(np.array([[residue]], dtype=complex),),
        is_pair=(pole.imag > 0 if isinstance(pole, complex) else False,),
        direct_term=np.array([[direct]]), port_count=1, omega_max=omega_max)


def direct_sum(model, omega):
    """Independent oracle: literal expanded-sum evaluation."""
    s = 1j * omega
    H = model.direct_term.astype(complex).copy()
    for p, r, pair in zip(model.poles, model.residues, model.is_pair):
        H += r / (s - p)
        if pair:
            H += np.conj(r) / (s - np.conj(p))
    return H


def ss_transfer(ss, omega):
    """Independent oracle for a realization: C (jw I - A)^-1 B + D."""
    if omega == INF:
        return ss.D.astype(complex)
    s = 1j * float(omega)
    X = np.linalg.solve(s * np.eye(ss.state_order) - ss.A, ss.B)
    return ss.C @ X + ss.D


def random_model(rng, P, pair_count, real_count, omega_max=100.0):
    poles, residues, flags = [], [], []
    for _ in range(pair_count):
        poles.append(complex(-rng.uniform(0.1, 5), rng.uniform(0.5, 50)))
        residues.append(rng.standard_normal((P, P)) + 1j * rng.standard_normal((P, P)))
        flags.append(True)
    for _ in range(real_count):
        poles.append(complex(-rng.uniform(0.1, 50), 0.0))
        residues.append(rng.standard_normal((P, P)).astype(complex))
        flags.append(False)
    return PoleResidueModel(poles=tuple(poles), residues=tuple(residues),
                            is_pair=tuple(flags),
                            direct_term=0.3 * rng.standard_normal((P, P)),
                            port_count=P, omega_max=omega_max)


class TestValidate:
    def test_valid_real_pole(self):
        assert validate(siso(complex(-1), 1.0)) == []

    def test_unstable_pole_named(self):
        with pytest.raises(ModelError,
                           match=r"^invalid model: pole 0 is not strictly stable "
                                 r"\(re = 1\.0\)$"):
            siso(complex(1.0), 1.0)

    def test_unpaired_conjugate(self):
        with pytest.raises(ModelError, match="pole 0 has unpaired conjugate"):
            PoleResidueModel(poles=(complex(-1, 2),),
                             residues=(np.array([[1.0]]),),
                             is_pair=(False,), direct_term=np.zeros((1, 1)),
                             port_count=1, omega_max=10.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ModelError, match=r"residue 0 shape \(2, 2\) != \(1, 1\)"):
            PoleResidueModel(poles=(complex(-1),),
                             residues=(np.ones((2, 2)),),
                             is_pair=(False,), direct_term=np.zeros((1, 1)),
                             port_count=1, omega_max=10.0)

    @pytest.mark.parametrize("change, match", [
        (dict(omega_max=INF), "'omega_max' contains NaN/Inf"),
        (dict(residues=(np.array([[np.nan]]),)), "'residues' contains NaN/Inf"),
        (dict(poles=(complex(1.0, 10.0),), is_pair=(True,)),
         "pole 0 is not strictly stable"),
    ], ids=["omega-max-inf", "nan-residue", "unstable-pole"])
    def test_python_built_model_refused_by_field(self, change, match):
        fields = dict(poles=(complex(-1.0, 10.0),), residues=(np.ones((1, 1)),),
                      is_pair=(True,), direct_term=np.zeros((1, 1)),
                      port_count=1, omega_max=10.0)
        with pytest.raises(ModelError, match=match):
            PoleResidueModel(**{**fields, **change})


class TestEvaluateTransfer:
    def test_dc(self):
        m = siso(complex(-1), 1.0)
        assert evaluate_transfer(m, 0.0) == pytest.approx(np.array([[1.0]]))

    def test_infinity_is_direct_term(self):
        m = siso(complex(-1), 1.0, direct=0.25)
        H = evaluate_transfer(m, INF)
        assert np.array_equal(H, m.direct_term.astype(complex))

    def test_complex_arithmetic(self):
        m = siso(complex(-1), 1.0)
        assert evaluate_transfer(m, 1.0)[0, 0] == pytest.approx(0.5 - 0.5j)

    def test_many_matches_scalar(self):
        rng = np.random.default_rng(7)
        m = random_model(rng, 3, 2, 1)
        omegas = np.array([0.0, 0.3, 5.0, math.inf])
        batch = evaluate_transfer_many(m, omegas)
        for k, w in enumerate(omegas):
            np.testing.assert_allclose(batch[k], evaluate_transfer(m, w))


class TestKernel:
    """The stacked pole-residue kernel against the literal expanded sum."""

    @staticmethod
    def assert_close(H, expected):
        assert np.abs(H - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_matches_direct_sum_mixed_poles(self):
        rng = np.random.default_rng(17)
        for pairs, reals in ((3, 2), (0, 4), (5, 0), (2, 1)):
            m = random_model(rng, 3, pairs, reals)
            omegas = np.concatenate([[0.0], rng.uniform(0, 200, 8), [INF]])
            batch = evaluate_transfer_many(m, omegas)
            for k, w in enumerate(omegas):
                expected = m.direct_term if w == INF else direct_sum(m, w)
                self.assert_close(evaluate_transfer(m, w), expected)
                self.assert_close(batch[k], expected)

    def test_arrays_read_only(self):
        m = random_model(np.random.default_rng(19), 2, 2, 1)
        pe, R, d = m.kernel_arrays
        assert pe.shape == (m.n_terms,) and R.shape == (m.n_terms, 4)
        for a in (pe, R, d):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_arrays_belong_to_their_model(self):
        # Models built one after another (the first one garbage collected,
        # so its id may be reused) each evaluate their own sum.
        rng = np.random.default_rng(23)
        for _ in range(5):
            m = random_model(rng, 2, 2, 1)
            self.assert_close(evaluate_transfer(m, 3.0), direct_sum(m, 3.0))
            del m
        m = random_model(rng, 2, 2, 1)
        scaled = dataclasses.replace(m, residues=tuple(2 * r for r in m.residues))
        self.assert_close(evaluate_transfer(m, 3.0), direct_sum(m, 3.0))
        self.assert_close(evaluate_transfer(scaled, 3.0), direct_sum(scaled, 3.0))

    def test_pole_free_model(self):
        m = PoleResidueModel(poles=(), residues=(), is_pair=(),
                             direct_term=np.array([[0.3, 0.4], [0.0, 0.0]]),
                             port_count=2, omega_max=10.0)
        assert m.p_max == 10.0
        self.assert_close(evaluate_transfer(m, 2.0), m.direct_term)
        self.assert_close(evaluate_transfer_many(m, [0.0, 5.0, INF])[1], m.direct_term)
        assert passivity_metric(m, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_metric_many_chunks_match_scalar(self):
        m = random_model(np.random.default_rng(29), 2, 2, 1)
        step = METRIC_BUDGET // max(m.n_terms, 2 * 2)
        omegas = np.linspace(0.0, 300.0, step + 3)
        phis = passivity_metric_many(m, omegas)
        for k in (0, step - 1, step, step + 2):
            assert phis[k] == pytest.approx(passivity_metric(m, omegas[k]), rel=1e-12)

    def test_metric_many_memory_bounded_by_entries(self):
        # One lockstep round on a (16, 200) model holds about 3 405 points;
        # a fixed 4 096-point chunk would need (K, 200) and (K, 256)
        # complex temporaries of 13 and 17 MB.
        m = random_model(np.random.default_rng(31), 16, 100, 0)
        assert m.n_terms == 200
        omegas = np.linspace(0.0, 200.0, 3405)
        tracemalloc.start()
        try:
            passivity_metric_many(m, omegas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestPassivityMetric:
    def test_dc_value(self):
        assert passivity_metric(siso(complex(-1), 1.0), 0.0) == pytest.approx(1.0)

    def test_halfpower(self):
        assert passivity_metric(siso(complex(-1), 1.0), 1.0) == pytest.approx(1 / math.sqrt(2))

    def test_rank_one_two_port(self):
        m = PoleResidueModel(poles=(complex(-1),),
                             residues=(np.array([[0, 2], [0, 0]], dtype=complex),),
                             is_pair=(False,), direct_term=np.zeros((2, 2)),
                             port_count=2, omega_max=10.0)
        # H(j0) = [[0, 2], [0, 0]]
        assert passivity_metric(m, 0.0) == pytest.approx(2.0)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = random_model(rng, 2, 2, 2)
            w = rng.uniform(0, 200)
            expected = np.linalg.svd(direct_sum(m, w), compute_uv=False)[0]
            assert passivity_metric(m, w) == pytest.approx(expected, rel=1e-12)

    def test_conjugate_symmetry(self):
        # phi(-w) = phi(w): H(-jw) = conj(H(jw)) for real realizations.
        rng = np.random.default_rng(13)
        for _ in range(10):
            m = random_model(rng, 2, 2, 1)
            w = rng.uniform(0.1, 100)
            s_pos = np.linalg.svd(direct_sum(m, w), compute_uv=False)[0]
            s_neg = np.linalg.svd(direct_sum(m, -w), compute_uv=False)[0]
            assert s_pos == pytest.approx(s_neg, rel=1e-12)


class TestSigmaMax:
    """sigma_max from the Gram eigenvalue keeps the SVD's values and range."""

    @staticmethod
    def stack(P, scale=1.0):
        rng = np.random.default_rng(41 + P)
        return scale * (rng.standard_normal((64, P, P))
                        + 1j * rng.standard_normal((64, P, P)))

    @staticmethod
    def svd(H):
        return np.linalg.svd(H, compute_uv=False)[..., 0]

    @pytest.mark.parametrize("scale", [1.0, 1e140, 1e-140])
    @pytest.mark.parametrize("P", [1, 2, 4, 8, 16])
    def test_matches_svd(self, P, scale):
        # 1e+-140 keeps sigma_max^2 inside GRAM_RANGE: the eigenvalue route.
        H = self.stack(P, scale)
        assert np.abs(sigma_max(H) / self.svd(H) - 1.0).max() <= 1e-14
        assert abs(sigma_max(H[5]) / self.svd(H[5]) - 1.0) <= 1e-14

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    @pytest.mark.parametrize("P", [1, 2, 4, 8, 16])
    def test_out_of_range_takes_the_svd(self, P, scale):
        # The Gram overflows (1e200) or underflows to zero (1e-200).
        H = self.stack(P, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = sigma_max(H)
            one = sigma_max(H[5])
        np.testing.assert_array_equal(got, self.svd(H))
        assert one == self.svd(H[5])

    def test_mixed_stack_routes_each_matrix(self):
        H = self.stack(4)
        H[::3] *= 1e200
        got = sigma_max(H)
        np.testing.assert_array_equal(got[::3], self.svd(H[::3]))
        assert np.abs(got / self.svd(H) - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("P", [1, 2, 16])
    def test_zero_stack(self, P):
        assert not sigma_max(np.zeros((3, P, P), dtype=complex)).any()
        assert sigma_max(np.zeros((P, P), dtype=complex)) == 0.0

    @pytest.mark.parametrize("P", [1, 4])
    def test_nan_entry_raises_the_svd_error(self, P):
        H = self.stack(P)
        H[7, 0, -1] = np.nan
        for bad in (H, H[7]):
            with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
                sigma_max(bad)

    def test_nan_entry_check_exits_two(self, tmp_path, capsys, monkeypatch):
        import passcheck.model as model_mod
        from passcheck.cli import main

        transfer_many = model_mod.evaluate_transfer_many

        def with_nan(model, omegas):
            H = transfer_many(model, omegas)
            H[0, 0, -1] = np.nan
            return H

        monkeypatch.setattr(model_mod, "evaluate_transfer_many", with_nan)
        path = tmp_path / "model.json"
        save_model(random_model(np.random.default_rng(43), 2, 2, 1), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check", "--model", str(path)]) == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith("error: metric evaluation failed: SVD did not converge")


class TestRealize:
    def test_canonical_siso(self):
        ss = realize(siso(complex(-1), 2.0))
        m = siso(complex(-1), 2.0)
        for w in (0.0, 1.0, 10.0):
            np.testing.assert_allclose(ss_transfer(ss, w),
                                       evaluate_transfer(m, w), rtol=1e-10)

    def test_conjugate_pair_matches_sum(self):
        m = PoleResidueModel(poles=(complex(-1, 2),),
                             residues=(np.array([[1 - 1j]]),),
                             is_pair=(True,), direct_term=np.zeros((1, 1)),
                             port_count=1, omega_max=10.0)
        ss = realize(m)
        assert ss.state_order == 2
        assert np.isrealobj(ss.A) and np.isrealobj(ss.B) and np.isrealobj(ss.C)
        np.testing.assert_allclose(ss_transfer(ss, 1.0), direct_sum(m, 1.0),
                                   rtol=1e-12, atol=1e-14)

    def test_state_order_full_rank(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, 2, 1, 1)  # n_terms = 3, P = 2
        assert realize(m).state_order == 6

    def test_rejects_invalid_model(self):
        with pytest.raises(ModelError):
            realize(siso(complex(1.0), 1.0))

    def test_agreement_random_corpus(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            P = int(rng.integers(1, 5))
            pairs = int(rng.integers(0, 4))
            reals = int(rng.integers(0, 3))
            if 2 * pairs + reals == 0 or 2 * pairs + reals > 8:
                continue
            m = random_model(rng, P, pairs, reals)
            ss = realize(m)
            for w in rng.uniform(0, 200, size=20):
                H_pr = evaluate_transfer(m, w)
                H_ss = ss_transfer(ss, w)
                scale = max(np.abs(H_pr).max(), 1e-30)
                assert np.abs(H_pr - H_ss).max() <= 1e-9 * scale


class TestModelIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        m = random_model(rng, 2, 2, 1)
        path = tmp_path / "m.json"
        save_model(m, path)
        back = load_model(path)
        assert back.poles == m.poles
        assert back.is_pair == m.is_pair
        np.testing.assert_array_equal(back.direct_term, m.direct_term)
        for a, b in zip(back.residues, m.residues):
            np.testing.assert_array_equal(a, b)

    def test_rejects_nan(self, tmp_path):
        doc = model_to_dict(siso(complex(-1), 1.0))
        doc["direct_term"] = [[float("nan")]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc).replace("NaN", "1e400"))
        with pytest.raises(ModelError):
            load_model(path)

    def test_rejects_nan_literal(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"port_count": 1, "omega_max": NaN, "direct_term": [[0]], "poles": [], "residues": []}')
        with pytest.raises(ModelError):
            load_model(path)

    def test_missing_field_named(self):
        with pytest.raises(ModelError, match="port_count"):
            model_from_dict({"omega_max": 1.0, "direct_term": [[0]],
                             "poles": [], "residues": []})

    def test_is_pair_must_be_bool(self):
        doc = model_to_dict(siso(complex(-1, 2), 1.0))
        doc["poles"][0]["is_pair"] = "false"
        with pytest.raises(ModelError, match="poles.*bool"):
            model_from_dict(doc)

    @pytest.mark.parametrize("field, path, value", [
        ("omega_max", (), True),
        ("omega_max", (), "10"),
        ("omega_max", (), 10 ** 400),
        ("poles", (0, "re"), "-1"),
        ("poles", (0, "im"), True),
        ("residues", (0, 0, 0, "re"), True),
        ("residues", (0, 0, 0, "im"), "0"),
        ("direct_term", (0, 0), True),
        ("direct_term", (0, 0), "0.1"),
    ], ids=["omega_max-bool", "omega_max-str", "omega_max-overflow", "pole-re-str",
            "pole-im-bool", "residue-re-bool", "residue-im-str", "direct-bool",
            "direct-str"])
    def test_numbers_must_be_json_numbers(self, field, path, value):
        doc = model_to_dict(siso(complex(-1), 1.0))
        if path:
            *outer, last = path
            target = doc[field]
            for key in outer:
                target = target[key]
            target[last] = value
        else:
            doc[field] = value
        with pytest.raises(ModelError, match=f"{field}.*malformed"):
            model_from_dict(doc)

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc.update(port_count=0), "port_count must be positive"),
        (lambda doc: doc.update(omega_max=0.0), "omega_max must be > 0"),
        (lambda doc: doc.update(omega_max="OVERFLOW"), "'omega_max' contains NaN/Inf"),
        (lambda doc: doc.update(residues=[]), "lengths differ"),
        (lambda doc: doc.update(direct_term=[[0.0, 0.0]]),
         r"direct_term shape \(1, 2\)"),
        (lambda doc: doc["poles"][0].update(im=-2.0, is_pair=True),
         "flagged as pair but imaginary part -2.0 <= 0"),
        (lambda doc: doc["residues"][0][0][0].update(im=0.5),
         "residue 0 of real pole 0 is not real"),
    ], ids=["port-count-zero", "omega-max-zero", "omega-max-literal-overflow",
            "lengths-differ", "direct-term-shape", "pair-im-not-positive",
            "real-pole-complex-residue"])
    def test_model_checks_named_on_load(self, tmp_path, edit, match):
        doc = model_to_dict(siso(complex(-1), 1.0))
        edit(doc)
        path = tmp_path / "bad.json"
        # 1e400 is a JSON number that parses to inf.
        path.write_text(json.dumps(doc).replace('"OVERFLOW"', "1e400"))
        with pytest.raises(ModelError, match=match):
            load_model(path)

    def test_port_count_must_be_int(self):
        doc = model_to_dict(siso(complex(-1), 1.0))
        doc["port_count"] = 1.9
        with pytest.raises(ModelError, match="port_count.*int"):
            model_from_dict(doc)

    def test_residue_shapes_checked_by_name(self):
        with pytest.raises(ModelError, match=r"residue 1 shape \(2, 2\)"):
            PoleResidueModel(
                poles=(complex(-1), complex(-2)),
                residues=(np.ones((1, 1)), np.ones((2, 2))),
                is_pair=(False, False), direct_term=np.zeros((1, 1)),
                port_count=1, omega_max=10.0)

    def test_invalid_model_rejected_on_load(self, tmp_path):
        doc = model_to_dict(siso(complex(-1), 1.0))
        doc["poles"][0]["re"] = 1.0
        path = tmp_path / "unstable.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="stable"):
            load_model(path)
