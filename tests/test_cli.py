import csv
import json
import math
import warnings

import numpy as np
import pytest

from passcheck.cli import classify, compare_model, main
from passcheck.corpus import generate_corpus, peak_metric, scaled_to_target
from passcheck.model import (PoleResidueModel, load_model, model_to_dict,
                             passivity_metric, passivity_metric_many, save_model)
from passcheck.report import PassivityReport
from passcheck.verifier import EvaluatorError


def siso(pole, residue, direct=0.0, omega_max=10.0):
    return PoleResidueModel(
        poles=(complex(pole),), residues=(np.array([[residue]], dtype=complex),),
        is_pair=(False,), direct_term=np.array([[direct]]),
        port_count=1, omega_max=omega_max)


@pytest.fixture
def passive_path(tmp_path):
    path = tmp_path / "passive.json"
    save_model(siso(-1.0, 0.5), path)
    return str(path)


@pytest.fixture
def violating_path(tmp_path):
    path = tmp_path / "violating.json"
    save_model(siso(-1.0, 2.0), path)
    return str(path)


class TestClassify:
    def test_agreement(self):
        assert classify(True, True) == "TP"
        assert classify(False, False) == "TP"

    def test_false_pass(self):
        assert classify(True, False) == "FP"

    def test_false_alarm(self):
        assert classify(False, True) == "FN"


class TestCheckCommand:
    def test_passive_exit_zero(self, passive_path, capsys):
        assert main(["check", "--model", passive_path]) == 0
        assert "passive" in capsys.readouterr().out

    def test_violating_exit_one(self, violating_path, capsys):
        assert main(["check", "--model", violating_path, "--mode", "hard"]) == 1
        assert "NON-PASSIVE" in capsys.readouterr().out

    def test_report_json_round_trips(self, violating_path, tmp_path):
        report_path = tmp_path / "report.json"
        main(["check", "--model", violating_path, "--mode", "hard",
              "--report", str(report_path)])
        doc = json.loads(report_path.read_text())
        back = PassivityReport.from_dict(doc)
        assert not back.passive
        assert back.bands[0].omega_hi == pytest.approx(math.sqrt(3.0), abs=1e-6)

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"port_count": 1, "omega_max":')
        assert main(["check", "--model", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "byte offset" in err

    def test_missing_file_exit_two(self, tmp_path, capsys):
        assert main(["check", "--model", str(tmp_path / "none.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_model_exit_two(self, tmp_path, capsys):
        path = tmp_path / "unstable.json"
        doc = model_to_dict(siso(-1.0, 0.5))
        doc["poles"][0]["re"] = 2.0
        path.write_text(json.dumps(doc))
        assert main(["check", "--model", str(path)]) == 2

    @pytest.mark.parametrize("doc", [
        {**model_to_dict(siso(-1.0, 0.5)), "poles": [1.0]},
        {**model_to_dict(siso(-1.0, 0.5)), "poles": [{"im": 0.0}]},
        {**model_to_dict(siso(-1.0, 0.5)), "port_count": None},
        {**model_to_dict(siso(-1.0, 0.5)), "omega_max": "10"},
        5,
    ], ids=["pole-not-object", "pole-without-re", "null-port-count",
            "string-omega-max", "not-object"])
    def test_malformed_model_exit_two(self, tmp_path, capsys, doc):
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        assert main(["check", "--model", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: model ")
        assert "Traceback" not in err

    def test_evaluator_failure_exit_two(self, passive_path, capsys, monkeypatch):
        import passcheck.verifier as verifier_mod

        def broken(model, omega):
            raise FloatingPointError("kernel failed")

        monkeypatch.setattr(verifier_mod, "passivity_metric", broken)
        monkeypatch.setattr(verifier_mod, "passivity_metric_many", broken)
        assert main(["check", "--model", passive_path, "--mode", "hard"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: metric evaluation failed: kernel failed")

    def test_refinement_kernel_failure_exit_two(self, violating_path, capsys,
                                                monkeypatch):
        # The search's batched kernel works; band refinement's scalar one fails.
        import passcheck.verifier as verifier_mod

        def broken(model, omega):
            raise FloatingPointError("scalar kernel failed")

        monkeypatch.setattr(verifier_mod, "passivity_metric", broken)
        assert main(["check", "--model", violating_path, "--mode", "hard"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: metric evaluation failed: scalar kernel failed")

    def test_nan_metric_exit_two(self, passive_path, capsys, monkeypatch):
        import passcheck.verifier as verifier_mod

        monkeypatch.setattr(verifier_mod, "passivity_metric_many",
                            lambda model, omegas: np.full(len(omegas), np.nan))
        assert main(["check", "--model", passive_path, "--mode", "hard"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: metric evaluation failed: non-finite metric at omega=")

    def test_pole_free_model_file(self, tmp_path, capsys):
        path = tmp_path / "direct.json"
        save_model(PoleResidueModel(poles=(), residues=(), is_pair=(),
                                    direct_term=np.array([[0.5]]), port_count=1,
                                    omega_max=10.0), path)
        assert main(["check", "--model", str(path), "--mode", "hard"]) == 0
        assert "K=65" in capsys.readouterr().out

    def test_csv_samples_format(self, violating_path, tmp_path):
        csv_path = tmp_path / "samples.csv"
        main(["check", "--model", violating_path, "--mode", "soft",
              "--samples", str(csv_path)])
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["omega", "zeta", "phi", "subband", "is_violation"]
        assert len(rows) > 1
        model = siso(-1.0, 2.0)
        for omega_s, zeta_s, phi_s, subband_s, flag_s in rows[1:]:
            omega = math.inf if omega_s == "inf" else float(omega_s)
            phi = float(phi_s)
            # repr round-trip: phi reproduces the metric bit-for-bit
            assert phi == passivity_metric(model, omega)
            assert flag_s == str(int(phi > 1.0))
            assert float(zeta_s) >= 0.0
            int(subband_s)

    def test_hz_flag_scales_frequencies(self, tmp_path):
        # a violation band ending at sqrt(3) rad/s reads sqrt(3)*2*pi when
        # the same numbers are declared to be Hz
        path = tmp_path / "hz.json"
        save_model(siso(-1.0, 2.0), path)
        report_path = tmp_path / "report.json"
        main(["check", "--model", str(path), "--hz", "--mode", "hard",
              "--report", str(report_path)])
        doc = json.loads(report_path.read_text())
        hi = doc["bands"][0]["omega_hi"]
        assert hi == pytest.approx(2 * math.pi * math.sqrt(3.0), rel=1e-6)


class TestCompareCommand:
    def test_agreement_exit_zero(self, passive_path, capsys):
        assert main(["compare", "--model", passive_path]) == 0
        assert "TP" in capsys.readouterr().out

    def test_violating_agreement(self, violating_path, tmp_path):
        report_path = tmp_path / "cmp.json"
        code = main(["compare", "--model", violating_path,
                     "--report", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["classification"] == "TP"
        assert doc["adaptive_passive"] is False
        assert doc["oracle_passive"] is False
        assert doc["adaptive_bands"] and doc["oracle_bands"]

    def test_compare_model_doc_fields(self):
        doc = compare_model(siso(-1.0, 0.5), mode="hard")
        assert doc["classification"] == "TP"
        assert "dense_check" not in doc
        assert doc["total_evaluations"] > 0

    @pytest.mark.parametrize("fault", ["raise", "nan"])
    def test_oracle_metric_failure_exit_two(self, violating_path, capsys,
                                            monkeypatch, fault):
        # The adaptive check is served from a clean run, so only the
        # oracle's sign probes and band-peak reads meet the broken kernel.
        import passcheck.hamiltonian as hamiltonian_mod
        import passcheck.verifier as verifier_mod

        report = verifier_mod.check_passivity(siso(-1.0, 2.0), "hard")
        monkeypatch.setattr(verifier_mod, "check_passivity",
                            lambda model, mode: report)

        def broken(model, omega):
            if fault == "raise":
                raise FloatingPointError("probe failed")
            return math.nan

        for mod in (verifier_mod, hamiltonian_mod):
            monkeypatch.setattr(mod, "passivity_metric", broken)
        assert main(["compare", "--model", violating_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: metric evaluation failed: " + (
            "probe failed" if fault == "raise" else "non-finite metric at omega="))


class TestGenCorpus:
    def test_deterministic_manifests(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        generate_corpus(7, a_dir, count=4)
        generate_corpus(7, b_dir, count=4)
        assert (a_dir / "manifest.json").read_bytes() == \
            (b_dir / "manifest.json").read_bytes()
        for k in range(4):
            fname = f"model_{k:04d}.json"
            assert (a_dir / fname).read_bytes() == (b_dir / fname).read_bytes()

    def test_manifest_matches_files(self, tmp_path):
        manifest = generate_corpus(3, tmp_path / "c", count=4)
        assert len(manifest["entries"]) == 4
        for entry in manifest["entries"]:
            model = load_model(tmp_path / "c" / entry["file"])
            assert model.port_count == entry["port_count"]
            assert entry["passive"] == (entry["target"] <= 1.0)

    def test_calibration_hits_target(self, tmp_path):
        rng = np.random.default_rng(11)
        from passcheck.corpus import _random_model
        model, factor = scaled_to_target(_random_model(rng, 2, 4), 1.2)
        _, phi = peak_metric(model)
        assert phi == pytest.approx(1.2, rel=1e-6)
        assert factor > 0

    def test_calibration_rejects_non_finite_sweep(self, monkeypatch):
        import passcheck.verifier as verifier_mod

        def one_nan(model, omegas):
            phis = passivity_metric_many(model, omegas)
            if len(phis) > 1:
                phis[len(phis) // 2] = np.nan
            return phis

        monkeypatch.setattr(verifier_mod, "passivity_metric_many", one_nan)
        with pytest.raises(EvaluatorError, match="non-finite metric at omega="):
            peak_metric(siso(-1.0, 0.5))

    def test_cli_gen_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        assert main(["gen-corpus", "--seed", "5", "--out", str(out),
                     "--count", "2"]) == 0
        assert (out / "manifest.json").exists()
        assert "wrote 2 models" in capsys.readouterr().out

    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_cli_gen_corpus_rejects_empty_count(self, tmp_path, capsys, count):
        out = tmp_path / "corpus"
        assert main(["gen-corpus", "--seed", "5", "--out", str(out),
                     "--count", count]) == 2
        assert f"count must be >= 1, got {count}" in capsys.readouterr().err
        assert not out.exists()


class TestDenseCheckCommand:
    def test_passive(self, passive_path, capsys):
        assert main(["dense-check", "--model", passive_path,
                     "--count", "1000"]) == 0
        assert "passive" in capsys.readouterr().out

    def test_violating(self, violating_path, capsys):
        assert main(["dense-check", "--model", violating_path,
                     "--count", "1000"]) == 1
        assert "NON-PASSIVE" in capsys.readouterr().out

    def test_kernel_failure_exit_two(self, violating_path, capsys, monkeypatch):
        import passcheck.verifier as verifier_mod

        def broken(model, omegas):
            raise FloatingPointError("batched kernel failed")

        monkeypatch.setattr(verifier_mod, "passivity_metric_many", broken)
        assert main(["dense-check", "--model", violating_path,
                     "--count", "1000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            "error: metric evaluation failed: batched kernel failed")

    def test_non_finite_metric_exit_two(self, tmp_path, capsys):
        # A finite model whose H(j omega) overflows near omega = 0.
        path = tmp_path / "overflow.json"
        save_model(PoleResidueModel(
            poles=(-1 + 0j, -2 + 0j),
            residues=(np.array([[1.7e308]], dtype=complex),) * 2,
            is_pair=(False, False), direct_term=np.array([[0.0]]),
            port_count=1, omega_max=10.0), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["dense-check", "--model", str(path),
                         "--count", "1000"]) == 2
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        err = capsys.readouterr().err
        assert err.startswith(
            "error: metric evaluation failed: non-finite metric at omega=")
