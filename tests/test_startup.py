"""Cold start: what a fresh interpreter loads, and ``python -m passcheck``.

Each test runs a new interpreter with warnings as errors, ``src`` first on
``PYTHONPATH`` and one BLAS thread, so that nothing the test process has
already imported hides an import.  scipy loads only for the Hamiltonian
oracle: an adaptive check, passive or violating, and ``gen-corpus`` never
need it, and ``compare`` loads ``scipy.linalg`` for its eigensolver.
"""

import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from passcheck.model import PoleResidueModel, save_model

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def python(*args, cwd=None):
    """Run a fresh interpreter; return its CompletedProcess."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-W", "error", *args], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=60)


def siso_path(tmp_path, name, residue):
    model = PoleResidueModel(
        poles=(-1.0 + 0j,), residues=(np.array([[residue]], dtype=complex),),
        is_pair=(False,), direct_term=np.array([[0.0]]), port_count=1,
        omega_max=10.0)
    path = tmp_path / f"{name}.json"
    save_model(model, path)
    return str(path)


# Prints one JSON line of facts; the assertions stay in the tests.
PROBE = textwrap.dedent("""
    import contextlib, io, json, sys

    def scipy_modules():
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))

    import passcheck, passcheck.cli
    facts = {"after_import": scipy_modules()}
    passive, violating, report, corpus_dir = sys.argv[1:]
    with contextlib.redirect_stdout(io.StringIO()):
        facts["passive_code"] = passcheck.cli.main(
            ["check", "--model", passive])
        facts["after_passive"] = scipy_modules()
        facts["violating_code"] = passcheck.cli.main(
            ["check", "--model", violating, "--mode", "hard",
             "--report", report])
        facts["after_violating"] = scipy_modules()
        facts["gen_corpus_code"] = passcheck.cli.main(
            ["gen-corpus", "--seed", "1", "--out", corpus_dir, "--count", "2"])
        facts["after_gen_corpus"] = scipy_modules()
        facts["compare_code"] = passcheck.cli.main(
            ["compare", "--model", violating])
        facts["after_compare"] = scipy_modules()
    with open(report) as fh:
        doc = json.load(fh)
    del doc["wall_time_s"]
    expected = passcheck.check_passivity(
        passcheck.load_model(violating), "hard").to_dict(include_timing=False)
    facts["report_matches"] = doc == expected
    print(json.dumps(facts))
""")


@pytest.fixture(scope="module")
def cold_start(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("startup")
    proc = python("-c", PROBE, siso_path(tmp_path, "passive", 0.5),
                  siso_path(tmp_path, "violating", 2.0),
                  str(tmp_path / "report.json"), str(tmp_path / "corpus"))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_loads_no_scipy(cold_start):
    assert cold_start["after_import"] == []


def test_passive_check_loads_no_scipy(cold_start):
    assert cold_start["passive_code"] == 0
    assert cold_start["after_passive"] == []


def test_violating_check_loads_no_scipy(cold_start):
    assert cold_start["violating_code"] == 1
    assert cold_start["after_violating"] == []
    assert cold_start["report_matches"]


def test_gen_corpus_loads_no_scipy(cold_start):
    assert cold_start["gen_corpus_code"] == 0
    assert cold_start["after_gen_corpus"] == []


def test_compare_loads_scipy_linalg_only(cold_start):
    assert cold_start["compare_code"] == 0
    assert "scipy.linalg" in cold_start["after_compare"]
    assert not [m for m in cold_start["after_compare"]
                if m.startswith("scipy.optimize")]


def test_python_m_passive_exits_zero_without_scipy(tmp_path):
    # -X importtime lists every module the process imports on stderr.
    proc = python("-X", "importtime", "-m", "passcheck", "check", "--model",
                  siso_path(tmp_path, "passive", 0.5), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("passive:")
    assert "passcheck.cli" in proc.stderr
    assert "scipy" not in proc.stderr


def test_python_m_violating_exits_one(tmp_path):
    proc = python("-m", "passcheck", "check", "--model",
                  siso_path(tmp_path, "violating", 2.0), cwd=tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("NON-PASSIVE:")


def test_python_m_malformed_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"port_count": 1, "omega_max":')
    proc = python("-m", "passcheck", "check", "--model", str(bad),
                  cwd=tmp_path)
    assert proc.returncode == 2
    assert "malformed JSON" in proc.stderr
