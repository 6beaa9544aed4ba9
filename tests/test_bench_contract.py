"""The benchmark's span recorder still finds and counts every layer.

``bench/measure.py`` times passcheck from outside: it replaces public
names (the kernel at ``verifier.passivity_metric[_many]`` and
``hamiltonian.passivity_metric[_many]``, ``search.run``, ``cli.realize``
and others) by wrappers at the module attribute the pipeline looks them
up from.  A refactor that moves one of these names, or computes metric
points without going through them, breaks the benchmark's traced run
while every functional test still passes.  These tests run the
benchmark's own recorder on small models.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import measure  # noqa: E402
import spans  # noqa: E402

import passcheck  # noqa: E402
import passcheck.cli  # noqa: E402
from passcheck.model import PoleResidueModel  # noqa: E402


def small_model():
    """P = 2, two resonant pairs and one real pole, peak above 1."""
    rng = np.random.default_rng(5)
    poles = (complex(-0.05, 3.0), complex(-0.5, 20.0), complex(-2.0, 0.0))
    residues = tuple(abs(p.real) * (rng.standard_normal((2, 2))
                                    + (1j * rng.standard_normal((2, 2)) if p.imag else 0))
                     for p in poles)
    return PoleResidueModel(poles=poles, residues=residues,
                            is_pair=(True, True, False),
                            direct_term=0.1 * rng.standard_normal((2, 2)),
                            port_count=2, omega_max=30.0)


def check_op(mode):
    def op(model):
        report = passcheck.verifier.check_passivity(model, mode)
        return report.to_dict(include_timing=False)
    return op


def compare_op(model):
    return passcheck.cli.compare_model(model, mode="hard")


def digest(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("op", [check_op("hard"), check_op("final"), compare_op],
                         ids=["check-hard", "check-final", "compare"])
def test_traced_run_is_complete_and_unchanged(op):
    model = small_model()
    untraced = op(model)
    rec = spans.SpanRecorder()
    wrapped = measure.install(rec, passcheck)
    try:
        traced = rec.op(0, op, model)
    finally:
        rec.unwrap()
    assert rec.missing == []
    assert [name for name, ok in wrapped.items() if not ok] == []

    kernel_points = sum(s[spans.COUNTS]["points"] for s in rec.spans
                        if s[spans.NAME] == measure.KERNEL)
    assert kernel_points >= traced["total_evaluations"] > 0
    metrics = measure.layer_metrics(rec, wrapped, 1,
                                    {0: measure._kernel_flops(model)}, 0.0, 0.0)
    assert metrics["trace.incomplete"]["value"] == 0
    assert [name for name, m in metrics.items() if m["value"] is None] == []

    assert digest(traced) == digest(untraced)
    # Unwrapping restores the pipeline: a later untraced run is unchanged.
    assert digest(op(model)) == digest(untraced)
