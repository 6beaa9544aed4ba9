"""Deterministic synthetic model corpus with calibrated peak levels.

Random stable models are rescaled so that the global maximum of the
passivity metric hits a chosen target; since H scales linearly with a
common factor on residues and direct term, the factor is target / max.
The generator's own dense sweep (plus a local polish) is the oracle for
the intended verdict recorded in the manifest.
"""

from __future__ import annotations

import dataclasses
import math
import os

import numpy as np

from .model import PoleResidueModel, save_model, write_json
from .verifier import DENSE_WARP, Evaluator, locate_peak, sweep
from .warp import build_warp_map

PORT_COUNTS = (1, 2, 4)
N_TERMS_RANGE = (2, 10)
TARGETS = (0.8, 0.99, 1.001, 1.2)
CALIBRATION_GRID = 40001


def _random_model(rng, port_count, n_terms):
    """Random stable model with poles spread over three decades."""
    poles, residues, flags = [], [], []
    terms = 0
    P = port_count
    while terms < n_terms:
        if n_terms - terms >= 2 and rng.random() < 0.75:
            w0 = 10.0 ** rng.uniform(0.0, 3.0)
            zeta_d = 10.0 ** rng.uniform(-4.0, 0.0)
            alpha = -zeta_d * w0
            beta = w0 * math.sqrt(max(1.0 - zeta_d ** 2, 1e-12))
            poles.append(complex(alpha, beta))
            r = rng.standard_normal((P, P)) + 1j * rng.standard_normal((P, P))
            residues.append(r * abs(alpha))
            flags.append(True)
            terms += 2
        else:
            a = -(10.0 ** rng.uniform(0.0, 3.0))
            poles.append(complex(a, 0.0))
            residues.append(rng.standard_normal((P, P)) * abs(a))
            flags.append(False)
            terms += 1
    direct = 0.1 * rng.standard_normal((P, P))
    omega_max = 1.2 * max(max(abs(p.imag), abs(p.real)) for p in poles)
    return PoleResidueModel(
        poles=tuple(poles), residues=tuple(residues), is_pair=tuple(flags),
        direct_term=direct, port_count=P, omega_max=omega_max)


def peak_metric(model):
    """(omega_at_max, max_phi) by warped dense sweep plus local polish."""
    ev = Evaluator(model, build_warp_map(model, DENSE_WARP))
    best, (lo, hi) = sweep(ev, 0.0, float(ev.wmap.L), CALIBRATION_GRID)
    return locate_peak(ev, lo, hi, best, to_inf=True)


def scaled_to_target(model, target):
    """Rescale residues and direct term so max phi equals target."""
    _, phi_max = peak_metric(model)
    factor = target / phi_max if phi_max > 0 else 0.0
    return dataclasses.replace(
        model, residues=tuple(r * factor for r in model.residues),
        direct_term=model.direct_term * factor), factor


def generate_entry(rng, port_count, n_terms, target):
    model, factor = scaled_to_target(_random_model(rng, port_count, n_terms),
                                     target)
    return model, {
        "port_count": port_count,
        "n_terms": n_terms,
        "target": target,
        "scale_factor": factor,
        "passive": target <= 1.0,
    }


def generate_corpus(seed, out_dir, count=None):
    """Write model_XXXX.json files plus manifest.json; returns the manifest."""
    base = [(P, t) for P in PORT_COUNTS for t in TARGETS]
    if count is None:
        count = len(base)
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)
    combos = [base[i % len(base)] for i in range(count)]
    entries = []
    for i, (P, target) in enumerate(combos):
        n_terms = int(rng.integers(N_TERMS_RANGE[0], N_TERMS_RANGE[1] + 1))
        model, meta = generate_entry(rng, P, n_terms, target)
        fname = f"model_{i:04d}.json"
        save_model(model, os.path.join(out_dir, fname))
        meta["file"] = fname
        entries.append(meta)
    manifest = {"schema_version": 1, "seed": seed, "entries": entries}
    write_json(os.path.join(out_dir, "manifest.json"), manifest)
    return manifest
