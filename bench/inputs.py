"""Seeded workload inputs: calibrated random pole-residue models as JSON files.

The recipe mirrors the repository's corpus generator (stable poles over
three decades, residues proportional to |Re p|, D = 0.1 * randn, then a
common rescale so that the peak of sigma_max(H(jw)) hits a target) but
is written here from numpy alone, so the same seed gives byte-identical
files on every commit whatever the package under test does.  The peak
search is this module's own: a pole-aware frequency grid, one batched
GEMM evaluation, then a zoom around the best sample.

The reference verdict of a model is ``target <= 1``.  Targets sit at
least 1e-3 from the threshold, far beyond the calibration error.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

# Bump when the recipe changes; it is part of every input digest.
GENERATOR_VERSION = 1

CORPUS_PORTS = (1, 2, 4)
CORPUS_TERMS = tuple(range(2, 11))
CORPUS_TARGETS = (0.8, 0.99, 1.001, 1.2)
CORPUS_REPEATS = 2
LARGE_SHAPE = (16, 200)
LARGE_TARGETS = (1.001, 0.99, 1.001, 0.99)
COMPARE_PORTS = 8
COMPARE_TERMS = (60, 73, 86, 100)
COMPARE_TARGETS = (1.2, 0.99, 1.001, 0.8)


def random_model(rng, P, n_terms):
    """(poles, is_pair, residues[k, P, P], D) with n_terms expanded terms."""
    poles, flags, residues = [], [], []
    terms = 0
    while terms < n_terms:
        if n_terms - terms >= 2 and rng.random() < 0.75:
            w0 = 10.0 ** rng.uniform(0.0, 3.0)
            zeta_d = 10.0 ** rng.uniform(-4.0, 0.0)
            alpha = -zeta_d * w0
            beta = w0 * math.sqrt(max(1.0 - zeta_d ** 2, 1e-12))
            r = rng.standard_normal((P, P)) + 1j * rng.standard_normal((P, P))
            poles.append(complex(alpha, beta))
            flags.append(True)
            residues.append(r * abs(alpha))
            terms += 2
        else:
            a = -(10.0 ** rng.uniform(0.0, 3.0))
            poles.append(complex(a, 0.0))
            flags.append(False)
            residues.append(rng.standard_normal((P, P)) * abs(a) + 0j)
            terms += 1
    D = 0.1 * rng.standard_normal((P, P))
    return np.array(poles), np.array(flags), np.array(residues), D


def sigma_max(poles, flags, residues, D, omegas):
    """sigma_max(H(j*omega)) for finite omegas, as one GEMM plus batched SVD."""
    P = D.shape[0]
    pe = np.concatenate([poles, np.conj(poles[flags])])
    re = np.concatenate([residues, np.conj(residues[flags])]).reshape(len(pe), P * P)
    out = np.empty(len(omegas))
    for lo in range(0, len(omegas), 2048):
        w = omegas[lo:lo + 2048]
        H = (1.0 / (1j * w[:, None] - pe[None, :])) @ re + D.reshape(1, -1)
        out[lo:lo + 2048] = np.linalg.svd(H.reshape(-1, P, P), compute_uv=False)[:, 0]
    return out


def peak(poles, flags, residues, D):
    """Global maximum of sigma_max over [0, inf], infinity included."""
    grid = [np.zeros(1), np.logspace(-3, 1, 400) * max(abs(poles))]
    u = np.tan(np.linspace(-1.5, 1.5, 41))
    for p in poles:
        w = abs(p.imag) + abs(p.real) * u
        grid.append(w[w >= 0.0])
    omegas = np.unique(np.concatenate(grid))
    phis = sigma_max(poles, flags, residues, D, omegas)
    for _ in range(8):
        k = int(np.argmax(phis))
        a = omegas[max(k - 1, 0)]
        b = omegas[min(k + 1, len(omegas) - 1)]
        omegas = np.linspace(a, b, 65)
        phis = sigma_max(poles, flags, residues, D, omegas)
    at_inf = float(np.linalg.svd(D, compute_uv=False)[0])
    return max(float(phis.max()), at_inf)


def calibrated(rng, P, n_terms, target):
    """Model dict (passcheck file schema) whose metric peak equals target."""
    poles, flags, residues, D = random_model(rng, P, n_terms)
    factor = target / peak(poles, flags, residues, D)
    residues, D = residues * factor, D * factor
    omega_max = 1.2 * max(max(abs(p.imag), abs(p.real)) for p in poles)
    return {
        "port_count": P,
        "omega_max": omega_max,
        "direct_term": D.tolist(),
        "poles": [{"re": p.real, "im": p.imag, "is_pair": bool(f)}
                  for p, f in zip(poles.tolist(), flags.tolist())],
        "residues": [[[{"re": v.real, "im": v.imag} for v in row] for row in r]
                     for r in residues.tolist()],
    }


def workload_plan(workload):
    """[(P, n_terms, target)] of the measured set, plus the warm-up entries.

    Corpus workloads cross every port count, term count and target so that
    set-wide means move little from seed to seed; the warm-up entries of
    those workloads are the first models of the set itself.
    """
    if workload in ("corpus-hard", "corpus-final"):
        plan = [(P, n, t) for _ in range(CORPUS_REPEATS) for P in CORPUS_PORTS
                for t in CORPUS_TARGETS for n in CORPUS_TERMS]
        return plan, []
    if workload == "large":
        P, n = LARGE_SHAPE
        return [(P, n, t) for t in LARGE_TARGETS], [(P, 10, 1.2)]
    if workload == "compare":
        P = COMPARE_PORTS
        return ([(P, n, t) for n, t in zip(COMPARE_TERMS, COMPARE_TARGETS)],
                [(P, 20, 1.2)])
    raise ValueError(f"unknown workload {workload!r}")


def _stream(workload):
    # The two corpus workloads share one stream, hence the same models.
    return {"corpus-hard": 1, "corpus-final": 1, "large": 2, "compare": 3}[workload]


def generate(workload, seed, out_dir):
    """Write model files and manifest.json to out_dir; return the manifest.

    The manifest lists each measured file with its (P, n_terms, target)
    and reference verdict, the warm-up files, and a SHA-256 digest over
    the generator version and every file's bytes.
    """
    plan, warm = workload_plan(workload)
    rng = np.random.default_rng([seed, _stream(workload)])
    os.makedirs(out_dir, exist_ok=True)
    digest = hashlib.sha256(f"v{GENERATOR_VERSION}".encode())
    entries = []
    for tag, specs in (("model", plan), ("warm", warm)):
        for i, (P, n, target) in enumerate(specs):
            name = f"{tag}_{i:04d}.json"
            text = json.dumps(calibrated(rng, P, n, target), sort_keys=True) + "\n"
            with open(os.path.join(out_dir, name), "w") as fh:
                fh.write(text)
            digest.update(name.encode() + text.encode())
            entries.append({"file": name, "port_count": P, "n_terms": n,
                            "target": target, "passive": target <= 1.0,
                            "warm_up": tag == "warm"})
    manifest = {"workload": workload, "seed": seed,
                "generator_version": GENERATOR_VERSION,
                "digest": digest.hexdigest(), "entries": entries}
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest
