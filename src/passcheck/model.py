"""Rational macromodel containers and transfer-matrix evaluation.

A model is either a pole-residue expansion

    H(s) = sum_n R_n / (s - p_n) + R0

or an equivalent real state-space realization (A, B, C, D).  A pole-residue
model holds its own read-only stacked copies of poles (k,), residues
(k, P, P), pair flags (k,) and direct term (P, P); a realization holds
read-only views of the caller's matrices.  Complex poles are stored once
(positive imaginary part) with a pairing flag.  Evaluation is one product
over the expanded sum (conjugates included),
H(jw) = (1 / (jw - pe))[K, n] @ R[n, P*P] + D, with the expanded arrays
built once per model; realization expands conjugates on the fly.

The passivity metric is sigma_max(H(jw)), taken as the square root of the
largest eigenvalue of the Hermitian Gram matrix H^H H (``sigma_max``),
which LAPACK's Hermitian eigensolver finds faster than an SVD.  Where that
eigenvalue leaves [2^-960, 2^960], the Gram has lost digits to underflow
or overflowed, and the SVD of H gives the value instead.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

INF = math.inf
# Complex entries (16 bytes each) allowed in one (K, n) or (K, P*P)
# temporary of passivity_metric_many; sets how many points a chunk holds.
METRIC_BUDGET = 2 ** 16
# sigma_max^2 range in which the Gram matrix H^H H holds it to full
# precision: squares of larger entries overflow, of smaller ones underflow.
GRAM_RANGE = (2.0 ** -960, 2.0 ** 960)


class ModelError(ValueError):
    """Raised when a model file or model object is unusable."""


@dataclass(frozen=True, eq=False)
class PoleResidueModel:
    """Pole-residue form of the transfer matrix.

    ``poles[k]`` with ``is_pair[k] == True`` stands for the conjugate
    pair ``p, conj(p)`` with residues ``R, conj(R)``; such poles are
    stored with non-negative imaginary part.  Construction copies the
    fields, leaving the caller's arrays alone, runs ``validate`` and
    raises ``ModelError`` naming every violation.  Models compare and
    hash by identity.
    """

    poles: np.ndarray        # (k,) complex, one per stored pole
    residues: np.ndarray     # (k, P, P) complex
    is_pair: np.ndarray      # (k,) bool
    direct_term: np.ndarray  # (P, P) real
    port_count: int
    omega_max: float

    def __post_init__(self):
        owned = {"poles": np.array(self.poles, dtype=complex),
                 "residues": _stacked(self.residues, self.port_count),
                 "is_pair": np.array(self.is_pair, dtype=bool),
                 "direct_term": np.array(self.direct_term, dtype=float)}
        for name, a in owned.items():
            object.__setattr__(self, name, a)
        problems = validate(self)
        if problems:
            raise ModelError("invalid model: " + "; ".join(problems))
        for a in owned.values():
            a.setflags(write=False)

    @property
    def n_terms(self):
        """Number of pole terms of the expanded sum (a pair counts as 2)."""
        return self.is_pair.size + int(np.count_nonzero(self.is_pair))

    @property
    def p_max(self):
        # Python's abs(complex): numpy's can differ from it in the last bit.
        return max([self.omega_max, *map(abs, self.poles.tolist())])

    @functools.cached_property
    def kernel_arrays(self):
        """Read-only (pe, R, d): the n expanded poles, their flattened
        residues (n, P*P) and the flattened direct term, built on first use
        and stored on this model object.  A pair's conjugate follows it."""
        P = self.port_count
        counts = 1 + self.is_pair
        pe = np.repeat(self.poles, counts)
        R = np.repeat(self.residues.reshape(-1, P * P), counts, axis=0)
        conjugates = np.cumsum(counts)[self.is_pair] - 1
        pe[conjugates] = pe[conjugates].conj()
        R[conjugates] = R[conjugates].conj()
        arrays = (pe, R, self.direct_term.astype(complex).ravel())
        for a in arrays:
            a.setflags(write=False)
        return arrays


def _stacked(residues, P):
    """``residues`` as one (k, P, P) complex array, (0, P, P) for no poles;
    as a tuple of arrays if their shapes differ, for ``validate`` to name.
    A residue that is no rectangular array raises a ``ModelError``."""
    try:
        return np.array(list(residues) or np.zeros((0, P, P)), dtype=complex)
    except ValueError:
        pass
    arrays = []
    for k, r in enumerate(residues):
        try:
            arrays.append(np.array(r, dtype=complex))
        except ValueError:
            raise ModelError(f"invalid model: residue {k} is not a "
                             f"rectangular numeric array") from None
    return tuple(arrays)


@dataclass(frozen=True, eq=False)
class StateSpaceModel:
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        for name in "ABCD":
            m = np.asarray(getattr(self, name), dtype=float).view()
            m.setflags(write=False)
            object.__setattr__(self, name, m)

    @property
    def state_order(self):
        return self.A.shape[0]


def validate(model: PoleResidueModel):
    """Return a list of human-readable invariant violations (empty if valid).

    ``PoleResidueModel`` runs it on construction and raises ``ModelError``
    if the list is not empty, so every model object in existence is valid.
    """
    problems = []
    for name, values in (("omega_max", [model.omega_max]),
                         ("direct_term", [model.direct_term]),
                         ("residues", model.residues), ("poles", [model.poles])):
        if not all(np.isfinite(v).all() for v in values):
            problems.append(f"{name!r} contains NaN/Inf")
    P = model.port_count
    if P < 1:
        problems.append(f"port_count must be positive, got {P}")
    if not (model.omega_max > 0):
        problems.append(f"omega_max must be > 0, got {model.omega_max}")
    if len(model.poles) != len(model.residues) or len(model.poles) != len(model.is_pair):
        problems.append("poles, residues and is_pair lengths differ")
        return problems
    if model.direct_term.shape != (P, P):
        problems.append(f"direct_term shape {model.direct_term.shape} != ({P}, {P})")
    for k, (p, r, pair) in enumerate(zip(model.poles.tolist(), model.residues,
                                         model.is_pair.tolist())):
        if not p.real < 0:
            problems.append(f"pole {k} is not strictly stable (re = {p.real})")
        if r.shape != (P, P):
            problems.append(f"residue {k} shape {r.shape} != ({P}, {P})")
        if pair:
            if p.imag <= 0:
                problems.append(
                    f"pole {k} flagged as pair but imaginary part {p.imag} <= 0"
                )
        else:
            if p.imag != 0:
                problems.append(f"pole {k} has unpaired conjugate (im = {p.imag})")
            elif np.any(r.imag != 0):
                problems.append(f"residue {k} of real pole {k} is not real")
    return problems


def evaluate_transfer(model: PoleResidueModel, omega):
    """H(j*omega) as a P x P complex matrix; omega may be math.inf."""
    pe, R, d = model.kernel_arrays
    P = model.port_count
    if math.isinf(omega):
        return d.reshape(P, P).copy()
    return ((1.0 / (1j * float(omega) - pe)) @ R + d).reshape(P, P)


def evaluate_transfer_many(model: PoleResidueModel, omegas):
    """Vectorized H(j*omega) over a 1-D frequency array -> (K, P, P)."""
    pe, R, d = model.kernel_arrays
    P = model.port_count
    omegas = np.asarray(omegas, dtype=float)
    finite = ~np.isinf(omegas)
    G = np.zeros((omegas.size, pe.size), dtype=complex)
    G[finite] = 1.0 / (1j * omegas[finite, None] - pe)
    return (G @ R + d).reshape(omegas.size, P, P)


def sigma_max(H):
    """Largest singular value of each P x P matrix of ``H`` (..., P, P).

    sigma_max(H)^2 is the largest eigenvalue of H^H H.  A matrix whose
    eigenvalue falls outside ``GRAM_RANGE`` (or is not finite, or the
    eigensolver fails on an overflowed Gram) takes the SVD's value; a NaN
    entry then raises the SVD's ``LinAlgError``.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        G = H.conj().swapaxes(-1, -2) @ H
        try:
            lam = np.linalg.eigvalsh(G)[..., -1]
        except np.linalg.LinAlgError:
            lam = np.full(H.shape[:-2], np.nan)
    in_range = (lam >= GRAM_RANGE[0]) & (lam <= GRAM_RANGE[1])
    if in_range.all():
        return np.sqrt(lam)
    return np.sqrt(lam, out=np.linalg.svd(H, compute_uv=False)[..., 0],
                   where=in_range)


def passivity_metric(model: PoleResidueModel, omega):
    """Largest singular value of H(j*omega)."""
    return float(sigma_max(evaluate_transfer(model, omega)))


def passivity_metric_many(model: PoleResidueModel, omegas):
    """Vectorized largest singular value over a frequency array, taken in
    chunks whose (K, n) and (K, P*P) temporaries hold at most
    METRIC_BUDGET entries each, so that memory stays bounded."""
    omegas = np.asarray(omegas, dtype=float).ravel()
    step = max(1, METRIC_BUDGET // max(model.n_terms, model.port_count ** 2))
    out = np.empty(omegas.size)
    for k in range(0, omegas.size, step):
        H = evaluate_transfer_many(model, omegas[k:k + step])
        out[k:k + step] = sigma_max(H)
    return out


def realize(model: PoleResidueModel) -> StateSpaceModel:
    """Real block (Gilbert-style) realization of the pole-residue form.

    Each real pole contributes P states, each conjugate pair 2P states,
    so N = n_terms * P for full-rank residues.
    """
    P = model.port_count
    N = P * model.n_terms
    A, B, C = np.zeros((N, N)), np.zeros((N, P)), np.zeros((P, N))
    I = np.eye(P)
    k = 0
    for p, r, pair in zip(model.poles, model.residues, model.is_pair):
        B[k:k + P] = I
        if pair:
            a, b = p.real, p.imag
            # 2R_re/(s-p_re) style block: C [u I, b I; -b I, u I]^-1 B
            # with B = [I; 0], C = [2 Re R, 2 Im R] reproduces
            # R/(s-p) + conj(R)/(s-conj(p)).
            A[k:k + 2 * P, k:k + 2 * P] = np.block([[a * I, b * I],
                                                    [-b * I, a * I]])
            C[:, k:k + P], C[:, k + P:k + 2 * P] = 2 * r.real, 2 * r.imag
            k += 2 * P
        else:
            A[k:k + P, k:k + P] = p.real * I
            C[:, k:k + P] = r.real
            k += P
    return StateSpaceModel(A=A, B=B, C=C, D=model.direct_term)


# --- JSON model files ---------------------------------------------------

SCHEMA_FIELDS = ("port_count", "omega_max", "direct_term", "poles", "residues")


def _reject_constant(name):
    raise ModelError(f"model file contains non-finite literal {name!r}")


def _c(entry):
    return complex(_number(entry["re"]), _number(entry["im"]))


def model_to_dict(model: PoleResidueModel) -> dict:
    return {
        "port_count": model.port_count,
        "omega_max": model.omega_max,
        "direct_term": model.direct_term.tolist(),
        "poles": [
            {"re": p.real, "im": p.imag, "is_pair": f}
            for p, f in zip(model.poles.tolist(), model.is_pair.tolist())
        ],
        "residues": [
            [[{"re": v.real, "im": v.imag} for v in row] for row in r]
            for r in model.residues.tolist()
        ],
    }


def _typed(value, kind):
    """``value`` if its type is exactly ``kind`` (a JSON bool is no int)."""
    if type(value) is not kind:
        raise TypeError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


def _number(value):
    """``value`` as a float if it is a JSON number (a JSON bool is none)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a JSON number, got {value!r}")
    return float(value)


def _field(doc, name, convert):
    """``convert(doc[name])``; a malformed value raises a named ModelError."""
    try:
        return convert(doc[name])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelError(f"model field {name!r} is malformed: {exc!r}") from None


def model_from_dict(doc: dict) -> PoleResidueModel:
    if not isinstance(doc, dict):
        raise ModelError("model file must hold a JSON object")
    missing = [k for k in SCHEMA_FIELDS if k not in doc]
    if missing:
        raise ModelError(f"model file missing fields: {', '.join(missing)}")
    P = _field(doc, "port_count", lambda v: _typed(v, int))
    poles, flags = _field(doc, "poles", lambda es: (
        [_c(e) for e in es], [_typed(e.get("is_pair", False), bool) for e in es]))
    residues = _field(doc, "residues", lambda rs: [
        np.array([[_c(v) for v in row] for row in r], dtype=complex)
        for r in rs])
    direct = _field(doc, "direct_term", lambda d: np.array(
        [[_number(v) for v in row] for row in d], dtype=float))
    omega_max = _field(doc, "omega_max", _number)
    return PoleResidueModel(poles=poles, residues=residues, is_pair=flags,
                            direct_term=direct, port_count=P, omega_max=omega_max)


def write_json(path, doc):
    """Write ``doc`` as JSON with sorted keys, indent 2 and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_model(model: PoleResidueModel, path):
    write_json(path, model_to_dict(model))


def load_model(path) -> PoleResidueModel:
    with open(path) as fh:
        doc = json.load(fh, parse_constant=_reject_constant)
    return model_from_dict(doc)
