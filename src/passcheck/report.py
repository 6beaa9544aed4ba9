"""Verdict containers shared by the sampling verifier and the oracle."""

from __future__ import annotations

import math
from dataclasses import dataclass

SCHEMA_VERSION = 1


def encode_num(x):
    """JSON-safe scalar; infinity is encoded as the string "inf"."""
    if x == math.inf:
        return "inf"
    return float(x)


def _unnum(x):
    if x == "inf":
        return math.inf
    return float(x)


@dataclass(frozen=True)
class ViolationBand:
    omega_lo: float
    omega_hi: float      # may be inf
    omega_peak: float    # may be inf (direct-term violation)
    phi_peak: float

    def to_dict(self):
        return {
            "omega_lo": encode_num(self.omega_lo),
            "omega_hi": encode_num(self.omega_hi),
            "omega_peak": encode_num(self.omega_peak),
            "phi_peak": float(self.phi_peak),
        }

    @classmethod
    def from_dict(cls, d):
        return cls(_unnum(d["omega_lo"]), _unnum(d["omega_hi"]),
                   _unnum(d["omega_peak"]), float(d["phi_peak"]))

    def contains(self, omega, rel_tol=1e-6):
        pad = rel_tol * max(abs(self.omega_lo),
                            abs(omega) if math.isfinite(omega) else 0.0, 1e-300)
        hi = self.omega_hi
        return self.omega_lo - pad <= omega and (hi == math.inf or omega <= hi + rel_tol * hi)


@dataclass
class PassivityReport:
    passive: bool
    bands: list
    subband_count: int
    total_evaluations: int
    samples: list          # (omega, zeta, phi, subband) tuples, sorted by zeta
    mode: str
    wall_time: float
    gamma: float = 1.0
    refine_evaluations: int = 0   # metric points after the search, not in K

    def to_dict(self, include_timing=True):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "passive": self.passive,
            "gamma": self.gamma,
            "mode": self.mode,
            "subband_count": self.subband_count,
            "total_evaluations": self.total_evaluations,
            "refine_evaluations": self.refine_evaluations,
            "bands": [b.to_dict() for b in self.bands],
            "samples": [
                {"omega": encode_num(w), "zeta": float(z), "phi": float(p), "subband": sb}
                for (w, z, p, sb) in self.samples
            ],
        }
        if include_timing:
            doc["wall_time_s"] = self.wall_time
        return doc

    @classmethod
    def from_dict(cls, doc):
        return cls(
            passive=bool(doc["passive"]),
            bands=[ViolationBand.from_dict(b) for b in doc["bands"]],
            subband_count=int(doc["subband_count"]),
            total_evaluations=int(doc["total_evaluations"]),
            samples=[(_unnum(s["omega"]), s["zeta"], s["phi"], s["subband"])
                     for s in doc["samples"]],
            mode=doc["mode"],
            wall_time=float(doc.get("wall_time_s", 0.0)),
            gamma=float(doc.get("gamma", 1.0)),
            refine_evaluations=int(doc.get("refine_evaluations", 0)),
        )
