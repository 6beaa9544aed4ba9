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


@dataclass
class PassivityReport:
    bands: list
    subband_count: int
    total_evaluations: int
    samples: list          # (omega, zeta, phi, subband) tuples, sorted by zeta
    mode: str
    wall_time: float
    gamma: float = 1.0
    refine_evaluations: int = 0   # metric points after the search, not in K

    @property
    def passive(self):
        return not self.bands

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
