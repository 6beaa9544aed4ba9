"""Pole-based control points and piecewise-linear frequency warping.

Step 1 of the verification pipeline: candidate frequencies are emitted
around every model pole, merged with logarithmic out-of-band samples,
and turned into a strictly increasing control-point chain
0 = w_0 < w_1 < ... < w_L = inf.  The resulting warp maps [0, inf] onto
[0, L], one unit per subband, with a projective map on the last
(infinite) subband.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass

import numpy as np

INF = math.inf
Q_MAX = 500.0       # quality factor above which a pole's bandwidth is stretched
Q_STRETCH = 50.0    # c: that stretch
TAIL_COUNT = 3      # kappa: log-spaced samples past omega_max
TAIL_DECADES = 0.5  # d: their extent, decades past omega_max


@dataclass(frozen=True)
class WarpParams:
    rho: float = 1e3          # dedup density; inf disables the resolution scan
    R_cp: int = 1             # samples per in-band complex pair
    R_rp: int = 2             # samples per real pole
    R_hf: int = 5             # samples per out-of-band pole

    def __post_init__(self):
        if self.R_cp < 1 or self.R_rp < 2 or self.R_hf < 3:
            warnings.warn(
                f"sample counts outside recommended ranges: "
                f"R_cp={self.R_cp}, R_rp={self.R_rp}, R_hf={self.R_hf}",
                stacklevel=3,
            )


# A pole counts as out-of-band ("hf") when either coordinate magnitude
# exceeds this fraction of omega_max.
HF_FRACTION = 0.9


def pole_samples(poles, params: WarpParams, omega_max):
    """Candidate frequencies emitted by each pole.

    ``poles`` is an iterable of complex values; a conjugate pair is
    represented by its member with positive imaginary part.  Returns a
    flat list of non-negative frequencies.
    """
    out = []
    for p in poles:
        alpha = p.real
        beta = abs(p.imag)
        if max(abs(alpha), beta) > HF_FRACTION * omega_max:
            R = params.R_hf
        elif beta == 0.0:
            R = params.R_rp
        else:
            R = params.R_cp
        if beta > 0.0:
            Q = beta / (2.0 * abs(alpha))
            if Q > Q_MAX:
                alpha = Q_STRETCH * alpha
        for r in range(-R, R + 1):
            w = beta + alpha * math.tan(r * math.pi / (2.0 * (R + 1)))
            if w >= 0.0:
                out.append(w)
    return out


def tail_samples(omega_max):
    """Log-spaced samples past the model band, inf appended last."""
    out = [omega_max * 10.0 ** (TAIL_DECADES * nu / TAIL_COUNT)
           for nu in range(TAIL_COUNT + 1)]
    out[0] = omega_max  # exact at nu = 0
    out.append(INF)
    return out


def assemble_control_points(candidates, params: WarpParams, state_order,
                            p_max, protected=()):
    """Sort, deduplicate and thin candidates into a control-point chain.

    Consecutive points closer than dw = p_max / (N * rho) are merged
    keeping the smallest of each cluster; rho = inf disables the scan.
    0, inf and any frequency in ``protected`` survive the scan.
    """
    pts = sorted(set(float(c) for c in candidates) | {0.0, INF} | set(protected))
    if math.isinf(params.rho) or state_order <= 0:
        return tuple(pts)
    dw = p_max / (state_order * params.rho)
    keep_always = set(protected) | {0.0, INF}
    kept = []
    for p in pts:
        if p in keep_always or not kept or p - kept[-1] >= dw:
            kept.append(p)
    return tuple(kept)


class WarpMap:
    """Piecewise-linear bijection between [0, inf] and [0, L].

    ``points`` is the control-point chain 0 = w_0 < w_1 < ... < w_L = inf
    with L >= 2; a chain that is not one raises ``ValueError``.
    """

    def __init__(self, points):
        pts = tuple(float(p) for p in points)
        if len(pts) < 3 or pts[0] != 0.0 or pts[-1] != INF:
            raise ValueError("control points must run from 0 to inf with L >= 2")
        if any(a >= b for a, b in zip(pts, pts[1:])):
            raise ValueError("control points must be strictly increasing")
        self.points = pts
        self._finite = pts[:-1]  # w_0 .. w_{L-1}
        self.L = len(pts) - 1
        self._pts = np.array(self._finite)
        self._ells = np.arange(self.L, dtype=float)

    def warp(self, omega):
        if omega == INF:
            return float(self.L)
        if omega < 0:
            raise ValueError(f"omega must be >= 0, got {omega}")
        pts = self._finite
        last = len(pts) - 1  # index L-1, start of the projective subband
        if omega >= pts[last]:
            return last + (omega - pts[last]) / omega if omega > 0 else float(last)
        ell = bisect.bisect_right(pts, omega) - 1
        return ell + (omega - pts[ell]) / (pts[ell + 1] - pts[ell])

    def unwarp(self, zeta):
        if not 0.0 <= zeta <= self.L:
            raise ValueError(f"zeta must lie in [0, {self.L}], got {zeta}")
        if zeta == self.L:
            return INF
        ell = min(int(math.floor(zeta)), self.L - 1)
        frac = zeta - ell
        pts = self._finite
        if ell == self.L - 1:
            return pts[ell] / (1.0 - frac)
        return pts[ell] + frac * (pts[ell + 1] - pts[ell])

    def unwarp_many(self, zetas):
        """Vectorized inverse map, bit-equal to ``unwarp``; L maps to inf."""
        z = np.asarray(zetas, dtype=float)
        out = np.interp(z, self._ells, self._pts)
        last = z >= self.L - 1
        with np.errstate(divide="ignore"):
            out[last] = self._pts[-1] / (1.0 - (z[last] - (self.L - 1)))
        return out


def build_warp_map(model, params: WarpParams) -> WarpMap:
    """Full Step-1 pipeline for a pole-residue model."""
    cands = pole_samples(model.poles, params, model.omega_max)
    tails = tail_samples(model.omega_max)
    return WarpMap(assemble_control_points(
        cands + tails, params,
        state_order=model.n_terms * model.port_count,
        p_max=model.p_max,
        protected=tuple(t for t in tails if math.isfinite(t)),
    ))
