"""Two-stage passivity verification: warp, per-subband search, bands.

Each subband of the warped axis gets an independent tree search.  The
searches advance in lockstep (``search.lockstep``): every round gathers
the points all unfinished searches ask for and evaluates them in one
batched kernel call.  The subbands' samples, concatenated, are in global frequency
order, and each hot run (maximal run of samples above the threshold) is
one violation band with Brent-solved edges and a polished peak.  Every
metric value comes from one ``Evaluator``, which divides it by gamma,
so that every stage works at threshold 1, and raises ``EvaluatorError``
on a kernel failure or a non-finite value; that error passes through
the search unchanged.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np

from . import brent, search
from .model import (INF, METRIC_BUDGET, PoleResidueModel, passivity_metric,
                    passivity_metric_many)
from .report import PassivityReport, ViolationBand
from .search import SearchConfig
from .warp import WarpParams, build_warp_map


@dataclass(frozen=True)
class ModePreset:
    warp_params: WarpParams
    search_config: SearchConfig


# The dense warp of hard and final: every candidate kept (no resolution
# scan) and more samples per pole.  The oracle, the dense reference sweep
# and the corpus calibration share it.
DENSE_WARP = WarpParams(rho=math.inf, R_cp=3, R_rp=3, R_hf=6)

# soft is the defaults; hard and final are their differences from it.
PRESETS = {
    "soft": ModePreset(WarpParams(), SearchConfig()),
    "hard": ModePreset(DENSE_WARP, SearchConfig(
        delta_eta=1e-2, budget_schedule=tuple(range(10, 101, 10)))),
    "final": ModePreset(DENSE_WARP, SearchConfig(
        M=3, epsilon0=1e-4, budget_schedule=(50, 100, 150, 200, 250),
        basket_reuse=True)),
}


def preset(name: str) -> ModePreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown mode {name!r}; expected one of {sorted(PRESETS)}")


class EvaluatorError(RuntimeError):
    """Metric evaluation failed: the kernel raised or gave a non-finite value."""


class Evaluator:
    """The metric sigma_max(H(j omega)) / gamma at warped coordinates zeta.

    ``ev(zetas)`` returns ``(omegas, phis)`` from one batched kernel call,
    ``ev.one(zeta)`` returns ``(omega, phi)`` from one scalar call.  Both
    look the kernel up in this module when called, name a kernel failure
    or a non-finite value as ``EvaluatorError`` and count ``points``.
    """

    def __init__(self, model, wmap, gamma=1.0):
        if not 0 < gamma < math.inf:
            raise ValueError(f"gamma must be finite and > 0, got {gamma!r}")
        self.model, self.wmap, self.gamma = model, wmap, gamma
        self.points = 0

    def __call__(self, zetas):
        omegas = self.wmap.unwarp_many(zetas)
        phis = self._kernel(passivity_metric_many, omegas)
        self.points += len(omegas)
        bad = np.flatnonzero(~np.isfinite(phis))
        if bad.size:
            raise EvaluatorError(
                f"non-finite metric at omega={float(omegas[bad[0]])!r}")
        return omegas, phis

    def one(self, zeta):
        omega = self.wmap.unwarp(zeta)
        phi = self._kernel(passivity_metric, omega)
        self.points += 1
        if not math.isfinite(phi):
            raise EvaluatorError(f"non-finite metric at omega={float(omega)!r}")
        return omega, phi

    def _kernel(self, kernel, omegas):
        try:
            return kernel(self.model, omegas) / self.gamma
        except Exception as exc:  # noqa: BLE001 - any kernel failure is named
            raise EvaluatorError(str(exc)) from exc


def merge_samples(results, wmap):
    """Global (omega, zeta, phi, subband) list in zeta order.

    Each subband's samples are sorted cell centres strictly inside (0, 1),
    so their concatenation in subband order is sorted and duplicate-free.
    """
    zetas = [ell + z for ell, res in enumerate(results) for z, _ in res.samples]
    return list(zip(wmap.unwarp_many(zetas).tolist(), zetas,
                    (v for res in results for _, v in res.samples),
                    (ell for ell, res in enumerate(results) for _ in res.samples)))


def postprocess_edge_maxima(samples):
    """Indices of retained local maxima with phi > 1.

    Maxima are judged on the merged global ordering, so a violating
    sample at a subband edge survives only if it dominates its neighbors
    across the boundary.  Plateaus keep their leftmost sample; the global
    first/last samples are half-neighborhood maxima.
    """
    if not samples:
        return []
    v = np.array([s[2] for s in samples])
    starts = np.concatenate(([0], np.flatnonzero(v[1:] != v[:-1]) + 1))
    u = v[starts]               # one value per plateau
    left_ok = np.concatenate(([True], u[:-1] < u[1:]))
    right_ok = np.concatenate((u[1:] < u[:-1], [True]))
    return starts[left_ok & right_ok & (u > 1.0)].tolist()


def _crossing(ev, hot, cold, phi_hot, phi_cold):
    """Zeta of the threshold crossing of ``ev`` between ``hot`` and ``cold``.

    Brent's method solves phi = 1 to double precision from the two
    bracket values the caller holds; it never evaluates the ends.
    """
    (a, fa), (b, fb) = sorted([(hot, phi_hot - 1.0), (cold, phi_cold - 1.0)])
    return brent.brentq(lambda z: ev.one(z)[1] - 1.0, a, b, fa, fb,
                        xtol=1e-16, rtol=4 * np.finfo(float).eps, maxiter=200)


def sweep(ev, a, b, count):
    """First maximum of the ``Evaluator`` over ``count`` midpoints of the
    warped interval [a, b], evaluated in blocks of ``METRIC_BUDGET`` points
    so that memory does not grow with ``count``.  Returns ``((omega, phi),
    (lo, hi))``: the maximum and the bracket that its neighbours (midpoints
    or interval ends) make.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    step = (b - a) / count

    def block_peak(start):
        block = np.arange(start, min(start + METRIC_BUDGET, count))
        omegas, phis = ev(a + (block + 0.5) * step)
        k = int(np.argmax(phis))
        return start + k, float(omegas[k]), float(phis[k])

    k, omega, phi = max(map(block_peak, range(0, count, METRIC_BUDGET)),
                        key=lambda peak: peak[2])
    lo = a + (k - 0.5) * step if k else a
    hi = a + (k + 1.5) * step if k + 1 < count else b
    return (omega, phi), (lo, hi)


def locate_peak(ev, a, b, best, to_inf=False):
    """(omega, phi) of the ``Evaluator``'s peak over the warped interval [a, b].

    A bounded polish of [a, b] wins a tie against ``best``, an (omega, phi)
    sample the caller already holds.  When ``to_inf``, omega = inf is
    probed last and wins a tie.
    """
    if b > a:
        z, neg_phi = brent.minimize_bounded(
            lambda z: -ev.one(z)[1], a, b, xatol=1e-14 * max(b - a, 1.0),
            maxiter=500)
        omega, phi = ev.wmap.unwarp(float(z)), float(-neg_phi)
    else:
        omega, phi = ev.one(a)
    if best[1] > phi:
        omega, phi = best
    if to_inf:
        omega_inf, phi_inf = ev.one(ev.wmap.L)
        if phi_inf >= phi:
            omega, phi = omega_inf, phi_inf
    return omega, phi


def extract_bands(samples, ev, retained):
    """One band per hot run (maximal run of samples with phi > 1).

    Each run holds a ``retained`` maximum.  Its two edges are solved once
    between the known hot and cold samples; its peak is the best polish of
    its retained maxima (the first on a tie), or the end L if not below it.
    """
    wmap = ev.wmap
    L = float(wmap.L)
    zetas = [s[1] for s in samples]
    phis = [s[2] for s in samples]
    n = len(phis)

    def edge(k, j, end):
        """(zeta, phi) of the edge between hot sample k and its neighbour j,
        or ``end`` (0 or L) if j is out of range: the crossing and the
        neighbour's phi, or a hot ``end`` and its own phi."""
        z, phi = (zetas[j], phis[j]) if 0 <= j < n else (end, ev.one(end)[1])
        if phi > 1.0:
            return end, phi
        return _crossing(ev, zetas[k], z, phis[k], phi), phi

    bands = []
    first = 0
    while first < len(retained):
        lo = hi = retained[first]
        while lo > 0 and phis[lo - 1] > 1.0:
            lo -= 1
        while hi + 1 < n and phis[hi + 1] > 1.0:
            hi += 1
        last = bisect.bisect_right(retained, hi, first)
        z_lo, _ = edge(lo, lo - 1, 0.0)
        z_hi, phi_end = edge(hi, hi + 1, L)
        omega_pk, phi_pk = max(
            (locate_peak(ev, max(zetas[i - 1] if i else 0.0, z_lo),
                         min(zetas[i + 1] if i + 1 < n else L, z_hi),
                         best=(samples[i][0], phis[i]))
             for i in retained[first:last]), key=lambda peak: peak[1])
        if z_hi == L and phi_end >= phi_pk:
            omega_pk, phi_pk = INF, phi_end
        bands.append(ViolationBand(omega_lo=wmap.unwarp(z_lo),
                                   omega_hi=wmap.unwarp(z_hi),
                                   omega_peak=omega_pk, phi_peak=phi_pk))
        first = last
    return bands


def check_passivity(model: PoleResidueModel, mode, gamma=1.0) -> PassivityReport:
    """Full two-stage verification under the preset named ``mode``."""
    chosen = preset(mode)
    t0 = time.perf_counter()
    wmap = build_warp_map(model, chosen.warp_params)
    ev = Evaluator(model, wmap, gamma)
    results = search.lockstep(
        [search.steps(chosen.search_config) for _ in range(wmap.L)],
        lambda zetas: ev(zetas)[1].tolist())
    total_k = ev.points
    samples = merge_samples(results, wmap)
    bands = extract_bands(samples, ev, postprocess_edge_maxima(samples))
    return PassivityReport(
        bands=[dataclasses.replace(b, phi_peak=b.phi_peak * gamma) for b in bands],
        subband_count=wmap.L,
        total_evaluations=total_k,
        refine_evaluations=ev.points - total_k,
        samples=[(w, z, phi * gamma, sb) for w, z, phi, sb in samples],
        mode=mode,
        wall_time=time.perf_counter() - t0,
        gamma=gamma,
    )


def dense_reference_check(model: PoleResidueModel, count):
    """Brute-force ``sweep`` of count midpoints uniform in the ``DENSE_WARP``
    axis.  Returns (worst_phi > 1, worst_omega, worst_phi) at the first
    maximum.
    """
    wmap = build_warp_map(model, DENSE_WARP)
    (worst_omega, worst_phi), _ = sweep(Evaluator(model, wmap), 0.0, wmap.L, count)
    return worst_phi > 1.0, worst_omega, worst_phi
