"""Two-stage passivity verification: warp, per-subband search, bands.

Each subband of the warped axis gets an independent tree search.  The
searches advance in lockstep (``search.lockstep``): every round gathers
the points all unfinished searches ask for and evaluates them in one
batched kernel call.  The subbands' samples, concatenated, are in global frequency
order, and each hot run (maximal run of samples above the threshold) is
one violation band with bisected edges and a polished peak.  Every
metric value comes from one ``Evaluator``, which divides it by gamma,
so that every stage works at threshold 1, and raises ``EvaluatorError``
on a non-finite value.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import search
from .model import INF, PoleResidueModel, passivity_metric, passivity_metric_many, validate
from .report import PassivityReport, ViolationBand
from .search import EvaluatorError, SearchConfig
from .warp import WarpParams, build_warp_map

DEFAULT_REFINE_TOL = 1e-9


@dataclass(frozen=True)
class ModePreset:
    name: str
    warp_params: WarpParams
    search_config: SearchConfig


_SOFT_SCHEDULE = (7, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
_HARD_SCHEDULE = (10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
_FINAL_SCHEDULE = (50, 100, 150, 200, 250)

PRESETS = {
    "soft": ModePreset(
        name="soft",
        warp_params=WarpParams(rho=1e3, R_cp=1, R_rp=2, R_hf=5,
                               c=50.0, Q_max=500.0, kappa=3, d=0.5),
        search_config=SearchConfig(M=5, h0=1, delta_zeta=1e-8, delta_theta=1e-8,
                                   delta_eta=1e-3, epsilon0=1e-3, rho_eps=0.1,
                                   budget_schedule=_SOFT_SCHEDULE),
    ),
    "hard": ModePreset(
        name="hard",
        warp_params=WarpParams(rho=math.inf, R_cp=3, R_rp=3, R_hf=6,
                               c=50.0, Q_max=500.0, kappa=3, d=0.5),
        search_config=SearchConfig(M=5, h0=1, delta_zeta=1e-8, delta_theta=1e-8,
                                   delta_eta=1e-2, epsilon0=1e-3, rho_eps=0.1,
                                   budget_schedule=_HARD_SCHEDULE),
    ),
    "final": ModePreset(
        name="final",
        warp_params=WarpParams(rho=math.inf, R_cp=3, R_rp=3, R_hf=6,
                               c=50.0, Q_max=500.0, kappa=3, d=0.5),
        search_config=SearchConfig(M=3, h0=1, delta_zeta=1e-8, delta_theta=1e-8,
                                   delta_eta=1e-3, epsilon0=1e-4, rho_eps=0.1,
                                   budget_schedule=_FINAL_SCHEDULE,
                                   basket_reuse=True),
    ),
}


def preset(name: str) -> ModePreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown mode {name!r}; expected one of {sorted(PRESETS)}")


class Evaluator:
    """The metric sigma_max(H(j omega)) / gamma at warped coordinates zeta.

    ``ev(zetas)`` returns ``(omegas, phis)`` from one batched kernel call,
    ``ev.one(zeta)`` returns ``(omega, phi)`` from one scalar call.  Both
    look the kernel up in this module when called, raise ``EvaluatorError``
    on a non-finite value and add the points evaluated to ``points``.
    """

    def __init__(self, model, wmap, gamma=1.0):
        self.model, self.wmap, self.gamma = model, wmap, gamma
        self.points = 0

    def __call__(self, zetas):
        omegas = self.wmap.unwarp_many(zetas)
        phis = passivity_metric_many(self.model, omegas) / self.gamma
        self.points += len(omegas)
        bad = np.flatnonzero(~np.isfinite(phis))
        if bad.size:
            raise EvaluatorError(
                f"non-finite metric at omega={float(omegas[bad[0]])!r}")
        return omegas, phis

    def one(self, zeta):
        omega = self.wmap.unwarp(zeta)
        phi = passivity_metric(self.model, omega) / self.gamma
        self.points += 1
        if not math.isfinite(phi):
            raise EvaluatorError(f"non-finite metric at omega={float(omega)!r}")
        return omega, phi


def merge_samples(results, wmap):
    """Global (omega, zeta, phi, subband) list in zeta order.

    Each subband's samples are sorted cell centres strictly inside (0, 1),
    so their concatenation in subband order is sorted and duplicate-free.
    """
    merged = [(ell + z, v, ell) for ell, res in enumerate(results)
              for z, v in res.samples]
    omegas = wmap.unwarp_many([m[0] for m in merged]).tolist()
    return [(w, *m) for w, m in zip(omegas, merged)]


def postprocess_edge_maxima(samples):
    """Indices of retained local maxima with phi > 1.

    Maxima are judged on the merged global ordering, so a violating
    sample at a subband edge survives only if it dominates its neighbors
    across the boundary.  Plateaus keep their leftmost sample; the global
    first/last samples are half-neighborhood maxima.
    """
    vals = [s[2] for s in samples]
    n = len(vals)
    retained = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and vals[j + 1] == vals[i]:
            j += 1
        left_ok = i == 0 or vals[i - 1] < vals[i]
        right_ok = j == n - 1 or vals[j + 1] < vals[i]
        if left_ok and right_ok and vals[i] > 1.0:
            retained.append(i)
        i = j + 1
    return retained


def _bisect_crossing(ev, a, b):
    """Zeta of the threshold crossing of ``ev`` between hot a and cold b.

    Bisection runs in the warped coordinate; convergence is judged on the
    relative width of the unwarped bracket.
    """
    for _ in range(200):
        mid = 0.5 * (a + b)
        if ev.one(mid)[1] > 1.0:
            a = mid
        else:
            b = mid
        wa, wb = ev.wmap.unwarp(min(a, b)), ev.wmap.unwarp(max(a, b))
        if math.isfinite(wb) and wb - wa <= DEFAULT_REFINE_TOL * max(wb, 1e-300):
            break
        if abs(b - a) <= 1e-16:
            break
    return 0.5 * (a + b)


def locate_peak(ev, a, b, best=None, to_inf=False, sweep=0):
    """(omega, phi) of the ``Evaluator``'s peak over the warped interval [a, b].

    With ``sweep`` > 0, that many midpoints of [a, b] are evaluated in one
    batched call and the polish is bracketed by the neighbours (midpoints
    or interval ends) of their maximum; otherwise it runs on all of [a, b].
    The bounded polish wins a tie against the best sample, which is the
    sweep maximum or ``best``, an (omega, phi) sample the caller already
    holds.  When ``to_inf``, omega = inf is probed last and wins a tie.
    """
    if sweep:
        zetas = a + (np.arange(sweep) + 0.5) * ((b - a) / sweep)
        omegas, phis = ev(zetas)
        k = int(np.argmax(phis))
        if best is None or phis[k] > best[1]:
            best = (float(omegas[k]), float(phis[k]))
        a, b = zetas[k - 1] if k else a, zetas[k + 1] if k + 1 < sweep else b
    if b > a:
        res = scipy.optimize.minimize_scalar(
            lambda z: -ev.one(z)[1], bounds=(a, b), method="bounded",
            options={"xatol": 1e-14 * max(b - a, 1.0), "maxiter": 500})
        omega, phi = ev.wmap.unwarp(float(res.x)), float(-res.fun)
    else:
        omega, phi = ev.one(a)
    if best is not None and best[1] > phi:
        omega, phi = best
    if to_inf:
        omega_inf, phi_inf = ev.one(ev.wmap.L)
        if phi_inf >= phi:
            omega, phi = omega_inf, phi_inf
    return omega, phi


def extract_bands(samples, ev, retained):
    """One band per hot run (maximal run of samples with phi > 1).

    Each run holds a ``retained`` maximum.  Its two edges are bisected once
    from the known hot and cold samples; its peak is the best polish of
    its retained maxima (the first on a tie), or the end L if not below it.
    """
    wmap = ev.wmap
    L = float(wmap.L)
    zetas = [s[1] for s in samples]
    phis = [s[2] for s in samples]
    n = len(phis)

    def edge(k, j, end):
        """(zeta, phi at ``end`` or None) of the edge between hot sample k
        and its cold neighbour j, or ``end`` (0 or L) if j is out of range."""
        if 0 <= j < n:
            return _bisect_crossing(ev, zetas[k], zetas[j]), None
        phi_end = ev.one(end)[1]
        if phi_end > 1.0:
            return end, phi_end
        return _bisect_crossing(ev, zetas[k], end), phi_end

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
    problems = validate(model)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))
    mode = preset(mode)
    t0 = time.perf_counter()
    wmap = build_warp_map(model, mode.warp_params)
    ev = Evaluator(model, wmap, gamma)
    results = search.lockstep(
        [search.steps(mode.search_config) for _ in range(wmap.L)],
        lambda zetas: ev(zetas)[1].tolist())
    total_k = ev.points
    samples = merge_samples(results, wmap)
    bands = extract_bands(samples, ev, postprocess_edge_maxima(samples))
    return PassivityReport(
        passive=not bands,
        bands=[dataclasses.replace(b, phi_peak=b.phi_peak * gamma) for b in bands],
        subband_count=wmap.L,
        total_evaluations=total_k,
        refine_evaluations=ev.points - total_k,
        samples=[(w, z, phi * gamma, sb) for w, z, phi, sb in samples],
        mode=mode.name,
        wall_time=time.perf_counter() - t0,
        gamma=gamma,
    )


def dense_reference_check(model: PoleResidueModel, count):
    """Brute-force sweep: count midpoints uniform in the hard-mode warped axis.

    Returns (worst_phi > 1, worst_omega, worst_phi).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    wmap = build_warp_map(model, PRESETS["hard"].warp_params)
    omegas, phis = Evaluator(model, wmap)((np.arange(count) + 0.5) * (wmap.L / count))
    k = int(np.argmax(phis))
    return bool(phis[k] > 1.0), float(omegas[k]), float(phis[k])
