"""Two-stage passivity verification: warp, per-subband search, merge.

Each subband of the warped axis gets an independent tree search.  The
searches advance in lockstep: every round gathers the points all
unfinished searches ask for and evaluates them in one batched kernel
call.  The evaluated samples are merged in global frequency order,
local maxima above the threshold are retained (which drops spurious
subband-edge maxima dominated by a neighbor across the boundary), and
each retained maximum is grown into a violation band by bisecting the
threshold crossings on either side.  Every metric value comes from one
``Evaluator``, which divides it by gamma, so that every stage works at
threshold 1, and raises ``EvaluatorError`` on a non-finite value.
"""

from __future__ import annotations

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


def _lockstep(L, config, evaluate):
    """Run L subband searches in lockstep; one ``evaluate`` call per round.

    Each round gathers the zeta every unfinished search asks for as the
    global coordinate ``ell + t``, evaluates them all with
    ``evaluate(global_zetas) -> values`` and sends each search its share.
    An exception from ``evaluate`` is thrown into a pending search, which
    raises it as ``search.EvaluatorError``.
    """
    gens = [search.steps(config) for _ in range(L)]
    requests = {ell: next(gen) for ell, gen in enumerate(gens)}
    results = [None] * L
    while requests:
        zetas = [ell + t for ell, ts in requests.items() for t in ts]
        try:
            values = evaluate(np.array(zetas)).tolist()
        except Exception as exc:  # noqa: BLE001 - raised as EvaluatorError
            gens[next(iter(requests))].throw(exc)
        pending, start = {}, 0
        for ell, ts in requests.items():
            try:
                pending[ell] = gens[ell].send(values[start:start + len(ts)])
            except StopIteration as done:
                results[ell] = done.value
            start += len(ts)
        requests = pending
    return results


def merge_samples(results, wmap):
    """Global (omega, zeta, phi, subband) list sorted by zeta, deduplicated."""
    first = {}
    for ell, res in enumerate(results):
        for z, v in res.samples:
            first.setdefault(ell + z, (v, ell))
    zetas = sorted(first)
    omegas = wmap.unwarp_many(zetas).tolist()
    return [(w, gz, *first[gz]) for w, gz in zip(omegas, zetas)]


def postprocess_edge_maxima(samples, gamma=1.0):
    """Indices of retained local maxima with phi > gamma.

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
        if left_ok and right_ok and vals[i] > gamma:
            retained.append(i)
        i = j + 1
    return retained


def _bisect_crossing(ev, a, b):
    """Zeta of the threshold crossing of ``ev`` between a and b.

    Bisection runs in the warped coordinate; convergence is judged on the
    relative width of the unwarped bracket.
    """
    sign = 1 if ev.one(a)[1] - 1.0 > 0 else -1
    for _ in range(200):
        mid = 0.5 * (a + b)
        if (ev.one(mid)[1] - 1.0) * sign > 0:
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
    """Grow each retained maximum into a refined band, at threshold 1."""
    wmap = ev.wmap

    def edge(idx, step, end):
        """(zeta, omega) of the band edge from ``idx`` towards ``end``, 0 or L."""
        k = idx
        while 0 <= k < n and phis[k] > 1.0:
            k += step
        inside = 0 <= k < n
        if not inside and ev.one(end)[1] > 1.0:
            return end, wmap.unwarp(end)
        z = _bisect_crossing(ev, zetas[k - step], zetas[k] if inside else end)
        return z, wmap.unwarp(z)

    L = float(wmap.L)
    zetas = [s[1] for s in samples]
    phis = [s[2] for s in samples]
    n = len(phis)
    bands = []
    for idx in retained:
        z_lo, omega_lo = edge(idx, -1, 0.0)
        z_hi, omega_hi = edge(idx, 1, L)
        # Peak: polish between the neighboring samples of the retained max.
        a = max(zetas[idx - 1] if idx > 0 else 0.0, z_lo)
        b = min(zetas[idx + 1] if idx + 1 < n else L, z_hi)
        omega_pk, phi_pk = locate_peak(ev, a, b,
                                       best=(samples[idx][0], phis[idx]),
                                       to_inf=omega_hi == INF)
        bands.append(ViolationBand(omega_lo=omega_lo, omega_hi=omega_hi,
                                   omega_peak=omega_pk, phi_peak=phi_pk))
    # Merge overlapping / touching bands.
    bands.sort(key=lambda b: b.omega_lo)
    merged = []
    for b in bands:
        if merged and b.omega_lo <= merged[-1].omega_hi * (1 + DEFAULT_REFINE_TOL):
            prev = merged.pop()
            best = prev if prev.phi_peak >= b.phi_peak else b
            merged.append(ViolationBand(
                omega_lo=prev.omega_lo,
                omega_hi=max(prev.omega_hi, b.omega_hi),
                omega_peak=best.omega_peak, phi_peak=best.phi_peak))
        else:
            merged.append(b)
    return merged


def check_passivity(model: PoleResidueModel, mode, gamma=1.0) -> PassivityReport:
    """Full two-stage verification under a preset (or explicit ModePreset)."""
    problems = validate(model)
    if problems:
        raise ValueError("invalid model: " + "; ".join(problems))
    if isinstance(mode, str):
        mode = preset(mode)
    t0 = time.perf_counter()
    wmap = build_warp_map(model, mode.warp_params)
    ev = Evaluator(model, wmap, gamma)
    results = _lockstep(wmap.L, mode.search_config, lambda zetas: ev(zetas)[1])
    total_k = ev.points
    samples = merge_samples(results, wmap)
    bands = extract_bands(samples, ev, postprocess_edge_maxima(samples))
    passive = not bands and all(s[2] <= 1.0 for s in samples)
    return PassivityReport(
        passive=passive,
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
