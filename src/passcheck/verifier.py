"""Two-stage passivity verification: warp, per-subband search, merge.

Each subband of the warped axis gets an independent tree search.  The
searches advance in lockstep: every round gathers the points all
unfinished searches ask for and evaluates them in one batched kernel
call.  The evaluated samples are merged in global frequency order,
local maxima above the threshold are retained (which drops spurious
subband-edge maxima dominated by a neighbor across the boundary), and
each retained maximum is grown into a violation band by bisecting the
threshold crossings on either side.  A non-finite metric value raises
``search.EvaluatorError``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import search
from .model import INF, PoleResidueModel, passivity_metric, passivity_metric_many, validate
from .report import PassivityReport, ViolationBand
from .search import SearchConfig, SubbandResult
from .warp import WarpMap, WarpParams, build_warp_map

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


def _finite(phi, omega):
    """Return ``phi`` if finite, else raise a named evaluation error."""
    if not math.isfinite(phi):
        raise search.EvaluatorError(
            f"non-finite metric at omega={float(omega)!r}")
    return phi


def _warped_phi(model, wmap, z):
    """The metric at zeta; a non-finite value raises."""
    omega = wmap.unwarp(z)
    return _finite(passivity_metric(model, omega), omega)


def _run_subbands(model, wmap, config):
    """Every subband's search, advanced in lockstep, in subband order."""

    def evaluate(zetas):
        omegas = wmap.unwarp_many(zetas)
        phis = passivity_metric_many(model, omegas)
        bad = np.flatnonzero(~np.isfinite(phis))
        if bad.size:
            _finite(phis[bad[0]], omegas[bad[0]])
        return phis

    return _lockstep(wmap.L, config, evaluate)


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


def _bisect_crossing(g, a, b, wmap):
    """Zeta of the gamma crossing bracketed by g(a) > 0 > g(b) or vice versa.

    Bisection runs in the warped coordinate; convergence is judged on the
    relative width of the unwarped bracket.
    """
    ga = g(a)
    for _ in range(200):
        mid = 0.5 * (a + b)
        if g(mid) * (1 if ga > 0 else -1) > 0:
            a = mid
        else:
            b = mid
        wa, wb = wmap.unwarp(min(a, b)), wmap.unwarp(max(a, b))
        if math.isfinite(wb) and wb - wa <= DEFAULT_REFINE_TOL * max(wb, 1e-300):
            break
        if abs(b - a) <= 1e-16:
            break
    return 0.5 * (a + b)


def locate_peak(model, wmap, a, b, best=None, to_inf=False, sweep=0):
    """(omega, phi) of the metric's peak over the warped interval [a, b].

    With ``sweep`` > 0, that many midpoints of [a, b] are evaluated in one
    batched call and the polish is bracketed by the midpoints next to
    their maximum; otherwise the polish runs on all of [a, b].  The bounded
    polish wins a tie against the best sample, which is the sweep maximum
    or ``best``, an (omega, phi) sample the caller already holds.  When
    ``to_inf``, omega = inf is probed last and wins a tie.
    """
    if sweep:
        zetas = a + (np.arange(sweep) + 0.5) * ((b - a) / sweep)
        omegas = wmap.unwarp_many(zetas)
        phis = passivity_metric_many(model, omegas)
        k = int(np.argmax(phis))
        if best is None or phis[k] > best[1]:
            best = (float(omegas[k]), float(phis[k]))
        a, b = zetas[max(k - 1, 0)], zetas[min(k + 1, sweep - 1)]
    if b > a:
        res = scipy.optimize.minimize_scalar(
            lambda z: -_warped_phi(model, wmap, z), bounds=(a, b), method="bounded",
            options={"xatol": 1e-14 * max(b - a, 1.0), "maxiter": 500})
        omega, phi = wmap.unwarp(float(res.x)), float(-res.fun)
    else:
        omega, phi = wmap.unwarp(a), _warped_phi(model, wmap, a)
    if best is not None and best[1] > phi:
        omega, phi = best
    if to_inf:
        phi_inf = _finite(passivity_metric(model, INF), INF)
        if phi_inf >= phi:
            omega, phi = INF, phi_inf
    return omega, phi


def extract_bands(samples, model, wmap, retained, gamma=1.0):
    """Grow each retained maximum into a refined violation band."""
    g = functools.partial(_warped_phi, model, wmap)

    def edge(idx, step, end):
        """(zeta, omega) of the band edge from ``idx`` towards ``end``, 0 or L."""
        k = idx
        while 0 <= k < n and phis[k] > gamma:
            k += step
        inside = 0 <= k < n
        if not inside and g(end) > gamma:
            return end, wmap.unwarp(end)
        z = _bisect_crossing(lambda z: g(z) - gamma, zetas[k - step],
                             zetas[k] if inside else end, wmap)
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
        omega_pk, phi_pk = locate_peak(model, wmap, a, b,
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
    config = mode.search_config
    if config.gamma != gamma:
        config = dataclasses.replace(config, gamma=gamma)
    results = _run_subbands(model, wmap, config)
    samples = merge_samples(results, wmap)
    retained = postprocess_edge_maxima(samples, gamma=gamma)
    bands = extract_bands(samples, model, wmap, retained, gamma=gamma)
    total_k = sum(r.eval_count for r in results)
    passive = not bands and all(s[2] <= gamma for s in samples)
    return PassivityReport(
        passive=passive,
        bands=bands,
        subband_count=wmap.L,
        total_evaluations=total_k,
        samples=samples,
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
    zetas = (np.arange(count) + 0.5) * (wmap.L / count)
    omegas = wmap.unwarp_many(zetas)
    phis = passivity_metric_many(model, omegas)
    k = int(np.argmax(phis))
    return bool(phis[k] > 1.0), float(omegas[k]), float(phis[k])
