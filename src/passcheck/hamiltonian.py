"""Dense Hamiltonian eigenvalue oracle for desk-scale models.

Purely imaginary eigenvalues of the Hamiltonian matrix (or generalized
eigenvalues of the extended pencil when I - D'D is near singular) mark
the frequencies where a singular value of H(jw) crosses the passivity
threshold.  Dense only, with an explicit size guard: this oracle exists
to cross-check the sampling pipeline, not to scale.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import verifier
# The oracle reads the metric through ``verifier.Evaluator``.  The benchmark
# (bench/measure.py) still wraps these two names here, so they stay bound.
from .model import INF, PoleResidueModel, StateSpaceModel
from .model import passivity_metric, passivity_metric_many  # noqa: F401
from .report import ViolationBand
from .warp import build_warp_map

# Below this distance of sigma_max(D) from 1 the full-matrix form is
# ill-conditioned and the extended pencil is used instead.
D_SWITCH_TOL = 1e-4

# Relative |Re| below which an eigenvalue counts as purely imaginary.
IMAG_TOL = 1e-8
MAX_DENSE_DIM = 4000
# Warped midpoints swept per oracle band before the peak is polished.
BAND_GRID = 1024


class OracleUnavailable(RuntimeError):
    """Problem too large for the dense eigensolver guard."""


@dataclass(frozen=True)
class HamiltonianProblem:
    """The eigenproblem a v = lambda b v; ``b`` None is the standard one."""
    a: np.ndarray
    b: np.ndarray = None

    @property
    def dim(self):
        return self.a.shape[0]


@dataclass(frozen=True)
class CrossingSet:
    """Sorted crossing frequencies; ``bench/measure.py`` reads them as
    ``.frequencies`` to check every crossing against the adaptive bands."""
    frequencies: tuple


def build_problem(ss: StateSpaceModel) -> HamiltonianProblem:
    A, B, C, D = ss.A, ss.B, ss.C, ss.D
    P = D.shape[0]
    sig_d = np.linalg.svd(D, compute_uv=False)
    sig_max_d = sig_d[0] if sig_d.size else 0.0
    if abs(sig_max_d - 1.0) < D_SWITCH_TOL:
        N = ss.state_order
        Zn = np.zeros((N, N))
        Znp = np.zeros((N, P))
        Ip = np.eye(P)
        Me = np.block([
            [A, Zn, B, Znp],
            [Zn, -A.T, Znp, -C.T],
            [Znp.T, B.T, -Ip, D.T],
            [C, Znp.T, D, -Ip],
        ])
        K = np.zeros_like(Me)
        K[:2 * N, :2 * N] = np.eye(2 * N)
        return HamiltonianProblem(Me, K)
    R = np.eye(P) - D.T @ D
    S = np.eye(P) - D @ D.T
    Rinv_Bt = np.linalg.solve(R, B.T)
    Sinv_C = np.linalg.solve(S, C)
    M = np.block([
        [A + B @ np.linalg.solve(R, D.T @ C), B @ Rinv_Bt],
        [-C.T @ Sinv_C, -A.T - C.T @ D @ Rinv_Bt],
    ])
    return HamiltonianProblem(M)


def imaginary_crossings(problem: HamiltonianProblem,
                        dedup_tol=0.0) -> CrossingSet:
    """Non-negative crossing frequencies from the (generalized) spectrum."""
    if problem.dim > MAX_DENSE_DIM:
        raise OracleUnavailable(
            f"oracle unavailable at this scale: dim {problem.dim} > {MAX_DENSE_DIM}"
        )
    eigs = scipy.linalg.eigvals(problem.a, problem.b)
    eigs = eigs[np.isfinite(eigs)]
    imag = eigs[np.abs(eigs.real) <= IMAG_TOL * np.maximum(1.0, np.abs(eigs))]
    freqs = np.sort(imag.imag[imag.imag >= 0.0])
    if dedup_tol > 0 and freqs.size:
        kept = [freqs[0]]
        for w in freqs[1:]:
            if w - kept[-1] > dedup_tol:
                kept.append(w)
        freqs = np.asarray(kept)
    return CrossingSet(frequencies=tuple(float(w) for w in freqs))


def _band_peak(ev, a, b):
    """(omega_peak, phi_peak) of the ``Evaluator`` on the warped band [a, b],
    located as the adaptive check locates its peaks.  A band edge can hold
    the maximum (at omega = 0, or where a lower singular value crosses), so
    the better finite edge is the known best sample."""
    to_inf = b == ev.wmap.L
    omegas, phis = ev(np.array([a] if to_inf else [a, b]))
    k = int(np.argmax(phis))
    return verifier.locate_peak(ev, a, b, best=(float(omegas[k]), float(phis[k])),
                                to_inf=to_inf, sweep=BAND_GRID)


def oracle_verdict(ss: StateSpaceModel, pr: PoleResidueModel, gamma=1.0):
    """(passive, bands): algebraic verdict plus violation localization.

    The Hamiltonian is built from C / gamma and D / gamma, whose transfer
    matrix is H / gamma, so its crossings are those of the threshold gamma.
    The crossings split [0, inf) into intervals.  The metric has one sign
    inside each, so one ``Evaluator`` reads it at the interval's warped
    midpoint, and at omega = inf for the last interval.
    """
    wmap = build_warp_map(pr, verifier.DENSE_WARP)
    ev = verifier.Evaluator(pr, wmap, gamma)
    problem = build_problem(dataclasses.replace(ss, C=ss.C / gamma,
                                                D=ss.D / gamma))
    crossings = imaginary_crossings(problem, dedup_tol=1e-9 * pr.p_max)
    # Zero can appear as a crossing (eigenvalue at the origin); it does not
    # split [0, inf) into a new interval.
    ws = [w for w in crossings.frequencies if w > 0]
    edges = [0.0] + ws + [INF]
    bands = []
    for lo, hi in zip(edges, edges[1:]):
        a, b = wmap.warp(lo), wmap.warp(hi)
        if ev.one(0.5 * (a + b))[1] > 1.0 or (hi == INF and ev.one(b)[1] > 1.0):
            peak_w, peak_phi = _band_peak(ev, a, b)
            bands.append(ViolationBand(omega_lo=lo, omega_hi=hi, omega_peak=peak_w,
                                       phi_peak=peak_phi * gamma))
    # Crossings with no flagged interval (tangential touches) still count
    # as non-passive: the metric reaches the threshold.
    passive = not bands and not ws
    return passive, bands
