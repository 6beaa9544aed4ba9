"""Threshold-aware multi-scale tree search on the unit interval.

An M-ary tree (M odd) partitions [0, 1] into cells; a leaf is (level,
index, theta).  The search keeps its open leaves in one heap per level,
keyed (-theta, index), and its closed leaves in a list.  The open leaf
with the largest value at the current level, the smallest index on a
tie, is popped and expanded into its M children, the middle child
inheriting the parent's value (relabeling, never re-evaluated).  The
children stay open as refinement candidates, or a stop condition closes
them (freezes them into the basket; with basket reuse they stay open)
and the search restarts from the shallowest level with a non-empty
heap.  Budget overruns either escalate through a schedule (when
everything looks passive but sits close to the threshold) or end the
search.  At the end, one sort on the exact integer key
``index * M**(top - level)`` puts all leaves in cell order.  Values are
normalized by the caller, so the threshold is 1.

``steps`` is the search as a generator of point requests; ``lockstep``
drives any number of them with one evaluation call per round, and
``run`` is its one-search case for a scalar function.  The search
handles no metric failure: whatever the evaluation call raises (the
``verifier.Evaluator`` names each failure) passes through unchanged.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from operator import sub

# Factor by which the U2 closeness epsilon shrinks at each escalation.
RHO_EPS = 0.1


@dataclass(frozen=True)
class SearchConfig:
    M: int = 5
    h0: int = 1
    delta_zeta: float = 1e-8    # S1 resolution stop
    delta_theta: float = 1e-8   # S2 variation stop
    delta_eta: float = 1e-3     # gate for S3 / U3
    epsilon0: float = 1e-3      # U2 relative closeness, decays on escalation
    budget_schedule: tuple = (7, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100)
    basket_reuse: bool = False

    def __post_init__(self):
        if self.M < 3 or self.M % 2 == 0:
            raise ValueError(f"M must be odd and >= 3, got {self.M}")
        if self.h0 < 0:
            raise ValueError(f"h0 must be >= 0, got {self.h0}")
        for name in ("delta_zeta", "delta_theta", "delta_eta", "epsilon0"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        sched = self.budget_schedule
        if not sched or any(a >= b for a, b in zip(sched, sched[1:])):
            raise ValueError("budget_schedule must be non-empty, strictly increasing")


def cell_center(M, h, i):
    return (i + 0.5) * M ** (-h)


@dataclass
class SubbandResult:
    samples: list              # (cell centre zeta, theta) of each leaf, in cell order
    leaves: list               # (level, index, theta), in cell order
    eval_count: int


def conditions(config: SearchConfig, epsilon, h, children):
    """((S1, S2, S3), (U1, U2, U3)) for the M child values of one
    expansion, in index order.  A stop condition closes the children; the
    escalation trigger is U1 and (U2 or U3)."""
    child_res = config.M ** (-h - 1)
    delta = max(map(abs, map(sub, children[1:], children)))
    theta_hat = max(children)
    gate = child_res < config.delta_eta
    rel = (1.0 - theta_hat) / theta_hat if theta_hat > 0 else math.inf
    stop = (child_res < config.delta_zeta, delta < config.delta_theta,
            gate and delta < abs(theta_hat - 1.0))
    budget = (theta_hat < 1.0, rel < epsilon,
              gate and abs(1.0 - theta_hat) < delta)
    return stop, budget


def steps(config: SearchConfig, trace=None):
    """The search as a resumable generator over batches of ``zeta``.

    Each ``yield`` hands out the list of cell centres the search needs
    next (the initial centres, then the M - 1 non-middle children of one
    expansion) and receives their metric values, a sequence of floats in
    the same order.  The generator returns the ``SubbandResult``.

    ``trace``, when given, is a list collecting one dict per iteration
    (level, expanded leaf, flags, counters) for debugging/regression.
    """
    M = config.M
    half = M // 2
    others = [c for c in range(M) if c != half]
    h = config.h0
    eval_count = M ** h
    values = yield [cell_center(M, h, j) for j in range(eval_count)]
    heaps = [[] for _ in range(h)]    # heaps[level]: open leaves (-theta, index)
    heaps.append([(-v, j) for j, v in enumerate(values)])
    heapq.heapify(heaps[h])
    closed = []                       # (level, index, theta)

    sched = config.budget_schedule
    budget_idx = 0
    budget = sched[0]
    epsilon = config.epsilon0
    mu = 0

    while h is not None:
        neg, i = heapq.heappop(heaps[h])
        base = M * i
        width = M ** (-h - 1)
        values = yield [(base + c + 0.5) * width for c in others]
        eval_count += M - 1
        child_vals = [*values[:half], -neg, *values[half:]]

        (s1, s2, s3), (u1, u2, u3) = conditions(config, epsilon, h, child_vals)

        budget_return = False
        if eval_count > budget:
            if u1 and (u2 or u3):
                budget_idx += 1
                if budget_idx >= len(sched):
                    budget_return = True
                else:
                    budget = sched[budget_idx]
                    epsilon = RHO_EPS * epsilon
            else:
                budget_return = True

        if trace is not None:
            trace.append({
                "mu": mu, "h": h, "leaf": i,
                "S": [s1, s2, s3], "U": [u1, u2, u3],
                "K": eval_count, "budget": budget, "epsilon": epsilon,
                "theta_max": max(*(-hp[0][0] for hp in heaps if hp),
                                 *(v for _, _, v in closed), *child_vals),
                "returning": budget_return,
            })

        stop = s1 or s2 or s3
        h += 1
        if len(heaps) == h:
            heaps.append([])
        if config.basket_reuse or not stop:
            for c, v in enumerate(child_vals):
                heapq.heappush(heaps[h], (-v, base + c))
        else:
            closed.extend((h, base + c, v) for c, v in enumerate(child_vals))
        if budget_return:
            break
        if stop:
            h = next((lev for lev, hp in enumerate(heaps) if hp), None)
            epsilon = config.epsilon0
        mu += 1

    leaves = closed + [(lev, j, -neg) for lev, hp in enumerate(heaps)
                       for neg, j in hp]
    levels = range(len(heaps))
    scale = [M ** (levels[-1] - lev) for lev in levels]
    leaves.sort(key=lambda leaf: leaf[1] * scale[leaf[0]])
    width = [M ** (-lev) for lev in levels]
    return SubbandResult([((j + 0.5) * width[lev], v) for lev, j, v in leaves],
                         leaves, eval_count)


def lockstep(searches, evaluate):
    """Drive ``steps`` generators together; one ``evaluate`` call per round.

    Search ``ell``, its position in ``searches``, asks for its zeta as
    the global coordinate ``ell + zeta``.  Each round gathers the points
    every unfinished search asks for, evaluates them with
    ``evaluate(global_zetas) -> values`` (a list of floats in the same
    order) and sends each search its share.  Returns the searches'
    results in order.  An exception from ``evaluate`` propagates unchanged.
    """
    active = [(ell, gen, next(gen)) for ell, gen in enumerate(searches)]
    results = [None] * len(active)
    while active:
        values = evaluate([ell + t for ell, _, ts in active for t in ts])
        pending, start = [], 0
        for ell, gen, ts in active:
            stop = start + len(ts)
            try:
                pending.append((ell, gen, gen.send(values[start:stop])))
            except StopIteration as done:
                results[ell] = done.value
            start = stop
        active = pending
    return results


def run(f, config: SearchConfig, trace=None) -> SubbandResult:
    """Locate maxima of ``f`` on [0, 1] relative to the threshold.

    The one-search case of ``lockstep``: each requested ``zeta`` is
    evaluated by one call of ``f``.
    """
    return lockstep([steps(config, trace)],
                    lambda zetas: [float(f(z)) for z in zetas])[0]
