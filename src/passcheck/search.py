"""Threshold-aware multi-scale tree search on the unit interval.

An M-ary tree (M odd) partitions [0, 1] into cells.  The search keeps
its leaves as one list in cell order, each leaf (level, index, theta,
open).  The open leaf with the largest value at the current level is
expanded: it is replaced in place by its M children, the middle child
inheriting the parent's value (relabeling, never re-evaluated).  The
children stay open as refinement candidates, or a stop condition closes
them (freezes them into the basket; with basket reuse they stay open)
and the search restarts from the shallowest open level.  Budget overruns
either escalate through a schedule (when everything looks passive but
sits close to the threshold) or end the search.  Values are normalized
by the caller, so the threshold is 1.

``steps`` is the search as a generator of point requests; ``lockstep``
drives any number of them with one evaluation call per round, and
``run`` is its one-search case for a scalar function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class EvaluatorError(RuntimeError):
    """Metric evaluation failed; ``partial`` is the search's partial
    result when the failure came mid-search, else None."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass(frozen=True)
class SearchConfig:
    M: int = 5
    h0: int = 1
    delta_zeta: float = 1e-8    # S1 resolution stop
    delta_theta: float = 1e-8   # S2 variation stop
    delta_eta: float = 1e-3     # gate for S3 / U3
    epsilon0: float = 1e-3      # U2 relative closeness, decays on escalation
    rho_eps: float = 0.1
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
        if not 0 < self.rho_eps < 1:
            raise ValueError(f"rho_eps must lie in (0, 1), got {self.rho_eps}")
        sched = self.budget_schedule
        if not sched or any(a >= b for a, b in zip(sched, sched[1:])):
            raise ValueError("budget_schedule must be non-empty, strictly increasing")


def cell_center(M, h, i):
    return (i + 0.5) * M ** (-h)


@dataclass
class SubbandResult:
    samples: list              # (cell centre zeta, theta) of each leaf, in cell order
    leaves: list               # (level, index, theta), in cell order
    theta_max: float
    zeta_at_max: float
    eval_count: int
    valid: bool = True


def stop_conditions(config: SearchConfig, h, children):
    """(S1, S2, S3) for the M child values of one expansion, index order."""
    child_res = config.M ** (-h - 1)
    delta = max(abs(b - a) for a, b in zip(children, children[1:]))
    theta_hat = max(children)
    s1 = child_res < config.delta_zeta
    s2 = delta < config.delta_theta
    s3 = child_res < config.delta_eta and delta < abs(theta_hat - 1.0)
    return s1, s2, s3


def budget_conditions(config: SearchConfig, epsilon, h, children):
    """(U1, U2, U3); the escalation trigger is U1 and (U2 or U3)."""
    child_res = config.M ** (-h - 1)
    delta = max(abs(b - a) for a, b in zip(children, children[1:]))
    theta_hat = max(children)
    u1 = theta_hat < 1.0
    rel = (1.0 - theta_hat) / theta_hat if theta_hat > 0 else math.inf
    u2 = rel < epsilon
    u3 = child_res < config.delta_eta and abs(1.0 - theta_hat) < delta
    return u1, u2, u3


def steps(config: SearchConfig, trace=None):
    """The search as a resumable generator over batches of ``zeta``.

    Each ``yield`` hands out the list of cell centres the search needs
    next (the initial centres, then the M - 1 non-middle children of one
    expansion) and receives their metric values, a sequence of floats in
    the same order.  The generator returns the ``SubbandResult``.  An
    exception thrown in at a ``yield`` is raised again as
    ``EvaluatorError`` carrying the partial result, flagged invalid: the
    leaves and counts as they stood before that batch.

    ``trace``, when given, is a list collecting one dict per iteration
    (level, expanded leaf, flags, counters) for debugging/regression.
    """
    M = config.M
    eval_count = 0
    leaves = []     # (level, index, theta, open), in cell order
    theta_max = -math.inf
    zeta_at_max = math.nan

    def partial(valid):
        return SubbandResult(
            [(cell_center(M, lev, i), val) for lev, i, val, _ in leaves],
            [(lev, i, val) for lev, i, val, _ in leaves],
            theta_max, zeta_at_max, eval_count, valid=valid)

    def evaluate(cells, level):
        """Yield the centres of ``cells`` at ``level``; note their values."""
        nonlocal eval_count, theta_max, zeta_at_max
        zetas = [cell_center(M, level, j) for j in cells]
        try:
            values = yield zetas
        except Exception as exc:  # noqa: BLE001 - contract: flag partial invalid
            raise EvaluatorError(str(exc), partial(valid=False)) from exc
        eval_count += len(zetas)
        for z, v in zip(zetas, values):
            if v > theta_max:
                theta_max, zeta_at_max = v, z
        return values

    h = config.h0
    first = range(M ** h)
    values = yield from evaluate(first, h)
    leaves.extend((h, i, v, True) for i, v in zip(first, values))

    sched = config.budget_schedule
    budget_idx = 0
    budget = sched[0]
    epsilon = config.epsilon0
    mu = 0

    while h is not None:
        # The open leaf at level h with the largest value, the first
        # (smallest index) on a tie.
        k = None
        for j, (lev, _, val, is_open) in enumerate(leaves):
            if is_open and lev == h and (k is None or val > parent_val):
                k, parent_val = j, val
        i = leaves[k][1]
        mid = M * i + M // 2
        cells = [j for j in range(M * i, M * (i + 1)) if j != mid]
        values = yield from evaluate(cells, h + 1)
        child_vals = [*values[:M // 2], parent_val, *values[M // 2:]]

        s1, s2, s3 = stop_conditions(config, h, child_vals)
        u1, u2, u3 = budget_conditions(config, epsilon, h, child_vals)

        budget_return = False
        if eval_count > budget:
            if u1 and (u2 or u3):
                budget_idx += 1
                if budget_idx >= len(sched):
                    budget_return = True
                else:
                    budget = sched[budget_idx]
                    epsilon = config.rho_eps * epsilon
            else:
                budget_return = True

        if trace is not None:
            trace.append({
                "mu": mu, "h": h, "leaf": i,
                "S": [s1, s2, s3], "U": [u1, u2, u3],
                "K": eval_count, "budget": budget, "epsilon": epsilon,
                "theta_max": theta_max, "returning": budget_return,
            })

        stop = s1 or s2 or s3
        is_open = config.basket_reuse or not stop
        leaves[k:k + 1] = [(h + 1, M * i + c, v, is_open)
                           for c, v in enumerate(child_vals)]
        if budget_return:
            break
        if stop:
            h = min((lev for lev, _, _, o in leaves if o), default=None)
            epsilon = config.epsilon0
        else:
            h += 1
        mu += 1

    return partial(valid=True)


def lockstep(searches, evaluate):
    """Drive ``steps`` generators together; one ``evaluate`` call per round.

    Search ``ell``, its position in ``searches``, asks for its zeta as
    the global coordinate ``ell + zeta``.  Each round gathers the points
    every unfinished search asks for, evaluates them with
    ``evaluate(global_zetas) -> values`` (a list of floats in the same
    order) and sends each search its share.  Returns the searches'
    results in order.  An exception from ``evaluate`` is thrown into a
    pending search, which raises it as ``EvaluatorError``.
    """
    gens = list(searches)
    requests = {ell: next(gen) for ell, gen in enumerate(gens)}
    results = [None] * len(gens)
    while requests:
        zetas = [ell + t for ell, ts in requests.items() for t in ts]
        try:
            values = evaluate(zetas)
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


def run(f, config: SearchConfig, trace=None) -> SubbandResult:
    """Locate maxima of ``f`` on [0, 1] relative to the threshold.

    The one-search case of ``lockstep``: each requested ``zeta`` is
    evaluated by one call of ``f``.
    """
    return lockstep([steps(config, trace)],
                    lambda zetas: [float(f(z)) for z in zetas])[0]
