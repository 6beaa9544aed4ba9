"""Threshold-aware multi-scale tree search on the unit interval.

An M-ary tree (M odd) partitions [0, 1] into cells; the leaf with the
largest metric value at the current level is expanded into M children,
with the middle child inheriting the parent's value (relabeling, never
re-evaluated).  Children are classified after every expansion: either
they remain refinement candidates, or a stop condition freezes them
into the basket and the search restarts from the shallowest level.
Budget overruns either escalate through a schedule (when everything
looks passive but sits close to the threshold) or end the search.
Values are normalized by the caller, so the threshold is 1.
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

    def check(self):
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
    samples: list              # (zeta, theta) sorted by zeta
    leaves: list               # (level, index, theta) sorted by cell position
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


def _select(candidates, h):
    """Best candidate key at level h: largest value, then smallest index."""
    best = None
    for (lev, i), val in candidates.items():
        if lev != h:
            continue
        if best is None or val > best[1] or (val == best[1] and i < best[0][1]):
            best = ((lev, i), val)
    return best


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
    config.check()
    M = config.M
    eval_count = 0

    candidates = {}
    basket = {}
    h = config.h0
    theta_max = -math.inf
    zeta_at_max = math.nan

    def partial(valid):
        merged = {**candidates, **basket}
        leaves = sorted(
            ((lev, i, val) for (lev, i), val in merged.items()),
            key=lambda t: (t[1] * M ** (-t[0]), t[0]),
        )
        samples = sorted(
            (cell_center(M, lev, i), val) for (lev, i), val in merged.items()
        )
        return SubbandResult(samples, leaves, theta_max, zeta_at_max,
                             eval_count, valid=valid)

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

    first = range(M ** config.h0)
    values = yield from evaluate(first, config.h0)
    candidates.update(((config.h0, i), v) for i, v in zip(first, values))

    sched = config.budget_schedule
    budget_idx = 0
    budget = sched[0]
    epsilon = config.epsilon0
    mu = 0

    while candidates:
        if all(lev != h for lev, _ in candidates):
            h = min(lev for lev, _ in candidates)
        (h, i), parent_val = _select(candidates, h)
        mid = M * i + M // 2
        cells = [j for j in range(M * i, M * (i + 1)) if j != mid]
        values = yield from evaluate(cells, h + 1)
        del candidates[(h, i)]
        new_vals = iter(values)
        children = {(h + 1, j): parent_val if j == mid else next(new_vals)
                    for j in range(M * i, M * (i + 1))}

        child_vals = list(children.values())
        s1, s2, s3 = stop_conditions(config, h, child_vals)
        u1, u2, u3 = budget_conditions(config, epsilon, h, child_vals)
        eval_count_now = eval_count

        budget_return = False
        if eval_count_now > budget:
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
                "K": eval_count_now, "budget": budget, "epsilon": epsilon,
                "theta_max": theta_max, "returning": budget_return,
            })

        if budget_return:
            basket.update(children)
            break

        if s1 or s2 or s3:
            basket.update(children)
            if config.basket_reuse:
                candidates.update(basket)
                basket = {}
            h = min(lev for lev, _ in list(candidates) + list(basket))
            epsilon = config.epsilon0
        else:
            candidates.update(children)
            h = h + 1
        mu += 1

    return partial(valid=True)


def run(f, config: SearchConfig, trace=None) -> SubbandResult:
    """Locate maxima of ``f`` on [0, 1] relative to the threshold.

    Scalar driver of ``steps``: each requested ``zeta`` is evaluated by
    one call of ``f``.
    """
    gen = steps(config, trace)
    values = None
    try:
        while True:
            zetas = gen.send(values)
            try:
                values = [float(f(z)) for z in zetas]
            except Exception as exc:  # noqa: BLE001 - raised as EvaluatorError
                gen.throw(exc)
    except StopIteration as done:
        return done.value
