"""Benefit split between investor and consumers, and the energy key.

Money side: the collective's net benefit is fixed by the sizing optimum; the
local energy price p only moves it between the investor and the consumers.
Both break-even prices have closed forms, and the share kept by the investor
is affine in p, so the whole win-win analysis is arithmetic on the sizing
economics (whose dispatch bill is `sizing.dispatch_costs`), and the investor's
break-even is the root of `sizing.investor_profit`.

Energy side: the yearly promise to each consumer comes from the key of
repartition that minimizes the expected variance of allocated energy.  The
objective is a probability-weighted sum and scenarios share no constraints,
so each scenario is one independent QP.  Its split lies in the box
[0, loads]; the periods that hand out their whole load or nothing are
pinned by the solver's presolve (its forcing-row rule, in
`numerics._Standard`), not here.  The scenarios differ only in their
served energy, which enters only the right-hand side, so one call's QPs
are one program (`_key_qp`) filled per scenario, on one matrix that
carries its analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .domain import (DomainError, LoadMatrix, RepartitionKey, number_array,
                     probability_array)
from .numerics import ProblemBuilder, solve_qp
from .sizing import investor_profit

_TINY_ENERGY = 1e-12  # kWh/yr below which "local energy sold" is zero


class AllocationError(RuntimeError):
    """Benefit or key computation impossible for the given plan."""


@dataclass(frozen=True)
class PriceRange:
    """Win-win local prices: investor breaks even at the low end, consumers
    at the high end."""

    investor_breakeven: float
    consumer_breakeven: float


@dataclass(frozen=True)
class AllocationPlan:
    """Per-scenario keys, their consumer totals, and the yearly promise."""

    keys: tuple
    allocations: tuple
    promise: np.ndarray
    expected_variance: float
    probabilities: np.ndarray


def net_benefit(sizing):
    """Collective gain over the grid-only status quo, in present value."""
    eco = sizing.economics
    return eco.pvf * eco.annual_grid_cost_without + sizing.objective


def _price_slope(economics):
    return economics.pvf * economics.annual_local_energy


def sells_local_energy(sizing):
    """Whether the plan sells local energy, without which nothing is split."""
    return sizing.economics.annual_local_energy > _TINY_ENERGY


def breakeven_prices(sizing, params):
    """Closed-form roots of the investor's profit and the consumers' savings.

    The investor's profit is affine increasing in p; consumer savings are
    affine decreasing.  Their roots bracket the win-win range whenever the
    net benefit is positive.
    """
    if not sells_local_energy(sizing):
        raise AllocationError("no local energy sold")
    eco = sizing.economics
    slope = _price_slope(eco)
    investor = -investor_profit(0.0, sizing, params) / slope
    consumer = (eco.annual_grid_cost_without - eco.annual_grid_cost_with) \
        / eco.annual_local_energy
    return PriceRange(investor_breakeven=investor, consumer_breakeven=consumer)


def gamma_price_map(sizing, params, gamma=None, price=None):
    """Convert between the investor's share of the net benefit and the price.

    gamma * net_benefit = investor_profit(p) and the profit is affine in p,
    so either direction is one division.  Pass exactly one of gamma / price.
    """
    if (gamma is None) == (price is None):
        raise ValueError("pass exactly one of gamma or price")
    benefit = net_benefit(sizing)
    prices = breakeven_prices(sizing, params)
    slope = _price_slope(sizing.economics)
    if benefit <= _TINY_ENERGY * max(1.0, slope):
        raise AllocationError("net benefit is zero; there is nothing to share")
    if gamma is not None:
        return prices.investor_breakeven + gamma * benefit / slope
    return (price - prices.investor_breakeven) * slope / benefit


def _repair_rows(raw, served, values):
    """Force exact row sums back onto a near-feasible key candidate.

    A row short of its target is filled in proportion to the headroom left
    below the loads (to the loads outright when there is none); a row over
    its target is shrunk in proportion to its entries.
    """
    out = np.clip(raw, 0.0, values)
    target = np.minimum(np.maximum(served, 0.0), values.sum(axis=1))
    totals = out.sum(axis=1)
    gap = target - totals
    headroom = np.maximum(values - out, 0.0)
    room = headroom.sum(axis=1)
    fill = (gap > 0.0) & (room > 0.0)
    out[fill] += gap[fill, None] * headroom[fill] / room[fill, None]
    full = (gap > 0.0) & (room <= 0.0)
    out[full] = values[full]
    shrink = (gap < 0.0) & (totals > 0.0)
    out[shrink] += gap[shrink, None] * out[shrink] / totals[shrink, None]
    return np.clip(out, 0.0, values)


def _water_fill(level, cap, target):
    """Exact minimizer of sum_i (level_i + g_i)^2 over 0 <= g_i <= cap_i
    with sum_i g_i = target, for 0 <= target <= sum_i cap_i.

    The optimum fills every consumer up to one common level lam:
    g_i = clip(lam - level_i, 0, cap_i).  The total handed out is
    nondecreasing and piecewise linear in lam, with its slope rising by one
    at each level_i and falling by one at each level_i + cap_i, so lam is
    read off the 2n sorted breakpoints.  A single settled period is this
    problem, and so is a single-period key (level 0: g_i = min(lam, cap_i)).
    """
    n = level.shape[0]
    points = np.concatenate([level, level + cap])
    order = np.argsort(points, kind="stable")
    points = points[order]
    slope = np.cumsum(np.where(order < n, 1.0, -1.0))
    handed = np.concatenate([[0.0], np.cumsum(slope[:-1] * np.diff(points))])
    # the last breakpoint where no more than target is handed out; past it
    # the total rises, so its slope is positive unless every cap is full
    k = int(np.searchsorted(handed, target, side="right")) - 1
    if k == 2 * n - 1:
        return cap.copy()
    lam = points[k] + (target - handed[k]) / slope[k]
    return np.clip(lam - level, 0.0, cap)


def _key_qp(values):
    """The key QP of the (T, n) loads `values`, its right-hand side 0.

    Over the split g (0 <= g <= loads) and one free spread_i per consumer:
    row t hands out its target, then row i ties spread_i to consumer i's
    total minus the mean allocation, which the targets fix (`_scenario_key`
    writes both).  Presolve pins the rows whose target is their whole load
    (to the loads) or 0 (to 0), which keeps the QP's interior nonempty.
    """
    t_len, n = values.shape
    pb = ProblemBuilder()
    split = pb.add_vars(t_len * n, ub=values.ravel()).reshape(t_len, n)
    spread = pb.add_vars(n, lb=-np.inf, ub=np.inf, qdiag=2.0 / n)
    pb.add_rows(split, 1.0, 0.0)
    pb.add_rows(np.column_stack([spread, split.T]),
                np.concatenate([[1.0], -np.ones(t_len)]), 0.0)
    return pb.qp()


def _scenario_key(qp, served, values):
    """One scenario's key rows: `_key_qp(values)` handing out `served`."""
    t_len, n = values.shape
    target = np.minimum(np.maximum(served, 0.0), values.sum(axis=1))
    rhs = np.concatenate([target, np.full(n, -(target.sum() / n))])
    rep = solve_qp(replace(qp, rhs=rhs), tol=1e-8)
    if rep.status != "optimal":
        raise AllocationError(f"key subproblem ended {rep.status}")
    return _repair_rows(rep.x[:t_len * n].reshape(t_len, n), served, values)


def min_variance_key(served_by_scenario, loads, probabilities):
    """Key of repartition minimizing the expected variance of allocations.

    loads is one LoadMatrix or (T, n) array shared by every scenario: only
    the solar is uncertain, and each scenario's served energy is a vector
    of one finite entry per load period.  Returns the per-scenario keys,
    their consumer totals, and the probability-weighted promise.
    """
    probabilities, problems = probability_array(probabilities)
    if problems:
        raise DomainError(problems)
    n_scen = probabilities.shape[0]
    if len(served_by_scenario) != n_scen:
        raise AllocationError("scenario counts disagree")
    loads = loads.values if isinstance(loads, LoadMatrix) else loads
    if np.ndim(loads) > 2:
        raise AllocationError("loads must be one (T, n) matrix")
    values, problems = number_array(loads, "loads", 2, 0.0)
    served_rows = [number_array(served, f"served_by_scenario[{widx}]", 1)
                   for widx, served in enumerate(served_by_scenario)]
    for widx, (row, more) in enumerate(served_rows):
        if values is not None and row is not None \
                and row.shape != values.shape[:1]:
            more = [f"served_by_scenario[{widx}] has {row.shape[0]} entries,"
                    f" the loads {values.shape[0]} periods"]
        problems += more
    if problems:
        raise DomainError(problems)

    keys = []
    allocations = []
    expected_var = 0.0
    promise = np.zeros(values.shape[1])
    qp = _key_qp(values)
    for widx in range(n_scen):
        try:
            rows = _scenario_key(qp, served_rows[widx][0], values)
        except AllocationError as exc:
            raise AllocationError(f"scenario {widx}: {exc}") from exc
        key = RepartitionKey(rows)
        totals = rows.sum(axis=0)
        keys.append(key)
        allocations.append(totals)
        promise += probabilities[widx] * totals
        expected_var += probabilities[widx] * _variance(totals)
    return AllocationPlan(keys=tuple(keys), allocations=tuple(allocations),
                          promise=promise, expected_variance=expected_var,
                          probabilities=probabilities)


def _variance(totals):
    mean = totals.mean()
    return float(totals @ totals / totals.size - mean * mean)
