"""Benefit split between investor and consumers, and the energy key.

Money side: the collective's net benefit is fixed by the sizing optimum; the
local energy price p only moves it between the investor and the consumers.
Both break-even prices have closed forms, and the share kept by the investor
is affine in p, so the whole win-win analysis is arithmetic on the sizing
economics.

Energy side: the yearly promise to each consumer comes from the key of
repartition that minimizes the expected variance of allocated energy.  The
objective is a probability-weighted sum and scenarios share no constraints,
so each scenario is one independent QP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import LoadMatrix, RepartitionKey
from .numerics import ProblemBuilder, solve_qp

_TINY_ENERGY = 1e-12  # kWh/yr below which "local energy sold" is zero


class AllocationError(RuntimeError):
    """Benefit or key computation impossible for the given plan."""


@dataclass(frozen=True)
class PriceRange:
    """Win-win local prices: investor breaks even at the low end, consumers
    at the high end."""

    investor_breakeven: float
    consumer_breakeven: float

    @property
    def width(self):
        return self.consumer_breakeven - self.investor_breakeven


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


def breakeven_prices(sizing, params):
    """Closed-form roots of the investor's profit and the consumers' savings.

    The investor's profit is affine increasing in p; consumer savings are
    affine decreasing.  Their roots bracket the win-win range whenever the
    net benefit is positive.
    """
    from .sizing import subsidy_present_value

    eco = sizing.economics
    slope = _price_slope(eco)
    if eco.annual_local_energy <= _TINY_ENERGY:
        raise AllocationError("no local energy sold")
    fixed_income = eco.pvf * (eco.annual_export_revenue - eco.annual_opex) \
        + subsidy_present_value(eco.subsidy_amount, params)
    investor = (eco.capex_total - fixed_income) / slope
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


def _split_qp(lo, hi, target, qdiag, cost, aux_rhs):
    """A QP over a (T, n) split g with lo <= g <= hi and one free auxiliary
    a_i per consumer, carrying the curvature qdiag and the linear cost.

    Row t hands out target_t (sum_i g_ti = target_t); then row i ties the
    auxiliary to consumer i's total (a_i - sum_t g_ti = aux_rhs).  The key
    QP and the settlement QP (operation.settle) both take this form.
    Returns the QP and the index block of g.
    """
    t_len, n = hi.shape
    pb = ProblemBuilder()
    gvars = pb.add_vars(t_len * n, lb=lo.ravel(), ub=hi.ravel())
    aux = pb.add_vars(n, lb=-np.inf, ub=np.inf, qdiag=qdiag, cost=cost)
    split = gvars.reshape(t_len, n)
    pb.add_rows(split, 1.0, "==", target)
    pb.add_rows(np.column_stack([aux, split.T]),
                np.concatenate([[1.0], -np.ones(t_len)]), "==", aux_rhs)
    return pb.qp(), gvars


def _scenario_key(served, loads, tol):
    values = np.asarray(loads.values if isinstance(loads, LoadMatrix) else loads,
                        dtype=np.float64)
    t_len, n = values.shape
    served = np.maximum(np.asarray(served, dtype=np.float64), 0.0)
    row_total = values.sum(axis=1)
    target = np.minimum(served, row_total)

    # surplus periods force the whole row to the loads and zero-served
    # periods force it to zero; pinning them keeps the QP interior nonempty
    lo = np.zeros_like(values)
    hi = values.copy()
    full = target >= row_total - 1e-12
    lo[full] = values[full]
    target[full] = row_total[full]
    empty = target <= 1e-12
    hi[empty] = 0.0
    target[empty] = 0.0
    # spread_i = (allocated to i) - mean allocation, the mean being fixed
    qp, gvars = _split_qp(lo, hi, target, 2.0 / n, 0.0, -(target.sum() / n))
    rep = solve_qp(qp, tol=tol)
    if rep.status != "optimal":
        raise AllocationError(f"key subproblem ended {rep.status}")
    return _repair_rows(rep.x[gvars].reshape(t_len, n), served, values)


def min_variance_key(served_by_scenario, loads_by_scenario, probabilities,
                     tol=1e-8):
    """Key of repartition minimizing the expected variance of allocations.

    loads_by_scenario may be a single LoadMatrix shared by every scenario or
    one per scenario.  Returns the per-scenario keys, their consumer totals,
    and the probability-weighted promise.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    n_scen = probabilities.shape[0]
    if isinstance(loads_by_scenario, LoadMatrix) or (
            isinstance(loads_by_scenario, np.ndarray)
            and loads_by_scenario.ndim == 2):
        loads_by_scenario = [loads_by_scenario] * n_scen
    if len(served_by_scenario) != n_scen or len(loads_by_scenario) != n_scen:
        raise AllocationError("scenario counts disagree")

    keys = []
    allocations = []
    expected_var = 0.0
    first = loads_by_scenario[0]
    n = first.num_consumers if isinstance(first, LoadMatrix) else first.shape[1]
    promise = np.zeros(n)
    for widx in range(n_scen):
        try:
            rows = _scenario_key(served_by_scenario[widx],
                                 loads_by_scenario[widx], tol)
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
