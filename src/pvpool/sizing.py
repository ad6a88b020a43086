"""Long-term planning: size the PV plant and battery to maximize welfare.

The planning problem is stochastic in the solar outcome and mixed-integer in
the inverter and cost-tier choices.  Every discrete choice is enumerated
outright (catalogs are short), which leaves one linear program per
combination over the capacities and the per-scenario dispatch.  The local
energy price p transfers money between investor and consumers without
changing total welfare, so it never appears in the optimization; price
arithmetic lives in the allocation module.

Economics convention: the stored objective is welfare relative to paying the
whole load from the grid forever, so the no-build optimum scores exactly
minus the present value of the grid-only bill and the net benefit of a plan
is objective + PV(grid-only bill), never negative.

A dispatch's bill has one account, `dispatch_costs`, which `_economics_for`
weights by scenario probability and scales to a year and `operation.run_year`
reports over the simulated span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import DispatchSeries, SizingDecision
from .numerics import ProblemBuilder, solve_lp
from .storage import StorageSpec, soc_trajectory

_OVERLAP_TOL = 1e-6  # import/export overlap beyond this is flagged


class SizingError(RuntimeError):
    """A planning subproblem failed to solve.

    The message names the combination's capacity bounds and what the solver
    tried; `report` is its SolveReport (None when no solve ran).
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def pv_production(alpha, pv_capacity_kw, delta_hours):
    """Energy produced per period by a plant of the given capacity."""
    alpha = np.asarray(alpha, dtype=np.float64)
    return delta_hours * pv_capacity_kw * alpha


def split_flows(load, charge, discharge, pv_gen):
    """Resolve net positions into import, surplus and locally served energy.

    Grid import covers what production and discharge cannot; surplus is the
    excess after load and charging; served energy is load minus import.  The
    two positive parts never overlap by construction.
    """
    load = np.asarray(load, dtype=np.float64)
    net = load + np.asarray(charge, dtype=np.float64) \
        - np.asarray(pv_gen, dtype=np.float64) - np.asarray(discharge, dtype=np.float64)
    grid_import = np.maximum(net, 0.0)
    surplus = np.maximum(-net, 0.0)
    return grid_import, surplus, load - grid_import


def capex(decision, params):
    """One-time build cost; the grid connection is paid only when building."""
    total = decision.pv_inverter_cost + decision.es_inverter_cost
    total += params.pv_rate(decision.pv_capacity_kw) * decision.pv_capacity_kw
    total += params.beta_es * decision.es_energy_kwh
    if decision.builds_anything:
        total += params.grid_connection_cost
    return total


class DispatchCosts(NamedTuple):
    """A dispatch's bill over its span: EUR amounts and throughput in kWh."""

    grid_energy: float
    export_revenue: float
    export_tax: float
    throughput: float


def dispatch_costs(dispatch, tariff):
    """Grid energy, export revenue and export tax in EUR, and battery
    throughput (charge plus discharge) in kWh, over the dispatch's span."""
    return DispatchCosts(
        grid_energy=float(tariff.grid_energy_price @ dispatch.grid_import),
        export_revenue=float(tariff.export_price @ dispatch.surplus),
        export_tax=float(tariff.export_tax @ dispatch.surplus),
        throughput=float(dispatch.charge.sum() + dispatch.discharge.sum()))


@dataclass(frozen=True)
class SizingEconomics:
    """Money flows of a plan, all derived from the stored dispatches.

    capex_* are one-time EUR; annual_* are expected EUR per year after
    scaling the modeled span up to a full year; subsidy_amount is the grant
    per occurrence (once, or per year when the rule is annual).
    """

    capex_pv_inverter: float
    capex_es_inverter: float
    capex_pv: float
    capex_es: float
    capex_grid: float
    capex_total: float
    annual_grid_cost_without: float
    annual_grid_cost_with: float
    annual_local_energy: float
    annual_export_revenue: float
    annual_export_tax: float
    annual_utilization_cost: float
    annual_maintenance_cost: float
    annual_opex: float
    subsidy_amount: float
    year_scale: float
    pvf: float


@dataclass(frozen=True)
class SizingResult:
    """Planning outcome: the decision, its dispatches and its economics."""

    decision: SizingDecision
    dispatches: tuple
    probabilities: np.ndarray
    objective: float
    economics: SizingEconomics
    flags: tuple

    def expected_served(self):
        """Probability-weighted locally served energy per period."""
        acc = np.zeros(self.dispatches[0].num_periods)
        for prob, dispatch in zip(self.probabilities, self.dispatches):
            acc += prob * dispatch.to_consumers
        return acc


def subsidy_present_value(amount, params):
    """Discounted value of the subsidy under the configured recurrence."""
    if amount == 0.0:
        return 0.0
    if params.subsidy.annual:
        return amount * params.present_value_factor()
    return amount / (1.0 + params.discount_rate)


def investor_profit(p, sizing, params):
    """Present value of the investor's position at local price p.

    Yearly income is the local energy sold at p plus export revenue plus any
    annual subsidy, minus operating cost; discounted over the horizon and
    set against the build cost.
    """
    eco = sizing.economics if isinstance(sizing, SizingResult) else sizing
    pvf = params.present_value_factor()
    yearly = p * eco.annual_local_energy + eco.annual_export_revenue - eco.annual_opex
    return pvf * yearly + subsidy_present_value(eco.subsidy_amount, params) \
        - eco.capex_total


def _economics_for(decision, dispatches, bundle):
    grid, loads, scen, tariff, params = (bundle.grid, bundle.loads,
                                         bundle.scenarios, bundle.tariff,
                                         bundle.params)
    ys = grid.periods_per_year / grid.num_periods
    pvf = params.present_value_factor()
    probs = scen.probabilities
    n = loads.num_consumers
    l_agg = loads.aggregate()
    fixed_yearly = tariff.fixed_charge * n * grid.num_periods * ys

    cap_pv = params.pv_rate(decision.pv_capacity_kw) * decision.pv_capacity_kw
    cap_es = params.beta_es * decision.es_energy_kwh
    cap_grid = params.grid_connection_cost if decision.builds_anything else 0.0

    without = float(tariff.grid_energy_price @ l_agg) * ys + fixed_yearly
    with_sys = local = export_rev = export_tax = utilization = 0.0
    for prob, dispatch in zip(probs, dispatches):
        bill = dispatch_costs(dispatch, tariff)
        with_sys += prob * bill.grid_energy * ys
        local += prob * float(dispatch.to_consumers.sum()) * ys
        export_rev += prob * bill.export_revenue * ys
        export_tax += prob * bill.export_tax * ys
        utilization += prob * params.beta_es_use * bill.throughput * ys
    with_sys += fixed_yearly
    maintenance = params.beta_mnt * decision.pv_capacity_kw
    subsidy_amount = params.subsidy.amount(decision.pv_capacity_kw)

    return SizingEconomics(
        capex_pv_inverter=decision.pv_inverter_cost,
        capex_es_inverter=decision.es_inverter_cost,
        capex_pv=cap_pv,
        capex_es=cap_es,
        capex_grid=cap_grid,
        capex_total=capex(decision, params),
        annual_grid_cost_without=without,
        annual_grid_cost_with=with_sys,
        annual_local_energy=local,
        annual_export_revenue=export_rev,
        annual_export_tax=export_tax,
        annual_utilization_cost=utilization,
        annual_maintenance_cost=maintenance,
        annual_opex=utilization + maintenance + export_tax,
        subsidy_amount=subsidy_amount,
        year_scale=ys,
        pvf=pvf,
    )


def welfare_objective(economics, params):
    """Welfare relative to the grid-only status quo (no-build scores -PV(bill))."""
    eco = economics
    yearly = eco.annual_export_revenue - eco.annual_opex - eco.annual_grid_cost_with
    return (-eco.capex_total + subsidy_present_value(eco.subsidy_amount, params)
            + eco.pvf * yearly)


def _pv_brackets(params):
    tiers = params.beta_pv_tiers
    out = []
    for k, (lo, rate) in enumerate(tiers):
        hi = tiers[k + 1][0] if k + 1 < len(tiers) else np.inf
        out.append((lo, hi, rate))
    return out


def _subsidy_branches(params):
    rule = params.subsidy
    if rule.rate_per_kw == 0.0:
        return [(0.0, np.inf, 0.0)]
    branches = [(0.0, rule.max_capacity_kw, rule.rate_per_kw)]
    if np.isfinite(rule.max_capacity_kw):
        branches.append((rule.max_capacity_kw, np.inf, 0.0))
    return branches


def _snap(value, lo, hi, tol=1e-7):
    """Collapse solver fuzz onto a finite interval endpoint."""
    if np.isfinite(lo) and value - lo <= tol * (1.0 + abs(lo)):
        return lo
    if np.isfinite(hi) and hi - value <= tol * (1.0 + abs(hi)):
        return hi
    return value


def _solve_combo(bundle, pv_lo, pv_hi, es_hi, tier_rate, sub_rate, es_lo=0.0):
    """One enumerated combination: an LP over capacities and dispatch.

    Variables are the PV capacity p_pv, the storage power p_es (energy
    capacity kappa * p_es) and, per scenario and period, charge c_t,
    discharge d_t, grid import, surplus and the state of charge s_t after
    the period.  Per scenario the rows are the energy balance, the power
    caps c_t, d_t <= delta * p_es, the recursion
    s_t - s_{t-1} - eta c_t + d_t / eta = 0 starting from
    s_{-1} = kappa p_es / 2, the energy cap s_t <= kappa p_es and the
    cyclic closure s_{T-1} = kappa p_es / 2 (the same recursion mpc_step
    uses), so rows and nonzeros grow linearly in T.

    Returns (pv_capacity, es_power, [(charge, discharge) per scenario],
    [(raw import, raw surplus) per scenario]) at the optimum.
    """
    grid, loads, scen, tariff, params = (bundle.grid, bundle.loads,
                                         bundle.scenarios, bundle.tariff,
                                         bundle.params)
    t_len = grid.num_periods
    delta = grid.delta_hours
    l_agg = loads.aggregate()
    probs = scen.probabilities
    ys = grid.periods_per_year / t_len
    pvf = params.present_value_factor()
    w = pvf * ys
    eta = math.sqrt(params.es_roundtrip_efficiency)
    kappa = params.kappa
    sub_factor = subsidy_present_value(1.0, params)

    pb = ProblemBuilder()
    p_pv = pb.add_vars(1, lb=pv_lo, ub=pv_hi,
                       cost=tier_rate + pvf * params.beta_mnt - sub_factor * sub_rate)
    p_es = pb.add_vars(1, lb=es_lo, ub=es_hi, cost=params.beta_es * kappa)
    pv_col = np.full(t_len, p_pv[0])
    es_col = np.full(t_len, p_es[0])
    ones = np.ones(t_len)
    # the period before the first is the half-full battery kappa p_es / 2
    prev_coef = np.concatenate([[-0.5 * kappa], -ones[1:]])
    per_scenario = []
    for widx in range(scen.num_scenarios):
        prob = probs[widx]
        alpha = scen.alphas[:, widx]
        c = pb.add_vars(t_len, lb=0.0, cost=prob * w * params.beta_es_use)
        d = pb.add_vars(t_len, lb=0.0, cost=prob * w * params.beta_es_use)
        # import never exceeds the load: the battery charges from solar only
        gg = pb.add_vars(t_len, lb=0.0, ub=l_agg,
                         cost=prob * w * tariff.grid_energy_price)
        gs = pb.add_vars(t_len, lb=0.0,
                         cost=prob * w * (tariff.export_tax - tariff.export_price))
        soc = pb.add_vars(t_len, lb=0.0)
        pb.add_rows(np.column_stack([gg, gs, c, d, pv_col]),
                    np.column_stack([ones, -ones, -ones, ones, delta * alpha]),
                    "==", l_agg)
        pb.add_rows(np.column_stack([c, es_col]), [1.0, -delta], "<=", 0.0)
        pb.add_rows(np.column_stack([d, es_col]), [1.0, -delta], "<=", 0.0)
        prev = np.concatenate([p_es, soc[:-1]])
        pb.add_rows(np.column_stack([soc, prev, c, d]),
                    np.column_stack([ones, prev_coef, -eta * ones, ones / eta]),
                    "==", 0.0)
        pb.add_rows(np.column_stack([soc, es_col]), [1.0, -kappa], "<=", 0.0)
        pb.add_row([soc[-1], p_es[0]], [1.0, -0.5 * kappa], "==", 0.0)
        per_scenario.append((c, d, gg, gs))

    rep = solve_lp(pb.lp(), tol=1e-9)
    if rep.status != "optimal":
        raise SizingError(
            f"planning subproblem ended {rep.status} after {rep.iterations} "
            f"iterations (primal residual {rep.primal_residual:.3g}, dual "
            f"residual {rep.dual_residual:.3g}, gap {rep.duality_gap:.3g}; "
            f"pv in [{pv_lo:.6g}, {pv_hi:.6g}], es in [{es_lo:.6g}, {es_hi:.6g}])",
            rep)
    x = rep.x
    pv_cap = _snap(float(np.clip(x[p_pv[0]], pv_lo, pv_hi)), pv_lo, pv_hi)
    es_pow = _snap(float(np.clip(x[p_es[0]], es_lo, es_hi)), es_lo, es_hi)
    limit = es_pow * delta
    if pv_cap == 0.0:
        # Without PV the battery has nothing to charge from (import is capped
        # at the load), so the optimum leaves it idle at its smallest power.
        # Solver fuzz there (power ~1e-7 kW, charge a hair above discharge)
        # would make split_flows serve negative energy.
        es_pow = es_lo
        limit = 0.0
    dispatch_raw = []
    flows_raw = []
    for c, d, gg, gs in per_scenario:
        cv = np.clip(x[c], 0.0, limit)
        dv = np.clip(x[d], 0.0, limit)
        dispatch_raw.append((cv, dv))
        flows_raw.append((np.maximum(x[gg], 0.0), np.maximum(x[gs], 0.0)))
    return pv_cap, es_pow, dispatch_raw, flows_raw


def _build_candidate(bundle, pv_cap, es_pow, dispatch_raw, flows_raw,
                     pv_opt, es_opt):
    grid, loads, scen, _, params = (bundle.grid, bundle.loads, bundle.scenarios,
                                    bundle.tariff, bundle.params)
    pv_idx, pv_inv_cap, pv_inv_cost = pv_opt
    es_idx, es_inv_cap, es_inv_cost = es_opt
    decision = SizingDecision(
        pv_capacity_kw=pv_cap, es_power_kw=es_pow,
        es_energy_kwh=params.kappa * es_pow,
        pv_inverter_index=pv_idx, pv_inverter_capacity_kw=pv_inv_cap,
        pv_inverter_cost=pv_inv_cost,
        es_inverter_index=es_idx, es_inverter_capacity_kw=es_inv_cap,
        es_inverter_cost=es_inv_cost)
    spec = StorageSpec.from_sizing(decision, params)
    l_agg = loads.aggregate()
    dispatches = []
    flags = []
    for widx, (cv, dv) in enumerate(dispatch_raw):
        gen = pv_production(scen.alphas[:, widx], pv_cap, grid.delta_hours)
        grid_import, surplus, served = split_flows(l_agg, cv, dv, gen)
        soc = soc_trajectory(spec, cv, dv)
        dispatches.append(DispatchSeries(cv, dv, gen, grid_import, surplus,
                                         served, np.clip(soc, 0.0, None)))
        raw_gg, raw_gs = flows_raw[widx]
        overlap = np.minimum(raw_gg, raw_gs)
        for t in np.flatnonzero(overlap > _OVERLAP_TOL):
            flags.append(
                f"scenario {widx} period {t}: import/export overlap "
                f"{overlap[t]:.6g} kWh in the planning solution")
    economics = _economics_for(decision, dispatches, bundle)
    objective = welfare_objective(economics, params)
    return SizingResult(decision, tuple(dispatches), scen.probabilities,
                        objective, economics, tuple(flags))


def solve_sizing(bundle, catalog, pv_capacity_fixed=None, es_power_fixed=None):
    """Pick inverters and capacities maximizing long-term expected welfare.

    Enumerates every (PV inverter, ES inverter, PV cost tier, subsidy branch)
    combination, including the null inverter on both sides, solves each
    combination's LP and keeps the best candidate after recomputing its
    objective from first principles.  Ties go to the smaller build cost, then
    to the smaller PV capacity.  Capacities can be pinned for sweeps and
    cross-checks via pv_capacity_fixed / es_power_fixed.
    """
    params = bundle.params
    pv_opts = [(None, 0.0, 0.0)]
    pv_opts += [(j, cap, cost) for j, (cap, cost) in enumerate(catalog.pv_options)]
    es_opts = [(None, 0.0, 0.0)]
    es_opts += [(j, cap, cost) for j, (cap, cost) in enumerate(catalog.es_options)]

    best = None
    best_key = None
    for pv_opt in pv_opts:
        for es_opt in es_opts:
            es_hi = es_opt[1]
            es_lo = 0.0
            if es_power_fixed is not None:
                if es_power_fixed > es_hi + 1e-9:
                    continue
                es_lo = es_hi = es_power_fixed
            for tier_lo, tier_hi, tier_rate in _pv_brackets(params):
                for sub_lo, sub_hi, sub_rate in _subsidy_branches(params):
                    pv_lo = max(tier_lo, sub_lo)
                    pv_hi = min(tier_hi, sub_hi, pv_opt[1])
                    if pv_capacity_fixed is not None:
                        if not (pv_lo - 1e-9 <= pv_capacity_fixed <= pv_hi + 1e-9):
                            continue
                        pv_lo = pv_hi = pv_capacity_fixed
                    if pv_lo > pv_hi + 1e-12:
                        continue
                    pv_cap, es_pow, draw, fraw = _solve_combo(
                        bundle, pv_lo, pv_hi, es_hi, tier_rate, sub_rate, es_lo)
                    cand = _build_candidate(bundle, pv_cap, es_pow, draw, fraw,
                                            pv_opt, es_opt)
                    key = (-cand.objective, cand.economics.capex_total,
                           cand.decision.pv_capacity_kw)
                    if best is None or _candidate_beats(key, best_key):
                        best, best_key = cand, key
    if best is None:
        raise SizingError("no feasible sizing combination (empty catalog?)")
    return best


def _candidate_beats(key, best_key, tol=1e-9):
    """Lexicographic with tolerance: objective, then CapEx, then PV size."""
    for a, b in zip(key, best_key):
        scale = tol * (1.0 + abs(b))
        if a < b - scale:
            return True
        if a > b + scale:
            return False
    return False
