"""Long-term planning: size the PV plant and battery to maximize welfare.

The planning problem is stochastic in the solar outcome and mixed-integer in
the inverter and cost-tier choices.  Every discrete choice is enumerated
outright (catalogs are short).  Each combination is then a two-stage
stochastic program: the capacities first, then one dispatch per solar
scenario.  The combinations differ only in the capacity box and the linear
first-stage cost, so their expected dispatch cost is one convex function,
built once from cuts (the L-shaped method, `CutPool`) out of one small
dispatch LP per scenario and capacity point; each combination is a
2-capacity master LP over those cuts.  The chosen capacities' dispatch LPs
plan each scenario's battery flows, and the plan meets the battery where
every other plan does, in `storage.realize` (`_build_candidate`).  The
local energy price p transfers money between investor and consumers without
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
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .domain import DispatchSeries, SizingDecision
from .numerics import ProblemBuilder, solve_qp
from .storage import START_FRACTION, StorageSpec, realize, recursion_rows

_OVERLAP_TOL = 1e-6  # import/export overlap beyond this is flagged
_TOL = 1e-9  # relative tolerance of a master LP and of a combination's bounds
# The dispatch LPs are solved tighter: their error enters the objective
# weighted by the present value of a year of the modeled span
_RECOURSE_TOL = 1e-10
_MAX_ROUNDS = 200  # master rounds per combination before giving up


class SizingError(RuntimeError):
    """A planning subproblem failed to solve.

    The message names the subproblem (a scenario's dispatch LP at a capacity
    point, or a combination's master LP with its number of cuts), the
    combination (inverters, PV tier, subsidy branch, capacity box) and what
    the solver tried; `report` is its SolveReport (None when no solve ran).
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


class _Combination(NamedTuple):
    """One enumerated discrete choice: the inverters, the PV cost tier and
    the subsidy branch.

    Its capacities range over a box.  Its first-stage cost is pv_rate and
    es_rate per kW of PV and storage power, plus `fixed`: the inverters, the
    grid connection when anything is built and the fixed grid charge, all
    in present value.
    """

    pv_opt: tuple
    es_opt: tuple
    tier: int
    branch: int
    pv_lo: float
    pv_hi: float
    es_lo: float
    es_hi: float
    pv_rate: float
    es_rate: float
    fixed: float

    def __str__(self):
        pv_inv, es_inv = (("none" if opt[0] is None else opt[0])
                          for opt in (self.pv_opt, self.es_opt))
        return (f"PV inverter {pv_inv}, storage inverter {es_inv}, PV tier "
                f"{self.tier}, subsidy branch {self.branch}: pv in "
                f"[{self.pv_lo:.6g}, {self.pv_hi:.6g}], es in "
                f"[{self.es_lo:.6g}, {self.es_hi:.6g}]")


def _combinations(bundle, catalog, pv_capacity_fixed=None, es_power_fixed=None):
    """Every (PV inverter, ES inverter, PV cost tier, subsidy branch)
    combination with a nonempty capacity box, the null inverter included on
    both sides; pinned capacities shrink the boxes to points."""
    params = bundle.params
    pvf = params.present_value_factor()
    sub_factor = subsidy_present_value(1.0, params)
    fixed_grid = pvf * bundle.tariff.fixed_charge * bundle.loads.num_consumers \
        * bundle.grid.periods_per_year
    pv_opts = [(None, 0.0, 0.0)]
    pv_opts += [(j, cap, cost) for j, (cap, cost) in enumerate(catalog.pv_options)]
    es_opts = [(None, 0.0, 0.0)]
    es_opts += [(j, cap, cost) for j, (cap, cost) in enumerate(catalog.es_options)]
    for pv_opt in pv_opts:
        for es_opt in es_opts:
            es_lo, es_hi = 0.0, es_opt[1]
            if es_power_fixed is not None:
                if es_power_fixed > es_hi + 1e-9:
                    continue
                es_lo = es_hi = es_power_fixed
            fixed = pv_opt[2] + es_opt[2] + fixed_grid
            if pv_opt[0] is not None or es_opt[0] is not None:
                fixed += params.grid_connection_cost
            for tier, (tier_lo, tier_hi, tier_rate) in enumerate(_pv_brackets(params)):
                for branch, (sub_lo, sub_hi, sub_rate) in enumerate(
                        _subsidy_branches(params)):
                    pv_lo = max(tier_lo, sub_lo)
                    pv_hi = min(tier_hi, sub_hi, pv_opt[1])
                    if pv_capacity_fixed is not None:
                        if not (pv_lo - 1e-9 <= pv_capacity_fixed <= pv_hi + 1e-9):
                            continue
                        pv_lo = pv_hi = pv_capacity_fixed
                    if pv_lo > pv_hi + 1e-12:
                        continue
                    yield _Combination(
                        pv_opt, es_opt, tier, branch, pv_lo, pv_hi, es_lo, es_hi,
                        tier_rate + pvf * params.beta_mnt - sub_factor * sub_rate,
                        params.beta_es * params.kappa, fixed)


def _failure(subproblem, rep, combo):
    where = "" if combo is None else f"; {combo}"
    return SizingError(
        f"{subproblem} ended {rep.status} after {rep.iterations} iterations "
        f"(primal residual {rep.primal_residual:.3g}, dual residual "
        f"{rep.dual_residual:.3g}, gap {rep.duality_gap:.3g}{where})", rep)


def _dispatch_lp(bundle, alpha, pv, es):
    """One scenario's dispatch LP at fixed capacities (pv, es).

    The battery is StorageSpec(p_es, kappa p_es, sqrt(round trip)).
    Variables per period, in blocks of T: charge c_t, discharge d_t, grid
    import, surplus and the state of charge s_t after the period.  Rows: T
    energy balances, the spec's recursion (`storage.recursion_rows`, as in
    mpc_step) from its half-full start kappa p_es / 2, and the cyclic end
    s_{T-1} = kappa p_es / 2.  The capacities enter only as bounds and
    right-hand sides: c_t, d_t <= delta p_es, s_t <= kappa p_es, the start
    and end rows and the balance rhs l_t - delta alpha_t p_pv, so every
    scenario and capacity point has the same matrix.  Import never exceeds
    the load: the battery charges from solar only.  The costs are the
    scenario's dispatch bill over the span.
    """
    grid, loads, tariff, params = (bundle.grid, bundle.loads, bundle.tariff,
                                   bundle.params)
    t_len = grid.num_periods
    delta = grid.delta_hours
    spec = StorageSpec(es, params.kappa * es,
                       math.sqrt(params.es_roundtrip_efficiency))
    l_agg = loads.aggregate()
    pb = ProblemBuilder()
    c = pb.add_vars(t_len, ub=spec.power_cap_kw * delta, cost=params.beta_es_use)
    d = pb.add_vars(t_len, ub=spec.power_cap_kw * delta, cost=params.beta_es_use)
    gg = pb.add_vars(t_len, ub=l_agg, cost=tariff.grid_energy_price)
    gs = pb.add_vars(t_len, cost=tariff.export_tax - tariff.export_price)
    soc = pb.add_vars(t_len, ub=spec.energy_cap_kwh)
    pb.add_rows(np.column_stack([gg, gs, c, d]), [1.0, -1.0, -1.0, 1.0], "==",
                l_agg - delta * pv * np.asarray(alpha, dtype=np.float64))
    recursion_rows(pb, spec.efficiency, c, d, soc,
                   start=spec.initial_soc_kwh)
    pb.add_row([soc[-1]], [1.0], "==", spec.initial_soc_kwh)
    return pb.qp()


class _Recourse(NamedTuple):
    """The dispatch LPs of every scenario at one capacity point."""

    values: np.ndarray  # V_w: each scenario's dispatch bill over the span
    slopes: np.ndarray  # (W, 2): a subgradient g_w of V_w in (p_pv, p_es)
    levels: np.ndarray  # the dual objective is levels_w + g_w'(p_pv, p_es)
    dispatch_raw: list  # planned (charge, discharge) per scenario
    flows_raw: list  # (raw import, raw surplus) per scenario


class CutPool:
    """The expected dispatch cost of one bundle, as cuts shared by every
    combination of every `solve_sizing` call that is handed the pool.

    R(p_pv, p_es) = w sum_w pi_w V_w(p_pv, p_es), with V_w a scenario's
    dispatch bill and w the present value of a year of the modeled span, is
    one convex polyhedral function for every combination: the combinations
    differ only in the capacity box and the linear first-stage cost.  Each
    point p_k whose dispatch LPs were solved is kept with its values,
    subgradients and dispatches, and gives one cut per scenario from the
    dual objective there, V_w(p) >= level_wk + g_wk'p, which touches V_w at
    p_k (the L-shaped method: Van Slyke & Wets, SIAM J. Appl. Math. 1969;
    Birge & Louveaux, Introduction to Stochastic Programming).  Every
    dispatch LP of the pool is solved on one matrix, `a`, which carries
    its analysis.
    """

    def __init__(self, bundle):
        grid = bundle.grid
        self.bundle = bundle
        self.weights = bundle.params.present_value_factor() \
            * grid.periods_per_year / grid.num_periods \
            * bundle.scenarios.probabilities
        self.points = {}  # (pv, es) -> _Recourse, in the order solved
        self._cuts = []  # (w, [slope_pv, slope_es, level]): theta_w >= level + slope'p
        self.a = _dispatch_lp(bundle, bundle.scenarios.alphas[:, 0], 0.0,
                              0.0).a

    def _evaluate(self, pv, es, combo):
        rec = self.points.get((pv, es))
        if rec is None:
            rec = self.points[(pv, es)] = self._recourse(pv, es, combo)
            # a cut equal to a kept one within the tolerance adds nothing to
            # the master but a degenerate row, which stalls its solve
            for widx, (slope, level) in enumerate(zip(rec.slopes, rec.levels)):
                cut = np.append(slope, level)
                if not any(w == widx and np.allclose(cut, kept, rtol=_TOL, atol=_TOL)
                           for w, kept in self._cuts):
                    self._cuts.append((widx, cut))
        return rec

    def _recourse(self, pv, es, combo=None):
        """Solve every scenario's dispatch LP at capacities (pv, es), each
        on the pool's matrix `a`.

        The dual objective is affine in the capacities and, by weak
        duality, below V_w everywhere, so it is the cut.  Its slope comes
        from the duals of the rows and bounds the capacities enter: -delta
        alpha_t on p_pv from the balance rows, and on p_es -delta from each
        charge and discharge bound, -kappa from each state-of-charge bound
        and kappa / 2 from the start and end rows.  Its level is the rest:
        the load against the balance duals and the import bounds.  The
        planned dispatches are kept as solved; `_build_candidate` realizes
        them through the battery rule.  `combo` names the combination that
        asked, for the error message.
        """
        bundle = self.bundle
        grid, params = bundle.grid, bundle.params
        t_len = grid.num_periods
        delta, kappa = grid.delta_hours, params.kappa
        n_scen = bundle.scenarios.num_scenarios
        l_agg = bundle.loads.aggregate()
        values = np.empty(n_scen)
        slopes = np.empty((n_scen, 2))
        levels = np.empty(n_scen)
        dispatch_raw = []
        flows_raw = []
        for widx in range(n_scen):
            alpha = bundle.scenarios.alphas[:, widx]
            lp = replace(_dispatch_lp(bundle, alpha, pv, es), a=self.a)
            rep = solve_qp(lp, tol=_RECOURSE_TOL)
            if rep.status != "optimal":
                raise _failure(f"dispatch LP of scenario {widx} at pv"
                               f" {pv:.6g} kW, es {es:.6g} kW", rep, combo)
            c, d, gg, gs = np.split(rep.x[:4 * t_len], 4)
            y, zu = rep.y, rep.zu
            values[widx] = rep.objective
            levels[widx] = float(l_agg @ (y[:t_len] - zu[2 * t_len:3 * t_len]))
            slopes[widx] = (-delta * float(alpha @ y[:t_len]),
                            -delta * float(zu[:2 * t_len].sum())
                            - kappa * float(zu[4 * t_len:].sum())
                            + START_FRACTION * kappa
                            * float(y[t_len] + y[2 * t_len]))
            dispatch_raw.append((c, d))
            flows_raw.append((np.maximum(gg, 0.0), np.maximum(gs, 0.0)))
        return _Recourse(values, slopes, levels, dispatch_raw, flows_raw)

    def _bounds(self, combos):
        """Lower bounds on the combinations' costs without an LP: for each,
        the best over the pool's points of the expected cut, minimized over
        the box corner by corner."""
        recs = self.points.values()
        slope = self.weights @ np.stack([rec.slopes for rec in recs])  # (K, 2)
        level = np.stack([rec.levels for rec in recs]) @ self.weights
        lo, hi, rate = (np.array([[c.pv_lo, c.es_lo] for c in combos]),
                        np.array([[c.pv_hi, c.es_hi] for c in combos]),
                        np.array([[c.pv_rate, c.es_rate] for c in combos]))
        total = rate[:, None, :] + slope  # (P, K, 2)
        corner = np.minimum(total * lo[:, None, :], total * hi[:, None, :])
        return np.array([c.fixed for c in combos]) \
            + (level + corner.sum(axis=2)).max(axis=1)

    def _master(self, combo):
        """min first-stage cost + sum_w w pi_w theta_w over the box, each
        theta_w above every cut of scenario w.

        The cut variables carry the combination's fixed cost, shifted by
        fixed / sum_w w pi_w, so the objective is the combination's whole
        cost and the relative tolerance is that of `_candidate_beats`; the
        capacity and recourse terms alone can nearly cancel.
        """
        shift = combo.fixed / float(self.weights.sum())
        scen = np.array([w for w, _ in self._cuts])
        cuts = np.array([cut for _, cut in self._cuts])
        slopes, levels = cuts[:, :2], cuts[:, 2]
        pb = ProblemBuilder()
        cap = pb.add_vars(2, lb=[combo.pv_lo, combo.es_lo],
                          ub=[combo.pv_hi, combo.es_hi],
                          cost=[combo.pv_rate, combo.es_rate])
        theta = pb.add_vars(self.weights.shape[0], lb=-np.inf, cost=self.weights)
        pb.add_rows(np.column_stack([theta[scen],
                                     np.broadcast_to(cap, (len(scen), 2))]),
                    np.column_stack([np.ones(len(scen)), -slopes]), ">=",
                    levels + shift)
        return pb.qp()

    def _minimize(self, combo, incumbent=None):
        """The combination's optimal capacities (pv, es), or None when its
        lower bound exceeds the incumbent cost (-objective) by more than
        `_candidate_beats`' tolerance.  The pool must hold a point.

        Each round solves the master over the pool's cuts, then the dispatch
        LPs at its solution; the combination is done when the cuts taken
        there add nothing: the point's cost by the dispatch LPs' dual
        objectives meets the master's lower bound to `_TOL` relative.  The
        dual side keeps the test free of the dispatch LPs' own duality gaps,
        which the weights of a year's present value would magnify.
        """
        for _ in range(_MAX_ROUNDS):
            rep = solve_qp(self._master(combo), tol=_TOL)
            if rep.status != "optimal":
                raise _failure(f"master LP over {len(self.points)} cut points "
                               f"({len(self._cuts)} cuts)", rep, combo)
            lower = rep.objective - rep.duality_gap
            if incumbent is not None \
                    and lower - incumbent > _TOL * (1.0 + abs(incumbent)):
                return None
            pv = _snap(float(np.clip(rep.x[0], combo.pv_lo, combo.pv_hi)),
                       combo.pv_lo, combo.pv_hi)
            es = combo.es_lo if pv == 0.0 else _snap(
                float(np.clip(rep.x[1], combo.es_lo, combo.es_hi)),
                combo.es_lo, combo.es_hi)
            seen = (pv, es) in self.points
            rec = self._evaluate(pv, es, combo)
            cost = combo.pv_rate * pv + combo.es_rate * es + combo.fixed \
                + float(self.weights @ (rec.levels + rec.slopes @ [pv, es]))
            if seen or cost - lower <= _TOL * (1.0 + abs(cost)):
                return pv, es
        raise SizingError(f"no convergence after {_MAX_ROUNDS} master rounds "
                          f"({combo})")


def _build_candidate(bundle, pv_cap, es_pow, dispatch_raw, flows_raw,
                     pv_opt, es_opt):
    """The sizing result at a combination's capacities: each scenario's
    planned (charge, discharge) realized period by period by
    `storage.realize` from the half-full battery, and the flows, economics
    and objective of the realized dispatches."""
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
    for widx, (c_plan, d_plan) in enumerate(dispatch_raw):
        gen = pv_production(scen.alphas[:, widx], pv_cap, grid.delta_hours)
        steps = [(0.0, 0.0, spec.initial_soc_kwh)]  # the start, then each period
        for c, d, g in zip(c_plan.tolist(), d_plan.tolist(), gen.tolist()):
            steps.append(realize(c, d, g, steps[-1][2], spec, grid.delta_hours))
        cv, dv, soc = np.array(steps).T
        grid_import, surplus, served = split_flows(l_agg, cv[1:], dv[1:], gen)
        dispatches.append(DispatchSeries(cv[1:], dv[1:], gen, grid_import,
                                         surplus, served, soc))
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


def solve_sizing(bundle, catalog, pv_capacity_fixed=None, es_power_fixed=None,
                 pool=None):
    """Pick inverters and capacities maximizing long-term expected welfare.

    Enumerates every (PV inverter, ES inverter, PV cost tier, subsidy branch)
    combination, including the null inverter on both sides.  Each is a
    two-stage problem: capacities in the combination's box, then one
    dispatch per solar scenario.  Its expected dispatch cost is the same
    convex function in every combination, built once from cuts in a
    `CutPool`; each combination minimizes its first-stage cost plus that
    function over its box (`CutPool._minimize`), and a combination whose
    lower bound already loses to the best candidate so far is skipped.  A
    candidate's dispatches are the per-scenario LPs' plans at its
    capacities, realized through `storage.realize`, and its objective is
    recomputed from them from first principles.  Ties go to the smaller
    build cost, then to the smaller PV capacity.

    Capacities can be pinned for sweeps and cross-checks via
    pv_capacity_fixed / es_power_fixed.  `pool`, a CutPool of this bundle,
    lets several calls share their cuts and solved dispatch LPs.
    """
    if pool is None:
        pool = CutPool(bundle)
    elif pool.bundle is not bundle:
        raise ValueError("the cut pool was built for another bundle")
    combos = list(_combinations(bundle, catalog, pv_capacity_fixed,
                                es_power_fixed))
    if combos and not pool.points:
        # the bounds need a point: the first combination's largest capacities
        pool._evaluate(combos[0].pv_hi, combos[0].es_hi, combos[0])
    # best bound first, so the incumbent that prunes the rest comes early
    pending = list(range(len(combos)))
    found = {}
    incumbent = None
    while pending:
        bounds = pool._bounds([combos[i] for i in pending])
        pick = int(np.argmin(bounds))
        if incumbent is not None \
                and bounds[pick] - incumbent > _TOL * (1.0 + abs(incumbent)):
            break
        idx = pending.pop(pick)
        combo = combos[idx]
        point = pool._minimize(combo, incumbent)
        if point is None:
            continue
        rec = pool.points[point]
        found[idx] = _build_candidate(bundle, *point, rec.dispatch_raw,
                                      rec.flows_raw, combo.pv_opt, combo.es_opt)
        if incumbent is None or -found[idx].objective < incumbent:
            incumbent = -found[idx].objective
    best = None
    best_key = None
    for idx in sorted(found):
        cand = found[idx]
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
