"""Rolling-horizon operation of the collective: control, settlement, a year.

Each control step solves one convex program: battery and grid dispatch for
the control periods, recourse dispatch plus an energy split for every solar
scenario on the prediction tail, and a free per-consumer mismatch variable
whose weighted squared norm pulls cumulative allocations toward the yearly
promise.  Once meter data arrives, `settle` re-splits the energy actually
served while holding the control solve's tail expectations fixed, and the
battery state of charge carries over from what really happened, not from
the plan.  `run_year` chains the steps over a full trajectory; the two
myopic baselines (cost-only MPC and the greedy storage rule, both settled
without history) share the same harness for comparison runs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocation import _repair_rows, _split_qp, min_variance_key
from .domain import DispatchSeries, DomainError, LoadMatrix
from .numerics import ProblemBuilder, solve_qp
from .sizing import pv_production, split_flows
from .storage import StorageSpec

ALGORITHMS = ("proposed", "mpc_myopic", "rulebased_myopic")


class OperationError(RuntimeError):
    """Raised when a control or settlement solve cannot be completed."""


@dataclass(frozen=True)
class HorizonConfig:
    """Receding-horizon lengths and the mismatch-tracking weight.

    control_periods is how many leading periods of each solve are actually
    implemented before re-solving; prediction_periods the total lookahead.
    theta (EUR/kWh^2) prices the squared expected mismatch in the control
    objective; zero recovers a pure cost-minimizing dispatch.
    """

    control_periods: int = 1
    prediction_periods: int = 48
    theta: float = 1.0

    def __post_init__(self):
        errors = []
        if self.control_periods < 1:
            errors.append("control_periods must be at least 1")
        if self.prediction_periods < self.control_periods:
            errors.append("prediction_periods must cover the control periods")
        if not (np.isfinite(self.theta) and self.theta >= 0):
            errors.append("theta must be a nonnegative finite weight")
        if errors:
            raise DomainError(errors)
        object.__setattr__(self, "control_periods", int(self.control_periods))
        object.__setattr__(self, "prediction_periods",
                           int(self.prediction_periods))
        object.__setattr__(self, "theta", float(self.theta))


@dataclass(frozen=True)
class OperationState:
    """Everything the controller must remember between horizons.

    e_past accumulates settled allocations, promise is the yearly target
    per consumer and e_future the expected allocation in the periods beyond
    the current prediction horizon (taken from the planning keys).
    """

    period: int
    soc_kwh: float
    e_past: np.ndarray
    promise: np.ndarray
    e_future: np.ndarray

    def __post_init__(self):
        errors = []
        if self.period < 0:
            errors.append("period must be nonnegative")
        if not (np.isfinite(self.soc_kwh) and self.soc_kwh >= -1e-9):
            errors.append("soc_kwh must be nonnegative")
        n = None
        for name in ("e_past", "promise", "e_future"):
            arr = np.atleast_1d(np.asarray(getattr(self, name),
                                           dtype=np.float64)).copy()
            if not np.isfinite(arr).all():
                errors.append(f"{name} entries must be finite")
            if n is None:
                n = arr.shape[0]
            elif arr.shape != (n,):
                errors.append("state vectors must share one length")
            object.__setattr__(self, name, arr)
        if np.any(self.e_past < -1e-9):
            errors.append("e_past must be nonnegative")
        if errors:
            raise DomainError(errors)
        object.__setattr__(self, "period", int(self.period))
        object.__setattr__(self, "soc_kwh", max(float(self.soc_kwh), 0.0))
        object.__setattr__(self, "e_past", np.maximum(self.e_past, 0.0))

    @property
    def num_consumers(self):
        return self.e_past.shape[0]


@dataclass(frozen=True)
class HorizonWindow:
    """One horizon's worth of forecasts, scenarios and prices.

    The head (first control_periods entries) carries the central forecast
    implemented after the solve; the tail carries per-scenario solar with
    the shared load forecast.  Price vectors span head plus tail.
    """

    delta_hours: float
    head_loads: np.ndarray
    head_gen: np.ndarray
    tail_loads: np.ndarray
    tail_gen: np.ndarray
    probabilities: np.ndarray
    grid_price: np.ndarray
    export_price: np.ndarray
    export_tax: np.ndarray

    def __post_init__(self):
        for name in ("head_loads", "tail_loads", "tail_gen"):
            arr = np.atleast_2d(np.asarray(getattr(self, name),
                                           dtype=np.float64))
            object.__setattr__(self, name, arr)
        for name in ("head_gen", "probabilities", "grid_price",
                     "export_price", "export_tax"):
            arr = np.atleast_1d(np.asarray(getattr(self, name),
                                           dtype=np.float64))
            object.__setattr__(self, name, arr)
        errors = []
        if not (np.isfinite(self.delta_hours) and self.delta_hours > 0):
            errors.append("delta_hours must be positive")
        tc, n = self.head_loads.shape
        tt = self.tail_loads.shape[0] if self.tail_loads.size else 0
        if tc < 1:
            errors.append("the head must hold at least one period")
        if self.head_gen.shape != (tc,):
            errors.append("head_gen must match the head length")
        if tt and self.tail_loads.shape[1] != n:
            errors.append("tail_loads consumer count must match the head")
        if tt and self.tail_gen.shape != (tt, self.probabilities.shape[0]):
            errors.append("tail_gen must be periods x scenarios")
        for name in ("grid_price", "export_price", "export_tax"):
            if getattr(self, name).shape != (tc + tt,):
                errors.append(f"{name} must span head plus tail")
        for name in ("head_loads", "head_gen", "tail_loads", "tail_gen"):
            arr = getattr(self, name)
            if arr.size and (not np.isfinite(arr).all() or arr.min() < 0):
                errors.append(f"{name} entries must be finite and nonnegative")
        if self.probabilities.size and \
                abs(self.probabilities.sum() - 1.0) > 1e-6:
            errors.append("scenario probabilities must sum to 1")
        if errors:
            raise DomainError(errors)
        object.__setattr__(self, "delta_hours", float(self.delta_hours))

    @property
    def control_periods(self):
        return self.head_loads.shape[0]

    @property
    def tail_periods(self):
        return self.tail_loads.shape[0] if self.tail_loads.size else 0


@dataclass(frozen=True)
class ControlDecision:
    """First-stage plan plus the scenario expectations behind it.

    charge/discharge/grid_import/surplus/served cover the control periods,
    key is the planned energy split (periods x consumers), tail_allocations
    the per-scenario consumer totals on the prediction tail, and mismatch
    the expected deviation from the promise if the plan were followed.
    """

    charge: np.ndarray
    discharge: np.ndarray
    pv_gen: np.ndarray
    grid_import: np.ndarray
    surplus: np.ndarray
    served: np.ndarray
    key: np.ndarray
    tail_allocations: np.ndarray
    tail_expected: np.ndarray
    mismatch: np.ndarray
    cost_term: float
    tracking_term: float


@dataclass(frozen=True)
class SettlementRecord:
    """Outcome of reconciling a control plan with metered reality."""

    deviation: np.ndarray
    key: np.ndarray
    delivered: np.ndarray
    e_past: np.ndarray
    objective: float


def compute_mismatch(e_past, key, tail_allocations, e_future, promise,
                     probabilities):
    """Expected end-of-year allocation error per consumer.

    key may be the control-horizon split (periods x consumers) or already
    summed per consumer; tail_allocations holds one consumer-total row per
    scenario (may be empty when the horizon reaches the end of the year).
    """
    e_past = np.atleast_1d(np.asarray(e_past, dtype=np.float64))
    promise = np.atleast_1d(np.asarray(promise, dtype=np.float64))
    e_future = np.atleast_1d(np.asarray(e_future, dtype=np.float64))
    key = np.asarray(key, dtype=np.float64)
    head = key.sum(axis=0) if key.ndim == 2 else np.atleast_1d(key)
    base = e_past + head + e_future
    tails = np.atleast_2d(np.asarray(tail_allocations, dtype=np.float64)) \
        if np.size(tail_allocations) else np.zeros((0, base.shape[0]))
    if tails.shape[0] == 0:
        return base - promise
    probs = np.atleast_1d(np.asarray(probabilities, dtype=np.float64))
    return probs @ (base + tails) - promise


def _control_qp(state, window, spec, config, beta_es_use):
    """The control QP of `mpc_step` and the index blocks of its variables.

    Rows are added block by block: per branch (the head, then each tail
    scenario) the energy balance, the state-of-charge recursion and the
    served-energy rows, then one tracking row per consumer.  Returns the
    QP and the (charge, discharge, import, export, split) index blocks of
    the head and of each tail scenario.
    """
    tc, n = window.head_loads.shape
    tt = window.tail_periods
    w = window.probabilities.shape[0]
    delta = window.delta_hours
    cap_p = spec.power_cap_kw * delta
    cap_e = spec.energy_cap_kwh
    eta_c = spec.charge_efficiency
    eta_d = spec.discharge_efficiency
    soc0 = min(state.soc_kwh, cap_e)
    head_agg = window.head_loads.sum(axis=1)
    tail_agg = window.tail_loads.sum(axis=1) if tt else np.zeros(0)
    balance = [1.0, -1.0, -1.0, 1.0]
    recursion = [1.0, -1.0, -eta_c, 1.0 / eta_d]

    pb = ProblemBuilder()
    c = pb.add_vars(tc, lb=0.0, ub=cap_p, cost=beta_es_use)
    d = pb.add_vars(tc, lb=0.0, ub=cap_p, cost=beta_es_use)
    soc = pb.add_vars(tc, lb=0.0, ub=cap_e)
    gg = pb.add_vars(tc, lb=0.0, ub=head_agg, cost=window.grid_price[:tc])
    gs = pb.add_vars(tc, lb=0.0,
                     cost=window.export_tax[:tc] - window.export_price[:tc])
    ehat = pb.add_vars(tc * n, lb=0.0, ub=window.head_loads.ravel())
    pb.add_rows(np.column_stack([gg, gs, c, d]), balance, "==",
                head_agg - window.head_gen)
    pb.add_row([soc[0], c[0], d[0]], [1.0, -eta_c, 1.0 / eta_d], "==", soc0)
    pb.add_rows(np.column_stack([soc[1:], soc[:-1], c[1:], d[1:]]),
                recursion, "==", 0.0)
    # served energy is what the key must hand out: sum_i e_ti + gg_t = l_t
    pb.add_rows(np.column_stack([ehat.reshape(tc, n), gg]), 1.0, "==",
                head_agg)

    tail_blocks = []
    for widx in range(w if tt else 0):
        pi = window.probabilities[widx]
        cw = pb.add_vars(tt, lb=0.0, ub=cap_p, cost=pi * beta_es_use)
        dw = pb.add_vars(tt, lb=0.0, ub=cap_p, cost=pi * beta_es_use)
        socw = pb.add_vars(tt, lb=0.0, ub=cap_e)
        ggw = pb.add_vars(tt, lb=0.0, ub=tail_agg,
                          cost=pi * window.grid_price[tc:])
        gsw = pb.add_vars(tt, lb=0.0,
                          cost=pi * (window.export_tax[tc:]
                                     - window.export_price[tc:]))
        gw = pb.add_vars(tt * n, lb=0.0, ub=window.tail_loads.ravel())
        pb.add_rows(np.column_stack([ggw, gsw, cw, dw]), balance, "==",
                    tail_agg - window.tail_gen[:, widx])
        prev = np.concatenate([soc[-1:], socw[:-1]])
        pb.add_rows(np.column_stack([socw, prev, cw, dw]), recursion, "==",
                    0.0)
        pb.add_rows(np.column_stack([gw.reshape(tt, n), ggw]), 1.0, "==",
                    tail_agg)
        tail_blocks.append((cw, dw, ggw, gsw, gw))

    theta = config.theta
    if theta > 0.0:
        # tracking distance: minimize theta * sum_i (deliver_i + rhs_i)^2
        # with deliver_i the expected window allocation.  Written with the
        # offset in the linear term so every variable stays at kWh scale;
        # carrying rhs (cumulative promise gap, often hundreds of kWh)
        # inside a variable stalls the solve short of tight tolerances.
        rhs = state.e_past + state.e_future - state.promise
        deliver = pb.add_vars(n, lb=-np.inf, ub=np.inf, qdiag=2.0 * theta,
                              cost=2.0 * theta * rhs)
        idx = np.column_stack([deliver, ehat.reshape(tc, n).T]
                              + [blk[4].reshape(tt, n).T
                                 for blk in tail_blocks])
        coef = np.concatenate([[1.0], -np.ones(tc)]
                              + [np.full(tt, -window.probabilities[widx])
                                 for widx in range(len(tail_blocks))])
        pb.add_rows(idx, coef, "==", 0.0)
    return pb.qp(), (c, d, gg, gs, ehat), tail_blocks


def mpc_step(state, window, spec, config, beta_es_use=0.0):
    """Solve one receding-horizon control problem.

    Minimizes expected grid cost plus storage wear minus export revenue over
    the window, plus theta times the squared expected mismatch, subject to
    the energy balance, the storage envelope continuing from the state SoC
    (each tail scenario branching off the shared head), and the requirement
    that every period's split hands out exactly the locally served energy.
    Returns the head quantities for implementation.
    """
    tc, n = window.head_loads.shape
    tt = window.tail_periods
    w = window.probabilities.shape[0]
    if state.num_consumers != n:
        raise DomainError("state and window consumer counts disagree")
    if tc + tt > config.prediction_periods:
        raise DomainError("window is longer than the prediction horizon")

    cap_p = spec.power_cap_kw * window.delta_hours
    head_agg = window.head_loads.sum(axis=1)
    tail_agg = window.tail_loads.sum(axis=1) if tt else np.zeros(0)
    theta = config.theta
    qp, (c, d, gg, gs, ehat), tail_blocks = _control_qp(
        state, window, spec, config, beta_es_use)

    # control accuracy: 1e-6 on kWh-scale decisions is micro-Wh; the split
    # itself is repaired to exact feasibility below either way
    rep = solve_qp(qp, tol=1e-6)
    if rep.status != "optimal":
        raise OperationError(f"control solve ended {rep.status}")
    x = rep.x

    # keep the solver's import/export split: simultaneous buy and sell is a
    # deliberate instrument here (it withholds production from the local
    # allocation when consumers are ahead of the promise), so re-deriving
    # the flows from a complementary split would change the plan
    charge = np.clip(x[c], 0.0, cap_p)
    discharge = np.clip(x[d], 0.0, cap_p)
    grid_import = np.clip(x[gg], 0.0, head_agg)
    surplus = np.maximum(x[gs], 0.0)
    served = head_agg - grid_import
    key = _repair_rows(x[ehat].reshape(tc, n), served, window.head_loads)
    export_net = window.export_tax - window.export_price
    cost = float(beta_es_use * (charge.sum() + discharge.sum())
                 + window.grid_price[:tc] @ grid_import
                 + export_net[:tc] @ surplus)
    tails = np.zeros((w, n))
    for widx, (cw, dw, ggw, gsw, gw) in enumerate(tail_blocks):
        cwv = np.clip(x[cw], 0.0, cap_p)
        dwv = np.clip(x[dw], 0.0, cap_p)
        giw = np.clip(x[ggw], 0.0, tail_agg)
        spw = np.maximum(x[gsw], 0.0)
        svw = tail_agg - giw
        rows = _repair_rows(x[gw].reshape(tt, n), svw, window.tail_loads)
        tails[widx] = rows.sum(axis=0)
        cost += float(window.probabilities[widx]
                      * (beta_es_use * (cwv.sum() + dwv.sum())
                         + window.grid_price[tc:] @ giw
                         + export_net[tc:] @ spw))
    tail_expected = window.probabilities @ tails if w else np.zeros(n)
    mismatch = compute_mismatch(state.e_past, key, tails, state.e_future,
                                state.promise, window.probabilities)
    return ControlDecision(
        charge=charge, discharge=discharge, pv_gen=window.head_gen.copy(),
        grid_import=grid_import, surplus=surplus, served=served, key=key,
        tail_allocations=tails, tail_expected=tail_expected,
        mismatch=mismatch, cost_term=cost,
        tracking_term=float(theta * (mismatch @ mismatch)))


def settle(decision, epsilon, realized_loads, state, config=None):
    """Re-split the realized served energy against metered loads.

    Minimizes the squared expected mismatch over the feasible splits of
    [planned served + epsilon]+ given the realized loads, with the tail
    expectations frozen from the control solve.  Returns the settled key
    and the updated cumulative allocations.
    """
    tc, n = decision.key.shape
    eps = np.broadcast_to(np.asarray(epsilon, dtype=np.float64), (tc,))
    values = np.asarray(
        realized_loads.values if isinstance(realized_loads, LoadMatrix)
        else realized_loads, dtype=np.float64)
    if values.shape != (tc, n):
        raise DomainError("realized loads must match the control horizon")
    served = np.maximum(decision.served + eps, 0.0)
    target = np.minimum(served, values.sum(axis=1))
    rhs = state.e_past + decision.tail_expected + state.e_future \
        - state.promise

    # same offset trick as the control solve: the quadratic runs over
    # deliver_i + rhs_i but only deliver_i (kWh over the horizon) is a
    # variable, keeping the system well scaled late in the year
    qp, evars = _split_qp(np.zeros_like(values), values, target, 2.0,
                          2.0 * rhs, 0.0)
    rep = solve_qp(qp, tol=1e-8)
    if rep.status != "optimal":
        raise OperationError(f"settlement solve ended {rep.status}")
    key = _repair_rows(rep.x[evars].reshape(tc, n), served, values)
    delivered = key.sum(axis=0)
    mismatch = rhs + delivered
    return SettlementRecord(deviation=np.asarray(eps, dtype=np.float64).copy(),
                            key=key, delivered=delivered,
                            e_past=state.e_past + delivered,
                            objective=float(mismatch @ mismatch))


def rule_based_control(state, pv_gen_kwh, load_kwh, spec, delta_hours):
    """Greedy storage heuristic for a single period.

    Charges as much of a solar surplus as the battery accepts, discharges
    against a deficit as far as the stored energy allows, never both.
    Returns (charge, discharge) in kWh.
    """
    cap = spec.power_cap_kw * delta_hours
    soc = min(max(state.soc_kwh, 0.0), spec.energy_cap_kwh)
    surplus = float(pv_gen_kwh) - float(load_kwh)
    if surplus > 0.0:
        headroom = (spec.energy_cap_kwh - soc) / spec.charge_efficiency
        return min(surplus, cap, max(headroom, 0.0)), 0.0
    if surplus < 0.0:
        available = soc * spec.discharge_efficiency
        return 0.0, min(-surplus, cap, available)
    return 0.0, 0.0


def myopic_settle(served, realized_loads, tol=1e-8):
    """Variance-minimizing split of one realized horizon, ignoring history."""
    values = np.asarray(
        realized_loads.values if isinstance(realized_loads, LoadMatrix)
        else realized_loads, dtype=np.float64)
    served = np.atleast_1d(np.asarray(served, dtype=np.float64))
    plan = min_variance_key([served], values, np.ones(1), tol=tol)
    return plan.keys[0]


@dataclass(frozen=True)
class YearReport:
    """Outcome of one simulated year under one operating algorithm.

    mismatch_series row t is cumulative delivered energy through period t
    minus the expected cumulative allocation of the plan, so its final row
    is the end-of-year mismatch.  Costs are totals over the simulated span
    (maintenance prorated by the fraction of a metering year covered).
    """

    algorithm: str
    dispatch: DispatchSeries
    keys: np.ndarray
    delivered: np.ndarray
    promise: np.ndarray
    mismatch_series: np.ndarray
    mismatch_pct: np.ndarray
    cumulative_deficit: float
    grid_energy_cost: float
    fixed_cost: float
    export_revenue: float
    export_tax_cost: float
    utilization_cost: float
    maintenance_cost: float
    net_operating_cost: float

    @property
    def end_mismatch(self):
        return self.delivered - self.promise

    @property
    def max_abs_mismatch(self):
        return float(np.abs(self.end_mismatch).max())


def _realize_head(c_plan, d_plan, gen_real, soc, spec, delta):
    """Clip a planned dispatch to what the realized solar and SoC allow.

    The battery charges from local production only, so planned charging is
    curtailed to the realized generation; discharge may draw on the same
    period's charge but never below empty.  Returns the realized flows and
    the SoC trajectory across the head.
    """
    cap = spec.power_cap_kw * delta
    c_real = np.zeros_like(c_plan)
    d_real = np.zeros_like(d_plan)
    socs = np.zeros(c_plan.shape[0])
    for k in range(c_plan.shape[0]):
        c_k = min(c_plan[k], gen_real[k], cap,
                  max(spec.energy_cap_kwh - soc, 0.0) / spec.charge_efficiency)
        c_k = max(c_k, 0.0)
        d_k = max(min(d_plan[k], cap,
                      (soc + spec.charge_efficiency * c_k)
                      * spec.discharge_efficiency), 0.0)
        soc = soc + spec.charge_efficiency * c_k - d_k / spec.discharge_efficiency
        soc = min(max(soc, 0.0), spec.energy_cap_kwh)
        c_real[k] = c_k
        d_real[k] = d_k
        socs[k] = soc
    return c_real, d_real, socs


def run_year(bundle, plan, decision, realized, config,
             algorithm="proposed"):
    """Simulate a year of operation and report mismatch and costs.

    Control horizon by control horizon: build the forecast window, run the
    chosen controller, realize the dispatch against the actual trajectory,
    settle the served energy into a key, and carry SoC and cumulative
    allocations forward.  The proposed algorithm tracks the promise in both
    control and settlement; mpc_myopic keeps the MPC dispatch but settles
    each horizon in isolation; rulebased_myopic reacts period by period.
    """
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    grid = bundle.grid
    delta = grid.delta_hours
    t_total = grid.num_periods
    loads = bundle.loads.values
    n = loads.shape[1]
    if realized.loads.shape != (t_total, n):
        raise OperationError("realized trajectory does not match the grid")
    for key in plan.keys:
        if key.values.shape != (t_total, n):
            raise OperationError("plan keys must cover the year on this grid")

    probs = np.asarray(plan.probabilities, dtype=np.float64)
    expected_rows = np.tensordot(probs,
                                 np.stack([k.values for k in plan.keys]), 1)
    prefix = np.vstack([np.zeros((1, n)), np.cumsum(expected_rows, axis=0)])
    promise = np.asarray(plan.promise, dtype=np.float64)

    spec = StorageSpec.from_sizing(decision, bundle.params, cyclic=False)
    soc = spec.initial_soc_kwh
    gen_real = pv_production(realized.alphas, decision.pv_capacity_kw, delta)
    mean_alpha = bundle.scenarios.alphas @ bundle.scenarios.probabilities
    gen_forecast = pv_production(mean_alpha, decision.pv_capacity_kw, delta)
    tail_gen_all = delta * decision.pv_capacity_kw * bundle.scenarios.alphas
    load_real_agg = realized.loads.sum(axis=1)

    charge = np.zeros(t_total)
    discharge = np.zeros(t_total)
    grid_import = np.zeros(t_total)
    surplus = np.zeros(t_total)
    served = np.zeros(t_total)
    keys = np.zeros((t_total, n))
    soc_series = np.zeros(t_total + 1)
    soc_series[0] = soc
    e_past = np.zeros(n)
    myopic_cfg = HorizonConfig(config.control_periods,
                               config.prediction_periods, 0.0)

    t0 = 0
    while t0 < t_total:
        tc_eff = min(config.control_periods, t_total - t0)
        head = slice(t0, t0 + tc_eff)
        tp_end = min(t0 + config.prediction_periods, t_total)
        state = OperationState(t0, soc, e_past, promise,
                               prefix[-1] - prefix[tp_end])
        if algorithm == "rulebased_myopic":
            c_plan = np.zeros(tc_eff)
            d_plan = np.zeros(tc_eff)
            soc_rule = soc
            for k in range(tc_eff):
                st = OperationState(t0 + k, soc_rule, e_past, promise,
                                    state.e_future)
                c_k, d_k = rule_based_control(st, gen_real[t0 + k],
                                              load_real_agg[t0 + k], spec,
                                              delta)
                c_plan[k] = c_k
                d_plan[k] = d_k
                soc_rule += spec.charge_efficiency * c_k \
                    - d_k / spec.discharge_efficiency
            ctrl = None
        else:
            tail = slice(t0 + tc_eff, tp_end)
            window = HorizonWindow(
                delta_hours=delta,
                head_loads=loads[head], head_gen=gen_forecast[head],
                tail_loads=loads[tail], tail_gen=tail_gen_all[tail],
                probabilities=bundle.scenarios.probabilities,
                grid_price=bundle.tariff.grid_energy_price[t0:tp_end],
                export_price=bundle.tariff.export_price[t0:tp_end],
                export_tax=bundle.tariff.export_tax[t0:tp_end])
            cfg = config if algorithm == "proposed" else myopic_cfg
            ctrl = mpc_step(state, window, spec.with_initial_soc(soc), cfg,
                            beta_es_use=bundle.params.beta_es_use)
            c_plan, d_plan = ctrl.charge, ctrl.discharge

        c_real, d_real, socs = _realize_head(c_plan, d_plan, gen_real[head],
                                             soc, spec, delta)
        soc = socs[-1]
        gi, sp, sv = split_flows(load_real_agg[head], c_real, d_real,
                                 gen_real[head])
        if ctrl is not None:
            # carry over the plan's deliberate buy-and-sell margin: the
            # controller may withhold production from the local allocation
            # by exporting it while consumers import
            dump = np.minimum(np.minimum(ctrl.grid_import, ctrl.surplus),
                              np.maximum(load_real_agg[head] - gi, 0.0))
            dump = np.maximum(dump, 0.0)
            gi = gi + dump
            sp = sp + dump
            sv = sv - dump
        if algorithm == "proposed":
            rec = settle(ctrl, sv - ctrl.served, realized.loads[head], state,
                         config)
            key_rows = rec.key
        else:
            key_rows = myopic_settle(sv, realized.loads[head]).values
        e_past = e_past + key_rows.sum(axis=0)
        charge[head] = c_real
        discharge[head] = d_real
        grid_import[head] = gi
        surplus[head] = sp
        served[head] = sv
        keys[head] = key_rows
        soc_series[t0 + 1:t0 + tc_eff + 1] = socs
        t0 += tc_eff

    dispatch = DispatchSeries(charge, discharge, gen_real, grid_import,
                              surplus, served, soc_series)
    tariff = bundle.tariff
    grid_cost = float(tariff.grid_energy_price @ grid_import)
    fixed_cost = tariff.fixed_charge * n * t_total
    export_revenue = float(tariff.export_price @ surplus)
    export_tax_cost = float(tariff.export_tax @ surplus)
    utilization = bundle.params.beta_es_use * float(charge.sum()
                                                    + discharge.sum())
    maintenance = bundle.params.beta_mnt * decision.pv_capacity_kw \
        * (t_total / grid.periods_per_year)
    mismatch_pct = np.where(promise > 1e-12,
                            100.0 * (e_past - promise)
                            / np.maximum(promise, 1e-12), 0.0)
    return YearReport(
        algorithm=algorithm, dispatch=dispatch, keys=keys, delivered=e_past,
        promise=promise, mismatch_series=np.cumsum(keys, axis=0) - prefix[1:],
        mismatch_pct=mismatch_pct,
        cumulative_deficit=float(np.maximum(promise - e_past, 0.0).sum()),
        grid_energy_cost=grid_cost, fixed_cost=fixed_cost,
        export_revenue=export_revenue, export_tax_cost=export_tax_cost,
        utilization_cost=utilization, maintenance_cost=maintenance,
        net_operating_cost=grid_cost + fixed_cost + export_tax_cost
        + utilization + maintenance - export_revenue)
