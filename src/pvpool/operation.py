"""Rolling-horizon operation of the collective: control, settlement, a year.

Each control step implements one metering period, as the collective
allocates on a 30-minute basis: its window's head is one row of consumer
loads with one solar forecast, and its `ControlDecision` holds that
period's dispatch as scalars and the level its settlement fills from.  It
solves one convex program over a two-stage scenario tree (`_branches`):
the head, lifted to a one-period branch 0 with probability 1, and,
branching off it, one prediction tail per solar scenario.  Every branch
carries battery and grid dispatch; when the tracking weight theta is
positive, also an energy split, and a free per-consumer mismatch
variable, whose weighted squared norm pulls cumulative allocations toward
the yearly promise, takes the splits at their probabilities.

`run_year` chains the steps over a full trajectory, and every algorithm
runs one period body: its plan (the MPC's head, or the greedy rule's
"charge the metered surplus, discharge against the deficit") meets the
battery in `storage.realize`, the plan's withheld margin is carried over,
and `settle` water-fills the metered served energy into one key row
(`allocation._water_fill`), so settlement solves no QP.  Settlement fills
from the control step's level, the expected end-of-year mismatch with the
tail expectation held fixed, which is zero at theta = 0 (the cost-only
MPC), or from zero for the greedy rule.  The battery's state of charge
carries over from what really happened, not from the plan.  The control
QP is laid out once per window shape (`_control_pattern`: its matrix, row
senses and variable blocks, kept for the last few shapes, so the steps of
a year share one), and one fill, `_control_qp`, writes every step's costs,
bounds and right-hand sides, so the objective is stated once, there.  Each
step after the first starts its solve from the previous step's plan,
shifted one period (`_shifted_start`): `run_year` hands each
`ControlDecision.plan` to the next `mpc_step`, and nothing else is kept
between steps.  The bill is stated once, in `sizing.dispatch_costs`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, replace
from functools import lru_cache

import numpy as np

from .allocation import _repair_rows, _water_fill
from .domain import DispatchSeries, DomainError, is_count, is_number
from .numerics import ConvexQuadraticProgram, ProblemBuilder, solve_qp
from .sizing import dispatch_costs, pv_production, split_flows
from .storage import StorageSpec, realize, recursion_rows

ALGORITHMS = ("proposed", "mpc_myopic", "rulebased_myopic")


class OperationError(RuntimeError):
    """Raised when a control or settlement solve cannot be completed."""


@dataclass(frozen=True)
class HorizonConfig:
    """Receding-horizon lengths and the mismatch-tracking weight.

    Each solve implements one period before re-solving: control_periods is
    an init-only argument that must be 1, so configs naming it still load.
    prediction_periods is the total lookahead, that period included.  theta
    (EUR/kWh^2) prices the squared expected mismatch in the control
    objective; zero recovers a pure cost-minimizing dispatch.
    """

    control_periods: InitVar[int] = 1
    prediction_periods: int = 48
    theta: float = 1.0

    def __post_init__(self, control_periods):
        errors = []
        if isinstance(control_periods, bool) or control_periods != 1:
            errors.append("control_periods must be 1: each control step"
                          " implements one period")
        if not is_count(self.prediction_periods):
            errors.append("prediction_periods must be a positive integer")
        if not (is_number(self.theta) and self.theta >= 0):
            errors.append("theta must be a nonnegative finite weight")
        if errors:
            raise DomainError(errors)
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

    soc_kwh: float
    e_past: np.ndarray
    promise: np.ndarray
    e_future: np.ndarray

    def __post_init__(self):
        errors = []
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
        object.__setattr__(self, "soc_kwh", max(float(self.soc_kwh), 0.0))
        object.__setattr__(self, "e_past", np.maximum(self.e_past, 0.0))

    @property
    def num_consumers(self):
        return self.e_past.shape[0]


@dataclass(frozen=True)
class HorizonWindow:
    """One horizon's worth of forecasts, scenarios and prices.

    The head is the one period implemented after the solve: a row of n
    consumer loads and one central solar forecast.  The tail carries
    per-scenario solar with the shared load forecast.  Price vectors span
    head plus tail.
    """

    delta_hours: float
    head_loads: np.ndarray
    head_gen: float
    tail_loads: np.ndarray
    tail_gen: np.ndarray
    probabilities: np.ndarray
    grid_price: np.ndarray
    export_price: np.ndarray
    export_tax: np.ndarray

    def __post_init__(self):
        for name in ("tail_loads", "tail_gen"):
            arr = np.atleast_2d(np.asarray(getattr(self, name),
                                           dtype=np.float64))
            object.__setattr__(self, name, arr)
        for name in ("head_loads", "probabilities", "grid_price",
                     "export_price", "export_tax"):
            arr = np.atleast_1d(np.asarray(getattr(self, name),
                                           dtype=np.float64))
            object.__setattr__(self, name, arr)
        if self.head_loads.ndim != 1 or np.ndim(self.head_gen) != 0:
            raise DomainError("the head is one period: a load row, a forecast")
        object.__setattr__(self, "head_gen", float(self.head_gen))
        errors = []
        if not (np.isfinite(self.delta_hours) and self.delta_hours > 0):
            errors.append("delta_hours must be positive")
        n = self.head_loads.shape[0]
        tt = self.tail_loads.shape[0] if self.tail_loads.size else 0
        if tt and self.tail_loads.shape[1] != n:
            errors.append("tail_loads consumer count must match the head")
        if tt and self.tail_gen.shape != (tt, self.probabilities.shape[0]):
            errors.append("tail_gen must be periods x scenarios")
        for name in ("grid_price", "export_price", "export_tax"):
            if getattr(self, name).shape != (1 + tt,):
                errors.append(f"{name} must span head plus tail")
        for name in ("head_loads", "head_gen", "tail_loads", "tail_gen"):
            arr = np.asarray(getattr(self, name))
            if arr.size and (not np.isfinite(arr).all() or arr.min() < 0):
                errors.append(f"{name} entries must be finite and nonnegative")
        probs = self.probabilities
        if not np.isfinite(probs).all() or np.any(probs < 0):
            errors.append("scenario probabilities must be finite and"
                          " nonnegative")
        elif probs.size and abs(probs.sum() - 1.0) > 1e-6:
            errors.append("scenario probabilities must sum to 1")
        if errors:
            raise DomainError(errors)
        object.__setattr__(self, "delta_hours", float(self.delta_hours))

    @property
    def tail_periods(self):
        return self.tail_loads.shape[0] if self.tail_loads.size else 0


@dataclass(frozen=True)
class ControlDecision:
    """The one period a control solve implements.

    charge/discharge/served are the period's energies (kWh scalars) and
    withheld (kWh) the head's simultaneous buy and sell, min(import,
    export): production the plan exports while consumers import, kept out
    of the local allocation.  level is what `settle` fills the period from,
    the expected end-of-year mismatch per consumer before it (e_past + the
    tail's expected allocation + e_future - promise), and zero at theta = 0,
    where nothing is tracked and the period settles alone.  plan is the
    solved window, (solution, index blocks, tracking variables) as
    `_control_qp` lays them out, which the next step starts from.
    """

    charge: float
    discharge: float
    withheld: float
    served: float
    level: np.ndarray
    plan: tuple | None = None


def _branches(window):
    """The window's scenario tree, one (probability, loads, generation,
    price slice) per branch: the head, lifted to a one-period branch, with
    probability 1, then, when the window has a tail, one tail per solar
    scenario."""
    tails = enumerate(window.probabilities) if window.tail_periods else ()
    return [(1.0, window.head_loads[None, :], np.array([window.head_gen]),
             slice(0, 1))] + [
        (prob, window.tail_loads, window.tail_gen[:, widx], slice(1, None))
        for widx, prob in tails]


@lru_cache(maxsize=8)
def _control_pattern(n, tail, probabilities, eta, tracked):
    """The control QP of one window shape, without its data.

    The shape is all that enters the matrix: n, the tail length, the
    scenario probabilities (a tuple), the one-way efficiency eta and
    whether theta > 0 (tracked).  Each branch of the scenario tree lays out
    charge, discharge, SoC, import and export variables, its balance rows
    and its SoC recursion (`storage.recursion_rows`, a tail's from the
    head's SoC variable), then, when tracked, split variables and
    served-energy rows; one tracking row per consumer follows.  Returns a
    QP whose vectors are placeholders; per branch its (charge, discharge,
    SoC, import, export, split) block, balance and served rows; the head's
    start row; and the tracking variables.  Split, served and tracking are
    None untracked.
    """
    pb = ProblemBuilder()
    tree = [(1.0, 1)] + [(prob, tail) for prob in probabilities if tail]
    branches = []
    head_soc = start = None
    for prob, periods in tree:
        c, d, soc, gg, gs = pb.add_vars(5 * periods).reshape(5, periods)
        balance = pb.add_rows(np.column_stack([gg, gs, c, d]),
                              [1.0, -1.0, -1.0, 1.0], "==", 0.0)
        first = recursion_rows(pb, eta, c, d, soc, before=head_soc)
        if head_soc is None:
            head_soc, start = soc[0], first
        split = served = None
        if tracked:
            # served energy is what the key must hand out: sum_i e_i + gg = l
            split = pb.add_vars(periods * n)
            served = pb.add_rows(
                np.column_stack([split.reshape(periods, n), gg]), 1.0, "==",
                0.0)
        branches.append(((c, d, soc, gg, gs, split), balance, served))
    deliver = None
    if tracked:
        # deliver_i is consumer i's expected window allocation
        deliver = pb.add_vars(n)
        idx = np.column_stack([deliver] + [blk[5].reshape(-1, n).T
                                           for blk, *_ in branches])
        coef = np.concatenate([[1.0]] + [np.full(periods, -prob)
                                         for prob, periods in tree])
        pb.add_rows(idx, coef, "==", 0.0)
    for idx in [*(i for blk, *_ in branches for i in blk), deliver]:
        if idx is not None:  # handed to every step: read-only
            idx.flags.writeable = False
    return pb.qp(), branches, start, deliver


def _control_qp(state, window, spec, config, beta_es_use):
    """The control QP of `mpc_step` and the index blocks of its variables.

    The one fill of the window shape's kept pattern (`_control_pattern`):
    each branch (`_branches`) costs its variables at its probability,
    bounds them by the battery's caps and its loads, and sets its balance
    rows to its loads net of its generation and, when theta > 0, its
    served rows to its loads; the head's recursion starts from the state's
    SoC, and theta prices the tracking variables.  At theta = 0 the QP is
    the dispatch program.  Returns a new QP, which shares no array with the
    pattern, one (charge, discharge, SoC, import, export, split) index block
    per branch, head first, and the tracking variables' indices; split and
    tracking are None at theta = 0.
    """
    n = window.head_loads.shape[0]
    theta = config.theta
    pattern, branches, start, deliver = _control_pattern(
        n, window.tail_periods, tuple(window.probabilities.tolist()),
        spec.efficiency, theta > 0.0)
    cap_p = spec.power_cap_kw * window.delta_hours
    cap_e = spec.energy_cap_kwh
    export_net = window.export_tax - window.export_price

    size = pattern.c.shape[0]
    cost, qdiag, lb = np.zeros(size), np.zeros(size), np.zeros(size)
    ub = np.full(size, np.inf)
    rhs = np.zeros(pattern.rhs.shape[0])
    for (prob, loads, gen, span), ((c, d, soc, gg, gs, split), balance,
                                   served) in zip(_branches(window), branches):
        agg = loads.sum(axis=1)
        cost[c] = cost[d] = prob * beta_es_use
        cost[gg] = prob * window.grid_price[span]
        cost[gs] = prob * export_net[span]
        ub[c] = ub[d] = cap_p
        ub[soc] = cap_e
        ub[gg] = agg
        rhs[balance] = agg - gen
        if split is not None:
            ub[split] = loads.ravel()
            rhs[served] = agg
    rhs[start] = min(state.soc_kwh, cap_e)
    if deliver is not None:
        # tracking distance: minimize theta * sum_i (deliver_i + rhs_i)^2.
        # Written with the offset in the linear term so every variable
        # stays at kWh scale; carrying rhs (cumulative promise gap, often
        # hundreds of kWh) inside a variable stalls the solve short of
        # tight tolerances.
        lb[deliver] = -np.inf
        qdiag[deliver] = 2.0 * theta
        cost[deliver] = 2.0 * theta * (state.e_past + state.e_future
                                       - state.promise)
    qp = ConvexQuadraticProgram(cost, qdiag, pattern.a, pattern.senses.copy(),
                                rhs, lb, ub)
    return qp, [blk for blk, *_ in branches], deliver


def _shifted_start(previous, blocks, deliver, probabilities, size):
    """The previous step's plan, shifted one period, over this step's QP.

    previous is that step's `ControlDecision.plan`: its solution, its
    blocks and its tracking variables.  Each tail's period k + 1 becomes
    period k, and the new last period repeats the old last; the new head
    is the probability-weighted first period of the old tails; the
    tracking variables carry over.  Returns None, a cold start, for the
    first step and for a window without a tail.
    """
    if previous is None or len(blocks) < 2:
        return None
    x, old_blocks, old_deliver = previous
    head, *tails = blocks
    old_head, new_head = ([None if idx is None else idx.shape for idx in blk]
                          for blk in (old_blocks[0], head))
    if len(old_blocks) != len(blocks) or old_head != new_head:
        raise DomainError("the previous plan does not fit the window")
    periods, old_periods = tails[0][0].shape[0], old_blocks[1][0].shape[0]
    rows = np.minimum(np.arange(1, periods + 1), old_periods - 1)
    start = np.empty(size)
    for f, idx in enumerate(head):
        if idx is None:  # theta = 0 shifts the dispatch only
            continue
        first = 0.0
        for prob, new, old in zip(probabilities, tails, old_blocks[1:]):
            old_idx = old[f].reshape(old_periods, -1)
            start[new[f]] = x[old_idx[rows]].ravel()
            first = first + prob * x[old_idx[0]]
        start[idx] = first
    if deliver is not None:
        start[deliver] = x[old_deliver]
    return start


def mpc_step(state, window, spec, config, beta_es_use=0.0, previous=None):
    """Solve one receding-horizon control problem.

    Minimizes expected grid cost plus storage wear minus export revenue over
    the window, plus theta times the squared expected mismatch, subject to
    the energy balance, the storage envelope continuing from the state SoC
    (each tail scenario branching off the shared head), and the requirement
    that, when theta > 0, every period's split hands out exactly the locally
    served energy.  Returns the head period, the level it settles from and
    the solved plan; the objective is stated once, in `_control_qp`.

    previous is the preceding step's `ControlDecision.plan`, or None.  The
    solve starts from that plan shifted one period (`_shifted_start`), the
    rolling horizon's warm start, and from the box midpoint on the first
    step and on a window without a tail.
    """
    n = window.head_loads.shape[0]
    if state.num_consumers != n:
        raise DomainError("state and window consumer counts disagree")
    if 1 + window.tail_periods > config.prediction_periods:
        raise DomainError("window is longer than the prediction horizon")

    cap_p = spec.power_cap_kw * window.delta_hours
    qp, blocks, deliver = _control_qp(state, window, spec, config,
                                      beta_es_use)
    start = _shifted_start(previous, blocks, deliver, window.probabilities,
                           qp.c.shape[0])

    # control accuracy: 1e-6 on kWh-scale decisions is micro-Wh; the tail's
    # split is repaired to exact feasibility below either way
    rep = solve_qp(qp, tol=1e-6, start=start)
    if rep.status != "optimal":
        raise OperationError(f"control solve ended {rep.status}")
    x = rep.x

    # keep the solver's import/export split: simultaneous buy and sell is a
    # deliberate instrument here (it withholds production from the local
    # allocation when consumers are ahead of the promise), so re-deriving
    # the flows from a complementary split would change the plan
    branches = []
    for (_, loads, _, _), (_, _, _, gg, _, split) in zip(_branches(window),
                                                         blocks):
        agg = loads.sum(axis=1)
        grid_import = np.clip(x[gg], 0.0, agg)
        branches.append((loads, grid_import, agg - grid_import, split))
    (_, grid_import, served, _), *tails = branches
    level = np.zeros(n)
    if config.theta > 0.0:
        # the tail hands out its repaired split rows at their probabilities
        tail_expected = window.probabilities @ np.array(
            [_repair_rows(x[split].reshape(-1, n), sv, loads).sum(axis=0)
             for loads, _, sv, split in tails]) if tails else np.zeros(n)
        level = state.e_past + tail_expected + state.e_future - state.promise
    c, d, _, _, gs, _ = blocks[0]
    return ControlDecision(
        charge=np.clip(x[c], 0.0, cap_p)[0],
        discharge=np.clip(x[d], 0.0, cap_p)[0],
        withheld=np.minimum(grid_import, np.maximum(x[gs], 0.0))[0],
        served=served[0], level=level, plan=(x, blocks, deliver))


def settle(served, realized_loads, level):
    """Split one metered period's served energy into a key row.

    Minimizes sum_i (level_i + g_i)^2 over the splits g of [served]+ kWh
    with 0 <= g_i <= realized_loads_i, in closed form by water-filling
    (`allocation._water_fill`), then makes the row sum exact.  level is a
    `ControlDecision.level`, or zero for the greedy rule.  Returns the row.
    """
    loads = np.asarray(realized_loads, dtype=np.float64)
    raw = _water_fill(np.asarray(level, dtype=np.float64), loads,
                      min(max(served, 0.0), loads.sum()))
    return _repair_rows(raw[None, :], served, loads[None, :])[0]


@dataclass(frozen=True)
class YearReport:
    """Outcome of one simulated year under one operating algorithm.

    mismatch_series row t is cumulative delivered energy through period t
    minus the expected cumulative allocation of the plan, so its final row
    is the end-of-year mismatch.  Costs are totals over the simulated span
    (maintenance prorated by the fraction of a metering year covered); the
    energy, export and utilization terms come from `dispatch_costs`.
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


def run_year(bundle, plan, decision, realized, config,
             algorithm="proposed"):
    """Simulate a year of operation and report mismatch and costs.

    Period by period: build the forecast window, run the chosen controller,
    realize the period's dispatch against the actual trajectory, settle the
    served energy into a key row, and carry SoC, cumulative allocations and
    the MPC's plan, which the next step starts from, forward.  Both MPC
    algorithms settle from their step's level: proposed tracks the promise
    at config.theta, mpc_myopic runs theta = 0 and so settles each period
    alone.  rulebased_myopic plans to charge the realized surplus and
    discharge against the deficit, withholds nothing, and settles from zero.
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
    tail_gen_all = pv_production(bundle.scenarios.alphas,
                                 decision.pv_capacity_kw, delta)
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
    previous = None  # the last MPC step's plan: the next one starts there
    if algorithm == "mpc_myopic":  # cost only: nothing is tracked
        config = replace(config, theta=0.0)

    for t in range(t_total):
        tp_end = min(t + config.prediction_periods, t_total)
        if algorithm == "rulebased_myopic":
            # the greedy plan: charge the realized surplus and discharge
            # against the deficit; storage.realize clips it to the battery
            c_plan = np.maximum(gen_real[t] - load_real_agg[t], 0.0)
            d_plan = np.maximum(load_real_agg[t] - gen_real[t], 0.0)
            withheld, level = 0.0, np.zeros(n)  # and it settles alone
        else:
            state = OperationState(soc, e_past, promise,
                                   prefix[-1] - prefix[tp_end])
            window = HorizonWindow(
                delta_hours=delta,
                head_loads=loads[t], head_gen=gen_forecast[t],
                tail_loads=loads[t + 1:tp_end],
                tail_gen=tail_gen_all[t + 1:tp_end],
                probabilities=bundle.scenarios.probabilities,
                grid_price=bundle.tariff.grid_energy_price[t:tp_end],
                export_price=bundle.tariff.export_price[t:tp_end],
                export_tax=bundle.tariff.export_tax[t:tp_end])
            ctrl = mpc_step(state, window, spec, config,
                            beta_es_use=bundle.params.beta_es_use,
                            previous=previous)
            c_plan, d_plan = ctrl.charge, ctrl.discharge
            withheld, level, previous = ctrl.withheld, ctrl.level, ctrl.plan

        c_real, d_real, soc = realize(c_plan, d_plan, gen_real[t], soc, spec,
                                      delta)
        gi, sp, sv = split_flows(load_real_agg[t], c_real, d_real,
                                 gen_real[t])
        # carry over the plan's deliberate buy-and-sell margin: the
        # controller may withhold production from the local allocation by
        # exporting it while consumers import
        dump = np.minimum(withheld, np.maximum(load_real_agg[t] - gi, 0.0))
        gi, sp, sv = gi + dump, sp + dump, sv - dump
        key_row = settle(sv, realized.loads[t], level)
        e_past = e_past + key_row
        charge[t] = c_real
        discharge[t] = d_real
        grid_import[t] = gi
        surplus[t] = sp
        served[t] = sv
        keys[t] = key_row
        soc_series[t + 1] = soc

    dispatch = DispatchSeries(charge, discharge, gen_real, grid_import,
                              surplus, served, soc_series)
    bill = dispatch_costs(dispatch, bundle.tariff)
    fixed_cost = bundle.tariff.fixed_charge * n * t_total
    utilization = bundle.params.beta_es_use * bill.throughput
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
        grid_energy_cost=bill.grid_energy, fixed_cost=fixed_cost,
        export_revenue=bill.export_revenue, export_tax_cost=bill.export_tax,
        utilization_cost=utilization, maintenance_cost=maintenance,
        net_operating_cost=bill.grid_energy + fixed_cost + bill.export_tax
        + utilization + maintenance - bill.export_revenue)
