"""Rolling-horizon operation of the collective: control, settlement, a year.

Each control step implements one metering period, as the collective
allocates on a 30-minute basis: its window's head is one row of consumer
loads with one solar forecast, and its `ControlDecision` holds that
period's dispatch as scalars and the level its settlement fills from.  It
solves one convex program over a two-stage scenario tree: the head,
lifted to a one-period branch with probability 1, and, branching off it,
one prediction tail per solar scenario.  Every branch period carries
charge, discharge, SoC, export and served energy, balanced by one row on
served energy (served + export + charge - discharge = generation): the
grid import, load - served, is implied by the served energy's box
[0, load], so it is no variable (the implied free variable that presolve
substitutes out, Andersen & Andersen, Math. Prog. 1995).  When the
tracking weight theta is positive, the served energy is split by
consumer, and a free per-consumer mismatch variable, whose weighted
squared norm pulls cumulative allocations toward the yearly promise,
takes the splits at their probabilities.

`run_year` chains the steps over a full trajectory, and every algorithm
runs one period body: its plan (the MPC's head, or the greedy rule's
"charge the metered surplus, discharge against the deficit") meets the
battery in `storage.realize`, the plan's withheld margin is carried over,
and `settle` water-fills the metered served energy into one key row
(`allocation._water_fill`), so settlement solves no QP.  Settlement fills
from the control step's level, the expected end-of-year mismatch with the
tail expectation held fixed, as the QP's own tracking rows state it
(deliver less the head's split), which is zero at theta = 0 (the cost-only
MPC), or from zero for the greedy rule.  The battery's state of charge
carries over from what really happened, not from the plan.

The control QP's layout is stated once, in `_tree`, whose views every step
fills and reads by position: period by period, the tracking part, then the
head, then each tail period's block across all scenarios.  Its matrix
(every row an equality) is what the steps keep: `_control_pattern` builds
it once, for the horizon's full window, and keeps it, so the steps of a
year, and of every later year in the process, share one matrix and the
analysis it holds.  The matrix is read-only, as every program's is, so
every step's QP takes it as it is, and one fill, `_control_qp`, writes
every step's costs, bounds and right-hand sides, so the objective is
stated once, there.  `run_year` cuts the horizon to the run, so no window
is laid out longer than the run.  A shorter window at the end of a run is
the full window's leading block, which `numerics.restrict` cuts from two
lengths with its analysis, truncated from the full window's and in its
band order, so no window, the head-only one included, is analysed afresh.
Every step after the first restarts its solve from the previous solve's
well-centred primal-dual iterate (`SolveReport.restart`, near its rows as
well as near the central path: a small gap alone, which an unmoved warm
start already has, does not qualify), moved one period block
(`_shifted_start`); the solve pushes its x inside the box and shifts its
bound multipliers by 0.5 s'z / sum(s) there, so the start stays near the
central path.  `run_year` hands
each `ControlDecision.plan` to the next `mpc_step`, and nothing else is
kept between steps.  A warm-started solve that ends other than optimal is
solved once more cold, `run_year` counts those retries
(`YearReport.cold_retries`), and an `OperationError` names the period and
both outcomes.  The bill is stated once, in `sizing.dispatch_costs`.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, replace
from functools import lru_cache

import numpy as np

from .allocation import _repair_rows, _water_fill
from .domain import (DispatchSeries, DomainError, is_count, is_nonnegative,
                     is_positive, number_array, probability_array,
                     rule_problems, store_numbers)
from .numerics import (ConvexQuadraticProgram, ProblemBuilder, restrict,
                       solve_qp)
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
        errors = rule_problems(self, (
            ("prediction_periods", is_count, "a positive integer"),
            ("theta", is_nonnegative, "a nonnegative finite weight")))
        if isinstance(control_periods, bool) or control_periods != 1:
            errors.append("control_periods must be 1: each control step"
                          " implements one period")
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
        errors = store_numbers(self, (("soc_kwh", 0, 0.0), ("e_past", 1, 0.0),
                                      ("promise", 1), ("e_future", 1)))
        if not errors and not (self.e_past.shape == self.promise.shape
                               == self.e_future.shape):
            errors.append("state vectors must share one length")
        if errors:
            raise DomainError(errors)

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
        errors = rule_problems(self, (
            ("delta_hours", is_positive, "a positive number"),))
        given_tail = self.tail_loads
        # number_array refuses a head of more dimensions, or a ragged one
        head = store_numbers(self, (("head_loads", 1, 0.0),
                                    ("head_gen", 0, 0.0)))
        if head:
            errors.append("the head is one period: a load row, a forecast")
        errors += head + store_numbers(self, (
            ("tail_loads", 2, 0.0), ("tail_gen", 2, 0.0),
            ("grid_price", 1, 0.0), ("export_price", 1), ("export_tax", 1)))
        probabilities, more = probability_array(self.probabilities)
        if errors or more:
            raise DomainError(errors + more)
        object.__setattr__(self, "probabilities", probabilities)
        object.__setattr__(self, "delta_hours", float(self.delta_hours))
        n, w = self.head_loads.shape[0], probabilities.shape[0]
        # a tail has a period per load row, even a row of no consumers; an
        # empty vector is no tail (number_array reads it as one row)
        no_tail = np.shape(given_tail) == (0,)
        tt = 0 if no_tail else self.tail_loads.shape[0]
        if not no_tail and self.tail_loads.shape[1] != n:
            errors.append("tail_loads consumer count must match the head")
        # without tail loads there is no tail, so no generation either
        if (tt or self.tail_gen.size) and self.tail_gen.shape != (tt, w):
            errors.append("tail_gen must be periods x scenarios")
        for name in ("grid_price", "export_price", "export_tax"):
            if getattr(self, name).shape != (1 + tt,):
                errors.append(f"{name} must span head plus tail")
        if errors:
            raise DomainError(errors)
        if not tt:  # no tail: (0, n) loads and (0, scenarios) generation
            object.__setattr__(self, "tail_loads", self.tail_loads.reshape(0, n))
            object.__setattr__(self, "tail_gen", self.tail_gen.reshape(0, w))

    @property
    def tail_periods(self):
        return self.tail_loads.shape[0]


@dataclass(frozen=True)
class ControlDecision:
    """The one period a control solve implements.

    charge/discharge/served are the period's energies (kWh scalars) and
    withheld (kWh) the head's simultaneous buy and sell, min(import,
    export): production the plan exports while consumers import, kept out
    of the local allocation.  The control QP has no import variable: the
    import is the head's load less its served energy, clipped to
    [0, load], and served is load - import.  level is what `settle` fills
    the period from, the expected end-of-year mismatch per consumer before
    it (e_past + the tail's expected allocation + e_future - promise),
    where the tail's expected allocation is what the control QP's tracking
    rows state, deliver - the head's split; it is zero at theta = 0, where
    nothing is tracked and the period settles alone.  plan is the control
    solve's restart point (x, y, zl, zu), its first iterate whose relative
    residuals and gap sum to at most 1e-2 (`SolveReport.restart`), so a
    point the solve moved near its rows, which the next step starts from
    (its bound multipliers shifted toward the central path, `solve_qp`);
    None when the solve kept none.  cold_retry says whether the step's
    warm-started solve failed and the QP was solved once more cold.
    """

    charge: float
    discharge: float
    withheld: float
    served: float
    level: np.ndarray
    plan: tuple | None = None
    cold_retry: bool = False


def _tree(vec, fields, per, tail, scenarios):
    """Writable views of a control-QP vector by the scenario tree's layout.

    Period by period: the tracking part, then the head, lifted to a
    one-period branch, then one block per tail period across all
    scenarios.  A period's block holds `fields` fields of one entry per
    scenario, field by field, then `per` entries per scenario, scenario by
    scenario; the head's is that block of one scenario.  The tracking part
    is what comes before the head: the n tracking variables or rows at
    theta > 0, nothing at theta = 0.  Variables: charge, discharge, SoC
    and export, then the served block, which is the split at theta > 0 (n
    entries per scenario, consumer i's in [0, load_i]) and one aggregate
    entry in [0, sum of loads] at theta = 0.  Rows: SoC recursion and
    balance, no block.  So a window with a shorter tail is the leading
    part of a longer one, and moving a plan one period is moving whole
    period blocks.  Returns the head's fields and block, the tails' fields
    (scenarios, fields, tail) and blocks (scenarios, tail, per), and the
    tracking part.
    """
    width = fields + per
    lead = vec.shape[0] - width * (1 + scenarios * tail)
    periods = vec[lead + width:].reshape(tail, width * scenarios)
    return (vec[lead:lead + fields], vec[lead + fields:lead + width],
            periods[:, :fields * scenarios].reshape(
                tail, fields, scenarios).transpose(2, 1, 0),
            periods[:, fields * scenarios:].reshape(
                tail, scenarios, per).transpose(1, 0, 2), vec[:lead])


@lru_cache(maxsize=8)
def _control_pattern(n, tail, probabilities, eta, tracked):
    """The constraint matrix of the horizon's full control window.

    The shape is all that enters the matrix: n, the tail length, the
    scenario probabilities (a tuple), the one-way efficiency eta and
    whether theta > 0 (tracked).  Variables and rows are laid out as
    `_tree` reads them: when tracked, one tracking row per consumer comes
    first; each branch of the scenario tree has its SoC recursion
    (`storage.recursion_rows`, a tail's from the head's SoC variable) and
    its balance rows on served energy, with no import variable, built
    branch by branch and put in the layout's order by one permutation.
    Only the full window is kept; a shorter one, as at the end of a run,
    is its leading block, cut at its step (`_control_qp`).  Returns the
    window's matrix, read-only as every program's is, so each step's QP
    takes it without a copy; it holds its analysis (`numerics._analyse`),
    made at the first step's solve (or first cut) and shared by every
    later one, and by every later run's, while the pattern is kept.
    """
    per, w = n if tracked else 1, len(probabilities) if tail else 0
    pb = ProblemBuilder()
    head, served, tails, blocks, deliver = _tree(
        pb.add_vars(n * tracked + (4 + per) * (1 + w * tail)), 4, per, tail,
        w)
    if tracked:
        # deliver_i is consumer i's expected window allocation
        pb.add_rows(np.column_stack(
            [deliver, served, blocks.transpose(2, 0, 1).reshape(n, -1)]),
            np.concatenate([[1.0, -1.0], np.repeat(-np.array(probabilities),
                                                   tail)]), 0.0)
    for (c, d, soc, gs), block, before in [
            (head[:, None], served[None, :], None),
            *((fields, cols, head[2]) for fields, cols in zip(tails, blocks))]:
        pb.add_rows(np.column_stack([block, gs, c, d]),
                    np.append(np.ones(per + 2), -1.0), 0.0)
        recursion_rows(pb, eta, c, d, soc, before=before)
    # where each row built goes in the layout: the tracking rows, then each
    # branch's balance rows and its recursion rows
    head, _, tails, _, track = _tree(
        np.arange(n * tracked + 2 * (1 + w * tail)), 2, 0, tail, w)
    built = np.concatenate([track, head[::-1],
                            *(rows[::-1].ravel() for rows in tails)])
    a = pb.qp().a[np.argsort(built)]
    for part in (a.data, a.indices, a.indptr):
        part.setflags(write=False)
    return a


def _control_qp(state, window, spec, config, beta_es_use):
    """The control QP of `mpc_step`.

    The one fill of the horizon's kept matrix (`_control_pattern`), or of
    a shorter window's, its leading block (`numerics.restrict`, which
    truncates the full window's analysis with it: a tail period's rows and
    variables reach only the periods before them, the head and the
    tracking part), whose shape gives every vector's length.  Written through `_tree`'s views:
    the head and, at their probabilities, the W tails cost their
    variables and bound them by the battery's caps and their loads, and
    set their balance rows to their generation; the head's recursion
    starts from the state's SoC, and theta prices the tracking variables.
    Served energy costs minus the grid price: the grid bill, price x
    (load - served), less the constant price x load, so the objective
    omits sum over branch periods of probability x price x load.  At
    theta = 0 the QP is the dispatch program.  Returns a new QP on that
    read-only matrix, whose vectors are its own.
    """
    n = window.head_loads.shape[0]
    theta = config.theta
    tracked = theta > 0.0
    prob = window.probabilities[:, None]
    per, tail, w = n if tracked else 1, window.tail_periods, len(prob)
    longest = config.prediction_periods - 1
    a = _control_pattern(n, longest, tuple(window.probabilities.tolist()),
                         spec.efficiency, tracked)
    if tail < longest:
        lead = n * tracked
        a = restrict(a, lead + 2 * (1 + w * tail),
                     lead + (4 + per) * (1 + w * tail))
    cap_p = spec.power_cap_kw * window.delta_hours
    cap_e = spec.energy_cap_kwh
    export_net = window.export_tax - window.export_price

    cost, qdiag, lb = (np.zeros(a.shape[1]) for _ in range(3))
    ub = np.full(a.shape[1], np.inf)
    rhs = np.zeros(a.shape[0])
    cost_head, cost_served, cost_tails, cost_serveds, cost_track = _tree(
        cost, 4, per, tail, w)
    ub_head, ub_served, ub_tails, ub_serveds, _ = _tree(ub, 4, per, tail, w)
    rhs_head, _, rhs_tails, _, _ = _tree(rhs, 2, 0, tail, w)
    # charge, discharge, SoC and export, then the served block
    cost_head[:] = beta_es_use, beta_es_use, 0.0, export_net[0]
    cost_served[:] = -window.grid_price[0]
    cost_tails[:, 0] = cost_tails[:, 1] = prob * beta_es_use
    cost_tails[:, 3] = prob * export_net[1:]
    cost_serveds[:] = (-prob * window.grid_price[1:])[:, :, None]
    ub_head[:3] = cap_p, cap_p, cap_e
    ub_tails[:, :3] = np.array([[cap_p], [cap_p], [cap_e]])
    # each consumer's load, or the aggregate load at theta = 0
    ub_served[:], ub_serveds[:] = (
        (window.head_loads, window.tail_loads) if tracked else
        (window.head_loads.sum(), window.tail_loads.sum(axis=1)[:, None]))
    # SoC recursion (the head's from the state's SoC), balance
    rhs_head[:] = min(state.soc_kwh, cap_e), window.head_gen
    rhs_tails[:, 1] = window.tail_gen.T
    if tracked:
        # tracking distance: minimize theta * sum_i (deliver_i + rhs_i)^2.
        # Written with the offset in the linear term so every variable
        # stays at kWh scale; carrying rhs (cumulative promise gap, often
        # hundreds of kWh) inside a variable stalls the solve short of
        # tight tolerances.
        _tree(lb, 4, per, tail, w)[-1][:] = -np.inf
        _tree(qdiag, 4, per, tail, w)[-1][:] = 2.0 * theta
        cost_track[:] = 2.0 * theta * (state.e_past + state.e_future
                                       - state.promise)
    return ConvexQuadraticProgram(cost, qdiag, a, rhs, lb, ub)


def _shifted_start(previous, window, tracked):
    """The previous step's restart point, shifted one period, over this
    step's QP.

    previous is that step's `ControlDecision.plan`, a point (x, y, zl, zu)
    whose tail length, and so this step's sizes, follow from its length.
    In `_tree`'s layout each part moves by whole period blocks, y by the
    row fields: tail period k takes old period k + 1, and a tail as long
    as the old one repeats the old last period; the tracking part carries
    over.  The new head's x is the probability-weighted first period of
    the old tails, and its multipliers are their sum, since each tail's
    costs carry its probability.  Returns None, a cold start, for the
    first step and for a window without a tail.
    """
    tail = window.tail_periods
    if previous is None or not tail:
        return None
    probs = window.probabilities
    track, w = window.head_loads.shape[0] if tracked else 0, len(probs)
    per = track or 1
    old_tail, rest = divmod(previous[0].shape[0] - 4 - per - track,
                            (4 + per) * w)
    old_rows = 2 * (1 + w * old_tail) + track
    if rest or old_tail < 1 or previous[1].shape[0] != old_rows:
        raise DomainError("the previous plan does not fit the window")
    moved = min(tail, old_tail - 1)  # the periods that take a later one

    def shift(old, fields, per, weights):
        block = (fields + per) * w
        start = old.shape[0] - block * old_tail  # the tails' first period
        new = np.empty(start + block * tail)
        new[:start] = old[:start]
        new[start:start + block * moved] = old[start + block:
                                               start + block * (moved + 1)]
        new[start + block * moved:].reshape(-1, block)[:] = old[-block:]
        # the new head is the old tails' first periods (the plan cut to one
        # period) at these weights, summed in scenario order from 0.0 as a
        # running sum: a reduction could sum pairwise
        _, _, tails, blocks, _ = _tree(old, fields, per, old_tail, w)
        firsts = np.hstack([tails[:, :, 0], blocks[:, 0]])
        terms = np.vstack([np.zeros(fields + per), weights[:, None] * firsts])
        new[start - fields - per:start] = np.add.accumulate(terms)[-1]
        return new

    x, y, zl, zu = previous
    ones = np.ones(w)
    return (shift(x, 4, per, probs), shift(y, 2, 0, ones),
            shift(zl, 4, per, ones), shift(zu, 4, per, ones))


def mpc_step(state, window, spec, config, beta_es_use=0.0, previous=None):
    """Solve one receding-horizon control problem.

    Minimizes expected grid cost plus storage wear minus export revenue over
    the window, plus theta times the squared expected mismatch, subject to
    the energy balance on served energy and the storage envelope continuing
    from the state SoC (each tail scenario branching off the shared head);
    when theta > 0 the served energy is split by consumer, each within its
    load.  Returns the head period and the level it settles from,
    read through `_tree`'s views of the solution, and the solve's restart
    point as the plan; the objective is stated once, in `_control_qp`.

    previous is the preceding step's `ControlDecision.plan`, or None.  The
    solve restarts from that primal-dual point shifted one period
    (`_shifted_start`), the rolling horizon's warm start, and starts cold
    on the first step and on a window without a tail.  A warm-started
    solve that ends other than optimal is solved once more cold; an
    `OperationError` says how each solve started and ended.
    """
    n = window.head_loads.shape[0]
    if state.num_consumers != n:
        raise DomainError("state and window consumer counts disagree")
    if 1 + window.tail_periods > config.prediction_periods:
        raise DomainError("window is longer than the prediction horizon")

    cap_p = spec.power_cap_kw * window.delta_hours
    tracked = config.theta > 0.0
    qp = _control_qp(state, window, spec, config, beta_es_use)
    start = _shifted_start(previous, window, tracked)

    # control accuracy: 1e-6 on kWh-scale decisions is micro-Wh
    rep = solve_qp(qp, tol=1e-6, start=start)
    tried = []
    if rep.status != "optimal" and start is not None:
        # a warm point can block (Gondzio & Grothey, SIAM J. Optim. 2008):
        # the same QP is solved once more, from the cold start
        tried, rep = [("warm", rep)], solve_qp(qp, tol=1e-6)
    if rep.status != "optimal":
        raise OperationError("control solve " + ", then ".join(
            f"started {how} ended {r.status} after {r.iterations} iterations"
            for how, r in tried + [("cold", rep)]))

    # keep the solver's served energy and export: simultaneous buy and sell
    # is a deliberate instrument here (it withholds production from the
    # local allocation when consumers are ahead of the promise), so
    # re-deriving the flows from a complementary split would change the plan
    (c, d, _, gs), served, _, _, deliver = _tree(
        rep.x, 4, n if tracked else 1, window.tail_periods,
        window.probabilities.shape[0])
    agg = window.head_loads.sum()
    grid_import = np.clip(agg - served.sum(), 0.0, agg)
    # the tracking rows state deliver_i = served_i + sum_s p_s sum_t
    # served_{s,t,i}: the tail's expected allocation is deliver - served
    level = (state.e_past + (deliver - served) + state.e_future
             - state.promise) if tracked else np.zeros(n)
    return ControlDecision(
        charge=np.clip(c, 0.0, cap_p), discharge=np.clip(d, 0.0, cap_p),
        withheld=np.minimum(grid_import, np.maximum(gs, 0.0)),
        served=agg - grid_import, level=level, plan=rep.restart,
        cold_retry=bool(tried))


def settle(served, realized_loads, level):
    """Split one metered period's served energy into a key row.

    Minimizes sum_i (level_i + g_i)^2 over the splits g of [served]+ kWh
    with 0 <= g_i <= realized_loads_i, in closed form by water-filling
    (`allocation._water_fill`), then makes the row sum exact.  level is a
    `ControlDecision.level`, or zero for the greedy rule, and
    realized_loads one finite, nonnegative row of its length.  Returns the
    row.
    """
    served, errors = number_array(served, "served", 0)
    level, more = number_array(level, "level", 1)
    errors += more
    loads, more = number_array(realized_loads, "realized_loads", 1, 0.0)
    errors += more
    if not errors and loads.shape != level.shape:
        errors.append("realized_loads must be one row of the level's length")
    if errors:
        raise DomainError(errors)
    served = float(served)
    raw = _water_fill(level, loads,
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
    cold_retries counts the control steps whose warm-started solve failed
    and was solved once more cold (`ControlDecision.cold_retry`); the
    greedy rule solves nothing and has 0.
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
    cold_retries: int

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
    cold_retries = 0
    # a window never reaches past the run, so no longer one is laid out
    config = replace(config, prediction_periods=min(config.prediction_periods,
                                                    t_total))
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
            try:
                ctrl = mpc_step(state, window, spec, config,
                                beta_es_use=bundle.params.beta_es_use,
                                previous=previous)
            except OperationError as exc:
                raise OperationError(f"period {t}: {exc}") from exc
            c_plan, d_plan = ctrl.charge, ctrl.discharge
            withheld, level, previous = ctrl.withheld, ctrl.level, ctrl.plan
            cold_retries += ctrl.cold_retry

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
        + utilization + maintenance - bill.export_revenue,
        cold_retries=cold_retries)
