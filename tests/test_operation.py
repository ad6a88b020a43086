"""Receding-horizon control, settlement and the year simulation."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as hst
from hypothesis.extra import numpy as hnp

from pvpool import allocation, numerics, operation
from pvpool.allocation import (AllocationError, _repair_rows,
                               min_variance_key)
from pvpool.domain import (DomainError, InputBundle, InverterCatalog,
                           LoadMatrix, RealizedTrajectory, RepartitionKey,
                           SolarScenarioSet, SubsidyRule, Tariff,
                           TechEconParams, TimeGrid, check_key)
from pvpool.numerics import solve_qp
from pvpool.operation import (ALGORITHMS, ControlDecision, HorizonConfig,
                              HorizonWindow, OperationError, OperationState,
                              _control_qp, _shifted_start, mpc_step,
                              run_year, settle)
from pvpool.sizing import (dispatch_costs, pv_production, solve_sizing,
                           split_flows)
from pvpool.storage import StorageSpec, check_feasible, realize

from oracles import (assert_same_qp, control_qp_by_rows,
                     control_qp_import_form, greedy_year_by_rule_loop,
                     qp_active_set_minimum, settle_qp_by_rows)
from test_allocation import _oracle_variance, capture_qps

_ETA = math.sqrt(0.9)  # the one-way efficiency of a 90% round trip


def _state(soc=0.0, e_past=(0.0, 0.0), promise=(1.0, 1.0),
           e_future=(0.0, 0.0)):
    return OperationState(soc, np.asarray(e_past, float),
                          np.asarray(promise, float),
                          np.asarray(e_future, float))


def _window(head_loads, head_gen, tail_loads=None, tail_gen=None,
            probs=(1.0,), price=0.13, lam=0.05, tax=0.0, delta=0.5):
    head_loads = np.asarray(head_loads, float)
    n = head_loads.shape[0]
    if tail_loads is None:
        tail_loads = np.zeros((0, n))
        tail_gen = np.zeros((0, len(probs)))
    tail_loads = np.atleast_2d(np.asarray(tail_loads, float))
    tail_gen = np.asarray(tail_gen, float).reshape(tail_loads.shape[0],
                                                   len(probs))
    t_all = 1 + tail_loads.shape[0]
    return HorizonWindow(delta, head_loads, head_gen,
                         tail_loads, tail_gen, np.asarray(probs, float),
                         np.full(t_all, price), np.full(t_all, lam),
                         np.full(t_all, tax))


def _decision_stub(served, state, tail_expected=0.0):
    """A decision for `state` whose prediction tail is expected to hand out
    tail_expected: its level is the expected end-of-year mismatch per
    consumer before the period, in mpc_step's order."""
    level = state.e_past + np.asarray(tail_expected, float) \
        + state.e_future - state.promise
    return ControlDecision(charge=0.0, discharge=0.0, withheld=0.0,
                           served=float(served), level=level)


def _expected_mismatch(decision, key):
    """Expected end-of-year mismatch per consumer once the period hands
    out the key row and the tail its expectation."""
    return decision.level + key


def _settled_objective(decision, key):
    """Squared expected mismatch after settling the key row: the objective
    that settle minimizes."""
    mismatch = _expected_mismatch(decision, key)
    return float(mismatch @ mismatch)


def _planned_key(decision, state, window, spec, config, beta_es_use=0.0):
    """The head's split as the control QP plans it (theta > 0), repaired to
    the decision's served energy: the key row the QP would hand out."""
    qp = _control_qp(state, window, spec, config, beta_es_use)
    rep = solve_qp(qp, tol=1e-6)
    assert rep.status == "optimal"
    split = control_qp_by_rows(state, window, spec, config,
                               beta_es_use)[1][0][4]
    return _repair_rows(rep.x[split][None, :], np.array([decision.served]),
                        window.head_loads[None, :])[0]


# ---------------------------------------------------------------------------
# configuration and state validation

def test_horizon_config_validation():
    cfg = HorizonConfig()
    assert (cfg.prediction_periods, cfg.theta) == (48, 1.0)
    # control_periods is an init-only argument: accepted as 1, not stored
    assert "control_periods" not in [f.name for f in fields(cfg)]
    assert "control_periods" not in vars(cfg)
    assert HorizonConfig(control_periods=1, prediction_periods=4) == \
        HorizonConfig(prediction_periods=4)
    with pytest.raises(DomainError):
        HorizonConfig(0, 4)
    # one period per control step: longer heads are refused
    with pytest.raises(DomainError, match="control_periods"):
        HorizonConfig(2, 4)
    with pytest.raises(DomainError, match="control_periods"):
        HorizonConfig(1.5, 4)
    with pytest.raises(DomainError):
        HorizonConfig(5, 4)
    with pytest.raises(DomainError):
        HorizonConfig(1, 4, theta=-0.1)


def test_operation_state_validation():
    with pytest.raises(DomainError):
        OperationState(1.0, np.array([-1.0]), np.array([1.0]),
                       np.array([0.0]))
    with pytest.raises(DomainError):
        OperationState(1.0, np.zeros(2), np.zeros(3), np.zeros(2))
    st = OperationState(2.0, np.array([0.0, -1e-12]), np.zeros(2),
                        np.zeros(2))
    assert st.e_past.min() >= 0.0
    assert st.num_consumers == 2
    # the state of charge is a number: a string once raised a raw
    # TypeError, and True was taken as 1 kWh
    for soc in ("2.0", True, np.nan, -1.0):
        with pytest.raises(DomainError, match="soc_kwh"):
            OperationState(soc, np.zeros(2), np.zeros(2), np.zeros(2))
    assert OperationState(np.float64(2.0), np.zeros(2), np.zeros(2),
                          np.zeros(2)).soc_kwh == 2.0


@pytest.mark.parametrize("delta", ["0.5", True, np.nan, 0.0])
def test_horizon_window_refuses_a_period_length_that_is_no_number(delta):
    # a string once raised a raw TypeError, and True was taken as 1 hour
    with pytest.raises(DomainError, match="delta_hours"):
        _window([1.0, 2.0], 0.5, delta=delta)


def test_horizon_window_head_is_one_period():
    win = _window([1.0, 2.0], 0.5)
    assert win.head_loads.shape == (2,) and win.head_gen == 0.5
    with pytest.raises(DomainError, match="one period"):
        _window([[1.0, 2.0]], 0.5)
    with pytest.raises(DomainError, match="one period"):
        _window([1.0, 2.0], [0.5])


def test_horizon_window_refuses_a_ragged_head():
    # NumPy once raised its own ValueError ("inhomogeneous shape") on a
    # ragged head, before any number check
    tail, gen = np.zeros((0, 2)), np.zeros((0, 1))
    prices = (np.full(1, 0.13), np.full(1, 0.05), np.zeros(1))
    with pytest.raises(DomainError, match="head_loads"):
        HorizonWindow(0.5, [[1.0], [1.0, 2.0]], 0.5, tail, gen, [1.0],
                      *prices)
    with pytest.raises(DomainError, match="head_gen"):
        HorizonWindow(0.5, [1.0, 2.0], [[0.5], [0.5, 0.5]], tail, gen,
                      [1.0], *prices)


@pytest.mark.parametrize("probs", [(1.5, -0.5), (np.nan, 1.0),
                                   (np.inf, 0.0)])
def test_horizon_window_refuses_bad_probabilities(probs):
    # a NaN passes the sum check (abs(nan) > 1e-6 is False) and a negative
    # probability can sum to 1; both are refused as domain errors.  The
    # probabilities enter the control QP's matrix
    with pytest.raises(DomainError, match="finite and nonnegative"):
        _window([1.0, 2.0], 0.5, [[1.0, 1.0]], [[0.5] * len(probs)],
                probs=probs)


def test_horizon_window_refuses_no_scenario_and_a_loose_sum():
    # a tail without a scenario would drop out of the control QP, and the
    # probabilities sum to 1 within 1e-9, as a solar scenario set's do
    loads, tail = [1.0, 2.0], np.ones((3, 2))
    with pytest.raises(DomainError, match="nonempty"):
        HorizonWindow(0.5, loads, 0.5, tail, np.zeros((3, 0)), [],
                      np.full(4, 0.1), np.full(4, 0.05), np.zeros(4))
    with pytest.raises(DomainError, match="probabilities sum"):
        _window(loads, 0.5, tail, np.ones((3, 2)), probs=(0.5, 0.5 + 1e-7))


def test_horizon_window_refuses_tail_generation_without_tail_loads():
    # no tail loads is no tail, which has no generation: NumPy once raised
    # its own ValueError reshaping 3 periods of it to (0, 1)
    with pytest.raises(DomainError, match="tail_gen"):
        HorizonWindow(0.5, [1.0, 2.0], 0.5, np.zeros((0, 2)), np.ones((3, 1)),
                      [1.0], [0.13], [0.05], [0.0])


def test_horizon_window_counts_a_tail_of_no_consumers():
    # a tail's periods are its load rows: 3 rows of no consumers are a
    # 3-period tail whose consumer count is not the head's, once read as no
    # tail at all, which dropped the 3 periods
    with pytest.raises(DomainError, match="tail_loads consumer count"):
        HorizonWindow(0.5, np.ones(2), 1.0, np.zeros((3, 0)),
                      np.zeros((0, 1)), np.ones(1), np.ones(1), np.ones(1),
                      np.ones(1))
    with pytest.raises(DomainError, match="^tail_loads consumer count must"
                       " match the head$"):
        HorizonWindow(0.5, np.ones(2), 1.0, np.zeros((3, 0)),
                      np.ones((3, 1)), np.ones(1), *(np.ones(4),) * 3)


def test_horizon_window_without_tail_takes_empty_lists():
    # a head-only window may give its tail as empty lists: it keeps (0, n)
    # loads and (0, scenarios) generation, and steps as the array form does
    win = HorizonWindow(0.5, [1.0, 2.0], 0.5, [], [], [1.0], [0.13], [0.05],
                        [0.0])
    assert (win.tail_loads.shape, win.tail_gen.shape) == ((0, 2), (0, 1))
    spec = StorageSpec(1.0, 2.0, _ETA, cyclic=False)
    for theta in (0.0, 1.0):
        cfg = HorizonConfig(1, 4, theta=theta)
        got = mpc_step(_state(soc=1.0), win, spec, cfg)
        want = mpc_step(_state(soc=1.0), _window([1.0, 2.0], 0.5), spec, cfg)
        assert (got.charge, got.discharge, got.withheld, got.served) == \
            (want.charge, want.discharge, want.withheld, want.served)
        assert got.level.tolist() == want.level.tolist()


def test_horizon_window_accepts_a_zero_probability():
    win = _window([1.0, 2.0], 0.5, [[1.0, 1.0]], [[0.5, 0.7]],
                  probs=(0.0, 1.0))
    assert win.probabilities.tolist() == [0.0, 1.0]


# ---------------------------------------------------------------------------
# single control steps

def test_mpc_single_period_surplus_no_battery():
    # T_c = T_p = 1, aggregate load 4, solar 10, consumers still far from
    # their promise: everything is served locally and the rest exported
    spec = StorageSpec(0.0, 0.0, _ETA, cyclic=False)
    win = _window([2.5, 1.5], 10.0)
    st, cfg = _state(promise=(4.0, 4.0)), HorizonConfig(1, 1, theta=1.0)
    dec = mpc_step(st, win, spec, cfg)
    assert dec.served == pytest.approx(4.0, abs=2e-6)
    # the head's balance gives its export: gen - served - charge + discharge
    assert win.head_gen - dec.served - dec.charge + dec.discharge == \
        pytest.approx(6.0, abs=2e-6)
    assert dec.withheld == pytest.approx(0.0, abs=2e-6)
    key = _planned_key(dec, st, win, spec, cfg)
    assert key.sum() == pytest.approx(4.0, abs=2e-6)
    assert not check_key(RepartitionKey(key), win.head_loads[None, :],
                         [dec.served], tol=1e-6)


def test_mpc_withholds_production_when_ahead_of_promise():
    # consumers already over their promise: the controller buys and sells
    # simultaneously to keep the local allocation small, paying the spread
    spec = StorageSpec(0.0, 0.0, _ETA, cyclic=False)
    win = _window([2.5, 1.5], 10.0)
    st = _state(e_past=(6.0, 6.0), promise=(2.0, 2.0))
    cfg = HorizonConfig(1, 1, theta=1.0)
    dec = mpc_step(st, win, spec, cfg)
    assert dec.served < 0.1
    assert dec.withheld > 3.8      # imports while exporting
    assert win.head_gen - dec.served - dec.charge + dec.discharge > 9.0
    mismatch = _expected_mismatch(dec, _planned_key(dec, st, win, spec, cfg))
    assert np.abs(mismatch).max() < 4.1  # vs 4.5 if forced to serve all


def test_mpc_theta_zero_single_consumer_is_cost_only():
    # with theta = 0 the plan cannot cost more than refusing to move the
    # battery at all, and the period settles alone
    rng = np.random.default_rng(5)
    t_all = 6
    loads = rng.uniform(0.5, 2.0, (t_all, 1))
    gen = np.concatenate([[0.3], rng.uniform(0.0, 1.5, t_all - 1)])
    spec = StorageSpec(2.0, 4.0, 0.95, cyclic=False)
    win = _window(loads[0], gen[0], loads[1:], gen[1:, None], (1.0,))
    st = OperationState(spec.initial_soc_kwh, [0.0], [5.0], [0.0])
    cfg = HorizonConfig(1, t_all, theta=0.0)
    dec = mpc_step(st, win, spec, cfg, beta_es_use=0.0001)
    assert dec.level.tobytes() == np.zeros(1).tobytes()
    # the control QP's value is its dispatch cost: no tracking term
    qp = _control_qp(st, win, spec, cfg, 0.0001)
    assert not qp.q_diag.any()
    rep = solve_qp(qp, tol=1e-6)
    assert rep.status == "optimal"
    gi0, sp0, _ = split_flows(loads[:1].sum(1), np.zeros(1), np.zeros(1),
                              gen[:1])
    idle_cost = float(0.13 * gi0.sum() - 0.05 * sp0.sum())
    gi1, sp1, _ = split_flows(loads[1:].sum(1), np.zeros(t_all - 1),
                              np.zeros(t_all - 1), gen[1:])
    idle_cost += float(0.13 * gi1.sum() - 0.05 * sp1.sum())
    assert rep.objective <= idle_cost + 1e-8


def test_mpc_key_favors_lagging_consumer():
    # equal loads, half the energy served locally; the consumer behind on
    # allocations should receive the full served energy
    spec = StorageSpec(0.0, 0.0, _ETA, cyclic=False)
    win = _window([1.0, 1.0], 1.0)
    st = _state(e_past=(1.0, 0.0), promise=(1.0, 1.0))
    cfg = HorizonConfig(1, 1, theta=1.0)
    dec = mpc_step(st, win, spec, cfg)
    assert dec.served == pytest.approx(1.0, abs=2e-6)
    # the minimizer sits exactly on the bound with a vanishing multiplier,
    # so componentwise accuracy is sqrt of the solver tolerance
    assert _planned_key(dec, st, win, spec, cfg) == \
        pytest.approx([0.0, 1.0], abs=2e-3)


def test_mpc_respects_storage_envelope():
    rng = np.random.default_rng(17)
    spec = StorageSpec(3.0, 6.0, 0.93, cyclic=False)
    loads = rng.uniform(0.2, 2.5, (10, 3))
    gen = np.clip(rng.uniform(-0.5, 3.0, 10), 0.0, None)
    win = _window(loads[0], gen[0], loads[1:],
                  np.column_stack([gen[1:], 0.5 * gen[1:]]), (0.7, 0.3))
    st = OperationState(spec.initial_soc_kwh, np.zeros(3),
                        5.0 * np.ones(3), np.ones(3))
    cfg = HorizonConfig(1, 10, theta=1.0)
    dec = mpc_step(st, win, spec, cfg, beta_es_use=0.0001)
    assert not check_feasible(spec, [dec.charge], [dec.discharge], 0.5,
                              tol=1e-6)
    key = _planned_key(dec, st, win, spec, cfg, 0.0001)
    assert not check_key(RepartitionKey(key), loads[:1], [dec.served])
    # the envelope also holds along each scenario's branch: the head period
    # followed by that scenario's nine tail periods
    qp = _control_qp(st, win, spec, cfg, 0.0001)
    _, [(c, d, *_), *tails], _ = control_qp_by_rows(st, win, spec, cfg,
                                                    0.0001)
    rep = solve_qp(qp, tol=1e-6)
    assert rep.status == "optimal"
    for cw, dw, *_ in tails:
        assert not check_feasible(spec, rep.x[np.concatenate([c, cw])],
                                  rep.x[np.concatenate([d, dw])], 0.5,
                                  tol=1e-6)


def test_mpc_matches_grid_search_oracle():
    # no battery: dispatch is forced, so the only freedom is how the served
    # energy is split now and in each tail scenario; scan that cube
    theta = 2.0
    probs = np.array([0.5, 0.5])
    head_loads = np.array([[1.2, 0.8]])
    head_gen = np.array([0.5])
    tail_loads = np.array([[1.0, 1.0]])
    tail_gen = np.array([[1.5, 0.4]])
    spec = StorageSpec(0.0, 0.0, _ETA, cyclic=False)
    win = _window(head_loads[0], head_gen[0], tail_loads, tail_gen, probs)
    st = OperationState(0.0, [0.3, 0.0], [1.5, 1.0], [0.2, 0.1])
    qp = _control_qp(st, win, spec, HorizonConfig(1, 2, theta=theta), 0.0)
    rep = solve_qp(qp, tol=1e-6)
    assert rep.status == "optimal"
    # the QP carries the tracking offset in its linear term:
    # theta * |deliver + rhs|^2 = objective terms + theta * |rhs|^2, and
    # bills the grid as minus the price on served energy, which leaves out
    # the constant sum of probability x price x load (every scenario shares
    # the tail's loads, so the probabilities sum out)
    rhs = st.e_past + st.e_future - st.promise
    achieved = rep.objective + theta * float(rhs @ rhs) \
        + 0.13 * float(head_loads.sum() + tail_loads.sum())

    _, _, served_h = split_flows(head_loads.sum(1), np.zeros(1), np.zeros(1),
                                 head_gen)
    cost = 0.13 * float(head_loads.sum() - served_h[0])
    served_t = np.zeros(2)
    for widx in range(2):
        gi, sp, sv = split_flows(tail_loads.sum(1), np.zeros(1), np.zeros(1),
                                 tail_gen[:, widx])
        served_t[widx] = sv[0]
        cost += probs[widx] * float(0.13 * gi[0] - 0.05 * sp[0])

    def axis(total, lo_load, hi_load):
        lo = max(0.0, total - hi_load)
        hi = min(lo_load, total)
        return np.linspace(lo, hi, 81)

    e1 = axis(served_h[0], 1.2, 0.8)[:, None, None]
    g1 = axis(served_t[0], 1.0, 1.0)[None, :, None]
    g2 = axis(served_t[1], 1.0, 1.0)[None, None, :]
    m1 = 0.3 + e1 + probs[0] * g1 + probs[1] * g2 + 0.2 - 1.5
    m2 = 0.0 + (served_h[0] - e1) + probs[0] * (served_t[0] - g1) \
        + probs[1] * (served_t[1] - g2) + 0.1 - 1.0
    grid_best = cost + theta * float((m1 ** 2 + m2 ** 2).min())
    assert achieved <= grid_best + 5e-6
    assert abs(achieved - grid_best) < 2e-3


def _row_bytes(qp):
    """The QP's rows in order, each as its (indices, data, sense, rhs)
    bytes with its entries in column order."""
    a = qp.a.tocsr()
    rows = []
    for i in range(a.shape[0]):
        span = slice(a.indptr[i], a.indptr[i + 1])
        order = np.argsort(a.indices[span], kind="stable")
        rows.append((a.indices[span][order].astype(np.int64).tobytes(),
                     a.data[span][order].tobytes(), str(qp.senses[i]),
                     qp.rhs[i:i + 1].tobytes()))
    return rows


def _rows_by_bytes(qp):
    """The QP's rows as a sorted list of their bytes: a byte-for-byte
    comparison that does not depend on the order the rows were added in."""
    return sorted(_row_bytes(qp))


@pytest.mark.parametrize("tc", [1])  # the head: one period per step
@pytest.mark.parametrize("tt", [0, 4])
@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_control_qp_blocks_match_row_loop(tc, tt, theta):
    rng = np.random.default_rng(100 * tc + 10 * tt + int(theta))
    n, probs = 3, np.array([0.6, 0.4])
    spec = StorageSpec(3.0, 6.0, 0.93, cyclic=False)
    loads = rng.uniform(0.2, 2.5, (tc + tt, n))
    win = HorizonWindow(0.5, loads[0], rng.uniform(0.0, 3.0),
                        loads[tc:], rng.uniform(0.0, 3.0, (tt, 2)), probs,
                        rng.uniform(0.1, 0.3, tc + tt),
                        rng.uniform(0.0, 0.1, tc + tt),
                        rng.uniform(0.0, 0.02, tc + tt))
    st = OperationState(2.5, rng.uniform(0.0, 3.0, n),
                        rng.uniform(3.0, 6.0, n), rng.uniform(0.0, 1.0, n))
    cfg = HorizonConfig(tc, tc + tt, theta=theta)
    got = _control_qp(st, win, spec, cfg, 1e-4)
    want = control_qp_by_rows(st, win, spec, cfg, 1e-4)[0]
    for name in ("c", "q_diag", "lb", "ub"):
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(want, name))
    assert got.a.shape == want.a.shape
    assert _rows_by_bytes(got) == _rows_by_bytes(want)


def _rolling_windows(theta):
    """(state, window, spec, config) for every step of an 8-period span at
    a 4-period horizon: full, shrinking and head-only windows, consumer 1
    without load in period 2 (in the tail at steps 0 and 1, the head at
    step 2), SoC at 0, at the cap, between and above it, and at step 5 a
    zero-capacity battery of the same efficiency."""
    rng = np.random.default_rng(23)
    t_len, horizon, n, probs = 8, 4, 3, np.array([0.3, 0.7])
    loads = rng.uniform(0.2, 2.5, (t_len, n))
    loads[2, 1] = 0.0
    gen = rng.uniform(0.0, 3.0, (t_len, 2))
    price, lam = rng.uniform(0.1, 0.3, t_len), rng.uniform(0.0, 0.1, t_len)
    battery = StorageSpec(3.0, 6.0, 0.93, cyclic=False)
    empty = StorageSpec(0.0, 0.0, 0.93, cyclic=False)
    for t in range(t_len):
        end = min(t + horizon, t_len)
        spec = empty if t == 5 else battery
        soc = (0.0, 6.0, 2.5, 7.0)[t % 4]
        state = OperationState(soc, rng.uniform(0.0, 3.0, n),
                               rng.uniform(3.0, 6.0, n),
                               rng.uniform(0.0, 1.0, n))
        window = HorizonWindow(0.5, loads[t], float(gen[t] @ probs),
                               loads[t + 1:end], gen[t + 1:end], probs,
                               price[t:end], lam[t:end], np.zeros(end - t))
        yield state, window, spec, HorizonConfig(1, horizon, theta=theta)


def _block_lists(blocks):
    return [[None if b is None else b.tolist() for b in blk]
            for blk in blocks]


def _layout_blocks(qp, window, theta):
    """The control QP's variable index blocks as `operation._tree` reads
    them over np.arange, in the reference build's order: per branch, head
    first, (charge, discharge, SoC, export, served), and the tracking
    variables, None at theta = 0."""
    n = window.head_loads.shape[0]
    head, served, tails, serveds, track = operation._tree(
        np.arange(qp.c.shape[0]), 4, n if theta else 1, window.tail_periods,
        window.probabilities.shape[0])
    branches = [(head[:, None], served)] + list(
        zip(tails, serveds.reshape(serveds.shape[0], -1))
        if window.tail_periods else [])
    return ([(*fields, part) for fields, part in branches],
            track if theta else None)


@pytest.mark.parametrize("theta", [0.0, 0.6])
def test_layout_views_name_the_reference_blocks(theta):
    # the one layout, read over the variable indices, names exactly the
    # blocks the row-by-row reference build adds, on full, shrinking and
    # head-only windows
    for step in _rolling_windows(theta):
        want, want_deliver = control_qp_by_rows(*step, 1e-4)[1:]
        blocks, deliver = _layout_blocks(_control_qp(*step, 1e-4), step[1],
                                         theta)
        assert _block_lists(blocks) == _block_lists(want)
        assert _block_lists([[deliver]]) == _block_lists([[want_deliver]])


@pytest.mark.parametrize("theta", [0.0, 0.6])
def test_kept_control_pattern_fills_the_fresh_qp(theta):
    # the steps of a rolling span fill one kept pattern per window shape;
    # each QP must be the one a fresh pattern gives, and the row-by-row
    # reference build, array by array and byte for byte
    steps = list(_rolling_windows(theta))
    operation._control_pattern.cache_clear()
    kept = [_control_qp(*step, 1e-4) for step in steps]
    info = operation._control_pattern.cache_info()
    # tails of 3, 2, 1 and 0; the three shorter ones are cut from the
    # kept 3-period pattern, a hit each
    assert (info.misses, info.hits) == (4, 7)
    for step, qp in zip(steps, kept):
        operation._control_pattern.cache_clear()
        fresh = _control_qp(*step, 1e-4)
        assert_same_qp(qp, fresh)
        blocks, deliver = _layout_blocks(qp, step[1], theta)
        fresh_blocks, fresh_deliver = _layout_blocks(fresh, step[1], theta)
        assert _block_lists(blocks) == _block_lists(fresh_blocks)
        assert _block_lists([[deliver]]) == _block_lists([[fresh_deliver]])
        want = control_qp_by_rows(*step, 1e-4)[0]
        for name in ("c", "q_diag", "lb", "ub"):
            assert getattr(qp, name).tobytes() == \
                getattr(want, name).tobytes(), name
        assert qp.a.shape == want.a.shape
        assert _rows_by_bytes(qp) == _rows_by_bytes(want)


def test_control_qp_shares_no_array_with_its_pattern():
    # a caller that writes into a returned QP must not change the next one:
    # its vectors are its own, and its matrix is the pattern's, read-only,
    # so every write to it is refused
    state, window, spec, cfg = next(_rolling_windows(1.0))
    first = _control_qp(state, window, spec, cfg, 1e-4)
    want = _control_qp(state, window, spec, cfg, 1e-4)
    for name in ("c", "q_diag", "lb", "ub", "rhs"):
        getattr(first, name)[:] = 7.0
    first.senses[:] = "<="
    for name in ("data", "indices", "indptr"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(first.a, name)[:] = 0
    again = _control_qp(state, window, spec, cfg, 1e-4)
    assert_same_qp(again, want)


def test_year_builds_one_control_pattern_per_window_shape():
    # 96 periods at a 48-period horizon: 49 steps share the full window's
    # shape, and each of the last 47 has a shorter tail of its own, cut
    # from the full window's kept pattern (one more hit each)
    bundle, result, plan = _year_case(t_len=96, n=15, w=3)
    operation._control_pattern.cache_clear()
    run_year(bundle, plan, result.decision, _realization(bundle, 55),
             HorizonConfig(1, 48))
    info = operation._control_pattern.cache_info()
    assert (info.misses, info.hits) == (48, 48 + 47)


def _counting(monkeypatch):
    """Shapes of the matrices whose normal product map is built, and a
    count of reverse Cuthill-McKee orderings, as the solves run."""
    built, orderings = [], []
    product_map = numerics._normal_product_map
    rcm = numerics.reverse_cuthill_mckee

    def counted_map(at, m):
        built.append(at.shape[::-1])
        return product_map(at, m)

    def counted_rcm(*args, **kwargs):
        orderings.append(1)
        return rcm(*args, **kwargs)

    monkeypatch.setattr(numerics, "_normal_product_map", counted_map)
    monkeypatch.setattr(numerics, "reverse_cuthill_mckee", counted_rcm)
    return built, orderings


def test_year_analyses_its_control_qp_once(monkeypatch):
    # 96 periods at a 48-period horizon with a battery: the full window's
    # control QP is analysed once, and each of the last 47 windows cuts its
    # analysis from that one, so the run builds one normal product map and
    # one band ordering (a fresh analysis per window shape made 48 of each)
    bundle, result, plan = _year_case(t_len=96, n=15, w=3)
    decision = replace(result.decision, es_power_kw=6.0, es_energy_kwh=12.0,
                       es_inverter_index=1, es_inverter_capacity_kw=6.0,
                       es_inverter_cost=1.1)
    operation._control_pattern.cache_clear()  # a new pattern, unanalysed
    built, orderings = _counting(monkeypatch)
    run_year(bundle, plan, decision, _realization(bundle, 55),
             HorizonConfig(1, 48))
    assert len(built) == len(orderings) == 1


def _end_windows(w, theta, n=2, horizon=48):
    """(state, window, spec, config) of the windows of a 48-period horizon
    with tails of 47 (the full window) down to 0, over w equally likely
    solar scenarios; every load, forecast and capacity is positive, so
    presolve pins nothing and each solve's matrix is its QP's."""
    rng = np.random.default_rng(29)
    probs = np.full(w, 1.0 / w)
    loads = rng.uniform(0.2, 2.5, (horizon, n))
    gen = rng.uniform(0.1, 3.0, (horizon, w))
    price, lam = rng.uniform(0.1, 0.3, horizon), rng.uniform(0.0, 0.1, horizon)
    spec = StorageSpec(3.0, 6.0, 0.93, cyclic=False)
    config = HorizonConfig(1, horizon, theta=theta)
    for t in range(horizon):
        state = OperationState(2.5, rng.uniform(0.0, 3.0, n),
                               rng.uniform(3.0, 6.0, n),
                               rng.uniform(0.0, 1.0, n))
        window = HorizonWindow(0.5, loads[t], float(gen[t] @ probs),
                               loads[t + 1:], gen[t + 1:], probs,
                               price[t:], lam[t:], np.zeros(horizon - t))
        yield state, window, spec, config


@pytest.mark.parametrize("w", [2, 4, 10, 20])
@pytest.mark.parametrize("theta", [0.0, 0.6])
def test_cut_windows_solve_as_their_fresh_analyses_do(w, theta, monkeypatch):
    # every end-of-run window, tails 46 to 0, is cut from the full
    # window's analysis: its solve is optimal, its objective that of the
    # same QP analysed afresh, and its band no wider than the full one's.
    # Only the head-only window, whose head SoC is on one row, is analysed
    # afresh, and only where the full window splits that column out (from
    # 4 scenarios on, W + 1 > 4 rows)
    steps = list(_end_windows(w, theta))
    full = numerics._analyse(_control_qp(*steps[0], 1e-4).a)
    kd = full.normal()[0].kd
    built, _ = _counting(monkeypatch)
    for step in steps[1:]:
        qp = _control_qp(*step, 1e-4)
        before = len(built)
        rep = solve_qp(qp, tol=1e-6)
        assert rep.status == "optimal"
        head_only = step[1].tail_periods == 0
        assert len(built) - before == (head_only and w >= 4)
        assert numerics._analyse(qp.a).normal()[0].kd <= kd
        fresh = solve_qp(replace(qp, a=sp.csr_matrix(qp.a)), tol=1e-6)
        assert len(built) - before == 1 + (head_only and w >= 4)
        assert abs(rep.objective - fresh.objective) \
            <= 1e-6 * (1.0 + abs(fresh.objective))


def _report_bytes(rep):
    return (rep.status, rep.x.tobytes(), rep.objective, rep.primal_residual,
            rep.dual_residual, rep.duality_gap, rep.complementarity,
            rep.iterations, rep.y.tobytes(), rep.zl.tobytes(),
            rep.zu.tobytes(), *(part.tobytes() for part in rep.restart))


def test_a_cut_solve_repeats_whatever_analyses_are_kept(monkeypatch):
    # a cut window's solve reports the same bytes with nothing analysed
    # before it, with its own analysis on its matrix, and on the cut made
    # again from a pattern built afresh, whose full window was analysed
    # first.  Each cut's analysis is cut from its parent's, never built
    # afresh
    step = list(_end_windows(4, 0.6))[27]  # a 20-period tail, cut from 47
    built, _ = _counting(monkeypatch)
    operation._control_pattern.cache_clear()
    qp = _control_qp(*step, 1e-4)
    reports = [solve_qp(qp, tol=1e-6)]
    operation._control_pattern.cache_clear()
    full = _control_qp(*next(_end_windows(4, 0.6)), 1e-4)
    assert solve_qp(full, tol=1e-6).status == "optimal"
    again = _control_qp(*step, 1e-4)
    assert again.a is not qp.a
    reports += [solve_qp(again, tol=1e-6), solve_qp(again, tol=1e-6)]
    assert reports[0].status == "optimal"
    assert len({_report_bytes(rep) for rep in reports}) == 1
    assert qp.a.shape not in built
    assert numerics._analyse(again.a)._cut[0] is full.a
    assert numerics._analyse(qp.a)._cut[0] is not full.a


def test_a_changed_cut_matrix_is_analysed_afresh():
    # a cut matrix is read-only, and a copy of it carries no analysis: a
    # QP on a writable copy that a caller rewrote takes it as a plain
    # read-only copy, whose analysis is its own, and solves as the same QP
    # on a plain matrix
    cut = _control_qp(*list(_end_windows(2, 0.6))[10], 1e-4)
    assert not numerics._analyse(cut.a.copy())._cut
    changed = cut.a.copy()
    changed.data[0] *= 1.5
    qp = replace(cut, a=changed)
    assert qp.a is not changed and not qp.a.data.flags.writeable
    assert not numerics._analyse(qp.a)._cut
    plain = solve_qp(replace(qp, a=sp.csr_matrix(qp.a)), tol=1e-6)
    assert _report_bytes(solve_qp(qp, tol=1e-6)) == _report_bytes(plain)


def test_period_maps_are_kept_read_only():
    # each step's shift reads the same kept maps; none can be written
    first = operation._period_map(51, 5, 2, 3, 3, 2, 1)
    assert operation._period_map(51, 5, 2, 3, 3, 2, 1) is first
    with pytest.raises(ValueError):
        first[0] = 1


def _shift_by_loop(x, old_blocks, old_track, blocks, track, weights):
    """One part of the shifted start, one entry at a time: period k of each
    new tail takes period min(k + 1, last) of the old one, the head the old
    tails' first periods at `weights`, and the tracking entries their old
    values.  A block holds one entry per period (n for a split)."""
    want = {}
    head = blocks[0]
    old_tail, tail = len(old_blocks[1][0]), len(blocks[1][0])
    for f, block in enumerate(head):
        if block is None:
            continue
        width = len(block)
        for new, old in zip(blocks[1:], old_blocks[1:]):
            for k in range(tail):
                src = min(k + 1, old_tail - 1)
                for j in range(width):
                    want[new[f][k * width + j]] = x[old[f][src * width + j]]
        for j in range(width):
            want[block[j]] = sum(weight * x[old[f][j]] for weight, old
                                 in zip(weights, old_blocks[1:]))
    if track is not None:
        for j in range(len(track)):
            want[track[j]] = x[old_track[j]]
    return want


def _code_rows(qp, row_blocks, track_rows, reference):
    """The reference build's row blocks as indices of qp's rows, matched
    row by row by their bytes (every row of the control QP is distinct)."""
    position = {row: i for i, row in enumerate(_row_bytes(qp))}
    code = np.array([position[row] for row in _row_bytes(reference)])
    return ([tuple(None if r is None else code[r] for r in block)
             for block in row_blocks],
            None if track_rows is None else code[track_rows])


@pytest.mark.parametrize("theta", [0.0, 0.6])
def test_shifted_start_moves_the_plan_one_period(theta):
    # an 8-period span at a 4-period horizon: steps 0 to 4 have a full
    # 3-period tail, step 5 a tail one period shorter, 6 one of one period
    # and 7 none.  Each part of the plan holds distinct values, so each
    # entry of the start names the one it came from: x takes the head at
    # the probabilities, y, zl and zu their sum
    steps = list(_rolling_windows(theta))
    built = [control_qp_by_rows(*step, 1e-4, with_rows=True)
             for step in steps]
    rows = [_code_rows(_control_qp(*step, 1e-4), *parts[3:], parts[0])
            for step, parts in zip(steps, built)]
    windows = [window for _, window, _, _ in steps]
    probs = windows[0].probabilities
    ones = np.ones_like(probs)
    tracked = theta > 0.0
    for t in (1, 5, 6):  # full, shorter and one-period tails
        old_qp, old_blocks, old_deliver = built[t - 1][:3]
        qp, blocks, deliver = built[t][:3]
        m, size = old_qp.a.shape
        plan = (np.arange(1.0, 1.0 + size) ** 1.5,
                -np.arange(1.0, 1.0 + m) ** 1.25,
                np.arange(1.0, 1.0 + size) ** 0.5,
                np.arange(1.0, 1.0 + size) ** 0.75)
        start = _shifted_start(plan, windows[t], tracked)
        wants = [_shift_by_loop(plan[0], old_blocks, old_deliver, blocks,
                                deliver, probs),
                 _shift_by_loop(plan[1], *rows[t - 1], *rows[t], ones),
                 *(_shift_by_loop(part, old_blocks, old_deliver, blocks,
                                  deliver, ones) for part in plan[2:])]
        m, size = qp.a.shape
        for part, want, count in zip(start, wants, (size, m, size, size)):
            assert sorted(want) == list(range(count))  # every entry
            assert part.tolist() == [want[i] for i in range(count)]
    # the first step and a head-only window start cold
    assert _shifted_start(None, windows[0], tracked) is None
    m, size = built[6][0].a.shape
    previous = (np.zeros(size), np.zeros(m), np.zeros(size), np.zeros(size))
    assert _shifted_start(previous, windows[7], tracked) is None
    # a plan of another layout, or whose y does not fit its x, is refused
    other = list(_rolling_windows(0.6 - theta))[0]
    m, size = control_qp_by_rows(*other, 1e-4)[0].a.shape
    m_here = built[0][0].a.shape[0]
    for bad in [(size, m), (built[0][0].a.shape[1], m_here + 1)]:
        plan = (np.zeros(bad[0]), np.zeros(bad[1]), np.zeros(bad[0]),
                np.zeros(bad[0]))
        with pytest.raises(DomainError, match="previous plan"):
            _shifted_start(plan, windows[1], tracked)


def test_level_is_what_the_tracking_rows_state(monkeypatch):
    # the tracking rows state deliver_i = served_i + sum_s p_s sum_t
    # served_{s,t,i}, so the level reads the tail's expected allocation off
    # the solved QP as deliver - served, byte for byte, over the reference
    # build's blocks; the tails' splits hand out that much to the solve's
    # tolerance
    solved = []

    def solve(qp, tol, start=None):
        solved.append(solve_qp(qp, tol=tol, start=start))
        return solved[-1]

    monkeypatch.setattr(operation, "solve_qp", solve)
    for state, window, spec, config in _rolling_windows(0.6):
        level = mpc_step(state, window, spec, config, 1e-4).level
        x = solved[-1].x
        _, blocks, deliver = control_qp_by_rows(state, window, spec, config,
                                                1e-4)
        tail = x[deliver] - x[blocks[0][4]]
        want = state.e_past + tail + state.e_future - state.promise
        assert level.tobytes() == want.tobytes()
        handed = [x[split].reshape(window.tail_loads.shape).sum(axis=0)
                  for *_, split in blocks[1:]]
        expected = window.probabilities @ np.array(handed) if handed \
            else np.zeros_like(tail)
        assert np.abs(tail - expected).max() <= 1e-6


def _failing_solves(monkeypatch, failing):
    """Make the control solves of operation whose call numbers (from 0) are
    in `failing` end iteration_limit, after 29 iterations when started
    warm and 7 when cold; every other one is solved as it is.  Returns the
    list of starts they were given."""
    starts = []

    def solve(qp, tol, start=None):
        starts.append(start)
        rep = solve_qp(qp, tol=tol, start=start)
        if len(starts) - 1 in failing:
            return replace(rep, status="iteration_limit",
                           iterations=7 if start is None else 29)
        return rep

    monkeypatch.setattr(operation, "solve_qp", solve)
    return starts


@pytest.mark.parametrize("theta", [0.0, 0.6])
def test_a_failed_warm_control_solve_is_retried_cold(theta, monkeypatch):
    # a warm point can block: a warm-started control solve that ends other
    # than optimal is solved once more from the cold start, and the step
    # returns what a cold step returns
    steps = list(_rolling_windows(theta))
    first = mpc_step(*steps[0], 1e-4)
    cold = mpc_step(*steps[1], 1e-4)
    starts = _failing_solves(monkeypatch, {0})
    retried = mpc_step(*steps[1], 1e-4, previous=first.plan)
    assert [start is None for start in starts] == [False, True]
    for name in ("charge", "discharge", "withheld", "served", "level"):
        assert np.asarray(getattr(retried, name)).tobytes() == \
            np.asarray(getattr(cold, name)).tobytes(), name
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(retried.plan, cold.plan))


def test_a_failed_retry_names_both_solves_and_the_period(monkeypatch):
    steps = list(_rolling_windows(0.6))
    first = mpc_step(*steps[0], 1e-4)
    _failing_solves(monkeypatch, {0, 1})
    with pytest.raises(OperationError) as info:
        mpc_step(*steps[1], 1e-4, previous=first.plan)
    assert str(info.value) == (
        "control solve started warm ended iteration_limit after 29"
        " iterations, then started cold ended iteration_limit after 7"
        " iterations")
    # a cold step has one outcome to give, and is not retried
    starts = _failing_solves(monkeypatch, {0})
    with pytest.raises(OperationError, match="^control solve started cold"
                       " ended iteration_limit after 7 iterations$"):
        mpc_step(*steps[0], 1e-4)
    assert starts == [None]
    # run_year names the period: its first step is cold and passes, the
    # second is warm and fails, and so does its retry
    bundle, result, plan = _year_case()
    starts = _failing_solves(monkeypatch, {1, 2})
    with pytest.raises(OperationError, match="^period 1: control solve"
                       " started warm ended iteration_limit after 29"
                       " iterations, then started cold"):
        run_year(bundle, plan, result.decision, _realization(bundle, 101),
                 HorizonConfig(1, 16))
    assert [start is None for start in starts] == [True, False, True]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_year_report_counts_its_cold_retries(algorithm, monkeypatch):
    # the second step's warm solve fails and its cold retry passes: an MPC
    # year reports that one retry, and the greedy rule, which solves
    # nothing, none
    assert _year_report(algorithm)[0].cold_retries == 0
    bundle, result, plan = _year_case()
    starts = _failing_solves(monkeypatch, {1})
    report = run_year(bundle, plan, result.decision, _realization(bundle, 101),
                      HorizonConfig(1, 16, theta=1.0), algorithm)
    assert report.cold_retries == (algorithm != "rulebased_myopic")
    if starts:
        assert [start is None for start in starts[:3]] == [True, False, True]


@pytest.mark.parametrize("algorithm", ["proposed", "mpc_myopic"])
def test_warm_started_steps_reach_the_cold_optimum(algorithm, monkeypatch):
    # each step after the first starts from the previous plan shifted one
    # period; solved cold instead, every such QP has the same optimal value
    # to the solver's tolerance, and the year takes far fewer iterations
    bundle, result, plan = _year_case()
    solves = []

    def both(qp, tol, start=None):
        rep = solve_qp(qp, tol=tol, start=start)
        cold = solve_qp(qp, tol=tol)
        assert rep.status == cold.status == "optimal"
        solves.append((start is not None, rep, cold))
        return rep

    monkeypatch.setattr(operation, "solve_qp", both)
    run_year(bundle, plan, result.decision, _realization(bundle, 101),
             HorizonConfig(1, 16, theta=1.0), algorithm)
    t_len = bundle.grid.num_periods
    # cold: the first step and the last one, whose window has no tail
    assert [warm for warm, _, _ in solves] == \
        [False] + [True] * (t_len - 2) + [False]
    for _, rep, cold in solves:
        assert abs(rep.objective - cold.objective) \
            <= 1e-6 * (1.0 + abs(cold.objective))
    # restarting from the previous solve's centred iterate took 0.64
    # (proposed) and 0.55 (mpc_myopic) of the cold iterations here; a start
    # from the shifted primal plan alone took 0.87 and 0.88
    warm_iters = sum(rep.iterations for _, rep, _ in solves)
    cold_iters = sum(cold.iterations for _, _, cold in solves)
    assert warm_iters <= 0.75 * cold_iters


@pytest.mark.parametrize("algorithm", ["proposed", "mpc_myopic"])
def test_every_plan_is_near_its_own_rows(algorithm, monkeypatch):
    # the plan a step hands on is its solve's restart, an iterate whose
    # relative residuals and gap sum to at most 3e-2, so it meets its QP's
    # rows to 3e-2 of 1 + max |rhs|.  A gap test alone kept restarts here
    # that missed by up to 1.31 (proposed) and 0.31 (mpc_myopic) of that,
    # among them 1 and 2 warm starts unmoved (0.91, 0.31 and 0.29)
    bundle, result, plan = _year_case()
    misses = []

    def solve(qp, tol, start=None):
        rep = solve_qp(qp, tol=tol, start=start)
        x = rep.restart[0]
        misses.append(np.abs(qp.a @ x - qp.rhs).max()
                      / (1.0 + np.abs(qp.rhs).max()))
        return rep

    monkeypatch.setattr(operation, "solve_qp", solve)
    run_year(bundle, plan, result.decision, _realization(bundle, 101),
             HorizonConfig(1, 16, theta=1.0), algorithm)
    assert len(misses) == bundle.grid.num_periods
    assert max(misses) <= 3e-2


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_year_reports_repeat_byte_for_byte(algorithm):
    # each step starts from the previous one's plan, which run_year carries
    # itself: a second year in the same process reports the same bytes
    bundle, result, plan = _year_case()
    realized = _realization(bundle, 101)
    cfg = HorizonConfig(1, 16, theta=1.0)
    first, again = (run_year(bundle, plan, result.decision, realized, cfg,
                             algorithm) for _ in range(2))
    for field in fields(first):
        a, b = getattr(first, field.name), getattr(again, field.name)
        if field.name == "dispatch":
            for part in fields(a):
                assert np.asarray(getattr(a, part.name)).tobytes() == \
                    np.asarray(getattr(b, part.name)).tobytes(), part.name
        else:
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), \
                field.name


def test_theta_zero_control_qp_is_the_dispatch_program():
    # theta = 0 tracks nothing: every branch period carries charge,
    # discharge, SoC, export and one aggregate served energy with its
    # balance and SoC rows, and nothing else.  The theta > 0 QP is that
    # program with each period's served energy split by consumer, plus the
    # tracking block: mapping each of a period's n served columns onto the
    # cost-only program's one gives its A, costs and lower bounds, and the
    # n boxes sum to its box
    rng = np.random.default_rng(9)
    n, tt, probs = 3, 4, np.array([0.6, 0.4])
    spec = StorageSpec(3.0, 6.0, 0.93, cyclic=False)
    loads = rng.uniform(0.2, 2.5, (1 + tt, n))
    win = HorizonWindow(0.5, loads[0], rng.uniform(0.0, 3.0), loads[1:],
                        rng.uniform(0.0, 3.0, (tt, 2)), probs,
                        rng.uniform(0.1, 0.3, 1 + tt),
                        rng.uniform(0.0, 0.1, 1 + tt),
                        rng.uniform(0.0, 0.02, 1 + tt))
    st = OperationState(2.5, rng.uniform(0.0, 3.0, n),
                        rng.uniform(3.0, 6.0, n), rng.uniform(0.0, 1.0, n))
    zero = _control_qp(st, win, spec, HorizonConfig(1, 1 + tt, 0.0), 1e-4)
    periods = 1 + len(probs) * tt
    assert zero.a.shape == (2 * periods, 5 * periods)
    assert not zero.q_diag.any()
    tracked = _control_qp(st, win, spec, HorizonConfig(1, 1 + tt, 1.0), 1e-4)
    assert tracked.a.shape == (2 * periods + n, (4 + n) * periods + n)

    # owner[j]: the cost-only program's column of the tracked column j
    owner = np.full(tracked.c.shape[0], -1)
    blocks, track = _layout_blocks(tracked, win, 1.0)
    for want, got in zip(_layout_blocks(zero, win, 0.0)[0], blocks):
        for cols, split in zip(want, got):
            owner[split] = np.repeat(cols, len(split) // len(cols))
    dispatch = np.flatnonzero(owner >= 0)
    assert dispatch.tolist() == sorted(set(range(owner.shape[0]))
                                       - set(track.tolist()))
    m = zero.a.shape[0]
    a = tracked.a.toarray()
    np.testing.assert_array_equal(a[:m, dispatch],
                                  zero.a.toarray()[:, owner[dispatch]])
    assert not a[:m, track].any() and not tracked.q_diag[dispatch].any()
    for name in ("c", "lb"):
        np.testing.assert_array_equal(getattr(tracked, name)[dispatch],
                                      getattr(zero, name)[owner[dispatch]])
    box = np.zeros(zero.c.shape[0])
    np.add.at(box, owner[dispatch], tracked.ub[dispatch])
    np.testing.assert_allclose(box, zero.ub, rtol=1e-15)
    assert list(zero.senses) == list(tracked.senses[:m])
    np.testing.assert_array_equal(zero.rhs, tracked.rhs[:m])


def _random_step(rng, scenarios, tail, theta, n=3):
    """(state, window, spec, config) of a random control step: n consumers,
    one of them without load in some periods, `scenarios` solar scenarios
    of random probability and a `tail`-period tail, a battery that may
    have no capacity, and random prices."""
    loads = rng.uniform(0.0, 2.5, (1 + tail, n))
    loads[rng.random((1 + tail, n)) < 0.2] = 0.0
    gen = rng.uniform(0.0, 3.0, (1 + tail, scenarios))
    probs = rng.dirichlet(np.ones(scenarios))
    power = rng.choice([0.0, rng.uniform(0.5, 4.0)])
    spec = StorageSpec(power, 2.0 * power, 0.93, cyclic=False)
    window = HorizonWindow(0.5, loads[0], float(gen[0] @ probs), loads[1:],
                           gen[1:], probs, rng.uniform(0.1, 0.3, 1 + tail),
                           rng.uniform(0.0, 0.1, 1 + tail),
                           rng.uniform(0.0, 0.02, 1 + tail))
    state = OperationState(rng.uniform(0.0, 2.0 * power),
                           rng.uniform(0.0, 3.0, n), rng.uniform(3.0, 6.0, n),
                           rng.uniform(0.0, 1.0, n))
    return state, window, spec, HorizonConfig(1, 1 + tail, theta=theta)


@pytest.mark.parametrize("tail", [0, 1, 5])
@pytest.mark.parametrize("scenarios", [1, 2, 4, 10])
@pytest.mark.parametrize("theta", [0.0, 0.6])
def test_served_energy_form_solves_as_the_import_form(theta, scenarios,
                                                      tail):
    # the balance on served energy substitutes the grid import, load -
    # served, out of the former import form: both are optimal, and their
    # values differ by the constant sum of probability x grid price x load
    # that the served-energy form leaves out
    rng = np.random.default_rng(1000 * scenarios + 10 * tail + int(theta))
    for _ in range(3):
        state, window, spec, config = _random_step(rng, scenarios, tail,
                                                   theta)
        got = solve_qp(_control_qp(state, window, spec, config, 1e-4),
                       tol=1e-8)
        want = solve_qp(control_qp_import_form(state, window, spec, config,
                                               1e-4), tol=1e-8)
        assert got.status == want.status == "optimal"
        price = window.grid_price
        dropped = price[0] * window.head_loads.sum() + window.probabilities \
            @ np.full(scenarios, price[1:] @ window.tail_loads.sum(axis=1))
        assert abs(got.objective + dropped - want.objective) \
            <= 1e-6 * (1.0 + abs(got.objective))


def test_control_qp_has_two_rows_per_branch_period():
    # each branch period has its balance and SoC rows, and theta > 0 adds
    # only the n tracking rows: no served rows and no import variable
    rng = np.random.default_rng(41)
    for theta in (0.0, 0.6):
        for scenarios in (1, 2, 4, 10):
            for tail in (0, 1, 5):
                step = _random_step(rng, scenarios, tail, theta, n=4)
                qp = _control_qp(*step, 1e-4)
                periods, track = 1 + scenarios * tail, 4 * (theta > 0.0)
                per = track or 1
                assert qp.a.shape == (2 * periods + track,
                                      (4 + per) * periods + track)


# ---------------------------------------------------------------------------
# settlement

@pytest.mark.parametrize("tc", [1])  # the head: one period per step
def test_settle_qp_blocks_match_row_loop(tc, monkeypatch):
    # settlement water-fills, builds no QP, and matches the row-loop
    # settlement QP solved as a QP
    rng = np.random.default_rng(70 + tc)
    n = 3
    values = rng.uniform(0.2, 2.0, (tc, n))
    served = rng.uniform(0.0, 1.0, tc) * values.sum(axis=1)
    tail_expected = rng.uniform(0.0, 2.0, n)
    st = _state(e_past=rng.uniform(0.0, 3.0, n),
                promise=rng.uniform(3.0, 9.0, n),
                e_future=rng.uniform(0.0, 2.0, n))
    dec = _decision_stub(served[0], st, tail_expected)
    seen = capture_qps(monkeypatch, operation)
    key = settle(dec.served, values[0], dec.level)
    rhs = st.e_past + tail_expected + st.e_future - st.promise
    assert seen == []
    rep = solve_qp(settle_qp_by_rows(values, served, rhs), tol=1e-8)
    assert rep.status == "optimal"
    np.testing.assert_allclose(key, rep.x[:n], rtol=0.0, atol=1e-7)


def _assert_common_level(base, split, cap):
    """Optimality of a split g of one period for min sum_i (base_i + g_i)^2
    over 0 <= g <= cap with a fixed total: every consumer given something
    sits at a level base_i + g_i no higher than any consumer not yet
    filled (Lagrange: one common level, clipped at the bounds)."""
    level = base + split
    got = split > 1e-12
    open_ = split < cap - 1e-12
    if got.any() and open_.any():
        scale = 1.0 + float(np.abs(level).max())
        assert level[got].max() <= level[open_].min() + 1e-12 * scale


def _settle_qp_objective(values, served, rhs):
    """Squared mismatch of the settlement QP's split, repaired as settle
    repairs it; None when the QP does not reach optimality."""
    rep = solve_qp(settle_qp_by_rows(values, served, rhs), tol=1e-8)
    if rep.status != "optimal":
        return None
    n = values.shape[1]
    key = _repair_rows(rep.x[:n].reshape(values.shape), served, values)
    mismatch = rhs + key.sum(axis=0)
    return float(mismatch @ mismatch)


def _fill_cases():
    """One settled period: levels with ties, loads with zeros, and targets
    of zero, of every load, and in between."""
    level = hst.one_of(hst.sampled_from([-1.0, 0.0, 0.25]),
                       hst.floats(-3.0, 3.0))
    load = hst.one_of(hst.just(0.0), hst.floats(1e-3, 2.0))
    share = hst.one_of(hst.just(0.0), hst.just(1.0), hst.just(1.5),
                       hst.floats(0.0, 1.0))
    return hst.integers(1, 6).flatmap(lambda n: hst.tuples(
        hst.lists(level, min_size=n, max_size=n),
        hst.lists(load, min_size=n, max_size=n), share))


@settings(max_examples=150, deadline=None)
@given(case=_fill_cases())
# 2.5e-9 kWh served: an absolute residual test let the active-set oracle
# take the inconsistent set x1 = x2 = 0, x1 + x2 = 2.5e-9 as a minimum
@example(case=([-1.0, -3.0], [0.25, 0.0], 1e-08))
def test_single_period_settle_matches_qp_and_oracle(case):
    levels, loads, share = case
    rhs, values = np.array(levels), np.array([loads])
    n = rhs.shape[0]
    served = np.array([share * values.sum()])
    st = _state(e_past=np.zeros(n), promise=-rhs, e_future=np.zeros(n))
    dec = _decision_stub(served[0], st)
    key = settle(dec.served, values[0], dec.level)
    objective = _settled_objective(dec, key)
    assert not check_key(RepartitionKey(key), values, served)
    _assert_common_level(rhs, key, values[0])
    qp_obj = _settle_qp_objective(values, served, rhs)
    if qp_obj is not None:
        assert objective <= qp_obj + 1e-12 * (1.0 + qp_obj)
    if n <= 4:
        # sum_i (rhs_i + g_i)^2 = g'g + 2 rhs'g + rhs'rhs
        target = float(min(served[0], values.sum()))
        best, g = qp_active_set_minimum(
            2.0 * rhs, np.full(n, 2.0), [(np.ones(n), "==", target)],
            np.zeros(n), values[0])
        oracle = best + float(rhs @ rhs)
        assert objective <= oracle + 1e-12 * (1.0 + oracle)
        np.testing.assert_allclose(key, g, rtol=0.0, atol=1e-7)


def test_settle_recorded_stall_630331():
    # Captured from operate-4day at seed 630331, period 147: the settlement
    # QP of these inputs ended iteration_limit and run_year raised.  The
    # mismatch levels all lie within 0.011 kWh of each other.
    loads = np.array([[
        0.13557606553999288, 0.025246423119019014, 0.11892224740858945,
        0.14140348044835604, 0.14082738224374178, 0.14614237796531482,
        0.097570112903814, 0.18390532681985955, 0.08928449587861774,
        0.13361636487791767, 0.1315524637170027, 0.19953132571636858,
        0.06285649140494087, 0.14291061190733353, 0.11355910113061328]])
    tail_expected = [
        7.172555624036955, 6.527112388656054, 6.772889034350159,
        6.505099014916591, 6.83582954438425, 6.536403481271438,
        6.635863573546739, 7.5197447939571, 5.747645068829519,
        6.743245869419766, 6.508290979589109, 6.565196087704084,
        7.0391710845266475, 6.770666160335074, 6.7598516160444]
    e_past = [
        19.112493832851854, 17.41523923726061, 17.633370433132626,
        17.903352253018724, 19.515449504770693, 19.94780458314589,
        17.76985173669976, 23.34526944485718, 18.66504471668634,
        17.6678598998465, 17.90150589337991, 25.05708843616636,
        17.364824928417356, 20.848925008183286, 19.90435692008066]
    promise = [
        26.25764022992188, 23.92152100287865, 24.38273766867534,
        24.38273766870796, 26.321169267493076, 26.453655771148448,
        24.38273766631299, 30.833557280753386, 24.38273766909177,
        24.382737669003106, 24.382737668652744, 31.5910206223409,
        24.382737668633318, 27.589411797867395, 26.63300347824498]
    n = loads.shape[1]
    st = OperationState(0.0, e_past, promise, np.zeros(n))
    dec = _decision_stub(0.1131311047400021, st, tail_expected)
    eps = 4.720998765805895e-07
    served = dec.served + eps
    key = settle(served, loads[0], dec.level)
    assert not check_key(RepartitionKey(key), loads, [served])
    rhs = st.e_past + np.asarray(tail_expected) + st.e_future - st.promise
    assert 0.0 < key.sum() < loads.sum()
    _assert_common_level(rhs, key, loads[0])


def test_settle_reproduces_control_objective_on_exact_forecast():
    rng = np.random.default_rng(23)
    loads = rng.uniform(0.3, 1.5, (8, 3))
    gen = np.clip(np.sin(np.pi * np.arange(8) / 8) * 2.0, 0.0, None)
    spec = StorageSpec(1.5, 3.0, 0.95, cyclic=False)
    win = _window(loads[0], gen[0], loads[1:],
                  np.column_stack([gen[1:], 0.7 * gen[1:]]), (0.6, 0.4))
    st = OperationState(spec.initial_soc_kwh, [0.5, 0.0, 0.2],
                        [4.0, 3.0, 3.5], [0.5, 0.5, 0.5])
    cfg = HorizonConfig(1, 8, theta=1.7)
    dec = mpc_step(st, win, spec, cfg, beta_es_use=0.0001)
    key = settle(dec.served, loads[0], dec.level)
    planned = _planned_key(dec, st, win, spec, cfg, 0.0001)
    assert _settled_objective(dec, key) == pytest.approx(
        _settled_objective(dec, planned), abs=1e-6)


def test_settle_symmetric_single_period():
    st = _state(promise=(5.0, 5.0))
    key = settle(2.0, [2.0, 2.0], _decision_stub(2.0, st).level)
    assert key == pytest.approx([1.0, 1.0], abs=1e-8)
    assert st.e_past + key == pytest.approx([1.0, 1.0], abs=1e-8)


def test_settle_clamps_negative_served_to_zero():
    st = _state(promise=(3.0, 3.0))
    level = _decision_stub(0.0, st).level
    key = settle(1.0 - 4.0, [1.0, 1.0], level)
    assert key == pytest.approx([0.0, 0.0], abs=1e-10)
    key = settle(2.0, [2.0, 1.0], level)
    assert key.sum() == pytest.approx(2.0, abs=1e-9)


@pytest.mark.parametrize("served, level", [
    (np.nan, [0.0, 0.0]), (np.inf, [0.0, 0.0]), (-np.inf, [0.0, 0.0]),
    (1.0, [np.nan, 0.0]), (1.0, [0.0, np.inf]),
    ("1.0", [0.0, 0.0]), (True, [0.0, 0.0])])
def test_settle_refuses_a_non_finite_served_or_level(served, level):
    # a NaN period once settled as the whole load row; a string once
    # raised a raw TypeError, and True was settled as 1 kWh
    with pytest.raises(DomainError, match="finite"):
        settle(served, [1.0, 2.0], level)


@pytest.mark.parametrize("loads", [[-1.0, 2.0], [np.nan, 1.0],
                                   [1.0, 1.0, 1.0]])
def test_settle_refuses_realized_loads_that_are_not_a_load_row(loads):
    # a negative load once settled as a negative allocation, a NaN one as
    # a NaN allocation, and a row longer than the level as a raw NumPy
    # broadcast error
    with pytest.raises(DomainError, match="realized_loads"):
        settle(1.0, loads, [0.0, 0.0])


def test_settle_key_feasible_and_balances_history():
    # the settled key must live in the feasible split set, and with enough
    # served energy it should equalize consumers' cumulative positions
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = rng.integers(2, 5)
        loads = rng.uniform(0.1, 2.0, (1, n))
        served = rng.uniform(0.0, 1.2) * loads.sum(1)
        tail_expected = rng.uniform(0.0, 1.0, n)
        st = OperationState(0.0, rng.uniform(0.0, 3.0, n),
                            rng.uniform(2.0, 6.0, n),
                            rng.uniform(0.0, 1.0, n))
        dec = _decision_stub(served[0], st, tail_expected)
        key = settle(dec.served, loads[0], dec.level)
        assert not check_key(RepartitionKey(key), loads,
                             np.minimum(served, loads.sum(1)))
        assert np.all(st.e_past + key >= st.e_past - 1e-12)


# ---------------------------------------------------------------------------
# baselines

def _greedy_period(soc, gen, load, spec, delta=0.5):
    """One period of the greedy baseline: its plan (charge the surplus,
    discharge against the deficit) clipped by storage.realize."""
    c, d, _ = realize(max(gen - load, 0.0), max(load - gen, 0.0), gen, soc,
                      spec, delta)
    return float(c), float(d)


def test_rule_based_control_hand_cases():
    spec = StorageSpec(6.0, 10.0, 1.0, cyclic=False)
    assert _greedy_period(0.0, 10.0, 4.0, spec) == (3.0, 0.0)
    assert _greedy_period(0.0, 0.0, 4.0, spec) == (0.0, 0.0)
    assert _greedy_period(0.0, 4.0, 4.0, spec) == (0.0, 0.0)
    # efficiency-adjusted limits: headroom/eta when charging,
    # soc * eta when discharging
    spec2 = StorageSpec(20.0, 2.0, 0.8, cyclic=False)
    c, d = _greedy_period(1.0, 10.0, 2.0, spec2)
    assert (c, d) == pytest.approx((1.25, 0.0))
    c, d = _greedy_period(1.0, 0.0, 5.0, spec2)
    assert (c, d) == pytest.approx((0.0, 0.8))


@settings(max_examples=60, deadline=None)
@given(alphas=hnp.arrays(np.float64, 48, elements=hst.floats(0.0, 1.0)),
       load_scale=hnp.arrays(np.float64, 48, elements=hst.floats(0.0, 3.0)),
       pv_kw=hst.floats(0.0, 10.0), es_kw=hst.floats(0.0, 4.0),
       es_kwh=hst.floats(0.0, 8.0), roundtrip=hst.floats(0.5, 1.0))
@example(alphas=np.full(48, 0.3125), load_scale=np.full(48, 2.0),
         pv_kw=9.0, es_kw=1.0, es_kwh=0.115, roundtrip=0.9092953919370214)
def test_greedy_year_matches_rule_loop(alphas, load_scale, pv_kw, es_kw,
                                       es_kwh, roundtrip):
    # run_year's greedy baseline (a plan per period, clipped by
    # storage.realize) against the period-by-period rule loop it replaced
    bundle, result, plan = _year_case(t_len=48)
    bundle = replace(bundle, params=replace(
        bundle.params, es_roundtrip_efficiency=roundtrip))
    decision = replace(result.decision, pv_capacity_kw=pv_kw,
                       pv_inverter_index=0, pv_inverter_capacity_kw=10.0,
                       es_power_kw=es_kw, es_energy_kwh=es_kwh,
                       es_inverter_index=0, es_inverter_capacity_kw=4.0)
    realized = RealizedTrajectory(
        alphas, bundle.loads.values * load_scale[:, None])
    with pytest.MonkeyPatch.context() as mp:
        # settlement does not touch the battery; skip it
        mp.setattr(operation, "settle",
                   lambda served, loads, level: np.zeros(loads.shape[-1]))
        report = run_year(bundle, plan, decision, realized,
                          HorizonConfig(1, 8), "rulebased_myopic")
    spec = StorageSpec.from_sizing(decision, bundle.params, cyclic=False)
    gen = pv_production(alphas, pv_kw, 0.5)
    want = greedy_year_by_rule_loop(gen, realized.loads.sum(axis=1), spec,
                                    0.5)
    got = (report.dispatch.charge, report.dispatch.discharge,
           report.dispatch.soc)
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_myopic_settle_symmetry_and_surplus():
    # the myopic baselines settle from level zero
    key = settle(2.0, np.array([2.0, 2.0]), np.zeros(2))
    assert key == pytest.approx([1.0, 1.0], abs=1e-8)
    key = settle(10.0, np.array([1.0, 3.0]), np.zeros(2))
    assert key == pytest.approx([1.0, 3.0], abs=1e-10)


def test_myopic_settle_matches_variance_oracle():
    rng = np.random.default_rng(41)
    for _ in range(6):
        n = int(rng.integers(2, 4))
        loads = rng.uniform(0.2, 2.0, (1, n))
        served = rng.uniform(0.2, 0.9) * loads.sum(1)
        totals = settle(served[0], loads[0], np.zeros(n))
        var = float(totals @ totals / n - totals.mean() ** 2)
        assert var <= _oracle_variance(served, loads) + 2e-6


@settings(max_examples=100, deadline=None)
@given(case=_fill_cases())
def test_single_period_myopic_settle_matches_key_qp(case):
    _, loads, share = case
    values = np.array([loads])
    served = np.array([share * values.sum()])
    with pytest.MonkeyPatch.context() as mp:
        seen = capture_qps(mp, allocation)
        got = settle(served[0], values[0], np.zeros(values.shape[1]))
    assert seen == []
    assert not check_key(RepartitionKey(got), values, served)
    _assert_common_level(np.zeros_like(got), got, values[0])
    # the single-row key QP of min_variance_key minimizes sum_i g_i^2 too;
    # it can stall on such rows, which is why myopic settlement water-fills
    try:
        want = min_variance_key([served], values, np.ones(1)).keys[0].values[0]
    except AllocationError:
        want = None
    if want is not None:
        assert got @ got <= want @ want + 1e-12 * (1.0 + want @ want)
        # the interior-point key is exact in objective only to its gap, so
        # its argmin can sit ~sqrt(gap) away; compare through the objective:
        # for the minimizer g of sum g^2, |w - g|^2 <= w'w - g'g for every
        # feasible w (strong convexity with Hessian 2I)
        gap = want @ want - got @ got
        assert (want - got) @ (want - got) <= gap + 1e-12 * (1.0 + want @ want)
    n = got.shape[0]
    if n <= 4:
        target = float(min(served[0], values.sum()))
        best, g = qp_active_set_minimum(
            np.zeros(n), np.full(n, 2.0), [(np.ones(n), "==", target)],
            np.zeros(n), values[0])
        assert got @ got <= best + 1e-12 * (1.0 + best)
        np.testing.assert_allclose(got, g, rtol=0.0, atol=1e-7)


# ---------------------------------------------------------------------------
# year simulation

_CASES = {}
_REPORTS = {}


def _year_case(t_len=96, n=3, w=2):
    if (t_len, n, w) in _CASES:
        return _CASES[(t_len, n, w)]
    rng = np.random.default_rng(11)
    grid = TimeGrid(0.5, t_len, periods_per_year=t_len)
    day = np.arange(t_len) % 48
    weights = np.linspace(1.0, 1.3, n) * [1.0, 0.7, 1.3][:n] if n <= 3 else \
        rng.uniform(0.6, 1.4, n)
    base = (0.6 + 0.4 * np.sin(2 * np.pi * (day - 14) / 48))[:, None] * weights
    loads = LoadMatrix(np.abs(base + 0.05 * rng.standard_normal((t_len, n))),
                       tuple(f"c{i}" for i in range(n)))
    bell = np.clip(np.sin(np.pi * (day - 10) / 28), 0.0, 1.0) ** 2
    scales = np.linspace(1.0, 0.55, w)
    alphas = np.clip(bell[:, None] * scales
                     + 0.02 * rng.standard_normal((t_len, w)), 0.0, 1.0)
    probs = np.full(w, 1.0 / w)
    scen = SolarScenarioSet(alphas, probs)
    tariff = Tariff(np.full(t_len, 0.13), 0.0, np.full(t_len, 0.05),
                    np.zeros(t_len), 0.10)
    params = TechEconParams(beta_pv_tiers=((0.0, 1.1),), beta_es=0.158,
                            beta_es_use=0.0001, beta_mnt=0.01,
                            grid_connection_cost=1.0, subsidy=SubsidyRule(),
                            kappa=2.0, discount_rate=0.03, horizon_years=20)
    bundle = InputBundle(grid, loads, scen, tariff, params)
    catalog = InverterCatalog(((4.0, 1.2), (10.0, 2.5)),
                              ((2.0, 0.5), (6.0, 1.1)))
    result = solve_sizing(bundle, catalog)
    plan = min_variance_key([d.to_consumers for d in result.dispatches],
                            loads, probs)
    _CASES[(t_len, n, w)] = (bundle, result, plan)
    return _CASES[(t_len, n, w)]


def _realization(bundle, seed, alpha_scale=1.0):
    rng = np.random.default_rng(seed)
    alphas = bundle.scenarios.alphas
    mix = rng.dirichlet(np.ones(alphas.shape[1]))
    alpha = np.clip(alpha_scale * (alphas @ mix)
                    + 0.01 * rng.standard_normal(alphas.shape[0]), 0.0, 1.0)
    loads = np.abs(bundle.loads.values
                   * (1.0 + 0.05 * rng.standard_normal(bundle.loads.values.shape)))
    return RealizedTrajectory(alpha, loads)


def _year_report(algorithm, seed=101):
    if (algorithm, seed) not in _REPORTS:
        bundle, result, plan = _year_case()
        realized = _realization(bundle, seed)
        cfg = HorizonConfig(1, 16, theta=1.0)
        _REPORTS[(algorithm, seed)] = (
            run_year(bundle, plan, result.decision, realized, cfg,
                     algorithm=algorithm),
            realized)
    return _REPORTS[(algorithm, seed)]


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_year_keys_and_conservation(algorithm):
    report, realized = _year_report(algorithm)
    served = report.dispatch.to_consumers
    assert not check_key(RepartitionKey(report.keys), realized.loads, served,
                         tol=1e-8)
    target = np.minimum(served, realized.loads.sum(1)).sum()
    assert report.delivered.sum() == pytest.approx(target, abs=1e-6)
    assert np.all(report.keys >= -1e-12)   # e_past non-decreasing
    assert report.mismatch_series[-1] == pytest.approx(
        report.delivered - report.promise, abs=1e-9)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_year_dispatch_physical(algorithm):
    report, realized = _year_report(algorithm)
    bundle, result, _ = _year_case()
    spec = StorageSpec.from_sizing(result.decision, bundle.params,
                                   cyclic=False)
    assert not check_feasible(spec, report.dispatch.charge,
                              report.dispatch.discharge, 0.5, tol=1e-6)
    gap = report.dispatch.to_consumers + report.dispatch.grid_import \
        - realized.loads.sum(1)
    assert np.abs(gap).max() < 1e-6


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_year_costs_are_the_dispatch_bill(algorithm):
    report, _ = _year_report(algorithm)
    bundle, _, _ = _year_case()
    bill = dispatch_costs(report.dispatch, bundle.tariff)
    assert bill.grid_energy > 0.0 and bill.throughput > 0.0
    assert report.grid_energy_cost == bill.grid_energy
    assert report.export_revenue == bill.export_revenue
    assert report.export_tax_cost == bill.export_tax
    assert report.utilization_cost == \
        bundle.params.beta_es_use * bill.throughput


@pytest.mark.parametrize("algorithm, control_qps", [
    ("proposed", 1), ("mpc_myopic", 1), ("rulebased_myopic", 0)])
def test_year_solves_no_settlement_qp(algorithm, control_qps, monkeypatch):
    # one control QP per period for the MPC algorithms, none for the
    # greedy rule; every settlement water-fills, and no key QP is solved
    bundle, result, plan = _year_case(t_len=48)
    realized = _realization(bundle, 55)
    control = capture_qps(monkeypatch, operation)
    keys = capture_qps(monkeypatch, allocation)
    run_year(bundle, plan, result.decision, realized, HorizonConfig(1, 8),
             algorithm)
    assert len(control) == control_qps * bundle.grid.num_periods
    assert keys == []


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_every_algorithm_settles_once_per_period(algorithm, monkeypatch):
    # one period body for all three algorithms: each period settles its
    # metered served energy once through operation.settle, from level zero
    # for the myopic baselines, and the year keeps the row settle returns
    bundle, result, plan = _year_case(t_len=48)
    realized = _realization(bundle, 55)
    calls = []

    def recording(served, realized_loads, level):
        row = settle(served, realized_loads, level)
        calls.append((served, np.array(level, dtype=np.float64), row))
        return row

    monkeypatch.setattr(operation, "settle", recording)
    report = run_year(bundle, plan, result.decision, realized,
                      HorizonConfig(1, 8), algorithm)
    assert len(calls) == bundle.grid.num_periods
    for t, (served, level, row) in enumerate(calls):
        assert served == report.dispatch.to_consumers[t]
        assert report.keys[t].tobytes() == row.tobytes()
        if algorithm != "proposed":
            assert not level.any()
    if algorithm == "proposed":
        assert any(level.any() for _, level, _ in calls)


def test_proposed_at_theta_zero_is_mpc_myopic():
    # theta = 0 tracks nothing in control or settlement, so the proposed
    # controller at theta = 0 is the cost-only MPC, byte for byte
    bundle, result, plan = _year_case(t_len=48)
    realized = _realization(bundle, 55)
    cfg = HorizonConfig(1, 8, theta=0.0)
    proposed, myopic = (run_year(bundle, plan, result.decision, realized, cfg,
                                 algorithm)
                        for algorithm in ("proposed", "mpc_myopic"))
    for name in ("charge", "discharge", "grid_import", "surplus",
                 "to_consumers", "soc"):
        assert getattr(proposed.dispatch, name).tobytes() == \
            getattr(myopic.dispatch, name).tobytes()
    assert proposed.keys.tobytes() == myopic.keys.tobytes()
    assert proposed.mismatch_series.tobytes() == \
        myopic.mismatch_series.tobytes()


def test_year_zero_solar_delivers_nothing():
    bundle, result, plan = _year_case()
    no_es = type(result.decision)(
        pv_capacity_kw=result.decision.pv_capacity_kw, es_power_kw=0.0,
        es_energy_kwh=0.0, pv_inverter_index=result.decision.pv_inverter_index,
        pv_inverter_capacity_kw=result.decision.pv_inverter_capacity_kw,
        pv_inverter_cost=result.decision.pv_inverter_cost,
        es_inverter_index=None, es_inverter_capacity_kw=0.0,
        es_inverter_cost=0.0)
    realized = RealizedTrajectory(np.zeros(bundle.grid.num_periods),
                                  bundle.loads.values)
    report = run_year(bundle, plan, no_es, realized, HorizonConfig(1, 8, 1.0))
    assert report.delivered == pytest.approx(np.zeros(3), abs=1e-9)
    assert report.end_mismatch == pytest.approx(-plan.promise, abs=1e-9)
    assert report.cumulative_deficit == pytest.approx(plan.promise.sum(),
                                                      abs=1e-9)


def test_year_proposed_dominates_on_expected_trajectory():
    bundle, result, plan = _year_case()
    mean_alpha = bundle.scenarios.alphas @ bundle.scenarios.probabilities
    realized = RealizedTrajectory(mean_alpha, bundle.loads.values)
    cfg = HorizonConfig(1, 16, theta=1.0)
    scores = {}
    for algorithm in ALGORITHMS:
        report = run_year(bundle, plan, result.decision, realized, cfg,
                          algorithm=algorithm)
        scores[algorithm] = report.max_abs_mismatch
    assert scores["proposed"] <= scores["mpc_myopic"] + 1e-9
    assert scores["proposed"] <= scores["rulebased_myopic"] + 1e-9


def test_year_dominance_across_random_years():
    bundle, result, plan = _year_case(t_len=48)
    cfg = HorizonConfig(1, 8, theta=1.0)
    wins = 0
    trials = 5
    for seed in range(300, 300 + trials):
        realized = _realization(bundle, seed)
        scores = [run_year(bundle, plan, result.decision, realized, cfg,
                           algorithm=a).max_abs_mismatch for a in ALGORITHMS]
        if scores[0] <= scores[1] + 1e-9 and scores[1] <= scores[2] + 1e-9:
            wins += 1
    assert wins >= trials - 1


def test_year_mismatch_monotone_in_capacity_factor():
    bundle, result, plan = _year_case(t_len=48)
    cfg = HorizonConfig(1, 8, theta=1.0)
    means = []
    for scale in (0.5, 0.8, 1.1, 1.4):
        realized = _realization(bundle, 77, alpha_scale=scale)
        report = run_year(bundle, plan, result.decision, realized, cfg)
        means.append(report.end_mismatch.mean())
    assert all(b >= a - 1e-9 for a, b in zip(means, means[1:]))


def test_year_deterministic():
    bundle, result, plan = _year_case(t_len=48)
    realized = _realization(bundle, 55)
    cfg = HorizonConfig(1, 8, theta=1.0)
    a = run_year(bundle, plan, result.decision, realized, cfg)
    b = run_year(bundle, plan, result.decision, realized, cfg)
    assert a.keys.tobytes() == b.keys.tobytes()
    assert a.dispatch.charge.tobytes() == b.dispatch.charge.tobytes()
    assert a.net_operating_cost == b.net_operating_cost


def test_year_rejects_mismatched_trajectory():
    bundle, result, plan = _year_case(t_len=48)
    short = RealizedTrajectory(np.zeros(10), np.ones((10, 3)))
    with pytest.raises(Exception):
        run_year(bundle, plan, result.decision, short, HorizonConfig(1, 8))
    with pytest.raises(ValueError):
        run_year(bundle, plan, result.decision,
                 _realization(bundle, 1), HorizonConfig(1, 8),
                 algorithm="nonsense")
