"""Receding-horizon control, settlement and the year simulation."""

import numpy as np
import pytest

from pvpool import operation
from pvpool.allocation import min_variance_key
from pvpool.domain import (DomainError, InputBundle, InverterCatalog,
                           LoadMatrix, RealizedTrajectory, RepartitionKey,
                           SolarScenarioSet, SubsidyRule, Tariff,
                           TechEconParams, TimeGrid, check_key)
from pvpool.operation import (ALGORITHMS, ControlDecision, HorizonConfig,
                              HorizonWindow, OperationState, _control_qp,
                              compute_mismatch,
                              mpc_step, myopic_settle, rule_based_control,
                              run_year, settle)
from pvpool.sizing import solve_sizing, split_flows
from pvpool.storage import StorageSpec, check_feasible

from oracles import assert_same_qp, control_qp_by_rows, settle_qp_by_rows
from test_allocation import _oracle_variance, capture_qps


def _state(soc=0.0, e_past=(0.0, 0.0), promise=(1.0, 1.0),
           e_future=(0.0, 0.0), period=0):
    return OperationState(period, soc, np.asarray(e_past, float),
                          np.asarray(promise, float),
                          np.asarray(e_future, float))


def _window(head_loads, head_gen, tail_loads=None, tail_gen=None,
            probs=(1.0,), price=0.13, lam=0.05, tax=0.0, delta=0.5):
    head_loads = np.atleast_2d(np.asarray(head_loads, float))
    tc = head_loads.shape[0]
    n = head_loads.shape[1]
    if tail_loads is None:
        tail_loads = np.zeros((0, n))
        tail_gen = np.zeros((0, len(probs)))
    tail_loads = np.atleast_2d(np.asarray(tail_loads, float))
    tail_gen = np.asarray(tail_gen, float).reshape(tail_loads.shape[0],
                                                   len(probs))
    t_all = tc + tail_loads.shape[0]
    return HorizonWindow(delta, head_loads, np.atleast_1d(head_gen),
                         tail_loads, tail_gen, np.asarray(probs, float),
                         np.full(t_all, price), np.full(t_all, lam),
                         np.full(t_all, tax))


def _decision_stub(served, n, tail_expected=None):
    served = np.atleast_1d(np.asarray(served, float))
    tc = served.shape[0]
    zeros = np.zeros(tc)
    return ControlDecision(
        charge=zeros, discharge=zeros.copy(), pv_gen=zeros.copy(),
        grid_import=zeros.copy(), surplus=zeros.copy(), served=served,
        key=np.zeros((tc, n)),
        tail_allocations=np.zeros((0, n)),
        tail_expected=np.zeros(n) if tail_expected is None
        else np.asarray(tail_expected, float),
        mismatch=np.zeros(n), cost_term=0.0, tracking_term=0.0)


# ---------------------------------------------------------------------------
# mismatch arithmetic

def test_compute_mismatch_hand_sum():
    m = compute_mismatch(40.0, 5.0, [[10.0], [10.0]], 50.0, 100.0,
                         [0.25, 0.75])
    assert m == pytest.approx([5.0], abs=1e-12)


def test_compute_mismatch_all_zero():
    assert compute_mismatch(0.0, 0.0, [], 0.0, 0.0, []) == \
        pytest.approx([0.0], abs=0.0)


def test_compute_mismatch_probability_weighted():
    e_past = np.array([10.0, 0.0])
    key = np.array([[1.5, 0.5], [0.5, 0.5]])   # sums (2, 1)
    tails = [np.array([4.0, 0.0]), np.array([0.0, 8.0])]
    e_future = np.array([1.0, 1.0])
    promise = np.array([20.0, 5.0])
    m = compute_mismatch(e_past, key, tails, e_future, promise, [0.25, 0.75])
    base = e_past + np.array([2.0, 1.0]) + e_future
    want = 0.25 * (base + tails[0]) + 0.75 * (base + tails[1]) - promise
    assert m == pytest.approx(want, abs=1e-12)


# ---------------------------------------------------------------------------
# configuration and state validation

def test_horizon_config_validation():
    cfg = HorizonConfig()
    assert (cfg.control_periods, cfg.prediction_periods, cfg.theta) == \
        (1, 48, 1.0)
    with pytest.raises(DomainError):
        HorizonConfig(0, 4)
    with pytest.raises(DomainError):
        HorizonConfig(5, 4)
    with pytest.raises(DomainError):
        HorizonConfig(1, 4, theta=-0.1)


def test_operation_state_validation():
    with pytest.raises(DomainError):
        OperationState(0, 1.0, np.array([-1.0]), np.array([1.0]),
                       np.array([0.0]))
    with pytest.raises(DomainError):
        OperationState(0, 1.0, np.zeros(2), np.zeros(3), np.zeros(2))
    st = OperationState(3, 2.0, np.array([0.0, -1e-12]), np.zeros(2),
                        np.zeros(2))
    assert st.e_past.min() >= 0.0
    assert st.num_consumers == 2


# ---------------------------------------------------------------------------
# single control steps

def test_mpc_single_period_surplus_no_battery():
    # T_c = T_p = 1, aggregate load 4, solar 10, consumers still far from
    # their promise: everything is served locally and the rest exported
    spec = StorageSpec(0.0, 0.0, cyclic=False)
    win = _window([[2.5, 1.5]], [10.0])
    dec = mpc_step(_state(promise=(4.0, 4.0)), win, spec,
                   HorizonConfig(1, 1, theta=1.0))
    assert dec.served == pytest.approx([4.0], abs=2e-6)
    assert dec.surplus == pytest.approx([6.0], abs=2e-6)
    assert dec.grid_import == pytest.approx([0.0], abs=2e-6)
    assert dec.key.sum() == pytest.approx(4.0, abs=2e-6)
    assert not check_key(RepartitionKey(dec.key), win.head_loads, dec.served,
                         tol=1e-6)


def test_mpc_withholds_production_when_ahead_of_promise():
    # consumers already over their promise: the controller buys and sells
    # simultaneously to keep the local allocation small, paying the spread
    spec = StorageSpec(0.0, 0.0, cyclic=False)
    win = _window([[2.5, 1.5]], [10.0])
    st = _state(e_past=(6.0, 6.0), promise=(2.0, 2.0))
    dec = mpc_step(st, win, spec, HorizonConfig(1, 1, theta=1.0))
    assert dec.served[0] < 0.1
    assert dec.grid_import[0] > 3.8      # imports while exporting
    assert dec.surplus[0] > 9.0
    assert np.abs(dec.mismatch).max() < 4.1  # vs 4.5 if forced to serve all


def test_mpc_theta_zero_single_consumer_is_cost_only():
    # one consumer: the key is pinned to served energy, and with theta = 0
    # the plan cannot cost more than refusing to move the battery at all
    rng = np.random.default_rng(5)
    t_all = 6
    loads = rng.uniform(0.5, 2.0, (t_all, 1))
    gen = np.concatenate([[0.3], rng.uniform(0.0, 1.5, t_all - 1)])
    spec = StorageSpec(2.0, 4.0, 0.95, 0.95, 0.25, cyclic=False)
    win = _window(loads[:1], gen[:1], loads[1:], gen[1:, None], (1.0,))
    st = OperationState(0, spec.initial_soc_kwh, [0.0], [5.0], [0.0])
    dec = mpc_step(st, win, spec, HorizonConfig(1, t_all, theta=0.0),
                   beta_es_use=0.0001)
    assert dec.key[:, 0] == pytest.approx(dec.served, abs=1e-8)
    assert dec.tracking_term == 0.0
    gi0, sp0, _ = split_flows(loads[:1].sum(1), np.zeros(1), np.zeros(1),
                              gen[:1])
    idle_cost = float(0.13 * gi0.sum() - 0.05 * sp0.sum())
    gi1, sp1, _ = split_flows(loads[1:].sum(1), np.zeros(t_all - 1),
                              np.zeros(t_all - 1), gen[1:])
    idle_cost += float(0.13 * gi1.sum() - 0.05 * sp1.sum())
    assert dec.cost_term <= idle_cost + 1e-8


def test_mpc_key_favors_lagging_consumer():
    # equal loads, half the energy served locally; the consumer behind on
    # allocations should receive the full served energy
    spec = StorageSpec(0.0, 0.0, cyclic=False)
    win = _window([[1.0, 1.0]], [1.0])
    st = _state(e_past=(1.0, 0.0), promise=(1.0, 1.0))
    dec = mpc_step(st, win, spec, HorizonConfig(1, 1, theta=1.0))
    assert dec.served == pytest.approx([1.0], abs=2e-6)
    # the minimizer sits exactly on the bound with a vanishing multiplier,
    # so componentwise accuracy is sqrt of the solver tolerance
    assert dec.key[0] == pytest.approx([0.0, 1.0], abs=2e-3)


def test_mpc_respects_storage_envelope():
    rng = np.random.default_rng(17)
    spec = StorageSpec(3.0, 6.0, 0.93, 0.93, 0.4, cyclic=False)
    loads = rng.uniform(0.2, 2.5, (10, 3))
    gen = np.clip(rng.uniform(-0.5, 3.0, 10), 0.0, None)
    win = _window(loads[:2], gen[:2], loads[2:],
                  np.column_stack([gen[2:], 0.5 * gen[2:]]), (0.7, 0.3))
    st = OperationState(0, spec.initial_soc_kwh, np.zeros(3),
                        5.0 * np.ones(3), np.ones(3))
    dec = mpc_step(st, win, spec, HorizonConfig(2, 10, theta=1.0),
                   beta_es_use=0.0001)
    assert not check_feasible(spec, dec.charge, dec.discharge, 0.5, tol=1e-6)
    assert not check_key(RepartitionKey(dec.key), loads[:2], dec.served)


def test_mpc_matches_grid_search_oracle():
    # no battery: dispatch is forced, so the only freedom is how the served
    # energy is split now and in each tail scenario; scan that cube
    theta = 2.0
    probs = np.array([0.5, 0.5])
    head_loads = np.array([[1.2, 0.8]])
    head_gen = np.array([0.5])
    tail_loads = np.array([[1.0, 1.0]])
    tail_gen = np.array([[1.5, 0.4]])
    spec = StorageSpec(0.0, 0.0, cyclic=False)
    win = _window(head_loads, head_gen, tail_loads, tail_gen, probs)
    st = OperationState(0, 0.0, [0.3, 0.0], [1.5, 1.0], [0.2, 0.1])
    dec = mpc_step(st, win, spec, HorizonConfig(1, 2, theta=theta))
    achieved = dec.cost_term + dec.tracking_term

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


def _row_multiset(qp):
    a = qp.a.tocsr()
    rows = []
    for i in range(a.shape[0]):
        span = slice(a.indptr[i], a.indptr[i + 1])
        order = np.argsort(a.indices[span])
        rows.append((tuple(a.indices[span][order]),
                     tuple(a.data[span][order]), str(qp.senses[i]),
                     float(qp.rhs[i])))
    return sorted(rows)


@pytest.mark.parametrize("tc", [1, 3])
@pytest.mark.parametrize("tt", [0, 4])
@pytest.mark.parametrize("theta", [0.0, 1.0])
def test_control_qp_blocks_match_row_loop(tc, tt, theta):
    rng = np.random.default_rng(100 * tc + 10 * tt + int(theta))
    n, probs = 3, np.array([0.6, 0.4])
    spec = StorageSpec(3.0, 6.0, 0.93, 0.92, 0.4, cyclic=False)
    loads = rng.uniform(0.2, 2.5, (tc + tt, n))
    win = HorizonWindow(0.5, loads[:tc], rng.uniform(0.0, 3.0, tc),
                        loads[tc:], rng.uniform(0.0, 3.0, (tt, 2)), probs,
                        rng.uniform(0.1, 0.3, tc + tt),
                        rng.uniform(0.0, 0.1, tc + tt),
                        rng.uniform(0.0, 0.02, tc + tt))
    st = OperationState(0, 2.5, rng.uniform(0.0, 3.0, n),
                        rng.uniform(3.0, 6.0, n), rng.uniform(0.0, 1.0, n))
    cfg = HorizonConfig(tc, tc + tt, theta=theta)
    got, _, _ = _control_qp(st, win, spec, cfg, 1e-4)
    want = control_qp_by_rows(st, win, spec, cfg, 1e-4)
    for name in ("c", "q_diag", "lb", "ub"):
        np.testing.assert_array_equal(getattr(got, name),
                                      getattr(want, name))
    assert got.a.shape == want.a.shape
    assert _row_multiset(got) == _row_multiset(want)


# ---------------------------------------------------------------------------
# settlement

@pytest.mark.parametrize("tc", [1, 3])
def test_settle_qp_blocks_match_row_loop(tc, monkeypatch):
    rng = np.random.default_rng(70 + tc)
    n = 3
    values = rng.uniform(0.2, 2.0, (tc, n))
    served = rng.uniform(0.0, 1.0, tc) * values.sum(axis=1)
    dec = _decision_stub(served, n, tail_expected=rng.uniform(0.0, 2.0, n))
    st = _state(e_past=rng.uniform(0.0, 3.0, n),
                promise=rng.uniform(3.0, 9.0, n),
                e_future=rng.uniform(0.0, 2.0, n))
    seen = capture_qps(monkeypatch, operation)
    settle(dec, np.zeros(tc), values, st)
    rhs = st.e_past + dec.tail_expected + st.e_future - st.promise
    assert len(seen) == 1
    assert_same_qp(seen[0], settle_qp_by_rows(values, served, rhs))


def test_settle_reproduces_control_objective_on_exact_forecast():
    rng = np.random.default_rng(23)
    loads = rng.uniform(0.3, 1.5, (8, 3))
    gen = np.clip(np.sin(np.pi * np.arange(8) / 8) * 2.0, 0.0, None)
    spec = StorageSpec(1.5, 3.0, 0.95, 0.95, 0.5, cyclic=False)
    win = _window(loads[:2], gen[:2], loads[2:],
                  np.column_stack([gen[2:], 0.7 * gen[2:]]), (0.6, 0.4))
    st = OperationState(0, spec.initial_soc_kwh, [0.5, 0.0, 0.2],
                        [4.0, 3.0, 3.5], [0.5, 0.5, 0.5])
    cfg = HorizonConfig(2, 8, theta=1.7)
    dec = mpc_step(st, win, spec, cfg, beta_es_use=0.0001)
    rec = settle(dec, np.zeros(2), loads[:2], st, cfg)
    assert rec.objective == pytest.approx(dec.tracking_term / cfg.theta,
                                          abs=1e-6)


def test_settle_symmetric_single_period():
    dec = _decision_stub([2.0], 2)
    rec = settle(dec, [0.0], [[2.0, 2.0]], _state(promise=(5.0, 5.0)), None)
    assert rec.key[0] == pytest.approx([1.0, 1.0], abs=1e-8)
    assert rec.delivered == pytest.approx([1.0, 1.0], abs=1e-8)
    assert rec.e_past == pytest.approx([1.0, 1.0], abs=1e-8)


def test_settle_clamps_negative_served_to_zero():
    dec = _decision_stub([1.0, 2.0], 2)
    rec = settle(dec, [-4.0, 0.0], [[1.0, 1.0], [2.0, 1.0]],
                 _state(promise=(3.0, 3.0)), None)
    assert rec.key[0] == pytest.approx([0.0, 0.0], abs=1e-10)
    assert rec.key[1].sum() == pytest.approx(2.0, abs=1e-9)
    assert rec.deviation == pytest.approx([-4.0, 0.0], abs=0.0)


def test_settle_key_feasible_and_balances_history():
    # the settled key must live in the feasible split set, and with enough
    # served energy it should equalize consumers' cumulative positions
    rng = np.random.default_rng(31)
    for _ in range(20):
        tc, n = rng.integers(1, 4), rng.integers(2, 5)
        loads = rng.uniform(0.1, 2.0, (tc, n))
        served = rng.uniform(0.0, 1.2) * loads.sum(1)
        dec = _decision_stub(served, n,
                             tail_expected=rng.uniform(0.0, 1.0, n))
        st = OperationState(0, 0.0, rng.uniform(0.0, 3.0, n),
                            rng.uniform(2.0, 6.0, n),
                            rng.uniform(0.0, 1.0, n))
        rec = settle(dec, np.zeros(tc), loads, st, None)
        assert not check_key(RepartitionKey(rec.key), loads,
                             np.minimum(served, loads.sum(1)))
        assert np.all(rec.e_past >= st.e_past - 1e-12)


# ---------------------------------------------------------------------------
# baselines

def test_rule_based_control_hand_cases():
    spec = StorageSpec(6.0, 10.0, 1.0, 1.0, 0.0, cyclic=False)
    st = _state(soc=0.0)
    assert rule_based_control(st, 10.0, 4.0, spec, 0.5) == (3.0, 0.0)
    assert rule_based_control(st, 0.0, 4.0, spec, 0.5) == (0.0, 0.0)
    assert rule_based_control(st, 4.0, 4.0, spec, 0.5) == (0.0, 0.0)
    # efficiency-adjusted limits: headroom/eta_c when charging,
    # soc * eta_d when discharging
    spec2 = StorageSpec(20.0, 2.0, 0.8, 0.8, 0.5, cyclic=False)
    st2 = _state(soc=1.0)
    c, d = rule_based_control(st2, 10.0, 2.0, spec2, 0.5)
    assert (c, d) == pytest.approx((1.25, 0.0))
    c, d = rule_based_control(st2, 0.0, 5.0, spec2, 0.5)
    assert (c, d) == pytest.approx((0.0, 0.8))


def test_myopic_settle_symmetry_and_surplus():
    key = myopic_settle([2.0], np.array([[2.0, 2.0]]))
    assert key.values[0] == pytest.approx([1.0, 1.0], abs=1e-8)
    key = myopic_settle([10.0], np.array([[1.0, 3.0]]))
    assert key.values[0] == pytest.approx([1.0, 3.0], abs=1e-10)


def test_myopic_settle_matches_variance_oracle():
    rng = np.random.default_rng(41)
    for _ in range(6):
        tc, n = int(rng.integers(1, 3)), int(rng.integers(2, 4))
        loads = rng.uniform(0.2, 2.0, (tc, n))
        served = rng.uniform(0.2, 0.9) * loads.sum(1)
        key = myopic_settle(served, loads)
        totals = key.values.sum(0)
        var = float(totals @ totals / n - totals.mean() ** 2)
        assert var <= _oracle_variance(served, loads) + 2e-6


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
