"""Benefit-split arithmetic and variance-minimal keys, cross-checked by
bisection on the profit curve and by brute-force active-set enumeration."""

import numpy as np
import pytest

from pvpool import allocation
from pvpool.allocation import (AllocationError, _repair_rows, breakeven_prices,
                               gamma_price_map, min_variance_key, net_benefit)
from pvpool.domain import LoadMatrix, check_key
from pvpool.numerics import solve_qp
from pvpool.sizing import SizingEconomics, SizingResult, investor_profit

from oracles import (assert_same_qp, construct_feasible_key, key_qp_by_rows,
                     qp_active_set_minimum, repair_rows_loop)

from test_sizing import (_params, _tariff, _toy_bundle, _TOY_CATALOG,
                         _decision_stub, _econ_stub)


def _result_stub(objective, economics):
    return SizingResult(decision=_decision_stub(), dispatches=(),
                        probabilities=np.array([1.0]), objective=objective,
                        economics=economics, flags=())


def _variance(e):
    e = np.asarray(e, dtype=float)
    return float(e @ e / e.size - e.mean() ** 2)


def _solved_toy():
    from pvpool.sizing import solve_sizing
    bundle = _toy_bundle(t_len=6)
    return bundle, solve_sizing(bundle, _TOY_CATALOG)


def test_net_benefit_hand_toy():
    eco = _econ_stub(annual_grid_cost_without=200.0, pvf=1.0)
    assert net_benefit(_result_stub(-180.0, eco)) == pytest.approx(20.0)


def test_net_benefit_zero_without_sun():
    from pvpool.domain import (InputBundle, SolarScenarioSet, TimeGrid)
    from pvpool.sizing import solve_sizing
    t_len = 4
    grid = TimeGrid(delta_hours=1.0, num_periods=t_len, periods_per_year=t_len)
    loads = LoadMatrix(np.full((t_len, 2), 1.0), ("a", "b"))
    scen = SolarScenarioSet(np.zeros((t_len, 1)), np.array([1.0]))
    bundle = InputBundle(grid, loads, scen, _tariff(t_len), _params())
    res = solve_sizing(bundle, _TOY_CATALOG)
    assert net_benefit(res) == pytest.approx(0.0, abs=1e-9)


def test_breakeven_matches_bisection_on_profit():
    bundle, res = _solved_toy()
    prices = breakeven_prices(res, bundle.params)

    def bisect(f, lo, hi):
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if f(lo) * f(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    root = bisect(lambda p: investor_profit(p, res, bundle.params), -5.0, 5.0)
    assert prices.investor_breakeven == pytest.approx(root, abs=1e-9)

    eco = res.economics

    def savings(p):
        return eco.pvf * (eco.annual_grid_cost_without
                          - eco.annual_grid_cost_with
                          - p * eco.annual_local_energy)

    root = bisect(savings, -5.0, 5.0)
    assert prices.consumer_breakeven == pytest.approx(root, abs=1e-9)
    assert prices.investor_breakeven <= prices.consumer_breakeven
    assert prices.width == pytest.approx(
        prices.consumer_breakeven - prices.investor_breakeven)


def test_breakeven_requires_local_energy():
    eco = _econ_stub(annual_local_energy=0.0)
    with pytest.raises(AllocationError, match="no local energy sold"):
        breakeven_prices(_result_stub(0.0, eco), _params())


def test_gamma_table_at_utility_scale():
    # calibrated so the range is [0.10, 0.13] around a 32 k net benefit
    local = 32000.0 / 0.03
    eco = _econ_stub(annual_local_energy=local, capex_total=0.10 * local,
                     annual_grid_cost_without=0.13 * local, pvf=1.0)
    res = _result_stub(-eco.capex_total - eco.annual_grid_cost_with
                       - 0.0, eco)
    params = _params(discount_rate=0.0, horizon_years=1)
    # welfare written directly: -capex - PV(grid cost with system)
    res = _result_stub(-0.10 * local, eco)
    assert net_benefit(res) == pytest.approx(32000.0)
    prices = breakeven_prices(res, params)
    assert prices.investor_breakeven == pytest.approx(0.10)
    assert prices.consumer_breakeven == pytest.approx(0.13)
    p_half = gamma_price_map(res, params, gamma=0.5)
    assert p_half == pytest.approx(0.115)
    assert investor_profit(p_half, res, params) == pytest.approx(16000.0)
    assert gamma_price_map(res, params, gamma=0.0) == pytest.approx(0.10)
    assert gamma_price_map(res, params, gamma=1.0) == pytest.approx(0.13)


def test_gamma_round_trip_identity():
    bundle, res = _solved_toy()
    for gamma in np.linspace(0.0, 1.0, 7):
        p = gamma_price_map(res, bundle.params, gamma=float(gamma))
        back = gamma_price_map(res, bundle.params, price=p)
        assert back == pytest.approx(float(gamma), abs=1e-9)
    prices = breakeven_prices(res, bundle.params)
    for p in np.linspace(prices.investor_breakeven,
                         prices.consumer_breakeven, 5):
        gamma = gamma_price_map(res, bundle.params, price=float(p))
        assert gamma_price_map(res, bundle.params,
                               gamma=gamma) == pytest.approx(float(p), abs=1e-12)


def test_gamma_needs_positive_benefit_and_one_argument():
    eco = _econ_stub(annual_local_energy=10.0, annual_grid_cost_without=5.0)
    res = _result_stub(-5.0, eco)  # net benefit exactly zero
    with pytest.raises(AllocationError, match="nothing to share"):
        gamma_price_map(res, _params(), gamma=0.5)
    with pytest.raises(ValueError):
        gamma_price_map(res, _params())
    with pytest.raises(ValueError):
        gamma_price_map(res, _params(), gamma=0.5, price=0.1)


def test_capex_shift_moves_only_investor_breakeven():
    base = _econ_stub(annual_local_energy=100.0, capex_total=50.0,
                      annual_grid_cost_without=20.0, annual_grid_cost_with=5.0,
                      pvf=2.0)
    shifted = _econ_stub(annual_local_energy=100.0, capex_total=56.0,
                         annual_grid_cost_without=20.0,
                         annual_grid_cost_with=5.0, pvf=2.0)
    params = _params()
    a = breakeven_prices(_result_stub(0.0, base), params)
    b = breakeven_prices(_result_stub(0.0, shifted), params)
    assert b.investor_breakeven - a.investor_breakeven \
        == pytest.approx(6.0 / (2.0 * 100.0))
    assert b.consumer_breakeven == a.consumer_breakeven


def test_construct_feasible_key_hand_rows():
    loads = LoadMatrix(np.array([[2.0, 3.0], [2.0, 2.0], [1.0, 4.0]]),
                       ("a", "b"))
    key = construct_feasible_key(np.array([10.0, 2.0, 3.0]), loads)
    assert np.allclose(key.values[0], [2.0, 3.0])
    assert np.allclose(key.values[1], [1.0, 1.0])
    assert np.allclose(key.values[2], [0.6, 2.4])
    assert check_key(key, loads, np.array([10.0, 2.0, 3.0])) == []
    zero = construct_feasible_key(np.array([5.0]),
                                  LoadMatrix(np.zeros((1, 2)), ("a", "b")))
    assert np.all(zero.values == 0.0)


def test_min_variance_symmetric_split():
    loads = LoadMatrix(np.array([[2.0, 2.0]]), ("a", "b"))
    plan = min_variance_key([np.array([2.0])], loads, np.array([1.0]))
    assert np.allclose(plan.allocations[0], [1.0, 1.0], atol=1e-7)
    assert plan.expected_variance == pytest.approx(0.0, abs=1e-9)


def test_min_variance_matches_segment_scan():
    loads = LoadMatrix(np.array([[1.0, 4.0]]), ("a", "b"))
    plan = min_variance_key([np.array([3.0])], loads, np.array([1.0]))
    # the feasible set is the segment e = (s, 3 - s), s in [0, 1]
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    values = [_variance(np.array([s, 3.0 - s])) for s in grid]
    best = grid[int(np.argmin(values))]
    assert np.allclose(plan.allocations[0], [best, 3.0 - best], atol=1e-4)
    assert np.allclose(plan.allocations[0], [1.0, 2.0], atol=1e-6)
    assert plan.expected_variance == pytest.approx(0.25, abs=1e-8)


def _random_instance(rng, n, t_len):
    values = rng.uniform(0.0, 3.0, (t_len, n))
    values[rng.random((t_len, n)) < 0.15] = 0.0
    loads = LoadMatrix(values, tuple(f"c{i}" for i in range(n)))
    served = rng.uniform(0.0, 1.2 * values.sum(axis=1).max(), t_len)
    return served, loads


def _oracle_variance(served, loads):
    values = loads.values if isinstance(loads, LoadMatrix) else \
        np.asarray(loads, dtype=np.float64)
    t_len, n = values.shape
    target = np.minimum(np.maximum(served, 0.0), values.sum(axis=1))
    mu = target.sum() / n
    nv = t_len * n
    c = np.zeros(nv + n)
    q = np.concatenate([np.zeros(nv), np.full(n, 2.0 / n)])
    lb = np.concatenate([np.zeros(nv), np.full(n, -np.inf)])
    ub = np.concatenate([values.ravel(), np.full(n, np.inf)])
    rows = []
    for t in range(t_len):
        a = np.zeros(nv + n)
        a[t * n:(t + 1) * n] = 1.0
        rows.append((a, "==", float(target[t])))
    for i in range(n):
        a = np.zeros(nv + n)
        a[i:nv:n] = -1.0
        a[nv + i] = 1.0
        rows.append((a, "==", -mu))
    obj, _ = qp_active_set_minimum(c, q, rows, lb, ub)
    return obj


def capture_qps(monkeypatch, module):
    """Record every QP that module hands to solve_qp, solving it as usual."""
    seen = []

    def solve(qp, **kwargs):
        seen.append(qp)
        return solve_qp(qp, **kwargs)

    monkeypatch.setattr(module, "solve_qp", solve)
    return seen


def test_key_qp_blocks_match_row_loop(monkeypatch):
    # one 5 x 4 instance with interior, surplus (pinned) and empty periods
    rng = np.random.default_rng(61)
    values = rng.uniform(0.2, 2.0, (5, 4))
    totals = values.sum(axis=1)
    served = np.array([0.5, 1.0, 2.0, 0.0, 0.7]) * totals
    seen = capture_qps(monkeypatch, allocation)
    min_variance_key([served], values, np.array([1.0]))
    target = np.minimum(served, totals)
    lo = np.where(target[:, None] >= totals[:, None], values, 0.0)
    hi = np.where(target[:, None] <= 0.0, 0.0, values)
    assert len(seen) == 1
    assert_same_qp(seen[0], key_qp_by_rows(lo, hi, target))


def test_min_variance_matches_active_set_oracle():
    rng = np.random.default_rng(41)
    shapes = [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2)] * 4
    for n, t_len in shapes:
        served, loads = _random_instance(rng, n, t_len)
        plan = min_variance_key([served], loads, np.array([1.0]))
        want = _oracle_variance(served, loads)
        assert want is not None
        assert plan.expected_variance == pytest.approx(want, abs=2e-6), (n, t_len)
        assert check_key(plan.keys[0], loads, served) == []


def test_min_variance_beats_proportional_key():
    rng = np.random.default_rng(43)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        t_len = int(rng.integers(1, 5))
        n_scen = int(rng.integers(1, 4))
        probs = rng.uniform(0.2, 1.0, n_scen)
        probs /= probs.sum()
        served = []
        loads = []
        for _ in range(n_scen):
            s, l = _random_instance(rng, n, t_len)
            served.append(s)
            loads.append(l)
        plan = min_variance_key(served, loads, probs)
        baseline = 0.0
        for widx in range(n_scen):
            key = construct_feasible_key(served[widx], loads[widx])
            baseline += probs[widx] * _variance(key.values.sum(axis=0))
        assert plan.expected_variance <= baseline + 1e-9


def test_min_variance_permutation_invariant():
    rng = np.random.default_rng(47)
    served, loads = _random_instance(rng, 3, 3)
    perm = np.array([2, 0, 1])
    shuffled = LoadMatrix(loads.values[:, perm],
                          tuple(loads.consumer_ids[i] for i in perm))
    a = min_variance_key([served], loads, np.array([1.0]))
    b = min_variance_key([served], shuffled, np.array([1.0]))
    assert a.expected_variance == pytest.approx(b.expected_variance, abs=1e-8)


def test_min_variance_scaling_is_quadratic():
    rng = np.random.default_rng(53)
    served, loads = _random_instance(rng, 3, 2)
    scale = 3.7
    scaled = LoadMatrix(scale * loads.values, loads.consumer_ids)
    a = min_variance_key([served], loads, np.array([1.0]))
    b = min_variance_key([scale * served], scaled, np.array([1.0]))
    assert b.expected_variance == pytest.approx(
        scale ** 2 * a.expected_variance, rel=1e-6, abs=1e-8)


def test_min_variance_conserves_served_energy():
    rng = np.random.default_rng(59)
    n, t_len, n_scen = 4, 3, 3
    probs = np.array([0.5, 0.3, 0.2])
    served = []
    loads = []
    for _ in range(n_scen):
        s, l = _random_instance(rng, n, t_len)
        served.append(s)
        loads.append(l)
    plan = min_variance_key(served, loads, probs)
    expected_promise = np.zeros(n)
    for widx in range(n_scen):
        total = plan.allocations[widx].sum()
        want = np.minimum(served[widx],
                          loads[widx].values.sum(axis=1)).sum()
        assert total == pytest.approx(want, abs=1e-9)
        expected_promise += probs[widx] * plan.allocations[widx]
    assert np.allclose(plan.promise, expected_promise, atol=1e-12)
    assert np.all(plan.promise >= 0.0)


def test_zero_load_consumer_gets_nothing():
    values = np.array([[2.0, 0.0, 3.0], [1.0, 0.0, 1.0]])
    loads = LoadMatrix(values, ("a", "b", "c"))
    plan = min_variance_key([np.array([4.0, 1.5])], loads, np.array([1.0]))
    assert plan.promise[1] == pytest.approx(0.0, abs=1e-9)


def test_plan_from_sizing_output():
    bundle, res = _solved_toy()
    plan = min_variance_key([d.to_consumers for d in res.dispatches],
                            bundle.loads, res.probabilities)
    for widx, key in enumerate(plan.keys):
        assert check_key(key, bundle.loads,
                         res.dispatches[widx].to_consumers) == []
    assert plan.promise.sum() == pytest.approx(
        res.expected_served().sum(), abs=1e-8)


def test_repair_rows_matches_row_loop():
    rng = np.random.default_rng(41)
    for _ in range(60):
        t_len, n = int(rng.integers(3, 9)), int(rng.integers(1, 7))
        values = rng.uniform(0.0, 2.0, (t_len, n))
        values[rng.random((t_len, n)) < 0.2] = 0.0  # idle consumers
        raw = values * rng.uniform(-0.3, 1.3, (t_len, n)) \
            + rng.normal(0.0, 0.05, (t_len, n))
        totals = values.sum(axis=1)
        served = totals * rng.uniform(-0.2, 1.4, t_len)
        raw[0] = values[0]  # a full row, served beyond the loads
        served[0] = totals[0] + 1.0
        raw[1] = 0.0  # an empty row that must be filled
        values[2] = 0.0  # a row without load
        want = repair_rows_loop(raw.copy(), served, values)
        got = _repair_rows(raw.copy(), served, values)
        np.testing.assert_array_equal(got, want)
