"""Benefit-split arithmetic and variance-minimal keys, cross-checked by
bisection on the profit curve and by brute-force active-set enumeration."""

import numpy as np
import pytest

from pvpool import allocation
from pvpool.allocation import (AllocationError, _repair_rows, breakeven_prices,
                               gamma_price_map, min_variance_key, net_benefit)
from pvpool.domain import DomainError, LoadMatrix, check_key
from pvpool.numerics import _Standard, solve_qp
from pvpool.sizing import SizingEconomics, SizingResult, investor_profit

from oracles import (assert_same_qp, construct_feasible_key, key_qp_by_rows,
                     qp_active_set_minimum, record_analyses, repair_rows_loop)

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

    investor_root = bisect(lambda p: investor_profit(p, res, bundle.params),
                           -5.0, 5.0)
    assert prices.investor_breakeven == pytest.approx(investor_root, abs=1e-9)

    eco = res.economics

    def savings(p):
        return eco.pvf * (eco.annual_grid_cost_without
                          - eco.annual_grid_cost_with
                          - p * eco.annual_local_energy)

    consumer_root = bisect(savings, -5.0, 5.0)
    assert prices.consumer_breakeven == pytest.approx(consumer_root, abs=1e-9)
    assert prices.investor_breakeven <= prices.consumer_breakeven
    assert prices.consumer_breakeven - prices.investor_breakeven == \
        pytest.approx(consumer_root - investor_root, abs=2e-9)


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


def _random_scenarios(rng, n, t_len, n_scen):
    """One load matrix shared by n_scen scenarios of served energy: only
    the solar is uncertain."""
    served, loads = _random_instance(rng, n, t_len)
    cap = 1.2 * loads.values.sum(axis=1).max()
    return [served] + [rng.uniform(0.0, cap, t_len)
                       for _ in range(n_scen - 1)], loads


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


def test_key_qp_box_is_the_loads_and_presolve_pins_full_and_empty_rows(
        monkeypatch):
    # one 5 x 4 instance with interior, surplus (full) and empty periods:
    # the key QP bounds every split by [0, load], and the solver's
    # presolve pins exactly the full rows, at the loads, and the empty
    # rows, at 0
    rng = np.random.default_rng(61)
    values = rng.uniform(0.2, 2.0, (5, 4))
    totals = values.sum(axis=1)
    served = np.array([0.5, 1.0, 2.0, 0.0, 0.7]) * totals
    seen = capture_qps(monkeypatch, allocation)
    min_variance_key([served], values, np.array([1.0]))
    target = np.minimum(served, totals)
    assert len(seen) == 1
    qp = seen[0]
    assert_same_qp(qp, key_qp_by_rows(np.zeros_like(values), values, target))
    std = _Standard(qp.c, qp.q_diag, qp.a, qp.senses, qp.rhs, qp.lb, qp.ub)
    pinned = std.fixed_mask[:values.size].reshape(values.shape)
    assert pinned.all(axis=1).tolist() == [False, True, True, True, False]
    assert not pinned[[0, 4]].any() and not std.fixed_mask[values.size:].any()
    vals = std.fixed_vals[:values.size].reshape(values.shape)
    assert vals[1:3].tobytes() == values[1:3].tobytes()
    assert not vals[3].any()


def test_a_key_call_analyses_its_key_matrix_once(monkeypatch):
    # one min_variance_key call solves every scenario's key QP on one
    # matrix, analysed once; a QP whose presolve pins a full or an empty
    # period (scenario 1 here) solves a reduced matrix of its own,
    # analysed in that solve
    rng = np.random.default_rng(62)
    values = rng.uniform(0.2, 2.0, (5, 4))
    totals = values.sum(axis=1)
    served = [share * totals for share in
              (np.full(5, 0.5), np.array([0.5, 1.0, 0.0, 0.3, 0.7]),
               np.full(5, 0.8))]
    seen = capture_qps(monkeypatch, allocation)
    made = record_analyses(monkeypatch)
    min_variance_key(served, values, np.full(3, 1.0 / 3.0))
    key = seen[0].a
    assert len(seen) == 3 and all(qp.a is key for qp in seen)
    assert len(made) == 2
    assert made[0][0] is key and made[1][0] is not key
    assert made[1][0].shape[1] < key.shape[1]


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
        served, loads = _random_scenarios(rng, n, t_len, n_scen)
        plan = min_variance_key(served, loads, probs)
        baseline = 0.0
        for widx in range(n_scen):
            key = construct_feasible_key(served[widx], loads)
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
    served, loads = _random_scenarios(rng, n, t_len, n_scen)
    plan = min_variance_key(served, loads, probs)
    expected_promise = np.zeros(n)
    for widx in range(n_scen):
        total = plan.allocations[widx].sum()
        want = np.minimum(served[widx], loads.values.sum(axis=1)).sum()
        assert total == pytest.approx(want, abs=1e-9)
        expected_promise += probs[widx] * plan.allocations[widx]
    assert np.allclose(plan.promise, expected_promise, atol=1e-12)
    assert np.all(plan.promise >= 0.0)


def test_min_variance_takes_one_load_matrix():
    # the loads are shared by every scenario; a per-scenario list is refused
    rng = np.random.default_rng(61)
    served, loads = _random_scenarios(rng, 3, 2, 2)
    with pytest.raises(AllocationError, match="one"):
        min_variance_key(served, [loads.values, loads.values], np.ones(2) / 2)


@pytest.mark.parametrize("served, probs, match", [
    ([np.array([1.0, 0.5])], [5.0], "probabilities sum"),
    ([np.array([1.0, 0.5])], [np.nan], "finite and nonnegative"),
    ([np.array([1.0, 0.5])], [-1.0], "finite and nonnegative"),
    ([], [], "nonempty")])
def test_min_variance_refuses_bad_probabilities(served, probs, match):
    # the promise weights each scenario's totals by its probability: a
    # weight of 5 would promise five times the served energy, a NaN or a
    # negative weight a NaN or negative promise, and no scenario none
    with pytest.raises(DomainError, match=match):
        min_variance_key(served, [[1.0, 2.0], [0.5, 0.5]], probs)


@pytest.mark.parametrize("served, loads, match", [
    ([np.ones(3)], np.ones((4, 2)), r"served_by_scenario\[0\]"),
    ([np.ones((4, 1))], np.ones((4, 2)), r"served_by_scenario\[0\]"),
    ([np.ones(4), [1.0, np.nan, 1.0, 1.0]], np.ones((4, 2)),
     r"served_by_scenario\[1\]"),
    ([np.ones(4)], [[1.0, 1.0]] * 3 + [[np.nan, 1.0]], "loads"),
], ids=["short-row", "column-row", "nan-served", "nan-load"])
def test_min_variance_refuses_bad_served_rows_and_loads(served, loads, match):
    # each served row is a finite vector with one entry per load period
    # and the loads are a load matrix: a short row once raised a raw
    # broadcast error, a column an IndexError, and a NaN a solver error
    probs = np.full(len(served), 1.0 / len(served))
    with pytest.raises(DomainError, match=match):
        min_variance_key(served, loads, probs)


def test_zero_load_consumer_gets_nothing():
    values = np.array([[2.0, 0.0, 3.0], [1.0, 0.0, 1.0]])
    loads = LoadMatrix(values, ("a", "b", "c"))
    plan = min_variance_key([np.array([4.0, 1.5])], loads, np.array([1.0]))
    assert plan.promise[1] == pytest.approx(0.0, abs=1e-9)


def test_subnormal_row_load_is_pinned_empty():
    # a positive row total at most 1e-12 kWh meets both the full and the
    # empty pin; pinning it both ways made the QP's bounds cross
    loads = np.array([[2.2e-311]])
    plan = min_variance_key([np.zeros(1)], loads, np.ones(1))
    assert check_key(plan.keys[0], loads, np.zeros(1)) == []


@pytest.mark.xfail(strict=True, raises=AllocationError,
                   reason="ROADMAP item 2: the key QP stalls on this"
                   " instance and ends iteration_limit")
def test_key_qp_stall_on_a_small_served_row():
    # the three consumers without load make four of the QP's six rows
    # "a_i = constant"; the likely cause of the stall is the solver's
    # separate primal and dual step lengths.  A fix returns the exact key
    loads = np.array([[0.0, 0.0, 0.0, 1.0, 0.25]])
    served = np.array([0.009765625])
    plan = min_variance_key([served], loads, np.ones(1))
    assert check_key(plan.keys[0], loads, served) == []


def test_plan_from_sizing_output():
    bundle, res = _solved_toy()
    plan = min_variance_key([d.to_consumers for d in res.dispatches],
                            bundle.loads, res.probabilities)
    for widx, key in enumerate(plan.keys):
        assert check_key(key, bundle.loads,
                         res.dispatches[widx].to_consumers) == []
    expected_served = sum(p * d.to_consumers.sum()
                          for p, d in zip(res.probabilities, res.dispatches))
    assert plan.promise.sum() == pytest.approx(expected_served, abs=1e-8)


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
