"""Battery model tests: recursion values, checker, and the state-of-charge
rows of the optimization models against the checker."""

import itertools
import math

import numpy as np
import pytest

from pvpool.domain import DomainError, TimeGrid
from pvpool.numerics import LinearProgram, solve_lp
from pvpool.operation import (HorizonConfig, HorizonWindow, OperationState,
                              _control_qp)
from pvpool.storage import StorageSpec, check_feasible, soc_trajectory

from oracles import soc_recursion_rows


def _spec(**kwargs):
    base = dict(power_cap_kw=10.0, energy_cap_kwh=20.0,
                initial_soc_fraction=0.0, cyclic=False)
    base.update(kwargs)
    return StorageSpec(**base)


def _scalar_recheck(spec, c, d, delta_hours):
    """Independent loop-based feasibility verdict (no shared code paths)."""
    limit = spec.power_cap_kw * delta_hours
    soc = spec.initial_soc_fraction * spec.energy_cap_kwh
    first = soc
    states = [soc]
    for ct, dt in zip(c, d):
        if ct < -1e-9 or dt < -1e-9 or ct > limit + 1e-9 or dt > limit + 1e-9:
            return False
        soc = soc + spec.charge_efficiency * ct - dt / spec.discharge_efficiency
        states.append(soc)
    if any(s < -1e-9 or s > spec.energy_cap_kwh + 1e-9 for s in states):
        return False
    if spec.cyclic and abs(states[-1] - first) > 1e-8:
        return False
    return True


def test_idle_battery_holds_charge():
    spec = _spec(initial_soc_fraction=0.5)
    soc = soc_trajectory(spec, np.zeros(6), np.zeros(6))
    np.testing.assert_allclose(soc, 10.0)


def test_lossless_round_trip():
    spec = _spec(charge_efficiency=1.0, discharge_efficiency=1.0,
                 energy_cap_kwh=10.0)
    soc = soc_trajectory(spec, np.array([4.0, 0.0]), np.array([0.0, 4.0]))
    np.testing.assert_allclose(soc, [0.0, 4.0, 0.0])


def test_round_trip_efficiency_is_ninety_percent():
    eta = math.sqrt(0.9)
    spec = _spec(charge_efficiency=eta, discharge_efficiency=eta)
    charge = np.array([10.0, 0.0])
    # drain exactly back to empty: d = eta_d * (eta_c * 10)
    discharge = np.array([0.0, 0.9 * 10.0])
    soc = soc_trajectory(spec, charge, discharge)
    assert soc[1] == pytest.approx(10.0 * eta)
    assert soc[2] == pytest.approx(0.0, abs=1e-12)
    assert discharge.sum() / charge.sum() == pytest.approx(0.9)


def test_check_feasible_accepts_zeros():
    assert check_feasible(_spec(), np.zeros(5), np.zeros(5), 0.5) == []


def test_check_feasible_flags_power_breach():
    c = np.zeros(5)
    c[3] = _spec().power_cap_kw * 0.5 + 1.0
    problems = check_feasible(_spec(), c, np.zeros(5), 0.5)
    assert len(problems) == 1
    assert "period 3" in problems[0]
    assert "power limit" in problems[0]


def test_check_feasible_flags_soc_and_cyclic():
    spec = _spec(energy_cap_kwh=5.0, charge_efficiency=1.0,
                 discharge_efficiency=1.0, cyclic=True)
    problems = check_feasible(spec, np.array([6.0]), np.zeros(1), 1.0)
    assert any("energy cap" in p for p in problems)
    assert any("differs from initial" in p for p in problems)


def test_check_feasible_matches_scalar_recheck():
    rng = np.random.default_rng(3)
    for _ in range(500):
        t = int(rng.integers(1, 9))
        spec = StorageSpec(power_cap_kw=float(rng.uniform(0, 8)),
                           energy_cap_kwh=float(rng.uniform(0, 12)),
                           charge_efficiency=float(rng.uniform(0.7, 1.0)),
                           discharge_efficiency=float(rng.uniform(0.7, 1.0)),
                           initial_soc_fraction=float(rng.uniform(0, 1)),
                           cyclic=bool(rng.random() < 0.5))
        delta = float(rng.uniform(0.25, 1.0))
        limit = spec.power_cap_kw * delta
        c = rng.uniform(0, 1.4 * limit + 0.1, t)
        d = rng.uniform(0, 1.4 * limit + 0.1, t)
        assert (check_feasible(spec, c, d, delta) == []) == \
            _scalar_recheck(spec, c, d, delta)


def test_lp_constraint_count():
    # one recursion row per period, plus the cyclic closure; each period
    # holds 4 nonzeros (3 in the first), so rows and nonzeros grow as T
    for t_len in (1, 3, 48):
        for cyclic in (False, True):
            rows, _, _ = soc_recursion_rows(_spec(cyclic=cyclic), t_len, 0.5)
            assert len(rows) == t_len + cyclic
            nnz = sum(int(np.count_nonzero(a)) for a, _, _ in rows)
            assert nnz == 4 * t_len - 1 + cyclic


def test_reference_rows_match_control_qp():
    # the reference rows are the state-of-charge block that mpc_step solves
    t_len, n = 3, 2
    spec = StorageSpec(3.0, 6.0, 0.93, 0.92, 0.4, cyclic=False)
    rng = np.random.default_rng(5)
    loads = rng.uniform(0.2, 2.5, (t_len, n))
    win = HorizonWindow(0.5, loads, rng.uniform(0.0, 3.0, t_len),
                        np.zeros((0, n)), np.zeros((0, 1)), np.array([1.0]),
                        np.full(t_len, 0.2), np.full(t_len, 0.05),
                        np.zeros(t_len))
    st = OperationState(0, spec.initial_soc_kwh, np.zeros(n), np.zeros(n),
                        np.ones(n))
    qp, _, _ = _control_qp(st, win, spec, HorizonConfig(t_len, t_len,
                                                         theta=0.0), 0.0)
    rows, lb, ub = soc_recursion_rows(spec, t_len, 0.5)
    block = qp.a.toarray()[t_len:2 * t_len]  # after the balance rows
    np.testing.assert_array_equal(block[:, 3 * t_len:], 0.0)
    np.testing.assert_array_equal(block[:, :3 * t_len],
                                  np.array([a for a, _, _ in rows]))
    assert list(qp.senses[t_len:2 * t_len]) == [s for _, s, _ in rows]
    np.testing.assert_array_equal(qp.rhs[t_len:2 * t_len],
                                  [b for _, _, b in rows])
    np.testing.assert_array_equal(qp.lb[:3 * t_len], lb)
    np.testing.assert_array_equal(qp.ub[:3 * t_len], ub)


def _recursion_lp(spec, t_len, delta_hours, cost_cd):
    rows, lb, ub = soc_recursion_rows(spec, t_len, delta_hours)
    cost = np.concatenate([cost_cd, np.zeros(t_len)])
    return LinearProgram(cost, np.array([a for a, _, _ in rows]),
                         [s for _, s, _ in rows], [b for _, _, b in rows],
                         lb, ub)


def test_zero_power_cap_pins_dispatch_to_zero():
    spec = _spec(power_cap_kw=0.0)
    rep = solve_lp(_recursion_lp(spec, 2, 1.0, np.full(4, -1.0)))
    assert rep.status == "optimal"
    np.testing.assert_allclose(rep.x[:4], 0.0, atol=1e-9)


def _rows_satisfied(rows, lb, ub, c, d, tol=1e-9):
    """Whether (c, d) is feasible for the reference rows: the recursion
    rows, unit-triangular in s, fix s; then every row and bound must hold."""
    t_len = c.shape[0]
    amat = np.array([a for a, _, _ in rows])
    rhs = np.array([b for _, _, b in rows])
    cd = np.concatenate([c, d])
    s = np.linalg.solve(amat[:t_len, 2 * t_len:],
                        rhs[:t_len] - amat[:t_len, :2 * t_len] @ cd)
    x = np.concatenate([cd, s])
    return bool(np.all(np.abs(amat @ x - rhs) <= tol)
                and np.all(x >= lb - tol) and np.all(x <= ub + tol))


def test_rows_and_checker_agree_on_samples():
    rng = np.random.default_rng(17)
    for _ in range(40):
        t = int(rng.integers(1, 9))
        spec = StorageSpec(power_cap_kw=float(rng.uniform(0.5, 6)),
                           energy_cap_kwh=float(rng.uniform(1, 10)),
                           charge_efficiency=float(rng.uniform(0.7, 1.0)),
                           discharge_efficiency=float(rng.uniform(0.7, 1.0)),
                           initial_soc_fraction=float(rng.uniform(0, 1)),
                           cyclic=bool(rng.random() < 0.5))
        grid = TimeGrid(float(rng.uniform(0.25, 1.0)), t)
        rows, lb, ub = soc_recursion_rows(spec, t, grid.delta_hours)
        limit = spec.power_cap_kw * grid.delta_hours
        for _ in range(25):
            c = rng.uniform(0, 1.3 * limit, t)
            d = rng.uniform(0, 1.3 * limit, t)
            by_rows = _rows_satisfied(rows, lb, ub, c, d, tol=1e-8)
            by_check = check_feasible(spec, c, d, grid.delta_hours, tol=1e-8) == []
            assert by_rows == by_check


def test_rows_and_checker_agree_on_vertices():
    # every vertex of the row polytope must pass the checker exactly: all
    # equality rows active, the other faces picked among the bounds
    rng = np.random.default_rng(23)
    for _ in range(6):
        t = 2
        spec = StorageSpec(power_cap_kw=float(rng.uniform(1, 4)),
                           energy_cap_kwh=float(rng.uniform(2, 6)),
                           charge_efficiency=float(rng.uniform(0.8, 1.0)),
                           discharge_efficiency=float(rng.uniform(0.8, 1.0)),
                           initial_soc_fraction=float(rng.uniform(0, 1)),
                           cyclic=bool(rng.random() < 0.5))
        grid = TimeGrid(0.5, t)
        rows, lb, ub = soc_recursion_rows(spec, t, grid.delta_hours)
        n = 3 * t
        eq = [(a, b) for a, _, b in rows]
        faces = []
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            faces.append((e, lb[j]))
            faces.append((e, ub[j]))
        found = 0
        for comb in itertools.combinations(range(len(faces)), n - len(eq)):
            picked = eq + [faces[k] for k in comb]
            amat = np.array([f[0] for f in picked])
            bvec = np.array([f[1] for f in picked])
            if np.linalg.matrix_rank(amat, tol=1e-10) < n:
                continue
            x = np.linalg.solve(amat, bvec)
            if not _rows_satisfied(rows, lb, ub, x[:t], x[t:2 * t], tol=1e-8):
                continue
            found += 1
            assert check_feasible(spec, x[:t], x[t:2 * t], grid.delta_hours,
                                  tol=1e-7) == []
        assert found > 0


def test_enlarging_caps_never_shrinks_feasible_set():
    rng = np.random.default_rng(31)
    spec = _spec(power_cap_kw=3.0, energy_cap_kwh=6.0,
                 initial_soc_fraction=0.3, cyclic=False)
    bigger = StorageSpec(5.0, 9.0, spec.charge_efficiency,
                         spec.discharge_efficiency, 0.2, False)
    # same absolute initial charge so only the envelope grows
    bigger = bigger.with_initial_soc(spec.initial_soc_kwh)
    for _ in range(200):
        c = rng.uniform(0, 2.0, 4)
        d = rng.uniform(0, 2.0, 4)
        if check_feasible(spec, c, d, 0.5) == []:
            assert check_feasible(bigger, c, d, 0.5) == []


def test_lossless_cyclic_balances_charge_and_discharge():
    spec = StorageSpec(4.0, 8.0, 1.0, 1.0, 0.5, cyclic=True)
    rng = np.random.default_rng(47)
    for _ in range(20):
        rep = solve_lp(_recursion_lp(spec, 4, 1.0, rng.normal(size=8)))
        assert rep.status == "optimal"
        c, d = rep.x[:4], rep.x[4:8]
        assert c.sum() == pytest.approx(d.sum(), abs=1e-7)


def test_spec_validation():
    with pytest.raises(DomainError):
        StorageSpec(-1.0, 5.0)
    with pytest.raises(DomainError):
        StorageSpec(1.0, 5.0, charge_efficiency=1.2)
    with pytest.raises(DomainError):
        StorageSpec(1.0, 5.0, initial_soc_fraction=1.5)


def test_with_initial_soc_clamps_to_envelope():
    spec = _spec(energy_cap_kwh=10.0)
    assert spec.with_initial_soc(25.0).initial_soc_kwh == pytest.approx(10.0)
    assert spec.with_initial_soc(4.0, cyclic=True).cyclic is True
    empty = StorageSpec(0.0, 0.0)
    assert empty.with_initial_soc(1.0).initial_soc_kwh == 0.0
