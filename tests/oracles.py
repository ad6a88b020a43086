"""Slow reference solvers and instance generators for cross-checking.

Everything here trades speed for transparency: vertices and active sets are
enumerated outright, so the answers are trustworthy on tiny instances and
useless beyond them.  Test modules compare the fast interior-point results
against these.
"""

import itertools
import math

import numpy as np

_FEAS_TOL = 1e-9


def _row_ok(a, sense, b, x, tol=_FEAS_TOL):
    v = float(a @ x)
    if sense == "<=":
        return v <= b + tol
    if sense == ">=":
        return v >= b - tol
    return abs(v - b) <= tol


def lp_vertex_minimum(c, rows, lb, ub):
    """Minimize c @ x by enumerating candidate vertices.

    rows is a list of dense (coeffs, sense, rhs) triples; lb/ub are the box.
    Every intersection of n linearly independent faces (constraint rows taken
    at equality, or individual bounds) is tested for feasibility, and the best
    feasible one wins.  Returns (objective, x) or (None, None) when no vertex
    is feasible.  Only meaningful for bounded feasible polytopes.
    """
    c = np.asarray(c, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    n = c.shape[0]
    faces = [(np.asarray(a, dtype=float), float(b)) for a, _, b in rows]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        if np.isfinite(lb[j]):
            faces.append((e.copy(), lb[j]))
        if np.isfinite(ub[j]):
            faces.append((e.copy(), ub[j]))
    best = np.inf
    best_x = None
    for comb in itertools.combinations(range(len(faces)), n):
        amat = np.array([faces[k][0] for k in comb])
        bvec = np.array([faces[k][1] for k in comb])
        if np.linalg.matrix_rank(amat, tol=1e-10) < n:
            continue
        x = np.linalg.solve(amat, bvec)
        if np.any(x < lb - _FEAS_TOL) or np.any(x > ub + _FEAS_TOL):
            continue
        if not all(_row_ok(a, s, b, x) for a, s, b in rows):
            continue
        val = float(c @ x)
        if val < best:
            best = val
            best_x = x.copy()
    if best_x is None:
        return None, None
    return best, best_x


def qp_active_set_minimum(c, q_diag, rows, lb, ub):
    """Minimize 0.5 x'diag(q)x + c'x by enumerating every active set.

    Each variable is tried free / at its lower bound / at its upper bound and
    each inequality row active or inactive; equality rows are always active.
    The stationarity system for each combination is solved by least squares
    and the feasible candidate with the lowest objective wins.  Returns
    (objective, x) or (None, None).
    """
    c = np.asarray(c, dtype=float)
    q_diag = np.asarray(q_diag, dtype=float)
    lb = np.asarray(lb, dtype=float)
    ub = np.asarray(ub, dtype=float)
    n = c.shape[0]
    qmat = np.diag(q_diag)

    var_choices = []
    for j in range(n):
        states = [0]
        if np.isfinite(lb[j]):
            states.append(1)
        if np.isfinite(ub[j]):
            states.append(2)
        var_choices.append(states)
    row_choices = [[1] if s == "==" else [0, 1] for _, s, _ in rows]

    best = np.inf
    best_x = None
    for vs in itertools.product(*var_choices):
        for rs in itertools.product(*row_choices):
            active_a = []
            active_b = []
            for j, st in enumerate(vs):
                if st == 0:
                    continue
                e = np.zeros(n)
                e[j] = 1.0
                active_a.append(e)
                active_b.append(lb[j] if st == 1 else ub[j])
            for (a, _, b), st in zip(rows, rs):
                if st:
                    active_a.append(np.asarray(a, dtype=float))
                    active_b.append(float(b))
            free = [j for j, st in enumerate(vs) if st == 0]
            na = len(active_a)
            # unknowns: x (n) then one multiplier per active constraint
            sys_a = np.zeros((len(free) + na, n + na))
            sys_b = np.zeros(len(free) + na)
            for i, j in enumerate(free):
                sys_a[i, :n] = qmat[j]
                sys_b[i] = -c[j]
                for k in range(na):
                    sys_a[i, n + k] = -active_a[k][j]
            for k in range(na):
                sys_a[len(free) + k, :n] = active_a[k]
                sys_b[len(free) + k] = active_b[k]
            sol, _, _, _ = np.linalg.lstsq(sys_a, sys_b, rcond=None)
            if np.abs(sys_a @ sol - sys_b).max() > 1e-8:
                continue
            x = sol[:n]
            if np.any(x < lb - _FEAS_TOL) or np.any(x > ub + _FEAS_TOL):
                continue
            if not all(_row_ok(a, s, b, x) for a, s, b in rows):
                continue
            val = 0.5 * float(x @ qmat @ x) + float(c @ x)
            if val < best - 1e-12:
                best = val
                best_x = x.copy()
    if best_x is None:
        return None, None
    return best, best_x


def random_bounded_lp(rng, max_vars=5, max_rows=4):
    """Random LP built around a known interior point, so it stays feasible.

    Returns (c, rows, lb, ub) with rows as dense (coeffs, sense, rhs) triples.
    The box is finite, so the instance is always bounded.
    """
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(0, max_rows + 1))
    lb = np.zeros(n)
    ub = rng.uniform(1.0, 3.0, n)
    xbar = rng.uniform(0.0, 1.0, n) * ub
    rows = []
    for _ in range(m):
        a = rng.normal(size=n)
        sense = str(rng.choice(["<=", ">=", "=="]))
        if sense == "<=":
            b = float(a @ xbar) + float(rng.uniform(0.05, 1.0))
        elif sense == ">=":
            b = float(a @ xbar) - float(rng.uniform(0.05, 1.0))
        else:
            b = float(a @ xbar)
        rows.append((a, sense, b))
    c = rng.normal(size=n)
    return c, rows, lb, ub


def random_box_qp(rng, max_vars=3, max_rows=2):
    """Random convex QP with a diagonal Q around an interior point.

    Returns (c, q_diag, rows, lb, ub), or None on about half of the draws
    with n >= 2.  Those draws still consume the random numbers of a rank-one
    term, so the diagonal instances a seed yields stay the same.
    """
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(0, max_rows + 1))
    lb = np.zeros(n)
    ub = rng.uniform(0.5, 2.5, n)
    xbar = rng.uniform(0.0, 1.0, n) * ub
    rows = []
    for _ in range(m):
        a = rng.normal(size=n)
        sense = str(rng.choice(["<=", ">=", "=="]))
        off = float(rng.uniform(0.05, 0.8))
        if sense == "<=":
            b = float(a @ xbar) + off
        elif sense == ">=":
            b = float(a @ xbar) - off
        else:
            b = float(a @ xbar)
        rows.append((a, sense, b))
    c = rng.normal(size=n)
    q = rng.uniform(0.1, 2.0, n)
    if n >= 2 and rng.random() < 0.5:
        rng.normal(size=n)
        rng.uniform(0.1, 1.0)
        return None
    return c, q, rows, lb, ub


def sizing_point_value(bundle, pv_options, es_options, pv_cap, es_pow):
    """Welfare of fixed capacities, priced from scratch via scipy's HiGHS.

    Re-derives the whole economics independently of the package: the cheapest
    admissible inverter pair is chosen by brute force, build cost comes from
    the raw tier list, and each scenario's dispatch is a separate linprog.
    Returns None when no inverter covers the requested capacity.
    """
    from scipy.optimize import linprog

    grid, loads, scen, tariff, params = (bundle.grid, bundle.loads,
                                         bundle.scenarios, bundle.tariff,
                                         bundle.params)
    t_len = grid.num_periods
    delta = grid.delta_hours
    l_agg = loads.aggregate()
    ys = grid.periods_per_year / t_len
    r = params.discount_rate
    pvf = sum((1.0 + r) ** -(a + 1) for a in range(params.horizon_years))

    def cheapest(options, need):
        costs = [0.0] if need <= 1e-12 else []
        costs += [cost for cap, cost in options if cap >= need - 1e-9]
        return min(costs) if costs else None

    pv_inv = cheapest(pv_options, pv_cap)
    es_inv = cheapest(es_options, es_pow)
    if pv_inv is None or es_inv is None:
        return None

    rate = 0.0
    for threshold, tier_rate in bundle.params.beta_pv_tiers:
        if pv_cap >= threshold:
            rate = tier_rate
    build = pv_inv + es_inv + rate * pv_cap + params.beta_es * params.kappa * es_pow
    if pv_cap > 1e-12 or es_pow > 1e-12 or pv_inv > 0 or es_inv > 0:
        build += params.grid_connection_cost

    sub = params.subsidy
    grant = sub.rate_per_kw * pv_cap if pv_cap <= sub.max_capacity_kw else 0.0
    sub_pv = grant * (pvf if sub.annual else 1.0 / (1.0 + r))

    eta = math.sqrt(params.es_roundtrip_efficiency)
    soc0 = 0.5 * params.kappa * es_pow
    dispatch_cost = 0.0
    for widx in range(scen.num_scenarios):
        alpha = scen.alphas[:, widx]
        gen = delta * pv_cap * alpha
        cost = np.concatenate([
            np.full(t_len, params.beta_es_use),
            np.full(t_len, params.beta_es_use),
            tariff.grid_energy_price,
            tariff.export_tax - tariff.export_price,
        ])
        a_eq = np.zeros((t_len + 1, 4 * t_len))
        b_eq = np.zeros(t_len + 1)
        for t in range(t_len):
            a_eq[t, t] = -1.0
            a_eq[t, t_len + t] = 1.0
            a_eq[t, 2 * t_len + t] = 1.0
            a_eq[t, 3 * t_len + t] = -1.0
            b_eq[t] = l_agg[t] - gen[t]
        a_eq[t_len, :t_len] = eta
        a_eq[t_len, t_len:2 * t_len] = -1.0 / eta
        a_ub = np.zeros((2 * t_len, 4 * t_len))
        b_ub = np.zeros(2 * t_len)
        for t in range(t_len):
            a_ub[t, :t + 1] = -eta
            a_ub[t, t_len:t_len + t + 1] = 1.0 / eta
            b_ub[t] = soc0
            a_ub[t_len + t, :t + 1] = eta
            a_ub[t_len + t, t_len:t_len + t + 1] = -1.0 / eta
            b_ub[t_len + t] = params.kappa * es_pow - soc0
        bounds = [(0.0, es_pow * delta)] * (2 * t_len)
        bounds += [(0.0, float(l_agg[t])) for t in range(t_len)]
        bounds += [(0.0, None)] * t_len
        res = linprog(cost, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
                      bounds=bounds, method="highs")
        assert res.status == 0, res.message
        dispatch_cost += scen.probabilities[widx] * res.fun

    fixed_yearly = tariff.fixed_charge * loads.num_consumers * t_len * ys
    return (-build + sub_pv
            - pvf * (params.beta_mnt * pv_cap + fixed_yearly)
            - pvf * ys * dispatch_cost)


def repair_rows_loop(raw, served, values):
    """Row-by-row reference for allocation._repair_rows."""
    out = np.clip(raw, 0.0, values)
    target = np.minimum(np.maximum(served, 0.0), values.sum(axis=1))
    for t in range(out.shape[0]):
        gap = target[t] - out[t].sum()
        if gap > 0.0:
            headroom = np.maximum(values[t] - out[t], 0.0)
            total = headroom.sum()
            if total <= 0.0:
                out[t] = values[t]
            else:
                out[t] += gap * headroom / total
        elif gap < 0.0:
            total = out[t].sum()
            if total > 0.0:
                out[t] += gap * out[t] / total
    return np.clip(out, 0.0, values)


def row_violation_loop(act, senses, rhs):
    """Sense-by-sense reference for numerics._row_violation."""
    viol = np.zeros(len(rhs))
    for i, s in enumerate(senses):
        if s == "<=":
            viol[i] = max(0.0, act[i] - rhs[i])
        elif s == ">=":
            viol[i] = max(0.0, rhs[i] - act[i])
        else:
            viol[i] = abs(act[i] - rhs[i])
    return viol


def control_qp_by_rows(state, window, spec, config, beta_es_use=0.0):
    """Reference build of the control QP of operation.mpc_step, one row at
    a time, interleaving each period's balance, state-of-charge and served
    rows.  Variables come in the same order as in operation._control_qp."""
    from pvpool.numerics import ProblemBuilder

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

    pb = ProblemBuilder()
    c = pb.add_vars(tc, lb=0.0, ub=cap_p, cost=beta_es_use)
    d = pb.add_vars(tc, lb=0.0, ub=cap_p, cost=beta_es_use)
    soc = pb.add_vars(tc, lb=0.0, ub=cap_e)
    gg = pb.add_vars(tc, lb=0.0, ub=head_agg, cost=window.grid_price[:tc])
    gs = pb.add_vars(tc, lb=0.0,
                     cost=window.export_tax[:tc] - window.export_price[:tc])
    ehat = pb.add_vars(tc * n, lb=0.0, ub=window.head_loads.ravel())
    for t in range(tc):
        pb.add_row([gg[t], gs[t], c[t], d[t]], [1.0, -1.0, -1.0, 1.0],
                   "==", head_agg[t] - window.head_gen[t])
        if t == 0:
            pb.add_row([soc[0], c[0], d[0]], [1.0, -eta_c, 1.0 / eta_d],
                       "==", soc0)
        else:
            pb.add_row([soc[t], soc[t - 1], c[t], d[t]],
                       [1.0, -1.0, -eta_c, 1.0 / eta_d], "==", 0.0)
        pb.add_row(np.concatenate([ehat[t * n:(t + 1) * n], [gg[t]]]),
                   np.ones(n + 1), "==", head_agg[t])

    tail_gw = []
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
        for t in range(tt):
            pb.add_row([ggw[t], gsw[t], cw[t], dw[t]], [1.0, -1.0, -1.0, 1.0],
                       "==", tail_agg[t] - window.tail_gen[t, widx])
            prev = soc[tc - 1] if t == 0 else socw[t - 1]
            pb.add_row([socw[t], prev, cw[t], dw[t]],
                       [1.0, -1.0, -eta_c, 1.0 / eta_d], "==", 0.0)
            pb.add_row(np.concatenate([gw[t * n:(t + 1) * n], [ggw[t]]]),
                       np.ones(n + 1), "==", tail_agg[t])
        tail_gw.append(gw)

    theta = config.theta
    if theta > 0.0:
        rhs = state.e_past + state.e_future - state.promise
        deliver = pb.add_vars(n, lb=-np.inf, ub=np.inf, qdiag=2.0 * theta,
                              cost=2.0 * theta * rhs)
        for i in range(n):
            idx = np.concatenate([[deliver[i]], ehat[i::n]]
                                 + [gw[i::n] for gw in tail_gw])
            coef = np.concatenate(
                [[1.0], -np.ones(tc)]
                + [np.full(tt, -window.probabilities[widx])
                   for widx in range(len(tail_gw))])
            pb.add_row(idx, coef, "==", 0.0)
    return pb.qp()


def construct_feasible_key(served, loads):
    """Always-feasible proportional key: scale each period's loads down so
    they sum to the served energy (or hand out the full loads on surplus).
    A baseline that the min-variance key must never lose to."""
    from pvpool.domain import LoadMatrix, RepartitionKey

    served = np.asarray(served, dtype=np.float64)
    values = np.asarray(loads.values if isinstance(loads, LoadMatrix) else loads,
                        dtype=np.float64)
    totals = values.sum(axis=1)
    out = values.copy()
    short = served < totals
    for t in np.flatnonzero(short):
        scale = served[t] / totals[t] if totals[t] > 0.0 else 0.0
        out[t] *= max(scale, 0.0)
    return RepartitionKey(out)


def assert_same_qp(got, want):
    """Bit-for-bit equality of two assembled QPs, rows in the same order."""
    for name in ("c", "q_diag", "lb", "ub", "rhs"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    assert list(got.senses) == list(want.senses)
    assert got.a.shape == want.a.shape
    for name in ("indptr", "indices", "data"):
        assert getattr(got.a, name).tobytes() == getattr(want.a, name).tobytes(), name


def _split_qp_by_rows(values, lb, ub, target, qdiag, cost, rhs):
    from pvpool.numerics import ProblemBuilder

    t_len, n = values.shape
    pb = ProblemBuilder()
    evars = pb.add_vars(t_len * n, lb=lb, ub=ub)
    aux = pb.add_vars(n, lb=-np.inf, ub=np.inf, qdiag=qdiag, cost=cost)
    for t in range(t_len):
        pb.add_row(evars[t * n:(t + 1) * n], np.ones(n), "==", target[t])
    for i in range(n):
        pb.add_row(np.concatenate([[aux[i]], evars[i::n]]),
                   np.concatenate([[1.0], -np.ones(t_len)]), "==", rhs)
    return pb.qp()


def settle_qp_by_rows(values, target, rhs):
    """Row-by-row reference for the QP that operation.settle solves."""
    return _split_qp_by_rows(values, 0.0, values.ravel(), target, 2.0,
                             2.0 * rhs, 0.0)


def key_qp_by_rows(lo, hi, target):
    """Row-by-row reference for the per-scenario QP of
    allocation.min_variance_key."""
    n = lo.shape[1]
    return _split_qp_by_rows(lo, lo.ravel(), hi.ravel(), target, 2.0 / n,
                             0.0, -(target.sum() / n))


def soc_recursion_rows(spec, t_len, delta_hours):
    """The battery as the optimization models state it, over x = [c; d; s].

    s_t is the state of charge after period t, tied to the one before by
    s_t - s_{t-1} - eta_c c_t + d_t / eta_d = 0 from s_{-1} = the initial
    charge; a cyclic spec adds s_{T-1} = the initial charge.  Returns dense
    (coeffs, sense, rhs) rows plus the bounds 0 <= c, d <= power cap * delta
    and 0 <= s <= energy cap.
    """
    n = 3 * t_len
    soc0 = spec.initial_soc_kwh
    rows = []
    for t in range(t_len):
        a = np.zeros(n)
        a[2 * t_len + t] = 1.0
        if t:
            a[2 * t_len + t - 1] = -1.0
        a[t] = -spec.charge_efficiency
        a[t_len + t] = 1.0 / spec.discharge_efficiency
        rows.append((a, "==", soc0 if t == 0 else 0.0))
    if spec.cyclic:
        a = np.zeros(n)
        a[n - 1] = 1.0
        rows.append((a, "==", soc0))
    lb = np.zeros(n)
    ub = np.concatenate([np.full(2 * t_len, spec.power_cap_kw * delta_hours),
                         np.full(t_len, spec.energy_cap_kwh)])
    return rows, lb, ub
