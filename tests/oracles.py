"""Slow reference solvers and instance generators for cross-checking.

Everything here trades speed for transparency: vertices and active sets are
enumerated outright, so the answers are trustworthy on tiny instances and
useless beyond them.  Test modules compare the fast interior-point results
against these.  `record_analyses` lists the analyses the solver makes.
"""

import itertools
import math

import numpy as np
import scipy.sparse as sp

from pvpool import numerics, sizing
from pvpool.numerics import ProblemBuilder, solve_qp

_FEAS_TOL = 1e-9


def record_analyses(monkeypatch):
    """A list that gets one (matrix, analysis) pair for each analysis the
    solver makes from now on (`numerics._Analysis`), in order."""
    made = []
    init = numerics._Analysis.__init__

    def recording(self, a, cut=None):
        made.append((a, self))
        init(self, a, cut)

    monkeypatch.setattr(numerics._Analysis, "__init__", recording)
    return made


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
            # each equation must hold relative to its own terms, up to the
            # solve's rounding, which is relative to the largest row's: an
            # absolute test takes a set that is inconsistent by less than
            # its tolerance, such as x1 = x2 = 0 beside x1 + x2 = 2.5e-9
            terms = np.abs(sys_b) + np.abs(sys_a) @ np.abs(sol)
            if np.any(np.abs(sys_a @ sol - sys_b)
                      > 1e-10 * terms + 1e-14 * terms.max(initial=0.0)):
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


def solve_combo(bundle, pv_lo, pv_hi, es_hi, tier_rate, sub_rate, es_lo=0.0):
    """One enumerated combination as one joint LP over capacities and
    dispatch: the reference for the cuts of `sizing.CutPool`.

    Variables are the PV capacity p_pv, the storage power p_es (energy
    capacity kappa * p_es) and, per scenario and period, charge c_t,
    discharge d_t, grid import, surplus and the state of charge s_t after
    the period.  Per scenario the rows are the energy balance, the power
    caps c_t, d_t <= delta * p_es, the recursion
    s_t - s_{t-1} - eta c_t + d_t / eta = 0 starting from
    s_{-1} = kappa p_es / 2, the energy cap s_t <= kappa p_es and the
    cyclic closure s_{T-1} = kappa p_es / 2 (the same recursion mpc_step
    uses), so rows and nonzeros grow linearly in T.

    Returns (pv_capacity, es_power, [(charge, discharge) per scenario],
    [(raw import, raw surplus) per scenario]) at the optimum.
    """
    lp, p_pv, p_es, per_scenario = joint_sizing_lp(
        bundle, pv_lo, pv_hi, es_hi, tier_rate, sub_rate, es_lo)
    rep = solve_qp(lp, tol=1e-9)
    if rep.status != "optimal":
        raise sizing.SizingError(
            f"planning subproblem ended {rep.status} after {rep.iterations} "
            f"iterations (primal residual {rep.primal_residual:.3g}, dual "
            f"residual {rep.dual_residual:.3g}, gap {rep.duality_gap:.3g}; "
            f"pv in [{pv_lo:.6g}, {pv_hi:.6g}], es in [{es_lo:.6g}, {es_hi:.6g}])",
            rep)
    x = rep.x
    delta = bundle.grid.delta_hours
    pv_cap = sizing._snap(float(np.clip(x[p_pv[0]], pv_lo, pv_hi)), pv_lo, pv_hi)
    es_pow = sizing._snap(float(np.clip(x[p_es[0]], es_lo, es_hi)), es_lo, es_hi)
    limit = es_pow * delta
    if pv_cap == 0.0:
        # Without PV the battery has nothing to charge from (import is capped
        # at the load), so the optimum leaves it idle at its smallest power.
        # Solver fuzz there (power ~1e-7 kW, charge a hair above discharge)
        # would make split_flows serve negative energy.
        es_pow = es_lo
        limit = 0.0
    dispatch_raw = []
    flows_raw = []
    for c, d, gg, gs in per_scenario:
        cv = np.clip(x[c], 0.0, limit)
        dv = np.clip(x[d], 0.0, limit)
        dispatch_raw.append((cv, dv))
        flows_raw.append((np.maximum(x[gg], 0.0), np.maximum(x[gs], 0.0)))
    return pv_cap, es_pow, dispatch_raw, flows_raw


def joint_sizing_lp(bundle, pv_lo, pv_hi, es_hi, tier_rate, sub_rate, es_lo=0.0):
    """The joint LP of `solve_combo`: (lp, p_pv, p_es, [(c, d, import,
    surplus) variable indices per scenario])."""
    grid, loads, scen, tariff, params = (bundle.grid, bundle.loads,
                                         bundle.scenarios, bundle.tariff,
                                         bundle.params)
    t_len = grid.num_periods
    delta = grid.delta_hours
    l_agg = loads.aggregate()
    probs = scen.probabilities
    ys = grid.periods_per_year / t_len
    pvf = params.present_value_factor()
    w = pvf * ys
    eta = math.sqrt(params.es_roundtrip_efficiency)
    kappa = params.kappa
    sub_factor = sizing.subsidy_present_value(1.0, params)

    pb = ProblemBuilder()
    p_pv = pb.add_vars(1, lb=pv_lo, ub=pv_hi,
                       cost=tier_rate + pvf * params.beta_mnt - sub_factor * sub_rate)
    p_es = pb.add_vars(1, lb=es_lo, ub=es_hi, cost=params.beta_es * kappa)
    pv_col = np.full(t_len, p_pv[0])
    es_col = np.full(t_len, p_es[0])
    ones = np.ones(t_len)
    # the period before the first is the half-full battery kappa p_es / 2
    prev_coef = np.concatenate([[-0.5 * kappa], -ones[1:]])
    per_scenario = []
    for widx in range(scen.num_scenarios):
        prob = probs[widx]
        alpha = scen.alphas[:, widx]
        c = pb.add_vars(t_len, lb=0.0, cost=prob * w * params.beta_es_use)
        d = pb.add_vars(t_len, lb=0.0, cost=prob * w * params.beta_es_use)
        # import never exceeds the load: the battery charges from solar only
        gg = pb.add_vars(t_len, lb=0.0, ub=l_agg,
                         cost=prob * w * tariff.grid_energy_price)
        gs = pb.add_vars(t_len, lb=0.0,
                         cost=prob * w * (tariff.export_tax - tariff.export_price))
        soc = pb.add_vars(t_len, lb=0.0)
        pb.add_rows(np.column_stack([gg, gs, c, d, pv_col]),
                    np.column_stack([ones, -ones, -ones, ones, delta * alpha]),
                    "==", l_agg)
        pb.add_rows(np.column_stack([c, es_col]), [1.0, -delta], "<=", 0.0)
        pb.add_rows(np.column_stack([d, es_col]), [1.0, -delta], "<=", 0.0)
        prev = np.concatenate([p_es, soc[:-1]])
        pb.add_rows(np.column_stack([soc, prev, c, d]),
                    np.column_stack([ones, prev_coef, -eta * ones, ones / eta]),
                    "==", 0.0)
        pb.add_rows(np.column_stack([soc, es_col]), [1.0, -kappa], "<=", 0.0)
        pb.add_row([soc[-1], p_es[0]], [1.0, -0.5 * kappa], "==", 0.0)
        per_scenario.append((c, d, gg, gs))

    return pb.qp(), p_pv, p_es, per_scenario


def joint_lp_sizing(bundle, catalog, pv_capacity_fixed=None, es_power_fixed=None):
    """`sizing.solve_sizing` with one joint LP per combination (`solve_combo`)
    and the same enumeration, candidates and tie-break."""
    params = bundle.params
    best = best_key = None
    for combo in sizing._combinations(bundle, catalog, pv_capacity_fixed,
                                      es_power_fixed):
        tier_rate = sizing._pv_brackets(params)[combo.tier][2]
        sub_rate = sizing._subsidy_branches(params)[combo.branch][2]
        pv_cap, es_pow, draw, fraw = solve_combo(
            bundle, combo.pv_lo, combo.pv_hi, combo.es_hi, tier_rate, sub_rate,
            combo.es_lo)
        cand = sizing._build_candidate(bundle, pv_cap, es_pow, draw, fraw,
                                       combo.pv_opt, combo.es_opt)
        key = (-cand.objective, cand.economics.capex_total,
               cand.decision.pv_capacity_kw)
        if best is None or sizing._candidate_beats(key, best_key):
            best, best_key = cand, key
    return best


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


def step_to_boundary_masked(value, rate, unbounded, damp):
    """Masked-divide reference for numerics._step_to_boundary: the ratio
    value / rate only where rate < 0, -inf elsewhere and on unbounded."""
    ratio = np.divide(value, rate, out=np.full(value.shape, -np.inf),
                      where=rate < 0)
    ratio[unbounded] = -np.inf
    return min(1.0 / damp, -float(ratio.max()))


def boxed_separable_by_loop(c, q, lb, ub):
    """The closed form of numerics._solve_boxed_separable, one coordinate at
    a time with Python's max and min: x, or None when some coordinate is
    unbounded below."""
    x = np.zeros(c.shape[0])
    for i in range(c.shape[0]):
        if q[i] > 0:
            x[i] = min(max(-c[i] / q[i], lb[i]), ub[i])
        elif c[i] > 0:
            if not np.isfinite(lb[i]):
                return None
            x[i] = lb[i]
        elif c[i] < 0:
            if not np.isfinite(ub[i]):
                return None
            x[i] = ub[i]
        else:
            x[i] = min(max(0.0, lb[i]), ub[i])
    return x


def _standard_rows(a, senses, lb, ub):
    """The standard form's rows of a canonical CSR matrix, one list of
    (column, coefficient) per row in storage order, and its bounds: each
    inequality row gets a slack, +1 on <= and -1 on >=, in [0, inf),
    stored after the row's own entries."""
    m, n = a.shape
    rows = [list(zip(a.indices[a.indptr[i]:a.indptr[i + 1]].tolist(),
                     a.data[a.indptr[i]:a.indptr[i + 1]].tolist()))
            for i in range(m)]
    lb, ub = [float(v) for v in lb], [float(v) for v in ub]
    for i in range(m):
        if senses[i] != "==":
            rows[i].append((len(lb), 1.0 if senses[i] == "<=" else -1.0))
            lb.append(0.0)
            ub.append(math.inf)
    return rows, lb, ub


def presolve_by_rows(a, senses, rhs, lb, ub):
    """Presolve of numerics._Standard, one row and one entry at a time.

    a is a canonical CSR matrix.  Each pass sums, for every row, its
    pinned variables' terms into an effective right-hand side and its free
    variables' terms into the activity bounds (a positive coefficient
    times the upper bound into the maximum, and so on), in storage order
    from 0.0, with a NaN bound read as infinite.  A row not yet settled
    whose bounds miss its right-hand side by more than 1e-10 (1 + |b|)
    makes the problem infeasible; one whose finite maximum (minimum)
    meets it forces its free variables up (down): each to the bound at
    which its term is largest (smallest), the row's first entry on a
    variable winning.  The pass settles its forcing rows and pins their
    variables; the passes stop when no forcing row holds a free variable.

    Returns (infeasible, fixed, vals, passes): fixed and vals over the
    standard form's variables, and per pass the tuples (row, column,
    coefficient, upward) of the variables it pinned, by column.
    """
    rows, lb, ub = _standard_rows(a, senses, lb, ub)
    fixed = [lo == hi for lo, hi in zip(lb, ub)]
    vals = [lo if pin else 0.0 for lo, pin in zip(lb, fixed)]
    settled = [False] * len(rows)
    passes = []
    while rows and any(rows):
        forcing = []
        for i, entries in enumerate(rows):
            pinned = top = bottom = 0.0
            for j, coef in entries:
                if fixed[j]:
                    pinned += coef * vals[j]
                else:
                    top += coef * (ub[j] if coef > 0 else lb[j])
                    bottom += coef * (lb[j] if coef > 0 else ub[j])
            top = math.inf if math.isnan(top) else top
            bottom = -math.inf if math.isnan(bottom) else bottom
            b_eff = float(rhs[i]) - pinned
            tol = 1e-10 * (1.0 + abs(b_eff))
            if settled[i]:
                continue
            if bottom > b_eff + tol or top < b_eff - tol:
                return True, fixed, vals, passes
            up = math.isfinite(top) and top <= b_eff + tol
            if up or (math.isfinite(bottom) and bottom >= b_eff - tol):
                forcing.append((i, up))
        pins = {}
        for i, up in forcing:
            for j, coef in rows[i]:
                if not fixed[j] and j not in pins:
                    pins[j] = (i, coef, up)
        if not pins:
            break
        for i, _ in forcing:
            settled[i] = True
        done = []
        for j in sorted(pins):
            i, coef, up = pins[j]
            fixed[j] = True
            vals[j] = ub[j] if up == (coef > 0) else lb[j]
            done.append((i, j, coef, up))
        passes.append(done)
    return False, fixed, vals, passes


def postsolve_by_rows(a, senses, c, qdiag, fixed, vals, passes, x, y, zl, zu):
    """Postsolve of numerics._Standard.duals, one entry at a time, from
    presolve_by_rows's pins and passes and a point (x, y, zl, zu) of the
    reduced problem (y over every row).

    The passes are undone last first.  Each pinned variable j of a pass
    has the ratio (c_j + q_j x_j - sum_k a_kj y_k) / a_ij, its column
    summed by row from 0.0 with the duals before the pass; its row i
    takes the largest of 0 and those ratios when it forced upward, the
    smallest when downward.  A pinned variable's reduced cost then goes
    to zl when positive and to zu when negative.  Returns (y, zl, zu) over
    the original rows and variables.
    """
    n = a.shape[1]
    rows, _, _ = _standard_rows(a, senses, [0.0] * n, [0.0] * n)
    if not any(fixed):
        return [float(v) for v in y], list(zl[:n]), list(zu[:n])
    free = [j for j, pin in enumerate(fixed) if not pin]
    x_full = list(vals)
    for j, v in zip(free, x):
        x_full[j] = float(v)
    y = [float(v) for v in y]
    # slacks cost nothing
    c = [float(v) for v in c] + [0.0] * (len(fixed) - n)
    qdiag = [float(v) for v in qdiag] + [0.0] * (len(fixed) - n)

    def reduced(j):
        column = 0.0
        for k, entries in enumerate(rows):
            for col, coef in entries:
                if col == j:
                    column += coef * y[k]
        return c[j] + qdiag[j] * x_full[j] - column

    for done in reversed(passes):
        ratios = [(i, reduced(j) / coef, up) for i, j, coef, up in done]
        bound = {}
        for i, ratio, up in ratios:
            old = bound.get(i, 0.0)
            bound[i] = max(old, ratio) if up else min(old, ratio)
        for i, value in bound.items():
            y[i] = value
    zl_full, zu_full = [0.0] * len(fixed), [0.0] * len(fixed)
    for j, pin in enumerate(fixed):
        if pin:
            r = reduced(j)
            zl_full[j], zu_full[j] = max(r, 0.0), max(-r, 0.0)
    for j, lo, hi in zip(free, zl, zu):
        zl_full[j], zu_full[j] = float(lo), float(hi)
    return y, zl_full[:n], zu_full[:n]


def random_presolve_problem(rng):
    """A small problem for presolve, as the fields (c, qdiag, a, senses,
    rhs, lb, ub) of a ConvexQuadraticProgram, with a canonical CSR a.

    Coefficients of both signs; boxes, one-sided and free variables, and
    variables fixed by lb == ub.  Rows are drawn one at a time, and each
    right-hand side is set by presolve_by_rows's pins on the rows before
    it: strictly inside the row's activity range, at its maximum or
    minimum (a forcing row, which cascades when the row holds a variable
    an earlier row pinned), or beyond it (infeasible).  A row may also be
    an earlier row scaled, which forces in the same pass on the same
    variables, or a row over pinned variables alone, which forces none.
    """
    n, m = int(rng.integers(3, 9)), int(rng.integers(1, 7))
    lb = rng.integers(-3, 2, n).astype(float)
    ub = lb + rng.integers(0, 4, n)
    kind = rng.random(n)
    lb[kind < 0.15] = -np.inf
    ub[(kind > 0.1) & (kind < 0.25)] = np.inf
    dense = np.zeros((m, n))
    senses, rhs = [], []
    flip = {"==": "==", "<=": ">=", ">=": "<="}
    for i in range(m):
        _, fixed, vals, _ = presolve_by_rows(sp.csr_matrix(dense[:i]),
                                             senses[:i], rhs, lb, ub)
        mode = rng.choice(["inside", "top", "bottom", "beyond", "twin",
                           "pinned"], p=[0.25, 0.25, 0.25, 0.08, 0.1, 0.07])
        if mode == "twin" and i:
            r, scale = int(rng.integers(i)), float(rng.choice([-2.0, -1.0,
                                                                0.5]))
            dense[i] = scale * dense[r]
            senses.append(senses[r] if scale > 0 else flip[senses[r]])
            rhs.append(scale * rhs[r])
            continue
        pins = np.flatnonzero(fixed[:n])
        if mode == "pinned" and pins.size:
            cols = rng.choice(pins, min(pins.size, int(rng.integers(1, 4))),
                              replace=False)
            mode = "top"
        else:
            cols = rng.choice(n, int(rng.integers(1, min(n, 4) + 1)),
                              replace=False)
        dense[i, cols] = rng.choice([-3.0, -1.5, -1.0, -0.5, 0.5, 1.0, 2.0,
                                     2.5], cols.shape[0])
        senses.append(str(rng.choice(["==", "==", "<=", ">="])))
        pinned = sum(dense[i, j] * vals[j] for j in range(n) if fixed[j])
        top = sum(dense[i, j] * (ub[j] if dense[i, j] > 0 else lb[j])
                  for j in range(n) if dense[i, j] and not fixed[j])
        bottom = sum(dense[i, j] * (lb[j] if dense[i, j] > 0 else ub[j])
                     for j in range(n) if dense[i, j] and not fixed[j])
        finite = [v for v in (top, bottom) if np.isfinite(v)]
        if mode == "top" and np.isfinite(top):
            value = top
        elif mode == "bottom" and np.isfinite(bottom):
            value = bottom
        elif mode == "beyond" and finite:
            value = max(finite) + 1.0 if rng.random() < 0.5 \
                else min(finite) - 1.0
        elif len(finite) == 2 and top > bottom:
            value = rng.uniform(bottom, top)
        else:
            value = (finite[0] if finite else 0.0) + rng.uniform(-1.0, 1.0)
        rhs.append(float(pinned + value))
    c = rng.normal(size=n)
    qdiag = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 2.0, n), 0.0)
    return (c, qdiag, sp.csr_matrix(dense), np.array(senses), np.array(rhs),
            lb, ub)


def control_qp_by_rows(state, window, spec, config, beta_es_use=0.0,
                       with_rows=False):
    """Reference build of the control QP of operation.mpc_step, one row at
    a time, on served energy: each period's balance row, served + export +
    charge - discharge = generation, then its state-of-charge row.
    Variables come in the same order as in operation._control_qp: per
    period charge, discharge, SoC and export, then the served block, one
    entry per consumer in [0, load] at theta > 0 and one aggregate entry
    in [0, sum of loads] at theta = 0, costing minus the grid price; the
    tracking variables and rows only when theta > 0.  Returns the QP, one
    (charge, discharge, SoC, export, served) index block per branch, head
    first, and the tracking variables' indices (None at theta = 0).  With
    with_rows, it also returns the row index blocks of this build: one
    (balance, SoC) block per branch, head first, and the tracking rows
    (None at theta = 0)."""
    from pvpool.numerics import ProblemBuilder

    n = window.head_loads.shape[0]
    tt = window.tail_periods
    w = window.probabilities.shape[0]
    cap_p = spec.power_cap_kw * window.delta_hours
    cap_e = spec.energy_cap_kwh
    eta = spec.efficiency
    tracked = config.theta > 0.0
    per = n if tracked else 1
    export_net = window.export_tax - window.export_price
    # each period's served box: the consumers' loads or their sum
    head_box = window.head_loads if tracked else [window.head_loads.sum()]
    tail_box = window.tail_loads if tracked \
        else window.tail_loads.sum(axis=1)[:, None]

    pb = ProblemBuilder()
    blocks, row_blocks, added = [], [], [0]

    def branch(periods, pi, price, net, box, gen, soc_before):
        c = pb.add_vars(periods, lb=0.0, ub=cap_p, cost=pi * beta_es_use)
        d = pb.add_vars(periods, lb=0.0, ub=cap_p, cost=pi * beta_es_use)
        soc = pb.add_vars(periods, lb=0.0, ub=cap_e)
        gs = pb.add_vars(periods, lb=0.0, cost=pi * net)
        served = pb.add_vars(periods * per, lb=0.0, ub=np.ravel(box),
                             cost=np.repeat(-pi * price, per))
        blocks.append((c, d, soc, gs, served))
        rows = added[0] + np.arange(2 * periods).reshape(periods, 2)
        added[0] += 2 * periods
        row_blocks.append((rows[:, 0], rows[:, 1]))
        for t in range(periods):
            pb.add_row(np.concatenate([served[t * per:(t + 1) * per],
                                       [gs[t], c[t], d[t]]]),
                       np.append(np.ones(per + 2), -1.0), "==", gen[t])
            if soc_before is None:  # the head starts from the state's SoC
                pb.add_row([soc[t], c[t], d[t]], [1.0, -eta, 1.0 / eta],
                           "==", min(state.soc_kwh, cap_e))
            else:
                prev = soc_before if t == 0 else soc[t - 1]
                pb.add_row([soc[t], prev, c[t], d[t]],
                           [1.0, -1.0, -eta, 1.0 / eta], "==", 0.0)
        return soc

    head_soc = branch(1, 1.0, window.grid_price[:1], export_net[:1],
                      head_box, [window.head_gen], None)
    for widx in range(w if tt else 0):
        branch(tt, window.probabilities[widx], window.grid_price[1:],
               export_net[1:], tail_box, window.tail_gen[:, widx],
               head_soc[0])

    deliver = track_rows = None
    if tracked:
        track_rows = added[0] + np.arange(n)
        theta = config.theta
        rhs = state.e_past + state.e_future - state.promise
        deliver = pb.add_vars(n, lb=-np.inf, ub=np.inf, qdiag=2.0 * theta,
                              cost=2.0 * theta * rhs)
        for i in range(n):
            pb.add_row(
                np.concatenate([[deliver[i]]]
                               + [blk[4][i::n] for blk in blocks]),
                np.concatenate([[1.0, -1.0]]
                               + [np.full(tt, -window.probabilities[widx])
                                  for widx in range(len(blocks) - 1)]),
                "==", 0.0)
    if with_rows:
        return pb.qp(), blocks, deliver, row_blocks, track_rows
    return pb.qp(), blocks, deliver


def control_qp_import_form(state, window, spec, config, beta_es_use=0.0):
    """The control QP of operation.mpc_step in its former import form, one
    row at a time: each period carries a grid import variable in [0, load]
    with its cost, balance rows import - export - charge + discharge =
    load - generation and, when theta > 0, served rows sum_i split_i +
    import = load, interleaved with the state-of-charge rows.  Its
    objective exceeds the served-energy form's (control_qp_by_rows) by
    the constant sum of probability x grid price x load, and its optimal
    value is that form's plus the constant.  The split variables and the
    served and tracking rows only when theta > 0."""
    from pvpool.numerics import ProblemBuilder

    n = window.head_loads.shape[0]
    tt = window.tail_periods
    w = window.probabilities.shape[0]
    delta = window.delta_hours
    cap_p = spec.power_cap_kw * delta
    cap_e = spec.energy_cap_kwh
    eta_c = eta_d = spec.efficiency
    soc0 = min(state.soc_kwh, cap_e)
    head_agg = window.head_loads.sum()
    tail_agg = window.tail_loads.sum(axis=1) if tt else np.zeros(0)
    theta = config.theta

    pb = ProblemBuilder()
    c = pb.add_vars(1, lb=0.0, ub=cap_p, cost=beta_es_use)
    d = pb.add_vars(1, lb=0.0, ub=cap_p, cost=beta_es_use)
    soc = pb.add_vars(1, lb=0.0, ub=cap_e)
    gg = pb.add_vars(1, lb=0.0, ub=head_agg, cost=window.grid_price[:1])
    gs = pb.add_vars(1, lb=0.0,
                     cost=window.export_tax[:1] - window.export_price[:1])
    ehat = pb.add_vars(n, lb=0.0, ub=window.head_loads) \
        if theta > 0.0 else None
    pb.add_row([gg[0], gs[0], c[0], d[0]], [1.0, -1.0, -1.0, 1.0],
               "==", head_agg - window.head_gen)
    pb.add_row([soc[0], c[0], d[0]], [1.0, -eta_c, 1.0 / eta_d], "==", soc0)
    if theta > 0.0:
        pb.add_row(np.concatenate([ehat, [gg[0]]]), np.ones(n + 1), "==",
                   head_agg)

    tail_gw = []
    for widx in range(w if tt else 0):
        pi = window.probabilities[widx]
        cw = pb.add_vars(tt, lb=0.0, ub=cap_p, cost=pi * beta_es_use)
        dw = pb.add_vars(tt, lb=0.0, ub=cap_p, cost=pi * beta_es_use)
        socw = pb.add_vars(tt, lb=0.0, ub=cap_e)
        ggw = pb.add_vars(tt, lb=0.0, ub=tail_agg,
                          cost=pi * window.grid_price[1:])
        gsw = pb.add_vars(tt, lb=0.0,
                          cost=pi * (window.export_tax[1:]
                                     - window.export_price[1:]))
        gw = None
        if theta > 0.0:
            gw = pb.add_vars(tt * n, lb=0.0, ub=window.tail_loads.ravel())
            tail_gw.append(gw)
        for t in range(tt):
            pb.add_row([ggw[t], gsw[t], cw[t], dw[t]], [1.0, -1.0, -1.0, 1.0],
                       "==", tail_agg[t] - window.tail_gen[t, widx])
            prev = soc[0] if t == 0 else socw[t - 1]
            pb.add_row([socw[t], prev, cw[t], dw[t]],
                       [1.0, -1.0, -eta_c, 1.0 / eta_d], "==", 0.0)
            if theta > 0.0:
                pb.add_row(np.concatenate([gw[t * n:(t + 1) * n], [ggw[t]]]),
                           np.ones(n + 1), "==", tail_agg[t])

    if theta > 0.0:
        rhs = state.e_past + state.e_future - state.promise
        deliver = pb.add_vars(n, lb=-np.inf, ub=np.inf, qdiag=2.0 * theta,
                              cost=2.0 * theta * rhs)
        for i in range(n):
            idx = np.concatenate([[deliver[i], ehat[i]]]
                                 + [gw[i::n] for gw in tail_gw])
            coef = np.concatenate(
                [[1.0, -1.0]]
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
    """Row-by-row reference for the settlement problem of operation.settle
    stated as a QP; settle solves it by water-filling."""
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
    s_t - s_{t-1} - eta c_t + d_t / eta = 0 from s_{-1} = the initial
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
        a[t] = -spec.efficiency
        a[t_len + t] = 1.0 / spec.efficiency
        rows.append((a, "==", soc0 if t == 0 else 0.0))
    if spec.cyclic:
        a = np.zeros(n)
        a[n - 1] = 1.0
        rows.append((a, "==", soc0))
    lb = np.zeros(n)
    ub = np.concatenate([np.full(2 * t_len, spec.power_cap_kw * delta_hours),
                         np.full(t_len, spec.energy_cap_kwh)])
    return rows, lb, ub


def rule_based_step(soc, pv_gen_kwh, load_kwh, spec, delta_hours):
    """The greedy storage rule for one period, the reference for the greedy plan.

    Charges as much of a solar surplus as the battery accepts, discharges
    against a deficit as far as the stored energy allows, never both.
    Returns (charge, discharge) in kWh.
    """
    cap = spec.power_cap_kw * delta_hours
    soc = min(max(soc, 0.0), spec.energy_cap_kwh)
    surplus = float(pv_gen_kwh) - float(load_kwh)
    if surplus > 0.0:
        headroom = (spec.energy_cap_kwh - soc) / spec.efficiency
        return min(surplus, cap, max(headroom, 0.0)), 0.0
    if surplus < 0.0:
        available = soc * spec.efficiency
        return 0.0, min(-surplus, cap, available)
    return 0.0, 0.0


def greedy_year_by_rule_loop(gen, load, spec, delta_hours):
    """The greedy baseline's battery flows over a year, period by period.

    Each period takes `rule_based_step` on the running state of charge,
    which is then updated and clipped to [0, E].  Returns (charge,
    discharge, soc) with soc of length T + 1.
    """
    t_total = gen.shape[0]
    charge = np.zeros(t_total)
    discharge = np.zeros(t_total)
    socs = np.zeros(t_total + 1)
    soc = socs[0] = spec.initial_soc_kwh
    for t in range(t_total):
        c, d = rule_based_step(soc, gen[t], load[t], spec, delta_hours)
        soc = min(max(soc + spec.efficiency * c - d / spec.efficiency, 0.0),
                  spec.energy_cap_kwh)
        charge[t], discharge[t], socs[t + 1] = c, d, soc
    return charge, discharge, socs
