"""Solver tests: known optima, oracle cross-checks, status classification."""

from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

from pvpool import numerics
from pvpool.numerics import (
    ConvexQuadraticProgram,
    NumericsError,
    ProblemBuilder,
    solve_qp,
)

from oracles import (
    boxed_separable_by_loop,
    key_qp_by_rows,
    lp_vertex_minimum,
    postsolve_by_rows,
    presolve_by_rows,
    qp_active_set_minimum,
    random_bounded_lp,
    random_box_qp,
    random_presolve_problem,
    record_analyses,
    step_to_boundary_masked,
    with_slacks,
)


def _from_dense(c, q, rows, lb, ub):
    """The program min 0.5 x'diag(q)x + c'x over dense (coeffs, sense, rhs)
    rows and the box, each inequality row with its slack (`with_slacks`)."""
    a = np.array([r[0] for r in rows], dtype=float).reshape(len(rows), len(c))
    return with_slacks(ConvexQuadraticProgram(c, q, a, [r[2] for r in rows],
                                              lb, ub), [r[1] for r in rows])


def _lp_from_dense(c, rows, lb, ub):
    return _from_dense(c, 0.0, rows, lb, ub)


def test_lp_covering_row():
    pb = ProblemBuilder()
    idx = pb.add_vars(2, lb=0.0, ub=np.inf, cost=1.0)
    pb.add_row(idx, [1.0, 1.0], 1.0)
    rep = solve_qp(with_slacks(pb.qp(), [">="]), tol=1e-8)
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(1.0, abs=1e-8)


def test_lp_mixed_senses():
    pb = ProblemBuilder()
    idx = pb.add_vars(3, lb=0.0, ub=10.0, cost=[2.0, 3.0, 1.0])
    pb.add_row(idx, [1.0, 1.0, 1.0], 5.0)
    pb.add_row(idx[:2], [1.0, -1.0], 2.0)
    rep = solve_qp(with_slacks(pb.qp(), [">=", "<="]), tol=1e-8)
    assert rep.status == "optimal"
    # cheapest cover puts everything on the third variable
    assert rep.objective == pytest.approx(5.0, abs=1e-7)


def test_lp_infeasible():
    pb = ProblemBuilder()
    idx = pb.add_vars(1, lb=0.0, ub=1.0, cost=1.0)
    pb.add_row(idx, [1.0], 2.0)
    rep = solve_qp(with_slacks(pb.qp(), [">="]), tol=1e-8)
    assert rep.status == "infeasible"
    assert rep.x is None


def test_lp_unbounded_box_direction():
    pb = ProblemBuilder()
    pb.add_vars(1, lb=0.0, ub=np.inf, cost=-1.0)
    rep = solve_qp(pb.qp(), tol=1e-8)
    assert rep.status == "unbounded"


def test_lp_unbounded_through_row():
    # descent direction exists only inside the row's null space; only a
    # problem without rows is proved unbounded, so the solve diverges and
    # reports iteration_limit, never a certified optimum
    pb = ProblemBuilder()
    idx = pb.add_vars(2, lb=0.0, ub=np.inf, cost=[-1.0, 0.0])
    pb.add_row(idx, [1.0, -1.0], 0.0)
    rep = solve_qp(pb.qp(), tol=1e-8)
    assert rep.status == "iteration_limit"


def test_lp_redundant_equalities():
    # three scaled copies of the same row; normal equations are singular
    pb = ProblemBuilder()
    idx = pb.add_vars(2, lb=0.0, ub=10.0, cost=[1.0, 1.0])
    pb.add_row(idx, [1.0, 1.0], 3.0)
    pb.add_row(idx, [2.0, 2.0], 6.0)
    pb.add_row(idx, [0.5, 0.5], 1.5)
    rep = solve_qp(pb.qp(), tol=1e-10)
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(3.0, abs=1e-8)


def _inconsistent_duplicate_rows_lp():
    pb = ProblemBuilder()
    idx = pb.add_vars(2, lb=0.0, ub=10.0, cost=[1.0, 1.0])
    pb.add_row(idx, [1.0, 1.0], 3.0)
    pb.add_row(idx, [1.0, 1.0], 4.0)
    return pb.qp()


def test_lp_inconsistent_duplicate_rows():
    # no exact check sees the contradiction, so the solve stalls and
    # reports iteration_limit, never a certified optimum
    rep = solve_qp(_inconsistent_duplicate_rows_lp(), tol=1e-8)
    assert rep.status == "iteration_limit"


def test_lp_fixed_variables_presolved():
    pb = ProblemBuilder()
    free = pb.add_vars(1, lb=0.0, ub=5.0, cost=1.0)
    pinned = pb.add_vars(1, lb=2.0, ub=2.0, cost=10.0)
    pb.add_row(np.concatenate([free, pinned]), [1.0, 1.0], 3.0)
    rep = solve_qp(with_slacks(pb.qp(), [">="]), tol=1e-8)
    assert rep.status == "optimal"
    assert rep.x[1] == pytest.approx(2.0)
    assert rep.objective == pytest.approx(1.0 * 1.0 + 10.0 * 2.0, abs=1e-7)


def test_lp_free_variable_kkt_path():
    # a variable with no bounds and no curvature exercises the kkt solve
    pb = ProblemBuilder()
    x = pb.add_vars(1, lb=-np.inf, ub=np.inf, cost=1.0)
    y = pb.add_vars(1, lb=-3.0, ub=5.0, cost=0.0)
    pb.add_row(np.concatenate([x, y]), [1.0, -1.0], 0.0)
    rep = solve_qp(pb.qp(), tol=1e-8)
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(-3.0, abs=1e-7)


def test_lp_empty_row_consistency():
    pb = ProblemBuilder()
    x = pb.add_vars(1, lb=0.0, ub=1.0, cost=1.0)
    pb.add_row(x, [0.0], 1.0)
    rep = solve_qp(pb.qp(), tol=1e-8)
    assert rep.status == "infeasible"
    assert rep.iterations == 0
    # the proof's residual is the empty row's right-hand side
    assert rep.primal_residual == 1.0


def test_lp_vertex_oracle_agreement():
    rng = np.random.default_rng(20240817)
    for _ in range(300):
        c, rows, lb, ub = random_bounded_lp(rng)
        rep = solve_qp(_lp_from_dense(c, rows, lb, ub), tol=1e-10)
        ref, _ = lp_vertex_minimum(c, rows, lb, ub)
        if ref is None:
            # rounding can hide a sliver-thin feasible set from the oracle
            assert rep.status in ("optimal", "infeasible")
            continue
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(ref, abs=1e-8)


def test_qp_projection_onto_plane():
    pb = ProblemBuilder()
    idx = pb.add_vars(2, lb=-np.inf, ub=np.inf, cost=0.0, qdiag=2.0)
    pb.add_row(idx, [1.0, 1.0], 2.0)
    rep = solve_qp(pb.qp())
    assert rep.status == "optimal"
    np.testing.assert_allclose(rep.x, [1.0, 1.0], atol=1e-6)


def test_qp_box_clip():
    # min (x - 1)^2 over [0, 3], written as x^2 - 2x
    pb = ProblemBuilder()
    pb.add_vars(1, lb=0.0, ub=3.0, cost=-2.0, qdiag=2.0)
    rep = solve_qp(pb.qp())
    assert rep.status == "optimal"
    assert rep.x[0] == pytest.approx(1.0, abs=1e-8)


def test_qp_spread_penalty_hits_bound():
    # 0.25 (x - y)^2 over x + y = 3 with x capped at 1, written as
    # min_variance_key writes it: a free spread s = x - y with 0.25 s^2
    pb = ProblemBuilder()
    idx = pb.add_vars(2, lb=0.0, ub=[1.0, 5.0], cost=0.0)
    spread = pb.add_vars(1, lb=-np.inf, ub=np.inf, qdiag=0.5)
    pb.add_row(idx, [1.0, 1.0], 3.0)
    pb.add_row(np.concatenate([spread, idx]), [1.0, -1.0, 1.0], 0.0)
    rep = solve_qp(pb.qp())
    assert rep.status == "optimal"
    np.testing.assert_allclose(rep.x[idx], [1.0, 2.0], atol=1e-6)
    assert rep.objective == pytest.approx(0.25, abs=1e-6)


def test_qp_active_set_oracle_agreement():
    rng = np.random.default_rng(7)
    for _ in range(150):
        instance = random_box_qp(rng)
        if instance is None:
            continue
        c, q, rows, lb, ub = instance
        qp = _from_dense(c, q, rows, lb, ub)
        rep = solve_qp(qp, tol=1e-8)
        ref, _ = qp_active_set_minimum(c, q, rows, lb, ub)
        if ref is None:
            assert rep.status in ("optimal", "infeasible")
            continue
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(ref, rel=1e-6, abs=1e-6)


def test_qp_warm_start_reaches_the_oracle_optimum():
    # a start only moves where the iterations begin: from a guess outside
    # the box with random row duals and positive bound multipliers, with a
    # pinned variable on every third instance (presolve drops it from the
    # guess) and inequality rows (whose slacks start at the box midpoint
    # with multipliers 0, as the cold start's do), every solve reaches the
    # active-set optimum
    rng = np.random.default_rng(7)
    duals = np.random.default_rng(11)  # keeps rng's instances as they were
    solved = 0
    for k in range(150):
        instance = random_box_qp(rng)
        if instance is None:
            continue
        c, q, rows, lb, ub = instance
        if k % 3 == 0:
            lb, ub = lb.copy(), ub.copy()
            lb[0] = ub[0] = 0.5 * ub[0]
        qp = _from_dense(c, q, rows, lb, ub)
        k = qp.c.shape[0] - len(c)  # the slacks, in [0, inf)
        start = (np.append(rng.uniform(-1.0, 3.0, len(c)), np.ones(k)),
                 duals.normal(size=qp.rhs.shape[0]),
                 np.append(duals.uniform(0.01, 10.0, len(c)), np.zeros(k)),
                 np.append(duals.uniform(0.01, 10.0, len(c)), np.zeros(k)))
        rep = solve_qp(qp, tol=1e-8, start=start)
        ref, _ = qp_active_set_minimum(c, q, rows, lb, ub)
        if ref is None:
            assert rep.status in ("optimal", "infeasible")
            continue
        assert rep.status == "optimal"
        assert rep.objective == pytest.approx(ref, rel=1e-6, abs=1e-6)
        solved += 1
    assert solved > 50


def test_qp_rejects_negative_diagonal():
    with pytest.raises(NumericsError):
        ConvexQuadraticProgram([0.0], [-1.0], np.zeros((0, 1)), [],
                               lb=[0.0], ub=[1.0])


def _one_var_builder():
    pb = ProblemBuilder()
    pb.add_vars(1, lb=0.0, ub=1.0, cost=1.0)
    return pb


def test_constraint_validation():
    # a NaN coefficient is refused when the program is made, mismatched
    # lengths as soon as the row is added
    with pytest.raises(NumericsError):
        _one_var_builder().add_row([0, 1], [1.0], 0.0)
    with pytest.raises(NumericsError):
        _one_var_builder().add_rows([[0, 0]], [1.0, 2.0, 3.0], 0.0)
    with pytest.raises(NumericsError):
        _one_var_builder().add_rows([0, 0], [1.0], 0.0)
    pb = _one_var_builder()
    pb.add_row([0], [np.nan], 0.0)
    with pytest.raises(NumericsError):
        pb.qp()
    with pytest.raises(NumericsError):
        ConvexQuadraticProgram([1.0], 0.0, [[np.nan]], [0.0], [0.0], [1.0])
    with pytest.raises(NumericsError):
        ConvexQuadraticProgram([1.0], 0.0, [[1.0]], [0.0, 0.0], [0.0], [1.0])


def test_program_validation():
    with pytest.raises(NumericsError):
        ConvexQuadraticProgram([1.0], 0.0, [[1.0]], [1.0], lb=[2.0],
                               ub=[1.0])
    # a row on variable 3 of a one-variable program
    with pytest.raises(NumericsError):
        ConvexQuadraticProgram([1.0], 0.0, np.zeros((1, 4)), [1.0], [0.0],
                               [1.0])
    # c and rhs are vectors; another shape is refused by name before it
    # reaches NumPy or SciPy
    rows = np.eye(4)
    fields = {"c": np.ones(4), "rhs": np.ones(4)}
    for name, bad in (("rhs", np.ones((4, 1))), ("c", np.ones((4, 1))),
                      ("c", 1.0)):
        with pytest.raises(NumericsError, match=f"^{name} has shape"):
            ConvexQuadraticProgram(**dict(fields, **{name: bad}), q_diag=0.0,
                                   a=rows, lb=0.0, ub=1.0)
    # q_diag takes a scalar, as lb and ub do, and is checked like them
    assert ConvexQuadraticProgram(**fields, q_diag=0.0, a=rows, lb=0.0,
                                  ub=1.0).q_diag.tobytes() \
        == np.zeros(4).tobytes()
    for bad in ([1.0, 1.0], -1.0, np.nan):
        with pytest.raises(NumericsError, match="q_diag"):
            ConvexQuadraticProgram(**fields, q_diag=bad, a=rows, lb=0.0,
                                   ub=1.0)
    for bad in ([3], [-1]):
        pb = _one_var_builder()
        pb.add_row(bad, [1.0], 1.0)
        with pytest.raises(NumericsError):
            pb.qp()
        pb = _one_var_builder()
        pb.add_rows([bad], [1.0], 1.0)
        with pytest.raises(NumericsError):
            pb.qp()
    # a variable pinned at an infinite bound has no value; presolve used
    # to pin it there and return NaN objectives
    with pytest.raises(NumericsError, match="inf"):
        solve_qp(ConvexQuadraticProgram([1.0], 0.0, np.zeros((0, 1)), [],
                                        [np.inf], [np.inf]), tol=1e-8)
    with pytest.raises(NumericsError, match="inf"):
        solve_qp(ConvexQuadraticProgram([1.0, 1.0], 0.0, [[1.0, 1.0]],
                                        [1.0], [-np.inf, 0.0],
                                        [-np.inf, 1.0]), tol=1e-8)


def test_builder_offset_splice():
    # a row written against a later variable block lands on that block
    pb = ProblemBuilder()
    pb.add_vars(1, lb=0.0, ub=9.0, cost=0.0)
    block = pb.add_vars(1, lb=0.0, ub=9.0, cost=-1.0)
    pb.add_rows(block[:, None], [1.0], 2.0)
    rep = solve_qp(with_slacks(pb.qp(), ["<="]), tol=1e-8)
    assert rep.status == "optimal"
    assert rep.x[1] == pytest.approx(2.0, abs=1e-8)


def test_add_vars_fills_scalars_and_copies_arrays():
    pb = ProblemBuilder()
    ub = np.array([1.0, 2.0, 3.0])
    pb.add_vars(3, lb=np.float64(-1.0), ub=ub, cost=2, qdiag=0.5)
    pb.add_vars(2, lb=-np.inf, ub=np.inf, cost=[1, 2])
    ub[0] = 99.0  # the builder keeps its own copy
    qp = pb.qp()
    for got, want in ((qp.lb, [-1.0] * 3 + [-np.inf] * 2),
                      (qp.ub, [1.0, 2.0, 3.0, np.inf, np.inf]),
                      (qp.c, [2.0, 2.0, 2.0, 1.0, 2.0]),
                      (qp.q_diag, [0.5] * 3 + [0.0] * 2)):
        assert got.dtype == np.float64
        assert got.tobytes() == np.array(want).tobytes()
    with pytest.raises(NumericsError):
        pb.add_vars(3, ub=[1.0, 2.0])
    with pytest.raises(NumericsError):
        pb.add_vars(2, cost=[[1.0, 2.0]])


def test_add_rows_matches_row_by_row():
    rng = np.random.default_rng(5)
    idx = rng.integers(0, 6, (4, 3))
    coef = rng.normal(size=(4, 3))
    rhs = rng.normal(size=4)
    block, single = ProblemBuilder(), ProblemBuilder()
    for pb in (block, single):
        pb.add_vars(6, lb=0.0, ub=1.0, cost=1.0)
        pb.add_row([0, 5], [1.0, 1.0], 1.5)
    block.add_rows(idx, coef, rhs)
    block.add_rows(idx[:2], [1.0, -1.0, 2.0], 0.5)
    for k in range(4):
        single.add_row(idx[k], coef[k], rhs[k])
    for k in range(2):
        single.add_row(idx[k], [1.0, -1.0, 2.0], 0.5)
    got, want = block.qp(), single.qp()
    assert (got.a != want.a).nnz == 0
    assert got.rhs.tobytes() == want.rhs.tobytes()


def test_kkt_pivoted_fallback_still_certifies(monkeypatch):
    # a scaled duplicate row leaves the regularized KKT matrix nearly
    # singular, so the unpivoted factorization misses even after
    # refinement and the solve falls back to partial pivoting
    fallbacks = []
    pivoted_solve = numerics._QuasidefiniteKkt._pivoted_solve

    def counted(self, rhs, fallback):
        fallbacks.append(rhs.shape[0])
        return pivoted_solve(self, rhs, fallback)

    monkeypatch.setattr(numerics._QuasidefiniteKkt, "_pivoted_solve", counted)
    pb = ProblemBuilder()
    x = pb.add_vars(1, lb=-np.inf, ub=np.inf, cost=1.0)  # forces the kkt path
    y = pb.add_vars(2, lb=[-3.0, 0.0], ub=[5.0, 4.0], cost=[0.0, 1.0])
    xy = np.concatenate([x, y])
    pb.add_row(xy, [1.0, -1.0, 1.0], 1.0)
    pb.add_row(xy, [2.0, -2.0, 2.0], 2.0)
    rep = solve_qp(pb.qp(), tol=1e-8)
    assert fallbacks
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(-2.0, abs=1e-7)
    assert rep.x[1] == pytest.approx(-3.0, abs=1e-7)


def test_normal_product_map_matches_sparse_product():
    rng = np.random.default_rng(12)
    m, n = 40, 30
    dense = np.where(rng.random((m, n)) < 0.08, rng.normal(size=(m, n)), 0.0)
    dense[:, 0] = 0.0  # an empty column
    dense[:36, 1] = rng.normal(size=36)  # a column of 36 nonzeros
    dense[np.arange(m), 2 + np.arange(m) % (n - 2)] = rng.uniform(0.5, 2.0, m)
    a = sp.csr_matrix(dense)
    at = a.T.tocsr()
    pattern, pmap = numerics._normal_product_map(at, m)
    assert pmap.nnz == int((np.diff(at.indptr) ** 2).sum())
    d = rng.uniform(0.1, 10.0, n)
    want = (a @ sp.diags(d) @ a.T).tocsc()
    want.sort_indices()
    assert np.array_equal(pattern.indptr, want.indptr)
    assert np.array_equal(pattern.indices, want.indices)
    got = pmap @ d
    assert np.abs(got - want.data).max() <= 1e-14 * np.abs(want.data).max()


@pytest.mark.parametrize("w", [1, 2, 4, 10])
@pytest.mark.parametrize("tracked", [False, True])
def test_a_leading_block_is_the_shorter_window(w, tracked):
    # laid out period by period, the control window with a k-period tail
    # is the leading block of the full window, for every k down to the
    # head alone: the cut is entry for entry the window laid out for that
    # tail, read-only, and its analysis, truncated from the full window's,
    # holds the normal pattern, product map and A' that the cut's own
    # would, with the full window's band order and border rows, those kept
    from pvpool import operation
    n, tail = 3, 6
    probs = tuple(np.full(w, 1.0 / w).tolist())
    full = operation._control_pattern(n, tail, probs, 0.93, tracked)
    lead, per = n * tracked, n if tracked else 1
    parent = numerics._analyse(full).normal()[0]
    for k in range(tail + 1):
        cut = numerics.restrict(full, lead + 2 * (1 + w * k),
                                lead + (4 + per) * (1 + w * k))
        want = operation._control_pattern(n, k, probs, 0.93, tracked)
        assert cut.shape == want.shape
        for part in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(cut, part), getattr(want, part))
            assert not getattr(cut, part).flags.writeable
        # a program made on the cut keeps that very matrix and its analysis
        again = ConvexQuadraticProgram(np.zeros(cut.shape[1]), 1.0, cut,
                                       np.zeros(cut.shape[0]), -1.0, 1.0)
        assert again.a is cut
        analysis = numerics._analyse(cut)
        assert numerics._analyse(again.a) is analysis
        plan, pmap = analysis.normal()
        pattern, product = numerics._normal_product_map(cut.T.tocsr(),
                                                        cut.shape[0])
        assert np.array_equal(plan.indptr, pattern.indptr)
        assert np.array_equal(plan.indices, pattern.indices)
        assert pmap.shape == product.shape
        for made, fresh in ((pmap, product), (analysis.at, cut.T.tocsr())):
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(made, part),
                                      getattr(fresh, part))
        kept = parent.order < cut.shape[0]
        assert np.array_equal(plan.order, parent.order[kept])
        assert plan.nb == np.count_nonzero(kept[:parent.nb])
    for rows, cols in ((full.shape[0] + 1, 1), (1, -1)):
        with pytest.raises(NumericsError, match="leading block"):
            numerics.restrict(full, rows, cols)
    # only a program's matrix carries an analysis that cannot go stale
    with pytest.raises(NumericsError, match="read-only matrix"):
        numerics.restrict(full.copy(), 1, 1)


def test_index_arrays_must_be_integers():
    # a cast to int64 would truncate a float index and read a boolean mask
    # as the indices 0 and 1; an empty list, which NumPy makes float64,
    # names no index and is taken.  A leading block of no rows is a cut too
    a = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]))
    problem = ConvexQuadraticProgram(np.ones(3), 1.0, a, np.ones(2), 0.0,
                                     1.0)
    assert numerics.restrict(problem.a, 0, 2).shape == (0, 2)
    pb = ProblemBuilder()
    pb.add_vars(2)
    for indices in ([0.6, 1.2], [True, True]):
        with pytest.raises(NumericsError, match="indices must be integers"):
            pb.add_row(indices, [1.0, 1.0], 1.0)
    with pytest.raises(NumericsError, match="indices must be integers"):
        pb.add_rows(np.array([[0.0, 1.0]]), 1.0, 1.0)
    pb.add_row([], [], 1.0)
    pb.add_row(np.array([0, 1], dtype=np.uint8), [1.0, 1.0], 1.0)
    assert pb.qp().a.toarray().tolist() == [[0.0, 0.0], [1.0, 1.0]]


def test_a_restriction_is_never_found_under_its_plain_twin():
    # the same entries, once as a restriction and once plain, are two
    # analyses: a cut, made with its normal plan in the parent's band
    # order, and a fresh one, which has to make its own
    a = sp.csr_matrix(np.array([[1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 3.0, 0.0],
                                [2.0, 0.0, 1.0, 1.0]]))
    problem = ConvexQuadraticProgram(np.ones(4), 1.0, a, np.ones(3), 0.0,
                                     1.0)
    cut = numerics.restrict(problem.a, 2, 3)
    kept = numerics._analyse(cut)
    plain = numerics._analyse(sp.csr_matrix(cut))
    assert kept is not plain
    assert kept._normal is not None and plain._normal is None
    assert numerics._analyse(cut) is kept


@pytest.mark.parametrize("system", ["kkt", "normal"])
def test_factor_reuses_its_ordering_at_a_new_diagonal(system):
    rng = np.random.default_rng(3)
    m, n = 25, 60
    dense = np.where(rng.random((m, n)) < 0.1, rng.normal(size=(m, n)), 0.0)
    dense[np.arange(m), np.arange(m)] = 1.0  # full row rank
    analysis = numerics._analyse(sp.csr_matrix(dense))
    if system == "kkt":
        fac = numerics._QuasidefiniteKkt(analysis)
        size = n + m
    else:
        fac = numerics._NormalEquations(analysis)
        size = m
    layouts = []
    for _ in range(2):
        diag = rng.uniform(0.01, 100.0, n)
        rhs = rng.normal(size=size)
        if system == "kkt":
            fac.factor(diag, 1e-8)
            got = np.concatenate(fac.solve(rhs[:n], rhs[n:]))
        else:
            fac.factor(diag)
            got = fac.solve(rhs)
            plan = fac.plan
            layouts.append((plan.order.tobytes(), plan.kd, plan.border,
                            fac._l.shape))
        want = spsolve(fac.mat.tocsc(), rhs)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert fac.pivoted is None
    # the normal equations' second factorization ran in the first one's
    # order, band and border; SuperLU orders each KKT factorization itself
    if system == "normal":
        assert fac._l.shape == (plan.kd + 1, size - plan.border)
        assert layouts[1] == layouts[0]


def _normal_matrix(kind):
    """The constraint matrix the solver sees for one kind of problem,
    after presolve, and the (m, bandwidth, border) of its band plan."""
    from pvpool import sizing
    from test_sizing import _baseline_bundle, recourse_lps
    if kind == "control_qp":
        # 15 consumers, 48 periods, two scenarios: the tracking rows
        # couple every period and form the border; the head's SoC spans 3
        # rows and joins the two scenario chains in the band
        problem, shape = _control_qp_instance(15, 47), (205, 4, 15)
    elif kind.startswith(("control_qp_", "dispatch_qp_")):
        # W scenarios of equal probability: the head's SoC spans W + 1 rows
        # and joins the W scenario chains in the band, each period's W
        # recursion rows before its W balance rows, at half-bandwidth
        # 2W - 1 from W = 3 (4 at W = 2); the border is the 15 tracking
        # rows, none at theta = 0 (dispatch_qp), the cost-only MPC.  Laid
        # out scenario by scenario, the window had the same m and border
        # and kd 4, 8, 19 and 39 at W = 2, 4, 10 and 20
        scenarios = int(kind.rsplit("_", 1)[1])
        tracked = kind.startswith("control")
        problem = _control_qp_instance(15, 47, scenarios=scenarios,
                                       theta=float(tracked))
        shape = (94 * scenarios + 2 + 15 * tracked,
                 4 if scenarios == 2 else 2 * scenarios - 1, 15 * tracked)
    elif kind == "dispatch_lp":
        # one scenario's day at fixed capacities, as the cut pool fills
        # in its program: a band, no border
        bundle, _ = _baseline_bundle(31, 5, 1, 2)
        problem = recourse_lps(sizing.CutPool(bundle), 20.0, 10.0)[0]
        shape = (97, 2, 0)
    elif kind == "near_dense":
        # 40 rows, each column on 20 of them: every row of A D A' is
        # near-dense, so there is no band to border and all of it is band
        rng = np.random.default_rng(6)
        dense = np.zeros((40, 120))
        for j in range(120):
            dense[rng.choice(40, 20, replace=False), j] = rng.normal(size=20)
        return sp.csr_matrix(dense), (40, 39, 0)
    else:
        # a key QP over 48 periods and 15 consumers: the period rows are
        # a diagonal band, the consumer rows the border
        rng = np.random.default_rng(4)
        hi = rng.uniform(0.1, 2.0, (48, 15))
        problem = key_qp_by_rows(np.zeros_like(hi), hi, 0.5 * hi.sum(axis=1))
        shape = (63, 0, 15)
    std = numerics._Standard(problem.c, problem.q_diag, problem.a,
                             problem.rhs, problem.lb, problem.ub)
    return std.a, shape


@pytest.mark.parametrize("kind", [
    "control_qp", "dispatch_lp", "key_qp", "near_dense", "control_qp_10",
    "control_qp_20", "dispatch_qp_10", "control_qp_4",
    "dispatch_qp_2", "dispatch_qp_4", "dispatch_qp_20"])
def test_band_and_border_factor_matches_spsolve(kind):
    a, shape = _normal_matrix(kind)
    fac = numerics._NormalEquations(numerics._Analysis(a))
    plan = fac.plan
    assert (a.shape[0], plan.kd, plan.border) == shape
    # the border holds the near-dense rows, last; the rest is banded
    counts = np.diff(plan.indptr)[plan.order]
    assert np.all(numerics._near_dense(counts[plan.nb:], a.shape[0]))
    if plan.border:
        assert not np.any(numerics._near_dense(counts[:plan.nb], a.shape[0]))
    rng = np.random.default_rng(7)
    for scale in (1.0, 1e6):
        d = rng.uniform(0.01, 100.0, a.shape[1]) * scale
        fac.factor(d)
        whole = a @ sp.diags(d) @ a.T
        assert abs(fac.mat - whole).max() <= 1e-14 * abs(whole).max()
        rhs = rng.normal(size=a.shape[0])
        got = fac.solve(rhs)
        want = spsolve(fac.mat.tocsc(), rhs)
        assert fac.pivoted is None
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        # the residual the solve keeps is that of the solution it returned
        assert np.array_equal(fac.residual, rhs - fac.mat @ got)


@pytest.mark.parametrize("eps, route, objective", [
    (0.0, "switch", -0.25), (1e-6, "pivoted", 1.5)])
def test_normal_path_fallbacks_still_certify(monkeypatch, eps, route,
                                             objective):
    # columns of three nonzeros keep the normal equations; a second row
    # 2a + eps e_0 makes A D A' singular (eps = 0: the factorization fails
    # and the solve switches to the KKT path) or nearly so (the refined
    # unpivoted solve misses and is redone with pivoting)
    fallbacks, kkts = [], []
    pivoted_solve = numerics._SymmetricFactor._pivoted_solve
    kkt_init = numerics._QuasidefiniteKkt.__init__

    def counted_solve(self, rhs, fallback):
        fallbacks.append(rhs.shape[0])
        return pivoted_solve(self, rhs, fallback)

    def counted_init(self, analysis):
        kkts.append(analysis.at.shape)
        kkt_init(self, analysis)

    monkeypatch.setattr(numerics._SymmetricFactor, "_pivoted_solve",
                        counted_solve)
    monkeypatch.setattr(numerics._QuasidefiniteKkt, "__init__", counted_init)
    a = np.array([1.0, 2.0, -1.0])
    a2 = 2.0 * a + np.array([eps, 0.0, 0.0])
    x0 = np.array([1.0, 0.5, 1.0])
    pb = ProblemBuilder()
    x = pb.add_vars(3, lb=[0.0, -1.0, 0.0], ub=[4.0, 3.0, 2.0],
                    cost=[1.0, -1.0, 0.5], qdiag=[1.0, 2.0, 0.5])
    pb.add_row(x, a, float(a @ x0))
    pb.add_row(x, a2, float(a2 @ x0))
    rep = solve_qp(pb.qp(), tol=1e-8)
    assert rep.status == "optimal"
    assert rep.objective == pytest.approx(objective, abs=1e-7)
    if route == "switch":
        assert kkts and not fallbacks
    else:
        assert fallbacks and not kkts


def _control_qp_instance(n=3, tt=8, battery=(3.0, 6.0), idle=None,
                         sun=True, scenarios=2, theta=1.0):
    """A control QP of operation.mpc_step: one head period, a tt-period tail
    in two scenarios (or `scenarios` of equal probability), n consumers, a
    battery of (power kW, energy kWh), tracking weight theta; consumer
    `idle`, when given, has no load, and without sun the head has no solar
    forecast."""
    from pvpool.operation import (HorizonConfig, HorizonWindow,
                                  OperationState, _control_qp)
    from pvpool.storage import StorageSpec
    rng = np.random.default_rng(17)
    loads = rng.uniform(0.2, 2.5, (1 + tt, n))
    if idle is not None:
        loads[:, idle] = 0.0
    head_gen = rng.uniform(0.0, 3.0) if sun else 0.0
    win = HorizonWindow(0.5, loads[0], head_gen, loads[1:],
                        rng.uniform(0.0, 3.0, (tt, scenarios)),
                        np.array([0.6, 0.4]) if scenarios == 2
                        else np.full(scenarios, 1.0 / scenarios),
                        rng.uniform(0.1, 0.3, 1 + tt),
                        rng.uniform(0.0, 0.1, 1 + tt),
                        rng.uniform(0.0, 0.02, 1 + tt))
    st = OperationState(2.5, rng.uniform(0.0, 3.0, n),
                        rng.uniform(3.0, 6.0, n), rng.uniform(0.0, 1.0, n))
    spec = StorageSpec(*battery, 0.93, cyclic=False)
    return _control_qp(st, win, spec, HorizonConfig(1, 1 + tt, theta=theta),
                       1e-4)


def _sizing_lp_instance():
    """A master LP of the sizing cut pool on a generated day (5 consumers,
    two scenarios), over the cuts of two capacity points of the last
    combination: its free cut variables put it on the KKT path."""
    from pvpool import sizing
    from test_sizing import _baseline_bundle
    bundle, catalog = _baseline_bundle(31, 5, 1, 2)
    combo = list(sizing._combinations(bundle, catalog))[-1]
    pool = sizing.CutPool(bundle)
    for share in (1.0, 0.5):
        pool._evaluate(share * combo.pv_hi, share * combo.es_hi, combo)
    return pool._master(combo)


def _report_bytes(rep):
    return (rep.status, rep.x.tobytes(), rep.objective, rep.primal_residual,
            rep.dual_residual, rep.duality_gap, rep.complementarity,
            rep.iterations, *(part.tobytes() for part in rep.restart))


@pytest.mark.parametrize("kind", ["control_qp", "sizing_lp"])
def test_kept_analysis_gives_bit_identical_reports(kind, monkeypatch):
    # a second solve of one program, with other matrices analysed since,
    # finds the analysis its A carries (one analysis for both solves; the
    # master LP's surplus columns are its own) and reports exactly what
    # the first solve reported
    regs = []  # the regularization of each normal-equations factorization
    factor = numerics._NormalEquations.factor

    def counting(self, dinv, reg=0.0):
        regs.append(reg)
        return factor(self, dinv, reg)

    monkeypatch.setattr(numerics._NormalEquations, "factor", counting)
    if kind == "control_qp":
        problem, path, tol = _control_qp_instance(), "_normal", 1e-6
    else:
        problem, path, tol = _sizing_lp_instance(), "_kkt", 1e-9
    # on a copy of the matrix, which no earlier solve analysed (the
    # control QP's pattern is kept across calls, with its analysis)
    problem = replace(problem, a=problem.a.copy())
    rng = np.random.default_rng(5)
    others = [_lp_from_dense(*random_bounded_lp(rng)) for _ in range(3)]
    made = record_analyses(monkeypatch)
    fresh = solve_qp(problem, tol=tol)
    assert fresh.status == "optimal"
    # the Newton path the case is meant to cover was taken
    assert len(made) == 1 and getattr(made[0][1], path) is not None
    assert made[0][0] is problem.a
    for other in others:
        solve_qp(other, tol=1e-8)
    count, starts = len(made), regs.count(1e-8)
    again = solve_qp(problem, tol=tol)
    assert _report_bytes(again) == _report_bytes(fresh)
    assert len(made) == count
    if kind == "control_qp":
        # the analysis holds the start point's factor, so the second
        # solve factors only inside its iterations
        assert starts >= 1 and regs.count(1e-8) == starts


def test_programs_share_the_analysis_of_the_matrix_object_they_share(
        monkeypatch):
    # two programs on one A object share its one analysis; an equal
    # matrix that is another object gets its own, which gives the same
    # report to the byte
    problem = _control_qp_instance()
    problem = replace(problem, a=problem.a.copy())  # not analysed yet
    made = record_analyses(monkeypatch)
    first = solve_qp(problem, tol=1e-6)
    shifted = replace(problem, rhs=problem.rhs * 1.01)
    assert shifted.a is problem.a
    assert solve_qp(shifted, tol=1e-6).status == "optimal"
    assert [a for a, _ in made] == [problem.a]
    equal = replace(problem, a=problem.a.copy())
    assert equal.a is not problem.a
    assert _report_bytes(solve_qp(equal, tol=1e-6)) == _report_bytes(first)
    assert len(made) == 2 and made[1][0] is equal.a
    assert numerics._analyse(equal.a) is not numerics._analyse(problem.a)


def test_sizing_master_lp_restarts_from_its_own_restart():
    # the master LP's free cut variables put it on the KKT path; a start
    # takes the one start path there too, and from its own cold restart
    # the solve converges to the cold objective
    problem = _sizing_lp_instance()
    cold = solve_qp(problem, tol=1e-9)
    assert cold.status == "optimal" and cold.restart is not None
    warm = solve_qp(problem, tol=1e-9, start=cold.restart)
    assert warm.status == "optimal"
    assert abs(warm.objective - cold.objective) \
        <= 1e-9 * (1.0 + abs(cold.objective))


@pytest.mark.parametrize("kind", ["sizing_lp", "dispatch_lp"])
def test_kkt_matrix_is_its_block_assembly(kind):
    # the analysis builds [[I, A'], [A, I]] from the arrays of A and A';
    # it is sp.bmat's assembly with sorted indices, entry for entry, and
    # its diagonal lies where that one's does (the master LP with its
    # surplus columns, on the KKT path, and a dispatch LP after presolve)
    if kind == "sizing_lp":
        problem = _sizing_lp_instance()
        a = numerics._Standard(problem.c, problem.q_diag, problem.a,
                               problem.rhs, problem.lb, problem.ub).a
    else:
        a = _normal_matrix(kind)[0]
    mat, diag = numerics._Analysis(a).kkt()
    at = a.T.tocsr()
    n, m = at.shape
    want = sp.bmat([[sp.identity(n), at], [at.T, sp.identity(m)]],
                   format="csc")
    want.sort_indices()
    assert mat.shape == want.shape == (n + m, n + m)
    for part in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(mat, part), getattr(want, part))
    cols = np.repeat(np.arange(n + m), np.diff(want.indptr))
    assert np.array_equal(diag, np.flatnonzero(want.indices == cols))


def test_solve_qp_without_start_is_bit_identical():
    # start=None is the cold start, bit for bit, duals included
    problem = _control_qp_instance()
    cold, none = solve_qp(problem), solve_qp(problem, start=None)
    assert _report_bytes(none) == _report_bytes(cold)
    for name in ("y", "zl", "zu"):
        assert getattr(none, name).tobytes() == getattr(cold, name).tobytes()


@pytest.mark.parametrize("bad", ["short", "long", "nan", "inf", "negative",
                                 "primal only"])
def test_solve_qp_refuses_a_bad_start(bad):
    # a start is a point (x, y, zl, zu) of finite values, one per variable,
    # row, variable and variable, with nonnegative bound multipliers; a bad
    # value in any one part is refused
    problem = _control_qp_instance()
    m, n = problem.a.shape
    if bad == "primal only":  # a bare x, not a point
        with pytest.raises(NumericsError, match="start"):
            solve_qp(problem, start=np.zeros(n))
        return
    for part in (2, 3) if bad == "negative" else range(4):
        start = [np.zeros(n), np.zeros(m), np.ones(n), np.ones(n)]
        if bad in ("short", "long"):
            start[part] = np.zeros(start[part].shape[0]
                                   + (1 if bad == "long" else -1))
        else:
            start[part][3] = {"nan": np.nan, "inf": np.inf,
                              "negative": -1e-3}[bad]
        with pytest.raises(NumericsError, match="start"):
            solve_qp(problem, start=start)


def test_solve_qp_takes_any_sign_of_x_and_y_and_zero_multipliers():
    problem = _control_qp_instance()
    m, n = problem.a.shape
    rep = solve_qp(problem, start=(-np.ones(n), -np.ones(m), np.zeros(n),
                                   np.zeros(n)))
    assert rep.status == "optimal"
    cold = solve_qp(problem)
    assert abs(rep.objective - cold.objective) \
        <= 1e-6 * (1.0 + abs(cold.objective))
    # a positive multiplier below 1e-300, the floor every iterate keeps,
    # starts at that floor
    reports = []
    for z in (1e-310, 1e-300):
        multipliers = np.ones(n)
        multipliers[::5] = z
        reports.append(solve_qp(problem, start=(np.ones(n), np.zeros(m),
                                                multipliers, multipliers)))
    assert reports[0].status == "optimal"
    assert _report_bytes(reports[0]) == _report_bytes(reports[1])


def test_restart_is_near_its_rows_not_the_pushed_warm_start():
    # a warm start at the optimum, duals included: pushed inside the box,
    # its 12 variables at a bound move and its rows miss by about 5% of
    # max |b|, while the one costly variable, held by its own row, keeps
    # the relative gap under 1e-2.  The restart is the first iterate whose
    # relative residuals and gap sum to at most 1e-2, so its rows are met
    # to 1e-2 of 1 + max |b|; a gap test alone kept the pushed start
    rng = np.random.default_rng(3)
    m, n = 4, 16
    a = rng.uniform(0.5, 1.5, (m, n))
    b = a @ rng.uniform(0.0, 20.0, n)
    a = np.block([[a, np.zeros((m, 1))], [np.zeros((1, n)), np.ones((1, 1))]])
    b = np.append(b, 5.0)
    c = np.append(rng.uniform(0.0, 1.0, n), 300.0)
    problem = ConvexQuadraticProgram(c, 1e-3, a, b, np.zeros(n + 1),
                                     np.full(n + 1, 40.0))
    opt = solve_qp(problem, tol=1e-9)
    assert opt.status == "optimal"
    assert ((opt.x < 1e-6) | (opt.x > 40.0 - 1e-6)).sum() == 12
    warm = solve_qp(problem, start=(opt.x, opt.y, opt.zl, opt.zu))
    assert warm.status == "optimal"
    x = warm.restart[0]
    assert np.abs(a @ x - b).max() <= 1e-2 * (1.0 + np.abs(b).max())


@pytest.mark.parametrize("battery, sun", [((3.0, 6.0), True),
                                         ((0.0, 0.0), True),
                                         ((0.0, 0.0), False)])
def test_restart_is_interior_with_no_guess_where_presolve_acted(battery,
                                                                 sun):
    # the restart iterate lies strictly inside the box with positive
    # multipliers on its bounded sides.  Presolve pins a zero-load
    # consumer's served energy and a zero-capacity battery, whose recursion
    # rows then lose every variable and are dropped; without sun and
    # battery the head's balance row forces its export and served energy
    # to 0, so it is dropped too.  Those carry no guess: bound multipliers
    # and row duals 0.  A re-solve from the restart reaches the optimum
    problem = _control_qp_instance(battery=battery, idle=1, sun=sun)
    rep = solve_qp(problem)
    assert rep.status == "optimal"
    x, y, zl, zu = rep.restart
    lb, ub = problem.lb, problem.ub
    pinned = lb == ub
    # the idle consumer's served energy in 17 branch periods, and the
    # battery's charge, discharge and SoC there when it has no capacity
    assert pinned.sum() == 17 + 3 * 17 * (battery[0] == 0.0)
    forced = np.zeros_like(pinned)
    if not sun:  # the head's export and served energy, by the layout
        from pvpool.operation import _tree
        (*_, export), served, *_ = _tree(np.arange(problem.c.shape[0]), 4,
                                         3, 8, 2)
        forced[[export, *served]] = True
    assert np.all(x[forced] == lb[forced])
    pinned |= forced
    has_lb = np.isfinite(lb) & ~pinned
    has_ub = np.isfinite(ub) & ~pinned
    assert np.all(x[has_lb] > lb[has_lb]) and np.all(x[has_ub] < ub[has_ub])
    assert np.all(zl[has_lb] > 0.0) and np.all(zu[has_ub] > 0.0)
    assert not zl[~np.isfinite(lb)].any() and not zu[~np.isfinite(ub)].any()
    np.testing.assert_array_equal(x[lb == ub], lb[lb == ub])
    assert not zl[pinned].any() and not zu[pinned].any()
    dropped = (abs(problem.a) @ ~pinned) == 0  # no unpinned variable left
    assert dropped.sum() == 17 * (battery[0] == 0.0) + (not sun)
    assert not y[dropped].any() and np.all(y[~dropped] != 0.0)
    again = solve_qp(problem, start=rep.restart)
    assert again.status == "optimal"
    assert abs(again.objective - rep.objective) \
        <= 1e-6 * (1.0 + abs(rep.objective))


def test_presolve_matches_the_row_loop():
    # presolve's activity bounds come from products with A's sign split;
    # on small random problems (coefficients of both signs, infinite and
    # fixed bounds, slacks, forcing rows that cascade and rows whose bounds
    # exclude the right-hand side) they give the row loop's verdicts, pins
    # and passes, and postsolve at a random reduced point (y over the rows
    # _Standard keeps, the rows presolve emptied reading 0) its duals
    rng = np.random.default_rng(24)
    seen = Counter()
    for _ in range(400):
        problem, n = random_presolve_problem(rng)
        std = numerics._Standard(problem.c, problem.q_diag, problem.a,
                                 problem.rhs, problem.lb, problem.ub)
        infeasible, fixed, vals, passes = presolve_by_rows(
            problem.a, problem.rhs, problem.lb, problem.ub)
        # presolve's proof has an infinite residual, an empty row's not
        assert (std.infeasibility == np.inf) == infeasible
        if infeasible:
            seen["infeasible"] += 1
            continue
        got = np.zeros(len(fixed), dtype=bool) if std.fixed_mask is None \
            else std.fixed_mask
        assert got.tolist() == fixed
        assert [list(zip(*(part.tolist() for part in forced)))
                for forced in std._forced] == passes
        if std.fixed_mask is not None:
            assert std.fixed_vals[got].tobytes() \
                == np.array(vals)[got].tobytes()
        free = int((~got).sum())
        x, y, zl, zu = (rng.uniform(-2.0, 2.0, free),
                        rng.normal(size=len(problem.rhs)),
                        rng.uniform(0.0, 1.0, free), rng.uniform(0.0, 1.0, free))
        kept = np.arange(len(y)) if std.rows is None else std.rows
        y_full = np.zeros_like(y)
        y_full[kept] = y[kept]
        want = postsolve_by_rows(problem.a, problem.c, problem.q_diag, fixed,
                                 vals, passes, x, y_full, zl, zu)
        seen["dropped row"] += len(kept) < len(y)
        for part, reference in zip(std.duals(x, y[kept], zl, zu), want):
            assert part.tolist() == reference
        seen["box pin"] += bool(np.any(problem.lb == problem.ub))
        seen["cascade"] += len(passes) >= 2
        for done in passes:
            for _, j, coef, up in done:
                seen["up" if up else "down"] += 1
                seen["negative coefficient"] += coef < 0
                seen["slack"] += j >= n
    assert min(seen[k] for k in ("infeasible", "box pin", "cascade", "up",
                                 "down", "negative coefficient",
                                 "slack", "dropped row")) >= 10, seen


def test_boxed_separable_equals_the_coordinate_loop():
    # the closed form of a problem without rows gives the coordinate loop's
    # x bit for bit (a -0.0 clipped at a bound of 0.0 stays -0.0, as
    # Python's max keeps it), its verdict on unboundedness, and each bound
    # holding x the gradient's part of that sign as its multiplier
    rng = np.random.default_rng(26)
    signed = {"negative zero": 0, "unbounded": 0}
    for _ in range(600):
        n = int(rng.integers(1, 8))
        c = rng.choice([0.0, -0.0, 1.0, -1.0, 2.5, -0.75, 1e-300], n)
        q = rng.choice([0.0, -0.0, 1.0, 2.0, 0.5], n)
        lb = rng.choice([-1.0, -0.0, 0.0, 0.25], n)
        ub = lb + rng.choice([0.0, 0.5, 2.0, np.inf], n)
        lb[rng.random(n) < 0.2] = -np.inf
        ub[rng.random(n) < 0.2] = np.inf
        ub[(ub == 0.0) & (rng.random(n) < 0.5)] = -0.0
        std = numerics._Standard(c, q, sp.csr_matrix((0, n)), np.zeros(0), lb,
                                 ub)
        want = boxed_separable_by_loop(std.c, std.qdiag, std.lb, std.ub)
        got = numerics._solve_boxed_separable(std)
        if want is None:
            assert got is None
            signed["unbounded"] += 1
            continue
        x, y, zl, zu, iterations, restart = got
        assert x.tobytes() == want.tobytes()
        assert (y.shape, iterations, restart) == ((0,), 0, None)
        grad = std.qdiag * want + std.c
        at_lb = np.isfinite(std.lb) & np.isclose(want, std.lb)
        at_ub = np.isfinite(std.ub) & np.isclose(want, std.ub)
        assert zl.tobytes() == np.where(at_lb, np.maximum(grad, 0.0), 0.0).tobytes()
        assert zu.tobytes() == np.where(at_ub, np.maximum(-grad, 0.0), 0.0).tobytes()
        signed["negative zero"] += bool(np.any((want == 0.0) & np.signbit(want)))
    assert min(signed.values()) >= 20, signed


def test_step_to_boundary_equals_the_masked_divide():
    # the plain divide gives the masked one's step bit for bit: zero and
    # -0.0 rates, infinite, NaN and subnormal ones, the unbounded entries
    # (whose values the iterations set to 0 or 1), no negative rate at all
    # and every entry unbounded
    rng = np.random.default_rng(25)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                        1e-310, -1e-310, numerics._TINY, -numerics._TINY])
    decided = 0
    with np.errstate(all="ignore"):
        for trial in range(600):
            k = int(rng.integers(1, 60))
            value = 10.0 ** rng.uniform(-300.0, 3.0, k)
            value[rng.random(k) < 0.1] = 1e-300
            rate = rng.normal(size=k) * 10.0 ** rng.uniform(-5.0, 5.0, k)
            odd = rng.random(k) < 0.3
            rate[odd] = rng.choice(special, int(odd.sum()))
            if trial % 5 == 0:
                rate = np.abs(rate)  # no negative rate
            unbounded = np.flatnonzero(rng.random(k) < (1.0 if trial % 11 == 0
                                                       else 0.2))
            value[unbounded] = rng.choice([0.0, 1.0])
            got = numerics._step_to_boundary(value, rate, unbounded)
            want = step_to_boundary_masked(value, rate, unbounded,
                                           numerics._STEP_DAMP)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            decided += want < 1.0 / numerics._STEP_DAMP
    assert decided > 200


def _feasible_equality_qp(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 12))
    lb = rng.uniform(-2.0, 0.0, n)
    ub = lb + rng.uniform(0.5, 4.0, n)
    x0 = lb + rng.uniform(0.0, 1.0, n) * (ub - lb)  # feasible point
    pb = ProblemBuilder()
    idx = pb.add_vars(n, lb=lb, ub=ub, cost=rng.normal(size=n),
                      qdiag=rng.uniform(0.0, 2.0, n))
    for _ in range(int(rng.integers(1, 5))):
        a = rng.normal(size=n)
        pb.add_row(idx, a, float(a @ x0))
    return pb.qp()


def test_iteration_limit_on_feasible_qp_is_not_infeasible():
    # a status other than optimal or iteration_limit is a proof; a solve
    # that runs out of iterations proves nothing, so it reports
    # iteration_limit at its best iterate
    for seed in range(100):
        rep = solve_qp(_feasible_equality_qp(seed), tol=1e-6, max_iter=2)
        assert rep.status == "iteration_limit", seed


def test_failed_solve_runs_one_interior_point_solve(monkeypatch):
    calls = []
    loop = numerics._ipm_loop

    def counted(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(numerics, "_ipm_loop", counted)
    rep = solve_qp(_feasible_equality_qp(0), tol=1e-6, max_iter=2)
    assert rep.status == "iteration_limit" and len(calls) == 1
    rep = solve_qp(_inconsistent_duplicate_rows_lp(), tol=1e-8)
    assert rep.status == "iteration_limit" and len(calls) == 2


def test_report_residuals_recomputable():
    rng = np.random.default_rng(11)
    c, rows, lb, ub = random_bounded_lp(rng, max_vars=4, max_rows=3)
    lp = _lp_from_dense(c, rows, lb, ub)
    rep = solve_qp(lp, tol=1e-10)
    assert rep.status == "optimal"
    # every row is an equality, each inequality's slack included
    worst = 0.0
    for a, b in zip(lp.a.toarray(), lp.rhs):
        worst = max(worst, abs(float(a @ rep.x) - b))
    worst = max(worst, float(np.max(lp.lb - rep.x, initial=0.0)))
    worst = max(worst, float(np.max(rep.x - lp.ub, initial=0.0)))
    assert rep.primal_residual == pytest.approx(worst, abs=1e-12)
    assert rep.objective == pytest.approx(
        float(np.asarray(c) @ rep.x[:len(c)]), abs=1e-9)


def test_primal_residual_is_measured_on_the_original_rows():
    # every row is an equality, so the residual is max |a_i x - b_i| over
    # the program's own rows and its box: a row that presolve dropped and
    # a column it fixed count too, at an optimum, at a point that stopped
    # short and at the stall of two rows that contradict each other
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(3, 8))
        lb = rng.uniform(-2.0, 0.0, n)
        ub = lb + rng.uniform(0.5, 4.0, n)
        ub[0] = lb[0]  # fixed, so presolve takes it out
        x0 = lb + rng.uniform(0.0, 1.0, n) * (ub - lb)
        rows = [(np.array([2.0] + [0.0] * (n - 1)), 2.0 * lb[0])]
        for _ in range(int(rng.integers(1, 4))):
            a = rng.normal(size=n)
            rows.append((a, float(a @ x0)))
        # the last row again, through the box's midpoint: each row alone
        # leaves presolve nothing to prove, together they contradict
        a = rows[-1][0]
        again = (a, float(a @ (0.5 * (lb + ub))))
        gap = abs(again[1] - rows[-1][1])
        programs = []
        for extra, max_iter, status in (
                ([], 10 ** 6, "optimal"), ([], 2, "iteration_limit"),
                ([again], 60, "iteration_limit")):
            pb = ProblemBuilder()
            idx = pb.add_vars(n, lb=lb, ub=ub, cost=rng.normal(size=n),
                              qdiag=rng.uniform(0.0, 1.0, n))
            for a, b in rows + extra:
                nz = np.flatnonzero(a)  # the first row is on x_0 alone
                pb.add_row(idx[nz], a[nz], b)
            programs.append((pb.qp(), max_iter, status))
        for qp, max_iter, status in programs:
            std = numerics._Standard(qp.c, qp.q_diag, qp.a, qp.rhs, qp.lb,
                                     qp.ub)
            assert std.fixed_mask[0] and 0 not in std.rows
            rep = solve_qp(qp, tol=1e-9, max_iter=max_iter)
            assert rep.status == status, trial
            worst = 0.0
            for a, b in zip(qp.a.toarray(), qp.rhs):
                worst = max(worst, abs(float(a @ rep.x) - b))
            worst = max(worst, float(np.max(qp.lb - rep.x, initial=0.0)),
                        float(np.max(rep.x - qp.ub, initial=0.0)))
            assert rep.primal_residual == pytest.approx(worst, abs=1e-12)
        # no point is nearer than half the gap to both contradicting rows
        assert rep.primal_residual >= 0.5 * gap - 1e-12, trial


def test_solver_is_deterministic():
    rng = np.random.default_rng(99)
    c, rows, lb, ub = random_bounded_lp(rng)
    lp = _lp_from_dense(c, rows, lb, ub)
    first = solve_qp(lp, tol=1e-10)
    second = solve_qp(lp, tol=1e-10)
    assert first.x.tobytes() == second.x.tobytes()
    assert first.objective == second.objective
    assert first.iterations == second.iterations


def test_dispatch_shaped_lp():
    # storage chain plus import/export split at a realistic horizon length
    horizon = 48
    rng = np.random.default_rng(0)
    load = rng.uniform(5.0, 40.0, horizon)
    pv = rng.uniform(0.0, 60.0, horizon)
    price = rng.uniform(0.1, 0.3, horizon)
    eff = np.sqrt(0.9)
    p_max, e_max = 20.0, 40.0
    pb = ProblemBuilder()
    gg = pb.add_vars(horizon, lb=0.0, ub=np.inf, cost=price)
    gs = pb.add_vars(horizon, lb=0.0, ub=np.inf, cost=-0.05)
    ch = pb.add_vars(horizon, lb=0.0, ub=p_max, cost=0.0)
    di = pb.add_vars(horizon, lb=0.0, ub=p_max, cost=0.0)
    soc = pb.add_vars(horizon + 1, lb=0.0, ub=e_max, cost=0.0)
    senses = []
    for t in range(horizon):
        pb.add_row([gg[t], gs[t], ch[t], di[t]], [1.0, -1.0, -1.0, 1.0],
                   load[t] - pv[t])
        pb.add_row([soc[t + 1], soc[t], ch[t], di[t]],
                   [1.0, -1.0, -eff, 1.0 / eff], 0.0)
        pb.add_row([gg[t]], [1.0], load[t])
        senses += ["==", "==", "<="]
    pb.add_row([soc[0], soc[horizon]], [1.0, -1.0], 0.0)
    rep = solve_qp(with_slacks(pb.qp(), senses + ["=="]), tol=1e-9)
    assert rep.status == "optimal"
    assert rep.primal_residual < 1e-9
    # import and export never overlap at the optimum
    assert float(np.minimum(rep.x[gg], rep.x[gs]).max()) < 1e-8


def test_forcing_row_pins_variables_without_iterations():
    pb = ProblemBuilder()
    x = pb.add_vars(2, lb=0.0, ub=1.0, cost=[3.0, -2.0])
    pb.add_row(x, [1.0, 1.0], 2.0)
    rep = solve_qp(pb.qp(), tol=1e-8)
    assert rep.status == "optimal"
    assert np.allclose(rep.x, [1.0, 1.0])
    assert rep.iterations == 0


def test_forcing_rows_cascade():
    pb = ProblemBuilder()
    x = pb.add_vars(3, lb=0.0, ub=[1.0, 1.0, 3.0], cost=1.0)
    pb.add_row(x[:2], [1.0, 1.0], 2.0)
    pb.add_row(x[1:], [1.0, 1.0], 1.0)
    rep = solve_qp(pb.qp(), tol=1e-8)
    assert rep.status == "optimal"
    assert np.allclose(rep.x, [1.0, 1.0, 0.0])
    assert rep.iterations == 0


def test_forcing_detects_excluded_rhs():
    pb = ProblemBuilder()
    x = pb.add_vars(2, lb=0.0, ub=1.0)
    pb.add_row(x, [1.0, 1.0], 3.0)
    rep = solve_qp(pb.qp(), tol=1e-8)
    assert rep.status == "infeasible"
    assert rep.iterations == 0
    # presolve's row-bound test measures no point
    assert rep.primal_residual == np.inf


def test_equality_pinned_variable_qp():
    # an equality that pins a variable to its bound leaves no interior;
    # only the presolve can hand this to the interior-point method
    pb = ProblemBuilder()
    x = pb.add_vars(1, lb=0.0, ub=2.78, qdiag=2.0)
    pb.add_row(x, [1.0], 2.78)
    rep = solve_qp(pb.qp())
    assert rep.status == "optimal"
    assert rep.x[0] == pytest.approx(2.78, abs=1e-12)


def test_forced_import_with_no_battery():
    # night period without storage: import must equal the load exactly
    load = 4.2
    pb = ProblemBuilder()
    gg = pb.add_vars(1, lb=0.0, ub=load, cost=0.13)
    gs = pb.add_vars(1, lb=0.0, cost=-0.06)
    pb.add_row(np.concatenate([gg, gs]), [1.0, -1.0], load)
    rep = solve_qp(pb.qp(), tol=1e-8)
    assert rep.status == "optimal"
    assert rep.x[0] == pytest.approx(load)
    assert rep.x[1] == pytest.approx(0.0)
    assert rep.iterations == 0


def test_forcing_near_boundary_target_stays_feasible():
    # a right-hand side within the forcing tolerance of the row's maximum
    # activity pins the variables with a sub-tolerance residual; the second
    # pass must treat that row as settled rather than contradictory
    pb = ProblemBuilder()
    x = pb.add_vars(2, lb=0.0, ub=1.0, cost=1.0)
    pb.add_row(x, [1.0, 1.0], 2.0 - 2e-10)
    rep = solve_qp(pb.qp(), tol=1e-8)
    assert rep.status == "optimal"
    assert np.allclose(rep.x, [1.0, 1.0], atol=1e-8)
    # presolve pinned every variable; the residual is still measured
    assert rep.primal_residual == pytest.approx(2e-10, rel=1e-6)


def _dual_violation(problem, rep):
    """Worst breach of the optimality conditions by a report's duals:
    stationarity, the signs the bound sides allow, complementarity, and
    the gap between the primal and the dual objective (relative).  Every
    row is an equality, so an inequality's dual sign is its slack's
    stationarity with a nonnegative multiplier."""
    x, y, zl, zu = rep.x, rep.y, rep.zl, rep.zu
    qx = problem.q_diag * x
    stat = problem.c + qx - problem.a.T @ y - zl + zu
    has_lb, has_ub = np.isfinite(problem.lb), np.isfinite(problem.ub)
    side = np.concatenate([zl[~has_lb], zu[~has_ub]])
    comp = np.concatenate([zl[has_lb] * (x - problem.lb)[has_lb],
                           zu[has_ub] * (problem.ub - x)[has_ub]])
    dual_obj = problem.rhs @ y + problem.lb[has_lb] @ zl[has_lb] \
        - problem.ub[has_ub] @ zu[has_ub] - 0.5 * qx @ x
    gap = abs(dual_obj - rep.objective) / (1.0 + abs(rep.objective))
    return max(np.abs(stat).max(), comp.max(initial=0.0),
               side.max(initial=0.0), np.min(np.concatenate([zl, zu]),
                                            initial=0.0) * -1.0, gap)


def _with_forcing_rows(rng, c, rows, lb, ub):
    """Pin some boxes and turn some rows into ones whose bound-implied
    activity range touches the right-hand side, so presolve forces them."""
    ub = np.where(rng.random(len(c)) < 0.2, lb, ub)
    out = []
    for a, sense, b in rows:
        if rng.random() < 0.5:
            a = np.where(rng.random(len(c)) < 0.4, 0.0, a)
            high = float(np.where(a > 0, ub, lb) @ a)
            low = float(np.where(a > 0, lb, ub) @ a)
            sense, b = [("==", high), ("==", low), ("<=", low),
                        (">=", high)][int(rng.integers(4))]
        out.append((a, sense, b))
    return c, out, lb, ub


def test_duals_certify_random_lps_with_forcing_rows():
    # the rows presolve empties get their duals by postsolve; a zero there
    # would leave the variables they forced dual infeasible
    rng = np.random.default_rng(41)
    solved = 0
    for _ in range(400):
        problem = _lp_from_dense(*_with_forcing_rows(
            rng, *random_bounded_lp(rng, max_vars=6, max_rows=5)))
        rep = solve_qp(problem, tol=1e-9)
        if rep.status != "optimal":
            continue  # forcing rows make some draws infeasible
        solved += 1
        assert _dual_violation(problem, rep) <= 1e-6
    assert solved > 200


def test_duals_certify_random_qps():
    rng = np.random.default_rng(42)
    for _ in range(200):
        drawn = random_box_qp(rng, max_vars=4, max_rows=3)
        if drawn is None:
            continue
        c, q, rows, lb, ub = drawn
        problem = _from_dense(c, q, rows, lb, ub)
        rep = solve_qp(problem, tol=1e-9)
        assert rep.status == "optimal"
        assert _dual_violation(problem, rep) <= 1e-6


def test_duals_match_highs_marginals():
    from scipy.optimize import linprog
    rng = np.random.default_rng(43)
    compared = 0
    for _ in range(150):
        c, rows, lb, ub = random_bounded_lp(rng, max_vars=5, max_rows=4)
        problem = _lp_from_dense(c, rows, lb, ub)
        rep = solve_qp(problem, tol=1e-9)
        a = np.array([r[0] for r in rows]).reshape(len(rows), len(c))
        senses, rhs = np.array([r[1] for r in rows]), [r[2] for r in rows]
        ineq = senses != "=="
        flip = np.where(senses[ineq] == ">=", -1.0, 1.0)
        ref = linprog(c, A_ub=a[ineq] * flip[:, None], b_ub=np.asarray(rhs)[ineq] * flip,
                      A_eq=a[~ineq], b_eq=np.asarray(rhs)[~ineq],
                      bounds=list(zip(lb, ub)), method="highs")
        assert rep.status == "optimal" and ref.status == 0
        active = np.count_nonzero(np.abs(a @ ref.x - rhs) <= 1e-9) \
            + np.count_nonzero(np.minimum(ref.x - lb, ub - ref.x) <= 1e-9)
        if active > len(c):
            continue  # a degenerate vertex (equality rows share a point)
        compared += 1
        want = np.zeros(len(rows))
        want[ineq] = ref.ineqlin.marginals * flip
        want[~ineq] = ref.eqlin.marginals
        # at a nondegenerate vertex the duals are unique
        assert np.allclose(rep.y, want, atol=1e-6)
        n = len(c)  # the slacks' multipliers follow
        assert np.allclose(rep.zl[:n], ref.lower.marginals, atol=1e-6)
        assert np.allclose(rep.zu[:n], -ref.upper.marginals, atol=1e-6)
    assert compared > 100


def test_forced_import_row_is_priced_at_the_grid():
    # presolve forces import to the load and empties the balance row; its
    # dual is the import price, the dearer of the two forced variables
    load = 4.2
    pb = ProblemBuilder()
    gg = pb.add_vars(1, lb=0.0, ub=load, cost=0.13)
    gs = pb.add_vars(1, lb=0.0, cost=-0.06)
    pb.add_row(np.concatenate([gg, gs]), [1.0, -1.0], load)
    rep = solve_qp(pb.qp(), tol=1e-8)
    assert rep.iterations == 0
    assert rep.y[0] == pytest.approx(0.13)
    assert rep.zu[0] == pytest.approx(0.0) and rep.zl[1] == pytest.approx(0.07)
    assert _dual_violation(pb.qp(), rep) <= 1e-12


def _warm_stall():
    """A control QP (288 x 763) of a year of the tracking controller, 3
    consumers and 2 scenarios at seed 0, step 7,583, with the start it was
    given: the previous step's restart point, shifted one period.  Solved
    from that start at the control tolerance with the start's bound
    multipliers as given, it ended iteration_limit after 60 iterations at
    its best iterate, the 29th; with them shifted toward the central path
    it reaches optimal in 12, and the cold start in 7."""
    data = np.load(Path(__file__).parent / "data" / "warm_stall_control_qp.npz")
    a = sp.csr_matrix((data["a_data"], data["a_indices"], data["a_indptr"]),
                      shape=tuple(data["a_shape"]))
    qp = ConvexQuadraticProgram(data["c"], data["q_diag"], a, data["rhs"],
                                data["lb"], data["ub"])
    return qp, tuple(data[name] for name in ("x", "y", "zl", "zu"))


def test_captured_warm_stall_solves_cold():
    # what the control step's cold retry relies on
    qp, _ = _warm_stall()
    assert qp.a.shape == (288, 763)
    assert solve_qp(qp, tol=1e-6).status == "optimal"


def test_captured_warm_stall_solves_from_its_start():
    # the start's bound multipliers are shifted toward the central path at
    # its pushed x; kept as given, they stalled the solve after 60
    # iterations
    qp, start = _warm_stall()
    assert solve_qp(qp, tol=1e-6, start=start).status == "optimal"


def test_a_stalled_solve_reports_the_iterations_it_spent(monkeypatch):
    # the captured warm stall, held to 5 of the 12 iterations it needs
    # from its start: each iteration factors the normal equations once,
    # and the start point's factor (regularized by 1e-8) comes before
    # them.  The report counts the 5 spent, one per factor inside them
    factors = []
    factor = numerics._NormalEquations.factor

    def counting(self, dinv, reg=0.0):
        factors.append(reg)
        return factor(self, dinv, reg)

    monkeypatch.setattr(numerics._NormalEquations, "factor", counting)
    qp, start = _warm_stall()  # on a new matrix, not analysed yet
    rep = solve_qp(qp, tol=1e-6, max_iter=5, start=start)
    assert rep.status == "iteration_limit"
    assert factors[0] == 1e-8 and factors.count(1e-8) == 1
    assert rep.iterations == len(factors) - 1 == 5
