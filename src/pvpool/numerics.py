"""Embedded linear and convex quadratic program solvers.

One primal-dual interior-point core (Mehrotra predictor-corrector) backs both
solve_lp and solve_qp.  Problems are stated as

    min (or max for LPs)   0.5 x'Qx + c'x
    s.t.                   a_i'x  (<=, ==, >=)  rhs_i
                           lb <= x <= ub

with Q = diag(q), q >= 0.  Variance objectives reach this form through
auxiliary spread variables tied to the allocations by equality rows.
Inequality rows get slack variables internally, so the core only ever sees
equality rows plus box bounds.  Every solve is deterministic: identical inputs
produce bit-identical reports.

Each iteration solves one Newton system, on one of two paths.  The normal
equations A D^-1 A' serve problems whose columns are all short; their
pattern and a map from D^-1 to their data are built once per solve
(_NormalEquations).  Problems with a near-dense column (a capacity coupling
every period, as in the sizing LP) or a free variable without curvature
take the regularized augmented (KKT) system instead, whose pattern is also
assembled once per solve (_QuasidefiniteKkt).  Both paths share one
fixed-pattern factorization (_SymmetricFactor): the matrix is positive
definite or quasidefinite, so it is factored without pivoting, the first
factorization's fill-reducing ordering is reused by every later one, each
solve is refined, and a solve whose refined residual misses is redone with
pivoting.

The starting point's least-norm correction toward A x = b is solved on the
system the iterations will use, so its factorization fixes their ordering.

A report with status "optimal" carries residuals measured at the returned
point against the original problem, so callers can verify the certificate
instead of trusting the iteration log.  A solve that does not converge is
classified by a phase-1 problem (infeasible) and a ray search (unbounded),
both solved at 1e-9 whatever the caller's tolerance.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

LE = "<="
EQ = "=="
GE = ">="
_SENSES = (LE, EQ, GE)

_STEP_DAMP = 0.99995  # fraction-to-boundary
_DIVERGE = 1e14
_KKT_REFINE_STEPS = 3  # refinement steps on an unpivoted KKT solve
_KKT_REFINE_TOL = 1e-10  # accepted residual, relative to 1 + |rhs|


class NumericsError(ValueError):
    """Raised for malformed problem definitions."""


class _NormalPathFailure(Exception):
    """Internal: the normal-equations solve lost too much accuracy."""


def _as_bound(arr, n, default):
    if arr is None:
        return np.full(n, default, dtype=np.float64)
    out = np.asarray(arr, dtype=np.float64)
    if out.shape == ():
        return np.full(n, float(out))
    if out.shape != (n,):
        raise NumericsError(f"bound vector has shape {out.shape}, expected ({n},)")
    return out.copy()


def _normalize(problem):
    """Coerce the fields shared by both program types and check them."""
    c = np.asarray(problem.c, dtype=np.float64)
    n = c.shape[0]
    a = problem.a if sp.issparse(problem.a) else sp.csr_matrix(np.atleast_2d(problem.a))
    a = a.tocsr().astype(np.float64)
    senses = np.asarray(problem.senses, dtype="U2")
    rhs = np.asarray(problem.rhs, dtype=np.float64)
    lb = _as_bound(problem.lb, n, -np.inf)
    ub = _as_bound(problem.ub, n, np.inf)
    for name, value in (("c", c), ("a", a), ("senses", senses), ("rhs", rhs),
                        ("lb", lb), ("ub", ub)):
        object.__setattr__(problem, name, value)
    if a.shape[1] != n:
        raise NumericsError("constraint matrix and objective dimension mismatch")
    if senses.shape[0] != a.shape[0] or rhs.shape[0] != a.shape[0]:
        raise NumericsError("senses/rhs length must equal the number of rows")
    if not np.isfinite(c).all() or not np.isfinite(a.data).all() or not np.isfinite(rhs).all():
        raise NumericsError("objective, matrix and rhs entries must be finite")
    for s in senses:
        if s not in _SENSES:
            raise NumericsError(f"unknown sense {s!r}")
    if np.any(np.isnan(lb)) or np.any(np.isnan(ub)):
        raise NumericsError("bounds must not be NaN")
    if np.any(lb > ub):
        raise NumericsError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class LinearProgram:
    """min or max c'x subject to sparse rows and box bounds."""

    c: np.ndarray
    a: sp.csr_matrix
    senses: np.ndarray
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    maximize: bool = False

    def __post_init__(self):
        _normalize(self)


@dataclass(frozen=True)
class ConvexQuadraticProgram:
    """min 0.5 x'diag(q)x + c'x over rows and bounds.

    The quadratic form is positive semidefinite because every q_i >= 0.
    """

    c: np.ndarray
    q_diag: np.ndarray
    a: sp.csr_matrix
    senses: np.ndarray
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        _normalize(self)
        q = np.asarray(self.q_diag, dtype=np.float64)
        if q.shape != self.c.shape:
            raise NumericsError("q_diag must match the variable count")
        if not np.isfinite(q).all() or np.any(q < 0):
            raise NumericsError("q_diag entries must be finite and nonnegative")
        object.__setattr__(self, "q_diag", q)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve, with residuals measured at the returned point.

    status            "optimal", "infeasible", "unbounded" or "iteration_limit"
    x                 primal point (None when no meaningful point exists)
    objective         objective value in the problem's own sense
    primal_residual   max absolute violation over rows and bounds
    dual_residual     stationarity residual, inf-norm
    duality_gap       |primal objective - dual objective|
    complementarity   max |slack * multiplier|
    iterations        interior-point iterations spent
    """

    status: str
    x: np.ndarray | None
    objective: float
    primal_residual: float
    dual_residual: float
    duality_gap: float
    complementarity: float
    iterations: int


def _per_var(value, count):
    """value as a new float vector of length count: a scalar fills it, an
    array must already have that length."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(count, arr)
    if arr.shape != (count,):
        raise NumericsError(f"per-variable vector has shape {arr.shape}, expected ({count},)")
    return arr.copy()


class ProblemBuilder:
    """Incremental assembly of LPs/QPs with named variable blocks.

    A row's indices and coefficients must match in length when it is added;
    its indices must name existing variables when lp() or qp() assembles
    the program, which also checks senses and finiteness.
    """

    def __init__(self):
        self._lb = []
        self._ub = []
        self._cost = []
        self._qdiag = []
        self._row_idx = []
        self._row_coef = []
        self._row_len = []
        self._senses = []
        self._rhs = []
        self._n = 0

    def add_vars(self, count, lb=0.0, ub=np.inf, cost=0.0, qdiag=0.0):
        """Append `count` variables; returns their index array."""
        idx = np.arange(self._n, self._n + count, dtype=np.int64)
        self._lb.append(_per_var(lb, count))
        self._ub.append(_per_var(ub, count))
        self._cost.append(_per_var(cost, count))
        self._qdiag.append(_per_var(qdiag, count))
        self._n += count
        return idx

    def add_row(self, indices, coeffs, sense, rhs):
        idx = np.asarray(indices, dtype=np.int64)
        coef = np.asarray(coeffs, dtype=np.float64)
        if idx.ndim != 1 or coef.shape != idx.shape:
            raise NumericsError("row indices and coefficients must be 1-d and matching")
        self._row_idx.append(idx)
        self._row_coef.append(coef)
        self._row_len.append(len(idx))
        self._senses.append(sense)
        self._rhs.append(float(rhs))

    def add_rows(self, indices, coeffs, sense, rhs):
        """Append one row per line of the (k, w) index array `indices`.

        coeffs broadcasts against indices (a length-w vector gives every
        row the same coefficients) and rhs against k rows.
        """
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 2:
            raise NumericsError("row block indices must be a (rows, width) array")
        k, width = idx.shape
        try:
            coef = np.broadcast_to(np.asarray(coeffs, dtype=np.float64), idx.shape)
            rhs = np.broadcast_to(np.asarray(rhs, dtype=np.float64), (k,))
        except ValueError as exc:
            raise NumericsError(f"row block coefficients or rhs do not fit: {exc}") from exc
        self._row_idx.append(idx.ravel())
        self._row_coef.append(coef.ravel())
        self._row_len.extend([width] * k)
        self._senses.extend([sense] * k)
        self._rhs.extend(rhs.tolist())

    def _assemble(self):
        n = self._n
        m = len(self._rhs)
        ri = np.repeat(np.arange(m), self._row_len)
        ci = np.concatenate(self._row_idx) if m else np.zeros(0, dtype=np.int64)
        dat = np.concatenate(self._row_coef) if m else np.zeros(0)
        if ci.size and (ci.min() < 0 or ci.max() >= n):
            raise NumericsError("constraint references a variable out of range")
        a = sp.csr_matrix((dat, (ri, ci)), shape=(m, n))
        lb = np.concatenate(self._lb) if n else np.zeros(0)
        ub = np.concatenate(self._ub) if n else np.zeros(0)
        cost = np.concatenate(self._cost) if n else np.zeros(0)
        qd = np.concatenate(self._qdiag) if n else np.zeros(0)
        return cost, qd, a, np.asarray(self._senses, dtype="U2"), np.asarray(self._rhs), lb, ub

    def lp(self, maximize=False):
        cost, qd, a, senses, rhs, lb, ub = self._assemble()
        if np.any(qd != 0):
            raise NumericsError("quadratic costs present, build a qp() instead")
        return LinearProgram(cost, a, senses, rhs, lb, ub, maximize)

    def qp(self):
        return ConvexQuadraticProgram(*self._assemble())


# ---------------------------------------------------------------------------
# standard form and presolve

class _Standard:
    """Equality-only form: min 0.5 x'Qx + c'x, A x = b, lb <= x <= ub."""

    def __init__(self, c, qdiag, a, senses, rhs, lb, ub):
        m, n = a.shape
        n_slack = int(np.sum(senses != EQ))
        self.n_orig = n
        self.obj_const = 0.0
        if n_slack:
            data, ri, ci = [], [], []
            slack_of_row = {}
            j = n
            for i in range(m):
                if senses[i] == LE:
                    data.append(1.0); ri.append(i); ci.append(j)
                    slack_of_row[i] = j; j += 1
                elif senses[i] == GE:
                    data.append(-1.0); ri.append(i); ci.append(j)
                    slack_of_row[i] = j; j += 1
            s_block = sp.csr_matrix((data, (ri, ci)), shape=(m, n + n_slack))
            a = sp.hstack([a, sp.csr_matrix((m, n_slack))], format="csr") + s_block
            c = np.concatenate([c, np.zeros(n_slack)])
            qdiag = np.concatenate([qdiag, np.zeros(n_slack)])
            lb = np.concatenate([lb, np.zeros(n_slack)])
            ub = np.concatenate([ub, np.full(n_slack, np.inf)])
        self.c = c
        self.qdiag = qdiag
        self.a = a.tocsr()
        self.b = rhs.copy()
        self.lb = lb
        self.ub = ub
        self.fixed_mask = None
        self.fixed_vals = None
        self.infeasible_reason = None
        self._presolve()

    def _presolve(self):
        """Pin variables until fixpoint, then substitute them out.

        Two rules feed each other: boxes with lb == ub are constants, and a
        row whose bound-implied activity range already touches its
        right-hand side forces every remaining variable in it to the
        corresponding bound (without this, equality-pinned variables leave
        the feasible set with an empty interior and the interior-point
        iteration has no central path to follow).
        """
        lb, ub = self.lb, self.ub
        if np.any(lb > ub):
            return  # _solve reports infeasibility from the raw bounds
        fixed = lb == ub
        vals = np.where(fixed, lb, 0.0)
        m = self.a.shape[0]
        coo = self.a.tocoo()
        nz = coo.data != 0.0  # explicit zeros would turn 0*inf into nan
        rr, cc, dd = coo.row[nz], coo.col[nz], coo.data[nz]
        # a row that already forced its variables is satisfied up to the
        # forcing tolerance; re-checking it against the (tighter) residual
        # tolerance on a later pass would fabricate an infeasibility
        settled = np.zeros(m, dtype=bool)
        while m and rr.size:
            freed = ~fixed[cc]
            contrib = np.where(freed, 0.0, dd * vals[cc])
            b_eff = self.b - np.bincount(rr, weights=contrib, minlength=m)
            hi = np.where(dd > 0, ub[cc], lb[cc])
            lo = np.where(dd > 0, lb[cc], ub[cc])
            wmax = np.where(freed, dd * hi, 0.0)
            wmin = np.where(freed, dd * lo, 0.0)
            max_act = np.bincount(rr, weights=wmax, minlength=m)
            min_act = np.bincount(rr, weights=wmin, minlength=m)
            max_act = np.where(np.isnan(max_act), np.inf, max_act)
            min_act = np.where(np.isnan(min_act), -np.inf, min_act)
            tol = 1e-10 * (1.0 + np.abs(b_eff))
            bad = ((min_act > b_eff + tol) | (max_act < b_eff - tol)) \
                & ~settled
            if np.any(bad):
                self.infeasible_reason = "row bounds exclude the right-hand side"
                break
            force_up = np.isfinite(max_act) & (max_act <= b_eff + tol) \
                & ~settled
            force_dn = np.isfinite(min_act) & (min_act >= b_eff - tol) \
                & ~settled
            sel = freed & (force_up[rr] | force_dn[rr])
            if not np.any(sel):
                break
            settled |= force_up | force_dn
            cols = cc[sel]
            chosen = np.where(force_up[rr], hi, lo)[sel]
            # first assignment wins; a genuine conflict surfaces later as
            # phase-1 infeasibility in the solver proper
            first = np.unique(cols, return_index=True)[1]
            fixed[cols[first]] = True
            vals[cols[first]] = chosen[first]
        if np.any(fixed):
            self._apply_reduction(fixed, vals)

    def _apply_reduction(self, fixed, vals):
        """Substitute pinned variables into costs, rows and constants."""
        acsc = self.a.tocsc()
        self.b = self.b - acsc[:, fixed] @ vals[fixed]
        keep = ~fixed
        self.obj_const += float(self.c[fixed] @ vals[fixed]) \
            + 0.5 * float((self.qdiag[fixed] * vals[fixed]) @ vals[fixed])
        self.a = acsc[:, keep].tocsr()
        self.c = self.c[keep]
        self.qdiag = self.qdiag[keep]
        self.lb = self.lb[keep]
        self.ub = self.ub[keep]
        self.fixed_mask = fixed
        self.fixed_vals = vals

    def expand(self, x_reduced):
        if self.fixed_mask is None:
            full = x_reduced
        else:
            full = self.fixed_vals.copy()
            full[~self.fixed_mask] = x_reduced
        return full[: self.n_orig]


def _objective(c, qdiag, x):
    return float(c @ x) + 0.5 * float((qdiag * x) @ x)


def _solve_boxed_separable(std):
    """Closed-form solve when no equality rows remain (m == 0)."""
    c, q, lb, ub = std.c, std.qdiag, std.lb, std.ub
    n = c.shape[0]
    x = np.zeros(n)
    for i in range(n):
        if q[i] > 0:
            x[i] = min(max(-c[i] / q[i], lb[i]), ub[i])
        elif c[i] > 0:
            if not np.isfinite(lb[i]):
                return None  # unbounded
            x[i] = lb[i]
        elif c[i] < 0:
            if not np.isfinite(ub[i]):
                return None
            x[i] = ub[i]
        else:
            x[i] = min(max(0.0, lb[i]), ub[i])
    return x


class _IpmResult:
    def __init__(self, status, x, y, zl, zu, iters):
        self.status = status
        self.x = x
        self.y = y
        self.zl = zl
        self.zu = zu
        self.iters = iters


_UNPIVOTED = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}


class _SymmetricFactor:
    """A symmetric CSC matrix with a fixed pattern, factored without pivoting.

    Subclasses write `mat.data` (every diagonal entry is stored, at
    diag_pos) and call `factor`.  The first factorization picks a
    fill-reducing symmetric ordering; every later one gathers the data into
    the pattern permuted by that ordering and factors it in its natural
    order, which skips the ordering and keeps the same fill.  The
    matrices factored here are quasidefinite or positive definite, so a
    factorization with diagonal pivots exists for every symmetric ordering
    (Vanderbei, SIAM J. Optim. 1995).  Each solve is iteratively refined
    against the matrix itself; a solve whose refined residual still misses
    is redone with a partially pivoted factorization of the same matrix.
    """

    def __init__(self, mat):
        mat.sort_indices()
        self.mat = mat
        cols = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        self.diag_pos = np.flatnonzero(mat.indices == cols)
        self.order = None  # position k of the ordering holds row order[k]
        self._permuted = None
        self._gather = None
        self._perm = None  # the ordering the current lu factors in
        self.lu = None
        self.pivoted = None

    def factor(self):
        """Factor mat at its current data.

        Raises RuntimeError when even the pivoted factorization is singular.
        """
        self.pivoted = None
        try:
            if self.order is None:
                self.lu = splu(self.mat, permc_spec="MMD_AT_PLUS_A", **_UNPIVOTED)
                self._perm = None
                self._fix_order(self.lu.perm_c)
            else:
                self._permuted.data = self.mat.data[self._gather]
                self.lu = splu(self._permuted, permc_spec="NATURAL", **_UNPIVOTED)
                self._perm = self.order
        except RuntimeError:
            # a zero diagonal pivot: go straight to partial pivoting
            self.lu = self.pivoted = splu(self.mat, permc_spec="MMD_AT_PLUS_A")
            self._perm = None

    def _fix_order(self, perm_c):
        """Keep the permuted pattern and a gather index from mat.data into it.

        splu factors mat[:, argsort(perm_c)]; with diagonal pivots in
        symmetric mode the rows follow the same order.
        """
        mat = self.mat
        size = mat.shape[0]
        cols = np.repeat(np.arange(size), np.diff(mat.indptr))
        new_rows = perm_c[mat.indices]
        new_cols = perm_c[cols]
        gather = np.argsort(new_cols.astype(np.int64) * size + new_rows)
        indptr = np.zeros(size + 1, dtype=mat.indptr.dtype)
        np.cumsum(np.bincount(new_cols, minlength=size), out=indptr[1:])
        self._permuted = sp.csc_matrix(
            (mat.data[gather], new_rows[gather].astype(mat.indices.dtype), indptr),
            shape=mat.shape)
        self._gather = gather
        self.order = np.argsort(perm_c)

    def _lu_solve(self, rhs):
        if self._perm is None:
            return self.lu.solve(rhs)
        out = np.empty_like(rhs)
        out[self._perm] = self.lu.solve(rhs[self._perm])
        return out

    def solve(self, rhs):
        sol = self._lu_solve(rhs)
        if self.lu is not self.pivoted:
            scale = _KKT_REFINE_TOL * (1.0 + float(np.abs(rhs).max()))
            for step in range(_KKT_REFINE_STEPS + 1):
                res = rhs - self.mat @ sol
                if np.abs(res).max() <= scale:
                    break
                if step == _KKT_REFINE_STEPS:
                    sol = self._pivoted_solve(rhs, sol)
                    break
                sol = sol + self._lu_solve(res)
        return sol

    def _pivoted_solve(self, rhs, fallback):
        if self.pivoted is None:
            try:
                self.pivoted = splu(self.mat, permc_spec="MMD_AT_PLUS_A")
            except RuntimeError:
                return fallback
        return self.pivoted.solve(rhs)


class _QuasidefiniteKkt(_SymmetricFactor):
    """The regularized augmented matrix [[D + delta I, A'], [A, -delta I]].

    Its sparsity pattern is assembled once per solve; every factorization
    only writes the diagonal.  With delta > 0 the matrix is quasidefinite.
    """

    def __init__(self, a, at):
        m, n = a.shape
        self.n = n
        if m:
            mat = sp.bmat([[sp.identity(n), at], [a, sp.identity(m)]],
                          format="csc")
        else:
            mat = sp.identity(n, format="csc")
        super().__init__(mat)

    def factor(self, dtil, delta):
        """Factor at diagonal dtil and regularization delta."""
        n = self.n
        self.mat.data[self.diag_pos[:n]] = dtil + delta
        self.mat.data[self.diag_pos[n:]] = -delta
        super().factor()

    def solve(self, r1, r2):
        return np.split(super().solve(np.concatenate([r1, r2])), [self.n])


def _normal_product_map(at, m):
    """Pattern of A D A' and the map from diag(D) to its stored data.

    at is A' in CSR form, so its row k lists the nonzeros of column k of A.
    Every pair (i, j) of nonzeros in column k adds a_ik a_jk d_k to entry
    (i, j), so the map holds one entry per such pair: the sum of nnz(col k)^2,
    the multiplications a sparse product would make.  Returns the pattern
    (CSC, sorted, data zero, diagonal always present) and the map
    (nnz(pattern) x n), so that the data for a diagonal d is map @ d.
    """
    n = at.shape[0]
    cnt = np.diff(at.indptr)
    col_of = np.repeat(np.arange(n), cnt)  # column of A behind each entry
    reps = cnt[col_of]
    first = np.repeat(np.arange(at.nnz), reps)
    starts = np.cumsum(reps) - reps
    second = np.repeat(at.indptr[:-1][col_of], reps) \
        + np.arange(first.shape[0]) - np.repeat(starts, reps)
    rows = at.indices[first].astype(np.int64)
    cols = at.indices[second].astype(np.int64)
    # the diagonal is always stored, so a regularization has a place to go
    keys, slot = np.unique(np.concatenate([cols * m + rows,
                                           np.arange(m) * (m + 1)]),
                           return_inverse=True)
    slot = slot[:first.shape[0]]
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // m, minlength=m), out=indptr[1:])
    pattern = sp.csc_matrix((np.zeros(keys.shape[0]), keys % m, indptr),
                            shape=(m, m))
    # the pairs come column by column of A, so the map is built as CSC
    map_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cnt * cnt, out=map_ptr[1:])
    pmap = sp.csc_matrix((at.data[first] * at.data[second], slot, map_ptr),
                         shape=(keys.shape[0], n))
    return pattern, pmap


class _NormalEquations(_SymmetricFactor):
    """The normal matrix A D A' + reg I, positive definite for reg > 0 or
    A of full row rank; its pattern and product map are built once per
    solve."""

    def __init__(self, at, m):
        pattern, self.pmap = _normal_product_map(at, m)
        super().__init__(pattern)

    def factor(self, dinv, reg=0.0):
        self.mat.data[:] = self.pmap @ dinv
        if reg:
            self.mat.data[self.diag_pos] += reg
        super().factor()


def _ipm(std, tol, max_iter):
    """Mehrotra predictor-corrector on the standard form.

    Diverging iterates can overflow intermediate quantities right before the
    stall detector fires; those float warnings are expected and silenced.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _ipm_loop(std, tol, max_iter)


def _ipm_loop(std, tol, max_iter):
    a = std.a
    m, n = a.shape
    c, qdiag, lb, ub = std.c, std.qdiag.copy(), std.lb, std.ub
    has_lb = np.isfinite(lb)
    has_ub = np.isfinite(ub)
    nu = int(has_lb.sum() + has_ub.sum())
    at = a.T.tocsr()
    b = std.b
    bscale = 1.0 + float(np.abs(b).max()) if m else 1.0
    cscale = 1.0 + float(np.abs(c).max()) if n else 1.0

    # the normal-equations path needs a strictly positive diagonal for every
    # variable; free variables with zero curvature push us to the kkt path
    kkt_path = bool(np.any(~has_lb & ~has_ub & (qdiag == 0.0)))
    if m and not kkt_path:
        # a few near-dense columns (e.g. a capacity variable coupling every
        # period) fill A D A' almost completely; the augmented system keeps
        # them as single spiky rows that the ordering can push last
        col_nnz = np.diff(at.indptr)
        if int(col_nnz.max(initial=0)) > max(32, m // 8):
            kkt_path = True

    # starting point: push a least-squares-ish point strictly inside the box
    x = np.zeros(n)
    both = has_lb & has_ub
    x[both] = 0.5 * (lb[both] + ub[both])
    only_l = has_lb & ~has_ub
    x[only_l] = lb[only_l] + 1.0
    only_u = ~has_lb & has_ub
    x[only_u] = ub[only_u] - 1.0
    kkt = normal = None
    if m:
        # one least-norm correction toward A x = b, solved on the system the
        # iterations use, so its factorization fixes their ordering:
        # [[I, A'], [A, -1e-8 I]] on the KKT path, and its block
        # elimination (A A' + 1e-8 I) w = r, dx = A' w on the normal path
        try:
            if kkt_path:
                kkt = _QuasidefiniteKkt(a, at)
                kkt.factor(1.0 - 1e-8, 1e-8)
                dx = kkt.solve(np.zeros(n), b - a @ x)[0]
            else:
                normal = _NormalEquations(at, m)
                normal.factor(np.ones(n), 1e-8)
                dx = at @ normal.solve(b - a @ x)
            if np.isfinite(dx).all():
                x = x + dx
        except RuntimeError:
            pass
        width = np.where(both, ub - lb, np.inf)
        margin = np.minimum(0.49 * width, np.maximum(1.0, 0.01 * (1.0 + np.abs(x))))
        x = np.where(has_lb, np.maximum(x, lb + margin), x)
        x = np.where(has_ub, np.minimum(x, ub - margin), x)
    y = np.zeros(m)
    z0 = max(1.0, 0.01 * float(np.abs(c).max() if n else 1.0))
    zl = np.where(has_lb, z0, 0.0)
    zu = np.where(has_ub, z0, 0.0)

    best = None
    best_score = np.inf
    stall = 0
    delta = 1e-10

    def residuals(x, y, zl, zu):
        qx = qdiag * x
        rd = qx + c - (at @ y if m else 0.0) - zl + zu
        rp = (a @ x - b) if m else np.zeros(0)
        return rd, rp, qx

    for it in range(1, max_iter + 1):
        sl = np.where(has_lb, x - lb, 1.0)
        su = np.where(has_ub, ub - x, 1.0)
        sl = np.maximum(sl, 1e-300)
        su = np.maximum(su, 1e-300)
        rd, rp, qx = residuals(x, y, zl, zu)
        comp = float((sl * zl * has_lb).sum() + (su * zu * has_ub).sum())
        mu = comp / nu if nu else 0.0

        pobj = _objective(c, qdiag, x)
        dobj = (float(b @ y) if m else 0.0) \
            + float((lb[has_lb] * zl[has_lb]).sum()) - float((ub[has_ub] * zu[has_ub]).sum()) \
            - (pobj - float(c @ x))  # subtract the 0.5 x'Qx part
        gap = abs(pobj - dobj)
        prim_ok = float(np.abs(rp).max() if m else 0.0) <= tol * bscale
        dual_ok = float(np.abs(rd).max() if n else 0.0) <= tol * (cscale + float(np.abs(qx).max() if n else 0.0))
        gap_ok = gap <= tol * (1.0 + abs(pobj))
        score = (float(np.abs(rp).max() if m else 0.0) / bscale
                 + float(np.abs(rd).max() if n else 0.0) / cscale
                 + gap / (1.0 + abs(pobj)))
        if score < 0.95 * best_score:
            stall = 0
        else:
            stall += 1
        if score < best_score:
            best_score = score
            best = _IpmResult("optimal", x.copy(), y.copy(), zl.copy(), zu.copy(), it)
        if prim_ok and dual_ok and gap_ok:
            return _IpmResult("optimal", x, y, zl, zu, it)
        if stall > 30 or not np.isfinite(score):
            break
        if float(np.abs(x).max() if n else 0.0) > _DIVERGE * bscale:
            break

        dvec = np.where(has_lb, zl / sl, 0.0) + np.where(has_ub, zu / su, 0.0)
        dtil = qdiag + dvec

        if kkt_path:
            if kkt is None:
                kkt = _QuasidefiniteKkt(a, at)
            try:
                kkt.factor(dtil, delta)
            except RuntimeError:
                if delta > 1.0:
                    break
                delta *= 100.0
                continue
        else:
            dinv = 1.0 / (dtil + delta)
            if m:
                try:
                    normal.factor(dinv)
                except RuntimeError:
                    # singular normal equations, e.g. linearly dependent rows
                    kkt_path = True
                    continue

        def newton(kappa_l, kappa_u):
            # rhat folds the complementarity targets into the dual residual
            rhat = rd - np.where(has_lb, kappa_l / sl, 0.0) + np.where(has_ub, kappa_u / su, 0.0)
            if kkt_path:
                # block system solves for (dx, w) with w = -dy
                dx, w = kkt.solve(-rhat, -rp if m else np.zeros(0))
                dy = -w
            else:
                if m:
                    rhs_y = -rp + a @ (dinv * rhat)
                    dy = normal.solve(rhs_y)
                    res_y = rhs_y - normal.mat @ dy
                    # a refined (or pivoted) solve that still misses means
                    # the factorization is unusable (near-singular matrix)
                    if not np.isfinite(res_y).all() or np.abs(res_y).max() \
                            > 1e-6 * (1.0 + float(np.abs(rhs_y).max())):
                        raise _NormalPathFailure
                    dx = dinv * (at @ dy - rhat)
                else:
                    dy = np.zeros(0)
                    dx = -dinv * rhat
            dzl = np.where(has_lb, (kappa_l - zl * dx) / sl, 0.0)
            dzu = np.where(has_ub, (kappa_u + zu * dx) / su, 0.0)
            return dx, dy, dzl, dzu

        def max_steps(dx, dzl, dzu):
            ap = 1.0 / _STEP_DAMP
            neg = has_lb & (dx < 0)
            if np.any(neg):
                ap = min(ap, float(np.min(-sl[neg] / dx[neg])))
            pos = has_ub & (dx > 0)
            if np.any(pos):
                ap = min(ap, float(np.min(su[pos] / dx[pos])))
            ad = 1.0 / _STEP_DAMP
            negl = has_lb & (dzl < 0)
            if np.any(negl):
                ad = min(ad, float(np.min(-zl[negl] / dzl[negl])))
            negu = has_ub & (dzu < 0)
            if np.any(negu):
                ad = min(ad, float(np.min(-zu[negu] / dzu[negu])))
            return ap, ad

        try:
            # predictor
            kl_aff = np.where(has_lb, -sl * zl, 0.0)
            ku_aff = np.where(has_ub, -su * zu, 0.0)
            dx_a, dy_a, dzl_a, dzu_a = newton(kl_aff, ku_aff)
            ap_a, ad_a = max_steps(dx_a, dzl_a, dzu_a)
            ap_a = min(1.0, ap_a)
            ad_a = min(1.0, ad_a)
            if nu:
                mu_aff = (((sl + ap_a * dx_a) * (zl + ad_a * dzl_a) * has_lb).sum()
                          + ((su - ap_a * dx_a) * (zu + ad_a * dzu_a) * has_ub).sum()) / nu
                sigma = min(max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-8), 1.0 - 1e-8)
            else:
                mu_aff, sigma = 0.0, 0.0

            # corrector
            kl = np.where(has_lb, sigma * mu - sl * zl - dx_a * dzl_a, 0.0)
            ku = np.where(has_ub, sigma * mu - su * zu + dx_a * dzu_a, 0.0)
            dx, dy, dzl, dzu = newton(kl, ku)
        except _NormalPathFailure:
            kkt_path = True
            continue
        ap, ad = max_steps(dx, dzl, dzu)
        ap = min(1.0, _STEP_DAMP * ap)
        ad = min(1.0, _STEP_DAMP * ad)

        x = x + ap * dx
        y = y + ad * dy
        zl = np.where(has_lb, np.maximum(zl + ad * dzl, 1e-300), 0.0)
        zu = np.where(has_ub, np.maximum(zu + ad * dzu, 1e-300), 0.0)

    result = best if best is not None else _IpmResult("iteration_limit", x, y, zl, zu, 0)
    result.status = "stalled"
    return result


def _unbounded_ray(std):
    """Look for a feasible descent ray; a certificate of unboundedness.

    The ray lives in the recession cone: A d = 0, d_i >= 0 below finite lower
    bounds, d_i <= 0 below finite upper bounds, and d_i = 0 wherever the
    diagonal quadratic has curvature.  Scaling is fixed by a unit box, so the
    search problem is always bounded and feasible (d = 0).
    """
    m, n = std.a.shape
    lb_ray = np.where(np.isfinite(std.lb), 0.0, -1.0)
    ub_ray = np.where(np.isfinite(std.ub), 0.0, 1.0)
    curved = std.qdiag > 0
    lb_ray[curved] = 0.0
    ub_ray[curved] = 0.0
    sub = _Standard(std.c.copy(), np.zeros(n), std.a,
                    np.asarray([EQ] * m, dtype="U2"), np.zeros(m), lb_ray, ub_ray)
    if sub.a.shape[1] == 0:
        return False  # every direction pinned, no ray exists
    res = _ipm(sub, 1e-9, 500)
    if res.x is None:
        return False
    d = sub.expand(res.x)
    cscale = 1.0 + float(np.abs(std.c).max()) if n else 1.0
    ok_null = float(np.abs(std.a @ d).max()) <= 1e-7 if m else True
    ok_box = bool(np.all(d >= lb_ray - 1e-9) and np.all(d <= ub_ray + 1e-9))
    return ok_null and ok_box and float(std.c @ d) < -1e-7 * cscale


def _phase1_feasible(std):
    """Minimize the l1 constraint violation; decides feasibility robustly.

    Always solved at 1e-9, whatever the caller's tolerance: the violation
    it accepts (1e-7 relative) must lie above the solve's own residual, or
    a loose tolerance turns a feasible problem into an "infeasible" one.
    """
    m, n = std.a.shape
    if m == 0:
        return True
    a1 = sp.hstack([std.a, sp.eye(m), -sp.eye(m)], format="csr")
    c1 = np.concatenate([np.zeros(n), np.ones(2 * m)])
    q1 = np.zeros(n + 2 * m)
    lb1 = np.concatenate([std.lb, np.zeros(2 * m)])
    ub1 = np.concatenate([std.ub, np.full(2 * m, np.inf)])
    sub = _Standard(c1, q1, a1, np.asarray([EQ] * m, dtype="U2"), std.b.copy(), lb1, ub1)
    res = _ipm(sub, 1e-9, 500)
    if res.x is None:
        return False
    viol = float(c1 @ res.x)
    bscale = 1.0 + float(np.abs(std.b).max())
    return viol <= 1e-7 * bscale


def _row_violation(act, senses, rhs):
    """Per-row violation of act (sense) rhs; a NaN activity on an
    inequality row reads 0, as Python's max(0.0, nan) does."""
    excess = act - rhs
    return np.where(senses == LE, np.fmax(excess, 0.0),
                    np.where(senses == GE, np.fmax(-excess, 0.0),
                             np.abs(excess)))


def _finish(problem, std, res, tol, maximize):
    """Map a core result back to the original problem and measure residuals."""
    x = std.expand(res.x)
    a, senses, rhs = problem.a, problem.senses, problem.rhs
    act = a @ x if a.shape[0] else np.zeros(0)
    viol = _row_violation(act, senses, rhs)
    bviol = np.maximum(np.maximum(problem.lb - x, x - problem.ub), 0.0)
    bviol = bviol[np.isfinite(bviol)]
    primal_residual = float(max(viol.max() if len(viol) else 0.0,
                                bviol.max() if len(bviol) else 0.0))

    c_int = std.c  # internal (sign-adjusted, slack-extended) objective
    qx = std.qdiag * res.x
    m = std.a.shape[0]
    rd = qx + c_int - (std.a.T @ res.y if m else 0.0) - res.zl + res.zu
    dual_residual = float(np.abs(rd).max()) if len(rd) else 0.0
    sl = np.where(np.isfinite(std.lb), res.x - std.lb, 0.0)
    su = np.where(np.isfinite(std.ub), std.ub - res.x, 0.0)
    complementarity = float(max(np.abs(sl * res.zl).max() if len(sl) else 0.0,
                                np.abs(su * res.zu).max() if len(su) else 0.0))
    pobj_int = _objective(c_int, std.qdiag, res.x)
    quad = pobj_int - float(c_int @ res.x)
    fl = np.isfinite(std.lb)
    fu = np.isfinite(std.ub)
    dobj_int = (float(std.b @ res.y) if m else 0.0) \
        + float((std.lb[fl] * res.zl[fl]).sum()) \
        - float((std.ub[fu] * res.zu[fu]).sum()) - quad
    gap = abs(pobj_int - dobj_int)

    objective = pobj_int + std.obj_const
    if maximize:
        objective = -objective
    status = res.status
    if status == "optimal" or status == "stalled":
        bscale = 1.0 + float(np.abs(std.b).max()) if m else 1.0
        cscale = 1.0 + float(np.abs(c_int).max()) if len(c_int) else 1.0
        qscale = float(np.abs(qx).max()) if len(rd) else 0.0
        converged = (primal_residual <= tol * bscale
                     and dual_residual <= tol * (cscale + qscale)
                     and gap <= tol * (1.0 + abs(pobj_int)))
        status = "optimal" if converged else "iteration_limit"
    return SolveReport(status, x, objective, primal_residual, dual_residual,
                       gap, complementarity, res.iters)


def _solve(problem, qdiag, tol, max_iter, maximize):
    c = -problem.c if maximize else problem.c
    std = _Standard(c, qdiag, problem.a, problem.senses, problem.rhs,
                    problem.lb, problem.ub)
    if np.any(std.lb > std.ub):
        return SolveReport("infeasible", None, np.nan, np.inf, np.inf, np.inf, np.inf, 0)
    if std.infeasible_reason is not None:
        return SolveReport("infeasible", None, np.nan, np.inf, np.inf, np.inf, np.inf, 0)
    # rows that lost every variable to presolve must be consistent on their own
    m, n = std.a.shape
    if m:
        nnz_per_row = np.diff(std.a.indptr)
        empty = nnz_per_row == 0
        if np.any(empty):
            if np.any(np.abs(std.b[empty]) > 1e-9 * (1.0 + np.abs(problem.rhs).max())):
                worst = float(np.abs(std.b[empty]).max())
                return SolveReport("infeasible", None, np.nan, worst, np.inf, np.inf, np.inf, 0)
            keep = ~empty
            std.a = std.a[keep]
            std.b = std.b[keep]
            m = std.a.shape[0]
    if n == 0:
        obj = std.obj_const if not maximize else -std.obj_const
        x0 = std.expand(np.zeros(0))
        return SolveReport("optimal", x0, obj, 0.0, 0.0, 0.0, 0.0, 0)
    if m == 0:
        # coordinates decouple, so each one solves in closed form
        x = _solve_boxed_separable(std)
        if x is None:
            return SolveReport("unbounded", None, np.nan, 0.0, np.inf, np.inf, np.inf, 0)
        grad = std.qdiag * x + std.c
        zl = np.where(np.isfinite(std.lb) & np.isclose(x, std.lb), np.maximum(grad, 0.0), 0.0)
        zu = np.where(np.isfinite(std.ub) & np.isclose(x, std.ub), np.maximum(-grad, 0.0), 0.0)
        res = _IpmResult("optimal", x, np.zeros(0), zl, zu, 0)
        return _finish(problem, std, res, tol, maximize)

    res = _ipm(std, tol, max_iter)
    report = _finish(problem, std, res, tol, maximize)
    if report.status == "optimal":
        return report

    # did not converge: decide between infeasible, unbounded and plain failure
    if not _phase1_feasible(std):
        return SolveReport("infeasible", None, np.nan, report.primal_residual,
                           report.dual_residual, report.duality_gap,
                           report.complementarity, res.iters)
    if _unbounded_ray(std):
        return SolveReport("unbounded", None, np.nan, report.primal_residual,
                           report.dual_residual, np.inf, report.complementarity, res.iters)
    return report


def solve_lp(problem: LinearProgram, tol: float = 1e-8, max_iter: int = 10 ** 6) -> SolveReport:
    """Solve a LinearProgram; "optimal" certifies feasibility and duality gap."""
    if not isinstance(problem, LinearProgram):
        raise NumericsError("solve_lp expects a LinearProgram")
    n = problem.c.shape[0]
    return _solve(problem, np.zeros(n), tol, max_iter, problem.maximize)


def solve_qp(problem: ConvexQuadraticProgram, tol: float = 1e-6, max_iter: int = 10 ** 6) -> SolveReport:
    """Solve a ConvexQuadraticProgram; "optimal" certifies the KKT residuals."""
    if not isinstance(problem, ConvexQuadraticProgram):
        raise NumericsError("solve_qp expects a ConvexQuadraticProgram")
    return _solve(problem, problem.q_diag, tol, max_iter, False)
