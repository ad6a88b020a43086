"""Embedded linear and convex quadratic program solvers.

One primal-dual interior-point core (Mehrotra predictor-corrector) backs both
solve_lp and solve_qp.  Problems are stated as

    min                    0.5 x'Qx + c'x
    s.t.                   a_i'x  (<=, ==, >=)  rhs_i
                           lb <= x <= ub

with Q = diag(q), q >= 0.  Variance objectives reach this form through
auxiliary spread variables tied to the allocations by equality rows.
Inequality rows get slack variables internally, so the core only ever sees
equality rows plus box bounds.  Every solve is deterministic: identical inputs
produce bit-identical reports.

Each iteration solves one Newton system, on one of two paths.  The normal
equations A D^-1 A' serve every problem whose variables all carry a bound
or curvature (_NormalEquations).  Problems with a free variable without
curvature (the cut variables of the sizing master LP) take the regularized
augmented (KKT) system instead (_QuasidefiniteKkt), and so does the rest of
a solve whose primal residual a normal-equations step grew.  The matrix is
positive definite or quasidefinite, so both paths factor it without
pivoting in an order fixed by its pattern alone (_SymmetricFactor).  The
normal matrix is factored by LAPACK as a band and a dense border: its
near-dense rows go last, the rest in reverse Cuthill-McKee order, and the
border is eliminated through a small Schur complement.  The KKT matrix is
factored by SuperLU, which orders it by minimum degree on its pattern at
each factorization.  On either path each solve is refined against the
matrix, and a nonpositive pivot or a solve whose refined residual misses
is redone with SuperLU's partial pivoting.

The symbolic work on a presolved constraint matrix A is done once and kept
(_analyse): A', the normal matrix's pattern with its band plan and the map
from D^-1 to its data, and the assembled KKT matrix.  It is keyed by A's
exact bytes and held for the last few matrices, so the control QPs of a
rolling horizon, which share one matrix, analyse it once.  A kept analysis
yields the same numbers as a new one, so no report depends on earlier
solves.  The iterations keep every vector at full length; entries
without a bound on one side are reset by index rather than masked.

A report with status "optimal" carries residuals measured at the returned
point against the original problem, so callers can verify the certificate
instead of trusting the iteration log, and the duals of the original rows
and bounds, with presolve's removals undone (postsolve).

A status other than "optimal" or "iteration_limit" is a proof.  "infeasible"
comes only from exact checks made before any iteration: presolve's
row-bound test and a row left without a nonzero coefficient whose
right-hand side is not 0.  "unbounded" comes only from the closed form of a
problem without rows.  A solve that does not converge reports
"iteration_limit" at its best iterate, with that iterate's residuals and the
iterations spent; it is not classified further, because every problem the
pipeline solves is feasible and bounded by construction.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs, dpotrf, dpotrs, dtbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee
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
    a = a.tocsr().astype(np.float64)  # a copy, so dropping zeros is local
    # a stored 0.0 is no coefficient: a row holding only such entries is
    # empty to every later test, and none of them meets an infinite bound
    a.eliminate_zeros()
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
    unknown = senses[~np.isin(senses, _SENSES)]
    if unknown.size:
        raise NumericsError(f"unknown sense {unknown[0]!r}")
    if np.any(np.isnan(lb)) or np.any(np.isnan(ub)):
        raise NumericsError("bounds must not be NaN")
    if np.any(lb > ub):
        raise NumericsError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class LinearProgram:
    """min c'x subject to sparse rows and box bounds."""

    c: np.ndarray
    a: sp.csr_matrix
    senses: np.ndarray
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

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

    status            "optimal": the residuals and gap meet the tolerance;
                      "iteration_limit": they do not, at the best iterate;
                      "infeasible" or "unbounded": proved by an exact check
                      before any iteration (see the module docstring)
    x                 primal point (None when infeasible or unbounded)
    objective         objective value
    primal_residual   max absolute violation over rows and bounds
    dual_residual     stationarity residual, inf-norm
    duality_gap       |primal objective - dual objective|
    complementarity   max |slack * multiplier|
    iterations        interior-point iterations spent
    y                 row duals, one per row: d objective / d rhs
    zl, zu            bound multipliers, >= 0: d objective / d lb = zl and
                      d objective / d ub = -zu

    The duals (None when no point is returned) satisfy c + Qx - A'y - zl + zu
    = 0 over the original variables.  Rows and variables that presolve
    removed get theirs by postsolve: a variable pinned by its own box splits
    its reduced cost into zl and zu, and a row that forced its variables to
    their bounds takes the dual nearest 0 that leaves each of them dual
    feasible (Andersen & Andersen, Math. Prog. 1995).
    """

    status: str
    x: np.ndarray | None
    objective: float
    primal_residual: float
    dual_residual: float
    duality_gap: float
    complementarity: float
    iterations: int
    y: np.ndarray | None = None
    zl: np.ndarray | None = None
    zu: np.ndarray | None = None


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

    def lp(self):
        cost, qd, a, senses, rhs, lb, ub = self._assemble()
        if np.any(qd != 0):
            raise NumericsError("quadratic costs present, build a qp() instead")
        return LinearProgram(cost, a, senses, rhs, lb, ub)

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
        self.m = m
        self.obj_const = 0.0
        if n_slack:
            # one slack per inequality row, in row order: +1 on <=, -1 on >=
            rows = np.flatnonzero(senses != EQ)
            s_block = sp.csr_matrix(
                (np.where(senses[rows] == LE, 1.0, -1.0),
                 (rows, n + np.arange(n_slack))), shape=(m, n + n_slack))
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
        self.rows = None  # the rows a solve keeps, when it drops empty ones
        self.infeasible_reason = None
        self._forced = []  # per pass: (rows, columns, coefficients, upward)
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
        fixed = lb == ub
        vals = np.where(fixed, lb, 0.0)
        m = self.a.shape[0]
        coo = self.a.tocoo()
        rr, cc, dd = coo.row, coo.col, coo.data
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
            # a solve that does not converge
            first = np.unique(cols, return_index=True)[1]
            fixed[cols[first]] = True
            vals[cols[first]] = chosen[first]
            rows = rr[sel][first]
            self._forced.append((rows, cols[first], dd[sel][first],
                                 force_up[rows]))
        if np.any(fixed):
            self._apply_reduction(fixed, vals)

    def _apply_reduction(self, fixed, vals):
        """Substitute pinned variables into costs, rows and constants."""
        acsc = self.a.tocsc()
        self.b = self.b - acsc[:, fixed] @ vals[fixed]
        self._unreduced = (acsc.T, self.c, self.qdiag)  # for postsolve
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

    def _full(self, x_reduced):
        if self.fixed_mask is None:
            return x_reduced
        full = self.fixed_vals.copy()
        full[~self.fixed_mask] = x_reduced
        return full

    def expand(self, x_reduced):
        return self._full(x_reduced)[: self.n_orig]

    def duals(self, x, y, zl, zu):
        """Postsolve: the row duals and the bound multipliers of the original
        variables, from those of the reduced problem at its point x.

        Rows the solve dropped start at 0.  Each row that forced variables
        to their bounds contains no remaining variable, so its dual moves
        only their reduced costs r_j: passes are undone last first, and
        the row takes the value nearest 0 at which each variable it forced
        has r_j >= 0 at a lower bound and r_j <= 0 at an upper one.  Every
        pinned variable then puts r_j's positive part on its lower bound
        and its negative part on its upper one.
        """
        y_full = np.zeros(self.m)
        if self.rows is None:
            y_full[:] = y
        else:
            y_full[self.rows] = y
        if self.fixed_mask is None:
            return y_full, zl[: self.n_orig], zu[: self.n_orig]
        at, c, qdiag = self._unreduced
        x = self._full(x)
        grad = c + qdiag * x
        for rows, cols, coef, up in reversed(self._forced):
            ratio = (grad[cols] - at[cols] @ y_full) / coef
            # r_j = coef_j (ratio_j - y_i); an upward row holds its
            # variables where coef_j r_j <= 0, so y_i >= ratio_j, and a
            # downward one where coef_j r_j >= 0, so y_i <= ratio_j
            bound = np.zeros(self.m)
            np.maximum.at(bound, rows[up], ratio[up])
            np.minimum.at(bound, rows[~up], ratio[~up])
            y_full[rows] = bound[rows]
        red = grad - at @ y_full
        fixed = self.fixed_mask
        zl_full = np.where(fixed, np.maximum(red, 0.0), 0.0)
        zu_full = np.where(fixed, np.maximum(-red, 0.0), 0.0)
        zl_full[~fixed] = zl
        zu_full[~fixed] = zu
        return y_full, zl_full[: self.n_orig], zu_full[: self.n_orig]


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
    def __init__(self, x, y, zl, zu, iters):
        self.x = x
        self.y = y
        self.zl = zl
        self.zu = zu
        self.iters = iters


_UNPIVOTED = {"diag_pivot_thresh": 0.0, "options": {"SymmetricMode": True}}
_ANALYSES_KEPT = 8  # presolved constraint matrices whose analysis is kept


def _near_dense(count, m):
    """Which of the rows with `count` entries, in a symmetric matrix of m
    rows, are near-dense: those with more than max(32, m // 8) entries, the
    few that couple most of the others."""
    return count > max(32, m // 8)


class _BandPlan:
    """The normal matrix's symmetric CSC pattern (sorted, every diagonal
    entry stored), split into a band and a dense border.

    Rows with more than max(32, m // 8) entries (a tracking row that spans
    every scenario, a consumer row of the key QP) form the border and go
    last, unless every row has that many; the others are put in reverse
    Cuthill-McKee order, which gathers them into a band of half-bandwidth
    kd.  Block-angular matrices of this shape are what structure-exploiting
    interior-point solvers factor as a band and a small Schur complement
    (Gondzio & Grothey, Comput. Manag. Sci. 2009).  The plan reads only the
    pattern and holds gather indices from its data into LAPACK's lower band
    storage (kd + 1 by nb), the border block B (nb by k) and the corner C
    (k by k), all column-major.
    """

    def __init__(self, indptr, indices):
        m = indptr.shape[0] - 1
        count = np.diff(indptr)
        cols = np.repeat(np.arange(m), count)
        self.indptr, self.indices = indptr, indices
        self.diag_pos = np.flatnonzero(indices == cols)
        dense = _near_dense(count, m)
        if dense.all():
            dense[:] = False  # no band to border: all of it is the band
        band = np.flatnonzero(~dense)
        nb = band.shape[0]
        inner = ~dense[indices] & ~dense[cols]
        local = np.cumsum(~dense) - 1  # row -> its index among the band rows
        graph = sp.csr_matrix((np.ones(int(inner.sum())),
                               (local[indices[inner]], local[cols[inner]])),
                              shape=(nb, nb))
        rcm = reverse_cuthill_mckee(graph, symmetric_mode=True)
        self.order = np.concatenate([band[rcm], np.flatnonzero(dense)])
        pos = np.empty(m, dtype=np.int64)
        pos[self.order] = np.arange(m)
        row, col = pos[indices], pos[cols]
        lower = row >= col  # one entry of each symmetric pair
        in_band = lower & (row < nb)
        self.nb, self.border = nb, m - nb
        self.kd = int((row - col)[in_band].max(initial=0))
        self.band_src = np.flatnonzero(in_band)
        self.band_dst = (row - col + col * (self.kd + 1))[in_band]
        coupling = lower & (col < nb) & (row >= nb)
        self.border_src = np.flatnonzero(coupling)
        self.border_dst = (col + (row - nb) * nb)[coupling]
        corner = lower & (col >= nb)
        self.corner_src = np.flatnonzero(corner)
        self.corner_dst = (row - nb + (col - nb) * self.border)[corner]


class _SymmetricFactor:
    """A symmetric matrix on a fixed pattern, factored without pivoting.

    Subclasses write `mat.data` and call `factor`; their `_factor` factors
    it without pivoting, in an ordering fixed by the pattern alone, so the
    factors depend on the matrix and not on which solve analysed its
    pattern first, and `_direct` solves with that factor.  The matrices
    factored here are quasidefinite or positive definite, so a
    factorization with diagonal pivots exists for every symmetric ordering
    (Vanderbei, SIAM J. Optim. 1995).  Each solve is iteratively refined
    against the matrix itself, and the residual of the solution it returns
    is kept in `residual`; a solve whose refined residual still misses is
    redone with a partially pivoted factorization of the same matrix
    (`residual` is then None), as is a factorization that meets a zero or
    nonpositive pivot.
    """

    def __init__(self, indptr, indices, data):
        size = indptr.shape[0] - 1
        self.mat = sp.csc_matrix((data, indices, indptr), shape=(size, size))
        self.pivoted = None
        self.residual = None
        self._unpivoted = False

    def factor(self):
        """Factor mat at its current data.

        Raises RuntimeError when even the pivoted factorization is singular.
        """
        self.pivoted = None
        self._unpivoted = self._factor()
        if not self._unpivoted:
            # a zero or nonpositive pivot: go straight to partial pivoting
            self.pivoted = splu(self.mat, permc_spec="MMD_AT_PLUS_A")

    def solve(self, rhs):
        self.residual = None
        if not self._unpivoted:
            return self.pivoted.solve(rhs)
        sol = self._direct(rhs)
        scale = _KKT_REFINE_TOL * (1.0 + float(np.abs(rhs).max()))
        for step in range(_KKT_REFINE_STEPS + 1):
            res = rhs - self.mat @ sol
            if np.abs(res).max() <= scale:
                self.residual = res
                break
            if step == _KKT_REFINE_STEPS:
                return self._pivoted_solve(rhs, sol)
            sol = sol + self._direct(res)
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

    Its pattern and off-diagonal data come from the analysis of A; every
    factorization only writes the diagonal.  With delta > 0 the matrix is
    quasidefinite.  It is factored by SuperLU with diagonal pivots, in the
    minimum degree ordering that SuperLU takes from its pattern at each
    factorization.
    """

    def __init__(self, analysis):
        self.n = analysis.at.shape[0]
        mat, self.diag_pos = analysis.kkt()
        super().__init__(mat.indptr, mat.indices, mat.data.copy())
        self.lu = None

    def factor(self, dtil, delta):
        """Factor at diagonal dtil and regularization delta."""
        n = self.n
        self.mat.data[self.diag_pos[:n]] = dtil + delta
        self.mat.data[self.diag_pos[n:]] = -delta
        super().factor()

    def _factor(self):
        try:
            self.lu = splu(self.mat, permc_spec="MMD_AT_PLUS_A", **_UNPIVOTED)
        except RuntimeError:
            self.lu = None
        return self.lu is not None

    def _direct(self, rhs):
        return self.lu.solve(rhs)

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
    A of full row rank; its band plan and product map come from the
    analysis of A.

    It is factored by LAPACK as a band and a dense border: in the plan's
    order the matrix is [[A11, B], [B', C]] with A11 banded, A11 = L L'
    (dpbtrf), W = L^-1 B (dtbtrs) and S = C - W'W = Ls Ls' (dpotrf).  A
    solve runs forward through L, through the corner and back through L'.
    """

    def __init__(self, analysis):
        self.plan, self.pmap = analysis.normal()
        super().__init__(self.plan.indptr, self.plan.indices,
                         np.zeros(self.pmap.shape[0]))
        self._l = self._w = self._ls = None

    def factor(self, dinv, reg=0.0):
        self.mat.data[:] = self.pmap @ dinv
        if reg:
            self.mat.data[self.plan.diag_pos] += reg
        super().factor()

    def _factor(self):
        plan, data = self.plan, self.mat.data
        nb, k = plan.nb, plan.border
        band = np.zeros((plan.kd + 1) * nb)
        band[plan.band_dst] = data[plan.band_src]
        self._l, info = dpbtrf(band.reshape((plan.kd + 1, nb), order="F"),
                               lower=1, overwrite_ab=1)
        if info or not k:
            return info == 0
        coupling = np.zeros(nb * k)
        coupling[plan.border_dst] = data[plan.border_src]
        self._w = dtbtrs(self._l, coupling.reshape((nb, k), order="F"),
                         uplo="L", overwrite_b=1)[0]
        corner = np.zeros(k * k)
        corner[plan.corner_dst] = data[plan.corner_src]
        corner = corner.reshape((k, k), order="F")
        corner -= self._w.T @ self._w
        self._ls, info = dpotrf(corner, lower=1, clean=0, overwrite_a=1)
        return info == 0

    def _direct(self, rhs):
        plan = self.plan
        ordered = rhs[plan.order]
        if not plan.border:
            sol = dpbtrs(self._l, ordered, lower=1, overwrite_b=1)[0]
        else:
            fwd = dtbtrs(self._l, ordered[:plan.nb], uplo="L")[0]
            tail = dpotrs(self._ls, ordered[plan.nb:] - self._w.T @ fwd,
                          lower=1, overwrite_b=1)[0]
            head = dtbtrs(self._l, fwd - self._w @ tail, uplo="L",
                          trans="T", overwrite_b=1)[0]
            sol = np.concatenate([head, tail])
        out = np.empty_like(rhs)
        out[plan.order] = sol
        return out


class _Analysis:
    """The symbolic work on one presolved constraint matrix A.

    Holds A' and, built when a solve first takes that Newton path, the
    normal-equations band plan with its product map, or the assembled KKT
    matrix (A's data off the diagonal) with the positions of its diagonal;
    SuperLU orders that matrix at each factorization.  Everything here
    follows from A's bytes alone and is only read by the solves.
    """

    def __init__(self, a):
        self.at = a.T.tocsr()
        self._normal = None
        self._kkt = None

    def normal(self):
        if self._normal is None:
            pattern, pmap = _normal_product_map(self.at, self.at.shape[1])
            self._normal = (_BandPlan(pattern.indptr, pattern.indices), pmap)
        return self._normal

    def kkt(self):
        if self._kkt is None:
            n, m = self.at.shape
            mat = sp.bmat([[sp.identity(n), self.at], [self.at.T, sp.identity(m)]],
                          format="csc")
            mat.sort_indices()
            cols = np.repeat(np.arange(n + m), np.diff(mat.indptr))
            self._kkt = (mat, np.flatnonzero(mat.indices == cols))
        return self._kkt


# key (shape and the bytes of indptr, indices and data) -> _Analysis, oldest
# first.  A solve reads the same numbers from a kept analysis as from a new
# one, so its report does not depend on what was solved before it.
_ANALYSES = {}


def _analyse(a):
    """The _Analysis of the CSR matrix a, kept for the last few matrices."""
    key = (a.shape, a.indptr.tobytes(), a.indices.tobytes(), a.data.tobytes())
    analysis = _ANALYSES.pop(key, None)
    if analysis is None:
        analysis = _Analysis(a)
        while len(_ANALYSES) >= _ANALYSES_KEPT:
            del _ANALYSES[next(iter(_ANALYSES))]
    _ANALYSES[key] = analysis
    return analysis


def _step_to_boundary(value, rate, unbounded):
    """Largest step s <= 1 / _STEP_DAMP that keeps value + s * rate >= 0,
    over the entries outside unbounded (value >= 0 everywhere)."""
    ratio = np.divide(value, rate, out=np.full(value.shape, -np.inf),
                      where=rate < 0)
    ratio[unbounded] = -np.inf
    return min(1.0 / _STEP_DAMP, -float(ratio.max()))


def _ipm_loop(std, tol, max_iter):
    # m >= 1 rows and n >= 1 columns: _solve settles m == 0 (which n == 0
    # implies, once empty rows are dropped) first
    a = std.a
    m, n = a.shape
    c, qdiag, lb, ub = std.c, std.qdiag.copy(), std.lb, std.ub
    has_lb = np.isfinite(lb)
    has_ub = np.isfinite(ub)
    # the iterations keep every vector at full length; the few entries
    # without a bound on one side are reset by index on that side: slack 1
    # and multiplier 0, so they drop out of every product
    no_lb = np.flatnonzero(~has_lb)
    no_ub = np.flatnonzero(~has_ub)
    lb0 = np.where(has_lb, lb, 0.0)
    ub0 = np.where(has_ub, ub, 0.0)
    nu = 2 * n - no_lb.shape[0] - no_ub.shape[0]
    analysis = _analyse(a)
    at = analysis.at
    b = std.b
    bscale = 1.0 + float(np.abs(b).max())
    cscale = 1.0 + float(np.abs(c).max())

    # the normal-equations path needs a strictly positive diagonal for every
    # variable; free variables with zero curvature push us to the kkt path
    kkt_path = bool(np.any(~has_lb & ~has_ub & (qdiag == 0.0)))

    # starting point: push a least-squares-ish point strictly inside the box
    x = np.zeros(n)
    both = has_lb & has_ub
    x[both] = 0.5 * (lb[both] + ub[both])
    only_l = has_lb & ~has_ub
    x[only_l] = lb[only_l] + 1.0
    only_u = ~has_lb & has_ub
    x[only_u] = ub[only_u] - 1.0
    kkt = normal = None
    # one least-norm correction toward A x = b, solved on the system the
    # iterations use: [[I, A'], [A, -1e-8 I]] on the KKT path, and its
    # block elimination (A A' + 1e-8 I) w = r, dx = A' w on the normal path
    try:
        if kkt_path:
            kkt = _QuasidefiniteKkt(analysis)
            kkt.factor(1.0 - 1e-8, 1e-8)
            dx = kkt.solve(np.zeros(n), b - a @ x)[0]
        else:
            normal = _NormalEquations(analysis)
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
    z0 = max(1.0, 0.01 * float(np.abs(c).max()))
    zl = np.full(n, z0)
    zl[no_lb] = 0.0
    zu = np.full(n, z0)
    zu[no_ub] = 0.0

    best = None
    best_score = np.inf
    stall = 0
    delta = 1e-10
    rp_last = np.inf

    def residuals(x, y, zl, zu):
        qx = qdiag * x
        return qx + c - at @ y - zl + zu, a @ x - b, qx

    for it in range(1, max_iter + 1):
        sl = x - lb
        sl[no_lb] = 1.0
        np.maximum(sl, 1e-300, out=sl)
        su = ub - x
        su[no_ub] = 1.0
        np.maximum(su, 1e-300, out=su)
        rd, rp, qx = residuals(x, y, zl, zu)
        mu = float(sl @ zl + su @ zu) / nu if nu else 0.0

        pobj = _objective(c, qdiag, x)
        dobj = float(b @ y) + float(lb0 @ zl) - float(ub0 @ zu) \
            - (pobj - float(c @ x))  # subtract the 0.5 x'Qx part
        gap = abs(pobj - dobj)
        rp_max = float(np.abs(rp).max())
        rd_max = float(np.abs(rd).max())
        prim_ok = rp_max <= tol * bscale
        dual_ok = rd_max <= tol * (cscale + float(np.abs(qx).max()))
        gap_ok = gap <= tol * (1.0 + abs(pobj))
        score = rp_max / bscale + rd_max / cscale + gap / (1.0 + abs(pobj))
        if score < 0.95 * best_score:
            stall = 0
        else:
            stall += 1
        if score < best_score:
            best_score = score
            best = _IpmResult(x, y, zl, zu, it)
        if prim_ok and dual_ok and gap_ok:
            return _IpmResult(x, y, zl, zu, it)
        if stall > 30 or not np.isfinite(score):
            break
        if float(np.abs(x).max()) > _DIVERGE * bscale:
            break
        # the normal equations are solved accurately only relative to
        # A D^-1 rhat, which grows as the iterates near a degenerate vertex,
        # and the primal residual then bounds the gap.  A Newton step shrinks
        # that residual, so a step that grew it tenfold, past 1% of its
        # tolerance, moves the rest of the solve to the KKT system
        if rp_max > 10.0 * rp_last and rp_max > 1e-2 * tol * bscale:
            kkt_path = True
        rp_last = rp_max

        dtil = qdiag + zl / sl + zu / su

        if kkt_path:
            if kkt is None:
                kkt = _QuasidefiniteKkt(analysis)
            try:
                kkt.factor(dtil, delta)
            except RuntimeError:
                if delta > 1.0:
                    break
                delta *= 100.0
                continue
        else:
            dinv = 1.0 / (dtil + delta)
            try:
                normal.factor(dinv)
            except RuntimeError:
                # singular normal equations, e.g. linearly dependent rows
                kkt_path = True
                continue

        def newton(kappa_l, kappa_u):
            # rhat folds the complementarity targets into the dual residual
            # (kappa is 0 on a side without a bound)
            rhat = rd - kappa_l / sl + kappa_u / su
            if kkt_path:
                # block system solves for (dx, w) with w = -dy
                dx, w = kkt.solve(-rhat, -rp)
                dy = -w
            else:
                rhs_y = -rp + a @ (dinv * rhat)
                dy = normal.solve(rhs_y)
                res_y = normal.residual
                if res_y is None:  # the pivoted solve measured none
                    res_y = rhs_y - normal.mat @ dy
                # a refined (or pivoted) solve that still misses means
                # the factorization is unusable (near-singular matrix)
                if not np.isfinite(res_y).all() or np.abs(res_y).max() \
                        > 1e-6 * (1.0 + float(np.abs(rhs_y).max())):
                    raise _NormalPathFailure
                dx = dinv * (at @ dy - rhat)
            dzl = (kappa_l - zl * dx) / sl
            dzl[no_lb] = 0.0
            dzu = (kappa_u + zu * dx) / su
            dzu[no_ub] = 0.0
            return dx, dy, dzl, dzu

        def max_steps(dx, dzl, dzu):
            ap = min(_step_to_boundary(sl, dx, no_lb),
                     _step_to_boundary(su, -dx, no_ub))
            ad = min(_step_to_boundary(zl, dzl, no_lb),
                     _step_to_boundary(zu, dzu, no_ub))
            return ap, ad

        try:
            # predictor
            dx_a, dy_a, dzl_a, dzu_a = newton(-sl * zl, -su * zu)
            ap_a, ad_a = max_steps(dx_a, dzl_a, dzu_a)
            ap_a = min(1.0, ap_a)
            ad_a = min(1.0, ad_a)
            if nu:
                mu_aff = float((sl + ap_a * dx_a) @ (zl + ad_a * dzl_a)
                               + (su - ap_a * dx_a) @ (zu + ad_a * dzu_a)) / nu
                sigma = min(max((mu_aff / mu) ** 3 if mu > 0 else 0.0, 1e-8), 1.0 - 1e-8)
            else:
                sigma = 0.0

            # corrector
            kl = sigma * mu - sl * zl - dx_a * dzl_a
            kl[no_lb] = 0.0
            ku = sigma * mu - su * zu + dx_a * dzu_a
            ku[no_ub] = 0.0
            dx, dy, dzl, dzu = newton(kl, ku)
        except _NormalPathFailure:
            kkt_path = True
            continue
        ap, ad = max_steps(dx, dzl, dzu)
        ap = min(1.0, _STEP_DAMP * ap)
        ad = min(1.0, _STEP_DAMP * ad)

        x = x + ap * dx
        y = y + ad * dy
        zl = np.maximum(zl + ad * dzl, 1e-300)
        zl[no_lb] = 0.0
        zu = np.maximum(zu + ad * dzu, 1e-300)
        zu[no_ub] = 0.0

    return best if best is not None else _IpmResult(x, y, zl, zu, 0)


def _row_violation(act, senses, rhs):
    """Per-row violation of act (sense) rhs; a NaN activity on an
    inequality row reads 0, as Python's max(0.0, nan) does."""
    excess = act - rhs
    return np.where(senses == LE, np.fmax(excess, 0.0),
                    np.where(senses == GE, np.fmax(-excess, 0.0),
                             np.abs(excess)))


def _finish(problem, std, res, tol):
    """Map a core result back to the original problem, measure residuals
    and decide its status.

    This is the only place that writes "optimal" or "iteration_limit": the
    status follows from the residuals measured here, not from the iteration
    that produced the point.
    """
    x = std.expand(res.x)
    a, senses, rhs = problem.a, problem.senses, problem.rhs
    act = a @ x if a.shape[0] else np.zeros(0)
    viol = _row_violation(act, senses, rhs)
    bviol = np.maximum(np.maximum(problem.lb - x, x - problem.ub), 0.0)
    bviol = bviol[np.isfinite(bviol)]
    primal_residual = float(max(viol.max() if len(viol) else 0.0,
                                bviol.max() if len(bviol) else 0.0))

    c_int = std.c  # internal (slack-extended, presolved) objective
    qx = std.qdiag * res.x
    m = std.a.shape[0]
    rd = qx + c_int - (std.a.T @ res.y if m else 0.0) - res.zl + res.zu
    dual_residual = float(np.abs(rd).max(initial=0.0))
    sl = np.where(np.isfinite(std.lb), res.x - std.lb, 0.0)
    su = np.where(np.isfinite(std.ub), std.ub - res.x, 0.0)
    complementarity = float(max(np.abs(sl * res.zl).max(initial=0.0),
                                np.abs(su * res.zu).max(initial=0.0)))
    pobj_int = _objective(c_int, std.qdiag, res.x)
    quad = pobj_int - float(c_int @ res.x)
    fl = np.isfinite(std.lb)
    fu = np.isfinite(std.ub)
    dobj_int = (float(std.b @ res.y) if m else 0.0) \
        + float((std.lb[fl] * res.zl[fl]).sum()) \
        - float((std.ub[fu] * res.zu[fu]).sum()) - quad
    gap = abs(pobj_int - dobj_int)

    objective = pobj_int + std.obj_const
    bscale = 1.0 + float(np.abs(std.b).max()) if m else 1.0
    cscale = 1.0 + float(np.abs(c_int).max(initial=0.0))
    qscale = float(np.abs(qx).max(initial=0.0))
    converged = (primal_residual <= tol * bscale
                 and dual_residual <= tol * (cscale + qscale)
                 and gap <= tol * (1.0 + abs(pobj_int)))
    status = "optimal" if converged else "iteration_limit"
    return SolveReport(status, x, objective, primal_residual, dual_residual,
                       gap, complementarity, res.iters,
                       *std.duals(res.x, res.y, res.zl, res.zu))


def _solve(problem, qdiag, tol, max_iter):
    std = _Standard(problem.c, qdiag, problem.a, problem.senses, problem.rhs,
                    problem.lb, problem.ub)
    if std.infeasible_reason is not None:
        return SolveReport("infeasible", None, np.nan, np.inf, np.inf, np.inf, np.inf, 0)
    # rows that lost every variable to presolve must be consistent on their own
    m = std.a.shape[0]
    empty = np.diff(std.a.indptr) == 0
    if np.any(empty):
        if np.any(np.abs(std.b[empty]) > 1e-9 * (1.0 + np.abs(problem.rhs).max())):
            worst = float(np.abs(std.b[empty]).max())
            return SolveReport("infeasible", None, np.nan, worst, np.inf, np.inf, np.inf, 0)
        keep = ~empty
        std.a = std.a[keep]
        std.b = std.b[keep]
        std.rows = np.flatnonzero(keep)
        m = std.a.shape[0]
    if m == 0:
        # coordinates decouple, so each one solves in closed form; when
        # presolve fixed every variable there are none left to solve
        x = _solve_boxed_separable(std)
        if x is None:
            return SolveReport("unbounded", None, np.nan, 0.0, np.inf, np.inf, np.inf, 0)
        grad = std.qdiag * x + std.c
        zl = np.where(np.isfinite(std.lb) & np.isclose(x, std.lb), np.maximum(grad, 0.0), 0.0)
        zu = np.where(np.isfinite(std.ub) & np.isclose(x, std.ub), np.maximum(-grad, 0.0), 0.0)
        res = _IpmResult(x, np.zeros(0), zl, zu, 0)
    else:
        # diverging iterates can overflow intermediate quantities right
        # before the stall detector fires; those float warnings are expected
        # and silenced
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            res = _ipm_loop(std, tol, max_iter)
    return _finish(problem, std, res, tol)


def solve_lp(problem: LinearProgram, tol: float = 1e-8, max_iter: int = 10 ** 6) -> SolveReport:
    """Solve a LinearProgram; "optimal" certifies feasibility and duality gap."""
    if not isinstance(problem, LinearProgram):
        raise NumericsError("solve_lp expects a LinearProgram")
    n = problem.c.shape[0]
    return _solve(problem, np.zeros(n), tol, max_iter)


def solve_qp(problem: ConvexQuadraticProgram, tol: float = 1e-6, max_iter: int = 10 ** 6) -> SolveReport:
    """Solve a ConvexQuadraticProgram; "optimal" certifies the KKT residuals."""
    if not isinstance(problem, ConvexQuadraticProgram):
        raise NumericsError("solve_qp expects a ConvexQuadraticProgram")
    return _solve(problem, problem.q_diag, tol, max_iter)
