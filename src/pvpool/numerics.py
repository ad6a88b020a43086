"""Embedded linear and convex quadratic program solvers.

One primal-dual interior-point core (Mehrotra predictor-corrector) backs both
solve_lp and solve_qp.  Problems are stated as

    min                    0.5 x'Qx + c'x
    s.t.                   a_i'x  (<=, ==, >=)  rhs_i
                           lb <= x <= ub

with Q = diag(q), q >= 0.  Variance objectives reach this form through
auxiliary spread variables tied to the allocations by equality rows.
Inequality rows get slack variables internally, so the core only ever sees
equality rows plus box bounds.  Every solve is deterministic: identical
inputs, the start included, produce bit-identical reports.  The iterations
start from the box midpoint or, for solve_qp, from a caller's point (x, y,
zl, zu), moved toward A x = b by one least-norm correction and pushed
strictly inside the box; the duals start at the caller's y and positive
bound multipliers (at least 1e-300), else at 0 and max(1, 1% of the
largest cost).  Each report keeps, as its `restart`, the first iterate
whose relative gap was at most 1e-2: a well-centred point that a
neighbouring problem (a rolling horizon's next step, shifted) restarts
from.

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

The work on a constraint matrix A that A alone decides is done once and
kept (_analyse): A', A's sign split [A+ | A-] (each entry of A, in A's
storage order, in column j when it is positive and n + j otherwise), the
normal matrix's pattern with its band plan and the map from D^-1 to its
data, the factor of A A' + 1e-8 I that the least-norm start point solves
with, and the assembled KKT matrix.  It is keyed by A's exact bytes and
held for the last few matrices, so the control QPs of a rolling horizon,
which share one matrix, analyse it once, and a normal-equations solve that
finds its analysis kept factors only inside its iterations.  A kept
analysis yields the same numbers as a new one, so no report depends on
earlier solves.

One object, _Standard, owns the problem the iterations solve: it adds the
slacks, presolves, drops the rows presolve left empty (or proves them
inconsistent) and holds the analysis of the final A.  Presolve reads the
sign split of the standard form's A.  Each of its passes forms every row's
activity bounds as two products with the free variables' bounds u and l
(a pinned variable's terms read 0), max = A+ u + A- l and min = A+ l +
A- u, each row's terms summed in A's storage order, and reads A's entries
one by one only in the rows that force.  When it pins nothing and drops no
row, the iterations solve with that same A, so one analysis serves both,
and postsolve reads the A' it keeps.  The iterations keep every vector at
full length; entries without a bound on one side are reset by index rather
than masked, and the step to the boundary divides without a mask.  The
iterations and the closed form of a problem without rows both return a
point (x, y, zl, zu) with its iteration count and restart, and _finish
makes every report that carries a point from it.

A report with status "optimal" carries residuals measured at the returned
point against the original problem, so callers can verify the certificate
instead of trusting the iteration log, and the duals of the original rows
and bounds, with presolve's removals undone (postsolve).

A status other than "optimal" or "iteration_limit" is a proof.  "infeasible"
comes only from exact checks made before any iteration: presolve's
row-bound test (primal residual inf) and a row left without a nonzero
coefficient whose right-hand side is not 0 (primal residual the largest
such right-hand side in absolute value).  "unbounded" comes only from the
closed form of a problem without rows.  A solve that does not converge
reports "iteration_limit" at its best iterate, with that iterate's
residuals and the iterations spent; it is not classified further, because
every problem the pipeline solves is feasible and bounded by construction.
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

_STEP_DAMP = 0.99995  # fraction-to-boundary
_RESTART_GAP = 1e-2  # relative gap of the iterate a report keeps to restart
_DIVERGE = 1e14
_KKT_REFINE_STEPS = 3  # refinement steps on an unpivoted KKT solve
_KKT_REFINE_TOL = 1e-10  # accepted residual, relative to 1 + |rhs|


class NumericsError(ValueError):
    """Raised for malformed problem definitions."""


class _NormalPathFailure(Exception):
    """Internal: the normal-equations solve lost too much accuracy."""


def _per_var(value, count, what="per-variable vector"):
    """value as a new float vector of length count: a scalar fills it, an
    array must already have that length."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        return np.full(count, arr)
    if arr.shape != (count,):
        raise NumericsError(f"{what} has shape {arr.shape}, expected ({count},)")
    return arr.copy()


def _normalize(problem):
    """Coerce the fields shared by both program types and check them."""
    c = np.asarray(problem.c, dtype=np.float64)
    n = c.shape[0]
    a = problem.a if sp.issparse(problem.a) else sp.csr_matrix(np.atleast_2d(problem.a))
    a = a.tocsr().astype(np.float64)  # a copy, so dropping zeros is local
    # a stored 0.0 is no coefficient: a row holding only such entries is
    # empty to every later test, and none of them meets an infinite bound
    a.eliminate_zeros()
    # as text of any length, so that no sense is cut down to a known one
    senses = np.asarray(problem.senses, dtype=str)
    unknown = senses[(senses != LE) & (senses != EQ) & (senses != GE)]
    if unknown.size:
        raise NumericsError(f"unknown sense {str(unknown[0])!r}")
    senses = senses.astype("U2")
    rhs = np.asarray(problem.rhs, dtype=np.float64)
    lb = _per_var(-np.inf if problem.lb is None else problem.lb, n,
                  "bound vector")
    ub = _per_var(np.inf if problem.ub is None else problem.ub, n,
                  "bound vector")
    for name, value in (("c", c), ("a", a), ("senses", senses), ("rhs", rhs),
                        ("lb", lb), ("ub", ub)):
        object.__setattr__(problem, name, value)
    if a.shape[1] != n:
        raise NumericsError("constraint matrix and objective dimension mismatch")
    if senses.shape[0] != a.shape[0] or rhs.shape[0] != a.shape[0]:
        raise NumericsError("senses/rhs length must equal the number of rows")
    if not np.isfinite(c).all() or not np.isfinite(a.data).all() or not np.isfinite(rhs).all():
        raise NumericsError("objective, matrix and rhs entries must be finite")
    if np.any(np.isnan(lb)) or np.any(np.isnan(ub)):
        raise NumericsError("bounds must not be NaN")
    # no finite value lies at or above +inf, or at or below -inf
    if np.any(lb == np.inf) or np.any(ub == -np.inf):
        raise NumericsError("a lower bound of +inf or an upper bound of -inf"
                            " leaves no value")
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
    restart           (x, y, zl, zu): the first iterate whose relative gap
                      |pobj - dobj| / (1 + |pobj|) was at most 1e-2, for a
                      neighbouring problem's start; None if none got there

    The duals (None when no point is returned) satisfy c + Qx - A'y - zl + zu
    = 0 over the original variables.  Rows and variables that presolve
    removed get theirs by postsolve: a variable pinned by its own box splits
    its reduced cost into zl and zu, and a row that forced its variables to
    their bounds takes the dual nearest 0 that leaves each of them dual
    feasible (Andersen & Andersen, Math. Prog. 1995).  The restart lies
    inside the box near the central path, where a reoptimization restarts
    well (Gondzio & Grothey, SIAM J. Optim. 2003); its y is 0 on the rows
    that presolve dropped and its zl and zu 0 (no guess) on the variables
    it pinned.
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
    restart: tuple | None = None


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
        """Append one row."""
        idx = np.asarray(indices, dtype=np.int64)
        coef = np.asarray(coeffs, dtype=np.float64)
        if idx.ndim != 1 or coef.shape != idx.shape:
            raise NumericsError("row indices and coefficients must be 1-d and matching")
        self.add_rows(idx[None], coef[None], sense, float(rhs))

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
        return cost, qd, a, np.asarray(self._senses, dtype=str), np.asarray(self._rhs), lb, ub

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
    """The problem the iterations solve: min 0.5 x'Qx + c'x, A x = b,
    lb <= x <= ub, with a slack per inequality row, presolve's pins
    substituted out and the rows it left empty dropped (`rows` lists the
    rows kept).  `infeasibility` is None or the primal residual of a proof:
    inf for presolve's row-bound test, else the largest |b| of an empty
    row.  `analysis` is the final A's _Analysis, presolve's own when A is
    unchanged, or None without rows or with a proof."""

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
        self.a = a = a.tocsr()
        self.b = rhs.copy()
        self.lb = lb
        self.ub = ub
        self.fixed_mask = None
        self.fixed_vals = None
        self.rows = None
        self.infeasibility = None
        self.analysis = None
        self._forced = []  # per pass: (rows, columns, coefficients, upward)
        presolved = self._presolve()
        if self.infeasibility is not None:
            return
        # a row that presolve left empty must hold on its own
        empty = np.diff(self.a.indptr) == 0
        if np.any(empty):
            worst = float(np.abs(self.b[empty]).max())
            if worst > 1e-9 * (1.0 + np.abs(rhs).max()):
                self.infeasibility = worst
                return
            self.a, self.b = self.a[~empty], self.b[~empty]
            self.rows = np.flatnonzero(~empty)
        if self.a.shape[0]:
            self.analysis = presolved if self.a is a else _analyse(self.a)

    def _presolve(self):
        """Pin variables until fixpoint, then substitute them out; returns
        the _Analysis of A as it was, None when there was nothing to read.

        Two rules feed each other: boxes with lb == ub are constants, and a
        row whose bound-implied activity range already touches its
        right-hand side forces every remaining variable in it to the
        corresponding bound (without this, equality-pinned variables leave
        the feasible set with an empty interior and the interior-point
        iteration has no central path to follow).  The activity bounds are
        products with A's sign split (see the module docstring).
        """
        lb, ub = self.lb, self.ub
        fixed = lb == ub
        vals = np.where(fixed, lb, 0.0)
        a = self.a
        m = a.shape[0]
        if not (m and a.nnz or np.any(fixed)):
            return None
        analysis = _analyse(a)
        # a row that already forced its variables is satisfied up to the
        # forcing tolerance; re-checking it against the (tighter) residual
        # tolerance on a later pass would fabricate an infeasibility
        settled = np.zeros(m, dtype=bool)
        while m and a.nnz:
            # a pinned variable's terms read 0 and its value moves to b
            free_lb = np.where(fixed, 0.0, lb)
            free_ub = np.where(fixed, 0.0, ub)
            b_eff = self.b - a @ vals
            # a row with infinite terms of both signs sums to NaN, which,
            # as an infinite bound would, fails every test below
            max_act = analysis.split @ np.concatenate([free_ub, free_lb])
            min_act = analysis.split @ np.concatenate([free_lb, free_ub])
            tol = 1e-10 * (1.0 + np.abs(b_eff))
            bad = ((min_act > b_eff + tol) | (max_act < b_eff - tol)) \
                & ~settled
            if np.any(bad):
                self.infeasibility = np.inf
                break
            force_up = np.isfinite(max_act) & (max_act <= b_eff + tol) \
                & ~settled
            force_dn = np.isfinite(min_act) & (min_act >= b_eff - tol) \
                & ~settled
            forcing = np.flatnonzero(force_up | force_dn)
            # the forcing rows' entries on free variables, in storage order
            count = a.indptr[forcing + 1] - a.indptr[forcing]
            entry = np.repeat(a.indptr[forcing] - np.cumsum(count) + count,
                              count) + np.arange(count.sum())
            rr = np.repeat(forcing, count)
            free = ~fixed[a.indices[entry]]
            if not np.any(free):
                break
            settled[forcing] = True
            entry, rr = entry[free], rr[free]
            cols, coef = a.indices[entry], a.data[entry]
            # the bound each entry drives its variable to: the upper one
            # when the row forces upward through a positive coefficient or
            # downward through a negative one
            chosen = np.where(force_up[rr] == (coef > 0), ub[cols], lb[cols])
            # first assignment wins; a genuine conflict surfaces later as
            # a solve that does not converge
            first = np.unique(cols, return_index=True)[1]
            fixed[cols[first]] = True
            vals[cols[first]] = chosen[first]
            rows = rr[first]
            self._forced.append((rows, cols[first], coef[first],
                                 force_up[rows]))
        if np.any(fixed):
            self._apply_reduction(analysis.at, fixed, vals)
        return analysis

    def _apply_reduction(self, at, fixed, vals):
        """Substitute pinned variables into costs, rows and constants."""
        self.b = self.b - at[fixed].T @ vals[fixed]
        self._unreduced = (at, self.c, self.qdiag)  # for postsolve
        keep = ~fixed
        self.obj_const += float(self.c[fixed] @ vals[fixed]) \
            + 0.5 * float((self.qdiag[fixed] * vals[fixed]) @ vals[fixed])
        self.a = at[keep].T.tocsr()
        self.c = self.c[keep]
        self.qdiag = self.qdiag[keep]
        self.lb = self.lb[keep]
        self.ub = self.ub[keep]
        self.fixed_mask = fixed
        self.fixed_vals = vals

    def _full(self, reduced, pinned=None):
        """reduced over every variable, slacks included: presolve's pinned
        variables read their values, or `pinned` when it is given."""
        if self.fixed_mask is None:
            return reduced
        full = self.fixed_vals.copy() if pinned is None \
            else np.full(self.fixed_mask.shape[0], pinned)
        full[~self.fixed_mask] = reduced
        return full

    def _rows_full(self, y):
        """y over the original rows: 0 on the rows the solve dropped."""
        full = np.zeros(self.m)
        full[slice(None) if self.rows is None else self.rows] = y
        return full

    def expand(self, x_reduced):
        return self._full(x_reduced)[: self.n_orig]

    def reduce(self, x, y, zl, zu):
        """A start (x, y, zl, zu) over the original problem in the solved
        one's order: presolve's pinned variables and dropped rows drop out,
        and slacks read NaN, no guess."""
        keep = self.fixed_mask

        def solved(v):
            full = np.full(self.c.shape[0] if keep is None
                           else keep.shape[0], np.nan)
            full[: self.n_orig] = v
            return full if keep is None else full[~keep]

        return (solved(x), y if self.rows is None else y[self.rows],
                solved(zl), solved(zu))

    def lift(self, x, y, zl, zu):
        """An iterate of the solved problem over the original one, which
        `reduce` takes back: x expanded, y 0 on the dropped rows, and the
        bound multipliers 0, no guess, on presolve's pinned variables."""
        return (self.expand(x), self._rows_full(y),
                self._full(zl, 0.0)[: self.n_orig],
                self._full(zu, 0.0)[: self.n_orig])

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
        y_full = self._rows_full(y)
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


def _solve_boxed_separable(std):
    """Closed-form solve when no rows remain, each coordinate on its own:
    (x, y, zl, zu, 0, None), or None when unbounded."""
    c, q, lb, ub = std.c, std.qdiag, std.lb, std.ub
    curved = q > 0
    if np.any(~curved & (((c > 0) & ~np.isfinite(lb))
                         | ((c < 0) & ~np.isfinite(ub)))):
        return None
    # clipped so that a tie keeps x, as Python's max and min would: -0.0
    # stays -0.0 against a bound of 0.0, where np.maximum gives 0.0
    x = np.where(curved, -c / np.where(curved, q, 1.0),
                 np.where(c > 0, lb, np.where(c < 0, ub, 0.0)))
    clip = curved | (c == 0)
    x = np.where(clip & (lb > x), lb, x)
    x = np.where(clip & (ub < x), ub, x)
    grad = q * x + c
    zl = np.where(np.isfinite(lb) & np.isclose(x, lb), np.maximum(grad, 0.0), 0.0)
    zu = np.where(np.isfinite(ub) & np.isclose(x, ub), np.maximum(-grad, 0.0), 0.0)
    return x, np.zeros(0), zl, zu, 0, None


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
            self._pivot()

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

    def _pivot(self):
        """The partially pivoted factorization of mat, made once per
        factor (RuntimeError when mat is singular)."""
        if self.pivoted is None:
            self.pivoted = splu(self.mat, permc_spec="MMD_AT_PLUS_A")
        return self.pivoted

    def _pivoted_solve(self, rhs, fallback):
        """rhs solved by the pivoted factorization, or fallback when mat is
        singular."""
        try:
            return self._pivot().solve(rhs)
        except RuntimeError:
            return fallback


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
    """The work on one constraint matrix A that A alone decides.

    Holds A' and A's sign split [A+ | A-], the m x 2n matrix that keeps
    each entry in A's storage order, in column j when it is positive and
    n + j otherwise, for presolve's activity bounds.  Built when a solve
    first takes that Newton path, it holds the normal-equations band plan
    with its product map and the factor of the least-norm start point's
    A A' + 1e-8 I, or the assembled KKT matrix (A's data off the diagonal)
    with the positions of its diagonal; SuperLU orders that matrix at each
    factorization.  Everything here follows from A's bytes alone and is
    only read by the solves.
    """

    def __init__(self, a):
        self.at = a.T.tocsr()
        n = a.shape[1]
        self.split = sp.csr_matrix(
            (a.data.copy(), np.where(a.data > 0.0, a.indices, a.indices + n),
             a.indptr.copy()), shape=(a.shape[0], 2 * n))
        self._normal = None
        self._start = None
        self._kkt = None

    def normal(self):
        if self._normal is None:
            pattern, pmap = _normal_product_map(self.at, self.at.shape[1])
            self._normal = (_BandPlan(pattern.indptr, pattern.indices), pmap)
        return self._normal

    def start(self):
        """A A' + 1e-8 I, factored on first use (RuntimeError when even
        its pivoted factorization is singular) and kept."""
        if self._start is None:
            start = _NormalEquations(self)
            start.factor(np.ones(self.at.shape[0]), 1e-8)
            self._start = start
        return self._start

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


_TINY = np.finfo(np.float64).tiny  # the smallest normal double, 2.2e-308


def _step_to_boundary(value, rate, unbounded):
    """Largest step s <= 1 / _STEP_DAMP that keeps value + s * rate >= 0,
    over the entries outside unbounded, where value >= 1e-300 (the
    iterations keep every slack and multiplier there, the start's too).

    A plain divide, without a mask: a rate above -_TINY (0, -0.0, NaN,
    inf or a subnormal) is replaced by -_TINY, a normal number.  Its ratio
    is then below -4e7, so it cannot decide the step, nor could value /
    rate at a negative subnormal rate; any other rate gives value / rate.
    """
    ratio = value / np.fmin(rate, -_TINY)
    ratio[unbounded] = -np.inf
    return min(1.0 / _STEP_DAMP, -float(ratio.max()))


def _ipm_loop(std, tol, max_iter, guess=None):
    # m >= 1 rows and n >= 1 columns: _solve settles m == 0 (which n == 0
    # implies, as _Standard drops empty rows) in closed form.  guess, when
    # given, is a point (x, y, zl, zu) over the solved problem (NaN where it
    # says nothing, and a bound multiplier says nothing unless it is
    # positive).  Returns (x, y, zl, zu, iterations, restart) at the best
    # iterate; restart is the first iterate within _RESTART_GAP, or None
    a = std.a
    m, n = a.shape
    c, qdiag, lb, ub = std.c, std.qdiag, std.lb, std.ub
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
    analysis = std.analysis
    at = analysis.at
    b = std.b
    bscale = 1.0 + float(np.abs(b).max())
    cscale = 1.0 + float(np.abs(c).max())

    # the normal-equations path needs a strictly positive diagonal for every
    # variable; free variables with zero curvature push us to the kkt path
    kkt_path = bool(np.any(~has_lb & ~has_ub & (qdiag == 0.0)))

    # starting point: the guess's x where one is given (a warm start), the
    # box midpoint elsewhere (slacks, and every variable of a cold start);
    # then push that least-squares-ish point strictly inside the box
    x = np.where(has_lb, np.where(has_ub, 0.5 * (lb + ub), lb + 1.0),
                 np.where(has_ub, ub - 1.0, 0.0))
    if guess is not None:
        x = np.where(np.isnan(guess[0]), x, guess[0])
    kkt = None

    def kkt_factor(dtil, delta):  # assembled when the path first needs it
        nonlocal kkt
        if kkt is None:
            kkt = _QuasidefiniteKkt(analysis)
        kkt.factor(dtil, delta)
        return kkt

    normal = None if kkt_path else _NormalEquations(analysis)
    # one least-norm correction toward A x = b, solved on the system the
    # iterations use: [[I, A'], [A, -1e-8 I]] on the KKT path, and its
    # block elimination (A A' + 1e-8 I) w = r, dx = A' w on the normal path,
    # whose factor the analysis keeps
    try:
        if kkt_path:
            dx = kkt_factor(1.0 - 1e-8, 1e-8).solve(np.zeros(n), b - a @ x)[0]
        else:
            dx = at @ analysis.start().solve(b - a @ x)
        if np.isfinite(dx).all():
            x = x + dx
    except RuntimeError:
        pass
    # presolve pinned every lb == ub, so ub - lb is the box's width, inf
    # without a bound on one side, where lb + margin or ub - margin is
    # infinite (NaN when x is) and fmax and fmin keep x
    margin = np.minimum(0.49 * (ub - lb),
                        np.maximum(1.0, 0.01 * (1.0 + np.abs(x))))
    x = np.fmin(np.fmax(x, lb + margin), ub - margin)
    # the duals: the guess's y, and its bound multipliers where they are
    # positive, at least 1e-300 as every iterate's are; z0 (and y = 0)
    # elsewhere
    z0 = max(1.0, 0.01 * float(np.abs(c).max()))
    if guess is None:
        y, zl, zu = np.zeros(m), np.full(n, z0), np.full(n, z0)
    else:
        y = guess[1].copy()
        zl, zu = (np.where(z > 0.0, np.maximum(z, 1e-300), z0)
                  for z in guess[2:])
    zl[no_lb] = 0.0
    zu[no_ub] = 0.0

    best = None
    restart = None
    best_score = np.inf
    stall = 0
    delta = 1e-10
    rp_last = np.inf

    for it in range(1, max_iter + 1):
        sl = x - lb
        sl[no_lb] = 1.0
        np.maximum(sl, 1e-300, out=sl)
        su = ub - x
        su[no_ub] = 1.0
        np.maximum(su, 1e-300, out=su)
        qx = qdiag * x
        rd = qx + c - at @ y - zl + zu
        rp = a @ x - b
        mu = float(sl @ zl + su @ zu) / nu if nu else 0.0

        cx = float(c @ x)
        pobj = cx + 0.5 * float(qx @ x)
        dobj = float(b @ y) + float(lb0 @ zl) - float(ub0 @ zu) \
            - (pobj - cx)  # subtract the 0.5 x'Qx part
        gap = abs(pobj - dobj)
        rp_max = float(np.abs(rp).max())
        rd_max = float(np.abs(rd).max())
        prim_ok = rp_max <= tol * bscale
        dual_ok = rd_max <= tol * (cscale + float(np.abs(qx).max()))
        gap_ok = gap <= tol * (1.0 + abs(pobj))
        if restart is None and gap <= _RESTART_GAP * (1.0 + abs(pobj)):
            restart = (x, y, zl, zu)  # each iteration makes new arrays
        score = rp_max / bscale + rd_max / cscale + gap / (1.0 + abs(pobj))
        if score < 0.95 * best_score:
            stall = 0
        else:
            stall += 1
        if score < best_score:
            best_score = score
            best = (x, y, zl, zu, it)
        if prim_ok and dual_ok and gap_ok:
            best = (x, y, zl, zu, it)
            break
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
            try:
                kkt_factor(dtil, delta)
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
            slzl, suzu = sl * zl, su * zu
            dx_a, dy_a, dzl_a, dzu_a = newton(-slzl, -suzu)
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
            kl = sigma * mu - slzl - dx_a * dzl_a
            kl[no_lb] = 0.0
            ku = sigma * mu - suzu + dx_a * dzu_a
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

    return (*(best or (x, y, zl, zu, 0)), restart)


def _row_violation(act, senses, rhs):
    """Per-row violation of act (sense) rhs; a NaN activity on an
    inequality row reads 0, as Python's max(0.0, nan) does."""
    excess = act - rhs
    return np.where(senses == LE, np.fmax(excess, 0.0),
                    np.where(senses == GE, np.fmax(-excess, 0.0),
                             np.abs(excess)))


def _finish(problem, std, x, y, zl, zu, iterations, restart, tol):
    """The report of a point of the solved problem, from the iterations or
    the closed form: mapped back to the original problem, its residuals
    measured and its status decided.

    This is the only place that writes "optimal" or "iteration_limit": the
    status follows from the residuals measured here, not from the iteration
    that produced the point.
    """
    xo = std.expand(x)
    a, senses, rhs = problem.a, problem.senses, problem.rhs
    act = a @ xo if a.shape[0] else np.zeros(0)
    viol = _row_violation(act, senses, rhs)
    bviol = np.maximum(np.maximum(problem.lb - xo, xo - problem.ub), 0.0)
    # a violation that is not finite (at an infinite or NaN x) is not
    # measured; the others are >= 0, so 0 in its place leaves the max
    bviol = np.where(np.isfinite(bviol), bviol, 0.0)
    primal_residual = float(max(viol.max() if len(viol) else 0.0,
                                bviol.max(initial=0.0)))

    c_int = std.c  # internal (slack-extended, presolved) objective
    qx = std.qdiag * x
    m = std.a.shape[0]
    rd = qx + c_int - (std.analysis.at @ y if m else 0.0) - zl + zu
    dual_residual = float(np.abs(rd).max(initial=0.0))
    fl = np.isfinite(std.lb)
    fu = np.isfinite(std.ub)
    sl = np.where(fl, x - std.lb, 0.0)
    su = np.where(fu, std.ub - x, 0.0)
    complementarity = float(max(np.abs(sl * zl).max(initial=0.0),
                                np.abs(su * zu).max(initial=0.0)))
    cx = float(c_int @ x)
    pobj_int = cx + 0.5 * float(qx @ x)
    # the bound terms are summed over the bounded entries alone: NumPy sums
    # in pairwise blocks, which the unbounded entries' zeros would regroup
    dobj_int = (float(std.b @ y) if m else 0.0) \
        + float((std.lb[fl] * zl[fl]).sum()) \
        - float((std.ub[fu] * zu[fu]).sum()) - (pobj_int - cx)
    gap = abs(pobj_int - dobj_int)

    objective = pobj_int + std.obj_const
    bscale = 1.0 + float(np.abs(std.b).max()) if m else 1.0
    cscale = 1.0 + float(np.abs(c_int).max(initial=0.0))
    qscale = float(np.abs(qx).max(initial=0.0))
    converged = (primal_residual <= tol * bscale
                 and dual_residual <= tol * (cscale + qscale)
                 and gap <= tol * (1.0 + abs(pobj_int)))
    status = "optimal" if converged else "iteration_limit"
    return SolveReport(status, xo, objective, primal_residual,
                       dual_residual, gap, complementarity, iterations,
                       *std.duals(x, y, zl, zu),
                       None if restart is None else std.lift(*restart))


def _solve(problem, qdiag, tol, max_iter, start=None):
    std = _Standard(problem.c, qdiag, problem.a, problem.senses, problem.rhs,
                    problem.lb, problem.ub)
    if std.infeasibility is not None:
        return SolveReport("infeasible", None, np.nan, std.infeasibility,
                           np.inf, np.inf, np.inf, 0)
    if std.a.shape[0]:
        # diverging iterates can overflow intermediate quantities right
        # before the stall detector fires; those float warnings are expected
        # and silenced
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            point = _ipm_loop(std, tol, max_iter,
                              None if start is None else std.reduce(*start))
    else:
        # coordinates decouple, so each one solves in closed form; when
        # presolve fixed every variable there are none left to solve
        point = _solve_boxed_separable(std)
        if point is None:
            return SolveReport("unbounded", None, np.nan, 0.0, np.inf,
                               np.inf, np.inf, 0)
    return _finish(problem, std, *point, tol)


def solve_lp(problem: LinearProgram, tol: float = 1e-8, max_iter: int = 10 ** 6) -> SolveReport:
    """Solve a LinearProgram; "optimal" certifies feasibility and duality gap."""
    if not isinstance(problem, LinearProgram):
        raise NumericsError("solve_lp expects a LinearProgram")
    n = problem.c.shape[0]
    return _solve(problem, np.zeros(n), tol, max_iter)


def solve_qp(problem: ConvexQuadraticProgram, tol: float = 1e-6, max_iter: int = 10 ** 6, start=None) -> SolveReport:
    """Solve a ConvexQuadraticProgram; "optimal" certifies the KKT residuals.

    start, when given, is a point (x, y, zl, zu), say a neighbouring
    problem's `SolveReport.restart`.  x is taken in place of the box
    midpoint, and the same least-norm correction toward the rows and push
    inside the box follow; y is taken as given, and each bound multiplier
    where it is positive (raised to 1e-300, the floor every iterate
    keeps), the cold start's value elsewhere.
    """
    if not isinstance(problem, ConvexQuadraticProgram):
        raise NumericsError("solve_qp expects a ConvexQuadraticProgram")
    if start is not None:
        n, m = problem.c.shape[0], problem.rhs.shape[0]
        start = tuple(np.asarray(v, dtype=np.float64) for v in start)
        if [v.shape for v in start] != [(n,), (m,), (n,), (n,)] \
                or not all(np.isfinite(v).all() for v in start) \
                or np.any(start[2] < 0.0) or np.any(start[3] < 0.0):
            raise NumericsError("start must be a point (x, y, zl, zu) of"
                                " finite values, one per variable, row,"
                                " variable and variable, zl and zu >= 0")
    return _solve(problem, problem.q_diag, tol, max_iter, start)
