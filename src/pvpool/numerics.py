"""Embedded solver for linear and convex quadratic programs.

One program type, ConvexQuadraticProgram, and one entry, solve_qp, run on
one primal-dual interior-point core (Mehrotra predictor-corrector).
Problems are stated as

    min                    0.5 x'Qx + c'x
    s.t.                   A x = rhs
                           lb <= x <= ub

with Q = diag(q), q >= 0; a linear program is q = 0, as in OOQP (Gertz &
Wright, ACM TOMS 2003).  Variance objectives reach this form through
auxiliary spread variables tied to the allocations by equality rows.
This is the form the core solves: a program states equality rows only, and
an inequality row is written with a slack or surplus variable of its own
(as the sizing master's cuts are).  Every solve is deterministic: identical
inputs, the start included, produce bit-identical reports.  Every solve
starts from a point (x, y, zl, zu), a caller's or the cold start's, which
says nothing (x NaN, the rest 0).  x is taken where it is a number and the
box midpoint elsewhere, moved toward A x = b by one least-norm correction
and pushed strictly inside the box; the duals start at y and at the
positive bound multipliers (at least 1e-300), and at max(1, 1% of the
largest cost) where a multiplier is 0.  A caller's start, one that gives
x, then has every bounded side's multiplier raised by 0.5 s'z / sum(s),
with the slacks s measured at the pushed x (Mehrotra, SIAM J. Optim.
1992): the push moves x off the bounds its multipliers were kept for, and
unshifted, many pairs s z start far below the central path and cut the
first steps short.  The cold start is not shifted.  Each report keeps, as
its `restart`, the first iterate whose relative primal residual, relative
dual residual and relative gap sum to at most 1e-2: a well-centred point,
near feasible as well as near the central path, that a neighbouring
problem (a rolling horizon's next step, shifted, or a re-solve) restarts
from.  A warm start's gap is small before any Newton step, so the gap
alone would hand on a start whose rows its solve never met.

Each iteration solves one Newton system, on one of two paths.  The normal
equations A D^-1 A' serve every problem whose variables all carry a bound
or curvature (_NormalEquations).  Problems with a free variable without
curvature (the cut variables of the sizing master LP) take the regularized
augmented (KKT) system instead (_QuasidefiniteKkt), and so does the rest of
a solve whose primal residual a normal-equations step grew.  The matrix is
positive definite or quasidefinite, so both paths factor it without
pivoting in an order fixed by its pattern alone (_SymmetricFactor).  The
normal matrix is factored by LAPACK as a band and a dense border: its
near-dense rows (a control QP's tracking rows) go last, the rest in
reverse Cuthill-McKee order, and the border is eliminated through a
small positive definite Schur complement.  The KKT matrix is factored by
SuperLU, which orders it by minimum degree on its pattern at each
factorization.  On either path each solve is refined against the
matrix, and a nonpositive pivot or a solve whose refined residual misses
is redone with SuperLU's partial pivoting.

The work on a constraint matrix A that A alone decides is done once and
kept on A itself (_analyse): A', A's sign split [A+ | A-] (each entry of
A, in A's storage order, in column j when it is positive and n + j
otherwise), the normal matrix's pattern with its band plan and the map
from D^-1 to its data, the factor of A A' + 1e-8 I that the least-norm
start point solves with, and the assembled KKT matrix.  One rule keeps it
valid and shared: a program's A is read-only, so no analysis outlives a
change of its matrix, and programs that share an A object share its
analysis, so a family of programs on one matrix (a rolling horizon's
control QPs, a cut pool's dispatch LPs, one call's key QPs) analyses it
once (George & Liu, Computer Solution of Large Sparse Positive Definite
Systems, 1981).  An equal matrix that is another object has its own.  A
leading block that `restrict` cut from a program's matrix, A[:r, :c] (a
rolling horizon's shorter windows at the end of a run, down to the head
alone, laid out period by period), is made with its analysis, truncated
from the parent's in the same call: A' is its leading block, the normal
pattern the parent's leading principal block and the product map the
parent's leading columns, and the band plan keeps the parent's order and
border rows, so only the start point's factor is left to compute.  The
matrices presolve's reductions make are private to their solve and
analysed in it.  An analysis made earlier yields the same numbers as a
new one, and a cut is always cut, never analysed afresh, so no report
depends on earlier solves.

One object, _Standard, owns the problem the iterations solve: it
presolves, drops the rows presolve left empty (or proves them
inconsistent) and holds the analysis of the final A.  Presolve reads the
sign split of the program's A.  Each of its passes forms every row's
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

_STEP_DAMP = 0.99995  # fraction-to-boundary
# score (relative residuals plus relative gap) of the iterate a report
# keeps to restart from; a gap alone would pass an unmoved warm start.
# With the start's multipliers shifted, a later, better-centred restart
# pays: 1e-2 took fewer control iterations than 3e-2
_RESTART_SCORE = 1e-2
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


def _vector(value, name):
    """value as a 1-d float array; any other shape is refused by name."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim != 1:
        raise NumericsError(f"{name} has shape {arr.shape}, expected a vector")
    return arr


def _indices(value, name):
    """value as a new int64 index array; any other kind of entry, a float
    or a bool included, is refused by name (an empty array of any kind is
    taken)."""
    arr = np.asarray(value)
    if arr.size and arr.dtype.kind not in "iu":
        raise NumericsError(f"{name} must be integers, not {arr.dtype}")
    return arr.astype(np.int64)


def _read_only(a):
    """Whether the sparse matrix a is CSR float64, stores no 0.0 and has
    read-only arrays, as every program's A: a program keeps such an A."""
    return (a.format == "csr" and a.dtype == np.float64
            and not (a.data.flags.writeable or a.indices.flags.writeable
                     or a.indptr.flags.writeable)
            and bool(a.data.all()))


@dataclass(frozen=True)
class ConvexQuadraticProgram:
    """min 0.5 x'diag(q)x + c'x subject to A x = rhs and box bounds.

    Every row is an equality: an inequality row is stated with a slack or
    surplus variable of its own, bounded below by 0.  The quadratic form is
    positive semidefinite because every q_i >= 0.  A linear program is the
    case q = 0: q_diag, lb and ub take a scalar for every variable, so
    q_diag=0.0 states one.  c and rhs are 1-d, and lb and ub default to
    -inf and inf when None.  A is read-only: a CSR float64 matrix without
    stored zeros whose arrays are read-only is kept as it is, with the
    analysis it carries, and any other A is copied into one.  Programs
    built on one A object share its analysis (see the module docstring),
    which cannot go stale.
    """

    c: np.ndarray
    q_diag: np.ndarray
    a: sp.csr_matrix
    rhs: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        c = _vector(self.c, "c")
        n = c.shape[0]
        a = self.a if sp.issparse(self.a) else sp.csr_matrix(np.atleast_2d(self.a))
        if not _read_only(a):
            a = a.tocsr().astype(np.float64)  # a copy: dropping zeros is local
            # a stored 0.0 is no coefficient: a row holding only such entries
            # is empty to every later test, and none meets an infinite bound
            a.eliminate_zeros()
            for part in (a.data, a.indices, a.indptr):
                part.setflags(write=False)
        q = _per_var(self.q_diag, n, "q_diag")
        rhs = _vector(self.rhs, "rhs")
        lb = _per_var(-np.inf if self.lb is None else self.lb, n, "lb")
        ub = _per_var(np.inf if self.ub is None else self.ub, n, "ub")
        for name, value in (("c", c), ("q_diag", q), ("a", a), ("rhs", rhs),
                            ("lb", lb), ("ub", ub)):
            object.__setattr__(self, name, value)
        if a.shape[1] != n:
            raise NumericsError("constraint matrix and objective dimension mismatch")
        if rhs.shape[0] != a.shape[0]:
            raise NumericsError("rhs length must equal the number of rows")
        if not np.isfinite(c).all() or not np.isfinite(a.data).all() or not np.isfinite(rhs).all():
            raise NumericsError("objective, matrix and rhs entries must be finite")
        if not np.isfinite(q).all() or np.any(q < 0):
            raise NumericsError("q_diag entries must be finite and nonnegative")
        if np.any(np.isnan(lb)) or np.any(np.isnan(ub)):
            raise NumericsError("bounds must not be NaN")
        # no finite value lies at or above +inf, or at or below -inf
        if np.any(lb == np.inf) or np.any(ub == -np.inf):
            raise NumericsError("a lower bound of +inf or an upper bound of -inf"
                                " leaves no value")
        if np.any(lb > ub):
            raise NumericsError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solve, with residuals measured at the returned point.

    status            "optimal": the residuals and gap meet the tolerance;
                      "iteration_limit": they do not, at the best iterate;
                      "infeasible" or "unbounded": proved by an exact check
                      before any iteration (see the module docstring)
    x                 primal point (None when infeasible or unbounded)
    objective         objective value
    primal_residual   max absolute violation over rows (|Ax - rhs|) and
                      bounds
    dual_residual     stationarity residual, inf-norm
    duality_gap       |primal objective - dual objective|
    complementarity   max |slack * multiplier|
    iterations        interior-point iterations spent
    y                 row duals, one per row: d objective / d rhs
    zl, zu            bound multipliers, >= 0: d objective / d lb = zl and
                      d objective / d ub = -zu
    restart           (x, y, zl, zu): the first iterate whose score, the
                      sum of max |Ax - b| / (1 + max |b|), the dual
                      residual / (1 + max |c|) and |pobj - dobj| /
                      (1 + |pobj|), was at most 1e-2, for a neighbouring
                      problem's start; None if none got there

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
    """Incremental assembly of a program with named variable blocks.

    Every row is an equality, sum_k coeffs_k x_indices_k = rhs; a caller
    writes an inequality with a variable of its own for the slack.  A
    row's indices must be integers and match its coefficients in length
    when it is added; they must name existing variables when qp()
    assembles the program, which also checks finiteness.  A program whose
    variables all keep the default qdiag of 0 is a linear program.
    """

    def __init__(self):
        self._lb = []
        self._ub = []
        self._cost = []
        self._qdiag = []
        self._row_idx = []
        self._row_coef = []
        self._row_len = []
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

    def add_row(self, indices, coeffs, rhs):
        """Append one row."""
        idx = _indices(indices, "indices")
        coef = np.asarray(coeffs, dtype=np.float64)
        if idx.ndim != 1 or coef.shape != idx.shape:
            raise NumericsError("row indices and coefficients must be 1-d and matching")
        self.add_rows(idx[None], coef[None], float(rhs))

    def add_rows(self, indices, coeffs, rhs):
        """Append one row per line of the (k, w) index array `indices`.

        coeffs broadcasts against indices (a length-w vector gives every
        row the same coefficients) and rhs against k rows.
        """
        idx = _indices(indices, "indices")
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
        self._rhs.extend(rhs.tolist())

    def qp(self):
        """The program assembled so far: a linear program when no variable
        has a qdiag."""
        n = self._n
        ri = np.repeat(np.arange(len(self._rhs)), self._row_len)
        ci = np.concatenate([np.zeros(0, dtype=np.int64), *self._row_idx])
        if ci.size and (ci.min() < 0 or ci.max() >= n):
            raise NumericsError("constraint references a variable out of range")
        a = sp.csr_matrix((np.concatenate([np.zeros(0), *self._row_coef]),
                           (ri, ci)), shape=(len(self._rhs), n))
        cost, qd, lb, ub = (np.concatenate([np.zeros(0), *parts]) for parts in
                            (self._cost, self._qdiag, self._lb, self._ub))
        return ConvexQuadraticProgram(
            cost, qd, a, np.asarray(self._rhs, dtype=np.float64), lb, ub)


# ---------------------------------------------------------------------------
# standard form and presolve

class _Standard:
    """The problem the iterations solve: the program min 0.5 x'Qx + c'x,
    A x = b, lb <= x <= ub, with presolve's pins substituted out and the
    rows it left empty dropped (`rows` lists the rows kept).
    `infeasibility` is None or the primal residual of a proof: inf for
    presolve's row-bound test, else the largest |b| of an empty row.
    `analysis` is the final A's _Analysis, the one presolve read when A is
    unchanged, or None without rows or with a proof."""

    def __init__(self, c, qdiag, a, rhs, lb, ub):
        self.m = a.shape[0]
        self.obj_const = 0.0
        self.c = c
        self.qdiag = qdiag
        self.a = a
        self.b = rhs.copy()
        self.lb = lb
        self.ub = ub
        self.fixed_mask = None
        self.fixed_vals = None
        self.rows = None
        self.infeasibility = None
        self.analysis = None
        self._forced = []  # per pass: (rows, columns, coefficients, upward)
        self._presolve()
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
            self.analysis = _analyse(self.a)

    def _presolve(self):
        """Pin variables until fixpoint, then substitute them out.

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
            return
        analysis = _analyse(a)
        # a row that already forced its variables is satisfied up to the
        # forcing tolerance; re-checking it against the (tighter) residual
        # tolerance on a later pass would fabricate an infeasibility
        settled = np.zeros(m, dtype=bool)
        while m and a.nnz:
            # a pinned variable's terms read 0 and its value moves to b;
            # with nothing pinned these are lb, ub and b exactly
            free_lb, free_ub, b_eff = lb, ub, self.b
            if np.any(fixed):
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
            entry = _entries(a.indptr, forcing)[0]
            rr = np.repeat(forcing, np.diff(a.indptr).take(forcing))
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

    def expand(self, reduced, pinned=None):
        """reduced over every variable: presolve's pinned variables read
        their values, or `pinned` when it is given."""
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

    def reduce(self, x, y, zl, zu):
        """A start (x, y, zl, zu) over the original problem in the solved
        one's order: presolve's pinned variables and dropped rows drop
        out."""
        free = slice(None) if self.fixed_mask is None else ~self.fixed_mask
        return (x[free], y if self.rows is None else y[self.rows], zl[free],
                zu[free])

    def lift(self, x, y, zl, zu):
        """An iterate of the solved problem over the original one, which
        `reduce` takes back: x expanded, y 0 on the dropped rows, and the
        bound multipliers 0, no guess, on presolve's pinned variables."""
        return (self.expand(x), self._rows_full(y), self.expand(zl, 0.0),
                self.expand(zu, 0.0))

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
            return y_full, zl, zu
        at, c, qdiag = self._unreduced
        x = self.expand(x)
        grad = c + qdiag * x
        for rows, cols, coef, up in reversed(self._forced):
            ratio = (grad[cols] - (at @ y_full)[cols]) / coef
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
        return y_full, zl_full, zu_full


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
    (Gondzio & Grothey, Comput. Manag. Sci. 2009).  A control QP's head
    SoC, on W + 1 rows, joins its W scenario chains in the band (kd 19 at
    10 scenarios), and its border is the n tracking rows, none at theta 0.

    The plan reads only the pattern and holds gather indices from its data
    into LAPACK's lower band storage (kd + 1 by nb), the border block B (nb
    by k) and the corner C (k by k), all column-major, with k the border's
    rows.

    The plan of a restriction's normal matrix is not ordered afresh: it
    `inherit`s (order, nb), its parent plan's order and border rows, those
    that the restriction keeps.  A principal submatrix of a band in the
    same order is a band no wider, so its kd is at most the parent's.
    """

    def __init__(self, indptr, indices, inherit=None):
        m = indptr.shape[0] - 1
        count = np.diff(indptr)
        cols = np.repeat(np.arange(m), count)
        self.indptr, self.indices = indptr, indices
        indices = indices.astype(np.intp)  # NumPy gathers intp faster
        self.diag_pos = np.flatnonzero(indices == cols)
        if inherit is None:
            dense = _near_dense(count, m)
            if dense.all():
                dense[:] = False  # no band to border: all of it is the band
            band = np.flatnonzero(~dense)
            nb = band.shape[0]
            inner = ~dense[indices] & ~dense[cols]
            local = np.cumsum(~dense) - 1  # row -> its index among band rows
            graph = sp.csr_matrix(
                (np.ones(int(inner.sum())),
                 (local[indices[inner]], local[cols[inner]])), shape=(nb, nb))
            rcm = reverse_cuthill_mckee(graph, symmetric_mode=True)
            self.order = np.concatenate([band[rcm], np.flatnonzero(dense)])
        else:
            self.order, nb = inherit
        pos = np.empty(m, dtype=np.intp)
        pos[self.order] = np.arange(m)
        row, col = pos.take(indices), pos.take(cols)
        self.nb, self.border = nb, m - nb
        lower = row >= col  # one entry of each symmetric pair
        col_band = col < nb
        self.band_src = np.flatnonzero(lower & (row < nb))
        row_of, col_of = row.take(self.band_src), col.take(self.band_src)
        self.kd = int((row_of - col_of).max(initial=0))
        self.band_dst = row_of - col_of + col_of * (self.kd + 1)
        self.border_src = np.flatnonzero(lower & col_band & (row >= nb))
        self.border_dst = col.take(self.border_src) \
            + (row.take(self.border_src) - nb) * nb
        self.corner_src = np.flatnonzero(lower & ~col_band)
        self.corner_dst = row.take(self.corner_src) - nb \
            + (col.take(self.corner_src) - nb) * self.border


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
    analysis of A.  `mat` is that matrix: refinement, the Newton step's
    residual check and the pivoted fallback test against it.

    It is factored by LAPACK as a band and a dense border: in the plan's
    order it is [[A11, B], [B', C]], with A11 the band and the border the
    near-dense rows.  A11 = L L' (dpbtrf), W = L^-1 B (dtbtrs) and the
    Schur complement S = C - W'W, positive definite as the whole matrix
    is, is S = Ls Ls' (dpotrf).  A solve runs forward through L, through
    the corner and back through L'.
    """

    def __init__(self, analysis):
        self.plan, self.pmap = analysis.normal()
        super().__init__(self.plan.indptr, self.plan.indices,
                         np.zeros(self.pmap.shape[0]))
        self._l = self._w = self._ls = None

    def factor(self, dinv, reg=0.0):
        data = self.pmap @ dinv
        if reg:
            data[self.plan.diag_pos] += reg
        self.mat.data = data
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
        coupling, corner = np.zeros(nb * k), np.zeros(k * k)
        coupling[plan.border_dst] = data[plan.border_src]
        corner[plan.corner_dst] = data[plan.corner_src]
        self._w = dtbtrs(self._l, coupling.reshape((nb, k), order="F"),
                         uplo="L", overwrite_b=1)[0]
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


def _entries(indptr, major):
    """The storage positions of the entries of the increasing rows (CSR) or
    columns (CSC) `major`, in order, and where each one's entries start
    among them."""
    count = np.diff(indptr).take(major)
    offset = np.cumsum(count) - count
    return (np.repeat(indptr.take(major) - offset, count)
            + np.arange(count.sum()), offset)


class _Analysis:
    """The work on one constraint matrix A that A alone decides.

    A carries it (_analyse), and A is read-only: a program's A is, and
    _Standard's own matrices are private to one solve.  Holds A' and A's
    sign split [A+ | A-], the m x 2n matrix that keeps each entry in A's
    storage order, in column j when it is positive and n + j otherwise,
    for presolve's activity bounds.  Built when a solve first takes that
    Newton path, it holds the normal-equations band plan with its product
    map and the factor of the least-norm start point's A A' + 1e-8 I, or
    the assembled KKT matrix (A's data off the diagonal) with the
    positions of its diagonal; SuperLU orders that matrix at each
    factorization.  Everything here follows from A alone and is only read
    by the solves.

    `normal` is the (plan, pmap) that `normal()` returns, and `at` A',
    when they are made with A: `restrict` gives a cut its plan, map and
    A', truncated from its parent's.  Without them, `normal()` builds the
    plan and map from A itself, and A' is A transposed.
    """

    def __init__(self, a, normal=None, at=None):
        self.at = a.T.tocsr() if at is None else at
        n = a.shape[1]
        self.split = sp.csr_matrix(
            (a.data, np.where(a.data > 0.0, a.indices, a.indices + n),
             a.indptr), shape=(a.shape[0], 2 * n))
        self._normal = normal
        self._start = None
        self._kkt = None

    def normal(self):
        """(plan, pmap): the band plan of A D A' and the map from D to its
        data, made on first use unless A came with them."""
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
        """(mat, diag_pos): [[I, A'], [A, I]] in CSC with sorted indices,
        and the positions of its diagonal in mat.data.

        Built from its parts' arrays: column j < n holds its identity
        entry, then column j of A (row j of A', shifted by n), and column
        n + i holds row i of A, then its identity entry, so each column's
        rows are already increasing."""
        if self._kkt is None:
            at, a = self.at, self.at.tocsc()  # A' by columns is A by rows
            n, m = at.shape
            indptr = np.zeros(n + m + 1, dtype=np.int64)
            np.cumsum(np.concatenate([np.diff(at.indptr), np.diff(a.indptr)])
                      + 1, out=indptr[1:])
            diag = np.concatenate([indptr[:n], indptr[n + 1:] - 1])
            off = np.ones(indptr[-1], dtype=bool)
            off[diag] = False
            indices = np.empty(indptr[-1], dtype=np.int64)
            data = np.ones(indptr[-1])
            indices[diag] = np.arange(n + m)
            indices[off] = np.concatenate([at.indices + n, a.indices])
            data[off] = np.concatenate([at.data, a.data])
            mat = sp.csc_matrix((data, indices, indptr), shape=(n + m, n + m))
            self._kkt = (mat, diag)
        return self._kkt


def _analyse(a):
    """The _Analysis of the CSR matrix a: the one it carries, made and
    attached on first use (a cut carries one from `restrict`)."""
    if getattr(a, "_analysis", None) is None:
        a._analysis = _Analysis(a)
    return a._analysis


def restrict(a, rows, cols):
    """The leading block A[:rows, :cols] of a program's read-only CSR
    matrix `a`: its first `rows` rows, each with its entries in the first
    `cols` columns, in their stored order, read-only, so a program takes
    it as it is.

    The cut carries an analysis made here by truncating the one `a`
    carries (see _Analysis): A' is its leading block; the normal pattern
    is the parent's leading principal block, and the product map the
    parent's leading columns on the slots that block keeps.  When no two
    kept rows meet only in dropped columns, as in a control window laid
    out period by period, these are the pattern and map that
    `_normal_product_map` makes of the cut, entry for entry; otherwise the
    pattern also holds the pairs that read 0.  The band plan keeps the
    parent's order and border rows, those that are kept, so its band is
    never wider than the parent's and only the start point's factor is
    left to compute.  A solve whose presolve pins a variable or drops a
    row solves another matrix, private to it and analysed in it.
    """
    if not (sp.issparse(a) and _read_only(a)):
        raise NumericsError("restrict takes a program's read-only matrix")
    if not (0 <= rows <= a.shape[0] and 0 <= cols <= a.shape[1]):
        raise NumericsError(f"a leading block of {a.shape} cannot have"
                            f" {rows} rows and {cols} columns")
    cut = a[:rows, :cols]
    for part in (cut.data, cut.indices, cut.indptr):
        part.setflags(write=False)
    analysis = _analyse(a)
    plan, pmap = analysis.normal()
    # the parent's slots in the normal pattern's leading principal block,
    # in their order, and each one's place among them (-1 for the others)
    slots = np.flatnonzero(plan.indices[:plan.indptr[rows]] < rows)
    place = np.full(plan.indices.shape[0], -1, dtype=pmap.indices.dtype)
    place[slots] = np.arange(slots.shape[0])
    # the product map's first `cols` columns, on those slots; a line's kept
    # entries start after those of the lines before it
    entry = np.flatnonzero(place.take(pmap.indices[:pmap.indptr[cols]]) >= 0)
    pmap = sp.csc_matrix(
        (pmap.data.take(entry), place.take(pmap.indices.take(entry)),
         np.searchsorted(entry, pmap.indptr[:cols + 1]).astype(
             pmap.indptr.dtype)), shape=(slots.shape[0], cols))
    indptr = np.searchsorted(slots, plan.indptr[:rows + 1])
    order = plan.order[plan.order < rows]
    nb = int(np.count_nonzero(plan.order[:plan.nb] < rows))
    cut._analysis = _Analysis(
        cut, (_BandPlan(indptr.astype(plan.indptr.dtype),
                        plan.indices.take(slots), (order, nb)), pmap),
        analysis.at[:cols, :rows])
    return cut


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


def _ipm_loop(std, tol, max_iter, guess):
    # m >= 1 rows and n >= 1 columns: solve_qp settles m == 0 (which n == 0
    # implies, as _Standard drops empty rows) in closed form.  guess is a
    # point (x, y, zl, zu) over the solved problem (NaN where it says
    # nothing, and a bound multiplier says nothing unless it is positive);
    # the cold start says nothing at all.  Returns (x, y, zl, zu,
    # iterations, restart): the best iterate, the iterations spent and the
    # first iterate whose score is within _RESTART_SCORE, or None
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

    # starting point: the guess's x where it says something (a warm start),
    # the box midpoint elsewhere (every variable of a cold start); then
    # push that least-squares-ish point strictly inside the box
    x = guess[0]
    blank = np.isnan(x)
    if blank.any():
        x = np.where(blank, np.where(has_lb, np.where(has_ub, 0.5 * (lb + ub),
                                                      lb + 1.0),
                                     np.where(has_ub, ub - 1.0, 0.0)), x)
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
    # the duals: the guess's y (0 for the cold start), and its bound
    # multipliers where they are positive, at least 1e-300 as every
    # iterate's are; z0 elsewhere
    z0 = max(1.0, 0.01 * float(np.abs(c).max()))
    y = guess[1].copy()
    zl, zu = (np.where(z > 0.0, np.maximum(z, 1e-300), z0) for z in guess[2:])
    zl[no_lb] = 0.0
    zu[no_ub] = 0.0
    if nu and not np.isnan(guess[0]).all():
        # a caller's x was pushed off the bounds its multipliers were kept
        # for, leaving pairs s z far below the central path: every bounded
        # side's multiplier rises by 0.5 s'z / sum(s) at the pushed x
        # (Mehrotra, SIAM J. Optim. 1992); the cold start keeps its own
        sl, su = (x - lb)[has_lb], (ub - x)[has_ub]
        shift = 0.5 * float(sl @ zl[has_lb] + su @ zu[has_ub]) \
            / float(sl.sum() + su.sum())
        zl += shift
        zl[no_lb] = 0.0
        zu += shift
        zu[no_ub] = 0.0

    best = None
    restart = None
    it = 0
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
        score = rp_max / bscale + rd_max / cscale + gap / (1.0 + abs(pobj))
        if restart is None and score <= _RESTART_SCORE:
            restart = (x, y, zl, zu)  # each iteration makes new arrays
        if score < 0.95 * best_score:
            stall = 0
        else:
            stall += 1
        if score < best_score:
            best_score = score
            best = (x, y, zl, zu)
        if prim_ok and dual_ok and gap_ok:
            best = (x, y, zl, zu)
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

    return (*(best or (x, y, zl, zu)), it, restart)


def _finish(problem, std, x, y, zl, zu, iterations, restart, tol):
    """The report of a point of the solved problem, from the iterations or
    the closed form: mapped back to the original problem, its residuals
    measured and its status decided.

    This is the only place that writes "optimal" or "iteration_limit": the
    status follows from the residuals measured here, not from the iteration
    that produced the point.
    """
    xo = std.expand(x)
    viol = np.abs(problem.a @ xo - problem.rhs)
    bviol = np.maximum(np.maximum(problem.lb - xo, xo - problem.ub), 0.0)
    # a violation that is not finite (at an infinite or NaN x) is not
    # measured; the others are >= 0, so 0 in its place leaves the max
    bviol = np.where(np.isfinite(bviol), bviol, 0.0)
    primal_residual = float(max(viol.max(initial=0.0),
                                bviol.max(initial=0.0)))

    c_int = std.c  # internal (presolved) objective
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


def solve_qp(problem: ConvexQuadraticProgram, tol: float = 1e-6, max_iter: int = 10 ** 6, start=None) -> SolveReport:
    """Solve a ConvexQuadraticProgram, a linear one included; "optimal"
    certifies the KKT residuals.

    start, when given, is a point (x, y, zl, zu), say a neighbouring
    problem's `SolveReport.restart`.  x is taken in place of the box
    midpoint, and the same least-norm correction toward the rows and push
    inside the box follow; y is taken as given, and each bound multiplier
    where it is positive (raised to 1e-300, the floor every iterate
    keeps), the cold start's value elsewhere.  Every bounded side's
    multiplier is then raised by 0.5 s'z / sum(s) at the pushed x, which
    brings the start near the central path (see the module docstring).
    Without one the solve starts from the point that says nothing: x NaN
    (the box midpoint), y = 0 and zl = zu = 0 (the cold start's
    multipliers), unshifted.

    The solve reads the analysis that the program's A carries, made on
    the first solve that needs it: programs that share an A object share
    its analysis, and a caller that solves many programs on one matrix
    builds them on one A (see the module docstring).
    """
    if not isinstance(problem, ConvexQuadraticProgram):
        raise NumericsError("solve_qp expects a ConvexQuadraticProgram")
    n, m = problem.c.shape[0], problem.rhs.shape[0]
    if start is None:
        start = (np.full(n, np.nan), np.zeros(m), np.zeros(n), np.zeros(n))
    else:
        start = tuple(np.asarray(v, dtype=np.float64) for v in start)
        if [v.shape for v in start] != [(n,), (m,), (n,), (n,)] \
                or not all(np.isfinite(v).all() for v in start) \
                or np.any(start[2] < 0.0) or np.any(start[3] < 0.0):
            raise NumericsError("start must be a point (x, y, zl, zu) of"
                                " finite values, one per variable, row,"
                                " variable and variable, zl and zu >= 0")
    std = _Standard(problem.c, problem.q_diag, problem.a, problem.rhs,
                    problem.lb, problem.ub)
    if std.infeasibility is not None:
        return SolveReport("infeasible", None, np.nan, std.infeasibility,
                           np.inf, np.inf, np.inf, 0)
    if std.a.shape[0]:
        # diverging iterates can overflow intermediate quantities right
        # before the stall detector fires; those float warnings are expected
        # and silenced
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            point = _ipm_loop(std, tol, max_iter, std.reduce(*start))
    else:
        # coordinates decouple, so each one solves in closed form; when
        # presolve fixed every variable there are none left to solve
        point = _solve_boxed_separable(std)
        if point is None:
            return SolveReport("unbounded", None, np.nan, 0.0, np.inf,
                               np.inf, np.inf, 0)
    return _finish(problem, std, *point, tol)
