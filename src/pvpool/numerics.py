"""Embedded solver for linear and convex quadratic programs.

One program type, ConvexQuadraticProgram, and one entry, solve_qp, run on
one primal-dual interior-point core (Mehrotra predictor-corrector).
Problems are stated as

    min                    0.5 x'Qx + c'x
    s.t.                   a_i'x  (<=, ==, >=)  rhs_i
                           lb <= x <= ub

with Q = diag(q), q >= 0; a linear program is q = 0, as in OOQP (Gertz &
Wright, ACM TOMS 2003).  Variance objectives reach this form through
auxiliary spread variables tied to the allocations by equality rows.
Inequality rows get slack variables internally, so the core only ever sees
equality rows plus box bounds.  Every solve is deterministic: identical
inputs, the start included, produce bit-identical reports.  Every solve
starts from a point (x, y, zl, zu), a caller's or the cold start's, which
says nothing (x NaN, the rest 0).  x is taken where it is a number and the
box midpoint elsewhere, moved toward A x = b by one least-norm correction
and pushed strictly inside the box; the duals start at y and at the
positive bound multipliers (at least 1e-300), and at max(1, 1% of the
largest cost) where a multiplier is 0.  Each report keeps, as its
`restart`, the first iterate whose relative primal residual, relative dual
residual and relative gap sum to at most 3e-2: a well-centred point, near
feasible as well as near the central path, that a neighbouring problem (a
rolling horizon's next step, shifted, or a re-solve) restarts from.  A warm
start's gap is small before any Newton step, so the gap alone would hand
on a start whose rows its solve never met.

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
border is eliminated through a small Schur complement.  A few dense
columns of A, a column on more than 4 rows such as the control QP's
shared head state of charge, whose rows A D^-1 A' would join in a clique
that widens the band, are taken out of it and carried in the border as
one augmented row [a_j; -1/d_j] each (Andersen, ACM TOMS 1996); the Schur
corner is then quasidefinite, a positive block for the near-dense rows
and a negative one for the dense columns, each factored by its own
Cholesky.  Refinement and the pivoted fallback still test against the
whole A D^-1 A'.  The KKT matrix is
factored by SuperLU, which orders it by minimum degree on its pattern at
each factorization.  On either path each solve is refined against the
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
program that `restrict` cut from another, A[rows][:, cols] (a rolling
horizon's shorter windows at the end of a run), carries an analysis cut
from the parent's: the normal pattern and product map are masked from
the parent's, the dense columns carried over, and the band plan keeps the
parent's order and border rows, so only the start point's factor is
computed.  The matrices a solve makes itself, with slacks or presolve's
reductions, are private to it and analysed in it.  An analysis made
earlier yields the same numbers as a new one, and a cut is always cut,
never analysed afresh, so no report depends on earlier solves.

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
from scipy.linalg.lapack import (dpbtrf, dpbtrs, dpotrf, dpotrs, dtbtrs,
                                 dtrtrs)
from scipy.sparse.csgraph import reverse_cuthill_mckee
from scipy.sparse.linalg import splu

LE = "<="
EQ = "=="
GE = ">="

_STEP_DAMP = 0.99995  # fraction-to-boundary
# score (relative residuals plus relative gap) of the iterate a report
# keeps to restart from; a gap alone would pass an unmoved warm start
_RESTART_SCORE = 3e-2
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


def _vector(value, name, dtype=np.float64):
    """value as a 1-d array; any other shape is refused by name."""
    arr = np.asarray(value, dtype=dtype)
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
    """min 0.5 x'diag(q)x + c'x subject to sparse rows and box bounds.

    The quadratic form is positive semidefinite because every q_i >= 0.  A
    linear program is the case q = 0: q_diag, lb and ub take a scalar for
    every variable, so q_diag=0.0 states one.  c, rhs and senses are 1-d,
    and lb and ub default to -inf and inf when None.  A is read-only: a
    CSR float64 matrix without stored zeros whose arrays are read-only is
    kept as it is, with the analysis it carries, and any other A is copied
    into one.  Programs built on one A object share its analysis (see the
    module docstring), which cannot go stale.
    """

    c: np.ndarray
    q_diag: np.ndarray
    a: sp.csr_matrix
    senses: np.ndarray
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
        # as text of any length, so that no sense is cut down to a known one
        senses = _vector(self.senses, "senses", str)
        unknown = senses[(senses != LE) & (senses != EQ) & (senses != GE)]
        if unknown.size:
            raise NumericsError(f"unknown sense {str(unknown[0])!r}")
        senses = senses.astype("U2")
        q = _per_var(self.q_diag, n, "q_diag")
        rhs = _vector(self.rhs, "rhs")
        lb = _per_var(-np.inf if self.lb is None else self.lb, n, "lb")
        ub = _per_var(np.inf if self.ub is None else self.ub, n, "ub")
        for name, value in (("c", c), ("q_diag", q), ("a", a),
                            ("senses", senses), ("rhs", rhs), ("lb", lb),
                            ("ub", ub)):
            object.__setattr__(self, name, value)
        if a.shape[1] != n:
            raise NumericsError("constraint matrix and objective dimension mismatch")
        if senses.shape[0] != a.shape[0] or rhs.shape[0] != a.shape[0]:
            raise NumericsError("senses/rhs length must equal the number of rows")
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
    primal_residual   max absolute violation over rows and bounds
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
                      (1 + |pobj|), was at most 3e-2, for a neighbouring
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

    A row's indices must be integers and match its coefficients in length
    when it is added; they must name existing variables when qp()
    assembles the program, which also checks senses and finiteness.  A
    program whose variables all keep the default qdiag of 0 is a linear
    program.
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
        idx = _indices(indices, "indices")
        coef = np.asarray(coeffs, dtype=np.float64)
        if idx.ndim != 1 or coef.shape != idx.shape:
            raise NumericsError("row indices and coefficients must be 1-d and matching")
        self.add_rows(idx[None], coef[None], sense, float(rhs))

    def add_rows(self, indices, coeffs, sense, rhs):
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
        self._senses.extend([sense] * k)
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
            cost, qd, a, np.asarray(self._senses, dtype=str),
            np.asarray(self._rhs, dtype=np.float64), lb, ub)


# ---------------------------------------------------------------------------
# standard form and presolve

class _Standard:
    """The problem the iterations solve: min 0.5 x'Qx + c'x, A x = b,
    lb <= x <= ub, with a slack per inequality row, presolve's pins
    substituted out and the rows it left empty dropped (`rows` lists the
    rows kept).  `infeasibility` is None or the primal residual of a proof:
    inf for presolve's row-bound test, else the largest |b| of an empty
    row.  `analysis` is the final A's _Analysis, the one presolve read
    when A is unchanged, or None without rows or with a proof."""

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


def _near_dense(count, m):
    """Which of the rows with `count` entries, in a symmetric matrix of m
    rows, are near-dense: those with more than max(32, m // 8) entries, the
    few that couple most of the others."""
    return count > max(32, m // 8)


_SPLIT_ROWS = 4  # a column of A on more rows than this is dense
_SPLIT_MOST = 8  # dense columns leave A D A' while there are this few


def _dense_columns(at):
    """The columns of A (rows of at) that leave the normal matrix for
    augmented rows of its factor's border: those on more than 4 rows, as
    the control QP's head SoC is from 4 scenarios on (W + 1 rows).  A
    column on c rows makes a c-clique of A D A', which joins the c
    scenario chains it spans, so that reverse Cuthill-McKee bands them
    together at a half-bandwidth growing with c (2W - 1 for the head SoC,
    where the chains alone band at 4).  Only a few columns are split:
    none when more than 8 are that dense, nor when a row has entries in
    those columns alone, since without them its row of the normal matrix
    would be 0.
    """
    count = np.diff(at.indptr)
    dense = count > _SPLIT_ROWS
    if not 0 < np.count_nonzero(dense) <= _SPLIT_MOST:
        return np.zeros(0, dtype=np.int64)
    own = np.repeat(dense, count)
    rows = np.bincount(at.indices[~own], minlength=at.shape[1])
    if np.any(rows[at.indices[own]] == 0):
        return np.zeros(0, dtype=np.int64)
    return np.flatnonzero(dense)


class _BandPlan:
    """The normal matrix's symmetric CSC pattern (sorted, every diagonal
    entry stored), split into a band and a dense border.

    Rows with more than max(32, m // 8) entries (a tracking row that spans
    every scenario, a consumer row of the key QP) form the border and go
    last, unless every row has that many; the others are put in reverse
    Cuthill-McKee order, which gathers them into a band of half-bandwidth
    kd.  Block-angular matrices of this shape are what structure-exploiting
    interior-point solvers factor as a band and a small Schur complement
    (Gondzio & Grothey, Comput. Manag. Sci. 2009).

    A few dense columns of A (`split`, see _dense_columns) are taken out of
    the normal matrix and enter the border as one augmented row each,
    [a_j; -1/d_j] (Andersen, ACM TOMS 1996): the plan then reads only the
    entries `kept`, those that some other column of A makes (and the
    diagonal), so a column spanning W + 1 scenario chains no longer makes
    a clique that the band must hold.  `split_rows` holds those columns of
    A as the rows of a CSR matrix, and `split` counts them.  The border
    puts the near-dense rows first and the augmented rows after them.

    The plan reads only the pattern and holds gather indices from its data
    into LAPACK's lower band storage (kd + 1 by nb), the border block B (nb
    by k) and the corner C (k by k), all column-major, with k the border's
    near-dense rows plus the split columns, and the positions and values
    of the split columns' entries of A in B and C.

    The plan of a restriction's normal matrix is not ordered afresh: it
    `inherit`s (order, nb), its parent plan's order and border rows, those
    that the restriction keeps.  A principal submatrix of a band in the
    same order is a band no wider, so its kd is at most the parent's.
    """

    def __init__(self, indptr, indices, kept=None, split_rows=None,
                 inherit=None):
        m = indptr.shape[0] - 1
        count = np.diff(indptr)
        cols = np.repeat(np.arange(m), count)
        self.indptr, self.indices = indptr, indices
        indices = indices.astype(np.intp)  # NumPy gathers intp faster
        self.diag_pos = np.flatnonzero(indices == cols)
        if kept is None:
            kept = np.ones(indices.shape[0], dtype=bool)
        kept[self.diag_pos] = True
        if inherit is None:
            dense = _near_dense(
                count - np.bincount(cols[~kept], minlength=m), m)
            if dense.all():
                dense[:] = False  # no band to border: all of it is the band
            band = np.flatnonzero(~dense)
            nb = band.shape[0]
            inner = ~dense[indices] & ~dense[cols] & kept
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
        self.split = c = 0 if split_rows is None else split_rows.shape[0]
        k = self.border + c  # the factor's border: c augmented rows last
        lower = (row >= col) & kept  # one entry of each symmetric pair
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
            + (col.take(self.corner_src) - nb) * k
        if c:
            # augmented row j, border row m - nb + j, holds split column
            # j's entries of A: in B on the band rows, in C's lower
            # triangle on the near-dense rows, and -1/d_j on C's diagonal
            row = pos[split_rows.indices]
            j = m - nb + np.repeat(np.arange(c), np.diff(split_rows.indptr))
            on_band = row < nb
            self.split_coupling = ((row + j * nb)[on_band],
                                   split_rows.data[on_band])
            self.split_corner = ((j + (row - nb) * k)[~on_band],
                                 split_rows.data[~on_band])
            self.split_diag = (m - nb + np.arange(c)) * (k + 1)


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
    A of full row rank; its band plan and product maps come from the
    analysis of A.  `mat` is always that whole matrix: refinement, the
    Newton step's residual check and the pivoted fallback test against it.

    It is factored by LAPACK as a band and a dense border.  The plan's
    split columns j leave A D A' for augmented rows [a_j; -1/d_j]
    (Andersen, ACM TOMS 1996), so the matrix factored is, in the plan's
    order, [[A11, B], [B', C]]: A11 is the band of the normal matrix
    without those columns, and the border holds its near-dense rows, then
    the augmented rows.  A11 = L L' (dpbtrf), W = L^-1 B (dtbtrs) and
    S = C - W'W.  Without split columns S is positive definite, S = Ls Ls'
    (dpotrf).  With them S = [[P, G'], [G, -N]] is quasidefinite, a
    positive block for the near-dense rows and a negative one for the
    augmented rows, and each block is factored by its own Cholesky:
    P = Lp Lp', Y = Lp^-1 G' and N + Y'Y = Ln Ln', so that S = Ls diag(I,
    -I) Ls' with Ls = [[Lp, 0], [Y', Ln]] (Vanderbei, SIAM J. Optim.
    1995).  A solve runs forward through L, through the corner and back
    through L'; the augmented rows' right-hand side is 0 and their
    unknowns are dropped.
    """

    def __init__(self, analysis):
        self.plan, self.pmap, self._split = analysis.normal()
        super().__init__(self.plan.indptr, self.plan.indices,
                         np.zeros(self.pmap.shape[0]))
        self._l = self._w = self._ls = self._data = self._negative = None

    def factor(self, dinv, reg=0.0):
        plan = self.plan
        data = self.pmap @ dinv
        if reg:
            data[plan.diag_pos] += reg
        self._data = data  # the factor's: without the split columns
        if plan.split:
            # the whole matrix adds each split column's a_j d_j a_j'
            columns, slots, split_map = self._split
            dsplit = dinv[columns]
            data = data.copy()
            data[slots] += split_map @ dsplit
            self._negative = -1.0 / dsplit
        self.mat.data = data
        super().factor()

    def _factor(self):
        plan, data = self.plan, self._data
        nb, c = plan.nb, plan.split
        k = plan.border + c
        band = np.zeros((plan.kd + 1) * nb)
        band[plan.band_dst] = data[plan.band_src]
        self._l, info = dpbtrf(band.reshape((plan.kd + 1, nb), order="F"),
                               lower=1, overwrite_ab=1)
        if info or not k:
            return info == 0
        coupling, corner = np.zeros(nb * k), np.zeros(k * k)
        coupling[plan.border_dst] = data[plan.border_src]
        corner[plan.corner_dst] = data[plan.corner_src]
        if c:
            coupling[plan.split_coupling[0]] = plan.split_coupling[1]
            corner[plan.split_corner[0]] = plan.split_corner[1]
            corner[plan.split_diag] = self._negative
        self._w = dtbtrs(self._l, coupling.reshape((nb, k), order="F"),
                         uplo="L", overwrite_b=1)[0]
        corner = corner.reshape((k, k), order="F")
        corner -= self._w.T @ self._w
        if not c:
            self._ls, info = dpotrf(corner, lower=1, clean=0, overwrite_a=1)
            return info == 0
        # the quasidefinite corner [[P, G'], [G, -N]], lower triangle only
        r = plan.border
        self._ls = np.zeros((k, k), order="F")
        if r:
            lp, info = dpotrf(corner[:r, :r], lower=1)
            if info:
                return False
            y = dtrtrs(lp, corner[r:, :r].T, lower=1)[0]
            self._ls[:r, :r], self._ls[r:, :r] = lp, y.T
            corner[r:, r:] -= y.T @ y
        self._ls[r:, r:], info = dpotrf(-corner[r:, r:], lower=1)
        return info == 0

    def _direct(self, rhs):
        plan = self.plan
        ordered = rhs[plan.order]
        c = plan.split
        if not plan.border + c:
            sol = dpbtrs(self._l, ordered, lower=1, overwrite_b=1)[0]
        else:
            fwd = dtbtrs(self._l, ordered[:plan.nb], uplo="L")[0]
            tail = np.concatenate([ordered[plan.nb:], np.zeros(c)]) \
                - self._w.T @ fwd
            if not c:
                tail = dpotrs(self._ls, tail, lower=1, overwrite_b=1)[0]
            else:
                # Ls diag(I, -I) Ls' t = tail
                tail = dtrtrs(self._ls, tail, lower=1, overwrite_b=1)[0]
                tail[plan.border:] = -tail[plan.border:]
                tail = dtrtrs(self._ls, tail, lower=1, trans=1,
                              overwrite_b=1)[0]
            head = dtbtrs(self._l, fwd - self._w @ tail, uplo="L",
                          trans="T", overwrite_b=1)[0]
            sol = np.concatenate([head, tail[:plan.border]])
        out = np.empty_like(rhs)
        out[plan.order] = sol
        return out


def _renumber(kept, size):
    """The new index of each of `size` indices when only the increasing
    indices `kept` are kept, and -1 for the others."""
    new = np.full(size, -1, dtype=np.intp)
    new[kept] = np.arange(kept.shape[0])
    return new


def _entries(indptr, major):
    """The storage positions of the entries of the increasing rows (CSR) or
    columns (CSC) `major`, in order, and where each one's entries start
    among them."""
    count = np.diff(indptr).take(major)
    offset = np.cumsum(count) - count
    return (np.repeat(indptr.take(major) - offset, count)
            + np.arange(count.sum()), offset)


def _masked_product(pattern, pmap, rows, cols):
    """The pattern and product map (_normal_product_map) of A[rows][:, cols],
    masked from A's: the pairs that a kept column makes on two kept rows,
    and each kept row's diagonal.  rows and cols are increasing, so every
    slot keeps its place in the sorted order and every column its pairs in
    theirs, and the map is the one _normal_product_map makes of the
    restriction, entry for entry.  Only the kept columns' entries are read,
    so a small cut of a large matrix costs little more than its own size.
    (Indices are gathered with take and intp arrays, which NumPy serves
    faster than int32 fancy indexing.)"""
    entry, offset = _entries(pmap.indptr, cols)
    read = entry.shape[0]
    slot = pmap.indices.take(entry)
    slot_col = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    new_row = _renumber(rows, pattern.shape[0])
    inside = np.flatnonzero(
        (new_row.take(pattern.indices.take(slot)) >= 0)
        & (new_row.take(slot_col.take(slot)) >= 0))
    entry, slot = entry.take(inside), slot.take(inside).astype(np.intp)
    live = np.zeros(pattern.nnz, dtype=bool)
    live[slot] = True
    live[np.flatnonzero(pattern.indices == slot_col).take(rows)] = True
    live = np.flatnonzero(live)
    new_slot = np.empty(pattern.nnz, dtype=np.intp)
    new_slot[live] = np.arange(live.shape[0])
    # kept slots and entries lie in kept columns, so the ones before a
    # kept column's first are those of the kept columns before it
    idx = pattern.indices.dtype
    return (sp.csc_matrix(
                (np.zeros(live.shape[0]),
                 new_row.take(pattern.indices.take(live)).astype(idx),
                 np.searchsorted(live, np.append(pattern.indptr.take(rows),
                                                 pattern.nnz)).astype(idx)),
                shape=(rows.shape[0], rows.shape[0])),
            sp.csc_matrix(
                (pmap.data.take(entry), new_slot.take(slot).astype(idx),
                 np.searchsorted(inside, np.append(offset, read)).astype(idx)),
                shape=(live.shape[0], cols.shape[0])))


def _normal_parts(at, pattern, pmap, columns, inherit=None):
    """(plan, pmap, split) of _Analysis.normal from the product map of A D
    A' with the dense columns `columns` split out; inherit is the (order,
    nb) of the plan or None to order afresh."""
    kept = split = split_rows = None
    if columns.shape[0]:
        per = np.diff(pmap.indptr)
        own = np.zeros(at.shape[0], dtype=bool)
        own[columns] = True
        entry = np.repeat(own, per)  # the map's entries they make
        rest, mine = np.flatnonzero(~entry), np.flatnonzero(entry)
        kept = np.zeros(pattern.nnz, dtype=bool)
        kept[pmap.indices.take(rest).astype(np.intp)] = True
        slots, slot = np.unique(pmap.indices.take(mine), return_inverse=True)
        # the columns' map, column by column as they come
        split = (columns, slots, sp.csc_matrix(
            (pmap.data.take(mine), slot,
             np.concatenate([[0], np.cumsum(per.take(columns))])),
            shape=(slots.shape[0], columns.shape[0])))
        pmap = sp.csc_matrix(
            (pmap.data.take(rest), pmap.indices.take(rest),
             np.concatenate([[0], np.cumsum(np.where(own, 0, per))])),
            shape=pmap.shape)
        split_rows = at[columns]
    return (_BandPlan(pattern.indptr, pattern.indices, kept, split_rows,
                      inherit), pmap, split)


class _Analysis:
    """The work on one constraint matrix A that A alone decides, and, for a
    restriction `restrict` made, what it was cut from.

    A carries it (_analyse), and A is read-only: a program's A is, and
    _Standard's own matrices are private to one solve.  Holds A' and A's
    sign split [A+ | A-], the m x 2n matrix that keeps each entry in A's
    storage order, in column j when it is positive and n + j otherwise,
    for presolve's activity bounds.  Built when a solve first takes that
    Newton path, it holds the normal-equations band plan with its dense
    columns and product maps and the factor of the least-norm start
    point's A A' + 1e-8 I, or the assembled KKT matrix (A's data off the
    diagonal) with the positions of its diagonal; SuperLU orders that
    matrix at each factorization.
    Everything here follows from A (and what it was cut from) alone and is
    only read by the solves.

    The normal equations of a restriction A[rows][:, cols], whose `_cut`
    is (the parent's A, rows, cols), are cut from the analysis the
    parent's A carries: the pattern and product map are masked from the
    parent's (_masked_product), the dense columns carried over, and the
    band plan takes the parent's order and border rows, those that are
    kept, so its band is never wider than the parent's.  Only the start
    point's factor is computed.  A restriction whose own dense columns are
    not the parent's carried over (a head-only control window, whose head
    SoC is on one row) is analysed afresh.
    """

    def __init__(self, a, cut=None):
        self._cut = cut
        self.at = a.T.tocsr()
        n = a.shape[1]
        self.split = sp.csr_matrix(
            (a.data, np.where(a.data > 0.0, a.indices, a.indices + n),
             a.indptr), shape=(a.shape[0], 2 * n))
        self._normal = None
        self._product = None  # (pattern, map) of A D A', for a cut of A
        self._start = None
        self._kkt = None

    def normal(self):
        """(plan, pmap, split): the band plan of A D A', the map from D to
        the data of A D A' without the split columns (_dense_columns), and
        None or split = (columns, slots, map), whose map @ D[columns] is
        what those columns add at the slots of the pattern they reach."""
        if self._normal is None:
            at = self.at
            columns = _dense_columns(at)
            inherit = self._inherit(columns) if self._cut else None
            if inherit is None:
                self._product = _normal_product_map(at, at.shape[1])
            self._normal = _normal_parts(at, *self._product, columns,
                                         inherit)
        return self._normal

    def _inherit(self, columns):
        """For a cut: the parent's band order and border, those rows that are
        kept, with the product masked from the parent's; None when the
        cut's dense columns are not the parent's that it keeps."""
        parent_a, rows, cols = self._cut
        parent = _analyse(parent_a)
        plan, _, split = parent.normal()
        carried = _renumber(cols, parent.at.shape[0]).take(
            split[0] if split else columns[:0])
        if not np.array_equal(carried[carried >= 0], columns):
            return None
        self._product = _masked_product(*parent._product, rows, cols)
        order = _renumber(rows, parent.at.shape[1]).take(plan.order)
        return order[order >= 0], int(np.count_nonzero(order[:plan.nb] >= 0))

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


def _analyse(a):
    """The _Analysis of the CSR matrix a: the one it carries, made and
    attached on first use (a cut carries one from `restrict`)."""
    if getattr(a, "_analysis", None) is None:
        a._analysis = _Analysis(a)
    return a._analysis


def _restricted(a, rows, cols):
    """A[rows][:, cols] of the CSR matrix a, for increasing rows and cols:
    each kept row's entries in kept columns, in their stored order (what
    a[rows][:, cols] gives, in one pass)."""
    entry, offset = _entries(a.indptr, rows)
    col = _renumber(cols, a.shape[1]).take(a.indices.take(entry))
    keep = np.flatnonzero(col >= 0)
    idx = a.indices.dtype
    return sp.csr_matrix(
        (a.data.take(entry.take(keep)), col.take(keep).astype(idx),
         np.searchsorted(keep, np.append(offset, entry.shape[0])).astype(idx)),
        shape=(rows.shape[0], cols.shape[0]))


def restrict(problem, rows, cols):
    """The program `problem` on its rows `rows` and variables `cols`, each an
    increasing array of integer indices: A[rows][:, cols] and the entries
    of every vector there.

    The restriction's A carries its own analysis, cut from the one the
    parent's A carries when a solve first needs it (see _Analysis), so
    every solve of a program on that A cuts instead of analysing afresh.
    A solve whose standard form adds slacks or whose presolve pins a
    variable solves another matrix, private to it and analysed in it.
    """
    rows, cols = _indices(rows, "rows"), _indices(cols, "cols")
    for idx, size, name in ((rows, problem.rhs.shape[0], "rows"),
                            (cols, problem.c.shape[0], "cols")):
        if idx.ndim != 1 or np.any(np.diff(idx) <= 0) \
                or (idx.size and (idx[0] < 0 or idx[-1] >= size)):
            raise NumericsError(f"{name} must be increasing indices below"
                                f" {size}")
    cut = ConvexQuadraticProgram(
        problem.c[cols], problem.q_diag[cols],
        _restricted(problem.a, rows, cols), problem.senses[rows],
        problem.rhs[rows], problem.lb[cols], problem.ub[cols])
    cut.a._analysis = _Analysis(cut.a, (problem.a, rows, cols))
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
    # the box midpoint elsewhere (slacks, and every variable of a cold
    # start); then push that least-squares-ish point strictly inside the box
    x = np.where(has_lb, np.where(has_ub, 0.5 * (lb + ub), lb + 1.0),
                 np.where(has_ub, ub - 1.0, 0.0))
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
    # the duals: the guess's y (0 for the cold start), and its bound
    # multipliers where they are positive, at least 1e-300 as every
    # iterate's are; z0 elsewhere
    z0 = max(1.0, 0.01 * float(np.abs(c).max()))
    y = guess[1].copy()
    zl, zu = (np.where(z > 0.0, np.maximum(z, 1e-300), z0) for z in guess[2:])
    zl[no_lb] = 0.0
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


def solve_qp(problem: ConvexQuadraticProgram, tol: float = 1e-6, max_iter: int = 10 ** 6, start=None) -> SolveReport:
    """Solve a ConvexQuadraticProgram, a linear one included; "optimal"
    certifies the KKT residuals.

    start, when given, is a point (x, y, zl, zu), say a neighbouring
    problem's `SolveReport.restart`.  x is taken in place of the box
    midpoint, and the same least-norm correction toward the rows and push
    inside the box follow; y is taken as given, and each bound multiplier
    where it is positive (raised to 1e-300, the floor every iterate
    keeps), the cold start's value elsewhere.  Without one the solve starts
    from the point that says nothing: x NaN (the box midpoint), y = 0 and
    zl = zu = 0 (the cold start's multipliers).

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
    std = _Standard(problem.c, problem.q_diag, problem.a, problem.senses,
                    problem.rhs, problem.lb, problem.ub)
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
