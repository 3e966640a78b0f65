"""Deterministic linear programming: the internal revised simplex.

The simplex works over sparse constraint rows with a dense basis inverse.
Every solve starts from a primal feasible basis that the caller supplies
as ``start`` (certify_global starts every relaxed LP at the clean graph's
basis), so there is one simplex phase and no search for a feasible point.
Pricing scales reduced costs by static column norms; after a stall it falls
back to Bland's rule, which guarantees termination on the highly degenerate
instances the certification pipeline produces. The dense basis inverse
targets LPs of a few thousand variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp


FEASIBILITY_TOL = 1e-7    # accepted constraint violation
OPTIMALITY_TOL = 1e-9     # reduced-cost threshold
PIVOT_TOL = 1e-9          # smallest usable pivot element
STALL_WINDOW = 50         # iterations without progress before Bland
REFACTOR_EVERY = 100      # pivots between basis-inverse refactorizations


class LpError(RuntimeError):
    pass


class LpFormatError(LpError):
    pass


class NumericalBreakdownError(LpError):
    pass


@dataclass(eq=False)
class LinearProgram:
    """max objective @ x subject to sparse rows with senses in {"=", "<="}
    and bounds 0 <= x <= upper_bounds (inf = absent)."""

    objective: np.ndarray
    matrix: sp.csr_matrix
    senses: np.ndarray
    rhs: np.ndarray
    upper_bounds: np.ndarray

    @classmethod
    def build(cls, objective, rows, senses, rhs, upper_bounds=None) -> "LinearProgram":
        import scipy.sparse as sp

        c = np.asarray(objective, dtype=np.float64)
        A = sp.csr_matrix(rows, dtype=np.float64)
        senses = np.asarray(senses, dtype="<U2")
        b = np.asarray(rhs, dtype=np.float64)
        ub = (np.full(c.size, np.inf) if upper_bounds is None
              else np.asarray(upper_bounds, dtype=np.float64))
        lp = cls(c, A, senses, b, ub)
        lp._validate()
        return lp

    def _validate(self) -> None:
        n = self.objective.size
        m = self.rhs.size
        if self.matrix.shape != (m, n):
            raise LpFormatError(
                f"constraint matrix shape {self.matrix.shape} does not match "
                f"{m} rows x {n} variables"
            )
        if self.senses.shape != (m,) or not np.all(np.isin(self.senses, ["=", "<="])):
            raise LpFormatError("row senses must be '=' or '<='")
        for arr in (self.objective, self.rhs, self.matrix.data):
            if arr.size and not np.all(np.isfinite(arr)):
                raise LpFormatError("coefficients must be finite")
        if self.upper_bounds.shape != (n,):
            raise LpFormatError(f"{self.upper_bounds.size} upper bounds for {n} variables")
        if np.any(np.isnan(self.upper_bounds)) or np.any(self.upper_bounds < 0):
            raise LpFormatError("upper bounds must be nonnegative or +inf")

    @property
    def n_vars(self) -> int:
        return int(self.objective.size)

    @property
    def n_rows(self) -> int:
        return int(self.rhs.size)


@dataclass(eq=False)
class LpSolution:
    status: str                  # "optimal" | "unbounded"
    objective: float | None
    x: np.ndarray | None
    stats: dict


def max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint/bound violation of a candidate point."""
    ax = lp.matrix @ x
    v = 0.0
    eq = lp.senses == "="
    if eq.any():
        v = max(v, float(np.max(np.abs(ax[eq] - lp.rhs[eq]))))
    le = ~eq
    if le.any():
        v = max(v, float(np.max(ax[le] - lp.rhs[le])))
    return max(v, bound_violation(lp, x), 0.0)


def bound_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest variable-bound violation (held to a tighter tolerance than
    the constraint rows)."""
    v = float(np.max(-x)) if x.size else 0.0
    finite = np.isfinite(lp.upper_bounds)
    if finite.any():
        v = max(v, float(np.max(x[finite] - lp.upper_bounds[finite])))
    return max(v, 0.0)


def _check_start(start, n_struct: int, n_eq: int) -> np.ndarray:
    """A start basis's structural columns: one per "=" row, distinct."""
    start = np.asarray(start, dtype=np.int64).ravel()
    if start.size != n_eq:
        raise LpFormatError(
            f"start lists {start.size} columns; the LP has {n_eq} '=' rows"
        )
    if start.size and (start.min() < 0 or start.max() >= n_struct):
        raise LpFormatError(f"start columns must lie in [0, {n_struct})")
    if np.unique(start).size != start.size:
        raise LpFormatError("start columns must be distinct")
    return start


class _Simplex:
    """Revised simplex working state for one standardized problem.

    Columns: n structural, then one slack per inequality row. Finite upper
    bounds become explicit "<=" rows after the constraint rows. The start
    basis (structural columns, one per "=" row, plus every slack) is
    factored and checked for primal feasibility. The basis inverse is dense
    and refactorized periodically.
    """

    def __init__(self, lp: LinearProgram, start):
        import scipy.sparse as sp

        n = lp.n_vars
        A = lp.matrix.tocoo()
        ub_cols = np.flatnonzero(np.isfinite(lp.upper_bounds))
        m = lp.n_rows + ub_cols.size
        rows = np.concatenate([A.row, lp.n_rows + np.arange(ub_cols.size)])
        cols = np.concatenate([A.col, ub_cols])
        data = np.concatenate([A.data, np.ones(ub_cols.size)])
        b = np.concatenate([lp.rhs, lp.upper_bounds[ub_cols]])
        le = np.concatenate([lp.senses == "<=", np.ones(ub_cols.size, dtype=bool)])

        slack_rows = np.flatnonzero(le)
        slack_col = np.full(m, -1, dtype=np.int64)
        slack_col[slack_rows] = n + np.arange(slack_rows.size)
        rows = np.concatenate([rows, slack_rows])
        cols = np.concatenate([cols, slack_col[slack_rows]])
        data = np.concatenate([data, np.ones(slack_rows.size)])

        self.n_struct = n
        self.m = m
        self.total = n + slack_rows.size
        # A, its transpose for pricing, and its CSC arrays for column
        # scatters, so no pivot builds a sparse object
        self.A = sp.csc_matrix((data, (rows, cols)), shape=(m, self.total))
        self.AT = self.A.T
        self.indptr, self.indices, self.data = (self.A.indptr, self.A.indices,
                                                self.A.data)
        self.b = b
        self.col_norms = np.sqrt(np.asarray(self.A.multiply(self.A).sum(axis=0)).ravel())
        self.col_norms = np.maximum(self.col_norms, 1.0)
        self.pivots = 0
        self.basis = slack_col
        self.basis[~le] = _check_start(start, n, int(np.count_nonzero(~le)))
        self.refactor()
        lowest = float(self.xB.min(initial=0.0))
        if lowest < -FEASIBILITY_TOL:
            raise LpError(
                f"start basis is not primal feasible: a basic variable "
                f"is {lowest:.3e} < -{FEASIBILITY_TOL:g}"
            )
        self.xB = np.maximum(self.xB, 0.0)

    def column(self, j: int) -> np.ndarray:
        lo, hi = self.indptr[j], self.indptr[j + 1]
        col = np.zeros(self.m)
        col[self.indices[lo:hi]] = self.data[lo:hi]
        return col

    def refactor(self) -> None:
        B = self.A[:, self.basis].toarray()
        try:
            self.Binv = np.asfortranarray(np.linalg.inv(B))
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError(
                f"singular basis during refactorization (cond est "
                f"{np.linalg.cond(B):.3e})"
            ) from exc
        self.xB = self.Binv @ self.b

    def maximize(self, c: np.ndarray) -> str:
        """Maximize c from the current basis; returns "optimal" or "unbounded"."""
        from scipy.linalg.blas import dger

        max_iter = 2000 + 50 * (self.m + self.total)
        bland = False
        stall = 0
        last_obj = -np.inf
        it = 0
        while True:
            it += 1
            if it > max_iter:
                raise NumericalBreakdownError(
                    f"simplex exceeded {max_iter} iterations"
                )
            y = c[self.basis] @ self.Binv
            d = c - self.AT @ y
            d[self.basis] = 0.0
            cand = d > OPTIMALITY_TOL
            if not cand.any():
                return "optimal"
            if bland:
                j = int(np.nonzero(cand)[0][0])
            else:
                scores = np.where(cand, d / self.col_norms, -np.inf)
                j = int(np.argmax(scores))
            w = self.Binv @ self.column(j)
            pos = w > PIVOT_TOL
            if not pos.any():
                return "unbounded"
            ratios = np.where(pos, self.xB / np.where(pos, w, 1.0), np.inf)
            theta = float(ratios.min())
            ties = np.nonzero(ratios <= theta + 1e-12 * (1.0 + abs(theta)))[0]
            leave = int(ties[np.argmin(self.basis[ties])])

            piv = w[leave]
            pivrow = self.Binv[leave] / piv
            # in-place rank-1 basis-inverse update (no m*m temporary)
            self.Binv = dger(-1.0, w, pivrow, a=self.Binv, overwrite_a=1)
            self.Binv[leave] = pivrow
            self.xB -= theta * w
            self.xB[leave] = theta
            self.xB = np.maximum(self.xB, 0.0)
            self.basis[leave] = j
            self.pivots += 1
            if self.pivots % REFACTOR_EVERY == 0:
                self.refactor()

            obj = float(c[self.basis] @ self.xB)
            if obj > last_obj + 1e-12 * (1.0 + abs(last_obj)):
                stall = 0
                last_obj = obj
            else:
                stall += 1
                if stall >= STALL_WINDOW and not bland:
                    bland = True

    def solution(self) -> np.ndarray:
        x = np.zeros(self.total)
        x[self.basis] = self.xB
        return x[: self.n_struct]


def solve_lp(lp: LinearProgram, start) -> LpSolution:
    """Solve to a vertex-optimal basic solution; deterministic across runs.

    ``start`` lists the structural columns of a known primal feasible basis,
    one per "=" row; the slacks of all "<=" rows (upper-bound rows
    included) complete it. A start of the wrong length, with repeated or
    non-structural columns, raises LpFormatError; a start whose basic
    values fall below -FEASIBILITY_TOL raises LpError.

    Unbounded is reported as a status. Numerical breakdown (a singular
    basis, iteration explosion, or a returned point failing the independent
    feasibility audit) raises NumericalBreakdownError.
    """
    state = _Simplex(lp, start)
    cost = np.zeros(state.total)
    cost[: state.n_struct] = lp.objective
    status = state.maximize(cost)
    stats: dict = {"pivots": state.pivots}
    if status == "unbounded":
        return LpSolution("unbounded", None, None, stats)

    x = state.solution()
    viol = max_violation(lp, x)
    if viol > FEASIBILITY_TOL or bound_violation(lp, x) > 1e-9:
        state.refactor()
        x = state.solution()
        viol = max_violation(lp, x)
        if viol > FEASIBILITY_TOL:
            raise NumericalBreakdownError(
                f"returned point violates constraints by {viol:.3e}"
            )
        if bound_violation(lp, x) > 1e-9:
            raise NumericalBreakdownError(
                f"returned point violates variable bounds by "
                f"{bound_violation(lp, x):.3e}"
            )
    stats["max_violation"] = viol
    return LpSolution("optimal", float(lp.objective @ x), x, stats)
