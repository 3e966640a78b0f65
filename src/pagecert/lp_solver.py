"""Deterministic linear programming: the internal revised simplex.

The simplex works over sparse constraint rows with a dense basis inverse.
Phase 1 finds a feasible vertex from artificials; a caller that knows a
primal feasible basis passes it as ``start`` and skips phase 1
(certify_global starts every relaxed LP at the clean graph's basis).
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


@dataclass(frozen=True)
class SolverTolerances:
    feasibility: float = 1e-7     # accepted constraint violation
    optimality: float = 1e-9      # reduced-cost threshold


DEFAULT_TOLERANCES = SolverTolerances()
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
    status: str                  # "optimal" | "infeasible" | "unbounded"
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

    Columns: n structural, then one slack per inequality row, then one
    artificial per row that needs it. Finite upper bounds become explicit
    "<=" rows after the constraint rows. The basis inverse is dense and
    refactorized periodically.

    Without a start basis the rhs is made nonnegative and the artificials
    form the initial basis, for phase 1. A start basis (structural columns,
    one per "=" row, plus every slack) needs neither: it is factored and
    checked for primal feasibility, and phase 2 starts from it.
    """

    def __init__(self, lp: LinearProgram, tols: SolverTolerances,
                 start: np.ndarray | None = None):
        import scipy.sparse as sp

        self.tols = tols
        n = lp.n_vars
        A = lp.matrix.tocoo()
        ub_cols = np.flatnonzero(np.isfinite(lp.upper_bounds))
        m = lp.n_rows + ub_cols.size
        rows = np.concatenate([A.row, lp.n_rows + np.arange(ub_cols.size)])
        cols = np.concatenate([A.col, ub_cols])
        data = np.concatenate([A.data, np.ones(ub_cols.size)])
        b = np.concatenate([lp.rhs, lp.upper_bounds[ub_cols]])
        le = np.concatenate([lp.senses == "<=", np.ones(ub_cols.size, dtype=bool)])

        if start is None:
            # normalize rhs >= 0; rows without a usable slack get an artificial
            neg = b < 0
            data = np.where(neg[rows], -data, data)
            b = np.where(neg, -b, b)
            art_rows = np.flatnonzero(~le | neg)
        else:
            neg = np.zeros(m, dtype=bool)
            art_rows = np.empty(0, dtype=np.int64)
        slack_rows = np.flatnonzero(le)
        slack_col = np.full(m, -1, dtype=np.int64)
        slack_col[slack_rows] = n + np.arange(slack_rows.size)
        art_col = np.full(m, -1, dtype=np.int64)
        art_col[art_rows] = n + slack_rows.size + np.arange(art_rows.size)
        rows = np.concatenate([rows, slack_rows, art_rows])
        cols = np.concatenate([cols, slack_col[slack_rows], art_col[art_rows]])
        data = np.concatenate([data, np.where(neg[slack_rows], -1.0, 1.0),
                               np.ones(art_rows.size)])

        self.n_struct = n
        self.m = m
        self.total = n + slack_rows.size + art_rows.size
        self._set_matrix(sp.csc_matrix((data, (rows, cols)), shape=(m, self.total)))
        self.b = b
        self.is_artificial = np.zeros(self.total, dtype=bool)
        self.is_artificial[art_col[art_rows]] = True
        self.col_norms = np.sqrt(np.asarray(self.A.multiply(self.A).sum(axis=0)).ravel())
        self.col_norms = np.maximum(self.col_norms, 1.0)
        self.pivots = 0
        if start is None:
            self.basis = np.where(art_col >= 0, art_col, slack_col)
            self.Binv = np.asfortranarray(np.eye(m))
            self.xB = b.copy()
        else:
            self.basis = slack_col.copy()
            self.basis[~le] = _check_start(start, n, int(np.count_nonzero(~le)))
            self.refactor()
            lowest = float(self.xB.min(initial=0.0))
            if lowest < -tols.feasibility:
                raise LpError(
                    f"start basis is not primal feasible: a basic variable "
                    f"is {lowest:.3e} < -{tols.feasibility:g}"
                )
            self.xB = np.maximum(self.xB, 0.0)

    def _set_matrix(self, A: sp.csc_matrix) -> None:
        """Keep A, its transpose for pricing, and its CSC arrays for
        column scatters, so no pivot builds a sparse object."""
        self.A = A
        self.AT = A.T
        self.indptr, self.indices, self.data = A.indptr, A.indices, A.data

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

    def run_phase(self, c: np.ndarray, allowed: np.ndarray) -> str:
        """Maximize c over the current basis; returns "optimal" or "unbounded"."""
        from scipy.linalg.blas import dger

        tols = self.tols
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
            cand = (d > tols.optimality) & allowed
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

    def drive_out_artificials(self) -> None:
        """Pivot basic artificials out; delete rows that turn out redundant."""
        redundant = []
        for i in range(self.m):
            if not self.is_artificial[self.basis[i]]:
                continue
            row = np.asarray(self.AT @ self.Binv[i]).ravel()
            row[self.is_artificial] = 0.0
            row[self.basis] = 0.0
            cands = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
            if cands.size == 0:
                redundant.append(i)
                continue
            j = int(cands[0])
            w = self.Binv @ self.column(j)
            piv = w[i]
            pivrow = self.Binv[i] / piv
            self.Binv -= np.outer(w, pivrow)
            self.Binv[i] = pivrow
            theta = self.xB[i] / piv
            self.xB -= theta * w
            self.xB[i] = theta
            self.xB = np.maximum(self.xB, 0.0)
            self.basis[i] = j
        if redundant:
            keep = np.setdiff1d(np.arange(self.m), np.asarray(redundant))
            self._set_matrix(self.A[keep].tocsc())
            self.b = self.b[keep]
            self.basis = self.basis[keep]
            self.m = keep.size
            self.refactor()

    def solution(self) -> np.ndarray:
        x = np.zeros(self.total)
        x[self.basis] = self.xB
        return x[: self.n_struct]


def solve_lp(lp: LinearProgram, tols: SolverTolerances = DEFAULT_TOLERANCES,
             start: np.ndarray | None = None) -> LpSolution:
    """Solve to a vertex-optimal basic solution; deterministic across runs.

    Without ``start`` phase 1 finds a feasible vertex from artificials.
    ``start`` lists the structural columns of a known primal feasible basis,
    one per "=" row; the slacks of all "<=" rows (upper-bound rows
    included) complete it, and only phase 2 runs. A start of the wrong
    length, with repeated or non-structural columns, raises LpFormatError;
    a start whose basic values fall below -tols.feasibility raises LpError.

    Infeasible/unbounded are reported as statuses. Numerical breakdown (a
    singular basis, iteration explosion, or a returned point failing the
    independent feasibility audit) raises NumericalBreakdownError.
    """
    state = _Simplex(lp, tols, start)
    stats: dict = {}

    phase1_cost = np.zeros(state.total)
    phase1_cost[state.is_artificial] = -1.0
    if state.is_artificial.any():
        status = state.run_phase(phase1_cost, np.ones(state.total, dtype=bool))
        if status != "optimal":
            raise NumericalBreakdownError("phase 1 reported unbounded")
        art_sum = float(-(phase1_cost[state.basis] @ state.xB))
        stats["phase1_pivots"] = state.pivots
        if art_sum > tols.feasibility * (1.0 + float(np.abs(state.b).max(initial=0.0))):
            return LpSolution("infeasible", None, None, stats)
        state.drive_out_artificials()

    phase2_cost = np.zeros(state.total)
    phase2_cost[: state.n_struct] = lp.objective
    allowed = ~state.is_artificial
    status = state.run_phase(phase2_cost, allowed)
    stats["pivots"] = state.pivots
    if status == "unbounded":
        return LpSolution("unbounded", None, None, stats)

    x = state.solution()
    viol = max_violation(lp, x)
    if viol > tols.feasibility or bound_violation(lp, x) > 1e-9:
        state.refactor()
        x = state.solution()
        viol = max_violation(lp, x)
        if viol > tols.feasibility:
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
