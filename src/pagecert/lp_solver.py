"""Deterministic linear programming: the internal revised simplex.

An LP keeps its constraint matrix as numpy arrays in canonical CSR order,
so this module needs numpy alone. Every solve starts from a primal feasible
basis that the caller supplies as ``start`` (certify_global starts every
relaxed LP at the clean graph's basis), so there is one simplex phase and
no search for a feasible point. Pricing scales reduced costs by static
column norms; after a stall it falls back to Bland's rule, which guarantees
termination on the highly degenerate instances the certification pipeline
produces.

The basis inverse is a dense m x m array, updated after each pivot by a
rank-1 numpy update and inverted afresh every REFACTOR_EVERY pivots. The
update makes an m x m temporary, which costs little on relaxed LPs of a few
hundred rows; on LPs of a few thousand rows a pivot takes about twice as
long as an in-place BLAS update would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


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


def _vector(values, name: str) -> np.ndarray:
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise LpFormatError(f"{name} must be 1-D, got shape {v.shape}")
    return v


@dataclass(eq=False)
class LinearProgram:
    """max objective @ x subject to rows with senses in {"=", "<="} and
    bounds 0 <= x <= upper_bounds (inf = absent).

    The constraint matrix is its entries in canonical CSR order: entry k is
    coef[k] at (row[k], col[k]), sorted by row and then column, with no
    (row, col) pair twice."""

    objective: np.ndarray
    row: np.ndarray
    col: np.ndarray
    coef: np.ndarray
    senses: np.ndarray
    rhs: np.ndarray
    upper_bounds: np.ndarray

    @classmethod
    def build(cls, objective, rows, senses, rhs, upper_bounds=None) -> "LinearProgram":
        """``rows`` is a dense (m, n) array-like or a ``(data, (i, j))``
        triplet, whose repeated entries are summed and whose explicit zeros
        are kept; m and n are the sizes of ``rhs`` and ``objective``."""
        c = _vector(objective, "objective")
        b = _vector(rhs, "rhs")
        ub = (np.full(c.size, np.inf) if upper_bounds is None
              else _vector(upper_bounds, "upper bounds"))
        m, n = b.size, c.size
        # checked before the cast, which would cut "<=junk" to "<="
        s = np.asarray(senses)
        if s.shape != (m,) or not np.all(np.isin(s, ["=", "<="])):
            raise LpFormatError("row senses must be '=' or '<=', one per row")
        if isinstance(rows, tuple):
            i, j, coef = _canonical_triplet(rows, m, n)
        else:
            A = np.asarray(rows, dtype=np.float64)
            if A.shape != (m, n):
                raise LpFormatError(
                    f"constraint matrix shape {A.shape} does not match "
                    f"{m} rows x {n} variables"
                )
            i, j = np.nonzero(A)
            coef = A[i, j]
        for arr in (c, b, coef):
            if not np.all(np.isfinite(arr)):
                raise LpFormatError("coefficients must be finite")
        if ub.size != n:
            raise LpFormatError(f"{ub.size} upper bounds for {n} variables")
        if np.any(np.isnan(ub)) or np.any(ub < 0):
            raise LpFormatError("upper bounds must be nonnegative or +inf")
        return cls(c, i, j, coef, s.astype("<U2"), b, ub)

    @property
    def n_vars(self) -> int:
        return int(self.objective.size)

    @property
    def n_rows(self) -> int:
        return int(self.rhs.size)


def _canonical_triplet(rows, m: int, n: int):
    """(row, col, coef) of a (data, (i, j)) triplet in CSR order, with the
    values of repeated (i, j) pairs summed."""
    try:
        data, (i, j) = rows
    except (TypeError, ValueError):
        raise LpFormatError("a sparse matrix is given as (data, (rows, cols))") from None
    data, i, j = np.asarray(data, dtype=np.float64), np.asarray(i), np.asarray(j)
    if not (data.ndim == i.ndim == j.ndim == 1 and data.size == i.size == j.size):
        raise LpFormatError("a (data, (rows, cols)) triplet needs three 1-D "
                            "arrays of one length")
    if data.size and (i.dtype.kind not in "iu" or j.dtype.kind not in "iu"):
        raise LpFormatError("triplet row and column indices must be integers")
    i, j = i.astype(np.int64), j.astype(np.int64)
    if data.size and (i.min() < 0 or i.max() >= m or j.min() < 0 or j.max() >= n):
        raise LpFormatError(f"an entry lies outside the {m} x {n} constraint "
                            "matrix shape")
    # a stable sort keeps a repeated pair's values in input order, the
    # order they are summed in
    key = i * n + j
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    i, j = np.divmod(key[first], max(n, 1))
    return i, j, np.bincount(np.cumsum(first) - 1, weights=data[order],
                             minlength=i.size)


@dataclass(eq=False)
class LpSolution:
    status: str                  # "optimal" | "unbounded"
    objective: float | None
    x: np.ndarray | None
    stats: dict


def max_violation(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint/bound violation of a candidate point."""
    ax = np.bincount(lp.row, weights=lp.coef * x[lp.col], minlength=lp.n_rows)
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
    ordered = np.sort(start)
    if np.any(ordered[1:] == ordered[:-1]):
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
        n = lp.n_vars
        ub_cols = np.flatnonzero(np.isfinite(lp.upper_bounds))
        m = lp.n_rows + ub_cols.size
        b = np.concatenate([lp.rhs, lp.upper_bounds[ub_cols]])
        le = np.concatenate([lp.senses == "<=", np.ones(ub_cols.size, dtype=bool)])
        slack_rows = np.flatnonzero(le)
        slack_col = np.full(m, -1, dtype=np.int64)
        slack_col[slack_rows] = n + np.arange(slack_rows.size)
        rows = np.concatenate([lp.row, lp.n_rows + np.arange(ub_cols.size), slack_rows])
        cols = np.concatenate([lp.col, ub_cols, slack_col[slack_rows]])
        data = np.concatenate([lp.coef, np.ones(ub_cols.size + slack_rows.size)])

        self.n_struct = n
        self.m = m
        self.total = n + slack_rows.size
        # the standard form in CSC order (by column, then row); col holds
        # each entry's column for pricing by bincount
        order = np.lexsort((rows, cols))
        self.indices, self.col, self.data = rows[order], cols[order], data[order]
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(self.col, minlength=self.total))])
        self.b = b
        self.col_norms = np.sqrt(np.bincount(self.col, weights=self.data ** 2,
                                             minlength=self.total))
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

    def refactor(self) -> None:
        """Invert the current basis afresh."""
        lo = self.indptr[self.basis]
        counts = self.indptr[self.basis + 1] - lo
        # the entries of every basic column, in basis order
        entry = np.arange(counts.sum()) + np.repeat(lo - np.cumsum(counts) + counts, counts)
        B = np.zeros((self.m, self.m))
        B[self.indices[entry], np.repeat(np.arange(self.m), counts)] = self.data[entry]
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdownError(
                f"singular basis during refactorization (cond est "
                f"{np.linalg.cond(B):.3e})"
            ) from exc
        self.xB = self.Binv @ self.b

    def maximize(self, c: np.ndarray) -> str:
        """Maximize c from the current basis; returns "optimal" or "unbounded"."""
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
            d = c - np.bincount(self.col, weights=self.data * y[self.indices],
                                minlength=self.total)
            d[self.basis] = 0.0
            cand = d > OPTIMALITY_TOL
            if not cand.any():
                return "optimal"
            if bland:
                j = int(np.nonzero(cand)[0][0])
            else:
                scores = np.where(cand, d / self.col_norms, -np.inf)
                j = int(np.argmax(scores))
            lo, hi = self.indptr[j], self.indptr[j + 1]
            w = self.Binv[:, self.indices[lo:hi]] @ self.data[lo:hi]
            pos = w > PIVOT_TOL
            if not pos.any():
                return "unbounded"
            ratios = np.where(pos, self.xB / np.where(pos, w, 1.0), np.inf)
            theta = float(ratios.min())
            ties = np.nonzero(ratios <= theta + 1e-12 * (1.0 + abs(theta)))[0]
            leave = int(ties[np.argmin(self.basis[ties])])

            pivrow = self.Binv[leave] / w[leave]
            self.Binv -= np.outer(w, pivrow)
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
