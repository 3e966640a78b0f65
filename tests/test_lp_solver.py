import numpy as np
import pytest
import scipy.sparse as sp

from pagecert.lp_solver import (
    LinearProgram,
    LpError,
    LpFormatError,
    NumericalBreakdownError,
    max_violation,
    solve_lp,
)
from pagecert.lp_solver import _Simplex

from rational_simplex import solve_exact


def exact(lp):
    """The exact two-phase rational simplex's (status, objective)."""
    status, obj, _ = solve_exact(
        lp.objective.tolist(), lp.matrix.toarray().tolist(), list(lp.senses),
        lp.rhs.tolist(),
        [None if not np.isfinite(u) else float(u) for u in lp.upper_bounds],
    )
    return status, obj


def assert_matches_exact(lp, sol, tol=1e-9):
    status, obj = exact(lp)
    assert sol.status == status
    if status == "optimal":
        assert abs(sol.objective - float(obj)) <= tol
        assert max_violation(lp, sol.x) <= 1e-7


def simple_lp(**kw):
    return LinearProgram.build(
        objective=[1.0],
        rows=sp.csr_matrix(np.array([[1.0]])),
        senses=["<="],
        rhs=[3.0],
        **kw,
    )


class TestSolve:
    # every "<=" row has rhs >= 0, so the slacks alone (start=[]) are a
    # feasible start unless the LP has "=" rows
    def test_one_var_bounded(self):
        sol = solve_lp(simple_lp(), start=[])
        assert sol.status == "optimal"
        assert abs(sol.objective - 3.0) <= 1e-9
        assert abs(sol.x[0] - 3.0) <= 1e-9

    def test_unbounded(self):
        lp = LinearProgram.build([1.0], sp.csr_matrix((0, 1)), [], [])
        sol = solve_lp(lp, start=[])
        assert sol.status == "unbounded"
        assert_matches_exact(lp, sol)

    def test_equality_rows(self):
        # max x + y st x + y = 2, x - y <= 0  ->  any point on the segment;
        # y basic in the "=" row starts at (0, 2)
        lp = LinearProgram.build(
            [1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], ["=", "<="], [2.0, 0.0]
        )
        sol = solve_lp(lp, start=[1])
        assert sol.status == "optimal"
        assert abs(sol.objective - 2.0) <= 1e-9
        assert_matches_exact(lp, sol)

    def test_upper_bounds_respected(self):
        lp = LinearProgram.build(
            [1.0, 2.0], [[1.0, 1.0]], ["<="], [10.0],
            upper_bounds=[4.0, 3.0],
        )
        sol = solve_lp(lp, start=[])
        assert sol.status == "optimal"
        assert abs(sol.objective - 10.0) <= 1e-9
        assert sol.x[1] <= 3.0 + 1e-9

    def test_degenerate_lp_terminates(self):
        # many identical rows force degenerate pivots
        rows = [[1.0, 1.0]] * 8 + [[1.0, 0.0]]
        lp = LinearProgram.build(
            [1.0, 1.0], rows, ["<="] * 9, [1.0] * 8 + [0.5]
        )
        sol = solve_lp(lp, start=[])
        assert sol.status == "optimal"
        assert abs(sol.objective - 1.0) <= 1e-9


class TestValidate:
    @pytest.mark.parametrize("args, match", [
        (([1.0, 1.0], [[1.0]], ["<="], [1.0]), "shape"),
        (([1.0], [[1.0], [1.0]], ["<="], [1.0]), "shape"),
        (([1.0], [[1.0]], [">="], [1.0]), "senses"),
        (([1.0], [[1.0], [1.0]], ["<="], [1.0, 1.0]), "senses"),
        (([np.inf], [[1.0]], ["<="], [1.0]), "finite"),
        (([1.0], [[np.nan]], ["<="], [1.0]), "finite"),
        (([1.0], [[1.0]], ["<="], [np.inf]), "finite"),
        (([1.0], [[1.0]], ["<="], [1.0], [-1.0]), "nonnegative"),
        (([1.0], [[1.0]], ["<="], [1.0], [np.nan]), "nonnegative"),
        (([1.0, 1.0], [[1.0, 1.0]], ["<="], [1.0], [1.0]), "upper bounds"),
    ], ids=["dense-padded", "extra-row", "bad-sense", "sense-count",
            "inf-objective", "nan-row", "inf-rhs", "negative-bound",
            "nan-bound", "bound-count"])
    def test_malformed_lp_raises(self, args, match):
        with pytest.raises(LpFormatError, match=match):
            LinearProgram.build(*args)


def planted_basis_lp(seed):
    """A random LP with a known primal feasible start basis: "=" rows are
    met by positive values on a random column set J, "<=" rows and upper
    bounds keep room at that point."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    k = int(rng.integers(1, n))
    m_le = int(rng.integers(0, 8))
    J = rng.choice(n, size=k, replace=False)
    xJ = np.round(rng.uniform(0.5, 3.0, size=k), 2)
    A_eq = np.round(rng.normal(size=(k, n)) * 3, 2)
    A_le = np.round(rng.normal(size=(m_le, n)) * 3, 2)
    b_eq = A_eq[:, J] @ xJ
    b_le = A_le[:, J] @ xJ + np.round(rng.uniform(0.0, 2.0, size=m_le), 2)
    ub = np.full(n, np.inf)
    capped = rng.random(n) < 0.5
    ub[capped] = 4.0
    A = np.vstack([A_eq, A_le])
    senses = ["="] * k + ["<="] * m_le
    c = np.round(rng.normal(size=n) * 3, 2)
    lp = LinearProgram.build(c, A, senses, np.concatenate([b_eq, b_le]),
                             upper_bounds=ub)
    return lp, J


class TestStartBasis:
    def eq_lp(self):
        # max x + y st x + y = 2, x - y <= 0
        return LinearProgram.build(
            [1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], ["=", "<="], [2.0, 0.0]
        )

    @pytest.mark.parametrize("start", [[0], [0, 1, 2], [1, 1], [0, 3], [-1, 0]],
                             ids=["short", "long", "duplicate", "slack", "negative"])
    def test_malformed_start_raises(self, start):
        # two "=" rows, so a start needs two distinct structural columns
        lp = LinearProgram.build(
            [1.0, 1.0, 1.0], [[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 1.0]],
            ["=", "=", "<="], [2.0, 1.0, 5.0],
        )
        assert solve_lp(lp, start=[0, 1]).status == "optimal"
        with pytest.raises(LpFormatError, match="start"):
            solve_lp(lp, start=start)

    def test_infeasible_start_raises(self):
        # x basic in the "=" row gives x = 2 and slack 0 - 2 < 0
        with pytest.raises(LpError, match="not primal feasible"):
            solve_lp(self.eq_lp(), start=[0])

    def test_singular_start_raises(self):
        lp = LinearProgram.build(
            [1.0, 1.0], [[1.0, 1.0], [2.0, 2.0]], ["=", "="], [2.0, 4.0]
        )
        with pytest.raises(NumericalBreakdownError, match="singular"):
            solve_lp(lp, start=[0, 1])

    def test_feasible_start_skips_phase_one(self):
        # a solve is phase 2 from the caller's basis: there is no solve
        # without a start, and no phase-1 statistic
        sol = solve_lp(self.eq_lp(), start=[1])
        assert sol.status == "optimal"
        assert abs(sol.objective - 2.0) <= 1e-9
        assert sorted(sol.stats) == ["max_violation", "pivots"]
        assert max_violation(self.eq_lp(), sol.x) <= 1e-9
        with pytest.raises(TypeError):
            solve_lp(self.eq_lp())

    @pytest.mark.parametrize("build", [
        lambda: simple_lp(),
        lambda: LinearProgram.build([1.0, 2.0], [[1.0, 1.0]], ["<="], [10.0],
                                    upper_bounds=[4.0, 3.0]),
        lambda: LinearProgram.build([1.0, 1.0], [[1.0, 1.0]] * 8 + [[1.0, 0.0]],
                                    ["<="] * 9, [1.0] * 8 + [0.5]),
    ], ids=["one-var", "upper-bounds", "degenerate"])
    def test_slack_start_matches_phase_one(self, build):
        # the reference runs its own phase 1 from artificials, in exact
        # arithmetic
        lp = build()
        sol = solve_lp(lp, start=[])
        assert sol.status == "optimal"
        assert_matches_exact(lp, sol)

    def test_unbounded_from_start(self):
        lp = LinearProgram.build([1.0, 1.0], [[1.0, -1.0]], ["="], [1.0])
        assert solve_lp(lp, start=[0]).status == "unbounded"
        assert exact(lp)[0] == "unbounded"

    def test_planted_starts_match_phase_one_and_rational_oracle(self):
        hits = 0
        for seed in range(40):
            lp, J = planted_basis_lp(seed)
            sol = solve_lp(lp, start=J)
            status, obj = exact(lp)
            assert sol.status == status, f"seed {seed}"
            if sol.status != "optimal":
                continue
            hits += 1
            assert abs(sol.objective - float(obj)) <= 1e-8, f"seed {seed}"
            assert max_violation(lp, sol.x) <= 1e-7, f"seed {seed}"
        assert hits >= 20


def loop_standard_form(lp, start):
    """Per-row reference for the standard form: upper-bound rows after the
    constraint rows, one slack per "<=" row in row order; the start basis
    takes the start columns in the "=" rows, in order, and the slacks in
    the others."""
    A = lp.matrix.toarray().tolist()
    senses, b = list(lp.senses), list(lp.rhs)
    n = lp.n_vars
    for j in range(n):
        if np.isfinite(lp.upper_bounds[j]):
            A.append([1.0 if k == j else 0.0 for k in range(n)])
            senses.append("<=")
            b.append(float(lp.upper_bounds[j]))
    m = len(b)
    slack = [i for i in range(m) if senses[i] == "<="]
    cols = np.zeros((m, n + len(slack)))
    cols[:, :n] = A
    structural = iter(start)
    basis = [0] * m
    for k, i in enumerate(slack):
        cols[i, n + k] = 1.0
        basis[i] = n + k
    for i in range(m):
        if senses[i] == "=":
            basis[i] = int(next(structural))
    return cols, np.array(b), basis


class TestStandardForm:
    def test_matches_per_row_reference(self):
        for seed in range(30):
            lp, J = planted_basis_lp(900 + seed)
            state = _Simplex(lp, J)
            A, b, basis = loop_standard_form(lp, J)
            assert np.array_equal(state.A.toarray(), A), f"seed {seed}"
            assert np.array_equal(state.b, b), f"seed {seed}"
            assert state.basis.tolist() == basis, f"seed {seed}"
            assert state.total == A.shape[1], f"seed {seed}"
            assert all(np.array_equal(state.column(j), A[:, j])
                       for j in range(A.shape[1])), f"seed {seed}"


class TestAgainstRationalOracle:
    def test_random_dense_lps(self):
        # "<=" rows with a positive rhs: the slack basis is a feasible start
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, 11))
            A = np.round(rng.normal(size=(m, n)) * 4, 2)
            b = np.round(np.abs(rng.normal(size=m)) * 4 + 0.5, 2)
            c = np.round(rng.normal(size=n) * 3, 2)
            ub = np.where(rng.random(n) < 0.4,
                          np.round(np.abs(rng.normal(size=n)) * 3 + 0.3, 2),
                          np.inf)
            lp = LinearProgram.build(c, A, ["<="] * m, b, upper_bounds=ub)
            sol = solve_lp(lp, start=[])
            status, obj = exact(lp)
            assert sol.status == status, f"seed {seed}"
            if status == "optimal":
                hits += 1
                assert abs(sol.objective - float(obj)) <= 1e-8, f"seed {seed}"
        assert hits >= 20  # the battery must actually exercise optimal solves

    def test_feasibility_audit(self):
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            n, m = 6, 5
            A = rng.normal(size=(m, n))
            b = np.abs(rng.normal(size=m)) + 0.5
            lp = LinearProgram.build(
                rng.normal(size=n), A, ["<="] * m, b
            )
            sol = solve_lp(lp, start=[])
            if sol.status == "optimal":
                assert max_violation(lp, sol.x) <= 1e-7


class TestDeterminism:
    def test_bit_identical_resolves(self):
        lp, J = planted_basis_lp(7)
        assert lp.n_rows > J.size > 0     # "=" and "<=" rows
        a = solve_lp(lp, start=J)
        b = solve_lp(lp, start=J)
        assert a.status == b.status == "optimal"
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)
