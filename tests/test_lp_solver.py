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
from pagecert.lp_solver import DEFAULT_TOLERANCES, _Simplex

from rational_simplex import solve_exact


def simple_lp(**kw):
    return LinearProgram.build(
        objective=[1.0],
        rows=sp.csr_matrix(np.array([[1.0]])),
        senses=["<="],
        rhs=[3.0],
        **kw,
    )


class TestSolve:
    def test_one_var_bounded(self):
        sol = solve_lp(simple_lp())
        assert sol.status == "optimal"
        assert abs(sol.objective - 3.0) <= 1e-9
        assert abs(sol.x[0] - 3.0) <= 1e-9

    def test_unbounded(self):
        lp = LinearProgram.build([1.0], sp.csr_matrix((0, 1)), [], [])
        assert solve_lp(lp).status == "unbounded"

    def test_infeasible(self):
        # x <= 1 and x >= 2 (as -x <= -2)
        lp = LinearProgram.build(
            [1.0], [[1.0], [-1.0]], ["<=", "<="], [1.0, -2.0]
        )
        assert solve_lp(lp).status == "infeasible"

    def test_equality_rows(self):
        # max x + y st x + y = 2, x - y <= 0  ->  any point on the segment
        lp = LinearProgram.build(
            [1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], ["=", "<="], [2.0, 0.0]
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert abs(sol.objective - 2.0) <= 1e-9

    def test_upper_bounds_respected(self):
        lp = LinearProgram.build(
            [1.0, 2.0], [[1.0, 1.0]], ["<="], [10.0],
            upper_bounds=[4.0, 3.0],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert abs(sol.objective - 10.0) <= 1e-9
        assert sol.x[1] <= 3.0 + 1e-9

    def test_degenerate_lp_terminates(self):
        # many identical rows force degenerate pivots
        rows = [[1.0, 1.0]] * 8 + [[1.0, 0.0]]
        lp = LinearProgram.build(
            [1.0, 1.0], rows, ["<="] * 9, [1.0] * 8 + [0.5]
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert abs(sol.objective - 1.0) <= 1e-9

    def test_redundant_equalities(self):
        lp = LinearProgram.build(
            [1.0, 1.0],
            [[1.0, 1.0], [2.0, 2.0], [1.0, 0.0]],
            ["=", "=", "<="],
            [2.0, 4.0, 1.5],
        )
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert abs(sol.objective - 2.0) <= 1e-9

    def test_minimize_with_ge_row(self):
        # min 2a - b st a + b >= 1, a - b <= 4, a, b <= 3, written as
        # max -2a + b with the ">=" row as -a - b <= -1: the negative rhs
        # is normalized in phase 1
        lp = LinearProgram.build(
            [-2.0, 1.0], [[-1.0, -1.0], [1.0, -1.0]], ["<=", "<="], [-1.0, 4.0],
            upper_bounds=[3.0, 3.0],
        )
        sol = solve_lp(lp)
        assert abs(sol.objective - 3.0) <= 1e-9
        assert np.allclose(sol.x, [0.0, 3.0], atol=1e-9)


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
        sol = solve_lp(self.eq_lp(), start=[1])
        assert sol.status == "optimal"
        assert abs(sol.objective - 2.0) <= 1e-9
        assert "phase1_pivots" not in sol.stats
        assert max_violation(self.eq_lp(), sol.x) <= 1e-9
        assert solve_lp(self.eq_lp()).stats["phase1_pivots"] > 0

    @pytest.mark.parametrize("build", [
        lambda: simple_lp(),
        lambda: LinearProgram.build([1.0, 2.0], [[1.0, 1.0]], ["<="], [10.0],
                                    upper_bounds=[4.0, 3.0]),
        lambda: LinearProgram.build([1.0, 1.0], [[1.0, 1.0]] * 8 + [[1.0, 0.0]],
                                    ["<="] * 9, [1.0] * 8 + [0.5]),
    ], ids=["one-var", "upper-bounds", "degenerate"])
    def test_slack_start_matches_phase_one(self, build):
        lp = build()
        a, b = solve_lp(lp), solve_lp(lp, start=[])
        assert a.status == b.status == "optimal"
        assert abs(a.objective - b.objective) <= 1e-9

    def test_unbounded_from_start(self):
        lp = LinearProgram.build([1.0, 1.0], [[1.0, -1.0]], ["="], [1.0])
        assert solve_lp(lp, start=[0]).status == "unbounded"

    def test_planted_starts_match_phase_one_and_rational_oracle(self):
        hits = exact = 0
        for seed in range(40):
            lp, J = planted_basis_lp(seed)
            sol = solve_lp(lp, start=J)
            ref = solve_lp(lp)
            assert sol.status == ref.status, f"seed {seed}"
            if sol.status != "optimal":
                continue
            hits += 1
            assert abs(sol.objective - ref.objective) <= 1e-8, f"seed {seed}"
            assert max_violation(lp, sol.x) <= 1e-7, f"seed {seed}"
            if lp.n_vars * lp.n_rows <= 40:
                status, obj, _ = solve_exact(
                    lp.objective.tolist(), lp.matrix.toarray().tolist(),
                    list(lp.senses), lp.rhs.tolist(),
                    [None if not np.isfinite(u) else float(u)
                     for u in lp.upper_bounds],
                )
                assert status == "optimal", f"seed {seed}"
                assert abs(sol.objective - float(obj)) <= 1e-8, f"seed {seed}"
                exact += 1
        assert hits >= 20 and exact >= 10


def loop_standard_form(lp):
    """Per-row reference for the phase-1 standard form: upper-bound rows
    after the constraint rows, rhs made nonnegative, one slack per "<="
    row in row order, then one artificial per row without a usable slack."""
    A = lp.matrix.toarray().tolist()
    senses, b = list(lp.senses), list(lp.rhs)
    n = lp.n_vars
    for j in range(n):
        if np.isfinite(lp.upper_bounds[j]):
            A.append([1.0 if k == j else 0.0 for k in range(n)])
            senses.append("<=")
            b.append(float(lp.upper_bounds[j]))
    m = len(b)
    neg = [v < 0 for v in b]
    A = [[-v for v in row] if neg[i] else row for i, row in enumerate(A)]
    b = [abs(v) for v in b]
    slack = [i for i in range(m) if senses[i] == "<="]
    art = [i for i in range(m) if senses[i] != "<=" or neg[i]]
    cols = np.zeros((m, n + len(slack) + len(art)))
    cols[:, :n] = A
    basis = [0] * m
    for k, i in enumerate(slack):
        cols[i, n + k] = -1.0 if neg[i] else 1.0
        basis[i] = n + k
    for k, i in enumerate(art):
        cols[i, n + len(slack) + k] = 1.0
        basis[i] = n + len(slack) + k
    return cols, np.array(b), basis, n + len(slack)


class TestStandardForm:
    def test_matches_per_row_reference(self):
        for seed in range(30):
            rng = np.random.default_rng(900 + seed)
            n, m = int(rng.integers(1, 8)), int(rng.integers(0, 8))
            lp = LinearProgram.build(
                rng.normal(size=n), rng.normal(size=(m, n)),
                rng.choice(["<=", "="], size=m), rng.normal(size=m),
                upper_bounds=np.where(rng.random(n) < 0.5, 2.0, np.inf),
            )
            state = _Simplex(lp, DEFAULT_TOLERANCES)
            A, b, basis, first_art = loop_standard_form(lp)
            assert np.array_equal(state.A.toarray(), A), f"seed {seed}"
            assert np.array_equal(state.b, b), f"seed {seed}"
            assert state.basis.tolist() == basis, f"seed {seed}"
            assert np.flatnonzero(state.is_artificial).tolist() == \
                list(range(first_art, A.shape[1])), f"seed {seed}"
            assert all(np.array_equal(state.column(j), A[:, j])
                       for j in range(A.shape[1])), f"seed {seed}"


class TestAgainstRationalOracle:
    def test_random_dense_lps(self):
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 11))
            m = int(rng.integers(1, 11))
            A = np.round(rng.normal(size=(m, n)) * 4, 2)
            b = np.round(np.abs(rng.normal(size=m)) * 4 + 0.5, 2)
            c = np.round(rng.normal(size=n) * 3, 2)
            senses = ["<=" if rng.random() < 0.8 else "=" for _ in range(m)]
            ub = np.where(rng.random(n) < 0.4,
                          np.round(np.abs(rng.normal(size=n)) * 3 + 0.3, 2),
                          np.inf)
            lp = LinearProgram.build(c, A, senses, b, upper_bounds=ub)
            sol = solve_lp(lp)
            status, obj, x = solve_exact(
                c.tolist(), A.tolist(), senses, b.tolist(),
                [None if not np.isfinite(u) else float(u) for u in ub],
            )
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
            sol = solve_lp(lp)
            if sol.status == "optimal":
                assert max_violation(lp, sol.x) <= 1e-7


class TestDeterminism:
    def test_bit_identical_resolves(self):
        rng = np.random.default_rng(7)
        lp = LinearProgram.build(
            rng.normal(size=8),
            rng.normal(size=(6, 8)),
            ["<="] * 5 + ["="],
            np.abs(rng.normal(size=6)) + 1.0,
            upper_bounds=np.full(8, 2.0),
        )
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.status == b.status == "optimal"
        assert a.objective == b.objective
        assert np.array_equal(a.x, b.x)
