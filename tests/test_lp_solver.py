import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagecert.lp_solver import (
    LinearProgram,
    LpError,
    LpFormatError,
    NumericalBreakdownError,
    max_violation,
    solve_lp,
)
from pagecert import lp_solver
from pagecert.graph import build_scenario, generate_sbm
from pagecert.lp_solver import _Simplex
from pagecert.qclp_global import assemble_relaxed_lp, build_aux_mdp, compute_upper_bounds

from rational_simplex import solve_exact


def dense(lp):
    """The LP's constraint matrix as a dense array."""
    A = np.zeros((lp.n_rows, lp.n_vars))
    A[lp.row, lp.col] = lp.coef
    return A


def exact(lp):
    """The exact two-phase rational simplex's (status, objective)."""
    status, obj, _ = solve_exact(
        lp.objective.tolist(), dense(lp).tolist(), list(lp.senses),
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
        rows=[[1.0]],
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
        lp = LinearProgram.build([1.0], np.zeros((0, 1)), [], [])
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
        (([1.0], [[1.0]], ["<=junk"], [1.0]), "senses"),
        (([[1.0, 2.0]], [[1.0, 1.0]], ["<="], [1.0]), "objective must be 1-D"),
        (([1.0], [[1.0]], ["<="], [[1.0]]), "rhs must be 1-D"),
        (([1.0], [[1.0]], ["<="], [1.0], [[1.0]]), "upper bounds must be 1-D"),
        (([1.0], ([1.0], ([1], [0])), ["<="], [1.0]), "outside"),
        (([1.0], ([1.0], ([0], [-1])), ["<="], [1.0]), "outside"),
        (([1.0], ([1.0, 2.0], ([0], [0])), ["<="], [1.0]), "one length"),
        (([1.0], ([1.0], [0]), ["<="], [1.0]), r"\(data, \(rows, cols\)\)"),
        (([1.0, 1.0], ([1.0], ([0.7], [1])), ["<="], [1.0]), "integers"),
    ], ids=["dense-padded", "extra-row", "bad-sense", "sense-count",
            "inf-objective", "nan-row", "inf-rhs", "negative-bound",
            "nan-bound", "bound-count", "sense-suffix", "2d-objective",
            "2d-rhs", "2d-bounds", "triplet-row-range", "triplet-col-range",
            "triplet-lengths", "triplet-form", "triplet-float-index"])
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
    A = dense(lp).tolist()
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


def std_column(state, j):
    """Column j of the standard form, read through the CSC indptr."""
    lo, hi = state.indptr[j], state.indptr[j + 1]
    col = np.zeros(state.m)
    col[state.indices[lo:hi]] = state.data[lo:hi]
    return col


class TestStandardForm:
    def test_matches_per_row_reference(self):
        for seed in range(30):
            lp, J = planted_basis_lp(900 + seed)
            state = _Simplex(lp, J)
            A, b, basis = loop_standard_form(lp, J)
            csc = np.zeros((state.m, state.total))
            csc[state.indices, state.col] = state.data
            assert np.array_equal(csc, A), f"seed {seed}"
            assert np.array_equal(state.b, b), f"seed {seed}"
            assert state.basis.tolist() == basis, f"seed {seed}"
            assert state.total == A.shape[1], f"seed {seed}"
            assert all(np.array_equal(std_column(state, j), A[:, j])
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


@st.composite
def triplet_lps(draw):
    """A "<=" LP from a random (data, (rows, cols)) triplet: unsorted, with
    repeated pairs, explicit zeros and empty rows and columns."""
    m = draw(st.integers(0, 6))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(0, 20)) if m else 0
    i = draw(st.lists(st.integers(0, max(m - 1, 0)), min_size=k, max_size=k))
    j = draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k))
    # small integers, so repeated pairs sum exactly in any order
    data = draw(st.lists(st.integers(-3, 3).map(float), min_size=k, max_size=k))
    ub = draw(st.lists(st.sampled_from([np.inf, 2.0]), min_size=n, max_size=n))
    lp = LinearProgram.build(np.ones(n), (data, (i, j)), ["<="] * m,
                             np.ones(m), upper_bounds=ub)
    return lp, (data, (i, j))


class TestCanonicalArrays:
    @settings(max_examples=200, deadline=None)
    @given(triplet_lps())
    def test_match_scipy_csr_and_csc(self, case):
        import scipy.sparse as sp

        lp, triplet = case
        m, n = lp.n_rows, lp.n_vars
        csr = sp.csr_matrix(triplet, shape=(m, n))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(lp.row, minlength=m))])
        assert np.array_equal(indptr, csr.indptr)
        assert np.array_equal(lp.col, csr.indices)
        assert np.array_equal(lp.coef, csr.data)

        # the standard form: upper-bound rows below, one slack per row
        state = _Simplex(lp, [])
        ub_cols = np.flatnonzero(np.isfinite(lp.upper_bounds))
        rows = sp.vstack([csr, sp.csr_matrix(
            (np.ones(ub_cols.size), (np.arange(ub_cols.size), ub_cols)),
            shape=(ub_cols.size, n))])
        csc = sp.hstack([rows, sp.identity(state.m)]).tocsc()
        assert np.array_equal(state.indptr, csc.indptr)
        assert np.array_equal(state.indices, csc.indices)
        assert np.array_equal(state.data, csc.data)

    def test_dense_input_keeps_nonzeros_in_row_order(self):
        lp = LinearProgram.build([1.0, 1.0, 1.0], [[0.0, 2.0, -1.0], [3.0, 0.0, 0.0]],
                                 ["<=", "="], [1.0, 1.0])
        assert lp.row.tolist() == [0, 0, 1]
        assert lp.col.tolist() == [1, 2, 0]
        assert lp.coef.tolist() == [2.0, -1.0, 3.0]

    def test_repeated_pairs_sum_in_input_order(self):
        # (1e16 + 1) - 1e16 is 0 in float64, while (1e16 - 1e16) + 1 is 1
        for data, want in (([1e16, 1.0, -1e16], 0.0), ([1e16, -1e16, 1.0], 1.0)):
            lp = LinearProgram.build([1.0, 1.0], (data + [5.0], ([0] * 4, [1, 1, 1, 0])),
                                     ["<="], [1.0])
            assert lp.col.tolist() == [0, 1]
            assert lp.coef.tolist() == [5.0, want]


def sbm_relaxed_lp():
    """A remove-only relaxed LP (50-node two-block SBM, s = 4, B = 4) whose
    solve takes 149 pivots: past one refactorization, with 49 rank-1
    updates since."""
    G = generate_sbm(50, 2, 0.3, 0.05, 1)
    S = build_scenario(G, "remove-only", strength=4, global_budget=4)
    r = np.where(np.arange(50) < 25, -1.0, 1.0)
    z = np.zeros(50)
    z[0] = 1.0
    return assemble_relaxed_lp(build_aux_mdp(S, 0.85, r), S, z,
                               compute_upper_bounds(G, S, 0.85))


class TestBasisUpdate:
    def solved_state(self, inst):
        state = _Simplex(inst.lp, inst.clean_basis())
        cost = np.zeros(state.total)
        cost[: state.n_struct] = inst.lp.objective
        assert state.maximize(cost) == "optimal"
        return state

    def test_solve_past_a_refactorization_matches_highs(self):
        from scipy.optimize import linprog

        inst = sbm_relaxed_lp()
        lp = inst.lp
        state = self.solved_state(inst)
        assert state.pivots > lp_solver.REFACTOR_EVERY
        assert state.pivots % lp_solver.REFACTOR_EVERY > 0
        x = state.solution()
        sol = solve_lp(lp, start=inst.clean_basis())
        assert np.array_equal(sol.x, x)
        eq = lp.senses == "="
        A = dense(lp)
        ref = linprog(
            -lp.objective, A_ub=A[~eq], b_ub=lp.rhs[~eq], A_eq=A[eq], b_eq=lp.rhs[eq],
            bounds=[(0, u if np.isfinite(u) else None) for u in lp.upper_bounds],
            method="highs-ds",
        )
        assert ref.status == 0
        assert abs(sol.objective + ref.fun) <= 1e-9 * abs(ref.fun) + 1e-12
        assert max_violation(lp, sol.x) <= 1e-9

    def test_updated_inverse_matches_the_inverse(self):
        state = self.solved_state(sbm_relaxed_lp())
        assert state.pivots % lp_solver.REFACTOR_EVERY > 0
        A = np.column_stack([std_column(state, j) for j in range(state.total)])
        Binv = np.linalg.inv(A[:, state.basis])
        assert np.max(np.abs(state.Binv - Binv)) <= 1e-12
