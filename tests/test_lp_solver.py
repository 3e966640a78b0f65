import numpy as np
import pytest
import scipy.sparse as sp

from pagecert.lp_solver import (
    LinearProgram,
    LpError,
    LpFormatError,
    NumericalBreakdownError,
    export_lp_text,
    import_solution,
    max_violation,
    parse_lp_text,
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


class TestExportImport:
    def test_round_trip_single_var(self, tmp_path):
        lp = simple_lp(names=["x"])
        p = tmp_path / "one.lp"
        export_lp_text(lp, p)
        lp2 = parse_lp_text(p)
        assert lp2.names == ["x"]
        assert np.array_equal(lp2.objective, lp.objective)
        assert np.array_equal(lp2.rhs, lp.rhs)
        assert (lp2.matrix != lp.matrix).nnz == 0

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(3)
        lp = LinearProgram.build(
            rng.normal(size=5),
            rng.normal(size=(4, 5)),
            ["<=", "=", "<=", "="],
            rng.normal(size=4),
            upper_bounds=[1.5, np.inf, 0.25, np.inf, 3.75],
            names=[f"x_{i}" for i in range(5)],
            row_names=[f"c{i}" for i in range(4)],
        )
        p = tmp_path / "r.lp"
        export_lp_text(lp, p)
        lp2 = parse_lp_text(p)
        assert lp2.names == lp.names
        assert lp2.row_names == lp.row_names
        assert np.array_equal(lp2.objective, lp.objective)
        assert np.array_equal(lp2.rhs, lp.rhs)
        assert list(lp2.senses) == list(lp.senses)
        assert np.array_equal(lp2.upper_bounds, lp.upper_bounds)
        assert np.array_equal(lp2.matrix.toarray(), lp.matrix.toarray())

    def test_round_trip_solve_agrees(self, tmp_path):
        rng = np.random.default_rng(11)
        lp = LinearProgram.build(
            rng.normal(size=6),
            rng.normal(size=(5, 6)),
            ["<="] * 5,
            np.abs(rng.normal(size=5)) + 0.5,
            upper_bounds=np.full(6, 4.0),
        )
        direct = solve_lp(lp)
        p = tmp_path / "s.lp"
        export_lp_text(lp, p)
        reparsed = solve_lp(parse_lp_text(p))
        assert abs(direct.objective - reparsed.objective) <= 1e-9

    def test_export_empty_lp_rejected(self, tmp_path):
        lp = LinearProgram.build([], sp.csr_matrix((0, 0)), [], [])
        with pytest.raises(LpFormatError):
            export_lp_text(lp, tmp_path / "e.lp")

    def test_certification_lp_file_row_count(self, tmp_path):
        # a 3-node, 2-fragile-edge certification instance exports exactly
        # 3 + 2 + 3 + 1 = 9 constraint rows
        import numpy as np
        from pagecert.graph import DirectedGraph, build_scenario
        from pagecert.qclp_global import (
            assemble_relaxed_lp, build_aux_mdp, compute_upper_bounds,
        )
        edges = [(0, 1), (1, 0), (1, 2), (2, 1)]
        G = DirectedGraph.from_edges(3, edges)
        S = build_scenario(
            G, "custom", fixed_edges=edges, fragile_edges=[(0, 2), (2, 0)],
            local_budgets=[1, 0, 1],
        )
        mdp = build_aux_mdp(G, S, 0.85, np.ones(3))
        inst = assemble_relaxed_lp(
            mdp, S, np.array([1.0, 0.0, 0.0]),
            compute_upper_bounds(G, S, 0.85),
        )
        p = tmp_path / "qclp.lp"
        export_lp_text(inst.lp, p)
        text = p.read_text().splitlines()
        start = text.index("Subject To") + 1
        end = text.index("Bounds")
        assert end - start == 9
        reparsed = parse_lp_text(p)
        assert reparsed.n_rows == 9
        assert reparsed.n_vars == 7

    def test_import_solution(self, tmp_path):
        lp = simple_lp(names=["x"])
        p = tmp_path / "sol.txt"
        p.write_text("x 3\n")
        sol = import_solution(p, lp)
        assert sol.x[0] == 3.0
        assert sol.objective == 3.0

    def test_import_unknown_name(self, tmp_path):
        lp = simple_lp(names=["x"])
        p = tmp_path / "sol.txt"
        p.write_text("bogus 1\n")
        with pytest.raises(LpFormatError, match="bogus"):
            import_solution(p, lp)

    def test_import_missing_defaults_zero(self, tmp_path, caplog):
        lp = LinearProgram.build(
            [1.0, 1.0], [[1.0, 1.0]], ["<="], [4.0], names=["a", "b"]
        )
        p = tmp_path / "sol.txt"
        p.write_text("a 2.5\n")
        with caplog.at_level("WARNING"):
            sol = import_solution(p, lp)
        assert sol.x.tolist() == [2.5, 0.0]
        assert sol.stats["missing_defaulted"] == 1
        assert "1 variables missing" in caplog.text

    def test_parses_minimize_and_ge_rows(self, tmp_path):
        # foreign dialect: Minimize objective and >= rows normalize to
        # max / <= form
        p = tmp_path / "foreign.lp"
        p.write_text(
            "Minimize\n obj: 2 a - 1 b\n"
            "Subject To\n c0: a + b >= 1\n c1: a - b <= 4\n"
            "Bounds\n a <= 3\n b <= 3\nEnd\n"
        )
        lp = parse_lp_text(p)
        assert np.array_equal(lp.objective, [-2.0, 1.0])
        assert list(lp.senses) == ["<=", "<="]
        sol = solve_lp(lp)
        # max -2a + b st a + b >= 1, bounds -> a = 0, b = 3
        assert abs(sol.objective - 3.0) <= 1e-9
        assert np.allclose(sol.x, [0.0, 3.0], atol=1e-9)

    def test_hypothesis_round_trip(self, tmp_path):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)

        @settings(max_examples=30, deadline=None)
        @given(
            st.lists(finite, min_size=1, max_size=6),
            st.data(),
        )
        def check(objective, data):
            n = len(objective)
            m = data.draw(st.integers(0, 4))
            rows = [
                [data.draw(finite) for _ in range(n)] for _ in range(m)
            ]
            senses = [data.draw(st.sampled_from(["<=", "="])) for _ in range(m)]
            rhs = [data.draw(finite) for _ in range(m)]
            ubs = [
                data.draw(st.one_of(st.none(), st.floats(0.0, 1e6)))
                for _ in range(n)
            ]
            lp = LinearProgram.build(
                objective, np.asarray(rows).reshape(m, n), senses, rhs,
                upper_bounds=[np.inf if u is None else u for u in ubs],
            )
            path = tmp_path / "h.lp"
            export_lp_text(lp, path)
            lp2 = parse_lp_text(path)
            assert lp2.names == lp.names
            assert np.array_equal(lp2.objective, lp.objective)
            assert np.array_equal(lp2.rhs, lp.rhs)
            assert np.array_equal(lp2.upper_bounds, lp.upper_bounds)
            assert np.array_equal(lp2.matrix.toarray(), lp.matrix.toarray())

        check()

    def test_import_recomputes_objective(self, tmp_path):
        rng = np.random.default_rng(5)
        lp = LinearProgram.build(
            rng.normal(size=4), rng.normal(size=(3, 4)), ["<="] * 3,
            np.abs(rng.normal(size=3)) + 1.0,
            upper_bounds=np.full(4, 5.0),
        )
        sol = solve_lp(lp)
        p = tmp_path / "sol.txt"
        p.write_text(
            "\n".join(f"{n} {v:.12g}" for n, v in zip(lp.names, sol.x)) + "\n"
        )
        imported = import_solution(p, lp)
        assert abs(imported.objective - sol.objective) <= 1e-6
