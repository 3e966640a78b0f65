import numpy as np
import pytest

from pagecert import ppr
from pagecert.graph import DirectedGraph, build_scenario, flipped_graph
from pagecert.ppr import (
    ConvergenceError,
    KernelInputError,
    diffuse_transpose,
    diffused_margins,
    mean_reward,
    ppr_rows,
    ppr_vector,
    solve_transport,
    transition_matrix,
)

from conftest import random_connected_graph

ALPHA = 0.85


def two_cycle() -> DirectedGraph:
    return DirectedGraph.from_edges(2, [(0, 1), (1, 0)])


def dense_transition(G: DirectedGraph) -> np.ndarray:
    """Independent dense P = A / deg."""
    n = G.node_count
    A = np.zeros((n, n))
    A[G.edges[:, 0], G.edges[:, 1]] = 1.0
    return A / A.sum(axis=1)[:, None]


def dense_ppr(G: DirectedGraph, alpha: float, z: np.ndarray) -> np.ndarray:
    """Independent dense-inversion oracle."""
    P = dense_transition(G)
    return (1 - alpha) * np.linalg.inv(np.eye(G.node_count) - alpha * P.T) @ z


class TestPprVector:
    def test_two_cycle_closed_form(self):
        pi = ppr_vector(two_cycle(), ALPHA, np.array([1.0, 0.0]))
        expected = np.array([1.0, ALPHA]) / (1.0 + ALPHA)
        assert np.allclose(pi.values, expected, atol=1e-12)
        assert abs(pi.values[0] - 0.5405) < 1e-4
        assert abs(pi.values[1] - 0.4595) < 1e-4

    def test_absorbing_self_loop(self):
        # node 1's only out-edge returns to itself: teleporting there traps
        # the walker
        G = DirectedGraph.from_edges(2, [(0, 1), (1, 1)], allow_self_loops=True)
        pi = ppr_vector(G, ALPHA, np.array([0.0, 1.0]))
        assert np.allclose(pi.values, [0.0, 1.0], atol=1e-10)

    def test_matches_dense_oracle_on_random_digraph(self, rng, monkeypatch):
        G = random_connected_graph(rng, 6, extra=3)
        z = np.zeros(6)
        z[2] = 1.0
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)  # stationary iteration
        pi = ppr_vector(G, ALPHA, z)
        assert np.allclose(pi.values, dense_ppr(G, ALPHA, z), atol=1e-9)

    def test_normalization_and_nonnegativity(self, rng):
        for k in range(5):
            G = random_connected_graph(np.random.default_rng(k), 9, extra=4)
            z = np.random.default_rng(100 + k).dirichlet(np.ones(9))
            pi = ppr_vector(G, ALPHA, z)
            assert abs(pi.values.sum() - 1.0) <= 1e-8
            assert pi.values.min() >= 0.0

    def test_zero_degree_node_rejected(self):
        G = DirectedGraph.from_edges(3, [(0, 1), (1, 0), (0, 2)])
        with pytest.raises(KernelInputError, match="node 2"):
            ppr_vector(G, ALPHA, np.array([1.0, 0.0, 0.0]))

    def test_zero_degree_node_rejected_on_stationary_path(self, monkeypatch):
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)  # stationary iteration
        G = DirectedGraph.from_edges(3, [(0, 1), (1, 0), (0, 2)])
        with pytest.raises(KernelInputError, match="node 2"):
            ppr_vector(G, ALPHA, np.array([1.0, 0.0, 0.0]))

    def test_bad_teleport_rejected(self):
        with pytest.raises(KernelInputError):
            ppr_vector(two_cycle(), ALPHA, np.array([0.7, 0.7]))

    def test_bad_alpha_rejected(self):
        with pytest.raises(KernelInputError):
            ppr_vector(two_cycle(), 1.0, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("z", [[np.nan, np.nan], [np.nan, 1.0]])
    def test_nonfinite_teleport_rejected(self, z):
        # every comparison with NaN is false, so only an explicit check
        # keeps a NaN teleport from coming back as an all-NaN PageRank
        with pytest.raises(KernelInputError, match="finite"):
            ppr_vector(two_cycle(), ALPHA, np.array(z))


class TestMeanReward:
    def test_zero_reward(self):
        x = mean_reward(two_cycle(), ALPHA, np.zeros(2))
        assert np.all(x.values == 0.0)

    def test_two_cycle_closed_form(self):
        x = mean_reward(two_cycle(), ALPHA, np.array([1.0, 0.0]))
        expected = np.array([1.0, ALPHA]) / (1.0 - ALPHA**2)
        assert np.allclose(x.values, expected, atol=1e-10)

    def test_reward_identity_against_ppr(self, rng):
        # r^T pi(z) == (1 - alpha) z^T x for random graphs, rewards, teleports
        G = random_connected_graph(rng, 8, extra=3)
        r = rng.normal(size=8)
        x = mean_reward(G, ALPHA, r)
        for _ in range(3):
            z = rng.dirichlet(np.ones(8))
            pi = ppr_vector(G, ALPHA, z)
            assert abs(r @ pi.values - (1 - ALPHA) * (z @ x.values)) <= 1e-9

    def test_nonfinite_reward_rejected(self):
        with pytest.raises(KernelInputError):
            mean_reward(two_cycle(), ALPHA, np.array([np.nan, 0.0]))


class TestDiffusedMargins:
    def test_constant_h_gives_constant_margins(self, rng):
        G = random_connected_graph(rng, 7, extra=2)
        m = diffused_margins(G, ALPHA, np.full(7, 3.25))
        assert np.allclose(m, 3.25, atol=1e-10)

    def test_two_cycle_closed_form(self):
        m = diffused_margins(two_cycle(), ALPHA, np.array([0.0, 1.0]))
        expected = np.array([ALPHA, 1.0]) / (1.0 + ALPHA)
        assert np.allclose(m, expected, atol=1e-12)

    def test_matches_per_target_ppr_solves(self, rng):
        G = random_connected_graph(rng, 10, extra=4)
        h = rng.normal(size=10)
        m = diffused_margins(G, ALPHA, h)
        for t in range(10):
            z = np.zeros(10)
            z[t] = 1.0
            pi = ppr_vector(G, ALPHA, z)
            assert abs(m[t] - pi.values @ h) <= 1e-9

    def test_matrix_rhs(self, rng):
        G = random_connected_graph(rng, 6, extra=2)
        H = rng.normal(size=(6, 3))
        M = diffused_margins(G, ALPHA, H)
        for c in range(3):
            assert np.allclose(M[:, c], diffused_margins(G, ALPHA, H[:, c]))


class TestSolverAgreement:
    @pytest.mark.parametrize("n", [5, 17, 50])
    def test_dense_vs_iterative(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        G = random_connected_graph(rng, n, extra=n // 2)
        r = rng.normal(size=n)
        xd = solve_transport(G, ALPHA, r)
        yd = solve_transport(G, ALPHA, r, transpose=True)
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)  # stationary iteration
        xi = solve_transport(G, ALPHA, r)
        yi = solve_transport(G, ALPHA, r, transpose=True)
        assert np.allclose(xd, xi, atol=1e-8)
        assert np.allclose(yd, yi, atol=1e-8)

    def test_residual_tolerance(self, rng, monkeypatch):
        G = random_connected_graph(rng, 40, extra=10)
        r = rng.normal(size=40)
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)  # stationary iteration
        x = solve_transport(G, 0.99, r)
        res = x - 0.99 * (transition_matrix(G) @ x) - r
        assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(r) * 10


class TestConvergenceFailure:
    def test_cap_exhaustion_reports_residual(self, rng, monkeypatch):
        G = random_connected_graph(rng, 20, extra=5)
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)  # stationary iteration
        monkeypatch.setattr(ppr, "_iteration_cap", lambda alpha: 2)
        with pytest.raises(ConvergenceError, match="residual"):
            solve_transport(G, 0.95, rng.normal(size=20))


class TestTransitionMatrix:
    def test_matches_dense_row_normalized_adjacency(self):
        # Hub 0 links both ways to every node, 1..8 form a ring, and the
        # fragile set holds self-loops and chords. flipped_graph hands an
        # unsorted edge list to DirectedGraph.from_edges, whose (src, dst)
        # order without duplicates is what the CSR build relies on.
        n = 9
        fixed = ([(0, v) for v in range(1, n)] + [(v, 0) for v in range(1, n)]
                 + [(v, v % (n - 1) + 1) for v in range(1, n)])
        fragile = [(0, 0), (2, 6), (5, 5), (6, 2), (7, 3), (8, 8)]
        G = DirectedGraph.from_edges(n, fixed + fragile[:3],
                                     allow_self_loops=True)
        S = build_scenario(G, "custom", fixed_edges=fixed,
                           fragile_edges=fragile)
        Gf = flipped_graph(S, np.arange(S.fragile_count) % 3 != 1)
        assert np.any(Gf.edges[:, 0] == Gf.edges[:, 1])
        P = transition_matrix(Gf)
        assert P.has_canonical_format
        assert P.nnz == Gf.edge_count
        assert np.array_equal(P.toarray(), dense_transition(Gf))

    def test_sequence_is_block_diagonal(self, rng):
        import scipy.sparse as sp
        graphs = [random_connected_graph(rng, 7, extra=k) for k in (1, 3, 5)]
        P = transition_matrix(graphs)
        ref = sp.block_diag([transition_matrix(G) for G in graphs], format="csr")
        assert P.shape == ref.shape == (21, 21)
        assert np.array_equal(P.indptr, ref.indptr)
        assert np.array_equal(P.indices, ref.indices)
        assert np.array_equal(P.data, ref.data)

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_zero_out_degree_in_any_block_rejected(self, rng, bad):
        graphs = [random_connected_graph(rng, 5, extra=2) for _ in range(3)]
        graphs[bad] = DirectedGraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
        with pytest.raises(KernelInputError, match="no outgoing edge"):
            transition_matrix(graphs)


class TestDenseSolve:
    @pytest.mark.parametrize("transpose", [False, True])
    def test_bit_identical_to_eye_minus_alpha_p(self, rng, transpose):
        # the dense path builds I - alpha * P[^T] in one array; its entries,
        # self-loops included, are the same IEEE values as the textbook
        # expression, so LAPACK returns the same bits
        n = 40
        edges = rng.integers(0, n, size=(160, 2))
        loops = np.repeat(np.arange(0, n, 3), 2).reshape(-1, 2)
        ring = np.column_stack((np.arange(n), (np.arange(n) + 1) % n))
        G = DirectedGraph.from_edges(n, np.concatenate([edges, loops, ring]),
                                     allow_self_loops=True, dedupe=True)
        assert np.any(G.edges[:, 0] == G.edges[:, 1])
        b = rng.normal(size=(n, 3))
        P = transition_matrix(G).toarray()
        expected = np.linalg.solve(
            np.eye(n) - ALPHA * (P.T if transpose else P), b)
        got = solve_transport(G, ALPHA, b, transpose=transpose)
        assert np.array_equal(got, expected)


class TestPprRows:
    def test_rows_match_single_solves(self, rng):
        G = random_connected_graph(rng, 9, extra=3)
        rows = ppr_rows(G, ALPHA, [0, 4, 7])
        for k, t in enumerate([0, 4, 7]):
            z = np.zeros(9)
            z[t] = 1.0
            assert np.allclose(rows[k], ppr_vector(G, ALPHA, z).values, atol=1e-10)

    @pytest.mark.parametrize("targets", [[-1], [9], [0, 9]])
    def test_out_of_range_target_rejected(self, rng, targets):
        # numpy would wrap -1 to node 8's row and give a bare IndexError on 9
        G = random_connected_graph(rng, 9, extra=3)
        with pytest.raises(KernelInputError, match=r"\[0, 9\)"):
            ppr_rows(G, ALPHA, targets)


class TestDiffuseTranspose:
    def test_adjoint_identity(self, rng):
        # <diffuse(h), s> == <h, diffuse_transpose(s)>
        G = random_connected_graph(rng, 8, extra=3)
        h = rng.normal(size=8)
        s = rng.normal(size=8)
        lhs = diffused_margins(G, ALPHA, h) @ s
        rhs = h @ diffuse_transpose(G, ALPHA, s)
        assert abs(lhs - rhs) <= 1e-9


def _stop_iteration(monkeypatch, G, b, transpose):
    """The iteration at which a single-graph stationary solve stops."""
    for cap in range(1, 500):
        monkeypatch.setattr(ppr, "_iteration_cap", lambda alpha, cap=cap: cap)
        try:
            solve_transport(G, ALPHA, b, transpose=transpose)
            return cap
        except ConvergenceError:
            continue
    raise AssertionError("no stop within 500 iterations")


class TestGraphSequence:
    """Column j of a call over a sequence of graphs is solved on graphs[j],
    bit for bit as a single-graph call solves it."""

    @staticmethod
    def _problem(rng, n=30):
        graphs = [random_connected_graph(rng, n, extra=e) for e in (0, 4, 40, 120)]
        b = rng.normal(size=(n, 4))
        b[:, 1] = 0.0           # stops at the first iteration
        b[:, 2] *= 1e6
        return graphs, b

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("stationary", [False, True])
    def test_columns_match_single_graph_calls(self, rng, monkeypatch,
                                              stationary, transpose):
        if stationary:
            monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)
        graphs, b = self._problem(rng)
        X = solve_transport(graphs, ALPHA, b, transpose=transpose)
        assert X.shape == b.shape
        for j, G in enumerate(graphs):
            single = solve_transport(G, ALPHA, b[:, j], transpose=transpose)
            assert np.array_equal(X[:, j], single)
        if stationary:
            # the columns stop at different iterations, each frozen at its own
            stops = {_stop_iteration(monkeypatch, G, b[:, j], transpose)
                     for j, G in enumerate(graphs)}
            assert len(stops) >= 3

    @pytest.mark.parametrize("transpose", [False, True])
    def test_dense_stack_chunks_match(self, rng, monkeypatch, transpose):
        graphs, b = self._problem(rng)
        whole = solve_transport(graphs, ALPHA, b, transpose=transpose)
        # at most one 30 x 30 matrix per stacked solve
        monkeypatch.setattr(ppr, "DENSE_STACK_BYTES", 8 * 30 * 30)
        assert np.array_equal(solve_transport(graphs, ALPHA, b, transpose=transpose),
                              whole)

    def test_one_block_at_the_cap_raises(self, rng, monkeypatch):
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)
        graphs, b = self._problem(rng)
        monkeypatch.setattr(ppr, "_iteration_cap", lambda alpha: 2)
        # the zero column has converged; the others have not
        with pytest.raises(ConvergenceError, match="2-iteration cap.*residual"):
            solve_transport(graphs, ALPHA, b)

    def test_rhs_shape_must_match_graph_count(self, rng):
        graphs, b = self._problem(rng)
        with pytest.raises(KernelInputError, match=r"\(30, 4\)"):
            solve_transport(graphs, ALPHA, b[:, :3])
        with pytest.raises(KernelInputError):
            solve_transport([], ALPHA, b)
