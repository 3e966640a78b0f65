import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def scipy_transition(graphs, transpose: bool = False):
    """scipy's canonical CSR of the block-diagonal stack of the graphs' P, or
    its .T.tocsr(), built from the edge lists alone: the reference whose
    rows and products transition_matrix must match bit for bit."""
    import scipy.sparse as sp
    blocks = [sp.csr_matrix((1.0 / G.out_degree[G.edges[:, 0]], G.edges.T),
                            shape=(G.node_count, G.node_count)) for G in graphs]
    P = sp.block_diag(blocks, format="csr")
    assert P.has_canonical_format
    return P.T.tocsr() if transpose else P


def jagged_rows(P):
    """Each row's (columns, values) of a JaggedMatrix, in its summation order:
    the row at place r has an entry in each step of more than r rows."""
    starts, sizes = P.ptr[:-1], np.diff(P.ptr)
    return [(P.cols[starts[sizes > r] + r], P.data[starts[sizes > r] + r])
            for r in P.rank]


def assert_same_rows(P, ref) -> None:
    """Each row of the JaggedMatrix P holds the scipy CSR ref's row: the same
    columns and values, in the same order."""
    assert isinstance(P, ppr.JaggedMatrix) and P.rank.size == ref.shape[0]
    for r, (cols, data) in enumerate(jagged_rows(P)):
        lo, hi = ref.indptr[r], ref.indptr[r + 1]
        assert np.array_equal(cols, ref.indices[lo:hi])
        assert np.array_equal(data, ref.data[lo:hi])


def hub_graph(rng: np.random.Generator, n: int = 14) -> DirectedGraph:
    """Node 0 links to every other node and no node links to it, so P's row
    0 and P^T's row 1 have n - 1 > 8 entries and P^T's row 0 has none;
    nodes 5 and 7 have self-loops; the other edges are a ring on 1..n-1
    and random chords."""
    edges = ([(0, v) for v in range(1, n)] + [(v, 1) for v in range(2, n)]
             + [(v, v % (n - 1) + 1) for v in range(1, n)] + [(5, 5), (7, 7)])
    chords = rng.integers(1, n, size=(2 * n, 2))
    return DirectedGraph.from_edges(
        n, np.unique(np.concatenate([edges, chords]), axis=0), allow_self_loops=True)


def dense_ppr(G: DirectedGraph, alpha: float, z: np.ndarray) -> np.ndarray:
    """Independent dense-inversion oracle."""
    P = dense_transition(G)
    return (1 - alpha) * np.linalg.inv(np.eye(G.node_count) - alpha * P.T) @ z


class TestPprVector:
    def test_two_cycle_closed_form(self):
        pi = ppr_vector(two_cycle(), ALPHA, np.array([1.0, 0.0]))
        expected = np.array([1.0, ALPHA]) / (1.0 + ALPHA)
        assert np.allclose(pi, expected, atol=1e-12)
        assert abs(pi[0] - 0.5405) < 1e-4
        assert abs(pi[1] - 0.4595) < 1e-4

    def test_absorbing_self_loop(self):
        # node 1's only out-edge returns to itself: teleporting there traps
        # the walker
        G = DirectedGraph.from_edges(2, [(0, 1), (1, 1)], allow_self_loops=True)
        pi = ppr_vector(G, ALPHA, np.array([0.0, 1.0]))
        assert np.allclose(pi, [0.0, 1.0], atol=1e-10)

    def test_matches_dense_oracle_on_random_digraph(self, rng, monkeypatch):
        G = random_connected_graph(rng, 6, extra=3)
        z = np.zeros(6)
        z[2] = 1.0
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)  # stationary iteration
        pi = ppr_vector(G, ALPHA, z)
        assert np.allclose(pi, dense_ppr(G, ALPHA, z), atol=1e-9)

    def test_normalization_and_nonnegativity(self, rng):
        for k in range(5):
            G = random_connected_graph(np.random.default_rng(k), 9, extra=4)
            z = np.random.default_rng(100 + k).dirichlet(np.ones(9))
            pi = ppr_vector(G, ALPHA, z)
            assert abs(pi.sum() - 1.0) <= 1e-8
            assert pi.min() >= 0.0

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
        assert np.all(x == 0.0)

    def test_two_cycle_closed_form(self):
        x = mean_reward(two_cycle(), ALPHA, np.array([1.0, 0.0]))
        expected = np.array([1.0, ALPHA]) / (1.0 - ALPHA**2)
        assert np.allclose(x, expected, atol=1e-10)

    def test_reward_identity_against_ppr(self, rng):
        # r^T pi(z) == (1 - alpha) z^T x for random graphs, rewards, teleports
        G = random_connected_graph(rng, 8, extra=3)
        r = rng.normal(size=8)
        x = mean_reward(G, ALPHA, r)
        for _ in range(3):
            z = rng.dirichlet(np.ones(8))
            pi = ppr_vector(G, ALPHA, z)
            assert abs(r @ pi - (1 - ALPHA) * (z @ x)) <= 1e-9

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
            assert abs(m[t] - pi @ h) <= 1e-9

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
        res = x - 0.99 * (scipy_transition([G]) @ x) - r
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
        # order without duplicates is what the build relies on.
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
        for transpose in (False, True):
            P = transition_matrix(Gf, transpose)
            ref = scipy_transition([Gf], transpose)
            assert P.cols.size == len(Gf.edges)
            assert_same_rows(P, ref)
            dense = dense_transition(Gf)
            assert np.array_equal(P @ np.eye(n), dense.T if transpose else dense)

    def test_sequence_is_block_diagonal(self, rng):
        graphs = [random_connected_graph(rng, 7, extra=k) for k in (1, 3, 5)]
        for transpose in (False, True):
            P = transition_matrix(graphs, transpose)
            ref = scipy_transition(graphs, transpose)
            assert ref.shape[0] == 21
            assert_same_rows(P, ref)

    @pytest.mark.parametrize("limit", [ppr.JAGGED_LIMIT, 0], ids=["jagged", "csr"])
    def test_block_row_nnz_from_the_operator(self, rng, monkeypatch, limit):
        # BiCGSTAB reads the graphs once, so each block's most entries in a
        # row, for its rounding allowance, come from the operator
        monkeypatch.setattr(ppr, "JAGGED_LIMIT", limit)
        graphs = [hub_graph(rng), random_connected_graph(rng, 14, extra=3),
                  hub_graph(rng)]
        for transpose in (False, True):
            A = transition_matrix(iter(graphs), transpose)
            assert np.array_equal(ppr._block_row_nnz(A, 3),
                                  [ppr._row_nnz(G, transpose) for G in graphs])

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_zero_out_degree_in_any_block_rejected(self, rng, bad):
        graphs = [random_connected_graph(rng, 5, extra=2) for _ in range(3)]
        graphs[bad] = DirectedGraph.from_edges(5, [(0, 1), (1, 2), (2, 0), (3, 4)])
        with pytest.raises(KernelInputError, match="no outgoing edge"):
            transition_matrix(graphs)


class TestJaggedProduct:
    """The product of transition_matrix's operator is bit for bit scipy's
    CSR product: each row sums its entries in CSR order from +0.0, for P and
    P^T, one column or many, one graph or a block-diagonal stack."""

    @staticmethod
    def _y(rng, n, c):
        # magnitudes spread over 24 orders, so another summation order
        # changes the last bits
        shape = (n,) if c is None else (n, c)
        return rng.normal(size=shape) * 10.0 ** rng.integers(-12, 12, size=shape)

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("c", [None, 1, 5])
    @pytest.mark.parametrize("blocks", [1, 3])
    def test_bit_identical_to_scipy_csr(self, rng, transpose, c, blocks):
        graphs = [hub_graph(rng) for _ in range(blocks)]
        P = transition_matrix(graphs, transpose)
        ref = scipy_transition(graphs, transpose)
        for _ in range(5):
            y = self._y(rng, 14 * blocks, c)
            got = P @ y
            assert got.shape == y.shape
            assert np.array_equal(got, ref @ y)
        # the rows the docstring names: a hub of more than 8 entries, and
        # for P^T an empty row, +0.0 as scipy's
        assert P.ptr.size - 1 > 8
        if transpose:
            assert jagged_rows(P)[0][0].size == 0 and np.all(np.signbit(got[0]) == 0)

    def test_hub_row_is_a_sequential_sum(self, rng):
        # hub row 0 of P sums w * (1 + 1e20 - 1e20 + 1) over columns 1..4:
        # in order that is w, while a pairwise sum, as np.sum takes from 8
        # terms on, adds (w + 1e20 w) + (-1e20 w + w) and gets 0
        G = hub_graph(rng)
        P = transition_matrix(G)
        y = np.zeros(14)
        y[1:5] = [1.0, 1e20, -1e20, 1.0]
        cols, data = jagged_rows(P)[0]
        assert cols.size > 8 and np.array_equal(cols[:4], [1, 2, 3, 4])
        assert (P @ y)[0] == data[0] == (scipy_transition([G]) @ y)[0]
        assert np.sum(data * y[cols]) == 0.0

    def test_negative_zero_products_sum_to_positive_zero(self):
        G = DirectedGraph.from_edges(2, [(0, 1), (1, 0)])
        y = np.array([-0.0, -0.0])
        assert np.array_equal(np.signbit(transition_matrix(G) @ y), [False, False])
        assert np.array_equal(np.signbit(scipy_transition([G]) @ y), [False, False])

    @pytest.mark.parametrize("transpose", [False, True])
    @pytest.mark.parametrize("limit", ["JAGGED_LIMIT", "JAGGED_STEPS"])
    def test_scipy_csr_above_either_limit(self, rng, monkeypatch, limit, transpose):
        # at the limit: 14 nodes, or the most entries in a row of P[^T]
        graphs = [hub_graph(rng) for _ in range(3)]
        size = 14 if limit == "JAGGED_LIMIT" else max(
            int(np.bincount(G.edges[:, int(transpose)]).max()) for G in graphs)
        monkeypatch.setattr(ppr, limit, size)
        assert isinstance(transition_matrix(graphs, transpose), ppr.JaggedMatrix)
        monkeypatch.setattr(ppr, limit, size - 1)
        P = transition_matrix(graphs, transpose)
        ref = scipy_transition(graphs, transpose)
        assert P.format == "csr"
        assert np.array_equal(P.indptr, ref.indptr)
        assert np.array_equal(P.indices, ref.indices)
        assert np.array_equal(P.data, ref.data)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_bicgstab_solves_agree_bit_for_bit(self, rng, monkeypatch, transpose):
        # the same BiCGSTAB systems, one graph and a stack, on either operator
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)
        G = hub_graph(rng)
        graphs = [hub_graph(rng) for _ in range(3)]
        b, bs = rng.normal(size=(14, 4)), rng.normal(size=(14, 3))
        jagged = (solve_transport(G, ALPHA, b, transpose),
                  solve_transport(graphs, ALPHA, bs, transpose))
        monkeypatch.setattr(ppr, "JAGGED_LIMIT", 0)
        csr = (solve_transport(G, ALPHA, b, transpose),
               solve_transport(graphs, ALPHA, bs, transpose))
        assert all(np.array_equal(a, c) for a, c in zip(jagged, csr))


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
        G = DirectedGraph.from_edges(
            n, np.unique(np.concatenate([edges, loops, ring]), axis=0),
            allow_self_loops=True)
        assert np.any(G.edges[:, 0] == G.edges[:, 1])
        b = rng.normal(size=(n, 3))
        P = scipy_transition([G]).toarray()
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
            assert np.allclose(rows[k], ppr_vector(G, ALPHA, z), atol=1e-10)

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


def star(leaves: int) -> DirectedGraph:
    """Hub 0 linked both ways to each of nodes 1..leaves."""
    out = [(0, v) for v in range(1, leaves + 1)]
    return DirectedGraph.from_edges(leaves + 1, out + [(v, 0) for _, v in out])


def stated_bound_holds(G, alpha, b, x, transpose) -> bool:
    """||x - x*|| <= RESIDUAL_TOL * ||b|| + 2 e(x) / (1 - alpha) against a
    dense LAPACK oracle, in the 1-norm for P^T and the inf-norm for P, with
    e(y) = gamma_{d+2} (||b|| + (1 + alpha) ||y||) the rounding bound of an
    evaluated residual and d the most nonzeros in a row of P[^T]. The
    oracle's own error is at most (its evaluated residual + e(oracle)) /
    (1 - alpha) in that norm, and is allowed for."""
    P = dense_transition(G)
    Pm = P.T if transpose else P
    M = np.eye(G.node_count) - alpha * Pm
    ref = np.linalg.solve(M, b)
    o = 1 if transpose else np.inf
    k = (np.count_nonzero(Pm, axis=1).max() + 2) * np.finfo(float).eps / 2
    gamma = k / (1 - k)

    def e(y):
        return gamma * (np.linalg.norm(b, o) + (1 + alpha) * np.linalg.norm(y, o))

    slack = (np.linalg.norm(M @ ref - b, o) + e(ref)) / (1.0 - alpha)
    return (np.linalg.norm(x - ref, o)
            <= ppr.RESIDUAL_TOL * np.linalg.norm(b, o) + 2 * e(x) / (1.0 - alpha)
            + slack)


@st.composite
def solver_graphs(draw):
    """One star or hub-heavy graph, or 1-4 remove-only perturbations of a
    random directed graph (solved as a sequence, one column each)."""
    kind = draw(st.sampled_from(["star", "hubs", "perturbed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "star":
        return [star(draw(st.integers(1, 80)))]
    n = draw(st.integers(3, 60))
    ring = np.column_stack((np.arange(n), (np.arange(n) + 1) % n))
    extra = rng.integers(0, n, size=(draw(st.integers(0, 3 * n)), 2))
    if kind == "hubs":
        hubs = rng.choice(n, size=min(n, draw(st.integers(1, 3))), replace=False)
        spokes = np.array([(h, v) for h in hubs for v in range(n)])
        edges = np.concatenate([ring, extra, spokes, spokes[:, ::-1]])
        edges = edges[edges[:, 0] != edges[:, 1]]
        return [DirectedGraph.from_edges(n, np.unique(edges, axis=0))]
    edges = np.concatenate([ring, extra])
    G = DirectedGraph.from_edges(n, np.unique(edges[edges[:, 0] != edges[:, 1]], axis=0))
    S = build_scenario(G, "remove-only")
    return [flipped_graph(S, rng.random(S.fragile_count) < draw(st.floats(0, 1)))
            for _ in range(draw(st.integers(1, 4)))]


class TestIterativeErrorBound:
    """The iterative path stops each system on its true residual, so every
    column is within the stated bound of the solution."""

    @settings(max_examples=150, deadline=None)
    @given(graphs=solver_graphs(), transpose=st.booleans(),
           alpha=st.sampled_from([0.5, ALPHA, 0.95, 0.99, 0.995, 0.999]),
           seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3),
           sparse=st.booleans())
    def test_within_bound_of_dense_oracle(self, graphs, transpose, alpha, seed,
                                          k, sparse):
        rng = np.random.default_rng(seed)
        n = graphs[0].node_count
        b = rng.normal(size=(n, len(graphs) if len(graphs) > 1 else k))
        if sparse:       # a few entries of either sign, magnitudes far apart
            b *= (rng.random(b.shape) < 0.1) * 10.0 ** rng.integers(-6, 7, b.shape)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ppr, "DENSE_LIMIT", 0)
            x = solve_transport(graphs if len(graphs) > 1 else graphs[0],
                                alpha, b, transpose=transpose)
        for j in range(b.shape[1]):
            G = graphs[j] if len(graphs) > 1 else graphs[0]
            assert stated_bound_holds(G, alpha, b[:, j], x[:, j], transpose)

    def test_star_pagerank_regression(self):
        # 1,001 nodes: above DENSE_LIMIT. With b = e_1 (a leaf) the
        # transposed system has a closed form: the leaves sum to
        # L = 1/(1 - a^2), the hub holds a*L, and each leaf a*hub/k plus its
        # own b. The stationary sweep's stop test left a 1.9e-8 error here.
        k = 1000
        assert ppr.DENSE_LIMIT < k + 1
        b = np.zeros(k + 1)
        b[1] = 1.0
        x = solve_transport(star(k), ALPHA, b, transpose=True)
        hub = ALPHA / (1.0 - ALPHA**2)
        exact = np.full(k + 1, ALPHA * hub / k)
        exact[0] = hub
        exact[1] += 1.0
        assert np.linalg.norm(x - exact, 1) <= ppr.RESIDUAL_TOL

    @pytest.mark.parametrize("transpose", [False, True])
    def test_zero_rhs_stops_before_the_first_iteration(self, rng, monkeypatch,
                                                       transpose):
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)
        monkeypatch.setattr(ppr, "_iteration_cap", lambda alpha: 0)
        G = random_connected_graph(rng, 20, extra=5)
        x = solve_transport(G, ALPHA, np.zeros(20), transpose=transpose)
        assert np.array_equal(x, np.zeros(20))
        with pytest.raises(ConvergenceError, match="0-iteration cap"):
            solve_transport(G, ALPHA, np.ones(20), transpose=transpose)

    @pytest.mark.parametrize("G", [star(1), star(40), two_cycle(),
                                   random_connected_graph(np.random.default_rng(3), 50, 30)],
                             ids=["star1", "star40", "two_cycle", "random50"])
    def test_constant_rhs(self, monkeypatch, G):
        # P 1 = 1, so x = 1/(1 - a); the half-step residual can be exactly 0
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)
        x = solve_transport(G, ALPHA, np.ones(G.node_count))
        assert np.max(np.abs(x - 1.0 / (1.0 - ALPHA))) <= ppr.RESIDUAL_TOL

    @pytest.mark.parametrize("transpose", [False, True])
    def test_matrix_rhs_columns_match_single_column_calls(self, rng, monkeypatch,
                                                          transpose):
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)
        G = random_connected_graph(rng, 30, extra=20)
        b = rng.normal(size=(30, 4))
        b[:, 1] = 0.0
        b[:, 2] = (rng.random(30) < 0.1) * 1e6
        X = solve_transport(G, ALPHA, b, transpose=transpose)
        for j in range(4):
            assert np.array_equal(X[:, j], solve_transport(G, ALPHA, b[:, j],
                                                           transpose=transpose))
        # each column stops on its own
        stops = {_stop_iteration(monkeypatch, G, b[:, j], transpose) for j in range(4)}
        assert len(stops) >= 3

    @pytest.mark.parametrize("transpose", [False, True])
    def test_stalled_restart_raises(self, rng, monkeypatch, transpose):
        # with no allowance for its rounding, the evaluated residual at
        # a = 0.9999 cannot reach the bound: the solve must say so, not
        # restart until the cap
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)
        monkeypatch.setattr(ppr, "_rounding_error", lambda *args: 0.0)
        G = random_connected_graph(rng, 40, extra=20)
        with pytest.raises(ConvergenceError, match="stalled"):
            solve_transport(G, 0.9999, rng.normal(size=40), transpose=transpose)


@pytest.mark.parametrize("alpha", [0.999, 0.9999])
@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("limit", [ppr.DENSE_LIMIT, 0], ids=["dense", "iterative"])
def test_alpha_near_one_is_within_the_bound(rng, monkeypatch, limit, transpose,
                                            alpha):
    # near a = 1 the evaluated residual of even the exact solution lies above
    # (1 - a) * RESIDUAL_TOL * ||b||; the rounding allowance admits it
    monkeypatch.setattr(ppr, "DENSE_LIMIT", limit)
    hub = np.column_stack((np.zeros(59, dtype=int), np.arange(1, 60)))
    G = DirectedGraph.from_edges(
        60, np.concatenate([hub, hub[:, ::-1], [(v, v + 1) for v in range(1, 59)]]))
    for b in (rng.normal(size=60), np.ones(60), np.eye(60)[7]):
        x = solve_transport(G, alpha, b, transpose=transpose)
        assert stated_bound_holds(G, alpha, b, x, transpose)


class TestDenseErrorBound:
    @pytest.mark.parametrize("transpose", [False, True])
    def test_within_bound_of_the_oracle(self, rng, transpose):
        G = random_connected_graph(rng, 60, extra=40)
        b = rng.normal(size=60)
        x = solve_transport(G, ALPHA, b, transpose=transpose)
        assert stated_bound_holds(G, ALPHA, b, x, transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_check_uses_the_stated_bound(self, rng, monkeypatch, transpose):
        # LU leaves a residual of a few ulps; no bound of zero admits it
        monkeypatch.setattr(ppr, "RESIDUAL_TOL", 0.0)
        monkeypatch.setattr(ppr, "_rounding_error", lambda *args: 0.0)
        G = random_connected_graph(rng, 60, extra=40)
        with pytest.raises(ConvergenceError, match="dense solve relative residual"):
            solve_transport(G, ALPHA, rng.normal(size=60), transpose=transpose)


@st.composite
def clean_graphs(draw):
    """A hub-heavy graph, or a random graph with self-loops."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    ring = np.column_stack((np.arange(n), (np.arange(n) + 1) % n))
    extra = rng.integers(0, n, size=(draw(st.integers(0, 3 * n)), 2))
    if draw(st.booleans()):
        hubs = rng.choice(n, size=min(n, draw(st.integers(1, 3))), replace=False)
        spokes = np.array([(h, v) for h in hubs for v in range(n)])
        edges = np.concatenate([ring, extra, spokes, spokes[:, ::-1]])
        edges = edges[edges[:, 0] != edges[:, 1]]
        return DirectedGraph.from_edges(n, np.unique(edges, axis=0))
    loops = rng.choice(n, size=draw(st.integers(1, n)), replace=False)
    edges = np.concatenate([ring, extra, np.column_stack((loops, loops))])
    return DirectedGraph.from_edges(n, np.unique(edges, axis=0), allow_self_loops=True)


class TestCleanOperator:
    """factor_clean inverts a graph's dense operator once; every column that
    solve_transport serves from the inverse passes the dense residual
    test."""

    @settings(max_examples=150, deadline=None)
    @given(G=clean_graphs(), transpose=st.booleans(),
           alpha=st.sampled_from([0.5, ALPHA, 0.95]),
           seed=st.integers(0, 2**32 - 1), k=st.integers(1, 3),
           sparse=st.booleans())
    def test_within_bound_of_dense_oracle(self, G, transpose, alpha, seed, k, sparse):
        rng = np.random.default_rng(seed)
        b = rng.normal(size=(G.node_count, k))
        if sparse:       # a few entries of either sign, magnitudes far apart
            b *= (rng.random(b.shape) < 0.1) * 10.0 ** rng.integers(-6, 7, b.shape)
        x = solve_transport(ppr.factor_clean(G, alpha), alpha, b, transpose)
        assert x.shape == b.shape
        for j in range(k):
            assert stated_bound_holds(G, alpha, b[:, j], x[:, j], transpose)

    @pytest.mark.parametrize("alpha", [0.999, 0.9999])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_alpha_near_one_is_within_the_bound(self, rng, transpose, alpha):
        hub = np.column_stack((np.zeros(59, dtype=int), np.arange(1, 60)))
        G = DirectedGraph.from_edges(
            60, np.concatenate([hub, hub[:, ::-1], [(v, v + 1) for v in range(1, 59)]]))
        F = ppr.factor_clean(G, alpha)
        for b in (rng.normal(size=60), np.ones(60), np.eye(60)[7]):
            assert stated_bound_holds(G, alpha, b, solve_transport(F, alpha, b, transpose),
                                      transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_refinement_near_alpha_one(self, rng, transpose):
        # at a = 0.9999 the inverse's product misses the bound on some
        # columns; one step of refinement brings each of them within it
        alpha = 0.9999
        G = random_connected_graph(rng, 40, extra=20)
        F = ppr.factor_clean(G, alpha)
        b = rng.normal(size=(40, 100))
        M = np.eye(40) - alpha * dense_transition(G)
        inv = F.inverse
        if transpose:
            M, inv = M.T, inv.T
        stack = b.T[:, :, None]
        raw = inv @ stack
        _, ok = ppr._residual_test(stack, M @ raw, raw, ppr._row_nnz(G, transpose),
                                   alpha, transpose)
        assert 0 < np.count_nonzero(~ok) < 100
        x = solve_transport(F, alpha, b, transpose)
        for j in range(100):
            assert stated_bound_holds(G, alpha, b[:, j], x[:, j], transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_check_uses_the_stated_bound(self, rng, monkeypatch, transpose):
        monkeypatch.setattr(ppr, "RESIDUAL_TOL", 0.0)
        monkeypatch.setattr(ppr, "_rounding_error", lambda *args: 0.0)
        G = random_connected_graph(rng, 60, extra=40)
        F = ppr.factor_clean(G, ALPHA)
        with pytest.raises(ConvergenceError, match="dense solve relative residual"):
            solve_transport(F, ALPHA, rng.normal(size=60), transpose)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_columns_match_single_column_solves(self, rng, transpose):
        G = random_connected_graph(rng, 40, extra=30)
        F = ppr.factor_clean(G, ALPHA)
        b = rng.normal(size=(40, 5))
        b[:, 1] = 0.0
        X = solve_transport(F, ALPHA, b, transpose)
        for j in range(5):
            assert np.array_equal(X[:, j], solve_transport(F, ALPHA, b[:, j], transpose))
            assert np.array_equal(
                X[:, j], solve_transport(F, ALPHA, b[:, j:j + 1], transpose)[:, 0])

    @pytest.mark.parametrize("transpose", [False, True])
    def test_residual_product_matches_the_dense_matrix(self, rng, transpose):
        # the residual check runs on the stored matrix (its transpose for
        # P^T), which is, bit for bit and self-loops included, the one a
        # dense solve builds in that orientation
        edges = np.concatenate([random_connected_graph(rng, 30, extra=20).edges,
                                [(3, 3), (7, 7)]])
        G = DirectedGraph.from_edges(30, edges, allow_self_loops=True)
        stored = ppr.factor_clean(G, ALPHA).matrix
        M = stored.T if transpose else stored
        assert np.array_equal(M, ppr._dense_matrices([G], ALPHA, transpose)[0])
        assert M[3, 3] != 1.0 and M[7, 7] != 1.0
        dense = np.eye(30) - ALPHA * dense_transition(G)
        x = rng.normal(size=(4, 30, 1))
        assert np.allclose(M @ x, (dense.T if transpose else dense) @ x,
                           rtol=0, atol=1e-14)

    def test_kernels_use_it_only_for_its_graph(self, rng, monkeypatch):
        # the kernels solve on a factored graph from its inverse, with no
        # LU or BiCGSTAB, and a factored graph solved at another alpha is an
        # error
        G = random_connected_graph(rng, 30, extra=20)
        F = ppr.factor_clean(G, ALPHA)
        calls = []
        for name in ("_dense_solve", "_bicgstab_solve"):
            monkeypatch.setattr(ppr, name, lambda *args: calls.append(args))
        h = rng.normal(size=(30, 2))
        for transpose, kernel in ((False, diffused_margins), (True, diffuse_transpose)):
            inv = F.inverse.T if transpose else F.inverse
            got = kernel(F, ALPHA, h)
            assert np.allclose(got, (1.0 - ALPHA) * (inv @ h), rtol=1e-13, atol=0)
            with pytest.raises(KernelInputError, match="factored at alpha"):
                kernel(F, 0.8, h)
        assert not calls

    def test_sequence_serves_each_factored_graph_from_its_inverse(self, rng):
        G1 = random_connected_graph(rng, 30, extra=20)
        G2 = random_connected_graph(rng, 30, extra=21)
        F1, F2 = ppr.factor_clean(G1, ALPHA), ppr.factor_clean(G2, ALPHA)
        graphs = [F1, G2, F2, F1, G1]
        R = rng.normal(size=(30, 5))
        for transpose in (False, True):
            X = solve_transport(graphs, ALPHA, R, transpose)
            for j, g in enumerate(graphs):
                assert np.array_equal(X[:, j], solve_transport(g, ALPHA, R[:, j], transpose))

    def test_graph_itself_above_the_dense_limit(self, rng, monkeypatch):
        G = random_connected_graph(rng, 30, extra=20)
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 29)
        assert ppr.factor_clean(G, ALPHA) is G
        with pytest.raises(KernelInputError):
            ppr.factor_clean(G, 1.0)
