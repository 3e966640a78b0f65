import numpy as np
import pytest

from pagecert import policy_iter, ppr
from pagecert.graph import (
    DirectedGraph, apply_policy, build_scenario, generate_sbm, sbm_block_labels,
)
from pagecert.models import MlpModel, init_mlp, mlp_logits
from pagecert.policy_iter import certify_local_all
from pagecert.ppr import diffused_margins
from pagecert.robust_train import (
    RobustLossConfig,
    TrainingDivergedError,
    WorstCaseBundle,
    compute_worst_bundle,
    loss_cem,
    loss_rce,
    train_robust,
)

from conftest import assert_policy_array, bundle_ppr_rows, random_instance, ring_graph
from gradcheck import grad_check

ALPHA = 0.85


def make_bundle(margins: np.ndarray, labels: np.ndarray) -> WorstCaseBundle:
    L, K = margins.shape
    return WorstCaseBundle(
        nodes=np.arange(L),
        labels=labels,
        class_count=K,
        margins=margins.copy(),
        alpha=ALPHA,
    )


class TestLossClosedForms:
    def test_rce_huge_margins_vanish(self):
        m = np.full((3, 2), 1e6)
        bundle = make_bundle(m, np.zeros(3, dtype=int))
        assert loss_rce(bundle) <= 1e-6

    def test_rce_zero_margins_log_k(self):
        for K in (2, 3, 5):
            m = np.zeros((4, K))
            bundle = make_bundle(m, np.zeros(4, dtype=int))
            assert abs(loss_rce(bundle) - 4 * np.log(K)) <= 1e-12

    def test_rce_two_class_unit_margin(self):
        m = np.array([[0.0, 1.0]])
        bundle = make_bundle(m, np.array([0]))
        assert abs(loss_rce(bundle) - np.log(1 + np.exp(-1.0))) <= 1e-12

    def test_cem_reduces_to_ce_when_certified(self, rng):
        G, S = random_instance(rng, 6, extra=2)
        H = rng.normal(size=(6, 2))
        Hd = diffused_margins(G, ALPHA, H)
        labels = np.array([0, 1, 0])
        nodes = np.array([0, 2, 4])
        margins = np.full((3, 2), 10.0)
        bundle = make_bundle(margins, labels)
        bundle.nodes = nodes
        full = loss_cem(bundle, Hd, hinge_margin=1.0)
        idx = np.arange(3)
        logits = Hd[nodes]
        ce = float(np.sum(
            np.log(np.exp(logits).sum(axis=1)) - logits[idx, labels]
        ))
        assert abs(full - ce) <= 1e-12

    def test_cem_hinge_contributes_exactly_one(self, rng):
        G, S = random_instance(rng, 6, extra=2)
        H = rng.normal(size=(6, 2))
        Hd = diffused_margins(G, ALPHA, H)
        labels = np.array([0])
        nodes = np.array([1])
        big = np.full((1, 2), 10.0)
        low = big.copy()
        low[0, 1] = 1.0 - 1.0  # M - 1 with M = 1
        b_big = make_bundle(big, labels)
        b_big.nodes = nodes
        b_low = make_bundle(low, labels)
        b_low.nodes = nodes
        assert abs(
            loss_cem(b_low, Hd, 1.0) - loss_cem(b_big, Hd, 1.0) - 1.0
        ) <= 1e-12

    def test_cem_spreadsheet_recomputation(self, rng):
        # independent recomputation of the formula from bundle values
        G, S = random_instance(rng, 6, extra=2)
        H = rng.normal(size=(6, 3))
        Hd = diffused_margins(G, ALPHA, H)
        labels = np.array([0, 2])
        nodes = np.array([1, 3])
        margins = rng.normal(size=(2, 3))
        bundle = make_bundle(margins, labels)
        bundle.nodes = nodes
        M = 0.7
        expected = 0.0
        for l, (v, yv) in enumerate(zip(nodes, labels)):
            row = Hd[v]
            expected += np.log(np.sum(np.exp(row))) - row[yv]
            for c in range(3):
                if c != yv:
                    expected += max(0.0, M - margins[l, c])
        assert abs(loss_cem(bundle, Hd, M) - expected) <= 1e-10


class TestBundle:
    def test_no_fragile_edges_gives_clean_quantities(self, rng):
        edges = [(i, i + 1) for i in range(4)] + [(i + 1, i) for i in range(4)]
        G = DirectedGraph.from_edges(5, edges)
        S = build_scenario(G, "remove-only")
        H = rng.normal(size=(5, 2))
        nodes = np.array([0, 2])
        labels = np.array([0, 1])
        bundle = compute_worst_bundle(G, S, ALPHA, H, nodes, labels)
        from pagecert.ppr import ppr_rows
        rows = ppr_rows(G, ALPHA, nodes)
        pair_rows = bundle_ppr_rows(bundle)
        for l, (v, yv) in enumerate(zip(nodes, labels)):
            for c in range(2):
                if c == yv:
                    continue
                assert np.allclose(pair_rows[l, c], rows[l], atol=1e-10)
                clean = rows[l] @ (H[:, yv] - H[:, c])
                assert abs(bundle.margins[l, c] - clean) <= 1e-10

    def test_margins_match_certificates(self, rng):
        G, S = random_instance(rng, 7, extra=2)
        H = rng.normal(size=(7, 2))
        certs = certify_local_all(G, S, ALPHA, H)
        y = np.array([c.y for c in certs])
        nodes = np.arange(7)
        bundle = compute_worst_bundle(G, S, ALPHA, H, nodes, y)
        for c in certs:
            got = min(
                bundle.margins[c.node, k] for k in range(2) if k != c.y
            )
            assert abs(got - c.worst_margin) <= 1e-9

    def test_pair_graphs_are_perturbed_graphs(self, rng):
        G, S = random_instance(rng, 9, extra=4)
        H = rng.normal(size=(9, 3))
        labels = np.arange(9) % 3
        bundle = compute_worst_bundle(G, S, ALPHA, H, np.arange(9), labels)
        pairs = policy_iter.pair_worst_margins(G, S, ALPHA, H, labels)
        assert len(bundle.pair_graphs) == 6
        assert sorted(bundle.pair_graphs) == sorted(pairs)
        for key, (_, res) in pairs.items():
            assert_policy_array(S, res.policy)
            assert np.array_equal(bundle.pair_graphs[key].edges,
                                  apply_policy(S, res.policy).edges)
        assert any(len(res.policy) for _, res in pairs.values())

    def test_stored_ppr_recomputable_from_witness_graph(self, rng):
        # the PageRank vector the gradient uses for (l, c) is a dense solve
        # on the stored witness graph: a unit margin gradient at (l, c)
        # returns it, with + in the own class's column and - in c's
        from pagecert.robust_train import _margin_grads_to_H
        G, S = random_instance(rng, 6, extra=2)
        H = rng.normal(size=(6, 2))
        nodes = np.array([1, 4])
        labels = np.array([0, 1])
        bundle = compute_worst_bundle(G, S, ALPHA, H, nodes, labels)
        for l, (v, yv) in enumerate(zip(nodes, labels)):
            for c in range(2):
                if c == yv:
                    continue
                g = bundle.pair_graphs[(int(yv), c)]
                n = g.node_count
                A = np.zeros((n, n))
                A[g.edges[:, 0], g.edges[:, 1]] = 1.0
                P = A / A.sum(axis=1)[:, None]
                z = np.zeros(n)
                z[v] = 1.0
                pi = (1 - ALPHA) * np.linalg.solve(np.eye(n) - ALPHA * P.T, z)
                g = np.zeros((2, 2))
                g[l, c] = 1.0
                dH = _margin_grads_to_H(bundle, g, n)
                assert np.allclose(dH[:, yv], pi, atol=1e-9)
                assert np.allclose(dH[:, c], -pi, atol=1e-9)

    def test_margin_consistency_invariant(self, rng):
        G, S = random_instance(rng, 6, extra=3)
        H = rng.normal(size=(6, 3))
        nodes = np.array([0, 3, 5])
        labels = np.array([0, 1, 2])
        bundle = compute_worst_bundle(G, S, ALPHA, H, nodes, labels)
        rows = bundle_ppr_rows(bundle)
        for l, yv in enumerate(labels):
            for c in range(3):
                if c == yv:
                    continue
                direct = rows[l, c] @ (H[:, yv] - H[:, c])
                assert abs(direct - bundle.margins[l, c]) <= 1e-8

    def test_margin_grads_match_loop_reference(self, rng):
        from pagecert.robust_train import _margin_grads_to_H
        L, K, n = 5, 3, 7
        G, S = random_instance(rng, n, extra=3)
        labels = np.array([0, 2, 1, 2, 0])
        nodes = np.array([1, 4, 6, 4, 2])  # node 4 twice
        bundle = compute_worst_bundle(G, S, ALPHA, rng.normal(size=(n, K)),
                                      nodes, labels)
        rows = bundle_ppr_rows(bundle)
        g = rng.normal(size=(L, K))
        g[np.arange(L), labels] = 0.0
        g[1, 0] = 0.0
        want = np.zeros((n, K))
        for l, yl in enumerate(labels):
            for c in range(K):
                if c != yl:
                    want[:, yl] += g[l, c] * rows[l, c]
                    want[:, c] -= g[l, c] * rows[l, c]
        assert np.allclose(_margin_grads_to_H(bundle, g, n), want,
                           rtol=0.0, atol=1e-13)

    def test_runs_only_the_pairs_of_labelled_classes(self, rng, monkeypatch):
        # training labels {0, 4} of 5 classes: 2 * 4 reward columns, not
        # 5 * 4, and the margins, policies and graphs of a run of every
        # pair; no labels run no column
        G, S = random_instance(rng, 9, extra=4)
        H = rng.normal(size=(9, 5))
        nodes = np.array([0, 3, 5, 8, 3])
        labels = np.array([0, 4, 4, 0, 0])
        every = policy_iter.pair_worst_margins(G, S, ALPHA, H, range(5))
        columns = []
        run = policy_iter.optimize_local
        monkeypatch.setattr(policy_iter, "optimize_local",
                            lambda G, S, alpha, r: columns.append(r.shape[1])
                            or run(G, S, alpha, r))
        bundle = compute_worst_bundle(G, S, ALPHA, H, nodes, labels)
        assert columns == [8]
        empty = compute_worst_bundle(G, S, ALPHA, H, nodes[:0], labels[:0])
        assert columns == [8, 0] and empty.margins.shape == (0, 5)
        assert not empty.pair_graphs
        assert sorted(bundle.pair_graphs) == [(a, b) for a in (0, 4)
                                              for b in range(5) if a != b]
        assert any(not np.array_equal(g.edges, G.edges)
                   for g in bundle.pair_graphs.values())
        for l, (v, c1) in enumerate(zip(nodes.tolist(), labels.tolist())):
            for c2 in range(5):
                margins, res = every[(c1, c2)] if c2 != c1 else (np.zeros(9), None)
                assert bundle.margins[l, c2] == margins[v]
                if res is not None:
                    assert np.array_equal(bundle.pair_graphs[(c1, c2)].edges,
                                          apply_policy(S, res.policy).edges)


def hub_instance(rng, n: int = 60, hubs: int = 3):
    """A ring whose every other node also links to one of a few hubs, so
    the hubs carry a third of the edges each; remove-only, with budgets up
    to 3 and 8 at the hubs."""
    chords = [(j, int(rng.integers(hubs))) for j in range(hubs + 1, n - 1)]
    G = ring_graph(n, chords)
    budgets = rng.integers(0, 4, size=n)
    budgets[:hubs] = 8
    return G, build_scenario(G, "remove-only", local_budgets=budgets)


class TestAdjointGradient:
    @pytest.mark.parametrize("path", ["dense", "bicgstab"])
    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("kind", ["rce", "cem"])
    def test_matches_sum_of_ppr_rows(self, kind, K, path, monkeypatch):
        # the one adjoint solve per pair equals sum_l g[l, c] pi_l with
        # every pi_l a PageRank row on the pair's graph
        from pagecert.robust_train import (
            _clean_ce_grad, _rce_grad_margins, robust_loss_and_grad)
        if path == "bicgstab":
            monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)
        rng = np.random.default_rng(K)
        G, S = hub_instance(rng)
        n = G.node_count
        H = rng.normal(size=(n, K))
        nodes = np.concatenate([np.arange(0, n, 3), [0, 1, 0]])  # hubs twice
        labels = rng.integers(K, size=nodes.size)
        labels[-3:] = labels[:2].tolist() + [(labels[0] + 1) % K]
        bundle = compute_worst_bundle(G, S, ALPHA, H, nodes, labels)
        assert any(not np.array_equal(g.edges, G.edges)
                   for g in bundle.pair_graphs.values())
        own = np.arange(K)[None, :] == labels[:, None]
        margin = float(np.median(bundle.margins[~own]))
        _, dH = robust_loss_and_grad(kind, G, ALPHA, H, nodes, labels, bundle,
                                     margin, Hd=ppr.diffused_margins(G, ALPHA, H))
        if kind == "rce":
            g, want = _rce_grad_margins(bundle), np.zeros((n, K))
        else:
            g = -((bundle.margins < margin) & ~own).astype(np.float64)
            assert g.any() and not g[~own].all()
            want = _clean_ce_grad(G, ALPHA, ppr.diffused_margins(G, ALPHA, H),
                                  nodes, labels)
        rows = bundle_ppr_rows(bundle)
        for l, yl in enumerate(labels):
            for c in range(K):
                if c != yl:
                    want[:, yl] += g[l, c] * rows[l, c]
                    want[:, c] -= g[l, c] * rows[l, c]
        err = np.abs(dH - want)
        if path == "dense":
            assert err.max() <= 1e-12 * np.abs(want).max()
            return
        # BiCGSTAB stops at its stated bound, RESIDUAL_TOL = 1e-10 relative,
        # not at 1e-12 (it lands at 2e-12 to 1.3e-11 relative here): each
        # solve of a (1-alpha)-scaled column, the rows' and the adjoint's,
        # is within ((1-alpha) RESIDUAL_TOL + 2e) ||b||_1 in the 1-norm, with
        # e the residual's rounding error per unit b (ppr module docstring)
        row_nnz = max(ppr._row_nnz(p, True) for p in bundle.pair_graphs.values())
        e = ppr._rounding_error(row_nnz, ALPHA, 1.0, 1.0 / (1.0 - ALPHA))
        bound = 2 * np.abs(g).sum() * ((1.0 - ALPHA) * ppr.RESIDUAL_TOL + 2 * e)
        assert err.sum(axis=0).max() <= bound

    @pytest.mark.parametrize("kind", ["rce", "cem"])
    def test_bundle_without_pairs_solves_nothing(self, kind, monkeypatch):
        # no training nodes: no pair graph, so the margin gradient is zero
        # and no stack of pair graphs goes to a solve (above DENSE_LIMIT an
        # empty stack is an input error)
        from pagecert.robust_train import robust_loss_and_grad
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)
        rng = np.random.default_rng(0)
        G, S = random_instance(rng, 7, extra=3)
        H = rng.normal(size=(7, 3))
        nodes = labels = np.zeros(0, dtype=np.int64)
        bundle = compute_worst_bundle(G, S, ALPHA, H, nodes, labels)
        assert not bundle.pair_graphs
        stacks = []
        solve = ppr.solve_transport
        monkeypatch.setattr(ppr, "solve_transport", lambda graphs, *a, **k:
                            stacks.append(isinstance(graphs, list))
                            or solve(graphs, *a, **k))
        loss, dH = robust_loss_and_grad(kind, G, ALPHA, H, nodes, labels,
                                        bundle, 1.0,
                                        Hd=ppr.diffused_margins(G, ALPHA, H))
        assert loss == 0.0 and dH.shape == H.shape and not dH.any()
        assert not any(stacks)


class TestGradCheck:
    def test_linear_model_ce_exact(self, rng):
        G, S = random_instance(rng, 6, extra=2)
        X = rng.normal(size=(6, 3))
        y = np.array([0, 1, 0, 1, -1, -1])
        model = init_mlp(3, 0, 2, seed=4)
        config = RobustLossConfig(kind="ce")
        res = grad_check(model, X, y, G, S, ALPHA, config, h=1e-6)
        assert res.max_rel_error <= 1e-6
        assert not res.kinks

    def test_mlp_rce_stable_instance(self, rng):
        G, S = random_instance(rng, 6, extra=2)
        X = rng.normal(size=(6, 3))
        y = np.array([0, 1, 0, -1, 1, -1])
        model = init_mlp(3, 4, 2, seed=8)
        config = RobustLossConfig(kind="rce")
        res = grad_check(model, X, y, G, S, ALPHA, config, h=1e-5)
        assert res.checked > 0
        assert res.max_rel_error <= 1e-4

    def test_mlp_cem_stable_instance(self, rng):
        G, S = random_instance(rng, 6, extra=2)
        X = rng.normal(size=(6, 3))
        y = np.array([0, 1, -1, 0, -1, 1])
        model = init_mlp(3, 4, 2, seed=3)
        config = RobustLossConfig(kind="cem", hinge_margin=0.5)
        res = grad_check(model, X, y, G, S, ALPHA, config, h=1e-5)
        assert res.checked > 0
        assert res.max_rel_error <= 1e-4

    def test_policy_tie_flagged_as_kink(self, monkeypatch):
        # twin nodes 1 and 2 (same neighbors, same logits) make the edge
        # scores tie exactly; weight perturbations break the tie in opposite
        # directions, so the stencil endpoints disagree on the policy
        edges = []
        for a, b in [(0, 3), (1, 0), (1, 3), (2, 0), (2, 3)]:
            edges += [(a, b), (b, a)]
        G = DirectedGraph.from_edges(4, np.unique(edges, axis=0))
        S = build_scenario(
            G, "custom",
            fixed_edges=[e for e in map(tuple, G.edges.tolist())
                         if e not in [(0, 1), (0, 2)]],
            fragile_edges=[(0, 1), (0, 2)],
            local_budgets=[1, 0, 0, 0],
        )
        X = np.eye(4)
        y = np.array([0, -1, -1, 1])
        W = np.zeros((4, 2))
        W[0] = [1.0, -1.0]
        W[3] = [-1.0, 1.0]
        W[1] = [0.4, -0.4]
        W[2] = [0.4, -0.4]  # identical rows -> exact tie between twins
        model = MlpModel(weights=[W], biases=[np.zeros(2)])
        config = RobustLossConfig(kind="rce")
        monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)  # stationary iteration
        res = grad_check(model, X, y, G, S, ALPHA, config, h=1e-5)
        assert res.kinks, "the constructed tie must be flagged"
        assert res.max_rel_error <= 1e-4  # remaining params still check out


class TestTrainRobust:
    def _fixture(self, seed=0):
        G = generate_sbm(20, 2, 0.7, 0.08, seed=seed)
        labels = sbm_block_labels(20, 2)
        rng = np.random.default_rng(seed + 1)
        X = np.zeros((20, 2))
        X[np.arange(20), labels] = 1.0
        X = X + 0.05 * rng.normal(size=X.shape)
        y = labels.copy()
        train_idx = np.array([0, 1, 2, 3, 10, 11, 12, 13])
        val_idx = np.array([4, 5, 14, 15])
        return G, X, y, train_idx, val_idx

    def test_plain_ce_fits_separable_instance(self):
        G, X, y, train_idx, val_idx = self._fixture()
        # no fragile edges: a path-free scenario is hard here, so use zero
        # budgets, which also makes the admissible set trivial
        S = build_scenario(G, "remove-only",
                           local_budgets=np.zeros(20, dtype=int))
        model = init_mlp(2, 0, 2, seed=5)
        config = RobustLossConfig(kind="ce", max_epochs=400, patience=400,
                                  weight_decay=1e-4, learning_rate=0.1)
        trained, history = train_robust(
            model, X, y, G, S, ALPHA, config, train_idx, val_idx
        )
        from pagecert.models import predict
        H = mlp_logits(trained, X)
        pred = predict(G, ALPHA, H)
        assert np.all(pred[train_idx] == y[train_idx])
        assert history[0]["loss"] > history[-1]["loss"]

    def test_cem_step_equals_ce_step_when_hinges_inactive(self):
        # a model that is confidently correct has strictly positive worst
        # margins even under a small budget, so the hinge never activates
        # and one CEM update must equal one CE update exactly
        G, X, y, train_idx, val_idx = self._fixture(3)
        S = build_scenario(G, "remove-only", strength=1)
        W = np.array([[6.0, -6.0], [-6.0, 6.0]])
        model = MlpModel(weights=[W], biases=[np.zeros(2)])
        H = mlp_logits(model, X)
        bundle = compute_worst_bundle(G, S, ALPHA, H, train_idx, y[train_idx])
        mask = np.arange(2)[None, :] != y[train_idx][:, None]
        assert bundle.margins[mask].min() > 0, "fixture must be certified"
        cem = RobustLossConfig(kind="cem", hinge_margin=0.0,
                               max_epochs=1, patience=10)
        ce = RobustLossConfig(kind="ce", max_epochs=1, patience=10)
        m1, _ = train_robust(model, X, y, G, S, ALPHA, cem, train_idx, val_idx)
        m2, _ = train_robust(model, X, y, G, S, ALPHA, ce, train_idx, val_idx)
        for a, b in zip(m1.weights + m1.biases, m2.weights + m2.biases):
            assert np.allclose(a, b, atol=1e-12)

    def test_deterministic_trajectories(self):
        G, X, y, train_idx, val_idx = self._fixture(4)
        S = build_scenario(G, "remove-only", strength=3)
        config = RobustLossConfig(kind="cem", max_epochs=10, patience=20)
        outs = []
        for _ in range(2):
            model = init_mlp(2, 0, 2, seed=11)
            trained, history = train_robust(
                model, X, y, G, S, ALPHA, config, train_idx, val_idx
            )
            outs.append((trained.weights + trained.biases, history))
        for a, b in zip(outs[0][0], outs[1][0]):
            assert np.array_equal(a, b)
        assert outs[0][1] == outs[1][1]

    def test_one_clean_factorization_per_run(self, monkeypatch):
        # every clean solve of every epoch is served by one inverse formed
        # at the start: no LU may factor the clean graph's matrix
        G, X, y, train_idx, val_idx = self._fixture(4)
        S = build_scenario(G, "remove-only", strength=3)
        P = np.zeros((20, 20))
        P[G.edges[:, 0], G.edges[:, 1]] = 1.0 / G.out_degree[G.edges[:, 0]]
        M = np.eye(20) - ALPHA * P
        solve, inv = np.linalg.solve, np.linalg.inv
        factored, inverted = [], []
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: factored.extend(a) or solve(a, b))
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
        config = RobustLossConfig(kind="cem", max_epochs=6, patience=20)
        _, history = train_robust(init_mlp(2, 4, 2, seed=11), X, y, G, S, ALPHA,
                                  config, train_idx, val_idx)
        assert len(history) == 6
        assert len(inverted) == 1 and np.allclose(inverted[0], M)
        # the perturbed graphs of later rounds and their adjoint gradient
        # solves still take LUs
        assert factored
        assert not any(np.allclose(A, M) or np.allclose(A, M.T) for A in factored)

    def test_clean_solves_go_through_solve_transport(self, monkeypatch):
        # the factored graph is solved by ppr.solve_transport like any other,
        # so a tracer of that function counts the clean solves: per epoch
        # the diffused logits, the clean-CE adjoint and round 1
        G, X, y, train_idx, val_idx = self._fixture(4)
        S = build_scenario(G, "remove-only", strength=3)
        calls = []
        solve_transport = ppr.solve_transport

        def spy(g, *args, **kwargs):
            # a stream of graphs is read once: hand on the list read here
            calls.append([g] if isinstance(g, DirectedGraph) else list(g))
            return solve_transport(g if isinstance(g, DirectedGraph) else calls[-1],
                                   *args, **kwargs)

        monkeypatch.setattr(ppr, "solve_transport", spy)
        config = RobustLossConfig(kind="cem", max_epochs=6, patience=20)
        train_robust(init_mlp(2, 4, 2, seed=11), X, y, G, S, ALPHA, config,
                     train_idx, val_idx)
        factored = [graphs for graphs in calls
                    if any(isinstance(g, ppr.FactoredGraph) for g in graphs)]
        assert sum(len(graphs) == 1 for graphs in factored) == 2 * 6
        assert sum(len(graphs) == 2 for graphs in factored) == 6
        assert len({id(g) for graphs in factored for g in graphs
                    if isinstance(g, ppr.FactoredGraph)}) == 1

    @pytest.mark.parametrize("kind", ["rce", "cem"])
    def test_cadence_one_epoch_solves_pairs_once(self, kind, monkeypatch):
        # the margins are the inner problem's own: an epoch makes one
        # transposed solve over the pair graphs, for the gradient
        G, X, y, train_idx, val_idx = self._fixture(4)
        S = build_scenario(G, "remove-only", strength=3)
        calls = []
        solve_transport = ppr.solve_transport
        monkeypatch.setattr(ppr, "solve_transport", lambda g, *args, transpose=False: calls.append(
            (not isinstance(g, DirectedGraph), transpose))
            or solve_transport(g, *args, transpose=transpose))
        config = RobustLossConfig(kind=kind, max_epochs=5, patience=20)
        _, history = train_robust(init_mlp(2, 4, 2, seed=11), X, y, G, S, ALPHA,
                                  config, train_idx, val_idx)
        assert len(history) == 5
        assert calls.count((True, True)) == 5
        assert not any(np.isnan(h["certified_ratio"]) for h in history)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_reported(self):
        G, X, y, train_idx, val_idx = self._fixture(5)
        S = build_scenario(G, "remove-only",
                           local_budgets=np.zeros(20, dtype=int))
        model = init_mlp(2, 0, 2, seed=2)
        config = RobustLossConfig(kind="ce", learning_rate=1e9,
                                  max_epochs=200, patience=500)
        with pytest.raises(TrainingDivergedError):
            train_robust(model, X, y, G, S, ALPHA, config, train_idx, val_idx)

