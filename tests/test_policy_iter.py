import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagecert import ppr
from pagecert.graph import DirectedGraph, apply_policy, build_scenario, flipped_graph
from pagecert.policy_iter import (
    IMPROVE_TOL,
    MARGIN_EPS,
    _select,
    certify_local_all,
    class_pairs,
    optimize_local,
    pair_worst_margins,
)
from pagecert.ppr import diffused_margins, ppr_vector

import oracle
from conftest import random_connected_graph, random_instance

ALPHA = 0.85


class TestOptimizeLocal:
    def test_empty_fragile_set(self, rng):
        # path graph: the spanning tree covers everything
        from pagecert.graph import DirectedGraph
        edges = [(i, i + 1) for i in range(3)] + [(i + 1, i) for i in range(3)]
        G = DirectedGraph.from_edges(4, edges)
        S = build_scenario(G, "remove-only")
        assert S.fragile_count == 0
        r = rng.normal(size=4)
        res = optimize_local(G, S, ALPHA, r)
        assert len(res.policy) == 0
        assert res.iterations == 1
        z = rng.dirichlet(np.ones(4))
        pi = ppr_vector(G, ALPHA, z)
        assert abs((1 - ALPHA) * (z @ res.value) - r @ pi.values) <= 1e-10

    def test_zero_reward_selects_nothing(self, rng):
        G, S = random_instance(rng, 7, extra=3)
        res = optimize_local(G, S, ALPHA, np.zeros(7))
        assert len(res.policy) == 0
        assert res.iterations == 1

    def test_matches_enumeration_oracle(self):
        # exactness on a battery of random instances, three teleports each
        for seed in range(12):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(5, 9))
            G, S = random_instance(rng, n, extra=int(rng.integers(0, 4)))
            r = rng.normal(size=n)
            res = optimize_local(G, S, ALPHA, r)
            for k in range(3):
                z = rng.dirichlet(np.ones(n))
                best = oracle.brute_force_pagerank_opt(G, S, ALPHA, r, z)
                assert (1 - ALPHA) * (z @ res.value) <= best.optimum + 1e-8
                assert (1 - ALPHA) * (z @ res.value) >= best.optimum - 1e-8

    def test_add_and_remove_matches_oracle(self):
        rng = np.random.default_rng(77)
        G = random_connected_graph(rng, 4, extra=0)
        S = build_scenario(G, "add-and-remove",
                           local_budgets=rng.integers(0, 3, size=4))
        r = rng.normal(size=4)
        res = optimize_local(G, S, ALPHA, r)
        z = rng.dirichlet(np.ones(4))
        best = oracle.brute_force_pagerank_opt(G, S, ALPHA, r, z)
        assert abs((1 - ALPHA) * (z @ res.value) - best.optimum) <= 1e-8

    def test_budget_feasibility_always(self, rng):
        for seed in range(8):
            r = np.random.default_rng(seed)
            G, S = random_instance(r, 8, extra=3)
            res = optimize_local(G, S, ALPHA, r.normal(size=8))
            if len(res.policy):
                per_node = np.bincount(res.policy.flips[:, 0], minlength=8)
                assert np.all(per_node <= S.local_budget)

    def test_value_monotone_across_iterations(self, rng):
        for seed in range(8):
            r = np.random.default_rng(seed)
            G, S = random_instance(r, 8, extra=4)
            res = optimize_local(G, S, ALPHA, r.normal(size=8) * 3)
            for a, b in zip(res.trace, res.trace[1:]):
                assert np.all(b >= a - 1e-8)

    def test_policy_independent_of_teleport(self, rng):
        # the optimal flip set is a function of (G, r, budgets) only
        G, S = random_instance(rng, 7, extra=3)
        r = rng.normal(size=7)
        res = optimize_local(G, S, ALPHA, r)
        for _ in range(3):
            z = rng.dirichlet(np.ones(7))
            best = oracle.brute_force_pagerank_opt(G, S, ALPHA, r, z)
            assert abs((1 - ALPHA) * (z @ res.value) - best.optimum) <= 1e-8

    def test_iteration_cap_raises_with_trace(self, rng, monkeypatch):
        import pagecert.policy_iter as pi_mod
        from pagecert.policy_iter import IterationCapError
        G, S = random_instance(rng, 7, extra=3)
        monkeypatch.setattr(pi_mod, "ITERATION_CAP", 0)
        with pytest.raises(IterationCapError) as exc:
            optimize_local(G, S, ALPHA, rng.normal(size=7))
        assert isinstance(exc.value.trace, list)

    def test_warm_start_same_objective(self, rng):
        G, S = random_instance(rng, 7, extra=3)
        r = rng.normal(size=7)
        cold = optimize_local(G, S, ALPHA, r)
        warm = optimize_local(G, S, ALPHA, r, init=cold.policy)
        z = rng.dirichlet(np.ones(7))
        assert abs((1 - ALPHA) * (z @ cold.value)
                   - (1 - ALPHA) * (z @ warm.value)) <= 1e-10
        assert warm.iterations <= cold.iterations

    def test_near_tie_does_not_cycle(self):
        # Two fragile edges of one source score within ~1e-16 of each other
        # and used to swap places every round until the iteration cap.
        from pagecert.graph import DirectedGraph
        pairs = np.array([
            (0, 1), (0, 2), (0, 3), (0, 5), (0, 6), (0, 7), (0, 10), (1, 2),
            (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (2, 4), (2, 6),
            (2, 7), (2, 10), (3, 4), (3, 7), (4, 5), (4, 6), (4, 7), (5, 7),
            (5, 13), (6, 13), (7, 9), (8, 11), (8, 12), (8, 13), (8, 14),
            (8, 15), (9, 10), (9, 11), (9, 13), (9, 15), (10, 11), (10, 13),
            (10, 14), (10, 15), (11, 12), (11, 13), (12, 13), (12, 15),
            (13, 14), (13, 15),
        ])
        G = DirectedGraph.from_edges(16, np.concatenate([pairs, pairs[:, ::-1]]))
        S = build_scenario(G, "remove-only", strength=4)
        r = np.zeros(16)
        r[6] = 1.0
        res = optimize_local(G, S, ALPHA, r)
        per_node = np.bincount(res.policy.flips[:, 0], minlength=16)
        assert np.all(per_node <= S.local_budget)
        again = optimize_local(G, S, ALPHA, r, init=res.policy)
        assert again.iterations == 1
        assert np.array_equal(again.policy.flips, res.policy.flips)


def select_by_full_sort(score, flipped, src, dst, budget):
    """Reference rule: rank every fragile edge in one lexsort by (source,
    score desc, currently flipped first, target) and keep the first budget[v]
    of each source's block that score above IMPROVE_TOL."""
    m = score.size
    rank_in_block = np.arange(m) - np.searchsorted(src, src)
    order = np.lexsort((dst, np.where(flipped, 0, 1), -score, src))
    take = (rank_in_block < budget[src]) & (score[order] > IMPROVE_TOL)
    new = np.zeros(m, dtype=bool)
    new[order[take]] = True
    return new


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.sampled_from(["remove-only", "add-and-remove"]),
       st.sampled_from(["diffusion", "small-set"]),
       st.sampled_from(["random", "zero", "all-bind"]), st.integers(0, 2**31 - 1))
def test_select_matches_full_sort(n, mode, scores, budgets, seed):
    rng = np.random.default_rng(seed)
    # sorted, distinct (src, dst) pairs; some sources get none
    keys = np.flatnonzero(rng.random(n * n) < rng.choice([0.2, 0.6, 1.0]))
    src, dst = keys // n, keys % n
    m = keys.size
    in_base = np.ones(m, bool) if mode == "remove-only" else rng.random(m) < 0.5
    flipped = rng.random(m) < 0.4
    if scores == "diffusion":
        # the loop's score on small integer values: exact ties are common
        x = rng.integers(0, 3, n).astype(float)
        r = rng.integers(-1, 2, n).astype(float)
        sign = np.where(in_base, -1.0, 1.0)
        score = sign * (x[dst] - ((x - r) / 0.5)[src]) + IMPROVE_TOL * flipped
    else:
        score = rng.choice([-1.0, 0.0, IMPROVE_TOL, 2 * IMPROVE_TOL, 0.5], m)
    per_source = np.bincount(src, minlength=n)
    cand = np.bincount(src[score > IMPROVE_TOL], minlength=n)
    budget = {"random": lambda: rng.integers(0, per_source + 1),
              "zero": lambda: np.zeros(n, np.int64),
              "all-bind": lambda: rng.integers(0, np.maximum(cand, 1))}[budgets]()
    got = _select(score, flipped, src, budget)
    assert np.array_equal(got, select_by_full_sort(score, flipped, src, dst, budget))
    assert np.all(np.bincount(src[got], minlength=n) <= budget)


class TestCertifyLocalAll:
    @pytest.mark.parametrize("classes", [2, 3])
    def test_clean_solves_use_one_inverse(self, rng, monkeypatch, classes):
        # from three classes on the predictions and every pair's first round
        # are clean solves of one inverse: no LU may factor the clean
        # graph's matrix. Two classes have three clean systems, cheaper to
        # factor than to invert, and keep the LU
        G = random_connected_graph(rng, 30, extra=40)
        S = build_scenario(G, "remove-only", strength=8)
        P = np.zeros((30, 30))
        P[G.edges[:, 0], G.edges[:, 1]] = 1.0 / G.out_degree[G.edges[:, 0]]
        M = np.eye(30) - ALPHA * P
        solve, inv = np.linalg.solve, np.linalg.inv
        factored, inverted = [], []
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: factored.extend(a) or solve(a, b))
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a) or inv(a))
        certs = certify_local_all(G, S, ALPHA, rng.normal(size=(30, classes)))
        assert len(certs) == 30 and factored
        clean_lu = sum(np.allclose(A, M) or np.allclose(A, M.T) for A in factored)
        if classes == 2:
            assert not inverted and clean_lu == 3
        else:
            assert len(inverted) == 1 and np.allclose(inverted[0], M)
            assert clean_lu == 0

    def test_no_fragile_edges_gives_clean_margins(self, rng):
        from pagecert.graph import DirectedGraph
        edges = [(i, i + 1) for i in range(3)] + [(i + 1, i) for i in range(3)]
        G = DirectedGraph.from_edges(4, edges)
        S = build_scenario(G, "remove-only")
        H = rng.normal(size=(4, 3))
        certs = certify_local_all(G, S, ALPHA, H)
        diff = diffused_margins(G, ALPHA, H)
        for c in certs:
            y = int(np.argmax(diff[c.node]))
            clean = np.min([diff[c.node, y] - diff[c.node, k]
                            for k in range(3) if k != y])
            assert abs(c.worst_margin - clean) <= 1e-9
            assert c.label == y

    def test_single_class_onehot_everything_robust(self, rng):
        G, S = random_instance(rng, 6, extra=2)
        H = np.zeros((6, 2))
        H[:, 0] = 1.0
        certs = certify_local_all(G, S, ALPHA, H)
        assert all(c.status == "robust" for c in certs)
        assert all(abs(c.worst_margin - 1.0) <= 1e-9 for c in certs)

    def test_matches_worst_margin_oracle(self):
        for seed in (1, 5, 9):
            rng = np.random.default_rng(seed)
            G, S = random_instance(rng, 8, extra=2)
            H = rng.normal(size=(8, 2))
            certs = certify_local_all(G, S, ALPHA, H)
            for t in range(8):
                br = oracle.brute_force_worst_margin(
                    G, S, ALPHA, H, t, y_t=certs[t].label
                )
                assert abs(certs[t].worst_margin - br.optimum) <= 1e-8

    def test_three_classes_against_oracle(self):
        rng = np.random.default_rng(21)
        G, S = random_instance(rng, 6, extra=2)
        H = rng.normal(size=(6, 3))
        certs = certify_local_all(G, S, ALPHA, H)
        for t in (0, 3, 5):
            br = oracle.brute_force_worst_margin(
                G, S, ALPHA, H, t, y_t=certs[t].label
            )
            assert abs(certs[t].worst_margin - br.optimum) <= 1e-8
            assert certs[t].worst_class == br.extra["worst_class"]

    def test_witness_reproduces_margin(self, rng):
        G, S = random_instance(rng, 8, extra=3)
        H = rng.normal(size=(8, 2))
        certs = certify_local_all(G, S, ALPHA, H)
        for c in certs:
            attacked = apply_policy(G, S, c.witness)
            diff = diffused_margins(
                attacked, ALPHA, H[:, c.label] - H[:, c.worst_class]
            )
            assert abs(diff[c.node] - c.worst_margin) <= 1e-9

    def test_respects_given_labels(self, rng):
        G, S = random_instance(rng, 6, extra=2)
        H = rng.normal(size=(6, 2))
        y = np.array([0, 1, 0, 1, 0, 1])
        certs = certify_local_all(G, S, ALPHA, H, y=y)
        assert [c.label for c in certs] == y.tolist()

    def test_identical_columns_give_zero_margin_nonrobust(self, rng):
        # a clean prediction tie: worst margin is exactly 0, reported
        # nonrobust and flagged as numerically marginal
        G, S = random_instance(rng, 6, extra=2)
        H = np.tile(rng.normal(size=(6, 1)), (1, 2))
        certs = certify_local_all(G, S, ALPHA, H)
        for c in certs:
            assert abs(c.worst_margin) <= 1e-12
            assert c.status == "nonrobust"
            assert c.marginal

    def test_status_thresholds(self, rng):
        G, S = random_instance(rng, 6, extra=2)
        H = rng.normal(size=(6, 2))
        for c in certify_local_all(G, S, ALPHA, H):
            if c.worst_margin > MARGIN_EPS:
                assert c.status == "robust" and not c.marginal
            else:
                assert c.status == "nonrobust"

    def test_pair_reduction_runs_all_ordered_pairs(self, rng):
        G, S = random_instance(rng, 5, extra=2)
        H = rng.normal(size=(5, 3))
        pairs = pair_worst_margins(G, S, ALPHA, H)
        assert set(pairs) == set(class_pairs(3))
        # each pair's margins are minima over admissible graphs, so they
        # cannot exceed the clean margins
        clean = diffused_margins(G, ALPHA, H)
        for (c1, c2), (margins, res) in pairs.items():
            assert np.all(margins <= clean[:, c1] - clean[:, c2] + 1e-9)
            # taken from the policy value, bit for bit the diffused margins
            # on the optimal graph
            h = H[:, c1] - H[:, c2]
            assert np.array_equal(margins, diffused_margins(res.graph, ALPHA, h))


class TestLockstepPairs:
    """pair_worst_margins runs every class pair in one lockstep loop; each
    pair's result is bit for bit that of its own optimize_local run."""

    @staticmethod
    def _instance(rng):
        G = random_connected_graph(rng, 30, extra=40)
        S = build_scenario(G, "remove-only", strength=8)
        return G, S, rng.normal(size=(30, 3))

    @pytest.mark.parametrize("stationary", [False, True])
    def test_matches_separate_runs(self, rng, monkeypatch, stationary):
        if stationary:
            monkeypatch.setattr(ppr, "DENSE_LIMIT", 0)
        G, S, H = self._instance(rng)
        pairs = pair_worst_margins(G, S, ALPHA, H)
        # pairs leave the loop in different rounds
        assert len({res.iterations for _, res in pairs.values()}) > 1
        for (c1, c2), (margins, res) in pairs.items():
            alone = optimize_local(G, S, ALPHA, -(H[:, c1] - H[:, c2]))
            assert np.array_equal(margins, -(1.0 - ALPHA) * alone.value)
            assert np.array_equal(res.value, alone.value)
            assert np.array_equal(res.policy.flips, alone.policy.flips)
            assert res.iterations == alone.iterations == len(res.trace)
            assert all(np.array_equal(a, b) for a, b in zip(res.trace, alone.trace))
            assert np.array_equal(res.graph.edges, alone.graph.edges)

    def test_factored_first_round_matches_separate_runs(self, rng, monkeypatch):
        G, S, H = self._instance(rng)
        F = ppr.factor_clean(G, ALPHA)
        factored = []
        dense_solve = ppr._dense_solve
        monkeypatch.setattr(ppr, "_dense_solve", lambda graphs, *args: factored.append(
            len(graphs)) or dense_solve(graphs, *args))
        pairs = pair_worst_margins(F, S, ALPHA, H)
        # round 1 (all six pairs, no flips) is the inverse's alone: no LU
        assert sum(factored) == sum(res.iterations - 1 for _, res in pairs.values())
        assert len({res.iterations for _, res in pairs.values()}) > 1
        for (c1, c2), (margins, res) in pairs.items():
            r = -(H[:, c1] - H[:, c2])
            alone = optimize_local(F, S, ALPHA, r)
            assert np.array_equal(margins, -(1.0 - ALPHA) * alone.value)
            assert np.array_equal(res.policy.flips, alone.policy.flips)
            assert res.iterations == alone.iterations
            assert all(np.array_equal(a, b) for a, b in zip(res.trace, alone.trace))
            assert type(res.graph) is DirectedGraph
            # both first rounds are within the stated bound of the solution
            unfactored = optimize_local(G, S, ALPHA, r)
            assert np.array_equal(res.policy.flips, unfactored.policy.flips)
            x, y = res.trace[0], unfactored.trace[0]
            bound = sum(ppr.RESIDUAL_TOL * np.abs(r).max() + 2 * ppr._rounding_error(
                G.out_degree.max(), ALPHA, np.abs(r).max(), np.abs(v).max()) / (1 - ALPHA)
                for v in (x, y))
            assert np.abs(x - y).max() <= bound

    def test_round_mixes_clean_and_perturbed_columns(self, rng):
        G, S, _ = self._instance(rng)
        F = ppr.factor_clean(G, ALPHA)
        flips = np.zeros(S.fragile_count, dtype=bool)
        flips[:3] = True
        g = flipped_graph(S, flips)
        R = rng.normal(size=(30, 3))
        X = ppr.solve_transport([F, g, F], ALPHA, R)
        assert np.array_equal(X[:, 0], ppr.solve_transport(F, ALPHA, R[:, 0]))
        assert np.array_equal(X[:, 2], ppr.solve_transport(F, ALPHA, R[:, 2]))
        assert np.array_equal(X[:, 1], ppr.solve_transport(g, ALPHA, R[:, 1]))

    def test_factored_operator_of_another_graph_is_ignored(self, rng):
        # on an asymmetric graph the scenario fixes both directions of its
        # spanning tree, so the unflipped graph has edges G lacks and G's
        # inverse must not solve it
        ring = np.column_stack((np.arange(30), (np.arange(30) + 1) % 30))
        chords = rng.integers(0, 30, size=(40, 2))
        G = DirectedGraph.from_edges(30, np.concatenate(
            [ring, chords[chords[:, 0] != chords[:, 1]]]), dedupe=True)
        S = build_scenario(G, "remove-only", strength=8)
        assert not np.array_equal(
            G.edges, flipped_graph(S, np.zeros(S.fragile_count, bool)).edges)
        r = rng.normal(size=30)
        a = optimize_local(ppr.factor_clean(G, ALPHA), S, ALPHA, r)
        b = optimize_local(G, S, ALPHA, r)
        assert all(np.array_equal(x, y) for x, y in zip(a.trace, b.trace))

    def test_optimize_local_takes_a_reward_stack(self, rng):
        G, S, H = self._instance(rng)
        R = rng.normal(size=(30, 4))
        stack = optimize_local(G, S, ALPHA, R)
        assert len(stack.results) == 4
        assert stack.iterations == max(res.iterations for res in stack.results)
        for j, res in enumerate(stack.results):
            alone = optimize_local(G, S, ALPHA, R[:, j])
            assert np.array_equal(res.value, alone.value)
            assert np.array_equal(res.policy.flips, alone.policy.flips)
            assert res.iterations == alone.iterations
        with pytest.raises(ppr.KernelInputError):
            optimize_local(G, S, ALPHA, np.zeros((30, 2, 1)))

    def test_cap_error_names_the_pair_and_carries_its_trace(self, rng, monkeypatch):
        import pagecert.policy_iter as pi_mod
        from pagecert.policy_iter import IterationCapError
        G, S, H = self._instance(rng)
        rounds = {pair: res.iterations
                  for pair, (_, res) in pair_worst_margins(G, S, ALPHA, H).items()}
        cap = min(rounds.values())
        failing = [pair for pair in class_pairs(3) if rounds[pair] > cap]
        assert failing and len(failing) < len(rounds)
        c1, c2 = failing[0]
        alone = optimize_local(G, S, ALPHA, -(H[:, c1] - H[:, c2]))
        monkeypatch.setattr(pi_mod, "ITERATION_CAP", cap)
        with pytest.raises(IterationCapError) as exc:
            pair_worst_margins(G, S, ALPHA, H)
        assert f"class pair ({c1}, {c2})" in str(exc.value)
        assert class_pairs(3)[exc.value.column] == (c1, c2)
        assert len(exc.value.trace) == cap
        assert all(np.array_equal(a, b) for a, b in zip(exc.value.trace, alone.trace))
