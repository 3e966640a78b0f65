from math import comb

import numpy as np
import pytest

from pagecert.graph import build_scenario

from oracle import (
    EnumerationCapError,
    brute_force_pagerank_opt,
    brute_force_worst_margin,
    iter_feasible_masks,
)
from conftest import random_connected_graph, random_instance

ALPHA = 0.85


class TestEnumeration:
    def test_empty_fragile_set_single_candidate(self, rng):
        from pagecert.graph import DirectedGraph
        edges = [(i, i + 1) for i in range(3)] + [(i + 1, i) for i in range(3)]
        G = DirectedGraph.from_edges(4, edges)
        S = build_scenario(G, "remove-only")
        r = rng.normal(size=4)
        z = rng.dirichlet(np.ones(4))
        res = brute_force_pagerank_opt(G, S, ALPHA, r, z)
        assert res.enumerated == 1
        assert len(res.policy) == 0

    def test_zero_budgets_leave_only_clean(self, rng):
        G = random_connected_graph(rng, 6, extra=2)
        S = build_scenario(G, "remove-only",
                           local_budgets=np.zeros(6, dtype=int))
        r = rng.normal(size=6)
        z = rng.dirichlet(np.ones(6))
        res = brute_force_pagerank_opt(G, S, ALPHA, r, z)
        assert res.enumerated == 1
        assert len(res.policy) == 0

    def test_enumerated_count_matches_combinatorics(self, rng):
        # local-only feasibility factorizes per source node:
        # count = prod_v sum_{k <= b_v} C(|F^v|, k)
        G, S = random_instance(rng, 7, extra=3)
        res = brute_force_pagerank_opt(
            G, S, ALPHA, rng.normal(size=7), rng.dirichlet(np.ones(7))
        )
        frag_out = S.fragile_out_counts()
        expected = 1
        for v in range(7):
            expected *= sum(
                comb(int(frag_out[v]), k)
                for k in range(int(S.local_budget[v]) + 1)
            )
        assert res.enumerated == expected

    def test_global_filter_shrinks_count(self, rng):
        G, S_free = random_instance(rng, 6, extra=3)
        free = sum(1 for _ in iter_feasible_masks(S_free, respect_global=False))
        S_tight = build_scenario(G, "remove-only",
                                 local_budgets=S_free.local_budget,
                                 global_budget=1)
        tight = sum(1 for _ in iter_feasible_masks(S_tight, respect_global=True))
        assert tight <= free
        per_node = S_tight.local_budget
        singles = sum(
            1 for v, b in enumerate(per_node)
            if b > 0
            for _ in range(int((S_tight.fragile_edges[:, 0] == v).sum()))
        )
        assert tight == 1 + singles  # empty set plus each allowed single flip

    def test_cap_enforced(self, rng):
        G = random_connected_graph(rng, 14, extra=12)
        S = build_scenario(G, "remove-only")
        if S.fragile_count <= 20:
            pytest.skip("fixture too small to hit the cap")
        with pytest.raises(EnumerationCapError):
            brute_force_pagerank_opt(
                G, S, ALPHA, np.zeros(14), np.ones(14) / 14
            )

    def test_worst_margin_identical_columns_zero(self, rng):
        G, S = random_instance(rng, 6, extra=2)
        H = np.tile(rng.normal(size=(6, 1)), (1, 2))
        res = brute_force_worst_margin(G, S, ALPHA, H, t=2)
        assert abs(res.optimum) <= 1e-12

    def test_tie_break_prefers_lexicographically_smallest(self, rng):
        # zero rewards make every configuration tie at exactly 0.0; the
        # reported argmax must be the empty set (lexicographically smallest)
        G, S = random_instance(rng, 6, extra=2)
        res = brute_force_pagerank_opt(
            G, S, ALPHA, np.zeros(6), np.ones(6) / 6
        )
        assert res.optimum == 0.0
        assert len(res.policy) == 0
