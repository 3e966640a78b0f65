import numpy as np
import pytest

from pagecert import lp_solver, qclp_global
from pagecert.graph import (
    DirectedGraph, apply_policy, build_scenario, generate_sbm,
    largest_connected_component,
)
from pagecert.models import ModelError
from pagecert.policy_iter import IterationCapError, certify_local_all, optimize_local
from pagecert.ppr import mean_reward, ppr_vector
from pagecert.qclp_global import (
    BoundError,
    _rounded_attack,
    assemble_relaxed_lp,
    bound_slack,
    build_aux_mdp,
    certify_global,
    compute_upper_bounds,
    policy_opt_graph_cache,
    recover_pagerank,
)

import oracle
from conftest import (
    assert_policy_array, random_connected_graph, random_instance, ring_graph,
)

ALPHA = 0.85


def aux_policy_value(mdp, on_mask: np.ndarray) -> np.ndarray:
    """Value vector of a deterministic on/off policy over all states of the
    auxiliary process, by one dense solve of (I - T) val = rew on its
    original plus per-fragile-edge states."""
    n = mdp.node_count
    m = mdp.fragile_edges.shape[0]
    on_mask = np.asarray(on_mask, dtype=bool)
    size = n + m
    fs, fd = mdp.fixed_edges.T
    src, dst = mdp.fragile_edges.T
    aux = n + np.arange(m)
    # aux state e goes on to dst with prob alpha, or back off to src
    rows = np.concatenate([fs, src, aux])
    cols = np.concatenate([fd, aux, np.where(on_mask, dst, src)])
    data = np.concatenate([
        mdp.alpha / mdp.degrees[fs], 1.0 / mdp.degrees[src],
        np.where(on_mask, mdp.alpha, 1.0),
    ])
    rew = np.zeros(size)
    rew[:n] = mdp.rewards
    rew[n:] = np.where(on_mask, 0.0, -mdp.rewards[src])
    T = np.zeros((size, size))
    np.add.at(T, (rows, cols), data)
    return np.linalg.solve(np.eye(size) - T, rew)


class TestAuxMdp:
    def test_plain_chain_when_no_fragile_edges(self, rng):
        edges = [(i, i + 1) for i in range(3)] + [(i + 1, i) for i in range(3)]
        G = DirectedGraph.from_edges(4, edges)
        S = build_scenario(G, "remove-only")
        r = rng.normal(size=4)
        mdp = build_aux_mdp(G, S, ALPHA, r)
        assert mdp.node_count + mdp.fragile_edges.shape[0] == 4
        # the auxiliary value equals the mean reward of the plain chain
        val = aux_policy_value(mdp, np.zeros(0, dtype=bool))
        x = mean_reward(G, ALPHA, r)
        assert np.allclose(val, x, atol=1e-10)

    def test_single_fragile_edge_structure(self, rng):
        G = ring_graph(4, [(0, 2)])
        S = build_scenario(
            G, "custom",
            fixed_edges=[(a, b) for a, b in G.edges if (a, b) != (0, 2)],
            fragile_edges=[(0, 2)],
            local_budgets=[1, 0, 0, 0],
        )
        mdp = build_aux_mdp(G, S, ALPHA, rng.normal(size=4))
        assert mdp.node_count + mdp.fragile_edges.shape[0] == 5
        assert mdp.degrees[0] == G.out_degree[0]

    def test_policy_value_matches_mean_reward_on_flipped_graph(self, rng):
        # original-state values of the auxiliary process equal the plain
        # mean reward on the corresponding perturbed graph
        G, S = random_instance(rng, 6, extra=2)
        r = rng.normal(size=6)
        mdp = build_aux_mdp(G, S, ALPHA, r)
        for _ in range(5):
            on = rng.random(S.fragile_count) < 0.5
            # "on" means present; flips are relative to the clean graph
            present = on
            edges = np.concatenate([S.fixed_edges, S.fragile_edges[present]])
            g2 = DirectedGraph.from_edges(6, edges, allow_self_loops=True)
            val = aux_policy_value(mdp, on)
            x = mean_reward(g2, ALPHA, r)
            assert np.allclose(val[:6], x, atol=1e-9)

    def test_off_roundtrip_reward_cancels(self, rng):
        # value of an "off" auxiliary state is the source value minus its
        # reward: bouncing i -> v_ij -> i adds r_i - r_i = 0
        G, S = random_instance(rng, 4, extra=1)
        r = rng.normal(size=4)
        mdp = build_aux_mdp(G, S, ALPHA, r)
        off = np.zeros(S.fragile_count, dtype=bool)
        val = aux_policy_value(mdp, off)
        for e, (i, _) in enumerate(S.fragile_edges):
            assert abs(val[4 + e] - (val[i] - r[i])) <= 1e-9

    def test_monte_carlo_return_matches_value(self):
        # independent stochastic simulation of the auxiliary process
        rng = np.random.default_rng(42)
        G, S = random_instance(rng, 4, extra=1)
        r = rng.normal(size=4)
        mdp = build_aux_mdp(G, S, ALPHA, r)
        on = rng.random(S.fragile_count) < 0.5
        val = aux_policy_value(mdp, on)

        succ_fixed = {v: [] for v in range(4)}
        for s, d in S.fixed_edges:
            succ_fixed[int(s)].append(int(d))
        frag_of = {v: [] for v in range(4)}
        for e, (s, d) in enumerate(S.fragile_edges):
            frag_of[int(s)].append((e, int(d)))

        sim = np.random.default_rng(2024)
        start = 0
        episodes = 40000
        totals = np.empty(episodes)
        for ep in range(episodes):
            state = start
            total = 0.0
            aux = None  # (edge index, source, dst)
            while True:
                if aux is None:
                    total += r[state]
                    d = mdp.degrees[state]
                    u = sim.random() * d
                    nf = len(succ_fixed[state])
                    if u < ALPHA * nf:
                        state = succ_fixed[state][int(u / ALPHA)]
                    elif u < nf:
                        break  # terminated on a discounted fixed edge
                    else:
                        k = int(u - nf)
                        aux = frag_of[state][k]
                else:
                    e, dst = aux
                    src = int(S.fragile_edges[e, 0])
                    if on[e]:
                        if sim.random() < ALPHA:
                            state, aux = dst, None
                        else:
                            break
                    else:
                        total += -r[src]
                        state, aux = src, None
            totals[ep] = total
        est = totals.mean()
        sigma = totals.std(ddof=1) / np.sqrt(episodes)
        assert abs(est - val[start]) <= 4 * sigma + 1e-3


class TestUpperBounds:
    def test_closed_form_arithmetic(self):
        # d_v = 5 with 2 fragile out-edges -> 5/3
        G = ring_graph(6, [(0, 2), (0, 3), (0, 4)])
        assert G.out_degree[0] == 5
        S = build_scenario(G, "remove-only")
        frag0 = int((S.fragile_edges[:, 0] == 0).sum())
        xbar = compute_upper_bounds(G, S, ALPHA, "closed_form")
        assert abs(xbar[0] - 1.0 / (1.0 - frag0 / 5.0)) <= 1e-12

    def test_no_fragile_edges_gives_one(self):
        edges = [(i, i + 1) for i in range(3)] + [(i + 1, i) for i in range(3)]
        G = DirectedGraph.from_edges(4, edges)
        S = build_scenario(G, "remove-only")
        xbar = compute_upper_bounds(G, S, ALPHA, "closed_form")
        assert np.allclose(xbar, 1.0)

    def test_degenerate_degree_rejected(self):
        G = DirectedGraph.from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0)])
        with pytest.raises(BoundError, match="fixed"):
            build_aux = build_scenario(
                G, "custom",
                fixed_edges=[(0, 1), (1, 0), (1, 2), (2, 1)],
                fragile_edges=[(2, 0)],
                local_budgets=[0, 0, 1],
            )
            # node 2 keeps a fixed out-edge, so force the failure by hand
            S_bad = build_aux
            object.__setattr__(S_bad, "fixed_edges", S_bad.fixed_edges[:-1])
            compute_upper_bounds(G, S_bad, ALPHA, "closed_form")

    def test_bounds_dominate_enumerated_max(self, rng):
        # every admissible configuration's occupation value stays below xbar,
        # and the policy_opt bound is the enumerated maximum of pi(z), inflated
        for seed in range(4):
            r2 = np.random.default_rng(seed)
            G, S = random_instance(r2, 6, extra=2)
            z = r2.dirichlet(np.ones(6))
            for method in ("closed_form", "policy_opt"):
                xbar = compute_upper_bounds(G, S, ALPHA, method, z=z)
                pi_max = np.zeros(6)
                for mask in oracle.iter_feasible_masks(S, respect_global=False):
                    present = S.fragile_in_base ^ mask
                    edges = np.concatenate(
                        [S.fixed_edges, S.fragile_edges[present]]
                    )
                    g2 = DirectedGraph.from_edges(6, edges, allow_self_loops=True)
                    pi = ppr_vector(g2, ALPHA, z)
                    k = np.bincount(
                        S.fragile_edges[~present][:, 0], minlength=6
                    )
                    d = np.bincount(S.fixed_edges[:, 0], minlength=6) + \
                        S.fragile_out_counts()
                    x = pi / (1.0 - k / d)
                    assert np.all(x <= xbar + 1e-9)
                    pi_max = np.maximum(pi_max, pi)
                if method == "policy_opt":
                    np.testing.assert_allclose(xbar / bound_slack(S), pi_max,
                                               rtol=1e-12)

    def test_cap_error_names_the_node(self, monkeypatch):
        import pagecert.policy_iter as pi_mod
        G, _ = largest_connected_component(generate_sbm(22, 2, 0.5, 0.1, 0))
        S = build_scenario(G, "remove-only", strength=4)
        # the first node whose run needs a second round is the one named
        ran = [optimize_local(G, S, ALPHA, np.eye(G.node_count)[v])
               for v in range(G.node_count)]
        node = next(v for v, res in enumerate(ran) if res.iterations > 1)
        monkeypatch.setattr(pi_mod, "ITERATION_CAP", 1)
        with pytest.raises(IterationCapError) as exc:
            policy_opt_graph_cache(G, S, ALPHA)
        assert f"the policy_opt bound of node {node} exceeded 1 " in str(exc.value)
        assert exc.value.column == node
        assert len(exc.value.trace) == 1
        assert np.array_equal(exc.value.trace[0], ran[node].trace[0])

    def test_policy_opt_tighter_than_closed_form(self, rng):
        G, S = random_instance(rng, 7, extra=3)
        z = np.zeros(7)
        z[1] = 1.0
        loose = compute_upper_bounds(G, S, ALPHA, "closed_form")
        tight = compute_upper_bounds(G, S, ALPHA, "policy_opt", z=z)
        assert np.all(tight <= loose + 1e-12)


class TestAssembleLp:
    def test_variable_and_row_counts(self):
        # N=3 with |F|=2 -> 7 variables, 9 rows
        G = ring_graph(3)
        S = build_scenario(
            G, "custom",
            fixed_edges=[(0, 1), (1, 0), (1, 2), (2, 1)],
            fragile_edges=[(0, 2), (2, 0)],
            local_budgets=[1, 0, 1],
        )
        mdp = build_aux_mdp(G, S, ALPHA, np.ones(3))
        inst = assemble_relaxed_lp(
            mdp, S, np.array([1.0, 0, 0]),
            compute_upper_bounds(G, S, ALPHA),
        )
        assert inst.lp.n_vars == 3 + 2 * 2
        assert inst.lp.n_rows == 3 + 2 + 3 + 1
        # d = (2, 2, 2), both fragile edges are clean edges (their "off"
        # share perturbs), xbar = slack = (2, 1, 2), B = |F| = 2.
        # columns: x_0 x_1 x_2 | x0_0_2 x1_0_2 | x0_2_0 x1_2_0
        a = ALPHA
        assert inst.x0_index(np.arange(2)).tolist() == [3, 5]
        assert inst.x1_index(np.arange(2)).tolist() == [4, 6]
        expected = np.array([
            [1.0, -a / 2, 0.0, -1.0, 0.0, 0.0, -a],     # flow_0
            [-a / 2, 1.0, -a / 2, 0.0, 0.0, 0.0, 0.0],  # flow_1
            [0.0, -a / 2, 1.0, 0.0, -a, -1.0, 0.0],     # flow_2
            [-0.5, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0],       # aux_0_2
            [0.0, 0.0, -0.5, 0.0, 0.0, 1.0, 1.0],       # aux_2_0
            [-0.5, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],       # local_0
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],        # local_1 (b_1 = 0)
            [0.0, 0.0, -0.5, 0.0, 0.0, 1.0, 0.0],       # local_2
            [0.0, 0.0, 0.0, 1.0, 0.0, 1.0, 0.0],        # global
        ])
        A = np.zeros(expected.shape)
        A[inst.lp.row, inst.lp.col] = inst.lp.coef
        assert np.array_equal(A, expected)
        assert np.array_equal(inst.lp.objective, [1, 1, 1, -1, 0, -1, 0])
        assert np.array_equal(inst.lp.rhs, [1 - a, 0, 0, 0, 0, 0, 0, 0, 2])
        assert list(inst.lp.senses) == ["="] * 5 + ["<="] * 4

    def test_zero_budgets_give_clean_value(self, rng):
        G = random_connected_graph(rng, 6, extra=2)
        S = build_scenario(G, "remove-only", local_budgets=np.zeros(6, dtype=int),
                           global_budget=0)
        r = rng.normal(size=6)
        z = rng.dirichlet(np.ones(6))
        mdp = build_aux_mdp(G, S, ALPHA, r)
        inst = assemble_relaxed_lp(mdp, S, z, compute_upper_bounds(G, S, ALPHA))
        sol = lp_solver.solve_lp(inst.lp, start=inst.clean_basis())
        clean = r @ ppr_vector(G, ALPHA, z)
        assert abs(sol.objective - clean) <= 1e-8

    def test_full_global_budget_matches_local_optimum(self):
        # with B = |F| the global row cannot bind; at integral optima the LP
        # equals the exact local-only optimum
        for seed in range(6):
            rng = np.random.default_rng(seed)
            G, S = random_instance(rng, 6, extra=2)  # B defaults to |F|
            r = rng.normal(size=6)
            z = rng.dirichlet(np.ones(6))
            mdp = build_aux_mdp(G, S, ALPHA, r)
            inst = assemble_relaxed_lp(mdp, S, z,
                                       compute_upper_bounds(G, S, ALPHA))
            sol = lp_solver.solve_lp(inst.lp, start=inst.clean_basis())
            res = optimize_local(G, S, ALPHA, r)
            _, _, integral = recover_pagerank(sol, inst)
            assert sol.objective >= (1 - ALPHA) * (z @ res.value) - 1e-8
            if integral:
                assert abs(sol.objective - (1 - ALPHA) * (z @ res.value)) <= 1e-6

    def test_lp_soundness_against_oracle(self):
        # the relaxation never undercuts the true constrained optimum
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(5, 8))
            G, S = random_instance(rng, n, extra=2,
                                   global_budget=int(rng.integers(0, 4)))
            r = rng.normal(size=n)
            z = rng.dirichlet(np.ones(n))
            mdp = build_aux_mdp(G, S, ALPHA, r)
            inst = assemble_relaxed_lp(mdp, S, z,
                                       compute_upper_bounds(G, S, ALPHA))
            sol = lp_solver.solve_lp(inst.lp, start=inst.clean_basis())
            best = oracle.brute_force_pagerank_opt(
                G, S, ALPHA, r, z, respect_global=True
            )
            assert sol.objective >= best.optimum - 1e-8

    def test_monotone_in_global_budget(self, rng):
        G, S0 = random_instance(rng, 6, extra=3)
        r = rng.normal(size=6)
        z = rng.dirichlet(np.ones(6))
        xbar = compute_upper_bounds(G, S0, ALPHA)
        prev = -np.inf
        for B in range(0, S0.fragile_count + 1):
            S = build_scenario(G, "remove-only",
                               local_budgets=S0.local_budget, global_budget=B)
            mdp = build_aux_mdp(G, S, ALPHA, r)
            inst = assemble_relaxed_lp(mdp, S, z, xbar)
            sol = lp_solver.solve_lp(inst.lp, start=inst.clean_basis())
            assert sol.objective >= prev - 1e-9
            prev = sol.objective

    def test_coupling_rows_hold_at_optimum(self, rng):
        G, S = random_instance(rng, 6, extra=2, global_budget=2)
        r = rng.normal(size=6)
        z = rng.dirichlet(np.ones(6))
        mdp = build_aux_mdp(G, S, ALPHA, r)
        inst = assemble_relaxed_lp(mdp, S, z, compute_upper_bounds(G, S, ALPHA))
        sol = lp_solver.solve_lp(inst.lp, start=inst.clean_basis())
        d = mdp.degrees
        for e, (i, _) in enumerate(S.fragile_edges):
            x0 = sol.x[inst.x0_index(e)]
            x1 = sol.x[inst.x1_index(e)]
            assert abs(x0 + x1 - sol.x[int(i)] / d[int(i)]) <= 1e-7


class TestRecovery:
    def test_formula_arithmetic(self):
        # k_v = 2 of d_v = 4 off with x_v = 1 -> pi_v = 0.5 (direct formula)
        G = ring_graph(4, [(0, 2)])
        S = build_scenario(G, "remove-only")
        # build a synthetic instance to use the recovery machinery directly
        mdp = build_aux_mdp(G, S, ALPHA, np.zeros(4))
        assert mdp.degrees[0] >= 2
        k, d, x = 2, 4, 1.0
        assert (1 - k / d) * x == 0.5

    def test_recovered_matches_resolve_on_integral_optimum(self, rng):
        for seed in range(6):
            r2 = np.random.default_rng(seed + 50)
            G, S = random_instance(r2, 6, extra=2,
                                   global_budget=int(r2.integers(1, 4)))
            r = r2.normal(size=6)
            t = int(r2.integers(0, 6))
            z = np.zeros(6)
            z[t] = 1.0
            mdp = build_aux_mdp(G, S, ALPHA, r)
            inst = assemble_relaxed_lp(mdp, S, z,
                                       compute_upper_bounds(G, S, ALPHA))
            sol = lp_solver.solve_lp(inst.lp, start=inst.clean_basis())
            vec, policy, integral = recover_pagerank(sol, inst)
            if integral:
                g2 = apply_policy(S, policy)
                pi = ppr_vector(g2, ALPHA, z)
                assert np.max(np.abs(pi - vec)) <= 1e-7

    def test_all_on_means_no_off_count(self, rng):
        # force every fragile edge on: with additions only, k_v = 0
        G = random_connected_graph(rng, 5, extra=0)
        nonedges = [(0, 2), (0, 3)]
        S = build_scenario(G, "custom", fixed_edges=G.edges,
                           fragile_edges=nonedges, local_budgets=[2, 0, 0, 0, 0])
        r = np.zeros(5)
        r[2] = 1.0  # rewards additions toward 2
        z = np.zeros(5)
        z[0] = 1.0
        mdp = build_aux_mdp(G, S, ALPHA, r)
        inst = assemble_relaxed_lp(mdp, S, z, compute_upper_bounds(G, S, ALPHA))
        sol = lp_solver.solve_lp(inst.lp, start=inst.clean_basis())
        vec, policy, integral = recover_pagerank(sol, inst)
        if integral and len(policy) == len(nonedges):
            assert np.allclose(vec[:1], sol.x[:1])


class TestRoundedAttack:
    def test_ties_then_local_then_global_drops(self):
        # ring 0-1-2-3-4 with fragile additions out of 0, 1, 2 and the clean
        # edge (2, 1) fragile; an edge flips iff its rounded state (on iff
        # x1 >= x0) differs from the clean graph
        G = ring_graph(5)
        fragile = [(0, 2), (0, 3), (1, 3), (1, 4), (2, 1), (2, 4)]
        fixed = [tuple(e) for e in G.edges.tolist() if tuple(e) != (2, 1)]
        S = build_scenario(G, "custom", fixed_edges=fixed,
                           fragile_edges=fragile,
                           local_budgets=[1, 2, 1, 0, 0], global_budget=3)
        mdp = build_aux_mdp(G, S, ALPHA, np.zeros(5))
        inst = assemble_relaxed_lp(mdp, S, np.full(5, 0.2),
                                   compute_upper_bounds(G, S, ALPHA))
        # |x1 - x0| per edge: .5, .5 (tie), .25, .125, .375 (turned off),
        # and (2, 4) stays off, so it is no flip
        x = np.zeros(inst.lp.n_vars)
        x[inst.x0_index(np.arange(6))] = [0, 0, 0, 0.125, 0.375, 0.5]
        x[inst.x1_index(np.arange(6))] = [0.5, 0.5, 0.25, 0.25, 0, 0]
        sol = lp_solver.LpSolution("optimal", 0.0, x, {})
        attack = _rounded_attack(sol, inst)
        # node 0 keeps (0, 2) over its tie (0, 3) by the lower edge index;
        # then B = 3 drops the smallest survivor, (1, 4)
        assert set(map(tuple, attack.tolist())) == {(0, 2), (1, 3), (2, 1)}


class TestCertifyGlobal:
    def test_attacks_and_recovered_policies_are_policy_arrays(self, rng):
        G, S = random_instance(rng, 7, extra=3, global_budget=2)
        H = rng.normal(size=(7, 2))
        certs = certify_global(G, S, ALPHA, H, targets=range(7))
        for c in certs:
            assert_policy_array(S, c.witness)
        assert any(len(c.witness) for c in certs)
        recovered = 0
        for t in range(7):
            z = np.zeros(7)
            z[t] = 1.0
            inst = assemble_relaxed_lp(build_aux_mdp(G, S, ALPHA, H[:, 1] - H[:, 0]),
                                       S, z, compute_upper_bounds(G, S, ALPHA))
            _, policy, _ = recover_pagerank(
                lp_solver.solve_lp(inst.lp, start=inst.clean_basis()), inst)
            assert_policy_array(S, policy)
            recovered += len(policy)
        assert recovered

    def test_zero_budget_equals_clean_margin(self, rng):
        from pagecert.ppr import diffused_margins
        G, _ = random_instance(rng, 6, extra=2)
        S = build_scenario(G, "remove-only", strength=9, global_budget=0)
        H = rng.normal(size=(6, 2))
        certs = certify_global(G, S, ALPHA, H, targets=[0, 2, 4])
        diff = diffused_margins(G, ALPHA, H)
        for c in certs:
            clean = np.min([diff[c.node, c.y] - diff[c.node, k]
                            for k in range(2) if k != c.y])
            assert abs(c.worst_margin - clean) <= 1e-7

    @pytest.mark.parametrize("targets", [[-1], [6], [0, 6]])
    def test_out_of_range_target_rejected(self, rng, targets):
        # -1 used to certify node 5 and report it as node -1
        G, S = random_instance(rng, 6, extra=2, global_budget=2)
        H = rng.normal(size=(6, 2))
        with pytest.raises(BoundError, match=r"\[0, 6\)"):
            certify_global(G, S, ALPHA, H, targets=targets)

    @pytest.mark.parametrize("y, message", [
        ([0, 5, 0, 1, 0, 1], "class id out of range"),
        ([0, 1, 0], "one class per node"),
    ])
    def test_bad_labels_rejected_like_the_local_route(self, rng, y, message):
        # a class id of 5 on 2 classes used to raise a bare KeyError, and a
        # short y was used silently
        G, S = random_instance(rng, 6, extra=2, global_budget=2)
        H = rng.normal(size=(6, 2))
        with pytest.raises(ModelError, match=message):
            certify_global(G, S, ALPHA, H, targets=[0, 1], y=y)
        with pytest.raises(ModelError, match=message):
            certify_local_all(G, S, ALPHA, H, y=y)

    def test_lower_bound_sound_vs_exact_margin(self):
        for seed in range(6):
            rng = np.random.default_rng(seed + 7)
            G, S = random_instance(rng, 6, extra=2,
                                   global_budget=int(rng.integers(0, 4)))
            H = rng.normal(size=(6, 2))
            certs = certify_global(G, S, ALPHA, H, targets=range(6))
            for c in certs:
                br = oracle.brute_force_worst_margin(
                    G, S, ALPHA, H, c.node, y_t=c.y, respect_global=True
                )
                assert c.worst_margin <= br.optimum + 1e-8

    def test_witnessed_attacks_verified_exactly(self, rng):
        from pagecert.ppr import diffused_margins
        G, S = random_instance(rng, 7, extra=3, global_budget=3)
        H = rng.normal(size=(7, 2)) * 0.3
        certs = certify_global(G, S, ALPHA, H, targets=range(7))
        for c in certs:
            if c.status == "nonrobust-witnessed":
                attacked = apply_policy(S, c.witness)
                diff = diffused_margins(attacked, ALPHA, H)
                margins = [diff[c.node, c.y] - diff[c.node, k]
                           for k in range(2) if k != c.y]
                assert min(margins) < 0
                # admissibility of the rounded attack
                per_node = (np.bincount(c.witness[:, 0], minlength=7)
                            if len(c.witness) else np.zeros(7, dtype=int))
                assert np.all(per_node <= S.local_budget)
                assert len(c.witness) <= S.global_budget

    def test_statuses_partition(self, rng):
        G, S = random_instance(rng, 6, extra=2, global_budget=2)
        H = rng.normal(size=(6, 3))
        certs = certify_global(G, S, ALPHA, H, targets=range(6))
        for c in certs:
            assert c.status in ("robust", "unknown", "nonrobust-witnessed")
            assert c.attack_verified == (c.status == "nonrobust-witnessed")

    def test_policy_opt_bounds_never_looser(self, rng):
        G, S = random_instance(rng, 6, extra=2, global_budget=1)
        H = rng.normal(size=(6, 2))
        loose = certify_global(G, S, ALPHA, H, targets=range(6),
                               bound_method="closed_form")
        tight = certify_global(G, S, ALPHA, H, targets=range(6),
                               bound_method="policy_opt")
        for a, b in zip(loose, tight):
            assert b.worst_margin >= a.worst_margin - 1e-9

    def test_builds_only_the_pairs_of_the_targets_classes(self, rng, monkeypatch):
        # 5 classes, both targets of class 1: 4 aux MDPs, not 5 * 4, and the
        # certificates of a run whose targets hold every class
        G, S = random_instance(rng, 6, extra=2, global_budget=2)
        H = rng.normal(size=(6, 5))
        y = np.array([1, 0, 1, 2, 3, 4])
        every = certify_global(G, S, ALPHA, H, targets=range(6), y=y)
        built = []
        build = qclp_global.build_aux_mdp
        monkeypatch.setattr(qclp_global, "build_aux_mdp",
                            lambda *args: built.append(args[3]) or build(*args))
        certs = certify_global(G, S, ALPHA, H, targets=[0, 2], y=y)
        assert len(built) == 4
        for name in ("y", "worst_class", "worst_margin", "status"):
            assert np.array_equal(certs[name], every[name][[0, 2]])
        for a, b in zip(certs.witness, every.witness[[0, 2]]):
            assert np.array_equal(a, b)


def addrem_relaxed_lp(seed):
    """An add-and-remove relaxed LP on a small SBM: the instance family on
    which phase 1 broke down (singular refactorizations, false
    infeasibility)."""
    rng = np.random.default_rng(seed)
    n, blocks = int(rng.integers(6, 16)), int(rng.integers(2, 4))
    G, _ = largest_connected_component(generate_sbm(n, blocks, 0.5, 0.1, seed))
    N = G.node_count
    S = build_scenario(G, "add-and-remove", local_budgets=rng.integers(0, 4, N),
                       global_budget=int(rng.integers(0, 12)))
    z = np.zeros(N)
    z[int(rng.integers(N))] = 1.0
    mdp = build_aux_mdp(G, S, ALPHA, rng.normal(size=N))
    return assemble_relaxed_lp(mdp, S, z, compute_upper_bounds(G, S, ALPHA))


class TestCleanBasis:
    @pytest.mark.parametrize("mode", ["remove-only", "add-and-remove"])
    def test_clean_basis_is_the_clean_graph_vertex(self, rng, mode):
        # a zero reward makes every vertex optimal, so the solve stays at
        # the start basis, which must be the clean graph's occupation
        G, S = random_instance(rng, 7, extra=3, mode=mode, global_budget=2)
        z = rng.dirichlet(np.ones(7))
        inst = assemble_relaxed_lp(build_aux_mdp(G, S, ALPHA, np.zeros(7)), S, z,
                                   compute_upper_bounds(G, S, ALPHA))
        assert inst.clean_basis().size == np.count_nonzero(inst.lp.senses == "=")
        sol = lp_solver.solve_lp(inst.lp, start=inst.clean_basis())
        assert sol.stats["pivots"] == 0
        vec, pol, integral = recover_pagerank(sol, inst)
        assert integral and len(pol) == 0
        assert np.max(np.abs(vec - ppr_vector(G, ALPHA, z))) <= 1e-12

    def test_certify_global_starts_at_the_clean_basis(self, rng, monkeypatch):
        G, S = random_instance(rng, 7, extra=3, global_budget=2)
        H = rng.normal(size=(7, 2))
        solve, assemble, starts, insts = lp_solver.solve_lp, assemble_relaxed_lp, [], []

        def record(lp, start):
            starts.append(start)
            return solve(lp, start=start)

        def build(*args):
            insts.append(assemble(*args))
            return insts[-1]

        monkeypatch.setattr(qclp_global.lp_solver, "solve_lp", record)
        monkeypatch.setattr(qclp_global, "assemble_relaxed_lp", build)
        certify_global(G, S, ALPHA, H, [0, 3])
        assert len(starts) == len(insts) == 2
        assert all(np.array_equal(s, i.clean_basis()) for s, i in zip(starts, insts))

    def test_addrem_sweep_matches_highs(self):
        import scipy.sparse as sp
        from scipy.optimize import linprog

        solved = 0
        for seed in range(40):
            inst = addrem_relaxed_lp(seed)
            lp = inst.lp
            if inst.scenario.fragile_count == 0:
                continue
            sol = lp_solver.solve_lp(lp, start=inst.clean_basis())
            assert sol.status == "optimal", f"seed {seed}"
            eq = lp.senses == "="
            matrix = sp.csr_matrix((lp.coef, (lp.row, lp.col)),
                                   shape=(lp.n_rows, lp.n_vars))
            ref = linprog(
                -lp.objective, A_ub=matrix[~eq], b_ub=lp.rhs[~eq],
                A_eq=matrix[eq], b_eq=lp.rhs[eq],
                bounds=[(0, u if np.isfinite(u) else None) for u in lp.upper_bounds],
                method="highs-ds",
            )
            assert ref.status == 0, f"seed {seed}"
            assert abs(sol.objective + ref.fun) <= 1e-7 * abs(ref.fun) + 1e-12, \
                f"seed {seed}"
            solved += 1
        assert solved >= 30
