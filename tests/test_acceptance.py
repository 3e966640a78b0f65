"""End-to-end acceptance suite.

One test per criterion; each prints a single PASS line (visible with -s or
in captured output) after its assertions hold. Every tolerance is pinned
here, not configurable.
"""

import json
import logging
import time

import numpy as np
import pytest

from pagecert import (
    analysis,
    graph,
    lp_solver,
    models,
    policy_iter,
    qclp_global,
    robust_train,
)
from pagecert.cli import main as cli_main
from pagecert.policy_iter import MARGIN_EPS
from pagecert.ppr import diffused_margins, mean_reward, ppr_vector

import gradcheck
import oracle
from conftest import random_connected_graph, random_instance

ALPHA = 0.85


@pytest.fixture(autouse=True, scope="module")
def _quiet_package_logs():
    # the batteries trigger thousands of benign budget-clamp warnings
    logger = logging.getLogger("pagecert")
    prev = logger.level
    logger.setLevel(logging.ERROR)
    yield
    logger.setLevel(prev)


def announce(num: int, text: str) -> None:
    print(f"[criterion {num:2d}] PASS: {text}")


def sbm_label_prop_fixture(n, blocks, p_in, p_out, seed, labeled_per_class,
                           label_seed=0):
    """LCC-restricted SBM with one-hot logits from sampled labeled nodes."""
    G0 = graph.generate_sbm(n, blocks, p_in, p_out, seed=seed)
    G, kept = graph.largest_connected_component(G0)
    blocks_all = graph.sbm_block_labels(n, blocks)[kept]
    rng = np.random.default_rng(label_seed)
    lab = np.full(G.node_count, -1)
    for c in range(blocks):
        pool = np.nonzero(blocks_all == c)[0]
        lab[rng.choice(pool, size=labeled_per_class, replace=False)] = c
    H = models.label_propagation_logits(lab, G.node_count, blocks)
    return G, blocks_all, lab, H


class TestCriterion1Exactness:
    def test_local_margins_match_enumeration(self):
        t0 = time.time()
        instances = 0
        checks = 0
        for seed in range(200):
            rng = np.random.default_rng(1000 + seed)
            n = int(rng.integers(5, 11))
            K = int(rng.integers(2, 4))
            G, S = random_instance(rng, n, extra=int(rng.integers(0, 4)))
            assert S.fragile_count <= 10
            H = rng.normal(size=(n, K))
            certs = policy_iter.certify_local_all(G, S, ALPHA, H)
            for t in rng.choice(n, size=3, replace=False):
                br = oracle.brute_force_worst_margin(
                    G, S, ALPHA, H, int(t), y_t=certs[t].y
                )
                assert abs(certs[t].worst_margin - br.optimum) <= 1e-8
                checks += 1
            instances += 1
        elapsed = time.time() - t0
        assert instances >= 200
        assert elapsed <= 120.0
        announce(1, f"{instances} instances, {checks} margins exact to 1e-8 "
                    f"in {elapsed:.1f}s")


class TestCriterion2Soundness:
    def test_global_lower_bound_sound_and_tight(self):
        t0 = time.time()
        sound = 0
        eq_checked = 0
        recoveries = 0
        for seed in range(200):
            rng = np.random.default_rng(5000 + seed)
            n = int(rng.integers(5, 9))
            G, S0 = random_instance(rng, n, extra=int(rng.integers(0, 3)))
            B = int(rng.integers(0, S0.fragile_count + 1))
            S = graph.build_scenario(G, "remove-only",
                                     local_budgets=S0.local_budget,
                                     global_budget=B)
            K = int(rng.integers(2, 4))
            H = rng.normal(size=(n, K))
            t = int(rng.integers(0, n))
            z = np.zeros(n)
            z[t] = 1.0
            yt = int(rng.integers(0, K))
            xbar = qclp_global.compute_upper_bounds(G, S, ALPHA)
            bound = np.inf
            for c in range(K):
                if c == yt:
                    continue
                r = -(H[:, yt] - H[:, c])
                mdp = qclp_global.build_aux_mdp(G, S, ALPHA, r)
                inst = qclp_global.assemble_relaxed_lp(mdp, S, z, xbar)
                sol = lp_solver.solve_lp(inst.lp, start=inst.clean_basis())
                assert sol.status == "optimal"
                bound = min(bound, -sol.objective)
                vec, pol, integral = qclp_global.recover_pagerank(sol, inst)
                if integral:
                    g2 = graph.apply_policy(S, pol)
                    pi = ppr_vector(g2, ALPHA, z)
                    assert np.max(np.abs(pi - vec)) <= 1e-7
                    recoveries += 1
            br = oracle.brute_force_worst_margin(
                G, S, ALPHA, H, t, y_t=yt, respect_global=True
            )
            assert bound <= br.optimum + 1e-8
            sound += 1
            if seed % 4 == 0:
                # B = |F|: the LP must meet the exact local-only optimum at
                # integral vertices
                S_full = graph.build_scenario(
                    G, "remove-only", local_budgets=S0.local_budget
                )
                c = (yt + 1) % K
                r = -(H[:, yt] - H[:, c])
                mdp = qclp_global.build_aux_mdp(G, S_full, ALPHA, r)
                inst = qclp_global.assemble_relaxed_lp(
                    mdp, S_full, z,
                    qclp_global.compute_upper_bounds(G, S_full, ALPHA),
                )
                sol = lp_solver.solve_lp(inst.lp, start=inst.clean_basis())
                res = policy_iter.optimize_local(G, S_full, ALPHA, r)
                assert sol.objective >= (1 - ALPHA) * (z @ res.value) - 1e-8
                _, _, integral = qclp_global.recover_pagerank(sol, inst)
                if integral:
                    assert abs(sol.objective - (1 - ALPHA) * (z @ res.value)) <= 1e-6
                    eq_checked += 1
        elapsed = time.time() - t0
        assert sound >= 200
        assert eq_checked >= 10
        assert elapsed <= 300.0
        announce(2, f"{sound} instances sound, {eq_checked} integral B=|F| "
                    f"matches, {recoveries} recoveries verified in {elapsed:.1f}s")


class TestCriterion3PiBehavior:
    def test_large_sbm_terminates_fast_and_monotone(self):
        G0 = graph.generate_sbm(2600, 2, 0.005, 0.0008, seed=77)
        G, _ = graph.largest_connected_component(G0)
        S = graph.build_scenario(G, "remove-only", strength=8)
        assert S.fragile_count >= 10_000
        worst_wall = 0.0
        worst_iters = 0
        for seed in range(3):
            rng = np.random.default_rng(seed)
            r = rng.normal(size=G.node_count)
            t1 = time.time()
            res = policy_iter.optimize_local(G, S, ALPHA, r)
            wall = time.time() - t1
            assert res.iterations <= 25
            for a, b in zip(res.trace, res.trace[1:]):
                assert np.all(b >= a - 1e-8)
            assert wall <= 30.0
            worst_wall = max(worst_wall, wall)
            worst_iters = max(worst_iters, res.iterations)
        announce(3, f"|F|={S.fragile_count}, <= {worst_iters} iterations, "
                    f"monotone values, worst wall {worst_wall:.2f}s")


class TestCriterion4LocalStrengthSweep:
    def test_certified_ratio_monotone_and_mode_ordered(self):
        # Citeseer is not bundled in this environment; the criterion's
        # >=500-node SBM surrogate applies
        G, blocks_all, lab, H = sbm_label_prop_fixture(
            500, 3, 0.035, 0.004, seed=11, labeled_per_class=20
        )
        assert G.node_count >= 499
        y = models.predict(G, ALPHA, H)
        strengths = (1, 4, 7, 10)
        ratios = {}
        for mode in ("remove-only", "add-and-remove"):
            row = []
            for s in strengths:
                S = graph.build_scenario(G, mode, strength=s)
                certs = policy_iter.certify_local_all(G, S, ALPHA, H, y=y)
                row.append(analysis.certified_ratio(certs))
            ratios[mode] = row
            assert all(a >= b - 1e-12 for a, b in zip(row, row[1:])), \
                f"{mode} ratios not nonincreasing: {row}"
        for rem, both in zip(ratios["remove-only"], ratios["add-and-remove"]):
            assert rem >= both - 1e-12
        announce(4, f"remove-only {ratios['remove-only']} >= "
                    f"add-and-remove {ratios['add-and-remove']}, "
                    f"both nonincreasing over s={strengths}")


class TestCriterion5AlphaEffect:
    def test_lower_alpha_certifies_more(self):
        G, blocks_all, lab, H = sbm_label_prop_fixture(
            200, 2, 0.08, 0.01, seed=5, labeled_per_class=15, label_seed=1
        )
        S = graph.build_scenario(G, "remove-only", strength=6)
        ratios = {}
        for alpha in (0.7, 0.9):
            y = models.predict(G, alpha, H)
            certs = policy_iter.certify_local_all(G, S, alpha, H, y=y)
            ratios[alpha] = analysis.certified_ratio(certs)
        assert ratios[0.7] >= ratios[0.9]
        announce(5, f"certified ratio {ratios[0.7]:.3f} at alpha=0.7 >= "
                    f"{ratios[0.9]:.3f} at alpha=0.9")


class TestCriterion6GlobalBudgetSweep:
    def test_ratio_grows_as_budget_shrinks(self):
        G, blocks_all, lab, H = sbm_label_prop_fixture(
            30, 2, 0.55, 0.08, seed=3, labeled_per_class=3, label_seed=2
        )
        y = models.predict(G, ALPHA, H)
        rng = np.random.default_rng(4)
        targets = np.sort(rng.choice(G.node_count, size=12, replace=False))
        budgets = (0, 1, 2, 4, 8)
        ratios = []
        for B in budgets:
            S = graph.build_scenario(G, "remove-only", strength=4,
                                     global_budget=B)
            certs = qclp_global.certify_global(
                G, S, ALPHA, H, targets, y=y, bound_method="policy_opt"
            )
            ratios.append(analysis.certified_ratio(certs))
        # shrinking the budget can only help the defender
        assert all(a >= b - 1e-12 for a, b in zip(ratios, ratios[1:])), ratios
        # B = 0 admits only the clean graph
        diff = diffused_margins(G, ALPHA, H)
        clean = [
            min(diff[t, y[t]] - diff[t, c] for c in range(2) if c != y[t])
            for t in targets
        ]
        clean_ratio = float(np.mean(np.asarray(clean) > MARGIN_EPS))
        assert ratios[0] == clean_ratio
        announce(6, f"ratios {['%.3f' % r for r in ratios]} over B={budgets}, "
                    f"B=0 equals clean-positive ratio {clean_ratio:.3f}")


class TestCriterion7RobustTraining:
    @staticmethod
    def _train_and_certify(seed: int, kind: str) -> float:
        G0 = graph.generate_sbm(24, 2, 0.7, 0.08, seed=17)
        G, kept = graph.largest_connected_component(G0)
        labels = graph.sbm_block_labels(24, 2)[kept]
        m = G.node_count
        rng = np.random.default_rng(seed)
        X = np.zeros((m, 2))
        X[np.arange(m), labels] = 1.0
        X = X + 0.35 * rng.normal(size=X.shape)
        S = graph.build_scenario(G, "remove-only", strength=4)
        tr, va, _ = models.train_val_test_split(labels, per_class=4, seed=seed)
        model = models.init_mlp(2, 4, 2, seed=seed)
        cfg = robust_train.RobustLossConfig(
            kind=kind, hinge_margin=1.0, max_epochs=800, patience=100,
            learning_rate=1e-2, weight_decay=5e-2,
        )
        trained, _ = robust_train.train_robust(
            model, X, labels, G, S, ALPHA, cfg, tr, va
        )
        H = models.mlp_logits(trained, X)
        y = models.predict(G, ALPHA, H)
        certs = policy_iter.certify_local_all(G, S, ALPHA, H, y=y)
        return analysis.certified_ratio(certs)

    def test_robust_losses_beat_plain_ce(self):
        means = {}
        for kind in ("ce", "rce", "cem"):
            means[kind] = float(np.mean(
                [self._train_and_certify(seed, kind) for seed in range(5)]
            ))
        assert means["cem"] >= means["ce"]
        assert means["rce"] >= means["ce"]
        announce(7, f"mean certified ratio over 5 seeds: ce {means['ce']:.3f}, "
                    f"rce {means['rce']:.3f}, cem {means['cem']:.3f}")

    def test_citeseer_f1_band(self):
        pytest.skip(
            "Citeseer dataset is not available in this environment; the "
            "0.70 +/- 0.04 CE test-F1 band cannot be measured here"
        )


class TestCriterion8GradientChecks:
    def test_danskin_gradients_match_finite_differences(self):
        stable = 0
        worst = 0.0
        seed = 0
        while stable < 20 and seed < 60:
            rng = np.random.default_rng(9000 + seed)
            seed += 1
            n = int(rng.integers(5, 8))
            G, S = random_instance(rng, n, extra=int(rng.integers(1, 3)))
            X = rng.normal(size=(n, 3))
            y = np.full(n, -1)
            labeled = rng.choice(n, size=4, replace=False)
            y[labeled] = rng.integers(0, 2, size=4)
            if len(np.unique(y[labeled])) < 2:
                continue
            kind = "rce" if seed % 2 else "cem"
            model = models.init_mlp(3, 4, 2, seed=seed)
            cfg = robust_train.RobustLossConfig(kind=kind, hinge_margin=0.5)
            res = gradcheck.grad_check(
                model, X, y, G, S, ALPHA, cfg, h=1e-5
            )
            if res.checked == 0:
                continue
            assert res.max_rel_error <= 1e-4, (seed, kind, res.max_rel_error)
            worst = max(worst, res.max_rel_error)
            stable += 1
        assert stable >= 20
        announce(8, f"{stable} stable-policy instances, worst relative "
                    f"error {worst:.2e} <= 1e-4")


class TestCriterion9KernelIdentities:
    def test_normalization_reward_and_recovery_identities(self):
        recoveries = 0
        for seed in range(25):
            rng = np.random.default_rng(300 + seed)
            n = int(rng.integers(4, 12))
            G = random_connected_graph(rng, n, extra=int(rng.integers(0, 4)))
            z = rng.dirichlet(np.ones(n))
            r = rng.normal(size=n)
            pi = ppr_vector(G, ALPHA, z)
            assert abs(pi.sum() - 1.0) <= 1e-8
            x = mean_reward(G, ALPHA, r)
            assert abs(r @ pi - (1 - ALPHA) * (z @ x)) <= 1e-9
        for seed in range(15):
            rng = np.random.default_rng(700 + seed)
            n = int(rng.integers(5, 8))
            G, S = random_instance(rng, n, extra=2,
                                   global_budget=int(rng.integers(0, 5)))
            r = rng.normal(size=n)
            t = int(rng.integers(0, n))
            z = np.zeros(n)
            z[t] = 1.0
            mdp = qclp_global.build_aux_mdp(G, S, ALPHA, r)
            inst = qclp_global.assemble_relaxed_lp(
                mdp, S, z, qclp_global.compute_upper_bounds(G, S, ALPHA)
            )
            sol = lp_solver.solve_lp(inst.lp, start=inst.clean_basis())
            vec, pol, integral = qclp_global.recover_pagerank(sol, inst)
            if integral:
                g2 = graph.apply_policy(S, pol)
                assert np.max(np.abs(
                    ppr_vector(g2, ALPHA, z) - vec
                )) <= 1e-7
                recoveries += 1
        assert recoveries >= 5
        announce(9, f"normalization, reward identity, and {recoveries} "
                    f"integral recovery identities verified")


class TestCriterion10Determinism:
    def test_manifest_rerun_byte_identical(self, tmp_path):
        G = graph.generate_sbm(14, 2, 0.6, 0.1, seed=2)
        labels = graph.sbm_block_labels(14, 2)
        gpath = tmp_path / "graph.tsv"
        lpath = tmp_path / "labels.tsv"
        with gpath.open("w") as fh:
            for s, d in G.edges:
                fh.write(f"{s}\t{d}\n")
        with lpath.open("w") as fh:
            for v, c in enumerate(labels):
                fh.write(f"{v}\t{c}\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"mode = certify-local\nalpha = 0.85\npaths.graph = {gpath}\n"
            f"paths.labels = {lpath}\npaths.output = {tmp_path / 'a'}\n"
            "scenario.mode = remove-only\nscenario.strength = 5\n"
        )
        assert cli_main(["--config", str(cfg)]) == 0
        manifest = tmp_path / "a" / "manifest.json"
        assert cli_main([
            "--from-manifest", str(manifest),
            "--set", f"paths.output={tmp_path / 'b'}",
        ]) == 0
        a = (tmp_path / "a" / "certificates.jsonl").read_bytes()
        b = (tmp_path / "b" / "certificates.jsonl").read_bytes()
        assert a == b
        assert (tmp_path / "a" / "summary.csv").read_bytes() == \
            (tmp_path / "b" / "summary.csv").read_bytes()
        records = [json.loads(line) for line in a.decode().splitlines()]
        assert len(records) == 14
        announce(10, "manifest rerun reproduced certificate and summary "
                     "files byte-identically")
