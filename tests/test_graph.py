import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pagecert.graph import (
    MAX_NODE_COUNT,
    DirectedGraph,
    GraphFormatError,
    ScenarioValidationError,
    apply_policy,
    build_scenario,
    dump_scenario,
    edge_key_set,
    encode_edges,
    flipped_graph,
    generate_sbm,
    largest_connected_component,
    load_graph,
    load_labels,
    sbm_block_labels,
)

from conftest import random_connected_graph, ring_graph


def edge_set(G: DirectedGraph) -> set:
    return {(int(a), int(b)) for a, b in G.edges}


class TestLoadGraph:
    def test_minimal_cycle(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("0\t1\n1\t0\n")
        G = load_graph(p)
        assert G.node_count == 2
        assert len(G.edges) == 2

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("3 a\n")
        with pytest.raises(GraphFormatError, match=":1:"):
            load_graph(p)

    def test_empty_graph_rejected(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("# only comments\n\n")
        with pytest.raises(GraphFormatError, match="empty"):
            load_graph(p)

    def test_duplicates_deduped_with_count(self, tmp_path, caplog):
        p = tmp_path / "g.tsv"
        p.write_text("0\t1\n0\t1\n1\t0\n")
        with caplog.at_level("WARNING"):
            G = load_graph(p)
        assert len(G.edges) == 2
        assert "1 duplicate" in caplog.text

    def test_symmetrize(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("0\t1\n1\t2\n")
        G = load_graph(p, symmetrize=True)
        assert edge_set(G) == {(0, 1), (1, 0), (1, 2), (2, 1)}

    def test_symmetrize_of_symmetric_file_does_not_warn(self, tmp_path, caplog):
        p = tmp_path / "g.tsv"
        p.write_text("0\t1\n1\t0\n")
        with caplog.at_level("WARNING"):
            G = load_graph(p, symmetrize=True)
        assert len(G.edges) == 2
        assert "duplicate" not in caplog.text

    def test_lcc_restriction(self, tmp_path):
        p = tmp_path / "g.tsv"
        # triangle 0-1-2 plus isolated pair 3-4
        p.write_text("0\t1\n1\t0\n1\t2\n2\t1\n2\t0\n0\t2\n3\t4\n4\t3\n")
        G, _ = largest_connected_component(load_graph(p))
        assert G.node_count == 3
        assert len(G.edges) == 6

    @pytest.mark.parametrize("line", ["2\t-1", "-1\t2"])
    def test_negative_node_id_names_line(self, tmp_path, line):
        # "2 -1" used to load as the edge 1 -> 2: its key 2 * 3 - 1 decodes so
        p = tmp_path / "g.tsv"
        p.write_text("0\t1\n1\t0\n" + line + "\n")
        with pytest.raises(GraphFormatError, match=re.escape(f"{p}:3: negative node id")):
            load_graph(p)

    def test_self_loop_flag(self, tmp_path):
        p = tmp_path / "g.tsv"
        p.write_text("0\t0\n0\t1\n1\t0\n")
        with pytest.raises(GraphFormatError, match="self-loop"):
            load_graph(p)

    @pytest.mark.parametrize("line", ["3037000499\t0", "0\t4000000000",
                                      "1\t" + "9" * 30])
    def test_node_id_whose_edge_keys_overflow_names_line(self, tmp_path, line):
        # src * N + dst wraps around int64 once N exceeds 3,037,000,499; the
        # loader used to report a wrapped key's endpoint as out of range, or
        # crash on an id beyond int64
        p = tmp_path / "g.tsv"
        p.write_text(f"0\t1\n3037000498\t0\n{line}\n")
        with pytest.raises(GraphFormatError,
                           match=re.escape(f"{p}:3: node id above 3037000498")):
            load_graph(p)

    def test_node_count_whose_edge_keys_overflow_is_refused(self):
        # the largest key, N**2 - 1, must fit in int64; 2**62 nodes would also
        # ask for an out-degree array larger than any address space
        assert (MAX_NODE_COUNT**2 - 1 <= np.iinfo(np.int64).max
                < (MAX_NODE_COUNT + 1)**2 - 1)
        with pytest.raises(GraphFormatError, match=f"node count {2**62} above"):
            DirectedGraph.from_edges(2**62, [(0, 1)])


class TestBuildScenario:
    def test_budget_formula(self):
        # b_v = max(d_v - 11 + s, 0) on clean out-degrees; hub at the highest
        # id so the spanning tree leaves it plenty of fragile out-edges
        n = 16
        hub = n - 1
        G = ring_graph(n, [(j, hub) for j in range(n - 2)])
        assert G.out_degree[hub] == 15
        S = build_scenario(G, "remove-only", strength=6)
        assert S.local_budget[hub] == 10

    def test_budget_clamps_at_zero(self):
        G = ring_graph(8, [(0, 3)])
        assert G.out_degree[0] == 3
        S = build_scenario(G, "remove-only", strength=5)
        assert S.local_budget[0] == 0

    def test_path_graph_has_no_fragile_edges(self):
        edges = [(i, i + 1) for i in range(3)] + [(i + 1, i) for i in range(3)]
        G = DirectedGraph.from_edges(4, edges)
        S = build_scenario(G, "remove-only", strength=20)
        assert S.fragile_count == 0

    def test_remove_only_sets(self):
        G = ring_graph(5, [(0, 2)])
        S = build_scenario(G, "remove-only")
        fixed = {(int(a), int(b)) for a, b in S.fixed_edges}
        fragile = {(int(a), int(b)) for a, b in S.fragile_edges}
        assert fixed | fragile == edge_set(G)
        assert not fixed & fragile
        assert np.all(S.fragile_in_base)

    def test_add_and_remove_excludes_self_loops(self):
        G = ring_graph(4)
        S = build_scenario(G, "add-and-remove")
        assert all(a != b for a, b in S.fragile_edges)
        fixed = {(int(a), int(b)) for a, b in S.fixed_edges}
        fragile = {(int(a), int(b)) for a, b in S.fragile_edges}
        universe = {(i, j) for i in range(4) for j in range(4) if i != j}
        assert fixed | fragile == universe

    def test_deterministic(self):
        G = ring_graph(9, [(0, 4), (2, 6)])
        a = build_scenario(G, "remove-only", strength=7)
        b = build_scenario(G, "remove-only", strength=7)
        assert np.array_equal(a.fixed_edges, b.fixed_edges)
        assert np.array_equal(a.fragile_edges, b.fragile_edges)
        assert np.array_equal(a.local_budget, b.local_budget)

    def test_zero_fixed_out_degree_rejected(self):
        # node 2 only receives in the custom fixed set
        G = DirectedGraph.from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
        with pytest.raises(ScenarioValidationError, match="node 2"):
            build_scenario(
                G, "custom",
                fixed_edges=[(0, 1), (1, 0), (1, 2)],
                fragile_edges=[(2, 0)],
                local_budgets=[0, 0, 1],
            )

    @pytest.mark.parametrize("fixed, fragile", [
        ([(0, 1), (1, 0), (1, 2), (2, 1)], [(0, 5)]),
        ([(0, 1), (1, 0), (1, 2), (2, 1)], [(2, 5)]),
        ([(0, 1), (1, 0), (1, 2), (2, 1)], [(-1, 1)]),
        ([(0, 1), (1, 0), (1, 2), (2, 3)], [(2, 1)]),
    ], ids=["fragile-aliases-an-edge", "fragile-past-n", "fragile-negative",
            "fixed-past-n"])
    def test_custom_endpoint_out_of_range_rejected(self, fixed, fragile):
        G = DirectedGraph.from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        with pytest.raises(ScenarioValidationError, match=r"out of range \[0, 3\)"):
            build_scenario(G, "custom", fixed_edges=fixed, fragile_edges=fragile)

    def test_uncovered_clean_edges_rejected(self):
        G = DirectedGraph.from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
        with pytest.raises(ScenarioValidationError, match="neither fixed nor fragile"):
            build_scenario(
                G, "custom",
                fixed_edges=[(0, 1), (1, 0), (2, 1)],
                fragile_edges=[],
                local_budgets=[0, 0, 0],
            )

    def test_global_budget_clamped(self, caplog):
        G = ring_graph(5, [(0, 2)])
        with caplog.at_level("WARNING"):
            S = build_scenario(G, "remove-only", global_budget=999)
        assert S.global_budget == S.fragile_count
        assert "clamped" in caplog.text


class TestApplyPolicy:
    def test_empty_policy_is_identity_perturbation(self):
        G = ring_graph(5, [(0, 2), (1, 3)])
        S = build_scenario(G, "remove-only")
        got = apply_policy(S, np.empty((0, 2), dtype=np.int64))
        fixed = {(int(a), int(b)) for a, b in S.fixed_edges}
        frag_in_e = {(int(a), int(b)) for a, b in S.fragile_edges} & edge_set(G)
        assert edge_set(got) == fixed | frag_in_e

    def test_full_flip_removes_everything_removable(self):
        G = ring_graph(6, [(0, 3)])
        S = build_scenario(G, "remove-only")
        got = apply_policy(S, S.fragile_edges)
        assert edge_set(got) == {(int(a), int(b)) for a, b in S.fixed_edges}

    def test_matches_set_algebra_oracle(self, rng):
        # independent construction: start from E, toggle each flipped edge
        G = random_connected_graph(rng, 5, extra=2)
        S = build_scenario(G, "add-and-remove")
        for _ in range(10):
            take = rng.random(S.fragile_count) < 0.3
            P = S.fragile_edges[take]
            expected = set(edge_set(G))
            for a, b in P:
                pair = (int(a), int(b))
                if pair in expected:
                    expected.discard(pair)
                else:
                    expected.add(pair)
            got = apply_policy(S, P)
            assert edge_set(got) == expected

    def test_unknown_flip_rejected(self):
        G = ring_graph(4)
        S = build_scenario(G, "remove-only")
        fixed_pair = tuple(int(v) for v in S.fixed_edges[0])
        with pytest.raises(ScenarioValidationError, match="not a fragile edge"):
            apply_policy(S, [fixed_pair])

    @pytest.mark.parametrize("pair", [(0, 5), (2, -1)])
    def test_out_of_range_pair_is_not_aliased(self, pair):
        # on 3 nodes both pairs encode to key 5, that of fragile edge (1, 2)
        S = build_scenario(ring_graph(3), "remove-only")
        assert [1, 2] in S.fragile_edges.tolist()
        with pytest.raises(ScenarioValidationError,
                           match=re.escape(f"edge {pair} is not a fragile edge")):
            apply_policy(S, [pair])

    def test_remove_only_graphs_bracketed_by_mst_and_e(self, rng):
        G = random_connected_graph(rng, 6, extra=2)
        S = build_scenario(G, "remove-only")
        fixed = {(int(a), int(b)) for a, b in S.fixed_edges}
        for _ in range(5):
            take = rng.random(S.fragile_count) < 0.5
            got = apply_policy(S, S.fragile_edges[take])
            assert fixed <= edge_set(got) <= edge_set(G)
            assert np.all(got.out_degree >= 1)


class TestGenerateSbm:
    def test_complete_graph_at_p_one(self):
        G = generate_sbm(4, 1, 1.0, 0.0, seed=0)
        assert len(G.edges) == 12

    def test_empty_at_p_zero(self):
        G = generate_sbm(100, 2, 0.0, 0.0, seed=0)
        assert len(G.edges) == 0

    def test_edge_count_within_three_sigma(self):
        n, blocks, p_in, p_out = 200, 2, 0.05, 0.005
        labels = sbm_block_labels(n, blocks)
        same = sum(
            1 for i in range(n) for j in range(i + 1, n)
            if labels[i] == labels[j]
        )
        diff = n * (n - 1) // 2 - same
        mean = 2 * (same * p_in + diff * p_out)
        var = 4 * (same * p_in * (1 - p_in) + diff * p_out * (1 - p_out))
        G = generate_sbm(n, blocks, p_in, p_out, seed=7)
        assert abs(len(G.edges) - mean) <= 3 * np.sqrt(var)

    def test_symmetric_pairs(self):
        G = generate_sbm(30, 3, 0.3, 0.02, seed=1)
        s = edge_set(G)
        assert all((b, a) in s for a, b in s)

    def test_deterministic(self):
        a = generate_sbm(50, 2, 0.1, 0.01, seed=3)
        b = generate_sbm(50, 2, 0.1, 0.01, seed=3)
        assert np.array_equal(a.edges, b.edges)

    def test_too_many_blocks(self):
        with pytest.raises(GraphFormatError):
            generate_sbm(2, 3, 0.5, 0.1, seed=0)

    def test_bad_probabilities(self):
        with pytest.raises(GraphFormatError):
            generate_sbm(10, 2, 0.1, 0.5, seed=0)


class TestLcc:
    def test_keeps_largest(self):
        edges = [(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)]
        G = DirectedGraph.from_edges(5, edges)
        sub, kept = largest_connected_component(G)
        assert sub.node_count == 3
        assert list(kept) == [0, 1, 2]

    def test_equal_sizes_keep_the_smallest_node(self):
        # a one-way chain 6 -> 2 -> 1 and 3 <-> 4 <- 5 are weak components
        # of 3 nodes each, node 0 is alone: the one holding node 1 is kept
        edges = [(3, 4), (4, 3), (5, 4), (6, 2), (2, 1)]
        G = DirectedGraph.from_edges(7, edges)
        sub, kept = largest_connected_component(G)
        assert list(kept) == [1, 2, 6]
        assert edge_set(sub) == {(1, 0), (2, 1)}


class TestScenarioRoundTrip:
    def test_file_is_one_line_per_row(self, rng, tmp_path):
        # sections are formatted in blocks of lines; 270 nodes give more
        # fragile pairs than one block holds
        G = random_connected_graph(rng, 270, extra=300)
        S = build_scenario(G, "add-and-remove", strength=3, global_budget=2)
        assert S.fragile_count > 1 << 16
        p = tmp_path / "scenario.txt"
        dump_scenario(S, p)
        lines = ["# pagecert scenario v1", f"node_count {S.node_count}",
                 f"global_budget {S.global_budget}"]
        lines += [f"local_budget {v} {int(b)}" for v, b in enumerate(S.local_budget)]
        for key, edges in [("fixed", S.fixed_edges), ("fragile", S.fragile_edges),
                           ("base", S.base_edges)]:
            lines += [f"{key} {int(a)} {int(b)}" for a, b in edges]
        assert p.read_text(encoding="utf-8") == "".join(f"{ln}\n" for ln in lines)


class TestLabels:
    def test_load(self, tmp_path):
        p = tmp_path / "labels.tsv"
        p.write_text("0\t1\n2\t0\n")
        y = load_labels(p, 4)
        assert list(y) == [1, -1, 0, -1]

    def test_out_of_range(self, tmp_path):
        p = tmp_path / "labels.tsv"
        p.write_text("9\t1\n")
        with pytest.raises(GraphFormatError, match="out of range"):
            load_labels(p, 4)

    def test_negative_class_id(self, tmp_path):
        # a negative id would read as "unlabeled" and drop the node silently
        p = tmp_path / "labels.tsv"
        p.write_text("0\t1\n3\t-3\n")
        with pytest.raises(GraphFormatError, match=re.escape(f"{p}:2: negative class id -3")):
            load_labels(p, 4)

    @pytest.mark.parametrize("lab", [3, 2**62, 10**23])
    def test_class_id_at_or_above_node_count(self, tmp_path, lab):
        # 10**23 used to overflow int64 at y[v] = lab; 2**62 passed, and
        # sized the N x K logits past memory
        p = tmp_path / "labels.tsv"
        p.write_text(f"0\t1\n1\t{lab}\n")
        with pytest.raises(GraphFormatError, match=re.escape(
                f"{p}:2: class id {lab} not below the node count 3")):
            load_labels(p, 3)
        p.write_text("0\t1\n1\t2\n")
        assert list(load_labels(p, 3)) == [1, 2, -1]


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9), st.integers(0, 3), st.integers(0, 2**31 - 1))
def test_policy_flip_involution(n, extra, seed):
    """Flipping a policy twice restores the baseline perturbed graph."""
    rng = np.random.default_rng(seed)
    G = random_connected_graph(rng, n, extra=extra)
    S = build_scenario(G, "remove-only")
    take = rng.random(S.fragile_count) < 0.5
    P = S.fragile_edges[take]
    base = apply_policy(S, np.empty((0, 2), dtype=np.int64))
    once = apply_policy(S, P)
    keys_base = set(encode_edges(base.edges, n).tolist())
    keys_once = set(encode_edges(once.edges, n).tolist())
    flipped_keys = set(encode_edges(P, n).tolist()) if len(P) else set()
    assert keys_once ^ keys_base == flipped_keys


def _scenario(mode: str, n: int, rng: np.random.Generator):
    G = random_connected_graph(rng, n, extra=3)
    if mode != "custom":
        return build_scenario(G, mode)
    # the ring is fixed; the chords and a random set of other pairs,
    # self-loops included, are fragile
    ring = {(i, (i + 1) % n) for i in range(n)} | {((i + 1) % n, i) for i in range(n)}
    others = [(a, b) for a in range(n) for b in range(n)
              if (a, b) not in ring and ((a, b) in edge_set(G) or rng.random() < 0.3)]
    return build_scenario(G, "custom", fixed_edges=sorted(ring),
                          fragile_edges=np.array(others).reshape(-1, 2))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["remove-only", "add-and-remove", "custom"]),
       st.integers(3, 9), st.integers(0, 2**31 - 1))
def test_flipped_graph_matches_sorted_rebuild(mode, n, seed):
    """The merged perturbed graph equals a sort of fixed + present fragile
    edges: same edges, out-degrees, dtypes and read-only flags."""
    rng = np.random.default_rng(seed)
    S = _scenario(mode, n, rng)
    m = S.fragile_count
    for flipped in (np.zeros(m, bool), np.ones(m, bool), rng.random(m) < 0.5):
        got = flipped_graph(S, flipped)
        want = DirectedGraph.from_edges(
            n, np.concatenate([S.fixed_edges, S.fragile_edges[S.fragile_in_base ^ flipped]]),
            allow_self_loops=True)
        assert got.node_count == want.node_count
        for a, b in ((got.edges, want.edges), (got.out_degree, want.out_degree)):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)
            assert not a.flags.writeable and a.flags.c_contiguous


class TestEdgeKeySet:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_np_unique(self, data):
        """Random, empty, repeated and unsorted rows: the same keys and
        duplicate count as np.unique."""
        n = data.draw(st.integers(1, 12))
        node = st.integers(0, n - 1)
        rows = data.draw(st.lists(st.tuples(node, node), max_size=40))
        e = np.array(rows * data.draw(st.integers(1, 3)), dtype=np.int64).reshape(-1, 2)
        keys, dup = edge_key_set(e, n)
        want = np.unique(encode_edges(e, n))
        assert keys.dtype == np.int64 and np.array_equal(keys, want)
        assert dup == e.shape[0] - want.size

    @pytest.mark.parametrize("rows, keys, dup", [
        ([], [], 0),
        ([(2, 1)] * 5, [7], 4),
        ([(2, 2), (2, 1), (1, 0), (0, 2)], [2, 3, 7, 8], 0),
    ], ids=["empty", "all-repeated", "reverse-sorted"])
    def test_cases(self, rows, keys, dup):
        got, got_dup = edge_key_set(np.array(rows, dtype=np.int64).reshape(-1, 2), 3)
        assert got.tolist() == keys and got_dup == dup


def _messy(e: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """e's rows shuffled, with a few of them repeated."""
    if not len(e):
        return e
    return rng.permutation(np.concatenate([e, e[rng.integers(0, len(e), size=3)]]))


def _assert_same_scenario(a, b):
    assert a.node_count == b.node_count and a.global_budget == b.global_budget
    for name in ("fixed_edges", "fragile_edges", "local_budget", "base_edges",
                 "fragile_in_base"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y), name


@settings(max_examples=30, deadline=None)
@given(st.integers(3, 9), st.integers(0, 2**31 - 1))
def test_custom_scenarios_ignore_row_order_and_repeats(n, seed):
    S = _scenario("custom", n, np.random.default_rng(seed))
    G = random_connected_graph(np.random.default_rng(seed), n, extra=3)  # S's graph
    rng = np.random.default_rng(seed + 1)
    messy = build_scenario(G, "custom", fixed_edges=_messy(S.fixed_edges, rng),
                           fragile_edges=_messy(S.fragile_edges, rng))
    _assert_same_scenario(messy, S)


def test_edge_sets_need_no_numpy_set_routines(tmp_path, monkeypatch):
    """Loading and every scenario mode run on sorted keys: no np.unique,
    union1d or intersect1d, and setdiff1d only on unique keys."""
    def banned(*args, **kwargs):
        raise AssertionError("numpy set routine called")

    for name in ("unique", "union1d", "intersect1d"):
        monkeypatch.setattr(np, name, banned)
    setdiff1d = np.setdiff1d

    def unique_setdiff1d(a, b, assume_unique=False):
        assert assume_unique
        return setdiff1d(a, b, assume_unique=True)

    monkeypatch.setattr(np, "setdiff1d", unique_setdiff1d)
    p = tmp_path / "g.tsv"
    p.write_text("0\t1\n1\t2\n2\t3\n3\t0\n0\t2\n0\t1\n4\t0\n")
    G = load_graph(p, symmetrize=True)
    for mode in ("remove-only", "add-and-remove"):
        S = build_scenario(G, mode, strength=12)
        assert S.fragile_count
    S = build_scenario(G, "custom", fixed_edges=S.fixed_edges,
                       fragile_edges=S.fragile_edges[::-1])
    assert S.fragile_count
