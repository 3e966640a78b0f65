import json
import tracemalloc

import numpy as np
import pytest

from pagecert.analysis import (
    PURITY_BUCKETS,
    _flips_json,
    _purities,
    build_report,
    certificate_table,
    certified_accuracy,
    certified_ratio,
    neighborhood_purity,
    read_certificates_jsonl,
    write_certificates_jsonl,
    write_summary_csv,
)
from pagecert.graph import DirectedGraph, build_scenario
from pagecert.models import save_logits_csv, load_logits_csv
from pagecert.policy_iter import certify_local_all
from pagecert.qclp_global import certify_global

from conftest import random_instance

ALPHA = 0.85


def table(rows, flag="marginal"):
    """A certificate table of (node, y, worst_margin, status) rows, with
    worst class y + 1 mod 3, empty witnesses and the route's flag false:
    "marginal" for a local table, "attack_verified" for a global one."""
    node, y, margin, status = list(zip(*rows)) or [()] * 4
    witness = np.empty(len(node), dtype=object)
    for i in range(len(node)):
        witness[i] = np.empty((0, 2), dtype=np.int64)
    return certificate_table(
        node=node, y=y, worst_class=(np.asarray(y, np.int64) + 1) % 3,
        worst_margin=margin, status=status,
        bound_type=["exact" if flag == "marginal" else "lower"] * len(node),
        **{flag: np.zeros(len(node), dtype=bool)}, witness=witness)


def record_to_dict(c) -> dict:
    """Reference certificates.jsonl line of one table row, key by key."""
    flag = "marginal" if c.bound_type == "exact" else "attack_verified"
    return {"node": int(c.node), "y": int(c.y), "worst_class": int(c.worst_class),
            "worst_margin": float(c.worst_margin), "status": str(c.status),
            "bound_type": str(c.bound_type), flag: bool(c[flag]),
            "witness_flips": c.witness.tolist()}


class TestCertifiedAccuracy:
    def test_all_robust_all_correct(self):
        records = table([(i, 0, 1.0, "robust") for i in range(4)])
        assert certified_accuracy(records, np.zeros(4, dtype=int)) == 1.0

    def test_none_robust(self):
        records = table([(i, 0, -1.0, "nonrobust") for i in range(4)])
        assert certified_accuracy(records, np.zeros(4, dtype=int)) == 0.0

    def test_mixed_hand_count(self):
        # 10 nodes: 6 robust, of which 4 correctly predicted; 4 nonrobust
        truth = np.array([0, 0, 0, 0, 1, 1, 1, 1, 0, 0])
        rows = []
        for i in range(6):
            rows.append((i, 0, 0.5, "robust"))          # robust, label 0
        for i in range(6, 10):
            rows.append((i, 0, -0.5, "nonrobust"))
        records = table(rows)
        assert certified_accuracy(records, truth) == 4 / 10
        assert certified_ratio(records) == 6 / 10

    def test_never_exceeds_clean_accuracy(self, rng):
        G, S = random_instance(rng, 8, extra=2)
        H = rng.normal(size=(8, 2))
        certs = certify_local_all(G, S, ALPHA, H)
        truth = rng.integers(0, 2, size=8)
        clean_acc = float(np.mean([c.y == truth[c.node] for c in certs]))
        assert certified_accuracy(certs, truth) <= clean_acc + 1e-12


class TestPurity:
    def test_single_class_clique(self):
        edges = [(a, b) for a in range(4) for b in range(4) if a != b]
        G = DirectedGraph.from_edges(4, edges)
        labels = np.zeros(4, dtype=int)
        assert neighborhood_purity(G, labels, 0) == 1.0

    def test_isolated_node_zero(self):
        G = DirectedGraph.from_edges(3, [(0, 1), (1, 0), (2, 1)])
        # node 2 reaches 1 and (two-hop) 0, but nothing links back to 2:
        # undirected view still counts (2, 1); make a truly isolated case
        G2 = DirectedGraph.from_edges(3, [(0, 1), (1, 0), (2, 2)],
                                      allow_self_loops=True)
        labels = np.array([0, 0, 0])
        assert neighborhood_purity(G2, labels, 2) == 0.0

    def test_star_mixed_leaves_hand_count(self):
        # hub 0 with leaves 1..4; labels: hub 0, leaves [0, 0, 1, 1]
        edges = []
        for leaf in range(1, 5):
            edges += [(0, leaf), (leaf, 0)]
        G = DirectedGraph.from_edges(5, edges)
        labels = np.array([0, 0, 0, 1, 1])
        # two-hop of leaf 1: {0, 2, 3, 4}; same class as node 1 -> {0, 2}
        assert neighborhood_purity(G, labels, 1) == 2 / 4
        # hub sees all 4 leaves; same class -> 2
        assert neighborhood_purity(G, labels, 0) == 2 / 4

    def test_purity_in_unit_interval(self, rng):
        G, _ = random_instance(rng, 9, extra=3)
        labels = rng.integers(0, 3, size=9)
        for v in range(9):
            assert 0.0 <= neighborhood_purity(G, labels, v) <= 1.0


def set_purity(G, labels, v):
    """Reference neighborhood_purity: the two-hop set of v by set unions
    over a list of undirected neighbour sets."""
    adj = [set() for _ in range(G.node_count)]
    for s, d in G.edges.tolist():
        adj[s].add(d)
        adj[d].add(s)
    two = set(adj[v])
    for u in adj[v]:
        two |= adj[u]
    two.discard(v)
    if not two:
        return 0.0
    return sum(1 for u in two if labels[u] == labels[v]) / len(two)


def random_graph(rng, n):
    """Random directed graph with self-loops and isolated nodes; the edge
    set is empty about one time in five."""
    m = 0 if rng.random() < 0.2 else int(rng.integers(1, n * n + 1))
    return DirectedGraph.from_edges(
        n, np.unique(rng.integers(0, n, size=(m, 2)), axis=0),
        allow_self_loops=True)


def dict_report(records, G, labels):
    """Reference build_report: the summary rows grouped by dicts of lists,
    one set-based purity per record."""
    heads = [record_to_dict(r) for r in records]
    rows = [("certified_ratio", certified_ratio(records))]
    if labels is not None:
        rows.append(("certified_accuracy", certified_accuracy(records, labels)))
    by_degree = {}
    for r in heads:
        by_degree.setdefault(int(G.out_degree[r["node"]]), []).append(
            r["status"] == "robust")
    rows += [(f"degree_{d}_ratio", sum(v) / len(v)) for d, v in sorted(by_degree.items())]
    if labels is not None:
        edges = np.linspace(0.0, 1.0, PURITY_BUCKETS + 1)
        buckets = {}
        for r in heads:
            pur = set_purity(G, labels, r["node"])
            k = min(int(np.searchsorted(edges, pur, side="right")) - 1,
                    PURITY_BUCKETS - 1)
            buckets.setdefault(max(k, 0), []).append(r["worst_margin"])
        rows += [(f"purity_{float((edges[k] + edges[k + 1]) / 2):.2f}_mean_margin",
                  float(np.mean(v))) for k, v in sorted(buckets.items())]
    return rows


class TestAgainstSetReference:
    def test_purities_bit_identical(self, rng):
        for _ in range(150):
            n = int(rng.integers(1, 13))
            G = random_graph(rng, n)
            labels = rng.integers(-1, 3, size=n)
            pur = _purities(G, labels)
            ref = [set_purity(G, labels, v) for v in range(n)]
            assert pur.tolist() == ref
            assert [neighborhood_purity(G, labels, v) for v in range(n)] == ref

    def test_purities_memory_is_bounded(self):
        # a 2,000-leaf star has 4 million two-hop paths (leaf-hub-leaf);
        # expanded at once, their index arrays peak near 190 MB
        leaves = np.arange(1, 2001)
        hub = np.zeros(2000, dtype=np.int64)
        G = DirectedGraph.from_edges(2001, np.concatenate([
            np.column_stack((hub, leaves)), np.column_stack((leaves, hub))]))
        labels = np.arange(2001) % 3
        tracemalloc.start()
        try:
            pur = _purities(G, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        # every node sees the 2,000 others, a third of them in its class
        same = np.bincount(labels)[labels] - 1
        assert pur.tolist() == (same / 2000).tolist()

    def test_report_rows_match_dict_reference(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 13))
            G = random_graph(rng, n)
            labels = rng.integers(0, 3, size=n)
            local = rng.random() < 0.5
            rows = []
            for v in rng.permutation(n)[:int(rng.integers(0, n + 1))].tolist():
                y = int(labels[v]) if rng.random() < 0.7 else int(rng.integers(0, 3))
                margin = float(rng.choice([rng.normal(), 0.25, -0.25]))
                robust = bool(rng.random() < 0.5)
                rows.append((v, y, margin, "robust" if robust
                             else "nonrobust" if local else "unknown"))
            records = table(rows, "marginal" if local else "attack_verified")
            for given in (None, labels):
                got = build_report(records, G, labels=given)
                assert got == dict_report(records, G, given)
                assert all(type(value) is float for _, value in got)


class TestSerialization:
    def test_jsonl_round_trip(self, tmp_path, rng):
        G, S = random_instance(rng, 6, extra=2)
        H = rng.normal(size=(6, 2))
        certs = certify_local_all(G, S, ALPHA, H)
        p = tmp_path / "c.jsonl"
        write_certificates_jsonl(certs, p)
        back = read_certificates_jsonl(p)
        assert len(back) == 6
        for rec, c in zip(back, certs):
            assert rec["node"] == c.node
            assert rec["status"] == c.status
            assert rec["bound_type"] == "exact"
            assert abs(rec["worst_margin"] - c.worst_margin) == 0.0

    def test_file_is_one_record_to_dict_per_line(self, tmp_path, rng):
        # the writer serialises each shared witness once and splices it in;
        # the bytes must match dumping every record whole
        G, _ = random_instance(rng, 9, extra=4)
        S = build_scenario(G, "remove-only", strength=9, global_budget=3)
        H = rng.normal(size=(9, 3))
        certs = certify_local_all(G, S, ALPHA, H)
        assert len({id(c.witness) for c in certs}) < 9
        assert any(len(c.witness) for c in certs)
        p = tmp_path / "c.jsonl"
        write_certificates_jsonl(certs, p)
        assert p.read_text() == "".join(
            json.dumps(record_to_dict(c)) + "\n" for c in certs)

    def test_global_file_is_one_record_to_dict_per_line(self, tmp_path, rng):
        G, _ = random_instance(rng, 9, extra=4)
        S = build_scenario(G, "remove-only", strength=9, global_budget=3)
        H = rng.normal(size=(9, 3))
        certs = certify_global(G, S, ALPHA, H, targets=[0, 4, 7])
        p = tmp_path / "c.jsonl"
        write_certificates_jsonl(certs, p)
        assert p.read_text() == "".join(
            json.dumps(record_to_dict(c)) + "\n" for c in certs)

    @pytest.mark.parametrize("flips", [
        np.empty((0, 2), np.int64),
        np.array([[3, 7]]),
        np.random.default_rng(0).integers(0, 700, (500, 2)),
        np.array([[0, 2**40], [2**62, 1]]),
    ], ids=["empty", "one-row", "random", "large-ids"])
    def test_flips_json_is_json_dumps(self, flips):
        assert _flips_json(flips) == json.dumps(flips.tolist())

    def test_record_schema_keys(self, tmp_path, rng):
        G, S = random_instance(rng, 5, extra=2)
        H = rng.normal(size=(5, 2))
        certs = certify_local_all(G, S, ALPHA, H)
        assert certs.dtype.names == ("node", "y", "worst_class", "worst_margin",
                                     "status", "bound_type", "marginal", "witness")
        p = tmp_path / "c.jsonl"
        write_certificates_jsonl(certs, p)
        d = json.loads(p.read_text().splitlines()[0])
        assert list(d) == ["node", "y", "worst_class", "worst_margin",
                           "status", "bound_type", "marginal", "witness_flips"]

    def test_report_and_summary(self, tmp_path, rng):
        G, S = random_instance(rng, 6, extra=2)
        H = rng.normal(size=(6, 2))
        certs = certify_local_all(G, S, ALPHA, H)
        labels = rng.integers(0, 2, size=6)
        rows = build_report(certs, G, labels=labels)
        values = dict(rows)
        assert 0.0 <= values["certified_ratio"] <= 1.0
        assert values["certified_accuracy"] <= 1.0
        p = tmp_path / "summary.csv"
        write_summary_csv(rows, p)
        text = p.read_text()
        assert text.startswith("metric,value\n")
        assert "certified_ratio" in text

    def test_logits_file_equivalence(self, tmp_path, rng):
        # certifying from an H computed in process and from the same H
        # loaded off disk must produce byte-identical certificates
        G, S = random_instance(rng, 6, extra=2)
        X = rng.normal(size=(6, 4))
        W = rng.normal(size=(4, 2))
        H = X @ W
        p = tmp_path / "h.csv"
        save_logits_csv(H, p)
        H2 = load_logits_csv(p)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        write_certificates_jsonl(certify_local_all(G, S, ALPHA, H), a)
        write_certificates_jsonl(certify_local_all(G, S, ALPHA, H2), b)
        assert a.read_bytes() == b.read_bytes()
