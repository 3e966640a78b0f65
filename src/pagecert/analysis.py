"""Aggregate metrics and plot-ready tables over certificate records."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import DirectedGraph
from .policy_iter import LocalCertificate
from .qclp_global import GlobalCertificate

# the keys every record has, local or global, before its flips
HEAD_KEYS = ("node", "y", "worst_class", "worst_margin", "status", "bound_type")
# equal-width purity buckets over [0, 1] in the summary's purity breakdown
PURITY_BUCKETS = 5


class CertificateFormatError(ValueError):
    """A certificates file line that is not a record for the loaded graph."""


def _record_head(rec) -> tuple[dict, np.ndarray]:
    """Every key of a record but the last, "witness_flips", and its flips."""
    if isinstance(rec, LocalCertificate):
        return {
            "node": int(rec.node),
            "y": int(rec.label),
            "worst_class": int(rec.worst_class),
            "worst_margin": float(rec.worst_margin),
            "status": rec.status,
            "bound_type": "exact",
            "marginal": bool(rec.marginal),
        }, rec.witness
    if isinstance(rec, GlobalCertificate):
        return {
            "node": int(rec.node),
            "y": int(rec.label),
            "worst_class": int(rec.worst_class),
            "worst_margin": float(rec.lower_bound_margin),
            "status": rec.status,
            "bound_type": "lower",
            "attack_verified": bool(rec.attack_verified),
        }, rec.rounded_attack
    raise TypeError(f"not a certificate record: {type(rec)!r}")


def record_to_dict(rec) -> dict:
    """Flatten a certificate into the JSON-lines schema (stable key order)."""
    head, flips = _record_head(rec)
    return {**head, "witness_flips": flips.tolist()}


def _flips_json(flips: np.ndarray) -> str:
    """json.dumps(flips.tolist()) of a (k, 2) integer array, by one format."""
    if not len(flips):
        return "[]"
    rows = ", ".join(["[%d, %d]"] * len(flips))
    return "[" + rows % tuple(flips.ravel().tolist()) + "]"


def _write_spliced_jsonl(path, rows, key: str) -> None:
    """One json.dumps({**head, key: flips.tolist()}) line per (head, flips).

    Rows often share one flips array (the local records of one class pair
    share their witness), so each distinct array is serialised once and
    spliced in as the last key.
    """
    flips_json: dict[int, tuple[np.ndarray, str]] = {}
    with Path(path).open("w", encoding="utf-8") as fh:
        for head, flips in rows:
            # the array is kept in the entry, so its id is not reused
            if id(flips) not in flips_json:
                flips_json[id(flips)] = (flips, _flips_json(flips))
            fh.write(f'{json.dumps(head)[:-1]}, "{key}": '
                     f"{flips_json[id(flips)][1]}}}\n")


def write_certificates_jsonl(records, path) -> None:
    """One json.dumps(record_to_dict(rec)) line per record."""
    _write_spliced_jsonl(path, map(_record_head, records), "witness_flips")


def write_attacks_jsonl(records, path) -> None:
    """One {"node", "worst_margin", "flips"} line per non-robust local
    certificate with a non-empty witness."""
    _write_spliced_jsonl(path, (
        ({"node": int(c.node), "worst_margin": float(c.worst_margin)},
         c.witness)
        for c in records if c.status == "nonrobust" and len(c.witness)
    ), "flips")


def read_certificates_jsonl(path) -> list[dict]:
    """Each line's record; a line that is not a JSON object with every
    HEAD_KEYS key, an integer node and a worst_margin that is a finite
    float64 number is an error naming path:line."""
    out = []
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:           # bad JSON or bad UTF-8
                rec = None
            if not (isinstance(rec, dict) and all(k in rec for k in HEAD_KEYS)
                    and type(rec["node"]) is int
                    and type(rec["worst_margin"]) in (int, float)
                    # false for NaN, infinities and ints beyond float64
                    and abs(rec["worst_margin"]) <= sys.float_info.max):
                raise CertificateFormatError(
                    f"{path}:{lineno}: not a certificate record")
            out.append(rec)
    return out


def check_nodes(records: list[dict], node_count: int, path) -> None:
    """Reject the first record whose node is not in [0, node_count)."""
    for r in records:
        if not 0 <= r["node"] < node_count:
            raise CertificateFormatError(
                f"{path}: node {r['node']} outside [0, {node_count}) of the graph")


def _heads(records) -> list[dict]:
    """Each record as its JSON-lines head; records read back from a file
    already have that shape."""
    return [r if isinstance(r, dict) else _record_head(r)[0] for r in records]


def certified_ratio(records) -> float:
    heads = _heads(records)
    if not heads:
        return 0.0
    return sum(r["status"] == "robust" for r in heads) / len(heads)


def certified_accuracy(records, true_labels) -> float:
    """Fraction of scored nodes that are certified robust and whose defended
    class matches the true label: a lower bound on worst-case accuracy."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    heads = _heads(records)
    if not heads:
        return 0.0
    good = sum(
        1 for r in heads
        if r["status"] == "robust" and r["y"] == int(true_labels[r["node"]])
    )
    return good / len(heads)


def neighborhood_purity(G: DirectedGraph, labels: np.ndarray, v: int) -> float:
    """Share of same-class nodes in v's undirected two-hop neighborhood.

    v itself is excluded; an empty neighborhood gives 0.
    """
    return _purity(_undirected_adjacency(G), np.asarray(labels, dtype=np.int64), int(v))


def _undirected_adjacency(G: DirectedGraph) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(G.node_count)]
    for s, d in G.edges.tolist():
        adj[s].add(d)
        adj[d].add(s)
    return adj


def _purity(adj: list[set[int]], labels: np.ndarray, v: int) -> float:
    two = set(adj[v])
    for u in adj[v]:
        two |= adj[u]
    two.discard(v)
    if not two:
        return 0.0
    return sum(1 for u in two if labels[u] == labels[v]) / len(two)


@dataclass(eq=False)
class CertReport:
    records: list
    certified_ratio: float
    certified_accuracy: float | None
    degree_breakdown: list[tuple[int, float]]          # (out-degree, ratio)
    purity_breakdown: list[tuple[float, float]]        # (bucket mid, mean margin)


def build_report(
    records,
    G: DirectedGraph,
    true_labels=None,
    purity_labels=None,
) -> CertReport:
    records = list(records)
    heads = _heads(records)
    ratio = certified_ratio(heads)
    acc = (certified_accuracy(heads, true_labels)
           if true_labels is not None else None)

    by_degree: dict[int, list[bool]] = {}
    for r in heads:
        d = int(G.out_degree[r["node"]])
        by_degree.setdefault(d, []).append(r["status"] == "robust")
    degree_rows = [(d, sum(v) / len(v)) for d, v in sorted(by_degree.items())]

    purity_rows: list[tuple[float, float]] = []
    if purity_labels is not None:
        labels = np.asarray(purity_labels, dtype=np.int64)
        adj = _undirected_adjacency(G)
        edges = np.linspace(0.0, 1.0, PURITY_BUCKETS + 1)
        buckets: dict[int, list[float]] = {}
        for r in heads:
            pur = _purity(adj, labels, int(r["node"]))
            k = min(int(np.searchsorted(edges, pur, side="right")) - 1,
                    PURITY_BUCKETS - 1)
            buckets.setdefault(max(k, 0), []).append(r["worst_margin"])
        purity_rows = [
            (float((edges[k] + edges[k + 1]) / 2), float(np.mean(vals)))
            for k, vals in sorted(buckets.items())
        ]
    return CertReport(records, ratio, acc, degree_rows, purity_rows)


def write_table_csv(path, header: list[str], rows) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                format(v, ".17g") if isinstance(v, float) else str(v)
                for v in row
            ) + "\n")


def write_summary_csv(report: CertReport, path) -> None:
    rows = [("certified_ratio", float(report.certified_ratio))]
    if report.certified_accuracy is not None:
        rows.append(("certified_accuracy", float(report.certified_accuracy)))
    for d, ratio in report.degree_breakdown:
        rows.append((f"degree_{d}_ratio", float(ratio)))
    for mid, margin in report.purity_breakdown:
        rows.append((f"purity_{mid:.2f}_mean_margin", float(margin)))
    write_table_csv(path, ["metric", "value"], rows)
