"""Aggregate metrics and plot-ready tables over certificate records."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .graph import DirectedGraph, edge_key_set
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
    return float(_purities(G, labels)[int(v)])


def _purities(G: DirectedGraph, labels) -> np.ndarray:
    """neighborhood_purity of every node: the distinct (v, w) pairs of the
    paths v-w and v-u-w of the undirected graph, v != w, counted per v."""
    n = G.node_count
    labels = np.asarray(labels, dtype=np.int64)
    # sorted (src, dst) keys are also the CSR neighbour lists
    keys, _ = edge_key_set(np.concatenate([G.edges, G.edges[:, ::-1]]), n)
    src, dst = np.divmod(keys, n)
    start = np.searchsorted(src, np.arange(n + 1))
    # one (v, w) per edge (v, u) and neighbour w of u
    width = start[dst + 1] - start[dst]
    at = np.repeat(start[dst] - np.cumsum(width) + width, width)
    pairs, _ = edge_key_set(np.column_stack((
        np.concatenate([src, np.repeat(src, width)]),
        np.concatenate([dst, dst[at + np.arange(at.size)]]))), n)
    v, w = np.divmod(pairs, n)
    other = v != w
    total = np.bincount(v[other], minlength=n)
    same = np.bincount(v[other & (labels[v] == labels[w])], minlength=n)
    return np.divide(same, total, out=np.zeros(n), where=total > 0)


def build_report(records, G: DirectedGraph, labels=None) -> list[tuple[str, float]]:
    """summary.csv's (metric, value) rows: the certified ratio, the
    certified accuracy, the certified ratio per out-degree and the mean
    worst margin per purity bucket. Accuracy and purity need labels, a
    class for every node of G."""
    heads = _heads(records)
    rows = [("certified_ratio", float(certified_ratio(heads)))]
    if labels is not None:
        rows.append(("certified_accuracy", float(certified_accuracy(heads, labels))))
    nodes = np.array([r["node"] for r in heads], dtype=np.int64)
    degree = G.out_degree[nodes]
    robust = np.bincount(degree, weights=[r["status"] == "robust" for r in heads])
    total = np.bincount(degree)
    rows += [(f"degree_{d}_ratio", float(robust[d] / total[d]))
             for d in np.flatnonzero(total)]
    if labels is not None:
        edges = np.linspace(0.0, 1.0, PURITY_BUCKETS + 1)
        margins = np.array([r["worst_margin"] for r in heads], dtype=np.float64)
        bucket = np.clip(np.searchsorted(
            edges, _purities(G, labels)[nodes], side="right") - 1,
            0, PURITY_BUCKETS - 1)
        rows += [(f"purity_{(edges[k] + edges[k + 1]) / 2:.2f}_mean_margin",
                  float(np.mean(margins[bucket == k])))
                 for k in np.flatnonzero(np.bincount(bucket))]
    return rows


def write_table_csv(path, header: list[str], rows) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(
                format(v, ".17g") if isinstance(v, float) else str(v)
                for v in row
            ) + "\n")


def write_summary_csv(rows, path) -> None:
    write_table_csv(path, ["metric", "value"], rows)
