"""The certificate table, its JSON-lines files, and the summary metrics over it."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from .graph import DirectedGraph, edge_key_set

# the certificate table's columns and their types: the JSON-lines keys in
# order, then "witness", each row's flip array, written as "witness_flips"
COLUMNS = {"node": np.int64, "y": np.int64, "worst_class": np.int64,
           "worst_margin": np.float64, "status": object, "bound_type": object,
           "marginal": bool, "attack_verified": bool, "witness": object}
# the keys every record has, local or global, before its route's flag
HEAD_KEYS = tuple(COLUMNS)[:6]
INT64 = range(-2**63, 2**63)   # the Python ints that fit in an int64
# equal-width purity buckets over [0, 1] in the summary's purity breakdown
PURITY_BUCKETS = 5
# the most one- and two-hop paths _purities expands at once, unless one node
# has more: its index arrays then stay within a few tens of MB
PURITY_BLOCK_PATHS = 1 << 18


class CertificateFormatError(ValueError):
    """A certificates file line that is not a record for the loaded graph."""


def certificate_table(**columns) -> np.recarray:
    """The certificates as one record array, a row per certified node.

    The columns come in the order given, each as its COLUMNS type. A route's
    table has the HEAD_KEYS columns, its flag ("marginal" for the local
    route, "attack_verified" for the global one) and "witness", an object
    array of (k, 2) flip arrays; a table read back from a file has the
    HEAD_KEYS columns. Rows iterate as np.record with attribute access.
    """
    return np.rec.fromarrays([np.asarray(v, COLUMNS[k]) for k, v in columns.items()],
                             names=list(columns))


def _flips_json(flips: np.ndarray) -> str:
    """json.dumps(flips.tolist()) of a (k, 2) integer array, by one format."""
    if not len(flips):
        return "[]"
    rows = ", ".join(["[%d, %d]"] * len(flips))
    return "[" + rows % tuple(flips.ravel().tolist()) + "]"


def write_certificates_jsonl(records, path) -> None:
    """One line per row of a route's table: json.dumps of its columns as a
    dict, in column order, with the witness last as "witness_flips"; each
    distinct witness array (the local rows of one class pair share one) is
    serialised once and spliced in."""
    # every column but the witness; zip stops there, before the row's witness
    names = records.dtype.names[:-1]
    flips_json: dict[int, tuple[np.ndarray, str]] = {}
    with Path(path).open("w", encoding="utf-8") as fh:
        for row, flips in zip(records.tolist(), records.witness):
            # the array is kept in the entry, so its id is not reused
            if id(flips) not in flips_json:
                flips_json[id(flips)] = (flips, _flips_json(flips))
            head = json.dumps(dict(zip(names, row)))
            fh.write(f'{head[:-1]}, "witness_flips": {flips_json[id(flips)][1]}}}\n')


def read_certificates_jsonl(path) -> np.recarray:
    """The HEAD_KEYS columns of every line's record, as a certificate table.

    A line is an error naming path:line unless it is a JSON object with
    every HEAD_KEYS key, each of its column's type: node, y and worst_class
    ints in the int64 range, worst_margin a finite float64 number, status
    and bound_type strings.
    """
    columns: dict[str, list] = {k: [] for k in HEAD_KEYS}
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
                    and all(type(rec[k]) is int and rec[k] in INT64
                            for k in ("node", "y", "worst_class"))
                    and type(rec["worst_margin"]) in (int, float)
                    # false for NaN, infinities and ints beyond float64
                    and abs(rec["worst_margin"]) <= sys.float_info.max
                    and type(rec["status"]) is str
                    and type(rec["bound_type"]) is str):
                raise CertificateFormatError(
                    f"{path}:{lineno}: not a certificate record")
            for k, col in columns.items():
                col.append(rec[k])
    return certificate_table(**columns)


def check_nodes(records, node_count: int, path) -> None:
    """Reject the first record whose node is not in [0, node_count)."""
    node = records.node
    bad = node[(node < 0) | (node >= node_count)]
    if bad.size:
        raise CertificateFormatError(
            f"{path}: node {bad[0]} outside [0, {node_count}) of the graph")


def certified_ratio(records) -> float:
    if not len(records):
        return 0.0
    return np.count_nonzero(records.status == "robust") / len(records)


def certified_accuracy(records, true_labels) -> float:
    """Fraction of scored nodes that are certified robust and whose defended
    class matches the true label: a lower bound on worst-case accuracy."""
    true_labels = np.asarray(true_labels, dtype=np.int64)
    if not len(records):
        return 0.0
    good = np.count_nonzero((records.status == "robust")
                            & (records.y == true_labels[records.node]))
    return good / len(records)


def neighborhood_purity(G: DirectedGraph, labels: np.ndarray, v: int) -> float:
    """Share of same-class nodes in v's undirected two-hop neighborhood.

    v itself is excluded; an empty neighborhood gives 0.
    """
    return float(_purities(G, labels)[int(v)])


def _purities(G: DirectedGraph, labels) -> np.ndarray:
    """neighborhood_purity of every node: the distinct (v, w) pairs of the
    paths v-w and v-u-w of the undirected graph, v != w, counted per v.

    The paths are expanded for blocks of whole source nodes v, at most
    PURITY_BLOCK_PATHS of them per block unless one node has more.
    """
    n = G.node_count
    labels = np.asarray(labels, dtype=np.int64)
    # sorted (src, dst) keys are also the CSR neighbour lists
    keys, _ = edge_key_set(np.concatenate([G.edges, G.edges[:, ::-1]]), n)
    src, dst = np.divmod(keys, n)
    start = np.searchsorted(src, np.arange(n + 1))
    # edge (v, u) has one path v-u and one v-u-w per neighbour w of u;
    # before_node[v]: the paths of every edge of the nodes before v
    width = start[dst + 1] - start[dst]
    before_node = np.concatenate([[0], np.cumsum(width + 1)])[start]
    total = np.zeros(n, dtype=np.int64)
    same = np.zeros(n, dtype=np.int64)
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(
            before_node, before_node[lo] + PURITY_BLOCK_PATHS, side="right")) - 1)
        e = slice(start[lo], start[hi])
        s, d, wd = src[e], dst[e], width[e]
        at = np.repeat(start[d] - np.cumsum(wd) + wd, wd)
        pairs, _ = edge_key_set(np.column_stack((
            np.concatenate([s, np.repeat(s, wd)]),
            np.concatenate([d, dst[at + np.arange(at.size)]]))), n)
        v, w = np.divmod(pairs, n)
        other = v != w
        total[lo:hi] = np.bincount(v[other] - lo, minlength=hi - lo)
        same[lo:hi] = np.bincount(v[other & (labels[v] == labels[w])] - lo,
                                  minlength=hi - lo)
        lo = hi
    return np.divide(same, total, out=np.zeros(n), where=total > 0)


def build_report(records, G: DirectedGraph, labels=None) -> list[tuple[str, float]]:
    """summary.csv's (metric, value) rows: the certified ratio, the
    certified accuracy, the certified ratio per out-degree and the mean
    worst margin per purity bucket. Accuracy and purity need labels, a
    class for every node of G."""
    rows = [("certified_ratio", float(certified_ratio(records)))]
    if labels is not None:
        rows.append(("certified_accuracy", float(certified_accuracy(records, labels))))
    nodes = records.node
    degree = G.out_degree[nodes]
    robust = np.bincount(degree, weights=records.status == "robust")
    total = np.bincount(degree)
    rows += [(f"degree_{d}_ratio", float(robust[d] / total[d]))
             for d in np.flatnonzero(total)]
    if labels is not None:
        edges = np.linspace(0.0, 1.0, PURITY_BUCKETS + 1)
        margins = records.worst_margin
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
