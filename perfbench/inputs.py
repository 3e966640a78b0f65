"""Seeded synthetic inputs for the benchmark (numpy only).

The generator lives here, not in ``pagecert.graph.generate_sbm``, so that a
change to the program cannot move the workloads. Every graph is one
connected stochastic block model: each block gets a random recursive
spanning tree, consecutive blocks are joined by one edge, and the remaining
within-block and cross-block pairs are drawn without replacement in exact
counts, so graphs of one workload differ in layout but not in size. Node
ids are the input ids the CLI sees; ``graph.lcc`` is not needed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class GraphSpec:
    nodes: int
    blocks: int
    edges_in: int       # undirected within-block pairs, spanning trees included
    edges_out: int      # undirected cross-block pairs, block links included
    labeled_per_block: int | None = None   # None labels every node
    feature_noise: float | None = None     # None writes no feature file


def _pair_keys(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return lo * np.int64(n) + hi


def _draw(rng, candidates: np.ndarray, taken: np.ndarray, count: int) -> np.ndarray:
    free = np.setdiff1d(candidates, taken)
    if count > free.size:
        raise ValueError(f"asked for {count} pairs, only {free.size} free")
    return rng.choice(free, size=count, replace=False)


def generate(spec: GraphSpec, seed: int, tag: str):
    """Edges (undirected pairs, lo < hi), block labels, the labeled node set
    and optional features, all determined by (tag, seed)."""
    rng = np.random.default_rng([int(seed), int.from_bytes(tag.encode(), "little")])
    n, k = spec.nodes, spec.blocks
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[: n % k] += 1
    starts = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.repeat(np.arange(k, dtype=np.int64), sizes)

    tree = []
    for b in range(k):
        members = starts[b] + rng.permutation(sizes[b])
        parents = members[(rng.random(sizes[b] - 1) * np.arange(1, sizes[b])).astype(np.int64)]
        tree.append(_pair_keys(members[1:], parents, n))
    links = [_pair_keys(rng.integers(starts[b], starts[b + 1], 1),
                        rng.integers(starts[b + 1], starts[b + 2], 1), n)
             for b in range(k - 1)]
    tree_keys = np.concatenate(tree)
    link_keys = np.concatenate(links) if links else np.empty(0, np.int64)

    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    keys = iu.astype(np.int64) * n + ju
    inner = _draw(rng, keys[same], tree_keys, spec.edges_in - tree_keys.size)
    outer = _draw(rng, keys[~same], link_keys, spec.edges_out - link_keys.size)
    all_keys = np.sort(np.concatenate([tree_keys, link_keys, inner, outer]))
    pairs = np.column_stack((all_keys // n, all_keys % n))

    if spec.labeled_per_block is None:
        labeled = np.arange(n)
    else:
        labeled = np.sort(np.concatenate([
            starts[b] + rng.choice(sizes[b], spec.labeled_per_block, replace=False)
            for b in range(k)
        ]))
    features = None
    if spec.feature_noise is not None:
        features = np.zeros((n, k))
        features[np.arange(n), labels] = 1.0
        features += spec.feature_noise * rng.normal(size=features.shape)
    return pairs, labels, labeled, features


def _connected(pairs: np.ndarray, n: int) -> bool:
    parent = np.arange(n)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in range(n)}) == 1


def write_inputs(spec: GraphSpec, seed: int, tag: str, outdir: Path) -> dict:
    """Write graph.tsv, labels.tsv and (if asked) features.csv; return their
    sha256 digests and the sizes N, |E| (directed, after symmetrising) and
    the remove-only fragile count |E| - 2(N - 1)."""
    pairs, labels, labeled, features = generate(spec, seed, tag)
    if not _connected(pairs, spec.nodes):
        raise RuntimeError("generated graph is not connected")
    outdir.mkdir(parents=True, exist_ok=True)
    files = {"graph": outdir / "graph.tsv", "labels": outdir / "labels.tsv"}
    files["graph"].write_text("".join(f"{a}\t{b}\n" for a, b in pairs), encoding="utf-8")
    files["labels"].write_text(
        "".join(f"{v}\t{labels[v]}\n" for v in labeled), encoding="utf-8")
    if features is not None:
        files["features"] = outdir / "features.csv"
        files["features"].write_text(
            "".join(",".join(format(x, ".17g") for x in row) + "\n" for row in features),
            encoding="utf-8")
    n, e = spec.nodes, 2 * pairs.shape[0]
    return {
        "paths": {name: str(p) for name, p in files.items()},
        "digests": {name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for name, p in files.items()},
        "N": n,
        "E": e,
        "F_remove_only": e - 2 * (n - 1),
        "F_add_and_remove": n * (n - 1) - 2 * (n - 1),
    }
