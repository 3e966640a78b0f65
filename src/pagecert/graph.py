"""Graph storage, threat-model construction, and synthetic graph generation.

Edges are directed (src, dst) pairs with 0-based contiguous node ids. A
perturbation scenario splits the universe of edges into a fixed set the
attacker cannot touch and a fragile set whose presence the attacker controls,
subject to per-node and global budgets. A policy, the attacker's choice, is
the read-only (k, 2) int64 array of the fragile edges it flips, sorted by
(src, dst): a fragile edge is present in the perturbed graph iff (present in
the clean graph) XOR (flipped).
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

# the most nodes whose edge keys src * N + dst, at most N**2 - 1, fit in int64
MAX_NODE_COUNT = 3037000499   # isqrt(2**63)


class GraphFormatError(ValueError):
    """Malformed graph/label input or an invalid edge set."""


class ScenarioValidationError(ValueError):
    """Perturbation scenario violates a structural requirement."""


def encode_edges(edges: np.ndarray, node_count: int) -> np.ndarray:
    """Map (src, dst) rows to unique int64 keys src * N + dst."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return e[:, 0] * np.int64(node_count) + e[:, 1]


def decode_keys(keys: np.ndarray, node_count: int) -> np.ndarray:
    keys = np.asarray(keys, dtype=np.int64)
    return np.column_stack((keys // node_count, keys % node_count))


def edge_key_set(edges, node_count: int) -> tuple[np.ndarray, int]:
    """The sorted distinct keys of (src, dst) rows, and how many rows repeat
    an earlier one: one sort, then a compare of each key with its neighbour."""
    keys = np.sort(encode_edges(edges, node_count))
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    dup = keys.size - int(np.count_nonzero(first))
    return (keys[first] if dup else keys), dup


# one (src, dst) int64 row as a single element, so that a boolean mask copies
# whole rows in one pass
_EDGE_RECORD = np.dtype((np.void, 16))


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Immutable directed graph in edge-list form.

    ``edges`` is an (m, 2) int64 array sorted by (src, dst) with no
    duplicates; ``out_degree`` is recomputed from it.
    """

    node_count: int
    edges: np.ndarray
    out_degree: np.ndarray

    @classmethod
    def from_edges(
        cls,
        node_count: int,
        edges,
        allow_self_loops: bool = False,
    ) -> "DirectedGraph":
        if node_count <= 0:
            raise GraphFormatError("graph must have at least one node")
        if node_count > MAX_NODE_COUNT:
            raise GraphFormatError(f"node count {node_count} above {MAX_NODE_COUNT}, "
                                   "the most whose edge keys fit in int64")
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if e.size:
            if e.min() < 0 or e.max() >= node_count:
                raise GraphFormatError(
                    f"edge endpoint out of range [0, {node_count})"
                )
            if not allow_self_loops and np.any(e[:, 0] == e[:, 1]):
                bad = int(e[np.nonzero(e[:, 0] == e[:, 1])[0][0], 0])
                raise GraphFormatError(f"self-loop at node {bad} not allowed")
        keys, dup = edge_key_set(e, node_count)
        if dup:
            raise GraphFormatError(f"{dup} duplicate edges")
        e = decode_keys(keys, node_count)
        deg = np.bincount(e[:, 0], minlength=node_count).astype(np.int64)
        return cls(node_count, _readonly(e), _readonly(deg))

    def edge_keys(self) -> np.ndarray:
        """Sorted int64 keys of all edges."""
        return encode_edges(self.edges, self.node_count)


@dataclass(frozen=True, eq=False)
class PerturbationScenario:
    """Fixed edges, fragile edges, and attack budgets for one threat model.

    ``fragile_in_base[e]`` records whether fragile edge e exists in the clean
    graph, so flips can be counted as perturbations relative to it.
    """

    node_count: int
    fixed_edges: np.ndarray     # (mf, 2) int64 sorted
    fragile_edges: np.ndarray   # (m, 2) int64 sorted
    local_budget: np.ndarray    # (n,) int64
    global_budget: int
    base_edges: np.ndarray      # clean edge set E
    fragile_in_base: np.ndarray  # (m,) bool

    @property
    def fragile_count(self) -> int:
        return int(self.fragile_edges.shape[0])

    def fragile_out_counts(self) -> np.ndarray:
        """|F^v| per node."""
        return np.bincount(self.fragile_edges[:, 0], minlength=self.node_count)

    def fragile_index_of(self, pairs) -> np.ndarray:
        """Indices into fragile_edges of (src, dst) pairs; raises naming the
        first that is not one (an endpoint outside [0, n) included)."""
        n = self.node_count
        e = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        keys = encode_edges(self.fragile_edges, n)
        probe = encode_edges(e, n)
        pos = np.searchsorted(keys, probe)
        ok = np.all((e >= 0) & (e < n), axis=1) & (pos < keys.size)
        ok[ok] = keys[pos[ok]] == probe[ok]
        if not np.all(ok):
            bad = e[np.argmin(ok)]
            raise ScenarioValidationError(
                f"edge ({bad[0]}, {bad[1]}) is not a fragile edge")
        return pos

    @cached_property
    def _merged_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The disjoint, sorted fixed and fragile lists merged into one
        (src, dst)-sorted list of edge records, the row of each fragile
        edge in it, and the mask of the fixed rows."""
        n = self.node_count
        rows = (np.searchsorted(encode_edges(self.fixed_edges, n),
                                encode_edges(self.fragile_edges, n))
                + np.arange(self.fragile_count))
        fixed = np.ones(self.fixed_edges.shape[0] + self.fragile_count, dtype=bool)
        fixed[rows] = False
        merged = np.empty((fixed.size, 2), dtype=np.int64)
        merged[rows] = self.fragile_edges
        merged[fixed] = self.fixed_edges
        return merged.view(_EDGE_RECORD).ravel(), rows, fixed


def _make_scenario(
    node_count: int,
    fixed_keys: np.ndarray,
    frag_keys: np.ndarray,
    base_keys: np.ndarray,
    local_budget: np.ndarray | None,
    global_budget: int | None,
) -> PerturbationScenario:
    """Validate parts and assemble an immutable scenario from the sorted
    distinct keys of its edge sets (``edge_key_set``); a missing local
    budget means each node's fragile out-count."""
    n = node_count
    if np.isin(fixed_keys, frag_keys, assume_unique=True).any():
        raise ScenarioValidationError("fixed and fragile edge sets overlap")

    fixed_out = np.bincount(fixed_keys // n, minlength=n)
    if np.any(fixed_out == 0):
        bad = int(np.nonzero(fixed_out == 0)[0][0])
        raise ScenarioValidationError(
            f"node {bad} has no fixed outgoing edge; every node needs one to "
            "keep the walk well-defined under any perturbation"
        )
    fixed_in_base = np.count_nonzero(np.isin(fixed_keys, base_keys, assume_unique=True))
    if fixed_in_base < fixed_keys.size:
        logger.warning(
            "%d fixed edges are not present in the clean graph (asymmetric "
            "input?); the unperturbed baseline will differ from the clean graph",
            fixed_keys.size - fixed_in_base,
        )
    in_base = np.isin(frag_keys, base_keys, assume_unique=True)
    # fixed and fragile are disjoint, so no clean edge is counted twice
    uncovered = base_keys.size - fixed_in_base - np.count_nonzero(in_base)
    if uncovered:
        raise ScenarioValidationError(
            f"{uncovered} clean edges are neither fixed nor fragile; they "
            "would be silently dropped from every perturbed graph"
        )

    frag_out = np.bincount(frag_keys // n, minlength=n)
    b = frag_out if local_budget is None else np.asarray(local_budget, dtype=np.int64)
    if b.shape != (n,):
        raise ScenarioValidationError("local budget must have one entry per node")
    if np.any(b < 0):
        raise ScenarioValidationError("local budgets must be nonnegative")
    clamped = np.minimum(b, frag_out)
    if np.any(clamped != b):
        logger.warning(
            "clamped %d local budgets to the fragile out-edge count",
            int(np.count_nonzero(clamped != b)),
        )
    total = int(frag_keys.size)
    if global_budget is None:
        bg = total
    else:
        bg = int(global_budget)
        if bg < 0:
            raise ScenarioValidationError("global budget must be nonnegative")
        if bg > total:
            logger.warning("global budget %d clamped to |F|=%d", bg, total)
            bg = total

    return PerturbationScenario(
        node_count=n,
        fixed_edges=_readonly(decode_keys(fixed_keys, n)),
        fragile_edges=_readonly(decode_keys(frag_keys, n)),
        local_budget=_readonly(clamped),
        global_budget=bg,
        base_edges=_readonly(decode_keys(base_keys, n)),
        fragile_in_base=_readonly(in_base),
    )


def _spanning_tree_pairs(G: DirectedGraph) -> np.ndarray:
    """Spanning forest of the undirected projection, unit weights.

    Kruskal over undirected pairs sorted by (min endpoint, max endpoint),
    which makes the tree deterministic.
    """
    e = G.edges
    e = np.sort(e[e[:, 0] != e[:, 1]], axis=1)   # (min, max) endpoint pairs
    pairs = decode_keys(edge_key_set(e, G.node_count)[0], G.node_count)

    parent = np.arange(G.node_count)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree = []
    for a, b in pairs:
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[ra] = rb
            tree.append((int(a), int(b)))
    return np.asarray(tree, dtype=np.int64).reshape(-1, 2)


def build_scenario(
    G: DirectedGraph,
    mode: str = "remove-only",
    strength: int | None = None,
    local_budgets=None,
    global_budget: int | None = None,
    fixed_edges=None,
    fragile_edges=None,
) -> PerturbationScenario:
    """Construct a perturbation scenario for a clean graph.

    Modes:
      remove-only     fragile = clean edges off the spanning tree
      add-and-remove  fragile = all non-tree, non-self-loop pairs
      custom          caller supplies fixed_edges and fragile_edges

    For the two standard modes the fixed set is both directions of each
    spanning-tree edge, which keeps every node reachable under any policy.
    Local budgets come either from an explicit per-node table or from the
    attack-strength rule b_v = max(d_v - 11 + strength, 0) on clean
    out-degrees. A missing global budget means unlimited (B = |F|).
    """
    n = G.node_count
    base_keys = G.edge_keys()
    if mode in ("remove-only", "add-and-remove"):
        if fixed_edges is not None or fragile_edges is not None:
            raise ScenarioValidationError(f"mode {mode!r} builds its own edge sets")
        tree = _spanning_tree_pairs(G)
        fixed_keys, _ = edge_key_set(np.concatenate([tree, tree[:, ::-1]]), n)
        if mode == "remove-only":
            frag_keys = np.setdiff1d(base_keys, fixed_keys, assume_unique=True)
        else:
            pairs = np.ones(n * n, dtype=bool)
            pairs[fixed_keys] = False
            pairs[::n + 1] = False   # self-loops
            frag_keys = np.flatnonzero(pairs)
    elif mode == "custom":
        if fixed_edges is None or fragile_edges is None:
            raise ScenarioValidationError("custom mode needs fixed_edges and fragile_edges")
        fixed = np.asarray(fixed_edges, dtype=np.int64).reshape(-1, 2)
        fragile = np.asarray(fragile_edges, dtype=np.int64).reshape(-1, 2)
        # flipped_graph trusts the scenario's edges, and an endpoint outside
        # [0, n) would alias another edge's key
        for what, e in (("fixed", fixed), ("fragile", fragile)):
            if e.size and (e.min() < 0 or e.max() >= n):
                raise ScenarioValidationError(
                    f"{what} edge endpoint out of range [0, {n})")
        fixed_keys, _ = edge_key_set(fixed, n)
        frag_keys, _ = edge_key_set(fragile, n)
    else:
        raise ScenarioValidationError(f"unknown scenario mode {mode!r}")

    if local_budgets is not None and strength is not None:
        raise ScenarioValidationError("give either strength or local_budgets, not both")
    b = local_budgets  # None: unconstrained locally, the fragile out-count
    if strength is not None:
        b = np.maximum(G.out_degree - 11 + int(strength), 0)
    return _make_scenario(n, fixed_keys, frag_keys, base_keys, b, global_budget)


def apply_policy(S: PerturbationScenario, flips) -> DirectedGraph:
    """Materialize the perturbed graph in which the fragile edges listed in
    flips, (src, dst) rows, are flipped.

    The result has edge set E_f union F_plus, where F_plus holds the fragile
    edges whose final state is present.
    """
    flipped = np.zeros(S.fragile_count, dtype=bool)
    flipped[S.fragile_index_of(flips)] = True
    return flipped_graph(S, flipped)


def flipped_graph(S: PerturbationScenario, flipped: np.ndarray) -> DirectedGraph:
    """The perturbed graph for a boolean flip mask over S.fragile_edges.

    Its edges are S's merged edge list with the absent fragile edges masked
    out, so they are already sorted and need no validation.
    """
    records, rows, keep = S._merged_edges
    keep = keep.copy()
    keep[rows] = S.fragile_in_base ^ flipped
    e = records[keep].view(np.int64).reshape(-1, 2)
    deg = np.bincount(e[:, 0], minlength=S.node_count).astype(np.int64)
    return DirectedGraph(S.node_count, _readonly(e), _readonly(deg))


def generate_sbm(
    n: int, blocks: int, p_in: float, p_out: float, seed: int
) -> DirectedGraph:
    """Stochastic block model with symmetric edge pairs.

    Each undirected pair is drawn once (p_in within a block, p_out across)
    and emitted in both directions. Deterministic given the seed.
    """
    if n < blocks:
        raise GraphFormatError(f"n={n} smaller than block count {blocks}")
    if not (0.0 <= p_out <= p_in <= 1.0):
        raise GraphFormatError("need 0 <= p_out <= p_in <= 1")
    labels = sbm_block_labels(n, blocks)
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    p = np.where(same, p_in, p_out)
    mask = rng.random(iu.size) < p
    iu, ju = iu[mask], ju[mask]
    edges = np.concatenate(
        [np.column_stack((iu, ju)), np.column_stack((ju, iu))]
    )
    return DirectedGraph.from_edges(n, edges)


def sbm_block_labels(n: int, blocks: int) -> np.ndarray:
    """Contiguous block assignment used by generate_sbm."""
    sizes = np.full(blocks, n // blocks, dtype=np.int64)
    sizes[: n % blocks] += 1
    return np.repeat(np.arange(blocks, dtype=np.int64), sizes)


def largest_connected_component(G: DirectedGraph) -> tuple[DirectedGraph, np.ndarray]:
    """Restrict to the largest weakly connected component.

    Returns the relabeled subgraph and the array of kept original node ids
    (kept_ids[new_id] == old_id). Among components of equal size the one
    with the smallest node id is kept.
    """
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    e = G.edges
    a = sp.coo_matrix(
        (np.ones(e.shape[0]), (e[:, 0], e[:, 1])),
        shape=(G.node_count, G.node_count),
    )
    _, comp = connected_components(a, directed=True, connection="weak")
    counts = np.bincount(comp)
    keep = comp == int(np.argmax(counts))
    kept_ids = np.nonzero(keep)[0]
    remap = -np.ones(G.node_count, dtype=np.int64)
    remap[kept_ids] = np.arange(kept_ids.size)
    mask = keep[e[:, 0]] & keep[e[:, 1]]
    sub = np.column_stack((remap[e[mask, 0]], remap[e[mask, 1]]))
    return DirectedGraph.from_edges(int(kept_ids.size), sub, allow_self_loops=True), kept_ids


def read_lines(path, error: type[Exception]) -> Iterator[tuple[int, str]]:
    """Yield (lineno, stripped text) for each line of a UTF-8 text file,
    skipping blank and '#' lines; a line that is not UTF-8 raises ``error``
    naming path:line."""
    with Path(path).open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError:
                raise error(f"{path}:{lineno}: not UTF-8 text") from None
            if line and not line.startswith("#"):
                yield lineno, line


def load_graph(path, symmetrize: bool = False) -> DirectedGraph:
    """Read an edge-list file: one "src<TAB>dst" pair per line, '#' comments.

    Duplicate edges are deduplicated with a logged count; a self-loop is
    refused. With symmetrize, the reverse of every edge is added
    (recommended for citation graphs).
    """
    path = Path(path)
    edges = []
    for lineno, line in read_lines(path, GraphFormatError):
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"{path}:{lineno}: expected 'src\\tdst', got {line!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphFormatError(
                f"{path}:{lineno}: non-integer node id in {line!r}"
            ) from None
        # a negative id, or one whose edge keys overflow int64, would alias
        # another edge's key
        if min(edges[-1]) < 0:
            raise GraphFormatError(f"{path}:{lineno}: negative node id in {line!r}")
        if max(edges[-1]) >= MAX_NODE_COUNT:
            raise GraphFormatError(f"{path}:{lineno}: node id above "
                                   f"{MAX_NODE_COUNT - 1} in {line!r}")
    if not edges:
        raise GraphFormatError(f"{path}: empty graph")
    e = np.asarray(edges, dtype=np.int64)
    n = int(e.max()) + 1
    keys, dup = edge_key_set(e, n)
    if dup:
        logger.warning("%s: deduplicated %d duplicate edges", path, dup)
    if symmetrize:
        keys, _ = edge_key_set(np.concatenate([e, e[:, ::-1]]), n)
    return DirectedGraph.from_edges(n, decode_keys(keys, n))


def load_labels(path, node_count: int) -> np.ndarray:
    """Read "node<TAB>label" lines into an int array (-1 where unlabeled);
    a node may repeat only with the same label, and a class id is below
    node_count, as the N x K logits are sized by the largest one."""
    path = Path(path)
    y = np.full(node_count, -1, dtype=np.int64)
    for lineno, line in read_lines(path, GraphFormatError):
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"{path}:{lineno}: expected 'node\\tlabel'")
        try:
            v, lab = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"{path}:{lineno}: non-integer field") from None
        if not 0 <= v < node_count:
            raise GraphFormatError(f"{path}:{lineno}: node {v} out of range")
        if lab < 0:
            raise GraphFormatError(f"{path}:{lineno}: negative class id {lab}")
        if lab >= node_count:
            raise GraphFormatError(f"{path}:{lineno}: class id {lab} not below "
                                   f"the node count {node_count}")
        if y[v] not in (-1, lab):
            raise GraphFormatError(f"{path}:{lineno}: node {v} has label {y[v]} "
                                   f"on an earlier line, {lab} here")
        y[v] = lab
    return y


def dump_scenario(S: PerturbationScenario, path) -> None:
    """Write a scenario as structured text for reproducibility.

    Keys: node_count, global_budget, local_budget (per node), fixed,
    fragile, base (one edge per line).
    """
    budgets = np.column_stack((np.arange(S.node_count), S.local_budget))
    sections = [("local_budget", budgets), ("fixed", S.fixed_edges),
                ("fragile", S.fragile_edges), ("base", S.base_edges)]
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write("# pagecert scenario v1\n")
        fh.write(f"node_count {S.node_count}\n")
        fh.write(f"global_budget {S.global_budget}\n")
        # one format per block of lines: the Python ints of a whole
        # add-and-remove fragile set would take hundreds of MB
        block = 1 << 16
        for key, rows in sections:
            for i in range(0, len(rows), block):
                part = rows[i:i + block]
                fh.write(f"{key} %d %d\n" * len(part) % tuple(part.ravel().tolist()))
