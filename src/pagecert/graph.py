"""Graph storage, threat-model construction, and synthetic graph generation.

Edges are directed (src, dst) pairs with 0-based contiguous node ids. A
perturbation scenario splits the universe of edges into a fixed set the
attacker cannot touch and a fragile set whose presence the attacker controls,
subject to per-node and global budgets.
"""

from __future__ import annotations

import logging
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)


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
        dedupe: bool = False,
    ) -> "DirectedGraph":
        if node_count <= 0:
            raise GraphFormatError("graph must have at least one node")
        e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if e.size:
            if e.min() < 0 or e.max() >= node_count:
                raise GraphFormatError(
                    f"edge endpoint out of range [0, {node_count})"
                )
            if not allow_self_loops and np.any(e[:, 0] == e[:, 1]):
                bad = int(e[np.nonzero(e[:, 0] == e[:, 1])[0][0], 0])
                raise GraphFormatError(f"self-loop at node {bad} not allowed")
        keys = encode_edges(e, node_count)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        dup = np.count_nonzero(keys[1:] == keys[:-1]) if keys.size else 0
        if dup:
            if not dedupe:
                raise GraphFormatError(f"{dup} duplicate edges")
            logger.warning("deduplicated %d duplicate edges", dup)
            keys = np.unique(keys)
        e = decode_keys(keys, node_count)
        deg = np.bincount(e[:, 0], minlength=node_count).astype(np.int64)
        return cls(node_count, _readonly(e), _readonly(deg))

    @property
    def edge_count(self) -> int:
        return int(self.edges.shape[0])

    def edge_keys(self) -> np.ndarray:
        """Sorted int64 keys of all edges."""
        return encode_edges(self.edges, self.node_count)


@dataclass(frozen=True, eq=False)
class EdgePolicy:
    """A subset of a scenario's fragile edges marked as flipped.

    A fragile edge is present in the perturbed graph iff (present in the
    clean graph) XOR (flipped).
    """

    flips: np.ndarray  # (k, 2) int64, sorted by (src, dst)

    @classmethod
    def empty(cls) -> "EdgePolicy":
        return cls(_readonly(np.empty((0, 2), dtype=np.int64)))

    @classmethod
    def from_pairs(cls, pairs) -> "EdgePolicy":
        e = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if e.size:
            order = np.lexsort((e[:, 1], e[:, 0]))
            e = e[order]
        return cls(_readonly(e))

    def __len__(self) -> int:
        return int(self.flips.shape[0])

    def as_set(self) -> set[tuple[int, int]]:
        return {(int(s), int(d)) for s, d in self.flips}


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
        if not self.fragile_edges.size:
            return np.zeros(self.node_count, dtype=np.int64)
        return np.bincount(self.fragile_edges[:, 0], minlength=self.node_count)

    def fragile_index_of(self, pairs) -> np.ndarray:
        """Indices into fragile_edges for given pairs; raises if any missing."""
        keys = encode_edges(self.fragile_edges, self.node_count)
        probe = encode_edges(np.asarray(pairs, dtype=np.int64), self.node_count)
        pos = np.searchsorted(keys, probe)
        ok = (pos < keys.size) & (keys[np.minimum(pos, keys.size - 1)] == probe)
        if not np.all(ok):
            bad = decode_keys(probe[~ok][:1], self.node_count)[0]
            raise ScenarioValidationError(
                f"edge ({bad[0]}, {bad[1]}) is not a fragile edge"
            )
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
    fixed: np.ndarray,
    fragile: np.ndarray,
    base: np.ndarray,
    local_budget: np.ndarray,
    global_budget: int | None,
) -> PerturbationScenario:
    """Validate parts and assemble an immutable scenario."""
    n = node_count
    fixed_keys = np.unique(encode_edges(fixed, n)) if fixed.size else np.empty(0, np.int64)
    frag_keys = np.unique(encode_edges(fragile, n)) if fragile.size else np.empty(0, np.int64)
    base_keys = np.unique(encode_edges(base, n)) if base.size else np.empty(0, np.int64)
    if np.intersect1d(fixed_keys, frag_keys).size:
        raise ScenarioValidationError("fixed and fragile edge sets overlap")

    fixed = decode_keys(fixed_keys, n)
    fragile = decode_keys(frag_keys, n)
    fixed_out = np.bincount(fixed[:, 0], minlength=n) if fixed.size else np.zeros(n, np.int64)
    if np.any(fixed_out == 0):
        bad = int(np.nonzero(fixed_out == 0)[0][0])
        raise ScenarioValidationError(
            f"node {bad} has no fixed outgoing edge; every node needs one to "
            "keep the walk well-defined under any perturbation"
        )
    missing_fixed = np.setdiff1d(fixed_keys, base_keys)
    if missing_fixed.size:
        logger.warning(
            "%d fixed edges are not present in the clean graph (asymmetric "
            "input?); the unperturbed baseline will differ from the clean graph",
            missing_fixed.size,
        )
    uncovered = np.setdiff1d(base_keys, np.union1d(fixed_keys, frag_keys))
    if uncovered.size:
        raise ScenarioValidationError(
            f"{uncovered.size} clean edges are neither fixed nor fragile; they "
            "would be silently dropped from every perturbed graph"
        )

    frag_out = np.bincount(fragile[:, 0], minlength=n) if fragile.size else np.zeros(n, np.int64)
    b = np.asarray(local_budget, dtype=np.int64)
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

    in_base = np.isin(frag_keys, base_keys)
    return PerturbationScenario(
        node_count=n,
        fixed_edges=_readonly(fixed),
        fragile_edges=_readonly(fragile),
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
    u = np.minimum(e[:, 0], e[:, 1])
    v = np.maximum(e[:, 0], e[:, 1])
    keep = u != v
    u, v = u[keep], v[keep]
    keys = np.unique(u * np.int64(G.node_count) + v)
    pairs = decode_keys(keys, G.node_count)

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
    base = G.edges
    if mode in ("remove-only", "add-and-remove"):
        if fixed_edges is not None or fragile_edges is not None:
            raise ScenarioValidationError(f"mode {mode!r} builds its own edge sets")
        tree = _spanning_tree_pairs(G)
        both = np.concatenate([tree, tree[:, ::-1]]) if tree.size else tree
        fixed_keys = np.unique(encode_edges(both, n)) if both.size else np.empty(0, np.int64)
        if mode == "remove-only":
            frag_keys = np.setdiff1d(G.edge_keys(), fixed_keys)
        else:
            all_keys = (np.arange(n, dtype=np.int64)[:, None] * n
                        + np.arange(n, dtype=np.int64)[None, :]).ravel()
            loops = np.arange(n, dtype=np.int64) * n + np.arange(n, dtype=np.int64)
            frag_keys = np.setdiff1d(all_keys, np.union1d(fixed_keys, loops))
        fixed = decode_keys(fixed_keys, n)
        fragile = decode_keys(frag_keys, n)
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
    else:
        raise ScenarioValidationError(f"unknown scenario mode {mode!r}")

    frag_out = (np.bincount(fragile[:, 0], minlength=n)
                if fragile.size else np.zeros(n, np.int64))
    if local_budgets is not None:
        if strength is not None:
            raise ScenarioValidationError("give either strength or local_budgets, not both")
        b = np.asarray(local_budgets, dtype=np.int64)
    elif strength is not None:
        b = np.maximum(G.out_degree - 11 + int(strength), 0)
    else:
        b = frag_out.astype(np.int64)  # unconstrained locally
    return _make_scenario(n, fixed, fragile, base, b, global_budget)


def apply_policy(G: DirectedGraph, S: PerturbationScenario, P: EdgePolicy) -> DirectedGraph:
    """Materialize the perturbed graph encoded by an edge policy.

    The result has edge set E_f union F_plus, where F_plus holds the fragile
    edges whose final state is present.
    """
    flipped = np.zeros(S.fragile_count, dtype=bool)
    if len(P):
        flipped[S.fragile_index_of(P.flips)] = True
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
    (kept_ids[new_id] == old_id).
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


def load_graph(
    path,
    symmetrize: bool = False,
    restrict_lcc: bool = False,
    allow_self_loops: bool = False,
) -> DirectedGraph:
    """Read an edge-list file: one "src<TAB>dst" pair per line, '#' comments.

    Duplicate edges are deduplicated with a logged count. With symmetrize,
    the reverse of every edge is added (recommended for citation graphs).
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
    if not edges:
        raise GraphFormatError(f"{path}: empty graph")
    e = np.asarray(edges, dtype=np.int64)
    n = int(e.max()) + 1
    keys = np.unique(encode_edges(e, n))
    dup = e.shape[0] - keys.size
    if dup:
        logger.warning("%s: deduplicated %d duplicate edges", path, dup)
    if symmetrize:
        rev = decode_keys(keys, n)[:, ::-1]
        keys = np.union1d(keys, encode_edges(rev, n))
    G = DirectedGraph.from_edges(n, decode_keys(keys, n),
                                 allow_self_loops=allow_self_loops)
    if restrict_lcc:
        G, _ = largest_connected_component(G)
    return G


def load_labels(path, node_count: int) -> np.ndarray:
    """Read "node<TAB>label" lines into an int array (-1 where unlabeled)."""
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
        y[v] = lab
    return y


def dump_scenario(S: PerturbationScenario, path) -> None:
    """Write a scenario as structured text for reproducibility.

    Keys: node_count, global_budget, local_budget (per node), fixed,
    fragile, base (one edge per line).
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        fh.write("# pagecert scenario v1\n")
        fh.write(f"node_count {S.node_count}\n")
        fh.write(f"global_budget {S.global_budget}\n")
        for v, b in enumerate(S.local_budget):
            fh.write(f"local_budget {v} {int(b)}\n")
        for s, d in S.fixed_edges:
            fh.write(f"fixed {int(s)} {int(d)}\n")
        for s, d in S.fragile_edges:
            fh.write(f"fragile {int(s)} {int(d)}\n")
        for s, d in S.base_edges:
            fh.write(f"base {int(s)} {int(d)}\n")


def load_scenario(path) -> PerturbationScenario:
    """Inverse of dump_scenario; a malformed line, a negative budget or a
    node id outside [0, node_count) is an error naming path:line."""
    path = Path(path)
    n = None
    bg = None
    arity = {"node_count": 1, "global_budget": 1, "local_budget": 2,
             "fixed": 2, "fragile": 2, "base": 2}
    # key -> (lineno, node or src, budget or dst) per line
    rows: dict[str, list[tuple[int, int, int]]] = {
        "local_budget": [], "fixed": [], "fragile": [], "base": []}
    for lineno, line in read_lines(path, ScenarioValidationError):
        key, *fields = line.split()
        if key not in arity:
            raise ScenarioValidationError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            vals = [int(f) for f in fields]
        except ValueError:
            vals = None
        if (vals is None or len(vals) != arity[key]
                or key == "node_count" and vals[0] < 1):
            raise ScenarioValidationError(f"{path}:{lineno}: malformed line")
        if key in ("local_budget", "global_budget") and vals[-1] < 0:
            raise ScenarioValidationError(
                f"{path}:{lineno}: budgets must be nonnegative")
        if key == "node_count":
            n = vals[0]
        elif key == "global_budget":
            bg = vals[0]
        else:
            rows[key].append((lineno, *vals))
    if n is None:
        raise ScenarioValidationError(f"{path}: missing node_count")
    parts = {}
    for key, got in rows.items():
        a = np.asarray(got, dtype=np.int64).reshape(-1, 3)
        ids = a[:, 1:2] if key == "local_budget" else a[:, 1:]
        bad = np.nonzero(((ids < 0) | (ids >= n)).any(axis=1))[0]
        if bad.size:
            raise ScenarioValidationError(
                f"{path}:{a[bad[0], 0]}: node id outside [0, {n})")
        parts[key] = a[:, 1:]
    b = np.zeros(n, dtype=np.int64)
    b[parts["local_budget"][:, 0]] = parts["local_budget"][:, 1]
    return _make_scenario(n, parts["fixed"], parts["fragile"], parts["base"], b, bg)
