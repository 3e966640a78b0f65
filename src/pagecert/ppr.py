"""Sparse linear-system kernels: PageRank vectors, mean rewards, diffused margins.

All three operations reduce to solving (I - a*M) x = rhs where M is the
row-stochastic transition matrix P = D^-1 A or its transpose. The spectral
radius of a*M is at most a < 1, so a stationary fixed-point iteration
converges geometrically; graphs of up to DENSE_LIMIT nodes use a dense LU
solve instead. The graph's size alone picks the solver; no option does.

solve_transport also takes a sequence of graphs on the same nodes, one
right-hand-side column each, as policy iteration solves every live class
pair's graph in one call per round. The dense path stacks their matrices
into one LU call (per DENSE_STACK_BYTES of matrices); the stationary path
builds one block-diagonal CSR of all the graphs (transition_matrix takes a
sequence too), iterates it and takes each block's value at the iteration
where it first passes its own stop test. Either way each column is bit for
bit what a single-graph call returns.

scipy is loaded only where it is used: transition_matrix (the stationary
path above DENSE_LIMIT) and graph.largest_connected_component. Local and
global certificates and training on a graph of at most DENSE_LIMIT nodes
run on numpy alone.

Orientation: the PageRank vector is computed with the transpose,
pi(z) = (1-a) (I - a*P^T)^-1 z, which is the orientation under which the
reward identity r^T pi(z) = (1-a) z^T x holds exactly for the mean-reward
vector x solving (I - a*P) x = r.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import DirectedGraph

if TYPE_CHECKING:
    import scipy.sparse as sp

DENSE_LIMIT = 512
DENSE_STACK_BYTES = 1 << 25   # bytes of matrices per stacked dense LU solve
RESIDUAL_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Iterative solve failed to reach the residual tolerance."""


class KernelInputError(ValueError):
    """Invalid graph, damping factor, or right-hand side."""


@dataclass(frozen=True, eq=False)
class PageRankVector:
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class ValueVector:
    values: np.ndarray


def _edge_weights(G: DirectedGraph) -> np.ndarray:
    """1/out_degree of each edge's source, in G.edges order (sorted by
    source, so one repeat per node); errors on zero out-degree nodes."""
    deg = G.out_degree
    if np.any(deg == 0):
        bad = int(np.nonzero(deg == 0)[0][0])
        raise KernelInputError(f"node {bad} has no outgoing edge")
    return np.repeat(1.0 / deg, deg)


def transition_matrix(G: DirectedGraph | Sequence[DirectedGraph]) -> sp.csr_matrix:
    """Row-stochastic P = D^-1 A; errors on zero out-degree nodes.

    Given a sequence of graphs on the same n nodes, the block-diagonal CSR
    of their P, block j on rows j*n .. (j+1)*n - 1, with int32 indices
    where they fit. Each G.edges is sorted by (src, dst) without
    duplicates, so its dst column is already the block's CSR column index
    array and its row pointers are the cumulative out-degrees; the arrays
    are filled in place.
    """
    import scipy.sparse as sp

    graphs = [G] if isinstance(G, DirectedGraph) else list(G)
    if not graphs or any(g.node_count != graphs[0].node_count for g in graphs):
        raise KernelInputError("need one or more graphs on the same nodes")
    n = graphs[0].node_count
    nnz = sum(g.edge_count for g in graphs)
    dim = len(graphs) * n
    idx = np.int32 if max(nnz, dim) < np.iinfo(np.int32).max else np.int64
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=idx)
    indptr = np.zeros(dim + 1, dtype=idx)
    lo = 0
    for j, g in enumerate(graphs):
        hi = lo + g.edge_count
        data[lo:hi] = _edge_weights(g)
        indices[lo:hi] = g.edges[:, 1]
        indices[lo:hi] += j * n
        rows = indptr[j * n + 1:(j + 1) * n + 1]
        np.cumsum(g.out_degree, out=rows)
        rows += lo
        lo = hi
    return sp.csr_matrix((data, indices, indptr), shape=(dim, dim))


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise KernelInputError(f"alpha must be in (0, 1), got {alpha}")
    return float(alpha)


def _iteration_cap(alpha: float) -> int:
    return max(50, 10 * math.ceil(math.log(RESIDUAL_TOL) / math.log(alpha)))


def solve_transport(
    G: DirectedGraph | Sequence[DirectedGraph],
    alpha: float,
    rhs: np.ndarray,
    transpose: bool = False,
) -> np.ndarray:
    """Solve (I - alpha * P[^T]) x = rhs for one or many right-hand sides.

    G is one graph, with rhs of shape (n,) or (n, k), or a sequence of q
    graphs on the same n nodes, with rhs of shape (n, q): column j is solved
    on graphs[j], bit for bit as a single-graph call would solve it. Dense
    LU up to DENSE_LIMIT nodes, stationary iteration above.
    """
    alpha = _check_alpha(alpha)
    rhs = np.asarray(rhs, dtype=np.float64)
    single = isinstance(G, DirectedGraph)
    if single:
        graphs, n = [G], G.node_count
        # one block holding all its columns
        b = rhs.reshape(1, n, -1)
    else:
        graphs = list(G)
        n = graphs[0].node_count if graphs else 0
        if (not graphs or rhs.shape != (n, len(graphs))
                or any(g.node_count != n for g in graphs)):
            raise KernelInputError(
                f"{len(graphs)} graphs on {n} nodes need an ({n}, {len(graphs)}) "
                f"right-hand side, got {rhs.shape}"
            )
        # one block per graph, holding its own column
        b = np.ascontiguousarray(rhs.T).reshape(len(graphs), n, 1)
    if n <= DENSE_LIMIT:
        x = _dense_solve(graphs, alpha, b, transpose)
    else:
        x = _stationary_solve(graphs, alpha, b, transpose)
    if not single:
        return x[:, :, 0].T
    return x[0, :, 0] if rhs.ndim == 1 else x[0]


def _dense_solve(graphs, alpha: float, b: np.ndarray, transpose: bool) -> np.ndarray:
    """x[j] = (I - alpha * P_j[^T])^-1 b[j], one stacked LU solve per chunk
    of at most DENSE_STACK_BYTES of matrices."""
    q, n, _ = b.shape
    x = np.empty_like(b)
    step = max(1, DENSE_STACK_BYTES // (8 * n * n))
    for lo in range(0, q, step):
        chunk = graphs[lo:lo + step]
        # I - alpha * P[^T] built in one array; every entry, self-loops
        # included, equals that of np.eye(n) - alpha * P[^T] bit for bit
        M = np.zeros((len(chunk), n, n))
        for j, G in enumerate(chunk):
            src, dst = G.edges.T
            if transpose:
                src, dst = dst, src
            M[j, src, dst] = -(alpha * _edge_weights(G))
        M.reshape(len(chunk), n * n)[:, :: n + 1] += 1.0
        bj = b[lo:lo + step]
        x[lo:lo + step] = np.linalg.solve(M, bj)
        res = _relative_residual(M @ x[lo:lo + step] - bj, bj)
        if res > RESIDUAL_TOL * 1e3:
            raise ConvergenceError(f"dense solve residual {res:.3e}")
    return x


def _stationary_solve(graphs, alpha: float, b: np.ndarray, transpose: bool) -> np.ndarray:
    """x[j] = (I - alpha * P_j[^T])^-1 b[j] by fixed-point iteration on one
    block-diagonal operator. Block j's value is taken when all its columns
    first pass the stop test; the blocks are independent, so the ones still
    running are not affected by the iterations the finished ones go on
    taking."""
    q, n, c = b.shape
    A = transition_matrix(graphs)
    if transpose:
        A = A.T.tocsr()
    x_out = np.empty_like(b)
    finished = np.zeros(q, dtype=bool)
    scale = np.maximum(np.linalg.norm(b, axis=1), 1e-300)
    b = b.reshape(q * n, c)
    x = b.copy()
    cap = _iteration_cap(alpha)
    for _ in range(cap):
        x_next = A @ x
        x_next *= alpha
        x_next += b
        # residual of x_next is bounded by alpha * ||x_next - x||
        delta = np.linalg.norm((x_next - x).reshape(q, n, c), axis=1)
        x = x_next
        now = ~finished & np.all(alpha * delta <= RESIDUAL_TOL * scale, axis=1)
        if now.any():
            x_out[now] = x.reshape(q, n, c)[now]
            finished |= now
            if finished.all():
                return x_out
    res = _relative_residual((x - alpha * (A @ x) - b).reshape(q, n, c)[~finished],
                             b.reshape(q, n, c)[~finished])
    raise ConvergenceError(
        f"stationary iteration hit the {cap}-iteration cap with "
        f"relative residual {res:.3e}"
    )


def _relative_residual(res: np.ndarray, b: np.ndarray) -> float:
    """Largest column residual relative to its rhs; both (..., n, c)."""
    num = np.linalg.norm(res, axis=-2)
    den = np.maximum(np.linalg.norm(b, axis=-2), 1e-300)
    return float(np.max(num / den))


def check_teleport(z: np.ndarray, node_count: int) -> np.ndarray:
    """z as a float array, if it is a probability vector over node_count nodes."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (node_count,):
        raise KernelInputError("teleport vector has wrong length")
    if not np.all(np.isfinite(z)):
        raise KernelInputError("teleport vector must be finite")
    if z.min() < -1e-12 or abs(z.sum() - 1.0) > 1e-8:
        raise KernelInputError("teleport vector must be a probability distribution")
    return z


def ppr_vector(G: DirectedGraph, alpha: float, z: np.ndarray) -> PageRankVector:
    """Topic-sensitive PageRank for teleport distribution z."""
    z = check_teleport(z, G.node_count)
    x = solve_transport(G, alpha, z, transpose=True)
    pi = (1.0 - alpha) * x
    if pi.min() < -1e-12:
        raise ConvergenceError(f"negative PageRank entry {pi.min():.3e}")
    pi = np.maximum(pi, 0.0)
    if abs(pi.sum() - 1.0) > 1e-8:
        raise ConvergenceError(f"PageRank mass {pi.sum():.12f} != 1")
    return PageRankVector(values=pi)


def mean_reward(G: DirectedGraph, alpha: float, r: np.ndarray) -> ValueVector:
    """Mean reward before teleportation: solves (I - alpha*D^-1*A) x = r."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (G.node_count,):
        raise KernelInputError("reward vector has wrong length")
    if not np.all(np.isfinite(r)):
        raise KernelInputError("reward vector must be finite")
    x = solve_transport(G, alpha, r, transpose=False)
    return ValueVector(values=x)


def diffused_margins(G: DirectedGraph, alpha: float, h: np.ndarray) -> np.ndarray:
    """pi(e_t)^T h for every target t at once, as (1-alpha) * mean reward.

    h may be a single length-N vector or an (N, k) stack of columns; the
    result has the same shape.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.shape[0] != G.node_count:
        raise KernelInputError("logit vector has wrong length")
    if not np.all(np.isfinite(h)):
        raise KernelInputError("logit values must be finite")
    return (1.0 - alpha) * solve_transport(G, alpha, h, transpose=False)


def ppr_rows(G: DirectedGraph, alpha: float, targets) -> np.ndarray:
    """Personalized PageRank vectors pi(e_t) for a batch of targets.

    Returns an array of shape (len(targets), N); row i is pi(e_targets[i]).
    """
    targets = np.asarray(targets, dtype=np.int64).ravel()
    if np.any((targets < 0) | (targets >= G.node_count)):
        raise KernelInputError(f"targets must be node ids in [0, {G.node_count})")
    Z = np.zeros((G.node_count, targets.size))
    Z[targets, np.arange(targets.size)] = 1.0
    X = solve_transport(G, alpha, Z, transpose=True)
    pi = (1.0 - alpha) * X.T
    return np.maximum(pi, 0.0)


def diffuse_transpose(G: DirectedGraph, alpha: float, s: np.ndarray) -> np.ndarray:
    """(1-alpha) (I - alpha*P^T)^-1 s for an arbitrary vector or matrix s.

    This is the adjoint of margin diffusion, used to backpropagate
    through diffused logits.
    """
    s = np.asarray(s, dtype=np.float64)
    return (1.0 - alpha) * solve_transport(G, alpha, s, transpose=True)
