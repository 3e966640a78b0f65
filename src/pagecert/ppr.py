"""Sparse linear-system kernels: PageRank vectors, mean rewards, diffused margins.

All three operations reduce to solving (I - a*M) x = rhs where M is the
row-stochastic transition matrix P = D^-1 A or its transpose. The spectral
radius of a*M is at most a < 1, so a stationary fixed-point iteration
converges geometrically; graphs of up to DENSE_LIMIT nodes use a dense LU
solve instead. The graph's size alone picks the solver; no option does.

scipy is loaded only where it is used: transition_matrix (the stationary
path above DENSE_LIMIT), the relaxed-LP route (qclp_global, lp_solver) and
graph.largest_connected_component. Local certificates and training on a
graph of at most DENSE_LIMIT nodes run on numpy alone.

Orientation: the PageRank vector is computed with the transpose,
pi(z) = (1-a) (I - a*P^T)^-1 z, which is the orientation under which the
reward identity r^T pi(z) = (1-a) z^T x holds exactly for the mean-reward
vector x solving (I - a*P) x = r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import DirectedGraph

if TYPE_CHECKING:
    import scipy.sparse as sp

DENSE_LIMIT = 512
RESIDUAL_TOL = 1e-10


class ConvergenceError(RuntimeError):
    """Iterative solve failed to reach the residual tolerance."""


class KernelInputError(ValueError):
    """Invalid graph, damping factor, or right-hand side."""


@dataclass(frozen=True, eq=False)
class PageRankVector:
    values: np.ndarray
    alpha: float
    teleport: np.ndarray


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


def transition_matrix(G: DirectedGraph) -> sp.csr_matrix:
    """Row-stochastic P = D^-1 A; errors on zero out-degree nodes.

    G.edges is sorted by (src, dst) without duplicates, so its dst column is
    already the CSR column index array and the row pointers are the
    cumulative out-degrees.
    """
    import scipy.sparse as sp

    data = _edge_weights(G)
    indptr = np.concatenate(([0], np.cumsum(G.out_degree)))
    return sp.csr_matrix(
        (data, G.edges[:, 1], indptr), shape=(G.node_count, G.node_count)
    )


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise KernelInputError(f"alpha must be in (0, 1), got {alpha}")
    return float(alpha)


def _iteration_cap(alpha: float) -> int:
    return max(50, 10 * math.ceil(math.log(RESIDUAL_TOL) / math.log(alpha)))


def solve_transport(
    G: DirectedGraph,
    alpha: float,
    rhs: np.ndarray,
    transpose: bool = False,
) -> np.ndarray:
    """Solve (I - alpha * P[^T]) x = rhs for one or many right-hand sides.

    rhs may be (n,) or (n, k). Dense LU up to DENSE_LIMIT nodes, stationary
    iteration above.
    """
    alpha = _check_alpha(alpha)
    rhs = np.asarray(rhs, dtype=np.float64)
    squeeze = rhs.ndim == 1
    b = rhs.reshape(G.node_count, -1)
    if G.node_count <= DENSE_LIMIT:
        # I - alpha * P[^T] built in one array; every entry, self-loops
        # included, equals that of np.eye(n) - alpha * P[^T] bit for bit
        src, dst = G.edges.T
        if transpose:
            src, dst = dst, src
        M = np.zeros((G.node_count, G.node_count))
        M[src, dst] = -(alpha * _edge_weights(G))
        M.flat[:: G.node_count + 1] += 1.0
        x = np.linalg.solve(M, b)
        res = _relative_residual(M @ x - b, b)
        if res > RESIDUAL_TOL * 1e3:
            raise ConvergenceError(f"dense solve residual {res:.3e}")
    else:
        P = transition_matrix(G)
        if transpose:
            P = P.T.tocsr()
        x = b.copy()
        cap = _iteration_cap(alpha)
        scale = np.maximum(np.linalg.norm(b, axis=0), 1e-300)
        converged = False
        for _ in range(cap):
            x_next = b + alpha * (P @ x)
            # residual of x_next is bounded by alpha * ||x_next - x||
            delta = np.linalg.norm(x_next - x, axis=0)
            x = x_next
            if np.all(alpha * delta <= RESIDUAL_TOL * scale):
                converged = True
                break
        if not converged:
            res = _relative_residual(x - alpha * (P @ x) - b, b)
            raise ConvergenceError(
                f"stationary iteration hit the {cap}-iteration cap with "
                f"relative residual {res:.3e}"
            )
    return x[:, 0] if squeeze else x


def _relative_residual(res: np.ndarray, b: np.ndarray) -> float:
    num = np.linalg.norm(res, axis=0)
    den = np.maximum(np.linalg.norm(b, axis=0), 1e-300)
    return float(np.max(num / den))


def ppr_vector(G: DirectedGraph, alpha: float, z: np.ndarray) -> PageRankVector:
    """Topic-sensitive PageRank for teleport distribution z."""
    z = np.asarray(z, dtype=np.float64)
    if z.shape != (G.node_count,):
        raise KernelInputError("teleport vector has wrong length")
    if not np.all(np.isfinite(z)):
        raise KernelInputError("teleport vector must be finite")
    if z.min() < -1e-12 or abs(z.sum() - 1.0) > 1e-8:
        raise KernelInputError("teleport vector must be a probability distribution")
    x = solve_transport(G, alpha, z, transpose=True)
    pi = (1.0 - alpha) * x
    if pi.min() < -1e-12:
        raise ConvergenceError(f"negative PageRank entry {pi.min():.3e}")
    pi = np.maximum(pi, 0.0)
    if abs(pi.sum() - 1.0) > 1e-8:
        raise ConvergenceError(f"PageRank mass {pi.sum():.12f} != 1")
    return PageRankVector(values=pi, alpha=float(alpha), teleport=z.copy())


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
