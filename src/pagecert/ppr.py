"""Sparse linear-system kernels: PageRank vectors, mean rewards, diffused margins.

All three operations reduce to solving (I - a*M) x = rhs where M is the
row-stochastic transition matrix P = D^-1 A or its transpose. Graphs of up
to DENSE_LIMIT nodes use a dense LU solve; larger ones use BiCGSTAB on the
sparse operator. The graph's size alone picks the solver and the operator;
no option does.

Error bound: both paths return a solution only when the evaluated residual
of each system satisfies ||rhs - (I - a*M) x|| <= (1 - a) * RESIDUAL_TOL *
||rhs|| + e, in the inf-norm for P and the 1-norm for P^T, where e bounds
the rounding error of that evaluation (_rounding_error). In those norms
||(I - a*M)^-1|| = 1/(1 - a), so every solution returned is within
RESIDUAL_TOL * ||rhs|| + 2e / (1 - a) of the exact one; a solve that cannot
show this raises ConvergenceError. Without e the bound would lie below
float64's reach for a near 1 or for high-degree nodes, where the evaluated
residual of even the exact solution exceeds it. At a = 0.85, with at most
40 nonzeros in any row of M, 2e / (1 - a) is under 1% of RESIDUAL_TOL *
||rhs||.

solve_transport also takes many graphs on the same nodes, one
right-hand-side column each, as policy iteration solves every live class
pair's graph in one call per round. It reads them once, in order, so they
may come as a one-pass stream that builds each graph as it is read. The
dense path lists them and stacks their matrices into one LU call (per
DENSE_STACK_BYTES of matrices). The iterative path hands the stream to
transition_matrix, which keeps of each graph only its rows' entry counts,
its column array and its nodes' 1/out_degree, and then lays out one
block-diagonal operator of all the graphs; no graph is held while
BiCGSTAB runs on every (graph, column) system at once, each stopping on
its own. Either way each column is bit for bit what a single-graph call
returns.

Factored graphs: a caller that solves on one graph of at most DENSE_LIMIT
nodes many times (train_robust, and certify_local_all from four clean
systems on) replaces it by factor_clean's FactoredGraph, which carries the
dense I - a*P that the LU path would build and its inverse.
solve_transport serves such a graph's columns, in both orientations, with
one matrix-vector product by the inverse each, and checks them on that
matrix by the dense path's residual test. Such a product is not backward
stable as an LU solve is, and near a = 1 it can miss the bound: a column
that does takes one step of iterative refinement. Every column returned
passes the residual test above, so the same bound holds.

The iterative path's operator is a JaggedMatrix up to JAGGED_LIMIT nodes
and JAGGED_STEPS entries in a row, scipy's CSR above either. The
JaggedMatrix product sums each row in the order of scipy's CSR product,
from +0.0, so it returns scipy's bits without loading scipy, but it costs
2-4x scipy's product, plus a round of numpy calls per entry of the
longest row. Within the limits scipy's import (about 0.1 s and 15 MB)
costs more than that, beyond them less (certify-local, remove-only, one
process: the JaggedMatrix ahead at 1,000 nodes, even at 1,400, and behind
from a row of 128 entries on). The other paths here run on numpy alone.

Orientation: the PageRank vector is computed with the transpose,
pi(z) = (1-a) (I - a*P^T)^-1 z, which is the orientation under which the
reward identity r^T pi(z) = (1-a) z^T x holds exactly for the mean-reward
vector x solving (I - a*P) x = r.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .graph import DirectedGraph

DENSE_LIMIT = 512
JAGGED_LIMIT = 1024           # nodes; scipy's CSR above (module docstring)
JAGGED_STEPS = 64             # entries in a row; scipy's CSR above
DENSE_STACK_BYTES = 1 << 25   # bytes of matrices per stacked dense LU solve
RESIDUAL_TOL = 1e-10          # bound on ||x - x*|| / ||rhs|| (module docstring)


class ConvergenceError(RuntimeError):
    """A solve could not show that its solution is within the error bound."""


class KernelInputError(ValueError):
    """Invalid graph, damping factor, or right-hand side."""


def _source_weights(G: DirectedGraph) -> np.ndarray:
    """1/out_degree of each node; errors on zero out-degree nodes."""
    deg = G.out_degree
    if np.any(deg == 0):
        bad = int(np.nonzero(deg == 0)[0][0])
        raise KernelInputError(f"node {bad} has no outgoing edge")
    return 1.0 / deg


@dataclass(frozen=True, eq=False)
class JaggedMatrix:
    """A square sparse matrix in jagged-diagonal order (Saad, "Iterative
    Methods for Sparse Linear Systems", 2nd ed., SIAM 2003, section 3.4).

    The rows are ordered by entry count, most first; row i takes place
    rank[i] of that order, so the rows holding a k-th entry take places
    0 .. size_k - 1. Step k holds those k-th entries, cols and data
    [ptr[k], ptr[k] + size_k), in that order. A product adds step k's
    products into a zero-initialised accumulator, so each row sums its
    entries in their given order starting from +0.0, as scipy's CSR
    product does, and each column of a many-column y as it would alone.
    """

    rank: np.ndarray                # each row's place, most entries first
    ptr: np.ndarray                 # step bounds into cols and data
    cols: np.ndarray                # intp, which take reads without a copy
    data: np.ndarray

    def __imul__(self, scale: float) -> "JaggedMatrix":
        """Every entry scaled in place, as a scipy matrix's *= does."""
        np.multiply(self.data, scale, out=self.data)
        return self

    def __matmul__(self, y: np.ndarray) -> np.ndarray:
        """The product with y of shape (n,) or (n, c)."""
        acc = np.zeros(y.shape)
        data = self.data if y.ndim == 1 else self.data[:, None]
        bounds = self.ptr.tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            t = y.take(self.cols[lo:hi], axis=0)
            t *= data[lo:hi]
            acc[:hi - lo] += t
        return acc.take(self.rank, axis=0)


def transition_matrix(G: DirectedGraph | Iterable[DirectedGraph],
                      transpose: bool = False):
    """Row-stochastic P = D^-1 A, or P^T; errors on zero out-degree nodes.

    Given graphs on the same n nodes, in a sequence or a one-pass stream,
    the block-diagonal stack of their P[^T], block j on rows j*n ..
    (j+1)*n - 1: a JaggedMatrix up to JAGGED_LIMIT nodes and JAGGED_STEPS
    entries in a row, scipy's CSR otherwise (module docstring). Their
    products agree bit for bit. Each graph is read once, and only its
    _rows are kept while the operator is laid out.
    """
    blocks = [_rows(g, transpose)
              for g in ([G] if isinstance(G, DirectedGraph) else G)]
    if not blocks or any(b[0].size != blocks[0][0].size for b in blocks):
        raise KernelInputError("need one or more graphs on the same nodes")
    counts = np.concatenate([b[0] for b in blocks])
    if blocks[0][0].size > JAGGED_LIMIT or counts.max() > JAGGED_STEPS:
        return _csr(blocks, counts, transpose)
    return _jagged(blocks, counts, transpose)


def _rows(G: DirectedGraph, transpose: bool):
    """All that the operator needs of G's P[^T]: each row's entry count,
    the entries' columns row by row, and each node's 1/out_degree, from
    which _weights gives the entries' values.

    G.edges is sorted by (src, dst) without duplicates, so a row of P
    holds its entries in column order, and a row of P^T in source order
    after a stable sort on the destination: the orders of scipy's
    canonical CSR of P and of its .T.tocsr().
    """
    weight = _source_weights(G)
    if transpose:
        dst = G.edges[:, 1]
        return (np.bincount(dst, minlength=G.node_count),
                G.edges[np.argsort(dst, kind="stable"), 0], weight)
    # a copy, as a view would keep G's edge array alive
    return G.out_degree, G.edges[:, 1].copy(), weight


def _weights(block, transpose: bool) -> np.ndarray:
    """The values of a _rows block's entries, in its order: each entry's
    source's 1/out_degree, the source being the row of P and the column of
    P^T."""
    counts, cols, weight = block
    return weight[cols] if transpose else np.repeat(weight, counts)


def _jagged(blocks, counts: np.ndarray, transpose: bool) -> JaggedMatrix:
    """The JaggedMatrix of the _rows blocks, given every row's entry count.
    Each entry goes straight to its place in the jagged-diagonal arrays,
    one block at a time."""
    n = blocks[0][0].size
    rank = np.empty_like(counts)
    rank[np.argsort(-counts, kind="stable")] = np.arange(counts.size)
    # sizes[k] rows hold a k-th entry
    sizes = counts.size - np.cumsum(np.bincount(counts))[:-1]
    ptr = np.concatenate(([0], np.cumsum(sizes)))
    cols = np.empty(ptr[-1], dtype=counts.dtype)
    data = np.empty(ptr[-1])
    for j, block in enumerate(blocks):
        row_counts, col, _ = block
        # an entry's step is its place within its row
        step = np.arange(col.size) - np.repeat(np.cumsum(row_counts) - row_counts,
                                               row_counts)
        at = ptr[step] + np.repeat(rank[j * n:(j + 1) * n], row_counts)
        cols[at] = col + j * n
        data[at] = _weights(block, transpose)
    return JaggedMatrix(rank, ptr, cols, data)


def _csr(blocks, counts: np.ndarray, transpose: bool):
    """scipy's block-diagonal CSR of the _rows blocks, with int32 indices
    where they fit: the row pointers are the cumulative entry counts, and
    each block's columns and values fill its stretch of the arrays in
    place."""
    import scipy.sparse as sp

    n = blocks[0][0].size
    nnz = int(counts.sum())
    dim = counts.size
    idx = np.int32 if max(nnz, dim) < np.iinfo(np.int32).max else np.int64
    data = np.empty(nnz)
    indices = np.empty(nnz, dtype=idx)
    indptr = np.zeros(dim + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    lo = 0
    for j, block in enumerate(blocks):
        hi = lo + block[1].size
        data[lo:hi] = _weights(block, transpose)
        indices[lo:hi] = block[1]
        indices[lo:hi] += j * n
        lo = hi
    return sp.csr_matrix((data, indices, indptr), shape=(dim, dim))


def _check_alpha(alpha: float) -> float:
    if not 0.0 < alpha < 1.0:
        raise KernelInputError(f"alpha must be in (0, 1), got {alpha}")
    return float(alpha)


def _iteration_cap(alpha: float) -> int:
    return max(50, 10 * math.ceil(math.log(RESIDUAL_TOL) / math.log(alpha)))


def solve_transport(
    G: DirectedGraph | Iterable[DirectedGraph],
    alpha: float,
    rhs: np.ndarray,
    transpose: bool = False,
) -> np.ndarray:
    """Solve (I - alpha * P[^T]) x = rhs for one or many right-hand sides.

    G is one graph, with rhs of shape (n,) or (n, k), or q graphs on the
    same n nodes, in a sequence or a one-pass stream, with rhs of shape
    (n, q): column j is solved on the j-th graph, bit for bit as a
    single-graph call would solve it. A FactoredGraph's columns are served
    from its inverse, the others by dense LU up to DENSE_LIMIT nodes and
    BiCGSTAB above; either way each column is within the module
    docstring's error bound of the exact solution.
    """
    alpha = _check_alpha(alpha)
    rhs = np.asarray(rhs, dtype=np.float64)
    if isinstance(G, DirectedGraph):
        n = G.node_count
        if not isinstance(G, FactoredGraph):
            # one block holding all its columns
            x = _solve_blocks([G], alpha, rhs.reshape(1, n, -1), transpose)
            return x[0, :, 0] if rhs.ndim == 1 else x[0]
        # an inverse serves one column at a time
        cols = rhs.reshape(n, -1)
        graphs = [G] * cols.shape[1]
    else:
        if rhs.ndim != 2:
            raise KernelInputError(
                f"many graphs need an (n, graphs) right-hand side, got {rhs.shape}")
        graphs, cols = _checked(G, *rhs.shape), rhs
    # one block per column
    b = np.ascontiguousarray(cols.T).reshape(cols.shape[1], cols.shape[0], 1)
    x = _solve_blocks(graphs, alpha, b, transpose)
    return x[:, :, 0].T.reshape(rhs.shape)


def _checked(graphs, n: int, q: int):
    """The graphs, passed on as they are read: each must be on n nodes,
    and there must be q of them."""
    count = 0
    for g in graphs:
        if g.node_count != n:
            raise KernelInputError(f"graph {count} is on {g.node_count} nodes, "
                                   f"the right-hand side on {n}")
        count += 1
        yield g
    if count != q:
        raise KernelInputError(f"{count} graphs on {n} nodes need an ({n}, {count}) "
                               f"right-hand side, got ({n}, {q})")


def _solve_blocks(graphs, alpha: float, b: np.ndarray, transpose: bool) -> np.ndarray:
    """x[j] = (I - alpha * P_j[^T])^-1 b[j], each graph read once, in
    order. Above DENSE_LIMIT nodes the graphs stream into one BiCGSTAB
    solve (factor_clean leaves such graphs unfactored); up to it, the
    blocks of each FactoredGraph come from its inverse, the rest from one
    dense solve."""
    if b.shape[1] > DENSE_LIMIT:
        return _bicgstab_solve(graphs, alpha, b, transpose)
    graphs = list(graphs)
    factored = {id(g): g for g in graphs if isinstance(g, FactoredGraph)}
    if not factored:
        return _dense_solve(graphs, alpha, b, transpose)
    x = np.empty_like(b)
    rest = np.ones(len(graphs), dtype=bool)
    for F in factored.values():
        mine = np.array([g is F for g in graphs])
        x[mine] = _factored_solve(F, alpha, b[mine], transpose)
        rest &= ~mine
    if rest.any():
        x[rest] = _dense_solve([g for g, r in zip(graphs, rest) if r], alpha,
                               b[rest], transpose)
    return x


def _dense_solve(graphs, alpha: float, b: np.ndarray, transpose: bool) -> np.ndarray:
    """x[j] = (I - alpha * P_j[^T])^-1 b[j], one stacked LU solve per chunk
    of at most DENSE_STACK_BYTES of matrices."""
    q, n, _ = b.shape
    x = np.empty_like(b)
    step = max(1, DENSE_STACK_BYTES // (8 * n * n))
    for lo in range(0, q, step):
        chunk = graphs[lo:lo + step]
        M = _dense_matrices(chunk, alpha, transpose)
        bj, xj = b[lo:lo + step], x[lo:lo + step]
        xj[:] = np.linalg.solve(M, bj)
        row_nnz = np.array([_row_nnz(G, transpose) for G in chunk])[:, None]
        _check_dense(bj, M @ xj, xj, row_nnz, alpha, transpose)
    return x


def _dense_matrices(graphs, alpha: float, transpose: bool) -> np.ndarray:
    """I - alpha * P_j[^T] of every graph, built in one (q, n, n) array;
    every entry, self-loops included, equals that of np.eye(n) - alpha *
    P[^T] bit for bit."""
    n = graphs[0].node_count
    M = np.zeros((len(graphs), n, n))
    for j, G in enumerate(graphs):
        src, dst = G.edges.T
        if transpose:
            src, dst = dst, src
        # G.edges is sorted by source: one repeat of its weight per node
        M[j, src, dst] = -(alpha * np.repeat(_source_weights(G), G.out_degree))
    M.reshape(len(graphs), n * n)[:, :: n + 1] += 1.0
    return M


def _row_nnz(G: DirectedGraph, transpose: bool) -> int:
    """Most nonzeros in a row of P[^T]: the largest in- or out-degree."""
    deg = np.bincount(G.edges[:, 1], minlength=G.node_count) if transpose else G.out_degree
    return int(deg.max())


def _block_row_nnz(A, q: int) -> np.ndarray:
    """Most nonzeros in a row of each of the q diagonal blocks of
    transition_matrix's operator A."""
    if isinstance(A, JaggedMatrix):
        # a block's longest row is its first in place, and the row at
        # place r has an entry in each step of more than r rows
        first = A.rank.reshape(q, -1).min(axis=1)
        return np.count_nonzero(np.diff(A.ptr) > first[:, None], axis=1)
    return np.diff(A.indptr).reshape(q, -1).max(axis=1)


def _residual_test(b, Mx, x, row_nnz, alpha: float, transpose: bool):
    """Each system's evaluated residual b[j] - M[j] x[j], from the product
    Mx, and whether it passes the module docstring's test, as a (q, 1)
    mask."""
    res = b - Mx
    scale = _bound_norm(b, transpose, axis=1)
    err = _rounding_error(row_nnz, alpha, scale, _bound_norm(x, transpose, axis=1))
    return res, _bound_norm(res, transpose, axis=1) <= (
        (1.0 - alpha) * RESIDUAL_TOL * scale + err)


def _check_dense(b, Mx, x, row_nnz, alpha: float, transpose: bool) -> None:
    """Raise ConvergenceError unless every system M[j] x[j] = b[j] of a dense
    solve passes the module docstring's residual test."""
    res, ok = _residual_test(b, Mx, x, row_nnz, alpha, transpose)
    if not ok.all():
        rel = np.max(_bound_norm(res, transpose, axis=1)
                     / np.maximum(_bound_norm(b, transpose, axis=1), 1e-300))
        raise ConvergenceError(f"dense solve relative residual {rel:.3e}")


@dataclass(frozen=True, eq=False)
class FactoredGraph(DirectedGraph):
    """A graph whose I - alpha*P factor_clean built and inverted once, for
    the many solves on it; the transposes serve P^T."""

    alpha: float
    matrix: np.ndarray              # I - alpha*P, as _dense_matrices builds it
    inverse: np.ndarray             # (I - alpha*P)^-1


def factor_clean(G: DirectedGraph, alpha: float) -> DirectedGraph:
    """G with its dense I - alpha*P and that matrix's inverse formed once,
    as a FactoredGraph, for callers that solve on G many times; G itself
    above DENSE_LIMIT, where every solve stays iterative."""
    alpha = _check_alpha(alpha)
    if G.node_count > DENSE_LIMIT:
        return G
    M = _dense_matrices([G], alpha, transpose=False)[0]
    return FactoredGraph(G.node_count, G.edges, G.out_degree, alpha, M,
                         np.linalg.inv(M))


def _factored_solve(G: FactoredGraph, alpha: float, b: np.ndarray,
                    transpose: bool) -> np.ndarray:
    """x[j] = (I - alpha * P[^T])^-1 b[j] for b of shape (k, n, 1), from G's
    inverse.

    Each column is its own matrix-vector product (a stacked matmul: a
    matrix-matrix product's columns differ from it in the last bits), so a
    column's result does not depend on the columns beside it. Its residual
    is evaluated on G.matrix, as _dense_solve's is on the same matrix; a
    column that fails the test takes one step of iterative refinement and
    is returned only if it then passes, so the module docstring's bound
    holds.
    """
    if alpha != G.alpha:
        raise KernelInputError(f"graph factored at alpha={G.alpha}, solved at {alpha}")
    M, inv = (G.matrix.T, G.inverse.T) if transpose else (G.matrix, G.inverse)
    x = inv @ b
    row_nnz = _row_nnz(G, transpose)
    res, ok = _residual_test(b, M @ x, x, row_nnz, alpha, transpose)
    redo = ~ok[:, 0]
    if redo.any():
        # near a = 1 the product can miss the bound (its error grows with
        # the condition number, (1 + a) / (1 - a)); one step of iterative
        # refinement brings it back to LU accuracy
        x[redo] += inv @ res[redo]
        _check_dense(b[redo], M @ x[redo], x[redo], row_nnz, alpha, transpose)
    return x


def _bound_norm(y: np.ndarray, transpose: bool, axis: int) -> np.ndarray:
    """Each system's norm along axis: the 1-norm for P^T, the inf-norm for
    P. In these norms ||(I - alpha*M)^-1|| = 1/(1 - alpha) and
    || |alpha*M| |x| || = alpha * ||x||."""
    return np.linalg.norm(y, ord=1 if transpose else np.inf, axis=axis)


def _rounding_error(row_nnz, alpha: float, bnorm, xnorm):
    """Bound on ||r~ - r|| in _bound_norm's norm, where r = b - (I - alpha*M) x
    and r~ is its float64 evaluation, with row_nnz the most nonzeros in a
    row of M: gamma_{row_nnz+2} (||b|| + (1 + alpha) ||x||), gamma_k =
    k u / (1 - k u), by the standard bound on an evaluated residual (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., sections 3.5
    and 12.1). Each entry of r~ sums at most row_nnz + 2 terms."""
    k = (np.asarray(row_nnz) + 2) * (np.finfo(np.float64).eps / 2)
    return k / (1.0 - k) * (bnorm + (1.0 + alpha) * xnorm)


def _bicgstab_solve(graphs, alpha: float, b: np.ndarray, transpose: bool) -> np.ndarray:
    """x[j] = (I - alpha * P_j[^T])^-1 b[j] by BiCGSTAB (van der Vorst,
    SIAM J. Sci. Stat. Comput. 13, 1992), run on every (block, column)
    system of the call at once, one system per row of a (systems, n) array.

    The iteration is right-preconditioned by K = I + alpha*M, the first two
    terms of (I - alpha*M)^-1 = sum_k (alpha*M)^k: it runs on
    (I - alpha*M) K = I - alpha^2 M^2, whose spectrum folds M's eigenvalues
    l and -l together, and needs less than half the iterations for fewer
    matvecs in all. Its recursive residual is still b - (I - alpha*M) x.

    Every scalar is per system and every reduction is along a row, so each
    system's arithmetic is that of a call that solves it alone. A system
    stops when its recursive residual passes the stop test, or when it
    breaks down (a zero or non-finite r^.r, r^.v or t.t); its scalars are
    zero from then on, so its x stays put. Once no system is iterating, the
    stopped ones are checked on their evaluated true residual against the
    module docstring's bound, in one matvec: a system that fails restarts
    from its x with r^ = r.
    """
    q, n, c = b.shape
    A = transition_matrix(graphs, transpose)
    A *= alpha
    # each block's most nonzeros in a row, for each of its c systems
    row_nnz = np.repeat(_block_row_nnz(A, q), c)
    B = np.ascontiguousarray(b.transpose(0, 2, 1)).reshape(q * c, n)

    def matvec(y):
        """alpha * M y: one product over the (q * n, c) layout that the
        block-diagonal operator acts on, copied each way when c > 1. Each
        entry sums in the same order for any c (JaggedMatrix, as scipy's
        CSR product), so a system's result does not depend on the systems
        beside it; the result is C-ordered, as dot needs."""
        ay = A @ y.reshape(q, c, n).transpose(0, 2, 1).reshape(q * n, c)
        return np.ascontiguousarray(ay.reshape(q, n, c).transpose(0, 2, 1)
                                    ).reshape(q * c, n)

    def apply(y):
        """(I - alpha * M) y"""
        ay = matvec(y)
        return np.subtract(y, ay, out=ay)

    def precondition(y):
        """K y = (I + alpha * M) y"""
        ay = matvec(y)
        ay += y
        return ay

    def dot(y, z):
        """Row-wise dot products: one BLAS dot per row, so a row's value
        does not depend on the rows around it (einsum's does)."""
        return (y[:, None, :] @ z[:, :, None])[:, 0, 0]

    def scaled(y, scale):
        """y scaled in place, one scale per row; for a y not needed after."""
        y *= scale[:, None]
        return y

    def norm(y):
        return _bound_norm(y, transpose, axis=1)

    def true_residual():
        res = apply(x)
        return np.subtract(B, res, out=res)

    bnorm = norm(B)
    tol = (1.0 - alpha) * RESIDUAL_TOL * bnorm
    running = ~(bnorm <= tol)        # b = 0 stops at x = 0
    stopped = np.zeros_like(running)
    failed = np.full(q * c, np.inf)  # true residual at the last failed check
    x = np.zeros_like(B)
    r = B.copy()
    rhat = B                         # copied on the first restart
    p = np.zeros_like(B)
    v = np.zeros_like(B)
    rho_prev, step, omega = np.ones(q * c), np.ones(q * c), np.ones(q * c)
    cap = _iteration_cap(alpha)
    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            if stopped.any() and not running.any():
                res = true_residual()
                rnorm = norm(res)
                bound = tol + _rounding_error(row_nnz, alpha, bnorm, norm(x))
                running = stopped & ~(rnorm <= bound)
                stopped[:] = False
                if running.any():
                    # a restart that did not lower the true residual would
                    # only be followed by more of them
                    if not np.all(rnorm[running] < failed[running]):
                        rel = np.max(rnorm[running] / bnorm[running])
                        raise ConvergenceError(
                            f"BiCGSTAB stalled at relative residual {rel:.3e}, "
                            f"above the error bound")
                    failed[running] = rnorm[running]
                    if rhat is B:
                        rhat = B.copy()
                    r[running] = rhat[running] = res[running]
                    p[running] = v[running] = 0.0
                    rho_prev[running] = step[running] = omega[running] = 1.0
            if not running.any():
                break
            if iterations == cap:
                rel = np.max(norm(true_residual())[running] / bnorm[running])
                raise ConvergenceError(f"BiCGSTAB hit the {cap}-iteration cap "
                                       f"with relative residual {rel:.3e}")
            iterations += 1
            rho = dot(rhat, r)
            live = running & np.isfinite(rho) & (rho != 0.0)
            beta = np.where(live, (rho / rho_prev) * (step / omega), 0.0)
            p -= scaled(v, omega)
            p *= beta[:, None]
            p += r
            del v                             # peak memory: one vector less
            ph = precondition(p)
            v = apply(ph)
            sigma = dot(rhat, v)
            live &= np.isfinite(sigma) & (sigma != 0.0)
            step = np.where(live, rho / sigma, 0.0)
            r -= step[:, None] * v            # r is now the half-step s
            x += scaled(ph, step)
            del ph
            # tested before omega: with s = 0 (as for b = 1), t.s / t.t is 0/0
            go = live & ~(norm(r) <= tol)
            sh = precondition(r)
            t = apply(sh)
            omega = dot(t, r) / dot(t, t)
            go &= np.isfinite(omega) & (omega != 0.0)
            omega = np.where(go, omega, 0.0)
            x += scaled(sh, omega)
            r -= scaled(t, omega)
            del sh, t
            rho_prev = rho
            stop = running & ~(go & (norm(r) > tol))
            stopped |= stop
            running &= ~stop
    return np.ascontiguousarray(x.reshape(q, c, n).transpose(0, 2, 1))


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


def ppr_vector(G: DirectedGraph, alpha: float, z: np.ndarray) -> np.ndarray:
    """Topic-sensitive PageRank for teleport distribution z."""
    z = check_teleport(z, G.node_count)
    x = solve_transport(G, alpha, z, transpose=True)
    pi = (1.0 - alpha) * x
    if pi.min() < -1e-12:
        raise ConvergenceError(f"negative PageRank entry {pi.min():.3e}")
    pi = np.maximum(pi, 0.0)
    if abs(pi.sum() - 1.0) > 1e-8:
        raise ConvergenceError(f"PageRank mass {pi.sum():.12f} != 1")
    return pi


def mean_reward(G: DirectedGraph, alpha: float, r: np.ndarray) -> np.ndarray:
    """Mean reward before teleportation: solves (I - alpha*D^-1*A) x = r."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (G.node_count,):
        raise KernelInputError("reward vector has wrong length")
    if not np.all(np.isfinite(r)):
        raise KernelInputError("reward vector must be finite")
    return solve_transport(G, alpha, r, transpose=False)


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
    return (1.0 - alpha) * solve_transport(G, alpha, h)


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
