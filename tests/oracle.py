"""Brute-force ground truth for small instances.

Enumerates every budget-feasible configuration of the fragile edges and
evaluates each candidate graph with a dense solve, independent of the
optimized kernels. Intended for tests; hard-capped at 20 fragile edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pagecert.graph import DirectedGraph, PerturbationScenario

ENUM_CAP = 20


class EnumerationCapError(ValueError):
    """Instance too large to enumerate."""


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    optimum: float
    policy: np.ndarray
    enumerated: int
    extra: dict


def _dense_ppr(edges: np.ndarray, n: int, alpha: float, z: np.ndarray) -> np.ndarray:
    """pi(z) evaluated with dense linear algebra only."""
    A = np.zeros((n, n))
    A[edges[:, 0], edges[:, 1]] = 1.0
    deg = A.sum(axis=1)
    if np.any(deg == 0):
        raise ValueError("dangling node in enumerated graph")
    P = A / deg[:, None]
    return (1.0 - alpha) * np.linalg.solve(np.eye(n) - alpha * P.T, z)


def iter_feasible_masks(S: PerturbationScenario, respect_global: bool):
    """Yield boolean flip masks over fragile edges, in increasing bitmask
    order (bit i toggles the i-th fragile edge in canonical order)."""
    m = S.fragile_count
    if m > ENUM_CAP:
        raise EnumerationCapError(f"|F|={m} exceeds enumeration cap {ENUM_CAP}")
    src = S.fragile_edges[:, 0]
    b = S.local_budget
    B = S.global_budget
    for mask_bits in range(1 << m):
        mask = np.array(
            [(mask_bits >> i) & 1 for i in range(m)], dtype=bool
        )
        count = int(mask.sum())
        if respect_global and count > B:
            continue
        if count and np.any(np.bincount(src[mask], minlength=S.node_count) > b):
            continue
        yield mask


def _perturbed_edges(S: PerturbationScenario, mask: np.ndarray) -> np.ndarray:
    present = S.fragile_in_base ^ mask
    return np.concatenate([S.fixed_edges, S.fragile_edges[present]])


def _policy_tuple(S: PerturbationScenario, mask: np.ndarray) -> tuple:
    return tuple(map(tuple, S.fragile_edges[mask].tolist()))


def brute_force_pagerank_opt(
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    r: np.ndarray,
    z: np.ndarray,
    respect_global: bool = False,
) -> EnumerationResult:
    """Maximize r^T pi(z) over all budget-feasible flip subsets."""
    n = G.node_count
    r = np.asarray(r, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    best = None
    best_tuple = None
    best_mask = None
    count = 0
    for mask in iter_feasible_masks(S, respect_global):
        count += 1
        val = float(r @ _dense_ppr(_perturbed_edges(S, mask), n, alpha, z))
        tup = _policy_tuple(S, mask)
        if best is None or val > best or (val == best and tup < best_tuple):
            best, best_tuple, best_mask = val, tup, mask
    return EnumerationResult(
        optimum=best,
        policy=S.fragile_edges[best_mask],
        enumerated=count,
        extra={},
    )


def brute_force_worst_margin(
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    H: np.ndarray,
    t: int,
    y_t: int | None = None,
    respect_global: bool = False,
) -> EnumerationResult:
    """Minimize the margin of node t over admissible graphs and classes.

    y_t defaults to the argmax of the clean diffused logits of t.
    """
    n = G.node_count
    H = np.asarray(H, dtype=np.float64)
    K = H.shape[1]
    z = np.zeros(n)
    z[t] = 1.0
    if y_t is None:
        clean = _dense_ppr(G.edges, n, alpha, z) @ H
        y_t = int(np.argmax(clean))
    best = None
    best_tuple = None
    best_mask = None
    best_class = None
    count = 0
    for mask in iter_feasible_masks(S, respect_global):
        count += 1
        pi = _dense_ppr(_perturbed_edges(S, mask), n, alpha, z)
        diff = pi @ H
        tup = _policy_tuple(S, mask)
        for c in range(K):
            if c == y_t:
                continue
            val = float(diff[y_t] - diff[c])
            if best is None or val < best or (val == best and tup < best_tuple):
                best, best_tuple, best_mask, best_class = val, tup, mask, c
    return EnumerationResult(
        optimum=best,
        policy=S.fragile_edges[best_mask],
        enumerated=count,
        extra={"worst_class": best_class, "y": int(y_t)},
    )
