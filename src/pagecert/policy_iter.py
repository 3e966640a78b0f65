"""Exact PageRank optimization under local budgets, and the certificates it yields.

Each admissible configuration of fragile edges is a policy; one iteration
solves the mean-reward system on the current perturbed graph, scores every
fragile edge by the value gained from flipping it, and keeps the best
strictly improving flips per node within budget. The fixed point maximizes
r^T pi(z) simultaneously for every teleport z, so one run per ordered class
pair certifies all nodes at once.

One loop serves every caller: optimize_local takes one reward or a stack
of rewards, advances the stack in lockstep, solving all live rewards'
graphs in one ppr.solve_transport call per round, and a reward leaves the
stack when its flips stop changing. pair_worst_margins runs all K(K-1)
class pairs as one stack. A round solves the rewards that flip nothing
(all of round 1, unless init flips) on G itself when G has the edges of
S's unflipped graph, so a ppr.factor_clean'd G serves them from its
inverse.

Ties: a flip that is already selected keeps its place unless a rival beats
it by more than IMPROVE_TOL, so two flips whose scores differ only by
rounding cannot swap places every round.

Selection: only edges scoring above IMPROVE_TOL can be kept, and they lead
their source's ranking, so a source with at most its budget of them keeps
all of them unsorted. Only the candidates of sources where the budget binds
are ranked (score desc, then currently flipped first, then target asc), which
keeps exactly the flips a rank of every fragile edge would keep.

Pair margins: the run for (c1, c2) uses the reward r = -h with
h = H[:, c1] - H[:, c2], so its final value x solves (I - alpha P) x = -h on
the optimal graph, and the worst margins pi(e_t)^T h of every node t are
-(1 - alpha) x. pair_worst_margins returns them without another solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models, ppr
from .graph import DirectedGraph, EdgePolicy, PerturbationScenario, flipped_graph

IMPROVE_TOL = 1e-12
ITERATION_CAP = 100
MARGIN_EPS = 1e-7


class IterationCapError(RuntimeError):
    """Policy iteration for `what` failed to stabilize within ITERATION_CAP
    rounds; carries the reward column that did not and its value trace."""

    def __init__(self, what: str, trace: list[np.ndarray], column: int = 0):
        super().__init__(f"policy iteration for {what} exceeded "
                         f"{ITERATION_CAP} iterations (tie cycling?)")
        self.trace = trace
        self.column = column


@dataclass(eq=False)
class PolicyIterationResult:
    policy: EdgePolicy
    value: np.ndarray                      # final mean-reward vector x
    iterations: int
    trace: list[np.ndarray]
    graph: DirectedGraph                   # the optimal perturbed graph


@dataclass(eq=False)
class LockstepResult:
    results: list[PolicyIterationResult]   # one per reward column
    iterations: int                        # lockstep rounds: the most any reward ran


@dataclass(eq=False)
class LocalCertificate:
    node: int
    label: int                   # class the margin is defended for
    worst_class: int
    worst_margin: float
    status: str                  # "robust" | "nonrobust"
    witness: EdgePolicy
    marginal: bool               # |margin| within numerical noise of zero


def optimize_local(
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    r: np.ndarray,
    init: EdgePolicy | None = None,
) -> PolicyIterationResult | LockstepResult:
    """Maximize r^T pi(z) over local-budget-admissible perturbed graphs.

    The global budget of S is ignored here. The returned configuration is
    optimal for every teleport z at once, with objective (1 - alpha) z^T x
    for the returned value x.

    r is one reward of shape (n,), or a stack of q rewards of shape (n, q)
    run in lockstep: then a LockstepResult holds one result per column, each
    bit for bit that of the column run alone. init, if given, is every
    reward's starting configuration. An IterationCapError's column is the
    first reward still unstable at the cap. A reward that flips nothing is
    solved on G when G has the edges of S's unflipped graph (an asymmetric
    G lacks the fixed reverse edges of its spanning tree); each result's
    graph is the plain flipped graph.
    """
    R = np.asarray(r, dtype=np.float64)
    if R.shape[:1] != (S.node_count,) or R.ndim not in (1, 2):
        raise ppr.KernelInputError("reward vector has wrong length")
    if not np.all(np.isfinite(R)):
        raise ppr.KernelInputError("reward vector must be finite")
    stack = R.reshape(S.node_count, -1)
    q = stack.shape[1]
    flipped = np.zeros((q, S.fragile_count), dtype=bool)
    if init is not None and len(init):
        flipped[:, S.fragile_index_of(init.flips)] = True
    m = S.fragile_count
    src = S.fragile_edges[:, 0]
    dst = S.fragile_edges[:, 1]
    sign = np.where(S.fragile_in_base, -1.0, 1.0)
    unflipped_is_G = np.array_equal(G.edges, flipped_graph(S, np.zeros(m, bool)).edges)

    traces: list[list[np.ndarray]] = [[] for _ in range(q)]
    results: list[PolicyIterationResult | None] = [None] * q
    live = list(range(q))
    alpha = float(alpha)
    for k in range(1, ITERATION_CAP + 1):
        if not live:
            break
        graphs = [flipped_graph(S, flipped[j]) for j in live]
        X = ppr.solve_transport(
            [G if unflipped_is_G and not flipped[j].any() else g
             for j, g in zip(live, graphs)], alpha, stack[:, live])
        moved = []
        for i, j in enumerate(live):
            x, r = X[:, i], stack[:, j]
            traces[j].append(x)
            if m:
                # a selected flip loses its place only to a rival better by
                # more than IMPROVE_TOL
                score = (sign * (x[dst] - ((x - r) / alpha)[src])
                         + IMPROVE_TOL * flipped[j])
                new_flipped = _select(score, flipped[j], src, S.local_budget)
                if not np.array_equal(new_flipped, flipped[j]):
                    flipped[j] = new_flipped
                    moved.append(j)
                    continue
            # fragile_edges is (src, dst)-sorted, and so is any masked subset
            flips = S.fragile_edges[flipped[j]]
            flips.setflags(write=False)
            results[j] = PolicyIterationResult(
                policy=EdgePolicy(flips),
                value=x,
                iterations=k,
                trace=traces[j],
                graph=graphs[i],
            )
        live = moved
    if live:
        raise IterationCapError(f"reward column {live[0]}", traces[live[0]], live[0])
    if R.ndim == 1:
        return results[0]
    return LockstepResult(results, max((res.iterations for res in results), default=0))


def _select(score: np.ndarray, flipped: np.ndarray, src: np.ndarray,
            budget: np.ndarray) -> np.ndarray:
    """The flip mask one round keeps: per source v, the best budget[v] edges
    scoring above IMPROVE_TOL, ranked by score desc, then currently flipped
    first, then target asc.

    The edges are in (src, dst) order, so index order is target order within
    a source. A source with at most budget[v] candidates keeps them all.
    """
    take = score > IMPROVE_TOL
    cand = np.flatnonzero(take)
    cand_src = src[cand]
    binds = np.bincount(cand_src, minlength=budget.size) > budget
    ranked = cand[binds[cand_src]]
    if ranked.size:
        take[ranked] = False
        # stable sorts from index (target) order, least significant key
        # first; node ids go in the narrowest unsigned type, which numpy
        # radix-sorts up to 16 bits
        f = flipped[ranked]
        order = np.concatenate((ranked[f], ranked[~f]))
        order = order[np.argsort(-score[order], kind="stable")]
        key = src[order].astype(np.min_scalar_type(budget.size))
        order = order[np.argsort(key, kind="stable")]
        s = src[order]
        take[order[np.arange(order.size) - np.searchsorted(s, s) < budget[s]]] = True
    return take


def class_pairs(class_count: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(class_count) for b in range(class_count) if a != b]


def pair_worst_margins(
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    H: np.ndarray,
) -> dict[tuple[int, int], tuple[np.ndarray, PolicyIterationResult]]:
    """Optimize every ordered class pair (c1, c2) in one lockstep run.

    Returns, per pair, the vector of worst-case margins
    min over admissible graphs of pi(e_t)^T (H[:, c1] - H[:, c2]) for every
    node t, together with the optimization result that attains it. The
    margins are -(1 - alpha) times the result's value (see the module
    docstring). Each pair's result is bit for bit that of
    optimize_local(G, S, alpha, -(H[:, c1] - H[:, c2])).
    """
    H = models.check_logits(H)
    pairs = class_pairs(H.shape[1])
    c1, c2 = np.array(pairs).T
    try:
        stack = optimize_local(G, S, alpha, -(H[:, c1] - H[:, c2]))
    except IterationCapError as exc:
        raise IterationCapError(
            f"class pair {pairs[exc.column]}", exc.trace, exc.column) from None
    return {pair: (-(1.0 - alpha) * res.value, res)
            for pair, res in zip(pairs, stack.results)}


def certify_local_all(
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    H: np.ndarray,
    y: np.ndarray | None = None,
) -> list[LocalCertificate]:
    """Exact worst-case-margin certificates for every node under local budgets.

    y gives the class to defend per node (ground truth or predictions); when
    omitted, clean-graph predictions are used. A negative worst margin is a
    non-robustness certificate and the stored witness reproduces it.
    From three classes on, G is ppr.factor_clean'd for the predictions
    and every pair's first round.
    """
    H = models.check_logits(H)
    K = H.shape[1]
    # the inverse costs about four LU factorizations, more than the three
    # clean systems of two classes (the predictions, two pairs' first round)
    if K > 2:
        G = ppr.factor_clean(G, alpha)
    if y is None:
        y = models.predict(G, alpha, H)
    y = models.check_labels(y, G.node_count, K)

    pairs = pair_worst_margins(G, S, alpha, H)
    certs = []
    for t in range(G.node_count):
        yt = int(y[t])
        worst_margin = np.inf
        worst_class = yt
        witness = EdgePolicy.empty()
        for c in range(K):
            if c == yt:
                continue
            margins, res = pairs[(yt, c)]
            val = float(margins[t])
            if val < worst_margin:
                worst_margin = val
                worst_class = c
                witness = res.policy
        robust = worst_margin > MARGIN_EPS
        certs.append(
            LocalCertificate(
                node=t,
                label=yt,
                worst_class=worst_class,
                worst_margin=worst_margin,
                status="robust" if robust else "nonrobust",
                witness=witness,
                marginal=(-MARGIN_EPS < worst_margin <= MARGIN_EPS),
            )
        )
    return certs
