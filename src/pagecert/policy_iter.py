"""Exact PageRank optimization under local budgets, and the certificates it yields.

Each admissible configuration of fragile edges is a policy, held as the
sorted array of the fragile edges it flips (see graph); one iteration
solves the mean-reward system on the current perturbed graph, scores every
fragile edge by the value gained from flipping it, and keeps the best
strictly improving flips per node within budget. The fixed point maximizes
r^T pi(z) simultaneously for every teleport z, so one run per ordered class
pair certifies all nodes at once.

One loop serves every caller: optimize_local takes one reward or a stack
of rewards, advances the stack in lockstep, solving all live rewards'
graphs in one ppr.solve_transport call per round, and a reward leaves the
stack when its flips stop changing. A round hands its graphs to ppr as a
stream that builds each one as ppr reads it, so no list of them outlives
the operator built from them. pair_worst_margins runs the class pairs
(c1, c2) of the classes c1 that label the nodes its caller defends, as one
stack. Every reward starts unflipped. A round solves
the rewards that flip nothing (all of round 1) on G itself when G has the
edges of S's unflipped graph, so a ppr.factor_clean'd G serves them from
its inverse.

Ties: a flip that is already selected keeps its place unless a rival beats
it by more than IMPROVE_TOL, so two flips whose scores differ only by
rounding cannot swap places every round.

Selection: only edges scoring above IMPROVE_TOL can be kept, and they lead
their source's ranking, so a source with at most its budget of them keeps
all of them unsorted. Only the candidates of sources where the budget binds
are ranked (score desc, then currently flipped first, then target asc), which
keeps exactly the flips a rank of every fragile edge would keep. They are
ranked by an unstable argsort of the score and a stable sort on the source;
the two tie keys only matter between equal scores of one source, and when
such a pair exists the whole set is ranked by one lexsort of all four keys.

Pair margins: the run for (c1, c2) uses the reward r = -h with
h = H[:, c1] - H[:, c2], so its final value x solves (I - alpha P) x = -h on
the optimal graph, and the worst margins pi(e_t)^T h of every node t are
-(1 - alpha) x. pair_worst_margins returns them without another solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import analysis, models, ppr
from .graph import DirectedGraph, PerturbationScenario, _readonly, flipped_graph

IMPROVE_TOL = 1e-12
ITERATION_CAP = 100
MARGIN_EPS = 1e-7


class IterationCapError(RuntimeError):
    """Policy iteration for `what` failed to stabilize within ITERATION_CAP
    rounds; carries the reward column that did not."""

    def __init__(self, what: str, column: int = 0):
        super().__init__(f"policy iteration for {what} exceeded "
                         f"{ITERATION_CAP} iterations (tie cycling?)")
        self.column = column


@dataclass(eq=False)
class PolicyIterationResult:
    policy: np.ndarray                     # flipped fragile edges (graph docstring)
    value: np.ndarray                      # final mean-reward vector x
    iterations: int


@dataclass(eq=False)
class LockstepResult:
    results: list[PolicyIterationResult]   # one per reward column
    iterations: int                        # lockstep rounds: the most any reward ran


def optimize_local(
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    r: np.ndarray,
) -> PolicyIterationResult | LockstepResult:
    """Maximize r^T pi(z) over local-budget-admissible perturbed graphs.

    The global budget of S is ignored here. The returned configuration is
    optimal for every teleport z at once, with objective (1 - alpha) z^T x
    for the returned value x.

    r is one reward of shape (n,), or a stack of q rewards of shape (n, q)
    run in lockstep: then a LockstepResult holds one result per column, each
    bit for bit that of the column run alone. An IterationCapError's column
    is the first reward still unstable at the cap. A reward that flips
    nothing is solved on G when G has the edges of S's unflipped graph (an
    asymmetric G lacks the fixed reverse edges of its spanning tree). A
    round's graphs are built as ppr reads them and held by no list.
    """
    R = np.asarray(r, dtype=np.float64)
    if R.shape[:1] != (S.node_count,) or R.ndim not in (1, 2):
        raise ppr.KernelInputError("reward vector has wrong length")
    if not np.all(np.isfinite(R)):
        raise ppr.KernelInputError("reward vector must be finite")
    stack = R.reshape(S.node_count, -1)
    q = stack.shape[1]
    m = S.fragile_count
    flipped = np.zeros((q, m), dtype=bool)
    src = S.fragile_edges[:, 0]
    dst = S.fragile_edges[:, 1]
    sign = np.where(S.fragile_in_base, -1.0, 1.0)
    unflipped_is_G = np.array_equal(G.edges, flipped_graph(S, np.zeros(m, bool)).edges)

    def graph(j):
        """Reward j's graph this round."""
        if unflipped_is_G and not flipped[j].any():
            return G
        return flipped_graph(S, flipped[j])

    results: list[PolicyIterationResult | None] = [None] * q
    live = list(range(q))
    alpha = float(alpha)
    for k in range(1, ITERATION_CAP + 1):
        if not live:
            break
        X = ppr.solve_transport(map(graph, live), alpha, stack[:, live])
        moved = []
        for i, j in enumerate(live):
            x, r = X[:, i], stack[:, j]
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
            results[j] = PolicyIterationResult(
                policy=_readonly(S.fragile_edges[flipped[j]]),
                value=x,
                iterations=k,
            )
        live = moved
    if live:
        raise IterationCapError(f"reward column {live[0]}", live[0])
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
        # score desc by the default (unstable, SIMD) argsort, then a stable
        # sort on the source id in the narrowest unsigned type, which numpy
        # radix-sorts up to 16 bits; only an exact tie within a source
        # leaves an order that the tie rule must fix
        order = ranked[np.argsort(-score[ranked])]
        key = src[order].astype(np.min_scalar_type(budget.size))
        order = order[np.argsort(key, kind="stable")]
        s, sc = src[order], score[order]
        if np.any((s[1:] == s[:-1]) & (sc[1:] == sc[:-1])):
            # lexsort is stable and ranked is in index (target) order
            order = ranked[np.lexsort((~flipped[ranked], -score[ranked], src[ranked]))]
            s = src[order]
        take[order[np.arange(order.size) - np.searchsorted(s, s) < budget[s]]] = True
    return take


def class_pairs(class_count: int, labels) -> list[tuple[int, int]]:
    """Ordered pairs (a, b) of distinct classes, a the label of some node
    defended: the only pairs whose margins a certificate reads."""
    # a bincount, not np.unique, whose first call imports numpy.ma
    defended = np.flatnonzero(np.bincount(labels, minlength=class_count)).tolist()
    return [(a, b) for a in defended for b in range(class_count) if a != b]


def pair_worst_margins(
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    H: np.ndarray,
    labels,
) -> dict[tuple[int, int], tuple[np.ndarray, PolicyIterationResult]]:
    """Optimize every ordered class pair (c1, c2), c1 the label of some
    node defended (class_pairs), in one lockstep run.

    Returns, per pair, the vector of worst-case margins
    min over admissible graphs of pi(e_t)^T (H[:, c1] - H[:, c2]) for every
    node t, together with the optimization result that attains it. The
    margins are -(1 - alpha) times the result's value (see the module
    docstring). Each pair's result is bit for bit that of
    optimize_local(G, S, alpha, -(H[:, c1] - H[:, c2])).
    """
    H = models.check_logits(H)
    pairs = class_pairs(H.shape[1], labels)
    # reshaped, so that no labels run no column
    c1, c2 = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    try:
        stack = optimize_local(G, S, alpha, -(H[:, c1] - H[:, c2]))
    except IterationCapError as exc:
        raise IterationCapError(
            f"class pair {pairs[exc.column]}", exc.column) from None
    return {pair: (-(1.0 - alpha) * res.value, res)
            for pair, res in zip(pairs, stack.results)}


def certify_local_all(
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    H: np.ndarray,
    y: np.ndarray | None = None,
) -> np.recarray:
    """Exact worst-case-margin certificates for every node under local budgets.

    Returns the certificate table (analysis.certificate_table), one row per
    node t: y, the class defended (ground truth or predictions; when
    omitted, clean-graph predictions), the worst class and worst margin,
    status "robust" above MARGIN_EPS and "nonrobust" otherwise, "marginal"
    for a margin within MARGIN_EPS of zero, and the witness, the policy of
    the (y, worst class) pair, one array shared by the rows of that pair. A
    negative worst margin is a non-robustness certificate that the witness
    reproduces. When the predictions and every pair's first round are four
    clean systems or more, G is ppr.factor_clean'd for them.
    """
    H = models.check_logits(H)
    K = H.shape[1]
    # clean systems: the predictions, if made here, and the first round of
    # each pair run, K - 1 per defended class (every class, until the
    # predictions tell). The inverse costs about four LU factorizations,
    # so it pays from four such systems on.
    if y is None:
        clean = 1 + K * (K - 1)
    else:
        y = models.check_labels(y, G.node_count, K)
        clean = len(class_pairs(K, y))
    if clean >= 4:
        G = ppr.factor_clean(G, alpha)
    if y is None:
        y = models.check_labels(models.predict(G, alpha, H), G.node_count, K)

    # worst[t, c]: node t's worst margin against c, +inf at its own class;
    # argmin keeps the lowest class among equal margins. Only pairs (c1, c2)
    # with a node of class c1 are run, as no other pair is read: (number of
    # classes in y) * (K - 1) pairs, not K(K - 1). policies[c1 * K + c2] is
    # pair (c1, c2)'s policy, set by index: a slice assignment would
    # broadcast policies of equal shape into one array
    worst = np.full((G.node_count, K), np.inf)
    policies = np.empty(K * K, dtype=object)
    for (c1, c2), (margins, res) in pair_worst_margins(G, S, alpha, H, y).items():
        sel = y == c1
        worst[sel, c2] = margins[sel]
        policies[c1 * K + c2] = res.policy
    worst_class = np.argmin(worst, axis=1)
    worst_margin = worst[np.arange(G.node_count), worst_class]
    robust = worst_margin > MARGIN_EPS
    return analysis.certificate_table(
        node=np.arange(G.node_count), y=y, worst_class=worst_class,
        worst_margin=worst_margin,
        status=np.where(robust, "robust", "nonrobust"),
        bound_type=np.full(G.node_count, "exact"),
        marginal=~robust & (worst_margin > -MARGIN_EPS),
        witness=policies[y * K + worst_class],
    )
