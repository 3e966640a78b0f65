"""Lower-bound certificates under joint local and global budgets.

Pipeline: (a) an auxiliary decision process with one on/off state per
fragile edge turns the exponential per-node action sets into binary ones;
(b) its occupation-measure LP is extended with linear local-budget rows;
(c) the quadratic global-budget coupling is linearized into one row using
per-variable upper bounds. The LP optimum upper-bounds the adversary's
objective, so the negated value is a sound lower bound on the worst-case
margin. Rounding the LP edge variables yields a candidate attack that is
verified by exact re-evaluation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import analysis, lp_solver, models, policy_iter, ppr
from ._parallel import map_parallel
from .graph import DirectedGraph, PerturbationScenario, _readonly, apply_policy
from .policy_iter import MARGIN_EPS

logger = logging.getLogger(__name__)

ACTIVITY_TOL = 1e-9


class BoundError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class AuxiliaryMdp:
    """Total-reward decision process on the original nodes of a scenario S
    plus one state per fragile edge of S; its edges are S's.

    Original state i has one action: probability alpha/d_i to each fixed
    successor and 1/d_i to each of its fragile-edge states, reward r_i,
    with d_i = |fixed out-edges| + |fragile out-edges| (state-independent).
    Fragile-edge state (i, j) has actions off (back to i w.p. 1, reward
    -r_i) and on (to j w.p. alpha, reward 0). Rows may be substochastic.
    """

    alpha: float
    rewards: np.ndarray          # r_i for original nodes
    degrees: np.ndarray          # d_i per original node


def build_aux_mdp(
    S: PerturbationScenario, alpha: float, r: np.ndarray
) -> AuxiliaryMdp:
    """Auxiliary decision process whose unconstrained optimum solves the
    PageRank-reward optimization on the original graph."""
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (S.node_count,):
        raise BoundError("reward vector has wrong length")
    degrees = _fixed_out_counts(S) + S.fragile_out_counts()
    return AuxiliaryMdp(
        alpha=float(alpha), rewards=r, degrees=degrees.astype(np.int64),
    )


def _fixed_out_counts(S: PerturbationScenario) -> np.ndarray:
    """|fixed out-edges| per node."""
    return np.bincount(S.fixed_edges[:, 0], minlength=S.node_count)


def bound_slack(S: PerturbationScenario) -> np.ndarray:
    """(1 - |F^v|/d_v)^-1 per node; the worst-case inflation of the LP
    occupation variable over the PageRank score."""
    fixed_out = _fixed_out_counts(S)
    frag_out = S.fragile_out_counts()
    d = fixed_out + frag_out
    if np.any(fixed_out == 0):
        bad = int(np.nonzero(fixed_out == 0)[0][0])
        raise BoundError(
            f"node {bad} has d_v = |F^v| (no fixed out-edge); add a fixed "
            "edge or shrink its fragile set to make the bound finite"
        )
    return 1.0 / (1.0 - frag_out / d)


def policy_opt_graph_cache(
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
) -> np.ndarray:
    """The (n, n) array X whose column v is the final value of policy
    iteration with reward e_v.

    That run maximizes pi(z)_v over local-budget-admissible graphs for every
    teleport z at once, with maximum (1 - alpha) z^T X[:, v], so X is
    computed once and shared across certification targets. Each node runs
    its own optimize_local rather than one lockstep run of all n rewards,
    whose block operator would hold n graphs: O(n |E|) memory.
    """
    n = S.node_count

    def run(v):
        e_v = np.zeros(n)
        e_v[v] = 1.0
        try:
            return policy_iter.optimize_local(G, S, alpha, e_v).value
        except policy_iter.IterationCapError as exc:
            raise policy_iter.IterationCapError(
                f"the policy_opt bound of node {v}", v) from None

    return np.column_stack(map_parallel(run, range(n)))


def compute_upper_bounds(
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    method: str = "closed_form",
    z: np.ndarray | None = None,
    graph_cache: np.ndarray | None = None,
) -> np.ndarray:
    """Per-node upper bounds on the LP occupation variables.

    closed_form bounds PageRank by 1; policy_opt by the exact maximum of
    pi(z)_v over local-budget-admissible graphs, (1 - alpha) z^T X[:, v] for
    the certification teleport z and X from policy_opt_graph_cache, with no
    further solve. Both are then inflated by the worst-case off-edge slack,
    which dominates every feasible variable value.
    """
    slack = bound_slack(S)
    if method == "closed_form":
        return slack
    if method != "policy_opt":
        raise BoundError(f"unknown bound method {method!r}")
    if z is None:
        raise BoundError("policy_opt bounds need the certification teleport z")
    z = ppr.check_teleport(z, S.node_count)
    if graph_cache is None:
        graph_cache = policy_opt_graph_cache(G, S, alpha)
    return np.maximum((1.0 - alpha) * (z @ graph_cache), 0.0) * slack


@dataclass(eq=False)
class RelaxedLpInstance:
    """Assembled linear relaxation for one (reward, teleport) pair.

    Variables: x_v per node, then (x0, x1) per fragile edge in canonical
    order. Rows: one flow row per node, one coupling row per fragile edge,
    one local-budget row per node, one global row.
    """

    lp: lp_solver.LinearProgram
    scenario: PerturbationScenario
    degrees: np.ndarray

    def x0_index(self, e):
        """Column of fragile edge e's "off" variable (e may be an array)."""
        return self.scenario.node_count + 2 * e

    def x1_index(self, e):
        """Column of fragile edge e's "on" variable (e may be an array)."""
        return self.x0_index(e) + 1

    def clean_basis(self) -> np.ndarray:
        """Structural columns of the clean graph's vertex, one per "=" row:
        every x_v, then per fragile edge x1 if the edge is in the base graph
        and x0 otherwise. With every slack added this basis is primal
        feasible in exact arithmetic, because xbar dominates every feasible
        x; solve_lp clamps the rounding left over."""
        S = self.scenario
        e = np.arange(S.fragile_count)
        return np.concatenate([np.arange(S.node_count), np.where(
            S.fragile_in_base, self.x1_index(e), self.x0_index(e))])


def assemble_relaxed_lp(
    mdp: AuxiliaryMdp,
    S: PerturbationScenario,
    z: np.ndarray,
    xbar: np.ndarray,
) -> RelaxedLpInstance:
    """Build the relaxed budget-constrained LP for the auxiliary process."""
    n = S.node_count
    m = S.fragile_count
    alpha = mdp.alpha
    d = mdp.degrees.astype(np.float64)
    z = np.asarray(z, dtype=np.float64)
    xbar = np.asarray(xbar, dtype=np.float64)
    if np.any(~np.isfinite(xbar)) or np.any(xbar <= 0):
        raise BoundError("upper bounds must be positive and finite")
    # the instance owns the variable layout; its lp is filled in below
    inst = RelaxedLpInstance(lp=None, scenario=S, degrees=mdp.degrees.copy())
    src, dst = S.fragile_edges.T
    fs, fd = S.fixed_edges.T
    x0, x1 = inst.x0_index(np.arange(m)), inst.x1_index(np.arange(m))
    pert = np.where(S.fragile_in_base, x0, x1)   # the perturbing share
    nodes, aux_row, ones = np.arange(n), n + np.arange(m), np.ones(m)

    # COO blocks in order. Flow per node: x_v - incoming fixed - incoming
    # "on" - returning "off" = (1 - alpha) z_v. Coupling per fragile edge:
    # x0 + x1 - x_i / d_i = 0. Local budget per node: perturbing shares
    # - (b_v / d_v) x_v <= 0. One linearized global row: perturbing shares
    # scaled by d_i / xbar_i <= B.
    rows = np.concatenate([nodes, fd, dst, src, aux_row, aux_row, aux_row,
                           n + m + nodes, n + m + src, np.full(m, n + m + n)])
    cols = np.concatenate([nodes, fs, x1, x0, x0, x1, src, nodes, pert, pert])
    # -(b / d), not -b / d: the int negation would store +0.0 for b_v = 0
    data = np.concatenate([
        np.ones(n), -alpha / d[fs], np.full(m, -alpha), -ones,
        ones, ones, -1.0 / d[src],
        -(S.local_budget / d), ones, d[src] / xbar[src],
    ])
    senses = ["="] * (n + m) + ["<="] * (n + 1)
    rhs = np.concatenate([(1.0 - alpha) * z, np.zeros(m + n),
                          [float(S.global_budget)]])

    c = np.zeros(n + 2 * m)
    c[:n], c[x0] = mdp.rewards, -mdp.rewards[src]
    ub = np.full(n + 2 * m, np.inf)
    ub[:n] = xbar

    inst.lp = lp_solver.LinearProgram.build(c, (data, (rows, cols)), senses, rhs,
                                            upper_bounds=ub)
    return inst


def recover_pagerank(
    solution: lp_solver.LpSolution, instance: RelaxedLpInstance
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Recover PageRank scores, the configured policy, and integrality.

    pi_v = (1 - k_v / d_v) x_v with k_v the count of active "off" edges at
    v. The solution is integral when no edge has both activity variables
    above tolerance; only then does the recovered vector match an actual
    graph's PageRank.
    """
    S = instance.scenario
    x = solution.x
    n = S.node_count
    edge = np.arange(S.fragile_count)
    off = x[instance.x0_index(edge)] > ACTIVITY_TOL
    on = x[instance.x1_index(edge)] > ACTIVITY_TOL
    k = np.bincount(S.fragile_edges[off, 0], minlength=n)
    integral = not np.any(off & on)
    flipped = np.where(S.fragile_in_base, off, on)
    pi = (1.0 - k / instance.degrees) * x[:n]
    return np.maximum(pi, 0.0), _readonly(S.fragile_edges[flipped]), integral


def _rounded_attack(
    solution: lp_solver.LpSolution, instance: RelaxedLpInstance
) -> np.ndarray:
    """Round edge activities to a budget-feasible candidate attack.

    Edge on iff x1 >= x0; flips violating a budget are dropped smallest
    |x1 - x0| first, locally then globally.
    """
    S = instance.scenario
    x = solution.x
    edge = np.arange(S.fragile_count)
    x0 = x[instance.x0_index(edge)]
    x1 = x[instance.x1_index(edge)]
    cand = np.nonzero((x1 >= x0) != S.fragile_in_base)[0]
    neg_w = -np.abs(x1 - x0)[cand]
    src = S.fragile_edges[cand, 0]
    # per source: largest |x1 - x0| first, ties to the lower edge index;
    # rank within the source's block is position minus the block start
    order = np.lexsort((cand, neg_w, src))
    src = src[order]
    rank = np.arange(cand.size) - np.searchsorted(src, src)
    kept = order[rank < S.local_budget[src]]
    kept = kept[np.lexsort((cand[kept], neg_w[kept]))][: S.global_budget]
    return _readonly(S.fragile_edges[np.sort(cand[kept])])


def certify_global(
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    H: np.ndarray,
    targets,
    y: np.ndarray | None = None,
    bound_method: str = "closed_form",
) -> np.recarray:
    """Margin lower bounds for the targets under local plus global budgets.

    Per target t and class c != y_t, one relaxed LP is solved with teleport
    e_t and reward -(H[:, y_t] - H[:, c]); its objective L upper-bounds the
    adversary, so min_c(-L) lower-bounds the worst-case margin. A bound
    above MARGIN_EPS certifies robustness; otherwise the rounded LP attack
    is replayed exactly and, if the margin goes below -MARGIN_EPS, reported
    as a witnessed non-robustness. Returns the certificate table
    (analysis.certificate_table), one row per target: the bound as
    worst_margin, status "robust", "unknown" or "nonrobust-witnessed",
    "attack_verified" for the last, and the rounded attack as witness.
    """
    H = models.check_logits(H)
    K = H.shape[1]
    targets = np.asarray(targets, dtype=np.int64).ravel()
    if targets.size == 0:
        raise BoundError("need at least one certification target")
    if targets.min() < 0 or targets.max() >= G.node_count:
        raise BoundError(f"targets must be node ids in [0, {G.node_count})")
    if y is None:
        y = models.predict(G, alpha, H)
    y = models.check_labels(y, G.node_count, K)

    # only the pairs (y_t, c) of the targets' classes are read
    mdps = {(c1, c2): build_aux_mdp(S, alpha, -(H[:, c1] - H[:, c2]))
            for c1, c2 in policy_iter.class_pairs(K, y[targets])}

    cache = None
    if bound_method == "policy_opt":
        cache = policy_opt_graph_cache(G, S, alpha)

    def run(t):
        t = int(t)
        yt = int(y[t])
        z = np.zeros(G.node_count)
        z[t] = 1.0
        xbar = compute_upper_bounds(
            G, S, alpha, method=bound_method, z=z, graph_cache=cache,
        )
        best = (np.inf, yt, None, None)   # bound, class, solution, instance
        for c in range(K):
            if c == yt:
                continue
            inst = assemble_relaxed_lp(mdps[(yt, c)], S, z, xbar)
            sol = lp_solver.solve_lp(inst.lp, start=inst.clean_basis())
            if sol.status != "optimal":
                raise lp_solver.NumericalBreakdownError(
                    f"relaxed LP for target {t}, class {c} came back "
                    f"{sol.status}; the clean policy is always feasible and "
                    "the bounds preclude unboundedness, so this is a bug"
                )
            if -sol.objective < best[0]:
                best = (-sol.objective, c, sol, inst)
        best_bound, best_class, best_solution, best_instance = best
        attack = _rounded_attack(best_solution, best_instance)
        status = "robust" if best_bound > MARGIN_EPS else "unknown"
        if status != "robust":
            attacked = apply_policy(S, attack)
            pi = ppr.ppr_rows(attacked, alpha, [t])[0]
            diffs = pi @ H
            margins = diffs[yt] - diffs
            margins[yt] = np.inf
            if margins.min() < -MARGIN_EPS:
                status = "nonrobust-witnessed"
        return t, yt, best_class, best_bound, status, attack

    rows = map_parallel(run, targets)
    node, y_t, worst_class, bound, status, attack = zip(*rows)
    status = np.array(status, dtype=object)
    return analysis.certificate_table(
        node=node, y=y_t, worst_class=worst_class, worst_margin=bound,
        status=status, bound_type=np.full(len(rows), "lower"),
        attack_verified=status == "nonrobust-witnessed",
        # one element per attack: np.array would stack attacks of equal shape
        witness=np.fromiter(attack, dtype=object, count=len(rows)),
    )
