"""Robust losses over worst-case margins and the training loops using them.

The inner problem (worst-case margin per labeled node and rival class) is
solved exactly by the local-budget optimizer; because the margin is linear
in the logits once the adversarial graph is fixed, the loss gradient w.r.t.
the logits is just the (+/-) optimal PageRank scores, and backpropagation
through the model proceeds analytically with those scores held constant.

train_robust replaces the clean graph by its ppr.factor_clean'd graph once
per run, so every clean solve is served from one inverse: each epoch's
diffused logits, the clean cross-entropy's adjoint, and round 1 of each
epoch's policy iteration, where no pair flips anything yet.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import models, policy_iter, ppr
from .graph import DirectedGraph, PerturbationScenario
from .models import MlpModel


class TrainingDivergedError(RuntimeError):
    def __init__(self, message: str, history: list[dict]):
        super().__init__(message)
        self.history = history


@dataclass
class RobustLossConfig:
    """Loss selection and optimizer settings for robust training."""

    kind: str = "ce"              # "ce" | "rce" | "cem"
    hinge_margin: float = 1.0     # only used by "cem"
    recompute_every: int = 1      # epochs between inner-problem refreshes
    learning_rate: float = 1e-2
    weight_decay: float = 5e-2
    patience: int = 100
    max_epochs: int = 1000

    def __post_init__(self):
        if self.kind not in ("ce", "rce", "cem"):
            raise ValueError(f"unknown loss kind {self.kind!r}")
        if self.hinge_margin < 0:
            raise ValueError("hinge margin must be nonnegative")
        if self.recompute_every < 1:
            raise ValueError("recompute cadence must be >= 1")


@dataclass(eq=False)
class WorstCaseBundle:
    """Worst-case margins and the attaining PageRank rows for labeled nodes.

    margins[l, c] = worst margin of node nodes[l] between its class and c
    (0 at its own class); pprs[l, c] is the personalized PageRank vector of
    nodes[l] on the (labels[l], c)-optimal perturbed graph.
    """

    nodes: np.ndarray            # (L,)
    labels: np.ndarray           # (L,)
    class_count: int
    margins: np.ndarray          # (L, K)
    pprs: np.ndarray             # (L, K, N)
    pair_policies: dict = field(default_factory=dict)
    pair_graphs: dict = field(default_factory=dict)

    def refresh_margins(self, H: np.ndarray) -> None:
        """Re-evaluate margins from the stored PageRank rows for new logits.

        Exact while the stored adversarial graphs stay optimal; between
        refreshes of the inner problem this is the Danskin-fixed surrogate.
        """
        # diff[l, c] = H[:, labels[l]] - H[:, c], zero at the own class
        diff = H.T[self.labels][:, None, :] - H.T[None, :, :]
        self.margins[...] = np.einsum("lkn,lkn->lk", self.pprs, diff)

    def certified_ratio(self, eps: float = policy_iter.MARGIN_EPS) -> float:
        worst = np.where(
            np.arange(self.class_count)[None, :] == self.labels[:, None],
            np.inf,
            self.margins,
        ).min(axis=1)
        return float(np.mean(worst > eps))


def compute_worst_bundle(
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    H: np.ndarray,
    nodes,
    labels,
) -> WorstCaseBundle:
    """Solve the inner problem for every labeled node and rival class.

    Pairs whose first class labels no node are solved too (one run covers
    all nodes) but not stored.
    """
    H = models.check_logits(H)
    K = H.shape[1]
    nodes = np.asarray(nodes, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    L = nodes.size
    margins = np.zeros((L, K))
    pprs = np.zeros((L, K, G.node_count))
    pair_policies = {}
    pair_graphs = {}
    pairs = policy_iter.pair_worst_margins(G, S, alpha, H)
    for (c1, c2), (pair_margins, res) in pairs.items():
        sel = np.nonzero(labels == c1)[0]
        if not sel.size:
            continue
        pair_policies[(c1, c2)] = res.policy
        pair_graphs[(c1, c2)] = res.graph
        pprs[sel, c2] = ppr.ppr_rows(res.graph, alpha, nodes[sel])
        margins[sel, c2] = pair_margins[nodes[sel]]
    return WorstCaseBundle(
        nodes=nodes, labels=labels, class_count=K,
        margins=margins, pprs=pprs,
        pair_policies=pair_policies, pair_graphs=pair_graphs,
    )


def _softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _logsumexp(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1)
    return m + np.log(np.exp(z - m[:, None]).sum(axis=1))


def loss_rce(bundle: WorstCaseBundle) -> float:
    """Cross-entropy on the pseudo-logits (-worst margins), summed over nodes.

    The pseudo-logit is 0 at the node's own class (its self-margin) and
    -m* at every rival class.
    """
    pseudo = -bundle.margins
    pseudo[np.arange(len(bundle.labels)), bundle.labels] = 0.0
    return float(np.sum(_logsumexp(pseudo)))


def _rce_grad_margins(bundle: WorstCaseBundle) -> np.ndarray:
    """d loss / d margins[l, c]; zero at the own-class column."""
    pseudo = -bundle.margins
    idx = np.arange(len(bundle.labels))
    pseudo[idx, bundle.labels] = 0.0
    p = _softmax(pseudo)
    g = -p
    g[idx, bundle.labels] = 0.0
    return g


def loss_cem(bundle: WorstCaseBundle, H_diff: np.ndarray,
             hinge_margin: float) -> float:
    """Clean cross-entropy plus hinge on worst-case margins.

    Zero hinge (exactly the plain cross-entropy) once every labeled node is
    certified with margin >= hinge_margin.
    """
    ce = _clean_ce_loss(H_diff, bundle.nodes, bundle.labels)
    hinge = np.maximum(0.0, hinge_margin - bundle.margins)
    hinge[np.arange(len(bundle.labels)), bundle.labels] = 0.0
    return ce + float(hinge.sum())


def _margin_grads_to_H(bundle: WorstCaseBundle, g_margins: np.ndarray,
                       n: int) -> np.ndarray:
    """Map margin gradients to logit-space gradients via the stored
    PageRank rows (Danskin: the rows are treated as constants)."""
    # rows[l, c] = g[l, c] * pprs[l, c] enters dH[:, labels[l]] with a plus
    # and dH[:, c] with a minus; at c = labels[l] the two cancel
    rows = g_margins[:, :, None] * bundle.pprs
    to_label = np.zeros((bundle.class_count, n))
    np.add.at(to_label, bundle.labels, rows.sum(axis=1))
    return (to_label - rows.sum(axis=0)).T


def _clean_ce_loss(Hd: np.ndarray, nodes: np.ndarray, labels: np.ndarray) -> float:
    """Cross-entropy of the clean diffused logits Hd at nodes."""
    logits = Hd[nodes]
    return float(np.sum(_logsumexp(logits) - logits[np.arange(nodes.size), labels]))


def _clean_ce_loss_grad(
    G: DirectedGraph, alpha: float, Hd: np.ndarray, nodes: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, np.ndarray]:
    """Cross-entropy on the clean diffused logits Hd and its gradient w.r.t. H."""
    gd = _softmax(Hd[nodes])
    gd[np.arange(nodes.size), labels] -= 1.0
    full = np.zeros_like(Hd)
    full[nodes] = gd
    # adjoint of diffusion: dH = Pi^T (dL/dH_diff)
    dH = ppr.diffuse_transpose(G, alpha, full)
    return _clean_ce_loss(Hd, nodes, labels), dH


def robust_loss_and_grad(
    kind: str,
    G: DirectedGraph,
    alpha: float,
    H: np.ndarray,
    nodes: np.ndarray,
    labels: np.ndarray,
    bundle: WorstCaseBundle | None,
    hinge_margin: float,
    Hd: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Loss value and dLoss/dH for one of the three training losses.

    Hd, the clean diffused logits of H, is solved for when not given.
    """
    if kind != "rce" and Hd is None:
        Hd = ppr.diffused_margins(G, alpha, H)
    if kind == "ce":
        return _clean_ce_loss_grad(G, alpha, Hd, nodes, labels)
    assert bundle is not None
    bundle.refresh_margins(H)
    if kind == "rce":
        loss = loss_rce(bundle)
        g = _rce_grad_margins(bundle)
        return loss, _margin_grads_to_H(bundle, g, H.shape[0])
    # cem
    _, dH = _clean_ce_loss_grad(G, alpha, Hd, nodes, labels)
    active = (bundle.margins < hinge_margin).astype(np.float64)
    active[np.arange(len(bundle.labels)), bundle.labels] = 0.0
    dH += _margin_grads_to_H(bundle, -active, H.shape[0])
    return loss_cem(bundle, Hd, hinge_margin), dH


def train_robust(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    config: RobustLossConfig,
    train_idx,
    val_idx,
) -> tuple[MlpModel, list[dict]]:
    """Full-batch gradient descent on the chosen loss with early stopping.

    Deterministic given the model's initial parameters and the config. The
    validation criterion is the clean cross-entropy on val_idx; the best
    parameters by that criterion are restored at the end. History rows
    carry (epoch, loss, val_loss, certified_ratio).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    train_idx = np.asarray(train_idx, dtype=np.int64)
    val_idx = np.asarray(val_idx, dtype=np.int64)
    labels = y[train_idx]
    model = model.copy()
    bundle = None
    history: list[dict] = []
    best_val = np.inf
    best_params = model.params_flat()
    bad_epochs = 0
    cert_ratio = float("nan")
    G = ppr.factor_clean(G, alpha)

    for epoch in range(config.max_epochs):
        H, acts = models.mlp_forward(model, X)
        # one clean diffusion per epoch serves the train and the val loss
        Hd = ppr.diffused_margins(G, alpha, H)
        needs_bundle = config.kind in ("rce", "cem")
        if needs_bundle and (bundle is None or epoch % config.recompute_every == 0):
            bundle = compute_worst_bundle(G, S, alpha, H, train_idx, labels)
        loss, dH = robust_loss_and_grad(
            config.kind, G, alpha, H, train_idx, labels, bundle,
            config.hinge_margin, Hd=Hd,
        )
        if needs_bundle:
            cert_ratio = bundle.certified_ratio()
        reg = 0.5 * config.weight_decay * sum(
            float(np.sum(w * w)) for w in model.weights
        )
        loss += reg
        val_loss = _clean_ce_loss(Hd, val_idx, y[val_idx])
        if not np.isfinite(loss) or not np.isfinite(val_loss):
            raise TrainingDivergedError(
                f"loss diverged at epoch {epoch}", history
            )
        history.append(
            {"epoch": epoch, "loss": loss, "val_loss": val_loss,
             "certified_ratio": cert_ratio}
        )
        if val_loss < best_val - 1e-12:
            best_val = val_loss
            best_params = model.params_flat()
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs > config.patience:
                break

        dws, dbs = models.mlp_backward(model, acts, dH)
        for w, dw in zip(model.weights, dws):
            w -= config.learning_rate * (dw + config.weight_decay * w)
        for b, db in zip(model.biases, dbs):
            b -= config.learning_rate * db

    model.set_params_flat(best_params)
    return model, history
