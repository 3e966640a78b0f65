"""Finite-difference check of the robust-training gradients, for tests.

Each probe re-solves the inner problem from scratch, so the check is
independent of the Danskin gradients that robust_train backpropagates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from pagecert import models
from pagecert.graph import DirectedGraph, PerturbationScenario
from pagecert.models import MlpModel
from pagecert.robust_train import (
    RobustLossConfig,
    compute_worst_bundle,
    robust_loss_and_grad,
)


def _total_loss(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    config: RobustLossConfig,
    train_idx: np.ndarray,
) -> tuple[float, dict]:
    """Loss with the inner problem re-solved from scratch, plus a signature
    of the active nondifferentiable structure (for grad checks)."""
    H = models.mlp_logits(model, X)
    labels = y[train_idx]
    bundle = None
    if config.kind in ("rce", "cem"):
        bundle = compute_worst_bundle(G, S, alpha, H, train_idx, labels)
    loss, _ = robust_loss_and_grad(
        config.kind, G, alpha, H, train_idx, labels, bundle,
        config.hinge_margin,
    )
    signature: dict = {}
    if bundle is not None:
        signature["policies"] = {
            k: frozenset(map(tuple, p.tolist())) for k, p in bundle.pair_policies.items()
        }
        if config.kind == "cem":
            idx = np.arange(len(bundle.labels))
            active = bundle.margins < config.hinge_margin
            active[idx, bundle.labels] = False
            signature["hinge_active"] = frozenset(
                map(tuple, np.argwhere(active).tolist())
            )
    return loss, signature


@dataclass(eq=False)
class GradCheckResult:
    max_rel_error: float
    checked: int
    kinks: list[int]             # parameter indices excluded at policy ties


def grad_check(
    model: MlpModel,
    X: np.ndarray,
    y: np.ndarray,
    G: DirectedGraph,
    S: PerturbationScenario,
    alpha: float,
    config: RobustLossConfig,
    h: float = 1e-5,
) -> GradCheckResult:
    """Central finite differences of the full loss vs the analytic gradient.

    Each probe re-solves the inner problem; parameters whose stencil
    endpoints disagree on the optimal policies sit on a kink of the
    piecewise-linear inner optimum and are flagged rather than scored.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    train_idx = np.nonzero(y >= 0)[0]
    labels = y[train_idx]

    H, acts = models.mlp_forward(model, X)
    bundle = None
    if config.kind in ("rce", "cem"):
        bundle = compute_worst_bundle(G, S, alpha, H, train_idx, labels)
    _, dH = robust_loss_and_grad(
        config.kind, G, alpha, H, train_idx, labels, bundle,
        config.hinge_margin,
    )
    dws, dbs = models.mlp_backward(model, acts, dH)
    analytic = np.concatenate(
        [dw.ravel() for dw in dws] + [db.ravel() for db in dbs]
    )

    theta0 = model.params_flat()
    probe = model.copy()
    max_err = 0.0
    kinks: list[int] = []
    checked = 0
    for i in range(theta0.size):
        theta = theta0.copy()
        theta[i] = theta0[i] + h
        probe.set_params_flat(theta)
        f_plus, pol_plus = _total_loss(probe, X, y, G, S, alpha, config,
                                       train_idx)
        theta[i] = theta0[i] - h
        probe.set_params_flat(theta)
        f_minus, pol_minus = _total_loss(probe, X, y, G, S, alpha, config,
                                         train_idx)
        if pol_plus != pol_minus:
            kinks.append(i)
            continue
        numeric = (f_plus - f_minus) / (2.0 * h)
        denom = max(abs(analytic[i]), abs(numeric))
        err = abs(analytic[i] - numeric) if denom < 1e-6 else \
            abs(analytic[i] - numeric) / denom
        max_err = max(max_err, err)
        checked += 1
    return GradCheckResult(max_rel_error=max_err, checked=checked, kinks=kinks)
