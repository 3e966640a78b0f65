"""Producers of the per-node logits matrix H.

Three certified model families share one interface, an N x K logits array:
an externally trained network evaluated per node, one-hot training labels
(label propagation), and logistic regression on diffused features (feature
propagation). Certification only ever sees H.
"""

from __future__ import annotations

import logging
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import ppr
from .graph import DirectedGraph, read_lines

logger = logging.getLogger(__name__)

FEATURES_MAGIC = b"PCFB1\n"
MODEL_MAGIC = b"PCMLP1\n"

# feature propagation's logistic fit: L2 weight on W, step size, step cap,
# gradient norm to stop at
FIT_REG = 1e-2
FIT_STEP = 0.5
FIT_ITERATION_CAP = 20000
FIT_GRAD_TOL = 1e-8


class ModelError(ValueError):
    pass


def check_logits(H: np.ndarray) -> np.ndarray:
    H = np.asarray(H, dtype=np.float64)
    if H.ndim != 2 or H.shape[1] < 2:
        raise ModelError("logits must be an N x K array with K >= 2")
    if not np.all(np.isfinite(H)):
        raise ModelError("logits must be finite")
    return H


def check_labels(y, node_count: int, class_count: int) -> np.ndarray:
    """y as an int array holding one class id in [0, class_count) per node."""
    y = np.asarray(y, dtype=np.int64)
    if y.shape != (node_count,):
        raise ModelError("need one class per node")
    if y.min() < 0 or y.max() >= class_count:
        raise ModelError("class id out of range")
    return y


def label_propagation_logits(labels, node_count: int, class_count: int) -> np.ndarray:
    """One-hot H with H[v, labels[v]] = 1 for labeled nodes, zero elsewhere.

    labels is a 1-D array with one entry per node: a class id in
    [0, class_count), or a negative value (-1 from load_labels) for an
    unlabeled node.
    """
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != (node_count,):
        raise ModelError("need one label entry per node")
    v = np.nonzero(y >= 0)[0]
    bad = v[y[v] >= class_count]
    if bad.size:
        raise ModelError(f"label ({bad[0]}, {y[bad[0]]}) out of range")
    if not v.size:
        logger.warning("label propagation got an empty label set; H is zero")
    H = np.zeros((node_count, class_count))
    H[v, y[v]] = 1.0
    return H


@dataclass(eq=False)
class MlpModel:
    """Fully connected net with rectifier hidden layers: weights[0] takes the
    features, weights[-1] gives the logits."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def copy(self) -> "MlpModel":
        return MlpModel([w.copy() for w in self.weights],
                        [b.copy() for b in self.biases])


def init_mlp(d_in: int, hidden: int, k: int, seed: int = 0) -> MlpModel:
    """Glorot-scaled init; hidden == 0 gives a plain linear (logistic) model."""
    rng = np.random.default_rng(seed)
    sizes = [d_in, k] if hidden == 0 else [d_in, hidden, k]
    weights, biases = [], []
    for a, b in zip(sizes[:-1], sizes[1:]):
        scale = np.sqrt(2.0 / (a + b))
        weights.append(rng.normal(0.0, scale, size=(a, b)))
        biases.append(np.zeros(b))
    return MlpModel(weights, biases)


def mlp_forward(model: MlpModel, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass returning logits and the post-activation cache."""
    X = np.asarray(X, dtype=np.float64)
    if X.shape[1] != model.weights[0].shape[0]:
        raise ModelError(
            f"feature dim {X.shape[1]} != model input dim {model.weights[0].shape[0]}"
        )
    acts = [X]
    a = X
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = a @ w + b
        a = z if i == last else np.maximum(z, 0.0)
        acts.append(a)
    return a, acts


def mlp_logits(model: MlpModel, X: np.ndarray) -> np.ndarray:
    """Per-row logits; the graph is not involved."""
    return mlp_forward(model, X)[0]


def mlp_backward(model: MlpModel, acts: list[np.ndarray], dH: np.ndarray
                 ) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Gradients of sum(dH * H) w.r.t. weights and biases."""
    dws = [None] * len(model.weights)
    dbs = [None] * len(model.biases)
    g = dH
    for i in reversed(range(len(model.weights))):
        a_in = acts[i]
        dws[i] = a_in.T @ g
        dbs[i] = g.sum(axis=0)
        if i > 0:
            g = (g @ model.weights[i].T) * (acts[i] > 0.0)
    return dws, dbs


def feature_propagation_logits(
    G: DirectedGraph,
    alpha: float,
    X: np.ndarray,
    labels: np.ndarray,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Diffuse features, fit multinomial logistic regression, return H = X W.

    The regression is trained on the diffused features of the labeled rows;
    the returned logits are the *undiffused* X W, so downstream certification
    (which diffuses H) reproduces the trained classifier.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    rows = np.nonzero(y >= 0)[0]
    if rows.size == 0:
        raise ModelError("feature propagation needs at least one labeled node")
    K = int(y[rows].max()) + 1
    if K < 2:
        raise ModelError("need at least two classes")
    Xd = ppr.diffused_margins(G, alpha, X)
    Xl, yl = Xd[rows], y[rows]
    onehot = np.zeros((rows.size, K))
    onehot[np.arange(rows.size), yl] = 1.0

    rng = np.random.default_rng(seed)
    W = rng.normal(0.0, 0.01, size=(X.shape[1], K))
    for _ in range(FIT_ITERATION_CAP):
        Z = Xl @ W
        Z -= Z.max(axis=1, keepdims=True)
        P = np.exp(Z)
        P /= P.sum(axis=1, keepdims=True)
        grad = Xl.T @ (P - onehot) / rows.size + FIT_REG * W
        if not np.all(np.isfinite(grad)):
            raise ModelError("logistic fit diverged (non-finite gradient)")
        if np.linalg.norm(grad) <= FIT_GRAD_TOL:
            break
        W -= FIT_STEP * grad
    else:
        logger.warning(
            "logistic fit stopped after %d steps with gradient norm %.3e",
            FIT_ITERATION_CAP, float(np.linalg.norm(grad)),
        )
    return X @ W, W


def predict(G: DirectedGraph, alpha: float, H: np.ndarray) -> np.ndarray:
    """Argmax over diffused logits, ties broken toward the lowest class id."""
    H = check_logits(H)
    diff = ppr.diffused_margins(G, alpha, H)
    return np.argmax(diff, axis=1)


def train_val_test_split(
    y: np.ndarray, per_class: int = 20, seed: int = 0
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample per_class nodes per class for train and again for validation;
    the rest are test. Nodes with label -1 are ignored."""
    y = np.asarray(y, dtype=np.int64)
    rng = np.random.default_rng(seed)
    train, val = [], []
    # the classes in order, by a sort: a bincount's length would grow with
    # the largest class id the labels file holds
    labeled = np.sort(y[y >= 0])
    for c in labeled[np.diff(labeled, prepend=-1) != 0]:
        pool = np.nonzero(y == c)[0]
        pool = rng.permutation(pool)
        if pool.size < 2 * per_class:
            raise ModelError(
                f"class {int(c)} has {pool.size} nodes, need {2 * per_class}"
            )
        train.append(pool[:per_class])
        val.append(pool[per_class: 2 * per_class])
    if not train:
        raise ModelError("the labels file labels no node")
    train = np.sort(np.concatenate(train))
    val = np.sort(np.concatenate(val))
    test = y >= 0
    test[train] = test[val] = False
    return train, val, np.flatnonzero(test)


def save_logits_csv(H: np.ndarray, path) -> None:
    H = check_logits(H)
    with Path(path).open("w", encoding="utf-8") as fh:
        for row in H:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def load_logits_csv(path) -> np.ndarray:
    return check_logits(load_features_csv(path))


def load_features_csv(path) -> np.ndarray:
    """Comma-separated rows of finite numbers, all as wide as the first row."""
    rows, linenos = [], []
    for lineno, line in read_lines(path, ModelError):
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            raise ModelError(f"{path}:{lineno}: not a number in {line!r}") from None
        if rows and len(row) != len(rows[0]):
            raise ModelError(
                f"{path}:{lineno}: {len(row)} values, expected {len(rows[0])}"
            )
        rows.append(row)
        linenos.append(lineno)
    X = np.asarray(rows, dtype=np.float64)
    # axis=-1 also covers a file with no rows, whose X is 1-D
    bad = np.flatnonzero(~np.isfinite(X).all(axis=-1))
    if bad.size:
        raise ModelError(f"{path}:{linenos[bad[0]]}: value not finite")
    return X


def load_features_bin(path) -> np.ndarray:
    """Binary feature file: magic, int64 dims n and d, then n * d row-major
    float64 values."""
    raw = Path(path).read_bytes()
    if not raw.startswith(FEATURES_MAGIC):
        raise ModelError(f"{path}: bad feature-file magic")
    head = len(FEATURES_MAGIC) + 16
    if len(raw) < head:
        raise ModelError(f"{path}: header cut short")
    n, d = struct.unpack_from("<qq", raw, len(FEATURES_MAGIC))
    if n < 0 or d < 0:
        raise ModelError(f"{path}: negative dimension in header {(n, d)}")
    if len(raw) - head != 8 * n * d:
        raise ModelError(f"{path}: payload has {len(raw) - head} bytes, "
                         f"the header needs {8 * n * d}")
    X = np.frombuffer(raw, dtype=np.float64, offset=head).reshape(n, d).copy()
    if not np.isfinite(X).all():
        raise ModelError(f"{path}: value not finite")
    return X


def save_model(model: MlpModel, path) -> None:
    """Checkpoint: magic, layer count, per-layer dims, row-major weights and
    biases."""
    with Path(path).open("wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<q", len(model.weights)))
        for w in model.weights:
            fh.write(struct.pack("<qq", w.shape[0], w.shape[1]))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w).tobytes())
            fh.write(np.ascontiguousarray(b).tobytes())
