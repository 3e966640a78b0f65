import struct
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from pagecert import ppr
from pagecert.graph import DirectedGraph, build_scenario, encode_edges
from pagecert.models import FEATURES_MAGIC, MODEL_MAGIC, MlpModel
from pagecert.ppr import ppr_rows


def ring_graph(n: int, chords=()) -> DirectedGraph:
    """Symmetric ring 0-1-...-(n-1)-0 plus optional undirected chords."""
    pairs = [(i, (i + 1) % n) for i in range(n)] + list(chords)
    edges = [(a, b) for a, b in pairs] + [(b, a) for a, b in pairs]
    return DirectedGraph.from_edges(n, np.unique(edges, axis=0))


def random_connected_graph(rng: np.random.Generator, n: int, extra: int = 3
                           ) -> DirectedGraph:
    """Random symmetric graph guaranteed connected (ring plus random chords)."""
    candidates = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if (b - a) % n not in (1, n - 1)
    ]
    extra = min(extra, len(candidates))
    idx = rng.choice(len(candidates), size=extra, replace=False) if extra else []
    chords = [candidates[int(i)] for i in idx]
    return ring_graph(n, sorted(chords))


def random_instance(rng: np.random.Generator, n: int = 7, extra: int = 3,
                    mode: str = "remove-only", global_budget=None):
    """Random graph + scenario with nontrivial budgets, for oracle tests."""
    G = random_connected_graph(rng, n, extra)
    S = build_scenario(
        G, mode,
        local_budgets=rng.integers(0, 3, size=n),
        global_budget=global_budget,
    )
    return G, S


def assert_policy_array(S, flips) -> None:
    """flips is a policy of S: a read-only (k, 2) int64 array of rows of
    S.fragile_edges, sorted by (src, dst) without repeats."""
    assert flips.dtype == np.int64 and flips.ndim == 2 and flips.shape[1] == 2
    assert not flips.flags.writeable
    assert set(map(tuple, flips.tolist())) <= set(map(tuple, S.fragile_edges.tolist()))
    keys = encode_edges(flips, S.node_count)
    assert np.all(keys[1:] > keys[:-1])


def bundle_ppr_rows(bundle) -> np.ndarray:
    """rows[l, c]: the PageRank vector of bundle.nodes[l] on the stored
    (labels[l], c) pair graph, zero at the own class, from ppr_rows; the
    reference for the margins and gradients a WorstCaseBundle solves for."""
    graphs = bundle.pair_graphs
    n = next(iter(graphs.values())).node_count
    rows = np.zeros((bundle.nodes.size, bundle.class_count, n))
    for (c1, c2), g in graphs.items():
        sel = np.nonzero(bundle.labels == c1)[0]
        rows[sel, c2] = ppr_rows(g, bundle.alpha, bundle.nodes[sel])
    return rows


def save_features_bin(X: np.ndarray, path) -> None:
    """The binary feature file models.load_features_bin reads: magic, int64
    dims, row-major float64 data."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Path(path).write_bytes(FEATURES_MAGIC + struct.pack("<qq", *X.shape) + X.tobytes())


def load_model(path) -> MlpModel:
    """The model of a models.save_model checkpoint: magic, layer count,
    per-layer dims, then each layer's row-major weights and biases."""
    raw = Path(path).read_bytes()
    assert raw.startswith(MODEL_MAGIC)
    pos = len(MODEL_MAGIC)
    (layers,) = struct.unpack_from("<q", raw, pos)
    flat = struct.unpack_from(f"<{2 * layers}q", raw, pos + 8)
    values = np.frombuffer(raw, dtype=np.float64, offset=pos + 8 + 16 * layers)
    weights, biases = [], []
    for a, b in zip(flat[::2], flat[1::2]):
        weights.append(values[:a * b].reshape(a, b).copy())
        biases.append(values[a * b:a * b + b].copy())
        values = values[a * b + b:]
    assert not values.size
    return MlpModel(weights, biases)


class SolveSpy:
    """Wraps ppr.solve_transport. Inside a run(), each right-hand-side
    column's solution of every call is recorded, in call order, under the
    column's bytes. Policy iteration solves a reward r once a round, so
    values[r.tobytes()] lists its value of each round."""

    def __init__(self, monkeypatch):
        self.values = None
        solve = ppr.solve_transport

        def spy(G, alpha, rhs, transpose=False):
            X = solve(G, alpha, rhs, transpose)
            if self.values is not None:
                cols = np.asarray(rhs, dtype=np.float64).reshape(len(X), -1)
                for r, x in zip(cols.T, X.reshape(len(X), -1).T):
                    self.values.setdefault(r.tobytes(), []).append(x.copy())
            return X

        monkeypatch.setattr(ppr, "solve_transport", spy)

    @contextmanager
    def run(self):
        """A fresh record for the solves of one run, kept after it ends."""
        self.values = values = {}
        try:
            yield values
        finally:
            self.values = None


@pytest.fixture
def solves(monkeypatch):
    return SolveSpy(monkeypatch)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
