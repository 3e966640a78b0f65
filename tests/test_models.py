import numpy as np
import pytest

from pagecert import models
from pagecert.graph import DirectedGraph, generate_sbm, sbm_block_labels
from pagecert.models import (
    MlpModel,
    ModelError,
    feature_propagation_logits,
    init_mlp,
    label_propagation_logits,
    load_features_bin,
    load_logits_csv,
    mlp_logits,
    predict,
    save_logits_csv,
    save_model,
    train_val_test_split,
)
from pagecert.ppr import diffused_margins

from conftest import load_model, random_connected_graph, save_features_bin

ALPHA = 0.85


def dense_pi_matrix(G: DirectedGraph, alpha: float) -> np.ndarray:
    n = G.node_count
    A = np.zeros((n, n))
    A[G.edges[:, 0], G.edges[:, 1]] = 1.0
    P = A / A.sum(axis=1)[:, None]
    return (1 - alpha) * np.linalg.inv(np.eye(n) - alpha * P)


class TestLabelPropagation:
    def test_one_hot_layout(self):
        H = label_propagation_logits(np.array([1, -1, -1]), 3, 2)
        assert H.tolist() == [[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]

    def test_empty_labels_warn(self, caplog):
        with caplog.at_level("WARNING"):
            H = label_propagation_logits(np.full(4, -1), 4, 2)
        assert np.all(H == 0)
        assert "empty label set" in caplog.text

    def test_label_out_of_range(self):
        with pytest.raises(ModelError):
            label_propagation_logits(np.array([5, -1, -1]), 3, 2)

    def test_array_input_with_unlabeled(self):
        H = label_propagation_logits(np.array([1, -1, 0]), 3, 2)
        assert H.tolist() == [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]

    def test_diffused_matches_dense_computation(self, rng):
        G = random_connected_graph(rng, 6, extra=2)
        H = label_propagation_logits(np.array([0, -1, -1, 1, -1, 1]), 6, 2)
        ours = diffused_margins(G, ALPHA, H)
        dense = dense_pi_matrix(G, ALPHA) @ H
        assert np.allclose(ours, dense, atol=1e-9)


class TestMlp:
    def test_zero_weights_give_bias_rows(self):
        model = MlpModel(
            weights=[np.zeros((3, 2))], biases=[np.array([0.5, -1.0])]
        )
        H = mlp_logits(model, np.ones((4, 3)))
        assert np.allclose(H, np.tile([0.5, -1.0], (4, 1)))

    def test_hand_computed_two_unit_network(self):
        # relu(x @ W1 + b1) @ W2 + b2 on a single feature
        model = MlpModel(
            weights=[np.array([[1.0, -1.0]]), np.array([[2.0], [1.0]])],
            biases=[np.array([0.0, 0.5]), np.array([0.25])],
        )
        X = np.array([[1.0], [-2.0]])
        # row 1: relu([1, -0.5]) = [1, 0] -> 2*1 + 0.25 = 2.25
        # row 2: relu([-2, 2.5]) = [0, 2.5] -> 2.5 + 0.25 = 2.75
        H = mlp_logits(model, X)
        assert np.allclose(H, [[2.25], [2.75]])

    def test_matches_independent_matrix_reference(self, rng):
        model = init_mlp(5, 8, 3, seed=9)
        X = rng.normal(size=(7, 5))
        ref = np.maximum(X @ model.weights[0] + model.biases[0], 0.0) \
            @ model.weights[1] + model.biases[1]
        assert np.allclose(mlp_logits(model, X), ref, atol=1e-12)

    def test_shape_mismatch(self):
        model = init_mlp(5, 4, 2, seed=0)
        with pytest.raises(ModelError):
            mlp_logits(model, np.ones((3, 4)))


class TestPredict:
    def test_tie_breaks_to_lowest_class(self, rng):
        G = random_connected_graph(rng, 5, extra=1)
        H = np.ones((5, 2))
        assert np.all(predict(G, ALPHA, H) == 0)

    def test_disconnected_cliques_predict_their_label(self):
        edges = []
        for block in ([0, 1, 2], [3, 4, 5]):
            for a in block:
                for b in block:
                    if a != b:
                        edges.append((a, b))
        G = DirectedGraph.from_edges(6, edges)
        H = label_propagation_logits(np.array([0, -1, -1, 1, -1, -1]), 6, 2)
        y = predict(G, ALPHA, H)
        assert y.tolist() == [0, 0, 0, 1, 1, 1]
        # dense-oracle agreement
        dense = dense_pi_matrix(G, ALPHA) @ H
        assert np.array_equal(y, np.argmax(dense, axis=1))

    def test_constant_column_shift_invariance(self, rng):
        G = random_connected_graph(rng, 6, extra=2)
        H = rng.normal(size=(6, 3))
        assert np.array_equal(
            predict(G, ALPHA, H), predict(G, ALPHA, H + 2.5)
        )

    def test_diffusion_linearity(self, rng):
        G = random_connected_graph(rng, 6, extra=2)
        H = rng.normal(size=(6, 3))
        a = rng.normal(size=3)
        lhs = diffused_margins(G, ALPHA, H @ a)
        rhs = diffused_margins(G, ALPHA, H) @ a
        assert np.allclose(lhs, rhs, atol=1e-9)


class TestFeaturePropagation:
    def test_memorizes_separable_labels(self, rng, monkeypatch):
        monkeypatch.setattr(models, "FIT_STEP", 1.0)
        monkeypatch.setattr(models, "FIT_ITERATION_CAP", 50000)
        monkeypatch.setattr(models, "FIT_REG", 1e-4)
        G = random_connected_graph(rng, 8, extra=3)
        y = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        X = np.eye(8)
        H, W = feature_propagation_logits(G, ALPHA, X, y)
        diff = diffused_margins(G, ALPHA, H)
        assert np.all(np.argmax(diff, axis=1) == y)

    def test_zero_weights_mean_zero_logits(self, rng):
        G = random_connected_graph(rng, 5, extra=1)
        X = rng.normal(size=(5, 3))
        H = X @ np.zeros((3, 2))
        assert np.all(H == 0.0)
        assert np.all(predict(G, ALPHA, np.zeros((5, 2)) + 0.0) == 0)

    def test_sbm_block_features_generalize(self, monkeypatch):
        monkeypatch.setattr(models, "FIT_STEP", 1.0)
        monkeypatch.setattr(models, "FIT_REG", 1e-3)
        G = generate_sbm(30, 2, 0.6, 0.05, seed=4)
        labels = sbm_block_labels(30, 2)
        X = np.zeros((30, 2))
        X[np.arange(30), labels] = 1.0
        y_train = np.full(30, -1)
        train = [0, 1, 2, 15, 16, 17]
        y_train[train] = labels[train]
        H, _ = feature_propagation_logits(G, ALPHA, X, y_train)
        pred = predict(G, ALPHA, H)
        test = np.setdiff1d(np.arange(30), train)
        acc = float(np.mean(pred[test] == labels[test]))
        assert acc > 0.9

    def test_needs_labels(self, rng):
        G = random_connected_graph(rng, 5, extra=1)
        with pytest.raises(ModelError):
            feature_propagation_logits(G, ALPHA, np.eye(5), np.full(5, -1))

    @pytest.mark.filterwarnings("ignore:overflow")
    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_degenerate_fit_reports_divergence(self, rng, monkeypatch):
        monkeypatch.setattr(models, "FIT_STEP", 1e9)
        G = random_connected_graph(rng, 5, extra=1)
        X = rng.normal(size=(5, 2)) * 1e6
        y = np.array([0, 1, 0, 1, -1])
        with pytest.raises(ModelError, match="diverged"):
            feature_propagation_logits(G, ALPHA, X, y)


class TestSplitAndIo:
    def test_split_sizes_and_disjoint(self):
        y = np.repeat([0, 1, 2], 50)
        train, val, test = train_val_test_split(y, per_class=20, seed=3)
        assert train.size == 60 and val.size == 60
        assert test.size == 150 - 120
        assert not set(train) & set(val)
        assert not (set(train) | set(val)) & set(test)

    def test_split_deterministic(self):
        y = np.repeat([0, 1], 60)
        a = train_val_test_split(y, per_class=20, seed=9)
        b = train_val_test_split(y, per_class=20, seed=9)
        for u, v in zip(a, b):
            assert np.array_equal(u, v)

    def test_split_matches_set_routines(self):
        # class ids with gaps between them and unlabeled nodes among them:
        # the split is the one np.unique and the set routines give
        y = np.random.default_rng(5).choice([-1, 0, 3, 7], size=300)
        train, val, test = train_val_test_split(y, per_class=10, seed=4)
        rng, want = np.random.default_rng(4), ([], [])
        for c in np.unique(y[y >= 0]):
            pool = rng.permutation(np.nonzero(y == c)[0])
            want[0].append(pool[:10])
            want[1].append(pool[10:20])
        assert np.array_equal(train, np.sort(np.concatenate(want[0])))
        assert np.array_equal(val, np.sort(np.concatenate(want[1])))
        assert np.array_equal(test, np.setdiff1d(np.nonzero(y >= 0)[0],
                                                 np.union1d(train, val)))

    def test_split_without_labeled_nodes(self):
        with pytest.raises(ModelError, match="labels no node"):
            train_val_test_split(np.full(10, -1), per_class=2)

    def test_logits_csv_round_trip(self, tmp_path, rng):
        H = rng.normal(size=(5, 3))
        p = tmp_path / "h.csv"
        save_logits_csv(H, p)
        assert np.array_equal(load_logits_csv(p), H)

    def test_features_bin_round_trip(self, tmp_path, rng):
        X = rng.normal(size=(6, 4))
        p = tmp_path / "x.bin"
        save_features_bin(X, p)
        assert np.array_equal(load_features_bin(p), X)

    def test_model_checkpoint_round_trip(self, tmp_path):
        model = init_mlp(5, 7, 3, seed=13)
        p = tmp_path / "m.bin"
        save_model(model, p)
        loaded = load_model(p)
        assert len(loaded.weights) == len(model.weights)
        for a, b in zip(loaded.weights + loaded.biases,
                        model.weights + model.biases):
            assert a.shape == b.shape and np.allclose(a, b)
