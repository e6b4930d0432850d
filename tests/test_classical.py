"""Classical learners against finite-difference and exhaustive-search oracles."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevtriage import classical
from sevtriage.errors import ConfigError, FitError, ShapeError


def bce(weights, bias, X, y):
    z = X @ weights + bias
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


class TestLogReg:
    def test_separable_one_dimensional(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = classical.train_logreg(X, y)
        assert model.weights[0] > 0
        assert model.predict_proba(np.array([[1.0]]))[0] > 0.5

    def test_symmetric_data_zero_bias(self):
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = classical.train_logreg(X, y, max_iter=3000, tol=1e-10)
        assert abs(model.bias) < 1e-4

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 4))
        y = rng.integers(0, 2, 5).astype(float)
        w = rng.normal(size=4) * 0.5
        b = 0.3
        C = 1.0
        grad_w, grad_b = classical.logreg_gradient(w, b, X, y, C)
        h = 1e-6
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            num = (classical.logreg_loss(w + e, b, X, y, C) - classical.logreg_loss(w - e, b, X, y, C)) / (2 * h)
            assert abs(num - grad_w[j]) / max(abs(num), abs(grad_w[j]), 1e-8) < 1e-5
        num_b = (classical.logreg_loss(w, b + h, X, y, C) - classical.logreg_loss(w, b - h, X, y, C)) / (2 * h)
        assert abs(num_b - grad_b) / max(abs(num_b), abs(grad_b), 1e-8) < 1e-5

    def test_loss_non_increasing_over_iterations(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 5))
        y = (X[:, 0] + 0.3 * rng.normal(size=30) > 0).astype(int)
        losses = []
        for iters in range(1, 12):
            model = classical.train_logreg(X, y, max_iter=iters, tol=0.0)
            losses.append(classical.logreg_loss(model.weights, model.bias, X, y, 1.0))
        assert all(a >= b - 1e-12 for a, b in zip(losses, losses[1:]))

    def test_weaker_regularization_never_raises_training_bce(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(40, 3))
        y = (X @ np.array([1.0, -2.0, 0.5]) > 0).astype(int)
        results = [
            bce(m.weights, m.bias, X, y)
            for m in (classical.train_logreg(X, y, C=c, max_iter=5000, tol=1e-10) for c in (0.5, 1.0, 2.0))
        ]
        assert results[0] >= results[1] - 1e-9
        assert results[1] >= results[2] - 1e-9

    def test_zero_model_predicts_half(self):
        model = classical.LogRegModel(np.zeros(3), 0.0, 1.0)
        assert np.allclose(model.predict_proba(np.ones((4, 3))), 0.5)

    def test_single_class_raises(self):
        with pytest.raises(FitError):
            classical.train_logreg(np.ones((4, 2)), np.ones(4))

    def test_width_mismatch_raises(self):
        model = classical.train_logreg(np.array([[-1.0], [1.0]]), np.array([0, 1]))
        with pytest.raises(ShapeError):
            model.predict_proba(np.ones((2, 3)))

    def test_sparse_and_dense_agree(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(3)
        X = np.where(rng.random((20, 6)) < 0.3, rng.random((20, 6)), 0.0)
        y = rng.integers(0, 2, 20)
        y[0], y[1] = 0, 1
        dense = classical.train_logreg(X, y, max_iter=200)
        sparse = classical.train_logreg(sp.csr_matrix(X), y, max_iter=200)
        assert np.allclose(dense.weights, sparse.weights, atol=1e-10)

    def test_json_roundtrip(self):
        model = classical.train_logreg(np.array([[-1.0], [1.0]]), np.array([0, 1]))
        back = classical.LogRegModel.from_dict(model.to_dict())
        assert np.array_equal(back.weights, model.weights)
        assert back.bias == model.bias


class TestTopCoefficients:
    def test_ordering(self):
        model = classical.LogRegModel(np.array([2.0, -3.0, 1.0]), 0.0, 1.0)
        pos, neg = classical.top_coefficients(model, ["a", "b", "c"], n=1)
        assert pos == [("a", 2.0)]
        assert neg == [("b", -3.0)]

    def test_clamped_to_width(self):
        model = classical.LogRegModel(np.array([1.0, -1.0]), 0.0, 1.0)
        pos, neg = classical.top_coefficients(model, ["a", "b"], n=10)
        assert len(pos) == len(neg) == 2


# ---------------------------------------------------------------------------
# Decision tree with exhaustive-search oracle


def oracle_tree(X, y, depth=0, max_depth=None, min_leaf=1):
    """Reference tree by exhaustive enumeration of midpoint splits."""
    counts = [int(np.sum(y == 0)), int(np.sum(y == 1))]
    m = len(y)
    p1 = counts[1] / m
    p0 = counts[0] / m
    parent = 1.0 - p1 * p1 - p0 * p0
    depth_ok = max_depth is None or depth < max_depth
    if counts[0] == 0 or counts[1] == 0 or not depth_ok or m < 2 * min_leaf:
        return {"counts": counts}
    best = None
    for j in range(X.shape[1]):
        distinct = sorted(set(X[:, j].tolist()))
        for lo, hi in zip(distinct, distinct[1:]):
            thr = (lo + hi) / 2.0
            mask = X[:, j] <= thr
            ml = int(mask.sum())
            mr = m - ml
            if ml < min_leaf or mr < min_leaf:
                continue
            c1l = int(y[mask].sum())
            c1r = counts[1] - c1l
            pl1 = c1l / ml
            pl0 = (ml - c1l) / ml
            pr1 = c1r / mr
            pr0 = (mr - c1r) / mr
            gl = 1.0 - pl1 * pl1 - pl0 * pl0
            gr = 1.0 - pr1 * pr1 - pr0 * pr0
            score = (ml * gl + mr * gr) / m
            if best is None or score < best[2]:
                best = (j, thr, score)
    if best is None or best[2] >= parent:
        return {"counts": counts}
    j, thr, _ = best
    mask = X[:, j] <= thr
    return {
        "feature": j,
        "threshold": thr,
        "left": oracle_tree(X[mask], y[mask], depth + 1, max_depth, min_leaf),
        "right": oracle_tree(X[~mask], y[~mask], depth + 1, max_depth, min_leaf),
    }


def to_nested(model: classical.TreeModel, index=0):
    node = model.nodes[index]
    if "counts" in node:
        return {"counts": list(node["counts"])}
    return {
        "feature": node["feature"],
        "threshold": node["threshold"],
        "left": to_nested(model, node["left"]),
        "right": to_nested(model, node["right"]),
    }


@st.composite
def tied_instances(draw):
    """Small matrices with duplicate rows and tied values, labels and growth limits."""
    n_cols = draw(st.integers(1, 3))
    value = st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0])
    distinct = draw(st.lists(st.lists(value, min_size=n_cols, max_size=n_cols), min_size=1, max_size=5))
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), min_size=1, max_size=12))
    X = np.array([distinct[i] for i in picks])
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=len(picks), max_size=len(picks))))
    max_depth = draw(st.none() | st.integers(0, 4))
    min_leaf = draw(st.integers(1, 3))
    return X, y, max_depth, min_leaf


class TestDecisionTree:
    def test_pure_input_single_leaf(self):
        model = classical.train_tree(np.arange(8.0).reshape(4, 2), np.ones(4, dtype=int))
        assert len(model.nodes) == 1
        assert model.nodes[0]["counts"] == [0, 4]

    def test_separable_threshold_in_gap(self):
        X = np.array([[-3.0], [-1.0], [1.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        model = classical.train_tree(X, y)
        root = model.nodes[0]
        assert -1.0 < root["threshold"] < 1.0

    def test_matches_exhaustive_oracle_on_binary_instances(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            X = rng.integers(0, 2, size=(6, 2)).astype(float)
            y = rng.integers(0, 2, size=6)
            if len(np.unique(y)) < 2:
                continue
            got = to_nested(classical.train_tree(X, y))
            want = oracle_tree(X, y)
            assert got == want

    def test_matches_oracle_with_continuous_features_and_depth_limit(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            X = np.round(rng.random((8, 3)), 2)
            y = rng.integers(0, 2, size=8)
            if len(np.unique(y)) < 2:
                continue
            got = to_nested(classical.train_tree(X, y, max_depth=2, min_samples_leaf=2))
            want = oracle_tree(X, y, max_depth=2, min_leaf=2)
            assert got == want

    @settings(max_examples=300, deadline=None)
    @given(tied_instances())
    def test_matches_oracle_with_duplicate_rows_and_ties(self, instance):
        X, y, max_depth, min_leaf = instance
        got = to_nested(classical.train_tree(X, y, max_depth=max_depth, min_samples_leaf=min_leaf))
        assert got == oracle_tree(X, y, max_depth=max_depth, min_leaf=min_leaf)

    def test_leaf_fraction_probability(self):
        nodes = ({"counts": [2, 6]},)
        model = classical.TreeModel(nodes, 1, None, 1)
        assert model.predict_proba(np.zeros((1, 1)))[0] == 0.75

    def test_training_rows_land_in_leaves_containing_them(self):
        rng = np.random.default_rng(6)
        X = rng.random((20, 3))
        y = rng.integers(0, 2, 20)
        y[:2] = [0, 1]
        model = classical.train_tree(X, y)
        for i, row in enumerate(X):
            node = model.nodes[0]
            while "feature" in node:
                node = model.nodes[node["left"] if row[node["feature"]] <= node["threshold"] else node["right"]]
            assert node["counts"][y[i]] >= 1


class TestRandomForest:
    def _noisy_instance(self, seed=7, n=40):
        rng = np.random.default_rng(seed)
        X = rng.integers(0, 3, size=(n, 4)).astype(float)
        y = (X[:, 0] + X[:, 1] >= 3).astype(int)
        flip = rng.random(n) < 0.15
        y[flip] = 1 - y[flip]
        if len(np.unique(y)) < 2:
            y[0], y[1] = 0, 1
        return X, y

    def test_reduces_to_single_tree_in_test_mode(self):
        X, y = self._noisy_instance()
        forest = classical.train_forest(X, y, n_trees=1, features_per_split=1.0, bootstrap=False, seed=0)
        tree = classical.train_tree(X, y)
        assert np.array_equal(forest.predict_proba(X), tree.predict_proba(X))

    def test_same_seed_identical_predictions(self):
        X, y = self._noisy_instance()
        a = classical.train_forest(X, y, n_trees=10, seed=42)
        b = classical.train_forest(X, y, n_trees=10, seed=42)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

    def test_forest_at_least_matches_depth_limited_tree(self):
        X, y = self._noisy_instance()
        tree = classical.train_tree(X, y, max_depth=2)
        forest = classical.train_forest(X, y, n_trees=30, max_depth=2, seed=3)
        tree_acc = np.mean((tree.predict_proba(X) >= 0.5).astype(int) == y)
        forest_acc = np.mean((forest.predict_proba(X) >= 0.5).astype(int) == y)
        assert forest_acc >= tree_acc

    def test_mean_of_member_trees_exactly(self):
        X, y = self._noisy_instance()
        forest = classical.train_forest(X, y, n_trees=7, seed=1)
        member_mean = np.mean([t.predict_proba(X) for t in forest.trees], axis=0)
        assert np.array_equal(forest.predict_proba(X), member_mean)

    def test_nodes_match_recorded_digest(self):
        # SHA-256 of the nodes grown by the per-feature split search that the
        # one-pass search replaced; any change to the grown trees shows here.
        rng = np.random.default_rng(2026)
        X = np.empty((60, 8))
        X[:, :4] = rng.integers(0, 4, size=(60, 4))
        X[:, 4:] = np.round(rng.random((60, 4)), 1)
        X[30:36] = X[:6]
        y = (X[:, 0] + X[:, 4] * 3 > 3).astype(int)
        flip = rng.random(60) < 0.1
        y[flip] = 1 - y[flip]
        forest = classical.train_forest(X, y, n_trees=12, seed=7)
        digest = hashlib.sha256(json.dumps([t.nodes for t in forest.trees]).encode()).hexdigest()
        assert digest == "55fd2b4302e432c75a258418f29b209b207f4ef118591362b4dfdfc53310c2a7"

    def test_tree_seeds_distinct(self):
        X, y = self._noisy_instance()
        forest = classical.train_forest(X, y, n_trees=20, seed=5)
        assert len(set(forest.tree_seeds)) == 20

    def test_json_roundtrip(self):
        X, y = self._noisy_instance()
        forest = classical.train_forest(X, y, n_trees=3, seed=2)
        back = classical.ForestModel.from_dict(forest.to_dict())
        assert np.array_equal(back.predict_proba(X), forest.predict_proba(X))


class TestKnn:
    def test_k1_memorizes_training_labels(self):
        rng = np.random.default_rng(8)
        X = rng.random((12, 3))
        y = rng.integers(0, 2, 12)
        model = classical.train_knn(X, y, k=1)
        assert np.array_equal((model.predict_proba(X) >= 0.5).astype(int), y)

    def test_distance_tie_lower_index_wins(self):
        X = np.array([[0.0], [2.0]])
        y = np.array([1, 0])
        model = classical.train_knn(X, y, k=1)
        assert model.predict_proba(np.array([[1.0]]))[0] == 1.0

    def test_k_equal_n_predicts_majority_everywhere(self):
        X = np.arange(10.0).reshape(5, 2)
        y = np.array([1, 1, 1, 0, 0])
        model = classical.train_knn(X, y, k=5)
        assert np.allclose(model.predict_proba(np.random.default_rng(0).random((4, 2))), 0.6)

    def test_fraction_probability(self):
        X = np.array([[0.0], [0.1], [5.0]])
        y = np.array([1, 1, 0])
        model = classical.train_knn(X, y, k=3)
        assert model.predict_proba(np.array([[0.0]]))[0] == pytest.approx(2 / 3)

    def test_k_out_of_range_raises(self):
        with pytest.raises(ConfigError):
            classical.train_knn(np.ones((3, 1)), np.array([0, 1, 0]), k=4)

    def test_json_roundtrip_embeds_training_matrix(self):
        X = np.array([[0.0], [1.0]])
        model = classical.train_knn(X, np.array([0, 1]), k=1)
        back = classical.KnnModel.from_dict(model.to_dict())
        assert np.array_equal(back.X_train, X)
        assert np.array_equal(back.predict_proba(X), model.predict_proba(X))
