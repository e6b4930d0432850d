"""Classical learners against finite-difference and exhaustive-search oracles."""

import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sevtriage import classical
from sevtriage.errors import ConfigError, FitError, ShapeError
from sevtriage.features import as_matrix
from sevtriage.seeds import substream
from tests.conftest import grouped_matrix


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


# Bit-identity oracle: logistic regression that recomputes the logits for
# every gradient, which the reuse of each accepted point's logits must
# reproduce bit for bit.


def oracle_logreg_loss(weights: np.ndarray, bias: float, X, y: np.ndarray, C: float) -> float:
    """Mean binary cross-entropy plus ||w||^2 / (2 C n); bias unpenalized."""
    n = X.shape[0]
    z = np.asarray(X @ weights).ravel() + bias
    # log(1 + exp(-|z|)) form is stable for both signs
    bce = np.mean(np.logaddexp(0.0, z) - y * z)
    return float(bce + weights @ weights / (2.0 * C * n))


def oracle_logreg_gradient(weights: np.ndarray, bias: float, X, y: np.ndarray, C: float) -> tuple[np.ndarray, float]:
    n = X.shape[0]
    p = classical._sigmoid(np.asarray(X @ weights).ravel() + bias)
    grad_w = np.asarray((X.T @ (p - y))).ravel() / n + weights / (C * n)
    grad_b = float(np.mean(p - y))
    return grad_w, grad_b


def oracle_train_logreg(X, y, C: float = 1.0, max_iter: int = 1000, tol: float = 1e-6) -> classical.LogRegModel:
    """Deterministic full-batch gradient descent from zero initialization.

    Each step backtracks (halving) until the Armijo condition holds, so
    the regularized loss is non-increasing. Stops when the gradient
    infinity-norm drops below ``tol`` or after ``max_iter`` steps.
    """
    if C <= 0:
        raise ConfigError(f"C must be positive, got {C}")
    mat = as_matrix(X)
    y = np.asarray(y, dtype=np.float64).ravel()
    if mat.shape[0] != len(y):
        raise ShapeError(f"{mat.shape[0]} rows but {len(y)} labels")
    if len(np.unique(y)) < 2:
        raise FitError("logistic regression needs both classes present")

    d = mat.shape[1]
    w = np.zeros(d)
    b = 0.0
    loss = oracle_logreg_loss(w, b, mat, y, C)
    step = 1.0
    it = 0
    for it in range(1, max_iter + 1):
        gw, gb = oracle_logreg_gradient(w, b, mat, y, C)
        gnorm_inf = max(float(np.max(np.abs(gw))) if d else 0.0, abs(gb))
        if gnorm_inf < tol:
            it -= 1
            break
        gsq = float(gw @ gw) + gb * gb
        step = min(step * 2.0, 1e4)
        while True:
            w_new = w - step * gw
            b_new = b - step * gb
            loss_new = oracle_logreg_loss(w_new, b_new, mat, y, C)
            if loss_new <= loss - 1e-4 * step * gsq or step < 1e-12:
                break
            step *= 0.5
        if loss_new > loss:
            break  # no descent direction progress left at float precision
        w, b, loss = w_new, b_new, loss_new
    return classical.LogRegModel(w, b, C, n_iter=it)


def logreg_case(name):
    """A (X, y, kwargs) problem for the logistic-regression oracle."""
    rng = np.random.default_rng(31)
    dense = rng.normal(size=(40, 6))
    y = (dense[:, 0] - dense[:, 1] + 0.8 * rng.normal(size=40) > 0).astype(int)
    sparse = np.where(rng.random((40, 12)) < 0.25, rng.random((40, 12)), 0.0)
    y_sparse = (sparse[:, :3].sum(axis=1) + 0.2 * rng.normal(size=40) > 0.25).astype(int)
    cases = {
        "dense": (dense, y, {}),
        "fortran": (np.asfortranarray(dense), y, {"C": 0.25}),
        "csr": (sp.csr_matrix(sparse), y_sparse, {}),
        "feature_matrix": (grouped_matrix((sparse, [f"k{j}" for j in range(12)], "indicator")), y_sparse, {"C": 4.0}),
        "max_iter_hit": (sp.csr_matrix(sparse), y_sparse, {"max_iter": 4}),
        "meta_probabilities": (rng.random((40, 3)), y, {"tol": 1e-9}),
    }
    return cases[name]


class TestLogRegOracleBits:
    @pytest.mark.parametrize("case", ["dense", "fortran", "csr", "feature_matrix", "max_iter_hit", "meta_probabilities"])
    def test_train_logreg_equals_oracle(self, case):
        X, y, kwargs = logreg_case(case)
        got = classical.train_logreg(X, y, **kwargs)
        want = oracle_train_logreg(X, y, **kwargs)
        assert got.weights.tobytes() == want.weights.tobytes()
        assert np.float64(got.bias).tobytes() == np.float64(want.bias).tobytes()
        assert got.n_iter == want.n_iter > 0

    @pytest.mark.parametrize("case", ["dense", "csr"])
    def test_loss_and_gradient_equal_oracle(self, case):
        X, y, _ = logreg_case(case)
        w = np.random.default_rng(2).normal(size=X.shape[1])
        y = y.astype(float)
        assert classical.logreg_loss(w, 0.3, X, y, 2.0) == oracle_logreg_loss(w, 0.3, X, y, 2.0)
        (gw, gb), (want_w, want_b) = classical.logreg_gradient(w, 0.3, X, y, 2.0), oracle_logreg_gradient(w, 0.3, X, y, 2.0)
        assert gw.tobytes() == want_w.tobytes() and gb == want_b


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
        model = classical.TreeModel(nodes, 1)
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

    def test_same_seed_identical_predictions(self):
        X, y = self._noisy_instance()
        a = classical.train_forest(X, y, n_trees=10, seed=42)
        b = classical.train_forest(X, y, n_trees=10, seed=42)
        assert np.array_equal(a.predict_proba(X), b.predict_proba(X))

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

    @pytest.mark.parametrize("max_depth,min_leaf", [(None, 1)])  # a forest tree's limits: none, leaves of 1 row
    def test_trees_equal_trees_grown_on_copied_bootstrap_rows(self, max_depth, min_leaf):
        # a forest tree grows on bootstrap row indices into the one matrix;
        # growing it on a copy of those rows, in the same order, is the same tree
        X, y = self._noisy_instance()
        forest = classical.train_forest(X, y, n_trees=5, seed=4)
        mtry = classical._mtry("sqrt", X.shape[1])
        for i, tree in enumerate(forest.trees):
            rng = np.random.default_rng(substream(4, f"forest-tree-{i}"))
            idx = rng.integers(0, len(y), size=len(y))
            copied = classical.train_tree(
                X[idx], y[idx], max_depth=max_depth, min_samples_leaf=min_leaf, _rng=rng, _max_features=mtry
            )
            assert copied.nodes == tree.nodes

    def test_tree_seeds_distinct(self):
        X, y = self._noisy_instance()
        forest = classical.train_forest(X, y, n_trees=20, seed=5)
        assert len(set(forest.tree_seeds)) == 20


def _cpus_and_trees_in_worker(X, y):
    return classical._usable_cpus(), len(classical.train_forest(X, y, n_trees=4, seed=1).trees)


class TestForestWorkers:
    """Forests grown by 1, 2 or 3 processes, whatever the CPUs of the machine running the tests."""

    @pytest.fixture(autouse=True)
    def no_child_outlives_the_call(self):
        yield
        assert multiprocessing.active_children() == []

    def _forest(self, monkeypatch, workers, n_trees=7, **kwargs):
        monkeypatch.setattr(classical, "_usable_cpus", lambda: workers)
        X, y = TestRandomForest()._noisy_instance(seed=11, n=50)
        return classical.train_forest(X, y, n_trees=n_trees, seed=3, **kwargs)

    def _fail_in(self, monkeypatch, where, fail):
        # a train_tree that fails in the parent only or in its children only
        parent = os.getpid()
        train_tree = classical.train_tree

        def failing(*args, **kwargs):
            if (os.getpid() == parent) == (where == "parent"):
                fail()
            return train_tree(*args, **kwargs)

        monkeypatch.setattr(classical, "train_tree", failing)

    @pytest.mark.parametrize(
        "kwargs",
        [{}, {"n_trees": 2}],
        ids=["bootstrap", "fewer-trees-than-workers"],
    )
    def test_same_trees_for_any_worker_count(self, monkeypatch, kwargs):
        forests = [self._forest(monkeypatch, workers, **kwargs) for workers in (1, 2, 3)]
        # repr keeps every threshold's bits
        nodes = {repr([t.nodes for t in f.trees]) for f in forests}
        assert len(nodes) == 1
        assert len({f.tree_seeds for f in forests}) == 1
        assert {t.n_features for f in forests for t in f.trees} == {4}

    @pytest.mark.parametrize("where", ["child", "parent"])
    @pytest.mark.parametrize("error", [ShapeError, ConfigError])
    def test_error_while_growing_reaches_the_caller(self, monkeypatch, where, error):
        def fail():
            raise error("bad tree")

        self._fail_in(monkeypatch, where, fail)
        with pytest.raises(error, match="bad tree"):
            self._forest(monkeypatch, 3)

    def test_child_exiting_unsent_raises_fit_error(self, monkeypatch):
        self._fail_in(monkeypatch, "child", lambda: os._exit(3))
        with pytest.raises(FitError, match=r"trees 2-3 exited"):
            self._forest(monkeypatch, 3)

    def test_daemonic_process_grows_alone(self, monkeypatch):
        # a pool worker may not have children, so its forest grows serially on any number of CPUs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        X, y = TestRandomForest()._noisy_instance()
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(_cpus_and_trees_in_worker, (X, y)) == (1, 4)
        pool.join()

    def test_set_up_errors_raise_before_any_fork(self, monkeypatch):
        monkeypatch.setattr(classical, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(multiprocessing, "get_context", lambda method: pytest.fail("forked"))
        with pytest.raises(ShapeError):
            classical.train_forest(np.ones((4, 2)), np.array([0, 1, 0]), n_trees=4)
        with pytest.raises(FitError):
            classical.train_forest(np.ones((0, 2)), np.array([], dtype=int), n_trees=4)
        with pytest.raises(ConfigError):
            classical.train_forest(np.ones((4, 2)), np.array([0, 1, 0, 1]), n_trees=0)


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


# ---------------------------------------------------------------------------
# No trainer changes its inputs


TRAINERS = {
    "logreg": lambda X, y: classical.train_logreg(X, y, max_iter=30),
    "tree": lambda X, y: classical.train_tree(X, y, max_depth=3),
    "forest": lambda X, y: classical.train_forest(X, y, n_trees=3, seed=1),
    "knn": lambda X, y: classical.train_knn(X, y, k=1),
}
LAYOUTS = {
    "dense": np.ascontiguousarray,
    "fortran": np.asfortranarray,
    "csr": sp.csr_matrix,
    "csc": sp.csc_matrix,
}


def input_bytes(X):
    if sp.issparse(X):
        return X.format, X.shape, X.data.tobytes(), X.indices.tobytes(), X.indptr.tobytes()
    return X.shape, X.dtype.str, X.flags.f_contiguous, X.tobytes(order="A")


@st.composite
def labelled_matrices(draw):
    n, d = draw(st.integers(2, 10)), draw(st.integers(1, 4))
    X = draw(arrays(np.float64, (n, d), elements=st.sampled_from([0.0, -0.0, 0.5, 1.0, -2.0, 3.25])))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = [0, 1]
    return X, y


class TestNoMutation:
    @settings(max_examples=60, deadline=None)
    @given(labelled_matrices(), st.sampled_from(sorted(TRAINERS)), st.sampled_from(sorted(LAYOUTS)))
    def test_trainers_leave_inputs_unchanged(self, data, trainer, layout):
        X, y = data
        X = LAYOUTS[layout](X)
        before = input_bytes(X), y.tobytes()
        TRAINERS[trainer](X, y)
        assert (input_bytes(X), y.tobytes()) == before
