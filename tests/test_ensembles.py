"""Ensemble strategies: combination arithmetic, determinism, mean bounds."""

import numpy as np
import pytest

from sevtriage import ensembles
from sevtriage.errors import ConfigError, StratificationError
from sevtriage.features import FeatureMatrix, assemble


def make_grouped_data(seed=0, n=80, noise=0.6):
    """Grouped feature matrix with a linear signal plus noise."""
    rng = np.random.default_rng(seed)
    y = np.array([0, 1] * (n // 2))
    signal = y[:, None] * 1.6 + rng.normal(scale=noise, size=(n, 3))
    vendor = np.zeros((n, 2))
    vendor[np.arange(n), rng.integers(0, 2, n)] = 1.0
    indicator = (signal[:, :2] > 0.9).astype(float)
    text = np.abs(signal)
    text = text / np.maximum(np.linalg.norm(text, axis=1, keepdims=True), 1e-9)
    X = assemble(
        [
            FeatureMatrix.from_dense(vendor, ["v0", "v1"], "vendor"),
            FeatureMatrix.from_dense(indicator, ["k0", "k1"], "indicator"),
            FeatureMatrix.from_dense(text, ["t0", "t1", "t2"], "text"),
        ]
    )
    split = int(n * 0.75)
    return X.select_rows(np.arange(split)), y[:split], X.select_rows(np.arange(split, n)), y[split:]


@pytest.fixture(scope="module")
def data():
    return make_grouped_data()


class TestFeatureSplit:
    def test_combined_is_exact_mean_of_members(self, data):
        Xtr, ytr, Xte, _ = data
        res = ensembles.feature_split_ensemble(Xtr, ytr, Xte)
        mean = (res.member_probabilities["all_features"] + res.member_probabilities["structured_only"]) / 2.0
        assert np.array_equal(res.probabilities, mean)

    def test_labels_threshold_at_half(self, data):
        Xtr, ytr, Xte, _ = data
        res = ensembles.feature_split_ensemble(Xtr, ytr, Xte)
        assert np.array_equal(res.labels, (res.probabilities >= 0.5).astype(int))

    def test_missing_group_is_config_error(self, data):
        Xtr, ytr, Xte, _ = data
        text_only_tr = Xtr.select_groups(["text"])
        text_only_te = Xte.select_groups(["text"])
        with pytest.raises(ConfigError):
            ensembles.feature_split_ensemble(text_only_tr, ytr, text_only_te)

    def test_probability_within_member_band(self, data):
        Xtr, ytr, Xte, _ = data
        res = ensembles.feature_split_ensemble(Xtr, ytr, Xte)
        stack = np.stack(list(res.member_probabilities.values()))
        assert np.all(res.probabilities >= stack.min(axis=0) - 1e-12)
        assert np.all(res.probabilities <= stack.max(axis=0) + 1e-12)


class TestBootstrap:
    def test_single_member_full_subsample_equals_plain_lr(self, data):
        from sevtriage.classical import train_logreg

        Xtr, ytr, Xte, _ = data
        res = ensembles.bootstrap_ensemble(Xtr, ytr, Xte, members=1, sample_fraction=1.0, seed=4, with_replacement=False)
        plain = train_logreg(Xtr, ytr).predict_proba(Xte)
        assert np.allclose(res.probabilities, plain, atol=1e-12)

    def test_same_seed_identical(self, data):
        Xtr, ytr, Xte, _ = data
        a = ensembles.bootstrap_ensemble(Xtr, ytr, Xte, seed=7)
        b = ensembles.bootstrap_ensemble(Xtr, ytr, Xte, seed=7)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_members_disagree_on_noisy_data(self):
        Xtr, ytr, Xte, _ = make_grouped_data(seed=3, noise=1.4)
        res = ensembles.bootstrap_ensemble(Xtr, ytr, Xte, seed=5)
        stack = np.stack(list(res.member_probabilities.values()))
        assert float(stack.std(axis=0).max()) > 0.0

    def test_five_members_at_eighty_percent_by_default(self, data):
        Xtr, ytr, Xte, _ = data
        res = ensembles.bootstrap_ensemble(Xtr, ytr, Xte, seed=1)
        assert len(res.member_probabilities) == 5
        assert res.detail["sample_fraction"] == 0.8


class TestHeterogeneous:
    def test_mean_of_three_members(self, data):
        Xtr, ytr, Xte, _ = data
        res = ensembles.heterogeneous_ensemble(Xtr, ytr, Xte, seed=2, n_trees=10)
        stack = np.stack([res.member_probabilities[m] for m in ("logreg", "forest", "knn")])
        assert np.allclose(res.probabilities, stack.mean(axis=0), atol=1e-15)

    def test_unanimous_members_cannot_be_outvoted(self, data):
        Xtr, ytr, Xte, _ = data
        res = ensembles.heterogeneous_ensemble(Xtr, ytr, Xte, seed=2, n_trees=10)
        stack = np.stack(list(res.member_probabilities.values()))
        all_high = np.all(stack >= 0.5, axis=0)
        all_low = np.all(stack < 0.5, axis=0)
        assert np.all(res.labels[all_high] == 1)
        assert np.all(res.labels[all_low] == 0)


class TestInstance:
    def test_default_c_values(self, data):
        Xtr, ytr, Xte, _ = data
        res = ensembles.instance_ensemble(Xtr, ytr, Xte)
        assert res.detail["c_values"] == [0.5, 1.0, 2.0]
        assert set(res.member_probabilities) == {"C=0.5", "C=1", "C=2"}

    def test_separable_case_all_members_agree(self):
        X = FeatureMatrix.from_dense(
            np.array([[0.0, 1.0], [0.0, 0.9], [1.0, 0.1], [1.0, 0.0]]), ["a", "b"], "indicator"
        )
        y = np.array([0, 0, 1, 1])
        res = ensembles.instance_ensemble(X, y, X)
        member_labels = [(p >= 0.5).astype(int) for p in res.member_probabilities.values()]
        for lab in member_labels:
            assert np.array_equal(lab, y)
        assert np.array_equal(res.labels, y)

    def test_combined_within_member_extremes(self, data):
        Xtr, ytr, Xte, _ = data
        res = ensembles.instance_ensemble(Xtr, ytr, Xte)
        stack = np.stack(list(res.member_probabilities.values()))
        assert np.all(res.probabilities >= stack.min(axis=0) - 1e-12)
        assert np.all(res.probabilities <= stack.max(axis=0) + 1e-12)


class TestStacking:
    def test_meta_features_width_three(self, data):
        Xtr, ytr, Xte, _ = data
        res = ensembles.stacking_ensemble(Xtr, ytr, Xte, seed=6, n_trees=10)
        assert len(res.member_probabilities) == 3

    def test_same_seed_same_folds_same_output(self, data):
        Xtr, ytr, Xte, _ = data
        a = ensembles.stacking_ensemble(Xtr, ytr, Xte, seed=9, n_trees=10)
        b = ensembles.stacking_ensemble(Xtr, ytr, Xte, seed=9, n_trees=10)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_near_perfect_bases_give_perfect_test_accuracy(self):
        Xtr, ytr, Xte, yte = make_grouped_data(seed=8, noise=0.1)
        res = ensembles.stacking_ensemble(Xtr, ytr, Xte, seed=1, n_trees=10)
        assert np.array_equal(res.labels, yte)

    def test_too_few_minority_samples_raises(self):
        Xtr, ytr, Xte, _ = make_grouped_data(seed=0, n=16)
        ytr = np.zeros_like(ytr)
        ytr[0] = 1  # single positive cannot stratify
        with pytest.raises(StratificationError):
            ensembles.stacking_ensemble(Xtr, ytr, Xte, folds=3, seed=0)


class TestDispatch:
    def test_all_strategies_run_and_threshold(self, data):
        Xtr, ytr, Xte, _ = data
        for strategy in ensembles.STRATEGIES:
            res = ensembles.EnsembleSpec(strategy, seed=3, n_trees=10).run(Xtr, ytr, Xte)
            assert res.strategy == strategy
            assert res.probabilities.shape == (Xte.n_rows,)
            assert set(np.unique(res.labels)) <= {0, 1}
            assert np.array_equal(res.labels, (res.probabilities >= 0.5).astype(int))

    def test_unknown_strategy(self, data):
        Xtr, ytr, Xte, _ = data
        with pytest.raises(ConfigError):
            ensembles.EnsembleSpec("boosting").run(Xtr, ytr, Xte)
