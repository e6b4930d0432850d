"""Ensemble strategies: the member plan, combination arithmetic, determinism, mean bounds."""

import hashlib
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest

from sevtriage import ensembles
from sevtriage.classical import train_forest, train_knn, train_logreg
from sevtriage.config import load_config
from sevtriage.errors import ConfigError, FitError, StratificationError
from sevtriage.features import FeatureMatrix
from sevtriage.seeds import substream
from tests.conftest import grouped_matrix


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
    X = grouped_matrix(
        (vendor, ["v0", "v1"], "vendor"),
        (indicator, ["k0", "k1"], "indicator"),
        (text, ["t0", "t1", "t2"], "text"),
    )
    split = int(n * 0.75)
    return X.select_rows(np.arange(split)), y[:split], X.select_rows(np.arange(split, n)), y[split:]


def config(seed=0, n_trees=10, **ensemble):
    """The run config with a seed, a forest size and ensemble overrides."""
    return load_config(overrides={"seed": seed, "forest": {"n_trees": n_trees}, "ensemble": ensemble})


def separable_four_rows():
    """A 4-row matrix with a constant vendor column and a separable indicator pair."""
    X = grouped_matrix(
        (np.ones((4, 1)), ["v0"], "vendor"),
        (np.array([[0.0, 1.0], [0.0, 0.9], [1.0, 0.1], [1.0, 0.0]]), ["a", "b"], "indicator"),
    )
    return X, np.array([0, 0, 1, 1])


def run_strategy(strategy, Xtr, ytr, Xte, **cfg):
    return ensembles.run(Xtr, ytr, Xte, config(**cfg))[strategy]


@pytest.fixture(scope="module")
def data():
    return make_grouped_data()


@pytest.fixture(scope="module")
def results(data):
    Xtr, ytr, Xte, _ = data
    return ensembles.run(Xtr, ytr, Xte, config())


# ---------------------------------------------------------------------------
# Reference: the five strategies as self-training functions, each fitting its
# own members. Kept verbatim as the oracle the member plan must reproduce.


def _finish(strategy, members, combined, detail=None):
    return SimpleNamespace(probabilities=combined, member_probabilities=members)


def _rows(X, idx):
    return X.select_rows(idx) if isinstance(X, FeatureMatrix) else np.asarray(X)[idx]


def _stratified_folds(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold ids; every fold's complement keeps both classes."""
    y = np.asarray(y, dtype=np.int64)
    if folds < 2:
        raise ConfigError(f"need at least 2 folds, got {folds}")
    counts = np.bincount(y, minlength=2)
    if counts.min() < 2:
        raise StratificationError("stratified folding needs at least 2 samples of each class")
    rng = np.random.default_rng(substream(seed, "folds"))
    fold_of = np.empty(len(y), dtype=np.int64)
    for c in (0, 1):
        members = np.flatnonzero(y == c)
        members = members[rng.permutation(len(members))]
        for pos, idx in enumerate(members):
            fold_of[idx] = pos % folds
    return fold_of


def oracle_feature_split(train_X, y_train, test_X):
    for required in ("vendor", "indicator"):
        if required not in train_X.groups:
            raise ConfigError(f"feature split needs a {required!r} block")
    structured_train = train_X.select_groups(["vendor", "indicator"])
    structured_test = test_X.select_groups(["vendor", "indicator"])
    model_a = train_logreg(train_X, y_train)
    model_b = train_logreg(structured_train, y_train)
    members = {
        "all_features": model_a.predict_proba(test_X),
        "structured_only": model_b.predict_proba(structured_test),
    }
    combined = (members["all_features"] + members["structured_only"]) / 2.0
    return _finish("feature_split", members, combined)


def oracle_bootstrap(train_X, y_train, test_X, members=5, sample_fraction=0.8, seed=0, with_replacement=True):
    y_train = np.asarray(y_train, dtype=np.int64)
    n = len(y_train)
    size = int(np.ceil(sample_fraction * n))
    if not with_replacement and size > n:
        raise ConfigError("subsample size exceeds the training set")
    member_probs = {}
    for i in range(members):
        rng = np.random.default_rng(substream(seed, f"bootstrap-{i}"))
        for attempt in range(10):
            idx = rng.integers(0, n, size=size) if with_replacement else rng.permutation(n)[:size]
            if len(np.unique(y_train[idx])) == 2:
                break
        else:
            raise FitError(f"member {i}: resample kept a single class after 10 draws")
        model = train_logreg(_rows(train_X, idx), y_train[idx])
        member_probs[f"member_{i}"] = model.predict_proba(test_X)
    combined = np.mean(np.stack(list(member_probs.values())), axis=0)
    detail = {"members": members, "sample_fraction": sample_fraction, "with_replacement": with_replacement}
    return _finish("bootstrap", member_probs, combined, detail)


def oracle_heterogeneous(train_X, y_train, test_X, seed=0, knn_k=5, n_trees=100):
    members = {
        "logreg": train_logreg(train_X, y_train).predict_proba(test_X),
        "forest": train_forest(train_X, y_train, n_trees=n_trees, seed=substream(seed, "forest")).predict_proba(test_X),
        "knn": train_knn(train_X, y_train, k=knn_k).predict_proba(test_X),
    }
    combined = np.mean(np.stack(list(members.values())), axis=0)
    return _finish("heterogeneous", members, combined)


def oracle_instance(train_X, y_train, test_X, c_values: Sequence[float] = (0.5, 1.0, 2.0)):
    members = {}
    for c in c_values:
        members[f"C={c:g}"] = train_logreg(train_X, y_train, C=c).predict_proba(test_X)
    combined = np.mean(np.stack(list(members.values())), axis=0)
    return _finish("instance", members, combined, {"c_values": list(c_values)})


def oracle_stacking(train_X, y_train, test_X, folds=5, seed=0, knn_k=5, n_trees=100):
    y_train = np.asarray(y_train, dtype=np.int64)
    n = len(y_train)

    def fit_bases(X, y, base_seed):
        return {
            "logreg": train_logreg(X, y),
            "forest": train_forest(X, y, n_trees=n_trees, seed=substream(base_seed, "forest")),
            "knn": train_knn(X, y, k=min(knn_k, len(y))),
        }

    base_names = ("logreg", "forest", "knn")
    meta_train = np.zeros((n, len(base_names)))
    fold_of = _stratified_folds(y_train, folds, seed)
    for f in range(folds):
        hold = np.flatnonzero(fold_of == f)
        rest = np.flatnonzero(fold_of != f)
        if len(hold) == 0:
            continue
        hold_X = _rows(train_X, hold)
        bases = fit_bases(_rows(train_X, rest), y_train[rest], substream(seed, f"fold-{f}"))
        for j, name in enumerate(base_names):
            meta_train[hold, j] = bases[name].predict_proba(hold_X)
    full_bases = fit_bases(train_X, y_train, substream(seed, "full"))

    meta_model = train_logreg(meta_train, y_train)
    member_probs = {name: full_bases[name].predict_proba(test_X) for name in base_names}
    meta_test = np.stack([member_probs[name] for name in base_names], axis=1)
    combined = meta_model.predict_proba(meta_test)
    return _finish("stacking", member_probs, combined, {"folds": folds})


def oracle_run(train_X, y_train, test_X, seed, n_trees, members=5, sample_fraction=0.8,
               with_replacement=True, instance_c=(0.5, 1.0, 2.0), folds=5, knn_k=5):
    return {
        "feature_split": oracle_feature_split(train_X, y_train, test_X),
        "bootstrap": oracle_bootstrap(train_X, y_train, test_X, members, sample_fraction, seed, with_replacement),
        "heterogeneous": oracle_heterogeneous(train_X, y_train, test_X, seed, knn_k, n_trees),
        "instance": oracle_instance(train_X, y_train, test_X, instance_c),
        "stacking": oracle_stacking(train_X, y_train, test_X, folds, seed, knn_k, n_trees),
    }


ALT_ENSEMBLE = {"members": 3, "instance_c": [0.25, 4.0], "with_replacement": False, "sample_fraction": 0.9, "folds": 3}


class TestMemberPlan:
    @pytest.mark.parametrize("ensemble", [{}, ALT_ENSEMBLE], ids=["default", "alternative"])
    def test_run_equals_self_training_oracle(self, data, ensemble):
        Xtr, ytr, Xte, _ = data
        got = ensembles.run(Xtr, ytr, Xte, config(seed=5, n_trees=8, **ensemble))
        want = oracle_run(Xtr, ytr, Xte, seed=5, n_trees=8, **ensemble)
        assert list(got) == list(ensembles.STRATEGIES)
        for strategy, res in got.items():
            assert np.array_equal(res.probabilities, want[strategy].probabilities), strategy
            assert list(res.member_probabilities) == list(want[strategy].member_probabilities), strategy
            for name, probs in res.member_probabilities.items():
                assert np.array_equal(probs, want[strategy].member_probabilities[name]), (strategy, name)

    def test_each_distinct_logistic_regression_fits_once(self, data, monkeypatch):
        Xtr, ytr, Xte, _ = data
        real = ensembles.train_logreg
        digests = []

        def recording(X, y, **kwargs):
            parts = (X.data.data, X.data.indices, X.data.indptr) if isinstance(X, FeatureMatrix) else (X,)
            h = hashlib.sha256()
            for part in (*parts, y):
                h.update(np.ascontiguousarray(part).tobytes())
            h.update(repr(sorted(kwargs.items())).encode())
            digests.append(h.hexdigest())
            return real(X, y, **kwargs)

        monkeypatch.setattr(ensembles, "train_logreg", recording)
        ensembles.run(Xtr, ytr, Xte, config(n_trees=3))
        assert len(digests) == 15  # 2 feature split + 5 bootstrap + 2 instance + 5 folds + 1 meta-model
        assert len(set(digests)) == len(digests)

    @pytest.mark.parametrize("ensemble,message", [
        ({"members": 1}, "bootstrap needs at least 2 members"),
        ({"instance_c": [1.0]}, "instance ensemble needs at least 2 regularization strengths"),
        ({"sample_fraction": 1.5, "with_replacement": False}, "subsample size exceeds the training set"),
        ({"folds": 1}, "need at least 2 folds"),
    ])
    def test_invalid_config_is_config_error(self, data, ensemble, message):
        Xtr, ytr, Xte, _ = data
        with pytest.raises(ConfigError, match=message):
            ensembles.run(Xtr, ytr, Xte, config(**ensemble))


class TestFeatureSplit:
    def test_combined_is_exact_mean_of_members(self, results):
        res = results["feature_split"]
        mean = (res.member_probabilities["all_features"] + res.member_probabilities["structured_only"]) / 2.0
        assert np.array_equal(res.probabilities, mean)

    def test_labels_threshold_at_half(self, results):
        res = results["feature_split"]
        assert np.array_equal(res.labels, (res.probabilities >= 0.5).astype(int))

    def test_missing_group_is_config_error(self, data):
        Xtr, ytr, Xte, _ = data
        text_only_tr = Xtr.select_groups(["text"])
        text_only_te = Xte.select_groups(["text"])
        with pytest.raises(ConfigError, match="feature split needs a 'vendor' block"):
            ensembles.run(text_only_tr, ytr, text_only_te, config())

    def test_probability_within_member_band(self, results):
        res = results["feature_split"]
        stack = np.stack(list(res.member_probabilities.values()))
        assert np.all(res.probabilities >= stack.min(axis=0) - 1e-12)
        assert np.all(res.probabilities <= stack.max(axis=0) + 1e-12)


class TestBootstrap:
    def test_single_member_full_subsample_equals_plain_lr(self, data):
        Xtr, ytr, Xte, _ = data
        res = run_strategy("bootstrap", Xtr, ytr, Xte, members=2, sample_fraction=1.0, seed=4, with_replacement=False)
        plain = train_logreg(Xtr, ytr).predict_proba(Xte)
        assert len(res.member_probabilities) == 2
        for probs in res.member_probabilities.values():
            assert np.allclose(probs, plain, atol=1e-12)

    def test_same_seed_identical(self, data):
        Xtr, ytr, Xte, _ = data
        a = run_strategy("bootstrap", Xtr, ytr, Xte, seed=7)
        b = run_strategy("bootstrap", Xtr, ytr, Xte, seed=7)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_members_disagree_on_noisy_data(self):
        Xtr, ytr, Xte, _ = make_grouped_data(seed=3, noise=1.4)
        res = run_strategy("bootstrap", Xtr, ytr, Xte, seed=5)
        stack = np.stack(list(res.member_probabilities.values()))
        assert float(stack.std(axis=0).max()) > 0.0

    def test_five_members_at_eighty_percent_by_default(self, data, results):
        _, ytr, _, _ = data
        assert len(results["bootstrap"].member_probabilities) == 5
        plan = ensembles._bootstrap_members(np.asarray(ytr), config())
        assert [len(m.rows) for m in plan.values()] == [48] * 5  # ceil(0.8 * 60)

    def test_single_class_resample_is_fit_error(self, data):
        Xtr, ytr, Xte, _ = data
        with pytest.raises(FitError, match="single class"):
            ensembles.run(Xtr, ytr, Xte, config(sample_fraction=0.01, with_replacement=False))


class TestHeterogeneous:
    def test_mean_of_three_members(self, data):
        Xtr, ytr, Xte, _ = data
        res = run_strategy("heterogeneous", Xtr, ytr, Xte, seed=2, n_trees=10)
        stack = np.stack([res.member_probabilities[m] for m in ("logreg", "forest", "knn")])
        assert np.allclose(res.probabilities, stack.mean(axis=0), atol=1e-15)

    def test_unanimous_members_cannot_be_outvoted(self, data):
        Xtr, ytr, Xte, _ = data
        res = run_strategy("heterogeneous", Xtr, ytr, Xte, seed=2, n_trees=10)
        stack = np.stack(list(res.member_probabilities.values()))
        all_high = np.all(stack >= 0.5, axis=0)
        all_low = np.all(stack < 0.5, axis=0)
        assert np.all(res.labels[all_high] == 1)
        assert np.all(res.labels[all_low] == 0)

    def test_knn_k_above_training_rows_is_clamped(self):
        X, y = separable_four_rows()
        res = ensembles.run(X, y, X, config())["heterogeneous"]  # the default k=5 exceeds the 4 rows
        assert np.array_equal(res.member_probabilities["knn"], train_knn(X, y, k=4).predict_proba(X))


class TestInstance:
    def test_default_c_values(self, results):
        assert list(results["instance"].member_probabilities) == ["C=0.5", "C=1", "C=2"]

    def test_separable_case_all_members_agree(self):
        X, y = separable_four_rows()
        res = run_strategy("instance", X, y, X)  # every strategy runs, KNN with the default k=5 on 4 rows
        member_labels = [(p >= 0.5).astype(int) for p in res.member_probabilities.values()]
        for lab in member_labels:
            assert np.array_equal(lab, y)
        assert np.array_equal(res.labels, y)

    def test_combined_within_member_extremes(self, results):
        res = results["instance"]
        stack = np.stack(list(res.member_probabilities.values()))
        assert np.all(res.probabilities >= stack.min(axis=0) - 1e-12)
        assert np.all(res.probabilities <= stack.max(axis=0) + 1e-12)


class TestStacking:
    def test_meta_features_width_three(self, data):
        Xtr, ytr, Xte, _ = data
        res = run_strategy("stacking", Xtr, ytr, Xte, seed=6, n_trees=10)
        assert len(res.member_probabilities) == 3

    def test_same_seed_same_folds_same_output(self, data):
        Xtr, ytr, Xte, _ = data
        a = run_strategy("stacking", Xtr, ytr, Xte, seed=9, n_trees=10)
        b = run_strategy("stacking", Xtr, ytr, Xte, seed=9, n_trees=10)
        assert np.array_equal(a.probabilities, b.probabilities)

    def test_near_perfect_bases_give_perfect_test_accuracy(self):
        Xtr, ytr, Xte, yte = make_grouped_data(seed=8, noise=0.1)
        res = run_strategy("stacking", Xtr, ytr, Xte, seed=1, n_trees=10)
        assert np.array_equal(res.labels, yte)

    def test_too_few_minority_samples_raises(self):
        Xtr, ytr, Xte, _ = make_grouped_data(seed=0, n=16)
        ytr = np.zeros_like(ytr)
        ytr[0] = 1  # single positive cannot stratify
        with pytest.raises(StratificationError):
            ensembles.run(Xtr, ytr, Xte, config(folds=3, seed=0))


class TestDispatch:
    def test_all_strategies_run_and_threshold(self, data):
        Xtr, ytr, Xte, _ = data
        results = ensembles.run(Xtr, ytr, Xte, config(seed=3, n_trees=10))
        assert list(results) == list(ensembles.STRATEGIES)
        for res in results.values():
            assert res.probabilities.shape == (Xte.n_rows,)
            assert set(np.unique(res.labels)) <= {0, 1}
            assert np.array_equal(res.labels, (res.probabilities >= 0.5).astype(int))
