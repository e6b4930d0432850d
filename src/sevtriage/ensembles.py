"""Five probability-combination ensembles over the classical models.

Every strategy produces per-row member probabilities, combines them
(arithmetic mean, or a meta-model for stacking), and thresholds at 0.5;
a combined probability of exactly 0.5 resolves to the positive class.
Raw probabilities are always exposed next to the labels so downstream
AUC computation never needs to re-run members.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .classical import train_forest, train_knn, train_logreg
from .errors import ConfigError, FitError, StratificationError
from .features import FeatureMatrix
from .seeds import substream

THRESHOLD = 0.5

INSTANCE_C_VALUES = (0.5, 1.0, 2.0)
BOOTSTRAP_MEMBERS = 5
BOOTSTRAP_FRACTION = 0.8


@dataclass(frozen=True)
class EnsembleResult:
    strategy: str
    probabilities: np.ndarray
    labels: np.ndarray
    member_probabilities: dict[str, np.ndarray]
    detail: dict = field(default_factory=dict)


def _finish(strategy: str, members: dict[str, np.ndarray], combined: np.ndarray, detail: dict | None = None) -> EnsembleResult:
    return EnsembleResult(
        strategy=strategy,
        probabilities=combined,
        labels=(combined >= THRESHOLD).astype(np.int64),
        member_probabilities=members,
        detail=detail or {},
    )


def _rows(X, idx):
    return X.select_rows(idx) if isinstance(X, FeatureMatrix) else np.asarray(X)[idx]


def feature_split_ensemble(train_X: FeatureMatrix, y_train, test_X: FeatureMatrix) -> EnsembleResult:
    """Average a full-feature model with a structured-features-only model.

    Member A sees every block (text, indicators, vendor one-hot); member
    B sees only the structured vendor + indicator blocks. Both matrices
    must carry group tags for the split to be well defined.
    """
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


def bootstrap_ensemble(
    train_X,
    y_train,
    test_X,
    members: int = BOOTSTRAP_MEMBERS,
    sample_fraction: float = BOOTSTRAP_FRACTION,
    seed: int = 0,
    with_replacement: bool = True,
) -> EnsembleResult:
    """Average logistic regressions fit on seeded resamples of the train set.

    Each member trains on ceil(sample_fraction * n) rows drawn with
    replacement (or a subsample without replacement when requested). A
    single-class draw is redrawn up to 10 times before giving up.
    """
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


def heterogeneous_ensemble(train_X, y_train, test_X, seed: int = 0, knn_k: int = 5, n_trees: int = 100) -> EnsembleResult:
    """Average three different learners trained on the identical matrix."""
    members = {
        "logreg": train_logreg(train_X, y_train).predict_proba(test_X),
        "forest": train_forest(train_X, y_train, n_trees=n_trees, seed=substream(seed, "forest")).predict_proba(test_X),
        "knn": train_knn(train_X, y_train, k=knn_k).predict_proba(test_X),
    }
    combined = np.mean(np.stack(list(members.values())), axis=0)
    return _finish("heterogeneous", members, combined)


def instance_ensemble(train_X, y_train, test_X, c_values: Sequence[float] = INSTANCE_C_VALUES) -> EnsembleResult:
    """Average logistic regressions that differ only in regularization strength."""
    members = {}
    for c in c_values:
        members[f"C={c:g}"] = train_logreg(train_X, y_train, C=c).predict_proba(test_X)
    combined = np.mean(np.stack(list(members.values())), axis=0)
    return _finish("instance", members, combined, {"c_values": list(c_values)})


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


def stacking_ensemble(
    train_X,
    y_train,
    test_X,
    folds: int = 5,
    seed: int = 0,
    knn_k: int = 5,
    n_trees: int = 100,
) -> EnsembleResult:
    """Blend base-model probabilities with a logistic-regression meta-model.

    Meta-features for training rows come from out-of-fold base
    predictions, so no base model scores a row it has seen. Test-time
    meta-features come from full-train refits.
    """
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


STRATEGIES = ("feature_split", "bootstrap", "heterogeneous", "instance", "stacking")


@dataclass(frozen=True)
class EnsembleSpec:
    """Declarative description of one strategy, built from the config tree.

    Bootstrap runs ``members`` resampled members (5 by default), instance
    one member per C value (3 by default), and the heterogeneous/stacking
    bases are always LR + forest + KNN.
    """

    strategy: str
    seed: int = 0
    members: int = BOOTSTRAP_MEMBERS
    sample_fraction: float = BOOTSTRAP_FRACTION
    with_replacement: bool = True
    c_values: tuple[float, ...] = INSTANCE_C_VALUES
    folds: int = 5
    knn_k: int = 5
    n_trees: int = 100

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown ensemble strategy {self.strategy!r}")
        if self.strategy == "bootstrap" and self.members < 2:
            raise ConfigError("bootstrap needs at least 2 members")
        if self.strategy == "instance" and len(self.c_values) < 2:
            raise ConfigError("instance ensemble needs at least 2 regularization strengths")

    def run(self, train_X: FeatureMatrix, y_train, test_X: FeatureMatrix) -> EnsembleResult:
        if self.strategy == "feature_split":
            return feature_split_ensemble(train_X, y_train, test_X)
        if self.strategy == "bootstrap":
            return bootstrap_ensemble(
                train_X, y_train, test_X,
                members=self.members, sample_fraction=self.sample_fraction,
                seed=self.seed, with_replacement=self.with_replacement,
            )
        if self.strategy == "heterogeneous":
            return heterogeneous_ensemble(train_X, y_train, test_X, seed=self.seed, knn_k=self.knn_k, n_trees=self.n_trees)
        if self.strategy == "instance":
            return instance_ensemble(train_X, y_train, test_X, c_values=self.c_values)
        return stacking_ensemble(train_X, y_train, test_X, folds=self.folds, seed=self.seed, knn_k=self.knn_k, n_trees=self.n_trees)
