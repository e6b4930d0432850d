"""Five probability-combination ensembles over the classical models.

``run`` plans every strategy's members as ``Member`` content keys, fits
each distinct member once and keeps only its probabilities. Each
strategy's combiner then takes their mean, or stacking's meta-model, and
thresholds it with ``evaluation.predicted_labels``. Member
probabilities are exposed next to the labels, so AUC never re-runs them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .classical import train_forest, train_knn, train_logreg  # noqa: F401  (looked up by name in run)
from .config import DEFAULTS, check
from .errors import ConfigError, FitError, StratificationError
from .evaluation import THRESHOLD, predicted_labels  # noqa: F401  (THRESHOLD is re-exported)
from .features import GROUPS, FeatureMatrix, as_labels
from .seeds import substream
from .workers import map_jobs

STRATEGIES = ("feature_split", "bootstrap", "heterogeneous", "instance", "stacking")
BASES = ("logreg", "forest", "knn")  # the heterogeneous members and the stacking bases


@dataclass(frozen=True)
class EnsembleResult:
    probabilities: np.ndarray
    labels: np.ndarray
    member_probabilities: dict[str, np.ndarray]


@dataclass(frozen=True)
class Member:
    """One member model as a content key; equal members are fit once per run."""

    learner: str  # "logreg", "forest" or "knn"
    params: tuple  # the trainer's keyword arguments as sorted pairs, seed included
    rows: tuple[int, ...] | None = None  # training rows in order; None for all
    groups: tuple[str, ...] | None = None  # column groups; None for all
    scores: tuple[int, ...] | None = None  # training rows of the held-out fold it predicts; None for the test rows


def _member(learner: str, params: Mapping, **where) -> Member:
    return Member(learner, tuple(sorted(params.items())), **where)


def _bases(cfg: Mapping, seed: int, **where) -> dict[str, Member]:
    """Logistic regression, forest and KNN on the same rows and columns."""
    return {
        "logreg": _member("logreg", cfg["logreg"], **where),
        "forest": _member("forest", {**cfg["forest"], "seed": substream(seed, "forest")}, **where),
        "knn": _member("knn", cfg["knn"], **where),
    }


def _finish(members: dict[str, np.ndarray], combined: np.ndarray) -> EnsembleResult:
    return EnsembleResult(combined, predicted_labels(combined), members)


def _mean(members: dict[str, np.ndarray]) -> EnsembleResult:
    return _finish(members, np.mean(np.stack(list(members.values())), axis=0))


def _feature_split_members(train_X: FeatureMatrix, cfg: Mapping) -> dict[str, Member]:
    """A full-feature logistic regression and one on the structured vendor + indicator blocks only."""
    widths = dict(zip(GROUPS, train_X.widths))
    for required in ("vendor", "indicator"):
        if not widths[required]:
            raise ConfigError(f"feature split needs a {required!r} block")
    return {
        "all_features": _member("logreg", cfg["logreg"]),
        "structured_only": _member("logreg", cfg["logreg"], groups=("vendor", "indicator")),
    }


def _bootstrap_members(y: np.ndarray, cfg: Mapping) -> dict[str, Member]:
    """Logistic regressions fit on seeded resamples of the train set.

    Each member trains on ceil(sample_fraction * n) rows drawn with
    replacement (or a subsample without replacement when configured). A
    single-class draw is redrawn up to 10 times before giving up.
    """
    ens = cfg["ensemble"]
    n = len(y)
    size = int(np.ceil(ens["sample_fraction"] * n))
    members = {}
    for i in range(ens["members"]):
        rng = np.random.default_rng(substream(int(cfg["seed"]), f"bootstrap-{i}"))
        for _ in range(10):
            idx = rng.integers(0, n, size=size) if ens["with_replacement"] else rng.permutation(n)[:size]
            if len(np.unique(y[idx])) == 2:
                break
        else:
            raise FitError(f"member {i}: resample kept a single class after 10 draws")
        members[f"member_{i}"] = _member("logreg", cfg["logreg"], rows=tuple(idx.tolist()))
    return members


def _instance_members(cfg: Mapping) -> dict[str, Member]:
    """Logistic regressions that differ only in regularization strength."""
    return {f"C={c:g}": _member("logreg", {**cfg["logreg"], "C": c}) for c in cfg["ensemble"]["instance_c"]}


def _stratified_folds(y: np.ndarray, folds: int, seed: int) -> np.ndarray:
    """Deterministic stratified fold ids; every fold's complement keeps both classes."""
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


def _stacking_members(y: np.ndarray, cfg: Mapping) -> dict[str, Member]:
    """Full-train bases that score the test rows, and per fold bases that score their held-out fold."""
    seed, folds = int(cfg["seed"]), cfg["ensemble"]["folds"]
    members = _bases(cfg, substream(seed, "full"))
    fold_of = _stratified_folds(y, folds, seed)
    for f in range(folds):
        hold, rest = np.flatnonzero(fold_of == f), np.flatnonzero(fold_of != f)
        if len(hold):
            where = {"rows": tuple(rest.tolist()), "scores": tuple(hold.tolist())}
            fold = _bases(cfg, substream(seed, f"fold-{f}"), **where)
            members.update((f"{name}@fold-{f}", m) for name, m in fold.items())
    return members


def feature_split_ensemble(members: dict[str, np.ndarray]) -> EnsembleResult:
    """The mean of the full-feature and the structured-only member."""
    return _mean(members)


def bootstrap_ensemble(members: dict[str, np.ndarray]) -> EnsembleResult:
    """The mean of the resampled members."""
    return _mean(members)


def heterogeneous_ensemble(members: dict[str, np.ndarray]) -> EnsembleResult:
    """The mean of three different learners trained on the identical matrix."""
    return _mean(members)


def instance_ensemble(members: dict[str, np.ndarray]) -> EnsembleResult:
    """The mean of the members at each regularization strength."""
    return _mean(members)


def stacking_ensemble(members: dict[str, np.ndarray], plan: dict[str, Member], y_train, logreg: Mapping) -> EnsembleResult:
    """Blend the full-train bases' probabilities with a logistic-regression meta-model.

    The meta-model trains on out-of-fold probabilities: each fold member
    fills its held-out rows in its base's column, so no base scores a
    row it has seen.
    """
    meta_train = np.zeros((len(y_train), len(BASES)))
    for name, m in plan.items():
        if m.scores is not None:
            meta_train[np.asarray(m.scores), BASES.index(m.learner)] = members[name]
    bases = {name: members[name] for name in BASES}
    meta_model = train_logreg(meta_train, y_train, **logreg)
    return _finish(bases, meta_model.predict_proba(np.stack(list(bases.values()), axis=1)))


def run(train_X: FeatureMatrix, y_train, test_X: FeatureMatrix, config: Mapping = DEFAULTS) -> dict[str, EnsembleResult]:
    """Every strategy's result by name, in ``STRATEGIES`` order.

    ``config`` is the run's config tree, shaped like
    ``config.DEFAULTS``. Members read its ``seed``, ``ensemble``,
    ``logreg``, ``forest`` and ``knn`` sections, each checked by its
    config rules first. Every member is planned before any is trained,
    so a plan that cannot run fails before any fit. Each distinct member
    is then one ``workers.map_jobs`` job, fit once on every usable CPU:
    the job selects the member's training rows, labels, scored rows and
    column groups, fits it, and only its probabilities are kept.
    """
    y = as_labels(y_train, train_X.n_rows, "y_train")
    for section in ("ensemble", *BASES):
        check(section, **config[section])
    plans = {
        "feature_split": _feature_split_members(train_X, config),
        "bootstrap": _bootstrap_members(y, config),
        "heterogeneous": _bases(config, int(config["seed"])),
        "instance": _instance_members(config),
        "stacking": _stacking_members(y, config),
    }

    def fit_and_score(m: Member) -> np.ndarray:
        X, labels = (train_X, y) if m.rows is None else (train_X.select_rows(np.asarray(m.rows)), y[list(m.rows)])
        scored = test_X if m.scores is None else train_X.select_rows(np.asarray(m.scores))
        if m.groups is not None:
            X, scored = X.select_groups(m.groups), scored.select_groups(m.groups)
        train = globals()[f"train_{m.learner}"]  # looked up per call, so a wrapped trainer sees it
        return train(X, labels, **dict(m.params)).predict_proba(scored)

    distinct = list(dict.fromkeys(m for plan in plans.values() for m in plan.values()))
    probs = dict(zip(distinct, map_jobs(fit_and_score, distinct)))

    results = {}
    for strategy, plan in plans.items():
        members = {name: probs[m] for name, m in plan.items()}
        combine = globals()[f"{strategy}_ensemble"]  # looked up per call, like the trainers
        results[strategy] = combine(members, plan, y, config["logreg"]) if strategy == "stacking" else combine(members)
    return results
