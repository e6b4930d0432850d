"""One input check for every learner: each entry point that reads labels
takes them through ``features.as_labels``, and each fitted predictor and
projector checks its input width through ``features.check_width``."""

import copy

import numpy as np
import pytest

from sevtriage import classical, corpus, ensembles, evaluation, features, neural, reduction, selection
from sevtriage.config import load_config
from sevtriage.errors import DomainError, ShapeError
from tests.conftest import grouped_matrix

LABELS = [0, 0, 1, 1]
N = len(LABELS)
# non-negative (chi-square needs it) and separable, so every learner fits
X = np.array([[0.0, 1.0, 0.5], [0.0, 0.9, 0.2], [1.0, 0.1, 0.4], [1.0, 0.0, 0.7]])
GROUPED = grouped_matrix((np.ones((N, 1)), ["v0"], "vendor"), (X[:, :2], ["a", "b"], "indicator"))
TEXTS = ["remote code execution", "minor typo", "buffer overflow remote", "cosmetic glitch"]
SEQUENCES = neural.build_sequences(TEXTS, max_len=4, vocab_cap=20)
RECORDS = [corpus.DisclosureRecord(f"Z-{i}", None, 5.0, None, "V", t) for i, t in enumerate(TEXTS)]
SPEC = neural.NetSpec(embedding_dim=2, conv_filters=2, tabular_hidden=2, merge=(2,), dropout=0.0)

# Each label-reading entry point as a call on labels meant for its N rows.
ENTRY_POINTS = {
    "train_logreg": lambda y: classical.train_logreg(X, y),
    "train_tree": lambda y: classical.train_tree(X, y),
    "train_forest": lambda y: classical.train_forest(X, y, n_trees=2),
    "train_knn": lambda y: classical.train_knn(X, y, k=1),
    "chi2_scores": lambda y: selection.chi2_scores(X, y),
    "mutual_info_scores": lambda y: selection.mutual_info_scores(X, y),
    "fit_lda": lambda y: reduction.fit_lda(X, y),
    "neural.train": lambda y: neural.train(SPEC, SEQUENCES, X, y, neural.TrainConfig(epochs=1, batch=N)),
    "ensembles.run": lambda y: ensembles.run(GROUPED, y, GROUPED, load_config(overrides={"forest": {"n_trees": 2}})),
    "confusion": lambda y: evaluation.confusion(LABELS, y),  # y_pred; y_true's count sets the rows
    "roc_auc": lambda y: evaluation.roc_auc(y, [0.1, 0.2, 0.8, 0.9]),
    "stratified_split": lambda y: corpus.stratified_split(RECORDS, y, test_fraction=0.5, seed=0),
    "LabeledDataset": lambda y: corpus.LabeledDataset(tuple(RECORDS), y, np.array([0, 2]), np.array([1, 3])),
}
CONTAINERS = {"list": list, "array": np.asarray}


def call_unmutated(entry, labels):
    """Call ``entry`` on ``labels`` and assert they are left as they were, whether it returns or raises."""
    before = copy.deepcopy(labels)
    try:
        return ENTRY_POINTS[entry](labels)
    finally:
        assert type(labels) is type(before)
        assert np.array_equal(labels, before) and np.asarray(labels).dtype == np.asarray(before).dtype


@pytest.mark.parametrize("container", CONTAINERS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
class TestLabelRule:
    @pytest.mark.parametrize("value", [0.7, 2, -1])
    def test_a_label_other_than_0_or_1_is_a_domain_error(self, entry, container, value):
        labels = CONTAINERS[container]([0, value, 1, 1])
        with pytest.raises(DomainError, match=f"must be binary, found {value}$"):
            call_unmutated(entry, labels)

    @pytest.mark.parametrize("labels", [[False, False, True, True], [0.0, 0.0, 1.0, 1.0], [0, -0.0, True, 1.0]])
    def test_bools_and_whole_floats_are_accepted(self, entry, container, labels):
        call_unmutated(entry, CONTAINERS[container](labels))

    @pytest.mark.parametrize("count", [N - 1, N + 1])
    def test_a_label_count_one_off_is_a_shape_error(self, entry, container, count):
        labels = CONTAINERS[container]((LABELS + [0])[:count])
        with pytest.raises(ShapeError, match=f"{N} rows but {count} labels"):
            call_unmutated(entry, labels)


@pytest.fixture(scope="module")
def predictors():
    """Each fitted model's predictor and each fitted projection, as a function of the matrix, fitted on ``X``."""
    return {
        "LogRegModel": classical.train_logreg(X, LABELS).predict_proba,
        "TreeModel": classical.train_tree(X, LABELS).predict_proba,
        "ForestModel": classical.train_forest(X, LABELS, n_trees=2).predict_proba,
        "KnnModel": classical.train_knn(X, LABELS, k=1).predict_proba,
        "project_svd": lambda M: reduction.project_svd(reduction.fit_truncated_svd(X, k=2), M),
        "project_pca": lambda M: reduction.project_pca(reduction.fit_pca(X, k=2), M),
        "project_lda": lambda M: reduction.project_lda(reduction.fit_lda(X, LABELS), M),
    }


@pytest.mark.parametrize(
    "name", ["LogRegModel", "TreeModel", "ForestModel", "KnnModel", "project_svd", "project_pca", "project_lda"]
)
def test_a_matrix_one_column_too_wide_is_a_shape_error(predictors, name):
    wide = np.hstack([X, np.ones((N, 1))])
    with pytest.raises(ShapeError, match="matrix width 4 != fitted width 3"):
        predictors[name](wide)


def test_the_forest_checks_its_width_before_routing_any_tree(monkeypatch):
    forest = classical.train_forest(X, LABELS, n_trees=2)

    def unreachable(self, X):
        raise AssertionError("a tree routed a matrix of the wrong width")

    monkeypatch.setattr(classical.TreeModel, "predict_proba", unreachable)
    with pytest.raises(ShapeError):
        forest.predict_proba(np.ones((N, 4)))


def test_as_labels_returns_a_new_flat_int64_array():
    y = np.array([[1.0], [0.0]])
    out = features.as_labels(y)
    assert out.dtype == np.int64 and out.shape == (2,) and out.tolist() == [1, 0]
    out[0] = 0
    assert y[0, 0] == 1.0
