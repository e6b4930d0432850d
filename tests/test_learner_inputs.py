"""One input check for every learner: each entry point that reads a matrix
takes it through the one matrix rule, ``features.as_matrix`` or its dense
form ``features.as_dense``; each that reads labels takes them through
``features.as_labels``; each fitted predictor and projector checks its
input width through ``features.check_width``; each that takes a count
reads it through ``features.as_count``; and each keyword hyperparameter
is checked by its config key's rule, through ``config.check``."""

import copy
import math
import re

import numpy as np
import pytest
import scipy.sparse as sp

from sevtriage import classical, corpus, ensembles, evaluation, features, neural, pipelines, reduction, selection, workers
from sevtriage.cli import _pca_scatter_points
from sevtriage.config import _KEYS, load_config
from sevtriage.errors import ConfigError, DomainError, FitError, ShapeError
from tests.conftest import grouped_matrix
from tests.test_cli import BOUNDARIES
from tests.test_ensembles import make_grouped_data

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


# ---------------------------------------------------------------------------
# The matrix rule

NAMES = ["c0", "c1", "c2"]
# the same matrix in each form a learner accepts
FORMS = {
    "array": lambda M: M,
    "list": lambda M: M.tolist(),
    "csr": sp.csr_matrix,
    "FeatureMatrix": lambda M: grouped_matrix((M, NAMES, "indicator")),
}
W, Y = np.array([0.3, -0.2, 0.1]), np.array(LABELS, dtype=np.float64)
NET_CONFIG = neural.TrainConfig(epochs=1, batch=N)

# Each matrix-reading entry point as a call on a matrix of N rows and 3
# columns, fitted on ``X`` where it needs a fitted model. The dense learners
# compute on the dense array ``features.as_dense`` makes.
DENSE_ENTRY_POINTS = {
    "train_tree": lambda M: classical.train_tree(M, LABELS).predict_proba(X),
    "TreeModel": lambda M: classical.train_tree(X, LABELS).predict_proba(M),
    "train_forest": lambda M: classical.train_forest(M, LABELS, n_trees=2).predict_proba(X),
    "ForestModel": lambda M: classical.train_forest(X, LABELS, n_trees=2).predict_proba(M),
    "train_knn": lambda M: classical.train_knn(M, LABELS, k=1).predict_proba(X),
    "KnnModel": lambda M: classical.train_knn(X, LABELS, k=1).predict_proba(M),
    "fit_pca": lambda M: reduction.fit_pca(M, k=2).components,
    "project_pca": lambda M: reduction.project_pca(reduction.fit_pca(X, k=2), M),
    "fit_lda": lambda M: reduction.fit_lda(M, LABELS).projection,
    "project_lda": lambda M: reduction.project_lda(reduction.fit_lda(X, LABELS), M),
    "LrFeaturePipeline._project(pca)": lambda M: pipelines.LrFeaturePipeline("pca")._project(M, fit=True).toarray(),
    "LrFeaturePipeline._project(lda)": lambda M: pipelines.LrFeaturePipeline("lda")._project(M, True, LABELS).toarray(),
    "neural.train": lambda M: np.array(neural.train(SPEC, SEQUENCES, M, LABELS, NET_CONFIG).loss_history),
    "TrainedNet": lambda M: neural.train(SPEC, SEQUENCES, X, LABELS, NET_CONFIG).predict_proba(SEQUENCES.ids, M),
}
# The sparse learners compute on CSR when given it, and on a dense array otherwise.
SPARSE_ENTRY_POINTS = {
    "train_logreg": lambda M: classical.train_logreg(M, LABELS).weights,
    "LogRegModel": lambda M: classical.train_logreg(X, LABELS).predict_proba(M),
    "logreg_loss": lambda M: classical.logreg_loss(W, 0.1, M, Y, 1.0),
    "logreg_gradient": lambda M: np.append(*classical.logreg_gradient(W, 0.1, M, Y, 1.0)),
    "chi2_scores": lambda M: selection.chi2_scores(M, LABELS).scores,
    "mutual_info_scores": lambda M: selection.mutual_info_scores(M, LABELS).scores,
    "fit_truncated_svd": lambda M: reduction.fit_truncated_svd(M, k=2).components,
    "project_svd": lambda M: reduction.project_svd(reduction.fit_truncated_svd(X, k=2), M),
}
MATRIX_ENTRY_POINTS = {**DENSE_ENTRY_POINTS, **SPARSE_ENTRY_POINTS}


@pytest.mark.parametrize("entry", DENSE_ENTRY_POINTS)
def test_a_dense_learner_gives_the_same_result_for_every_form(entry):
    first, *rest = (DENSE_ENTRY_POINTS[entry](form(X)) for form in FORMS.values())
    for result in rest:
        assert np.array_equal(result, first)


@pytest.mark.parametrize("entry", SPARSE_ENTRY_POINTS)
def test_a_sparse_learner_reads_a_list_as_an_array_and_a_feature_matrix_as_its_csr(entry):
    results = {name: SPARSE_ENTRY_POINTS[entry](form(X)) for name, form in FORMS.items()}
    assert np.array_equal(results["list"], results["array"])
    assert np.array_equal(results["FeatureMatrix"], results["csr"])


@pytest.mark.parametrize("entry", MATRIX_ENTRY_POINTS)
def test_a_3d_array_is_a_shape_error(entry):
    with pytest.raises(ShapeError, match=r"at most 2 dimensions, got shape \(4, 3, 1\)$"):
        MATRIX_ENTRY_POINTS[entry](X[:, :, None])


def test_fit_lda_reads_a_1d_array_as_one_row():
    with pytest.raises(ShapeError, match="1 rows but 3 labels"):
        reduction.fit_lda(X[0], [0, 1, 0])


def test_the_nets_check_their_two_inputs_alike():
    net = neural.train(SPEC, SEQUENCES, X, LABELS, NET_CONFIG)
    for call in (
        lambda tab: net.predict_proba(SEQUENCES.ids, tab),
        lambda tab: neural.train(SPEC, SEQUENCES, tab, LABELS, NET_CONFIG),
    ):
        with pytest.raises(ShapeError, match="row counts differ: 4 sequences, 2 tabular"):
            call(X[:2])
        with pytest.raises(ShapeError, match="row counts differ: 4 sequences, 1 tabular"):
            call(X[0])
    assert np.array_equal(net.predict_proba(SEQUENCES.ids[:1], X[0]), net.predict_proba(SEQUENCES.ids, X)[:1])
    with pytest.raises(ShapeError, match="matrix width 2 != fitted width 3"):
        net.predict_proba(SEQUENCES.ids, X[:, :2])
    with pytest.raises(ShapeError, match="matrix width 3 != fitted width 4"):
        net.predict_proba(SEQUENCES.ids[:, :3], X)


def test_the_matrix_rule_copies_only_to_convert():
    fm = FORMS["FeatureMatrix"](X)
    assert features.as_matrix(fm) is fm.data
    assert features.as_dense(X) is X
    assert features.as_dense(X, order="F").flags.f_contiguous
    assert features.as_matrix(X[0]).shape == features.as_dense(sp.csr_matrix(X[0])).shape == (1, 3)
    assert features.as_dense(fm).dtype == features.as_matrix(X.tolist()).dtype == np.float64


def test_the_feature_matrix_readers_densify_by_the_rule():
    dense = features.as_dense(GROUPED)
    assert np.array_equal(features.as_dense(GROUPED), dense)
    assert np.array_equal(pipelines.net_tabular(GROUPED), dense)  # GROUPED holds only vendor and indicator columns
    text = grouped_matrix(
        (np.ones((N, 1)), ["v0"], "vendor"), (X[:, :2], ["a", "b"], "indicator"),
        (X / np.linalg.norm(X, axis=1)[:, None], NAMES, "text"),
    )
    pca = pipelines.LrFeaturePipeline("pca", load_config(overrides={"svd": {"k": 2}})).fit(text, RECORDS, LABELS)
    proj = pca.transform(text).toarray()
    rows = [(f"{a:.6f}", f"{b:.6f}", y) for (a, b, *_), y in zip(proj, LABELS)]
    assert _pca_scatter_points(pca, text, LABELS) == rows


# ---------------------------------------------------------------------------
# The count rule

LEXICON = features.KeywordLexicon(("remote code", "buffer overflow", "typo"))
FLAGS = grouped_matrix(
    (np.array([[0, 1, 0, 0], [0, 0, 0, 1], [1, 1, 1, 0], [0, 0, 0, 0]]), features.indicator_names(LEXICON), "indicator")
)
SVD = reduction.fit_truncated_svd(X, k=3)
SCORES = selection.chi2_scores(X, LABELS)
LOGREG = classical.train_logreg(X, LABELS)

# Each count-taking entry point: the parameter it names, the most the data
# holds of it, and a call on the count.
COUNT_ENTRY_POINTS = {
    "fit_truncated_svd": ("k", 3, lambda k: reduction.fit_truncated_svd(X, k=k).components),
    "fit_pca": ("k", 3, lambda k: reduction.fit_pca(X, k=k).components),
    "top_terms_per_component(components)": ("components", 3, lambda c: reduction.top_terms_per_component(SVD, NAMES, components=c)),
    "top_terms_per_component(terms)": ("terms", 3, lambda t: reduction.top_terms_per_component(SVD, NAMES, terms=t)),
    "select_top_k": ("k", 3, lambda k: selection.select_top_k(SCORES, k=k)),
    "top_scored_terms": ("n", 3, lambda n: selection.top_scored_terms(SCORES, n=n)),
    "train_knn": ("k", N, lambda k: classical.train_knn(X, LABELS, k=k).predict_proba(X)),
    "top_coefficients": ("n", 3, lambda n: classical.top_coefficients(LOGREG, NAMES, n=n)),
    "keyword_frequencies": ("top_k", 3, lambda k: features.keyword_frequencies(FLAGS, LEXICON, top_k=k)),
    "fit_tfidf": ("max_features", 15, lambda m: features.fit_tfidf(TEXTS, max_features=m).vocabulary),
    "build_sequences": ("vocab_cap", 9, lambda c: neural.build_sequences(TEXTS, max_len=4, vocab_cap=c).vocabulary),
}


def same(a, b) -> bool:
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
class TestCountRule:
    @pytest.mark.parametrize("count", [-1, 0, 1.5, True])
    def test_a_count_that_is_not_an_integer_of_at_least_1_is_a_config_error(self, entry, count):
        name, _, call = COUNT_ENTRY_POINTS[entry]
        with pytest.raises(ConfigError, match=f"^{name} must be a positive integer, got {count!r}$"):
            call(count)

    def test_a_count_above_the_limit_is_clamped_to_it(self, entry):
        _, limit, call = COUNT_ENTRY_POINTS[entry]
        at_limit = call(limit)
        assert same(call(limit + 1), at_limit) and same(call(np.int64(10**6)), at_limit)
        assert not same(call(limit - 1), at_limit)


def test_the_reducers_refuse_data_that_supports_no_component():
    with pytest.raises(FitError, match="cannot fit an SVD on a 0x3 matrix"):
        reduction.fit_truncated_svd(np.zeros((0, 3)), k=1)
    with pytest.raises(FitError, match="cannot fit PCA on a 1x3 matrix"):
        reduction.fit_pca(X[:1], k=1)


# ---------------------------------------------------------------------------
# The hyperparameter rule

SMALL_NET = {"embedding_dim": 2, "conv_filters": 2, "tabular_hidden": 2, "merge": (2,), "dropout": 0.0}
ENSEMBLE_DATA = make_grouped_data(n=40)


def net_scores(variant="ffnn", sequences=SEQUENCES, train=(), **spec):
    """A small net with ``spec`` over ``SMALL_NET``, trained one epoch on ``sequences`` with ``train`` over that, scored."""
    config = neural.TrainConfig(**{"epochs": 1, "batch": N, **dict(train)})
    net = neural.train(neural.NetSpec(variant, **{**SMALL_NET, **spec}), sequences, X, LABELS, config)
    return net.predict_proba(sequences.ids, X)


def ensemble_results(**ensemble):
    """``ensembles.run`` on ``ENSEMBLE_DATA`` with ``ensemble`` over that section of a two-tree run's config tree."""
    Xtr, ytr, Xte, _ = ENSEMBLE_DATA
    cfg = load_config(overrides={"forest": {"n_trees": 2}})
    cfg["ensemble"].update(ensemble)  # past load_config's rules, as a library caller may set them
    return ensembles.run(Xtr, ytr, Xte, cfg)


# Each key of a config section: the entry point that takes it, the name of its parameter, and a call that fits (and
# scores) with the value there and every other hyperparameter that interacts with it at its default.
HYPERPARAMETERS = {
    "tfidf.ngram_lo": ("fit_tfidf", "ngram_lo", lambda v: features.fit_tfidf(TEXTS, ngram_range=(v, 2))),
    "tfidf.ngram_hi": ("fit_tfidf", "ngram_hi", lambda v: features.fit_tfidf(TEXTS, ngram_range=(1, v))),
    "tfidf.max_features": ("fit_tfidf", "max_features", lambda v: features.fit_tfidf(TEXTS, max_features=v)),
    "svd.k": ("fit_truncated_svd", "k", lambda v: reduction.fit_truncated_svd(X, k=v)),
    "pca.k": ("fit_pca", "k", lambda v: reduction.fit_pca(X, k=v)),
    "select.k": ("select_top_k", "k", lambda v: selection.select_top_k(SCORES, k=v)),
    "logreg.C": ("train_logreg", "C", lambda v: classical.train_logreg(X, LABELS, C=v).predict_proba(X)),
    "logreg.max_iter": ("train_logreg", "max_iter", lambda v: classical.train_logreg(X, LABELS, max_iter=v).predict_proba(X)),
    "logreg.tol": ("train_logreg", "tol", lambda v: classical.train_logreg(X, LABELS, tol=v).predict_proba(X)),
    "tree.max_depth": ("train_tree", "max_depth", lambda v: classical.train_tree(X, LABELS, max_depth=v).predict_proba(X)),
    "tree.min_samples_leaf": (
        "train_tree", "min_samples_leaf", lambda v: classical.train_tree(X, LABELS, min_samples_leaf=v).predict_proba(X)
    ),
    "forest.n_trees": ("train_forest", "n_trees", lambda v: classical.train_forest(X, LABELS, n_trees=v).predict_proba(X)),
    "forest.features_per_split": (
        "train_forest", "features_per_split",
        lambda v: classical.train_forest(X, LABELS, n_trees=2, features_per_split=v).predict_proba(X),
    ),
    "knn.k": ("train_knn", "k", lambda v: classical.train_knn(X, LABELS, k=v).predict_proba(X)),
    "net.embedding_dim": ("NetSpec", "embedding_dim", lambda v: net_scores(embedding_dim=v)),
    # a CNN's sequences must hold one window of its default width 3, as config's max_len must
    "net.max_len": ("neural.train", "max_len", lambda v: net_scores("cnn", neural.build_sequences(TEXTS, max_len=v))),
    "net.vocab_cap": ("build_sequences", "vocab_cap", lambda v: neural.build_sequences(TEXTS, vocab_cap=v)),
    "net.conv_filters": ("NetSpec", "conv_filters", lambda v: net_scores("cnn", conv_filters=v)),
    "net.kernel_width": ("NetSpec", "kernel_width", lambda v: net_scores("cnn", kernel_width=v)),
    "net.tabular_hidden": ("NetSpec", "tabular_hidden", lambda v: net_scores(tabular_hidden=v)),
    "net.merge": ("NetSpec", "merge", lambda v: net_scores(merge=v)),
    "net.dropout": ("NetSpec", "dropout", lambda v: net_scores(dropout=v)),
    "net.epochs": ("TrainConfig", "epochs", lambda v: net_scores(train={"epochs": v})),
    "net.batch": ("TrainConfig", "batch", lambda v: net_scores(train={"batch": v})),
    "net.lr": ("TrainConfig", "lr", lambda v: net_scores(train={"lr": v})),
    **{
        f"ensemble.{name}": ("ensembles.run", name, lambda v, name=name: ensemble_results(**{name: v}))
        for name in ("members", "sample_fraction", "with_replacement", "folds", "instance_c")
    },
}
# Values beyond BOUNDARIES: those a direct call once misread (a silent misfit, a bare TypeError or numpy's own error),
# and numpy integers, which the integer rule accepts.
DIRECT_VALUES = {
    "logreg.C": [True, math.nan],
    "logreg.max_iter": [-1, np.int64(3)],
    "logreg.tol": [-1.0],
    "tree.max_depth": [-1, np.int64(2)],
    "tree.min_samples_leaf": [-3, np.int64(2)],
    "forest.n_trees": [True, 2.5, np.int64(2)],
    "forest.features_per_split": ["0.5"],
    "knn.k": [np.int64(3)],
    "net.embedding_dim": [2.5],
    "net.max_len": [-1, 2],
    "net.merge": [()],
    "net.batch": [np.int64(2)],
}
CASES = [
    (key, value) for key in HYPERPARAMETERS for value in [*BOUNDARIES[key][0], *BOUNDARIES[key][1], *DIRECT_VALUES.get(key, [])]
]


def test_every_section_key_has_an_entry_point_and_boundaries():
    keys = {f"{section}.{name}" for section, entry in _KEYS.items() if isinstance(entry, dict) for name in entry}
    assert set(HYPERPARAMETERS) == keys and keys <= set(BOUNDARIES) and set(DIRECT_VALUES) <= keys


@pytest.mark.parametrize("key,value", CASES, ids=[f"{key}={value!r}" for key, value in CASES])
def test_an_entry_point_rejects_a_value_exactly_where_load_config_rejects_its_key(key, value, monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda: 1)  # the ensembles fit in this process
    _, name, call = HYPERPARAMETERS[key]
    section, _, key_name = key.partition(".")
    try:
        load_config(overrides={section: {key_name: value}})
    except ConfigError as exc:
        # the same words, the parameter named where the config names the key
        message = str(exc).replace(f"config key {key!r}", name).replace(f"'{section}.", "'")
        assert message.startswith(f"{name} must be ")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            call(value)
    else:
        call(value)
