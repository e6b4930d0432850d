"""Selection, reduction, evaluation and the train/test split leave their
input matrices, labels, probabilities, records, fitted models and
pipelines unchanged."""

import pickle
from unittest import mock

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sevtriage import corpus, evaluation, reduction, selection, workers
from sevtriage.config import load_config
from sevtriage.pipelines import FeatureBuilder, feature_benchmark_pipelines, model_benchmark_pipelines


def _all_stored(X):
    # csr keeping every cell, zeros included, so an in-place eliminate_zeros would show
    rows, cols = np.indices(X.shape)
    return sp.csr_matrix((X.ravel(), (rows.ravel(), cols.ravel())), shape=X.shape)


DENSE = {"dense": np.ascontiguousarray, "fortran": np.asfortranarray}
LAYOUTS = {**DENSE, "csr": sp.csr_matrix, "csr-stored-zeros": _all_stored}


def input_bytes(X):
    if sp.issparse(X):
        return X.format, X.shape, X.data.tobytes(), X.indices.tobytes(), X.indptr.tobytes()
    return X.shape, X.dtype.str, X.flags.f_contiguous, X.tobytes(order="A")


def model_bytes(model):
    return {name: value.tobytes() for name, value in vars(model).items() if isinstance(value, np.ndarray)}


@st.composite
def labelled_matrices(draw, min_rows=2):
    """Non-negative (chi-square needs it) matrices with both classes present."""
    n, d = draw(st.integers(min_rows, 10)), draw(st.integers(1, 5))
    X = draw(arrays(np.float64, (n, d), elements=st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.25])))
    y = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    y[:2] = [0, 1]
    return X, y


class TestSelection:
    @settings(max_examples=60, deadline=None)
    @given(labelled_matrices(), st.sampled_from(["chi2", "mi"]), st.sampled_from(sorted(LAYOUTS)), st.integers(1, 6))
    def test_scoring_and_selection_leave_inputs_unchanged(self, data, method, layout, k):
        X, y = data
        X = LAYOUTS[layout](X)
        before = input_bytes(X), y.tobytes()
        scores = (selection.chi2_scores if method == "chi2" else selection.mutual_info_scores)(X, y)
        assert (input_bytes(X), y.tobytes()) == before
        kept = scores.scores.tobytes()
        selection.select_top_k(scores, k=k)
        assert scores.scores.tobytes() == kept


class TestReduction:
    @settings(max_examples=60, deadline=None)
    @given(labelled_matrices(), st.sampled_from(sorted(LAYOUTS)), st.booleans(), st.data())
    def test_svd_leaves_inputs_unchanged(self, data, layout, randomized, draw):
        X, _ = data
        X = LAYOUTS[layout](X)
        k = draw.draw(st.integers(1, min(X.shape)))
        before = input_bytes(X)
        # a zero limit sends these small matrices through the randomized range finder
        with mock.patch.object(reduction, "_EXACT_SVD_LIMIT", 0 if randomized else reduction._EXACT_SVD_LIMIT):
            svd = reduction.fit_truncated_svd(X, k=k, seed=3)
        assert input_bytes(X) == before
        fitted = model_bytes(svd)
        reduction.project_svd(svd, X)
        assert (input_bytes(X), model_bytes(svd)) == (before, fitted)

    @settings(max_examples=60, deadline=None)
    @given(labelled_matrices(min_rows=3), st.sampled_from(sorted(DENSE)), st.data())
    def test_pca_and_lda_leave_inputs_unchanged(self, data, layout, draw):
        # PCA and LDA take the densified assembly, so dense layouts only
        X, y = data
        X = DENSE[layout](X)
        k = draw.draw(st.integers(1, min(X.shape[0] - 1, X.shape[1])))
        before = input_bytes(X), y.tobytes()
        pca = reduction.fit_pca(X, k=k)
        lda = reduction.fit_lda(X, y)
        assert (input_bytes(X), y.tobytes()) == before
        fitted = model_bytes(pca), model_bytes(lda)
        reduction.project_pca(pca, X)
        reduction.project_lda(lda, X)
        assert (input_bytes(X), y.tobytes()) == before
        assert (model_bytes(pca), model_bytes(lda)) == fitted


def snapshot(values):
    """What a caller sees of an array or list argument: its dtype and bytes, or its items."""
    return (values.dtype.str, values.tobytes()) if isinstance(values, np.ndarray) else list(values)


@st.composite
def scored_labels(draw):
    """True labels with both classes, predicted labels and tied probabilities, as arrays or lists."""
    n = draw(st.integers(2, 12))
    y_true = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    y_true[:2] = [0, 1]
    y_pred = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    probs = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]), min_size=n, max_size=n))
    as_array = draw(st.booleans())
    return [np.array(v) if as_array else v for v in (y_true, y_pred, probs)]


class TestEvaluation:
    @settings(max_examples=60, deadline=None)
    @given(scored_labels())
    def test_report_and_roc_auc_leave_inputs_unchanged(self, args):
        before = [snapshot(a) for a in args]
        evaluation.report(*args)
        y_true, _, probs = args
        evaluation.roc_auc(y_true, probs)
        assert [snapshot(a) for a in args] == before


class TestBenchmark:
    def test_benchmark_leaves_its_pipelines_unfitted(self, synthetic_dataset, monkeypatch):
        # one worker: every head fits in this process, where a fit in place would show
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        cfg = load_config(overrides={"forest": {"n_trees": 3}, "net": {"epochs": 1}})
        pipes = feature_benchmark_pipelines(cfg) + model_benchmark_pipelines(cfg)
        train, test = synthetic_dataset.train_records(), synthetic_dataset.test_records()
        builder = FeatureBuilder().fit(train)
        train_X, test_X = builder.transform(train), builder.transform(test)
        before = [pickle.dumps(pipe) for _, pipe in pipes]
        table = evaluation.benchmark(pipes, synthetic_dataset, train_X, test_X)
        assert [pickle.dumps(pipe) for _, pipe in pipes] == before
        assert all(row.report is not None for row in table.rows)
        assert all(row.head is not pipe and type(row.head) is type(pipe) for (_, pipe), row in zip(pipes, table.rows))


class TestSplit:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=2, max_size=12), st.sampled_from([0.2, 0.5, 0.8]), st.booleans())
    def test_stratified_split_leaves_inputs_unchanged(self, labels, fraction, as_array):
        labels[:2] = [0, 1]
        records = [corpus.DisclosureRecord(f"Z{i}", None, 8.0 if y else 3.0, None, "V", "") for i, y in enumerate(labels)]
        labels = np.array(labels) if as_array else labels
        before = list(records), snapshot(labels)
        corpus.stratified_split(records, labels, test_fraction=fraction, seed=5)
        assert (records, snapshot(labels)) == before
