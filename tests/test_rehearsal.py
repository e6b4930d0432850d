"""Full-pipeline rehearsal on a planted-signal corpus at benchmark scale.

This exercises exactly the code paths the dataset-gated acceptance
criteria run, against a 415-row synthetic feed whose text carries a
clean severity signal. It proves the pipelines can reach the expected
performance bands when the data supports them, independent of whether
the real feed is mounted.
"""

import numpy as np
import pytest

from sevtriage import corpus, ensembles, evaluation
from sevtriage.pipelines import ClassicalModelPipeline, FeatureBuilder, LrFeaturePipeline, NeuralPipeline
from tests.conftest import write_synthetic_csv


@pytest.fixture(scope="module")
def planted_split(tmp_path_factory):
    path = tmp_path_factory.mktemp("planted") / "feed.csv"
    write_synthetic_csv(path, n=415, seed=23, positive_rate=0.7, missing_cvss=0, duplicate_ids=0, flip_rate=0.03)
    with open(path, "rb") as fh:
        records = corpus.clean(corpus.parse_csv(fh))
    labels = corpus.label(records)
    return corpus.stratified_split(records, labels, test_fraction=0.2, seed=42)


def _featurized(split):
    builder = FeatureBuilder().fit(split.train_records())
    return builder.transform(split.train_records()), builder.transform(split.test_records())


def _score(pipe, split):
    train_X, test_X = _featurized(split)
    pipe.fit(train_X, split.train_records(), split.train_labels())
    probs = np.asarray(pipe.predict_proba(test_X, split.test_records()))
    return evaluation.report(split.test_labels(), (probs >= 0.5).astype(int), probs)


def test_split_support_is_83(planted_split):
    assert len(planted_split.test_idx) == 83


def test_baseline_lr_band(planted_split):
    rep = _score(LrFeaturePipeline(mode="baseline", seed=42), planted_split)
    assert rep.accuracy >= 0.91
    assert rep.auc >= 0.96


def test_svd_tracks_baseline(planted_split):
    base = _score(LrFeaturePipeline(mode="baseline", seed=42), planted_split)
    svd = _score(LrFeaturePipeline(mode="svd", svd_k=100, seed=42), planted_split)
    assert abs(svd.accuracy - base.accuracy) <= 0.02


def test_tree_strong_and_lr_leads_on_auc(planted_split):
    lr = _score(LrFeaturePipeline(mode="baseline", seed=42), planted_split)
    dt = _score(ClassicalModelPipeline("tree", seed=42), planted_split)
    assert dt.accuracy >= 0.90
    assert lr.auc > dt.auc


def test_neural_band_with_default_specs(planted_split):
    ffnn = _score(NeuralPipeline("ffnn", seed=42), planted_split)
    cnn = _score(NeuralPipeline("cnn", seed=42), planted_split)
    assert ffnn.accuracy >= 0.85
    assert cnn.accuracy >= 0.85
    assert cnn.auc >= 0.93


def test_every_ensemble_beats_majority(planted_split):
    builder = FeatureBuilder().fit(planted_split.train_records())
    train_X = builder.transform(planted_split.train_records())
    test_X = builder.transform(planted_split.test_records())
    y_train, y_test = planted_split.train_labels(), planted_split.test_labels()
    majority = max(float(np.mean(y_test)), 1.0 - float(np.mean(y_test)))
    for strategy in ensembles.STRATEGIES:
        spec = ensembles.EnsembleSpec(strategy=strategy, seed=42, n_trees=40)
        result = spec.run(train_X, y_train, test_X)
        assert float(np.mean(result.labels == y_test)) >= majority, strategy


EXPLOIT_PHRASES = ("code execution", "remote code", "buffer overflow", "privilege escalation", "rce", "overflow")


def test_mi_ranking_surfaces_exploit_phrases(planted_split):
    from sevtriage import selection

    pipe = LrFeaturePipeline(mode="mi", seed=42)
    train_X, _ = _featurized(planted_split)
    pipe.fit(train_X, planted_split.train_records(), planted_split.train_labels())
    top = [term for term, _ in selection.top_scored_terms(pipe.scores, n=20)]
    assert any(any(phrase in term for phrase in EXPLOIT_PHRASES) for term in top), top[:5]


def test_top_positive_coefficients_include_exploit_phrasing(planted_split):
    from sevtriage.classical import top_coefficients

    pipe = LrFeaturePipeline(mode="baseline", seed=42)
    train_X, _ = _featurized(planted_split)
    pipe.fit(train_X, planted_split.train_records(), planted_split.train_labels())
    X = pipe._reduced_assembly(train_X, fit=False)
    positives, _ = top_coefficients(pipe.model, list(X.names), n=10)
    joined = " ".join(name for name, _ in positives)
    assert any(phrase in joined for phrase in EXPLOIT_PHRASES), positives


def test_cli_prints_full_component_counts_at_benchmark_scale(planted_split, tmp_path_factory):
    import csv as _csv

    from sevtriage.cli import main as cli_main
    from sevtriage.corpus import write_records_csv

    tmp = tmp_path_factory.mktemp("planted_cli")
    data = tmp / "planted.csv"
    write_records_csv(planted_split.records, data)
    out = tmp / "out"
    assert cli_main(["benchmark-features", "--data", str(data), "--out", str(out), "--seed", "42"]) == 0
    table = (out / "features_table.txt").read_text()
    assert "tfidf_svd(k=100)" in table
    assert "tfidf_mi(k=300)" in table
    assert "tfidf_chi2(k=300)" in table
