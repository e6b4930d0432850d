"""Acceptance gate: one test per criterion, each printing a PASS line.

Criteria 1-4 need the real disclosure CSV (415 rows, Jan-Apr 2024). Point
SEVTRIAGE_DATA at it (canonical headers, or set SEVTRIAGE_SCHEMA to a
JSON column mapping); they skip when the file is absent. Criteria 5
(property suite) and 6 (end-to-end determinism) always run.
"""

import itertools
import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from sevtriage import classical, corpus, ensembles, evaluation, neural, reduction, selection
from sevtriage import features as feats
from sevtriage.cli import main as cli_main
from sevtriage.pipelines import FeatureBuilder, LrFeaturePipeline, model_benchmark_pipelines

from tests.test_classical import oracle_tree, to_nested
from tests.test_ensembles import make_grouped_data
from tests.test_evaluation import oracle_auc_pairwise, oracle_report
from tests.test_features import ORACLE_DOCS, ORACLE_IDF, ORACLE_ROWS
from tests.test_selection import oracle_chi2_binary, oracle_mi_binary

DATA_PATHS = (
    os.environ.get("SEVTRIAGE_DATA"),
    "data/zdi_jan_apr_2024.csv",
)


def _real_dataset_path():
    for candidate in DATA_PATHS:
        if candidate and Path(candidate).exists():
            return Path(candidate)
    return None

needs_dataset = pytest.mark.skipif(
    _real_dataset_path() is None,
    reason="benchmark dataset not provided (set SEVTRIAGE_DATA to the 415-row disclosure CSV)",
)


@pytest.fixture(scope="module")
def real_records_raw():
    path = _real_dataset_path()
    schema = json.loads(os.environ.get("SEVTRIAGE_SCHEMA", "{}"))
    with open(path, "rb") as fh:
        return corpus.parse_csv(fh, schema)


@pytest.fixture(scope="module")
def real_split(real_records_raw):
    records = corpus.clean(real_records_raw)
    labels = corpus.label(records)
    return corpus.stratified_split(records, labels, test_fraction=0.2, seed=42)


def _fit_and_score(pipe, split):
    start = time.perf_counter()
    builder = FeatureBuilder().fit(split.train_records())
    pipe.fit(builder.transform(split.train_records()), split.train_records(), split.train_labels())
    probs = np.asarray(pipe.predict_proba(builder.transform(split.test_records()), split.test_records()))
    elapsed = time.perf_counter() - start
    rep = evaluation.report(split.test_labels(), (probs >= 0.5).astype(int), probs)
    return rep, elapsed


@pytest.fixture(scope="module")
def baseline_result(real_split):
    return _fit_and_score(LrFeaturePipeline(mode="baseline", seed=42), real_split)


class TestDatasetCriteria:
    @needs_dataset
    def test_dataset_shape_415_raw_rows(self, real_records_raw):
        assert len(real_records_raw) == 415
        print(f"\n[PASS] dataset shape: {len(real_records_raw)} raw rows")

    @needs_dataset
    def test_criterion_1_baseline_reproduction(self, real_split, baseline_result):
        rep, elapsed = baseline_result
        assert len(real_split.test_idx) == 83
        assert abs(rep.accuracy - 0.9518) <= 0.04
        assert abs(rep.f1_macro - 0.9186) <= 0.05
        assert rep.auc >= 0.96
        assert elapsed < 60.0
        print(f"\n[PASS] criterion 1: baseline acc={rep.accuracy:.4f} f1={rep.f1_macro:.4f} auc={rep.auc:.4f} ({elapsed:.1f}s)")

    @needs_dataset
    def test_criterion_2_svd_stability(self, real_split, baseline_result):
        base_rep, _ = baseline_result
        svd_rep, elapsed = _fit_and_score(LrFeaturePipeline(mode="svd", svd_k=100, seed=42), real_split)
        assert abs(svd_rep.accuracy - base_rep.accuracy) <= 0.02
        assert elapsed < 90.0
        print(f"\n[PASS] criterion 2: svd acc={svd_rep.accuracy:.4f} vs baseline {base_rep.accuracy:.4f} ({elapsed:.1f}s)")

    @needs_dataset
    def test_criterion_3_table3_spread(self, real_split, baseline_result):
        from sevtriage.pipelines import ClassicalModelPipeline

        lr_rep, _ = baseline_result
        dt_rep, elapsed = _fit_and_score(ClassicalModelPipeline("tree", seed=42), real_split)
        assert dt_rep.accuracy >= 0.90
        assert lr_rep.auc > dt_rep.auc
        assert elapsed < 120.0
        print(f"\n[PASS] criterion 3: dt acc={dt_rep.accuracy:.4f}, lr auc {lr_rep.auc:.4f} > dt auc {dt_rep.auc:.4f} ({elapsed:.1f}s)")

    @needs_dataset
    def test_criterion_4_neural_band(self, real_split):
        from sevtriage.pipelines import NeuralPipeline

        start = time.perf_counter()
        ffnn_rep, t1 = _fit_and_score(NeuralPipeline("ffnn", seed=42), real_split)
        cnn_rep, t2 = _fit_and_score(NeuralPipeline("cnn", seed=42), real_split)
        total = time.perf_counter() - start
        assert ffnn_rep.accuracy >= 0.85
        assert cnn_rep.accuracy >= 0.85
        assert cnn_rep.auc >= 0.93
        assert total < 300.0
        print(f"\n[PASS] criterion 4: ffnn acc={ffnn_rep.accuracy:.4f} cnn acc={cnn_rep.accuracy:.4f} cnn auc={cnn_rep.auc:.4f} ({total:.1f}s)")

    @needs_dataset
    def test_criterion_ensembles_beat_majority(self, real_split):
        builder = FeatureBuilder().fit(real_split.train_records())
        train_X = builder.transform(real_split.train_records())
        test_X = builder.transform(real_split.test_records())
        y_train, y_test = real_split.train_labels(), real_split.test_labels()
        majority = max(float(np.mean(y_test)), 1.0 - float(np.mean(y_test)))
        for strategy in ensembles.STRATEGIES:
            result = ensembles.EnsembleSpec(strategy, seed=42).run(train_X, y_train, test_X)
            acc = float(np.mean(result.labels == y_test))
            assert acc >= majority, strategy
        print(f"\n[PASS] ensemble criterion: all 5 strategies >= majority rate {majority:.4f}")


class TestCriterion5PropertySuite:
    """Always-runnable oracle equivalences at their stated tolerances."""

    def test_metric_oracles_exhaustive(self):
        rng = np.random.default_rng(0)
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        for n in range(1, 9):
            for y_true in itertools.product((0, 1), repeat=n):
                for y_pred in itertools.product((0, 1), repeat=n):
                    rep = evaluation.report(y_true, y_pred)
                    want = oracle_report(y_true, y_pred)
                    assert abs(rep.accuracy - want["accuracy"]) < 1e-12
                    assert abs(rep.f1_macro - want["f_macro"]) < 1e-12
                if 0 < sum(y_true) < n:
                    for scores in (rng.random(n), grid[rng.integers(0, 5, n)]):
                        got = evaluation.roc_auc(list(y_true), scores).auc
                        assert abs(got - oracle_auc_pairwise(y_true, scores)) < 1e-12
        print("\n[PASS] criterion 5a: metric oracle equivalence, n <= 8, error < 1e-12")

    def test_tfidf_hand_oracle(self):
        model = feats.fit_tfidf(ORACLE_DOCS, ngram_range=(1, 1), max_features=100)
        for term, expected in ORACLE_IDF.items():
            assert abs(model.idf[model.vocabulary[term]] - expected) < 1e-12
        for doc, expected in zip(ORACLE_DOCS, ORACLE_ROWS):
            row = feats.transform_tfidf(model, doc).toarray().ravel()
            assert np.max(np.abs(row - np.asarray(expected))) < 1e-12
        print("[PASS] criterion 5b: tf-idf hand oracle, error < 1e-12")

    def test_svd_pca_oracles(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            X = rng.random((6, 5))
            svd = reduction.fit_truncated_svd(X, k=5, seed=trial)
            assert np.allclose(svd.components @ svd.components.T, np.eye(5), atol=1e-8)
            gram_sv = np.sqrt(np.clip(np.linalg.eigvalsh(X.T @ X)[::-1], 0, None))[:5]
            assert np.allclose(svd.singular_values, gram_sv, atol=1e-6)
            curve = reduction.explained_variance_curve(svd)
            assert np.all(np.diff(curve) >= -1e-12)
            pca = reduction.fit_pca(X, k=4)
            assert np.allclose(pca.components @ pca.components.T, np.eye(4), atol=1e-8)
        print("[PASS] criterion 5c: svd/pca orthonormality 1e-8, gram-eigen oracle 1e-6, variance monotone")

    def test_chi2_mi_closed_form(self):
        rng = np.random.default_rng(2)
        for n in (4, 6, 8, 12):
            for _ in range(40):
                col = rng.integers(0, 2, n).astype(float)
                y = rng.integers(0, 2, n)
                if len(np.unique(y)) < 2:
                    continue
                chi = selection.chi2_scores(col.reshape(-1, 1), y).scores[0]
                assert abs(chi - oracle_chi2_binary(col.tolist(), y.tolist())) < 1e-10
                mi = selection.mutual_info_scores(col.reshape(-1, 1), y).scores[0]
                assert abs(mi - oracle_mi_binary(col.tolist(), y.tolist())) < 1e-10
        print("[PASS] criterion 5d: chi2/mi closed-form 2x2 checks, error < 1e-10")

    def test_logreg_gradient_finite_differences(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(5, 4))
        y = rng.integers(0, 2, 5).astype(float)
        w = rng.normal(size=4) * 0.4
        b = -0.2
        grad_w, grad_b = classical.logreg_gradient(w, b, X, y, C=1.0)
        h = 1e-6
        worst = 0.0
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            num = (classical.logreg_loss(w + e, b, X, y, 1.0) - classical.logreg_loss(w - e, b, X, y, 1.0)) / (2 * h)
            worst = max(worst, abs(num - grad_w[j]) / max(abs(num), abs(grad_w[j]), 1e-8))
        num_b = (classical.logreg_loss(w, b + h, X, y, 1.0) - classical.logreg_loss(w, b - h, X, y, 1.0)) / (2 * h)
        worst = max(worst, abs(num_b - grad_b) / max(abs(num_b), abs(grad_b), 1e-8))
        assert worst < 1e-5
        print(f"[PASS] criterion 5e: logreg gradient vs finite differences, rel err {worst:.2e} < 1e-5")

    def test_neural_gradient_finite_differences(self):
        texts = ["remote overflow exploit code", "benign note", "buffer overflow remote", "tiny fix"]
        seqs = neural.build_sequences(texts, max_len=6, vocab_cap=30)
        rng = np.random.default_rng(4)
        tab = rng.random((4, 3))
        y = np.array([1.0, 0.0, 1.0, 0.0])
        worst = 0.0
        for variant in ("ffnn", "cnn"):
            spec = neural.NetSpec(variant=variant, embedding_dim=5, conv_filters=4, kernel_width=2,
                                  tabular_hidden=3, merge=(6, 4), dropout=0.0, seed=13)
            params = neural.init_params(spec, seqs.vocab_size, 3, seed=13)
            _, grads = neural.loss_and_grads(params, spec, seqs.ids, tab, y)
            h = 1e-6
            for key in sorted(params):
                flat = params[key].ravel()
                for idx in range(0, flat.size, max(1, flat.size // 12)):
                    orig = flat[idx]
                    flat[idx] = orig + h
                    lp, _ = neural.loss_and_grads(params, spec, seqs.ids, tab, y)
                    flat[idx] = orig - h
                    lm, _ = neural.loss_and_grads(params, spec, seqs.ids, tab, y)
                    flat[idx] = orig
                    num = (lp - lm) / (2 * h)
                    ana = grads[key].ravel()[idx]
                    worst = max(worst, abs(num - ana) / max(1e-6, abs(num) + abs(ana)))
        assert worst < 1e-4
        print(f"[PASS] criterion 5f: neural gradients vs finite differences, rel err {worst:.2e} < 1e-4")

    def test_tree_exhaustive_equivalence(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(300):
            X = rng.integers(0, 2, size=(6, 2)).astype(float)
            y = rng.integers(0, 2, size=6)
            if len(np.unique(y)) < 2:
                continue
            assert to_nested(classical.train_tree(X, y)) == oracle_tree(X, y)
            checked += 1
        assert checked > 200
        print(f"[PASS] criterion 5g: tree equals exhaustive split search on {checked} 6-sample instances")

    def test_ensemble_mean_bound_and_determinism(self):
        Xtr, ytr, Xte, _ = make_grouped_data(seed=6)
        for strategy in ensembles.STRATEGIES:
            spec = ensembles.EnsembleSpec(strategy, seed=11, n_trees=10)
            a = spec.run(Xtr, ytr, Xte)
            b = spec.run(Xtr, ytr, Xte)
            assert np.array_equal(a.probabilities, b.probabilities), strategy
            if strategy != "stacking":  # the meta-model may leave the members' band
                stack = np.stack(list(a.member_probabilities.values()))
                assert np.all(a.probabilities >= stack.min(axis=0) - 1e-12)
                assert np.all(a.probabilities <= stack.max(axis=0) + 1e-12)
        print("[PASS] criterion 5h: ensemble mean bound and fixed-seed determinism")


class TestCriterion6Determinism:
    def test_benchmark_models_byte_identical(self, tmp_path, synthetic_csv):
        args = ["--data", str(synthetic_csv), "--seed", "13", "--n-trees", "15", "--epochs", "3"]
        out_a, out_b = tmp_path / "run_a", tmp_path / "run_b"
        assert cli_main(["benchmark-models", *args, "--out", str(out_a)]) == 0
        assert cli_main(["benchmark-models", *args, "--out", str(out_b)]) == 0
        for stem in ("models_table.txt", "models_table.csv", "models_table.md"):
            assert (out_a / stem).read_bytes() == (out_b / stem).read_bytes()
        print("\n[PASS] criterion 6: benchmark-models tables byte-identical across reruns")
