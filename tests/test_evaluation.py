"""Metrics against exhaustive-definition oracles, plus benchmark rendering."""

import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sevtriage import evaluation
from sevtriage.errors import DomainError, ShapeError


# ---------------------------------------------------------------------------
# Independent oracles: definitions applied directly, no shared code paths.


def oracle_counts(y_true, y_pred):
    tp = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 1)
    tn = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 0)
    fp = sum(1 for t, p in zip(y_true, y_pred) if t == 0 and p == 1)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t == 1 and p == 0)
    return tn, fp, fn, tp


def oracle_report(y_true, y_pred):
    tn, fp, fn, tp = oracle_counts(y_true, y_pred)

    def prf(tp_c, fp_c, fn_c):
        precision = tp_c / (tp_c + fp_c) if tp_c + fp_c else 0.0
        recall = tp_c / (tp_c + fn_c) if tp_c + fn_c else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        return precision, recall, f1

    p1, r1, f1_1 = prf(tp, fp, fn)
    p0, r0, f1_0 = prf(tn, fn, fp)
    n = len(y_true)
    return {
        "accuracy": (tp + tn) / n,
        "p_macro": (p0 + p1) / 2,
        "r_macro": (r0 + r1) / 2,
        "f_macro": (f1_0 + f1_1) / 2,
        "class1": (p1, r1, f1_1),
        "class0": (p0, r0, f1_0),
    }


def oracle_auc_pairwise(y_true, scores):
    """Tie-aware ranking probability by exhaustive pair counting."""
    pos = [s for t, s in zip(y_true, scores) if t == 1]
    neg = [s for t, s in zip(y_true, scores) if t == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestConfusion:
    def test_perfect(self):
        cm = evaluation.confusion([1, 1, 1, 0, 0], [1, 1, 1, 0, 0])
        assert (cm.tp, cm.tn, cm.fp, cm.fn) == (3, 2, 0, 0)

    def test_always_positive_predictor(self):
        cm = evaluation.confusion([1] * 5 + [0] * 5, [1] * 10)
        assert (cm.fp, cm.tp) == (5, 5)

    def test_inverted_predictor_swaps_cells(self):
        y = [1, 1, 0, 0, 1]
        perfect = evaluation.confusion(y, y)
        inverted = evaluation.confusion(y, [1 - v for v in y])
        assert (inverted.fn, inverted.fp) == (perfect.tp, perfect.tn)
        assert (inverted.tp, inverted.tn) == (0, 0)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            evaluation.confusion([1, 0], [1])

    def test_nonbinary_rejected(self):
        with pytest.raises(DomainError):
            evaluation.confusion([2, 0], [1, 0])


class TestReport:
    def test_worked_example(self):
        rep = evaluation.report([1, 1, 1, 0], [1, 0, 1, 0])
        assert rep.per_class[1].precision == pytest.approx(1.0)
        assert rep.per_class[1].recall == pytest.approx(2 / 3)
        assert rep.per_class[1].f1 == pytest.approx(0.8)
        assert rep.per_class[0].precision == pytest.approx(0.5)
        assert rep.per_class[0].recall == pytest.approx(1.0)
        assert rep.per_class[0].f1 == pytest.approx(2 / 3)
        assert rep.f1_macro == pytest.approx((0.8 + 2 / 3) / 2)

    def test_perfect_predictions_all_ones(self):
        rep = evaluation.report([1, 0, 1], [1, 0, 1])
        assert rep.accuracy == rep.f1_macro == rep.precision_macro == rep.recall_macro == 1.0

    def test_zero_division_convention(self):
        rep = evaluation.report([1, 1, 0], [0, 0, 0])
        assert rep.per_class[1].precision == 0.0
        assert rep.per_class[1].recall == 0.0
        assert rep.per_class[1].f1 == 0.0

    def test_exhaustive_oracle_small_n(self):
        # every (y_true, y_pred) pair up to n = 8
        for n in range(1, 9):
            for bits_true in itertools.product((0, 1), repeat=n):
                for bits_pred in itertools.product((0, 1), repeat=n):
                    rep = evaluation.report(bits_true, bits_pred)
                    want = oracle_report(bits_true, bits_pred)
                    assert abs(rep.accuracy - want["accuracy"]) < 1e-12
                    assert abs(rep.precision_macro - want["p_macro"]) < 1e-12
                    assert abs(rep.recall_macro - want["r_macro"]) < 1e-12
                    assert abs(rep.f1_macro - want["f_macro"]) < 1e-12

    def test_macro_f1_between_class_f1s(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            y = rng.integers(0, 2, 12)
            p = rng.integers(0, 2, 12)
            rep = evaluation.report(y.tolist(), p.tolist())
            f1s = (rep.per_class[0].f1, rep.per_class[1].f1)
            assert min(f1s) - 1e-12 <= rep.f1_macro <= max(f1s) + 1e-12

    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=2, max_size=20))
    @settings(max_examples=80, deadline=None)
    def test_permutation_invariance(self, pairs):
        y, p = zip(*pairs)
        rep = evaluation.report(y, p)
        shuffled = list(pairs)[::-1]
        y2, p2 = zip(*shuffled)
        rep2 = evaluation.report(y2, p2)
        assert rep.accuracy == rep2.accuracy
        assert rep.f1_macro == rep2.f1_macro


class TestRocAuc:
    def test_worked_example(self):
        roc = evaluation.roc_auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.2])
        assert roc.auc == pytest.approx(0.75, abs=1e-12)

    def test_perfect_separation(self):
        roc = evaluation.roc_auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1])
        assert roc.auc == 1.0

    def test_all_ties_give_half(self):
        roc = evaluation.roc_auc([1, 0, 1, 0], [0.5, 0.5, 0.5, 0.5])
        assert roc.auc == pytest.approx(0.5)
        assert roc.fpr == (0.0, 1.0)
        assert roc.tpr == (0.0, 1.0)

    def test_curve_endpoints_and_monotone(self):
        rng = np.random.default_rng(1)
        y = [1, 0] * 5
        s = rng.random(10)
        roc = evaluation.roc_auc(y, s)
        assert roc.fpr[0] == roc.tpr[0] == 0.0
        assert roc.fpr[-1] == roc.tpr[-1] == 1.0
        assert all(a <= b for a, b in zip(roc.fpr, roc.fpr[1:]))
        assert all(a <= b for a, b in zip(roc.tpr, roc.tpr[1:]))

    def test_single_class_undefined(self):
        with pytest.raises(DomainError):
            evaluation.roc_auc([1, 1], [0.2, 0.4])

    def test_matches_pairwise_oracle_exhaustively(self):
        rng = np.random.default_rng(2)
        grid = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        for n in range(2, 9):
            for bits in itertools.product((0, 1), repeat=n):
                if sum(bits) in (0, n):
                    continue
                for scores in (rng.random(n), grid[rng.integers(0, 5, n)], np.full(n, 0.3)):
                    got = evaluation.roc_auc(list(bits), scores).auc
                    want = oracle_auc_pairwise(bits, scores)
                    assert abs(got - want) < 1e-12

    @given(
        st.lists(st.tuples(st.integers(0, 1), st.floats(0.01, 0.99)), min_size=4, max_size=16).filter(
            lambda pairs: 0 < sum(t for t, _ in pairs) < len(pairs)
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_transform_invariance(self, pairs):
        y, s = zip(*pairs)
        base = evaluation.roc_auc(y, s)
        squashed = evaluation.roc_auc(y, [v**3 + 2.0 * v for v in s])  # strictly increasing
        assert base.auc == pytest.approx(squashed.auc, abs=1e-12)
        assert base.fpr == squashed.fpr
        assert base.tpr == squashed.tpr


class _StubPipeline:
    def __init__(self, probs=None, fail=False):
        self._probs = probs
        self._fail = fail

    def fit(self, X, records, labels):
        if self._fail:
            raise RuntimeError("training exploded")
        return self

    def predict_proba(self, X, records):
        return np.asarray(self._probs[: len(records)])


class TestBenchmark:
    def _dataset(self):
        from sevtriage import corpus

        records = [
            corpus.DisclosureRecord(f"Z{i}", None, 8.0 if i % 3 else 4.0, None, "V", "text")
            for i in range(20)
        ]
        labels = corpus.label(records)
        return corpus.stratified_split(records, labels, 0.25, seed=0)

    def test_rows_and_columns(self):
        ds = self._dataset()
        good = _StubPipeline(probs=[0.9 if v else 0.1 for v in ds.test_labels()])
        table = evaluation.benchmark([("good", good)], ds, None, None)
        assert table.rows[0].name == "good"
        assert table.rows[0].report.accuracy == 1.0
        csv_head = table.render_csv().splitlines()[0]
        assert csv_head.startswith("model,accuracy,precision_macro,recall_macro,f1_macro,roc_auc")

    def test_error_rows_do_not_abort(self):
        ds = self._dataset()
        table = evaluation.benchmark(
            [("bad", _StubPipeline(fail=True)), ("good", _StubPipeline(probs=[0.9] * 5))], ds, None, None
        )
        assert table.rows[0].error is not None
        assert table.rows[1].report is not None
        assert "error: RuntimeError: training exploded (test_evaluation.py:" in table.render_text()
        assert table.rows[0].error.endswith(" in fit)")

    def test_csv_error_row_with_commas_keeps_the_header_width(self):
        error = 'error: ValueError: shapes (3,4) and (5,) not aligned, see "x"\nsecond line (x.py:1 in f)'
        text = evaluation.BenchmarkTable((evaluation.BenchmarkRow("m", None, error=error),), support=1).render_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert [len(r) for r in rows] == [7, 7]
        assert rows[1][-1] == 'error: ValueError: shapes (3;4) and (5;) not aligned; see "x" second line (x.py:1 in f)'
        assert [line.split(",", 6)[-1] for line in text.splitlines()] == ["status", rows[1][-1]]

    def test_best_values_flagged(self):
        ds = self._dataset()
        strong = _StubPipeline(probs=[0.9 if v else 0.1 for v in ds.test_labels()])
        weak = _StubPipeline(probs=[0.6 if v else 0.45 for v in ds.test_labels()])
        table = evaluation.benchmark([("strong", strong), ("weak", weak)], ds, None, None)
        md = table.render_markdown()
        assert "**1.0000**" in md

    def test_support_reported(self):
        ds = self._dataset()
        table = evaluation.benchmark([], ds, None, None)
        assert f"support: {len(ds.test_idx)}" in table.render_text()
