"""Metrics against exhaustive-definition oracles, plus benchmark rendering."""

import csv
import io
import itertools
from dataclasses import dataclass

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


# ---------------------------------------------------------------------------
# Byte oracles: the per-value loops and per-table renderers that the
# whole-array metrics and the shared cell pass replaced, kept to pin them.


def oracle_check_binary(values, name):
    out = []
    for v in values:
        iv = int(v)
        if iv not in (0, 1):
            raise DomainError(f"{name} must be binary, found {v!r}")
        out.append(iv)
    return out


def oracle_confusion(y_true, y_pred):
    yt = oracle_check_binary(y_true, "y_true")
    yp = oracle_check_binary(y_pred, "y_pred")
    if len(yt) != len(yp):
        raise ShapeError(f"length mismatch: {len(yt)} vs {len(yp)}")
    tn = fp = fn = tp = 0
    for t, p in zip(yt, yp):
        if t == 1:
            if p == 1:
                tp += 1
            else:
                fn += 1
        else:
            if p == 1:
                fp += 1
            else:
                tn += 1
    return evaluation.ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp)


def oracle_roc_auc(y_true, scores):
    yt = np.asarray(oracle_check_binary(y_true, "y_true"), dtype=np.int64)
    s = np.asarray(scores, dtype=np.float64)
    if len(s) != len(yt):
        raise ShapeError(f"length mismatch: {len(yt)} vs {len(s)}")
    if not np.all(np.isfinite(s)):
        raise DomainError("scores must be finite")
    n_pos = int(yt.sum())
    n_neg = len(yt) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DomainError("AUC is undefined with a single class")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = yt[order]
    fpr = [0.0]
    tpr = [0.0]
    tp = fp = 0
    i = 0
    while i < len(s_sorted):
        j = i
        while j < len(s_sorted) and s_sorted[j] == s_sorted[i]:
            tp += int(y_sorted[j])
            fp += 1 - int(y_sorted[j])
            j += 1
        fpr.append(fp / n_neg)
        tpr.append(tp / n_pos)
        i = j
    area = 0.0
    for k in range(1, len(fpr)):
        area += (fpr[k] - fpr[k - 1]) * (tpr[k] + tpr[k - 1]) / 2.0
    return evaluation.RocCurve(tuple(fpr), tuple(tpr), area)


@dataclass(frozen=True)
class OracleRow:
    """A benchmark row as the oracle renderers read it: an error or a note instead of one status."""

    name: str
    report: object
    error: str | None = None
    note: str = ""

    def metric(self, column):
        if self.report is None:
            return None
        if column == "roc_auc":
            return self.report.auc
        return getattr(self.report, column)


def oracle_best(rows, column):
    values = [r.metric(column) for r in rows if r.metric(column) is not None]
    return max(values) if values else None


def oracle_render_text(rows, support):
    widths = [28, 10, 16, 13, 10, 9]
    header = "".join(f"{c:<{w}}" for c, w in zip(evaluation.BENCHMARK_COLUMNS, widths))
    lines = [f"benchmark (test support: {support})", header, "-" * len(header)]
    for r in rows:
        if r.report is None:
            status = r.error or r.note or "n/a"
            lines.append(f"{r.name:<28}{status}")
            continue
        cells = [f"{r.name:<28}"]
        for col, w in zip(evaluation.BENCHMARK_COLUMNS[1:], widths[1:]):
            v = r.metric(col)
            flag = "*" if v is not None and v == oracle_best(rows, col) else " "
            cells.append(f"{v:.4f}{flag}".ljust(w) if v is not None else "-".ljust(w))
        lines.append("".join(cells))
    return "\n".join(lines) + "\n"


def oracle_render_csv(rows):
    lines = [",".join(evaluation.BENCHMARK_COLUMNS + ("status",))]
    for r in rows:
        if r.report is None:
            status = " ".join((r.error or r.note or "").replace(",", ";").splitlines())
            lines.append(",".join([r.name, "", "", "", "", "", status]))
        else:
            cells = [r.name]
            for col in evaluation.BENCHMARK_COLUMNS[1:]:
                v = r.metric(col)
                cells.append(f"{v:.6f}" if v is not None else "")
            cells.append("ok")
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def oracle_render_markdown(rows):
    lines = ["| " + " | ".join(evaluation.BENCHMARK_COLUMNS) + " |", "|" + "---|" * len(evaluation.BENCHMARK_COLUMNS)]
    for r in rows:
        if r.report is None:
            lines.append(f"| {r.name} | " + " | ".join([r.error or r.note or "-"] * 5) + " |")
            continue
        cells = [r.name]
        for col in evaluation.BENCHMARK_COLUMNS[1:]:
            v = r.metric(col)
            if v is None:
                cells.append("-")
            elif v == oracle_best(rows, col):
                cells.append(f"**{v:.4f}**")
            else:
                cells.append(f"{v:.4f}")
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


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


class TestLabelsMustBeExactlyBinary:
    @pytest.mark.parametrize("container", [list, np.asarray])
    @pytest.mark.parametrize("value", [0.7, 2])
    @pytest.mark.parametrize(
        "function,argument",
        [("confusion", "y_true"), ("confusion", "y_pred"), ("report", "y_true"), ("report", "y_pred"), ("roc_auc", "y_true")],
    )
    def test_a_label_other_than_0_or_1_raises_naming_its_plain_value(self, function, argument, value, container):
        good, bad = container([1, 1, 0]), container([value, 1, 0])
        if function == "roc_auc":
            args = (bad, [0.9, 0.4, 0.2])
        else:
            args = (bad, good) if argument == "y_true" else (good, bad)
        with pytest.raises(DomainError) as info:
            getattr(evaluation, function)(*args)
        assert str(info.value) == f"{argument} must be binary, found {value}"

    def test_bools_and_whole_floats_are_accepted(self):
        y_true, y_pred = [True, False, 1.0, 0.0, -0.0], [1.0, True, False, 0, False]
        assert evaluation.confusion(y_true, y_pred) == evaluation.ConfusionMatrix(tn=2, fp=1, fn=1, tp=1)
        assert evaluation.report(y_true, y_pred, [0.9, 0.4, 0.5, 0.1, 0.2]).auc == 1.0
        assert evaluation.roc_auc([True, False, 1.0], [0.9, 0.1, 0.5]).auc == 1.0


@st.composite
def labelled_scores(draw):
    """Both classes among 2-80 rows, with distinct, tied, signed-zero or all-equal scores."""
    labels = draw(st.permutations([1, 0] + draw(st.lists(st.integers(0, 1), max_size=78))))
    n = len(labels)
    kind = draw(st.sampled_from(["distinct", "ties", "equal"]))
    if kind == "equal":
        return labels, [draw(st.sampled_from([0.0, -0.0, 0.3]))] * n
    element = st.floats(-1.0, 1.0) if kind == "distinct" else st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0])
    return labels, draw(st.lists(element, min_size=n, max_size=n))


_LABEL = st.sampled_from([0, 1, True, False, 0.0, 1.0, -0.0])
_METRIC = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 2 / 3, 1.0]), st.floats(0.0, 1.0))


@st.composite
def benchmark_rows(draw):
    """The same random table as benchmark rows and as oracle rows."""
    rows, oracle_rows = [], []
    for kind in draw(st.lists(st.sampled_from(["scored", "error", "out of scope"]), max_size=6)):
        name = draw(st.text(alphabet="ab_", min_size=1, max_size=30))
        if kind == "scored":
            auc = draw(st.none() | _METRIC)
            rep = evaluation.EvalReport(
                accuracy=draw(_METRIC),
                per_class={},
                precision_macro=draw(_METRIC),
                recall_macro=draw(_METRIC),
                f1_macro=draw(_METRIC),
                confusion=evaluation.ConfusionMatrix(0, 0, 0, 0),
                roc=None if auc is None else evaluation.RocCurve((0.0, 1.0), (0.0, 1.0), auc),
            )
            rows.append(evaluation.BenchmarkRow(name, rep))
            oracle_rows.append(OracleRow(name, rep))
        elif kind == "error":
            error = "error: " + draw(st.text(alphabet='ab ,;"|()\n\r', max_size=20))
            rows.append(evaluation.BenchmarkRow(name, None, status=error))
            oracle_rows.append(OracleRow(name, None, error=error))
        else:
            rows.append(evaluation.BenchmarkRow(name, None, status="out of scope"))
            oracle_rows.append(OracleRow(name, None, note="out of scope"))
    return tuple(rows), oracle_rows


class TestMatchesTheLoopOracles:
    @given(labelled_scores())
    @settings(max_examples=300, deadline=None)
    def test_roc_auc(self, data):
        labels, scores = data
        got, want = evaluation.roc_auc(labels, scores), oracle_roc_auc(labels, scores)
        assert got.fpr == want.fpr
        assert got.tpr == want.tpr
        assert got.auc == want.auc
        assert repr(got) == repr(want)  # the same Python floats, signs of zero included

    @given(st.lists(st.tuples(_LABEL, _LABEL), max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_confusion(self, pairs):
        y_true, y_pred = [t for t, _ in pairs], [p for _, p in pairs]
        got = evaluation.confusion(y_true, y_pred)
        assert got == oracle_confusion(y_true, y_pred)
        assert repr(got) == repr(oracle_confusion(y_true, y_pred))

    @given(benchmark_rows(), st.integers(0, 500))
    @settings(max_examples=200, deadline=None)
    def test_renderers(self, tables, support):
        rows, oracle_rows = tables
        table = evaluation.BenchmarkTable(rows, support)
        assert table.render_text() == oracle_render_text(oracle_rows, support)
        assert table.render_csv() == oracle_render_csv(oracle_rows)
        assert table.render_markdown() == oracle_render_markdown(oracle_rows)

    def test_report_keeps_its_roc_curve(self):
        y, probs = [1, 0, 1, 0], [0.9, 0.8, 0.7, 0.2]
        rep = evaluation.report(y, evaluation.predicted_labels(probs), probs)
        assert rep.roc == oracle_roc_auc(y, probs)
        assert rep.auc == rep.roc.auc
        assert evaluation.report(y, y).roc is None
        assert evaluation.report(y, y).auc is None


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
        assert table.rows[0].status == "ok"
        assert table.rows[0].report.roc == evaluation.roc_auc(ds.test_labels(), good.predict_proba(None, ds.test_records()))
        csv_head = table.render_csv().splitlines()[0]
        assert csv_head.startswith("model,accuracy,precision_macro,recall_macro,f1_macro,roc_auc")

    def test_error_rows_do_not_abort(self):
        ds = self._dataset()
        table = evaluation.benchmark(
            [("bad", _StubPipeline(fail=True)), ("good", _StubPipeline(probs=[0.9] * 5))], ds, None, None
        )
        assert table.rows[0].status != "ok"
        assert table.rows[1].report is not None
        assert "error: RuntimeError: training exploded (test_evaluation.py:" in table.render_text()
        assert table.rows[0].status.endswith(" in fit)")

    def test_csv_error_row_with_commas_keeps_the_header_width(self):
        error = 'error: ValueError: shapes (3,4) and (5,) not aligned, see "x"\nsecond line (x.py:1 in f)'
        text = evaluation.BenchmarkTable((evaluation.BenchmarkRow("m", None, status=error),), support=1).render_csv()
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
