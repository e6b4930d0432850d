"""Imbalance-aware evaluation: confusion counts, macro metrics, ROC/AUC.

Macro averages are unweighted over the two classes so the minority class
counts as much as the majority; every zero-denominator metric is defined
as 0.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError

BENCHMARK_COLUMNS = ("model", "accuracy", "precision_macro", "recall_macro", "f1_macro", "roc_auc")

THRESHOLD = 0.5  # the decision threshold; a probability of exactly 0.5 is the positive class


def predicted_labels(probs) -> np.ndarray:
    """The class each probability decides: 1 iff it is at least ``THRESHOLD``."""
    return (np.asarray(probs) >= THRESHOLD).astype(np.int64)


@dataclass(frozen=True)
class ConfusionMatrix:
    tn: int
    fp: int
    fn: int
    tp: int

    @property
    def total(self) -> int:
        return self.tn + self.fp + self.fn + self.tp


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass(frozen=True)
class RocCurve:
    """Threshold-sweep ROC points from (0,0) to (1,1) plus trapezoidal AUC."""

    fpr: tuple[float, ...]
    tpr: tuple[float, ...]
    auc: float


@dataclass(frozen=True)
class EvalReport:
    accuracy: float
    per_class: dict[int, ClassMetrics]
    precision_macro: float
    recall_macro: float
    f1_macro: float
    confusion: ConfusionMatrix
    auc: float | None = None

    def render(self) -> str:
        """Aligned plain-text classification report."""
        lines = [f"{'class':>8} {'precision':>10} {'recall':>10} {'f1':>10} {'support':>8}"]
        for c in (0, 1):
            m = self.per_class[c]
            lines.append(f"{c:>8} {m.precision:>10.4f} {m.recall:>10.4f} {m.f1:>10.4f} {m.support:>8}")
        lines.append(
            f"{'macro':>8} {self.precision_macro:>10.4f} {self.recall_macro:>10.4f} "
            f"{self.f1_macro:>10.4f} {self.confusion.total:>8}"
        )
        lines.append(f"accuracy: {self.accuracy:.4f}")
        if self.auc is not None:
            lines.append(f"roc_auc:  {self.auc:.4f}")
        return "\n".join(lines)


def _check_binary(values, name: str) -> list[int]:
    out = []
    for v in values:
        iv = int(v)
        if iv not in (0, 1):
            raise DomainError(f"{name} must be binary, found {v!r}")
        out.append(iv)
    return out


def confusion(y_true: Sequence[int], y_pred: Sequence[int]) -> ConfusionMatrix:
    """Count tn/fp/fn/tp for binary labels."""
    yt = _check_binary(y_true, "y_true")
    yp = _check_binary(y_pred, "y_pred")
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
    return ConfusionMatrix(tn=tn, fp=fp, fn=fn, tp=tp)


def _safe_div(num: float, den: float) -> float:
    return num / den if den else 0.0


def report(y_true, y_pred, probs=None) -> EvalReport:
    """Per-class and macro precision/recall/F1, accuracy, optional AUC."""
    cm = confusion(y_true, y_pred)
    per_class = {}
    # class 1 counts, then class 0 by symmetry (swap roles of tn/tp, fn/fp)
    for c, (tp_c, fp_c, fn_c, support) in {
        1: (cm.tp, cm.fp, cm.fn, cm.tp + cm.fn),
        0: (cm.tn, cm.fn, cm.fp, cm.tn + cm.fp),
    }.items():
        precision = _safe_div(tp_c, tp_c + fp_c)
        recall = _safe_div(tp_c, tp_c + fn_c)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class[c] = ClassMetrics(precision, recall, f1, support)
    auc = None
    if probs is not None:
        if len(probs) != cm.total:
            raise ShapeError(f"{len(probs)} probabilities for {cm.total} samples")
        auc = roc_auc(y_true, probs).auc
    return EvalReport(
        accuracy=_safe_div(cm.tp + cm.tn, cm.total),
        per_class=per_class,
        precision_macro=(per_class[0].precision + per_class[1].precision) / 2,
        recall_macro=(per_class[0].recall + per_class[1].recall) / 2,
        f1_macro=(per_class[0].f1 + per_class[1].f1) / 2,
        confusion=cm,
        auc=auc,
    )


def roc_auc(y_true, scores) -> RocCurve:
    """ROC by descending-score threshold sweep with ties grouped.

    The trapezoidal area equals the tie-aware probability that a random
    positive outranks a random negative (ties count half).
    """
    yt = np.asarray(_check_binary(y_true, "y_true"), dtype=np.int64)
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
    return RocCurve(tuple(fpr), tuple(tpr), area)


# ---------------------------------------------------------------------------
# Benchmark tables


@dataclass(frozen=True)
class BenchmarkRow:
    name: str
    report: EvalReport | None
    error: str | None = None
    note: str = ""
    probabilities: np.ndarray | None = None  # test-fold P(class 1), kept for ROC files

    def metric(self, column: str) -> float | None:
        if self.report is None:
            return None
        if column == "roc_auc":
            return self.report.auc
        return getattr(self.report, column)


@dataclass(frozen=True)
class BenchmarkTable:
    rows: tuple[BenchmarkRow, ...]
    support: int

    def _best(self, column: str) -> float | None:
        values = [r.metric(column) for r in self.rows if r.metric(column) is not None]
        return max(values) if values else None

    def render_text(self) -> str:
        widths = [28, 10, 16, 13, 10, 9]
        header = "".join(f"{c:<{w}}" for c, w in zip(BENCHMARK_COLUMNS, widths))
        lines = [f"benchmark (test support: {self.support})", header, "-" * len(header)]
        for r in self.rows:
            if r.report is None:
                status = r.error or r.note or "n/a"
                lines.append(f"{r.name:<28}{status}")
                continue
            cells = [f"{r.name:<28}"]
            for col, w in zip(BENCHMARK_COLUMNS[1:], widths[1:]):
                v = r.metric(col)
                flag = "*" if v is not None and v == self._best(col) else " "
                cells.append(f"{v:.4f}{flag}".ljust(w) if v is not None else "-".ljust(w))
            lines.append("".join(cells))
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        """One unquoted line per row, the status cell last.

        An error's commas become semicolons and its line breaks spaces, so
        the status is one cell both to ``csv.reader`` and to a reader that
        splits each line on its first six commas.
        """
        lines = [",".join(BENCHMARK_COLUMNS + ("status",))]
        for r in self.rows:
            if r.report is None:
                status = " ".join((r.error or r.note or "").replace(",", ";").splitlines())
                lines.append(",".join([r.name, "", "", "", "", "", status]))
            else:
                cells = [r.name]
                for col in BENCHMARK_COLUMNS[1:]:
                    v = r.metric(col)
                    cells.append(f"{v:.6f}" if v is not None else "")
                cells.append("ok")
                lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def render_markdown(self) -> str:
        lines = ["| " + " | ".join(BENCHMARK_COLUMNS) + " |", "|" + "---|" * len(BENCHMARK_COLUMNS)]
        for r in self.rows:
            if r.report is None:
                lines.append(f"| {r.name} | " + " | ".join([r.error or r.note or "-"] * 5) + " |")
                continue
            cells = [r.name]
            for col in BENCHMARK_COLUMNS[1:]:
                v = r.metric(col)
                if v is None:
                    cells.append("-")
                elif v == self._best(col):
                    cells.append(f"**{v:.4f}**")
                else:
                    cells.append(f"{v:.4f}")
            lines.append("| " + " | ".join(cells) + " |")
        return "\n".join(lines) + "\n"


def benchmark(pipelines: Sequence[tuple[str, object]], dataset, train_X, test_X) -> BenchmarkTable:
    """Train each named pipeline on the shared split and score the test fold.

    ``train_X`` and ``test_X`` are the split's featurized training and test
    rows, made once by the caller and shared by every pipeline, which
    exposes ``fit(X, records, labels)`` and ``predict_proba(X, records)``.
    Each scored row keeps its test probabilities, so callers never predict
    twice. Per-pipeline failures become error rows, naming the exception
    type and the innermost frame, instead of aborting the table.
    """
    train_records = dataset.train_records()
    train_labels = dataset.train_labels()
    test_records = dataset.test_records()
    test_labels = dataset.test_labels()
    rows = []
    for name, pipe in pipelines:
        try:
            pipe.fit(train_X, train_records, train_labels)
            probs = np.asarray(pipe.predict_proba(test_X, test_records), dtype=np.float64)
            rows.append(BenchmarkRow(name, report(test_labels, predicted_labels(probs), probs), probabilities=probs))
        except Exception as exc:  # noqa: BLE001 - error rows are part of the contract
            where = traceback.extract_tb(exc.__traceback__)[-1]  # the frame that raised
            error = f"error: {type(exc).__name__}: {exc} ({os.path.basename(where.filename)}:{where.lineno} in {where.name})"
            rows.append(BenchmarkRow(name, None, error=error))
    return BenchmarkTable(tuple(rows), support=len(test_records))
