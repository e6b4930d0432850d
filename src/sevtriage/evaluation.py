"""Imbalance-aware evaluation: confusion counts, macro metrics, ROC/AUC.

Macro averages are unweighted over the two classes so the minority class
counts as much as the majority; every zero-denominator metric is defined
as 0.
"""

from __future__ import annotations

import copy
import os
import traceback
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .workers import map_jobs

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
    roc: RocCurve | None = None  # from the probabilities, when the report was given them

    @property
    def auc(self) -> float | None:
        return None if self.roc is None else self.roc.auc

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


def _check_binary(values, name: str) -> np.ndarray:
    """``values`` as int64, unless one is not exactly 0 or 1: then DomainError naming it."""
    v = np.asarray(values)
    bad = (v != 0) & (v != 1)
    if bad.any():
        raise DomainError(f"{name} must be binary, found {v[bad].tolist()[0]!r}")
    return v.astype(np.int64)


def confusion(y_true: Sequence[int], y_pred: Sequence[int]) -> ConfusionMatrix:
    """Count tn/fp/fn/tp for binary labels."""
    yt = _check_binary(y_true, "y_true")
    yp = _check_binary(y_pred, "y_pred")
    if len(yt) != len(yp):
        raise ShapeError(f"length mismatch: {len(yt)} vs {len(yp)}")
    return ConfusionMatrix(*np.bincount(2 * yt + yp, minlength=4).tolist())


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
    roc = None
    if probs is not None:
        if len(probs) != cm.total:
            raise ShapeError(f"{len(probs)} probabilities for {cm.total} samples")
        roc = roc_auc(y_true, probs)
    return EvalReport(
        accuracy=_safe_div(cm.tp + cm.tn, cm.total),
        per_class=per_class,
        precision_macro=(per_class[0].precision + per_class[1].precision) / 2,
        recall_macro=(per_class[0].recall + per_class[1].recall) / 2,
        f1_macro=(per_class[0].f1 + per_class[1].f1) / 2,
        confusion=cm,
        roc=roc,
    )


def roc_auc(y_true, scores) -> RocCurve:
    """ROC by descending-score threshold sweep with ties grouped.

    The trapezoidal area equals the tie-aware probability that a random
    positive outranks a random negative (ties count half).
    """
    yt = _check_binary(y_true, "y_true")
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
    group_ends = np.append(s_sorted[1:] != s_sorted[:-1], True)  # the last row of each tie group
    tp = np.cumsum(yt[order])
    fp = np.arange(1, len(tp) + 1) - tp
    fpr = np.append(0.0, fp[group_ends] / n_neg)
    tpr = np.append(0.0, tp[group_ends] / n_pos)
    # np.cumsum adds the terms left to right; np.sum's pairwise order can move the last bit
    area = np.cumsum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0)[-1]
    return RocCurve(tuple(fpr.tolist()), tuple(tpr.tolist()), float(area))


# ---------------------------------------------------------------------------
# Benchmark tables


@dataclass(frozen=True)
class BenchmarkRow:
    name: str
    report: EvalReport | None
    status: str = "ok"  # an unscored row's reason: its error, or why it was not run
    head: object | None = field(default=None, repr=False, compare=False)  # the fitted pipeline; None for an error row

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

    def _cells(self, plain: str, best: str, missing: str):
        """Each row with its metric cells (None without a report): ``missing`` for
        no value, else the value formatted by ``best`` if it is its column's best, else by ``plain``."""
        values = [[r.metric(c) for c in BENCHMARK_COLUMNS[1:]] for r in self.rows]
        bests = [max((v for v in column if v is not None), default=None) for column in zip(*values)]
        for r, row_values in zip(self.rows, values):
            cells = [missing if v is None else (best if v == b else plain).format(v) for v, b in zip(row_values, bests)]
            yield r, None if r.report is None else cells

    def render_text(self) -> str:
        widths = [28, 10, 16, 13, 10, 9]
        header = "".join(f"{c:<{w}}" for c, w in zip(BENCHMARK_COLUMNS, widths))
        lines = [f"benchmark (test support: {self.support})", header, "-" * len(header)]
        for r, cells in self._cells("{:.4f} ", "{:.4f}*", "-"):
            metrics = r.status if cells is None else "".join(c.ljust(w) for c, w in zip(cells, widths[1:]))
            lines.append(f"{r.name:<28}{metrics}")
        return "\n".join(lines) + "\n"

    def render_csv(self) -> str:
        """One unquoted line per row, the status cell last.

        A status's commas become semicolons and its line breaks spaces, so
        it is one cell both to ``csv.reader`` and to a reader that splits
        each line on its first six commas.
        """
        lines = [",".join(BENCHMARK_COLUMNS + ("status",))]
        for r, cells in self._cells("{:.6f}", "{:.6f}", ""):
            status = " ".join(r.status.replace(",", ";").splitlines())
            lines.append(",".join([r.name, *(cells or [""] * 5), status]))
        return "\n".join(lines) + "\n"

    def render_markdown(self) -> str:
        lines = ["| " + " | ".join(BENCHMARK_COLUMNS) + " |", "|" + "---|" * len(BENCHMARK_COLUMNS)]
        for r, cells in self._cells("{:.4f}", "**{:.4f}**", "-"):
            lines.append("| " + " | ".join([r.name, *(cells or [r.status] * 5)]) + " |")
        return "\n".join(lines) + "\n"


def benchmark(pipelines: Sequence[tuple[str, object]], dataset, train_X, test_X) -> BenchmarkTable:
    """Train each named pipeline on the shared split and score the test fold.

    ``train_X`` and ``test_X`` are the split's featurized training and test
    rows, made once by the caller and shared by every pipeline, which
    exposes ``fit(X, records, labels)`` and ``predict_proba(X, records)``.
    Each pipeline is one ``workers.map_jobs`` job that fits a copy, so the
    pipelines passed in stay unfitted. Each scored row keeps the fitted
    copy as its ``head``, and its report keeps the test fold's ROC curve,
    so callers never predict or sweep thresholds twice. Per-pipeline
    failures become error rows, with no report and no head, whose status
    names the exception type and the innermost frame.
    """
    train_records = dataset.train_records()
    train_labels = dataset.train_labels()
    test_records = dataset.test_records()
    test_labels = dataset.test_labels()

    def fit_and_score(named) -> BenchmarkRow:
        name, pipe = named
        try:
            head = copy.deepcopy(pipe)
            head.fit(train_X, train_records, train_labels)
            probs = np.asarray(head.predict_proba(test_X, test_records), dtype=np.float64)
            return BenchmarkRow(name, report(test_labels, predicted_labels(probs), probs), head=head)
        except Exception as exc:  # noqa: BLE001 - error rows are part of the contract
            where = traceback.extract_tb(exc.__traceback__)[-1]  # the frame that raised
            error = f"error: {type(exc).__name__}: {exc} ({os.path.basename(where.filename)}:{where.lineno} in {where.name})"
            return BenchmarkRow(name, None, status=error)

    return BenchmarkTable(tuple(map_jobs(fit_and_score, pipelines)), support=len(test_records))
