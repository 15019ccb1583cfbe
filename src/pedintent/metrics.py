"""Binary classification metrics: accuracy, AUC, F1, precision, recall.

The AUC is the rank-based Mann-Whitney estimator with ties credited 0.5.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.stats import rankdata

from .errors import ContractError


@dataclass(frozen=True)
class MetricsReport:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    auc: Optional[float]  # None when only one class is present
    f1: float
    precision: float
    recall: float
    threshold: float

    @property
    def n(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _validate(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.ndim != 1 or y.shape != s.shape:
        raise ContractError("scores and labels must be equal-length 1-D sequences")
    if s.size < 1:
        raise ContractError("metrics need at least one sample")
    if not np.isin(y, (0, 1)).all():
        raise ContractError("labels must be 0/1")
    return s, y.astype(np.int64)


def _rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney U via average ranks; ties get 0.5 credit."""
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    ranks = rankdata(scores, method="average")
    u = ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def evaluate(scores, labels, threshold: float = 0.5) -> MetricsReport:
    """Confusion counts at `score >= threshold` plus the derived metrics.

    Zero-denominator precision/recall/F1 report 0; AUC is None (undefined,
    not 0) when labels are single-class.
    """
    s, y = _validate(scores, labels)
    pred = (s >= threshold).astype(np.int64)
    tp = int(((pred == 1) & (y == 1)).sum())
    fp = int(((pred == 1) & (y == 0)).sum())
    tn = int(((pred == 0) & (y == 0)).sum())
    fn = int(((pred == 0) & (y == 1)).sum())
    accuracy = (tp + tn) / len(y)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    auc = _rank_auc(s, y) if 0 < y.sum() < len(y) else None
    return MetricsReport(tp, fp, tn, fn, accuracy, auc, f1, precision, recall, threshold)


def report_to_csv(report: MetricsReport) -> str:
    """Single-row CSV in the benchmark column order Acc, AUC, F1, Precision, Recall."""
    auc = "nan" if report.auc is None else repr(report.auc)
    buf = io.StringIO()
    buf.write("accuracy,auc,f1,precision,recall\n")
    buf.write(f"{report.accuracy!r},{auc},{report.f1!r},{report.precision!r},{report.recall!r}\n")
    return buf.getvalue()
