"""Confusion matrices, accuracy/precision/recall/F1, ROC-AUC and ROC
points from one grouped pass over the scores, and per-class term
frequency rankings.

Precision/recall/F1 come in two flavors: ``positive`` scores the positive
class alone (the textbook formulas); ``weighted`` averages per-class scores
by class support, which is the flavor used for the reported comparison
tables. Division-by-zero cases score 0 and are flagged.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyMatrix, LengthMismatch, SingleClass, UnknownClass
from .classifiers.base import LabeledDataset, ModelArtifact, predict_batch


class Averaging(str, Enum):
    POSITIVE = "positive"
    WEIGHTED = "weighted"


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self) -> None:
        if min(self.tp, self.fp, self.fn, self.tn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    averaging: Averaging
    auc: float | None = None
    zero_division_flags: tuple[str, ...] = ()
    scores: np.ndarray | None = field(default=None, repr=False, compare=False)

    def csv_row(self) -> str:
        """One row in reported-table column order: ACC, PRE, REC, F1, AUC."""
        auc = "" if self.auc is None else f"{self.auc:.6f}"
        return (f"{self.accuracy:.6f},{self.precision:.6f},{self.recall:.6f},"
                f"{self.f1:.6f},{auc}")

    def to_dict(self) -> dict:
        return {"accuracy": self.accuracy, "precision": self.precision,
                "recall": self.recall, "f1": self.f1, "auc": self.auc,
                "averaging": self.averaging.value,
                "zero_division_flags": list(self.zero_division_flags)}


def confusion(preds: Sequence[int], gold: Sequence[int]) -> ConfusionMatrix:
    if len(preds) != len(gold):
        raise LengthMismatch(f"{len(preds)} predictions vs {len(gold)} gold labels")
    if not len(preds):
        raise LengthMismatch("cannot build a confusion matrix from zero predictions")
    pairs = Counter(zip(preds, gold))  # (prediction, gold) -> rows, labels 0 or 1
    return ConfusionMatrix(tp=pairs[1, 1], fp=pairs[1, 0], fn=pairs[0, 1], tn=pairs[0, 0])


def _prf(tp: int, fp: int, fn: int, flags: list[str], tag: str) -> tuple[float, float, float]:
    if tp + fp == 0:
        precision = 0.0
        flags.append(f"precision{tag}")
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 0.0
        flags.append(f"recall{tag}")
    else:
        recall = tp / (tp + fn)
    if precision + recall == 0.0:
        f1 = 0.0
        flags.append(f"f1{tag}")
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return precision, recall, f1


def metrics(cm: ConfusionMatrix, averaging: Averaging | str = Averaging.WEIGHTED) -> MetricsReport:
    averaging = Averaging(averaging)
    if cm.total == 0:
        raise EmptyMatrix("confusion matrix has zero total")
    accuracy = (cm.tp + cm.tn) / cm.total
    flags: list[str] = []
    pos_p, pos_r, pos_f1 = _prf(cm.tp, cm.fp, cm.fn, flags, "")
    if averaging is Averaging.POSITIVE:
        report = MetricsReport(accuracy=accuracy, precision=pos_p, recall=pos_r,
                               f1=pos_f1, averaging=averaging)
    else:
        # negative class scored with roles swapped: tn acts as tp, etc.
        neg_p, neg_r, neg_f1 = _prf(cm.tn, cm.fn, cm.fp, flags, "_neg")
        support_pos = cm.tp + cm.fn
        support_neg = cm.tn + cm.fp
        total = support_pos + support_neg
        weigh = lambda pos, neg: (support_pos * pos + support_neg * neg) / total
        report = MetricsReport(accuracy=accuracy,
                               precision=weigh(pos_p, neg_p),
                               recall=weigh(pos_r, neg_r),
                               f1=weigh(pos_f1, neg_f1),
                               averaging=averaging)
    report.zero_division_flags = tuple(flags)
    return report


def _roc_groups(scores: Sequence[float],
                gold: Sequence[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows grouped by equal score, highest score first: each group's
    threshold (the score of its first row in stable descending order, so
    a group of 0.0 and -0.0 keeps the sign it meets first), and its
    positive and negative counts."""
    scores = np.asarray(scores, dtype=np.float64)
    gold = np.asarray(gold)
    if len(scores) != len(gold):
        raise LengthMismatch(f"{len(scores)} scores vs {len(gold)} gold labels")
    _, first, group = np.unique(-scores, return_index=True, return_inverse=True)
    pos = np.bincount(group[gold == 1], minlength=first.size)
    neg = np.bincount(group[gold == 0], minlength=first.size)
    if not pos.any() or not neg.any():
        raise SingleClass("ROC needs both classes in the gold labels")
    return scores[first], pos, neg


def roc_auc(scores: Sequence[float], gold: Sequence[int]) -> float:
    """Probability that a random positive outscores a random negative,
    ties counting half: (concordant + 0.5 * tied) / (P * N). Summed per
    score group in O(n log n); equals trapezoidal ROC integration."""
    _, pos, neg = _roc_groups(scores, gold)
    pos_above = np.cumsum(pos) - pos
    # twice the concordant-plus-half-tied count, exact in int64
    twice = int((neg * (2 * pos_above + pos)).sum())
    return twice / 2 / (int(pos.sum()) * int(neg.sum()))


def roc_points(scores: Sequence[float], gold: Sequence[int]) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) points of the ROC curve, threshold descending."""
    thresholds, pos, neg = _roc_groups(scores, gold)
    fpr = np.cumsum(neg) / neg.sum()
    tpr = np.cumsum(pos) / pos.sum()
    return [(0.0, 0.0, float("inf"))] + list(zip(fpr.tolist(), tpr.tolist(),
                                                 thresholds.tolist()))


def top_terms(labeled_tokens: Iterable[tuple[Sequence[str], object]], cls,
              k: int) -> list[tuple[str, int]]:
    """Top-k terms by raw frequency within one class, ties lexicographic."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts: Counter[str] = Counter()
    class_seen = False
    for tokens, label in labeled_tokens:
        if label != cls:
            continue
        class_seen = True
        counts.update(tokens)
    if not class_seen:
        raise UnknownClass(f"no documents labeled {cls!r}")
    ranked = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return ranked[:k]


def evaluate_model(model: ModelArtifact, test: LabeledDataset,
                   averaging: Averaging | str = Averaging.WEIGHTED
                   ) -> tuple[MetricsReport, ConfusionMatrix]:
    """predict_batch + confusion + metrics + roc_auc; the report keeps the row scores."""
    labels, scores = predict_batch(model, test.batch)
    cm = confusion(labels, test.labels)
    report = metrics(cm, averaging=averaging)
    report.scores = scores
    report.auc = roc_auc(scores, test.labels)
    return report, cm
