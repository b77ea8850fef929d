"""Confusion matrices, accuracy/precision/recall/F1, rank-statistic
ROC-AUC, and per-class term frequency rankings.

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
    scores: list[float] | None = field(default=None, repr=False, compare=False)

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
    if not preds:
        raise LengthMismatch("cannot build a confusion matrix from zero predictions")
    tp = fp = fn = tn = 0
    for p, g in zip(preds, gold):
        if p == 1 and g == 1:
            tp += 1
        elif p == 1 and g == 0:
            fp += 1
        elif p == 0 and g == 1:
            fn += 1
        else:
            tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


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


def roc_auc(scores: Sequence[float], gold: Sequence[int]) -> float:
    """Probability that a random positive outscores a random negative,
    ties counting half: (concordant + 0.5 * tied) / (P * N). Computed from
    average ranks in O(n log n); equals trapezoidal ROC integration."""
    scores = np.asarray(scores, dtype=np.float64)
    gold = np.asarray(gold)
    if len(scores) != len(gold):
        raise LengthMismatch(f"{len(scores)} scores vs {len(gold)} gold labels")
    n_pos = int((gold == 1).sum())
    n_neg = int((gold == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("ROC-AUC needs both classes in the gold labels")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores), dtype=np.float64)
    sorted_scores = scores[order]
    i = 0
    while i < len(sorted_scores):
        j = i
        while j + 1 < len(sorted_scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0  # average 1-based rank
        i = j + 1
    pos_rank_sum = float(ranks[gold == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def roc_points(scores: Sequence[float], gold: Sequence[int]) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) points of the ROC curve, threshold descending."""
    scores = np.asarray(scores, dtype=np.float64)
    gold = np.asarray(gold)
    n_pos = int((gold == 1).sum())
    n_neg = int((gold == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("ROC points need both classes in the gold labels")
    order = np.argsort(-scores, kind="mergesort")
    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    i = 0
    while i < len(order):
        threshold = scores[order[i]]
        while i < len(order) and scores[order[i]] == threshold:
            if gold[order[i]] == 1:
                tp += 1
            else:
                fp += 1
            i += 1
        points.append((fp / n_neg, tp / n_pos, float(threshold)))
    return points


def top_terms(labeled_tokens: Iterable[tuple[Sequence[str], object]], cls,
              k: int) -> list[tuple[str, int]]:
    """Top-k terms by raw frequency within one class, ties lexicographic."""
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
    predictions = predict_batch(model, test.batch)
    gold = [int(g) for g in test.labels]
    cm = confusion([p.label for p in predictions], gold)
    report = metrics(cm, averaging=averaging)
    report.scores = [p.score for p in predictions]
    report.auc = roc_auc(report.scores, gold)
    return report, cm
