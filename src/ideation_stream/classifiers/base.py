"""Dataset container, model artifact, and prediction dispatch.

Feature rows are one CSR ``SparseBatch``, which trainers and scorers read
directly. Weight vectors are dense.
Every kind scores a whole batch through its module's ``score_batch``, the
SVC through ``linear.margin_batch``. The positive class is 1 (= suicide).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

import numpy as np

from ..errors import DimensionMismatch
from ..features import SparseBatch


class ModelKind(str, Enum):
    NB = "nb"
    LR = "lr"
    SVC = "svc"
    DT = "dt"
    RF = "rf"
    MLP = "mlp"


@dataclass
class Prediction:
    label: int
    score: float


@dataclass
class ModelArtifact:
    """Trained parameters for one classifier kind.

    ``params`` is kind-specific (see the trainer modules).
    """

    kind: ModelKind
    dim: int
    params: Any
    training_meta: dict = field(default_factory=dict)


class LabeledDataset:
    """A ``SparseBatch`` of rows with one {0,1} label per row."""

    def __init__(self, batch: SparseBatch, labels: Sequence[int] | np.ndarray):
        labels = np.asarray(labels, dtype=np.int8)
        if labels.shape != (batch.n_rows,):
            raise ValueError("rows and labels differ in length")
        if not batch.n_rows:
            raise ValueError("dataset must be non-empty")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        self.batch = batch
        self.labels = labels
        self.dim = batch.dim

    def __len__(self) -> int:
        return self.batch.n_rows

    def subset(self, rows: Sequence[int] | np.ndarray) -> "LabeledDataset":
        return LabeledDataset(self.batch.take(rows), self.labels[rows])

    def class_counts(self) -> tuple[int, int]:
        pos = int(self.labels.sum())
        return len(self) - pos, pos


def predict(model: ModelArtifact, batch: SparseBatch) -> Prediction:
    """The prediction for a one-row batch."""
    labels, scores = predict_batch(model, batch)
    return Prediction(label=int(labels[0]), score=float(scores[0]))


def predict_batch(model: ModelArtifact, batch: SparseBatch) -> tuple[np.ndarray, np.ndarray]:
    """Labels (int64) and ranking scores (float64), one per row in row order.

    Probabilistic kinds score in [0,1] with a 0.5 threshold; the linear
    SVC scores a signed margin with a 0 threshold.
    """
    from . import linear, mlp, naive_bayes, tree

    if batch.dim != model.dim:
        raise DimensionMismatch(f"batch dim {batch.dim} != model dim {model.dim}")
    scorer = {ModelKind.NB: naive_bayes.score_batch, ModelKind.LR: linear.score_batch,
              ModelKind.SVC: linear.margin_batch, ModelKind.DT: tree.score_batch,
              ModelKind.RF: tree.score_batch, ModelKind.MLP: mlp.score_batch}[model.kind]
    scores = scorer(model.params, batch)
    threshold = 0.0 if model.kind is ModelKind.SVC else 0.5
    return (scores >= threshold).astype(np.int64), scores
