"""Dataset container, model artifact, and prediction dispatch.

Feature rows stay sparse; trainers see a cached CSR view (indptr/indices/
values) plus a CSC view for the tree learners. Weight vectors are dense.
The positive class is 1 (= suicide).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Sequence

import numpy as np

from ..errors import DimensionMismatch
from ..features import SparseVector


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
    """Rows of (SparseVector, {0,1} label) sharing one dimension."""

    def __init__(self, vectors: Sequence[SparseVector], labels: Sequence[int]):
        if len(vectors) != len(labels):
            raise ValueError("vectors and labels differ in length")
        if not vectors:
            raise ValueError("dataset must be non-empty")
        dim = vectors[0].dim
        for v in vectors:
            if v.dim != dim:
                raise DimensionMismatch(f"mixed dims {v.dim} != {dim}")
        labels = np.asarray(labels, dtype=np.int8)
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        self.vectors = list(vectors)
        self.labels = labels
        self.dim = dim
        self._csr: tuple | None = None
        self._csc: tuple | None = None

    def __len__(self) -> int:
        return len(self.vectors)

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(indptr, indices, values, row_ids) — row_ids repeats the row
        number once per stored entry, which keeps matvecs bincount-friendly
        even when rows are empty."""
        if self._csr is None:
            nnz = [v.nnz for v in self.vectors]
            indptr = np.zeros(len(self.vectors) + 1, dtype=np.int64)
            np.cumsum(nnz, out=indptr[1:])
            indices = np.concatenate([v.indices for v in self.vectors]) if indptr[-1] else np.empty(0, np.int64)
            values = np.concatenate([v.values for v in self.vectors]) if indptr[-1] else np.empty(0, np.float64)
            row_ids = np.repeat(np.arange(len(self.vectors), dtype=np.int64), nnz)
            self._csr = (indptr, indices, values, row_ids)
        return self._csr

    def csc(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(col_ptr, row_idx, col_values) over nonzero entries."""
        if self._csc is None:
            _, indices, values, row_ids = self.csr()
            order = np.argsort(indices, kind="stable")
            cols = indices[order]
            col_ptr = np.zeros(self.dim + 1, dtype=np.int64)
            np.cumsum(np.bincount(cols, minlength=self.dim), out=col_ptr[1:])
            self._csc = (col_ptr, row_ids[order], values[order])
        return self._csc

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """X @ w for a dense weight vector."""
        indptr, indices, values, row_ids = self.csr()
        return np.bincount(row_ids, weights=values * w[indices], minlength=len(self.vectors))

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """X.T @ r for a dense per-row vector."""
        indptr, indices, values, row_ids = self.csr()
        return np.bincount(indices, weights=values * r[row_ids], minlength=self.dim)

    def subset(self, rows: Sequence[int]) -> "LabeledDataset":
        rows = list(rows)
        return LabeledDataset([self.vectors[i] for i in rows], self.labels[rows])

    def class_counts(self) -> tuple[int, int]:
        pos = int(self.labels.sum())
        return len(self.vectors) - pos, pos


def _score(model: ModelArtifact, vec: SparseVector) -> float:
    from . import linear, mlp, naive_bayes, tree

    if model.kind is ModelKind.NB:
        return naive_bayes.score(model.params, vec)
    if model.kind in (ModelKind.LR, ModelKind.SVC):
        return linear.score(model.params, vec)
    if model.kind is ModelKind.DT:
        return tree.score_tree(model.params, vec)
    if model.kind is ModelKind.RF:
        return tree.score_forest(model.params, vec)
    if model.kind is ModelKind.MLP:
        return mlp.score(model.params, vec)
    raise ValueError(f"unknown model kind {model.kind!r}")


def predict(model: ModelArtifact, vec: SparseVector) -> Prediction:
    """Label + ranking score for one vector.

    Probabilistic kinds score in [0,1] with a 0.5 threshold; the linear
    SVC scores a signed margin with a 0 threshold.
    """
    if vec.dim != model.dim:
        raise DimensionMismatch(f"vector dim {vec.dim} != model dim {model.dim}")
    score = _score(model, vec)
    if model.kind is ModelKind.SVC:
        label = 1 if score >= 0.0 else 0
    else:
        label = 1 if score >= 0.5 else 0
    return Prediction(label=label, score=float(score))


def predict_batch(model: ModelArtifact, data) -> list[Prediction]:
    """Elementwise predictions in input order. ``data`` is a
    LabeledDataset or a sequence of vectors."""
    vectors = data.vectors if isinstance(data, LabeledDataset) else data
    return [predict(model, v) for v in vectors]
