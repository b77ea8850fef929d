"""Six supervised classifiers over sparse vectors, plus model selection
by k-fold cross-validation over one point or a grid."""

from .base import (LabeledDataset, ModelArtifact, ModelKind, Prediction,
                   predict, predict_batch)
from .naive_bayes import train_nb
from .linear import train_lr, train_linear_svc
from .tree import train_dt, train_rf
from .mlp import train_mlp
from .selection import CVReport, DEFAULT_GRIDS, FoldResult, TRAINERS, cross_validate

__all__ = [
    "LabeledDataset", "ModelArtifact", "ModelKind", "Prediction",
    "predict", "predict_batch",
    "train_nb", "train_lr", "train_linear_svc", "train_dt", "train_rf", "train_mlp",
    "CVReport", "FoldResult", "cross_validate",
    "TRAINERS", "DEFAULT_GRIDS",
]
