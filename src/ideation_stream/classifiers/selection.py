"""k-fold cross-validation and exhaustive grid search.

Folds are contiguous slices of a seeded shuffle with sizes differing by at
most one. Per-run trainer seeds derive from (base seed, run index) so
results do not depend on execution order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..errors import TooFewRows
from .base import LabeledDataset, ModelKind, predict_batch
from .linear import train_linear_svc, train_lr
from .mlp import train_mlp
from .naive_bayes import train_nb
from .tree import train_dt, train_rf

TRAINERS = {
    ModelKind.NB: train_nb,
    ModelKind.LR: train_lr,
    ModelKind.SVC: train_linear_svc,
    ModelKind.DT: train_dt,
    ModelKind.RF: train_rf,
    ModelKind.MLP: train_mlp,
}

DEFAULT_GRIDS: dict[ModelKind, dict[str, list]] = {
    ModelKind.LR: {"l2": [0.0, 0.01, 0.1]},
    ModelKind.SVC: {"c": [0.1, 1.0, 10.0]},
    ModelKind.DT: {"max_depth": [8, 16, 24]},
    ModelKind.RF: {"num_trees": [50, 100]},
    ModelKind.MLP: {"hidden_layers": [[32], [64]]},
    ModelKind.NB: {"alpha": [0.5, 1.0]},
}


@dataclass
class FoldResult:
    fold: int
    n_validate: int
    accuracy: float
    precision: float = 0.0
    recall: float = 0.0
    f1: float = 0.0


@dataclass
class CVReport:
    kind: ModelKind
    params: dict
    folds: list[FoldResult] = field(default_factory=list)

    @property
    def mean_accuracy(self) -> float:
        return float(np.mean([f.accuracy for f in self.folds]))

    @property
    def std_accuracy(self) -> float:
        return float(np.std([f.accuracy for f in self.folds]))

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "params": self.params,
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "folds": [{"fold": f.fold, "n_validate": f.n_validate,
                       "accuracy": f.accuracy, "precision": f.precision,
                       "recall": f.recall, "f1": f.f1} for f in self.folds],
        }


def derive_seed(base_seed: int, run_index: int) -> int:
    return int(np.random.SeedSequence((base_seed, run_index)).generate_state(1)[0])


def fold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """k contiguous folds of a seeded shuffle, sizes differing by <= 1."""
    if k < 2:
        raise TooFewRows(f"need k >= 2 folds, got {k}")
    if k > n:
        raise TooFewRows(f"cannot split {n} rows into {k} folds")
    return np.array_split(np.random.default_rng(seed).permutation(n), k)


def cross_validate(kind: ModelKind | str, params: dict, data: LabeledDataset,
                   k: int = 10, seed: int = 0, fold_seed: int | None = None) -> CVReport:
    """``fold_seed`` pins the shuffle independently of the trainer seeds,
    so a grid search can score every candidate on identical folds."""
    kind = ModelKind(kind)
    trainer = TRAINERS[kind]
    folds = fold_indices(len(data), k, seed if fold_seed is None else fold_seed)
    report = CVReport(kind=kind, params=dict(params))
    for i, fold in enumerate(folds):
        # ascending, the order the trainers' arithmetic was fixed in
        train_rows = np.flatnonzero(~np.isin(np.arange(len(data)), fold))
        model = trainer(data.subset(train_rows), seed=derive_seed(seed, i), **params)
        validation = data.subset(fold)
        preds = predict_batch(model, validation.batch)
        from ..evaluation import confusion, metrics
        scored = metrics(confusion([p.label for p in preds],
                                   [int(g) for g in validation.labels]))
        report.folds.append(FoldResult(fold=i, n_validate=len(fold),
                                       accuracy=scored.accuracy,
                                       precision=scored.precision,
                                       recall=scored.recall, f1=scored.f1))
    return report


def grid_search(kind: ModelKind | str, grid: dict[str, list], data: LabeledDataset,
                k: int = 10, seed: int = 0) -> tuple[dict, list[CVReport]]:
    """Exhaustive Cartesian product over the grid; the winner has the
    highest mean CV accuracy, ties going to the earliest point (parameter
    names sorted, values in listed order)."""
    if not grid:
        raise ValueError("grid must be non-empty")
    kind = ModelKind(kind)
    names = sorted(grid)
    reports: list[CVReport] = []
    best: dict | None = None
    best_acc = -1.0
    for run_index, combo in enumerate(itertools.product(*(grid[n] for n in names))):
        params = dict(zip(names, combo))
        report = cross_validate(kind, params, data, k=k,
                                seed=derive_seed(seed, run_index), fold_seed=seed)
        reports.append(report)
        if report.mean_accuracy > best_acc:
            best_acc = report.mean_accuracy
            best = params
    assert best is not None
    return best, reports
