"""Multinomial naive Bayes with additive smoothing.

Class log-priors come from label frequencies; per-term log-likelihoods are
log((count(t,c) + alpha) / (total(c) + alpha * V)). Scores are posterior
probabilities of the positive class, normalized over both classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateLabels, InvalidHyperparameter, NegativeFeature
from ..features import SparseBatch
from .base import LabeledDataset, ModelArtifact, ModelKind


@dataclass
class NBParams:
    log_prior: np.ndarray   # shape (2,)
    log_lik: np.ndarray     # shape (2, V)


def train_nb(data: LabeledDataset, alpha: float = 1.0, seed: int = 0) -> ModelArtifact:
    if alpha < 0:
        raise InvalidHyperparameter(f"alpha must be >= 0, got {alpha}")
    indices, values, row_ids = data.batch.indices, data.batch.values, data.batch.row_ids
    if values.size and values.min() < 0:
        raise NegativeFeature("multinomial NB requires nonnegative features")
    n_neg, n_pos = data.class_counts()
    if n_neg == 0 or n_pos == 0:
        raise DegenerateLabels("training data must contain both classes")

    n = len(data)
    log_prior = np.log(np.array([n_neg, n_pos], dtype=np.float64) / n)
    row_is_pos = data.labels.astype(bool)
    log_lik = np.empty((2, data.dim), dtype=np.float64)
    with np.errstate(divide="ignore"):
        for c, mask in enumerate((~row_is_pos, row_is_pos)):
            entry_mask = mask[row_ids]
            counts = np.bincount(indices[entry_mask], weights=values[entry_mask],
                                 minlength=data.dim)
            log_lik[c] = np.log(counts + alpha) - np.log(counts.sum() + alpha * data.dim)

    meta = {"alpha": alpha, "seed": seed, "n_train": n}
    return ModelArtifact(kind=ModelKind.NB, dim=data.dim,
                         params=NBParams(log_prior=log_prior, log_lik=log_lik),
                         training_meta=meta)


def score_batch(params: NBParams, batch: SparseBatch) -> np.ndarray:
    """Posterior P(positive | row) per row; both classes' posteriors sum to 1."""
    joint = np.stack([params.log_prior[c] + batch.matvec(params.log_lik[c]) for c in (0, 1)],
                     axis=1)
    # alpha=0 with unseen terms in both classes: fall back to priors
    joint[~np.isfinite(joint).any(axis=1)] = params.log_prior
    expd = np.exp(joint - joint.max(axis=1, keepdims=True))
    return expd[:, 1] / (expd[:, 0] + expd[:, 1])
