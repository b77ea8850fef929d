"""Linear models: logistic regression and a linear SVC, trained by one minimizer.

LR minimizes mean logistic loss + 0.5*l2*||w||^2, the SVC LIBLINEAR's squared hinge
0.5*lam*||w||^2 + mean(max(0, 1 - y*m)^2), y in {-1, +1}, lam = 1/(c*n); the bias is
unpenalized. ``_minimize`` (L-BFGS, Armijo backtracking) stops when ||g|| <= tol, when a
step lowers the loss by at most tol*max(1, |f|), or after max_iter steps. ``_fit`` runs it
over the columns the training rows touch; any other has zero gradient from the zero start,
so its weight stays 0. ``_dot`` takes every inner product over weights without BLAS.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial

import numpy as np

from ..errors import InvalidHyperparameter
from ..features import SparseBatch
from .base import LabeledDataset, ModelArtifact, ModelKind


@dataclass
class LinearParams:
    weights: np.ndarray
    bias: float


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # exp(-|z|), which never overflows; minimum returns its first argument at NaN
    ez = np.exp(np.minimum(z, -z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sum(a * b))


def logistic_loss_grad(wb: np.ndarray, data: LabeledDataset, l2: float) -> tuple[float, np.ndarray]:
    """Loss and gradient at wb = [w..., b]. Bias is unpenalized."""
    w = wb[:-1]
    y = data.labels.astype(np.float64)
    z = data.batch.matvec(w) + wb[-1]
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * _dot(w, w)
    g_z = (_sigmoid(z) - y) / len(data)
    return loss, np.append(data.batch.rmatvec(g_z) + l2 * w, g_z.sum())


def squared_hinge_loss_grad(wb: np.ndarray, data: LabeledDataset, lam: float):
    """Loss and gradient at wb = [w..., b]. Bias is unpenalized."""
    w = wb[:-1]
    y = data.labels * 2.0 - 1.0
    slack = np.maximum(0.0, 1.0 - y * (data.batch.matvec(w) + wb[-1]))
    loss = float(np.mean(slack * slack)) + 0.5 * lam * _dot(w, w)
    g_m = -2.0 * y * slack / len(data)
    return loss, np.append(data.batch.rmatvec(g_m) + lam * w, g_m.sum())


def _minimize(loss_grad, x: np.ndarray, max_iter: int, tol: float):
    """(x, f, g, steps, converged) for a smooth ``loss_grad(x) -> (f, g)``; each
    step lowers f, and ``converged`` means a stopping test fired."""
    f, g = loss_grad(x)
    pairs: deque = deque(maxlen=10)  # (s, y, s.y): Spark ML's default numCorrections
    for iteration in range(1, max_iter + 1):
        gnorm = math.sqrt(_dot(g, g))
        if gnorm <= tol:
            return x, f, g, iteration - 1, True
        d, alphas = -g, []  # d = -H g by the two-loop recursion
        for s, y, sy in reversed(pairs):
            alphas.append(_dot(s, d) / sy)
            d = d - alphas[-1] * y
        d = d * (pairs[-1][2] / _dot(pairs[-1][1], pairs[-1][1]) if pairs else 1.0 / gnorm)
        for (s, y, sy), alpha in zip(pairs, reversed(alphas)):
            d = d + (alpha - _dot(y, d) / sy) * s
        slope = _dot(g, d)
        if not slope < 0:  # not a descent direction
            d, slope = -g, -gnorm * gnorm
        for t in (0.5 ** k for k in range(60)):
            x_new = x + t * d
            f_new, g_new = loss_grad(x_new)
            if f_new < f + 1e-4 * t * slope:  # strict, so a step that keeps f fails
                break
        else:
            return x, f, g, iteration - 1, True
        s, y = x_new - x, g_new - g
        if _dot(s, y) > 0:
            pairs.append((s, y, _dot(s, y)))
        if f - f_new <= tol * max(1.0, abs(f)):
            return x_new, f_new, g_new, iteration, True
        x, f, g = x_new, f_new, g_new
    return x, f, g, max_iter, False


def _fit(kind: ModelKind, data: LabeledDataset, loss_grad, max_iter: int, tol: float,
         **hyper) -> ModelArtifact:
    """Minimize ``loss_grad(wb, data)`` over the touched columns and the bias."""
    if max_iter < 1 or tol < 0:
        raise InvalidHyperparameter(f"need max_iter >= 1 and tol >= 0, got {max_iter}, {tol}")
    b = data.batch
    cols = np.unique(b.indices)
    touched = SparseBatch(cols.size, b.indptr, np.searchsorted(cols, b.indices), b.values)
    loss_grad = partial(loss_grad, data=LabeledDataset(touched, data.labels))
    wb, loss, grad, steps, converged = _minimize(loss_grad, np.zeros(cols.size + 1), max_iter, tol)
    weights = np.zeros(data.dim)
    weights[cols] = wb[:-1]
    meta = {**hyper, "max_iter": max_iter, "tol": tol, "iterations": steps, "converged": converged,
            "final_loss": loss, "final_grad_norm": math.sqrt(_dot(grad, grad))}
    return ModelArtifact(kind, data.dim, LinearParams(weights, float(wb[-1])), meta)


def train_lr(data: LabeledDataset, l2: float = 1e-4, max_iter: int = 200,
             tol: float = 1e-6, seed: int = 0) -> ModelArtifact:
    if l2 < 0:
        raise InvalidHyperparameter(f"l2 must be >= 0, got {l2}")
    return _fit(ModelKind.LR, data, partial(logistic_loss_grad, l2=l2), max_iter, tol,
                l2=l2, seed=seed)


def train_linear_svc(data: LabeledDataset, c: float = 1.0, max_iter: int = 1000,
                     tol: float = 1e-4, seed: int = 0) -> ModelArtifact:
    if c <= 0:
        raise InvalidHyperparameter(f"penalty c must be > 0, got {c}")
    return _fit(ModelKind.SVC, data, partial(squared_hinge_loss_grad, lam=1.0 / (c * len(data))),
                max_iter, tol, c=c, seed=seed)


def margin_batch(params: LinearParams, batch: SparseBatch) -> np.ndarray:
    """The signed margin per row: the SVC's score."""
    return batch.matvec(params.weights) + params.bias


def score_batch(params: LinearParams, batch: SparseBatch) -> np.ndarray:
    """P(positive) per row: LR's score."""
    return _sigmoid(margin_batch(params, batch))
