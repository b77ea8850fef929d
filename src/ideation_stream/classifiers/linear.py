"""Linear models: logistic regression and a linear SVC.

LR minimizes mean logistic loss + 0.5*l2*||w||^2 by full-batch gradient
descent with Armijo backtracking; the analytic gradient is exposed for
finite-difference checks. The SVC minimizes 0.5*lam*||w||^2 + mean hinge
(lam = 1/(c*n)) by projected subgradient steps with decaying rate and
reports the average of the second half of the iterates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidHyperparameter
from ..features import SparseBatch
from .base import LabeledDataset, ModelArtifact, ModelKind


@dataclass
class LinearParams:
    weights: np.ndarray
    bias: float


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss_grad(wb: np.ndarray, data: LabeledDataset, l2: float) -> tuple[float, np.ndarray]:
    """Loss and gradient at wb = [w..., b]. Bias is unpenalized."""
    w, b = wb[:-1], wb[-1]
    y = data.labels.astype(np.float64)
    z = data.batch.matvec(w) + b
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + 0.5 * l2 * float(w @ w)
    g_z = (_sigmoid(z) - y) / len(data)
    grad = np.empty_like(wb)
    grad[:-1] = data.batch.rmatvec(g_z) + l2 * w
    grad[-1] = g_z.sum()
    return loss, grad


def train_lr(data: LabeledDataset, l2: float = 0.0, max_iter: int = 200,
             tol: float = 1e-6, seed: int = 0) -> ModelArtifact:
    if l2 < 0:
        raise InvalidHyperparameter(f"l2 must be >= 0, got {l2}")
    wb = np.zeros(data.dim + 1, dtype=np.float64)
    loss, grad = logistic_loss_grad(wb, data, l2)
    step = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        gnorm2 = float(grad @ grad)
        if np.sqrt(gnorm2) < tol:
            converged = True
            break
        step = min(step * 2.0, 1e8)
        for _ in range(60):
            trial = wb - step * grad
            trial_loss, trial_grad = logistic_loss_grad(trial, data, l2)
            if trial_loss <= loss - 1e-4 * step * gnorm2:
                break
            step *= 0.5
        wb, loss, grad = trial, trial_loss, trial_grad

    meta = {"l2": l2, "max_iter": max_iter, "tol": tol, "seed": seed,
            "iterations": iterations, "converged": converged,
            "final_loss": loss, "final_grad_norm": float(np.linalg.norm(grad))}
    params = LinearParams(weights=wb[:-1].copy(), bias=float(wb[-1]))
    return ModelArtifact(kind=ModelKind.LR, dim=data.dim, params=params, training_meta=meta)


def svc_objective(w: np.ndarray, b: float, data: LabeledDataset, lam: float) -> float:
    y_pm = data.labels.astype(np.float64) * 2.0 - 1.0
    margins = y_pm * (data.batch.matvec(w) + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * lam * float(w @ w) + float(hinge.mean())


def train_linear_svc(data: LabeledDataset, c: float = 1.0, max_iter: int = 1000,
                     tol: float = 1e-4, seed: int = 0) -> ModelArtifact:
    if c <= 0:
        raise InvalidHyperparameter(f"penalty c must be > 0, got {c}")
    n = len(data)
    lam = 1.0 / (c * n)
    radius = 1.0 / np.sqrt(lam)
    y_pm = data.labels.astype(np.float64) * 2.0 - 1.0

    w = np.zeros(data.dim, dtype=np.float64)
    b = 0.0
    avg_w = np.zeros_like(w)
    avg_b = 0.0
    checkpoint_every = max(1, max_iter // 10)
    objective_trace: list[float] = []
    prev_obj = None
    iterations = 0

    for t in range(1, max_iter + 1):
        iterations = t
        margins = y_pm * (data.batch.matvec(w) + b)
        viol = (margins < 1.0).astype(np.float64)
        eta = 1.0 / (lam * t)
        # w <- (1 - eta*lam) w + eta * mean over violators of y x
        w *= 1.0 - eta * lam
        w += eta * data.batch.rmatvec(y_pm * viol) / n
        norm = np.linalg.norm(w)
        if norm > radius:
            w *= radius / norm
        b += (1.0 / t) * float((y_pm * viol).mean())

        # Polyak average over every iterate: smoother objective, and the
        # checkpoint trace on it decreases monotonically in practice.
        avg_w += (w - avg_w) / t
        avg_b += (b - avg_b) / t
        if t % checkpoint_every == 0:
            obj = svc_objective(avg_w, avg_b, data, lam)
            objective_trace.append(obj)
            if prev_obj is not None and abs(prev_obj - obj) < tol * max(1.0, abs(prev_obj)):
                break
            prev_obj = obj
    meta = {"c": c, "max_iter": max_iter, "tol": tol, "seed": seed,
            "iterations": iterations, "objective_trace": objective_trace,
            "final_objective": svc_objective(avg_w, avg_b, data, lam)}
    params = LinearParams(weights=avg_w, bias=float(avg_b))
    return ModelArtifact(kind=ModelKind.SVC, dim=data.dim, params=params, training_meta=meta)


def margin_batch(params: LinearParams, batch: SparseBatch) -> np.ndarray:
    """The signed margin per row: the SVC's score."""
    return batch.matvec(params.weights) + params.bias


def score_batch(params: LinearParams, batch: SparseBatch) -> np.ndarray:
    """P(positive) per row: LR's score."""
    return _sigmoid(margin_batch(params, batch))
