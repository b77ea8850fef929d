"""Feedforward net: sigmoid hidden layers, 2-way softmax output,
cross-entropy loss, mini-batch Adam.

Weights start Glorot-uniform (+-sqrt(6/(fan_in+fan_out))) from the seed;
biases start at zero. Scoring runs ``forward``, which takes each row of a
CSR ``SparseBatch`` alone through 1-row products, so a row scores alike in
any batch. Training does not share it: a mini-batch runs on the block of the
first layer its rows touch, where X W and the gradient X^T d_z are dense
products over those columns, M*N*K <= 2^18 each (unthreaded).

Adam (Kingma & Ba, 2015; beta1 0.9, beta2 0.999, eps 1e-8, bias-corrected)
takes ``learning_rate`` as its step. Its first-layer moments are lazy (as in
LazyAdam): kept for the training rows' columns, updated at touched rows only.
Spark's perceptron uses L-BFGS, which here cost 1.3-4x SGD's time and stalled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import InvalidHyperparameter
from ..features import SparseBatch
from .base import LabeledDataset, ModelArtifact, ModelKind
from .linear import _sigmoid

_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8
_GEMM_MNK = 1 << 18  # OpenBLAS runs a GEMM of M*N*K <= this on the calling thread


@dataclass
class MLPParams:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_params(dim: int, hidden_layers: Sequence[int], seed: int) -> MLPParams:
    if not hidden_layers:
        raise InvalidHyperparameter("at least one hidden layer is required")
    if any(h < 1 for h in hidden_layers):
        raise InvalidHyperparameter(f"hidden widths must be >= 1, got {list(hidden_layers)}")
    rng = np.random.default_rng(seed)
    sizes = [dim, *hidden_layers, 2]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out, dtype=np.float64))
    return MLPParams(weights=weights, biases=biases)


def _first_layer(batch: SparseBatch, w0: np.ndarray, b0: np.ndarray) -> np.ndarray:
    z = np.tile(b0, (batch.n_rows, 1))
    gathered = w0[batch.indices]
    indptr = batch.indptr.tolist()
    for i, (a, b) in enumerate(zip(indptr[:-1], indptr[1:])):
        if b > a:
            z[i] += batch.values[a:b] @ gathered[a:b]
    return z


def _dense(a: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    # numpy runs the same product per row of a 1-row or an N-row stack,
    # where one N-row matmul could round a row differently
    return np.matmul(a[:, None, :], w)[:, 0] + b


def forward(params: MLPParams, rows: SparseBatch) -> list[np.ndarray]:
    """Activations per layer, each row computed alone; the last entry is
    the softmax output."""
    return _activations(params, _first_layer(rows, params.weights[0], params.biases[0]))


def _activations(params: MLPParams, z: np.ndarray) -> list[np.ndarray]:
    """Activations per layer from the first layer's pre-activations ``z``."""
    acts = [_sigmoid(z)]
    for w, b in zip(params.weights[1:-1], params.biases[1:-1]):
        acts.append(_sigmoid(_dense(acts[-1], w, b)))
    logits = _dense(acts[-1], params.weights[-1], params.biases[-1])
    m = logits.max(axis=1, keepdims=True)
    expd = np.exp(logits - m)
    acts.append(expd / expd.sum(axis=1, keepdims=True))
    return acts


def loss_and_grads(params: MLPParams, rows: SparseBatch,
                   y: np.ndarray) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean cross-entropy over the batch plus gradients for every weight
    matrix and bias vector; the first layer's holds the rows
    ``np.unique(rows.indices)`` only, in that order (the rest are zero)."""
    touched, local = np.unique(rows.indices, return_inverse=True)
    x_t = np.zeros((touched.size, rows.n_rows))  # the batch's touched block, transposed
    x_t[local, rows.row_ids] = rows.values
    block = MLPParams([params.weights[0][touched], *params.weights[1:]], params.biases)
    return _block_loss_and_grads(block, x_t, y)


def _block_loss_and_grads(params: MLPParams, x_t: np.ndarray, y: np.ndarray
                          ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """``loss_and_grads`` on the batch's touched block: ``params.weights[0]``
    holds the touched columns' rows, ``x_t`` the batch over them, transposed."""
    w0, b = params.weights[0], x_t.shape[1]
    step = max(1, _GEMM_MNK // (b * w0.shape[1]))
    blocks = [slice(lo, lo + step) for lo in range(0, w0.shape[0], step)]
    z = np.tile(params.biases[0], (b, 1))
    for blk in blocks:
        z += x_t[blk].T @ w0[blk]
    acts = _activations(params, z)
    probs = acts[-1]
    eps = np.finfo(np.float64).tiny
    loss = float(-np.mean(np.log(probs[np.arange(b), y] + eps)))

    d_z = probs.copy()
    d_z[np.arange(b), y] -= 1.0
    d_z /= b

    grads_w = [np.empty(0)] * len(params.weights)
    grads_b = [np.empty(0)] * len(params.biases)
    for layer in range(len(params.weights) - 1, 0, -1):
        a_prev = acts[layer - 1]
        grads_w[layer] = a_prev.T @ d_z
        grads_b[layer] = d_z.sum(axis=0)
        d_a = d_z @ params.weights[layer].T
        d_z = d_a * a_prev * (1.0 - a_prev)

    grads_w[0] = dw0 = np.empty_like(w0)
    for blk in blocks:
        np.matmul(x_t[blk], d_z, out=dw0[blk])
    grads_b[0] = d_z.sum(axis=0)
    return loss, grads_w, grads_b


def train_mlp(data: LabeledDataset, hidden_layers: Sequence[int] = (64,),
              learning_rate: float = 0.01, epochs: int = 10, batch_size: int = 32,
              seed: int = 0) -> ModelArtifact:
    if batch_size < 1 or epochs < 1 or not 0.0 < learning_rate < np.inf:
        raise InvalidHyperparameter("need batch_size, epochs >= 1 and a finite learning_rate > 0, "
                                    f"got {batch_size}, {epochs}, {learning_rate}")
    params = init_params(data.dim, hidden_layers, seed)
    rng = np.random.default_rng(seed + 1)
    n = len(data)
    y = data.labels.astype(np.int64)
    batch_size = min(batch_size, n)

    # train over the columns the training rows touch, as linear._fit does
    b = data.batch
    cols = np.unique(b.indices)
    batch = SparseBatch(cols.size, b.indptr, np.searchsorted(cols, b.indices), b.values)
    # Adam state: the first layer's rows stacked with their moments (lazy: only
    # touched rows change); the other parameters as views of one flat array
    first = np.stack([params.weights[0][cols], *np.zeros((2, cols.size, hidden_layers[0]))])
    rest = [*params.weights[1:], *params.biases]
    flat = np.concatenate([p.ravel() for p in rest])
    ends = np.cumsum([p.size for p in rest])[:-1]
    rest = [v.reshape(p.shape) for v, p in zip(np.split(flat, ends), rest)]
    params.weights[1:], params.biases = rest[:len(hidden_layers)], rest[len(hidden_layers):]
    flat_state = (flat, np.zeros_like(flat), np.zeros_like(flat))
    mark, where = np.zeros(cols.size, dtype=bool), np.empty(cols.size, dtype=np.int64)

    loss_trace: list[float] = []
    step = 0
    for _ in range(epochs):
        perm = rng.permutation(n)
        epoch, y_epoch = batch.take(perm), y[perm]  # the epoch's rows in order, laid out once
        epoch_loss = 0.0
        for start in range(0, n, batch_size):
            end = min(start + batch_size, n)
            at = slice(epoch.indptr[start], epoch.indptr[end])
            mark[epoch.indices[at]] = True
            touched = np.flatnonzero(mark)  # ascending, as np.unique gives them
            mark[touched] = False
            where[touched] = np.arange(touched.size)
            x_t = np.zeros((touched.size, end - start))
            x_t[where[epoch.indices[at]], epoch.row_ids[at] - start] = epoch.values[at]
            block = np.take(first, touched, axis=1)  # weights and moments, gathered once
            fit = MLPParams([block[0], *params.weights[1:]], params.biases)
            loss, grads_w, grads_b = _block_loss_and_grads(fit, x_t, y_epoch[start:end])
            epoch_loss += loss * (end - start)
            step += 1
            c2 = np.sqrt(1.0 - _BETA2 ** step)  # bias corrections folded into step and eps
            g_flat = np.concatenate([g.ravel() for g in [*grads_w[1:], *grads_b]])
            for (p, m, v), g in zip([block, flat_state], [grads_w[0], g_flat]):
                m *= _BETA1
                m += (1.0 - _BETA1) * g
                v *= _BETA2
                v += (1.0 - _BETA2) * np.square(g, out=g)
                np.sqrt(v, out=g)
                g += _EPS * c2
                np.divide(m, g, out=g)
                g *= learning_rate * c2 / (1.0 - _BETA1 ** step)
                p -= g
            first[:, touched] = block
        loss_trace.append(epoch_loss / n)
    params.weights[0][cols] = first[0]

    meta = {"hidden_layers": list(hidden_layers), "learning_rate": learning_rate,
            "epochs": epochs, "batch_size": batch_size, "seed": seed,
            "loss_trace": loss_trace}
    return ModelArtifact(kind=ModelKind.MLP, dim=data.dim, params=params, training_meta=meta)


def score_batch(params: MLPParams, batch: SparseBatch) -> np.ndarray:
    """P(positive) per row."""
    return forward(params, batch)[-1][:, 1]
