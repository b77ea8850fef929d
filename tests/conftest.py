import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ideation_stream.classifiers import LabeledDataset
from ideation_stream.features import SparseBatch


def make_vec(dim, pairs):
    """A one-row batch holding the (column, value) pairs."""
    pairs = sorted(pairs)
    return SparseBatch(dim, np.array([0, len(pairs)]),
                       np.array([p[0] for p in pairs], dtype=np.int64),
                       np.array([float(p[1]) for p in pairs], dtype=np.float64))


def stack(batches):
    """The rows of every batch, in order, as one batch of the first's dim."""
    lens = np.concatenate([np.diff(b.indptr) for b in batches])
    return SparseBatch(batches[0].dim, np.concatenate(([0], np.cumsum(lens))),
                       np.concatenate([b.indices for b in batches]),
                       np.concatenate([b.values for b in batches]))


def make_data(rows, labels):
    return LabeledDataset(stack(rows), labels)


def rows_of(batch):
    """Each row of a batch as its own one-row batch."""
    return [batch.take([i]) for i in range(batch.n_rows)]


def dense(batch):
    out = np.zeros((batch.n_rows, batch.dim))
    out[batch.row_ids, batch.indices] = batch.values
    return out


def densify_first_layer(block, batch, w0):
    """An MLP first-layer gradient, which holds the rows
    ``np.unique(batch.indices)`` only, scattered into ``w0``'s shape."""
    out = np.zeros_like(w0)
    out[np.unique(batch.indices)] = block
    return out


def entries(batch):
    return list(zip(batch.indices.tolist(), batch.values.tolist()))


def same(a, b):
    return (a.dim == b.dim and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices) and np.array_equal(a.values, b.values))


def random_sparse_dataset(rng, n, dim, density=0.4):
    rows, labels = [], []
    for _ in range(n):
        nnz = rng.binomial(dim, density)
        idx = np.sort(rng.choice(dim, size=nnz, replace=False))
        val = rng.uniform(0.1, 3.0, size=nnz)
        rows.append(SparseBatch(dim, np.array([0, nnz]), idx.astype(np.int64), val))
        labels.append(int(rng.integers(0, 2)))
    if not any(labels):
        labels[0] = 1
    if all(labels):
        labels[0] = 0
    return make_data(rows, labels)


def correlated_sparse_dataset(rng, n, dim, nnz=40, cue=0.2, cue_cols=40):
    """Rows of ``nnz`` columns whose values sum to 1, as term frequencies do.
    Each column is a cue for the row's label (columns ``[0, cue_cols)`` for
    label 0, the next ``cue_cols`` for label 1) with probability ``cue``,
    else drawn from the shared columns above them."""
    rows, labels = [], []
    for _ in range(n):
        label = int(rng.integers(0, 2))
        n_cue = rng.binomial(nnz, cue)
        idx = np.sort(np.concatenate([
            rng.choice(cue_cols, size=n_cue, replace=False) + label * cue_cols,
            rng.choice(np.arange(2 * cue_cols, dim), size=nnz - n_cue, replace=False)]))
        val = rng.uniform(0.5, 1.5, size=nnz)
        rows.append(SparseBatch(dim, np.array([0, nnz]), idx.astype(np.int64), val / val.sum()))
        labels.append(label)
    return make_data(rows, labels)


@pytest.fixture
def vec():
    return make_vec


@pytest.fixture
def nb_toy():
    """Vocabulary [die, sad, happy]; docs: 'die die sad'(1), 'die sad'(1),
    'happy happy'(0), 'sad happy'(0)."""
    return make_data([
        make_vec(3, [(0, 2), (1, 1)]),
        make_vec(3, [(0, 1), (1, 1)]),
        make_vec(3, [(2, 2)]),
        make_vec(3, [(1, 1), (2, 1)]),
    ], [1, 1, 0, 0])


@pytest.fixture
def separable_toy():
    """Feature 0 separates the classes with a wide margin."""
    return make_data([
        make_vec(2, [(0, 2)]),
        make_vec(2, [(0, 3), (1, 1)]),
        make_vec(2, [(0, -2)]),
        make_vec(2, [(0, -3), (1, -1)]),
    ], [1, 1, 0, 0])


@pytest.fixture
def xor_toy():
    return make_data([
        make_vec(2, []),
        make_vec(2, [(1, 1)]),
        make_vec(2, [(0, 1)]),
        make_vec(2, [(0, 1), (1, 1)]),
    ], [0, 1, 1, 0])


@pytest.fixture
def fixture_dataset():
    """100 rows over 12 features, both classes, deterministic."""
    rng = np.random.default_rng(42)
    data = random_sparse_dataset(rng, 100, 12, density=0.5)
    labels = np.asarray(data.labels).copy()
    # correlate labels with feature 0 so trained models are non-trivial
    for i, x0 in enumerate(dense(data.batch)[:, 0]):
        labels[i] = 1 if x0 > 1.2 else int(labels[i])
    if labels.sum() in (0, len(labels)):
        labels[0] = 1 - labels[0]
    return LabeledDataset(data.batch, labels)


def replace_isp_header(path, text: str) -> None:
    """Swap a stored ``.isp`` header's text for ``text``, with a fitting
    length and CRC, so only the header's content can make a load fail."""
    blob = Path(path).read_bytes()
    header_len = int.from_bytes(blob[6:10], "little")
    new_header = text.encode()
    body = blob[:6] + len(new_header).to_bytes(4, "little") + new_header \
        + blob[10 + header_len:-4]
    Path(path).write_bytes(body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little"))
