"""Decision tree (Gini) and bagged random forest.

Trees split on feature thresholds chosen from midpoints of observed unique
values, capped at 32 evenly spaced picks per feature. The split search folds
the implicit zeros of the sparse columns into its counts analytically; rows
then go left when ``x <= threshold``, the rule the scorer applies.
Ties between equal gains go to the lower feature index, then the lower
threshold; a zero-gain split is still taken when the node is impure, which
is what lets depth-2 trees carve XOR-shaped data.

A node's split search is one vectorized pass over all its candidate
columns, the exact greedy search over sorted column blocks of XGBoost
(Chen & Guestrin, KDD 2016): the node's entries are sorted by (column,
value), with a weight-0 entry at 0.0 standing for each column's implicit
zeros; runs of one (column, value) are the unique values; one cumulative
sum of the integer row weights gives every threshold's left side, found by
one ``searchsorted``; and one ``argmax`` over the gains in (column,
threshold) order picks the split. Integer weights keep every sum exact, so
the trees equal those of a column-by-column search.

Each node carries its rows and its own stored entries as (column, row,
value) arrays sorted by column, then row; a split hands each child the
entries of its rows. The sort is made once per ``train_dt`` / ``train_rf``
call, so a forest's trees share it. Bootstrap resampling is encoded as
integer row weights, and a zero-weight row's entries are dropped at the
root. Forest scores are the mean of per-tree leaf fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..features import SparseBatch
from .base import LabeledDataset, ModelArtifact, ModelKind

_MAX_THRESHOLDS = 32


@dataclass
class TreeParams:
    feature: np.ndarray     # int64, -1 marks a leaf
    threshold: np.ndarray   # float64
    left: np.ndarray        # int64 child slots
    right: np.ndarray
    count_neg: np.ndarray   # weighted class counts at the node
    count_pos: np.ndarray

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)


@dataclass
class ForestParams:
    trees: list[TreeParams] = field(default_factory=list)


def _entries(data: LabeledDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(column, row, value) of every stored entry, sorted by column, then row."""
    b = data.batch
    order = np.argsort(b.indices, kind="stable")  # CSR entries already ascend by row
    return b.indices[order], b.row_ids[order], b.values[order]


def _keys(rank: np.ndarray, values: np.ndarray) -> np.ndarray:
    """(rank, value) pairs as complex numbers, which numpy sorts and searches
    by real part, then imaginary part."""
    keys = np.empty(rank.size, dtype=np.complex128)
    keys.real, keys.imag = rank, values
    return keys


def _build_tree(entries: tuple[np.ndarray, np.ndarray, np.ndarray], labels: np.ndarray,
                max_depth: int, min_leaf: int, weights: np.ndarray,
                feature_sampler=None, rng=None) -> TreeParams:
    w_pos_all = weights * labels
    # one [feature, threshold, left, right, count_neg, count_pos] per node, the root first
    nodes: list[list] = [[-1, 0.0, -1, -1, 0, 0]]

    def best_split(cols: np.ndarray, ent_rows: np.ndarray, vals: np.ndarray,
                   candidates: np.ndarray, pos_w: float, neg_w: float):
        if candidates.size == 0:
            return None
        tot_w = pos_w + neg_w
        parent = tot_w - (pos_w * pos_w + neg_w * neg_w) / tot_w  # tot * gini
        # each entry's column as its rank among the candidates; other columns' entries go
        rank = np.searchsorted(candidates, cols)
        if feature_sampler is not None:
            keep = candidates[np.minimum(rank, candidates.size - 1)] == cols
            rank, ent_rows, vals = rank[keep], ent_rows[keep], vals[keep]
        w_tot, w_pos = weights[ent_rows], w_pos_all[ent_rows]
        nz_tot = np.bincount(rank, weights=w_tot, minlength=candidates.size)
        nz_pos = np.bincount(rank, weights=w_pos, minlength=candidates.size)
        z_pos = pos_w - nz_pos
        z_neg = neg_w - (nz_tot - nz_pos)
        # a weight-0 entry at 0.0 puts the implicit zeros' value among a column's values
        z_cols = np.flatnonzero(z_pos + z_neg > 0)
        zero = np.zeros(z_cols.size, dtype=w_tot.dtype)
        keys = _keys(np.concatenate((rank, z_cols)), np.concatenate((vals, np.zeros(z_cols.size))))
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        cum_tot = np.concatenate(([0], np.cumsum(np.concatenate((w_tot, zero))[order])))
        cum_pos = np.concatenate(([0], np.cumsum(np.concatenate((w_pos, zero))[order])))

        # groups are runs of one (column, value); at most 33 evenly spaced picks per column
        first = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        g_rank = keys.real[first].astype(np.int64)
        col_first = np.flatnonzero(np.concatenate(([True], g_rank[1:] != g_rank[:-1])))
        u = np.diff(np.append(col_first, first.size))  # groups per column
        picked = np.repeat(u <= _MAX_THRESHOLDS + 1, u)
        for size in np.unique(u[u > _MAX_THRESHOLDS + 1]).tolist():
            pick = np.linspace(0, size - 1, _MAX_THRESHOLDS + 1).round().astype(np.int64)
            picked[(col_first[u == size, None] + pick).ravel()] = True  # 33 distinct picks
        picks = np.flatnonzero(picked)
        same_col = g_rank[picks[1:]] == g_rank[picks[:-1]]
        lo, hi = picks[:-1][same_col], picks[1:][same_col]
        if lo.size == 0:
            return None
        t_rank = g_rank[lo]
        g_val = keys.imag[first]
        thresholds = (g_val[lo] + g_val[hi]) / 2.0

        # left of a threshold: its column's entries at or below it, skipped values too
        k = np.searchsorted(keys, _keys(t_rank, thresholds), side="right")
        start = first[col_first][t_rank]
        zero_left = thresholds >= 0.0
        z_pos, z_neg = z_pos[t_rank], z_neg[t_rank]
        l_pos = (cum_pos[k] - cum_pos[start]) + z_pos * zero_left
        l_tot = (cum_tot[k] - cum_tot[start]) + (z_pos + z_neg) * zero_left
        l_neg = l_tot - l_pos
        r_pos = pos_w - l_pos
        r_neg = neg_w - l_neg
        r_tot = tot_w - l_tot

        valid = (l_tot >= min_leaf) & (r_tot >= min_leaf)
        with np.errstate(divide="ignore", invalid="ignore"):
            child = np.where(l_tot > 0, l_tot - (l_pos ** 2 + l_neg ** 2) / l_tot, 0.0) \
                + np.where(r_tot > 0, r_tot - (r_pos ** 2 + r_neg ** 2) / r_tot, 0.0)
        gains = np.where(valid, (parent - child) / tot_w, -math.inf)
        idx = int(np.argmax(gains))  # the first max: lowest column, then lowest threshold
        if gains[idx] == -math.inf:
            return None
        return int(candidates[t_rank[idx]]), float(thresholds[idx])

    # a node is (slot, its rows ascending, its entries as in ``entries``, depth left)
    kept = weights[entries[1]] > 0
    stack = [(0, np.flatnonzero(weights > 0), tuple(e[kept] for e in entries), max_depth)]
    while stack:
        slot, rows, node_entries, depth = stack.pop()
        cols, ent_rows, vals = node_entries
        pos_w = float(w_pos_all[rows].sum())
        tot_w = float(weights[rows].sum())
        neg_w = tot_w - pos_w
        node = nodes[slot]
        node[4], node[5] = int(neg_w), int(pos_w)
        if pos_w == 0 or neg_w == 0 or depth == 0 or tot_w < 2 * min_leaf:
            continue
        # a column with no entry in the node holds only 0 and cannot split
        candidates = np.unique(cols)
        if feature_sampler is not None:
            candidates = np.intersect1d(feature_sampler(rng), candidates, assume_unique=True)
        found = best_split(cols, ent_rows, vals, candidates, pos_w, neg_w)
        if found is None:
            continue
        j, t = found
        # the scorer's rule x <= t, where a row without an entry in column j holds 0
        at = np.searchsorted(rows, ent_rows)  # each entry's position among the rows
        lo, hi = np.searchsorted(cols, [j, j + 1])
        goes_left = np.full(rows.size, 0.0 <= t)
        goes_left[at[lo:hi]] = vals[lo:hi] <= t
        entry_left = goes_left[at]
        node[:4] = [j, t, len(nodes), len(nodes) + 1]
        nodes += [[-1, 0.0, -1, -1, 0, 0] for _ in range(2)]
        stack.append((node[3], rows[~goes_left], tuple(e[~entry_left] for e in node_entries),
                      depth - 1))
        stack.append((node[2], rows[goes_left], tuple(e[entry_left] for e in node_entries),
                      depth - 1))

    dtypes = (np.int64, np.float64, np.int64, np.int64, np.int64, np.int64)
    return TreeParams(*(np.asarray(column, dtype=d) for column, d in zip(zip(*nodes), dtypes)))


def train_dt(data: LabeledDataset, max_depth: int = 16, min_leaf: int = 1,
             impurity: str = "gini", seed: int = 0) -> ModelArtifact:
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    if impurity != "gini":
        raise ValueError(f"only gini impurity is implemented, got {impurity!r}")
    weights = np.ones(len(data), dtype=np.int64)
    tree = _build_tree(_entries(data), data.labels, max_depth, min_leaf, weights)
    meta = {"max_depth": max_depth, "min_leaf": min_leaf, "impurity": impurity,
            "seed": seed, "n_nodes": tree.n_nodes}
    return ModelArtifact(kind=ModelKind.DT, dim=data.dim, params=tree, training_meta=meta)


def train_rf(data: LabeledDataset, num_trees: int = 100, feature_fraction: float = 1.0,
             seed: int = 0, max_depth: int = 16, min_leaf: int = 1,
             bootstrap: bool = True) -> ModelArtifact:
    if num_trees < 1:
        raise ValueError(f"num_trees must be >= 1, got {num_trees}")
    if not 0.0 < feature_fraction <= 1.0:
        raise ValueError(f"feature_fraction must be in (0,1], got {feature_fraction}")
    n = len(data)
    m = math.ceil(feature_fraction * data.dim)
    children = np.random.SeedSequence(seed).spawn(num_trees)

    def sampler(rng):
        return np.sort(rng.choice(data.dim, size=m, replace=False))

    entries = _entries(data)
    trees = []
    for child in children:
        rng = np.random.default_rng(child)
        if bootstrap:
            weights = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.int64)
        else:
            weights = np.ones(n, dtype=np.int64)
        trees.append(_build_tree(entries, data.labels, max_depth, min_leaf, weights,
                                 feature_sampler=sampler, rng=rng))
    meta = {"num_trees": num_trees, "feature_fraction": feature_fraction,
            "max_depth": max_depth, "min_leaf": min_leaf, "bootstrap": bootstrap,
            "seed": seed}
    return ModelArtifact(kind=ModelKind.RF, dim=data.dim,
                         params=ForestParams(trees=trees), training_meta=meta)


def score_batch(params: TreeParams | ForestParams, batch: SparseBatch) -> np.ndarray:
    """Positive fraction of each row's leaf (0.5 at an empty leaf); a
    forest scores the mean over its trees."""
    if isinstance(params, ForestParams):
        return np.stack([score_batch(t, batch) for t in params.trees], axis=1).mean(axis=1)
    n, dim = batch.n_rows, batch.dim
    # entry keys row*dim + column ascend; the sentinel n*dim matches no probe
    keys = np.append(batch.row_ids * dim + batch.indices, n * dim)
    values = np.append(batch.values, 0.0)
    node = np.zeros(n, dtype=np.int64)
    rows = np.flatnonzero(params.feature[node] != -1)
    while rows.size:  # one level of the tree per pass, over every row still inside
        at = node[rows]
        probe = rows * dim + params.feature[at]
        pos = np.searchsorted(keys, probe)
        x = np.where(keys[pos] == probe, values[pos], 0.0)
        node[rows] = np.where(x <= params.threshold[at], params.left[at], params.right[at])
        rows = rows[params.feature[node[rows]] != -1]
    total = params.count_neg[node] + params.count_pos[node]
    return np.divide(params.count_pos[node], total, out=np.full(n, 0.5), where=total > 0)
