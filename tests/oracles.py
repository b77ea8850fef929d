"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (dense
matrices, O(n^2) pair counting, per-byte hashing) and shares no code with
the package internals.
"""

from __future__ import annotations

import math
import re
import struct
from collections import Counter
from pathlib import Path

import numpy as np


def fnv1a_32_reference(data: bytes) -> int:
    h = 0x811C9DC5
    for byte in data:
        h = ((h ^ byte) * 0x01000193) % (1 << 32)
    return h


def ngrams_reference(tokens, orders):
    out = []
    for n in sorted(orders):
        for i in range(len(tokens) - n + 1):
            out.append(" ".join(tokens[i:i + n]))
    return out


def ngrams(tokens, orders):
    """All windows of each order in ``orders``, order-of-n then position
    order, built window by window as strings (the string route's grams)."""
    out = []
    for n in orders:
        grams = tokens
        for k in range(1, n):  # windows of k + 1 tokens from windows of k
            grams = [f"{gram} {token}" for gram, token in zip(grams, tokens[k:])]
        out.extend(grams)
    return out


def dense_cv_tfidf(token_docs, orders, min_tf, normalize):
    """Brute-force count matrix -> TF scaling -> smoothed IDF. Returns the
    dense matrix and the vocabulary term order."""
    per_doc = [ngrams_reference(doc, orders) for doc in token_docs]
    freq = Counter()
    for grams in per_doc:
        freq.update(grams)
    kept = sorted((t for t, c in freq.items() if c > min_tf),
                  key=lambda t: (-freq[t], t))
    index = {t: j for j, t in enumerate(kept)}
    n, v = len(per_doc), len(kept)
    matrix = np.zeros((n, v))
    for i, grams in enumerate(per_doc):
        for g in grams:
            j = index.get(g)
            if j is not None:
                matrix[i, j] += 1.0
    df = (matrix > 0).sum(axis=0)
    if normalize:
        for i, grams in enumerate(per_doc):
            if grams:
                matrix[i] /= len(grams)
    idf = np.log((n + 1.0) / (df + 1.0))
    return matrix * idf, kept


def string_route_batch(term_to_index, idf, orders, normalize, token_docs):
    """(indptr, indices, values) of ``token_docs`` by the vocabulary route as
    written with a string per gram: each gram looked up in ``term_to_index``
    and count * (1 / grams in the document, if ``normalize``) * idf kept per
    column where it is not 0."""
    indptr, indices, values = [0], [], []
    for doc in token_docs:
        grams = ngrams(list(doc), orders)
        counts = Counter(term_to_index[g] for g in grams if g in term_to_index)
        scale = 1.0 / max(len(grams), 1) if normalize else 1.0
        for col in sorted(counts):
            value = counts[col] * scale * float(idf[col])
            if value != 0.0:
                indices.append(col)
                values.append(value)
        indptr.append(len(indices))
    return (np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64),
            np.array(values, dtype=np.float64))


def string_route_fit(token_docs, orders, min_tf, vocab_cap, normalize):
    """term -> column, doc_freq, idf and the training batch by the string
    route: a term frequency per gram string, the grams above ``min_tf``
    kept by (-tf, term) up to ``vocab_cap``, smoothed IDF."""
    per_doc = [ngrams(list(doc), orders) for doc in token_docs]
    tf = Counter(g for grams in per_doc for g in grams)
    kept = sorted((t for t, c in tf.items() if c > min_tf), key=lambda t: (-tf[t], t))
    term_to_index = {t: j for j, t in enumerate(kept[:vocab_cap])}
    df = np.zeros(len(term_to_index), dtype=np.int64)
    for grams in per_doc:
        for j in {term_to_index[g] for g in grams if g in term_to_index}:
            df[j] += 1
    idf = np.log((len(token_docs) + 1.0) / (df + 1.0))
    return term_to_index, df, idf, string_route_batch(term_to_index, idf, orders, normalize,
                                                       token_docs)


def dense_hashing_tfidf(token_docs, orders, num_buckets, normalize):
    per_doc = [ngrams_reference(doc, orders) for doc in token_docs]
    n = len(per_doc)
    matrix = np.zeros((n, num_buckets))
    for i, grams in enumerate(per_doc):
        for g in grams:
            matrix[i, fnv1a_32_reference(g.encode("utf-8")) % num_buckets] += 1.0
    df = (matrix > 0).sum(axis=0)
    if normalize:
        for i, grams in enumerate(per_doc):
            if grams:
                matrix[i] /= len(grams)
    idf = np.log((n + 1.0) / (df + 1.0))
    return matrix * idf


def pairwise_auc(scores, gold) -> float:
    """(concordant + 0.5 * tied) / (positives * negatives), all pairs."""
    pos = [s for s, g in zip(scores, gold) if g == 1]
    neg = [s for s, g in zip(scores, gold) if g == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def recount_confusion(preds, gold):
    tp = sum(1 for p, g in zip(preds, gold) if p == 1 and g == 1)
    fp = sum(1 for p, g in zip(preds, gold) if p == 1 and g == 0)
    fn = sum(1 for p, g in zip(preds, gold) if p == 0 and g == 1)
    tn = sum(1 for p, g in zip(preds, gold) if p == 0 and g == 0)
    return tp, fp, fn, tn


def positive_metrics(tp, fp, fn, tn):
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return accuracy, precision, recall, f1


def weighted_metrics(tp, fp, fn, tn):
    def prf(a, b, c):
        p = a / (a + b) if a + b else 0.0
        r = a / (a + c) if a + c else 0.0
        f = 2.0 * p * r / (p + r) if p + r else 0.0
        return p, r, f

    pos = prf(tp, fp, fn)
    neg = prf(tn, fn, fp)
    s_pos, s_neg = tp + fn, tn + fp
    total = s_pos + s_neg
    merge = lambda a, b: (s_pos * a + s_neg * b) / total
    return tuple(merge(a, b) for a, b in zip(pos, neg))


def _sigmoid_reference(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def mlp_scores_per_row(weights, biases, indptr, indices, values):
    """P(positive) per CSR row, each row run alone through 2-D 1-row
    products: the sparse first layer, sigmoid hidden layers, softmax."""
    scores = []
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        z = biases[0][None, :].copy()
        if hi > lo:
            z[0] += values[lo:hi] @ weights[0][indices[lo:hi]]
        a = _sigmoid_reference(z)
        for w, b in zip(weights[1:-1], biases[1:-1]):
            a = _sigmoid_reference(a[0:1] @ w + b)
        logits = a[0:1] @ weights[-1] + biases[-1]
        expd = np.exp(logits - logits.max(axis=1, keepdims=True))
        scores.append((expd / expd.sum(axis=1, keepdims=True))[0, 1])
    return np.array(scores, dtype=np.float64)


def mlp_loss_reference(weights, biases, indptr, indices, values, y):
    """The MLP's mean cross-entropy over a CSR batch, each row run alone
    through 1-row products and its log-probability summed in row order."""
    total = 0.0
    for i, (lo, hi) in enumerate(zip(indptr[:-1], indptr[1:])):
        z = biases[0][None, :].copy()
        if hi > lo:
            z[0] += values[lo:hi] @ weights[0][indices[lo:hi]]
        a = _sigmoid_reference(z)
        for w, b in zip(weights[1:-1], biases[1:-1]):
            a = _sigmoid_reference(a @ w + b)
        logits = a @ weights[-1] + biases[-1]
        expd = np.exp(logits - logits.max(axis=1, keepdims=True))
        total -= math.log((expd / expd.sum(axis=1, keepdims=True))[0, y[i]]
                          + np.finfo(np.float64).tiny)
    return total / (len(indptr) - 1)


def mlp_first_layer_grad_reference(weights, biases, indptr, indices, values, y):
    """The gradient of the MLP's mean cross-entropy over a CSR batch with
    respect to its first weight matrix, at the rows ``np.unique(indices)``
    only: each row runs forward and back alone through 1-row products, and
    its delta times its values is added into its columns' rows in turn."""
    n = len(indptr) - 1
    touched = np.unique(indices)
    dw0 = np.zeros((touched.size, weights[0].shape[1]))
    for i, (lo, hi) in enumerate(zip(indptr[:-1], indptr[1:])):
        z = biases[0][None, :].copy()
        if hi > lo:
            z[0] += values[lo:hi] @ weights[0][indices[lo:hi]]
        acts = [_sigmoid_reference(z)]
        for w, b in zip(weights[1:-1], biases[1:-1]):
            acts.append(_sigmoid_reference(acts[-1] @ w + b))
        logits = acts[-1] @ weights[-1] + biases[-1]
        expd = np.exp(logits - logits.max(axis=1, keepdims=True))
        d_z = expd / expd.sum(axis=1, keepdims=True)
        d_z[0, y[i]] -= 1.0
        d_z /= n
        for w, a in zip(weights[:0:-1], acts[::-1]):  # back from the last layer
            d_z = (d_z @ w.T) * a * (1.0 - a)
        if hi > lo:
            dw0[np.searchsorted(touched, indices[lo:hi])] += values[lo:hi, None] * d_z[0]
    return dw0


def lazy_adam_mlp_reference(weights, biases, indptr, indices, grads, learning_rate, epochs,
                            batch_size, seed):
    """The MLP's weights and biases after per-step Adam from the given start
    (beta1 0.9, beta2 0.999, eps 1e-8, bias-corrected by the global step).
    Each epoch shuffles the rows by ``default_rng(seed + 1)`` and takes
    ``batch_size`` of them at a time; ``grads(weights, biases, rows)`` gives
    their gradients, the first layer's in its full shape. The moments are
    full-size, and the first layer's weights and moments change at the
    input rows the mini-batch touches only."""
    b1, b2, eps = 0.9, 0.999, 1e-8
    weights = [w.copy() for w in weights]
    biases = [b.copy() for b in biases]
    params = weights + biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    n = len(indptr) - 1
    rng = np.random.default_rng(seed + 1)
    t = 0
    for _ in range(epochs):
        perm = rng.permutation(n)
        for start in range(0, n, batch_size):
            rows = perm[start:start + batch_size]
            grads_w, grads_b = grads(weights, biases, rows)
            t += 1
            touched = sorted({int(j) for i in rows for j in indices[indptr[i]:indptr[i + 1]]})
            for k, (p, g) in enumerate(zip(params, grads_w + grads_b)):
                at = touched if k == 0 else slice(None)
                m[k][at] = b1 * m[k][at] + (1 - b1) * g[at]
                v[k][at] = b2 * v[k][at] + (1 - b2) * g[at] ** 2
                m_hat = m[k][at] / (1 - b1 ** t)
                v_hat = v[k][at] / (1 - b2 ** t)
                p[at] -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return weights, biases


def lemma_reference(token, config):
    if token in config.lemma_exceptions:
        return config.lemma_exceptions[token]
    for suffix, repl, min_stem in config.suffix_rules:
        if token.endswith(suffix) and len(token) - len(suffix) >= min_stem:
            return token[: len(token) - len(suffix)] + repl
    return token


def preprocess_reference(raw, config):
    """Tokens of ``raw`` through four separate stages: filter (one
    character at a time), tokenize, drop stopwords, lemmatize. Reads only
    the config's four tables."""
    s = raw.casefold()
    keys = sorted(config.contraction_table, key=len, reverse=True)
    if keys:
        pattern = r"\b(?:" + "|".join(re.escape(k) for k in keys) + r")\b"
        s = re.sub(pattern, lambda m: config.contraction_table[m.group(0)], s)
    s = re.sub(r"(?:https?://|www\.)\S*", " ", s)
    s = s.replace("#", "").replace("@", "")
    s = "".join(ch if (ch.isalnum() and not ch.isupper()) else (" " if ch.isspace() else "")
                for ch in s)
    tokens = " ".join(s.split()).split()
    kept = [t for t in tokens if t not in config.stopword_list]
    return tuple(lemma_reference(t, config) for t in kept)


def build_tree_reference(indptr, indices, values, labels, max_depth, min_leaf, weights,
                         feature_sampler=None, rng=None):
    """The six tree arrays (feature, threshold, left, right, count_neg,
    count_pos) of the Gini tree learner, searched column by column over a
    whole-dataset CSC view with an n-row node mask, and split through a
    dense copy of the chosen column."""
    max_thresholds = 32
    n = len(indptr) - 1
    row_ids = np.repeat(np.arange(n), np.diff(indptr))
    order = np.argsort(indices, kind="stable")
    dim_end = int(indices.max()) + 1 if len(indices) else 0
    col_ptr = np.zeros(dim_end + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=dim_end), out=col_ptr[1:])
    col_rows, col_vals = row_ids[order], values[order]
    labels = np.asarray(labels).astype(np.int64)
    w_pos_all = weights * labels

    feat, thr, left, right, c_neg, c_pos = [], [], [], [], [], []

    def alloc():
        feat.append(-1)
        thr.append(0.0)
        left.append(-1)
        right.append(-1)
        c_neg.append(0)
        c_pos.append(0)
        return len(feat) - 1

    def best_split(rows, candidates, pos_w, neg_w):
        tot_w = pos_w + neg_w
        parent = tot_w - (pos_w * pos_w + neg_w * neg_w) / tot_w
        in_node = np.zeros(n, dtype=bool)
        in_node[rows] = True
        best_gain = -math.inf
        best = None
        for j in candidates:
            lo, hi = col_ptr[j], col_ptr[j + 1]
            sel = in_node[col_rows[lo:hi]]
            rj = col_rows[lo:hi][sel]
            vj = col_vals[lo:hi][sel]
            nz_pos = float(w_pos_all[rj].sum())
            nz_tot = float(weights[rj].sum())
            z_pos = pos_w - nz_pos
            z_neg = neg_w - (nz_tot - nz_pos)
            uniq = np.unique(vj)
            if z_pos + z_neg > 0:
                uniq = np.union1d(uniq, [0.0])
            if uniq.size < 2:
                continue
            if uniq.size - 1 > max_thresholds:
                pick_idx = np.linspace(0, uniq.size - 1, max_thresholds + 1).round().astype(np.int64)
                uniq = uniq[np.unique(pick_idx)]
            thresholds = (uniq[:-1] + uniq[1:]) / 2.0

            order = np.argsort(vj, kind="stable")
            sv = vj[order]
            cum_pos = np.concatenate(([0.0], np.cumsum(w_pos_all[rj][order])))
            cum_tot = np.concatenate(([0.0], np.cumsum(weights[rj][order])))
            k = np.searchsorted(sv, thresholds, side="right")
            l_pos = cum_pos[k]
            l_tot = cum_tot[k]
            zero_left = thresholds >= 0.0
            l_pos = l_pos + z_pos * zero_left
            l_tot = l_tot + (z_pos + z_neg) * zero_left
            l_neg = l_tot - l_pos
            r_pos = pos_w - l_pos
            r_neg = neg_w - l_neg
            r_tot = tot_w - l_tot

            valid = (l_tot >= min_leaf) & (r_tot >= min_leaf)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                child = np.where(l_tot > 0, l_tot - (l_pos ** 2 + l_neg ** 2) / l_tot, 0.0) \
                    + np.where(r_tot > 0, r_tot - (r_pos ** 2 + r_neg ** 2) / r_tot, 0.0)
            gains = np.where(valid, (parent - child) / tot_w, -math.inf)
            idx = int(np.argmax(gains))
            if gains[idx] > best_gain:
                best_gain = float(gains[idx])
                best = (int(j), float(thresholds[idx]))
        return best

    def partition(rows, j, t):
        lo, hi = col_ptr[j], col_ptr[j + 1]
        x = np.zeros(n)
        x[col_rows[lo:hi]] = col_vals[lo:hi]
        goes_left = x[rows] <= t
        return rows[goes_left], rows[~goes_left]

    root = alloc()
    all_rows = np.flatnonzero(weights > 0).astype(np.int64)
    stack = [(root, all_rows, max_depth)]
    while stack:
        slot, rows, depth = stack.pop()
        pos_w = float(w_pos_all[rows].sum())
        tot_w = float(weights[rows].sum())
        neg_w = tot_w - pos_w
        c_neg[slot] = int(neg_w)
        c_pos[slot] = int(pos_w)
        if pos_w == 0 or neg_w == 0 or depth == 0 or tot_w < 2 * min_leaf:
            continue
        in_node = np.zeros(n, dtype=bool)
        in_node[rows] = True
        candidates = np.unique(indices[in_node[row_ids]])
        if feature_sampler is not None:
            candidates = np.intersect1d(feature_sampler(rng), candidates, assume_unique=True)
        found = best_split(rows, candidates, pos_w, neg_w)
        if found is None:
            continue
        j, t = found
        left_rows, right_rows = partition(rows, j, t)
        feat[slot] = j
        thr[slot] = t
        l = alloc()
        r = alloc()
        left[slot] = l
        right[slot] = r
        stack.append((r, right_rows, depth - 1))
        stack.append((l, left_rows, depth - 1))

    return {
        "feature": np.asarray(feat, dtype=np.int64),
        "threshold": np.asarray(thr, dtype=np.float64),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "count_neg": np.asarray(c_neg, dtype=np.int64),
        "count_pos": np.asarray(c_pos, dtype=np.int64),
    }


def collect_reference(topic_dir, partitions, starts, max_records):
    """The broker's consume order read straight from the segment files:
    one record at a time, round-robin across partitions in partition
    order, each from its start offset, until ``max_records`` or every
    backlog is empty. Each frame is read with a header read and a body
    read. Returns (partition, offset, key, value, timestamp_ms) tuples."""
    logs = []
    for p in range(partitions):
        records = []
        for path in sorted(Path(topic_dir, str(p)).glob("*.log")):
            assert int(path.stem) == len(records), "segments must be contiguous"
            with open(path, "rb") as fh:
                while True:
                    header = fh.read(8)
                    if len(header) < 8:
                        break
                    frame_len, _crc = struct.unpack("<II", header)
                    body = fh.read(frame_len - 4)
                    timestamp_ms, key_len = struct.unpack("<qi", body[:12])
                    key = body[12:12 + key_len] if key_len >= 0 else None
                    rest = body[12 + max(key_len, 0):]
                    (val_len,) = struct.unpack("<I", rest[:4])
                    records.append((key, rest[4:4 + val_len], timestamp_ms))
        logs.append(records)
    cursors = [starts.get(p, 0) for p in range(partitions)]
    out = []
    progress = True
    while len(out) < max_records and progress:
        progress = False
        for p in range(partitions):
            if len(out) >= max_records:
                break
            if cursors[p] < len(logs[p]):
                out.append((p, cursors[p], *logs[p][cursors[p]]))
                cursors[p] += 1
                progress = True
    return out
