"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written the slow, obvious way (dense
matrices, O(n^2) pair counting, per-byte hashing) and shares no code with
the package internals.
"""

from __future__ import annotations

import re
from collections import Counter

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
