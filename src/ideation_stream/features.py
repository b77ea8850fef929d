"""Bag-of-n-grams features as rows of one CSR type, ``SparseBatch``.

Two vectorization routes share one smoothed-IDF stage:

* hashing — token -> FNV-1a bucket, no vocabulary (``uni-tfidf`` combo);
* vocabulary — grams above a corpus-frequency threshold get dense column
  indices ordered by descending frequency (``*-cv-idf`` combos). The fit
  counts grams by token-id keys and a transform looks bigrams up by token
  pair (``Vocabulary.pair_index``): no route builds a string per gram.

``FeaturePipeline.transform_batch`` maps the grams of every document to
columns in one pass, counts each (row, column) pair, optionally rescales by
document length (count / total grams in the document) and applies
``idf = ln((N + 1) / (df + 1))``, all into one ``SparseBatch``;
``transform`` is its batch of one. ``fit_pipeline`` returns the fitted
pipeline and the training documents' batch from the same column pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyVocabulary, NotFitted
from .hashutil import fnv1a_32

DEFAULT_NUM_BUCKETS = 1 << 18
DEFAULT_MIN_TF = 4
BUCKET_CACHE_MAX = 1 << 16  # grams a hashing cache holds before it is cleared


class FeatureCombo(str, Enum):
    UNI_TFIDF = "uni-tfidf"
    UNI_CV_IDF = "uni-cv-idf"
    BI_CV_IDF = "bi-cv-idf"
    UNI_BI_CV_IDF = "uni-bi-cv-idf"


COMBO_ORDERS = {
    FeatureCombo.UNI_TFIDF: (1,),
    FeatureCombo.UNI_CV_IDF: (1,),
    FeatureCombo.BI_CV_IDF: (2,),
    FeatureCombo.UNI_BI_CV_IDF: (1, 2),
}


GRAM_JOINER = " "  # between the tokens of a bigram


@dataclass(frozen=True, eq=False)
class SparseBatch:
    """Rows of a CSR matrix over a fixed dimension: row i holds the columns
    ``indices[indptr[i]:indptr[i+1]]``, strictly increasing, and their
    ``values``, never zero. ``row_ids`` names the row of each entry."""

    dim: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    row_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64)
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if (indptr.ndim != 1 or idx.ndim != 1 or idx.shape != val.shape
                or indptr.size == 0 or indptr[0] != 0 or indptr[-1] != idx.size):
            raise ValueError("indptr, indices and values do not form a CSR batch")
        # np.repeat raises ValueError when indptr decreases
        row_ids = np.repeat(np.arange(indptr.size - 1), indptr[1:] - indptr[:-1])
        if idx.size:
            if idx.min() < 0 or idx.max() >= self.dim:
                raise ValueError(f"index out of range for dim {self.dim}")
            keys = row_ids * self.dim + idx
            if (keys[1:] <= keys[:-1]).any():
                raise ValueError("indices must be strictly increasing within a row")
            if not val.all():
                raise ValueError("zero values must not be stored")
        for name, array in (("indptr", indptr), ("indices", idx), ("values", val),
                            ("row_ids", row_ids)):
            object.__setattr__(self, name, array)

    @property
    def n_rows(self) -> int:
        return self.indptr.size - 1

    def take(self, rows: Sequence[int] | np.ndarray) -> "SparseBatch":
        """The given rows, in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        starts, lens = self.indptr[rows], self.indptr[rows + 1] - self.indptr[rows]
        indptr = np.concatenate(([0], np.cumsum(lens)))
        pos = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lens)
        return SparseBatch(self.dim, indptr, self.indices[pos], self.values[pos])

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """X @ w for a dense weight vector; each row sums its entries in order."""
        return np.bincount(self.row_ids, weights=self.values * w[self.indices],
                           minlength=self.n_rows)

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """X.T @ r for a dense per-row vector."""
        return np.bincount(self.indices, weights=self.values * r[self.row_ids],
                           minlength=self.dim)


def _token_stream(token_docs: Sequence[Sequence[str]]):
    """Every token of every document in order, each document followed by None."""
    return chain.from_iterable(chain.from_iterable(zip(token_docs, repeat((None,)))))


@dataclass
class Vocabulary:
    term_to_index: dict[str, int]
    doc_freq: np.ndarray
    num_docs: int

    @property
    def dim(self) -> int:
        return len(self.term_to_index)

    def terms_by_index(self) -> list[str]:
        return sorted(self.term_to_index, key=self.term_to_index.get)

    @cached_property
    def pair_index(self) -> dict[tuple[str, str], int]:
        """(first, second) token pair -> column of each two-token term. Tokens
        hold no ``GRAM_JOINER``, so a term of more parts matches no gram."""
        pairs = ((tuple(t.split(GRAM_JOINER)), j) for t, j in self.term_to_index.items())
        return {pair: j for pair, j in pairs if len(pair) == 2}


def check_num_buckets(num_buckets: int) -> None:
    """ValueError unless ``num_buckets`` is a power of two >= 2."""
    if num_buckets < 2 or num_buckets & (num_buckets - 1):
        raise ValueError(f"num_buckets must be a power of two >= 2, got {num_buckets!r}")


def hashing_tf(grams: Sequence[str], num_buckets: int = DEFAULT_NUM_BUCKETS,
               _cache: dict | None = None) -> np.ndarray:
    """The FNV-1a bucket of each gram, in order. ``_cache`` memoizes
    gram -> bucket and is cleared when it fills."""
    check_num_buckets(num_buckets)
    cache = {} if _cache is None else _cache
    buckets = []
    for gram in grams:
        bucket = cache.get(gram)
        if bucket is None:
            if len(cache) >= BUCKET_CACHE_MAX:
                cache.clear()
            bucket = cache[gram] = fnv1a_32(gram) % num_buckets
        buckets.append(bucket)
    return np.array(buckets, dtype=np.int64)


@dataclass
class FeaturePipeline:
    """Fitted vectorization route: the combo, which fixes the n-gram orders
    (``COMBO_ORDERS``) and the route, hashing buckets or a vocabulary, the
    IDF weight per column, and the TF-normalization flag."""

    combo: FeatureCombo
    normalize_tf: bool = True
    min_tf: int = DEFAULT_MIN_TF
    num_buckets: int | None = None
    vocab: Vocabulary | None = None
    idf: np.ndarray | None = None
    _bucket_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def hashing(self) -> bool:
        return self.combo is FeatureCombo.UNI_TFIDF

    @property
    def dim(self) -> int:
        if self.hashing:
            if self.num_buckets is None:
                raise NotFitted("pipeline has no bucket count")
            return self.num_buckets
        if self.vocab is None:
            raise NotFitted("pipeline has no fitted vocabulary")
        return self.vocab.dim

    def _columns(self, token_docs: Sequence[Sequence[str]]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each gram's column (-1 for none) and document, and each document's
        gram count; vocabulary route: one row per order over the token stream."""
        n_tok = np.fromiter(map(len, token_docs), np.int64, len(token_docs))
        docs = np.arange(n_tok.size)
        if self.hashing:  # unigrams only
            cols = hashing_tf(list(chain.from_iterable(token_docs)), self.num_buckets,
                              _cache=self._bucket_cache)
            return cols, np.repeat(docs, n_tok), n_tok
        orders, stream = COMBO_ORDERS[self.combo], list(_token_stream(token_docs))
        lookups = [map(self.vocab.term_to_index.get, stream, repeat(-1)) if n == 1 else
                   chain(map(self.vocab.pair_index.get, zip(stream, stream[1:]), repeat(-1)), (-1,))
                   for n in orders]
        cols = np.fromiter(chain.from_iterable(lookups), np.int64, len(orders) * len(stream))
        lengths = np.maximum(len(orders) * n_tok - orders.count(2), 0)  # n + 1 - k of order k
        return cols.reshape(len(orders), -1), np.repeat(docs, n_tok + 1), lengths

    @staticmethod
    def _counts(cols: np.ndarray, rows: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Distinct ``row * dim + col`` keys of grams with a column, ascending, and counts."""
        keys = rows * dim + cols
        return np.unique(keys[cols >= 0], return_counts=True)

    def _assemble(self, keys: np.ndarray, counts: np.ndarray, lengths: np.ndarray) -> SparseBatch:
        """count * scale * idf per (row, column) key, scale being 1 / grams in
        the document when TF is normalized; entries that come out 0 are dropped."""
        dim = self.dim
        rows, cols = np.divmod(keys, dim)
        scale = 1.0 / np.maximum(lengths, 1) if self.normalize_tf else np.ones(lengths.size)
        values = counts * scale[rows] * self.idf[cols]
        keep = values != 0.0
        indptr = np.searchsorted(rows[keep], np.arange(lengths.size + 1))  # rows ascend
        return SparseBatch(dim, indptr, cols[keep], values[keep])

    def transform_batch(self, token_docs: Sequence[Sequence[str]]) -> SparseBatch:
        """One TF-IDF row per document, in one batch."""
        if self.idf is None:
            raise NotFitted("transform called before fit")
        dim = self.dim
        if self.idf.size != dim:
            raise DimensionMismatch(f"pipeline dim {dim} != idf dim {self.idf.size}")
        cols, rows, lengths = self._columns(token_docs)
        return self._assemble(*self._counts(cols, rows, dim), lengths)

    def transform(self, tokens: Sequence[str]) -> SparseBatch:
        """One TF-IDF row for one document: a batch of one."""
        return self.transform_batch([tokens])


def fit_pipeline(token_docs: Sequence[Sequence[str]], combo: FeatureCombo | str, *,
                 min_tf: int = DEFAULT_MIN_TF, num_buckets: int = DEFAULT_NUM_BUCKETS,
                 normalize_tf: bool = True, vocab_cap: int | None = None
                 ) -> tuple[FeaturePipeline, SparseBatch]:
    """Fit on training documents only; return the pipeline, which transforms
    unseen documents at a fixed dimension, and the documents' batch, equal to
    its ``transform_batch(token_docs)`` and built by the same pass. The
    vocabulary keeps grams seen more than ``min_tf`` times, at most
    ``vocab_cap``, in columns by descending frequency, ties lexicographic;
    ``idf[j] = ln((N + 1) / (df_j + 1))``, df_j the documents holding column j."""
    if vocab_cap is not None and vocab_cap < 1:
        raise ValueError(f"vocab_cap must be >= 1, got {vocab_cap}")
    combo, n_docs = FeatureCombo(combo), len(token_docs)
    pipe = FeaturePipeline(combo=combo, normalize_tf=normalize_tf, min_tf=min_tf)
    if pipe.hashing:
        pipe.num_buckets = num_buckets
    else:  # count every gram by key: its token's id (from 1), or v * first + second
        names = [None, *dict.fromkeys(chain.from_iterable(token_docs))]  # id -> token
        v, tok_id = len(names), dict(zip(names, range(len(names))))
        tok = np.fromiter(map(tok_id.__getitem__, _token_stream(token_docs)), np.int64)
        first, second = tok[:-1], tok[1:]  # id 0, a document's end, is in no gram
        keys = np.concatenate([tok[tok > 0] if n == 1 else
                               (v * first + second)[(first > 0) & (second > 0)]
                               for n in COMBO_ORDERS[combo]])
        del tok_id, tok, first, second
        keys, tf = np.unique(keys, return_counts=True)
        cand = np.flatnonzero(tf > min_tf)
        tf = tf[cand].tolist()
        terms = [names[k] if k < v else f"{names[k // v]}{GRAM_JOINER}{names[k % v]}"
                 for k in keys[cand].tolist()]
        kept = sorted(range(len(terms)), key=lambda i: (-tf[i], terms[i]))[:vocab_cap]
        if not kept:
            raise EmptyVocabulary(f"no gram exceeded min_tf={min_tf} over {n_docs} documents")
        pipe.vocab = Vocabulary({terms[i]: j for j, i in enumerate(kept)}, np.empty(0), n_docs)
        del names, keys, cand, tf, terms  # held past here, they add to the fit's peak RSS
    if not n_docs:
        raise ValueError("fit_pipeline needs at least one document")
    cols, rows, lengths = pipe._columns(token_docs)
    keys, counts = pipe._counts(cols, rows, pipe.dim)
    del cols, rows
    df = np.bincount(keys % pipe.dim, minlength=pipe.dim)
    if not pipe.hashing:
        pipe.vocab.doc_freq = df
    pipe.idf = np.log((n_docs + 1.0) / (df + 1.0))
    return pipe, pipe._assemble(keys, counts, lengths)
