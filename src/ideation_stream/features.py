"""Bag-of-n-grams features as rows of one CSR type, ``SparseBatch``.

Two vectorization routes share one smoothed-IDF stage:

* hashing — gram -> FNV-1a bucket, no vocabulary (``uni-tfidf`` combo);
* vocabulary — grams above a corpus-frequency threshold get dense column
  indices ordered by descending frequency (``*-cv-idf`` combos).

``FeaturePipeline.transform_batch`` maps the grams of every document to
columns in one pass, counts each (row, column) pair, optionally rescales by
document length (count / total grams in the document) and applies
``idf = ln((N + 1) / (df + 1))``, all into one ``SparseBatch``;
``transform`` is its batch of one. ``fit_pipeline`` returns the fitted
pipeline and the training documents' batch from one gram pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
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


def ngrams(tokens: Sequence[str], orders: Sequence[int]) -> list[str]:
    """All windows of each order in ``orders``, order-of-n then position order."""
    out: list[str] = []
    for n in orders:
        grams = tokens
        for k in range(1, n):  # windows of k + 1 tokens from windows of k
            grams = [f"{gram}{GRAM_JOINER}{token}" for gram, token in zip(grams, tokens[k:])]
        out.extend(grams)
    return out


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

    def _grams(self, token_docs: Sequence[Sequence[str]]) -> tuple[list[str], np.ndarray]:
        """The grams of all documents in order, and each document's gram count."""
        orders = COMBO_ORDERS[self.combo]
        per_doc = [ngrams(tokens, orders) for tokens in token_docs]
        lengths = np.fromiter(map(len, per_doc), np.int64, len(per_doc))
        return list(chain.from_iterable(per_doc)), lengths

    @staticmethod
    def _counts(cols: np.ndarray, lengths: np.ndarray, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Distinct ``row * dim + col`` keys of grams with a column, ascending, and counts."""
        keys = np.repeat(np.arange(lengths.size) * dim, lengths) + cols
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
        grams, lengths = self._grams(token_docs)
        if self.hashing:
            cols = hashing_tf(grams, dim, _cache=self._bucket_cache)
        else:
            cols = np.fromiter(map(self.vocab.term_to_index.get, grams, repeat(-1)),
                               np.int64, len(grams))
        return self._assemble(*self._counts(cols, lengths, dim), lengths)

    def transform(self, tokens: Sequence[str]) -> SparseBatch:
        """One TF-IDF row for one document: a batch of one."""
        return self.transform_batch([tokens])


def fit_pipeline(token_docs: Sequence[Sequence[str]], combo: FeatureCombo | str, *,
                 min_tf: int = DEFAULT_MIN_TF, num_buckets: int = DEFAULT_NUM_BUCKETS,
                 normalize_tf: bool = True, vocab_cap: int | None = None
                 ) -> tuple[FeaturePipeline, SparseBatch]:
    """Fit on training documents only; return the pipeline, which transforms
    unseen documents at a fixed dimension, and the documents' batch, equal to
    its ``transform_batch(token_docs)``, both from one gram pass. The
    vocabulary keeps grams seen more than ``min_tf`` times, at most
    ``vocab_cap``, in columns by descending frequency, ties lexicographic;
    ``idf[j] = ln((N + 1) / (df_j + 1))``, df_j the documents holding column j."""
    if vocab_cap is not None and vocab_cap < 1:
        raise ValueError(f"vocab_cap must be >= 1, got {vocab_cap}")
    combo, n_docs = FeatureCombo(combo), len(token_docs)
    pipe = FeaturePipeline(combo=combo, normalize_tf=normalize_tf, min_tf=min_tf)
    grams, lengths = pipe._grams(token_docs)
    if pipe.hashing:
        pipe.num_buckets = dim = num_buckets
        cols = hashing_tf(grams, dim, _cache=pipe._bucket_cache)
    else:
        ids: dict[str, int] = {}  # gram -> provisional id, in first-seen order
        gram_ids = np.fromiter((ids.setdefault(g, len(ids)) for g in grams), np.int64, len(grams))
        tf, terms = np.bincount(gram_ids, minlength=len(ids)).tolist(), list(ids)
        kept = sorted((i for i, n in enumerate(tf) if n > min_tf),
                      key=lambda i: (-tf[i], terms[i]))[:vocab_cap]
        if not kept:
            raise EmptyVocabulary(f"no gram exceeded min_tf={min_tf} over {n_docs} documents")
        dim = len(kept)
        column = np.full(len(ids), -1, dtype=np.int64)  # provisional id -> column
        column[kept] = np.arange(dim)
        cols, term_to_index = column[gram_ids], {terms[i]: j for j, i in enumerate(kept)}
        del ids, gram_ids, tf, terms, column
    del grams  # held past here, grams and provisional ids add ~2 MB to train's peak RSS
    if not n_docs:
        raise ValueError("fit_pipeline needs at least one document")
    keys, counts = pipe._counts(cols, lengths, dim)
    df = np.bincount(keys % dim, minlength=dim)
    if not pipe.hashing:
        pipe.vocab = Vocabulary(term_to_index, df, n_docs)
    pipe.idf = np.log((n_docs + 1.0) / (df + 1.0))
    return pipe, pipe._assemble(keys, counts, lengths)
