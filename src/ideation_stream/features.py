"""Bag-of-n-grams features as rows of one CSR type, ``SparseBatch``.

Two vectorization routes share one smoothed-IDF stage:

* hashing — gram -> FNV-1a bucket, no vocabulary (``uni-tfidf`` combo);
* vocabulary — grams above a corpus-frequency threshold get dense column
  indices ordered by descending frequency (``*-cv-idf`` combos).

Raw rows hold counts; the pipeline optionally rescales them by document
length (count / total grams in the document) before applying
``idf = ln((N + 1) / (df + 1))``. A document becomes a one-row batch;
``SparseBatch.stack`` joins rows for the trainers and scorers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class NGramSpec:
    orders: tuple[int, ...] = (1,)
    joiner: str = " "

    def __post_init__(self) -> None:
        if not self.orders:
            raise ValueError("orders must be non-empty")
        if any(n not in (1, 2) for n in self.orders):
            raise ValueError(f"orders must be a subset of {{1, 2}}, got {self.orders}")
        object.__setattr__(self, "orders", tuple(sorted(set(self.orders))))


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

    @classmethod
    def stack(cls, batches: Sequence["SparseBatch"]) -> "SparseBatch":
        """The rows of every batch, in order; all share one dimension."""
        if not batches:
            raise ValueError("stack needs at least one batch")
        dim = batches[0].dim
        if any(b.dim != dim for b in batches):
            raise DimensionMismatch(f"stack needs one dim, got {sorted({b.dim for b in batches})}")
        lens = np.concatenate([np.diff(b.indptr) for b in batches])
        indptr = np.concatenate(([0], np.cumsum(lens)))
        return cls(dim, indptr, np.concatenate([b.indices for b in batches]),
                   np.concatenate([b.values for b in batches]))

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """X @ w for a dense weight vector; each row sums its entries in order."""
        return np.bincount(self.row_ids, weights=self.values * w[self.indices],
                           minlength=self.n_rows)

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """X.T @ r for a dense per-row vector."""
        return np.bincount(self.indices, weights=self.values * r[self.row_ids],
                           minlength=self.dim)


def _one_row(dim: int, counts: Counter) -> SparseBatch:
    cols = sorted(counts)
    return SparseBatch(dim, np.array([0, len(cols)]), np.array(cols, dtype=np.int64),
                       np.array([counts[j] for j in cols], dtype=np.float64))


def ngrams(tokens: Sequence[str], spec: NGramSpec) -> list[str]:
    """All windows of each order, order-of-n then position order."""
    out: list[str] = []
    for n in spec.orders:
        if n == 1:
            out.extend(tokens)
        else:
            out.extend(spec.joiner.join(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
    return out


@dataclass
class Vocabulary:
    term_to_index: dict[str, int]
    doc_freq: np.ndarray
    num_docs: int
    min_tf: int

    @property
    def dim(self) -> int:
        return len(self.term_to_index)

    def terms_by_index(self) -> list[str]:
        out = [""] * self.dim
        for term, j in self.term_to_index.items():
            out[j] = term
        return out


def fit_vocabulary(token_docs: Iterable[Sequence[str]], spec: NGramSpec,
                   min_tf: int = DEFAULT_MIN_TF, max_terms: int | None = None) -> Vocabulary:
    """Keep grams whose corpus-level frequency is strictly greater than
    ``min_tf``; indices run by descending frequency, ties lexicographic."""
    term_freq: Counter[str] = Counter()
    doc_freq: Counter[str] = Counter()
    n_docs = 0
    for tokens in token_docs:
        n_docs += 1
        grams = ngrams(tokens, spec)
        term_freq.update(grams)
        doc_freq.update(set(grams))
    kept = sorted((term for term, tf in term_freq.items() if tf > min_tf),
                  key=lambda t: (-term_freq[t], t))
    if max_terms is not None:
        kept = kept[:max_terms]
    if not kept:
        raise EmptyVocabulary(
            f"no gram exceeded min_tf={min_tf} over {n_docs} documents")
    term_to_index = {term: j for j, term in enumerate(kept)}
    df = np.fromiter((doc_freq[t] for t in kept), dtype=np.int64, count=len(kept))
    return Vocabulary(term_to_index=term_to_index, doc_freq=df,
                      num_docs=n_docs, min_tf=min_tf)


def count_vectorize(grams: Sequence[str], vocab: Vocabulary) -> SparseBatch:
    """One row of in-vocabulary gram counts; out-of-vocabulary grams are ignored."""
    counts: Counter[int] = Counter()
    lookup = vocab.term_to_index
    for gram in grams:
        j = lookup.get(gram)
        if j is not None:
            counts[j] += 1
    return _one_row(vocab.dim, counts)


def check_num_buckets(num_buckets: int) -> None:
    """ValueError unless ``num_buckets`` is a power of two >= 2."""
    if num_buckets < 2 or num_buckets & (num_buckets - 1):
        raise ValueError(f"num_buckets must be a power of two >= 2, got {num_buckets!r}")


def hashing_tf(grams: Sequence[str], num_buckets: int = DEFAULT_NUM_BUCKETS,
               _cache: dict | None = None) -> SparseBatch:
    """One row of counts summed per FNV-1a bucket. ``_cache`` memoizes
    gram -> bucket and is cleared when it fills."""
    check_num_buckets(num_buckets)
    counts: Counter[int] = Counter()
    for gram in grams:
        if _cache is not None:
            bucket = _cache.get(gram)
            if bucket is None:
                if len(_cache) >= BUCKET_CACHE_MAX:
                    _cache.clear()
                bucket = fnv1a_32(gram) % num_buckets
                _cache[gram] = bucket
        else:
            bucket = fnv1a_32(gram) % num_buckets
        counts[bucket] += 1
    return _one_row(num_buckets, counts)


@dataclass
class IdfModel:
    idf: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.idf.size)


def fit_idf(counts: SparseBatch) -> IdfModel:
    """idf[j] = ln((N + 1) / (df_j + 1)) with df counted over nonzero
    columns; never negative, zero only for ubiquitous terms."""
    if not counts.n_rows:
        raise ValueError("fit_idf needs at least one row")
    df = np.bincount(counts.indices, minlength=counts.dim)
    return IdfModel(idf=np.log((counts.n_rows + 1.0) / (df + 1.0)))


def apply_tfidf(counts: SparseBatch, idf: IdfModel, scale: float = 1.0) -> SparseBatch:
    """count * scale * idf per entry; entries that come out zero are dropped."""
    if counts.dim != idf.dim:
        raise DimensionMismatch(f"batch dim {counts.dim} != idf dim {idf.dim}")
    values = counts.values * scale * idf.idf[counts.indices]
    keep = values != 0.0
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return SparseBatch(counts.dim, kept_before[counts.indptr], counts.indices[keep],
                       values[keep])


@dataclass
class FeaturePipeline:
    """Fitted vectorization route: n-gram spec, hashing buckets or a
    vocabulary, the IDF weights, and the TF-normalization flag."""

    combo: FeatureCombo
    ngram: NGramSpec
    normalize_tf: bool = True
    min_tf: int = DEFAULT_MIN_TF
    num_buckets: int | None = None
    vocab: Vocabulary | None = None
    idf: IdfModel | None = None
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

    def _counts(self, grams: list[str]) -> SparseBatch:
        """Raw count row for one document (no TF scaling, no IDF)."""
        dim = self.dim  # raises NotFitted before any gram is counted
        if self.hashing:
            return hashing_tf(grams, dim, _cache=self._bucket_cache)
        return count_vectorize(grams, self.vocab)

    def transform(self, tokens: Sequence[str]) -> SparseBatch:
        """One TF-IDF row for one document."""
        if self.idf is None:
            raise NotFitted("transform called before fit")
        grams = ngrams(tokens, self.ngram)
        scale = 1.0 / len(grams) if self.normalize_tf and grams else 1.0
        return apply_tfidf(self._counts(grams), self.idf, scale)


def fit_pipeline(token_docs: Sequence[Sequence[str]], combo: FeatureCombo | str, *,
                 min_tf: int = DEFAULT_MIN_TF, num_buckets: int = DEFAULT_NUM_BUCKETS,
                 normalize_tf: bool = True, vocab_cap: int | None = None) -> FeaturePipeline:
    """Fit on training documents only; the returned pipeline transforms
    unseen documents at a fixed dimension."""
    combo = FeatureCombo(combo)
    spec = NGramSpec(orders=COMBO_ORDERS[combo])
    pipe = FeaturePipeline(combo=combo, ngram=spec, normalize_tf=normalize_tf, min_tf=min_tf)
    if combo is FeatureCombo.UNI_TFIDF:
        pipe.num_buckets = num_buckets
    else:
        pipe.vocab = fit_vocabulary(token_docs, spec, min_tf=min_tf, max_terms=vocab_cap)
    pipe.idf = fit_idf(SparseBatch.stack([pipe._counts(ngrams(tokens, spec))
                                          for tokens in token_docs]))
    return pipe
