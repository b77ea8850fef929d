"""Sparse bag-of-n-grams features.

Two vectorization routes share one smoothed-IDF stage:

* hashing — gram -> FNV-1a bucket, no vocabulary (``uni-tfidf`` combo);
* vocabulary — grams above a corpus-frequency threshold get dense column
  indices ordered by descending frequency (``*-cv-idf`` combos).

Raw vectors hold counts; the pipeline optionally rescales them by document
length (count / total grams in the document) before applying
``idf = ln((N + 1) / (df + 1))``.
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
class SparseVector:
    """Sorted (index, value) pairs over a fixed dimension; no stored zeros."""

    dim: int
    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        val = np.asarray(self.values, dtype=np.float64)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices and values must be parallel 1-D arrays")
        if idx.size:
            if np.any(np.diff(idx) <= 0):
                raise ValueError("indices must be strictly increasing")
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise ValueError(f"index out of range for dim {self.dim}")
            if np.any(val == 0.0):
                raise ValueError("zero values must not be stored")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    @classmethod
    def from_counts(cls, dim: int, counts: dict[int, float]) -> "SparseVector":
        items = sorted((j, v) for j, v in counts.items() if v != 0.0)
        idx = np.fromiter((j for j, _ in items), dtype=np.int64, count=len(items))
        val = np.fromiter((v for _, v in items), dtype=np.float64, count=len(items))
        return cls(dim=dim, indices=idx, values=val)

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def entries(self) -> list[tuple[int, float]]:
        return list(zip(self.indices.tolist(), self.values.tolist()))

    def get(self, j: int) -> float:
        pos = np.searchsorted(self.indices, j)
        if pos < self.indices.size and self.indices[pos] == j:
            return float(self.values[pos])
        return 0.0

    def scaled(self, factor: float) -> "SparseVector":
        if factor == 0.0:
            return SparseVector(self.dim, np.empty(0, np.int64), np.empty(0, np.float64))
        return SparseVector(self.dim, self.indices, self.values * factor)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.dim, dtype=np.float64)
        dense[self.indices] = self.values
        return dense

    def __eq__(self, other) -> bool:
        return (isinstance(other, SparseVector) and self.dim == other.dim
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.values, other.values))


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


def count_vectorize(grams: Sequence[str], vocab: Vocabulary) -> SparseVector:
    """Counts of in-vocabulary grams; out-of-vocabulary grams are ignored."""
    counts: Counter[int] = Counter()
    lookup = vocab.term_to_index
    for gram in grams:
        j = lookup.get(gram)
        if j is not None:
            counts[j] += 1
    return SparseVector.from_counts(vocab.dim, counts)


def hashing_tf(grams: Sequence[str], num_buckets: int = DEFAULT_NUM_BUCKETS,
               _cache: dict | None = None) -> SparseVector:
    """Counts summed per FNV-1a bucket. num_buckets must be a power of two.
    ``_cache`` memoizes gram -> bucket and is cleared when it fills."""
    if num_buckets < 2 or num_buckets & (num_buckets - 1):
        raise ValueError(f"num_buckets must be a power of two >= 2, got {num_buckets}")
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
    return SparseVector.from_counts(num_buckets, counts)


@dataclass
class IdfModel:
    idf: np.ndarray

    @property
    def dim(self) -> int:
        return int(self.idf.size)


def fit_idf(vectors: Sequence[SparseVector]) -> IdfModel:
    """idf[j] = ln((N + 1) / (df_j + 1)) with df counted over nonzero
    columns; never negative, zero only for ubiquitous terms."""
    if not vectors:
        raise ValueError("fit_idf needs at least one vector")
    dim = vectors[0].dim
    df = np.zeros(dim, dtype=np.int64)
    for vec in vectors:
        if vec.dim != dim:
            raise DimensionMismatch(f"vector dim {vec.dim} != {dim}")
        df[vec.indices] += 1
    idf = np.log((len(vectors) + 1.0) / (df + 1.0))
    return IdfModel(idf=idf)


def apply_tfidf(vec: SparseVector, idf: IdfModel) -> SparseVector:
    if vec.dim != idf.dim:
        raise DimensionMismatch(f"vector dim {vec.dim} != idf dim {idf.dim}")
    values = vec.values * idf.idf[vec.indices]
    keep = values != 0.0
    return SparseVector(vec.dim, vec.indices[keep], values[keep])


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

    def _counts(self, grams: list[str]) -> SparseVector:
        """Raw count vector for one document (no TF scaling, no IDF)."""
        dim = self.dim  # raises NotFitted before any gram is counted
        if self.hashing:
            return hashing_tf(grams, dim, _cache=self._bucket_cache)
        return count_vectorize(grams, self.vocab)

    def transform(self, tokens: Sequence[str]) -> SparseVector:
        if self.idf is None:
            raise NotFitted("transform called before fit")
        grams = ngrams(tokens, self.ngram)
        raw = self._counts(grams)
        if self.normalize_tf and grams:
            raw = raw.scaled(1.0 / len(grams))
        return apply_tfidf(raw, self.idf)


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
    counts = [pipe._counts(ngrams(tokens, spec)) for tokens in token_docs]
    pipe.idf = fit_idf(counts)
    return pipe
