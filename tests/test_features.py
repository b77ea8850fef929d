import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideation_stream.errors import (DimensionMismatch, EmptyVocabulary,
                                    NotFitted)
from ideation_stream.features import (FeatureCombo, FeaturePipeline,
                                      IdfModel, NGramSpec, SparseBatch,
                                      fit_pipeline, fit_vocabulary,
                                      hashing_tf, ngrams)
from ideation_stream.hashutil import fnv1a_32

from conftest import dense, entries, make_vec, same, stack
from oracles import dense_cv_tfidf, dense_hashing_tfidf, fnv1a_32_reference

UNI = NGramSpec((1,))
BI = NGramSpec((2,))
UNIBI = NGramSpec((1, 2))


def counting(docs, combo=FeatureCombo.UNI_CV_IDF, idf=None, **kwargs):
    """A pipeline fitted on ``docs`` with ``min_tf=0`` and no TF scaling,
    whose IDF is ``idf`` (all ones by default): its rows are raw gram
    counts times ``idf``."""
    pipe = fit_pipeline(docs, combo, min_tf=0, normalize_tf=False, **kwargs)
    pipe.idf = IdfModel(np.ones(pipe.dim) if idf is None else np.asarray(idf, dtype=float))
    return pipe


def _from_dense(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, cols = np.nonzero(matrix)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=len(matrix)))))
    return SparseBatch(matrix.shape[1], indptr, cols, matrix[rows, cols])


class TestSparseBatch:
    def test_validation(self):
        one_row = np.array([0, 2])
        with pytest.raises(ValueError):
            SparseBatch(3, one_row, np.array([1, 1]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            SparseBatch(3, one_row, np.array([0, 3]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            SparseBatch(3, np.array([0, 1]), np.array([0]), np.array([0.0]))
        with pytest.raises(ValueError):  # a row's columns go down
            SparseBatch(3, one_row, np.array([2, 1]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):  # indptr does not cover the entries
            SparseBatch(3, np.array([0, 1]), np.array([0, 1]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):  # indptr decreases
            SparseBatch(3, np.array([0, 2, 1, 2]), np.array([0, 1]), np.array([1.0, 2.0]))
        # a column may repeat across rows and restart lower in the next row
        SparseBatch(3, np.array([0, 2, 2, 3]), np.array([1, 2, 0]), np.ones(3))

    def test_take_and_dense(self):
        v = make_vec(5, [(1, 2.0), (4, -1.0)])
        assert dense(v)[0, 1] == 2.0 and dense(v)[0, 0] == 0.0 and dense(v)[0, 4] == -1.0
        assert dense(v)[0].tolist() == [0.0, 2.0, 0.0, 0.0, -1.0]
        batch = stack([make_vec(5, [(3, 1.0)]), make_vec(5, []), v])
        assert batch.n_rows == 3 and batch.indptr.tolist() == [0, 1, 1, 3]
        assert same(batch.take([2]), v)
        assert dense(batch.take([2, 1, 0, 2])).tolist() == \
            [dense(batch)[i].tolist() for i in (2, 1, 0, 2)]
        assert batch.take([]).n_rows == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([0.0, 0.0, 1.0, -2.5, 0.25]), min_size=4,
                             max_size=4), min_size=1, max_size=8),
           st.data())
    def test_rows_and_products_match_dense(self, matrix, data):
        batch = _from_dense(matrix)
        expected = np.array(matrix)
        assert np.array_equal(dense(batch), expected)
        rows = data.draw(st.lists(st.integers(0, len(matrix) - 1), max_size=10))
        assert np.array_equal(dense(batch.take(rows)), expected[rows].reshape(-1, 4))
        w = np.arange(1.0, 5.0)
        r = np.arange(1.0, len(matrix) + 1.0)
        assert np.allclose(batch.matvec(w), expected @ w)
        assert np.allclose(batch.rmatvec(r), expected.T @ r)


class TestNgrams:
    def test_unigram_identity(self):
        assert ngrams(["want", "to", "die"], UNI) == ["want", "to", "die"]

    def test_bigram_windows(self):
        assert ngrams(["want", "to", "die"], BI) == ["want to", "to die"]

    def test_too_short_for_bigrams(self):
        assert ngrams(["a"], BI) == []

    def test_combined_order(self):
        assert ngrams(["a", "b"], UNIBI) == ["a", "b", "a b"]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NGramSpec(())
        with pytest.raises(ValueError):
            NGramSpec((3,))


class TestVocabulary:
    def test_threshold_strictly_greater(self):
        docs = [["die"]] * 5 + [["zebra"]]
        vocab = fit_vocabulary(docs, UNI, min_tf=4)
        assert "die" in vocab.term_to_index and "zebra" not in vocab.term_to_index

    def test_tie_breaks_lexicographic(self):
        docs = [["bee", "ant"], ["ant", "bee"]]
        vocab = fit_vocabulary(docs, UNI, min_tf=0)
        assert vocab.term_to_index == {"ant": 0, "bee": 1}

    def test_ordering_by_descending_frequency(self):
        docs = [["rare"], ["common", "common"], ["common"]]
        vocab = fit_vocabulary(docs, UNI, min_tf=0)
        assert vocab.term_to_index["common"] == 0
        assert vocab.term_to_index["rare"] == 1

    def test_doc_freq_hand_count(self):
        # 3 docs: df(die)=2, df(sad)=2, df(happy)=1 by inspection
        docs = [["die", "sad", "die"], ["sad"], ["die", "happy"]]
        vocab = fit_vocabulary(docs, UNI, min_tf=0)
        df = {t: int(vocab.doc_freq[j]) for t, j in vocab.term_to_index.items()}
        assert df == {"die": 2, "sad": 2, "happy": 1}
        assert vocab.num_docs == 3

    def test_empty_vocabulary(self):
        with pytest.raises(EmptyVocabulary):
            fit_vocabulary([["once"]], UNI, min_tf=4)

    def test_max_terms_cap(self):
        docs = [["a", "b", "c"], ["a", "b"], ["a"]]
        vocab = fit_vocabulary(docs, UNI, min_tf=0, max_terms=2)
        assert set(vocab.term_to_index) == {"a", "b"}


class TestCountVectorize:
    """The vocabulary route's counts: a pipeline with unit IDF and no TF
    scaling transforms to raw in-vocabulary gram counts."""

    def test_counting(self, vec):
        pipe = counting([["die", "die", "sad"]])
        v = pipe.transform_batch([["die", "die", "sad"]])
        assert same(v, vec(2, [(pipe.vocab.term_to_index["die"], 2),
                               (pipe.vocab.term_to_index["sad"], 1)]))

    def test_oov_ignored_dim_preserved(self):
        pipe = counting([["die"]])
        v = pipe.transform_batch([["unknown", "words"]])
        assert v.indices.size == 0 and v.dim == pipe.vocab.dim and v.n_rows == 1

    def test_empty_doc(self):
        v = counting([["die"]]).transform_batch([[]])
        assert v.indices.size == 0 and v.n_rows == 1

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "d", "zz"]), max_size=12))
    def test_counts_invariants(self, grams):
        pipe = counting([["a", "b", "c", "d"]])
        v = pipe.transform_batch([grams])
        seen = sorted({pipe.vocab.term_to_index[g] for g in grams if g != "zz"})
        assert list(v.indices) == seen
        assert all(val != 0 for val in v.values)
        assert dense(v)[0].sum() == sum(g != "zz" for g in grams)


class TestHashingTf:
    """``hashing_tf`` maps grams to buckets; the hashing route counts them."""

    def test_published_fnv_vectors(self):
        # published FNV-1a reference values
        assert fnv1a_32(b"") == 0x811C9DC5
        assert fnv1a_32(b"a") == 0xE40C292C
        assert fnv1a_32(b"foobar") == 0xBF9CF968
        for probe in (b"", b"a", b"foobar", "want to die".encode()):
            assert fnv1a_32(probe) == fnv1a_32_reference(probe)

    def test_additivity(self):
        bucket = fnv1a_32("die") % 16
        assert hashing_tf(["die", "die"], num_buckets=16).tolist() == [bucket, bucket]
        pipe = counting([["die"]], FeatureCombo.UNI_TFIDF, num_buckets=16)
        assert entries(pipe.transform_batch([["die", "die"]])) == [(bucket, 2.0)]

    def test_collision_by_construction(self):
        # find two distinct tokens landing in the same of 2 buckets,
        # using the independent reference hash
        a = "die"
        b = next(w for w in ("sad", "cry", "help", "dark", "rain")
                 if w != a and fnv1a_32_reference(w.encode()) % 2
                 == fnv1a_32_reference(a.encode()) % 2)
        pipe = counting([[a]], FeatureCombo.UNI_TFIDF, num_buckets=2)
        v = pipe.transform_batch([[a, b]])
        assert v.indices.size == 1 and float(v.values[0]) == 2.0

    def test_empty_doc(self):
        assert hashing_tf([], num_buckets=8).size == 0
        pipe = counting([["x"]], FeatureCombo.UNI_TFIDF, num_buckets=8)
        assert pipe.transform_batch([[]]).indices.size == 0

    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            hashing_tf(["x"], num_buckets=12)
        with pytest.raises(ValueError):
            hashing_tf(["x"], num_buckets=1)
        with pytest.raises(ValueError):
            fit_pipeline([["x"]], FeatureCombo.UNI_TFIDF, num_buckets=12)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "dd", "ee"]), max_size=12),
           st.integers(0, 2**32))
    def test_order_invariance(self, tokens, seed):
        rng = np.random.default_rng(seed)
        shuffled = list(tokens)
        rng.shuffle(shuffled)
        pipe = counting([["a"]], FeatureCombo.UNI_TFIDF, num_buckets=8)
        assert same(pipe.transform_batch([tokens]), pipe.transform_batch([shuffled]))


class TestIdf:
    """``fit_pipeline``'s smoothed IDF and how ``transform_batch`` applies it."""

    def test_ubiquitous_term_zero(self):
        pipe = fit_pipeline([["a"], ["a", "a"]], FeatureCombo.UNI_CV_IDF, min_tf=0)
        assert pipe.idf.idf[0] == 0.0

    def test_half_presence(self):
        pipe = fit_pipeline([["a"], []], FeatureCombo.UNI_CV_IDF, min_tf=0)
        assert pipe.idf.idf[0] == pytest.approx(math.log(3 / 2), abs=1e-12)

    def test_unseen_column(self):
        pipe = fit_pipeline([["a"], ["a"]], FeatureCombo.UNI_TFIDF, num_buckets=2)
        unseen = 1 - fnv1a_32("a") % 2
        assert pipe.idf.idf[unseen] == pytest.approx(math.log(3), abs=1e-12)

    def test_apply_scalar_product(self):
        pipe = counting([["a"]], idf=[0.5])
        assert entries(pipe.transform_batch([["a", "a"]])) == [(0, 1.0)]

    def test_apply_drops_zero_idf(self):
        pipe = counting([["a", "a", "b"]], idf=[0.0, 1.0])
        assert entries(pipe.transform_batch([["a", "a", "b"]])) == [(1, 1.0)]

    def test_apply_keeps_rows_when_dropping(self):
        pipe = counting([["a", "a", "b"]], idf=[0.0, 0.5])
        out = pipe.transform_batch([["a", "a"], ["a", "b", "b"], []])
        assert out.indptr.tolist() == [0, 0, 1, 1] and entries(out) == [(1, 1.0)]

    def test_dimension_mismatch(self):
        pipe = counting([["a", "b", "c"]], idf=[1.0])
        with pytest.raises(DimensionMismatch):
            pipe.transform_batch([["a"]])


DOCS = [
    ["want", "to", "die", "want"],
    ["feel", "sad", "to", "die"],
    ["sunny", "day", "feel", "fine"],
    ["want", "sunny", "day"],
]


class TestPipeline:
    def test_hashing_combo_has_no_vocabulary(self):
        pipe = fit_pipeline(DOCS, FeatureCombo.UNI_TFIDF, num_buckets=64, min_tf=0)
        assert pipe.vocab is None and pipe.dim == 64

    def test_unibi_combo_covers_both_orders(self):
        pipe = fit_pipeline(DOCS, FeatureCombo.UNI_BI_CV_IDF, min_tf=0)
        assert pipe.ngram.orders == (1, 2)
        terms = set(pipe.vocab.term_to_index)
        assert "want" in terms and "to die" in terms

    def test_composition_contract_without_normalization(self):
        pipe = fit_pipeline(DOCS, FeatureCombo.UNI_CV_IDF, min_tf=0, normalize_tf=False)
        doc = DOCS[0]
        counts = counting(DOCS).transform_batch([doc])
        values = counts.values * pipe.idf.idf[counts.indices]
        manual = SparseBatch(pipe.dim, [0, np.count_nonzero(values)],
                             counts.indices[values != 0], values[values != 0])
        assert same(pipe.transform(doc), manual)

    def test_normalization_divides_by_gram_count(self):
        plain = fit_pipeline(DOCS, FeatureCombo.UNI_CV_IDF, min_tf=0, normalize_tf=False)
        normed = fit_pipeline(DOCS, FeatureCombo.UNI_CV_IDF, min_tf=0, normalize_tf=True)
        doc = DOCS[0]
        a, b = plain.transform(doc), normed.transform(doc)
        assert np.allclose(a.values / len(doc), b.values)

    def test_transform_pure_and_fit_only_on_train(self):
        pipe = fit_pipeline(DOCS, FeatureCombo.UNI_CV_IDF, min_tf=0)
        dim_before = pipe.dim
        unseen = ["entirely", "new", "words", "die"]
        v1 = pipe.transform(unseen)
        v2 = pipe.transform(unseen)
        assert same(v1, v2)
        assert pipe.dim == dim_before
        assert set(np.asarray(v1.indices)) <= set(range(dim_before))

    def test_not_fitted(self):
        pipe = FeaturePipeline(combo=FeatureCombo.UNI_CV_IDF, ngram=UNI)
        with pytest.raises(NotFitted):
            pipe.transform(["x"])

    @pytest.mark.parametrize("combo,orders", [
        (FeatureCombo.UNI_CV_IDF, (1,)),
        (FeatureCombo.BI_CV_IDF, (2,)),
        (FeatureCombo.UNI_BI_CV_IDF, (1, 2)),
    ])
    @pytest.mark.parametrize("normalize", [True, False])
    def test_matches_dense_oracle(self, combo, orders, normalize):
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(12)]
        docs = [[words[rng.integers(0, len(words))] for _ in range(rng.integers(2, 9))]
                for _ in range(10)]
        pipe = fit_pipeline(docs, combo, min_tf=0, normalize_tf=normalize)
        expected, terms = dense_cv_tfidf(docs, orders, 0, normalize)
        assert pipe.vocab.terms_by_index() == terms
        for i, doc in enumerate(docs):
            assert np.allclose(dense(pipe.transform(doc))[0], expected[i], atol=1e-9)

    @pytest.mark.parametrize("normalize", [True, False])
    def test_hashing_matches_dense_oracle(self, normalize):
        rng = np.random.default_rng(11)
        words = [f"tok{i}" for i in range(9)]
        docs = [[words[rng.integers(0, len(words))] for _ in range(rng.integers(1, 7))]
                for _ in range(8)]
        pipe = fit_pipeline(docs, FeatureCombo.UNI_TFIDF, num_buckets=32,
                            normalize_tf=normalize)
        expected = dense_hashing_tfidf(docs, (1,), 32, normalize)
        for i, doc in enumerate(docs):
            assert np.allclose(dense(pipe.transform(doc))[0], expected[i], atol=1e-9)

    def test_bucket_cache_stays_bounded(self):
        # 70,000 distinct grams through one pipeline, as a long serve sees
        docs = [[f"g{i}_{j}" for j in range(1000)] for i in range(70)]
        pipe = fit_pipeline(docs[:2], FeatureCombo.UNI_TFIDF, num_buckets=1 << 10)
        for doc in docs:
            grams = ngrams(doc, pipe.ngram)
            cols, counts = np.unique(hashing_tf(grams, 1 << 10), return_counts=True)
            values = counts * (1.0 / len(grams)) * pipe.idf.idf[cols]
            uncached = SparseBatch(pipe.dim, [0, np.count_nonzero(values)],
                                   cols[values != 0], values[values != 0])
            assert same(pipe.transform(doc), uncached)
            assert len(pipe._bucket_cache) <= 1 << 16


TOKENS = ["a", "b", "a", "ß", "naïve", "日本", "😢", "want", "to"]


class TestTransformBatch:
    """Row i of ``transform_batch(docs)`` is ``transform(docs[i])`` bit for
    bit and matches the dense oracles; docs may be empty, all out of
    vocabulary, repeat grams or hold non-ASCII tokens."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(TOKENS), max_size=8), min_size=1, max_size=7),
           st.booleans())
    def test_rows_match_one_doc_and_cv_oracle(self, docs, normalize):
        # min_tf=1 leaves every gram seen once out of the vocabulary
        docs = docs + [["a", "a", "b", "a", "b"]]  # keeps the vocabulary non-empty
        pipe = fit_pipeline(docs, FeatureCombo.UNI_BI_CV_IDF, min_tf=1, normalize_tf=normalize)
        expected, terms = dense_cv_tfidf(docs, (1, 2), 1, normalize)
        self._check(pipe, docs, expected)
        assert pipe.vocab.terms_by_index() == terms

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(TOKENS), max_size=8), min_size=1, max_size=7),
           st.sampled_from([2, 4, 8, 16]), st.booleans())
    def test_rows_match_one_doc_and_hashing_oracle(self, docs, buckets, normalize):
        pipe = fit_pipeline(docs, FeatureCombo.UNI_TFIDF, num_buckets=buckets,
                            normalize_tf=normalize)
        self._check(pipe, docs, dense_hashing_tfidf(docs, (1,), buckets, normalize))

    @staticmethod
    def _check(pipe, docs, expected):
        batch = pipe.transform_batch(docs)
        assert batch.n_rows == len(docs)
        for i, doc in enumerate(docs):
            assert same(batch.take([i]), pipe.transform(doc))
        assert np.allclose(dense(batch), expected, rtol=0, atol=1e-9)

    def test_no_docs(self):
        batch = fit_pipeline(DOCS, FeatureCombo.UNI_CV_IDF, min_tf=0).transform_batch([])
        assert batch.n_rows == 0 and batch.indices.size == 0
