import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ideation_stream import store
from ideation_stream.classifiers import train_nb
from ideation_stream.errors import (CorruptPayload, DimensionMismatch, EmptyVocabulary,
                                    NotFitted)
from ideation_stream.features import (COMBO_ORDERS, FeatureCombo, FeaturePipeline,
                                      SparseBatch, Vocabulary, fit_pipeline, hashing_tf)
from ideation_stream.hashutil import fnv1a_32

from conftest import dense, entries, make_vec, random_sparse_dataset, same, stack
from oracles import (dense_cv_tfidf, dense_hashing_tfidf, fnv1a_32_reference, ngrams,
                     ngrams_reference, string_route_batch, string_route_fit)

UNI = (1,)
BI = (2,)
UNIBI = (1, 2)
TOKENS = ["a", "b", "a", "ß", "naïve", "日本", "😢", "want", "to"]


def counting(docs, combo=FeatureCombo.UNI_CV_IDF, idf=None, **kwargs):
    """A pipeline fitted on ``docs`` with ``min_tf=0`` and no TF scaling,
    whose IDF is ``idf`` (all ones by default): its rows are raw gram
    counts times ``idf``."""
    pipe, _ = fit_pipeline(docs, combo, min_tf=0, normalize_tf=False, **kwargs)
    pipe.idf = np.ones(pipe.dim) if idf is None else np.asarray(idf, dtype=float)
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

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(TOKENS), max_size=8),
           st.sampled_from([UNI, BI, UNIBI, (3,), (1, 2, 3)]))
    def test_matches_reference(self, tokens, orders):
        assert ngrams(tokens, orders) == ngrams_reference(tokens, orders)
        assert ngrams(tuple(tokens), orders) == ngrams_reference(tokens, orders)


def fit_vocab(docs, **kwargs):
    """The vocabulary of a unigram pipeline fitted on ``docs``."""
    return fit_pipeline(docs, FeatureCombo.UNI_CV_IDF, **kwargs)[0].vocab


class TestVocabulary:
    def test_threshold_strictly_greater(self):
        docs = [["die"]] * 5 + [["zebra"]]
        vocab = fit_vocab(docs, min_tf=4)
        assert "die" in vocab.term_to_index and "zebra" not in vocab.term_to_index

    def test_tie_breaks_lexicographic(self):
        docs = [["bee", "ant"], ["ant", "bee"]]
        vocab = fit_vocab(docs, min_tf=0)
        assert vocab.term_to_index == {"ant": 0, "bee": 1}

    def test_ordering_by_descending_frequency(self):
        docs = [["rare"], ["common", "common"], ["common"]]
        vocab = fit_vocab(docs, min_tf=0)
        assert vocab.term_to_index["common"] == 0
        assert vocab.term_to_index["rare"] == 1

    def test_doc_freq_hand_count(self):
        # 3 docs: df(die)=2, df(sad)=2, df(happy)=1 by inspection
        docs = [["die", "sad", "die"], ["sad"], ["die", "happy"]]
        vocab = fit_vocab(docs, min_tf=0)
        df = {t: int(vocab.doc_freq[j]) for t, j in vocab.term_to_index.items()}
        assert df == {"die": 2, "sad": 2, "happy": 1}
        assert vocab.num_docs == 3

    def test_empty_vocabulary(self):
        with pytest.raises(EmptyVocabulary):
            fit_vocab([["once"]], min_tf=4)
        with pytest.raises(EmptyVocabulary):  # no documents: no gram passes either
            fit_vocab([], min_tf=0)

    def test_max_terms_cap(self):
        docs = [["a", "b", "c"], ["a", "b"], ["a"]]
        vocab = fit_vocab(docs, min_tf=0, vocab_cap=2)
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
        pipe, _ = fit_pipeline([["a"], ["a", "a"]], FeatureCombo.UNI_CV_IDF, min_tf=0)
        assert pipe.idf[0] == 0.0

    def test_half_presence(self):
        pipe, _ = fit_pipeline([["a"], []], FeatureCombo.UNI_CV_IDF, min_tf=0)
        assert pipe.idf[0] == pytest.approx(math.log(3 / 2), abs=1e-12)

    def test_unseen_column(self):
        pipe, _ = fit_pipeline([["a"], ["a"]], FeatureCombo.UNI_TFIDF, num_buckets=2)
        unseen = 1 - fnv1a_32("a") % 2
        assert pipe.idf[unseen] == pytest.approx(math.log(3), abs=1e-12)

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
        pipe, _ = fit_pipeline(DOCS, FeatureCombo.UNI_TFIDF, num_buckets=64, min_tf=0)
        assert pipe.vocab is None and pipe.dim == 64
        with pytest.raises(ValueError):  # nothing to fit the IDF on
            fit_pipeline([], FeatureCombo.UNI_TFIDF, num_buckets=64)

    def test_unibi_combo_covers_both_orders(self):
        pipe, _ = fit_pipeline(DOCS, FeatureCombo.UNI_BI_CV_IDF, min_tf=0)
        assert COMBO_ORDERS[pipe.combo] == (1, 2)
        terms = set(pipe.vocab.term_to_index)
        assert "want" in terms and "to die" in terms

    def test_composition_contract_without_normalization(self):
        pipe, _ = fit_pipeline(DOCS, FeatureCombo.UNI_CV_IDF, min_tf=0, normalize_tf=False)
        doc = DOCS[0]
        counts = counting(DOCS).transform_batch([doc])
        values = counts.values * pipe.idf[counts.indices]
        manual = SparseBatch(pipe.dim, [0, np.count_nonzero(values)],
                             counts.indices[values != 0], values[values != 0])
        assert same(pipe.transform(doc), manual)

    def test_normalization_divides_by_gram_count(self):
        plain, _ = fit_pipeline(DOCS, FeatureCombo.UNI_CV_IDF, min_tf=0, normalize_tf=False)
        normed, _ = fit_pipeline(DOCS, FeatureCombo.UNI_CV_IDF, min_tf=0, normalize_tf=True)
        doc = DOCS[0]
        a, b = plain.transform(doc), normed.transform(doc)
        assert np.allclose(a.values / len(doc), b.values)

    def test_transform_pure_and_fit_only_on_train(self):
        pipe, _ = fit_pipeline(DOCS, FeatureCombo.UNI_CV_IDF, min_tf=0)
        dim_before = pipe.dim
        unseen = ["entirely", "new", "words", "die"]
        v1 = pipe.transform(unseen)
        v2 = pipe.transform(unseen)
        assert same(v1, v2)
        assert pipe.dim == dim_before
        assert set(np.asarray(v1.indices)) <= set(range(dim_before))

    def test_not_fitted(self):
        pipe = FeaturePipeline(combo=FeatureCombo.UNI_CV_IDF)
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
        pipe, _ = fit_pipeline(docs, combo, min_tf=0, normalize_tf=normalize)
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
        pipe, _ = fit_pipeline(docs, FeatureCombo.UNI_TFIDF, num_buckets=32,
                               normalize_tf=normalize)
        expected = dense_hashing_tfidf(docs, (1,), 32, normalize)
        for i, doc in enumerate(docs):
            assert np.allclose(dense(pipe.transform(doc))[0], expected[i], atol=1e-9)

    def test_bucket_cache_stays_bounded(self):
        # 70,000 distinct grams through one pipeline, as a long serve sees
        docs = [[f"g{i}_{j}" for j in range(1000)] for i in range(70)]
        pipe, _ = fit_pipeline(docs[:2], FeatureCombo.UNI_TFIDF, num_buckets=1 << 10)
        for doc in docs:
            grams = ngrams(doc, UNI)
            cols, counts = np.unique(hashing_tf(grams, 1 << 10), return_counts=True)
            values = counts * (1.0 / len(grams)) * pipe.idf[cols]
            uncached = SparseBatch(pipe.dim, [0, np.count_nonzero(values)],
                                   cols[values != 0], values[values != 0])
            assert same(pipe.transform(doc), uncached)
            assert len(pipe._bucket_cache) <= 1 << 16


class TestTransformBatch:
    """Row i of ``transform_batch(docs)`` is ``transform(docs[i])`` bit for
    bit and matches the dense oracles; docs may be empty, all out of
    vocabulary, repeat grams or hold non-ASCII tokens."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(TOKENS), max_size=8), min_size=1, max_size=7),
           st.sampled_from([FeatureCombo.UNI_CV_IDF, FeatureCombo.BI_CV_IDF,
                            FeatureCombo.UNI_BI_CV_IDF]),
           st.booleans())
    def test_rows_match_one_doc_and_cv_oracle(self, docs, combo, normalize):
        # min_tf=1 leaves every gram seen once out of the vocabulary; the
        # last doc repeats the bigram "a b" and keeps the vocabulary non-empty
        docs = docs + [[], ["want"], ["a", "a", "b", "a", "b"]]
        pipe, _ = fit_pipeline(docs, combo, min_tf=1, normalize_tf=normalize)
        expected, terms = dense_cv_tfidf(docs, COMBO_ORDERS[combo], 1, normalize)
        self._check(pipe, docs, expected)
        assert pipe.vocab.terms_by_index() == terms

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(TOKENS), max_size=8), min_size=1, max_size=7),
           st.sampled_from([2, 4, 8, 16]), st.booleans())
    def test_rows_match_one_doc_and_hashing_oracle(self, docs, buckets, normalize):
        pipe, _ = fit_pipeline(docs, FeatureCombo.UNI_TFIDF, num_buckets=buckets,
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
        batch = fit_pipeline(DOCS, FeatureCombo.UNI_CV_IDF, min_tf=0)[0].transform_batch([])
        assert batch.n_rows == 0 and batch.indices.size == 0


class TestFitBatch:
    """``fit_pipeline``'s training batch is ``transform_batch`` of the
    returned pipeline on the same documents, arrays and dtypes alike, and
    its ``doc_freq`` is the number of documents holding each term."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from(TOKENS), max_size=8), min_size=1, max_size=7),
           st.sampled_from(list(FeatureCombo)), st.booleans(),
           st.sampled_from([None, 1, 3]))
    def test_fit_batch_equals_transform_batch(self, docs, combo, normalize, vocab_cap):
        docs = docs + [["a", "a", "b", "a", "b"]]  # keeps the vocabulary non-empty
        pipe, batch = fit_pipeline(docs, combo, min_tf=1, num_buckets=16,
                                   normalize_tf=normalize, vocab_cap=vocab_cap)
        again = pipe.transform_batch(docs)
        for name in ("indptr", "indices", "values"):
            got, want = getattr(batch, name), getattr(again, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        if pipe.hashing:
            doc_cols = [set(hashing_tf(ngrams(doc, COMBO_ORDERS[combo]), 16).tolist())
                        for doc in docs]
        else:
            assert vocab_cap is None or pipe.vocab.dim <= vocab_cap
            lookup = pipe.vocab.term_to_index
            doc_cols = [{lookup[g] for g in ngrams(doc, COMBO_ORDERS[combo]) if g in lookup}
                        for doc in docs]
        df = np.array([sum(j in cols for cols in doc_cols) for j in range(pipe.dim)])
        if not pipe.hashing:
            assert pipe.vocab.doc_freq.tolist() == df.tolist()
        assert np.array_equal(pipe.idf, np.log((len(docs) + 1.0) / (df + 1.0)))


CV_COMBOS = [FeatureCombo.UNI_CV_IDF, FeatureCombo.BI_CV_IDF, FeatureCombo.UNI_BI_CV_IDF]
WORDS = ["a", "b", "c", "", "ß", "日本", "😢"]  # "" is a token too, as far as features go


def assert_csr(batch, arrays):
    """``batch`` holds exactly the oracle's (indptr, indices, values)."""
    for got, want in zip((batch.indptr, batch.indices, batch.values), arrays):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def saved_and_loaded(pipe, tmp_path):
    """``pipe`` after a ``store.save`` / ``store.load`` round trip."""
    data = random_sparse_dataset(np.random.default_rng(0), 20, pipe.dim, density=0.5)
    store.save(pipe, train_nb(data), tmp_path / "m.isp")
    return store.load(tmp_path / "m.isp")[0]


class TestTokenIdRoute:
    """The vocabulary route, which keys grams by token ids, gives what the
    string route (``oracles.string_route_fit``) gives, bit for bit: the
    vocabulary in column order, ``doc_freq``, the IDF, the training batch
    and the batch of any documents, out-of-vocabulary tokens included."""

    @settings(max_examples=200, deadline=None)
    @given(docs=st.lists(st.lists(st.sampled_from(WORDS), max_size=6), min_size=1, max_size=8),
           unseen=st.lists(st.lists(st.sampled_from(WORDS + ["oov", "a b"]), max_size=6),
                           max_size=4),
           combo=st.sampled_from(CV_COMBOS), min_tf=st.sampled_from([0, 1, 2]),
           vocab_cap=st.sampled_from([None, 1, 2, 5]), normalize=st.booleans())
    # empty and one-token documents; "b" and "c" occur only inside the kept "b c"
    @example(docs=[[], ["a"], ["b", "c", "a"], ["b", "c"], []], unseen=[["c", "b"], ["a"], []],
             combo=FeatureCombo.BI_CV_IDF, min_tf=1, vocab_cap=None, normalize=True)
    @example(docs=[["a", "b"], ["a", "b"], ["a"]], unseen=[["oov", "a", "b", "oov"]],
             combo=FeatureCombo.UNI_BI_CV_IDF, min_tf=0, vocab_cap=2, normalize=False)
    def test_matches_string_route(self, docs, unseen, combo, min_tf, vocab_cap, normalize):
        orders = COMBO_ORDERS[combo]
        terms, df, idf, fitted = string_route_fit(docs, orders, min_tf, vocab_cap, normalize)
        kwargs = {"min_tf": min_tf, "vocab_cap": vocab_cap, "normalize_tf": normalize}
        if not terms:
            with pytest.raises(EmptyVocabulary):
                fit_pipeline(docs, combo, **kwargs)
            return
        pipe, batch = fit_pipeline(docs, combo, **kwargs)
        assert list(pipe.vocab.term_to_index.items()) == list(terms.items())
        assert pipe.vocab.doc_freq.tolist() == df.tolist()
        assert pipe.idf.tobytes() == idf.tobytes()
        assert_csr(batch, fitted)
        everything = docs + unseen
        together = pipe.transform_batch(everything)
        assert_csr(together, string_route_batch(terms, idf, orders, normalize, everything))
        assert_csr(pipe.transform_batch(unseen), string_route_batch(terms, idf, orders,
                                                                    normalize, unseen))
        for i, doc in enumerate(everything):  # a one-document batch is that row of a batch
            assert same(pipe.transform(doc), together.take([i]))

    @pytest.mark.parametrize("combo", CV_COMBOS)
    def test_same_batches_after_a_store_round_trip(self, tmp_path, combo):
        docs = [["want", "to", "die"], ["want", "to", "go"], ["to", "die", "for"], ["die"]]
        pipe, _ = fit_pipeline(docs, combo, min_tf=0)
        loaded = saved_and_loaded(pipe, tmp_path)
        unseen = [["want", "to", "die", "alone"], [], ["go", "to"], ["die"]]
        assert same(loaded.transform_batch(unseen), pipe.transform_batch(unseen))
        assert_csr(loaded.transform_batch(unseen),
                   string_route_batch(pipe.vocab.term_to_index, pipe.idf, COMBO_ORDERS[combo],
                                      True, unseen))

    @pytest.mark.parametrize("combo", CV_COMBOS)
    @pytest.mark.parametrize("normalize", [True, False])
    def test_hostile_terms_transform_as_the_string_route(self, tmp_path, combo, normalize):
        # a term of no gram's shape matches what the string route matches: nothing,
        # except that "" and a pair holding "" meet tokens that are ""
        terms = ["a", "", " a", "a ", " ", "a  b", "a b c", "a b", "b", "a\tb"]
        vocab = Vocabulary({t: j for j, t in enumerate(terms)},
                           np.arange(1, len(terms) + 1), num_docs=12)
        pipe = FeaturePipeline(combo=combo, normalize_tf=normalize, vocab=vocab,
                               idf=np.linspace(0.5, 2.0, len(terms)))
        loaded = saved_and_loaded(pipe, tmp_path)
        docs = [["a", "b", "c"], ["", "a"], ["a", ""], ["", ""], ["a", "b", "a", "b"], [],
                ["a"], ["a", "", "b"], ["b", "a", "b", "c"], ["a\tb"]]
        want = string_route_batch(loaded.vocab.term_to_index, loaded.idf, COMBO_ORDERS[combo],
                                  normalize, docs)
        assert_csr(loaded.transform_batch(docs), want)

    def test_malformed_vocabulary_is_still_corrupt_payload(self, tmp_path):
        # the newline-joined terms section reads back as the duplicates "a", "a"
        vocab = Vocabulary({"a": 0, "a\na": 1}, np.ones(2, dtype=np.int64), num_docs=3)
        pipe = FeaturePipeline(combo=FeatureCombo.UNI_CV_IDF, vocab=vocab, idf=np.ones(2))
        with pytest.raises(CorruptPayload):
            saved_and_loaded(pipe, tmp_path)
