import dataclasses
import sys
import threading

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ideation_stream import preprocess as preprocess_mod
from ideation_stream.preprocess import (PreprocessConfig, filter_text,
                                        lemmatize_token, looks_english,
                                        preprocess)

from oracles import preprocess_reference


@pytest.fixture(scope="module")
def cfg():
    return PreprocessConfig.load_default()


def tables(cfg, stopwords=frozenset(), lemmas=False):
    """A config with the shipped contractions, the given stopwords, and
    the shipped lemma tables only if ``lemmas``."""
    return dataclasses.replace(cfg, stopword_list=frozenset(stopwords),
                               lemma_exceptions=dict(cfg.lemma_exceptions) if lemmas else {},
                               suffix_rules=list(cfg.suffix_rules) if lemmas else [])


class TestFilterText:
    def test_contractions(self, cfg):
        assert filter_text("let's", cfg) == "let us"
        assert filter_text("didn't", cfg) == "did not"

    def test_hand_derived_example(self, cfg):
        assert filter_text("I feel SAD!! https://t.co/x #help", cfg) == "i feel sad help"

    def test_url_variants(self, cfg):
        assert filter_text("see http://a.b/c now", cfg) == "see now"
        assert filter_text("see www.example.com now", cfg) == "see now"

    def test_marks_stripped_words_kept(self, cfg):
        assert filter_text("#help @someone", cfg) == "help someone"

    def test_empty_output_permitted(self, cfg):
        assert filter_text("!!! ???", cfg) == ""

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=60))
    def test_output_charset(self, cfg, raw):
        out = filter_text(raw, cfg)
        assert "  " not in out
        assert out == out.strip()
        for ch in out:
            assert ch == " " or ch.isalnum()
            assert not ch.isupper()


class TestTokenize:
    # no stopwords and no lemma tables: preprocess only splits
    def test_basic(self, cfg):
        assert preprocess("i feel sad", tables(cfg)).tokens == ("i", "feel", "sad")

    def test_empty(self, cfg):
        assert preprocess("", tables(cfg)).tokens == ()

    def test_double_space_collapses(self, cfg):
        assert preprocess("a  b", tables(cfg)).tokens == ("a", "b")


class TestStopwords:
    # the shipped stopwords and no lemma tables
    def test_shipped_list_removes_i_and_to(self, cfg):
        assert preprocess("i want to die", tables(cfg, cfg.stopword_list)).tokens == ("want", "die")

    def test_empty(self, cfg):
        assert preprocess("", tables(cfg, cfg.stopword_list)).tokens == ()

    def test_identity_when_no_stopwords(self, cfg):
        tokens = ("want", "die", "cry")
        assert preprocess(" ".join(tokens), tables(cfg, cfg.stopword_list)).tokens == tokens


class TestLemmatize:
    # expectations come from hand-running the shipped tables
    @pytest.mark.parametrize("token,lemma", [
        ("crying", "cry"),      # ying -> y
        ("feet", "foot"),       # exception table
        ("sad", "sad"),         # no rule fires
        ("studies", "study"),   # ies -> y
        ("dies", "die"),        # plural-s after ies is blocked by min stem
        ("died", "die"),        # exception table
        ("dying", "die"),       # exception table
        ("classes", "class"),   # sses -> ss
        ("class", "class"),     # ss identity shield
        ("watches", "watch"),   # ches -> ch
        ("wishes", "wish"),     # shes -> sh
        ("boxes", "box"),       # xes -> x
        ("houses", "house"),    # plural s
        ("wanted", "want"),     # ed with min stem 4
        ("need", "need"),       # ed blocked: stem too short
        ("feeling", "feel"),    # ing with min stem 4
        ("sing", "sing"),       # ing blocked: stem too short
        ("willing", "willing"),  # identity exception guards the stoplist
    ])
    def test_shipped_table(self, cfg, token, lemma):
        assert lemmatize_token(token, cfg) == lemma

    def test_never_lengthens_and_never_empty(self, cfg):
        tokens = ("crying", "classes", "a1", "x")
        out = preprocess(" ".join(tokens), tables(cfg, lemmas=True))
        assert len(out.tokens) == len(tokens)
        assert all(out.tokens)


class TestFullPipeline:
    def test_want_to_die(self, cfg):
        assert preprocess("I want to die", cfg).tokens == ("want", "die")

    @pytest.mark.parametrize("text", [
        "I want to die",
        "Let's cry, I didn't want this!!",
        "Feeling hopeless... nobody cares #alone https://x.io/1",
        "my life is falling apart and i keep crying",
        "the quick brown foxes jumped over sleeping dogs",
        "RT I can't stop thinking about endings",
        "others said they were willing to help us",
    ])
    def test_idempotent_at_token_level(self, cfg, text):
        once = preprocess(text, cfg)
        again = preprocess(" ".join(once.tokens), cfg)
        assert again.tokens == once.tokens

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz '!.#", max_size=50))
    def test_idempotent_random(self, cfg, text):
        once = preprocess(text, cfg)
        again = preprocess(" ".join(once.tokens), cfg)
        assert again.tokens == once.tokens

    def test_no_stage_emits_empty_tokens(self, cfg):
        out = preprocess("a!!! b### ''' x", cfg)
        assert all(out.tokens)


# words the configs below treat differently, mixed into arbitrary text
_WORDS = ("i", "to", "feel", "feeling", "sad", "crying", "died", "classes", "willing",
          "can't", "shouldn't've", "i'm", "gonna", "#help", "@sam", "https://t.co/x",
          "WWW.x.io", "http", "café", "𝐀")
_TEXTS = st.one_of(st.text(),
                   st.lists(st.one_of(st.sampled_from(_WORDS), st.text(max_size=6)),
                            max_size=12).map(" ".join))


@pytest.fixture(scope="module")
def custom(cfg):
    """Other stopwords and exceptions than the shipped tables: the shipped
    stopwords "i" and "to" get lemmas, the shipped lemma "feel" is dropped."""
    return dataclasses.replace(cfg, stopword_list=frozenset({"feel", "sad", "class"}),
                               lemma_exceptions={"i": "me", "to": "toward", "died": "dead"})


@pytest.fixture(scope="module")
def unshared(cfg):
    """Contraction keys with no character in common, so filter_text never
    skips the contraction pass."""
    return dataclasses.replace(cfg, contraction_table={"gonna": "going to", "i'm": "i am"})


class TestOneLoop:
    # preprocess against the four separate stages of oracles.py; the
    # configs live for the module, so their caches are warm, and each
    # text alternates between them, so an entry cached under one config
    # would show up in another's tokens
    @settings(max_examples=300, deadline=None)
    @given(_TEXTS)
    @example("a\x1cb\x1dc\x1ed\x1ff")
    @example("tab\there\nnew\rline\x0bvt\x0cff\x85nel\xa0nbsp\u2028ls\u3000ideo")
    @example("\x00\x07\x7f ctrl")
    @example("Café NAÏVE über #mood @sam can't stop feeling 😢")
    @example("𝐀𝐁𝐂 abc ⅫⅯ ǅ ß ﬃ İ")
    @example("I'M GONNA see HTTP://T.CO/X and WWW.EXAMPLE.COM, can't wait")
    @example("http and https: are words here, httpfoo www too")
    @example("plain ascii first, then naïve café über 😢 and ascii again")
    def test_matches_four_stage_oracle(self, cfg, custom, unshared, raw):
        for config in (cfg, custom, unshared, cfg, custom, unshared):
            assert preprocess(raw, config).tokens == preprocess_reference(raw, config)

    @pytest.mark.parametrize("table,mark", [
        (None, "'"),  # the shipped table: every key holds an apostrophe
        ({"gonna": "going to", "wanna": "want to"}, "a"),
        ({"gonna": "going to", "i'm": "i am"}, ""),
        ({}, ""),
    ])
    def test_contraction_mark_comes_from_the_table(self, cfg, table, mark):
        config = dataclasses.replace(cfg, contraction_table=(
            dict(cfg.contraction_table) if table is None else table))
        config.contraction_pattern()
        assert config._contraction_mark == mark

    def test_configs_keep_their_own_cache(self, cfg, custom):
        text = "i want to feel sad classes"
        assert preprocess(text, cfg).tokens == ("want", "feel", "sad", "class")
        assert preprocess(text, custom).tokens == ("me", "want", "toward", "class")
        assert custom._lemma_cache is not cfg._lemma_cache

    def test_source_id_kept(self, cfg):
        assert preprocess("i feel sad", cfg, source_id="t1").source_id == "t1"

    def test_cache_bound(self, cfg, monkeypatch):
        texts = ["i want to die", "crying classes feeling sad today", "the quick brown foxes",
                 "didn't sleep, can't eat #tired", "dying studies houses wanted"] * 3
        monkeypatch.setattr(preprocess_mod, "LEMMA_CACHE_MAX", 4)
        bounded = dataclasses.replace(cfg)
        for text in texts:
            assert preprocess(text, bounded).tokens == preprocess_reference(text, cfg)
            assert len(bounded._lemma_cache) <= 4

    def test_keep_memo_bound(self, cfg, monkeypatch):
        texts = ["Café NAÏVE über", "日本語 😢 ß", "𝐀𝐁𝐂 ⅫⅯ ǅ ﬃ", "naïve 日本 can't"] * 3
        monkeypatch.setattr(preprocess_mod, "KEEP_MEMO_MAX", 4)
        bounded = dataclasses.replace(cfg)
        for text in texts:
            assert preprocess(text, bounded).tokens == preprocess_reference(text, cfg)
            assert 0 < len(bounded._keep_memo) <= 4

    def test_shared_cache_under_threads(self, cfg, monkeypatch):
        # the serve loop and a checker thread may share one config; with
        # tiny bounds the caches are cleared while other threads read them
        texts = ["i want to die", "crying classes feeling sad today", "the quick brown foxes",
                 "didn't sleep, can't eat #tired", "dying studies houses wanted",
                 "naïve café über 😢 日本"]
        expected = [preprocess_reference(t, cfg) for t in texts]
        monkeypatch.setattr(preprocess_mod, "LEMMA_CACHE_MAX", 3)
        monkeypatch.setattr(preprocess_mod, "KEEP_MEMO_MAX", 3)
        shared = dataclasses.replace(cfg)
        wrong = []

        def work():
            for _ in range(200):
                for text, want in zip(texts, expected):
                    if preprocess(text, shared).tokens != want:
                        wrong.append(text)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_empty_contraction_table(self, cfg):
        bare = dataclasses.replace(cfg, contraction_table={})
        assert preprocess("i can't feel", bare).tokens == ("cant", "feel")


class TestConfig:
    def test_digest_stable(self, cfg):
        assert cfg.digest() == PreprocessConfig.load_default().digest()
        assert len(cfg.digest()) == 64

    def test_contraction_keys_must_be_lowercase(self):
        with pytest.raises(ValueError):
            PreprocessConfig(stopword_list=frozenset(), contraction_table={"Don'T": "do not"},
                             lemma_exceptions={}, suffix_rules=[])


class TestLanguageHeuristic:
    def test_english_passes(self, cfg):
        assert looks_english("i want to die and i feel sad", cfg)

    def test_non_english_fails(self, cfg):
        assert not looks_english("zxq vbnm qqqq wwww kkkk", cfg)

    def test_empty_fails(self, cfg):
        assert not looks_english("", cfg)
