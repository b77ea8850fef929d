import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideation_stream.preprocess import (PreprocessConfig, TokenSeq,
                                        filter_text, lemmatize,
                                        lemmatize_token, looks_english,
                                        preprocess, remove_stopwords,
                                        tokenize)


@pytest.fixture(scope="module")
def cfg():
    return PreprocessConfig.load_default()


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
    def test_basic(self):
        assert tokenize("i feel sad").tokens == ("i", "feel", "sad")

    def test_empty(self):
        assert tokenize("").tokens == ()

    def test_double_space_collapses(self):
        assert tokenize("a  b").tokens == ("a", "b")


class TestStopwords:
    def test_shipped_list_removes_i_and_to(self, cfg):
        seq = TokenSeq(("i", "want", "to", "die"))
        assert remove_stopwords(seq, cfg).tokens == ("want", "die")

    def test_empty(self, cfg):
        assert remove_stopwords(TokenSeq(()), cfg).tokens == ()

    def test_identity_when_no_stopwords(self, cfg):
        seq = TokenSeq(("want", "die", "cry"))
        assert remove_stopwords(seq, cfg).tokens == seq.tokens


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
        seq = TokenSeq(("crying", "classes", "a1", "x"))
        out = lemmatize(seq, cfg)
        assert len(out.tokens) == len(seq.tokens)
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
