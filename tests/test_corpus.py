import csv
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideation_stream.corpus import (Corpus, Document, SplitSpec,
                                    dedupe_and_clean, load_csv,
                                    normalized_text_key, split)
from ideation_stream.errors import (DegenerateSplit, EmptyCorpus,
                                    MissingColumn, UnknownLabel)


def write_csv(path, rows, header=("text", "class")):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


class TestLoadCsv:
    def test_three_rows_parse(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, [("i am sad", "suicide"), ("nice day", "non-suicide"),
                         ("hello", "Suicide")])
        corpus = load_csv(path, "text", "class")
        assert len(corpus) == 3
        assert [d.label for d in corpus.documents] == ["suicide", "non-suicide", "suicide"]
        assert corpus.documents[0].text == "i am sad"

    def test_empty_text_dropped_and_counted(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, [("real text", "suicide"), ("   ", "suicide"),
                         ("more", "non-suicide")])
        corpus = load_csv(path, "text", "class")
        assert len(corpus) == 2
        assert corpus.load_report.dropped_empty == 1

    def test_missing_column(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, [("a", "suicide")])
        with pytest.raises(MissingColumn):
            load_csv(path, "body", "class")
        with pytest.raises(MissingColumn):
            load_csv(path, "text", "label")

    def test_unknown_label_fails_fast(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, [("a", "maybe")])
        with pytest.raises(UnknownLabel):
            load_csv(path, "text", "class")

    def test_labels_case_insensitive(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, [("a", "SUICIDE"), ("b", "Non-Suicide")])
        corpus = load_csv(path, "text", "class")
        assert [d.label for d in corpus.documents] == ["suicide", "non-suicide"]

    def test_zero_usable_rows(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, [("", "suicide")])
        with pytest.raises(EmptyCorpus):
            load_csv(path, "text", "class")

    def test_short_row_is_malformed_not_fatal(self, tmp_path):
        path = tmp_path / "c.csv"
        with open(path, "w", newline="") as fh:
            fh.write("text,class\nok,suicide\nlonely-cell\n")
        corpus = load_csv(path, "text", "class")
        assert len(corpus) == 1
        assert corpus.load_report.dropped_malformed == 1

    def test_text_without_labels(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, [("a", ""), ("b", "")])
        corpus = load_csv(path, "text")
        assert all(d.label is None for d in corpus.documents)

    def test_invalid_utf8_replaced_not_fatal(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_bytes(b"text,class\nhello \xff world,suicide\n")
        corpus = load_csv(path, "text", "class")
        assert len(corpus) == 1

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.csv"
        write_csv(path, [("one, with comma", "suicide"), ('quote " inside', "non-suicide")])
        corpus = load_csv(path, "text", "class")
        out = tmp_path / "copy.csv"
        write_csv(out, [(d.text, d.label) for d in corpus.documents])
        again = load_csv(out, "text", "class")
        assert again.documents == corpus.documents


class TestDedupe:
    def test_exact_duplicate_first_wins(self):
        corpus = Corpus([Document("a", "I am sad"), Document("b", "i AM   sad"),
                         Document("c", "other")])
        cleaned, report = dedupe_and_clean(corpus)
        assert [d.id for d in cleaned.documents] == ["a", "c"]
        assert report.duplicates_removed == 1

    def test_no_duplicates_identity(self):
        corpus = Corpus([Document("a", "x"), Document("b", "y")])
        cleaned, report = dedupe_and_clean(corpus)
        assert cleaned.documents == corpus.documents
        assert report.duplicates_removed == 0 and report.empty_removed == 0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.text(alphabet="ab ", min_size=1, max_size=6), min_size=1, max_size=20))
    def test_idempotent(self, texts):
        corpus = Corpus([Document(str(i), t) for i, t in enumerate(texts)])
        once, _ = dedupe_and_clean(corpus)
        twice, report = dedupe_and_clean(once)
        assert twice.documents == once.documents
        assert report.duplicates_removed == report.empty_removed == 0


EVERY_CODE_POINT = "".join(map(chr, range(sys.maxunicode + 1)))
WHITESPACE = "".join(c for c in EVERY_CODE_POINT if c.isspace())


class TestNormalizedTextKey:
    def test_regex_whitespace_is_str_whitespace_on_every_code_point(self):
        assert "".join(re.findall(r"\s", EVERY_CODE_POINT)) == WHITESPACE
        assert len(WHITESPACE) > 20  # the Unicode spaces, not just ASCII

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=WHITESPACE + "aBß\u0130\u03a3", max_size=30))
    def test_matches_the_regex_key(self, text):
        assert normalized_text_key(text) == re.sub(r"\s+", " ", text.casefold()).strip()

    def test_every_whitespace_character_collapses(self):
        text = f"{WHITESPACE}I{WHITESPACE}AM" + "sad".join(WHITESPACE)
        assert normalized_text_key(text) == re.sub(r"\s+", " ", text.casefold()).strip()
        assert normalized_text_key(text) == "i am" + " sad" * (len(WHITESPACE) - 1)


class TestSplit:
    def _corpus(self, n):
        return Corpus([Document(str(i), f"text {i}") for i in range(n)])

    def test_sizes_and_partition(self):
        corpus = self._corpus(10)
        train, test = split(corpus, SplitSpec(0.8, seed=1))
        assert (len(train), len(test)) == (8, 2)
        ids = {d.id for d in train.documents} | {d.id for d in test.documents}
        assert ids == {d.id for d in corpus.documents}
        assert not ({d.id for d in train.documents} & {d.id for d in test.documents})

    def test_deterministic(self):
        corpus = self._corpus(50)
        a = split(corpus, SplitSpec(0.8, seed=99))
        b = split(corpus, SplitSpec(0.8, seed=99))
        assert a[0].documents == b[0].documents and a[1].documents == b[1].documents
        c = split(corpus, SplitSpec(0.8, seed=100))
        assert c[0].documents != a[0].documents

    def test_degenerate(self):
        with pytest.raises(DegenerateSplit):
            split(self._corpus(3), SplitSpec(0.1, seed=1))
        with pytest.raises(DegenerateSplit):
            split(self._corpus(3), SplitSpec(0.99, seed=1))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(3, 60), seed=st.integers(0, 2**32),
           frac=st.floats(0.2, 0.8))
    def test_partition_property(self, n, seed, frac):
        corpus = self._corpus(n)
        n_train = round(frac * n)
        if n_train <= 0 or n_train >= n:
            return
        train, test = split(corpus, SplitSpec(frac, seed=seed))
        assert len(train) == n_train
        train_ids = {d.id for d in train.documents}
        test_ids = {d.id for d in test.documents}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {d.id for d in corpus.documents}
