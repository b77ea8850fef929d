"""Four-stage text normalization: filter, tokenize, stopword removal,
rule-based lemmatization.

The filter stage case-folds, expands contractions, strips URLs and the
``#``/``@`` marks, deletes every remaining non-alphanumeric codepoint, and
collapses whitespace. Lemmatization is table-driven (exception lookup
first, then ordered suffix rules). The shipped tables live in ``data/``;
other tables come in through the ``PreprocessConfig`` constructor.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from importlib import resources

_URL_RE = re.compile(r"(?:https?://|www\.)\S*")
_WS_RE = re.compile(r"\s+")

# Common-word supplement for the language heuristic only; the heuristic
# counts tokens found in stopwords | these.
_COMMON_WORDS = frozenset("""
    am are be do go get got make made say said see know think feel felt want
    need like love hate life live die dead day night time people friend
    family help hope sad happy good bad right wrong thing things way today
    tomorrow never always really one two man woman kid work school home year
""".split())


@dataclass(frozen=True)
class TokenSeq:
    tokens: tuple[str, ...]
    source_id: str = ""

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class PreprocessConfig:
    stopword_list: frozenset[str]
    contraction_table: dict[str, str]
    lemma_exceptions: dict[str, str]
    suffix_rules: list[tuple[str, str, int]]
    _contraction_re: re.Pattern | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        for key in self.contraction_table:
            if key != key.lower():
                raise ValueError(f"contraction key not lowercase: {key!r}")

    def contraction_pattern(self) -> re.Pattern:
        if self._contraction_re is None:
            # longest-first so shouldn't've wins over shouldn't
            keys = sorted(self.contraction_table, key=len, reverse=True)
            pattern = r"\b(?:" + "|".join(re.escape(k) for k in keys) + r")\b"
            self._contraction_re = re.compile(pattern)
        return self._contraction_re

    def digest(self) -> str:
        """Content hash over all four tables, stable across load order."""
        h = hashlib.sha256()
        for word in sorted(self.stopword_list):
            h.update(word.encode("utf-8") + b"\n")
        h.update(b"--contractions--\n")
        for k in sorted(self.contraction_table):
            h.update(f"{k}\t{self.contraction_table[k]}\n".encode("utf-8"))
        h.update(b"--exceptions--\n")
        for k in sorted(self.lemma_exceptions):
            h.update(f"{k}\t{self.lemma_exceptions[k]}\n".encode("utf-8"))
        h.update(b"--suffix-rules--\n")
        for suffix, repl, min_stem in self.suffix_rules:
            h.update(f"{suffix}\t{repl}\t{min_stem}\n".encode("utf-8"))
        return h.hexdigest()

    @classmethod
    def load_default(cls) -> "PreprocessConfig":
        global _DEFAULT_CONFIG
        if _DEFAULT_CONFIG is None:
            data = resources.files("ideation_stream") / "data"
            _DEFAULT_CONFIG = cls(
                stopword_list=_parse_wordlist((data / "stopwords.txt").read_text("utf-8")),
                contraction_table=_parse_pairs((data / "contractions.tsv").read_text("utf-8")),
                lemma_exceptions=_parse_pairs((data / "lemma_exceptions.tsv").read_text("utf-8")),
                suffix_rules=_parse_suffix_rules((data / "suffix_rules.tsv").read_text("utf-8")),
            )
        return _DEFAULT_CONFIG


_DEFAULT_CONFIG: PreprocessConfig | None = None


def _data_lines(text: str):
    for line in text.splitlines():
        line = line.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield line


def _parse_wordlist(text: str) -> frozenset[str]:
    return frozenset(line.strip() for line in _data_lines(text))


def _parse_pairs(text: str) -> dict[str, str]:
    table = {}
    for line in _data_lines(text):
        key, _, value = line.partition("\t")
        table[key] = value
    return table


def _parse_suffix_rules(text: str) -> list[tuple[str, str, int]]:
    rules = []
    for line in _data_lines(text):
        suffix, repl, min_stem = line.split("\t")
        rules.append((suffix, repl, int(min_stem)))
    return rules


def filter_text(raw: str, config: PreprocessConfig) -> str:
    """Case-fold, expand contractions, strip URLs and #/@ marks, delete
    punctuation/symbols, collapse whitespace. May return an empty string."""
    s = raw.casefold()
    s = config.contraction_pattern().sub(lambda m: config.contraction_table[m.group(0)], s)
    s = _URL_RE.sub(" ", s)
    s = s.replace("#", "").replace("@", "")
    # drop punctuation/symbols; codepoints that stay uppercase through
    # casefold (math alphabets etc.) count as symbols, not letters
    s = "".join(ch if (ch.isalnum() and not ch.isupper()) else (" " if ch.isspace() else "")
                for ch in s)
    return " ".join(s.split())


def tokenize(cleaned: str, source_id: str = "") -> TokenSeq:
    return TokenSeq(tokens=tuple(cleaned.split()), source_id=source_id)


def remove_stopwords(seq: TokenSeq, config: PreprocessConfig) -> TokenSeq:
    kept = tuple(t for t in seq.tokens if t not in config.stopword_list)
    return TokenSeq(tokens=kept, source_id=seq.source_id)


def lemmatize_token(token: str, config: PreprocessConfig) -> str:
    hit = config.lemma_exceptions.get(token)
    if hit is not None:
        return hit
    for suffix, repl, min_stem in config.suffix_rules:
        if token.endswith(suffix) and len(token) - len(suffix) >= min_stem:
            return token[: len(token) - len(suffix)] + repl
    return token


def lemmatize(seq: TokenSeq, config: PreprocessConfig) -> TokenSeq:
    return TokenSeq(tokens=tuple(lemmatize_token(t, config) for t in seq.tokens),
                    source_id=seq.source_id)


def preprocess(raw: str, config: PreprocessConfig | None = None, source_id: str = "") -> TokenSeq:
    """Run all four stages in order on one raw text."""
    if config is None:
        config = PreprocessConfig.load_default()
    seq = tokenize(filter_text(raw, config), source_id=source_id)
    return lemmatize(remove_stopwords(seq, config), config)


def looks_english(text: str, config: PreprocessConfig | None = None) -> bool:
    """Crude language gate: at least half the filtered whitespace tokens
    appear in the stopword/common-word inventory. Empty input fails."""
    if config is None:
        config = PreprocessConfig.load_default()
    tokens = filter_text(text, config).split()
    if not tokens:
        return False
    known = config.stopword_list | _COMMON_WORDS
    hits = sum(1 for t in tokens if t in known)
    return hits * 2 >= len(tokens)
