"""Text normalization in one pass: filter, split, then one cached lookup
per token that drops stopwords and lemmatizes (exceptions, then suffix rules).

The filter case-folds, expands contractions, strips URLs and deletes every
non-alphanumeric codepoint by the rule ``_keep``: through byte tables built
from it when the text is ASCII, else through a per-config memo of codepoint
-> ``_keep``, cleared at ``KEEP_MEMO_MAX`` entries. The contraction and URL
passes run only when the text holds a character every contraction key
contains, or a URL prefix. Each config caches token -> lemma or stopword,
cleared at ``LEMMA_CACHE_MAX`` entries; an entry depends only on the token
and the tables, so neither cache ever changes a result. Shipped tables live
in ``data/``; others come in through the ``PreprocessConfig`` constructor.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from importlib import resources

_URL_RE = re.compile(r"(?:https?://|www\.)\S*")
LEMMA_CACHE_MAX = 1 << 16  # tokens a config's lemma cache holds before it is cleared
KEEP_MEMO_MAX = 1 << 16  # codepoints a config's keep memo holds before it is cleared
_STOPWORD = object()  # cached in place of a lemma; no lemma is this object

# Common-word supplement for the language heuristic only; the heuristic
# counts tokens found in stopwords | these.
_COMMON_WORDS = frozenset("""
    am are be do go get got make made say said see know think feel felt want
    need like love hate life live die dead day night time people friend
    family help hope sad happy good bad right wrong thing things way today
    tomorrow never always really one two man woman kid work school home year
""".split())


def _keep(ch: str) -> str:
    # drop punctuation/symbols; codepoints that stay uppercase through
    # casefold (math alphabets etc.) count as symbols, not letters
    if ch.isalnum() and not ch.isupper():
        return ch
    return " " if ch.isspace() else ""


# bytes.translate arguments: ASCII bytes _keep deletes, and the byte each other one becomes
_ASCII_DELETE = bytes(i for i in range(128) if not _keep(chr(i)))
_ASCII_TABLE = bytes(ord(_keep(chr(i)) or chr(i)) if i < 128 else i for i in range(256))


class _KeepMemo(dict):
    """codepoint -> ``_keep(chr(codepoint))``, filled by ``str.translate``."""

    def __missing__(self, codepoint: int) -> str:
        if len(self) >= KEEP_MEMO_MAX:
            self.clear()
        kept = self[codepoint] = _keep(chr(codepoint))
        return kept


@dataclass(frozen=True)
class TokenSeq:
    tokens: tuple[str, ...]
    source_id: str = ""


@dataclass
class PreprocessConfig:
    stopword_list: frozenset[str]
    contraction_table: dict[str, str]
    lemma_exceptions: dict[str, str]
    suffix_rules: list[tuple[str, str, int]]
    # built on first use; init=False, so dataclasses.replace never shares them
    _contraction_re: re.Pattern | None = field(default=None, init=False, repr=False, compare=False)
    _contraction_mark: str = field(default="", init=False, repr=False, compare=False)
    _lemma_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _keep_memo: dict = field(default_factory=_KeepMemo, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for key in self.contraction_table:
            if key != key.lower():
                raise ValueError(f"contraction key not lowercase: {key!r}")

    def contraction_pattern(self) -> re.Pattern:
        """The pattern matching any contraction key; builds it and
        ``_contraction_mark``, a character every key holds ("" if none)."""
        if self._contraction_re is None:
            keys = self.contraction_table
            shared = set.intersection(*map(set, keys)) if keys else set()
            self._contraction_mark = min(shared, default="")
            # one branch per first character, so a word boundary tries one branch,
            # and longest-first inside it, so shouldn't've wins over shouldn't
            branches: dict[str, list[str]] = {}
            for key in sorted(self.contraction_table, key=len, reverse=True):
                branches.setdefault(key[:1], []).append(re.escape(key[1:]))
            alts = "|".join(re.escape(first) + "(?:" + "|".join(rests) + ")"
                            for first, rests in branches.items())
            self._contraction_re = re.compile(r"\b(?:" + alts + r")\b" if alts else r"(?!)")
        return self._contraction_re

    def digest(self) -> str:
        """Content hash over all four tables, stable across load order."""
        h = hashlib.sha256()
        for word in sorted(self.stopword_list):
            h.update(word.encode("utf-8") + b"\n")
        for name, table in (("contractions", self.contraction_table),
                            ("exceptions", self.lemma_exceptions)):
            h.update(f"--{name}--\n".encode("utf-8"))
            for k in sorted(table):
                h.update(f"{k}\t{table[k]}\n".encode("utf-8"))
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
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        yield line


def _parse_wordlist(text: str) -> frozenset[str]:
    return frozenset(line.strip() for line in _data_lines(text))


def _parse_pairs(text: str) -> dict[str, str]:
    return dict(line.partition("\t")[::2] for line in _data_lines(text))


def _parse_suffix_rules(text: str) -> list[tuple[str, str, int]]:
    rows = (line.split("\t") for line in _data_lines(text))
    return [(suffix, repl, int(min_stem)) for suffix, repl, min_stem in rows]


def filter_text(raw: str, config: PreprocessConfig) -> str:
    """Case-fold, expand contractions, strip URLs, delete punctuation and
    symbols (#/@ too), collapse whitespace. May return an empty string."""
    return " ".join(_filtered_words(raw, config))


def _filtered_words(raw: str, config: PreprocessConfig) -> list[str]:
    """``filter_text(raw, config).split()``, without the join."""
    s = raw.casefold()
    pattern = config.contraction_pattern()
    if config._contraction_mark in s:  # no key matches without it; "" is in every text
        s = pattern.sub(lambda m: config.contraction_table[m.group(0)], s)
    if "http" in s or "www." in s:  # the prefixes _URL_RE starts with
        s = _URL_RE.sub(" ", s)
    if s.isascii():
        s = s.encode("ascii").translate(_ASCII_TABLE, _ASCII_DELETE).decode("ascii")
    else:
        s = s.translate(config._keep_memo)
    return s.split()


def lemmatize_token(token: str, config: PreprocessConfig) -> str:
    hit = config.lemma_exceptions.get(token)
    if hit is not None:
        return hit
    for suffix, repl, min_stem in config.suffix_rules:
        if token.endswith(suffix) and len(token) - len(suffix) >= min_stem:
            return token[: len(token) - len(suffix)] + repl
    return token


def preprocess(raw: str, config: PreprocessConfig | None = None, source_id: str = "", *,
               filtered: str | None = None) -> TokenSeq:
    """The lemma of every filtered token that is not a stopword, in order.
    ``filtered`` is ``filter_text(raw, config)``, when the caller has it."""
    if config is None:
        config = PreprocessConfig.load_default()
    cache = config._lemma_cache
    lemmas = []
    for token in (_filtered_words(raw, config) if filtered is None else filtered.split()):
        lemma = cache.get(token)
        if lemma is None:
            if len(cache) >= LEMMA_CACHE_MAX:
                cache.clear()
            lemma = cache[token] = (_STOPWORD if token in config.stopword_list
                                    else lemmatize_token(token, config))
        if lemma is not _STOPWORD:
            lemmas.append(lemma)
    return TokenSeq(tokens=tuple(lemmas), source_id=source_id)


def looks_english(text: str, config: PreprocessConfig | None = None, *,
                  filtered: str | None = None) -> bool:
    """Crude language gate: at least half the filtered whitespace tokens
    appear in the stopword/common-word inventory. Empty input fails.
    ``filtered`` is ``filter_text(text, config)``, when the caller has it."""
    if config is None:
        config = PreprocessConfig.load_default()
    tokens = (filter_text(text, config) if filtered is None else filtered).split()
    hits = sum(1 for t in tokens if t in config.stopword_list or t in _COMMON_WORDS)
    return bool(tokens) and hits * 2 >= len(tokens)
