"""Labeled-corpus loading, structural cleanup, and seeded splitting.

A corpus comes from a CSV file with a mandatory header row. Loading drops
rows whose text cell is empty or whitespace, skips rows that are too short
to index (counted, not fatal), and parses labels case-insensitively.
Deduplication and the train/test split are separate, pure steps so the
cleanup report and the split determinism can be tested on their own.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass

from .errors import DegenerateSplit, EmptyCorpus, IoFailure, MissingColumn, UnknownLabel

SUICIDE = "suicide"
NON_SUICIDE = "non-suicide"

LABEL_TO_INT = {SUICIDE: 1, NON_SUICIDE: 0}
INT_TO_LABEL = {1: SUICIDE, 0: NON_SUICIDE}


@dataclass(frozen=True)
class Document:
    """One post: a stable id, the raw text, and an optional gold label."""

    id: str
    text: str
    label: str | None = None


@dataclass
class LoadReport:
    rows_read: int = 0
    dropped_empty: int = 0
    dropped_malformed: int = 0


@dataclass
class CleanupReport:
    duplicates_removed: int = 0
    empty_removed: int = 0


@dataclass
class Corpus:
    documents: list[Document]
    load_report: LoadReport | None = None

    def __len__(self) -> int:
        return len(self.documents)


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 13

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(f"train_fraction must be in (0,1), got {self.train_fraction}")


def _parse_label(raw: str, row_num: int) -> str:
    key = raw.strip().lower()
    if key == SUICIDE:
        return SUICIDE
    if key == NON_SUICIDE:
        return NON_SUICIDE
    raise UnknownLabel(f"row {row_num}: unknown label {raw!r} (expected 'suicide' or 'non-suicide')")


def open_text(path, mode: str = "r", **kwargs):
    """``open`` in UTF-8 text mode; an OS error opening ``path`` is ``IoFailure``."""
    try:
        return open(path, mode, encoding="utf-8", **kwargs)
    except OSError as exc:
        raise IoFailure(f"cannot open {path}: {exc}") from exc


def load_csv(path, text_column: str, label_column: str | None = None) -> Corpus:
    """Load one Document per usable CSV row.

    Rows with an empty/whitespace text cell are dropped and counted; rows
    too short to contain the named columns are skipped as malformed. Any
    label string other than the two known classes is a hard error.
    """
    with open_text(path, errors="replace", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyCorpus(f"{path}: file has no header row") from None

        try:
            text_idx = header.index(text_column)
        except ValueError:
            raise MissingColumn(f"{path}: no column named {text_column!r} in header {header}") from None
        label_idx: int | None = None
        if label_column is not None:
            try:
                label_idx = header.index(label_column)
            except ValueError:
                raise MissingColumn(f"{path}: no column named {label_column!r} in header {header}") from None

        report = LoadReport()
        documents: list[Document] = []
        needed = text_idx if label_idx is None else max(text_idx, label_idx)
        for row_num, row in enumerate(reader, start=1):
            report.rows_read += 1
            if len(row) <= needed:
                report.dropped_malformed += 1
                continue
            text = row[text_idx]
            if not text.strip():
                report.dropped_empty += 1
                continue
            label = _parse_label(row[label_idx], row_num) if label_idx is not None else None
            documents.append(Document(id=f"r{row_num:06d}", text=text, label=label))

    if not documents:
        raise EmptyCorpus(f"{path}: zero usable rows")
    return Corpus(documents=documents, load_report=report)


def normalized_text_key(text: str) -> str:
    """Duplicate-detection key: case-folded, whitespace-collapsed text.
    ``str.split`` splits at exactly the characters ``re``'s ``\\s`` matches."""
    return " ".join(text.casefold().split())


def dedupe_and_clean(corpus: Corpus) -> tuple[Corpus, CleanupReport]:
    """Remove exact duplicates (normalized text, first occurrence wins) and
    any empty rows that slipped past loading. Idempotent."""
    report = CleanupReport()
    seen: set[str] = set()
    kept: list[Document] = []
    for doc in corpus.documents:
        key = normalized_text_key(doc.text)
        if not key:
            report.empty_removed += 1
            continue
        if key in seen:
            report.duplicates_removed += 1
            continue
        seen.add(key)
        kept.append(doc)
    return Corpus(documents=kept, load_report=corpus.load_report), report


def split(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Seeded uniform shuffle, then a size-round(train_fraction * N) prefix.

    Every document lands in exactly one side; the same corpus and seed
    always produce the same split.
    """
    n = len(corpus.documents)
    if n == 0:
        raise EmptyCorpus("cannot split an empty corpus")
    n_train = round(spec.train_fraction * n)
    if n_train <= 0 or n_train >= n:
        raise DegenerateSplit(
            f"fraction {spec.train_fraction} over {n} rows leaves an empty side "
            f"(train={n_train}, test={n - n_train})"
        )
    order = list(range(n))
    random.Random(spec.seed).shuffle(order)
    train_docs = [corpus.documents[i] for i in order[:n_train]]
    test_docs = [corpus.documents[i] for i in order[n_train:]]
    return Corpus(documents=train_docs), Corpus(documents=test_docs)
