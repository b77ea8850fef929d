"""Print sha256 digests of filtered text, tokens and feature batches, one
JSON line each.

Over ``gen.feed_posts(901, 10000)`` and ``gen.labeled_posts(5, 2000)``,
for the shipped preprocess config and for one whose contraction keys
share no character (the shipped table plus ``gonna``), prints the digest
of every ``filter_text`` output and of every ``preprocess`` token tuple.
Then, for three feature combos, fits a pipeline on the labeled tokens
and prints the digest of the CSR arrays of the fit batch and of
``transform_batch`` over the feed tokens.

The package comes from ``PYTHONPATH`` (the generator from this script's
checkout), so that one copy of this script can check another checkout's
preprocess and features; point it at each checkout's ``src`` and diff the
output to see whether a change moves a token or a feature byte:

    PYTHONPATH=src python3 tools/token_digests.py > token-digests.jsonl
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402
from ideation_stream.features import fit_pipeline  # noqa: E402
from ideation_stream.preprocess import PreprocessConfig, filter_text, preprocess  # noqa: E402

COMBOS = ("uni-tfidf", "bi-cv-idf", "uni-bi-cv-idf")


def _sha(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _line(**fields) -> None:
    print(json.dumps(fields, sort_keys=True), flush=True)


def _csr_sha(batch) -> str:
    return _sha(array.dtype.str.encode() + array.tobytes()
                for array in (batch.indptr, batch.indices, batch.values))


def main() -> int:
    print(f"token_digests: package from {sys.modules[preprocess.__module__].__file__}",
          file=sys.stderr)
    shipped = PreprocessConfig.load_default()
    configs = {"shipped": shipped,
               "no-shared-char": dataclasses.replace(
                   shipped, contraction_table={**shipped.contraction_table,
                                               "gonna": "going to"})}
    corpora = {"feed": [text for text, _ in gen.feed_posts(901, 10000)],
               "labeled": [text for text, _ in gen.labeled_posts(5, 2000)]}
    tokens = {}
    for config_name, config in configs.items():
        for corpus_name, texts in corpora.items():
            filtered = [filter_text(text, config) for text in texts]
            docs = [preprocess(text, config).tokens for text in texts]
            tokens[config_name, corpus_name] = docs
            _line(what="filter_text", config=config_name, corpus=corpus_name,
                  sha256=_sha(f"{out}\n".encode() for out in filtered))
            _line(what="tokens", config=config_name, corpus=corpus_name,
                  sha256=_sha(f"{' '.join(doc)}\n".encode() for doc in docs))
    for combo in COMBOS:
        pipe, fitted = fit_pipeline(tokens["shipped", "labeled"], combo)
        transformed = pipe.transform_batch(tokens["shipped", "feed"])
        _line(what="fit", combo=combo, dim=pipe.dim, sha256=_csr_sha(fitted))
        _line(what="transform", combo=combo, rows=transformed.n_rows,
              sha256=_csr_sha(transformed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
