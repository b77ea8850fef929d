"""The benchmark's span hooks (``perfbench/spans.py``) wrap names the
program still has, see the call shapes they count from, and put every
original back."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _current(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def test_instrument_then_unwrap_restores_every_original():
    spans = _load_spans()
    tracer = spans.Tracer()
    try:
        spans.instrument(tracer, "in", "out")
        patches = list(tracer._patches)
        from ideation_stream import features

        pipe, _ = features.fit_pipeline([["a", "b"], ["a"]], "uni-tfidf", num_buckets=8)
        pipe.transform(["a", "c"])
    finally:
        tracer.unwrap_all()
    assert patches
    for owner, attr, original in patches:
        assert _current(owner, attr) is original, attr
    names = {span[spans.NAME] for span in tracer.spans}
    assert {"features.fit_pipeline", "features.transform", "features.hashing_tf"} <= names
    # hashing_tf is called with its cache as the ``_cache`` keyword
    assert tracer.counts["features.hash_grams"] == 5
    assert tracer.counts["features.hash_cache_misses"] == 3
