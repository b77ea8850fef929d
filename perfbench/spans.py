"""Spans around calls into the program's layers, recorded from the
benchmark's side by wrapping public functions and methods in place.

A span holds its name, start, end, parent span, post id and thread.
Spans of one streamed post share the id ``<topic>/<partition>/<offset>``;
spans of one training document share its corpus id. Counts are taken at
the same boundaries. Everything stays in memory until ``write``.

Nothing here changes what the program computes: every wrapper calls the
original with the same arguments and returns its result unchanged.
"""

from __future__ import annotations

import json
import threading
import time
from collections import Counter, defaultdict, deque

import numpy as np

NAME, START, END, PARENT, POST, THREAD = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.post = None
            local.pending = deque()
        return local

    def open(self, name: str, post=None) -> list:
        state = self._state()
        parent = state.stack[-1] if state.stack else None
        span = [name, time.perf_counter(), 0.0, parent,
                post if post is not None else state.post,
                threading.get_ident()]
        self.spans.append(span)
        state.stack.append(span)
        return span

    def current(self) -> list | None:
        """The calling thread's innermost open span."""
        stack = self._state().stack
        return stack[-1] if stack else None

    def inherit(self, span: list) -> None:
        """Make ``span`` the parent of the calling thread's next spans."""
        self._state().stack.append(span)

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._state().stack.pop()

    def wrap(self, owner, attr: str, name, *, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a spanning wrapper. ``name`` is a
        string or ``name(args, kwargs)``; ``before(state, args, kwargs)``
        runs ahead of the span, ``after(span, args, kwargs, result)``
        once it has closed."""
        if isinstance(owner, dict):
            original = owner[attr]
        elif isinstance(owner, type):
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                before(tracer._state(), args, kwargs)
            span = tracer.open(name(args, kwargs) if callable(name) else name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = original
        _assign(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def alias(self, owner, attr: str, value) -> None:
        """Point another module's imported name at a wrapper."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def unwrap_all(self) -> None:
        for owner, attr, original in reversed(self._patches):
            _assign(owner, attr, original)
        self._patches.clear()

    # -- reading ---------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span duration minus the time its direct children cover,
        keyed by ``id(span)``."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span[PARENT] is not None:
                child_time[id(span[PARENT])] += span[END] - span[START]
        return {id(s): (s[END] - s[START]) - child_time[id(s)] for s in self.spans}

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                parent = index[id(s[PARENT])] if s[PARENT] is not None else None
                fh.write(json.dumps({"i": i, "name": s[NAME], "start": s[START],
                                     "end": s[END], "parent": parent,
                                     "post": s[POST], "thread": s[THREAD]}) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def instrument(tracer: Tracer, input_topic: str, output_topic: str) -> None:
    """Wrap every layer boundary that `run_stream`, `aggregate` and
    `cmd_train` cross."""
    from ideation_stream import broker, classifiers, cli, corpus, evaluation, features
    from ideation_stream import preprocess as preprocess_mod
    from ideation_stream import store, stream
    from ideation_stream.classifiers import base, selection

    counts = tracer.counts

    # broker
    def serve_path(method: str, topic_arg: int, serve_topic: str):
        """The serve loop's calls keep the plain name; the same method on
        another topic (generator, `report`) gets a ``.other`` suffix."""
        def name(args, kwargs):
            return f"broker.{method}" if args[topic_arg] == serve_topic else f"broker.{method}.other"
        return name

    def after_consume(span, args, kwargs, result):
        if args[1] != input_topic:
            return
        counts["broker.consume_records"] += len(result)
        tracer._state().pending = deque(f"{r.topic}/{r.partition}/{r.offset}"
                                        for r in result)

    def before_consume(state, args, kwargs):
        state.post = None

    def after_produce(span, args, kwargs, result):
        if args[1] == input_topic:
            span[POST] = f"{input_topic}/{result[0]}/{result[1]}"

    tracer.wrap(broker.Broker, "__init__", "broker.open")
    tracer.wrap(broker.Broker, "produce", serve_path("produce", 1, output_topic),
                after=after_produce)
    tracer.wrap(broker.Broker, "consume", serve_path("consume", 1, input_topic),
                before=before_consume, after=after_consume)
    tracer.wrap(broker.Broker, "_collect", serve_path("collect", 1, input_topic))
    tracer.wrap(broker.Broker, "commit", serve_path("commit", 2, input_topic))

    # stream
    def before_evaluate(state, args, kwargs):
        state.post = state.pending.popleft() if state.pending else None

    def after_evaluate(span, args, kwargs, result):
        keep, reason = result
        if not keep:
            counts[f"stream.dropped.{reason}"] += 1

    tracer.wrap(stream.StreamFilter, "evaluate", "stream.filter",
                before=before_evaluate, after=after_evaluate)
    tracer.wrap(stream, "run_stream", "stream.run_stream")

    def after_aggregate(span, args, kwargs, result):
        counts["stream.aggregate_events"] += result.total

    tracer.wrap(stream, "aggregate", "stream.aggregate", after=after_aggregate)

    # preprocess: the module function and the name `stream` imported
    def doc_post(state, args, kwargs):
        source_id = kwargs.get("source_id") or (args[2] if len(args) > 2 else "")
        if source_id:
            state.post = f"doc/{source_id}"

    tracer.wrap(preprocess_mod, "preprocess", "preprocess", before=doc_post)
    tracer.alias(stream, "preprocess", preprocess_mod.preprocess)

    # features
    tracer.wrap(features.FeaturePipeline, "transform", "features.transform")
    tracer.wrap(features, "fit_pipeline", "features.fit_pipeline")

    def cache_probe(state, args, kwargs):  # hit share of the bucket cache
        cache = kwargs.get("_cache")
        state.cache_before = len(cache) if cache is not None else None

    def after_hashing(span, args, kwargs, result):
        before = tracer._state().cache_before
        if before is not None:
            counts["features.hash_grams"] += len(args[0])
            counts["features.hash_cache_misses"] += len(kwargs["_cache"]) - before

    tracer.wrap(features, "hashing_tf", "features.hashing_tf",
                before=cache_probe, after=after_hashing)

    # classifiers: module-level names other modules call through
    tracer.wrap(base, "predict", "classifiers.predict")
    tracer.alias(stream, "predict", base.predict)
    tracer.wrap(base, "predict_batch", "classifiers.predict_batch")
    tracer.alias(selection, "predict_batch", base.predict_batch)
    tracer.alias(evaluation, "predict_batch", base.predict_batch)
    tracer.wrap(base.LabeledDataset, "subset", "classifiers.subset")

    def trainer_after(kind):
        def after(span, args, kwargs, result):
            if kind == "dt":
                counts["classifiers.tree_nodes.last"] = int(result.params.n_nodes)
        return after

    for kind in list(selection.TRAINERS):
        tracer.wrap(selection.TRAINERS, kind, f"classifiers.train.{kind.value}",
                    after=trainer_after(kind.value))

    def cv_name(args, kwargs):
        return f"classifiers.cross_validate.{classifiers.ModelKind(args[0]).value}"

    tracer.wrap(selection, "cross_validate", cv_name)
    tracer.alias(classifiers, "cross_validate", selection.cross_validate)

    # evaluation, store, corpus, cli
    tracer.wrap(evaluation, "evaluate_model", "evaluation.evaluate_model")
    tracer.wrap(store, "save", "store.save")
    tracer.wrap(store, "load", "store.load")
    tracer.wrap(corpus, "load_csv", "corpus.load_csv")
    tracer.wrap(corpus, "dedupe_and_clean", "corpus.dedupe_and_clean")
    tracer.wrap(cli, "main", "cli.main")


def _assign(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def _ancestor_named(span: list, prefix: str) -> bool:
    parent = span[PARENT]
    while parent is not None:
        if parent[NAME].startswith(prefix):
            return True
        parent = parent[PARENT]
    return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers derived from the spans and counts of one traced
    job. Layers the workload never calls read 0."""
    selfs = tracer.self_times()
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    fit: dict[str, float] = defaultdict(float)
    job_total = job_self = 0.0
    commits: list[float] = []
    for span in tracer.spans:
        name, dur = span[NAME], span[END] - span[START]
        total[name] += dur
        own[name] += selfs[id(span)]
        calls[name] += 1
        if name == "broker.commit":
            commits.append(dur)
        if name.startswith("classifiers.train.") and not _ancestor_named(
                span, "classifiers.cross_validate."):
            fit[name.rsplit(".", 1)[1]] += dur
        if name.startswith(ORCHESTRATION):
            job_self += selfs[id(span)]
            if span[PARENT] is None:
                job_total += dur
    counts = tracer.counts

    def per(name: str, denominator: float, scale: float) -> float:
        return total[name] / denominator * scale if denominator else 0.0

    records = counts["broker.consume_records"]
    grams = counts["features.hash_grams"]
    m = {
        "preprocess.us_per_doc": per("preprocess", calls["preprocess"], 1e6),
        "features.transform_us_per_doc": per("features.transform",
                                             calls["features.transform"], 1e6),
        "features.fit_s": total["features.fit_pipeline"],
        "features.bucket_cache_hit_share":
            1.0 - counts["features.hash_cache_misses"] / grams if grams else 0.0,
        "stream.filter_us": per("stream.filter", calls["stream.filter"], 1e6),
        "stream.loop_self_us": own["stream.run_stream"] / records * 1e6 if records else 0.0,
        "stream.aggregate_us": per("stream.aggregate", counts["stream.aggregate_events"], 1e6),
        "classifiers.predict_us_per_row": per("classifiers.predict",
                                              calls["classifiers.predict"], 1e6),
        "classifiers.subset_s": total["classifiers.subset"],
        "classifiers.tree_nodes": counts["classifiers.tree_nodes.last"],
        "broker.open_ms": per("broker.open", calls["broker.open"], 1e3),
        "broker.produce_us": per("broker.produce", calls["broker.produce"], 1e6),
        "broker.consume_us_per_record": per("broker.collect", records, 1e6),
        "broker.records_per_consume":
            records / calls["broker.consume"] if calls["broker.consume"] else 0.0,
        "broker.consume_wait_ms": own["broker.consume"] * 1e3,
        "broker.commit_us": per("broker.commit", calls["broker.commit"], 1e6),
        "broker.commit_calls": calls["broker.commit"],
        "broker.commit_p99_us": float(np.percentile(commits, 99)) * 1e6 if commits else 0.0,
        "store.load_ms": per("store.load", calls["store.load"], 1e3),
        "store.save_ms": per("store.save", calls["store.save"], 1e3),
        "corpus.load_s": total["corpus.load_csv"],
        "corpus.clean_s": total["corpus.dedupe_and_clean"],
        "evaluation.evaluate_s": total["evaluation.evaluate_model"],
        "cli.self_s": own["cli.main"],
        "trace.unattributed_s": job_self,
        "trace.unattributed_share": job_self / job_total if job_total else 0.0,
        "trace.spans": len(tracer.spans),
    }
    for reason in DROP_REASONS:
        m[f"stream.dropped.{reason}"] = counts[f"stream.dropped.{reason}"]
    for kind in KINDS:
        m[f"classifiers.fit_s.{kind}"] = fit[kind]
        m[f"classifiers.cv_s.{kind}"] = total[f"classifiers.cross_validate.{kind}"]
    return m


DROP_REASONS = ("retweet", "duplicate", "no_keyword")
# Spans that only sequence the layers. Their self time is the job's
# unattributed time: work done in functions no span covers.
ORCHESTRATION = ("job.", "cli.main", "stream.run_stream")
KINDS = ("nb", "lr", "dt", "mlp")
