"""Real-time phase: replay producer, record filters, the micro-batch
prediction loop, and live aggregation of the output topic.

The loop consumes up to ``micro_batch_max`` records per trigger, filters
and preprocesses each one, vectorizes and scores the kept records with one
``transform_batch`` and one ``predict_batch`` call, produces one JSON event
per kept record in offset order, and only then commits the input offsets —
duplicates are possible after a crash, gaps are not. Each event is written
by ``prediction_json`` straight from the label and score arrays, with no
object per record. Failures become dead-letter events and never kill the
loop: a record whose preprocess raises is a dead letter on its own, and if
vectorizing or scoring raises, every record of that call is a dead letter
carrying the error. ``aggregate`` counts each event from its ``json.loads``
dict and skips any record that is not a whole prediction event.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import statistics
import threading
import time
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field

from . import store
from .broker import Broker
# `predict` is unused here: the benchmark tracer aliases `stream.predict`
from .classifiers.base import predict, predict_batch  # noqa: F401
from .corpus import INT_TO_LABEL, open_text
from .errors import UnknownTopic
from .hashutil import sha256_file, sha256_hex
from .preprocess import PreprocessConfig, filter_text, looks_english, preprocess

DEFAULT_INPUT_TOPIC = "Source-tweets"
DEFAULT_OUTPUT_TOPIC = "Predicted-tweets"
STOP_CHECK_MS = 100.0  # longest idle wait between two looks at the stop event
# json.dumps(..., sort_keys=True) of a prediction event, the score's text filled in
_EVENT_JSON = ('{"kind": "prediction", "label": %d, "label_name": %s, "model_digest": %s, '
               '"processed_at_ms": %d, "score": %s, "source_offset": %d, '
               '"source_partition": %d, "text_sha256": %s}')
_json_str = json.encoder.encode_basestring_ascii
# the keys of a prediction event besides "kind"; `aggregate` skips a record missing one
_EVENT_FIELDS = frozenset(("label", "label_name", "model_digest", "processed_at_ms", "score",
                           "source_offset", "source_partition", "text_sha256"))


def check_trigger_ms(value: float) -> None:
    """> 0 ms and at most ``threading.TIMEOUT_MAX`` s, a wait the loop can make."""
    if not 0 < value / 1000 <= threading.TIMEOUT_MAX:
        raise ValueError(f"must be in (0, {threading.TIMEOUT_MAX:g} s], got {value} ms")


@dataclass
class StreamConfig:
    model_path: str
    input_topic: str = DEFAULT_INPUT_TOPIC
    output_topic: str = DEFAULT_OUTPUT_TOPIC
    micro_batch_max: int = 1024
    trigger_interval_ms: float = 500.0
    keyword_filter: tuple[str, ...] = ()
    language_filter: str = "off"  # or "english-heuristic"
    dedupe_window: int = 1024
    group: str = "stream-engine"
    filters_enabled: bool = True

    def __post_init__(self) -> None:
        check_trigger_ms(self.trigger_interval_ms)
        if self.micro_batch_max < 1:
            raise ValueError("micro_batch_max must be >= 1")
        if self.dedupe_window < 0:
            raise ValueError("dedupe_window must be >= 0")
        if self.input_topic == self.output_topic:
            raise ValueError("input and output topics must differ")
        if self.language_filter not in ("off", "english-heuristic"):
            raise ValueError(f"unknown language_filter {self.language_filter!r}")


def prediction_json(partition: int, offset: int, text_sha256: str, label: int,
                    score: float, model_digest: str, processed_at_ms: int) -> str:
    """One prediction event, the bytes ``json.dumps(..., sort_keys=True)``
    writes for it; ``label`` is 0 or 1."""
    score_json = (float.__repr__(score) if isinstance(score, float) and math.isfinite(score)
                  else json.dumps(score))
    return _EVENT_JSON % (label, _json_str(INT_TO_LABEL[label]), _json_str(model_digest),
                          processed_at_ms, score_json, offset, partition,
                          _json_str(text_sha256))


@dataclass
class ReplayStats:
    produced: int = 0
    malformed: int = 0


def _line_text(line: str) -> str | None:
    """Text payload of one replay line: JSON objects must carry a string
    ``text`` field, anything else is taken as raw text."""
    stripped = line.strip()
    if not stripped:
        return None
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except (json.JSONDecodeError, RecursionError):  # or nested past the parser's depth
            return None
        text = obj.get("text") if isinstance(obj, dict) else None
        return text if isinstance(text, str) and text.strip() else None
    return stripped


def replay_produce(source, broker: Broker, topic: str, rate: float = 0.0,
                   loop: bool = False) -> ReplayStats:
    """Produce one record per input line, paced at ``rate`` records/sec
    (0 = unpaced). ``source`` is a path or an open text file."""
    if topic not in broker.topics():
        raise UnknownTopic(f"topic {topic!r} does not exist")
    stats = ReplayStats()
    own = isinstance(source, (str, bytes)) or hasattr(source, "__fspath__")
    fh = open_text(source, errors="replace") if own else source
    try:
        while True:
            for line in fh:
                text = _line_text(line)
                if text is None:
                    stats.malformed += 1
                    continue
                broker.produce(topic, text.encode("utf-8"))
                stats.produced += 1
                if rate > 0:
                    time.sleep(1.0 / rate)
            if not loop or not own:
                break
            fh.seek(0)
    finally:
        if own:
            fh.close()
    return stats


class StreamFilter:
    """Drop rules, checked in order: retweet prefix, duplicate within the
    LRU window, keyword mismatch, language heuristic. ``digest`` holds the
    SHA-256 of the last post that got past the retweet rule. With the
    language rule on, ``filtered`` holds the ``filter_text`` of the last
    post kept, for ``preprocess`` to reuse; otherwise it stays None."""

    def __init__(self, config: StreamConfig, preprocess_config: PreprocessConfig | None = None):
        self.config = config
        self.preprocess_config = preprocess_config or PreprocessConfig.load_default()
        self.digest = ""
        self.filtered: str | None = None
        self._window: OrderedDict[str, None] = OrderedDict()
        self._keywords = tuple(k.lower() for k in config.keyword_filter)

    def evaluate(self, text: str) -> tuple[bool, str | None]:
        if text.startswith("RT "):
            return False, "retweet"
        digest = self.digest = sha256_hex(text)
        if self.config.dedupe_window > 0:
            if digest in self._window:
                self._window.move_to_end(digest)
                return False, "duplicate"
            self._window[digest] = None
            if len(self._window) > self.config.dedupe_window:
                self._window.popitem(last=False)
        if self._keywords:
            lowered = text.lower()
            if not any(k in lowered for k in self._keywords):
                return False, "no_keyword"
        if self.config.language_filter == "english-heuristic":
            self.filtered = filter_text(text, self.preprocess_config)
            if not looks_english(text, self.preprocess_config, filtered=self.filtered):
                return False, "language"
        return True, None


@dataclass
class StreamStats:
    consumed: int = 0
    events: int = 0
    dead_letters: int = 0
    dropped: Counter = field(default_factory=Counter)
    batches: int = 0
    p50_latency_ms: float | None = None


def run_stream(broker: Broker, config: StreamConfig, *,
               stop_event: threading.Event | None = None,
               stop_when_idle: bool = False) -> StreamStats:
    """Micro-batch loop; runs until the stop event fires, or until the
    first empty poll when ``stop_when_idle`` is set. Posts are preprocessed
    with the default tables; a model saved with other tables is warned of."""
    for topic in (config.input_topic, config.output_topic):
        if topic not in broker.topics():
            raise UnknownTopic(f"topic {topic!r} does not exist")
    pipeline, model = store.load(config.model_path)
    model_digest = sha256_file(config.model_path)
    pconfig = PreprocessConfig.load_default()
    stored_digest = store.inspect_header(config.model_path).get("preprocess_config_digest")
    if stored_digest and stored_digest != pconfig.digest():
        import warnings
        warnings.warn("runtime preprocess config differs from the one used at training time",
                      stacklevel=2)
    filt = StreamFilter(config, pconfig)
    stats = StreamStats()
    latencies: list[float] = []

    # with stop_when_idle one empty poll ends the loop, so it waits the whole trigger
    wait_ms = (config.trigger_interval_ms if stop_when_idle
               else min(config.trigger_interval_ms, STOP_CHECK_MS))
    while not (stop_event and stop_event.is_set()):
        batch = broker.consume(config.input_topic, config.group,
                               max_records=config.micro_batch_max, timeout_ms=wait_ms)
        if not batch:
            if stop_when_idle:
                break
            continue
        stats.batches += 1
        t_start = time.perf_counter()
        next_offsets: dict[int, int] = {}
        kept: list[tuple] = []  # (record, text digest, tokens or what preprocess raised)
        for rec in batch:
            next_offsets[rec.partition] = max(next_offsets.get(rec.partition, 0),
                                              rec.offset + 1)
            text = rec.value.decode("utf-8", errors="replace")
            if config.filters_enabled:
                keep, reason = filt.evaluate(text)
                if not keep:
                    stats.dropped[reason] += 1
                    continue
                digest = filt.digest
            else:
                digest = sha256_hex(text)
            try:  # the plain call unless the language rule filtered this text already
                tokens = (preprocess(text, pconfig) if filt.filtered is None
                          else preprocess(text, pconfig, filtered=filt.filtered)).tokens
            except Exception as exc:  # noqa: BLE001 - per-record dead letter
                tokens = exc
            kept.append((rec, digest, tokens))
        docs = [tokens for _, _, tokens in kept if not isinstance(tokens, Exception)]
        try:
            labels, scores = predict_batch(model, pipeline.transform_batch(docs))
            preds = zip(labels.tolist(), scores.tolist())
        except Exception as exc:  # noqa: BLE001 - every record of the call dead-letters
            preds = itertools.repeat(exc)
        for rec, digest, tokens in kept:
            pred = tokens if isinstance(tokens, Exception) else next(preds)
            if isinstance(pred, Exception):
                dead = json.dumps({"kind": "dead_letter",
                                   "source_partition": rec.partition,
                                   "source_offset": rec.offset,
                                   "error": f"{type(pred).__name__}: {pred}"},
                                  sort_keys=True)
                broker.produce(config.output_topic, dead.encode("utf-8"))
                stats.dead_letters += 1
                continue
            event = prediction_json(rec.partition, rec.offset, digest, *pred, model_digest,
                                    int(time.time() * 1000))
            broker.produce(config.output_topic, event.encode("utf-8"))
            stats.events += 1
            latencies.append((time.perf_counter() - t_start) * 1000.0)
        stats.consumed += len(batch)
        # outputs acked above; only now move the input cursor
        broker.commit(config.group, config.input_topic, next_offsets)
    if latencies:
        stats.p50_latency_ms = statistics.median(latencies)
    return stats


@dataclass
class AggregateReport:
    total: int = 0
    suicide: int = 0
    non_suicide: int = 0
    pct_suicide: float | None = None
    pct_non_suicide: float | None = None

    def to_dict(self) -> dict:
        return dict(vars(self))


def _percent(count: int, total: int) -> float | None:
    return round(100.0 * count / total, 2) if total else None


def aggregate(broker: Broker, output_topic: str = DEFAULT_OUTPUT_TOPIC,
              group: str = "aggregate", window: int | None = None,
              jsonl_out=None, csv_out=None) -> AggregateReport:
    """Drain prediction events with a dedicated group and count labels.

    ``window`` of N counts only the most recent N events (sliding window);
    None counts everything, in O(1) memory. A running-totals JSONL feed and
    a final CSV can be written as the dashboard replacement.
    """
    if output_topic not in broker.topics():
        raise UnknownTopic(f"topic {output_topic!r} does not exist")
    counts = [0, 0]  # events per label
    recent: deque = deque()  # the labels inside the window, when one is set
    with contextlib.ExitStack() as files:
        # both open before the first consume: a file that cannot be opened
        # fails the report before the group's offsets move
        feed = files.enter_context(open_text(jsonl_out, "w")) if jsonl_out else None
        table = files.enter_context(open_text(csv_out, "w")) if csv_out else None
        while True:
            batch = broker.consume(output_topic, group, max_records=4096)
            if not batch:
                break
            next_offsets: dict[int, int] = {}
            for rec in batch:
                next_offsets[rec.partition] = rec.offset + 1  # offset order per partition
                try:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
                    event = json.loads(rec.value.decode("utf-8"))
                except (ValueError, RecursionError):
                    continue
                if (isinstance(event, dict) and event.get("kind") == "prediction"
                        and type(label := event.get("label")) is int and label in (0, 1)
                        and event.keys() >= _EVENT_FIELDS):
                    counts[label] += 1
                    if window:
                        recent.append(label)
                        if len(recent) > window:
                            counts[recent.popleft()] -= 1
            broker.commit(group, output_topic, next_offsets)
            if feed:
                snapshot = _report_from(*counts)
                feed.write(json.dumps(snapshot.to_dict(), sort_keys=True) + "\n")
        report = _report_from(*counts)
        if table:
            table.write("suicide,non_suicide,total,pct_suicide,pct_non_suicide\n")
            pct_s = "NA" if report.pct_suicide is None else f"{report.pct_suicide:.2f}"
            pct_n = "NA" if report.pct_non_suicide is None else f"{report.pct_non_suicide:.2f}"
            table.write(f"{report.suicide},{report.non_suicide},{report.total},{pct_s},{pct_n}\n")
    return report


def _report_from(neg: int, pos: int) -> AggregateReport:
    total = neg + pos
    return AggregateReport(total=total, suicide=pos, non_suicide=neg,
                           pct_suicide=_percent(pos, total),
                           pct_non_suicide=_percent(neg, total))
