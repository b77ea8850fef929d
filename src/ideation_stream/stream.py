"""Real-time phase: replay producer, record filters, the micro-batch
prediction loop, and live aggregation of the output topic.

The loop consumes up to ``micro_batch_max`` records per trigger, filters,
preprocesses, transforms, predicts, produces one JSON event per kept
record, and only then commits the input offsets — duplicates are possible
after a crash, gaps are not. Per-record failures become dead-letter events
and never kill the loop.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field

from . import store
from .broker import Broker
from .classifiers.base import predict
from .corpus import INT_TO_LABEL
from .errors import UnknownTopic
from .hashutil import sha256_file, sha256_hex
from .preprocess import PreprocessConfig, looks_english, preprocess

DEFAULT_INPUT_TOPIC = "Source-tweets"
DEFAULT_OUTPUT_TOPIC = "Predicted-tweets"


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
        if self.trigger_interval_ms <= 0:
            raise ValueError("trigger_interval_ms must be > 0")
        if self.input_topic == self.output_topic:
            raise ValueError("input and output topics must differ")
        if self.language_filter not in ("off", "english-heuristic"):
            raise ValueError(f"unknown language_filter {self.language_filter!r}")


@dataclass
class PredictionEvent:
    source_partition: int
    source_offset: int
    text_sha256: str
    label: int
    label_name: str
    score: float
    model_digest: str
    processed_at_ms: int

    def to_json(self) -> str:
        return json.dumps({
            "kind": "prediction",
            "source_partition": self.source_partition,
            "source_offset": self.source_offset,
            "text_sha256": self.text_sha256,
            "label": self.label,
            "label_name": self.label_name,
            "score": self.score,
            "model_digest": self.model_digest,
            "processed_at_ms": self.processed_at_ms,
        }, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "PredictionEvent | None":
        """None for anything but a prediction object whose label is 0 or 1."""
        obj = json.loads(line)
        if (not isinstance(obj, dict) or obj.get("kind") != "prediction"
                or type(obj.get("label")) is not int or obj["label"] not in (0, 1)):
            return None
        return cls(source_partition=obj["source_partition"],
                   source_offset=obj["source_offset"],
                   text_sha256=obj["text_sha256"], label=obj["label"],
                   label_name=obj["label_name"], score=obj["score"],
                   model_digest=obj["model_digest"],
                   processed_at_ms=obj["processed_at_ms"])


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
        except json.JSONDecodeError:
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
    fh = open(source, "r", encoding="utf-8", errors="replace") if own else source
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
    LRU window, keyword mismatch, language heuristic."""

    def __init__(self, config: StreamConfig, preprocess_config: PreprocessConfig | None = None):
        self.config = config
        self.preprocess_config = preprocess_config or PreprocessConfig.load_default()
        self._window: OrderedDict[str, None] = OrderedDict()
        self._keywords = tuple(k.lower() for k in config.keyword_filter)

    def evaluate(self, text: str) -> tuple[bool, str | None]:
        if text.startswith("RT "):
            return False, "retweet"
        digest = sha256_hex(text)
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
            if not looks_english(text, self.preprocess_config):
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
               stop_when_idle: bool = False,
               preprocess_config: PreprocessConfig | None = None) -> StreamStats:
    """Micro-batch loop; runs until the stop event fires, or until the
    first empty poll when ``stop_when_idle`` is set."""
    for topic in (config.input_topic, config.output_topic):
        if topic not in broker.topics():
            raise UnknownTopic(f"topic {topic!r} does not exist")
    pipeline, model = store.load(config.model_path)
    model_digest = sha256_file(config.model_path)
    pconfig = preprocess_config or PreprocessConfig.load_default()
    stored_digest = store.inspect_header(config.model_path).get("preprocess_config_digest")
    if stored_digest and stored_digest != pconfig.digest():
        import warnings
        warnings.warn("runtime preprocess config differs from the one used at training time",
                      stacklevel=2)
    filt = StreamFilter(config, pconfig)
    stats = StreamStats()
    latencies: list[float] = []

    while not (stop_event and stop_event.is_set()):
        batch = broker.consume(config.input_topic, config.group,
                               max_records=config.micro_batch_max,
                               timeout_ms=config.trigger_interval_ms)
        if not batch:
            if stop_when_idle:
                break
            continue
        stats.batches += 1
        next_offsets: dict[int, int] = {}
        for rec in batch:
            t_start = time.perf_counter()
            next_offsets[rec.partition] = max(next_offsets.get(rec.partition, 0),
                                              rec.offset + 1)
            text = rec.value.decode("utf-8", errors="replace")
            if config.filters_enabled:
                keep, reason = filt.evaluate(text)
                if not keep:
                    stats.dropped[reason] += 1
                    continue
            try:
                tokens = preprocess(text, pconfig)
                vec = pipeline.transform(tokens.tokens)
                pred = predict(model, vec)
                event = PredictionEvent(
                    source_partition=rec.partition,
                    source_offset=rec.offset,
                    text_sha256=sha256_hex(text),
                    label=pred.label,
                    label_name=INT_TO_LABEL[pred.label],
                    score=pred.score,
                    model_digest=model_digest,
                    processed_at_ms=int(time.time() * 1000),
                )
                broker.produce(config.output_topic, event.to_json().encode("utf-8"))
                stats.events += 1
                latencies.append((time.perf_counter() - t_start) * 1000.0)
            except Exception as exc:  # noqa: BLE001 - per-record dead letter
                dead = json.dumps({"kind": "dead_letter",
                                   "source_partition": rec.partition,
                                   "source_offset": rec.offset,
                                   "error": f"{type(exc).__name__}: {exc}"},
                                  sort_keys=True)
                broker.produce(config.output_topic, dead.encode("utf-8"))
                stats.dead_letters += 1
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
        return {"total": self.total, "suicide": self.suicide,
                "non_suicide": self.non_suicide, "pct_suicide": self.pct_suicide,
                "pct_non_suicide": self.pct_non_suicide}


def _percent(count: int, total: int) -> float | None:
    return round(100.0 * count / total, 2) if total else None


def aggregate(broker: Broker, output_topic: str = DEFAULT_OUTPUT_TOPIC,
              group: str = "aggregate", window: int | None = None,
              jsonl_out=None, csv_out=None) -> AggregateReport:
    """Drain prediction events with a dedicated group and count labels.

    ``window`` of N keeps only the most recent N events (sliding window);
    None aggregates everything. A running-totals JSONL feed and a final
    CSV can be written as the dashboard replacement.
    """
    if output_topic not in broker.topics():
        raise UnknownTopic(f"topic {output_topic!r} does not exist")
    recent: deque = deque(maxlen=window) if window else deque()
    feed = open(jsonl_out, "w", encoding="utf-8") if jsonl_out else None
    try:
        while True:
            batch = broker.consume(output_topic, group, max_records=4096)
            if not batch:
                break
            for rec in batch:
                try:
                    event = PredictionEvent.from_json(rec.value.decode("utf-8"))
                except (json.JSONDecodeError, KeyError, UnicodeDecodeError):
                    continue
                if event is not None:
                    recent.append(event.label)
            broker.commit(group, output_topic,
                          {p: max(r.offset for r in batch if r.partition == p) + 1
                           for p in {r.partition for r in batch}})
            if feed:
                snapshot = _report_from(recent)
                feed.write(json.dumps(snapshot.to_dict(), sort_keys=True) + "\n")
    finally:
        if feed:
            feed.close()

    report = _report_from(recent)
    if csv_out:
        with open(csv_out, "w", encoding="utf-8") as fh:
            fh.write("suicide,non_suicide,total,pct_suicide,pct_non_suicide\n")
            pct_s = "NA" if report.pct_suicide is None else f"{report.pct_suicide:.2f}"
            pct_n = "NA" if report.pct_non_suicide is None else f"{report.pct_non_suicide:.2f}"
            fh.write(f"{report.suicide},{report.non_suicide},{report.total},{pct_s},{pct_n}\n")
    return report


def _report_from(labels) -> AggregateReport:
    total = len(labels)
    pos = sum(labels)
    return AggregateReport(total=total, suicide=pos, non_suicide=total - pos,
                           pct_suicide=_percent(pos, total),
                           pct_non_suicide=_percent(total - pos, total))
