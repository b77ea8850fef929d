import json

import pytest

from ideation_stream import store, stream
from ideation_stream.broker import Broker
from ideation_stream.classifiers import LabeledDataset, predict, train_nb
from ideation_stream.errors import UnknownTopic
from ideation_stream.features import FeatureCombo, fit_pipeline
from ideation_stream.preprocess import PreprocessConfig, preprocess
from ideation_stream.stream import (PredictionEvent, StreamConfig,
                                    StreamFilter, aggregate, replay_produce,
                                    run_stream)

from conftest import stack

POSITIVE_TEXTS = ["i want to die", "kill myself tonight", "my life is hopeless i cry"]
NEGATIVE_TEXTS = ["sunny day with friends", "pizza and games tonight", "my dog is happy"]


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    """Tiny NB pipeline trained so 'die/kill/hopeless' is decisively
    positive and picnic words are decisively negative."""
    pconfig = PreprocessConfig.load_default()
    texts = POSITIVE_TEXTS * 4 + NEGATIVE_TEXTS * 4
    labels = [1] * 12 + [0] * 12
    tokens = [preprocess(t, pconfig).tokens for t in texts]
    pipeline = fit_pipeline(tokens, FeatureCombo.UNI_CV_IDF, min_tf=0)
    data = LabeledDataset(stack([pipeline.transform(t) for t in tokens]), labels)
    model = train_nb(data, alpha=1.0)
    path = tmp_path_factory.mktemp("model") / "stream.isp"
    store.save(pipeline, model, path, preprocess_config_digest=pconfig.digest())
    return path


@pytest.fixture
def broker(tmp_path):
    with Broker(tmp_path / "log") as b:
        b.create_topic("Source-tweets")
        b.create_topic("Predicted-tweets")
        yield b


def _config(model_path, **overrides):
    defaults = dict(model_path=str(model_path), trigger_interval_ms=20.0,
                    filters_enabled=False, dedupe_window=0)
    defaults.update(overrides)
    return StreamConfig(**defaults)


class TestLineParsing:
    @pytest.mark.parametrize("line,expected", [
        ('{"text": "hello there"}', "hello there"),
        ("raw tweet text", "raw tweet text"),
        ("  spaced  ", "spaced"),
        ("", None),
        ("   ", None),
        ('{"no_text": 1}', None),
        ('{"text": ""}', None),
        ("{broken json", None),
    ])
    def test_cases(self, line, expected):
        assert stream._line_text(line) == expected


class TestReplay:
    def test_produces_one_record_per_line(self, broker, tmp_path):
        path = tmp_path / "feed.txt"
        path.write_text("\n".join(f"line {i}" for i in range(50)) + "\n", "utf-8")
        stats = replay_produce(path, broker, "Source-tweets")
        assert stats.produced == 50 and stats.malformed == 0
        assert broker.end_offsets("Source-tweets") == [50]

    def test_malformed_lines_counted(self, broker, tmp_path):
        path = tmp_path / "feed.txt"
        path.write_text('ok\n\n{"no_text":1}\n{"text":"fine"}\n', "utf-8")
        stats = replay_produce(path, broker, "Source-tweets")
        assert stats.produced == 2 and stats.malformed == 2

    def test_empty_file(self, broker, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("", "utf-8")
        stats = replay_produce(path, broker, "Source-tweets")
        assert stats.produced == 0

    def test_unknown_topic(self, broker, tmp_path):
        path = tmp_path / "feed.txt"
        path.write_text("x\n", "utf-8")
        with pytest.raises(UnknownTopic):
            replay_produce(path, broker, "ghost")


class TestStreamFilter:
    def _filter(self, model_path, **overrides):
        return StreamFilter(_config(model_path, filters_enabled=True,
                                    dedupe_window=8, **overrides))

    def test_retweet_dropped(self, model_path):
        keep, reason = self._filter(model_path).evaluate("RT I feel sad")
        assert not keep and reason == "retweet"

    def test_keyword_keeps_matching_text(self, model_path):
        filt = self._filter(model_path,
                            keyword_filter=("feel", "want to die", "kill myself"))
        assert filt.evaluate("I want to die")[0]
        assert filt.evaluate("nothing relevant here") == (False, "no_keyword")

    def test_duplicate_within_window(self, model_path):
        filt = self._filter(model_path)
        assert filt.evaluate("same text")[0]
        assert filt.evaluate("same text") == (False, "duplicate")

    def test_window_evicts_oldest(self, model_path):
        filt = self._filter(model_path)
        filt.evaluate("first")
        for i in range(8):
            filt.evaluate(f"filler {i}")
        assert filt.evaluate("first")[0]  # evicted, no longer a duplicate

    def test_language_heuristic(self, model_path):
        filt = self._filter(model_path, language_filter="english-heuristic")
        assert filt.evaluate("i want to be happy today")[0]
        assert filt.evaluate("zzkj qwpv xxyy zzttr") == (False, "language")


class TestRunStream:
    def test_conservation_filters_off(self, broker, model_path, tmp_path):
        feed = tmp_path / "feed.txt"
        lines = [f"i want to die case {i}" for i in range(7)] + \
                [f"sunny day with friends case {i}" for i in range(13)]
        feed.write_text("\n".join(lines) + "\n", "utf-8")
        replay_produce(feed, broker, "Source-tweets")
        stats = run_stream(broker, _config(model_path), stop_when_idle=True)
        assert stats.consumed == 20 and stats.events == 20
        assert broker.end_offsets("Predicted-tweets") == [20]
        assert stats.p50_latency_ms is not None

    def test_events_match_offline_predictions_bitwise(self, broker, model_path, tmp_path):
        feed = tmp_path / "feed.txt"
        lines = ["i want to die now", "happy sunny day", "kill myself maybe"]
        feed.write_text("\n".join(lines) + "\n", "utf-8")
        replay_produce(feed, broker, "Source-tweets")
        run_stream(broker, _config(model_path), stop_when_idle=True)

        pipeline, model = store.load(model_path)
        records = broker.consume("Predicted-tweets", "checker", max_records=100)
        assert len(records) == 3
        for rec, text in zip(records, lines):
            event = PredictionEvent.from_json(rec.value.decode())
            offline = predict(model, pipeline.transform(preprocess(text).tokens))
            assert event.label == offline.label
            assert event.score == offline.score  # bit-identical

    def test_commit_after_output(self, broker, model_path, tmp_path):
        feed = tmp_path / "feed.txt"
        feed.write_text("one line\n", "utf-8")
        replay_produce(feed, broker, "Source-tweets")
        run_stream(broker, _config(model_path), stop_when_idle=True)
        committed = broker.committed("stream-engine", "Source-tweets")
        assert committed == {0: 1}

    def test_uncommitted_reprocess_duplicates_not_gaps(self, broker, model_path, tmp_path):
        # simulate a crash after output-produce but before commit: process
        # the batch once without committing, then run the engine normally
        feed = tmp_path / "feed.txt"
        lines = [f"case {i} i want to die" for i in range(6)]
        feed.write_text("\n".join(lines) + "\n", "utf-8")
        replay_produce(feed, broker, "Source-tweets")

        pipeline, model = store.load(model_path)
        first_pass = broker.consume("Source-tweets", "stream-engine", max_records=3)
        for rec in first_pass:
            tokens = preprocess(rec.value.decode())
            pred = predict(model, pipeline.transform(tokens.tokens))
            event = PredictionEvent(rec.partition, rec.offset, "x", pred.label,
                                    "suicide" if pred.label else "non-suicide",
                                    pred.score, "digest", 0)
            broker.produce("Predicted-tweets", event.to_json().encode())
        # no commit -> engine restart reprocesses those offsets
        run_stream(broker, _config(model_path), stop_when_idle=True)

        records = broker.consume("Predicted-tweets", "checker", max_records=100)
        events = [PredictionEvent.from_json(r.value.decode()) for r in records]
        offsets = [e.source_offset for e in events if e]
        assert len(offsets) == 9  # 3 duplicated + 6
        assert sorted(set(offsets)) == list(range(6))  # dedupe by offset recovers all

    def test_dead_letter_keeps_loop_alive(self, broker, model_path, tmp_path, monkeypatch):
        feed = tmp_path / "feed.txt"
        feed.write_text("poison pill\nhealthy line\n", "utf-8")
        replay_produce(feed, broker, "Source-tweets")

        real_predict = stream.predict

        def flaky(model, vec):
            if vec.indices.size == 0:  # 'poison pill' preprocesses to stopword-free tokens
                raise RuntimeError("boom")
            return real_predict(model, vec)

        monkeypatch.setattr(stream, "predict", flaky)
        pipeline, _ = store.load(model_path)
        poison_nnz = pipeline.transform(preprocess("poison pill").tokens).indices.size
        healthy_nnz = pipeline.transform(preprocess("healthy line").tokens).indices.size
        assert poison_nnz == 0 and healthy_nnz == 0  # both OOV -> both dead-letter
        stats = run_stream(broker, _config(model_path), stop_when_idle=True)
        assert stats.dead_letters == 2
        assert stats.consumed == 2

    def test_requires_topics(self, tmp_path, model_path):
        with Broker(tmp_path / "nolog") as b:
            with pytest.raises(UnknownTopic):
                run_stream(b, _config(model_path), stop_when_idle=True)

    def test_empty_input_idles_then_stops(self, broker, model_path):
        stats = run_stream(broker, _config(model_path), stop_when_idle=True)
        assert stats.consumed == 0 and stats.events == 0
        assert broker.end_offsets("Predicted-tweets") == [0]

    def test_filters_drop_and_count(self, broker, model_path, tmp_path):
        feed = tmp_path / "feed.txt"
        feed.write_text("RT i want to die\nsame text\nsame text\ni want to die\n", "utf-8")
        replay_produce(feed, broker, "Source-tweets")
        config = _config(model_path, filters_enabled=True, dedupe_window=16)
        stats = run_stream(broker, config, stop_when_idle=True)
        assert stats.dropped["retweet"] == 1
        assert stats.dropped["duplicate"] == 1
        assert stats.events == 2


class TestAggregate:
    def _emit(self, broker, labels):
        for i, label in enumerate(labels):
            event = PredictionEvent(0, i, f"t{i}", label,
                                    "suicide" if label else "non-suicide",
                                    float(label), "d", 0)
            broker.produce("Predicted-tweets", event.to_json().encode())

    def test_percentages(self, broker):
        self._emit(broker, [1] * 5 + [0] * 15)
        report = aggregate(broker)
        assert report.total == 20 and report.suicide == 5
        assert report.pct_suicide == 25.0 and report.pct_non_suicide == 75.0

    def test_zero_events_reports_na(self, broker):
        report = aggregate(broker)
        assert report.total == 0
        assert report.pct_suicide is None and report.pct_non_suicide is None

    def test_all_positive(self, broker):
        self._emit(broker, [1, 1, 1])
        report = aggregate(broker)
        assert report.pct_suicide == 100.0 and report.pct_non_suicide == 0.0

    def test_sliding_window(self, broker):
        self._emit(broker, [1] * 10 + [0] * 10)
        report = aggregate(broker, window=5)
        assert report.total == 5 and report.suicide == 0

    def test_outputs_written(self, broker, tmp_path):
        self._emit(broker, [1, 0, 0, 0])
        jsonl = tmp_path / "feed.jsonl"
        csv = tmp_path / "agg.csv"
        report = aggregate(broker, jsonl_out=jsonl, csv_out=csv)
        assert report.total == 4
        feed_lines = jsonl.read_text().strip().splitlines()
        assert json.loads(feed_lines[-1])["total"] == 4
        assert csv.read_text().splitlines()[1] == "1,3,4,25.00,75.00"

    def test_dead_letters_ignored(self, broker):
        self._emit(broker, [1, 0])
        broker.produce("Predicted-tweets", json.dumps({"kind": "dead_letter"}).encode())
        report = aggregate(broker)
        assert report.total == 2

    def test_hostile_records_skipped(self, broker):
        self._emit(broker, [1, 0])
        good = json.loads(PredictionEvent(0, 9, "t", 1, "suicide", 1.0, "d", 0).to_json())
        hostile = [[1, 2], "x", None, 7,
                   {**good, "label": "1"}, {**good, "label": 2},
                   {**good, "label": True}, {**good, "label": 1.0}]
        for value in hostile:
            broker.produce("Predicted-tweets", json.dumps(value).encode())
        report = aggregate(broker)
        assert (report.total, report.suicide) == (2, 1)
