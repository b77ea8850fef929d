import io
import json
import tempfile
import warnings
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ideation_stream import preprocess as preprocess_mod
from ideation_stream import store, stream
from ideation_stream.broker import Broker
from ideation_stream.classifiers import LabeledDataset, predict, train_mlp, train_nb
from ideation_stream.errors import UnknownTopic
from ideation_stream.features import FeatureCombo, FeaturePipeline, fit_pipeline
from ideation_stream.preprocess import PreprocessConfig, preprocess
from ideation_stream.stream import (StreamConfig, StreamFilter, aggregate,
                                    prediction_json, replay_produce, run_stream)

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
    pipeline, _ = fit_pipeline(tokens, FeatureCombo.UNI_CV_IDF, min_tf=0)
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


class TestStreamConfig:
    @pytest.mark.parametrize("overrides", [
        {"trigger_interval_ms": 0.0}, {"micro_batch_max": 0},
        {"output_topic": "Source-tweets"}, {"language_filter": "klingon"},
        {"trigger_interval_ms": float("inf")}, {"trigger_interval_ms": 1e300},
        {"trigger_interval_ms": float("nan")},
    ], ids=["trigger-ms", "batch-max", "same-topics", "language", "trigger-ms-inf",
            "trigger-ms-past-timeout-max", "trigger-ms-nan"])
    def test_bad_value_raises(self, overrides):
        with pytest.raises(ValueError):
            _config("m.isp", **overrides)


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


# replay lines: any one-line text, and JSON values of every shape
LINE_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"),
                    max_size=12)
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | LINE_TEXT,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["text", "id"]) | LINE_TEXT, inner, max_size=3),
    max_leaves=8)
DEPTH = st.integers(0, 5).map(lambda k: 10 ** k)  # nesting up to past the parser's limit


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

    @settings(max_examples=60, deadline=None)
    @given(lines=st.lists(st.one_of(
        LINE_TEXT,
        LINE_TEXT.map(lambda t: "{" + t),
        JSON_VALUE.map(json.dumps),
        DEPTH.map(lambda n: '{"text": ' * n + '"a post"' + "}" * n),
        DEPTH.map(lambda n: "{" + "[" * n + "]" * n),
    ), max_size=6))
    def test_each_line_is_one_record_or_one_malformed(self, lines):
        with tempfile.TemporaryDirectory() as tmp, \
                Broker(f"{tmp}/log", durability="none") as broker:
            broker.create_topic("Source-tweets")
            feed = io.StringIO("".join(line + "\n" for line in lines))
            stats = replay_produce(feed, broker, "Source-tweets")
            assert stats.produced + stats.malformed == len(lines)
            assert broker.end_offsets("Source-tweets") == [stats.produced]


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
            event = json.loads(rec.value.decode())
            offline = predict(model, pipeline.transform(preprocess(text).tokens))
            assert event["label"] == offline.label
            assert event["score"] == offline.score  # bit-identical

    def test_language_rule_filters_each_kept_post_once(self, broker, model_path, tmp_path,
                                                       monkeypatch):
        feed = tmp_path / "feed.txt"
        lines = ["I want to DIE now, it's over", "zzkj qwpv xxyy zzttr", "RT i want to die",
                 "my life is hopeless and i cry", "qqq www eee rrr ttt"]
        feed.write_text("\n".join(lines) + "\n", "utf-8")
        replay_produce(feed, broker, "Source-tweets")
        calls = []
        real_filter_text = preprocess_mod.filter_text

        def counted(raw, config):
            calls.append(raw)
            return real_filter_text(raw, config)

        monkeypatch.setattr(preprocess_mod, "filter_text", counted)
        monkeypatch.setattr(stream, "filter_text", counted, raising=False)
        config = _config(model_path, filters_enabled=True,
                         language_filter="english-heuristic")
        stats = run_stream(broker, config, stop_when_idle=True)
        assert (stats.events, dict(stats.dropped)) == (2, {"language": 2, "retweet": 1})
        assert calls == [lines[0], lines[1], lines[3], lines[4]]

        pipeline, model = store.load(model_path)
        records = broker.consume("Predicted-tweets", "checker", max_records=100)
        for rec, text in zip(records, [lines[0], lines[3]], strict=True):
            event = json.loads(rec.value.decode())
            offline = predict(model, pipeline.transform(preprocess(text).tokens))
            assert (event["label"], event["score"]) == (offline.label, offline.score)

    @pytest.mark.parametrize("filters_enabled", [True, False])
    def test_each_kept_post_hashed_once(self, broker, model_path, tmp_path, monkeypatch,
                                        filters_enabled):
        feed = tmp_path / "feed.txt"
        lines = ["i want to die", "RT i want to die", "i want to die", "kill myself tonight"]
        feed.write_text("\n".join(lines) + "\n", "utf-8")
        replay_produce(feed, broker, "Source-tweets")
        calls = []
        real_sha256_hex = stream.sha256_hex

        def counted(text):
            calls.append(text)
            return real_sha256_hex(text)

        monkeypatch.setattr(stream, "sha256_hex", counted)
        config = _config(model_path, filters_enabled=filters_enabled, dedupe_window=16)
        stats = run_stream(broker, config, stop_when_idle=True)
        kept = [lines[0], lines[3]] if filters_enabled else lines
        assert stats.events == len(kept)
        assert calls == ([lines[0], lines[2], lines[3]] if filters_enabled else lines)
        records = broker.consume("Predicted-tweets", "checker", max_records=100)
        assert [json.loads(r.value.decode())["text_sha256"] for r in records] \
            == [real_sha256_hex(text) for text in kept]

    def test_mlp_events_match_offline_predictions_bitwise(self, broker, tmp_path):
        # the paper's real-time model: an MLP scoring micro-batches of many rows
        pconfig = PreprocessConfig.load_default()
        texts = POSITIVE_TEXTS * 4 + NEGATIVE_TEXTS * 4
        tokens = [preprocess(t, pconfig).tokens for t in texts]
        pipeline, batch = fit_pipeline(tokens, FeatureCombo.UNI_BI_CV_IDF, min_tf=0)
        model = train_mlp(LabeledDataset(batch, [1] * 12 + [0] * 12),
                          hidden_layers=[32, 16], epochs=5, seed=2)
        path = tmp_path / "mlp.isp"
        store.save(pipeline, model, path, preprocess_config_digest=pconfig.digest())
        words = " ".join(POSITIVE_TEXTS + NEGATIVE_TEXTS).split()
        lines = [" ".join(words[i % len(words):][:3 + i % 5]) + f" case {i}"
                 for i in range(40)]
        (tmp_path / "feed.txt").write_text("\n".join(lines) + "\n", "utf-8")
        replay_produce(tmp_path / "feed.txt", broker, "Source-tweets")
        stats = run_stream(broker, _config(path, micro_batch_max=16), stop_when_idle=True)
        assert (stats.batches, stats.events) == (3, 40)

        records = broker.consume("Predicted-tweets", "checker", max_records=100)
        scores = set()
        for rec, text in zip(records, lines, strict=True):
            event = json.loads(rec.value.decode())
            offline = predict(model, pipeline.transform(preprocess(text).tokens))
            assert (event["label"], event["score"]) == (offline.label, offline.score)
            scores.add(event["score"])
        assert len(scores) > 1

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
            event = prediction_json(rec.partition, rec.offset, "x", pred.label, pred.score,
                                    "digest", 0)
            broker.produce("Predicted-tweets", event.encode())
        # no commit -> engine restart reprocesses those offsets
        run_stream(broker, _config(model_path), stop_when_idle=True)

        records = broker.consume("Predicted-tweets", "checker", max_records=100)
        offsets = [json.loads(r.value.decode())["source_offset"] for r in records]
        assert len(offsets) == 9  # 3 duplicated + 6
        assert sorted(set(offsets)) == list(range(6))  # dedupe by offset recovers all

    def test_dead_letter_keeps_loop_alive(self, broker, model_path, tmp_path, monkeypatch):
        feed = tmp_path / "feed.txt"
        feed.write_text("poison pill\nhealthy line\n", "utf-8")
        replay_produce(feed, broker, "Source-tweets")

        real_predict_batch = stream.predict_batch

        def flaky(model, batch):
            if batch.indices.size == 0:  # 'poison pill' preprocesses to stopword-free tokens
                raise RuntimeError("boom")
            return real_predict_batch(model, batch)

        monkeypatch.setattr(stream, "predict_batch", flaky)
        pipeline, _ = store.load(model_path)
        poison_nnz = pipeline.transform(preprocess("poison pill").tokens).indices.size
        healthy_nnz = pipeline.transform(preprocess("healthy line").tokens).indices.size
        assert poison_nnz == 0 and healthy_nnz == 0  # both OOV -> both dead-letter
        stats = run_stream(broker, _config(model_path), stop_when_idle=True)
        assert stats.dead_letters == 2
        assert stats.consumed == 2

    def test_one_vectorize_and_score_call_per_micro_batch(self, broker, model_path,
                                                         tmp_path, monkeypatch):
        feed = tmp_path / "feed.txt"
        feed.write_text("\n".join(f"i want to die case {i}" for i in range(10)) + "\n", "utf-8")
        replay_produce(feed, broker, "Source-tweets")
        calls = {"transform_batch": [], "predict_batch": [], "predict": 0}
        real_transform_batch = FeaturePipeline.transform_batch
        real_predict_batch = stream.predict_batch

        def counted_transform_batch(self, docs):
            calls["transform_batch"].append(len(docs))
            return real_transform_batch(self, docs)

        def counted_predict_batch(model, batch):
            calls["predict_batch"].append(batch.n_rows)
            return real_predict_batch(model, batch)

        def counted_predict(model, batch):
            calls["predict"] += 1
            return predict(model, batch)

        monkeypatch.setattr(FeaturePipeline, "transform_batch", counted_transform_batch)
        monkeypatch.setattr(stream, "predict_batch", counted_predict_batch)
        monkeypatch.setattr(stream, "predict", counted_predict)
        stats = run_stream(broker, _config(model_path, micro_batch_max=4), stop_when_idle=True)
        assert stats.batches == 3 and stats.events == 10
        assert calls == {"transform_batch": [4, 4, 2], "predict_batch": [4, 4, 2], "predict": 0}

    def test_preprocess_failure_dead_letters_only_its_record(self, broker, model_path,
                                                            tmp_path, monkeypatch):
        feed = tmp_path / "feed.txt"
        lines = ["i want to die", "happy sunny day", "poison pill", "kill myself", "my dog"]
        feed.write_text("\n".join(lines) + "\n", "utf-8")
        replay_produce(feed, broker, "Source-tweets")
        real_preprocess = stream.preprocess

        def flaky(text, config=None):
            if text == "poison pill":
                raise RuntimeError("boom")
            return real_preprocess(text, config)

        monkeypatch.setattr(stream, "preprocess", flaky)
        stats = run_stream(broker, _config(model_path), stop_when_idle=True)
        assert (stats.batches, stats.events, stats.dead_letters) == (1, 4, 1)
        outputs = [json.loads(r.value) for r in
                   broker.consume("Predicted-tweets", "checker", max_records=100)]
        assert [o["source_offset"] for o in outputs] == [0, 1, 2, 3, 4]
        assert [o["kind"] for o in outputs] == ["prediction"] * 2 + ["dead_letter"] + \
            ["prediction"] * 2
        assert outputs[2]["error"] == "RuntimeError: boom"

    def test_requires_topics(self, tmp_path, model_path):
        with Broker(tmp_path / "nolog") as b:
            with pytest.raises(UnknownTopic):
                run_stream(b, _config(model_path), stop_when_idle=True)

    def test_empty_input_idles_then_stops(self, broker, model_path):
        stats = run_stream(broker, _config(model_path), stop_when_idle=True)
        assert stats.consumed == 0 and stats.events == 0
        assert broker.end_offsets("Predicted-tweets") == [0]

    def test_warns_when_stored_preprocess_digest_differs(self, broker, model_path, tmp_path):
        pipeline, model = store.load(model_path)
        other = tmp_path / "other-tables.isp"
        store.save(pipeline, model, other, preprocess_config_digest="ab" * 32)
        (tmp_path / "feed.txt").write_text("i want to die\n", "utf-8")
        replay_produce(tmp_path / "feed.txt", broker, "Source-tweets")
        with pytest.warns(UserWarning, match="preprocess config differs"):
            stats = run_stream(broker, _config(other), stop_when_idle=True)
        assert stats.events == 1

    def test_no_warning_when_stored_preprocess_digest_matches(self, broker, model_path,
                                                             tmp_path):
        assert store.inspect_header(model_path)["preprocess_config_digest"] == \
            PreprocessConfig.load_default().digest()
        (tmp_path / "feed.txt").write_text("i want to die\n", "utf-8")
        replay_produce(tmp_path / "feed.txt", broker, "Source-tweets")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stats = run_stream(broker, _config(model_path), stop_when_idle=True)
        assert stats.events == 1

    def test_filters_drop_and_count(self, broker, model_path, tmp_path):
        feed = tmp_path / "feed.txt"
        feed.write_text("RT i want to die\nsame text\nsame text\ni want to die\n", "utf-8")
        replay_produce(feed, broker, "Source-tweets")
        config = _config(model_path, filters_enabled=True, dedupe_window=16)
        stats = run_stream(broker, config, stop_when_idle=True)
        assert stats.dropped["retweet"] == 1
        assert stats.dropped["duplicate"] == 1
        assert stats.events == 2


class TestPredictionEvent:
    FIELDS = dict(partition=3, offset=17, text_sha256="ab" * 32, label=1, score=0.8125,
                  model_digest="cd" * 32, processed_at_ms=1700000000123)

    def test_json_bytes(self):
        assert prediction_json(**self.FIELDS) == (
            '{"kind": "prediction", "label": 1, "label_name": "suicide", "model_digest": '
            '"cdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcdcd", '
            '"processed_at_ms": 1700000000123, "score": 0.8125, "source_offset": 17, '
            '"source_partition": 3, "text_sha256": '
            '"abababababababababababababababababababababababababababababababab"}')

    def test_json_bytes_keep_full_float_repr(self):
        event = prediction_json(0, 2 ** 40, "ef" * 32, 0, 0.1 + 0.2, "01" * 32, 0)
        assert event == (
            '{"kind": "prediction", "label": 0, "label_name": "non-suicide", '
            '"model_digest": "0101010101010101010101010101010101010101010101010101010101010101", '
            '"processed_at_ms": 0, "score": 0.30000000000000004, '
            '"source_offset": 1099511627776, "source_partition": 0, "text_sha256": '
            '"efefefefefefefefefefefefefefefefefefefefefefefefefefefefefefefef"}')

    @settings(max_examples=300, deadline=None)
    @given(score=st.floats(), digest=st.text(), processed_at_ms=st.integers(0, 2 ** 63),
           source_offset=st.integers(0, 2 ** 63), source_partition=st.integers(0, 1023),
           label=st.integers(0, 1))
    @example(score=0.0, digest="d", processed_at_ms=0, source_offset=0, source_partition=0,
             label=0)
    @example(score=-0.0, digest="d", processed_at_ms=0, source_offset=0, source_partition=0,
             label=0)
    @example(score=5e-324, digest="d", processed_at_ms=0, source_offset=0,
             source_partition=0, label=0)
    @example(score=1e300, digest="d", processed_at_ms=0, source_offset=0, source_partition=0,
             label=1)
    @example(score=1 / 3, digest='"\\\u00e9\n\ud800', processed_at_ms=1, source_offset=2,
             source_partition=3, label=1)
    @example(score=1, digest="d", processed_at_ms=0, source_offset=0, source_partition=0,
             label=1)
    @example(score=float("nan"), digest="d", processed_at_ms=0, source_offset=0,
             source_partition=0, label=1)
    @example(score=float("inf"), digest="d", processed_at_ms=0, source_offset=0,
             source_partition=0, label=1)
    @example(score=float("-inf"), digest="d", processed_at_ms=0, source_offset=0,
             source_partition=0, label=0)
    def test_json_bytes_equal_json_dumps(self, score, digest, processed_at_ms, source_offset,
                                         source_partition, label):
        event = prediction_json(source_partition, source_offset, digest, label, score,
                                digest[::-1], processed_at_ms)
        assert event == json.dumps({"kind": "prediction", "source_partition": source_partition,
                                    "source_offset": source_offset, "text_sha256": digest,
                                    "label": label,
                                    "label_name": "suicide" if label else "non-suicide",
                                    "score": score, "model_digest": digest[::-1],
                                    "processed_at_ms": processed_at_ms}, sort_keys=True)

    def test_round_trip_and_missing_field(self, broker):
        event = json.loads(prediction_json(**self.FIELDS))
        assert event == {"kind": "prediction", "source_partition": 3, "source_offset": 17,
                         "text_sha256": "ab" * 32, "label": 1, "label_name": "suicide",
                         "score": 0.8125, "model_digest": "cd" * 32,
                         "processed_at_ms": 1700000000123}
        for key in event:  # `report` counts only the whole event
            broker.produce("Predicted-tweets",
                           json.dumps({k: v for k, v in event.items() if k != key}).encode())
        broker.produce("Predicted-tweets", json.dumps(event).encode())
        assert aggregate(broker).total == 1


class TestAggregate:
    def _emit(self, broker, labels):
        for i, label in enumerate(labels):
            event = prediction_json(0, i, f"t{i}", label, float(label), "d", 0)
            broker.produce("Predicted-tweets", event.encode())

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

    @settings(max_examples=15, deadline=None)
    @given(runs=st.lists(st.tuples(st.sampled_from([0, 1]), st.integers(1, 3000)),
                         max_size=5),
           window=st.none() | st.integers(1, 9000))
    @example(runs=[(1, 5000), (0, 4000)], window=None)
    @example(runs=[(1, 5000), (0, 4000)], window=3000)
    def test_snapshots_equal_a_recount(self, runs, window):
        # aggregate consumes 4096 records per batch and writes one snapshot per batch
        labels = [label for label, length in runs for _ in range(length)]
        with tempfile.TemporaryDirectory() as tmp, \
                Broker(f"{tmp}/log", durability="none") as broker:
            broker.create_topic("Predicted-tweets")
            self._emit(broker, labels)
            report = aggregate(broker, window=window, jsonl_out=f"{tmp}/feed.jsonl")
            with open(f"{tmp}/feed.jsonl", encoding="utf-8") as fh:
                snapshots = [json.loads(line) for line in fh]
        ends = list(range(4096, len(labels), 4096)) + [len(labels)] if labels else []
        assert len(snapshots) == len(ends)
        for snapshot, end in zip(snapshots + [report.to_dict()], ends + [len(labels)]):
            counted = list(deque(labels[:end], maxlen=window))
            pos = sum(counted)
            assert snapshot == {
                "total": len(counted), "suicide": pos, "non_suicide": len(counted) - pos,
                "pct_suicide": round(100.0 * pos / len(counted), 2) if counted else None,
                "pct_non_suicide": (round(100.0 * (len(counted) - pos) / len(counted), 2)
                                    if counted else None)}

    def test_dead_letters_ignored(self, broker):
        self._emit(broker, [1, 0])
        broker.produce("Predicted-tweets", json.dumps({"kind": "dead_letter"}).encode())
        report = aggregate(broker)
        assert report.total == 2

    def test_hostile_records_skipped(self, broker):
        self._emit(broker, [1, 0])
        good = json.loads(prediction_json(0, 9, "t", 1, 1.0, "d", 0))
        hostile = [[1, 2], "x", None, 7,
                   {**good, "label": "1"}, {**good, "label": 2},
                   {**good, "label": True}, {**good, "label": 1.0}]
        for value in hostile:
            broker.produce("Predicted-tweets", json.dumps(value).encode())
        report = aggregate(broker)
        assert (report.total, report.suicide) == (2, 1)
