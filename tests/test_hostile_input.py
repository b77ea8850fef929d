"""Input from outside the process (replay lines, output-topic records,
broker metadata, `.isp` headers, JSON options) that is nested deeper than
the JSON parser recurses counts as malformed: a skipped line or record, a
typed error, or a usage error, never a traceback."""

import json

import pytest

from ideation_stream import store
from ideation_stream.broker import Broker
from ideation_stream.classifiers import LabeledDataset, train_nb
from ideation_stream.cli import main
from ideation_stream.errors import CorruptPayload
from ideation_stream.features import FeatureCombo, fit_pipeline
from ideation_stream.stream import prediction_json

from conftest import replace_isp_header

DEPTH = 100_000  # far past the parser's recursion limit
DEEP_ARRAY = "[" * DEPTH + "]" * DEPTH
DEEP_OBJECT = '{"text":' * DEPTH + '"a post"' + "}" * DEPTH


@pytest.fixture(autouse=True)
def run_from_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # manifests land in the cwd


def _broker_with_events(*values: bytes) -> None:
    with Broker("b") as broker:
        broker.create_topic("Predicted-tweets")
        for value in values:
            broker.produce("Predicted-tweets", value)


def _isp_with_deep_header() -> None:
    docs = [["want", "die"], ["sunny", "day"], ["die", "alone"], ["fun", "day"]]
    pipeline, batch = fit_pipeline(docs, FeatureCombo.UNI_CV_IDF, min_tf=0)
    store.save(pipeline, train_nb(LabeledDataset(batch, [1, 0, 1, 0])), "m.isp")
    replace_isp_header("m.isp", DEEP_ARRAY)


def _replay():
    with open("feed.txt", "w", encoding="utf-8") as fh:
        fh.write(DEEP_OBJECT + "\nhello there\n")
    return ["replay", "--broker-dir", "b", "--file", "feed.txt", "--create-topics"]


def _report():
    _broker_with_events(DEEP_ARRAY.encode(), prediction_json(0, 0, "t", 1, 0.9, "d", 0).encode())
    return ["report", "--broker-dir", "b"]


def _group_file():
    _broker_with_events()
    with open("b/groups/aggregate.json", "w", encoding="utf-8") as fh:
        fh.write(DEEP_ARRAY)
    return ["report", "--broker-dir", "b"]


def _topic_file():
    _broker_with_events()
    with open("b/topics/Predicted-tweets/topic.json", "w", encoding="utf-8") as fh:
        fh.write(DEEP_ARRAY)
    return ["report", "--broker-dir", "b"]


def _inspect():
    _isp_with_deep_header()
    return ["inspect", "--model", "m.isp"]


def _evaluate():
    _isp_with_deep_header()
    with open("d.csv", "w", encoding="utf-8") as fh:
        fh.write("text,class\ni want to die,suicide\nsunny day,non-suicide\n")
    return ["evaluate", "--model", "m.isp", "--data", "d.csv"]


def _train(option):
    def argv():
        return ["train", "--data", "d.csv", "--model", "lr", option]
    return argv


@pytest.mark.parametrize("setup, code, payload", [
    (_replay, 0, {"produced": 1, "malformed": 1}),
    (_report, 0, {"total": 1, "suicide": 1}),
    (_group_file, CorruptPayload.exit_code, None),
    (_topic_file, CorruptPayload.exit_code, None),
    (_inspect, CorruptPayload.exit_code, None),
    (_evaluate, CorruptPayload.exit_code, None),
    (_train(f"--hyper=l2={DEEP_ARRAY}"), 2, None),  # argparse usage error
    (_train(f"--grid={DEEP_ARRAY}"), 2, None),
], ids=["replay-line", "report-record", "group-file", "topic-file", "isp-header-inspect",
        "isp-header-evaluate", "train-hyper", "train-grid"])
def test_deeply_nested_json_is_malformed_input(setup, code, payload, capsys):
    argv = setup()
    try:
        rc = main([*argv, "--json"] if payload else argv)
    except SystemExit as exc:
        rc = exc.code
    assert rc == code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if payload:
        got = json.loads(out.splitlines()[-1])
        assert {key: got[key] for key in payload} == payload

