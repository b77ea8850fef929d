import csv
import json
import random

import pytest

from ideation_stream.cli import main


@pytest.fixture(autouse=True)
def run_from_tmp(tmp_path, monkeypatch):
    # commands without a primary output drop their manifest in the cwd
    monkeypatch.chdir(tmp_path)

SAD = ["i want to die", "kill myself tonight maybe", "life feels hopeless i cry",
       "i cannot go on please help me die", "thinking about ending everything"]
OK = ["sunny day with my dog", "pizza night with friends", "the game was amazing",
      "new bike for my birthday", "museum trip tomorrow morning"]


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    rng = random.Random(3)
    path = tmp_path_factory.mktemp("data") / "corpus.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["text", "class"])
        for i in range(60):
            writer.writerow([f"{rng.choice(SAD)} case {i}", "suicide"])
            writer.writerow([f"{rng.choice(OK)} case {i}", "non-suicide"])
    return path


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, data_csv):
    out = tmp_path_factory.mktemp("model") / "m.isp"
    rc = main(["train", "--data", str(data_csv), "--model", "nb", "--combo",
               "uni-cv-idf", "--min-tf", "0", "--out", str(out), "--folds", "4",
               "--seed", "5"])
    assert rc == 0
    return out


class TestTrain:
    def test_train_writes_model_metrics_cv_manifest(self, tmp_path, data_csv):
        out = tmp_path / "model.isp"
        rc = main(["train", "--data", str(data_csv), "--model", "lr", "--combo",
                   "uni-cv-idf", "--min-tf", "0", "--out", str(out),
                   "--grid", "default", "--folds", "3", "--seed", "5",
                   "--metrics-out", str(tmp_path / "metrics.csv"),
                   "--cv-out", str(tmp_path / "cv.csv")])
        assert rc == 0
        assert out.is_file()
        assert (tmp_path / "model.isp.manifest.json").is_file()
        cv_rows = (tmp_path / "cv.csv").read_text().strip().splitlines()
        assert len(cv_rows) == 1 + 3  # header + 3 shipped l2 grid points

    def test_missing_column_exit_code(self, tmp_path, data_csv):
        rc = main(["train", "--data", str(data_csv), "--text-col", "nope",
                   "--out", str(tmp_path / "x.isp")])
        assert rc == 10

    def test_reruns_byte_identical_with_pinned_epoch(self, tmp_path, data_csv,
                                                     monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        args = ["train", "--data", str(data_csv), "--model", "nb", "--combo",
                "uni-cv-idf", "--min-tf", "0", "--folds", "0", "--seed", "9"]
        a, b = tmp_path / "a.isp", tmp_path / "b.isp"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_output(self, tmp_path, data_csv, capsys):
        out = tmp_path / "model.isp"
        rc = main(["train", "--data", str(data_csv), "--model", "nb", "--combo",
                   "uni-cv-idf", "--min-tf", "0", "--folds", "0", "--out",
                   str(out), "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == str(out)
        assert 0 <= payload["metrics"]["accuracy"] <= 1


    def test_hyper_values_reach_the_trainer(self, tmp_path, data_csv, capsys):
        # an int where the default is a float, a list for a tuple default
        for model, hyper, expected in (
                ("lr", ["l2=0", "max-iter=5"], {"l2": 0, "max_iter": 5}),
                ("mlp", ["hidden_layers=[4]"], {"hidden_layers": [4]}),
                ("dt", ["max_depth=3", "impurity=gini"], {"max_depth": 3, "impurity": "gini"})):
            argv = ["train", "--data", str(data_csv), "--model", model, "--combo",
                    "uni-cv-idf", "--min-tf", "0", "--folds", "0", "--json",
                    "--out", str(tmp_path / f"{model}.isp")]
            for pair in hyper:
                argv += ["--hyper", pair]
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["params"] == expected


class TestEvaluate:
    def test_metrics_row(self, trained_model, data_csv, capsys, tmp_path):
        rc = main(["evaluate", "--model", str(trained_model), "--data", str(data_csv),
                   "--out", str(tmp_path / "m.csv"),
                   "--roc-out", str(tmp_path / "roc.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "accuracy,precision,recall,f1,auc"
        roc = (tmp_path / "roc.csv").read_text().splitlines()
        assert roc[0] == "fpr,tpr,threshold"
        assert len(roc) > 2

    def test_roc_out_scores_once(self, trained_model, data_csv, tmp_path, monkeypatch):
        from ideation_stream import classifiers, evaluation

        calls = []
        score = evaluation.predict_batch
        for module in (classifiers, evaluation):  # every name a scorer is called by
            monkeypatch.setattr(module, "predict_batch",
                                lambda *a, **kw: calls.append(1) or score(*a, **kw))
        rc = main(["evaluate", "--model", str(trained_model), "--data", str(data_csv),
                   "--roc-out", str(tmp_path / "roc.csv")])
        assert rc == 0 and len(calls) == 1

    def test_bad_model_path_exit(self, data_csv, tmp_path):
        rc = main(["evaluate", "--model", str(tmp_path / "none.isp"),
                   "--data", str(data_csv)])
        assert rc == 52  # IoFailure


class TestTopTerms:
    def test_ranking(self, data_csv, capsys):
        rc = main(["top-terms", "--data", str(data_csv), "--class", "suicide",
                   "--k", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "term,frequency"
        assert len(lines) == 6
        terms = [line.split(",")[0] for line in lines[1:]]
        assert "die" in terms

    def test_unknown_class_exit(self, data_csv):
        assert main(["top-terms", "--data", str(data_csv), "--class", "other"]) == 43


class TestStreamingCommands:
    def test_full_streaming_flow(self, trained_model, tmp_path, capsys):
        broker_dir = str(tmp_path / "broker")
        feed = tmp_path / "feed.txt"
        feed.write_text("\n".join([f"i want to die case {i}" for i in range(4)]
                                  + [f"sunny day case {i}" for i in range(12)]) + "\n",
                        "utf-8")
        assert main(["broker", "create-topic", "--broker-dir", broker_dir,
                     "--topic", "Source-tweets"]) == 0
        assert main(["broker", "create-topic", "--broker-dir", broker_dir,
                     "--topic", "Predicted-tweets"]) == 0
        capsys.readouterr()
        assert main(["replay", "--broker-dir", broker_dir, "--file", str(feed),
                     "--topic", "Source-tweets", "--json"]) == 0
        replay_out = json.loads(capsys.readouterr().out)
        assert replay_out["produced"] == 16

        assert main(["serve", "--broker-dir", broker_dir, "--model",
                     str(trained_model), "--no-filter", "--stop-when-idle",
                     "--trigger-ms", "20", "--json"]) == 0
        serve_out = json.loads(capsys.readouterr().out)
        assert serve_out["events"] == 16

        csv_out = tmp_path / "agg.csv"
        assert main(["report", "--broker-dir", broker_dir, "--csv-out",
                     str(csv_out), "--json"]) == 0
        report_out = json.loads(capsys.readouterr().out)
        assert report_out["total"] == 16
        assert report_out["pct_suicide"] == 25.0
        assert csv_out.is_file()

    def test_duplicate_topic_exit(self, tmp_path):
        broker_dir = str(tmp_path / "broker")
        assert main(["broker", "create-topic", "--broker-dir", broker_dir,
                     "--topic", "t"]) == 0
        assert main(["broker", "create-topic", "--broker-dir", broker_dir,
                     "--topic", "t"]) == 60

    def test_replay_unknown_topic_exit(self, tmp_path):
        broker_dir = str(tmp_path / "broker")
        feed = tmp_path / "f.txt"
        feed.write_text("x\n", "utf-8")
        assert main(["replay", "--broker-dir", broker_dir, "--file", str(feed),
                     "--topic", "ghost"]) == 61

    def test_offsets_command(self, tmp_path, capsys):
        broker_dir = str(tmp_path / "broker")
        main(["broker", "create-topic", "--broker-dir", broker_dir, "--topic", "t"])
        capsys.readouterr()
        assert main(["broker", "offsets", "--broker-dir", broker_dir,
                     "--topic", "t", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["end_offsets"] == [0]

    def test_offsets_on_unreadable_topic_json_exit(self, tmp_path):
        broker_dir = tmp_path / "broker"
        main(["broker", "create-topic", "--broker-dir", str(broker_dir), "--topic", "t"])
        (broker_dir / "topics" / "t" / "topic.json").write_text("{trunc", "utf-8")
        assert main(["broker", "offsets", "--broker-dir", str(broker_dir),
                     "--topic", "t"]) == 51

    def test_create_topic_has_no_cap_option(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["broker", "create-topic", "--broker-dir", str(tmp_path / "b"),
                  "--topic", "t", "--retention", "5"])
        assert exc.value.code == 2

    def test_bench_subcommand_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["broker", "bench", "--broker-dir", str(tmp_path / "b")])
        assert exc.value.code == 2


DT_NO_CV = ["train", "--data", "d.csv", "--model", "dt", "--folds", "0"]


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["broker", "create-topic", "--broker-dir", "b", "--topic", "../x"],
        ["broker", "create-topic", "--broker-dir", "b", "--topic", "t", "--partitions", "0"],
        ["train", "--data", "d.csv", "--combo", "uni-tfidf", "--buckets", "48"],
        ["serve", "--broker-dir", "b", "--model", "m.isp", "--trigger-ms", "0"],
        ["serve", "--broker-dir", "b", "--model", "m.isp", "--output-topic", "Source-tweets"],
        ["serve", "--broker-dir", "b", "--model", "m.isp", "--group", "../x"],
        ["report", "--broker-dir", "b", "--group", "../x"],
        [*DT_NO_CV, "--hyper", "foo"],
        [*DT_NO_CV, "--hyper", "bogus=1"],
        [*DT_NO_CV, "--hyper", "max_depth=["],
        [*DT_NO_CV, "--hyper", "max_depth=abc"],
    ], ids=["topic-name", "partitions", "buckets", "trigger-ms", "same-topics",
            "serve-group", "report-group", "hyper-no-equals", "hyper-unknown-key",
            "hyper-bad-json", "hyper-wrong-type"])
    def test_bad_value_exits_2_before_any_work(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []  # no broker, manifest or model written


class TestInspect:
    def test_header_dump(self, trained_model, capsys):
        assert main(["inspect", "--model", str(trained_model)]) == 0
        header = json.loads(capsys.readouterr().out)
        assert header["model_kind"] == "nb"
        assert header["pipeline"]["combo"] == "uni-cv-idf"
