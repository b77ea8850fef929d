import csv
import json
import os
import random
from pathlib import Path

import pytest

from ideation_stream import errors
from ideation_stream.broker import Broker
from ideation_stream.cli import main
from ideation_stream.stream import prediction_json


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
        # an inline grid runs one CV per listed point
        assert main(["train", "--data", str(data_csv), "--model", "lr", "--combo",
                     "uni-cv-idf", "--min-tf", "0", "--out", str(out),
                     "--grid", '{"l2": [0, 0.5]}', "--folds", "3", "--seed", "5",
                     "--cv-out", str(tmp_path / "cv.csv")]) == 0
        assert len((tmp_path / "cv.csv").read_text().strip().splitlines()) == 1 + 2

    @pytest.mark.parametrize("combo", ["uni-bi-cv-idf", "uni-tfidf"])
    def test_training_tokens_are_vectorized_once(self, tmp_path, data_csv, monkeypatch, combo):
        # the fit returns the training batch; only the test split is transformed
        from ideation_stream import features

        fits, transforms = [], []
        fit, transform = features.fit_pipeline, features.FeaturePipeline.transform_batch
        monkeypatch.setattr(features, "fit_pipeline",
                            lambda docs, *a, **k: fits.append(len(docs)) or fit(docs, *a, **k))
        monkeypatch.setattr(features.FeaturePipeline, "transform_batch",
                            lambda pipe, docs: (transforms.append(len(docs))
                                                or transform(pipe, docs)))
        assert main(["train", "--data", str(data_csv), "--model", "nb", "--combo", combo,
                     "--min-tf", "0", "--folds", "0", "--out", str(tmp_path / "m.isp")]) == 0
        manifest = json.loads((tmp_path / "m.isp.manifest.json").read_text())
        assert manifest["train_rows"] and manifest["test_rows"]
        assert fits == [manifest["train_rows"]]
        assert transforms == [manifest["test_rows"]]

    def test_missing_column_exit_code(self, tmp_path, data_csv):
        rc = main(["train", "--data", str(data_csv), "--text-col", "nope",
                   "--out", str(tmp_path / "x.isp")])
        assert rc == 10

    @pytest.mark.parametrize("kind", ["nb", "lr", "svc", "dt", "rf", "mlp"])
    def test_reruns_byte_identical_with_pinned_epoch(self, tmp_path, data_csv,
                                                     monkeypatch, kind):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        args = ["train", "--data", str(data_csv), "--model", kind, "--combo",
                "uni-cv-idf", "--min-tf", "0", "--folds", "0", "--seed", "9"]
        args += ["--hyper", "num_trees=10"] if kind == "rf" else []
        a, b = tmp_path / "a.isp", tmp_path / "b.isp"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("kind", ["nb", "lr", "svc", "dt", "rf", "mlp"])
    def test_cv_and_the_saved_model_do_not_depend_on_the_cpus(self, tmp_path, data_csv,
                                                             monkeypatch, capsys, kind):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        args = ["train", "--data", str(data_csv), "--model", kind, "--combo",
                "uni-cv-idf", "--min-tf", "0", "--folds", "3", "--seed", "9", "--json"]
        args += ["--hyper", "num_trees=10"] if kind == "rf" else []
        seen = []
        for n in (1, 3):  # one CPU runs every job in turn; three fork two children
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
            out = tmp_path / f"{n}.isp"
            assert main(args + ["--out", str(out)]) == 0
            payload = json.loads(capsys.readouterr().out)
            seen.append((out.read_bytes(), payload["digest"], payload["cv"]))
        assert seen[0] == seen[1]
        assert len(seen[0][2][0]["folds"]) == 3

    def test_a_grid_does_not_depend_on_the_cpus(self, tmp_path, data_csv, monkeypatch,
                                                capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        seen = []
        for n in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=n: set(range(n)))
            out, cv = tmp_path / f"{n}.isp", tmp_path / f"{n}.csv"
            assert main(["train", "--data", str(data_csv), "--model", "lr", "--combo",
                         "uni-cv-idf", "--min-tf", "0", "--grid", "default", "--folds", "3",
                         "--seed", "9", "--json", "--out", str(out),
                         "--cv-out", str(cv)]) == 0
            payload = json.loads(capsys.readouterr().out)
            del payload["model"], payload["manifest"]
            seen.append((out.read_bytes(), cv.read_text(), payload))
        assert seen[0] == seen[1]
        assert len(seen[0][2]["cv"]) == 3

    def test_grid_points_are_scored_with_the_hyper_values(self, tmp_path, data_csv,
                                                          monkeypatch, capsys):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        base = ["train", "--data", str(data_csv), "--model", "lr", "--combo", "uni-cv-idf",
                "--min-tf", "0", "--seed", "5", "--json", "--hyper", "max_iter=1"]
        cv = tmp_path / "cv.csv"
        assert main([*base, "--grid", '{"l2": [0, 0.5]}', "--folds", "3",
                     "--cv-out", str(cv), "--out", str(tmp_path / "grid.isp")]) == 0
        payload = json.loads(capsys.readouterr().out)
        scored = [entry["params"] for entry in payload["cv"]]
        assert scored == [{"l2": 0, "max_iter": 1}, {"l2": 0.5, "max_iter": 1}]
        with open(cv, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]  # lr,"{params}",mean,std
        assert [json.loads(row[1]) for row in rows] == scored
        winner = max(payload["cv"], key=lambda entry: entry["mean_accuracy"])["params"]
        assert payload["params"] == winner
        # the saved model is the winner's, as a plain fit with its params would save it
        assert main([*base, "--hyper", f"l2={winner['l2']}", "--folds", "0",
                     "--out", str(tmp_path / "plain.isp")]) == 0
        assert json.loads(capsys.readouterr().out)["params"] == winner
        assert (tmp_path / "grid.isp").read_bytes() == (tmp_path / "plain.isp").read_bytes()

    @pytest.mark.parametrize("folds", [["--folds", "1"], ["--grid", "default", "--folds", "0"]])
    def test_too_few_folds_exit_32(self, tmp_path, data_csv, folds):
        out = tmp_path / "m.isp"
        assert main(["train", "--data", str(data_csv), "--model", "nb", "--combo",
                     "uni-cv-idf", "--min-tf", "0", "--out", str(out), *folds]) == 32
        assert not out.exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("fails, code", [("fit", errors.DegenerateLabels.exit_code),
                                             ("fold", errors.TooFewRows.exit_code)])
    def test_a_failing_fold_or_fit_keeps_its_exit_code(self, tmp_path, data_csv,
                                                       monkeypatch, cpus, fails, code):
        from ideation_stream.classifiers import ModelKind, selection

        real = selection.TRAINERS[ModelKind.NB]

        def trainer(data, seed, **params):
            if seed == 9:  # the final fit; the folds get derived seeds
                raise errors.DegenerateLabels("the final fit")
            if fails == "fold":
                raise errors.TooFewRows("a fold")
            return real(data, seed=seed, **params)

        monkeypatch.setitem(selection.TRAINERS, ModelKind.NB, trainer)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / "m.isp"
        assert main(["train", "--data", str(data_csv), "--model", "nb", "--combo",
                     "uni-cv-idf", "--min-tf", "0", "--folds", "3", "--seed", "9",
                     "--out", str(out)]) == code
        assert not out.exists()

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
                ("dt", ["max_depth=3"], {"max_depth": 3})):
            argv = ["train", "--data", str(data_csv), "--model", model, "--combo",
                    "uni-cv-idf", "--min-tf", "0", "--folds", "0", "--json",
                    "--out", str(tmp_path / f"{model}.isp")]
            for pair in hyper:
                argv += ["--hyper", pair]
            assert main(argv) == 0
            assert json.loads(capsys.readouterr().out)["params"] == expected


class TestOutOfRangeHyperparameters:
    @pytest.mark.parametrize("model,extra", [
        ("dt", ["--hyper", "max_depth=0"]),
        ("svc", ["--hyper", "c=0"]),
        ("nb", ["--hyper", "alpha=-1"]),
        ("mlp", ["--hyper", "hidden_layers=[]"]),
        ("rf", ["--hyper", "feature_fraction=2.0"]),
        ("mlp", ["--hyper", "batch_size=0"]),
        ("dt", ["--grid", '{"max_depth": [0]}', "--folds", "3"]),  # raised in fold workers
        ("lr", ["--hyper", "l2=-1"]),
        ("rf", ["--hyper", "max_depth=0"]),
        ("dt", ["--hyper", "min_leaf=0"]),
        ("rf", ["--hyper", "min_leaf=-1"]),
        ("lr", ["--hyper", "max_iter=0"]),
        ("svc", ["--hyper", "tol=-1"]),
        ("mlp", ["--hyper", "learning_rate=-0.01"]),
        ("mlp", ["--hyper", "learning_rate=1e309"]),  # JSON reads it as inf
        ("mlp", ["--hyper", "epochs=0"]),
    ], ids=["dt-max-depth", "svc-c", "nb-alpha", "mlp-no-hidden-layer", "rf-feature-fraction",
            "mlp-batch-size", "grid-in-cv", "lr-l2", "rf-max-depth", "dt-min-leaf",
            "rf-min-leaf", "lr-max-iter", "svc-tol", "mlp-learning-rate", "mlp-learning-rate-inf",
            "mlp-epochs"])
    def test_exits_34_without_traceback(self, tmp_path, data_csv, capsys, model, extra):
        out = tmp_path / "m.isp"
        rc = main(["train", "--data", str(data_csv), "--model", model, "--combo",
                   "uni-cv-idf", "--min-tf", "0", "--folds", "0", "--out", str(out), *extra])
        assert rc == 34  # InvalidHyperparameter
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


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
                     "--trigger-ms", "20", "--batch-max", "5", "--json"]) == 0
        serve_out = json.loads(capsys.readouterr().out)
        assert serve_out["events"] == 16

        csv_out = tmp_path / "agg.csv"
        assert main(["report", "--broker-dir", broker_dir, "--csv-out",
                     str(csv_out), "--json"]) == 0
        report_out = json.loads(capsys.readouterr().out)
        assert report_out["total"] == 16
        assert report_out["pct_suicide"] == 25.0
        assert csv_out.is_file()
        # a second group with a window counts only the last 4 events
        assert main(["report", "--broker-dir", broker_dir, "--group", "last4",
                     "--window", "4", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 4

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
        [*DT_NO_CV, "--hyper", "impurity=gini"],  # the tree always splits on Gini
        [*DT_NO_CV, "--hyper", "max_depth=["],
        [*DT_NO_CV, "--hyper", "max_depth=abc"],
        ["train", "--data", "d.csv", "--train-frac", "1.5"],
        ["train", "--data", "d.csv", "--train-frac", "0"],
        [*DT_NO_CV, "--grid", "{bad"],
        [*DT_NO_CV, "--grid", '{"bogus": [1]}'],
        ["train", "--data", "d.csv", "--model", "lr", "--grid", '{"l2": 0.1}'],
        [*DT_NO_CV, "--grid", '{"max_depth": []}'],
        [*DT_NO_CV, "--grid", "{}"],
        [*DT_NO_CV, "--grid", "[8]"],
        [*DT_NO_CV, "--grid", '{"max_depth": [8, "x"]}'],
        [*DT_NO_CV, "--grid", '{"max_depth": [8]}', "--hyper", "max_depth=4"],
        ["train", "--data", "d.csv", "--model", "lr", "--grid", "default", "--hyper", "l2=0"],
        ["serve", "--broker-dir", "b", "--model", "m.isp", "--batch-max", "0"],
        ["report", "--broker-dir", "b", "--window", "abc"],
        ["report", "--broker-dir", "b", "--window", "-5"],
        ["report", "--broker-dir", "b", "--window", "0"],
        ["train", "--data", "d.csv", "--vocab-cap", "0"],
        ["train", "--data", "d.csv", "--vocab-cap", "-1"],
        ["train", "--data", "d.csv", "--folds", "-1"],
        ["top-terms", "--data", "d.csv", "--class", "suicide", "--k", "0"],
        ["top-terms", "--data", "d.csv", "--class", "suicide", "--k", "-1"],
        ["serve", "--broker-dir", "b", "--model", "m.isp", "--dedupe-window", "-1"],
        ["serve", "--broker-dir", "b", "--model", "m.isp", "--trigger-ms", "inf"],
        ["serve", "--broker-dir", "b", "--model", "m.isp", "--trigger-ms", "1e300"],
        ["replay", "--broker-dir", "b", "--file", "f.txt", "--rate", "-3"],
        ["replay", "--broker-dir", "b", "--file", "f.txt", "--rate", "nan"],
    ], ids=["topic-name", "partitions", "buckets", "trigger-ms", "same-topics",
            "serve-group", "report-group", "hyper-no-equals", "hyper-unknown-key", "hyper-impurity",
            "hyper-bad-json", "hyper-wrong-type", "train-frac-above-1", "train-frac-0",
            "grid-bad-json", "grid-unknown-key", "grid-not-a-list", "grid-empty-list",
            "grid-empty", "grid-not-an-object", "grid-wrong-type", "grid-and-hyper-key",
            "default-grid-and-hyper-key", "batch-max",
            "window-text", "window-negative", "window-zero", "vocab-cap-0",
            "vocab-cap-negative", "folds-negative", "k-0", "k-negative",
            "dedupe-window-negative", "trigger-ms-inf", "trigger-ms-past-timeout-max",
            "rate-negative", "rate-nan"])
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


NB_FAST = ["--model", "nb", "--combo", "uni-cv-idf", "--min-tf", "0", "--folds", "0",
           "--out", "m.isp"]


class TestFileErrors:
    @pytest.mark.parametrize("argv", [
        ["train", "--data", "missing.csv"],
        ["train", "--data", "."],
        ["top-terms", "--data", "missing.csv", "--class", "suicide"],
        ["evaluate", "--model", "{model}", "--data", "missing.csv"],
        ["replay", "--broker-dir", "b", "--create-topics", "--file", "missing.txt"],
        ["train", "--data", "{data}", *NB_FAST, "--metrics-out", "nodir/x.csv"],
        ["train", "--data", "{data}", *NB_FAST, "--folds", "3", "--cv-out", "nodir/cv.csv"],
        ["evaluate", "--model", "{model}", "--data", "{data}", "--out", "nodir/e.csv"],
        ["evaluate", "--model", "{model}", "--data", "{data}", "--roc-out", "nodir/r.csv"],
        ["top-terms", "--data", "{data}", "--class", "suicide", "--out", "nodir/t.csv"],
        ["report", "--broker-dir", "b", "--jsonl-out", "nodir/r.jsonl"],
        ["report", "--broker-dir", "b", "--csv-out", "nodir/r.csv"],
        ["top-terms", "--data", "{data}", "--class", "suicide", "--out", "blocked.csv"],
        ["broker", "offsets", "--broker-dir", "feed.txt", "--topic", "t"],
    ], ids=["train-data-missing", "train-data-is-a-directory", "top-terms-data-missing",
            "evaluate-data-missing", "replay-file-missing", "train-metrics-out",
            "train-cv-out", "evaluate-out", "evaluate-roc-out", "top-terms-out",
            "report-jsonl-out", "report-csv-out", "manifest-path-is-a-directory",
            "broker-dir-is-a-file"])
    def test_exits_52_without_traceback(self, tmp_path, data_csv, trained_model, capsys,
                                        argv):
        assert main(["broker", "create-topic", "--broker-dir", "b",
                     "--topic", "Predicted-tweets"]) == 0
        with Broker("b") as broker:
            for label in (1, 0, 1):
                event = prediction_json(0, 0, "0" * 64, label, 0.5, "d", 0)
                broker.produce("Predicted-tweets", event.encode())
        (tmp_path / "blocked.csv.manifest.json").mkdir()
        (tmp_path / "feed.txt").write_text("a post\n", "utf-8")
        capsys.readouterr()
        argv = [a.format(data=data_csv, model=trained_model) for a in argv]
        assert main(argv) == 52  # IoFailure
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        # a failed train leaves no model, a failed report its group's offsets
        assert not (tmp_path / "m.isp").exists()
        assert main(["report", "--broker-dir", "b", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["total"] == 3


MANIFEST_KEYS = {"argv", "command", "duration_s", "input_digests", "outputs", "seeds",
                 "started_at"}


class TestManifests:
    @pytest.mark.parametrize("argv,path,extra", [
        (["train", "--data", "{data}", *NB_FAST, "--metrics-out", "met.csv"], "m.isp",
         {"model_digest", "rows_loaded", "duplicates_removed", "train_rows", "test_rows",
          "params"}),
        (["evaluate", "--model", "{model}", "--data", "{data}"], "evaluate", set()),
        (["top-terms", "--data", "{data}", "--class", "suicide", "--out", "t.csv"], "t.csv",
         set()),
        (["replay", "--broker-dir", "b", "--file", "feed.txt"], "replay",
         {"produced", "malformed"}),
        (["serve", "--broker-dir", "b", "--model", "{model}", "--stop-when-idle",
          "--trigger-ms", "20"], "serve",
         {"consumed", "events", "dead_letters", "dropped", "p50_latency_ms"}),
        (["report", "--broker-dir", "b", "--csv-out", "agg.csv", "--jsonl-out", "agg.jsonl"],
         "agg.csv", set()),
    ], ids=["train", "evaluate", "top-terms", "replay", "serve", "report"])
    def test_keys_and_payload_path(self, tmp_path, data_csv, trained_model, capsys,
                                   argv, path, extra):
        (tmp_path / "feed.txt").write_text("i want to die\nsunny day\n{bad\n", "utf-8")
        for topic in ("Source-tweets", "Predicted-tweets"):
            assert main(["broker", "create-topic", "--broker-dir", "b", "--topic", topic]) == 0
        replay = ["replay", "--broker-dir", "b", "--file", "feed.txt"]
        serve = ["serve", "--broker-dir", "b", "--model", str(trained_model),
                 "--stop-when-idle", "--trigger-ms", "20"]
        for step in {"serve": [replay], "report": [replay, serve]}.get(argv[0], []):
            assert main(step) == 0
        capsys.readouterr()
        argv = [a.format(data=data_csv, model=trained_model) for a in argv]
        assert main([*argv, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["manifest"] == f"{path}.manifest.json"
        manifest = json.loads((tmp_path / payload["manifest"]).read_text())
        assert set(manifest) == MANIFEST_KEYS | extra
        assert manifest["command"] == argv[0]
        assert all((tmp_path / out).is_file() for out in manifest["outputs"])
        # the counts a streaming command reports are its manifest's extra keys
        shared = extra & set(payload)
        assert {k: manifest[k] for k in shared} == {k: payload[k] for k in shared}


def _error_classes() -> list[type]:
    return [cls for cls in vars(errors).values() if isinstance(cls, type)
            and issubclass(cls, errors.IdeationStreamError)
            and cls is not errors.IdeationStreamError]


class TestExitCodes:
    def test_each_error_class_has_its_own_code(self):
        codes = [cls.__dict__.get("exit_code") for cls in _error_classes()]
        assert all(type(code) is int and code not in (0, 1, 2) for code in codes), codes
        assert len(set(codes)) == len(codes)
        assert errors.IdeationStreamError.exit_code == 1

    def test_readme_table_lists_exactly_those_codes(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        section = readme.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
        listed = set()
        for line in section.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            listed |= {(int(code), name) for code, name in zip(cells[::2], cells[1::2])
                       if code.isdigit()}
        assert listed == {(cls.exit_code, cls.__name__) for cls in _error_classes()}
