"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-11 are self-contained and fast. Criteria 12-13 need the real
Reddit corpus CSV (set SUICIDE_CORPUS_CSV or drop the file at
data/Suicide_Detection.csv) and are skipped when it is absent; they take
tens of minutes when enabled.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import math
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from ideation_stream import store
from ideation_stream.broker import Broker
from ideation_stream.classifiers import (ModelKind, cross_validate, predict,
                                         predict_batch, train_dt, train_linear_svc,
                                         train_lr, train_mlp, train_nb, train_rf)
from ideation_stream.classifiers.linear import logistic_loss_grad
from ideation_stream.classifiers.mlp import init_params, loss_and_grads
from ideation_stream.classifiers.selection import fold_indices
from ideation_stream.errors import CorruptPayload, VersionMismatch
from ideation_stream.evaluation import (Averaging, ConfusionMatrix, confusion,
                                        evaluate_model, metrics, roc_auc)
from ideation_stream.features import FeatureCombo, SparseBatch, fit_pipeline
from ideation_stream.preprocess import PreprocessConfig, preprocess
from ideation_stream.stream import StreamConfig, aggregate, replay_produce, run_stream

from conftest import dense, densify_first_layer, make_data, make_vec, random_sparse_dataset
from oracles import (dense_cv_tfidf, dense_hashing_tfidf, pairwise_auc,
                     positive_metrics, recount_confusion)


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


# ---------------------------------------------------------------------
# 1. TF-IDF oracle
# ---------------------------------------------------------------------

def test_c01_tfidf_matches_dense_oracle():
    rng = np.random.default_rng(101)
    cv_combos = [(FeatureCombo.UNI_CV_IDF, (1,)), (FeatureCombo.BI_CV_IDF, (2,)),
                 (FeatureCombo.UNI_BI_CV_IDF, (1, 2))]
    checked = 0
    for trial in range(50):
        vocab_size = int(rng.integers(5, 200))
        words = [f"w{i}" for i in range(vocab_size)]
        n_docs = int(rng.integers(2, 31))
        docs = [[words[int(rng.integers(0, vocab_size))]
                 for _ in range(int(rng.integers(2, 12)))] for _ in range(n_docs)]
        normalize = bool(rng.integers(0, 2))
        if trial % 4 == 3:
            pipe, _ = fit_pipeline(docs, FeatureCombo.UNI_TFIDF, num_buckets=64,
                                   normalize_tf=normalize)
            expected = dense_hashing_tfidf(docs, (1,), 64, normalize)
        else:
            combo, orders = cv_combos[trial % 3]
            pipe, _ = fit_pipeline(docs, combo, min_tf=0, normalize_tf=normalize)
            expected, _ = dense_cv_tfidf(docs, orders, 0, normalize)
        for i, doc in enumerate(docs):
            got = dense(pipe.transform(doc))[0]
            assert np.all(np.abs(got - expected[i]) <= 1e-9)
        checked += 1
    assert checked == 50
    _report(1, "sparse TF-IDF equals dense brute force on 50 corpora within 1e-9")


# ---------------------------------------------------------------------
# 2. Metrics oracle
# ---------------------------------------------------------------------

def test_c02_metrics_recount_oracle():
    rng = np.random.default_rng(102)
    for _ in range(200):
        n = int(rng.integers(1, 80))
        preds = rng.integers(0, 2, n).tolist()
        gold = rng.integers(0, 2, n).tolist()
        cm = confusion(preds, gold)
        tp, fp, fn, tn = recount_confusion(preds, gold)
        assert (cm.tp, cm.fp, cm.fn, cm.tn) == (tp, fp, fn, tn)
        got = metrics(cm, averaging=Averaging.POSITIVE)
        acc, p, r, f1 = positive_metrics(tp, fp, fn, tn)
        assert (got.accuracy, got.precision, got.recall, got.f1) == (acc, p, r, f1)
    fixture = metrics(ConfusionMatrix(3, 1, 1, 5), averaging=Averaging.POSITIVE)
    assert fixture.accuracy == 0.8
    assert fixture.precision == 0.75 and fixture.recall == 0.75 and fixture.f1 == 0.75
    _report(2, "metrics match the recount oracle exactly on 200 matrices; "
               "(3,1,1,5) gives acc 0.8 and p/r/f1 0.75")


# ---------------------------------------------------------------------
# 3. AUC oracle
# ---------------------------------------------------------------------

def _pairwise_auc_dense(scores, gold):
    s = np.asarray(scores, dtype=np.float64)
    g = np.asarray(gold)
    pos, neg = s[g == 1], s[g == 0]
    diff = pos[:, None] - neg[None, :]
    total = float((diff > 0).sum()) + 0.5 * float((diff == 0).sum())
    return total / (len(pos) * len(neg))


def test_c03_auc_rank_statistic_oracle():
    rng = np.random.default_rng(103)
    for _ in range(100):
        n = int(rng.integers(2, 501))
        # coarse score grid forces plenty of ties
        scores = rng.choice(np.linspace(0, 1, 7), size=n).tolist()
        gold = rng.integers(0, 2, n).tolist()
        if len(set(gold)) < 2:
            gold[0] = 1 - gold[0]
        assert abs(roc_auc(scores, gold) - _pairwise_auc_dense(scores, gold)) <= 1e-12
    assert roc_auc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == 0.75
    assert pairwise_auc([0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]) == 0.75
    scores = rng.normal(size=80).tolist()
    gold = rng.integers(0, 2, 80).tolist()
    gold[0], gold[1] = 0, 1
    base = roc_auc(scores, gold)
    assert roc_auc([math.exp(s) for s in scores], gold) == base
    assert roc_auc([5 * s + 2 for s in scores], gold) == base
    _report(3, "sorted-rank AUC equals pairwise counting within 1e-12 on 100 sets; "
               "fixture 0.75; monotone-transform invariant")


# ---------------------------------------------------------------------
# 4. NB hand oracle
# ---------------------------------------------------------------------

def test_c04_nb_hand_oracle(nb_toy):
    model = train_nb(nb_toy, alpha=1.0)
    pred = predict(model, make_vec(3, [(0, 1), (1, 1)]))
    assert abs(pred.score - 147 / 179) <= 1e-12
    rng = np.random.default_rng(104)
    for _ in range(30):
        nnz = int(rng.integers(0, 4))
        idx = np.sort(rng.choice(3, size=nnz, replace=False)).astype(np.int64)
        v = SparseBatch(3, [0, nnz], idx, rng.uniform(0.2, 2.5, nnz))
        joint = model.params.log_prior + (model.params.log_lik[:, v.indices] @ v.values
                                          if nnz else 0.0)
        expd = np.exp(joint - joint.max())
        p0, p1 = float(expd[0] / expd.sum()), predict(model, v).score
        assert abs(p0 + p1 - 1.0) <= 1e-12
    _report(4, "4-doc toy posterior equals the hand value 147/179 within 1e-12; "
               "posteriors sum to 1")


# ---------------------------------------------------------------------
# 5. Gradient checks
# ---------------------------------------------------------------------

def test_c05_gradient_checks():
    rng = np.random.default_rng(105)
    for trial in range(20):
        dim = int(rng.integers(3, 8))
        data = random_sparse_dataset(rng, n=int(rng.integers(6, 15)), dim=dim)
        l2 = float(rng.uniform(0, 0.4))
        wb = rng.normal(size=dim + 1)
        _, grad = logistic_loss_grad(wb, data, l2)
        eps = 1e-6
        for j in range(dim + 1):
            probe = wb.copy()
            probe[j] += eps
            up, _ = logistic_loss_grad(probe, data, l2)
            probe[j] -= 2 * eps
            down, _ = logistic_loss_grad(probe, data, l2)
            numeric = (up - down) / (2 * eps)
            denom = max(abs(numeric), abs(grad[j]), 1e-8)
            assert abs(numeric - grad[j]) / denom < 1e-6

    for trial in range(20):
        dim = int(rng.integers(3, 7))
        hidden = [int(rng.integers(2, 5))]
        data = random_sparse_dataset(rng, n=int(rng.integers(4, 10)), dim=dim)
        params = init_params(dim, hidden, seed=trial)
        y = data.labels.astype(np.int64)
        _, grads_w, grads_b = loss_and_grads(params, data.batch, y)
        # the first layer's gradient holds the touched input rows only
        grads_w[0] = densify_first_layer(grads_w[0], data.batch, params.weights[0])
        eps = 1e-6
        for layer in range(len(params.weights)):
            w = params.weights[layer]
            probes = [(0, 0), (w.shape[0] // 2, w.shape[1] - 1)]
            for probe in probes:
                w[probe] += eps
                up, _, _ = loss_and_grads(params, data.batch, y)
                w[probe] -= 2 * eps
                down, _, _ = loss_and_grads(params, data.batch, y)
                w[probe] += eps
                numeric = (up - down) / (2 * eps)
                analytic = grads_w[layer][probe]
                denom = max(abs(numeric), abs(analytic), 1e-8)
                assert abs(numeric - analytic) / denom < 1e-4
            b = params.biases[layer]
            b[0] += eps
            up, _, _ = loss_and_grads(params, data.batch, y)
            b[0] -= 2 * eps
            down, _, _ = loss_and_grads(params, data.batch, y)
            b[0] += eps
            numeric = (up - down) / (2 * eps)
            denom = max(abs(numeric), abs(grads_b[layer][0]), 1e-8)
            assert abs(numeric - grads_b[layer][0]) / denom < 1e-4
    _report(5, "LR gradients within 1e-6 and MLP gradients within 1e-4 of "
               "central differences on 20 random configurations each")


# ---------------------------------------------------------------------
# 6. Trainer sanity
# ---------------------------------------------------------------------

def test_c06_trainer_sanity(separable_toy, xor_toy):
    lr = train_lr(separable_toy, l2=0.0, max_iter=200)
    assert predict_batch(lr, separable_toy.batch)[0].tolist() == \
        separable_toy.labels.tolist()

    svc = train_linear_svc(separable_toy, c=10.0, max_iter=2000)
    assert predict_batch(svc, separable_toy.batch)[0].tolist() == \
        separable_toy.labels.tolist()

    mlp = train_mlp(xor_toy, hidden_layers=[4], learning_rate=0.5, epochs=5000,
                    batch_size=4, seed=0)
    assert predict_batch(mlp, xor_toy.batch)[0].tolist() == [0, 1, 1, 0]

    dt = train_dt(xor_toy, max_depth=2)
    assert predict_batch(dt, xor_toy.batch)[0].tolist() == [0, 1, 1, 0]
    _report(6, "LR and SVC solve the separable toy, MLP[4] and depth-2 DT solve XOR")


# ---------------------------------------------------------------------
# 7. CV partitions and grid search
# ---------------------------------------------------------------------

def test_c07_cv_and_grid():
    rng = np.random.default_rng(107)
    for _ in range(50):
        n = int(rng.integers(10, 300))
        folds = fold_indices(n, 10, seed=int(rng.integers(0, 2**31)))
        sizes = [len(f) for f in folds]
        assert len(folds) == 10
        assert max(sizes) - min(sizes) <= 1
        merged = sorted(np.concatenate(folds).tolist())
        assert merged == list(range(n))

    pts = [((0.2, 10), 1), ((1.8, -6), 1), ((0.3, 9), 1), ((1.7, -5), 1),
           ((-0.2, 6), 0), ((-1.8, -10), 0), ((-0.3, 5), 0), ((-1.7, -9), 0)]
    data = make_data([make_vec(2, [(0, a), (1, b)]) for (a, b), _ in pts],
                     [y for _, y in pts])
    grid = {"max_iter": [200, 1], "l2": [0.0, 0.1]}
    best, reports, _ = cross_validate(ModelKind.LR, {}, data, k=4, seed=1, grid=grid)
    assert len(reports) == 4  # exactly the Cartesian product
    seen = [(r.params["l2"], r.params["max_iter"]) for r in reports]
    assert seen == [(0.0, 200), (0.0, 1), (0.1, 200), (0.1, 1)]
    assert best["max_iter"] == 200
    accs = {(r.params["l2"], r.params["max_iter"]): r.mean_accuracy for r in reports}
    assert accs[(best["l2"], 200)] > accs[(best["l2"], 1)]
    _report(7, "10-fold partitions hold on 50 datasets; grid search walks the "
               "exact product and the dominating config wins")


# ---------------------------------------------------------------------
# 8. Model store round-trips
# ---------------------------------------------------------------------

def test_c08_store_round_trip(tmp_path):
    rng = np.random.default_rng(108)
    docs = [[f"t{int(rng.integers(0, 20))}" for _ in range(int(rng.integers(2, 8)))]
            for _ in range(100)]
    pipeline, _ = fit_pipeline(docs, FeatureCombo.UNI_CV_IDF, min_tf=0)
    vectors = [pipeline.transform(d) for d in docs]
    labels = [1 if "t0" in d or "t1" in d else 0 for d in docs]
    if len(set(labels)) < 2:
        labels[0] = 1 - labels[0]
    data = make_data(vectors, labels)

    trainers = {
        "nb": lambda: train_nb(data, alpha=1.0),
        "lr": lambda: train_lr(data, l2=0.01, max_iter=40),
        "svc": lambda: train_linear_svc(data, c=1.0, max_iter=300),
        "dt": lambda: train_dt(data, max_depth=5),
        "rf": lambda: train_rf(data, num_trees=5, max_depth=4, seed=8),
        "mlp": lambda: train_mlp(data, hidden_layers=[4], epochs=3, seed=8),
    }
    for kind, trainer in trainers.items():
        model = trainer()
        path = tmp_path / f"{kind}.isp"
        store.save(pipeline, model, path)
        _, loaded = store.load(path)
        for v in vectors:
            a, b = predict(model, v), predict(loaded, v)
            assert a.label == b.label and a.score == b.score

    target = tmp_path / "nb.isp"
    blob = bytearray(target.read_bytes())
    blob[4] = 77
    (tmp_path / "tampered.isp").write_bytes(bytes(blob))
    with pytest.raises(VersionMismatch):
        store.load(tmp_path / "tampered.isp")
    (tmp_path / "cut.isp").write_bytes(target.read_bytes()[:-9])
    with pytest.raises(CorruptPayload):
        store.load(tmp_path / "cut.isp")
    _report(8, "all six model kinds round-trip bit-identically on the 100-doc "
               "fixture; tampered and truncated files are rejected")


# ---------------------------------------------------------------------
# 9. Broker ordering, conservation, crash replay
# ---------------------------------------------------------------------

def test_c09_broker_ordering_conservation_crash(tmp_path):
    import threading

    n_producers, per_producer = 8, 10_000
    with Broker(tmp_path / "log") as broker:
        broker.create_topic("firehose", partitions=4)
        failures = []

        def work(worker):
            try:
                for i in range(per_producer):
                    broker.produce("firehose", f"{worker}:{i}".encode())
            except Exception as exc:  # pragma: no cover
                failures.append(exc)

        threads = [threading.Thread(target=work, args=(w,)) for w in range(n_producers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert sum(broker.end_offsets("firehose")) == n_producers * per_producer

        per_partition: dict[int, list[int]] = {}
        consumed: list[bytes] = []
        while True:
            batch = broker.consume("firehose", "drain", max_records=4096)
            if not batch:
                break
            commit = {}
            for rec in batch:
                per_partition.setdefault(rec.partition, []).append(rec.offset)
                commit[rec.partition] = max(commit.get(rec.partition, -1), rec.offset)
                consumed.append(rec.value)
            broker.commit("drain", "firehose", {p: o + 1 for p, o in commit.items()})
        for offsets in per_partition.values():
            assert offsets == list(range(len(offsets)))  # gapless, strictly increasing
        expected = Counter(f"{w}:{i}".encode()
                           for w in range(n_producers) for i in range(per_producer))
        assert Counter(consumed) == expected

    # 20 randomized kill -9 points against one log directory
    crash_root = tmp_path / "crashlog"
    script = Path(__file__).parent / "crash_producer.py"
    rng = np.random.default_rng(109)
    acked_total: set[str] = set()
    for run in range(20):
        proc = subprocess.Popen(
            [sys.executable, str(script), str(crash_root), f"run{run}"],
            stdout=subprocess.PIPE)
        first = proc.stdout.readline()
        time.sleep(float(rng.uniform(0.005, 0.09)))
        proc.send_signal(signal.SIGKILL)
        out, _ = proc.communicate()
        acked = {line for line in (first + out).decode().splitlines() if line}
        assert acked
        acked_total |= acked
        with Broker(crash_root) as broker:
            survived = set()
            while True:
                batch = broker.consume("crash", f"verify{run}", max_records=4096)
                if not batch:
                    break
                survived.update(r.value.decode() for r in batch)
                broker.commit(f"verify{run}", "crash",
                              {p: max(r.offset for r in batch if r.partition == p) + 1
                               for p in {r.partition for r in batch}})
            missing = acked_total - survived
            assert not missing, f"run {run} lost acked records: {sorted(missing)[:5]}"
    _report(9, f"gapless order and multiset conservation under 8x{per_producer} "
               "concurrent produces; 20 kill -9 points lost zero acked records")


# ---------------------------------------------------------------------
# 10. End-to-end streaming with the Fig.-14-shaped fixture
# ---------------------------------------------------------------------

def test_c10_end_to_end_streaming(tmp_path):
    pconfig = PreprocessConfig.load_default()
    pos_train = ["i want to die", "kill myself tonight", "hopeless and crying again"]
    neg_train = ["sunny day with friends", "pizza and games", "happy dog at the park"]
    texts = pos_train * 5 + neg_train * 5
    labels = [1] * 15 + [0] * 15
    tokens = [preprocess(t, pconfig).tokens for t in texts]
    pipeline, _ = fit_pipeline(tokens, FeatureCombo.UNI_CV_IDF, min_tf=0)
    model = train_nb(make_data([pipeline.transform(t) for t in tokens], labels))
    model_path = tmp_path / "stream.isp"
    store.save(pipeline, model, model_path, preprocess_config_digest=pconfig.digest())

    lines = [f"i want to die case {i}" for i in range(71)] + \
            [f"sunny happy day case {i}" for i in range(693)]
    assert len(lines) == 764
    offline = [predict(model, pipeline.transform(preprocess(t, pconfig).tokens))
               for t in lines]
    assert sum(p.label for p in offline) == 71  # fixture engineered to 71 positives

    feed = tmp_path / "tweets.txt"
    feed.write_text("\n".join(lines) + "\n", "utf-8")
    with Broker(tmp_path / "log") as broker:
        broker.create_topic("Source-tweets")
        broker.create_topic("Predicted-tweets")
        stats = replay_produce(feed, broker, "Source-tweets")
        assert stats.produced == 764
        config = StreamConfig(model_path=str(model_path), trigger_interval_ms=20.0,
                              filters_enabled=False)
        run_stats = run_stream(broker, config, stop_when_idle=True)
        assert run_stats.events == 764
        assert broker.end_offsets("Predicted-tweets") == [764]

        events = []
        while True:
            batch = broker.consume("Predicted-tweets", "check", max_records=4096)
            if not batch:
                break
            events.extend(json.loads(r.value.decode()) for r in batch)
            broker.commit("check", "Predicted-tweets",
                          {0: max(r.offset for r in batch) + 1})
        assert len(events) == 764
        for event in events:
            ref = offline[event["source_offset"]]
            assert event["label"] == ref.label
            assert event["score"] == ref.score  # bit-identical to the batch path

        report = aggregate(broker)
    assert report.total == 764
    assert report.suicide == 71 and report.non_suicide == 693
    assert report.pct_suicide == 9.29 and report.pct_non_suicide == 90.71
    assert abs(report.pct_suicide + report.pct_non_suicide - 100.0) <= 0.011
    _report(10, "764 replayed lines gave exactly 764 events, labels bit-identical "
                "to offline predictions, aggregate 9.29%/90.71%")


# ---------------------------------------------------------------------
# 11. Broker throughput (informational)
# ---------------------------------------------------------------------

def test_c11_broker_throughput_informational(tmp_path):
    n = 50_000
    with Broker(tmp_path / "bench") as broker:
        broker.create_topic("bench")
        payload = b"x" * 100
        t0 = time.perf_counter()
        for _ in range(n):
            broker.produce("bench", payload)
        produce_rate = n / (time.perf_counter() - t0)
        t0 = time.perf_counter()
        got = 0
        while got < n:
            batch = broker.consume("bench", "g", max_records=8192)
            if not batch:
                break
            got += len(batch)
            broker.commit("g", "bench", {0: batch[-1].offset + 1})
        consume_rate = got / (time.perf_counter() - t0)
    print(f"INFO criterion 11: produce {produce_rate:,.0f} rec/s, "
          f"consume {consume_rate:,.0f} rec/s (target 50k/s, informational)")
    _report(11, "throughput measured and reported (informational, not pass/fail)")


# ---------------------------------------------------------------------
# 12-13. Extended, dataset-dependent suite
# ---------------------------------------------------------------------

def _corpus_path():
    env = os.environ.get("SUICIDE_CORPUS_CSV")
    if env and Path(env).is_file():
        return Path(env)
    default = Path(__file__).resolve().parent.parent / "data" / "Suicide_Detection.csv"
    return default if default.is_file() else None


requires_corpus = pytest.mark.skipif(
    _corpus_path() is None,
    reason="Reddit corpus CSV absent (set SUICIDE_CORPUS_CSV to enable)")

# published scale of the full corpus
FULL_RAW_ROWS = 232_074
FULL_ROWS_AFTER_CLEANUP = 232_042
FULL_TRAIN_TOTAL = 185_430
FULL_TEST_TOTAL = 46_612


@pytest.fixture(scope="module")
def full_corpus_split():
    from ideation_stream.corpus import SplitSpec, dedupe_and_clean, load_csv, split

    path = _corpus_path()
    corpus = load_csv(path, text_column="text", label_column="class")
    cleaned, _ = dedupe_and_clean(corpus)
    # the published train/test totals imply a realized fraction just under
    # 0.8; splitting at that ratio reproduces the totals exactly
    spec = SplitSpec(train_fraction=FULL_TRAIN_TOTAL / FULL_ROWS_AFTER_CLEANUP, seed=13)
    train, test = split(cleaned, spec)
    return corpus, cleaned, train, test


@requires_corpus
def test_c12_ingest_reproduces_table_scale(full_corpus_split):
    raw, cleaned, train, test = full_corpus_split
    assert raw.load_report.rows_read == FULL_RAW_ROWS
    assert len(cleaned) == FULL_ROWS_AFTER_CLEANUP
    assert abs(len(train) - FULL_TRAIN_TOTAL) <= 1
    assert abs(len(test) - FULL_TEST_TOTAL) <= 1
    _report(12, f"cleanup kept {len(cleaned)} rows; split {len(train)}/{len(test)}")


@pytest.fixture(scope="module")
def full_tokenized(full_corpus_split):
    from ideation_stream.corpus import LABEL_TO_INT

    _, _, train, test = full_corpus_split
    pconfig = PreprocessConfig.load_default()
    train_tokens = [preprocess(d.text, pconfig).tokens for d in train.documents]
    test_tokens = [preprocess(d.text, pconfig).tokens for d in test.documents]
    train_labels = [LABEL_TO_INT[d.label] for d in train.documents]
    test_labels = [LABEL_TO_INT[d.label] for d in test.documents]
    return train_tokens, train_labels, test_tokens, test_labels


def _combo_datasets(full_tokenized, combo):
    train_tokens, train_labels, test_tokens, test_labels = full_tokenized
    pipe, _ = fit_pipeline(train_tokens, combo, min_tf=4, vocab_cap=65_536)
    train = make_data([pipe.transform(t) for t in train_tokens], train_labels)
    test = make_data([pipe.transform(t) for t in test_tokens], test_labels)
    return train, test


@requires_corpus
def test_c13_table_replication_with_tolerance(full_tokenized):
    trainers = {
        ModelKind.NB: lambda d: train_nb(d, alpha=1.0),
        ModelKind.LR: lambda d: train_lr(d, l2=1e-4, max_iter=150, seed=13),
        ModelKind.SVC: lambda d: train_linear_svc(d, c=1.0, max_iter=400, seed=13),
        ModelKind.DT: lambda d: train_dt(d, max_depth=8, min_leaf=50),
        ModelKind.RF: lambda d: train_rf(d, num_trees=20, feature_fraction=0.02,
                                         max_depth=10, min_leaf=20, seed=13),
        ModelKind.MLP: lambda d: train_mlp(d, hidden_layers=[64], epochs=6, batch_size=256,
                                           seed=13),
    }

    uni_train, uni_test = _combo_datasets(full_tokenized, FeatureCombo.UNI_CV_IDF)
    lr_report, _ = evaluate_model(trainers[ModelKind.LR](uni_train), uni_test)
    assert lr_report.accuracy >= 0.88
    del uni_train, uni_test

    accuracy = {}
    mlp_auc = None
    for combo in (FeatureCombo.BI_CV_IDF, FeatureCombo.UNI_BI_CV_IDF):
        train, test = _combo_datasets(full_tokenized, combo)
        for kind, trainer in trainers.items():
            report, _ = evaluate_model(trainer(train), test)
            accuracy[(kind, combo)] = report.accuracy
            if kind is ModelKind.MLP and combo is FeatureCombo.UNI_BI_CV_IDF:
                mlp_auc = report.auc
        del train, test

    assert accuracy[(ModelKind.MLP, FeatureCombo.UNI_BI_CV_IDF)] >= 0.90
    assert mlp_auc >= 0.95
    for kind in trainers:
        assert accuracy[(kind, FeatureCombo.BI_CV_IDF)] \
            < accuracy[(kind, FeatureCombo.UNI_BI_CV_IDF)], f"{kind} ordering"
    unibi = FeatureCombo.UNI_BI_CV_IDF
    assert accuracy[(ModelKind.MLP, unibi)] >= accuracy[(ModelKind.LR, unibi)] \
        >= accuracy[(ModelKind.NB, unibi)]
    _report(13, "directional replication holds at the stated tolerances")
