import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ideation_stream import store
from ideation_stream.classifiers import (LabeledDataset, predict, train_dt,
                                         train_linear_svc, train_lr, train_mlp,
                                         train_nb, train_rf)
from ideation_stream.cli import main
from ideation_stream.errors import (CorruptPayload, IdeationStreamError, IoFailure,
                                    VersionMismatch)
from ideation_stream.features import FeatureCombo, SparseBatch, fit_pipeline

from conftest import random_sparse_dataset, replace_isp_header, rows_of, same

TRAIN_CALLS = {
    "nb": lambda d: train_nb(d, alpha=0.5),
    "lr": lambda d: train_lr(d, l2=0.01, max_iter=40),
    "svc": lambda d: train_linear_svc(d, c=1.0, max_iter=200),
    "dt": lambda d: train_dt(d, max_depth=4),
    "rf": lambda d: train_rf(d, num_trees=5, max_depth=3, seed=2),
    "mlp": lambda d: train_mlp(d, hidden_layers=[4], epochs=3, seed=2),
}


@pytest.fixture(scope="module")
def pipeline():
    docs = [["want", "die", "sad"], ["sunny", "day", "fun"],
            ["die", "alone"], ["fun", "games", "day"]]
    return fit_pipeline(docs, FeatureCombo.UNI_CV_IDF, min_tf=0)[0]


def _rewrite_header(path, edit):
    """Apply ``edit`` to the stored header, then fix the length and CRC so
    only the header's content can make a load fail."""
    blob = path.read_bytes()
    header = json.loads(blob[10:10 + int.from_bytes(blob[6:10], "little")])
    edit(header)
    replace_isp_header(path, json.dumps(header, sort_keys=True, separators=(",", ":")))


def _nodes(node, path=()):
    """(path, value) of every node of a JSON tree, the root first."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(child, path + (key,))


JSON_ANY = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2 ** 40) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                               max_size=2),
    max_leaves=4)
DEEP = "@deep@"  # stands for an array nested past the JSON parser's limit
# documents whose vocabulary terms join to "aaaa\nbbb", 8 bytes: one <f8 covers them
EIGHT_BYTE_VOCAB = [["aaaa", "bbb"], ["aaaa"], ["bbb", "aaaa"]]


def _mutated_header(header: dict, data) -> str:
    """The header's JSON text after one mutation: a key dropped or renamed,
    a value of another type, or a section of another dtype that covers the
    same bytes where its size allows."""
    path, node = data.draw(st.sampled_from(list(_nodes(header))), label="node")
    action = data.draw(st.sampled_from(["drop", "rename", "retype", "deep", "dtype"]),
                       label="action")
    if not path:
        header = DEEP if action == "deep" else data.draw(
            JSON_ANY.filter(lambda v: not isinstance(v, dict)), label="root")
    elif action == "dtype":
        entry = data.draw(st.sampled_from(header["sections"]), label="section")
        dtype = data.draw(st.sampled_from(sorted(store._ITEM_BYTES)), label="dtype")
        size = math.prod(entry["shape"]) * store._ITEM_BYTES[entry["dtype"]]
        if size % store._ITEM_BYTES[dtype] == 0:
            entry["shape"] = [size // store._ITEM_BYTES[dtype]]
        entry["dtype"] = dtype
    else:
        *parent_path, key = path
        parent = header
        for step in parent_path:
            parent = parent[step]
        if action == "drop":
            del parent[key]
        elif action == "rename" and isinstance(parent, dict):
            parent[data.draw(st.text(max_size=3), label="key")] = parent.pop(key)
        else:
            parent[key] = DEEP if action == "deep" else data.draw(
                JSON_ANY.filter(lambda v: type(v) is not type(node)), label="value")
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return text.replace(json.dumps(DEEP), "[" * 100_000 + "]" * 100_000)


def _shapes(header):
    return {s["name"]: s["shape"] for s in header["sections"]}


def _dataset_for(pipeline, fixture_dataset):
    # reuse the 100-row fixture but re-dimension it onto the pipeline
    rng = np.random.default_rng(0)
    return random_sparse_dataset(rng, 100, pipeline.dim, density=0.5)


class TestSaveLoad:
    def test_save_twice_identical_bytes(self, pipeline, fixture_dataset, tmp_path):
        model = train_nb(_dataset_for(pipeline, fixture_dataset))
        d1 = store.save(pipeline, model, tmp_path / "a.isp")
        d2 = store.save(pipeline, model, tmp_path / "b.isp")
        assert d1 == d2
        assert (tmp_path / "a.isp").read_bytes() == (tmp_path / "b.isp").read_bytes()

    def test_header_takes_numpy_values_and_rejects_other_objects(self, pipeline,
                                                                 fixture_dataset, tmp_path):
        model = train_nb(_dataset_for(pipeline, fixture_dataset))
        plain = {"n": 3, "acc": 0.5, "flag": True, "curve": [[1.0, 2.0]]}
        as_numpy = {"n": np.int64(3), "acc": np.float32(0.5), "flag": np.bool_(True),
                    "curve": np.array([[1.0, 2.0]])}
        assert store.save(pipeline, model, tmp_path / "a.isp", metrics_snapshot=plain) \
            == store.save(pipeline, model, tmp_path / "b.isp", metrics_snapshot=as_numpy)
        with pytest.raises(TypeError):
            store.save(pipeline, model, tmp_path / "c.isp", metrics_snapshot={"x": object()})

    @pytest.mark.parametrize("kind", list(TRAIN_CALLS))
    def test_round_trip_predictions_bit_identical(self, pipeline, fixture_dataset,
                                                  tmp_path, kind):
        data = _dataset_for(pipeline, fixture_dataset)
        model = TRAIN_CALLS[kind](data)
        path = tmp_path / f"{kind}.isp"
        store.save(pipeline, model, path)
        _, loaded = store.load(path)
        assert loaded.kind.value == kind
        for v in rows_of(data.batch):
            a, b = predict(model, v), predict(loaded, v)
            assert a.label == b.label and a.score == b.score

    def test_pipeline_round_trip_transform(self, pipeline, fixture_dataset, tmp_path):
        model = train_nb(_dataset_for(pipeline, fixture_dataset))
        path = tmp_path / "p.isp"
        store.save(pipeline, model, path)
        loaded_pipe, _ = store.load(path)
        for doc in (["want", "die"], ["sunny", "day", "unknown"], []):
            assert same(loaded_pipe.transform(doc), pipeline.transform(doc))

    def test_metrics_snapshot_and_digest_in_header(self, pipeline, fixture_dataset,
                                                   tmp_path):
        model = train_nb(_dataset_for(pipeline, fixture_dataset))
        path = tmp_path / "m.isp"
        store.save(pipeline, model, path, metrics_snapshot={"accuracy": 0.9},
                   preprocess_config_digest="ab" * 32)
        header = store.inspect_header(path)
        assert header["metrics_snapshot"] == {"accuracy": 0.9}
        assert header["preprocess_config_digest"] == "ab" * 32
        assert header["model_kind"] == "nb"

    def test_load_holds_the_file_once(self, tmp_path):
        # 2^18 hashed buckets: a 6.3 MB file, almost all of it NB's and the IDF's arrays.
        # The peak is the file plus the arrays copied out of it, not a second copy of
        # the file for the CRC or one per section.
        import tracemalloc

        docs = [["want", "die", "sad"], ["sunny", "day", "fun"], ["die", "alone"]]
        pipe, batch = fit_pipeline(docs, FeatureCombo.UNI_TFIDF, min_tf=0)
        path = tmp_path / "m.isp"
        store.save(pipe, train_nb(LabeledDataset(batch, [1, 0, 1])), path)
        tracemalloc.start()
        try:
            store.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * path.stat().st_size


class TestRejection:
    @pytest.fixture
    def saved(self, pipeline, fixture_dataset, tmp_path):
        model = train_nb(_dataset_for(pipeline, fixture_dataset))
        path = tmp_path / "v.isp"
        store.save(pipeline, model, path)
        return path

    def test_tampered_version_byte(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[4] = 99
        saved.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
            store.load(saved)

    def test_truncated_file(self, saved):
        blob = saved.read_bytes()
        saved.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(CorruptPayload):
            store.load(saved)

    def test_bad_magic(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[:4] = b"NOPE"
        saved.write_bytes(bytes(blob))
        with pytest.raises(CorruptPayload):
            store.load(saved)

    def test_flipped_payload_bit_fails_crc(self, saved):
        blob = bytearray(saved.read_bytes())
        blob[-20] ^= 0x40
        saved.write_bytes(bytes(blob))
        with pytest.raises(CorruptPayload):
            store.load(saved)

    def test_unknown_model_kind_tag(self, saved):
        _rewrite_header(saved, lambda h: h.update(model_kind="xgboost"))
        with pytest.raises(CorruptPayload):
            store.load(saved)

    def test_section_past_payload_end(self, pipeline, fixture_dataset, tmp_path):
        path = tmp_path / "lr.isp"
        store.save(pipeline, train_lr(_dataset_for(pipeline, fixture_dataset)), path)
        _rewrite_header(path, lambda h: _shapes(h)["linear.weights"].__setitem__(
            0, pipeline.dim + 1))
        with pytest.raises(CorruptPayload):
            store.load(path)

    def test_shifted_sections_with_undecodable_vocab(self, saved):
        def shift(header):
            shapes = _shapes(header)
            shapes["idf"][0] -= 1
            shapes["vocab.terms"][0] += 8  # the terms now start on a float
        _rewrite_header(saved, shift)
        with pytest.raises(CorruptPayload):
            store.load(saved)

    def test_unknown_dtype(self, saved):
        _rewrite_header(saved, lambda h: h["sections"][0].update(dtype="<f4"))
        with pytest.raises(CorruptPayload):
            store.load(saved)

    @pytest.mark.parametrize("kind, edit_params, shapes", [
        # (kind, edit of the trained parameters at a dim, section shapes for it)
        ("lr", None, lambda d: {"linear.weights": [d - 1], "linear.bias": [2]}),
        ("nb", None, lambda d: {"nb.log_prior": [4], "nb.log_lik": [2, d - 1]}),
        ("mlp", None, lambda d: {"mlp.w0": [4, d]}),
        ("dt", lambda p, d: p.left.__setitem__(0, 0), None),
        ("dt", lambda p, d: p.feature.__setitem__(0, d), None),
        ("rf", lambda p, d: p.trees[-1].right.__setitem__(0, p.trees[-1].n_nodes), None),
    ], ids=["lr-short-weights", "nb-short-lik", "mlp-transposed",
            "dt-back-edge", "dt-feature-past-dim", "rf-child-past-end"])
    def test_model_that_does_not_fit_header(self, pipeline, fixture_dataset, tmp_path,
                                            kind, edit_params, shapes):
        model = TRAIN_CALLS[kind](_dataset_for(pipeline, fixture_dataset))
        if edit_params:
            root = model.params.trees[-1] if kind == "rf" else model.params
            assert root.feature[0] != -1  # the edit hits an internal node
            edit_params(model.params, model.dim)
        path = tmp_path / f"{kind}.isp"
        store.save(pipeline, model, path)

        def edit(header):
            for name, shape in shapes(header["dim"]).items():
                _shapes(header)[name][:] = shape
        if shapes:
            _rewrite_header(path, edit)
        with pytest.raises(CorruptPayload):
            store.load(path)

    def test_idf_that_does_not_fit_header(self, pipeline, fixture_dataset, tmp_path):
        short = dataclasses.replace(pipeline, idf=pipeline.idf[:-1])
        store.save(short, train_nb(_dataset_for(pipeline, fixture_dataset)), tmp_path / "i.isp")
        with pytest.raises(CorruptPayload):
            store.load(tmp_path / "i.isp")

    def test_hashing_buckets_not_a_power_of_two(self, tmp_path):
        # arrays sized 48 fit the header dim; 48 buckets cannot hash a gram
        docs = [["want", "die"], ["sunny", "day"], ["die", "alone"], ["fun", "day"]]
        pipe, _ = fit_pipeline(docs, FeatureCombo.UNI_TFIDF, num_buckets=64, min_tf=0)
        pipe = dataclasses.replace(pipe, num_buckets=48, idf=pipe.idf[:48])
        data = random_sparse_dataset(np.random.default_rng(1), 20, 48)
        store.save(pipe, train_nb(data), tmp_path / "h.isp")
        with pytest.raises(CorruptPayload):
            store.load(tmp_path / "h.isp")

    @pytest.mark.parametrize("key,value", [
        ("ngram_orders", [1]), ("ngram_orders", [2, 1]), ("ngram_orders", [1, 2, 3]),
        ("joiner", "_"), ("joiner", ""),
    ])
    def test_ngram_header_contradicting_combo(self, tmp_path, key, value):
        docs = [["want", "to", "die"], ["sunny", "day"], ["want", "to", "die"], ["fun", "day"]]
        pipe, batch = fit_pipeline(docs, FeatureCombo.UNI_BI_CV_IDF, min_tf=0)
        path = tmp_path / "g.isp"
        store.save(pipe, train_nb(LabeledDataset(batch, [1, 0, 1, 0])), path)
        assert store.inspect_header(path)["pipeline"]["ngram_orders"] == [1, 2]
        store.load(path)
        _rewrite_header(path, lambda header: header["pipeline"].update({key: value}))
        with pytest.raises(CorruptPayload, match="contradict uni-bi-cv-idf"):
            store.load(path)

    def test_evaluate_exits_51_on_contradicting_ngram_header(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # evaluate's manifest lands in the cwd
        rows = [f"i want to die {w},suicide\nsunny day with friends {w},non-suicide"
                for w in ("apple", "river", "candle", "violin", "marble", "tiger", "cloud",
                          "pepper", "garden", "rocket", "silver", "window")]
        (tmp_path / "d.csv").write_text("text,class\n" + "\n".join(rows) + "\n", "utf-8")
        model = tmp_path / "m.isp"
        assert main(["train", "--data", "d.csv", "--model", "nb", "--combo", "uni-bi-cv-idf",
                     "--min-tf", "0", "--folds", "0", "--out", str(model)]) == 0
        evaluate = ["evaluate", "--model", str(model), "--data", "d.csv"]
        assert main(evaluate) == 0
        _rewrite_header(model, lambda header: header["pipeline"].update(joiner="_"))
        assert main(evaluate) == 51  # CorruptPayload

    @pytest.mark.parametrize("kind", sorted(TRAIN_CALLS))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_edited_shapes_load_or_raise_typed(self, kind, pipeline, fixture_dataset,
                                               tmp_path, data):
        path = tmp_path / f"{kind}.isp"
        if not path.exists():
            store.save(pipeline, TRAIN_CALLS[kind](_dataset_for(pipeline, fixture_dataset)),
                       path)
        edited = tmp_path / "edited.isp"
        edited.write_bytes(path.read_bytes())
        junk = st.one_of(st.lists(st.integers(-2, 300), max_size=3),
                         st.integers(0, 9), st.none(), st.text(max_size=2))

        def edit(header):
            # same-size reshapes and cancelling +-1 edits get past the size
            # checks, so the model rebuild sees shapes it was not saved with
            for entry in header["sections"]:
                shape = entry["shape"]
                choice = data.draw(st.sampled_from(
                    ["keep", "keep", "delta", "flat", "unit", "permute", "junk"]))
                if choice == "delta":
                    shape[0] += data.draw(st.sampled_from([-1, 1]))
                elif choice == "flat":
                    entry["shape"] = [int(np.prod(shape))]
                elif choice == "unit":
                    entry["shape"] = data.draw(st.sampled_from([[1] + shape, shape + [1]]))
                elif choice == "permute":
                    entry["shape"] = data.draw(st.permutations(shape))
                elif choice == "junk":
                    entry["shape"] = data.draw(junk)
        _rewrite_header(edited, edit)
        try:
            _, model = store.load(edited)
        except IdeationStreamError:
            return
        # whatever loads scores a row that holds every feature
        predict(model, SparseBatch(model.dim, [0, model.dim], np.arange(model.dim),
                                   np.ones(model.dim)))

    def test_numeric_vocab_terms(self, tmp_path):
        pipe, batch = fit_pipeline(EIGHT_BYTE_VOCAB, FeatureCombo.UNI_CV_IDF, min_tf=0)
        assert "\n".join(pipe.vocab.terms_by_index()) == "aaaa\nbbb"
        path = tmp_path / "v.isp"
        store.save(pipe, train_nb(LabeledDataset(batch, [1, 0, 1])), path)
        _rewrite_header(path, lambda header: next(
            entry for entry in header["sections"] if entry["name"] == "vocab.terms"
        ).update(dtype="<f8", shape=[1]))
        with pytest.raises(CorruptPayload, match="bad section entry"):
            store.load(path)

    @pytest.mark.parametrize("kind", sorted(TRAIN_CALLS))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_header_loads_or_raises_typed(self, kind, tmp_path, data):
        path = tmp_path / f"{kind}.isp"
        if not path.exists():
            pipe, _ = fit_pipeline(EIGHT_BYTE_VOCAB, FeatureCombo.UNI_CV_IDF, min_tf=0)
            data_2d = random_sparse_dataset(np.random.default_rng(0), 40, pipe.dim)
            store.save(pipe, TRAIN_CALLS[kind](data_2d), path)
        edited = tmp_path / "edited.isp"
        edited.write_bytes(path.read_bytes())
        replace_isp_header(edited, _mutated_header(store.inspect_header(path), data))
        try:
            assert isinstance(store.inspect_header(edited), dict)
        except IdeationStreamError:
            pass
        try:
            pipe, model = store.load(edited)
        except IdeationStreamError:
            return
        predict(model, pipe.transform(["aaaa", "bbb", "aaaa"]))

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            store.load(tmp_path / "absent.isp")
