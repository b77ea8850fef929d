import json
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ideation_stream import store
from ideation_stream.classifiers import (predict, train_dt, train_linear_svc,
                                         train_lr, train_mlp, train_nb,
                                         train_rf)
from ideation_stream.errors import (CorruptPayload, IdeationStreamError, IoFailure,
                                    VersionMismatch)
from ideation_stream.features import FeatureCombo, fit_pipeline

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
    return fit_pipeline(docs, FeatureCombo.UNI_CV_IDF, min_tf=0)


def _rewrite_header(path, edit):
    """Apply ``edit`` to the stored header, then fix the length and CRC so
    only the header's content can make a load fail."""
    blob = path.read_bytes()
    header_len = int.from_bytes(blob[6:10], "little")
    header = json.loads(blob[10:10 + header_len])
    edit(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    body = blob[:6] + len(new_header).to_bytes(4, "little") + new_header \
        + blob[10 + header_len:-4]
    path.write_bytes(body + (zlib.crc32(body) & 0xFFFFFFFF).to_bytes(4, "little"))


def _shapes(header):
    return {s["name"]: s["shape"] for s in header["sections"]}


def _dataset_for(pipeline, fixture_dataset):
    # reuse the 100-row fixture but re-dimension it onto the pipeline
    from conftest import random_sparse_dataset
    rng = np.random.default_rng(0)
    return random_sparse_dataset(rng, 100, pipeline.dim, density=0.5)


class TestSaveLoad:
    def test_save_twice_identical_bytes(self, pipeline, fixture_dataset, tmp_path):
        model = train_nb(_dataset_for(pipeline, fixture_dataset))
        d1 = store.save(pipeline, model, tmp_path / "a.isp")
        d2 = store.save(pipeline, model, tmp_path / "b.isp")
        assert d1 == d2
        assert (tmp_path / "a.isp").read_bytes() == (tmp_path / "b.isp").read_bytes()

    @pytest.mark.parametrize("kind", list(TRAIN_CALLS))
    def test_round_trip_predictions_bit_identical(self, pipeline, fixture_dataset,
                                                  tmp_path, kind):
        data = _dataset_for(pipeline, fixture_dataset)
        model = TRAIN_CALLS[kind](data)
        path = tmp_path / f"{kind}.isp"
        store.save(pipeline, model, path)
        loaded_pipe, loaded = store.load(path)
        assert loaded.kind.value == kind
        assert loaded.feature_pipeline is loaded_pipe
        for v in data.vectors:
            a, b = predict(model, v), predict(loaded, v)
            assert a.label == b.label and a.score == b.score

    def test_pipeline_round_trip_transform(self, pipeline, fixture_dataset, tmp_path):
        model = train_nb(_dataset_for(pipeline, fixture_dataset))
        path = tmp_path / "p.isp"
        store.save(pipeline, model, path)
        loaded_pipe, _ = store.load(path)
        for doc in (["want", "die"], ["sunny", "day", "unknown"], []):
            assert loaded_pipe.transform(doc) == pipeline.transform(doc)

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
            store.load(edited)
        except IdeationStreamError:
            pass

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoFailure):
            store.load(tmp_path / "absent.isp")
