"""Single-file persistence for a trained model plus its feature pipeline.

Layout of a ``.isp`` file::

    magic "ISPK" | u16 format version | u32 header length | header JSON
    | named binary sections (concatenated, lengths in the header)
    | u32 CRC-32 over everything before it

The header JSON carries the pipeline configuration, training metadata,
the optional metrics snapshot, and a section table (name, dtype, shape).
Keys are sorted and floats use the canonical repr, so saving the same
in-memory artifact twice yields identical bytes. Arrays are stored
little-endian. Version is checked before the checksum so a tampered
version byte reports VersionMismatch, not CorruptPayload.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass

import numpy as np

from .classifiers.base import ModelArtifact, ModelKind
from .classifiers.linear import LinearParams
from .classifiers.mlp import MLPParams
from .classifiers.naive_bayes import NBParams
from .classifiers.tree import ForestParams, TreeParams
from .errors import CorruptPayload, IoFailure, VersionMismatch
from .features import (FeatureCombo, FeaturePipeline, IdfModel, NGramSpec,
                       Vocabulary)
from .hashutil import sha256_hex

MAGIC = b"ISPK"
FORMAT_VERSION = 1

_TREE_FIELDS = ("feature", "threshold", "left", "right", "count_neg", "count_pos")
_ITEM_BYTES = {"bytes": 1, "<f8": 8, "<i8": 8}


@dataclass
class _Section:
    name: str
    array: np.ndarray | bytes


def _sections_for_model(model: ModelArtifact) -> list[_Section]:
    p = model.params
    if model.kind is ModelKind.NB:
        return [_Section("nb.log_prior", p.log_prior), _Section("nb.log_lik", p.log_lik)]
    if model.kind in (ModelKind.LR, ModelKind.SVC):
        return [_Section("linear.weights", p.weights),
                _Section("linear.bias", np.array([p.bias], dtype=np.float64))]
    if model.kind is ModelKind.DT:
        return [_Section(f"tree.0.{f}", getattr(p, f)) for f in _TREE_FIELDS]
    if model.kind is ModelKind.RF:
        out = []
        for t, tree in enumerate(p.trees):
            out.extend(_Section(f"tree.{t}.{f}", getattr(tree, f)) for f in _TREE_FIELDS)
        return out
    if model.kind is ModelKind.MLP:
        out = []
        for i, (w, b) in enumerate(zip(p.weights, p.biases)):
            out.append(_Section(f"mlp.w{i}", w))
            out.append(_Section(f"mlp.b{i}", b))
        return out
    raise ValueError(f"unknown model kind {model.kind!r}")


def _pipeline_header(pipe: FeaturePipeline) -> dict:
    return {
        "combo": pipe.combo.value,
        "ngram_orders": list(pipe.ngram.orders),
        "joiner": pipe.ngram.joiner,
        "normalize_tf": pipe.normalize_tf,
        "min_tf": pipe.min_tf,
        "num_buckets": pipe.num_buckets,
        "vocab_num_docs": pipe.vocab.num_docs if pipe.vocab else None,
    }


def _pipeline_sections(pipe: FeaturePipeline) -> list[_Section]:
    sections = [_Section("idf", pipe.idf.idf)]
    if pipe.vocab is not None:
        terms = "\n".join(pipe.vocab.terms_by_index()).encode("utf-8")
        sections.append(_Section("vocab.terms", terms))
        sections.append(_Section("vocab.doc_freq", pipe.vocab.doc_freq))
    return sections


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def save(pipeline: FeaturePipeline, model: ModelArtifact, path, *,
         metrics_snapshot: dict | None = None,
         preprocess_config_digest: str | None = None) -> str:
    """Write the artifact; returns the sha256 digest of the file bytes."""
    sections = _pipeline_sections(pipeline) + _sections_for_model(model)
    table = []
    payloads = []
    for sec in sections:
        if isinstance(sec.array, bytes):
            data = sec.array
            table.append({"name": sec.name, "dtype": "bytes", "shape": [len(data)]})
        else:
            arr = np.ascontiguousarray(sec.array)
            kind = {"f": "<f8", "i": "<i8"}[arr.dtype.kind]
            data = arr.astype(kind).tobytes()
            table.append({"name": sec.name, "dtype": kind, "shape": list(arr.shape)})
        payloads.append(data)

    header = {
        "format_version": FORMAT_VERSION,
        "model_kind": model.kind.value,
        "dim": model.dim,
        "pipeline": _pipeline_header(pipeline),
        "training_meta": _json_safe(model.training_meta),
        "metrics_snapshot": _json_safe(metrics_snapshot),
        "preprocess_config_digest": preprocess_config_digest,
        "sections": table,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    body = bytearray()
    body += MAGIC
    body += FORMAT_VERSION.to_bytes(2, "little")
    body += len(header_bytes).to_bytes(4, "little")
    body += header_bytes
    for data in payloads:
        body += data
    body += (zlib.crc32(bytes(body)) & 0xFFFFFFFF).to_bytes(4, "little")

    try:
        with open(path, "wb") as fh:
            fh.write(body)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return sha256_hex(bytes(body))


def inspect_header(path) -> dict:
    """Parse and return the JSON header without rebuilding the model."""
    blob = _read(path)
    _check_framing(blob)
    return _parse_header(blob)[0]


def load(path) -> tuple[FeaturePipeline, ModelArtifact]:
    """Restore (pipeline, model); the model also carries the pipeline."""
    blob = _read(path)
    _check_framing(blob)
    header, payload_start = _parse_header(blob)

    try:
        return _rebuild(header, _read_sections(blob, header["sections"], payload_start))
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        # a missing section or key, an unknown kind tag, a shape the model
        # cannot use, or vocabulary bytes that are not UTF-8
        raise CorruptPayload(f"header and sections do not form a model: {exc!r}") from None


def _read_sections(blob: bytes, table: list, pos: int) -> dict[str, np.ndarray | bytes]:
    """Slice the payload by the section table, which must cover it exactly."""
    arrays: dict[str, np.ndarray | bytes] = {}
    end = len(blob) - 4
    for entry in table:
        name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
        if (dtype not in _ITEM_BYTES or not isinstance(shape, list)
                or not all(type(n) is int and n >= 0 for n in shape)
                or (dtype == "bytes" and len(shape) != 1)):
            raise CorruptPayload(f"bad section entry {entry!r}")
        size = math.prod(shape) * _ITEM_BYTES[dtype]
        if size > end - pos:
            raise CorruptPayload(f"section {name!r} runs past the payload")
        data = blob[pos:pos + size]
        arrays[name] = data if dtype == "bytes" else \
            np.frombuffer(data, dtype=dtype).reshape(shape).copy()
        pos += size
    if pos != end:
        raise CorruptPayload("section table does not cover the payload")
    return arrays


def _rebuild(header: dict, arrays: dict) -> tuple[FeaturePipeline, ModelArtifact]:
    ph = header["pipeline"]
    pipe = FeaturePipeline(
        combo=FeatureCombo(ph["combo"]),
        ngram=NGramSpec(orders=tuple(ph["ngram_orders"]), joiner=ph["joiner"]),
        normalize_tf=ph["normalize_tf"],
        min_tf=ph["min_tf"],
        num_buckets=ph["num_buckets"],
    )
    if "vocab.terms" in arrays:
        terms = arrays["vocab.terms"].decode("utf-8").split("\n")
        df = arrays["vocab.doc_freq"]
        pipe.vocab = Vocabulary(term_to_index={t: j for j, t in enumerate(terms)},
                                doc_freq=df, num_docs=ph["vocab_num_docs"],
                                min_tf=ph["min_tf"])
    pipe.idf = IdfModel(idf=arrays["idf"])

    kind = ModelKind(header["model_kind"])
    model = ModelArtifact(kind=kind, dim=header["dim"],
                          params=_params_from_arrays(kind, arrays),
                          training_meta=header["training_meta"],
                          feature_pipeline=pipe)
    return pipe, model


def _params_from_arrays(kind: ModelKind, arrays: dict):
    if kind is ModelKind.NB:
        return NBParams(log_prior=arrays["nb.log_prior"], log_lik=arrays["nb.log_lik"])
    if kind in (ModelKind.LR, ModelKind.SVC):
        return LinearParams(weights=arrays["linear.weights"],
                            bias=float(arrays["linear.bias"][0]),
                            probabilistic=kind is ModelKind.LR)
    if kind is ModelKind.DT:
        return _tree_from_arrays(arrays, 0)
    if kind is ModelKind.RF:
        trees = []
        t = 0
        while f"tree.{t}.feature" in arrays:
            trees.append(_tree_from_arrays(arrays, t))
            t += 1
        if not trees:
            raise CorruptPayload("forest artifact holds no trees")
        return ForestParams(trees=trees)
    if kind is ModelKind.MLP:
        weights, biases = [], []
        i = 0
        while f"mlp.w{i}" in arrays:
            weights.append(arrays[f"mlp.w{i}"])
            biases.append(arrays[f"mlp.b{i}"])
            i += 1
        if not weights:
            raise CorruptPayload("mlp artifact holds no layers")
        return MLPParams(weights=weights, biases=biases)
    raise CorruptPayload(f"unknown model kind {kind!r}")


def _tree_from_arrays(arrays: dict, t: int) -> TreeParams:
    return TreeParams(**{f: arrays[f"tree.{t}.{f}"] for f in _TREE_FIELDS})


def _read(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _check_framing(blob: bytes) -> None:
    if len(blob) < 14:
        raise CorruptPayload("file too short to hold the fixed framing")
    if blob[:4] != MAGIC:
        raise CorruptPayload("bad magic; not a stored pipeline file")
    version = int.from_bytes(blob[4:6], "little")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"format version {version} unsupported (expected {FORMAT_VERSION})")
    stored_crc = int.from_bytes(blob[-4:], "little")
    if zlib.crc32(blob[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CorruptPayload("CRC-32 check failed; file truncated or altered")


def _parse_header(blob: bytes) -> tuple[dict, int]:
    header_len = int.from_bytes(blob[6:10], "little")
    if 10 + header_len > len(blob) - 4:
        raise CorruptPayload("header length exceeds file size")
    try:
        header = json.loads(blob[10:10 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptPayload(f"header is not valid JSON: {exc}") from None
    return header, 10 + header_len
