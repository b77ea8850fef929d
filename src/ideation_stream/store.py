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
version byte reports VersionMismatch, not CorruptPayload. A CRC-valid
file whose header is not a JSON object (or is nested past the parser's
depth), whose section has another dtype than ``save`` writes for its
name, whose arrays do not fit the header ``dim``, whose tree is not a
forward tree, whose hashing bucket count is not a power of two >= 2, or
whose n-gram orders or joiner are not the ones its combo implies, is
CorruptPayload too.
"""

from __future__ import annotations

import hashlib
import json
import math
import zlib

import numpy as np

from .classifiers.base import ModelArtifact, ModelKind
from .classifiers.linear import LinearParams
from .classifiers.mlp import MLPParams
from .classifiers.naive_bayes import NBParams
from .classifiers.tree import ForestParams, TreeParams
from .errors import CorruptPayload, IoFailure, NotFitted, VersionMismatch
from .features import (COMBO_ORDERS, GRAM_JOINER, FeatureCombo, FeaturePipeline,
                       Vocabulary, check_num_buckets)

MAGIC = b"ISPK"
FORMAT_VERSION = 1

_TREE_FIELDS = ("feature", "threshold", "left", "right", "count_neg", "count_pos")
_ITEM_BYTES = {"bytes": 1, "<f8": 8, "<i8": 8}


def _sections_for_model(model: ModelArtifact) -> list[tuple[str, np.ndarray]]:
    p = model.params
    if model.kind is ModelKind.NB:
        return [("nb.log_prior", p.log_prior), ("nb.log_lik", p.log_lik)]
    if model.kind in (ModelKind.LR, ModelKind.SVC):
        return [("linear.weights", p.weights),
                ("linear.bias", np.array([p.bias], dtype=np.float64))]
    if model.kind is ModelKind.DT:
        return [(f"tree.0.{f}", getattr(p, f)) for f in _TREE_FIELDS]
    if model.kind is ModelKind.RF:
        out = []
        for t, tree in enumerate(p.trees):
            out.extend((f"tree.{t}.{f}", getattr(tree, f)) for f in _TREE_FIELDS)
        return out
    if model.kind is ModelKind.MLP:
        out = []
        for i, (w, b) in enumerate(zip(p.weights, p.biases)):
            out.append((f"mlp.w{i}", w))
            out.append((f"mlp.b{i}", b))
        return out
    raise ValueError(f"unknown model kind {model.kind!r}")


def _pipeline_header(pipe: FeaturePipeline) -> dict:
    return {
        "combo": pipe.combo.value,
        "ngram_orders": list(COMBO_ORDERS[pipe.combo]),
        "joiner": GRAM_JOINER,
        "normalize_tf": pipe.normalize_tf,
        "min_tf": pipe.min_tf,
        "num_buckets": pipe.num_buckets,
        "vocab_num_docs": pipe.vocab.num_docs if pipe.vocab else None,
    }


def _pipeline_sections(pipe: FeaturePipeline) -> list[tuple[str, np.ndarray | bytes]]:
    sections = [("idf", pipe.idf)]
    if pipe.vocab is not None:
        terms = "\n".join(pipe.vocab.terms_by_index()).encode("utf-8")
        sections += [("vocab.terms", terms), ("vocab.doc_freq", pipe.vocab.doc_freq)]
    return sections


def _numpy_json(obj):
    """``json.dumps`` ``default``: numpy scalars and arrays as Python values."""
    if isinstance(obj, (np.generic, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def save(pipeline: FeaturePipeline, model: ModelArtifact, path, *,
         metrics_snapshot: dict | None = None,
         preprocess_config_digest: str | None = None) -> str:
    """Write the artifact; returns the sha256 digest of the file bytes."""
    sections = _pipeline_sections(pipeline) + _sections_for_model(model)
    table = []
    payloads = []
    for name, array in sections:
        if isinstance(array, bytes):
            data = array
            table.append({"name": name, "dtype": "bytes", "shape": [len(data)]})
        else:
            arr = np.ascontiguousarray(array)
            kind = {"f": "<f8", "i": "<i8"}[arr.dtype.kind]
            data = memoryview(arr.astype(kind, copy=False).reshape(-1).view(np.uint8))
            table.append({"name": name, "dtype": kind, "shape": list(arr.shape)})
        payloads.append(data)

    header = {
        "format_version": FORMAT_VERSION,
        "model_kind": model.kind.value,
        "dim": model.dim,
        "pipeline": _pipeline_header(pipeline),
        "training_meta": model.training_meta,
        "metrics_snapshot": metrics_snapshot,
        "preprocess_config_digest": preprocess_config_digest,
        "sections": table,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":"),
                              default=_numpy_json).encode("utf-8")

    chunks = [MAGIC, FORMAT_VERSION.to_bytes(2, "little"),
              len(header_bytes).to_bytes(4, "little"), header_bytes, *payloads]
    crc, digest = 0, hashlib.sha256()
    for chunk in chunks:  # piece by piece: the file's bytes are never joined
        crc = zlib.crc32(chunk, crc)
        digest.update(chunk)
    chunks.append(crc.to_bytes(4, "little"))
    digest.update(chunks[-1])

    try:
        with open(path, "wb") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc
    return digest.hexdigest()


def inspect_header(path) -> dict:
    """Parse and return the JSON header without rebuilding the model."""
    blob = _read(path)
    _check_framing(blob)
    return _parse_header(blob)[0]


def load(path) -> tuple[FeaturePipeline, ModelArtifact]:
    """Restore (pipeline, model); every array must fit the header ``dim``."""
    blob = _read(path)
    _check_framing(blob)
    header, payload_start = _parse_header(blob)

    try:
        return _rebuild(header, _read_sections(blob, header["sections"], payload_start))
    except (KeyError, IndexError, TypeError, ValueError, NotFitted) as exc:
        # a missing section or key, an unknown kind tag, a shape the model
        # cannot use, vocabulary bytes that are not UTF-8, or no vocabulary
        raise CorruptPayload(f"header and sections do not form a model: {exc!r}") from None


def _read_sections(blob: bytes, table: list, pos: int) -> dict[str, np.ndarray | bytes]:
    """Slice the payload by the section table, which must cover it exactly."""
    arrays: dict[str, np.ndarray | bytes] = {}
    end = len(blob) - 4
    for entry in table:
        name, dtype, shape = entry["name"], entry["dtype"], entry["shape"]
        if (type(name) is not str or dtype != _saved_dtype(name) or not isinstance(shape, list)
                or not all(type(n) is int and n >= 0 for n in shape)
                or (dtype == "bytes" and len(shape) != 1)):
            raise CorruptPayload(f"bad section entry {entry!r}")
        count = math.prod(shape)
        size = count * _ITEM_BYTES[dtype]
        if size > end - pos:
            raise CorruptPayload(f"section {name!r} runs past the payload")
        arrays[name] = blob[pos:pos + size] if dtype == "bytes" else np.frombuffer(
            blob, dtype=dtype, count=count, offset=pos).reshape(shape).copy()
        pos += size
    if pos != end:
        raise CorruptPayload("section table does not cover the payload")
    return arrays


def _saved_dtype(name: str) -> str:
    """The dtype ``save`` writes the section ``name`` in."""
    if name == "vocab.terms":
        return "bytes"
    ints = name == "vocab.doc_freq" or name.startswith("tree.") and not name.endswith(".threshold")
    return "<i8" if ints else "<f8"


def _rebuild(header: dict, arrays: dict) -> tuple[FeaturePipeline, ModelArtifact]:
    ph = header["pipeline"]
    pipe = FeaturePipeline(
        combo=FeatureCombo(ph["combo"]),
        normalize_tf=ph["normalize_tf"],
        min_tf=ph["min_tf"],
        num_buckets=ph["num_buckets"],
    )
    orders, joiner = ph["ngram_orders"], ph["joiner"]
    _require(orders == list(COMBO_ORDERS[pipe.combo]) and joiner == GRAM_JOINER,
             f"n-gram orders {orders!r} or joiner {joiner!r} contradict {pipe.combo.value}")
    if pipe.hashing:
        check_num_buckets(pipe.num_buckets)
    if "vocab.terms" in arrays:
        terms = arrays["vocab.terms"].decode("utf-8").split("\n")
        df = arrays["vocab.doc_freq"]
        pipe.vocab = Vocabulary(term_to_index={t: j for j, t in enumerate(terms)},
                                doc_freq=df, num_docs=ph["vocab_num_docs"])
        _require(pipe.vocab.dim == len(terms), "vocabulary terms are not distinct")
    pipe.idf = arrays["idf"]
    dim = header["dim"]
    _require(np.shape(pipe.idf) == (dim,) and pipe.dim == dim,
             "idf or vocabulary does not fit the header dim")

    kind = ModelKind(header["model_kind"])
    model = ModelArtifact(kind=kind, dim=dim, params=_params_from_arrays(kind, arrays, dim),
                          training_meta=header["training_meta"])
    return pipe, model


def _require(fits, problem: str) -> None:
    if not fits:
        raise CorruptPayload(problem)


def _params_from_arrays(kind: ModelKind, arrays: dict, dim: int):
    if kind is ModelKind.NB:
        prior, lik = arrays["nb.log_prior"], arrays["nb.log_lik"]
        _require(np.shape(prior) == (2,) and np.shape(lik) == (2, dim),
                 "nb sections do not fit the header dim")
        return NBParams(log_prior=prior, log_lik=lik)
    if kind in (ModelKind.LR, ModelKind.SVC):
        weights, bias = arrays["linear.weights"], arrays["linear.bias"]
        _require(np.shape(weights) == (dim,) and np.shape(bias) == (1,),
                 "linear sections do not fit the header dim")
        return LinearParams(weights=weights, bias=float(bias[0]))
    if kind is ModelKind.DT:
        return _tree_from_arrays(arrays, 0, dim)
    if kind is ModelKind.RF:
        trees = []
        while f"tree.{len(trees)}.feature" in arrays:
            trees.append(_tree_from_arrays(arrays, len(trees), dim))
        if not trees:
            raise CorruptPayload("forest artifact holds no trees")
        return ForestParams(trees=trees)
    if kind is ModelKind.MLP:
        weights, biases = [], []
        fan_in = dim
        while f"mlp.w{len(weights)}" in arrays:
            i = len(weights)
            w, b = arrays[f"mlp.w{i}"], arrays[f"mlp.b{i}"]
            _require(np.ndim(w) == 2 and np.shape(w)[0] == fan_in
                     and np.shape(b) == np.shape(w)[1:], f"mlp layer {i} does not chain")
            fan_in = w.shape[1]
            weights.append(w)
            biases.append(b)
        _require(weights and fan_in == 2, "mlp layers do not end in 2 outputs")
        return MLPParams(weights=weights, biases=biases)
    raise CorruptPayload(f"unknown model kind {kind!r}")


def _tree_from_arrays(arrays: dict, t: int, dim: int) -> TreeParams:
    """A forward tree: internal nodes split on a column in [0, dim) and
    point to two later nodes, leaves have -1 children; scoring halts."""
    tree = TreeParams(**{f: arrays[f"tree.{t}.{f}"] for f in _TREE_FIELDS})
    n = np.size(tree.feature)
    _require(n and all(np.shape(getattr(tree, f)) == (n,) for f in _TREE_FIELDS),
             f"tree {t} sections are not {n}-node 1-D arrays")
    node, leaf = np.arange(n), tree.feature == -1
    inner = (tree.feature >= 0) & (tree.feature < dim) & (tree.left > node) \
        & (tree.right > node) & (tree.left < n) & (tree.right < n)
    _require(np.all(np.where(leaf, (tree.left == -1) & (tree.right == -1), inner)),
             f"tree {t} is not a forward tree over dim {dim}")
    return tree


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
    if zlib.crc32(memoryview(blob)[:-4]) & 0xFFFFFFFF != stored_crc:
        raise CorruptPayload("CRC-32 check failed; file truncated or altered")


def _parse_header(blob: bytes) -> tuple[dict, int]:
    header_len = int.from_bytes(blob[6:10], "little")
    if 10 + header_len > len(blob) - 4:
        raise CorruptPayload("header length exceeds file size")
    try:
        header = json.loads(blob[10:10 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CorruptPayload(f"header is not valid JSON: {exc}") from None
    _require(isinstance(header, dict), "header is not a JSON object")
    return header, 10 + header_len
