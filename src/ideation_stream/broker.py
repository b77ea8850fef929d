"""Embedded pub/sub commit log.

Topics are directories of partitions; each partition is a directory of
append-only segment files named by their base offset::

    <root>/
      topics/<topic>/topic.json              name and partition count
      topics/<topic>/<partition>/00000000000000000000.log
      groups/<group>.json                    committed offsets, atomic replace

Record frame (little-endian): u32 frame length (bytes after the field),
u32 CRC-32 over the rest of the frame, u64 timestamp ms, i32 key length
(-1 for no key), key bytes, u32 value length, value bytes. Offsets are
implicit: base offset of the segment plus the record's position in it.

Durability modes: ``fsync`` fsyncs before every ack, ``batch`` (default)
writes through an unbuffered fd and fsyncs every 256 records per
partition and on close, ``none`` never fsyncs explicitly. Reads go through
``os.pread`` on separate descriptors, so consumers see acked records
immediately and never block producers except for the per-partition append
lock held during segment rotation.

On reopen, segments are scanned and a torn tail (short frame or CRC
mismatch) of a partition's last segment is truncated away: at-least-once
delivery for acked records, never a gap mid-partition. An earlier, sealed
segment must scan clean; a bad frame there raises ``CorruptPayload``
rather than drop acked records behind it.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from .errors import CorruptPayload, OffsetOutOfRange, TopicExists, UnknownTopic
from .hashutil import fnv1a_32

DEFAULT_SEGMENT_BYTES = 16 * 1024 * 1024
FSYNC_INTERVAL = 256  # records per partition between fsyncs in ``batch`` mode
_HEADER = struct.Struct("<II")  # frame_len, crc32


@dataclass(frozen=True)
class Record:
    topic: str
    partition: int
    offset: int
    key: bytes | None
    value: bytes
    timestamp_ms: int


def _check_name(kind: str, name: str) -> None:
    """Topic and group names become one path component under the root."""
    if not isinstance(name, str) or name in ("", ".", "..") or set(name) & {"/", "\\", "\0"}:
        raise ValueError(f"bad {kind} name {name!r}")


@dataclass(frozen=True)
class TopicConfig:
    name: str
    partitions: int = 1

    def __post_init__(self) -> None:
        _check_name("topic", self.name)
        if not isinstance(self.partitions, int) or self.partitions < 1:
            raise ValueError(f"partitions must be an int >= 1, got {self.partitions!r}")


def _encode_frame(key: bytes | None, value: bytes, timestamp_ms: int) -> bytes:
    body = struct.pack("<q", timestamp_ms)
    if key is None:
        body += struct.pack("<i", -1)
    else:
        body += struct.pack("<i", len(key)) + key
    body += struct.pack("<I", len(value)) + value
    crc = zlib.crc32(body) & 0xFFFFFFFF
    return _HEADER.pack(len(body) + 4, crc) + body


def _load_json_object(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text("utf-8"))
    except ValueError as exc:
        raise CorruptPayload(f"{path} is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise CorruptPayload(f"{path} does not hold a JSON object")
    return raw


def _decode_body(body: bytes) -> tuple[bytes | None, bytes, int]:
    (timestamp_ms,) = struct.unpack_from("<q", body, 0)
    (key_len,) = struct.unpack_from("<i", body, 8)
    pos = 12
    key = None
    if key_len >= 0:
        key = body[pos:pos + key_len]
        pos += key_len
    (val_len,) = struct.unpack_from("<I", body, pos)
    pos += 4
    value = body[pos:pos + val_len]
    return key, value, timestamp_ms


class _Segment:
    def __init__(self, path: Path, base_offset: int):
        self.path = path
        self.base_offset = base_offset
        self.positions: list[int] = []
        self.size = 0
        self.fd = -1

    def open_and_scan(self, sealed: bool) -> None:
        """Index every intact frame. A torn tail of the active segment is
        truncated in place; a sealed segment must scan clean, and one that
        does not is left untouched and raises ``CorruptPayload``."""
        self.fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        file_size = os.fstat(self.fd).st_size
        pos = 0
        while pos + _HEADER.size <= file_size:
            header = os.pread(self.fd, _HEADER.size, pos)
            if len(header) < _HEADER.size:
                break
            frame_len, crc = _HEADER.unpack(header)
            body_len = frame_len - 4
            if body_len < 0 or pos + _HEADER.size + body_len > file_size:
                break
            body = os.pread(self.fd, body_len, pos + _HEADER.size)
            if zlib.crc32(body) & 0xFFFFFFFF != crc:
                break
            self.positions.append(pos)
            pos += _HEADER.size + body_len
        if pos < file_size:
            if sealed:
                self.close()
                raise CorruptPayload(f"{self.path}: sealed segment has a bad frame at byte "
                                     f"{pos} of {file_size}")
            os.ftruncate(self.fd, pos)
        self.size = pos

    def append(self, frame: bytes) -> int:
        pos = self.size
        os.pwrite(self.fd, frame, pos)
        self.size += len(frame)
        self.positions.append(pos)
        return self.base_offset + len(self.positions) - 1

    def read(self, local_index: int) -> bytes:
        pos = self.positions[local_index]
        header = os.pread(self.fd, _HEADER.size, pos)
        frame_len, _ = _HEADER.unpack(header)
        return os.pread(self.fd, frame_len - 4, pos + _HEADER.size)

    def close(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1


class _Partition:
    def __init__(self, directory: Path):
        self.dir = directory
        self.segments: list[_Segment] = []
        self.lock = threading.Lock()
        self.unsynced = 0

    def open(self) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        paths = sorted(self.dir.glob("*.log"))
        if not paths:
            paths = [self.dir / f"{0:020d}.log"]
        for i, path in enumerate(paths):
            seg = _Segment(path, base_offset=int(path.stem))
            self.segments.append(seg)  # registered first, so a failed open still closes it
            seg.open_and_scan(sealed=i < len(paths) - 1)

    @property
    def end_offset(self) -> int:
        last = self.segments[-1]
        return last.base_offset + len(last.positions)

    def append(self, frame: bytes, segment_bytes: int, durability: str) -> int:
        with self.lock:
            seg = self.segments[-1]
            if seg.size and seg.size + len(frame) > segment_bytes:
                if durability != "none":
                    os.fsync(seg.fd)  # retire the old segment fully synced
                    self.unsynced = 0
                new = _Segment(self.dir / f"{self.end_offset:020d}.log", self.end_offset)
                new.open_and_scan(sealed=False)
                self.segments.append(new)
                seg = new
            offset = seg.append(frame)
            if durability == "fsync":
                os.fsync(seg.fd)
            elif durability == "batch":
                self.unsynced += 1
                if self.unsynced >= FSYNC_INTERVAL:
                    os.fsync(seg.fd)
                    self.unsynced = 0
            return offset

    def read(self, offset: int) -> bytes:
        # segments are sorted by base offset; binary search would be
        # overkill for the handful of segments a partition grows here
        for seg in reversed(self.segments):
            if offset >= seg.base_offset:
                return seg.read(offset - seg.base_offset)
        raise OffsetOutOfRange(f"offset {offset} below log start")

    def flush(self) -> None:
        with self.lock:
            os.fsync(self.segments[-1].fd)
            self.unsynced = 0

    def close(self) -> None:
        for seg in self.segments:
            seg.close()


class _Topic:
    def __init__(self, config: TopicConfig, directory: Path):
        self.config = config
        self.dir = directory
        self.partitions: list[_Partition] = []
        self.rr_counter = 0

    def open(self) -> None:
        for i in range(self.config.partitions):
            part = _Partition(self.dir / str(i))
            self.partitions.append(part)
            part.open()


class Broker:
    """Thread-safe embedded broker over one root directory."""

    def __init__(self, root, durability: str = "batch", *,
                 segment_bytes: int = DEFAULT_SEGMENT_BYTES):
        if durability not in ("fsync", "batch", "none"):
            raise ValueError(f"unknown durability mode {durability!r}")
        self.root = Path(root)
        self.durability = durability
        self.segment_bytes = segment_bytes
        self._topics: dict[str, _Topic] = {}
        self._groups: dict[str, dict[str, int]] = {}
        self._lock = threading.RLock()
        self._data_ready = threading.Condition(self._lock)
        (self.root / "topics").mkdir(parents=True, exist_ok=True)
        (self.root / "groups").mkdir(parents=True, exist_ok=True)
        try:
            self._recover()
        except BaseException:  # close what was opened so far, without an fsync
            for topic in self._topics.values():
                for part in topic.partitions:
                    part.close()
            raise

    # -- lifecycle -------------------------------------------------------

    def _recover(self) -> None:
        for topic_dir in sorted((self.root / "topics").iterdir()):
            meta = topic_dir / "topic.json"
            if not meta.is_file():
                continue
            raw = _load_json_object(meta)
            try:  # other keys, such as a record cap older files carry, are ignored
                config = TopicConfig(name=raw["name"], partitions=raw["partitions"])
            except (KeyError, ValueError) as exc:
                raise CorruptPayload(f"{meta}: bad topic metadata ({exc})") from None
            topic = _Topic(config, topic_dir)
            self._topics[config.name] = topic
            topic.open()
        for group_file in (self.root / "groups").glob("*.json"):
            self._groups[group_file.stem] = _load_json_object(group_file)

    def close(self) -> None:
        with self._lock:
            for topic in self._topics.values():
                for part in topic.partitions:
                    if self.durability != "none":
                        part.flush()
                    part.close()
            self._topics.clear()

    def __enter__(self) -> "Broker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- topics ----------------------------------------------------------

    def create_topic(self, name: str, partitions: int = 1) -> None:
        config = TopicConfig(name=name, partitions=partitions)
        with self._lock:
            if config.name in self._topics:
                raise TopicExists(f"topic {config.name!r} already exists")
            topic_dir = self.root / "topics" / config.name
            topic_dir.mkdir(parents=True, exist_ok=True)
            meta = topic_dir / "topic.json"
            tmp = meta.with_suffix(".tmp")
            tmp.write_text(json.dumps({"name": config.name,
                                       "partitions": config.partitions},
                                      sort_keys=True), "utf-8")
            os.replace(tmp, meta)
            topic = _Topic(config, topic_dir)
            topic.open()
            self._topics[config.name] = topic

    def topics(self) -> list[str]:
        with self._lock:
            return sorted(self._topics)

    def _topic(self, name: str) -> _Topic:
        topic = self._topics.get(name)
        if topic is None:
            raise UnknownTopic(f"topic {name!r} does not exist")
        return topic

    def end_offsets(self, topic: str) -> list[int]:
        t = self._topic(topic)
        return [p.end_offset for p in t.partitions]

    # -- producing -------------------------------------------------------

    def produce(self, topic: str, value: bytes, key: bytes | None = None,
                timestamp_ms: int | None = None) -> tuple[int, int]:
        """Append one record; returns (partition, offset) after the
        durability mode has acknowledged the write."""
        t = self._topic(topic)
        if key is None:
            with self._lock:
                partition = t.rr_counter % t.config.partitions
                t.rr_counter += 1
        else:
            partition = fnv1a_32(key) % t.config.partitions

        if timestamp_ms is None:
            timestamp_ms = int(time.time() * 1000)
        frame = _encode_frame(key, value, timestamp_ms)
        offset = t.partitions[partition].append(frame, self.segment_bytes, self.durability)
        with self._data_ready:
            self._data_ready.notify_all()
        return partition, offset

    # -- consuming -------------------------------------------------------

    def _read_record(self, topic: str, partition: int, offset: int) -> Record:
        body = self._topic(topic).partitions[partition].read(offset)
        key, value, timestamp_ms = _decode_body(body)
        return Record(topic=topic, partition=partition, offset=offset,
                      key=key, value=value, timestamp_ms=timestamp_ms)

    def _collect(self, topic: str, starts: dict[int, int], max_records: int) -> list[Record]:
        """Round-robin across partitions, offset order within each."""
        t = self._topic(topic)
        cursors = dict(starts)
        out: list[Record] = []
        progress = True
        while len(out) < max_records and progress:
            progress = False
            for p in range(t.config.partitions):
                if len(out) >= max_records:
                    break
                cursor = cursors.get(p, 0)
                if cursor < t.partitions[p].end_offset:
                    out.append(self._read_record(topic, p, cursor))
                    cursors[p] = cursor + 1
                    progress = True
        return out

    def consume(self, topic: str, group: str, max_records: int = 1024,
                timeout_ms: float = 0.0) -> list[Record]:
        """Records after the group's committed offsets; does not advance
        commits, so the same batch is redelivered until committed."""
        t = self._topic(topic)
        deadline = time.monotonic() + timeout_ms / 1000.0
        while True:
            committed = self.committed(group, topic)
            starts = {p: committed.get(p, 0) for p in range(t.config.partitions)}
            batch = self._collect(topic, starts, max_records)
            if batch or timeout_ms <= 0:
                return batch
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return []
            with self._data_ready:
                self._data_ready.wait(timeout=remaining)

    # -- offsets ---------------------------------------------------------

    def committed(self, group: str, topic: str) -> dict[int, int]:
        with self._lock:
            state = self._groups.get(group, {})
            prefix = f"{topic}/"
            return {int(k[len(prefix):]): v for k, v in state.items()
                    if k.startswith(prefix)}

    def commit(self, group: str, topic: str, offsets: dict[int, int]) -> None:
        """Durably record next-to-read offsets; rejects offsets beyond the
        partition end."""
        _check_name("group", group)
        t = self._topic(topic)
        for p, offset in offsets.items():
            if p < 0 or p >= t.config.partitions:
                raise OffsetOutOfRange(f"no partition {p} in topic {topic!r}")
            end = t.partitions[p].end_offset
            if offset < 0 or offset > end:
                raise OffsetOutOfRange(
                    f"commit {offset} beyond end {end} for {topic}/{p}")
        with self._lock:
            state = self._groups.setdefault(group, {})
            for p, offset in offsets.items():
                state[f"{topic}/{p}"] = offset
            self._write_group(group, state)

    def _write_group(self, group: str, state: dict[str, int]) -> None:
        path = self.root / "groups" / f"{group}.json"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(state, fh, sort_keys=True)
            fh.flush()
            if self.durability != "none":
                os.fsync(fh.fileno())
        os.replace(tmp, path)
