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
lock held during segment rotation. Consume and the reopen scan read frames
in runs, one ``pread`` of at most 64 KiB per run (a bigger frame gets one
read of its own size), and decode them from that buffer.

On reopen, segments are scanned and a torn tail (short frame or CRC
mismatch) of a partition's last segment is truncated away: at-least-once
delivery for acked records, never a gap mid-partition. An earlier, sealed
segment must scan clean; a bad frame there raises ``CorruptPayload``
rather than drop acked records behind it. So does a ``topic.json`` naming
another directory's topic, and a group file that is not a map of
``<topic>/<partition>`` keys to non-negative int offsets within the end
of each partition that exists.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import struct
import threading
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .errors import CorruptPayload, IoFailure, OffsetOutOfRange, TopicExists, UnknownTopic
from .hashutil import fnv1a_32

DEFAULT_SEGMENT_BYTES = 16 * 1024 * 1024
FSYNC_INTERVAL = 256  # records per partition between fsyncs in ``batch`` mode
READ_WINDOW = 64 * 1024  # bytes per pread of a run of frames
_HEADER = struct.Struct("<II")  # frame_len, crc32
_BODY = struct.Struct("<qi")  # timestamp ms, key length (-1: no key)
_U32 = struct.Struct("<I")  # value length
_GROUP_KEY = re.compile(r"[^/]+/(?:0|[1-9][0-9]*)")  # <topic>/<partition> in a group file


class Record(NamedTuple):
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
    body = b"".join((_BODY.pack(timestamp_ms, -1 if key is None else len(key)), key or b"",
                     _U32.pack(len(value)), value))
    return _HEADER.pack(len(body) + 4, zlib.crc32(body)) + body


def _load_json_object(path: Path) -> dict:
    try:
        raw = json.loads(path.read_text("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CorruptPayload(f"{path} is not JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise CorruptPayload(f"{path} does not hold a JSON object")
    return raw


def _decode_body(body: bytes) -> tuple[bytes | None, bytes, int]:
    timestamp_ms, key_len = _BODY.unpack_from(body)
    pos = 12
    key = None
    if key_len >= 0:
        key = body[pos:pos + key_len]
        pos += key_len
    (val_len,) = _U32.unpack_from(body, pos)
    pos += 4
    return key, body[pos:pos + val_len], timestamp_ms


def _walk(fd: int, pos: int, end: int):
    """(position, crc, body) of each whole frame in bytes [pos, end) of
    ``fd``, in order, from one ``pread`` per run of frames. Stops at the
    first frame that is short or runs past ``end``."""
    size = READ_WINDOW
    while pos < end:
        buf = os.pread(fd, min(size, end - pos), pos)
        off = 0
        while off + _HEADER.size <= len(buf):
            frame_len, crc = _HEADER.unpack_from(buf, off)
            stop = off + 4 + frame_len
            if frame_len < 4 or stop > len(buf):
                break
            yield pos + off, crc, buf[off + _HEADER.size:stop]
            off = stop
        if off:
            pos, size = pos + off, READ_WINDOW
        elif len(buf) >= _HEADER.size and size < 4 + frame_len <= end - pos:
            size = 4 + frame_len  # a frame bigger than the window gets a read of its size
        else:
            return


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
        for start, crc, body in _walk(self.fd, 0, file_size):
            if zlib.crc32(body) != crc:
                break
            self.positions.append(start)
            pos = start + _HEADER.size + len(body)
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

    def read_run(self, start: int, count: int) -> list[tuple[bytes | None, bytes, int]]:
        """(key, value, timestamp_ms) of the ``count`` acked records from
        offset ``start``, one frame walk per segment they span."""
        if start < self.segments[0].base_offset:
            raise OffsetOutOfRange(f"offset {start} below log start")
        out: list[tuple[bytes | None, bytes, int]] = []
        for seg in self.segments:
            i = start + len(out) - seg.base_offset
            if i >= len(seg.positions):
                continue
            n = min(count - len(out), len(seg.positions) - i)
            # the next frame's position bounds the run; past the last one,
            # the size does, and it may already cover frames appended since
            end = seg.positions[i + n] if i + n < len(seg.positions) else seg.size
            frames = itertools.islice(_walk(seg.fd, seg.positions[i], end), n)
            out.extend(_decode_body(body) for _, _, body in frames)
            if len(out) == count:
                break
        return out

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
        self.round_robin = itertools.count()

    def open(self) -> None:
        for i in range(self.config.partitions):
            part = _Partition(self.dir / str(i))
            self.partitions.append(part)
            part.open()

    def close(self) -> None:
        for part in self.partitions:
            part.close()


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
        try:
            (self.root / "topics").mkdir(parents=True, exist_ok=True)
            (self.root / "groups").mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise IoFailure(f"cannot open broker directory {self.root}: {exc}") from exc
        try:
            self._recover()
        except BaseException:  # close what was opened so far, without an fsync
            for topic in self._topics.values():
                topic.close()
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
            if config.name != topic_dir.name:
                raise CorruptPayload(f"{meta}: names another directory's topic {config.name!r}")
            topic = _Topic(config, topic_dir)
            self._topics[config.name] = topic
            topic.open()
        for group_file in (self.root / "groups").glob("*.json"):
            state = _load_json_object(group_file)
            for key, offset in state.items():
                if not (_GROUP_KEY.fullmatch(key) and type(offset) is int and offset >= 0):
                    raise CorruptPayload(f"{group_file}: bad committed offset "
                                         f"{key!r}: {offset!r}")
                topic, p = key.split("/")
                ends = self.end_offsets(topic) if topic in self._topics else []
                if int(p) < len(ends) and offset > ends[int(p)]:
                    raise CorruptPayload(f"{group_file}: {key}: {offset} past end {ends[int(p)]}")
            self._groups[group_file.stem] = state

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
            self._replace_json(meta, {"name": config.name, "partitions": config.partitions})
            topic = _Topic(config, topic_dir)
            try:
                topic.open()
            except BaseException:  # close what was opened; the topic was never created
                topic.close()
                meta.unlink()
                raise
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
        if key is None:  # next() on an itertools.count is atomic
            partition = next(t.round_robin) % t.config.partitions
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

    def _collect(self, topic: str, starts: dict[int, int], max_records: int) -> list[Record]:
        """Round-robin across partitions, one record per partition with a
        backlog per round, in partition order; offset order within each."""
        t = self._topic(topic)
        backlog = [max(part.end_offset - starts.get(p, 0), 0)
                   for p, part in enumerate(t.partitions)]
        take = [0] * len(backlog)
        left = max_records
        while left > 0:  # as many whole rounds as every partition left in them can fill
            active = [p for p, n in enumerate(backlog) if take[p] < n]
            if not active:
                break
            rounds = min(left // len(active), min(backlog[p] - take[p] for p in active))
            if not rounds:  # a last, partial round
                active = active[:left]
                rounds = 1
            for p in active:
                take[p] += rounds
            left -= rounds * len(active)
        runs = []
        for p, n in enumerate(take):
            start = starts.get(p, 0)
            runs.append([Record(topic, p, start + i, key, value, timestamp_ms)
                         for i, (key, value, timestamp_ms)
                         in enumerate(t.partitions[p].read_run(start, n) if n else ())])
        if len(runs) == 1:
            return runs[0]
        return [rec for round_ in itertools.zip_longest(*runs) for rec in round_
                if rec is not None]

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
            self._replace_json(self.root / "groups" / f"{group}.json", state)

    def _replace_json(self, path: Path, obj: dict) -> None:
        """Atomically replace ``path`` with ``obj`` as sorted-key JSON, by a
        temporary file fsynced first unless durability is ``none``."""
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, sort_keys=True)
            fh.flush()
            if self.durability != "none":
                os.fsync(fh.fileno())
        os.replace(tmp, path)
